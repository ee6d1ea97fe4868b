//! Minimal dependency-free argument parsing for the `spcp` binary.

use std::collections::HashMap;

/// A parsed command line: subcommand, further positional arguments,
/// `--key value` options, and `--flag` switches.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// The positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` pairs.
    pub options: HashMap<String, String>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
}

impl Args {
    /// Parses an argument list (without the program name).
    ///
    /// Every `--key` consumes the following token as its value unless that
    /// token is itself an option, in which case `--key` is a flag.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Args {
        let mut args = Args::default();
        let tokens: Vec<String> = argv.into_iter().collect();
        let mut i = 0;
        while i < tokens.len() {
            let tok = &tokens[i];
            if let Some(key) = tok.strip_prefix("--") {
                let has_value = tokens
                    .get(i + 1)
                    .map(|n| !n.starts_with("--"))
                    .unwrap_or(false);
                if has_value {
                    args.options.insert(key.to_string(), tokens[i + 1].clone());
                    i += 2;
                } else {
                    args.flags.push(key.to_string());
                    i += 1;
                }
            } else {
                if args.command.is_empty() {
                    args.command = tok.clone();
                } else {
                    args.positional.push(tok.clone());
                }
                i += 1;
            }
        }
        args
    }

    /// The value of `--key`, if given.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// The value of `--key` parsed as `T`, or `default`.
    ///
    /// # Errors
    ///
    /// Returns an error string when the value does not parse.
    pub fn opt_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    /// Whether `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_and_options() {
        let a = parse("run --bench ocean --seed 9");
        assert_eq!(a.command, "run");
        assert_eq!(a.opt("bench"), Some("ocean"));
        assert_eq!(a.opt_parse("seed", 7u64).unwrap(), 9);
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("run");
        assert_eq!(a.opt("bench"), None);
        assert_eq!(a.opt_parse("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn flags_have_no_value() {
        let a = parse("run --json --bench x264");
        assert!(a.flag("json"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.opt("bench"), Some("x264"));
    }

    #[test]
    fn trailing_flag_before_option() {
        let a = parse("run --filter --seed 3");
        assert!(a.flag("filter"));
        assert_eq!(a.opt("seed"), Some("3"));
    }

    #[test]
    fn positionals_follow_the_command() {
        let a = parse("exp fig8 fig9 --jobs 2");
        assert_eq!(a.command, "exp");
        assert_eq!(a.positional, ["fig8", "fig9"]);
        assert_eq!(a.opt("jobs"), Some("2"));
    }

    #[test]
    fn bad_numeric_value_errors() {
        let a = parse("run --seed banana");
        assert!(a.opt_parse("seed", 7u64).is_err());
    }

    #[test]
    fn empty_command_line() {
        let a = parse("");
        assert_eq!(a.command, "");
    }
}
