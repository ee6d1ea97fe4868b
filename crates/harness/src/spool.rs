//! Spool files: per-worker shard files of framed run records, plus the
//! bounded-memory merge that folds them back into canonical matrix order.
//!
//! A streamed sweep writes one shard file per worker per invocation
//! (`shard-g<generation>-w<worker>.jsonl`). Each shard opens with a header
//! frame carrying the matrix fingerprint, followed by one run-record frame
//! per completed run. Because workers claim specs through a monotonically
//! increasing cursor, **every shard file is sorted by run index**, which is
//! what lets [`SpoolMerge`] replay a whole sweep in canonical order while
//! holding only one record per shard in memory.
//!
//! Crash safety comes from the frame layer ([`crate::frame`]): a torn tail
//! line is discarded, a corrupt line is rejected, and resume simply treats
//! both as "run not done".

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::frame;
use crate::matrix::RunSpec;
use crate::record::{self, RunRecord, ShardHeader, RECORD_VERSION};

/// Why a spool operation failed.
#[derive(Debug)]
pub enum SpoolError {
    /// An underlying filesystem error.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        error: io::Error,
    },
    /// A shard file is structurally invalid beyond what crash truncation
    /// can explain (e.g. a run record appears before any shard header, or
    /// a record's identity contradicts the matrix).
    Corrupt {
        /// The shard file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// A shard belongs to a different run matrix than the one being
    /// swept — resuming it would silently mix incompatible results.
    MatrixMismatch {
        /// The shard file.
        path: PathBuf,
        /// Fingerprint of the matrix being swept.
        expected: u64,
        /// Fingerprint stored in the shard header.
        found: u64,
    },
    /// The output directory already holds shard files and `--resume` was
    /// not requested.
    NotEmpty {
        /// The output directory.
        dir: PathBuf,
    },
    /// A merge ended with runs still missing from the spool.
    Incomplete {
        /// How many matrix cells have no complete record.
        missing: usize,
        /// Total cells in the matrix.
        total: usize,
    },
}

impl fmt::Display for SpoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpoolError::Io { path, error } => {
                write!(f, "spool io error at {}: {error}", path.display())
            }
            SpoolError::Corrupt { path, detail } => {
                write!(f, "corrupt spool shard {}: {detail}", path.display())
            }
            SpoolError::MatrixMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "shard {} belongs to a different matrix (fingerprint {found:016x}, \
                 sweep expects {expected:016x}); use a fresh --out directory",
                path.display()
            ),
            SpoolError::NotEmpty { dir } => write!(
                f,
                "output directory {} already contains shard files; \
                 pass --resume to continue them or choose a fresh directory",
                dir.display()
            ),
            SpoolError::Incomplete { missing, total } => write!(
                f,
                "spool is incomplete: {missing} of {total} runs have no complete record"
            ),
        }
    }
}

impl std::error::Error for SpoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpoolError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

fn io_err(path: &Path, error: io::Error) -> SpoolError {
    SpoolError::Io {
        path: path.to_path_buf(),
        error,
    }
}

/// Fingerprint of an expanded matrix: FNV-1a over every spec id (in
/// canonical order, `+filter` appended to snoop-filtered cells and
/// `+record` to recording ones) plus the spec count.
///
/// Stored in shard headers so `--resume` refuses to mix results from a
/// different matrix into the current sweep. `validate` is left out: it
/// checks a run without changing its stats.
pub fn fingerprint(specs: &[RunSpec]) -> u64 {
    let mut buf = String::new();
    for spec in specs {
        buf.push_str(&spec.id());
        if spec.snoop_filter {
            buf.push_str("+filter");
        }
        if spec.record {
            buf.push_str("+record");
        }
        buf.push('\n');
    }
    buf.push_str(&specs.len().to_string());
    frame::checksum(buf.as_bytes())
}

/// Shard file name for one worker of one sweep invocation (generation).
pub fn shard_name(generation: u64, worker: usize) -> String {
    format!("shard-g{generation:04}-w{worker:04}.jsonl")
}

/// All shard files in a spool directory, sorted by name (generation-major,
/// then worker — i.e. oldest generation first).
pub fn shard_files(dir: &Path) -> Result<Vec<PathBuf>, SpoolError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err(dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("shard-") && name.ends_with(".jsonl") {
            out.push(entry.path());
        }
    }
    out.sort();
    Ok(out)
}

/// Next free generation number in a spool directory (0 for a fresh one).
pub fn next_generation(dir: &Path) -> Result<u64, SpoolError> {
    let mut next = 0;
    for path in shard_files(dir)? {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        // shard-g<gen>-w<worker>.jsonl
        if let Some(gen) = name
            .strip_prefix("shard-g")
            .and_then(|r| r.split('-').next())
            .and_then(|g| g.parse::<u64>().ok())
        {
            next = next.max(gen + 1);
        }
    }
    Ok(next)
}

/// Append-only writer for one shard file.
///
/// The file is created lazily on the first [`Self::append`], so workers
/// that never complete a run leave no empty shard behind. The header frame
/// is written first; records are flushed **and** fsync'd every
/// `flush_every` appends, bounding how many completed runs a crash can
/// lose.
#[derive(Debug)]
pub struct SpoolWriter {
    path: PathBuf,
    header: ShardHeader,
    file: Option<BufWriter<File>>,
    flush_every: usize,
    pending: usize,
    written: usize,
}

impl SpoolWriter {
    /// A writer for `path` (not yet created) flushing every `flush_every`
    /// records (clamped to at least 1).
    pub fn new(path: impl Into<PathBuf>, header: ShardHeader, flush_every: usize) -> Self {
        SpoolWriter {
            path: path.into(),
            header,
            file: None,
            flush_every: flush_every.max(1),
            pending: 0,
            written: 0,
        }
    }

    fn open(&mut self) -> Result<&mut BufWriter<File>, SpoolError> {
        if self.file.is_none() {
            let file = OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&self.path)
                .map_err(|e| io_err(&self.path, e))?;
            let mut writer = BufWriter::new(file);
            writer
                .write_all(frame::encode(&record::encode_header(&self.header)).as_bytes())
                .map_err(|e| io_err(&self.path, e))?;
            self.file = Some(writer);
        }
        Ok(self.file.as_mut().expect("just opened"))
    }

    /// Appends one run record, syncing if the flush interval elapsed.
    pub fn append(&mut self, rec: &RunRecord) -> Result<(), SpoolError> {
        let path = self.path.clone();
        let writer = self.open()?;
        writer
            .write_all(frame::encode(&record::encode_record(rec)).as_bytes())
            .map_err(|e| io_err(&path, e))?;
        self.written += 1;
        self.pending += 1;
        if self.pending >= self.flush_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes buffered records and fsyncs file data to disk.
    pub fn sync(&mut self) -> Result<(), SpoolError> {
        if let Some(writer) = self.file.as_mut() {
            writer.flush().map_err(|e| io_err(&self.path, e))?;
            writer
                .get_ref()
                .sync_data()
                .map_err(|e| io_err(&self.path, e))?;
        }
        self.pending = 0;
        Ok(())
    }

    /// Records appended so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Final sync; consumes the writer.
    pub fn finish(mut self) -> Result<(), SpoolError> {
        self.sync()
    }
}

/// Incremental reader over one shard file.
///
/// Damaged lines (failed checksum, bad frame, undecodable record) are
/// counted and skipped, and an unterminated tail line is discarded — both
/// are exactly what a crash leaves behind, and resume treats the affected
/// runs as not done. Only structural impossibilities (a record before the
/// shard header) are hard errors.
#[derive(Debug)]
pub struct ShardReader {
    path: PathBuf,
    reader: BufReader<File>,
    buf: Vec<u8>,
    header: Option<ShardHeader>,
    rejected: usize,
    truncated_tail: bool,
    done: bool,
}

impl ShardReader {
    /// Opens a shard and reads up to its header frame.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, SpoolError> {
        let path = path.into();
        let file = File::open(&path).map_err(|e| io_err(&path, e))?;
        let mut reader = ShardReader {
            path,
            reader: BufReader::new(file),
            buf: Vec::with_capacity(1024),
            header: None,
            rejected: 0,
            truncated_tail: false,
            done: false,
        };
        reader.read_header()?;
        Ok(reader)
    }

    /// Reads lines until the first valid frame, which must be a shard
    /// header. A shard whose header never made it to disk (crash at file
    /// creation) reads as empty.
    fn read_header(&mut self) -> Result<(), SpoolError> {
        while let Some(payload) = self.next_payload()? {
            match record::decode_header(&payload) {
                Ok(h) => {
                    if h.version != RECORD_VERSION {
                        return Err(SpoolError::Corrupt {
                            path: self.path.clone(),
                            detail: format!("unsupported spool version {}", h.version),
                        });
                    }
                    self.header = Some(h);
                    return Ok(());
                }
                Err(_) => {
                    // A valid frame that is not a header: a record cannot
                    // legally precede the header (writes are sequential),
                    // so this is real corruption, not a crash artifact.
                    if record::decode_record(&payload).is_ok() {
                        return Err(SpoolError::Corrupt {
                            path: self.path.clone(),
                            detail: "run record before shard header".to_string(),
                        });
                    }
                    self.rejected += 1;
                }
            }
        }
        Ok(())
    }

    /// Next valid frame payload, skipping damaged lines; `None` at EOF or
    /// at a torn tail.
    fn next_payload(&mut self) -> Result<Option<String>, SpoolError> {
        while !self.done {
            self.buf.clear();
            let n = self
                .reader
                .read_until(b'\n', &mut self.buf)
                .map_err(|e| io_err(&self.path, e))?;
            if n == 0 {
                self.done = true;
                break;
            }
            if self.buf.last() != Some(&b'\n') {
                // Unterminated tail: the signature of a crash mid-append.
                self.truncated_tail = true;
                self.done = true;
                break;
            }
            match frame::decode_line(&self.buf[..self.buf.len() - 1]) {
                Ok(payload) => return Ok(Some(payload.to_string())),
                Err(_) => self.rejected += 1,
            }
        }
        Ok(None)
    }

    /// Next complete run record, skipping damaged lines.
    pub fn next_record(&mut self) -> Result<Option<RunRecord>, SpoolError> {
        while let Some(payload) = self.next_payload()? {
            match record::decode_record(&payload) {
                Ok(rec) => return Ok(Some(rec)),
                Err(_) => self.rejected += 1,
            }
        }
        Ok(None)
    }

    /// The shard's header, if one was read intact.
    pub fn header(&self) -> Option<&ShardHeader> {
        self.header.as_ref()
    }

    /// The shard file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Damaged (rejected) lines seen so far.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Whether the file ended in a torn, discarded tail line.
    pub fn truncated_tail(&self) -> bool {
        self.truncated_tail
    }
}

/// Bounded-memory k-way merge over shard files, yielding run records in
/// ascending index order with cross-shard duplicates dropped (first wins —
/// duplicates are bit-identical by the determinism contract anyway).
///
/// Memory held: one decoded record per shard, independent of matrix size.
#[derive(Debug)]
pub struct SpoolMerge {
    readers: Vec<ShardReader>,
    heads: Vec<Option<RunRecord>>,
    duplicates: usize,
    last_index: Option<usize>,
}

impl SpoolMerge {
    /// Opens every shard, verifying each intact header against the
    /// sweep's matrix fingerprint.
    pub fn open(paths: &[PathBuf], expected_fingerprint: u64) -> Result<Self, SpoolError> {
        let mut readers = Vec::with_capacity(paths.len());
        let mut heads = Vec::with_capacity(paths.len());
        for path in paths {
            let mut reader = ShardReader::open(path)?;
            if let Some(h) = reader.header() {
                if h.fingerprint != expected_fingerprint {
                    return Err(SpoolError::MatrixMismatch {
                        path: path.clone(),
                        expected: expected_fingerprint,
                        found: h.fingerprint,
                    });
                }
            }
            let head = reader.next_record()?;
            readers.push(reader);
            heads.push(head);
        }
        Ok(SpoolMerge {
            readers,
            heads,
            duplicates: 0,
            last_index: None,
        })
    }

    /// Next record in ascending index order, or `None` when all shards are
    /// exhausted. Not an `Iterator`: every pull is fallible, and callers
    /// want `?` on the `Result`, not `Option<Result<…>>` adapters.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<RunRecord>, SpoolError> {
        loop {
            let mut min: Option<usize> = None;
            for (slot, head) in self.heads.iter().enumerate() {
                if let Some(rec) = head {
                    let better = match min {
                        None => true,
                        Some(m) => {
                            rec.index < self.heads[m].as_ref().expect("min slot is occupied").index
                        }
                    };
                    if better {
                        min = Some(slot);
                    }
                }
            }
            let Some(slot) = min else { return Ok(None) };
            let rec = self.heads[slot].take().expect("min slot is occupied");
            self.heads[slot] = self.readers[slot].next_record()?;
            if self.last_index == Some(rec.index) {
                // Cross-generation duplicate (a record that reached disk
                // despite never being fsync'd before the crash).
                self.duplicates += 1;
                continue;
            }
            self.last_index = Some(rec.index);
            return Ok(Some(rec));
        }
    }

    /// Cross-shard duplicate records dropped so far.
    pub fn duplicates(&self) -> usize {
        self.duplicates
    }

    /// Total damaged lines skipped across all shards so far.
    pub fn rejected(&self) -> usize {
        self.readers.iter().map(|r| r.rejected()).sum()
    }

    /// How many shards ended in a torn, discarded tail line.
    pub fn truncated_tails(&self) -> usize {
        self.readers.iter().filter(|r| r.truncated_tail()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::RunMatrix;
    use spcp_system::{ProtocolKind, RunStats};
    use std::time::Duration;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spcp-spool-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn header(fp: u64) -> ShardHeader {
        ShardHeader {
            version: RECORD_VERSION,
            fingerprint: fp,
            specs: 4,
        }
    }

    fn rec(index: usize, ops: u64) -> RunRecord {
        RunRecord {
            index,
            id: format!("run{index}"),
            wall: Duration::from_millis(1),
            worker: 0,
            stats: RunStats {
                benchmark: "b".into(),
                protocol: "p".into(),
                total_ops: ops,
                ..RunStats::default()
            },
        }
    }

    #[test]
    fn writer_reader_round_trip() {
        let dir = tmp_dir("rt");
        let path = dir.join(shard_name(0, 0));
        let mut w = SpoolWriter::new(&path, header(42), 2);
        for i in 0..5 {
            w.append(&rec(i, 100 + i as u64)).unwrap();
        }
        assert_eq!(w.written(), 5);
        w.finish().unwrap();

        let mut r = ShardReader::open(&path).unwrap();
        assert_eq!(r.header().unwrap().fingerprint, 42);
        let mut seen = Vec::new();
        while let Some(rec) = r.next_record().unwrap() {
            seen.push((rec.index, rec.stats.total_ops));
        }
        assert_eq!(seen, [(0, 100), (1, 101), (2, 102), (3, 103), (4, 104)]);
        assert_eq!(r.rejected(), 0);
        assert!(!r.truncated_tail());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_writer_creates_no_file() {
        let dir = tmp_dir("lazy");
        let path = dir.join(shard_name(0, 1));
        let w = SpoolWriter::new(&path, header(1), 8);
        w.finish().unwrap();
        assert!(!path.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_discarded_not_an_error() {
        let dir = tmp_dir("trunc");
        let path = dir.join(shard_name(0, 0));
        let mut w = SpoolWriter::new(&path, header(7), 1);
        w.append(&rec(0, 10)).unwrap();
        w.append(&rec(1, 11)).unwrap();
        w.finish().unwrap();

        // Simulate a crash mid-append: chop bytes off the tail record.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let mut r = ShardReader::open(&path).unwrap();
        let first = r.next_record().unwrap().unwrap();
        assert_eq!(first.index, 0);
        assert!(r.next_record().unwrap().is_none());
        assert!(r.truncated_tail());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_before_header_is_corrupt() {
        let dir = tmp_dir("corrupt");
        let path = dir.join(shard_name(0, 0));
        let line = frame::encode(&record::encode_record(&rec(0, 1)));
        fs::write(&path, line).unwrap();
        match ShardReader::open(&path) {
            Err(SpoolError::Corrupt { detail, .. }) => {
                assert!(detail.contains("before shard header"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_interleaves_and_dedups() {
        let dir = tmp_dir("merge");
        let a = dir.join(shard_name(0, 0));
        let b = dir.join(shard_name(0, 1));
        let c = dir.join(shard_name(1, 0));
        let mut w = SpoolWriter::new(&a, header(9), 1);
        for i in [0, 2, 5] {
            w.append(&rec(i, i as u64)).unwrap();
        }
        w.finish().unwrap();
        let mut w = SpoolWriter::new(&b, header(9), 1);
        for i in [1, 4] {
            w.append(&rec(i, i as u64)).unwrap();
        }
        w.finish().unwrap();
        // Generation 1 re-ran index 4 (its gen-0 record was presumed lost)
        // and finished index 3.
        let mut w = SpoolWriter::new(&c, header(9), 1);
        for i in [3, 4] {
            w.append(&rec(i, i as u64)).unwrap();
        }
        w.finish().unwrap();

        let mut merge = SpoolMerge::open(&shard_files(&dir).unwrap(), 9).unwrap();
        let mut order = Vec::new();
        while let Some(rec) = merge.next().unwrap() {
            order.push(rec.index);
        }
        assert_eq!(order, [0, 1, 2, 3, 4, 5]);
        assert_eq!(merge.duplicates(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_rejects_foreign_fingerprint() {
        let dir = tmp_dir("foreign");
        let path = dir.join(shard_name(0, 0));
        let mut w = SpoolWriter::new(&path, header(123), 1);
        w.append(&rec(0, 1)).unwrap();
        w.finish().unwrap();
        match SpoolMerge::open(&[path], 456) {
            Err(SpoolError::MatrixMismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, 456);
                assert_eq!(found, 123);
            }
            other => panic!("expected MatrixMismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_files_sorts_and_generations_advance() {
        let dir = tmp_dir("gen");
        assert_eq!(next_generation(&dir).unwrap(), 0);
        fs::write(dir.join(shard_name(0, 1)), "").unwrap();
        fs::write(dir.join(shard_name(2, 0)), "").unwrap();
        fs::write(dir.join("notashard.txt"), "").unwrap();
        let files = shard_files(&dir).unwrap();
        assert_eq!(files.len(), 2);
        assert!(files[0].ends_with(shard_name(0, 1)));
        assert!(files[1].ends_with(shard_name(2, 0)));
        assert_eq!(next_generation(&dir).unwrap(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_lists_empty() {
        let dir = std::env::temp_dir().join("spcp-spool-definitely-missing");
        assert!(shard_files(&dir).unwrap().is_empty());
        assert_eq!(next_generation(&dir).unwrap(), 0);
    }

    #[test]
    fn fingerprint_tracks_matrix_identity() {
        let m1 = RunMatrix::new()
            .bench(spcp_workloads::suite::by_name("fft").unwrap())
            .protocol("dir", ProtocolKind::Directory);
        let m2 = RunMatrix::new()
            .bench(spcp_workloads::suite::by_name("fft").unwrap())
            .protocol("bc", ProtocolKind::Broadcast);
        let f1 = fingerprint(&m1.expand());
        let f2 = fingerprint(&m2.expand());
        assert_ne!(f1, f2);
        assert_eq!(f1, fingerprint(&m1.expand()));
        // Filter-off fingerprints keep their original form; validation
        // changes no stats and so no fingerprint.
        assert_eq!(f1, frame::checksum(b"fft/dir/seed7/paper16\n1"));
        assert_eq!(f1, fingerprint(&m1.clone().validated().expand()));
        assert_ne!(f1, fingerprint(&m1.clone().with_snoop_filter().expand()));
        assert_ne!(f1, fingerprint(&m1.recording().expand()));
    }
}
