//! The sharing-pattern taxonomy of §3.4.

use spcp_sim::{CoreId, DetRng};

/// How an epoch's consumers choose their producers, instance by instance —
/// directly encoding the hot-communication-set patterns of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SharingPattern {
    /// Figure 6(a): a fixed producer at `offset` from the consumer; the hot
    /// set is stable across instances.
    Stable {
        /// Producer = `(consumer + offset) mod n`.
        offset: usize,
    },
    /// Figure 6(b): stable at `first` until instance `switch_at`, then
    /// stable at `second` — e.g. a tree algorithm switching direction.
    StableSwitch {
        /// Offset used for early instances.
        first: usize,
        /// Offset used from `switch_at` on.
        second: usize,
        /// Instance number at which the switch happens.
        switch_at: u64,
    },
    /// Figure 6(c): the producer offset cycles through `period` values
    /// spaced `stride` apart — a repetitive pattern with the given period.
    Repetitive {
        /// Spacing between successive offsets.
        stride: usize,
        /// Number of distinct offsets before the cycle repeats.
        period: usize,
    },
    /// Nearest-neighbour exchange (stencil codes): producers are the two
    /// adjacent cores; stable across instances.
    Neighbor,
    /// Figure 6(d): a fresh uniformly random producer every instance
    /// (migratory / non-deterministic sharing).
    Random,
    /// Widely shared data: `producers` distinct producers each instance,
    /// chosen round-robin from the whole machine.
    WidelyShared {
        /// Number of producers read from per instance.
        producers: usize,
    },
    /// No shared reads at all (private compute phase).
    PrivateOnly,
    /// Figure 6(e): one stable producer plus one fresh random producer per
    /// instance (stable + random combination).
    Mixed {
        /// Offset of the stable producer.
        offset: usize,
    },
}

impl SharingPattern {
    /// Writes into `out` the producer cores that `consumer` reads from
    /// during dynamic instance `instance`, for an `n`-core machine.
    ///
    /// `out` is cleared first, so one buffer serves every instance.
    /// `rng` supplies the non-determinism of [`SharingPattern::Random`];
    /// deterministic patterns ignore it.
    pub fn producers(
        &self,
        consumer: CoreId,
        instance: u64,
        n: usize,
        rng: &mut DetRng,
        out: &mut Vec<CoreId>,
    ) {
        let c = consumer.index();
        let wrap = |o: usize| CoreId::new((c + o) % n);
        out.clear();
        match *self {
            SharingPattern::Stable { offset } => out.push(wrap(offset.max(1))),
            SharingPattern::StableSwitch {
                first,
                second,
                switch_at,
            } => {
                let o = if instance < switch_at { first } else { second };
                out.push(wrap(o.max(1)));
            }
            SharingPattern::Repetitive { stride, period } => {
                let k = (instance % period.max(1) as u64) as usize;
                out.push(wrap(1 + k * stride.max(1)));
            }
            SharingPattern::Neighbor => {
                out.extend([CoreId::new((c + 1) % n), CoreId::new((c + n - 1) % n)]);
            }
            SharingPattern::Random => {
                let mut p = rng.index(n);
                if p == c {
                    p = (p + 1) % n;
                }
                out.push(CoreId::new(p));
            }
            SharingPattern::WidelyShared { producers } => {
                out.extend((0..producers.min(n - 1)).map(|i| wrap(1 + i)));
            }
            SharingPattern::PrivateOnly => {}
            SharingPattern::Mixed { offset } => {
                let stable = wrap(offset.max(1));
                let mut p = rng.index(n);
                if p == c || p == stable.index() {
                    p = (p + 1) % n;
                }
                if p == c || p == stable.index() {
                    p = (p + 1) % n;
                }
                out.extend([stable, CoreId::new(p)]);
            }
        }
    }

    /// Whether two dynamic instances of this pattern are guaranteed the
    /// same producer set (used by tests and the characterization harness).
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, SharingPattern::Random | SharingPattern::Mixed { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::seeded(1)
    }

    /// `p.producers` into a fresh buffer.
    fn producers(
        p: SharingPattern,
        consumer: usize,
        instance: u64,
        n: usize,
        r: &mut DetRng,
    ) -> Vec<CoreId> {
        let mut out = vec![CoreId::new(63)];
        p.producers(CoreId::new(consumer), instance, n, r, &mut out);
        out
    }

    #[test]
    fn stable_is_constant_across_instances() {
        let p = SharingPattern::Stable { offset: 3 };
        let mut r = rng();
        let a = producers(p, 2, 0, 16, &mut r);
        let b = producers(p, 2, 17, 16, &mut r);
        assert_eq!(a, b);
        assert_eq!(a, vec![CoreId::new(5)]);
    }

    #[test]
    fn stable_never_selects_self() {
        let p = SharingPattern::Stable { offset: 0 };
        let mut r = rng();
        let a = producers(p, 4, 0, 16, &mut r);
        assert_ne!(a[0], CoreId::new(4), "offset 0 must be promoted to 1");
    }

    #[test]
    fn switch_changes_producer_at_boundary() {
        let p = SharingPattern::StableSwitch {
            first: 1,
            second: 4,
            switch_at: 3,
        };
        let mut r = rng();
        let before = producers(p, 0, 2, 16, &mut r);
        let after = producers(p, 0, 3, 16, &mut r);
        assert_eq!(before, vec![CoreId::new(1)]);
        assert_eq!(after, vec![CoreId::new(4)]);
    }

    #[test]
    fn repetitive_cycles_with_period() {
        let p = SharingPattern::Repetitive {
            stride: 2,
            period: 3,
        };
        let mut r = rng();
        let seq: Vec<usize> = (0..6)
            .map(|k| producers(p, 0, k, 16, &mut r)[0].index())
            .collect();
        assert_eq!(seq, vec![1, 3, 5, 1, 3, 5]);
    }

    #[test]
    fn neighbor_returns_both_sides_with_wraparound() {
        let p = SharingPattern::Neighbor;
        let mut r = rng();
        let v = producers(p, 0, 0, 16, &mut r);
        assert_eq!(v, vec![CoreId::new(1), CoreId::new(15)]);
    }

    #[test]
    fn random_avoids_self_and_varies() {
        let p = SharingPattern::Random;
        let mut r = rng();
        let mut distinct = std::collections::HashSet::new();
        for k in 0..64 {
            let v = producers(p, 3, k, 16, &mut r);
            assert_eq!(v.len(), 1);
            assert_ne!(v[0], CoreId::new(3));
            distinct.insert(v[0].index());
        }
        assert!(distinct.len() > 4, "random pattern must spread producers");
    }

    #[test]
    fn widely_shared_caps_at_n_minus_one() {
        let p = SharingPattern::WidelyShared { producers: 100 };
        let mut r = rng();
        let v = producers(p, 0, 0, 16, &mut r);
        assert_eq!(v.len(), 15);
        assert!(!v.contains(&CoreId::new(0)));
    }

    #[test]
    fn private_only_has_no_producers() {
        let p = SharingPattern::PrivateOnly;
        let mut r = rng();
        assert!(producers(p, 0, 0, 16, &mut r).is_empty());
    }

    #[test]
    fn determinism_flags() {
        assert!(SharingPattern::Stable { offset: 1 }.is_deterministic());
        assert!(!SharingPattern::Random.is_deterministic());
        assert!(!SharingPattern::Mixed { offset: 1 }.is_deterministic());
    }

    #[test]
    fn mixed_has_stable_plus_random_member() {
        let p = SharingPattern::Mixed { offset: 4 };
        let mut r = rng();
        let mut randoms = std::collections::HashSet::new();
        for k in 0..32 {
            let v = producers(p, 0, k, 16, &mut r);
            assert_eq!(v.len(), 2);
            assert_eq!(v[0], CoreId::new(4), "first member is the stable producer");
            assert_ne!(v[1], CoreId::new(0));
            assert_ne!(v[1], CoreId::new(4));
            randoms.insert(v[1].index());
        }
        assert!(randoms.len() > 3, "second member must wander");
    }
}
