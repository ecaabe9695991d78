//! The event hook between the cache simulator and the reliability layer.

/// Identity of one line's *content* at event time: the `(tag, set,
/// version)` triple that seeds the deterministic content-weight hash
/// ([`crate::sample_ones`]).
///
/// The version is bumped on every rewrite of the slot, so the key pins
/// down exactly which sampled content a read, scrub or eviction touched.
/// The cache never samples a weight itself, so the key is
/// **analysis-independent**: a capture of keys taken at one ECC/MTJ
/// configuration can be re-evaluated at any other by sampling the weight
/// at that configuration's stored width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineKey {
    /// The line's address tag.
    pub tag: u64,
    /// The set index holding the line.
    pub set: u64,
    /// The slot's rewrite counter at event time.
    pub version: u64,
}

/// Receives the per-line events the reliability analysis consumes.
///
/// The cache calls these hooks inline during simulation; implementations
/// accumulate whatever statistics they need (failure probabilities,
/// concealed-read histograms, energy event counts). The unit type `()`
/// implements the trait as a no-op observer.
///
/// Every hook carries the touched line's content [`LineKey`], not its
/// weight: the cache stores no contents and samples no weights. An
/// observer that scores derives `n` of Eqs. (2)–(6) (the stored `1` bits,
/// check bits included) from the key with [`crate::sample_ones`], at its
/// own stored width and the cache's [`ones_seed`](crate::Cache::ones_seed),
/// so observers that only count or record hash nothing.
///
/// # Examples
///
/// ```
/// use reap_cache::{AccessObserver, LineKey};
///
/// #[derive(Default)]
/// struct CountChecks(u64);
///
/// impl AccessObserver for CountChecks {
///     fn demand_read(&mut self, _key: LineKey, _unchecked_reads: u64) {
///         self.0 += 1;
///     }
/// }
/// ```
pub trait AccessObserver {
    /// A demand read hit: the one moment the *conventional* cache checks
    /// ECC. `unchecked_reads` is `N` of Eq. (3): the concealed reads
    /// accumulated since the line was last checked or rewritten, **plus
    /// one** for this demand read itself.
    fn demand_read(&mut self, key: LineKey, unchecked_reads: u64) {
        let _ = (key, unchecked_reads);
    }

    /// Any physical read of a valid line — demand or concealed. In the
    /// REAP scheme every such read is an ECC check of a single read's
    /// disturbance (Eq. (6)).
    fn line_read(&mut self, key: LineKey) {
        let _ = key;
    }

    /// A valid line leaves the cache. `unchecked_reads` disturbance
    /// opportunities were accumulated and never checked; if `dirty`, the
    /// line's content is consumed by the write-back path.
    fn eviction(&mut self, key: LineKey, dirty: bool, unchecked_reads: u64) {
        let _ = (key, dirty, unchecked_reads);
    }

    /// A line is (re)written — by a fill or a store — which heals any
    /// accumulated disturbance. `key` names the *new* content.
    fn line_write(&mut self, key: LineKey) {
        let _ = key;
    }

    /// A scrub sweep checked this line after `unchecked_reads` accumulated
    /// reads (including the scrub read itself). Unlike a demand read, a
    /// scrub that detects an uncorrectable error on a *clean* line is
    /// recoverable (invalidate and refetch); only a `dirty` line is lost.
    fn scrub_check(&mut self, key: LineKey, dirty: bool, unchecked_reads: u64) {
        let _ = (key, dirty, unchecked_reads);
    }
}

impl AccessObserver for () {}

impl<T: AccessObserver + ?Sized> AccessObserver for &mut T {
    fn demand_read(&mut self, key: LineKey, unchecked_reads: u64) {
        (**self).demand_read(key, unchecked_reads);
    }

    fn line_read(&mut self, key: LineKey) {
        (**self).line_read(key);
    }

    fn eviction(&mut self, key: LineKey, dirty: bool, unchecked_reads: u64) {
        (**self).eviction(key, dirty, unchecked_reads);
    }

    fn line_write(&mut self, key: LineKey) {
        (**self).line_write(key);
    }

    fn scrub_check(&mut self, key: LineKey, dirty: bool, unchecked_reads: u64) {
        (**self).scrub_check(key, dirty, unchecked_reads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(version: u64) -> LineKey {
        LineKey {
            tag: 7,
            set: 3,
            version,
        }
    }

    #[derive(Default, Debug, PartialEq)]
    struct Recorder {
        demands: Vec<(LineKey, u64)>,
        reads: Vec<LineKey>,
        evictions: Vec<(LineKey, bool, u64)>,
        writes: Vec<LineKey>,
        scrubs: Vec<(LineKey, bool, u64)>,
    }

    impl AccessObserver for Recorder {
        fn demand_read(&mut self, key: LineKey, unchecked_reads: u64) {
            self.demands.push((key, unchecked_reads));
        }

        fn line_read(&mut self, key: LineKey) {
            self.reads.push(key);
        }

        fn eviction(&mut self, key: LineKey, dirty: bool, unchecked_reads: u64) {
            self.evictions.push((key, dirty, unchecked_reads));
        }

        fn line_write(&mut self, key: LineKey) {
            self.writes.push(key);
        }

        fn scrub_check(&mut self, key: LineKey, dirty: bool, unchecked_reads: u64) {
            self.scrubs.push((key, dirty, unchecked_reads));
        }
    }

    #[test]
    fn unit_observer_is_a_noop() {
        let mut obs = ();
        obs.demand_read(key(1), 2);
        obs.line_read(key(1));
        obs.eviction(key(1), true, 5);
        obs.line_write(key(2));
        obs.scrub_check(key(2), false, 3);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut rec = Recorder::default();
        {
            fn forward(mut fwd: impl AccessObserver) {
                fwd.demand_read(key(1), 3);
                fwd.line_read(key(1));
                fwd.eviction(key(1), false, 0);
                fwd.line_write(key(2));
                fwd.scrub_check(key(2), true, 4);
            }
            forward(&mut rec);
        }
        assert_eq!(rec.demands, vec![(key(1), 3)]);
        assert_eq!(rec.reads, vec![key(1)]);
        assert_eq!(rec.evictions, vec![(key(1), false, 0)]);
        assert_eq!(rec.writes, vec![key(2)]);
        assert_eq!(rec.scrubs, vec![(key(2), true, 4)]);
    }
}
