//! The reliability observer: converts cache events into failure
//! probabilities for every scheme in one pass.

use reap_cache::{sample_ones, AccessObserver, LineKey};
use reap_reliability::{
    AccumulationModel, ExposureKind, FailureAggregator, LogHistogram, ReplayAggregator,
};

/// Accumulates Eq. (3)/(6) failure probabilities from cache events.
///
/// One instance scores all four schemes simultaneously, since the cache
/// behaviour (hits, fills, concealed reads) is scheme-independent. A
/// *failure* is an uncorrectable word delivered to a consumer, so all
/// three laws are evaluated at demand-read events (reads whose `N`-read
/// history never culminates in a demand read cannot fail anything):
///
/// * **conventional** — `P_unc(N·n, p, t)` (Eq. (3)): the `N` reads since
///   the last check accumulate into one big binomial experiment;
/// * **REAP** — `1 − (1 − P_unc(n, p, t))^N` (Eq. (6)): each of the `N`
///   reads was individually checked and corrected, and the sequence fails
///   iff any *single* read was individually uncorrectable;
/// * **serial / restore** — `P_unc(n, p, t)`: with no concealed reads
///   (serial) or a restore after every read (refs. 14/15 of the paper), each demand read
///   faces exactly one read's disturbance. (Restore additionally risks
///   write errors on each restore pulse — tracked separately by the
///   energy model and `reap_mtj::write`.)
///
/// The scoring itself lives in [`ReplayAggregator`] — this type is the
/// live, single-pass adapter that classifies cache events into
/// [`ExposureKind`] records and feeds them through the exact same sums
/// the two-phase replay uses, so both paths are bit-identical by
/// construction. Like replay, it derives each line weight from the
/// event's [`LineKey`] with [`sample_ones`], and only for events it
/// scores.
///
/// # Examples
///
/// ```
/// use reap_cache::{AccessObserver, Hierarchy, HierarchyConfig, LineKey, Replacement};
/// use reap_core::ReliabilityObserver;
/// use reap_reliability::AccumulationModel;
///
/// let h = Hierarchy::new(HierarchyConfig::paper(), Replacement::Lru);
/// let (seed, bits) = (h.l2().ones_seed(), h.l2().stored_line_bits() as u32);
/// let mut obs = ReliabilityObserver::new(AccumulationModel::sec(1e-8), seed, bits);
/// let key = LineKey { tag: 1, set: 2, version: 3 };
/// obs.demand_read(key, 100); // a demand read after 99 concealed reads
/// assert!(obs.conventional().expected_failures() > obs.reap().expected_failures());
/// ```
#[derive(Debug, Clone)]
pub struct ReliabilityObserver {
    aggregator: ReplayAggregator,
    ones_seed: u64,
    stored_bits: u32,
}

impl ReliabilityObserver {
    /// Creates an observer for a cache whose line weights derive from
    /// `ones_seed` and whose lines store `stored_bits` bits, check bits
    /// included — the L2's [`ones_seed`](reap_cache::Cache::ones_seed)
    /// and [`stored_line_bits`](reap_cache::Cache::stored_line_bits).
    ///
    /// # Panics
    ///
    /// Panics if `stored_bits == 0`.
    pub fn new(model: AccumulationModel, ones_seed: u64, stored_bits: u32) -> Self {
        Self {
            aggregator: ReplayAggregator::new(model, stored_bits),
            ones_seed,
            stored_bits,
        }
    }

    /// Scores one exposure of a line holding `line_ones` stored `1`s:
    /// what the [`AccessObserver`] hooks do once they have filtered an
    /// event and sampled its weight.
    pub fn record(&mut self, kind: ExposureKind, line_ones: u32, unchecked_reads: u64) {
        self.aggregator.record(kind, line_ones, unchecked_reads);
    }

    /// The weight of the content `key` names, at this observer's width.
    fn ones(&self, key: LineKey) -> u32 {
        let bits = self.stored_bits as usize;
        sample_ones(self.ones_seed, key.tag, key.set, key.version, bits)
    }

    /// The accumulation model in force.
    pub fn model(&self) -> &AccumulationModel {
        self.aggregator.model()
    }

    /// Expected failures under the conventional scheme.
    pub fn conventional(&self) -> &FailureAggregator {
        self.aggregator.conventional()
    }

    /// Expected failures under REAP.
    pub fn reap(&self) -> &FailureAggregator {
        self.aggregator.reap()
    }

    /// Expected failures under the serial tag-first scheme and the
    /// disruptive-restore baseline (one read's disturbance per demand).
    pub fn serial(&self) -> &FailureAggregator {
        self.aggregator.serial()
    }

    /// The concealed-read histogram with per-bin conventional failure
    /// contribution (Fig. 3 data).
    pub fn histogram(&self) -> &LogHistogram {
        self.aggregator.histogram()
    }

    /// Unchecked failure probability carried out by dirty evictions.
    pub fn writeback_exposure(&self) -> f64 {
        self.aggregator.writeback_exposure()
    }

    /// Consumes the observer, yielding the underlying aggregator — the
    /// same type a replay produces, so report assembly has one input.
    pub fn into_aggregator(self) -> ReplayAggregator {
        self.aggregator
    }
}

impl AccessObserver for ReliabilityObserver {
    fn demand_read(&mut self, key: LineKey, unchecked_reads: u64) {
        self.record(ExposureKind::Demand, self.ones(key), unchecked_reads);
    }

    fn eviction(&mut self, key: LineKey, dirty: bool, unchecked_reads: u64) {
        if dirty && unchecked_reads > 0 {
            self.record(ExposureKind::DirtyEviction, self.ones(key), unchecked_reads);
        }
    }

    fn scrub_check(&mut self, key: LineKey, dirty: bool, unchecked_reads: u64) {
        // A scrub failure on a clean line is recoverable (invalidate and
        // refetch); only a dirty line's data is lost.
        if dirty {
            self.record(ExposureKind::DirtyScrub, self.ones(key), unchecked_reads);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CaptureObserver;
    use reap_cache::{Cache, CacheConfig, Replacement};

    const SEED: u64 = 0x5EED;

    fn observer() -> ReliabilityObserver {
        ReliabilityObserver::new(AccumulationModel::sec(1e-6), SEED, 576)
    }

    fn key(version: u64) -> LineKey {
        LineKey {
            tag: 7,
            set: 3,
            version,
        }
    }

    #[test]
    fn weights_are_sampled_from_the_key() {
        let obs = observer();
        for v in 0..20 {
            assert_eq!(obs.ones(key(v)), sample_ones(SEED, 7, 3, v, 576));
        }
    }

    #[test]
    fn table_matches_direct_model() {
        let mut obs = observer();
        for v in 0..5 {
            obs.demand_read(key(v), 1);
        }
        // With N = 1 every scheme sees fail_single(n): the table must
        // match a direct model evaluation at the sampled weights.
        let direct: f64 = (0..5)
            .map(|v| obs.model().fail_single(obs.ones(key(v))))
            .sum();
        assert_eq!(obs.serial().expected_failures(), direct);
    }

    #[test]
    fn accumulation_penalizes_conventional_only() {
        let mut obs = observer();
        // 1000 reads of a line: conventional checks once at the end,
        // REAP checked each of them; the per-event improvement is ≈ N.
        obs.demand_read(key(1), 1000);
        let conv = obs.conventional().expected_failures();
        let reap = obs.reap().expected_failures();
        // The small-p approximation puts the gain at ≈ N = 1000; with
        // N·n·p ≈ 0.29 here, higher-order terms pull it somewhat below.
        let gain = conv / reap;
        assert!(gain > 500.0 && gain <= 1000.5, "gain = {gain}");
    }

    #[test]
    fn reap_matches_eq_six_closed_form() {
        let mut obs = observer();
        obs.demand_read(key(1), 77);
        let expected = obs.model().fail_reap(obs.ones(key(1)), 77);
        assert!(
            (obs.reap().expected_failures() / expected - 1.0).abs() < 1e-12,
            "observer must reproduce Eq. (6)"
        );
    }

    #[test]
    fn serial_records_single_read_per_demand() {
        let mut obs = observer();
        obs.demand_read(key(1), 500);
        assert_eq!(obs.serial().events(), 1);
        assert!(obs.serial().expected_failures() < obs.conventional().expected_failures());
    }

    #[test]
    fn histogram_mirrors_demand_events() {
        let mut obs = observer();
        obs.demand_read(key(1), 1);
        obs.demand_read(key(2), 900);
        assert_eq!(obs.histogram().total_count(), 2);
        assert_eq!(obs.histogram().max_n(), 900);
        assert!(
            (obs.histogram().total_failure_probability() - obs.conventional().expected_failures())
                .abs()
                < 1e-18
        );
    }

    #[test]
    fn clean_evictions_do_not_add_exposure() {
        let mut obs = observer();
        obs.eviction(key(1), false, 500);
        assert_eq!(obs.writeback_exposure(), 0.0);
        obs.eviction(key(1), true, 500);
        assert!(obs.writeback_exposure() > 0.0);
    }

    #[test]
    fn clean_scrubs_are_not_scored() {
        let mut obs = observer();
        obs.scrub_check(key(1), false, 40);
        assert_eq!(obs.conventional().events(), 0);
        obs.scrub_check(key(1), true, 40);
        assert_eq!(obs.conventional().events(), 1);
    }

    #[test]
    fn into_aggregator_preserves_sums() {
        let mut obs = observer();
        obs.demand_read(key(1), 12);
        obs.scrub_check(key(2), true, 3);
        let conv = obs.conventional().expected_failures();
        let agg = obs.into_aggregator();
        assert_eq!(agg.conventional().expected_failures(), conv);
    }

    /// Drives a small cache with check bits through fills, rewrites,
    /// dirty evictions and scrubs, once live and once recording.
    fn drive<O: AccessObserver>(observer: &mut O) -> Cache {
        let config = CacheConfig::builder()
            .name("T")
            .size_bytes(4 * 64 * 4) // 4 sets, 4 ways
            .associativity(4)
            .block_bytes(64)
            .build()
            .unwrap();
        let mut c = Cache::new(config, Replacement::Lru);
        c.set_check_bits(64);
        for i in 0..600u64 {
            // A hot set of six lines among a cyclic sweep of 29.
            let line = if i % 2 == 0 { i / 2 % 6 } else { i * 37 % 29 };
            let address = line * 64;
            if i % 3 == 0 {
                c.write(address, &mut *observer);
            } else {
                c.read(address, &mut *observer);
            }
            if i % 50 == 49 {
                c.scrub(&mut *observer);
            }
        }
        c
    }

    #[test]
    fn live_observer_scores_the_sampled_weight_of_every_recorded_event() {
        let mut capture = CaptureObserver::new();
        let cache = drive(&mut capture);
        let (seed, bits) = (cache.ones_seed(), cache.stored_line_bits());
        let model = AccumulationModel::sec(1e-6);
        let mut live = ReliabilityObserver::new(model, seed, bits as u32);
        drive(&mut live);

        let records = capture.into_records();
        let kinds = |k| records.iter().filter(|r| r.kind == k).count();
        assert!(kinds(ExposureKind::Demand) > 0);
        assert!(kinds(ExposureKind::DirtyEviction) > 0);
        assert!(kinds(ExposureKind::DirtyScrub) > 0);
        let mut reference = ReplayAggregator::new(model, bits as u32);
        for r in &records {
            let ones = sample_ones(seed, r.key.tag, r.key.set, r.key.version, bits);
            reference.record(r.kind, ones, r.unchecked_reads);
        }
        let sums = |a: &ReplayAggregator| {
            [
                a.conventional().expected_failures().to_bits(),
                a.reap().expected_failures().to_bits(),
                a.serial().expected_failures().to_bits(),
                a.writeback_exposure().to_bits(),
                a.conventional().events(),
                a.histogram().total_count(),
            ]
        };
        assert_eq!(sums(&live.into_aggregator()), sums(&reference));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        let _ = ReliabilityObserver::new(AccumulationModel::sec(1e-8), SEED, 0);
    }
}
