//! Where every scoring job gets its exposure capture from.
//!
//! A [`CaptureSource`] answers one question — "score this experiment's
//! capture at these analysis points" — through up to three layers,
//! outermost first:
//!
//! 1. **hot**: an optional in-memory [`HotCaptureCache`], a bounded,
//!    single-flight LRU shared by concurrent jobs (the `reap serve`
//!    daemon's);
//! 2. **store**: an optional on-disk [`CaptureStore`], shared across
//!    processes (`--capture-dir`);
//! 3. **trace**: a fresh capture pass, persisted to the store under a
//!    [`CapturePolicy::ReadWrite`] policy.
//!
//! A source with neither a hot layer nor a store keeps nothing, so a
//! one-chunk replay skips the capture altogether: the trace pass feeds
//! the batched kernel directly ([`Simulator::run_batch`]).
//!
//! All paths yield bit-identical reports. Keys are the capture store's
//! content fingerprint ([`CaptureKey::fingerprint`]), so the hot and
//! disk layers agree about identity by construction.
//!
//! **Recapture once.** A store entry is fully validated at load time,
//! but it is replayed by streaming from disk, so it can still vanish or
//! rot before (or during) the replay. On a
//! [`SimulationError::CaptureStream`] defect the source evicts the hot
//! entry, captures afresh from the trace and replays that in-memory
//! capture — exactly once; it never fails the job for a store defect.
//!
//! Telemetry (when enabled): `capture_source.recapture` counts
//! mid-replay recaptures, `capture_store.write_failed` counts store
//! writes that failed (the capture is still used), the `capture_store`
//! span covers each store-backed load-or-capture, and the hot layer
//! keeps the daemon's `serve.cache.{hit,miss,coalesced,evict}` counters
//! and `serve.cache.entries` gauge.
//!
//! # Examples
//!
//! ```
//! use reap_core::capture_store::{CapturePolicy, CaptureStore};
//! use reap_core::{CaptureSource, Experiment, Simulator};
//! use reap_trace::SpecWorkload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("rsrc-doc-{}", std::process::id()));
//! let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
//! let source = CaptureSource::new(None, Some(store));
//! let experiment = Experiment::paper_hierarchy()
//!     .workload(SpecWorkload::Hmmer)
//!     .accesses(20_000);
//! let points = [Simulator::new(experiment.config().clone())?];
//! let cold = source.replay(&experiment, &points, 1)?; // trace pass + store write
//! let warm = source.replay(&experiment, &points, 2)?; // served from disk
//! assert_eq!(cold[0].l2_stats(), warm[0].l2_stats());
//! # std::fs::remove_dir_all(dir).ok();
//! # Ok(())
//! # }
//! ```

use crate::capture::ExposureCapture;
use crate::capture_store::{bump, CaptureKey, CapturePolicy, CaptureStore};
use crate::experiment::{Experiment, ExperimentError};
use crate::report::Report;
use crate::simulator::{SimulationError, Simulator};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// The capture layers of one job runner. See the module docs.
///
/// Cloning is cheap and shares the hot layer.
#[derive(Clone, Default)]
pub struct CaptureSource {
    hot: Option<Arc<HotCaptureCache>>,
    store: Option<CaptureStore>,
}

impl CaptureSource {
    /// A source over an optional hot layer and an optional store.
    /// `CaptureSource::default()` captures from the trace every time.
    pub fn new(hot: Option<Arc<HotCaptureCache>>, store: Option<CaptureStore>) -> Self {
        Self { hot, store }
    }

    /// Scores `experiment`'s capture at every analysis point in `points`
    /// with one batched replay ([`Simulator::replay_batch_parallel`]) split
    /// across up to `threads` threads, returning one report per point in
    /// input order.
    ///
    /// The capture comes from the first layer that has it (hot, store,
    /// trace) and is obtained once for all threads; a mid-replay stream
    /// defect in any of them recaptures from the trace once (see the
    /// module docs).
    ///
    /// When no layer keeps the capture — no hot layer, no store, and the
    /// replay is a single chunk — the trace pass feeds the kernel
    /// directly ([`Simulator::run_batch`]) and nothing is
    /// materialized. The reports are the same bits either way.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] when the experiment's configuration
    /// cannot be instantiated or a point's behavioural configuration
    /// differs from the experiment's. Store defects are never errors.
    pub fn replay(
        &self,
        experiment: &Experiment,
        points: &[Simulator],
        threads: usize,
    ) -> Result<Vec<Report>, ExperimentError> {
        if self.hot.is_none()
            && self.store.is_none()
            && Simulator::batch_chunks(points, threads).len() == 1
        {
            let trace = experiment
                .configured_workload()
                .stream(experiment.configured_seed());
            let tracer = Simulator::new(experiment.config().clone())?;
            return Ok(tracer.run_batch(points, trace)?);
        }
        let key = CaptureKey::new(
            experiment.configured_workload(),
            experiment.configured_seed(),
            experiment.config(),
        );
        let store_or_trace = || self.store_or_trace(&key, experiment);
        let capture = match &self.hot {
            Some(hot) => hot.get_or_capture(key.fingerprint(), store_or_trace)?,
            None => Arc::new(store_or_trace()?),
        };
        match Simulator::replay_batch_parallel(points, &capture, threads) {
            Err(SimulationError::CaptureStream(defect)) => {
                bump("capture_source.recapture");
                eprintln!("warning: capture stream failed mid-replay ({defect}); recapturing");
                if let Some(hot) = &self.hot {
                    hot.evict(key.fingerprint());
                }
                Ok(Simulator::replay_batch_parallel(
                    points,
                    &experiment.capture()?,
                    threads,
                )?)
            }
            other => Ok(other?),
        }
    }

    /// The store and trace layers: serve `key` from disk when possible,
    /// otherwise capture `experiment` from its trace (and persist the
    /// result under a `ReadWrite` policy). A hit deliberately emits no
    /// `sim.capture.*` or `cache.*` metrics, which count actual trace
    /// passes.
    fn store_or_trace(
        &self,
        key: &CaptureKey,
        experiment: &Experiment,
    ) -> Result<ExposureCapture, ExperimentError> {
        let Some(store) = &self.store else {
            return experiment.capture();
        };
        let mut span = reap_obs::span("capture_store");
        if let Some(capture) = store.load(key) {
            span.add_events(capture.event_count());
            return Ok(capture);
        }
        let capture = experiment.capture()?;
        span.add_events(capture.event_count());
        if store.policy() == CapturePolicy::ReadWrite {
            if let Err(e) = store.store(key, &capture) {
                bump("capture_store.write_failed");
                eprintln!("warning: capture store write failed: {e}");
            }
        }
        Ok(capture)
    }
}

enum Slot<V> {
    /// A producer is computing this entry; waiters sleep on the condvar.
    InFlight,
    /// The value is resident; `last_used` orders eviction.
    Ready { value: Arc<V>, last_used: u64 },
}

struct Inner<V> {
    map: HashMap<u64, Slot<V>>,
    /// Logical clock for LRU ordering (bumped on every touch).
    tick: u64,
}

/// A bounded, single-flight, in-memory LRU keyed by `u64` fingerprints:
/// the hot layer of a [`CaptureSource`].
///
/// Two disciplines keep it daemon-safe:
///
/// * **bounded**: at most `capacity` entries, least-recently-used
///   evicted first — a long-lived daemon must not grow without bound;
/// * **single-flight**: when several jobs ask for the same missing key
///   at once, exactly one runs the producer; the rest block until the
///   value lands and then share it. A failed producer wakes the
///   waiters to retry rather than caching the failure.
///
/// The mechanics are value-agnostic; sources use the
/// [`HotCaptureCache`] instantiation.
pub struct HotCache<V> {
    inner: Mutex<Inner<V>>,
    cond: Condvar,
    capacity: usize,
}

/// The hot layer's instantiation: capture-store fingerprints to shared
/// exposure captures.
pub type HotCaptureCache = HotCache<ExposureCapture>;

impl<V> HotCache<V> {
    /// Creates a cache holding at most `capacity` values. A capacity of
    /// 0 disables caching: every call runs its own producer.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            cond: Condvar::new(),
            capacity,
        }
    }

    /// Resident entries (ready, not in-flight).
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("cache poisoned");
        inner
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// Whether the cache holds no resident entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the value under `fingerprint`, producing it with
    /// `produce` on a miss. Concurrent callers for the same missing key
    /// coalesce onto one producer run.
    ///
    /// # Errors
    ///
    /// Propagates the producer's error to the caller that ran it;
    /// coalesced waiters retry production themselves (one becomes the
    /// next producer) rather than inheriting a stranger's failure.
    pub fn get_or_capture<E>(
        &self,
        fingerprint: u64,
        produce: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        if self.capacity == 0 {
            bump("serve.cache.miss");
            return produce().map(Arc::new);
        }
        let mut inner = self.inner.lock().expect("cache poisoned");
        loop {
            match inner.map.get(&fingerprint) {
                Some(Slot::Ready { value, .. }) => {
                    let value = Arc::clone(value);
                    inner.tick += 1;
                    let tick = inner.tick;
                    if let Some(Slot::Ready { last_used, .. }) = inner.map.get_mut(&fingerprint) {
                        *last_used = tick;
                    }
                    bump("serve.cache.hit");
                    return Ok(value);
                }
                Some(Slot::InFlight) => {
                    bump("serve.cache.coalesced");
                    inner = self.cond.wait(inner).expect("cache poisoned");
                    // Loop: the slot is now Ready (use it), gone (the
                    // producer failed — become the producer), or
                    // InFlight again (another waiter beat us to it).
                }
                None => break,
            }
        }
        // Miss: this caller is the producer. Drop the lock while the
        // (expensive) capture runs.
        inner.map.insert(fingerprint, Slot::InFlight);
        drop(inner);
        bump("serve.cache.miss");
        let produced = produce();
        let mut inner = self.inner.lock().expect("cache poisoned");
        match produced {
            Ok(value) => {
                let value = Arc::new(value);
                inner.tick += 1;
                let tick = inner.tick;
                inner.map.insert(
                    fingerprint,
                    Slot::Ready {
                        value: Arc::clone(&value),
                        last_used: tick,
                    },
                );
                self.evict_over_capacity(&mut inner);
                self.publish_len(&inner);
                drop(inner);
                self.cond.notify_all();
                Ok(value)
            }
            Err(e) => {
                inner.map.remove(&fingerprint);
                drop(inner);
                // Wake everyone: one waiter becomes the new producer.
                self.cond.notify_all();
                Err(e)
            }
        }
    }

    /// Drops the entry under `fingerprint`, if resident (used when a
    /// cached streamed capture turns out to have rotted on disk).
    pub fn evict(&self, fingerprint: u64) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        if matches!(inner.map.get(&fingerprint), Some(Slot::Ready { .. })) {
            inner.map.remove(&fingerprint);
            bump("serve.cache.evict");
            self.publish_len(&inner);
        }
    }

    /// Evicts least-recently-used Ready entries until within capacity.
    /// In-flight slots are never evicted (their producers own them).
    fn evict_over_capacity(&self, inner: &mut Inner<V>) {
        loop {
            let resident = inner
                .map
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count();
            if resident <= self.capacity {
                return;
            }
            let victim = inner
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } => Some((*last_used, *k)),
                    Slot::InFlight => None,
                })
                .min()
                .map(|(_, k)| k);
            if let Some(key) = victim {
                inner.map.remove(&key);
                bump("serve.cache.evict");
            } else {
                return;
            }
        }
    }

    fn publish_len(&self, inner: &Inner<V>) {
        if reap_obs::enabled() {
            let resident = inner
                .map
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count();
            reap_obs::global()
                .gauge("serve.cache.entries")
                .set(resident as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn hit_returns_the_same_arc() {
        let cache: HotCache<String> = HotCache::new(4);
        let a = cache.get_or_capture::<()>(1, || Ok("v".into())).unwrap();
        let b = cache
            .get_or_capture::<()>(1, || panic!("must not produce on a hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_prefers_the_coldest_entry() {
        let cache: HotCache<u64> = HotCache::new(2);
        cache.get_or_capture::<()>(1, || Ok(1)).unwrap();
        cache.get_or_capture::<()>(2, || Ok(2)).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        cache.get_or_capture::<()>(1, || Ok(1)).unwrap();
        cache.get_or_capture::<()>(3, || Ok(3)).unwrap();
        assert_eq!(cache.len(), 2);
        let calls = AtomicUsize::new(0);
        cache
            .get_or_capture::<()>(1, || {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(1)
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 0, "1 stayed resident");
        cache
            .get_or_capture::<()>(2, || {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(2)
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1, "2 was evicted");
    }

    #[test]
    fn explicit_evict_drops_only_the_named_entry() {
        let cache: HotCache<u64> = HotCache::new(4);
        cache.get_or_capture::<()>(1, || Ok(1)).unwrap();
        cache.get_or_capture::<()>(2, || Ok(2)).unwrap();
        cache.evict(1);
        cache.evict(99); // absent: no-op
        assert_eq!(cache.len(), 1);
        let calls = AtomicUsize::new(0);
        cache
            .get_or_capture::<()>(1, || {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(1)
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: HotCache<u64> = HotCache::new(0);
        let calls = AtomicUsize::new(0);
        for _ in 0..3 {
            cache
                .get_or_capture::<()>(7, || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    Ok(1)
                })
                .unwrap();
        }
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_misses_coalesce_onto_one_producer() {
        let cache: Arc<HotCache<u64>> = Arc::new(HotCache::new(4));
        let produced = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let produced = Arc::clone(&produced);
            handles.push(std::thread::spawn(move || {
                cache
                    .get_or_capture::<()>(42, || {
                        produced.fetch_add(1, Ordering::Relaxed);
                        // Hold the flight long enough for others to pile up.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok(5)
                    })
                    .unwrap()
            }));
        }
        let values: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(produced.load(Ordering::Relaxed), 1, "single flight");
        for v in &values[1..] {
            assert!(Arc::ptr_eq(&values[0], v), "all callers share one Arc");
        }
    }

    #[test]
    fn failed_producer_releases_waiters_to_retry() {
        let cache: Arc<HotCache<u64>> = Arc::new(HotCache::new(4));
        let attempts = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let attempts = Arc::clone(&attempts);
            handles.push(std::thread::spawn(move || {
                cache.get_or_capture(9, || {
                    let n = attempts.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    // First producer fails; a released waiter succeeds.
                    if n == 0 {
                        Err("boom")
                    } else {
                        Ok(2)
                    }
                })
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let failures = results.iter().filter(|r| r.is_err()).count();
        let successes = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(failures, 1, "only the failing producer sees the error");
        assert_eq!(successes, 3);
        assert_eq!(cache.len(), 1);
    }
}
