//! Property: every layer of the daemon's capture source — cold trace
//! pass, on-disk capture store, hot in-memory cache — yields
//! bit-identical sweep rows for the same `(mode, workload, accesses,
//! seed)` point.
//!
//! Bit-identity is asserted through the checkpoint row codec
//! (`row_to_json` stores every `f64` as its IEEE-754 bit pattern), so
//! string equality is exactly bit equality.

use proptest::prelude::*;
use reap_core::campaign::{job_rows, run_job};
use reap_core::capture_store::{CapturePolicy, CaptureStore};
use reap_core::checkpoint::row_to_json;
use reap_core::{CaptureSource, EccStrength, Experiment, HotCaptureCache, SweepMode, SweepRow};
use reap_trace::SpecWorkload;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "reap-serve-prop-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn any_mode() -> impl Strategy<Value = SweepMode> {
    prop_oneof![Just(SweepMode::Standard), Just(SweepMode::EccSweep)]
}

/// One workload's rows through `source`, encoded bit-exactly.
fn rows(
    source: &CaptureSource,
    workload: SpecWorkload,
    accesses: u64,
    seed: u64,
    mode: SweepMode,
) -> String {
    let reports = run_job(source, workload, accesses, seed, mode).unwrap();
    job_rows(&reports)
        .iter()
        .map(row_to_json)
        .collect::<Vec<_>>()
        .join("\n")
}

proptest! {
    #[test]
    fn all_capture_paths_yield_bit_identical_rows(
        mode in any_mode(),
        workload_index in 0usize..SpecWorkload::ALL.len(),
        accesses in 500u64..2500,
        seed in 0u64..512,
    ) {
        let workload = SpecWorkload::ALL[workload_index];
        let rows = |source: &CaptureSource| rows(source, workload, accesses, seed, mode);

        // The reference: one from-scratch single-point run per row,
        // independent of the batched kernel and of every capture layer.
        let experiment = Experiment::paper_hierarchy()
            .workload(workload)
            .accesses(accesses)
            .seed(seed);
        let eccs = match mode {
            SweepMode::Standard => vec![None],
            SweepMode::EccSweep => EccStrength::ALL.map(Some).to_vec(),
        };
        let want = eccs
            .into_iter()
            .map(|ecc| {
                let point = match ecc {
                    Some(ecc) => experiment.clone().ecc(ecc),
                    None => experiment.clone(),
                };
                row_to_json(&SweepRow::from_report(ecc, &point.run().unwrap()))
            })
            .collect::<Vec<_>>()
            .join("\n");

        // Cold layer: no store, no cache.
        let cold = rows(&CaptureSource::default());

        // On-disk store: first call populates, second call replays the
        // stored capture.
        let dir = scratch("store");
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        let disk = CaptureSource::new(None, Some(store.clone()));
        let populating = rows(&disk);
        let disk_hit = rows(&disk);

        // Hot cache: first call fills it (here via the disk store),
        // second call replays the resident capture with no store at all.
        let cache = Arc::new(HotCaptureCache::new(2));
        let cache_cold = rows(&CaptureSource::new(Some(Arc::clone(&cache)), Some(store)));
        let cache_hot = rows(&CaptureSource::new(Some(Arc::clone(&cache)), None));
        prop_assert!(!cache.is_empty(), "capture must be resident after a miss");

        std::fs::remove_dir_all(&dir).ok();

        prop_assert_eq!(&cold, &want, "cold capture diverged");
        prop_assert_eq!(&populating, &want, "store-populating pass diverged");
        prop_assert_eq!(&disk_hit, &want, "disk-store hit diverged");
        prop_assert_eq!(&cache_cold, &want, "cache-filling pass diverged");
        prop_assert_eq!(&cache_hot, &want, "hot-cache hit diverged");
    }
}
