//! Capture-store integration properties: round-trips are bit-identical,
//! and a corrupted store can cost a recapture but never a wrong result.
//!
//! Runs in its own test binary because it enables the global telemetry
//! registry to observe the `capture_store.*` counters; counter
//! assertions are delta-based (`>=`) since tests in this binary share
//! the registry across threads.

use proptest::prelude::*;
use reap_cache::{CacheStats, HierarchyConfig, LineKey, Replacement};
use reap_core::capture_store::{
    read_capture_v2, write_capture_v2, CaptureKey, CapturePolicy, CaptureStore,
};
use reap_core::{
    CaptureSource, EccStrength, Experiment, ExposureCapture, ExposureRecord, HierarchySnapshot,
    HotCaptureCache, ProtectionScheme, Report, Simulator,
};
use reap_reliability::ExposureKind;
use reap_trace::SpecWorkload;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// An arbitrary exposure record: any kind, any key, any read count.
fn any_record() -> impl Strategy<Value = ExposureRecord> {
    (
        prop_oneof![
            Just(ExposureKind::Demand),
            Just(ExposureKind::DirtyScrub),
            Just(ExposureKind::DirtyEviction),
        ],
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(kind, tag, set, version, unchecked_reads)| ExposureRecord {
                kind,
                key: LineKey { tag, set, version },
                unchecked_reads,
            },
        )
}

/// A fresh store directory per test case (cases run in one process).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "reap-capstore-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn counter(name: &str) -> u64 {
    reap_obs::global().counter(name).get()
}

/// `experiment` replayed at every ECC strength through `source`.
fn ecc_sweep(source: &CaptureSource, experiment: &Experiment) -> Vec<Report> {
    let points: Vec<Simulator> = EccStrength::ALL
        .into_iter()
        .map(|ecc| Simulator::new(experiment.clone().ecc(ecc).config().clone()).unwrap())
        .collect();
    source.replay(experiment, &points, 1).expect("sweep")
}

/// Bits of `experiment` replayed through `source` on `threads` threads
/// at six points — every ECC strength at two read currents, so the
/// batch spans a full 4-lane chunk plus a remainder chunk.
fn six_point_bits(
    source: &CaptureSource,
    experiment: &Experiment,
    threads: usize,
) -> Vec<[u64; 4]> {
    let points: Vec<Simulator> = EccStrength::ALL
        .into_iter()
        .flat_map(|ecc| [1.0, 0.8].map(|scale| (ecc, scale)))
        .map(|(ecc, scale)| {
            let mtj = reap_mtj::MtjParams::default();
            let mtj = mtj.with_read_current(scale * mtj.read_current()).unwrap();
            Simulator::new(experiment.clone().ecc(ecc).mtj(mtj).config().clone()).unwrap()
        })
        .collect();
    source
        .replay(experiment, &points, threads)
        .expect("sweep")
        .iter()
        .map(report_bits)
        .collect()
}

/// A source over `store` alone (no hot layer).
fn disk(store: &CaptureStore) -> CaptureSource {
    CaptureSource::new(None, Some(store.clone()))
}

/// The full per-scheme failure signature of a report, as raw bits.
fn report_bits(r: &reap_core::Report) -> [u64; 4] {
    [
        r.expected_failures(ProtectionScheme::Conventional)
            .to_bits(),
        r.expected_failures(ProtectionScheme::Reap).to_bits(),
        r.expected_failures(ProtectionScheme::SerialTagFirst)
            .to_bits(),
        r.writeback_exposure().to_bits(),
    ]
}

proptest! {
    /// A store round-trip preserves the capture exactly — the loaded
    /// entry's events, metadata and every replayed report are
    /// bit-identical to the in-memory original, for arbitrary workloads,
    /// seeds and replacement policies.
    #[test]
    fn store_round_trip_is_bit_identical(
        workload_index in 0usize..21,
        seed in any::<u64>(),
        replacement in prop_oneof![
            Just(Replacement::Lru),
            Just(Replacement::TreePlru),
            Just(Replacement::Fifo),
            Just(Replacement::Srrip),
        ],
    ) {
        let workload = SpecWorkload::ALL[workload_index];
        let experiment = Experiment::paper_hierarchy()
            .workload(workload)
            .replacement(replacement)
            .budgets(500, 4_000)
            .seed(seed);
        let dir = scratch("roundtrip");
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);

        let original = experiment.capture().expect("capture");
        let key = CaptureKey::new(workload, seed, experiment.config());
        store.store(&key, &original).expect("store");
        let loaded = store.load(&key).expect("entry just written");

        prop_assert_eq!(loaded.events(), original.events());
        prop_assert_eq!(loaded.snapshot(), original.snapshot());
        prop_assert_eq!(loaded.line_bits(), original.line_bits());
        prop_assert_eq!(loaded.ones_seed(), original.ones_seed());

        let from_memory = experiment.clone().replay(&original).expect("replay");
        let from_disk = experiment.clone().replay(&loaded).expect("replay");
        prop_assert_eq!(report_bits(&from_memory), report_bits(&from_disk));
        std::fs::remove_dir_all(dir).ok();
    }

    /// Any corruption of a store entry — truncation, a chopped tail, or
    /// a silent byte flip anywhere in the file — makes
    /// the load fall back to recapture, bumps `capture_store.invalid`,
    /// and leaves the final reports bit-identical to an uncorrupted run.
    /// Never a wrong report.
    #[test]
    fn corruption_always_falls_back_to_an_identical_recapture(
        workload_index in 0usize..21,
        seed in any::<u64>(),
        corruption in 0usize..3,
        damage in any::<u64>(),
    ) {
        reap_obs::set_enabled(true);
        let workload = SpecWorkload::ALL[workload_index];
        let experiment = Experiment::paper_hierarchy()
            .workload(workload)
            .budgets(500, 4_000)
            .seed(seed);
        let dir = scratch("corrupt");
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);

        // Reference sweep and a populated store entry.
        let clean = ecc_sweep(&disk(&store), &experiment);
        let key = CaptureKey::new(workload, seed, experiment.config());
        let path = store.entry_path(&key);
        let len = std::fs::metadata(&path).expect("entry exists").len();

        // Damage the entry with one of the reap-fault corruption tools,
        // at a position derived from the arbitrary `damage` value.
        match corruption {
            0 => {
                reap_fault::truncate_file(&path, damage % len).expect("truncate");
            }
            1 => {
                reap_fault::chop_tail(&path, 1 + damage % len).expect("chop");
            }
            _ => {
                let mask = 1u8 << (damage % 8);
                reap_fault::flip_byte(&path, damage % len, mask).expect("flip");
            }
        }

        // The damaged entry must never load.
        let invalid_before = counter("capture_store.invalid");
        prop_assert!(store.load(&key).is_none(), "corrupt entry must not load");
        prop_assert!(
            counter("capture_store.invalid") > invalid_before,
            "fallback must be counted"
        );

        // And the store-backed sweep must silently recapture to the same
        // bits as the clean run.
        let recovered = ecc_sweep(&disk(&store), &experiment);
        prop_assert_eq!(clean.len(), recovered.len());
        for (a, b) in clean.iter().zip(&recovered) {
            prop_assert_eq!(report_bits(a), report_bits(b));
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

proptest! {
    /// The `reap-capture/2` codec round-trips arbitrary record streams
    /// bit-identically: any sequence of kinds, keys and read counts —
    /// including adversarial u64 extremes that stress the zigzag/varint
    /// delta coding and multi-frame captures — encodes and stream-decodes
    /// back to exactly the input.
    #[test]
    fn v2_codec_round_trips_arbitrary_record_streams(
        events in proptest::collection::vec(any_record(), 0..200),
        fingerprint in any::<u64>(),
        line_bits in 1usize..4096,
        ones_seed in any::<u64>(),
    ) {
        let capture = ExposureCapture::from_parts(
            events.clone(),
            HierarchySnapshot {
                l1i: CacheStats::default(),
                l1d: CacheStats::default(),
                l2: CacheStats::default(),
                memory_reads: 0,
                memory_writes: 0,
            },
            line_bits,
            ones_seed,
            HierarchyConfig::paper(),
            Replacement::Lru,
            0,
            0,
            0,
        );
        let mut encoded = Vec::new();
        let bytes = write_capture_v2(&mut encoded, fingerprint, &capture).expect("encode");
        prop_assert_eq!(bytes, encoded.len() as u64);

        let payload = read_capture_v2(encoded.as_slice(), fingerprint).expect("decode");
        prop_assert_eq!(payload.events, events);
        prop_assert_eq!(payload.line_bits, line_bits);
        prop_assert_eq!(payload.ones_seed, ones_seed);
        prop_assert_eq!(payload.snapshot, *capture.snapshot());
    }
}

/// Warm sweeps from a store and from no store at all agree bit-for-bit:
/// the on-disk encoding never leaks into results.
#[test]
fn warm_sweeps_agree_with_fresh_capture() {
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Soplex)
        .budgets(500, 6_000)
        .seed(77);
    let fresh = ecc_sweep(&CaptureSource::default(), &experiment);

    let dir = scratch("warm");
    let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
    ecc_sweep(&disk(&store), &experiment);
    let warm = ecc_sweep(&disk(&store), &experiment);
    std::fs::remove_dir_all(dir).ok();

    assert_eq!(warm.len(), fresh.len());
    for (a, b) in fresh.iter().zip(&warm) {
        assert_eq!(report_bits(a), report_bits(b));
    }
}

/// An entry of the retired fixed-width format (version byte 1) is never
/// decoded: the load counts it invalid, the replay recaptures to the
/// bits of a storeless run, and the recapture rewrites the entry as v2
/// so the next load is a hit.
#[test]
fn retired_v1_entry_is_recaptured_and_rewritten_as_v2() {
    reap_obs::set_enabled(true);
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Hmmer)
        .budgets(500, 6_000)
        .seed(19);
    let dir = scratch("retired-v1");
    let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
    ecc_sweep(&disk(&store), &experiment);
    let key = CaptureKey::new(SpecWorkload::Hmmer, 19, experiment.config());
    let path = store.entry_path(&key);
    let original = std::fs::read(&path).expect("entry written");
    assert_eq!(original[4], 2, "entries are written as v2");
    // Version byte 1 under a matching header checksum (FNV-1a over the
    // 345 header bytes, stored right after them): only the version check
    // can turn the entry away.
    let mut bytes = original.clone();
    bytes[4] = 1;
    let sum = bytes[..345].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    bytes[345..353].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).expect("rewrite version byte");

    let invalid_before = counter("capture_store.invalid");
    assert!(store.load(&key).is_none(), "a v1 entry must not load");
    assert!(
        counter("capture_store.invalid") > invalid_before,
        "the retired entry must count as invalid"
    );

    let storeless = ecc_sweep(&CaptureSource::default(), &experiment);
    let recaptured = ecc_sweep(&disk(&store), &experiment);
    assert_eq!(recaptured.len(), storeless.len());
    for (a, b) in storeless.iter().zip(&recaptured) {
        assert_eq!(report_bits(a), report_bits(b));
    }

    let rewritten = std::fs::read(&path).expect("entry rewritten");
    assert!(
        rewritten == original,
        "the recapture rewrites the original v2 bytes"
    );
    let hits_before = counter("capture_store.hit");
    assert!(store.load(&key).is_some(), "the rewritten entry must load");
    assert!(counter("capture_store.hit") > hits_before);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn source_store_layer_hits_after_a_cold_miss_and_counts_both() {
    reap_obs::set_enabled(true);
    let dir = scratch("counters");
    let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Libquantum)
        .budgets(500, 6_000)
        .seed(11);

    let (miss0, hit0, write0) = (
        counter("capture_store.miss"),
        counter("capture_store.hit"),
        counter("capture_store.write"),
    );
    let cold = ecc_sweep(&disk(&store), &experiment);
    assert!(counter("capture_store.miss") > miss0, "cold run misses");
    assert!(counter("capture_store.write") > write0, "cold run persists");

    let warm = ecc_sweep(&disk(&store), &experiment);
    assert!(counter("capture_store.hit") > hit0, "warm run hits");
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(report_bits(a), report_bits(b));
        assert_eq!(a.l2_stats(), b.l2_stats());
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn read_policy_never_writes_but_serves_existing_entries() {
    let dir = scratch("readonly");
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Mcf)
        .budgets(500, 6_000)
        .seed(4);
    let key = CaptureKey::new(SpecWorkload::Mcf, 4, experiment.config());

    // A read-only store never populates the directory…
    let reader = CaptureStore::new(&dir, CapturePolicy::Read);
    ecc_sweep(&disk(&reader), &experiment);
    assert!(reader.load(&key).is_none(), "nothing was persisted");
    let capture = experiment.capture().unwrap();

    // …but serves entries someone else wrote.
    CaptureStore::new(&dir, CapturePolicy::ReadWrite)
        .store(&key, &capture)
        .unwrap();
    let loaded = reader.load(&key).expect("entry now exists");
    assert_eq!(loaded.events(), capture.events());
    std::fs::remove_dir_all(dir).ok();
}

/// Threads storing one key at once each write their own temp file: every
/// `store()` returns `Ok`, the entry loads, and no temp file is left.
#[test]
fn concurrent_stores_of_one_key_all_succeed() {
    let dir = scratch("race");
    let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Hmmer)
        .budgets(500, 4_000)
        .seed(2);
    let capture = experiment.capture().unwrap();
    let key = CaptureKey::new(SpecWorkload::Hmmer, 2, experiment.config());
    let start = Barrier::new(4);
    for _ in 0..10 {
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        store.store(&key, &capture)
                    })
                })
                .collect();
            for writer in writers {
                writer
                    .join()
                    .unwrap()
                    .expect("every concurrent store succeeds");
            }
        });
    }
    let loaded = store.load(&key).expect("entry loads");
    assert_eq!(loaded.events(), capture.events());
    let temps = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
        .count();
    assert_eq!(temps, 0, "no temp file may be left behind");
    std::fs::remove_dir_all(dir).ok();
}

/// A store entry that rots after load-time validation fails the streamed
/// replay; the source recaptures exactly once, to the bits of a cold
/// capture, and evicts the hot entry so the next call produces it again.
/// Holds for a batch split across threads too: every chunk's stream
/// hits the rot, and the source still recaptures once.
#[test]
fn mid_replay_rot_recaptures_once_through_the_source() {
    reap_obs::set_enabled(true);
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Namd)
        .budgets(1_000, 20_000)
        .seed(5);
    let key = CaptureKey::new(SpecWorkload::Namd, 5, experiment.config());
    let cold = six_point_bits(&CaptureSource::default(), &experiment, 1);
    for (threads, truncate) in [(1, true), (1, false), (2, true), (2, false)] {
        let dir = scratch("rot");
        let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
        ecc_sweep(&disk(&store), &experiment);
        let entry = store.load(&key).expect("populated");
        assert!(entry.event_count() > 4096, "entry spans several frames");
        // v2 layout: 353 header bytes, then the first frame's record
        // count, payload length, payload and checksum.
        let path = store.entry_path(&key);
        let bytes = std::fs::read(&path).unwrap();
        let payload_len = u32::from_le_bytes(bytes[357..361].try_into().unwrap()) as usize;
        let first_frame_end = 353 + 8 + payload_len + 8;

        // Load and validate the entry into the hot layer: it is now a
        // streamed capture that re-opens the file at replay time.
        let hot = Arc::new(HotCaptureCache::new(4));
        let source = CaptureSource::new(Some(Arc::clone(&hot)), Some(store.clone()));
        assert_eq!(six_point_bits(&source, &experiment, threads), cold);
        assert_eq!(hot.len(), 1);

        // Damage the entry after its first frame.
        let len = bytes.len() as u64;
        assert!(len - 16 > first_frame_end as u64);
        if truncate {
            reap_fault::truncate_file(&path, len - 16).unwrap();
        } else {
            reap_fault::flip_byte(&path, len - 16, 0x10).unwrap();
        }

        let (recaptures, evictions, misses) = (
            counter("capture_source.recapture"),
            counter("serve.cache.evict"),
            counter("serve.cache.miss"),
        );
        let recovered = six_point_bits(&source, &experiment, threads);
        assert_eq!(recovered, cold, "recapture must match a cold capture");
        assert_eq!(counter("capture_source.recapture"), recaptures + 1);
        assert_eq!(counter("serve.cache.evict"), evictions + 1);
        assert!(hot.is_empty(), "the rotten entry was evicted");

        let again = six_point_bits(&source, &experiment, threads);
        assert_eq!(again, cold);
        assert_eq!(counter("serve.cache.miss"), misses + 1, "produced again");
        assert_eq!(counter("capture_source.recapture"), recaptures + 1);
        assert_eq!(hot.len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A store that cannot be written costs a counted warning, never the job.
#[test]
fn store_write_failure_is_counted_and_the_job_still_scores() {
    reap_obs::set_enabled(true);
    let blocker = scratch("blocked");
    std::fs::write(&blocker, b"a file, not a directory").unwrap();
    let store = CaptureStore::new(blocker.join("store"), CapturePolicy::ReadWrite);
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Gcc)
        .budgets(500, 4_000)
        .seed(8);
    let failed = counter("capture_store.write_failed");
    let stored: Vec<_> = ecc_sweep(&disk(&store), &experiment)
        .iter()
        .map(report_bits)
        .collect();
    assert!(counter("capture_store.write_failed") > failed);
    let cold: Vec<_> = ecc_sweep(&CaptureSource::default(), &experiment)
        .iter()
        .map(report_bits)
        .collect();
    assert_eq!(stored, cold);
    std::fs::remove_file(blocker).ok();
}

/// `source.replay` of `experiment` at six points on `threads` threads,
/// inside a fresh root span: the report bits, and the paths of the spans
/// the call recorded on this thread, relative to that root. Span stacks
/// are per thread, so concurrent tests cannot leak into the list.
fn traced_six_points(
    source: &CaptureSource,
    experiment: &Experiment,
    threads: usize,
) -> (Vec<[u64; 4]>, Vec<String>) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    reap_obs::set_enabled(true);
    let root = format!("route-probe-{}", NEXT.fetch_add(1, Ordering::Relaxed));
    let bits = {
        let _root = reap_obs::span(&root);
        six_point_bits(source, experiment, threads)
    };
    let prefix = format!("{root}/");
    let paths = reap_obs::global()
        .snapshot()
        .spans
        .iter()
        .filter_map(|s| s.path.strip_prefix(&prefix).map(str::to_owned))
        .collect();
    (bits, paths)
}

/// A storeless, single-chunk replay is one fused pass: a `capture` span
/// and no `replay_batch`. Its rows equal a store-backed source's, and
/// it leaves nothing on disk, while the store-backed one writes an entry.
#[test]
fn storeless_source_fuses_to_the_store_backed_bits_and_writes_nothing() {
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Bzip2)
        .budgets(500, 6_000)
        .seed(21);
    let dir = scratch("fused");
    std::fs::create_dir_all(&dir).unwrap();
    let entries = || std::fs::read_dir(&dir).unwrap().count();

    let (fused, paths) = traced_six_points(&CaptureSource::default(), &experiment, 1);
    assert_eq!(paths, ["capture"], "one fused trace pass");
    assert_eq!(entries(), 0);

    let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
    let (stored, paths) = traced_six_points(&disk(&store), &experiment, 1);
    assert!(paths.iter().any(|p| p == "replay_batch"), "{paths:?}");
    assert_eq!(entries(), 1, "the store-backed source persists its capture");
    assert_eq!(fused, stored);
    std::fs::remove_dir_all(dir).ok();
}

/// A hot layer keeps the capture, and a replay split into 2+ chunks
/// streams it once per chunk: both still materialize, to the same bits.
#[test]
fn hot_layer_and_multi_chunk_replays_still_materialize() {
    let experiment = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Astar)
        .budgets(500, 6_000)
        .seed(9);
    let (fused, paths) = traced_six_points(&CaptureSource::default(), &experiment, 1);
    assert!(!paths.iter().any(|p| p == "replay_batch"), "{paths:?}");

    let hot = Arc::new(HotCaptureCache::new(2));
    let cached = CaptureSource::new(Some(Arc::clone(&hot)), None);
    let (bits, paths) = traced_six_points(&cached, &experiment, 1);
    assert!(paths.iter().any(|p| p == "replay_batch"), "{paths:?}");
    assert_eq!(hot.len(), 1, "the hot layer holds the capture");
    assert_eq!(bits, fused);

    // Six points on two threads: a 4-lane chunk plus a remainder.
    let (bits, paths) = traced_six_points(&CaptureSource::default(), &experiment, 2);
    assert!(paths.iter().any(|p| p == "capture"), "{paths:?}");
    assert!(paths.iter().any(|p| p == "replay_batch"), "{paths:?}");
    assert_eq!(bits, fused);
}
