//! Performance benchmark for the persistent capture store.
//!
//! First runs the full per-workload ECC sweep once with no store at all
//! (`CaptureSource::default()`, the `reap sweep` default): each trace
//! pass feeds the batched kernel directly and nothing is materialized.
//! Then runs the sweep twice against a fresh [`CaptureStore`]:
//!
//! 1. **cold** — the store directory starts empty, so every workload pays
//!    its trace pass and persists the capture, and
//! 2. **warm** — the same sweep again, now served entirely from disk: the
//!    trace pass is skipped and only the replay kernel runs, streamed
//!    straight out of the decoder's reusable frame buffer without
//!    materializing the event vector.
//!
//! Correctness gates: cold and warm must agree bit-for-bit, the cold
//! sweep must agree bit-for-bit with the storeless sweep (the store may
//! not leak into results), and every warm workload must register a
//! `capture_store.hit`. Performance gates: the warm pass must clear the
//! speedup floor (2x at full budget, 1x in smoke mode — tiny captures
//! leave little trace cost to amortise) and the store directory must be
//! at least 2x smaller than the same captures in fixed-width records
//! (the sum of `v1_equivalent_bytes` over the entries, which the store
//! counts as `capture_store.fixed_width_bytes`; 1.2x in smoke
//! mode, where fixed headers dominate). The bench also reports the peak
//! RSS of the storeless pass and of the warm pass — the bounded-memory
//! claims of the fused and the streamed paths in numbers — and fails if
//! the storeless peak exceeds twice the warm one. Results, with their
//! provenance, land in `BENCH_capture.json` (override the path with the
//! first argument).
//!
//! `--smoke` (or `REAP_BENCH_SMOKE=1`) shrinks the access budget for CI.

use reap_bench::{access_budget, peak_rss_bytes, reset_peak_rss};
use reap_core::capture_store::{CapturePolicy, CaptureStore};
use reap_core::{run_job, CaptureSource, EccStrength, ProtectionScheme, Report, SweepMode};
use reap_trace::SpecWorkload;
use std::time::Instant;

fn failure_bits(r: &Report) -> [u64; 4] {
    [
        r.expected_failures(ProtectionScheme::Conventional)
            .to_bits(),
        r.expected_failures(ProtectionScheme::Reap).to_bits(),
        r.expected_failures(ProtectionScheme::SerialTagFirst)
            .to_bits(),
        r.writeback_exposure().to_bits(),
    ]
}

/// One workload's ECC-sweep reports, one per strength.
type SweepReports = Vec<(Option<EccStrength>, Report)>;

/// One ECC sweep over every workload through `source`, timed.
fn sweep_all(accesses: u64, source: &CaptureSource) -> (f64, Vec<SweepReports>) {
    let t0 = Instant::now();
    let results = SpecWorkload::ALL
        .iter()
        .map(|&w| {
            run_job(
                source,
                w,
                accesses,
                reap_bench::DEFAULT_SEED,
                SweepMode::EccSweep,
            )
            .expect("sweep")
        })
        .collect();
    (t0.elapsed().as_secs_f64(), results)
}

/// Total bytes of `.rcap` entries under a store directory.
fn store_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Everything the store's cold/warm pair produces.
struct StoreRun {
    cold_s: f64,
    warm_s: f64,
    hits: u64,
    bytes: u64,
    /// What the same entries would occupy in fixed-width records.
    fixed_width_bytes: u64,
    bytes_written: u64,
    bytes_read: u64,
    warm_peak_rss: Option<u64>,
    results: Vec<SweepReports>,
}

/// The storeless sweep: wall time, peak RSS and reports.
struct NoStoreRun {
    cold_s: f64,
    peak_rss: Option<u64>,
    results: Vec<SweepReports>,
}

/// Runs the sweep with no store, its peak-RSS watermark scoped to it.
fn run_nostore(accesses: u64) -> NoStoreRun {
    let rss_scoped = reset_peak_rss();
    let (cold_s, results) = sweep_all(accesses, &CaptureSource::default());
    NoStoreRun {
        cold_s,
        peak_rss: if rss_scoped { peak_rss_bytes() } else { None },
        results,
    }
}

/// Asserts two sweeps' reports agree bit for bit.
fn assert_same_bits(a: &[SweepReports], b: &[SweepReports], what: &str) {
    for (&w, (a, b)) in SpecWorkload::ALL.iter().zip(a.iter().zip(b)) {
        assert_eq!(a.len(), b.len());
        for ((ecc_a, ra), (ecc_b, rb)) in a.iter().zip(b) {
            assert_eq!(ecc_a, ecc_b);
            assert_eq!(
                failure_bits(ra),
                failure_bits(rb),
                "{what} ({} at {ecc_a:?})",
                w.name()
            );
        }
    }
}

fn fmt_rss(bytes: Option<u64>) -> String {
    bytes.map_or("n/a".to_string(), |b| {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    })
}

/// Runs the cold+warm sweep pair in a fresh store directory, verifying
/// warm ≡ cold bit-for-bit and full store service.
fn run_store(accesses: u64) -> StoreRun {
    let dir = std::env::temp_dir().join(format!("reap-capture-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = CaptureStore::new(&dir, CapturePolicy::ReadWrite);
    let source = CaptureSource::new(None, Some(store));

    // Count the store traffic, so the bench can prove the warm pass was
    // actually served from disk rather than quietly recapturing.
    reap_bench::enable_telemetry();

    let (cold_s, cold) = sweep_all(accesses, &source);
    let bytes = store_bytes(&dir);
    // The cold pass wrote each entry once: the store summed
    // `v1_equivalent_bytes` over them.
    let fixed_width_bytes = reap_obs::global()
        .counter("capture_store.fixed_width_bytes")
        .get();

    // Scope the peak-RSS watermark to the warm pass: this is the memory
    // cost of replaying from disk, the number the streaming path bounds.
    let rss_scoped = reset_peak_rss();
    let (warm_s, warm) = sweep_all(accesses, &source);
    let warm_peak_rss = if rss_scoped { peak_rss_bytes() } else { None };

    assert_same_bits(&cold, &warm, "warm sweep diverged from cold");

    let registry = reap_obs::global();
    let hits = registry.counter("capture_store.hit").get();
    assert_eq!(
        hits,
        SpecWorkload::ALL.len() as u64,
        "every warm workload must be served from the store"
    );
    let bytes_written = registry.counter("capture_store.bytes_written").get();
    let bytes_read = registry.counter("capture_store.bytes_read").get();
    assert!(
        bytes_written >= bytes && bytes_read >= bytes,
        "store I/O counters must cover the on-disk entries \
         (wrote {bytes_written}, read {bytes_read}, on disk {bytes})"
    );

    std::fs::remove_dir_all(&dir).ok();
    StoreRun {
        cold_s,
        warm_s,
        hits,
        bytes,
        fixed_width_bytes,
        bytes_written,
        bytes_read,
        warm_peak_rss,
        results: cold,
    }
}

fn store_json(run: &StoreRun) -> String {
    let speedup = run.cold_s / run.warm_s;
    format!(
        "{{\n    \"cold_s\": {:.6},\n    \"warm_s\": {:.6},\n    \"speedup\": {speedup:.3},\n    \
         \"hits\": {},\n    \"store_bytes\": {},\n    \"bytes_written\": {},\n    \
         \"bytes_read\": {},\n    \"warm_peak_rss_bytes\": {}\n  }}",
        run.cold_s,
        run.warm_s,
        run.hits,
        run.bytes,
        run.bytes_written,
        run.bytes_read,
        run.warm_peak_rss
            .map_or("null".to_string(), |b| b.to_string()),
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out_path = String::from("BENCH_capture.json");
    let mut metrics_out: Option<String> = None;
    let mut smoke = std::env::var("REAP_BENCH_SMOKE").is_ok_and(|v| v != "0");
    while let Some(a) = args.next() {
        if a == "--smoke" {
            smoke = true;
        } else if a == "--metrics-out" {
            metrics_out = Some(args.next().expect("--metrics-out needs a path"));
        } else {
            out_path = a;
        }
    }
    let accesses = if smoke { 20_000 } else { access_budget() };
    let workloads = SpecWorkload::ALL;
    let points = EccStrength::ALL.len();
    println!(
        "capture store benchmark — {} workloads x {points} ECC points, {accesses} accesses each{}",
        workloads.len(),
        if smoke { " (smoke)" } else { "" }
    );

    // First, while the heap is fresh: its watermark is the whole cost of
    // a storeless sweep.
    let nostore = run_nostore(accesses);
    let v2 = run_store(accesses);

    // The store may not leak into results: the cold sweep saw the same
    // trace passes as the storeless one, so they must agree exactly.
    assert_same_bits(
        &nostore.results,
        &v2.results,
        "storeless sweep diverged from the store-backed one",
    );

    let speedup = v2.cold_s / v2.warm_s;
    let compression_ratio = v2.fixed_width_bytes as f64 / v2.bytes.max(1) as f64;
    println!(
        "no store: cold {:.3} s   peak RSS {}",
        nostore.cold_s,
        fmt_rss(nostore.peak_rss)
    );
    println!(
        "v2: cold {:.3} s   warm {:.3} s   speedup {speedup:.2}x   \
         {} B on disk   warm peak RSS {}",
        v2.cold_s,
        v2.warm_s,
        v2.bytes,
        fmt_rss(v2.warm_peak_rss),
    );
    println!(
        "compression: entries {compression_ratio:.2}x smaller than fixed-width records \
         ({} B, bit-identical)",
        v2.fixed_width_bytes
    );

    let json = format!(
        "{{\n  \"accesses\": {accesses},\n  \"workloads\": {},\n  \"points\": {points},\n  \
         \"cold_nostore_s\": {:.6},\n  \"cold_nostore_peak_rss_bytes\": {},\n  \
         \"v2\": {},\n  \"fixed_width_bytes\": {},\n  \
         \"compression_ratio\": {compression_ratio:.3},\n  \
         \"bit_identical\": true,\n  \"smoke\": {smoke},\n  \"provenance\": {}\n}}\n",
        workloads.len(),
        nostore.cold_s,
        nostore
            .peak_rss
            .map_or("null".to_string(), |b| b.to_string()),
        store_json(&v2),
        v2.fixed_width_bytes,
        reap_bench::provenance_json(),
    );
    std::fs::write(&out_path, json).expect("write benchmark results");
    println!("wrote {out_path}");

    // `run_store` resets the registry, so the snapshot here covers the
    // cold/warm store pair.
    if let Some(path) = &metrics_out {
        let mut buf = Vec::new();
        reap_obs::export::write_jsonl(&reap_obs::global().snapshot(), &mut buf)
            .expect("serialize metrics");
        std::fs::write(path, buf).expect("write metrics");
        println!("wrote {path}");
    }

    let floor = if smoke { 1.0 } else { 2.0 };
    let mut failed = false;
    if speedup < floor {
        eprintln!("FAIL: warm sweep below the {floor:.0}x speedup floor ({speedup:.2}x)");
        failed = true;
    }
    let size_floor = if smoke { 1.2 } else { 2.0 };
    if compression_ratio < size_floor {
        eprintln!(
            "FAIL: store only {compression_ratio:.2}x smaller than fixed-width records \
             (floor {size_floor:.1}x)"
        );
        failed = true;
    }
    // Both bounded paths hold O(frame) state, never O(events): a
    // storeless sweep that materialized its captures would dwarf the
    // streamed warm replay.
    if let (Some(cold), Some(warm)) = (nostore.peak_rss, v2.warm_peak_rss) {
        if cold > 2 * warm {
            eprintln!(
                "FAIL: storeless sweep peaked at {}, over twice the warm replay's {}",
                fmt_rss(Some(cold)),
                fmt_rss(Some(warm))
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
