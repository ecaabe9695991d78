//! Performance benchmark for `reap explore`, the design-space layer.
//!
//! Runs the same multi-hundred-point exploration twice against one
//! persistent [`CaptureStore`]:
//!
//! 1. **cold** — the store starts empty, so every (geometry, scrub,
//!    workload) combination pays its trace pass before the batched
//!    replay scores all (ECC, read-current) points against it;
//! 2. **warm** — the store now holds every capture (including the ones
//!    the refinement pass minted), so the exploration is pure store
//!    reads plus batched replays.
//!
//! The two outcomes must agree bit-for-bit — the bench doubles as an
//! end-to-end determinism check at realistic scale — and the warm pass
//! must be at least 2× faster than the cold one (the process exits
//! non-zero otherwise): that ratio is the whole point of factoring the
//! grid into behavioural captures and analysis replays. Telemetry
//! counters are asserted, not just reported: the grid must have been
//! scored through `sim.replay_batch.points` and the warm pass must be
//! all `capture_store.hit`, zero `capture_store.miss`. Results land in
//! `BENCH_explore.json` (override the path with the first argument).
//!
//! `--smoke` (or `REAP_BENCH_SMOKE=1`) shrinks the grid and the access
//! budget for CI.

use reap_core::explore::{explore, parse_grid, ExploreConfig, ExploreRow};
use reap_core::{CapturePolicy, CaptureStore};
use std::time::Instant;

/// 3 ways × 2 scrub periods × 3 ECC strengths × 13 read currents =
/// 234 base points, behind only 6 behavioural captures per workload.
const FULL_GRID: &str = "ways=4,8,16 scrub=0,50k ecc=sec,dec,tec read-current=0.7:1.0:0.025";
/// 1 × 2 × 2 × 2 = 8 base points, 2 captures per workload.
const SMOKE_GRID: &str = "scrub=0,2k ecc=sec,dec read-current=0.8,1.0";

fn row_bits(rows: &[ExploreRow]) -> Vec<(usize, u64, usize, u64, u64, u64, u64)> {
    rows.iter()
        .map(|r| {
            (
                r.ways,
                r.scrub,
                r.ecc.t(),
                r.read_scale.to_bits(),
                r.mttf_s.to_bits(),
                r.energy_j.to_bits(),
                r.area_mm2.to_bits(),
            )
        })
        .collect()
}

fn counter(name: &str) -> u64 {
    reap_obs::global().counter(name).get()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out_path = String::from("BENCH_explore.json");
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
    // The counter assertions below need live telemetry regardless of
    // whether a metrics file was requested.
    reap_bench::enable_telemetry();

    let (grid_spec, accesses) = if smoke {
        (SMOKE_GRID, 20_000)
    } else {
        (FULL_GRID, reap_bench::access_budget().min(1_000_000))
    };
    let grid = parse_grid(grid_spec).expect("benchmark grid is valid");
    let base_points = grid.point_count();
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "explore benchmark — {base_points}-point base grid, {accesses} accesses per workload{}",
        if smoke { " (smoke)" } else { "" }
    );

    let dir = std::env::temp_dir().join(format!("reap-explore-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = CaptureStore::new(dir.clone(), CapturePolicy::ReadWrite);
    let mut config = ExploreConfig::new(grid, accesses, reap_bench::DEFAULT_SEED, parallelism);
    config.capture_store = Some(store);

    let t0 = Instant::now();
    let cold = explore(&config).expect("cold exploration");
    let cold_s = t0.elapsed().as_secs_f64();
    let misses_after_cold = counter("capture_store.miss");

    let t1 = Instant::now();
    let warm = explore(&config).expect("warm exploration");
    let warm_s = t1.elapsed().as_secs_f64();
    let warm_hits = counter("capture_store.hit");
    let warm_misses = counter("capture_store.miss") - misses_after_cold;

    assert_eq!(
        row_bits(&cold.rows),
        row_bits(&warm.rows),
        "warm-store exploration diverged from the cold one"
    );
    assert_eq!(cold.front, warm.front, "Pareto front diverged");
    let batch_points = counter("sim.replay_batch.points");
    assert!(
        batch_points as usize >= cold.rows.len(),
        "grid must be scored through the batched replay kernel \
         ({batch_points} batch points < {} rows)",
        cold.rows.len()
    );
    assert_eq!(warm_misses, 0, "warm exploration must be all store hits");
    assert!(warm_hits > 0, "warm exploration never touched the store");

    let total_points = cold.rows.len();
    let front_size = cold.front.len();
    let refined_points = cold.refined_points;
    let warm_speedup = cold_s / warm_s;
    println!(
        "cold: {cold_s:.3} s   warm: {warm_s:.3} s   speedup: {warm_speedup:.2}x   \
         ({total_points} points, {refined_points} refined, front {front_size}, \
         {batch_points} batch-replayed, warm hits {warm_hits}, bit-identical)"
    );

    let json = format!(
        "{{\n  \"grid\": \"{grid_spec}\",\n  \"accesses\": {accesses},\n  \
         \"base_points\": {base_points},\n  \"refined_points\": {refined_points},\n  \
         \"total_points\": {total_points},\n  \"front_size\": {front_size},\n  \
         \"cold_s\": {cold_s:.6},\n  \"warm_s\": {warm_s:.6},\n  \
         \"warm_speedup\": {warm_speedup:.3},\n  \
         \"replay_batch_points\": {batch_points},\n  \
         \"warm_store_hits\": {warm_hits},\n  \"warm_store_misses\": {warm_misses},\n  \
         \"bit_identical\": true,\n  \"smoke\": {smoke},\n  \"provenance\": {}\n}}\n",
        reap_bench::provenance_json(),
    );
    std::fs::write(&out_path, json).expect("write benchmark results");
    println!("wrote {out_path}");

    if let Some(path) = &metrics_out {
        let mut buf = Vec::new();
        reap_obs::export::write_jsonl(&reap_obs::global().snapshot(), &mut buf)
            .expect("serialize metrics");
        std::fs::write(path, buf).expect("write metrics");
        println!("wrote {path}");
    }
    std::fs::remove_dir_all(&dir).ok();

    if warm_speedup < 2.0 {
        eprintln!("FAIL: warm-store exploration under 2x faster than cold ({warm_speedup:.2}x)");
        std::process::exit(1);
    }
}
