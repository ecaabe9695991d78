//! Telemetry accumulation semantics of the worker pools, and the
//! counted fallback of the checkpoint journal.
//!
//! These tests own the process-global telemetry registry, so they live in
//! their own integration-test binary (one process) rather than in the
//! library's unit-test binary, where they would race other telemetry
//! tests for the global state.

use reap_core::checkpoint::{self, CheckpointWriter};
use reap_core::supervise::{pool_map_supervised, JobOutcome, SupervisorConfig};
use reap_core::sweep::pool_map;
use std::ops::ControlFlow;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes the tests in this binary: they all reset/enable the
/// process-global registry.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn keep_going<R>(_: usize, _: &JobOutcome<R>) -> ControlFlow<()> {
    ControlFlow::Continue(())
}

/// Two batches through the same pool name must *accumulate* the per-worker
/// `.jobs` counter, like every other emitted counter. A `store` there (the
/// old behaviour) silently overwrites the first batch's count, so repeated
/// sweeps in one process under-report work.
#[test]
fn worker_jobs_counter_accumulates_across_batches() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reap_obs::global().reset();
    reap_obs::set_enabled(true);

    // Single worker so worker 0 owns every job deterministically.
    let first: Vec<u64> = (0..3).collect();
    let second: Vec<u64> = (0..5).collect();
    let _ = pool_map(first, 1, "jobs_accum", |j| j);
    let _ = pool_map(second, 1, "jobs_accum", |j| j);

    // Same contract for the supervised pool.
    let config = SupervisorConfig::default();
    let _ = pool_map_supervised(
        (0..2).collect::<Vec<u64>>(),
        1,
        "jobs_accum_sup",
        &config,
        |j| j,
        keep_going,
    );
    let _ = pool_map_supervised(
        (0..4).collect::<Vec<u64>>(),
        1,
        "jobs_accum_sup",
        &config,
        |j| j,
        keep_going,
    );

    let snapshot = reap_obs::global().snapshot();
    reap_obs::set_enabled(false);
    let get = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(
        get("jobs_accum.worker.0.jobs"),
        8,
        "second pool_map batch must add to the counter, not overwrite it"
    );
    assert_eq!(
        get("jobs_accum_sup.worker.0.jobs"),
        6,
        "second supervised batch must add to the counter, not overwrite it"
    );
}

/// Two batches through the same pool name must *accumulate* the per-worker
/// `.busy_s`/`.idle_s` gauges and recompute `.utilization` from the
/// accumulated totals. A `set` there (the old behaviour) silently threw
/// away the first batch's seconds, so repeated sweeps in one process
/// under-reported busy time and showed only the last batch's utilization.
#[test]
fn worker_seconds_gauges_accumulate_across_batches() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reap_obs::global().reset();
    reap_obs::set_enabled(true);

    let gauge = |name: &str| {
        reap_obs::global()
            .snapshot()
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let nap = |_j: u64| std::thread::sleep(Duration::from_millis(10));

    // Single worker so worker 0 owns every job deterministically; sleeps
    // make the per-batch busy time a guaranteed lower bound.
    let _ = pool_map((0..3).collect::<Vec<u64>>(), 1, "secs_accum", nap);
    let busy_after_first = gauge("secs_accum.worker.0.busy_s");
    assert!(busy_after_first >= 0.029, "3×10ms jobs: {busy_after_first}");

    let _ = pool_map((0..2).collect::<Vec<u64>>(), 1, "secs_accum", nap);
    let busy_after_second = gauge("secs_accum.worker.0.busy_s");
    assert!(
        busy_after_second >= busy_after_first + 0.019,
        "second batch (2×10ms) must add to busy_s, not overwrite it: \
         {busy_after_first} -> {busy_after_second}"
    );

    // Utilization reflects the accumulated totals, not the last batch.
    let idle = gauge("secs_accum.worker.0.idle_s");
    let utilization = gauge("secs_accum.worker.0.utilization");
    assert!(idle >= 0.0);
    let expected = busy_after_second / (busy_after_second + idle);
    assert!(
        (utilization - expected).abs() < 1e-9,
        "utilization {utilization} must equal accumulated busy/(busy+idle) {expected}"
    );
    assert!(utilization > 0.0 && utilization <= 1.0);

    // Same contract for the supervised pool.
    let config = SupervisorConfig::default();
    let run = |jobs: u64| {
        let _ = pool_map_supervised(
            (0..jobs).collect::<Vec<u64>>(),
            1,
            "secs_accum_sup",
            &config,
            |_j| std::thread::sleep(Duration::from_millis(10)),
            keep_going,
        );
    };
    run(3);
    let sup_first = gauge("secs_accum_sup.worker.0.busy_s");
    run(2);
    let sup_second = gauge("secs_accum_sup.worker.0.busy_s");
    assert!(
        sup_second >= sup_first + 0.019,
        "supervised second batch must add to busy_s: {sup_first} -> {sup_second}"
    );

    reap_obs::set_enabled(false);
}

/// A journal append that fails (here: `/dev/full` opens for appending,
/// then refuses every write) is tolerated and counted once per failed
/// job as `checkpoint.write_failed`; a successful append counts nothing.
#[cfg(target_os = "linux")]
#[test]
fn journal_write_failures_are_counted() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reap_obs::global().reset();
    reap_obs::set_enabled(true);

    let mut full = CheckpointWriter::append_to(std::path::Path::new("/dev/full"))
        .expect("/dev/full opens for appending");
    checkpoint::tolerate_write_failure(full.record("mcf", &[]));
    checkpoint::tolerate_write_failure(full.record_json_rows("ways=8", &["{}".to_owned()]));

    let ok_path = std::env::temp_dir().join(format!("reap-journal-ok-{}", std::process::id()));
    std::fs::write(&ok_path, "").expect("scratch journal");
    let mut ok = CheckpointWriter::append_to(&ok_path).expect("scratch journal opens");
    checkpoint::tolerate_write_failure(ok.record("mcf", &[]));
    std::fs::remove_file(&ok_path).ok();

    let failed = reap_obs::global().counter("checkpoint.write_failed").get();
    reap_obs::set_enabled(false);
    assert_eq!(failed, 2);
}

/// A batched replay split across threads counts its chunks and emits one
/// `replay_batch.chunk` span per chunk, each streaming the whole
/// capture; the chunk threads are not pool workers and add no
/// `.worker.` metrics.
#[test]
fn chunked_replay_counts_chunks_outside_the_pool_metrics() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let experiment = reap_core::Experiment::paper_hierarchy()
        .workload(reap_trace::SpecWorkload::Mcf)
        .budgets(500, 4_000);
    let capture = experiment.clone().capture().expect("capture");
    let points: Vec<reap_core::Simulator> = (0..9)
        .map(|i| {
            let ecc = reap_core::EccStrength::ALL[i % 3];
            reap_core::Simulator::new(experiment.clone().ecc(ecc).config().clone()).unwrap()
        })
        .collect();
    reap_obs::global().reset();
    reap_obs::set_enabled(true);
    // 9 points are 3 lanes: 3 chunks of at most 4 points at threads = 3,
    // and the same 3 chunks when 5 threads are offered.
    for threads in [3, 5] {
        let reports =
            reap_core::Simulator::replay_batch_parallel(&points, &capture, threads).unwrap();
        assert_eq!(reports.len(), 9);
    }
    reap_obs::set_enabled(false);
    let snapshot = reap_obs::global().snapshot();
    let chunks: Vec<_> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == "replay_batch.chunk")
        .collect();
    assert_eq!(chunks.len(), 6);
    assert!(chunks.iter().all(|s| s.events == capture.event_count()));
    assert_eq!(
        reap_obs::global().counter("sim.replay_batch.chunks").get(),
        6
    );
    assert_eq!(
        reap_obs::global().counter("sim.replay_batch.points").get(),
        18
    );
    assert!(
        !snapshot
            .counters
            .iter()
            .any(|(n, _)| n.contains(".worker.")),
        "chunk threads are not pool workers"
    );
}
