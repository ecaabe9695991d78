//! The bounded worker pool behind every batch of independent jobs.
//!
//! Each simulation is single-threaded and deterministic; campaigns (a
//! Fig. 5 sweep is 21 independent jobs) parallelize perfectly across
//! jobs. [`pool_map`] fans a batch out over a bounded pool of OS threads
//! and returns results in input order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Runs `f` over `jobs` on up to `parallelism` threads, returning results
/// in input order.
///
/// `explore` and the figure regenerators fan their jobs out on it; the
/// supervised pool ([`crate::supervise`]) publishes the same telemetry.
/// When telemetry is enabled
/// ([`reap_obs::set_enabled`]), the batch is wrapped in a `pool_name` span
/// whose event count is the job count, and each worker publishes its
/// utilization as `{pool_name}.worker.{w}.busy_s` / `.idle_s` /
/// `.utilization` gauges plus a `.jobs` counter. With telemetry disabled
/// (the default) the pool takes no timestamps at all.
///
/// Determinism is unaffected: each job's result depends only on its own
/// input, never on scheduling.
///
/// # Panics
///
/// Panics if `parallelism == 0` or a worker thread panics.
pub fn pool_map<T, R, F>(jobs: Vec<T>, parallelism: usize, pool_name: &str, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert!(parallelism > 0, "need at least one worker");
    let total = jobs.len();
    if total == 0 {
        return Vec::new();
    }
    let mut span = reap_obs::span(pool_name);
    span.add_events(total as u64);
    let telemetry = span.is_recording();
    // Jobs are claimed by index and moved out exactly once; the mutexes
    // are uncontended (each guards a distinct slot).
    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let next = AtomicUsize::new(0);
    let workers = parallelism.min(total);
    let (sender, receiver) = mpsc::channel();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let sender = sender.clone();
            let slots = &slots;
            let next = &next;
            let f = &f;
            let pool = pool_name;
            scope.spawn(move || {
                let started = telemetry.then(Instant::now);
                let job_span_name = telemetry.then(|| format!("{pool}.job"));
                let mut busy = Duration::ZERO;
                let mut jobs_done = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let job = slots[i].lock().expect("slot poisoned").take();
                    let job = job.expect("each slot is claimed once");
                    let t0 = telemetry.then(Instant::now);
                    // Per-job span: feeds the `span.{pool}.job.us`
                    // latency histogram behind `reap obs report`.
                    let _job_span = job_span_name.as_deref().map(reap_obs::span);
                    let result = f(job);
                    drop(_job_span);
                    if let Some(t0) = t0 {
                        busy += t0.elapsed();
                    }
                    jobs_done += 1;
                    sender
                        .send((i, result))
                        .expect("receiver outlives the scope");
                }
                if let Some(started) = started {
                    publish_worker_utilization(pool, w, started, busy, jobs_done);
                }
            });
        }
    });
    drop(sender);

    let mut results: Vec<Option<R>> = (0..total).map(|_| None).collect();
    for (i, result) in receiver {
        results[i] = Some(result);
    }
    results
        .into_iter()
        .map(|slot| slot.expect("every job ran to completion"))
        .collect()
}

/// Publishes one pool worker's utilization once its loop ends:
/// `{pool}.worker.{w}.busy_s` / `.idle_s` / `.utilization` gauges and a
/// `.jobs` counter. Shared by [`pool_map`] and the supervised pool, so
/// dashboards read both alike.
///
/// Seconds and jobs are *added*: repeated pools with the same name in one
/// process accumulate across batches, and utilization is recomputed from
/// the accumulated totals so it reflects the whole run, not the last
/// batch.
pub(crate) fn publish_worker_utilization(
    pool: &str,
    w: usize,
    started: Instant,
    busy: Duration,
    jobs_done: u64,
) {
    let wall = started.elapsed().as_secs_f64();
    let busy = busy.as_secs_f64();
    let registry = reap_obs::global();
    let prefix = format!("{pool}.worker.{w}");
    let busy_gauge = registry.gauge(&format!("{prefix}.busy_s"));
    let idle_gauge = registry.gauge(&format!("{prefix}.idle_s"));
    busy_gauge.add(busy);
    idle_gauge.add((wall - busy).max(0.0));
    let total_busy = busy_gauge.get();
    let total_wall = total_busy + idle_gauge.get();
    registry
        .gauge(&format!("{prefix}.utilization"))
        .set(if total_wall > 0.0 {
            total_busy / total_wall
        } else {
            0.0
        });
    registry.counter(&format!("{prefix}.jobs")).add(jobs_done);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u8> = pool_map(Vec::<u8>::new(), 4, "test_pool", |j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn pool_map_moves_non_clone_jobs_and_keeps_order() {
        struct Job(usize); // deliberately not Clone
        let jobs: Vec<Job> = (0..32).map(Job).collect();
        let out = pool_map(jobs, 4, "test_pool", |j| j.0 * 2);
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_parallelism_rejected() {
        let _ = pool_map(vec![1], 0, "test_pool", |j: i32| j);
    }
}
