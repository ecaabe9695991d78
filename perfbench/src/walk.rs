//! The traced layer walk: the entry point's jobs re-run one layer at a
//! time through each layer's public functions, with a span per block.
//!
//! For every distinct capture a job needs, the walk pulls the trace
//! (`SpecWorkload::stream`), drives it through two hierarchies — one
//! with the no-op observer, one with a `CaptureObserver` — then encodes
//! the capture to a sink, writes it to a private store and loads it
//! back. For every job and profile it resamples line weights, scores
//! them with the exact and the fast-math kernel, and times
//! `Simulator::replay_batch` on the same capture. The reports it builds
//! must reproduce the entry point's result bits.

use crate::spans::Tracer;
use crate::workload::{WalkJob, Workload};
use reap_cache::{sample_ones_multi_batch, AccessObserver, Hierarchy};
use reap_core::capture_store::write_capture_v2;
use reap_core::{
    CaptureKey, CaptureObserver, CapturePolicy, CaptureStore, ExposureCapture, ExposureRecord,
    ExposureStream, HierarchySnapshot, ProtectionScheme, Report, SimulationConfig, Simulator,
};
use reap_reliability::{AccumulationModel, ExposureKind, KernelMode, MultiReplayAggregator};
use reap_trace::{MemoryAccess, SpecWorkload};
use std::collections::BTreeSet;
use std::path::Path;

/// Accesses per timed trace/hierarchy block.
const ACCESS_BLOCK: usize = 1 << 16;
/// Records per timed resample/kernel block.
const RECORD_BLOCK: usize = 1 << 10;
/// Records per kernel call, as the batched replay feeds it.
const FEED_BLOCK: usize = 64;

/// What the walk measured and rebuilt.
#[derive(Debug)]
pub struct Walk {
    /// `reports[job][profile][point]`, from `Simulator::replay_batch`.
    pub reports: Vec<Vec<Vec<Report>>>,
    /// Every block and phase span.
    pub tracer: Tracer,
    /// Warm-up plus measured accesses driven, over distinct captures.
    pub accesses: u64,
    /// Exposure events captured, over distinct captures.
    pub events: u64,
    /// L2 demand accesses in the measured windows.
    pub l2_accesses: u64,
    /// L2 misses in the measured windows.
    pub l2_misses: u64,
    /// Bytes the in-memory captures' event vectors allocated.
    pub capture_bytes: u64,
    /// Bytes of the `reap-capture/2` encodings.
    pub encoded_bytes: u64,
    /// Events pulled back out of the store.
    pub loaded_events: u64,
    /// Events resampled and scored, over every job and profile.
    pub replayed_events: u64,
    /// Events × points scored.
    pub point_events: u64,
    /// Time, in nanoseconds, of the layers on the entry point's own path.
    pub path_ns: u64,
    /// Largest relative difference between a fast-math and an exact
    /// failure sum.
    pub fastmath_max_rel_err: f64,
    /// Whether the walk's exact kernel sums equal `replay_batch`'s bits.
    pub kernel_matches_replay: bool,
}

/// Walks `jobs` of `workload` at `seed`, keeping its capture store in
/// `store_dir`.
///
/// # Errors
///
/// Describes the first layer call that failed.
pub fn walk(
    workload: Workload,
    seed: u64,
    jobs: &[WalkJob],
    store_dir: &Path,
) -> Result<Walk, String> {
    let store = CaptureStore::new(store_dir.to_path_buf(), CapturePolicy::ReadWrite);
    let mut w = Walk {
        reports: Vec::with_capacity(jobs.len()),
        tracer: Tracer::new(),
        accesses: 0,
        events: 0,
        l2_accesses: 0,
        l2_misses: 0,
        capture_bytes: 0,
        encoded_bytes: 0,
        loaded_events: 0,
        replayed_events: 0,
        point_events: 0,
        path_ns: 0,
        fastmath_max_rel_err: 0.0,
        kernel_matches_replay: true,
    };
    let root = w.tracer.open("walk", None);
    let mut captured: BTreeSet<u64> = BTreeSet::new();
    for job in jobs {
        let job_span = w.tracer.open("job", Some(root));
        let sims = job
            .configs
            .iter()
            .map(|c| Simulator::new(c.clone()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let mut per_profile = Vec::with_capacity(job.profiles.len());
        for &profile in &job.profiles {
            let key = CaptureKey::new(profile, seed, &job.configs[0]);
            let first_use = captured.insert(key.fingerprint());
            let fresh = if first_use {
                let unit = w.tracer.open("capture_unit", Some(job_span));
                let fresh =
                    capture_unit(&mut w, unit, profile, seed, &job.configs[0], &store, &key)?;
                w.tracer.close(unit);
                Some(fresh)
            } else {
                None
            };
            // The entry point's own path: a sweep captures in memory; a
            // cold exploration captures and stores on first use and
            // loads afterwards; a warm one only loads.
            let capture = match fresh {
                Some((capture, cost)) if workload != Workload::ExploreWarm => {
                    w.path_ns += cost.trace_ns + cost.capture_ns;
                    if workload.uses_store() {
                        w.path_ns += cost.write_ns;
                    }
                    capture
                }
                Some((_, cost)) => {
                    w.path_ns += cost.load_ns;
                    load(&store, &key)?
                }
                None => {
                    let start = w.tracer.now();
                    let capture = load(&store, &key)?;
                    let mut events = capture.iter().map_err(|e| e.to_string())?;
                    while events.next_record().map_err(|e| e.to_string())?.is_some() {}
                    w.path_ns += w.tracer.block("store_load", Some(job_span), start);
                    w.loaded_events += capture.event_count();
                    capture
                }
            };
            let replay = w.tracer.open("replay_unit", Some(job_span));
            per_profile.push(replay_unit(&mut w, replay, &sims, &capture)?);
            w.tracer.close(replay);
        }
        w.reports.push(per_profile);
        w.tracer.close(job_span);
    }
    w.tracer.close(root);
    Ok(w)
}

fn load(store: &CaptureStore, key: &CaptureKey) -> Result<ExposureCapture, String> {
    store
        .load(key)
        .ok_or_else(|| "the walk's capture store lost an entry".to_owned())
}

/// Nanoseconds one capture's layers took.
#[derive(Debug, Clone, Copy, Default)]
struct CaptureCost {
    trace_ns: u64,
    capture_ns: u64,
    write_ns: u64,
    load_ns: u64,
}

/// Drives `accesses` through `h`, scrubbing the L2 every `scrub_period`
/// accesses (0: never) exactly as `Simulator::capture` does.
fn drive<O: AccessObserver>(
    h: &mut Hierarchy,
    accesses: &[MemoryAccess],
    scrub_period: u64,
    since_scrub: &mut u64,
    observer: &mut O,
) {
    for &a in accesses {
        h.access(a, observer);
        if scrub_period > 0 {
            *since_scrub += 1;
            if *since_scrub >= scrub_period {
                h.l2_mut().scrub(observer);
                *since_scrub = 0;
            }
        }
    }
}

/// Captures `profile` under `config`'s behavioural settings layer by
/// layer, then encodes, stores and reloads it.
fn capture_unit(
    w: &mut Walk,
    parent: usize,
    profile: SpecWorkload,
    seed: u64,
    config: &SimulationConfig,
    store: &CaptureStore,
    key: &CaptureKey,
) -> Result<(ExposureCapture, CaptureCost), String> {
    let t = &mut w.tracer;
    let line_bits = config.hierarchy.l2.line_bits();
    // The capturing experiment's own ECC sets the cache's check bits.
    let check_bits = SimulationConfig::default()
        .ecc
        .build_code(line_bits)
        .map_err(|e| e.to_string())?
        .check_bits();
    let new_hierarchy = || {
        let mut h = Hierarchy::new(config.hierarchy.clone(), config.replacement);
        h.l2_mut().set_check_bits(check_bits);
        h
    };
    let (mut plain, mut observed) = (new_hierarchy(), new_hierarchy());
    let mut observer = CaptureObserver::new();
    let mut stream = profile.stream(seed);
    let mut buf: Vec<MemoryAccess> = Vec::with_capacity(ACCESS_BLOCK);
    let mut cost = CaptureCost::default();
    let (mut since_plain, mut since_observed) = (0u64, 0u64);
    for measuring in [false, true] {
        let mut left = if measuring {
            config.measure_accesses
        } else {
            config.warmup_accesses
        };
        let scrub = if measuring { config.scrub_period } else { 0 };
        while left > 0 {
            let n = left.min(ACCESS_BLOCK as u64) as usize;
            let start = t.now();
            buf.clear();
            buf.extend(stream.by_ref().take(n));
            cost.trace_ns += t.block("trace", Some(parent), start);
            if buf.len() < n {
                return Err(format!("{profile} trace ended early"));
            }
            let start = t.now();
            drive(&mut plain, &buf, scrub, &mut since_plain, &mut ());
            t.block("hierarchy", Some(parent), start);
            let start = t.now();
            if measuring {
                drive(
                    &mut observed,
                    &buf,
                    scrub,
                    &mut since_observed,
                    &mut observer,
                );
            } else {
                drive(&mut observed, &buf, scrub, &mut since_observed, &mut ());
            }
            cost.capture_ns += t.block("capture_hierarchy", Some(parent), start);
            left -= n as u64;
        }
        if !measuring {
            plain.l2_mut().reset_stats();
            observed.l2_mut().reset_stats();
        }
    }
    let records = observer.into_records();
    let snapshot = HierarchySnapshot::of(&observed);
    w.accesses += config.warmup_accesses + config.measure_accesses;
    w.events += records.len() as u64;
    w.l2_accesses += snapshot.l2.accesses();
    w.l2_misses += snapshot.l2.misses();
    w.capture_bytes += (records.capacity() * std::mem::size_of::<ExposureRecord>()) as u64;
    let capture = ExposureCapture::from_parts(
        records,
        snapshot,
        line_bits,
        observed.l2().ones_seed(),
        config.hierarchy.clone(),
        config.replacement,
        config.warmup_accesses,
        config.measure_accesses,
        config.scrub_period,
    );

    let start = t.now();
    w.encoded_bytes += write_capture_v2(std::io::sink(), key.fingerprint(), &capture)
        .map_err(|e| e.to_string())?;
    t.block("encode", Some(parent), start);

    let start = t.now();
    store.store(key, &capture).map_err(|e| e.to_string())?;
    cost.write_ns = t.block("store_write", Some(parent), start);

    let start = t.now();
    let loaded = load(store, key)?;
    let mut events = loaded.iter().map_err(|e| e.to_string())?;
    let mut n = 0u64;
    while events.next_record().map_err(|e| e.to_string())?.is_some() {
        n += 1;
    }
    cost.load_ns = t.block("store_load", Some(parent), start);
    w.loaded_events += n;
    if n != capture.event_count() {
        return Err(format!(
            "{profile}: stored capture reloaded {n} of {} events",
            capture.event_count()
        ));
    }
    Ok((capture, cost))
}

/// Resamples and scores `capture` at every point of `sims` with the
/// exact and the fast-math kernel, then times `replay_batch` on it and
/// checks that its failure sums equal the exact kernel's bits.
fn replay_unit(
    w: &mut Walk,
    parent: usize,
    sims: &[Simulator],
    capture: &ExposureCapture,
) -> Result<Vec<Report>, String> {
    let t = &mut w.tracer;
    let mut stored_bits = Vec::with_capacity(sims.len());
    let mut kernel_points = Vec::with_capacity(sims.len());
    for sim in sims {
        let ecc = sim.config().ecc;
        let check_bits = ecc
            .build_code(capture.line_bits())
            .map_err(|e| e.to_string())?
            .check_bits();
        let bits = capture.line_bits() + check_bits;
        stored_bits.push(bits);
        kernel_points.push((AccumulationModel::new(sim.p_rd(), ecc.t()), bits as u32));
    }
    let mut widths = stored_bits.clone();
    widths.sort_unstable();
    widths.dedup();
    let width_index: Vec<usize> = stored_bits
        .iter()
        .map(|b| widths.binary_search(b).expect("width present"))
        .collect();
    let (nw, npts) = (widths.len(), sims.len());
    let mut exact = MultiReplayAggregator::with_mode(kernel_points.clone(), KernelMode::Exact);
    let mut fast = MultiReplayAggregator::with_mode(kernel_points, KernelMode::FastMath);

    let seed = capture.ones_seed();
    let mut keys: Vec<(u64, u64, u64)> = Vec::with_capacity(RECORD_BLOCK);
    let mut kinds: Vec<(ExposureKind, u64)> = Vec::with_capacity(RECORD_BLOCK);
    let mut ones_by_width = vec![0u32; RECORD_BLOCK * nw];
    let mut ones_by_point = vec![0u32; RECORD_BLOCK * npts];
    let mut events = capture.iter().map_err(|e| e.to_string())?;
    let mut path_ns = 0;
    loop {
        keys.clear();
        kinds.clear();
        while keys.len() < RECORD_BLOCK {
            match events.next_record().map_err(|e| e.to_string())? {
                Some(r) => {
                    keys.push((r.key.tag, r.key.set, r.key.version));
                    kinds.push((r.kind, r.unchecked_reads));
                }
                None => break,
            }
        }
        let n = keys.len();
        if n == 0 {
            break;
        }
        let start = t.now();
        for (k, out) in keys
            .chunks(FEED_BLOCK)
            .zip(ones_by_width[..n * nw].chunks_mut(FEED_BLOCK * nw))
        {
            sample_ones_multi_batch(seed, k, &widths, out);
        }
        path_ns += t.block("resample", Some(parent), start);
        for row in 0..n {
            for (i, &wi) in width_index.iter().enumerate() {
                ones_by_point[row * npts + i] = ones_by_width[row * nw + wi];
            }
        }
        let start = t.now();
        for (r, o) in kinds
            .chunks(FEED_BLOCK)
            .zip(ones_by_point[..n * npts].chunks(FEED_BLOCK * npts))
        {
            exact.record_block(r, o);
        }
        path_ns += t.block("kernel", Some(parent), start);
        let start = t.now();
        for (r, o) in kinds
            .chunks(FEED_BLOCK)
            .zip(ones_by_point[..n * npts].chunks(FEED_BLOCK * npts))
        {
            fast.record_block(r, o);
        }
        t.block("kernel_fastmath", Some(parent), start);
        w.replayed_events += n as u64;
        w.point_events += (n * npts) as u64;
    }
    w.path_ns += path_ns;

    let start = t.now();
    let reports = Simulator::replay_batch(sims, capture).map_err(|e| e.to_string())?;
    t.block("replay_batch", Some(parent), start);

    for ((report, ex), fm) in reports.iter().zip(exact.finish()).zip(fast.finish()) {
        let sums = [
            (
                report.expected_failures(ProtectionScheme::Conventional),
                ex.conventional().expected_failures(),
                fm.conventional().expected_failures(),
            ),
            (
                report.expected_failures(ProtectionScheme::Reap),
                ex.reap().expected_failures(),
                fm.reap().expected_failures(),
            ),
            (
                report.expected_failures(ProtectionScheme::SerialTagFirst),
                ex.serial().expected_failures(),
                fm.serial().expected_failures(),
            ),
            (
                report.writeback_exposure(),
                ex.writeback_exposure(),
                fm.writeback_exposure(),
            ),
        ];
        for (replayed, exact, fast) in sums {
            w.kernel_matches_replay &= replayed.to_bits() == exact.to_bits();
            if exact != 0.0 {
                w.fastmath_max_rel_err = w.fastmath_max_rel_err.max(((fast - exact) / exact).abs());
            }
        }
    }
    Ok(reports)
}
