//! The three workloads, the public entry point each one calls, and the
//! digest of result bits every run is checked by.

use reap_cache::HierarchyConfig;
use reap_core::campaign::{run_sweep_campaign, CampaignConfig, SweepMode};
use reap_core::explore::{explore, front_of, parse_grid, ExploreConfig, DEFAULT_WORKLOADS};
use reap_core::{
    CaptureKey, CapturePolicy, CaptureStore, EccStrength, Experiment, ExploreRow, ProtectionScheme,
    Report, SimulationConfig, SweepRow,
};
use reap_mtj::MtjParams;
use reap_nvarray::{estimate, ArraySpec, MemTech, TechnologyNode};
use reap_trace::SpecWorkload;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Measured accesses per simulated workload profile (warm-up adds a
/// tenth). Sized so one `sweep_cold` job takes under two seconds on a
/// two-core host and a run repeats it several times.
pub const BUDGET: u64 = 500_000;

/// The trace seed when none is given (the paper-figure binaries' seed).
pub const DEFAULT_SEED: u64 = 2019;

/// `explore_warm`: one behavioural combo (the paper geometry) scored at
/// 93 analysis points, so batched replay dominates.
const WARM_GRID: &str = "ecc=sec,dec,tec read-current=0.7:1.0:0.01";

/// `explore_cold`: six behavioural combos (three L2 geometries, with and
/// without scrubbing) at four analysis points, refined around the front.
const COLD_GRID: &str = "ways=4,8,16 scrub=0,50k ecc=sec,tec";

/// Committed digests: `workload seed accesses digest` per line.
const REFERENCE: &str = include_str!("../reference.txt");

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_sweep_campaign` in ECC-sweep mode over all 21 profiles, no
    /// capture store: every job captures, so trace, cache and capture
    /// layers dominate.
    SweepCold,
    /// `explore()` over [`WARM_GRID`] with the store filled in set-up:
    /// store loads plus batched replay, no capture.
    ExploreWarm,
    /// `explore()` over [`COLD_GRID`] with refinement, from an empty
    /// read-write store each time: capture plus the store's write path.
    ExploreCold,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::SweepCold,
        Workload::ExploreWarm,
        Workload::ExploreCold,
    ];

    /// The name the command line and the reference file use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::ExploreWarm => "explore_warm",
            Workload::ExploreCold => "explore_cold",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the entry point reads or writes a capture store.
    pub fn uses_store(self) -> bool {
        self != Workload::SweepCold
    }
}

/// The inputs of one entry-point call.
#[derive(Debug, Clone)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// SPEC-profile trace seed.
    pub seed: u64,
    /// Measured accesses per profile.
    pub accesses: u64,
    /// Pool width handed to the entry point.
    pub width: usize,
    /// Capture-store directory (explore workloads).
    pub store_dir: PathBuf,
}

/// What the entry point returned.
#[derive(Debug)]
pub enum Output {
    /// Per-profile rows of a sweep, in canonical profile order.
    Sweep(Vec<(SpecWorkload, Vec<SweepRow>)>),
    /// Scored rows of an exploration, in canonical order.
    Explore(Vec<ExploreRow>),
}

/// One entry-point call's result.
#[derive(Debug)]
pub struct RunResult {
    /// The returned rows; `None` when the call itself failed.
    pub output: Option<Output>,
    /// Jobs the entry point ran (profiles for a sweep, behavioural
    /// combos for an exploration).
    pub jobs: u64,
    /// Jobs that failed.
    pub failed_jobs: u64,
    /// Digest of the result bits (0 when the call failed).
    pub digest: u64,
    /// Why the call or some of its jobs failed.
    pub error: Option<String>,
}

/// Calls the workload's public entry point once.
pub fn run(p: &Params) -> RunResult {
    match p.workload {
        Workload::SweepCold => {
            let config = CampaignConfig::new(p.accesses, p.seed, SweepMode::EccSweep, p.width);
            match run_sweep_campaign(&config) {
                Ok(outcome) => {
                    let mut rows = Vec::new();
                    let mut error = None;
                    for o in outcome.outcomes {
                        match o.result {
                            Ok(r) => rows.push((o.workload, r)),
                            Err(e) => error = Some(format!("{}: {e}", o.workload)),
                        }
                    }
                    RunResult {
                        jobs: SpecWorkload::ALL.len() as u64,
                        failed_jobs: outcome.failed as u64,
                        digest: sweep_digest(&rows),
                        output: Some(Output::Sweep(rows)),
                        error,
                    }
                }
                Err(e) => failed_call(SpecWorkload::ALL.len() as u64, e.to_string()),
            }
        }
        Workload::ExploreWarm | Workload::ExploreCold => {
            let grid = if p.workload == Workload::ExploreWarm {
                WARM_GRID
            } else {
                COLD_GRID
            };
            let grid = parse_grid(grid).expect("benchmark grids parse");
            let base_jobs = grid.behavioural_combos().len() as u64;
            let mut config = ExploreConfig::new(grid, p.accesses, p.seed, p.width);
            config.refine = p.workload == Workload::ExploreCold;
            config.capture_store = Some(CaptureStore::new(
                p.store_dir.clone(),
                CapturePolicy::ReadWrite,
            ));
            match explore(&config) {
                Ok(outcome) => RunResult {
                    jobs: explore_jobs(&outcome.rows).len() as u64,
                    failed_jobs: 0,
                    digest: explore_digest(&outcome.rows, &outcome.front),
                    output: Some(Output::Explore(outcome.rows)),
                    error: None,
                },
                Err(e) => failed_call(base_jobs, e.to_string()),
            }
        }
    }
}

fn failed_call(jobs: u64, error: String) -> RunResult {
    RunResult {
        output: None,
        jobs,
        failed_jobs: jobs,
        digest: 0,
        error: Some(error),
    }
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    /// The empty hash.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in `bytes`.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }
}

/// Digest of a sweep: every profile's rows, each row's ECC strength and
/// the bits of its expected conventional failures, MTTF gain (the ratio
/// to expected REAP failures), energy overhead, L2 hit rate and maximum
/// read count.
pub fn sweep_digest(rows: &[(SpecWorkload, Vec<SweepRow>)]) -> u64 {
    let mut h = Fnv::new();
    for (workload, rows) in rows {
        h = h.bytes(workload.name().as_bytes()).u64(rows.len() as u64);
        for r in rows {
            h = h
                .u64(r.ecc.map_or(0, |e| e.t() as u64))
                .f64(r.efail_conv)
                .f64(r.mttf_gain)
                .f64(r.energy_overhead)
                .f64(r.l2_hit_rate)
                .u64(r.max_n);
        }
    }
    h.0
}

/// Digest of an exploration: every row's point, MTTF, energy and area
/// bits, then the Pareto front.
pub fn explore_digest(rows: &[ExploreRow], front: &[usize]) -> u64 {
    let mut h = Fnv::new().u64(rows.len() as u64);
    for r in rows {
        h = h
            .u64(r.ways as u64)
            .u64(r.scrub)
            .u64(r.ecc.t() as u64)
            .f64(r.read_scale)
            .f64(r.mttf_s)
            .f64(r.energy_j)
            .f64(r.area_mm2)
            .u64(u64::from(r.refined));
    }
    h = h.u64(front.len() as u64);
    for &i in front {
        h = h.u64(i as u64);
    }
    h.0
}

/// The committed digest for `(workload, seed, accesses)`, if any.
pub fn reference_digest(workload: Workload, seed: u64, accesses: u64) -> Option<u64> {
    REFERENCE.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [w, s, a, d]
                if *w == workload.name() && s.parse() == Ok(seed) && a.parse() == Ok(accesses) =>
            {
                u64::from_str_radix(d, 16).ok()
            }
            _ => None,
        }
    })
}

/// One job of the entry point, as the layer walk replays it: the
/// profiles it folds and one simulation config per analysis point.
#[derive(Debug, Clone)]
pub struct WalkJob {
    /// Profiles captured and replayed, in fold order.
    pub profiles: Vec<SpecWorkload>,
    /// One config per analysis point; all share the behavioural part.
    pub configs: Vec<SimulationConfig>,
    /// Explore only: `(ecc, read_scale)` per point.
    pub points: Vec<(EccStrength, f64)>,
    /// Explore only: the job's L2 associativity.
    pub ways: usize,
    /// Explore only: whether the job is a refinement job.
    pub refined: bool,
}

/// `(ways, scrub, refined)` of each explore job, in the order `explore`
/// runs them (base combos, then refinement), with its points.
fn explore_jobs(rows: &[ExploreRow]) -> BTreeMap<(bool, usize, u64), Vec<(EccStrength, f64)>> {
    let mut jobs: BTreeMap<(bool, usize, u64), Vec<(EccStrength, f64)>> = BTreeMap::new();
    for r in rows {
        jobs.entry((r.refined, r.ways, r.scrub))
            .or_default()
            .push((r.ecc, r.read_scale));
    }
    jobs
}

/// The simulation config `explore` scores one design point with.
///
/// # Panics
///
/// Panics on a geometry or read current the benchmark grids never hold.
pub fn explore_point_config(
    ways: usize,
    scrub: u64,
    ecc: EccStrength,
    scale: f64,
    accesses: u64,
) -> SimulationConfig {
    let card = MtjParams::default();
    SimulationConfig {
        hierarchy: HierarchyConfig::paper_with_l2_ways(ways).expect("grid geometry is valid"),
        ecc,
        mtj: card
            .with_read_current(scale * card.read_current())
            .expect("grid read current is valid"),
        warmup_accesses: accesses / 10,
        measure_accesses: accesses,
        scrub_period: scrub,
        ..SimulationConfig::default()
    }
}

/// The jobs the entry point ran to produce `output`.
pub fn walk_jobs(p: &Params, output: &Output) -> Vec<WalkJob> {
    match output {
        Output::Sweep(rows) => rows
            .iter()
            .map(|(w, _)| {
                let base = Experiment::paper_hierarchy().accesses(p.accesses);
                WalkJob {
                    profiles: vec![*w],
                    configs: EccStrength::ALL
                        .into_iter()
                        .map(|ecc| SimulationConfig {
                            ecc,
                            ..base.config().clone()
                        })
                        .collect(),
                    points: EccStrength::ALL.into_iter().map(|e| (e, 1.0)).collect(),
                    ways: base.config().hierarchy.l2.associativity(),
                    refined: false,
                }
            })
            .collect(),
        Output::Explore(rows) => explore_jobs(rows)
            .into_iter()
            .map(|((refined, ways, scrub), points)| WalkJob {
                profiles: DEFAULT_WORKLOADS.to_vec(),
                configs: points
                    .iter()
                    .map(|&(ecc, scale)| explore_point_config(ways, scrub, ecc, scale, p.accesses))
                    .collect(),
                points,
                ways,
                refined,
            })
            .collect(),
    }
}

/// The digest the entry point should have produced, rebuilt from the
/// layer walk's reports (`reports[job][profile][point]`), folded the way
/// each entry point folds them.
pub fn digest_from_reports(
    workload: Workload,
    jobs: &[WalkJob],
    reports: &[Vec<Vec<Report>>],
) -> u64 {
    if workload == Workload::SweepCold {
        let rows: Vec<(SpecWorkload, Vec<SweepRow>)> = jobs
            .iter()
            .zip(reports)
            .map(|(job, per_profile)| {
                let rows = job
                    .points
                    .iter()
                    .zip(&per_profile[0])
                    .map(|(&(ecc, _), report)| SweepRow::from_report(Some(ecc), report))
                    .collect();
                (job.profiles[0], rows)
            })
            .collect();
        return sweep_digest(&rows);
    }
    let mut rows = Vec::new();
    for (job, per_profile) in jobs.iter().zip(reports) {
        // Σ duration / Σ expected REAP failures, summed in profile order.
        let mut duration = 0.0f64;
        let mut fail = vec![0.0f64; job.points.len()];
        let mut energy = vec![0.0f64; job.points.len()];
        for point_reports in per_profile {
            duration += point_reports[0].duration_seconds();
            for (i, report) in point_reports.iter().enumerate() {
                fail[i] += report.expected_failures(ProtectionScheme::Reap);
                energy[i] += report.energy(ProtectionScheme::Reap).total();
            }
        }
        for (i, (&(ecc, scale), config)) in job.points.iter().zip(&job.configs).enumerate() {
            rows.push(ExploreRow {
                ways: job.ways,
                scrub: config.scrub_period,
                ecc,
                read_scale: scale,
                mttf_s: duration / fail[i],
                energy_j: energy[i],
                area_mm2: l2_area_mm2(config),
                refined: job.refined,
            });
        }
    }
    rows.sort_unstable_by(|a, b| {
        (a.ways, a.scrub, a.ecc.t())
            .cmp(&(b.ways, b.scrub, b.ecc.t()))
            .then(a.read_scale.total_cmp(&b.read_scale))
    });
    let front = front_of(&rows);
    explore_digest(&rows, &front)
}

/// L2 die area at `config`'s geometry and check-bit count, from the
/// array model.
fn l2_area_mm2(config: &SimulationConfig) -> f64 {
    let l2 = &config.hierarchy.l2;
    let check_bits = config
        .ecc
        .build_code(l2.line_bits())
        .expect("benchmark ECC builds")
        .check_bits();
    let spec = ArraySpec::new(l2.size_bytes(), l2.block_bytes(), l2.associativity())
        .expect("benchmark geometry is valid")
        .with_check_bits(check_bits);
    let node = TechnologyNode::nm(config.tech_nm).expect("benchmark node is valid");
    estimate(&spec, MemTech::SttMram, node).area_mm2()
}

/// The simulated work behind one entry-point call's output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Warm-up plus measured accesses the output covers.
    pub accesses: u64,
    /// Exposure events × analysis points scored.
    pub point_events: u64,
}

/// Counts the work behind `output`. `capture_events` is the sweep's
/// total exposure-event count (its captures are never stored); the
/// explore workloads read each capture's event count from the store.
///
/// # Errors
///
/// Names the capture missing from the store.
pub fn work(p: &Params, output: &Output, capture_events: u64) -> Result<Work, String> {
    let per_profile = p.accesses + p.accesses / 10;
    match output {
        Output::Sweep(rows) => Ok(Work {
            accesses: rows.len() as u64 * per_profile,
            point_events: capture_events * EccStrength::ALL.len() as u64,
        }),
        Output::Explore(rows) => {
            let store = CaptureStore::new(p.store_dir.clone(), CapturePolicy::Read);
            let mut combo_events: BTreeMap<(usize, u64), u64> = BTreeMap::new();
            let mut point_events = 0u64;
            for r in rows {
                let events = match combo_events.entry((r.ways, r.scrub)) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let config = explore_point_config(r.ways, r.scrub, r.ecc, 1.0, p.accesses);
                        let mut events = 0;
                        for w in DEFAULT_WORKLOADS {
                            let key = CaptureKey::new(w, p.seed, &config);
                            events += store
                                .load(&key)
                                .ok_or_else(|| {
                                    format!(
                                        "no stored capture for {w} at ways={} scrub={}",
                                        r.ways, r.scrub
                                    )
                                })?
                                .event_count();
                        }
                        *e.insert(events)
                    }
                };
                point_events += events;
            }
            Ok(Work {
                accesses: combo_events.len() as u64 * DEFAULT_WORKLOADS.len() as u64 * per_profile,
                point_events,
            })
        }
    }
}

/// Removes a capture-store directory (missing is fine).
pub fn wipe(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(workload: Workload, width: usize, tag: &str) -> Params {
        Params {
            workload,
            seed: 7,
            accesses: 4_000,
            width,
            store_dir: crate::out_dir().join(format!("test-{tag}-{}", std::process::id())),
        }
    }

    #[test]
    fn digest_is_stable_across_pool_widths() {
        for workload in [Workload::SweepCold, Workload::ExploreCold] {
            let one = params(workload, 1, &format!("{}-j1", workload.name()));
            let two = params(workload, 2, &format!("{}-j2", workload.name()));
            wipe(&one.store_dir);
            wipe(&two.store_dir);
            let a = run(&one);
            let b = run(&two);
            wipe(&one.store_dir);
            wipe(&two.store_dir);
            assert!(
                a.error.is_none() && b.error.is_none(),
                "{:?} {:?}",
                a.error,
                b.error
            );
            assert_ne!(a.digest, 0);
            assert_eq!(
                a.digest,
                b.digest,
                "{} digest differs between -j 1 and -j 2",
                workload.name()
            );
        }
    }

    #[test]
    fn digest_sees_every_result_bit() {
        let row = SweepRow {
            ecc: Some(EccStrength::Sec),
            mttf_gain: 2.0,
            energy_overhead: 0.1,
            l2_hit_rate: 0.5,
            efail_conv: 1e-9,
            max_n: 7,
        };
        let base = sweep_digest(&[(SpecWorkload::Mcf, vec![row])]);
        let nudged = SweepRow {
            efail_conv: f64::from_bits(row.efail_conv.to_bits() + 1),
            ..row
        };
        assert_ne!(base, sweep_digest(&[(SpecWorkload::Mcf, vec![nudged])]));
        assert_ne!(base, sweep_digest(&[(SpecWorkload::Gcc, vec![row])]));
    }

    #[test]
    fn reference_covers_the_default_seed_of_every_workload() {
        for w in Workload::ALL {
            assert!(
                reference_digest(w, DEFAULT_SEED, BUDGET).is_some(),
                "no reference for {} at seed {DEFAULT_SEED}",
                w.name()
            );
        }
        assert_eq!(
            reference_digest(Workload::SweepCold, DEFAULT_SEED, BUDGET + 1),
            None
        );
    }
}
