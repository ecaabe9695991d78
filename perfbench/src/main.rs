//! Benchmark of the REAP capture → replay pipeline.
//!
//! ```text
//! perfbench --workload <sweep_cold|explore_warm|explore_cold>
//!           [--seed N] [--seconds S] [--trace 0|1] [--accesses N]
//! ```
//!
//! Each run is a closed loop: one call of the workload's public entry
//! point at a time (`run_sweep_campaign` or `explore`), with a pool no
//! wider than the host's cores. Every call runs in a child process of
//! its own, as a user's command would, so each call's peak RSS is its
//! own. Set-up runs three times. With `--trace 0` the run then repeats
//! the call for `--seconds` with the program's telemetry off and prints
//! the end-to-end metrics; with `--trace 1` it makes one call in-process
//! with telemetry on and walks the same inputs through each layer (see
//! `walk`) for the per-layer metrics. Every call's result bits are
//! digested and checked against the committed reference for that seed
//! and budget (`reference.txt`), or, for a seed with none, against the
//! layer walk. The last line of standard output is one JSON object; the
//! exit code is non-zero when any check failed.

mod spans;
mod stats;
mod walk;
mod workload;

use reap_obs::json::Value;
use reap_obs::ProcessSample;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime};
use workload::{Fnv, Output, Params, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed calls per run, however long they take.
const MIN_REPS: usize = 3;
/// Largest pool width handed to the entry points.
const MAX_WIDTH: usize = 2;

/// Where runs keep their capture stores and span files.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What a child process is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Child {
    /// Prepare the inputs, with telemetry on, and count the work.
    Setup,
    /// One timed call, telemetry off.
    Call,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    accesses: u64,
    /// Set in a child process, with the capture store it uses.
    child: Option<(Child, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut child = None;
    let mut store = None;
    let mut args = Args {
        workload: Workload::SweepCold,
        seed: workload::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        accesses: workload::BUDGET,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--accesses" => {
                args.accesses = value.parse().map_err(|_| bad())?;
                if args.accesses < 10 {
                    return Err(bad());
                }
            }
            "--child" => {
                child = Some(match value.as_str() {
                    "setup" => Child::Setup,
                    "call" => Child::Call,
                    _ => return Err(bad()),
                })
            }
            "--store" => store = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.child = match (child, store) {
        (Some(c), Some(s)) => Some((c, s)),
        (None, None) => None,
        _ => return Err("--child and --store go together".to_owned()),
    };
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let width = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MAX_WIDTH);
    let mut params = Params {
        workload: args.workload,
        seed: args.seed,
        accesses: args.accesses,
        width,
        store_dir: out_dir().join(format!(
            "store-{}-{}",
            args.workload.name(),
            std::process::id()
        )),
    };
    if let Some((kind, store)) = &args.child {
        params.store_dir.clone_from(store);
        child(&params, *kind);
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    let code = run(&args, &params);
    workload::wipe(&params.store_dir);
    code
}

/// The child process: one entry-point call, reported as one `child`
/// JSON line. A set-up starts its exploration store from empty, runs
/// with telemetry on for the capture and L2 counts, and counts the work
/// the throughput metrics divide by; a timed call empties the store
/// first only on `explore_cold`, outside the timer.
fn child(p: &Params, kind: Child) {
    let setup = kind == Child::Setup;
    if setup {
        reap_obs::global().reset();
        reap_obs::set_enabled(true);
    }
    if setup || p.workload == Workload::ExploreCold {
        workload::wipe(&p.store_dir);
    }
    let start = Instant::now();
    let r = workload::run(p);
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss = ProcessSample::capture(Instant::now()).peak_rss_bytes;
    if let Some(e) = &r.error {
        eprintln!("perfbench: job failed: {e}");
    }
    let counter = |name: &str| reap_obs::global().counter(name).get();
    let events = counter("sim.capture.exposure_events");
    let work = match (&r.output, setup) {
        (Some(output), true) => workload::work(p, output, events).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            workload::Work::default()
        }),
        _ => workload::Work::default(),
    };
    println!(
        "child {{\"wall_s\":{wall_s},\"peak_rss\":{},\"digest\":\"{:016x}\",\"jobs\":{},\
         \"failed_jobs\":{},\"events\":{events},\"l2_accesses\":{},\"l2_misses\":{},\
         \"accesses\":{},\"point_events\":{}}}",
        peak_rss.unwrap_or(0),
        r.digest,
        r.jobs,
        r.failed_jobs,
        counter("cache.l2.reads") + counter("cache.l2.writes"),
        counter("cache.l2.misses"),
        work.accesses,
        work.point_events,
    );
}

/// What one child reported, plus its whole process time.
#[derive(Debug, Clone, Copy)]
struct Report {
    process_s: f64,
    wall_s: f64,
    peak_rss: u64,
    digest: u64,
    jobs: u64,
    failed_jobs: u64,
    events: u64,
    l2_accesses: u64,
    l2_misses: u64,
    accesses: u64,
    point_events: u64,
}

fn spawn_child(p: &Params, kind: Child) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let start = Instant::now();
    let out = Command::new(exe)
        .args(["--workload", p.workload.name()])
        .args(["--seed", &p.seed.to_string()])
        .args(["--accesses", &p.accesses.to_string()])
        .args([
            "--child",
            if kind == Child::Setup {
                "setup"
            } else {
                "call"
            },
        ])
        .arg("--store")
        .arg(&p.store_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let process_s = start.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("child "))
        .ok_or("child printed no result")?;
    let v = reap_obs::json::parse(line).map_err(|e| format!("child result: {e}"))?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("child result lacks {k}"))
    };
    let digest = v
        .get("digest")
        .and_then(Value::as_str)
        .and_then(|d| u64::from_str_radix(d, 16).ok())
        .ok_or("child result lacks digest")?;
    Ok(Report {
        process_s,
        wall_s: num("wall_s")?,
        peak_rss: num("peak_rss")? as u64,
        digest,
        jobs: num("jobs")? as u64,
        failed_jobs: num("failed_jobs")? as u64,
        events: num("events")? as u64,
        l2_accesses: num("l2_accesses")? as u64,
        l2_misses: num("l2_misses")? as u64,
        accesses: num("accesses")? as u64,
        point_events: num("point_events")? as u64,
    })
}

/// Jobs attempted and failed, plus failed output checks.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn jobs(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn expect(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Counts a child's jobs and checks its digest against `digest`.
    fn child(&mut self, report: &Result<Report, String>, digest: u64) {
        match report {
            Ok(r) => {
                self.jobs(r.jobs, r.failed_jobs);
                self.expect(r.digest == digest, "a call's result digest differs");
            }
            Err(e) => {
                self.jobs(1, 1);
                eprintln!("perfbench: {e}");
            }
        }
    }
}

/// The metrics of one run, in print order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run(args: &Args, p: &Params) -> ExitCode {
    println!("provenance {}", provenance(p, args.trace));
    let mut checks = Checks::default();
    let setups: Vec<Result<Report, String>> = (0..if args.trace { 1 } else { SETUPS })
        .map(|_| spawn_child(p, Child::Setup))
        .collect();
    let Some(setup) = setups.iter().find_map(|s| s.as_ref().ok()).copied() else {
        checks.child(&setups[0], 0);
        return finish(&checks, &[]);
    };
    for s in &setups {
        checks.child(s, setup.digest);
    }
    println!(
        "digest {} {} {} {:016x}",
        p.workload.name(),
        p.seed,
        p.accesses,
        setup.digest
    );
    let reference = workload::reference_digest(p.workload, p.seed, p.accesses);
    if let Some(d) = reference {
        checks.expect(
            d == setup.digest,
            "result digest differs from the committed reference",
        );
    }

    // The timed loop: one call at a time, each in its own process.
    let mut calls = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    while calls.len() < MIN_REPS || Instant::now() < deadline {
        let listing = store_listing(&p.store_dir);
        let call = spawn_child(p, Child::Call);
        checks.child(&call, setup.digest);
        if p.workload == Workload::ExploreWarm {
            // A store miss recaptures and writes a new entry.
            checks.expect(
                store_listing(&p.store_dir) == listing,
                "explore_warm missed the capture store",
            );
        }
        calls.extend(call);
    }
    if calls.is_empty() {
        return finish(&checks, &[]);
    }
    let walls: Vec<f64> = calls.iter().map(|c| c.wall_s).collect();

    let metrics = if args.trace {
        traced(p, &setup, &walls, reference.is_some(), &mut checks)
    } else {
        if reference.is_none() {
            // No committed digest for this seed and budget: rebuild the
            // result from the layers instead.
            let (output, _) = call_in_process(p, &setup, &mut checks);
            if let Some(output) = output {
                walk_checked(p, &output, &setup, &mut checks);
            }
        }
        let setup_s: Vec<f64> = setups.iter().flatten().map(|s| s.process_s).collect();
        let rss: Vec<f64> = calls.iter().map(|c| c.peak_rss as f64).collect();
        let wall = stats::median(&walls);
        print_timing("wall_s", &walls);
        print_timing("setup_s", &setup_s);
        println!(
            "error_rate {} ({} failed of {} attempted)",
            checks.failed as f64 / checks.attempted.max(1) as f64,
            checks.failed,
            checks.attempted
        );
        vec![
            ("wall_s", wall, "s"),
            ("setup_s", stats::median(&setup_s), "s"),
            // A call's peak depends on which captures its two workers
            // hold at once, so per-call peaks cluster in a few modes;
            // their mean is steadier than a median that can jump
            // between modes.
            (
                "peak_rss_mb",
                rss.iter().sum::<f64>() / rss.len() as f64 / 1e6,
                "MB",
            ),
            ("accesses_per_s", setup.accesses as f64 / wall, "1/s"),
            (
                "point_events_per_s",
                setup.point_events as f64 / wall,
                "1/s",
            ),
        ]
    };
    finish(&checks, &metrics)
}

/// One entry-point call in this process, checked against the set-up
/// digest; returns its rows and wall time.
fn call_in_process(p: &Params, setup: &Report, checks: &mut Checks) -> (Option<Output>, f64) {
    if p.workload == Workload::ExploreCold {
        workload::wipe(&p.store_dir);
    }
    let start = Instant::now();
    let r = workload::run(p);
    let wall = start.elapsed().as_secs_f64();
    if let Some(e) = &r.error {
        eprintln!("perfbench: job failed: {e}");
    }
    checks.jobs(r.jobs, r.failed_jobs);
    checks.expect(r.digest == setup.digest, "a call's result digest differs");
    (r.output, wall)
}

/// Walks `output`'s jobs layer by layer and checks that the walk
/// reproduces the call's digest, capture-event count and L2 counts.
fn walk_checked(
    p: &Params,
    output: &Output,
    setup: &Report,
    checks: &mut Checks,
) -> Option<walk::Walk> {
    let walk_dir = out_dir().join(format!("walk-{}-{}", p.workload.name(), std::process::id()));
    let jobs = workload::walk_jobs(p, output);
    let walked = walk::walk(p.workload, p.seed, &jobs, &walk_dir);
    workload::wipe(&walk_dir);
    let w = match walked {
        Ok(w) => w,
        Err(e) => {
            checks.expect(false, &format!("layer walk failed: {e}"));
            return None;
        }
    };
    let digest = workload::digest_from_reports(p.workload, &jobs, &w.reports);
    checks.expect(
        digest == setup.digest,
        "the layer walk does not reproduce the result digest",
    );
    checks.expect(
        w.kernel_matches_replay,
        "the walk's kernel sums differ from replay_batch",
    );
    checks.expect(
        w.events == setup.events,
        "the walk captured a different number of events",
    );
    checks.expect(
        w.l2_accesses == setup.l2_accesses && w.l2_misses == setup.l2_misses,
        "the walk's L2 counts differ from the entry point's",
    );
    println!(
        "layer walk: digest {digest:016x}, {} events, {} jobs",
        w.events,
        jobs.len()
    );
    Some(w)
}

fn print_timing(name: &str, samples: &[f64]) {
    let [q1, q2, q3] = stats::quartiles(samples);
    let tail = stats::tail_percentile(samples)
        .map_or("none under 20 samples".to_owned(), |(p, v)| {
            format!("p{p} {v}")
        });
    println!(
        "{name} median {q2} s, quartiles {q1} .. {q3}, tail {tail}, n={}",
        samples.len()
    );
}

/// One traced call plus the layer walk: the per-layer metrics.
fn traced(
    p: &Params,
    setup: &Report,
    walls: &[f64],
    has_reference: bool,
    checks: &mut Checks,
) -> Metrics {
    let registry = reap_obs::global();
    registry.reset();
    reap_obs::set_enabled(true);
    let cpu_before = ProcessSample::capture(Instant::now()).cpu_s;
    let (output, traced_wall) = call_in_process(p, setup, checks);
    let cpu_after = ProcessSample::capture(Instant::now()).cpu_s;
    reap_obs::set_enabled(false);
    let snap = registry.snapshot();

    let busy_s: f64 = snap
        .gauges
        .iter()
        .filter(|(n, _)| n.contains(".worker.") && n.ends_with(".busy_s"))
        .map(|(_, v)| v)
        .sum();
    let jobs: u64 = snap
        .counters
        .iter()
        .filter(|(n, _)| n.contains(".worker.") && n.ends_with(".jobs"))
        .map(|(_, v)| v)
        .sum();
    let job_s: Vec<f64> = snap
        .spans
        .iter()
        .filter(|s| s.name.ends_with(".job"))
        .map(reap_obs::SpanRecord::wall_seconds)
        .collect();
    let counter = |name: &str| registry.counter(name).get();
    let (hits, misses) = (counter("capture_store.hit"), counter("capture_store.miss"));
    if p.workload == Workload::ExploreWarm {
        checks.expect(misses == 0, "explore_warm missed the capture store");
    }

    let Some(w) = output.and_then(|o| walk_checked(p, &o, setup, checks)) else {
        return Vec::new();
    };
    if !has_reference {
        println!("no committed reference for this seed and budget");
    }
    let spans_path = out_dir().join(format!("spans-{}-{}.jsonl", p.workload.name(), p.seed));
    match w.tracer.write_jsonl(&spans_path) {
        Ok(()) => println!("spans written to {}", spans_path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", spans_path.display()),
    }

    let ns = |name: &str| w.tracer.total_ns(name) as f64;
    let per = |x: f64, n: u64| x / n.max(1) as f64;
    let accesses = w.accesses;
    let events = w.events;
    vec![
        (
            "trace.ns_per_access",
            per(ns("trace"), accesses),
            "ns/access",
        ),
        (
            "cache.hierarchy.ns_per_access",
            per(ns("hierarchy"), accesses),
            "ns/access",
        ),
        (
            "capture.observer.ns_per_access",
            per(ns("capture_hierarchy") - ns("hierarchy"), accesses),
            "ns/access",
        ),
        (
            "capture.rss_bytes_per_event",
            per(w.capture_bytes as f64, events),
            "B/event",
        ),
        (
            "store.encode.ns_per_event",
            per(ns("encode"), events),
            "ns/event",
        ),
        (
            "store.write.ns_per_event",
            per(ns("store_write"), events),
            "ns/event",
        ),
        (
            "store.bytes_per_event",
            per(w.encoded_bytes as f64, events),
            "B/event",
        ),
        (
            "store.load.ns_per_event",
            per(ns("store_load"), w.loaded_events),
            "ns/event",
        ),
        ("store.hit_ratio", per(hits as f64, hits + misses), "ratio"),
        (
            "resample.ns_per_event",
            per(ns("resample"), w.replayed_events),
            "ns/event",
        ),
        (
            "kernel.ns_per_point_event",
            per(ns("kernel"), w.point_events),
            "ns/pt-event",
        ),
        (
            "kernel.fastmath.ns_per_point_event",
            per(ns("kernel_fastmath"), w.point_events),
            "ns/pt-event",
        ),
        (
            "kernel.fastmath.max_rel_err",
            w.fastmath_max_rel_err,
            "ratio",
        ),
        (
            "replay.ns_per_point_event",
            per(ns("replay_batch"), w.point_events),
            "ns/pt-event",
        ),
        ("engine.jobs", jobs as f64, "count"),
        (
            "engine.core_utilization",
            busy_s / (traced_wall * p.width as f64),
            "ratio",
        ),
        (
            "engine.job_max_over_median",
            if job_s.is_empty() {
                0.0
            } else {
                job_s.iter().copied().fold(0.0, f64::max) / stats::median(&job_s)
            },
            "ratio",
        ),
        ("cache.l2.accesses", w.l2_accesses as f64, "count"),
        ("cache.l2.misses", w.l2_misses as f64, "count"),
        ("capture.events", events as f64, "count"),
        (
            "process.cpu_s",
            match (cpu_before, cpu_after) {
                (Some(a), Some(b)) => b - a,
                _ => 0.0,
            },
            "s",
        ),
        (
            "attribution.unattributed_frac",
            if busy_s > 0.0 {
                1.0 - w.path_ns as f64 / 1e9 / busy_s
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "tracing.overhead_frac",
            traced_wall / stats::median(walls) - 1.0,
            "ratio",
        ),
    ]
}

/// Names, sizes and modification times of the files in `dir`, sorted.
fn store_listing(dir: &Path) -> Vec<(String, u64, Option<SystemTime>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let meta = e.metadata().ok()?;
            Some((
                e.file_name().to_string_lossy().into_owned(),
                meta.len(),
                meta.modified().ok(),
            ))
        })
        .collect();
    files.sort();
    files
}

/// Prints every metric line and the closing JSON object.
fn finish(checks: &Checks, metrics: &[(&'static str, f64, &'static str)]) -> ExitCode {
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        println!("metric {name} {value} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = checks.failed == 0 && !metrics.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        checks.attempted.max(1),
        checks.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where and how the run was made.
fn provenance(p: &Params, trace: bool) -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git_rev = if repo.join(".git").exists() {
        Command::new("git")
            .arg("-C")
            .arg(&repo)
            .args(["rev-parse", "HEAD"])
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    } else {
        None
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"workload\":\"{}\",\"git_rev\":\"{}\",\"source_fnv\":\"{:016x}\",\"rustc\":\"{}\",\
         \"nproc\":{nproc},\"pool_width\":{},\"budget\":{},\"seed\":{},\"kernel_mode\":\"exact\",\
         \"trace\":{}}}",
        p.workload.name(),
        git_rev.as_deref().unwrap_or("none"),
        source_digest(&repo),
        env!("PERFBENCH_RUSTC"),
        p.width,
        p.accesses,
        p.seed,
        u8::from(trace),
    )
}

/// FNV-1a over the paths and bytes of the program's sources (`crates/`
/// and the root manifest and lock file), so a result names the code it
/// measured even in a checkout without git metadata.
fn source_digest(repo: &Path) -> u64 {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![repo.join("Cargo.toml"), repo.join("Cargo.lock")];
    collect(&repo.join("crates"), &mut files);
    files.sort();
    files
        .iter()
        .fold(Fnv::new(), |h, f| {
            let rel = f.strip_prefix(repo).unwrap_or(f);
            h.bytes(rel.to_string_lossy().as_bytes())
                .bytes(&std::fs::read(f).unwrap_or_default())
        })
        .0
}
