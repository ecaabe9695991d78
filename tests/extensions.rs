//! Integration tests for the beyond-the-paper extensions: scrubbing,
//! LER replacement, temperature scaling, and the trace file format.

use reap::cache::{Hierarchy, HierarchyConfig, Replacement};
use reap::core::{Experiment, ProtectionScheme, ReliabilityObserver};
use reap::mtj::temperature::at_temperature;
use reap::mtj::{read_disturbance_probability, MtjParams};
use reap::reliability::AccumulationModel;
use reap::trace::SpecWorkload;

/// Drives a hierarchy manually with an optional scrub period and returns
/// the conventional expected-failure mass (with terminal scrub).
fn run_scrubbed(period: Option<u64>, accesses: usize) -> f64 {
    let p_rd = read_disturbance_probability(&MtjParams::default());
    let mut h = Hierarchy::new(HierarchyConfig::paper(), Replacement::Lru);
    let (seed, bits) = (h.l2().ones_seed(), h.l2().stored_line_bits() as u32);
    let mut obs = ReliabilityObserver::new(AccumulationModel::sec(p_rd), seed, bits);
    let mut stream = SpecWorkload::Calculix.stream(5);
    for a in stream.by_ref().take(accesses / 10) {
        h.access(a, &mut ());
    }
    let mut since = 0u64;
    for a in stream.take(accesses) {
        h.access(a, &mut obs);
        if let Some(p) = period {
            since += 1;
            if since >= p {
                h.l2_mut().scrub(&mut obs);
                since = 0;
            }
        }
    }
    h.l2_mut().scrub(&mut obs);
    obs.conventional().expected_failures()
}

#[test]
fn scrubbing_monotonically_reduces_failures() {
    let accesses = 150_000;
    let none = run_scrubbed(None, accesses);
    let coarse = run_scrubbed(Some(50_000), accesses);
    let fine = run_scrubbed(Some(5_000), accesses);
    assert!(coarse < none, "coarse scrub {coarse} must beat none {none}");
    assert!(fine < coarse, "fine scrub {fine} must beat coarse {coarse}");
}

#[test]
fn scrubbing_never_beats_reap() {
    let accesses = 150_000;
    let fine = run_scrubbed(Some(2_000), accesses);
    // REAP from the standard pipeline on the same workload/seed/scale.
    let report = Experiment::paper_hierarchy()
        .workload(SpecWorkload::Calculix)
        .budgets(accesses as u64 / 10, accesses as u64)
        .seed(5)
        .run()
        .unwrap();
    let reap = report.expected_failures(ProtectionScheme::Reap);
    assert!(
        fine > reap * 0.9,
        "scrubbing every 2000 accesses ({fine}) cannot materially beat REAP ({reap})"
    );
}

#[test]
fn ler_reduces_conventional_failures_at_some_hit_cost() {
    let run = |policy| {
        Experiment::paper_hierarchy()
            .workload(SpecWorkload::Gcc)
            .budgets(10_000, 150_000)
            .seed(3)
            .replacement(policy)
            .run()
            .unwrap()
    };
    let lru = run(Replacement::Lru);
    let ler = run(Replacement::LeastErrorRate);
    // LER must not *increase* the conventional failure mass materially.
    assert!(
        ler.expected_failures(ProtectionScheme::Conventional)
            <= lru.expected_failures(ProtectionScheme::Conventional) * 1.5,
        "LER should bound accumulated exposure"
    );
    // And both behave sanely under REAP.
    assert!(ler.mttf_improvement(ProtectionScheme::Reap) >= 1.0);
}

#[test]
fn temperature_scaling_propagates_to_cache_failures() {
    let cold = MtjParams::default();
    let hot = at_temperature(&cold, 350.0).unwrap();
    let run = |card| {
        Experiment::paper_hierarchy()
            .workload(SpecWorkload::Povray)
            .budgets(5_000, 80_000)
            .seed(4)
            .mtj(card)
            .run()
            .unwrap()
            .expected_failures(ProtectionScheme::Conventional)
    };
    let f_cold = run(cold);
    let f_hot = run(hot);
    assert!(
        f_hot > 100.0 * f_cold,
        "50 K of heating must cost orders of magnitude: {f_cold} -> {f_hot}"
    );
}

#[test]
fn trace_files_round_trip_through_the_facade() {
    let trace: Vec<_> = SpecWorkload::Sjeng.stream(9).take(3_000).collect();
    let mut buf = Vec::new();
    reap::trace::io::write_trace(&mut buf, trace.iter().copied()).unwrap();
    let back = reap::trace::io::read_trace(&buf[..]).unwrap();
    assert_eq!(back, trace);
    // A trace replayed from file must drive the hierarchy identically to
    // the generator it came from.
    let mut h1 = Hierarchy::new(HierarchyConfig::paper(), Replacement::Lru);
    let mut h2 = Hierarchy::new(HierarchyConfig::paper(), Replacement::Lru);
    h1.run(trace, &mut ());
    h2.run(back.iter().copied(), &mut ());
    assert_eq!(h1.l2().stats(), h2.l2().stats());
}

#[test]
fn writeback_exposure_tracks_store_intensity() {
    let run = |w| {
        Experiment::paper_hierarchy()
            .workload(w)
            .budgets(5_000, 100_000)
            .seed(6)
            .run()
            .unwrap()
    };
    let write_heavy = run(SpecWorkload::Lbm);
    let read_heavy = run(SpecWorkload::CactusAdm);
    assert!(
        write_heavy.l2_stats().dirty_evictions > read_heavy.l2_stats().dirty_evictions,
        "lbm must write back more than cactusADM"
    );
}
