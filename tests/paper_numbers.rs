//! The paper's published numbers, asserted end to end.

use reap::core::analysis::NumericExample;
use reap::mtj::{read_disturbance_probability, MtjParams};
use reap::reliability::uncorrectable_probability;

#[test]
fn table_one_configuration() {
    let c = reap::cache::HierarchyConfig::paper();
    assert_eq!(c.l1i.size_bytes(), 32 * 1024);
    assert_eq!(c.l1i.associativity(), 4);
    assert_eq!(c.l1i.block_bytes(), 64);
    assert_eq!(c.l1d.size_bytes(), 32 * 1024);
    assert_eq!(c.l1d.associativity(), 4);
    assert_eq!(c.l2.size_bytes(), 1024 * 1024);
    assert_eq!(c.l2.associativity(), 8);
    assert_eq!(c.l2.block_bytes(), 64);
}

#[test]
fn equation_four_of_the_paper() {
    // P_err = 1 - ((1-1e-8)^100 + 100*1e-8*(1-1e-8)^99) ≈ 5e-13.
    let p = uncorrectable_probability(100, 1e-8, 1);
    assert!((4.7e-13..5.2e-13).contains(&p), "Eq. (4): {p}");
}

#[test]
fn equation_five_of_the_paper() {
    // 50 concealed reads: ≈ 1.3e-9 (paper's rounding of 1.25e-9).
    let p = uncorrectable_probability(100 * 50, 1e-8, 1);
    assert!((1.2e-9..1.3e-9).contains(&p), "Eq. (5): {p}");
}

#[test]
fn section_four_reap_number() {
    // "the probability of uncorrectable error is 2.6e-11, which is 50x
    // lower than that of conventional cache" (paper rounds 2.475e-11 up).
    let ex = NumericExample::compute();
    assert!(
        (2.3e-11..2.7e-11).contains(&ex.p_err_reap),
        "{}",
        ex.p_err_reap
    );
    let ratio = ex.p_err_accumulated / ex.p_err_reap;
    assert!((49.0..51.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn three_orders_of_magnitude_claim() {
    // §III-B: "only 50 concealed read increases the probability ... by
    // more than 3 orders of magnitude".
    let single = uncorrectable_probability(100, 1e-8, 1);
    let acc = uncorrectable_probability(5_000, 1e-8, 1);
    assert!(acc / single > 1_000.0);
}

#[test]
fn default_mtj_card_sits_at_the_paper_operating_point() {
    // The running example uses P_rd-cell ≈ 1e-8; our calibrated card
    // lands at 1.5e-8 (Δ = 60, I/Ic0 = 0.7, t = τ = 1 ns).
    let p = read_disturbance_probability(&MtjParams::default());
    assert!((1e-8..2e-8).contains(&p), "P_rd = {p}");
}

#[test]
fn concealed_read_tail_grows_with_the_window() {
    // §III: "the number of concealed reads in cache lines can be even
    // higher than 1e5 in some workloads". The tail length is set by the
    // measurement window (the paper ran one billion instructions); the
    // full-scale demonstration lives in the `fig3`/`fig5` regenerators and
    // is recorded in EXPERIMENTS.md. At integration-test scale we assert
    // the mechanism: the maximum accumulation N grows with the window.
    use reap::core::Experiment;
    use reap::trace::SpecWorkload;

    let run = |measure| {
        Experiment::paper_hierarchy()
            .workload(SpecWorkload::H264ref)
            .budgets(2_000, measure)
            .seed(1)
            .run()
            .unwrap()
            .histogram()
            .max_n()
    };
    let small = run(30_000);
    let large = run(600_000);
    assert!(large >= 2 * small, "max N: {small} -> {large}");
    assert!(
        large >= 64,
        "even the test-scale window accumulates dozens of reads"
    );
}

#[test]
fn serial_tag_first_is_at_least_as_reliable_as_reap_which_beats_conventional() {
    // Ablation A3's ordering at a reduced budget. Serial tag-first reads
    // only the requested way, so no other line is disturbed; REAP reads
    // and checks all k ways, so each read still costs the k−1 other
    // lines one checked exposure each. The ordering holds at any budget;
    // the ratios (serial 2.7–6.7× REAP at 4M accesses) do not.
    use reap::core::{Experiment, ProtectionScheme};
    use reap::trace::SpecWorkload;

    for workload in [
        SpecWorkload::DealII,
        SpecWorkload::Mcf,
        SpecWorkload::CactusAdm,
    ] {
        let report = Experiment::paper_hierarchy()
            .workload(workload)
            .budgets(2_000, 100_000)
            .seed(2019)
            .run()
            .unwrap();
        let gain = |scheme| report.mttf_improvement(scheme);
        let (conventional, reap, serial) = (
            gain(ProtectionScheme::Conventional),
            gain(ProtectionScheme::Reap),
            gain(ProtectionScheme::SerialTagFirst),
        );
        assert!(
            serial >= reap && reap > conventional,
            "{workload}: serial {serial}, REAP {reap}, conventional {conventional}"
        );
    }
}
