//! Program phases and accumulation: a workload that alternates between a
//! compute phase (hammering a hot structure) and a traversal phase
//! (walking a large graph) produces bursty concealed-read accumulation —
//! lines parked during the "other" phase return with large `N`.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example phase_behavior
//! ```

use reap::cache::{Hierarchy, HierarchyConfig, Replacement};
use reap::core::ReliabilityObserver;
use reap::mtj::{read_disturbance_probability, MtjParams};
use reap::reliability::AccumulationModel;
use reap::trace::generators::{KindModel, PointerChase, StridedStream};
use reap::trace::Phased;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = KindModel::Data { read_fraction: 0.8 };
    let phase_len = 200_000;
    // Phase A: cyclic sweep over an L2-resident matrix. Phase B: pointer
    // chase over a graph that *also* fits the L2 (so A's lines survive B
    // parked in place, silently absorbing B's concealed reads). Both
    // footprints exceed the 32 KB L1, so every access reaches the L2.
    let mut workload = Phased::new(vec![
        (
            phase_len,
            Box::new(StridedStream::new(0x1000_0000, 10_000, 1, data, 1)),
        ),
        (
            phase_len,
            Box::new(PointerChase::new(0x2000_0000, 5_000, data, 2)),
        ),
    ]);

    let p_rd = read_disturbance_probability(&MtjParams::default());
    let mut h = Hierarchy::new(HierarchyConfig::paper(), Replacement::Lru);
    let (seed, bits) = (h.l2().ones_seed(), h.l2().stored_line_bits() as u32);

    println!("alternating phases of {phase_len} accesses (A: matrix sweep, B: graph walk)");
    println!();
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>14}",
        "phase", "L2 reads", "max N", "gain", "E[fail] conv"
    );
    for cycle in 0..4 {
        for (label, n) in [("A", phase_len), ("B", phase_len)] {
            let mut obs = ReliabilityObserver::new(AccumulationModel::sec(p_rd), seed, bits);
            let before = h.l2().stats().reads;
            for a in workload.by_ref().take(n) {
                h.access(a, &mut obs);
            }
            let conv = obs.conventional().expected_failures();
            let reap = obs.reap().expected_failures();
            println!(
                "{:<8} {:>12} {:>12} {:>9.1}x {:>14.3e}",
                format!("{cycle}{label}"),
                h.l2().stats().reads - before,
                obs.histogram().max_n(),
                if reap > 0.0 { conv / reap } else { 1.0 },
                conv,
            );
        }
    }
    println!();
    println!(
        "Phase A's matrix lines sit idle through phase B while the graph walk \
         hammers their sets: each phase boundary returns with a burst of \
         large-N demand reads — visible as the max-N jumps in the A rows."
    );
    Ok(())
}
