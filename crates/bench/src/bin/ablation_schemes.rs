//! Ablation **A3**: the full design space of §IV — conventional,
//! REAP, serial tag-first (approach 1) and disruptive-restore (refs. 14, 15 of the paper) —
//! on reliability, energy and access time simultaneously.

use reap_bench::{access_budget, print_csv, run_workload};
use reap_core::ProtectionScheme;
use reap_trace::SpecWorkload;

fn main() {
    let accesses = access_budget().min(4_000_000);
    let workloads = [
        SpecWorkload::DealII,
        SpecWorkload::Mcf,
        SpecWorkload::CactusAdm,
    ];
    let mut rows = Vec::new();
    for w in workloads {
        let report = run_workload(w, accesses);
        println!("Ablation A3 — scheme comparison on {w} ({accesses} accesses)");
        println!(
            "{:<30} {:>12} {:>12} {:>14} {:>12}",
            "scheme", "MTTF gain", "energy", "access time", "bank busy"
        );
        for s in ProtectionScheme::ALL {
            let gain = report.mttf_improvement(s);
            let energy = 100.0 * report.energy_overhead(s);
            let t_ns = report.access_time(s) * 1e9;
            println!(
                "{:<30} {:>11.1}x {:>+11.2}% {:>11.3} ns {:>12}",
                s.to_string(),
                gain,
                energy,
                t_ns,
                if s.restores_after_read() {
                    "(+write)"
                } else {
                    ""
                }
            );
            rows.push(format!(
                "{},{},{:.3},{:.4},{:.4}",
                w.name(),
                s.id(),
                gain,
                energy,
                t_ns
            ));
        }
        println!();
    }
    println!(
        "Reading: serial access beats REAP's reliability (it disturbs only the \
         requested way) but pays the full serialized latency on every read; restore \
         matches serial while multiplying write energy and wear. REAP alone keeps \
         the fast parallel path."
    );
    print_csv("workload,scheme,mttf_gain,energy_pct,access_time_ns", &rows);
}
