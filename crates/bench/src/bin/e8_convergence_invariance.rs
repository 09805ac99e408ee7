//! **E8 (§1, §3.2.1)** — convergence invariance.
//!
//! The paper's second headline property: batch-level parallelization
//! changes no training parameter, so the loss trajectory matches the
//! sequential run. With the paper's `Ordered` reduction (one slot per
//! thread) the run is reproducible per thread count and close across them;
//! with our stronger `Canonical` reduction the losses and the final
//! parameters are **bitwise identical across thread counts**. This is real
//! training (measured), not simulation.

use cgdnn::invariance::check_loss_invariance;
use cgdnn_bench::banner;
use datasets::SyntheticMnist;
use layers::ReductionMode;
use solvers::SolverConfig;

fn main() {
    banner(
        "E8",
        "convergence invariance of batch-level parallel SGD (measured)",
    );
    let spec = cgdnn::nets::lenet_spec();
    let iters = 4;
    for (label, mode) in [
        ("Ordered (the paper's mode)", ReductionMode::Ordered),
        (
            "Canonical-16 (our strict mode)",
            ReductionMode::Canonical { groups: 16 },
        ),
    ] {
        let report = check_loss_invariance::<f32>(
            &spec,
            || Box::new(SyntheticMnist::new(256, 7)),
            &SolverConfig::lenet(),
            mode,
            &[2, 4],
            iters,
        );
        println!("{label}:");
        println!(
            "  reference (1-thread) loss trajectory: {:?}",
            report.reference
        );
        let per_t = report.max_deviation.iter().zip(&report.params_equal);
        for (t, (d, p)) in report.thread_counts.iter().zip(per_t) {
            println!(
                "  vs {t} threads: max |loss delta| = {d:.3e}, final parameters bitwise equal: {p}"
            );
        }
        println!(
            "  losses and final parameters bitwise equal at every T: {}\n",
            report.bitwise_invariant()
        );
    }
    println!(
        "expected: Canonical is exactly invariant (losses and parameters);\n\
         Ordered sums in one group per thread, so T threads move the low\n\
         bits (loss delta ~1e-7), matching the paper's claim that the\n\
         ordered update preserves the sequential loss evolution."
    );
}
