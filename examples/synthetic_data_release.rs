//! Synthetic data release from the PMW hypothesis (paper §4.3 remark).
//!
//! ```sh
//! cargo run --release --example synthetic_data_release
//! ```
//!
//! "Our algorithm indeed can be modified to output a synthetic dataset
//! (namely, the final histogram D̂_t used in the execution of the
//! algorithm)." After answering a workload of CM queries, we release the
//! hypothesis histogram, sample a synthetic dataset from it, and check how
//! well downstream consumers — who never touch the real data — do on both
//! the trained workload and fresh held-out queries.

use pmw::erm::excess_risk;
use pmw::losses::{catalog, LinkFn};
use pmw::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2025);
    let dim = 3usize;
    let grid = GridUniverse::new(dim, 5, -0.55, 0.55).expect("grid");
    let population =
        pmw::data::synth::gaussian_mixture_population(&grid, &[vec![0.4, -0.3, 0.2]], 0.3)
            .expect("population");
    let dataset = Dataset::sample_from(&population, 2_500, &mut rng).expect("sample");
    let real_hist = dataset.histogram();
    let points = grid.materialize();

    // Train PMW on a mixed workload: distribution-sensitive threshold
    // queries (which drive the histogram toward the data) plus regression
    // tasks (the motivating CM queries).
    use pmw::losses::{CmLoss, LinearQueryLoss, PointPredicate};
    let train_reg =
        catalog::random_regression_tasks(dim, 12, LinkFn::Squared, &mut rng).expect("tasks");
    let mut train: Vec<Box<dyn CmLoss>> = Vec::new();
    for coord in 0..dim {
        for thr in [-0.2, 0.0, 0.2] {
            train.push(Box::new(
                LinearQueryLoss::new(
                    PointPredicate::Threshold {
                        coord,
                        threshold: thr,
                        at_least: true,
                    },
                    dim,
                )
                .expect("query"),
            ));
        }
    }
    for t in &train_reg {
        train.push(Box::new(t.clone()));
    }
    let config = PmwConfig::builder(1.5, 1e-6, 0.02)
        .k(train.len())
        .scale(1.0)
        .rounds_override(12)
        .solver_iters(400)
        .build()
        .expect("config");
    let mut mech = OnlinePmw::new(config, &grid, dataset, &mut rng).expect("mechanism");
    for task in &train {
        if mech.answer(task.as_ref(), &mut rng).is_err() {
            break;
        }
    }
    println!(
        "trained on {} queries ({} oracle calls)",
        mech.transcript().len(),
        mech.transcript().updates()
    );

    // Release: the hypothesis histogram and a synthetic dataset from it.
    let synthetic = mech.synthetic_dataset(2_500, &mut rng).expect("synthetic");
    let synth_hist = synthetic.histogram();
    println!(
        "released synthetic dataset: {} rows, L1 distance to real histogram = {:.3}",
        synthetic.len(),
        synth_hist.l1_distance(&real_hist)
    );

    // Downstream consumers: answer *distribution-sensitive* queries
    // (coordinate thresholds) on the synthetic data and compare against the
    // real data — the fidelity check a data user would actually run.
    let mut worst: f64 = 0.0;
    let mut total = 0.0;
    let mut count = 0usize;
    println!("\nthreshold query fidelity (synthetic answer vs real answer):");
    for coord in 0..dim {
        for thr in [-0.2, 0.0, 0.2] {
            let q = LinearQueryLoss::new(
                PointPredicate::Threshold {
                    coord,
                    threshold: thr,
                    at_least: true,
                },
                dim,
            )
            .expect("query");
            let on_synth =
                pmw::losses::traits::minimize_weighted(&q, &points, synth_hist.weights(), 800)
                    .expect("solve on synthetic")[0];
            let on_real =
                pmw::losses::traits::minimize_weighted(&q, &points, real_hist.weights(), 800)
                    .expect("solve on real")[0];
            let gap = (on_synth - on_real).abs();
            worst = worst.max(gap);
            total += gap;
            count += 1;
        }
    }
    println!(
        "  over {count} threshold queries: mean |gap| {:.4}, worst |gap| {:.4}",
        total / count as f64,
        worst
    );

    // And the trained regression workload still solves well from synthetic data.
    let mut reg_worst: f64 = 0.0;
    for task in &train_reg {
        let theta =
            pmw::losses::traits::minimize_weighted(task, &points, synth_hist.weights(), 800)
                .expect("solve on synthetic");
        let risk = excess_risk(task, &points, real_hist.weights(), &theta, 800).expect("risk");
        reg_worst = reg_worst.max(risk);
    }
    println!("  trained regression workload: worst excess risk on real data {reg_worst:.4}");
}
