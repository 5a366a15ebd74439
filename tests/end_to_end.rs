//! End-to-end integration: the full Figure-3 pipeline over real substrates.
//!
//! Universe construction → population sampling → CM-PMW with a genuinely
//! private oracle → accuracy + privacy-ledger assertions, across loss
//! families.

use pmw::core::QueryOutcome;
use pmw::erm::{excess_risk, NoisyGdOracle};
use pmw::losses::{catalog, LinkFn};
use pmw::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn clustered_dataset(grid: &GridUniverse, n: usize, rng: &mut StdRng) -> Dataset {
    let population = pmw::data::synth::gaussian_mixture_population(
        grid,
        &[vec![0.4, 0.3, -0.2], vec![-0.4, -0.1, 0.3]],
        0.35,
    )
    .unwrap();
    Dataset::sample_from(&population, n, rng).unwrap()
}

#[test]
fn cm_pmw_answers_regression_stream_within_alpha() {
    let mut rng = StdRng::seed_from_u64(1);
    let grid = GridUniverse::new(3, 5, -0.55, 0.55).unwrap();
    let dataset = clustered_dataset(&grid, 3000, &mut rng);
    let data_hist = dataset.histogram();
    let points = grid.materialize();

    let alpha = 0.3;
    let k = 12;
    let config = PmwConfig::builder(2.0, 1e-6, alpha)
        .k(k)
        .rounds_override(8)
        .solver_iters(400)
        .build()
        .unwrap();
    let mut mech = OnlinePmw::with_oracle(
        config,
        &grid,
        dataset,
        NoisyGdOracle::new(40).unwrap(),
        &mut rng,
    )
    .unwrap();

    let tasks = catalog::random_regression_tasks(3, k, LinkFn::Squared, &mut rng).unwrap();
    let mut answered = 0;
    let mut max_risk: f64 = 0.0;
    for task in &tasks {
        match mech.answer(task, &mut rng) {
            Ok(theta) => {
                assert!(task.domain().contains(&theta, 1e-9));
                let risk = excess_risk(task, &points, data_hist.weights(), &theta, 800).unwrap();
                max_risk = max_risk.max(risk);
                answered += 1;
            }
            Err(pmw::core::PmwError::Halted) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(answered >= 6, "answered only {answered} of {k}");
    assert!(
        max_risk <= alpha + 0.15,
        "max excess risk {max_risk} far above alpha {alpha}"
    );

    // Privacy ledger within the declared budget.
    let total = mech.accountant().best_total(2.5e-7).unwrap();
    assert!(total.epsilon() <= 2.0 + 1e-9, "{}", total.epsilon());
    assert!(total.delta() <= 1e-6 + 1e-12);

    // Transcript bookkeeping is consistent.
    let t = mech.transcript();
    assert_eq!(t.len(), answered);
    assert_eq!(t.updates(), mech.updates_used());
    for r in t.records() {
        match r.outcome {
            QueryOutcome::FromOracle | QueryOutcome::UpdateFailed => {
                assert!(r.update_round.is_some())
            }
        }
    }
}

#[test]
fn mixed_loss_families_in_one_session() {
    // Logistic, squared, hinge and linear-query losses against one
    // mechanism instance — the adaptive multi-analyst scenario.
    let mut rng = StdRng::seed_from_u64(2);
    let grid = GridUniverse::symmetric_unit(2, 5).unwrap();
    let universe = LabeledGridUniverse::binary(grid).unwrap();
    let population = pmw::data::synth::gaussian_mixture_population(
        &universe,
        &[vec![0.5, 0.5, 1.0], vec![-0.5, -0.5, -1.0]],
        0.5,
    )
    .unwrap();
    let dataset = Dataset::sample_from(&population, 3000, &mut rng).unwrap();

    let config = PmwConfig::builder(2.0, 1e-6, 0.4)
        .k(6)
        .rounds_override(5)
        .solver_iters(300)
        .build()
        .unwrap();
    let mut mech = OnlinePmw::new(config, &universe, dataset, &mut rng).unwrap();

    let logistic = LogisticLoss::new(2).unwrap();
    let squared = SquaredLoss::new(2).unwrap();
    let hinge = HingeLoss::new(2).unwrap();
    let losses: [&dyn CmLoss; 3] = [&logistic, &squared, &hinge];
    for loss in losses {
        let theta = mech.answer(loss, &mut rng).unwrap();
        assert_eq!(theta.len(), 2);
        assert!(loss.domain().contains(&theta, 1e-9));
    }
    assert_eq!(mech.transcript().len(), 3);
}

#[test]
fn hypothesis_converges_toward_data_in_kl() {
    // Each oracle-triggered update must not increase the KL divergence
    // KL(D || D-hat) on average; after several updates it should be
    // strictly smaller than at the uniform start.
    let mut rng = StdRng::seed_from_u64(3);
    let grid = GridUniverse::new(2, 5, -0.55, 0.55).unwrap();
    let dataset = clustered_dataset_2d(&grid, 4000, &mut rng);
    let data_hist = dataset.histogram();

    let config = PmwConfig::builder(4.0, 1e-6, 0.1)
        .k(20)
        .scale(1.0)
        .rounds_override(10)
        .solver_iters(300)
        .build()
        .unwrap();
    let mut mech = OnlinePmw::with_oracle(
        config,
        &grid,
        dataset,
        pmw::erm::ExactOracle::default(),
        &mut rng,
    )
    .unwrap();
    let kl_start = mech.hypothesis().kl_from(&data_hist);
    // Threshold queries whose answers differ sharply between the uniform
    // hypothesis and the one-cluster data: every update carries signal.
    for j in 0..20 {
        let loss = LinearQueryLoss::new(
            pmw::losses::PointPredicate::Threshold {
                coord: j % 2,
                threshold: [-0.2, 0.1, 0.3][j % 3],
                at_least: true,
            },
            2,
        )
        .unwrap();
        if mech.answer(&loss, &mut rng).is_err() {
            break;
        }
    }
    let kl_end = mech.hypothesis().kl_from(&data_hist);
    assert!(mech.updates_used() > 0, "instance should force updates");
    assert!(
        kl_end < kl_start,
        "KL should shrink after {} updates: {kl_start} -> {kl_end}",
        mech.updates_used()
    );
}

#[test]
fn certificate_gap_dominates_error_on_every_update() {
    // Claim 3.5 with an exact oracle: every update's payoff u_t satisfies
    // <u_t, D̂_t - D> >= err_ℓ(D, D̂_t) - α/4, across loss families.
    let mut rng = StdRng::seed_from_u64(7);
    let grid = GridUniverse::new(2, 5, -0.55, 0.55).unwrap();
    let dataset = clustered_dataset_2d(&grid, 4000, &mut rng);
    let alpha = 0.08;
    let config = PmwConfig::builder(4.0, 1e-6, alpha)
        .k(30)
        .scale(1.0)
        .rounds_override(12)
        .solver_iters(400)
        .diagnostics(true)
        .build()
        .unwrap();
    let mut mech = OnlinePmw::with_oracle(
        config,
        &grid,
        dataset,
        pmw::erm::ExactOracle::default(),
        &mut rng,
    )
    .unwrap();

    let mut losses: Vec<Box<dyn CmLoss>> = Vec::new();
    for j in 0..10 {
        losses.push(Box::new(
            LinearQueryLoss::new(
                pmw::losses::PointPredicate::Threshold {
                    coord: j % 2,
                    threshold: [-0.2, 0.0, 0.15][j % 3],
                    at_least: true,
                },
                2,
            )
            .unwrap(),
        ));
    }
    for task in catalog::random_regression_tasks(2, 10, LinkFn::Squared, &mut rng).unwrap() {
        losses.push(Box::new(task));
    }
    for loss in &losses {
        if mech.answer(loss.as_ref(), &mut rng).is_err() {
            break;
        }
    }

    let mut checked = 0;
    for r in mech.transcript().records() {
        if r.outcome == QueryOutcome::FromOracle {
            let err = r
                .error_query_value
                .expect("diagnostics record the error query");
            let gap = r
                .certificate_gap
                .expect("diagnostics record the certificate gap");
            assert!(
                gap >= err - alpha / 4.0 - 1e-6,
                "update {:?} ({}): gap {gap} < err {err} - alpha/4",
                r.update_round,
                r.loss_name
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "the workload should force at least one update");
}

fn clustered_dataset_2d(grid: &GridUniverse, n: usize, rng: &mut StdRng) -> Dataset {
    // One tight cluster: threshold-query answers differ strongly from the
    // uniform hypothesis.
    let population =
        pmw::data::synth::gaussian_mixture_population(grid, &[vec![0.4, 0.3]], 0.25).unwrap();
    Dataset::sample_from(&population, n, rng).unwrap()
}
