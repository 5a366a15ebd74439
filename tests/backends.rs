//! Property and integration tests for the state-backend seam: the
//! `pmw-sketch` update log and sampled backend against the dense
//! reference.

use pmw::core::update::dual_certificate;
use pmw::core::{DenseBackend, OfflinePmw, OnlinePmw, StateBackend};
use pmw::losses::{CmLoss, PointPredicate};
use pmw::prelude::*;
use pmw::sketch::{RoundUpdate, SampledBackend, SampledConfig, UniversePoints, UpdateLog};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn bit_loss(bit: usize, dim: usize) -> LinearQueryLoss {
    LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, dim).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The lazily evaluated update log (`UpdateLog::log_weight_at`)
    /// replays exactly the same unnormalized log-weights as the dense
    /// log-domain histogram driven by the same rounds, to 1e-10, for any
    /// random update log.
    #[test]
    fn lazy_log_matches_dense_log_weights(
        rounds in prop::collection::vec(
            (0usize..5, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.5), 1..12),
    ) {
        let cube = BooleanCube::new(5).unwrap();
        let points = Universe::materialize(&cube);
        let mut dense = Histogram::uniform(cube.size()).unwrap();
        let mut log = UpdateLog::new();
        for &(bit, t_o, t_h, eta) in &rounds {
            let loss = bit_loss(bit, 5);
            let u = dual_certificate(&loss, &points, &[t_o], &[t_h]).unwrap();
            dense.mw_update(&u, eta).unwrap();
            log.push(RoundUpdate::new(
                Arc::new(loss) as Arc<dyn CmLoss>, vec![t_o], vec![t_h], eta,
            ).unwrap());
        }
        let mut grad = Vec::new();
        for x in 0..cube.size() {
            let l = log.log_weight_at(points.row(x), &mut grad).unwrap();
            let d = dense.log_weight(x);
            prop_assert!((l - d).abs() < 1e-10, "x={x}: log {l} vs dense {d}");
        }
    }

    /// The sampled backend's certificate estimate lands within its own
    /// claimed concentration radius of the dense exact value, for
    /// proptest-generated losses and update logs. (The claim fails with
    /// probability 1e-6 per estimate; seeds are fixed per case, so the
    /// test is deterministic.)
    #[test]
    fn sampled_certificate_estimates_respect_claimed_bound(
        rounds in prop::collection::vec(
            (0usize..10, 0.0f64..1.0, 0.0f64..1.0, 0.05f64..0.3), 1..6),
        query_bit in 0usize..10,
        t_o in 0.0f64..1.0,
        t_h in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let cube = BooleanCube::new(10).unwrap();
        let points = Universe::materialize(&cube);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sketch = SampledBackend::new(
            UniversePoints(cube.clone()),
            SampledConfig { budget: 512, ..SampledConfig::default() },
            &mut rng,
        ).unwrap();
        prop_assert!(!sketch.is_exhaustive());
        let mut dense = Histogram::uniform(cube.size()).unwrap();
        for &(bit, a, b, eta) in &rounds {
            let loss = bit_loss(bit, 10);
            let u = dual_certificate(&loss, &points, &[a], &[b]).unwrap();
            dense.mw_update(&u, eta).unwrap();
            sketch.record(RoundUpdate::new(
                Arc::new(loss) as Arc<dyn CmLoss>, vec![a], vec![b], eta,
            ).unwrap()).unwrap();
        }
        let loss = bit_loss(query_bit, 10);
        let est = sketch.certificate_mean(&loss, &[t_o], &[t_h]).unwrap();
        let u = dual_certificate(&loss, &points, &[t_o], &[t_h]).unwrap();
        let exact: f64 = dense.weights().iter().zip(&u).map(|(w, v)| w * v).sum();
        prop_assert!(est.radius.is_finite() && est.radius > 0.0);
        prop_assert!(
            (est.value - exact).abs() <= est.radius,
            "estimate {} vs exact {exact}, claimed radius {}",
            est.value, est.radius
        );
        // The claimed (adaptive) radius never exceeds the drift-envelope
        // Hoeffding bound it replaced, and the winner is always one of the
        // variance-adaptive candidates.
        prop_assert!(
            est.radius <= est.envelope_radius,
            "adaptive {} above envelope {}", est.radius, est.envelope_radius
        );
        prop_assert!(matches!(
            est.bound,
            pmw::dp::RadiusBound::EffectiveSample | pmw::dp::RadiusBound::Bernstein
        ));
        // The sampled max never exceeds the true max and carries a
        // nontrivial coverage bound.
        let max = sketch.max_payoff(&loss, &[t_o], &[t_h]).unwrap();
        let true_max = u.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(max.value <= true_max + 1e-12);
        prop_assert!(max.uncovered_mass > 0.0 && max.uncovered_mass < 0.05);
    }
}

/// Exhaustive pools report radius 0 through the whole new certification
/// path: the per-estimate reads, the `StateBackend` query seam, and the
/// mechanisms' read-radius margin all see an exact backend.
#[test]
fn exhaustive_pools_report_zero_radius_through_the_new_path() {
    let cube = BooleanCube::new(4).unwrap();
    let mut rng = StdRng::seed_from_u64(88);
    let sketch = SampledBackend::new(
        UniversePoints(cube.clone()),
        SampledConfig {
            budget: usize::MAX,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    assert!(sketch.is_exhaustive());
    // Direct read: radius 0, beta 0, tagged exact — and the envelope
    // column is 0 too (nothing to compare against).
    let loss = bit_loss(1, 4);
    let est = sketch.certificate_mean(&loss, &[0.7], &[0.2]).unwrap();
    assert_eq!((est.radius, est.beta), (0.0, 0.0));
    assert_eq!(est.bound, pmw::dp::RadiusBound::Exact);
    assert_eq!(est.envelope_radius, 0.0);
    // Seam read: the QueryEstimate the linear mechanisms consume.
    let q = pmw::data::ImplicitQuery::marginal(vec![0], 4).unwrap();
    let qe = StateBackend::expected_query_value(&sketch, &q, None, &mut rng).unwrap();
    assert_eq!((qe.radius, qe.beta), (0.0, 0.0));
    // Margin read: no sparse-vector widening on exact state.
    assert_eq!(StateBackend::read_radius(&sketch, 1.0), 0.0);
    // The ledger tagged both estimates exact.
    assert_eq!(sketch.ledger().bound_wins(pmw::dp::RadiusBound::Exact), 2);
}

/// An exhaustive-pool sampled backend inside the online mechanism answers
/// exactly like the dense backend: the pool is the whole universe, so the
/// "sketch" degrades to the exact computation and the RNG streams align.
#[test]
fn online_mechanism_on_exhaustive_sampled_backend_matches_dense() {
    let cube = BooleanCube::new(4).unwrap();
    let config = || {
        PmwConfig::builder(2.0, 1e-6, 0.15)
            .k(8)
            .rounds_override(6)
            .scale(1.0)
            .solver_iters(200)
            .build()
            .unwrap()
    };
    let dataset = |rng: &mut StdRng| {
        let pop = pmw::data::synth::product_population(&cube, &[0.95, 0.5, 0.2, 0.5]).unwrap();
        Dataset::sample_from(&pop, 2000, rng).unwrap()
    };

    let mut rng_a = StdRng::seed_from_u64(77);
    let data_a = dataset(&mut rng_a);
    let mut dense_mech = OnlinePmw::with_oracle(
        config(),
        &cube,
        data_a,
        pmw::erm::ExactOracle::default(),
        &mut rng_a,
    )
    .unwrap();

    let mut rng_b = StdRng::seed_from_u64(77);
    let data_b = dataset(&mut rng_b);
    let sampled = SampledBackend::new(
        UniversePoints(cube.clone()),
        SampledConfig {
            budget: usize::MAX,
            ..SampledConfig::default()
        },
        &mut rng_b,
    )
    .unwrap();
    assert!(sampled.is_exhaustive());
    let mut sketch_mech = OnlinePmw::with_backend(
        config(),
        DataSide::from_universe(&cube, &data_b).unwrap(),
        pmw::erm::ExactOracle::default(),
        sampled,
        &mut rng_b,
    )
    .unwrap();

    for bit in 0..4 {
        let loss = bit_loss(bit, 4);
        let a = dense_mech.answer(&loss, &mut rng_a).unwrap();
        let b = sketch_mech.answer(&loss, &mut rng_b).unwrap();
        assert!(
            (a[0] - b[0]).abs() < 1e-9,
            "bit {bit}: dense {} vs sampled {}",
            a[0],
            b[0]
        );
    }
    assert_eq!(dense_mech.updates_used(), sketch_mech.updates_used());
    assert!(sketch_mech.dense_hypothesis().is_none());
    assert_eq!(sketch_mech.state().rounds(), sketch_mech.updates_used());

    // Synthetic data flows through the backend's Gumbel-max sampler.
    let synth = sketch_mech.synthetic_dataset(200, &mut rng_b).unwrap();
    assert_eq!(synth.len(), 200);
    assert!(synth.rows().iter().all(|&r| r < 16));
}

/// The offline mechanism runs on a caller-supplied backend; with an
/// exhaustive pool it reproduces the dense run's selections and answers.
#[test]
fn offline_mechanism_on_exhaustive_sampled_backend_matches_dense() {
    let cube = BooleanCube::new(3).unwrap();
    let rows: Vec<usize> = (0..600)
        .map(|i| if i % 3 == 0 { 0b001 } else { 0b111 })
        .collect();
    let data = Dataset::from_indices(8, rows).unwrap();
    let losses: Vec<LinearQueryLoss> = (0..3).map(|b| bit_loss(b, 3)).collect();
    let refs: Vec<&dyn CmLoss> = losses.iter().map(|l| l as &dyn CmLoss).collect();
    let config = PmwConfig::builder(2.0, 1e-6, 0.1)
        .k(8)
        .scale(1.0)
        .rounds_override(4)
        .solver_iters(200)
        .build()
        .unwrap();
    let off = OfflinePmw::with_oracle(config, pmw::erm::ExactOracle::default());

    let mut rng_a = StdRng::seed_from_u64(5);
    let (dense_result, dense_acc) = off.run(&refs, &cube, &data, &mut rng_a).unwrap();

    let mut rng_b = StdRng::seed_from_u64(5);
    let mut backend = SampledBackend::new(
        UniversePoints(cube.clone()),
        SampledConfig {
            budget: usize::MAX,
            ..SampledConfig::default()
        },
        &mut rng_b,
    )
    .unwrap();
    let (sketch_result, sketch_acc) = off
        .run_with_backend(
            &refs,
            &DataSide::from_universe(&cube, &data).unwrap(),
            &mut backend,
            &mut rng_b,
        )
        .unwrap();

    assert_eq!(dense_result.selected, sketch_result.selected);
    assert_eq!(dense_acc.len(), sketch_acc.len());
    for (a, b) in dense_result.answers.iter().zip(&sketch_result.answers) {
        assert!((a[0] - b[0]).abs() < 1e-9, "{} vs {}", a[0], b[0]);
    }
    assert_eq!(backend.updates_recorded(), 4);
}

/// A loss that keeps the default (`None`) `clone_shared`: a stand-in for
/// downstream `CmLoss` impls that never opted into retention.
struct UnretainableLoss(LinearQueryLoss);

impl CmLoss for UnretainableLoss {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn domain(&self) -> &pmw::convex::Domain {
        self.0.domain()
    }
    fn point_dim(&self) -> usize {
        self.0.point_dim()
    }
    fn loss(&self, theta: &[f64], x: &[f64]) -> f64 {
        self.0.loss(theta, x)
    }
    fn gradient(&self, theta: &[f64], x: &[f64], out: &mut [f64]) {
        self.0.gradient(theta, x, out)
    }
    fn lipschitz(&self) -> f64 {
        self.0.lipschitz()
    }
    // clone_shared deliberately left at the default `None`.
}

/// A retention-requiring backend rejects a non-retainable loss *before*
/// any privacy budget or sparse-vector round is consumed — the guard that
/// keeps a misconfigured loss from draining the accountant round after
/// round with no update ever recorded.
#[test]
fn unretainable_loss_fails_before_spending_budget() {
    let cube = BooleanCube::new(3).unwrap();
    let rows: Vec<usize> = (0..400).map(|i| if i % 4 == 0 { 1 } else { 7 }).collect();
    let data = Dataset::from_indices(8, rows).unwrap();
    let config = PmwConfig::builder(2.0, 1e-6, 0.05)
        .k(6)
        .scale(1.0)
        .rounds_override(4)
        .solver_iters(100)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(21);
    let sampled = SampledBackend::new(
        UniversePoints(cube.clone()),
        SampledConfig {
            budget: usize::MAX,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let mut mech = OnlinePmw::with_backend(
        config,
        DataSide::from_universe(&cube, &data).unwrap(),
        pmw::erm::ExactOracle::default(),
        sampled,
        &mut rng,
    )
    .unwrap();

    let bad = UnretainableLoss(bit_loss(0, 3));
    let before = mech.accountant().len(); // the sparse-vector entry only
    assert!(matches!(
        mech.answer(&bad, &mut rng),
        Err(pmw::core::PmwError::LossMismatch(_))
    ));
    // No oracle spend, no transcript entry, no update consumed.
    assert_eq!(mech.accountant().len(), before);
    assert_eq!(mech.transcript().len(), 0);
    assert_eq!(mech.updates_used(), 0);

    // A retainable loss on the same mechanism still works.
    let good = bit_loss(0, 3);
    assert!(mech.answer(&good, &mut rng).is_ok());

    // The offline variant applies the same up-front check to the workload.
    let off = OfflinePmw::with_oracle(
        PmwConfig::builder(2.0, 1e-6, 0.1)
            .k(4)
            .scale(1.0)
            .rounds_override(2)
            .solver_iters(100)
            .build()
            .unwrap(),
        pmw::erm::ExactOracle::default(),
    );
    let bad2 = UnretainableLoss(bit_loss(1, 3));
    let refs: Vec<&dyn CmLoss> = vec![&bad2];
    let rows: Vec<usize> = (0..100).map(|i| i % 8).collect();
    let data = Dataset::from_indices(8, rows).unwrap();
    let mut backend = SampledBackend::new(
        UniversePoints(cube.clone()),
        SampledConfig {
            budget: usize::MAX,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let data = DataSide::from_universe(&cube, &data).unwrap();
    let result = off.run_with_backend(&refs, &data, &mut backend, &mut rng);
    assert!(matches!(result, Err(pmw::core::PmwError::LossMismatch(_))));
    assert_eq!(backend.updates_recorded(), 0);
}

/// A dense backend constructed standalone behaves like the mechanism's
/// internal one (same seam, same behavior) — the seam itself is covered by
/// the dense path staying bit-for-bit green elsewhere; here we pin the
/// backend's bookkeeping.
#[test]
fn dense_backend_bookkeeping_through_the_seam() {
    let cube = BooleanCube::new(3).unwrap();
    let points = Universe::materialize(&cube);
    let mut rng = StdRng::seed_from_u64(9);
    let mut backend = DenseBackend::new(8).unwrap();
    assert_eq!(StateBackend::universe_size(&backend), 8);
    let loss = bit_loss(0, 3);
    let theta = backend
        .hypothesis_minimizer(&loss, &points, 200, &mut rng)
        .unwrap();
    // Uniform hypothesis: half the cube satisfies bit 0.
    assert!((theta[0] - 0.5).abs() < 0.01, "{}", theta[0]);
    backend
        .apply_update(&loss, None, &points, &[0.9], &[0.5], 0.5, None, &mut rng)
        .unwrap();
    assert_eq!(backend.updates_recorded(), 1);
    assert!(backend.dense_hypothesis().is_some());
}
