//! Full-mechanism sublinearity: the `answer` loop and the offline rounds
//! over a support-row `DataSide` — no materialized universe, no
//! Θ(|X|) data histogram, universes past the dense cap.

use pmw::core::{OfflinePmw, OnlinePmw, PmwError};
use pmw::losses::{CmLoss, PointPredicate};
use pmw::prelude::*;
use pmw::sketch::{BigBitCube, PointSource, SampledBackend, SampledConfig, UniversePoints};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn bit_loss(bit: usize, dim: usize) -> LinearQueryLoss {
    LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, dim).unwrap()
}

/// A dataset over a huge bit-cube with bit 0 set on ~90% of rows and the
/// remaining bits fair — the skew the mechanism has to learn.
fn skewed_rows(source: &BigBitCube, n: usize, rng: &mut StdRng) -> Dataset {
    let rows: Vec<usize> = (0..n)
        .map(|_| {
            let mut x = rng.random_range(0..source.len());
            if rng.random::<f64>() < 0.9 {
                x |= 1;
            } else {
                x &= !1;
            }
            x
        })
        .collect();
    Dataset::from_indices(source.len(), rows).unwrap()
}

fn config(k: usize, rounds: usize, alpha: f64) -> PmwConfig {
    PmwConfig::builder(2.0, 1e-6, alpha)
        .k(k)
        .rounds_override(rounds)
        .scale(1.0)
        .solver_iters(150)
        .build()
        .unwrap()
}

/// The headline acceptance check: the complete Figure-3 `answer` loop at
/// `|X| = 2^26` — past the dense materialization cap — with nothing
/// `|X|`-sized anywhere on the path, and the skew actually learned.
#[test]
fn full_answer_loop_runs_at_2_pow_26_without_materializing_the_universe() {
    let source = BigBitCube::new(26).unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    let n = 3000;
    let dataset = skewed_rows(&source, n, &mut rng);
    let backend = SampledBackend::new(
        source,
        SampledConfig {
            budget: 512,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let mut mech = OnlinePmw::with_backend(
        config(8, 4, 0.05),
        DataSide::from_source(&source, &dataset).unwrap(),
        pmw::erm::ExactOracle::default(),
        backend,
        &mut rng,
    )
    .unwrap();

    // Nothing |X|-sized exists: no universe matrix, no dense data
    // histogram; the data side is only the dataset's support rows.
    assert!(mech.universe_points().is_none());
    assert!(mech.data_histogram().is_none());
    assert!(mech.data_points().len() <= n);
    assert_eq!(mech.data_points().dim(), 26);
    let weight_sum: f64 = mech.data_weights().iter().sum();
    assert!((weight_sum - 1.0).abs() < 1e-9);

    // Ask the skewed-bit query a few times: the first ask must trigger an
    // update (uniform hypothesis answers 0.5, data says 0.9), after which
    // the answers track the data.
    let loss = bit_loss(0, 26);
    let mut last = f64::NAN;
    for _ in 0..3 {
        last = mech.answer(&loss, &mut rng).unwrap()[0];
        assert!((0.0..=1.0).contains(&last), "{last}");
    }
    assert!(mech.updates_used() >= 1);
    assert_eq!(
        mech.updates_used() + mech.updates_remaining(),
        mech.derived().rounds
    );
    // The guarantee is on excess risk: err = (answer − truth)²/2 ≤ α,
    // plus the pool's estimation slack.
    let excess = 0.5 * (last - 0.9) * (last - 0.9);
    assert!(
        excess < 0.05 + 0.03,
        "excess risk {excess} (answer {last} vs 0.9 skew)"
    );

    // Fair bits answer near 0.5 straight from the (sketched) hypothesis.
    let fair = mech.answer(&bit_loss(13, 26), &mut rng).unwrap()[0];
    assert!((fair - 0.5).abs() < 0.15, "{fair}");

    // Synthetic data release flows through the pool sampler and stays in
    // range of the huge universe.
    let synth = mech.synthetic_dataset(300, &mut rng).unwrap();
    assert_eq!(synth.len(), 300);
    assert!(synth.rows().iter().all(|&r| r < source.len()));
}

/// The 2^20 smoke test for the row-based path: structural no-|X|-allocation
/// assertions plus transcript/accounting consistency.
///
/// α sits above the pool's claimed read radius (~0.17 at budget 1024):
/// the SV margin is widened by that radius on sketched state, so a
/// smaller α could never certify a free ⊥ and every query would burn an
/// update round.
#[test]
fn point_source_mechanism_smoke_at_2_pow_20() {
    let source = BigBitCube::new(20).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let n = 1500;
    let dataset = skewed_rows(&source, n, &mut rng);
    let backend = SampledBackend::new(
        source,
        SampledConfig {
            budget: 1024,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let mut mech = OnlinePmw::with_backend(
        config(12, 4, 0.22),
        DataSide::from_source(&source, &dataset).unwrap(),
        pmw::erm::ExactOracle::default(),
        backend,
        &mut rng,
    )
    .unwrap();
    assert!(mech.universe_points().is_none());
    assert!(mech.data_histogram().is_none());
    // The support is strictly sublinear in |X| and bounded by n.
    assert!(mech.data_points().len() <= n.min(1 << 20));

    for j in 0..6 {
        let theta = mech.answer(&bit_loss(j % 5, 20), &mut rng).unwrap();
        assert_eq!(theta.len(), 1);
        assert!((0.0..=1.0).contains(&theta[0]));
    }
    assert_eq!(mech.transcript().len(), 6);
    assert_eq!(mech.transcript().updates(), mech.updates_used());
    // Ledger: SV plus one entry per consumed update round.
    assert_eq!(mech.accountant().len(), 1 + mech.updates_used());
}

/// Offline rounds on a `SampledBackend` over support rows agree
/// with the dense offline run at small |X| (exhaustive pool: the sketch
/// degrades to exact state; the row-based data side evaluates the same
/// empirical distribution over the support instead of the histogram).
#[test]
fn offline_point_source_parity_with_dense_at_small_universe() {
    let cube = BooleanCube::new(4).unwrap();
    let mut data_rng = StdRng::seed_from_u64(6);
    let pop = pmw::data::synth::product_population(&cube, &[0.9, 0.2, 0.5, 0.5]).unwrap();
    let data = Dataset::sample_from(&pop, 2000, &mut data_rng).unwrap();
    let losses: Vec<LinearQueryLoss> = (0..4).map(|b| bit_loss(b, 4)).collect();
    let refs: Vec<&dyn CmLoss> = losses.iter().map(|l| l as &dyn CmLoss).collect();
    let cfg = || {
        PmwConfig::builder(2.0, 1e-6, 0.1)
            .k(8)
            .scale(1.0)
            .rounds_override(4)
            .solver_iters(200)
            .build()
            .unwrap()
    };
    let off = OfflinePmw::with_oracle(cfg(), pmw::erm::ExactOracle::default());

    let mut rng_a = StdRng::seed_from_u64(15);
    let (dense_result, dense_acc) = off.run(&refs, &cube, &data, &mut rng_a).unwrap();

    let source = UniversePoints(cube.clone());
    let mut rng_b = StdRng::seed_from_u64(15);
    let mut backend = SampledBackend::new(
        source.clone(),
        SampledConfig {
            budget: usize::MAX,
            ..SampledConfig::default()
        },
        &mut rng_b,
    )
    .unwrap();
    assert!(backend.is_exhaustive());
    let (row_result, row_acc) = off
        .run_with_backend(
            &refs,
            &DataSide::from_source(&source, &data).unwrap(),
            &mut backend,
            &mut rng_b,
        )
        .unwrap();

    assert_eq!(dense_result.selected, row_result.selected);
    assert_eq!(dense_acc.len(), row_acc.len());
    for (a, b) in dense_result.answers.iter().zip(&row_result.answers) {
        assert!((a[0] - b[0]).abs() < 1e-6, "{} vs {}", a[0], b[0]);
    }

    // The dense backend is refused on the point-source path: it needs the
    // materialized universe the path exists to avoid.
    let mut dense_state = pmw::core::DenseBackend::new(16).unwrap();
    assert!(matches!(
        off.run_with_backend(
            &refs,
            &DataSide::from_source(&source, &data).unwrap(),
            &mut dense_state,
            &mut rng_b,
        ),
        Err(PmwError::InvalidConfig(_))
    ));
}

/// The accuracy game runs unchanged on the point-source mechanism: true
/// excess risk is measured over the dataset support, which is exact.
#[test]
fn accuracy_game_on_point_source_mechanism() {
    let source = BigBitCube::new(18).unwrap();
    let mut rng = StdRng::seed_from_u64(43);
    let dataset = skewed_rows(&source, 2000, &mut rng);
    let backend = SampledBackend::new(
        source,
        SampledConfig {
            budget: 1024,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let mut mech = OnlinePmw::with_backend(
        config(6, 4, 0.1),
        DataSide::from_source(&source, &dataset).unwrap(),
        pmw::erm::ExactOracle::default(),
        backend,
        &mut rng,
    )
    .unwrap();
    let mut analyst = pmw::core::game::FixedAnalyst::new(
        (0..4)
            .map(|b| Box::new(bit_loss(b, 18)) as Box<dyn CmLoss>)
            .collect(),
    );
    let outcome = pmw::core::run_accuracy_game(&mut mech, &mut analyst, &mut rng).unwrap();
    assert_eq!(outcome.answered, 4);
    // Sketched state: allow the pool's estimation slack on top of alpha.
    assert!(outcome.max_error < 0.25, "max error {}", outcome.max_error);
}
