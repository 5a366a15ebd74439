//! The linear-query mechanisms on the state-backend seam: sampled-vs-dense
//! MWEM parity, and the fully sublinear (point-source) paths at `2^20`.

use pmw::core::{DenseBackend, LinearPmw, Mwem, PmwConfig, PmwError};
use pmw::data::workload::{random_implicit_marginals, ImplicitQuery};
use pmw::data::LinearQuery;
use pmw::prelude::*;
use pmw::sketch::{BigBitCube, PointSource, SampledBackend, SampledConfig, UniversePoints};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A dataset with bit 0 set on ~90% of rows and the rest fair.
fn skewed_rows(universe: usize, n: usize, rng: &mut StdRng) -> Dataset {
    let rows: Vec<usize> = (0..n)
        .map(|_| {
            let mut x = rng.random_range(0..universe);
            if rng.random::<f64>() < 0.9 {
                x |= 1;
            } else {
                x &= !1;
            }
            x
        })
        .collect();
    Dataset::from_indices(universe, rows).unwrap()
}

fn exhaustive_sampled(
    cube: &BooleanCube,
    seed: u64,
) -> SampledBackend<UniversePoints<BooleanCube>> {
    let mut rng = StdRng::seed_from_u64(seed);
    SampledBackend::new(
        UniversePoints(cube.clone()),
        SampledConfig {
            budget: usize::MAX,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .unwrap()
}

/// The headline parity claim: an exhaustive-pool `SampledBackend` run of
/// MWEM reproduces the dense run **exactly** in its selections (identical
/// rng stream, exact SNIS estimates) and to 1e-6 in its answers.
#[test]
fn exhaustive_pool_mwem_reproduces_dense_selections_and_answers() {
    let cube = BooleanCube::new(6).unwrap();
    let mut setup_rng = StdRng::seed_from_u64(61);
    let data = skewed_rows(cube.size(), 1200, &mut setup_rng);
    let queries = random_implicit_marginals(6, 2, 15, &mut setup_rng).unwrap();
    let epsilon = 4.0;
    let mwem = Mwem::new(8, 1.0).unwrap();

    let mut dense_rng = StdRng::seed_from_u64(99);
    let dense_data = DataSide::from_universe(&cube, &data).unwrap();
    let dense_state = DenseBackend::new(cube.size()).unwrap();
    let dense = mwem
        .run_with_backend(&queries, &dense_data, epsilon, dense_state, &mut dense_rng)
        .unwrap();

    let mut sampled_rng = StdRng::seed_from_u64(99);
    let sampled_state = exhaustive_sampled(&cube, 5);
    assert!(sampled_state.is_exhaustive());
    let sampled = mwem
        .run_with_backend(
            &queries,
            &dense_data,
            epsilon,
            sampled_state,
            &mut sampled_rng,
        )
        .unwrap();

    assert_eq!(
        dense.selected, sampled.selected,
        "exhaustive pool must reproduce dense selections exactly"
    );
    assert_eq!(dense.answers.len(), sampled.answers.len());
    for (i, (a, b)) in dense.answers.iter().zip(&sampled.answers).enumerate() {
        assert!((a - b).abs() < 1e-6, "query {i}: dense {a} vs sampled {b}");
    }
    // Both ledgers carry the identical per-round EM + Laplace spend.
    assert_eq!(dense.accountant.len(), sampled.accountant.len());
    let total = sampled.accountant.basic_total().unwrap();
    assert!(total.epsilon() <= epsilon + 1e-9);
    // Only the dense run has a |X|-sized average to hand out.
    assert!(dense.averaged.is_some());
    assert!(sampled.averaged.is_none());
}

/// Same parity for the online mechanism: exhaustive-pool `LinearPmw`
/// answers agree with the dense backend to 1e-6 under the same rng stream
/// (same SV decisions, same update rounds).
#[test]
fn exhaustive_pool_linear_pmw_matches_dense() {
    let cube = BooleanCube::new(6).unwrap();
    let mut setup_rng = StdRng::seed_from_u64(62);
    let data = skewed_rows(cube.size(), 4000, &mut setup_rng);
    let queries = random_implicit_marginals(6, 2, 10, &mut setup_rng).unwrap();
    let config = PmwConfig::builder(2.0, 1e-6, 0.08)
        .k(10)
        .scale(1.0)
        .rounds_override(5)
        .build()
        .unwrap();

    let mut dense_rng = StdRng::seed_from_u64(77);
    let mut dense = LinearPmw::with_backend(
        config.clone(),
        DataSide::from_universe(&cube, &data).unwrap(),
        DenseBackend::new(cube.size()).unwrap(),
        &mut dense_rng,
    )
    .unwrap();
    let mut sampled_rng = StdRng::seed_from_u64(77);
    let mut sampled = LinearPmw::with_backend(
        config,
        DataSide::from_universe(&cube, &data).unwrap(),
        exhaustive_sampled(&cube, 6),
        &mut sampled_rng,
    )
    .unwrap();

    for (i, q) in queries.iter().enumerate() {
        let a = dense.answer(q, &mut dense_rng);
        let b = sampled.answer(q, &mut sampled_rng);
        match (a, b) {
            (Ok(x), Ok(y)) => assert!((x - y).abs() < 1e-6, "query {i}: {x} vs {y}"),
            (Err(PmwError::Halted), Err(PmwError::Halted)) => break,
            (a, b) => panic!("query {i}: paths diverged ({a:?} vs {b:?})"),
        }
        assert_eq!(dense.updates_used(), sampled.updates_used(), "query {i}");
        assert_eq!(dense.has_halted(), sampled.has_halted(), "query {i}");
    }
    assert_eq!(dense.accountant().len(), sampled.accountant().len());
}

/// Fast-MWEM at `|X| = 2^20` on the point-source path: the run completes
/// with a sub-universe pool, learns the planted skew, and never builds an
/// `|X|`-sized structure.
///
/// The EM sensitivity is widened by the per-score radii on sketched state
/// (~0.12 at budget 2048), so the per-round ε must be large enough that
/// score gaps of ~0.4 still dominate the widened selection noise — hence
/// the generous ε and pool budget relative to the exact-state tests.
#[test]
fn mwem_point_source_smoke_at_2_pow_20() {
    let log2_x = 20usize;
    let source = BigBitCube::new(log2_x).unwrap();
    let mut rng = StdRng::seed_from_u64(63);
    let data = skewed_rows(source.len(), 800, &mut rng);
    // Queries on bit 0 (skewed to ~0.9) and a few fair bits.
    let queries: Vec<ImplicitQuery> = (0..8)
        .map(|b| ImplicitQuery::marginal(vec![b], log2_x).unwrap())
        .collect();
    let epsilon = 32.0;
    let budget = 2048;
    let rounds = 8;
    let backend = SampledBackend::new(
        source,
        SampledConfig {
            budget,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let run = Mwem::new(rounds, 1.0)
        .unwrap()
        .run_with_backend(
            &queries,
            &DataSide::from_source(&source, &data).unwrap(),
            epsilon,
            backend,
            &mut rng,
        )
        .unwrap();

    assert_eq!(run.answers.len(), 8);
    assert_eq!(run.selected.len(), rounds);
    // No |X|-sized structures anywhere: no dense average, sub-universe
    // pool, and the state never materialized the universe.
    assert!(run.averaged.is_none());
    assert!(!run.state.is_exhaustive());
    assert_eq!(run.state.pool_size(), budget);
    assert_eq!(run.state.universe_size(), 1 << log2_x);
    // Privacy ledger audits to the declared budget.
    let total = run.accountant.basic_total().unwrap();
    assert!(total.epsilon() <= epsilon + 1e-9);
    // The planted bit-0 skew (truth ~0.9, uniform answers 0.5) must be
    // (at least partially) learned; fair bits stay near 0.5.
    assert!(
        run.answers[0] > 0.6,
        "bit-0 answer {} should move toward 0.9",
        run.answers[0]
    );
    for (b, a) in run.answers.iter().enumerate().skip(1) {
        assert!((a - 0.5).abs() < 0.3, "bit {b} answer {a} drifted");
    }
    // Every hypothesis-side read carried a radius in the sampling ledger.
    assert!(!run.state.ledger().is_empty());
}

/// Dense (universe-indexed) queries are rejected on the retaining sampled
/// backend *before* any privacy spend.
#[test]
fn sampled_backends_reject_dense_queries_up_front() {
    let cube = BooleanCube::new(5).unwrap();
    let mut rng = StdRng::seed_from_u64(64);
    let data = skewed_rows(cube.size(), 300, &mut rng);
    let dense_queries = vec![LinearQuery::new(vec![1.0; 32]).unwrap()];
    let state = exhaustive_sampled(&cube, 7);
    match Mwem::new(3, 1.0).unwrap().run_with_backend(
        &dense_queries,
        &DataSide::from_universe(&cube, &data).unwrap(),
        1.0,
        state,
        &mut rng,
    ) {
        Err(PmwError::LossMismatch(_)) => {}
        Err(e) => panic!("wrong error {e:?}"),
        Ok(_) => panic!("dense queries must be rejected on the sampled backend"),
    }

    // Same guard on the online mechanism, without burning an SV round.
    let mut mech = LinearPmw::with_backend(
        PmwConfig::builder(1.0, 1e-6, 0.2)
            .k(4)
            .scale(1.0)
            .rounds_override(2)
            .build()
            .unwrap(),
        DataSide::from_universe(&cube, &data).unwrap(),
        exhaustive_sampled(&cube, 8),
        &mut rng,
    )
    .unwrap();
    assert!(matches!(
        mech.answer(&dense_queries[0], &mut rng),
        Err(PmwError::LossMismatch(_))
    ));
    assert_eq!(mech.updates_used(), 0);
    assert_eq!(mech.accountant().len(), 1); // SV only, nothing burned
}

/// The online linear mechanism end-to-end at `|X| = 2^20` through
/// a support-row data side: SV screening, Laplace measurement and query
/// updates all on sketched state, flat in `|X|`.
#[test]
fn linear_pmw_point_source_smoke_at_2_pow_20() {
    let log2_x = 20usize;
    let source = BigBitCube::new(log2_x).unwrap();
    let mut rng = StdRng::seed_from_u64(65);
    let dataset = skewed_rows(source.len(), 4000, &mut rng);
    let budget = 1024;
    let backend = SampledBackend::new(
        source,
        SampledConfig {
            budget,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let config = PmwConfig::builder(2.0, 1e-6, 0.1)
        .k(12)
        .scale(1.0)
        .rounds_override(6)
        .build()
        .unwrap();
    let declared = config.budget;
    let data = DataSide::from_source(&source, &dataset).unwrap();
    let mut mech = LinearPmw::with_backend(config, data, backend, &mut rng).unwrap();

    // Ask the skewed-bit marginal repeatedly (truth ~0.9, uniform ~0.5):
    // the SV must fire and the update must pull answers toward the truth.
    let q0 = ImplicitQuery::marginal(vec![0], log2_x).unwrap();
    let mut last = f64::NAN;
    for _ in 0..4 {
        match mech.answer(&q0, &mut rng) {
            Ok(a) => last = a,
            Err(PmwError::Halted) => break,
            Err(e) => panic!("{e}"),
        }
    }
    assert!(
        mech.updates_used() >= 1,
        "the 0.4 gap must trigger at least one update"
    );
    assert!(
        (last - 0.9).abs() < 0.2,
        "answer {last} should approach the 0.9 truth"
    );
    // Fair bits answer near 0.5 (free, from the hypothesis).
    let q7 = ImplicitQuery::marginal(vec![7], log2_x).unwrap();
    if let Ok(a) = mech.answer(&q7, &mut rng) {
        assert!((a - 0.5).abs() < 0.25, "fair-bit answer {a}");
    }
    assert!(mech.updates_used() + mech.updates_remaining() == 6);
    let total = mech
        .accountant()
        .best_total(declared.delta() / 4.0)
        .unwrap();
    assert!(
        total.epsilon() <= declared.epsilon() + 1e-9,
        "spent {} declared {}",
        total.epsilon(),
        declared.epsilon()
    );
}

/// The pool-refresh knob exercised through a full MWEM run: resampling
/// happens on schedule and the refreshed pool still matches the retained
/// log exactly.
#[test]
fn mwem_with_pool_refresh_stays_consistent() {
    let log2_x = 14usize;
    let source = BigBitCube::new(log2_x).unwrap();
    let mut rng = StdRng::seed_from_u64(66);
    let data = skewed_rows(source.len(), 500, &mut rng);
    let queries = random_implicit_marginals(log2_x, 2, 6, &mut rng).unwrap();
    let backend = SampledBackend::new(
        source,
        SampledConfig {
            budget: 256,
            resample_every: 2,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let rounds = 6;
    let run = Mwem::new(rounds, 1.0)
        .unwrap()
        .run_with_backend(
            &queries,
            &DataSide::from_source(&source, &data).unwrap(),
            3.0,
            backend,
            &mut rng,
        )
        .unwrap();
    assert_eq!(run.state.resamples(), rounds / 2);
    assert_eq!(run.state.rounds(), rounds);
    // Spot-check: a fresh estimate on the refreshed pool still lands near
    // the exact (lazy-log) evaluation of the same state.
    let probe = ImplicitQuery::marginal(vec![0], log2_x).unwrap();
    let est = run.state.query_mean(&probe).unwrap();
    assert!(est.radius.is_finite() && est.radius > 0.0);
    assert!(est.value.is_finite() && (0.0..=1.0).contains(&est.value));
}
