//! Snapshot/commit split, read-side parity: a snapshot published mid-run
//! answers **bit-for-bit identically** to the live backend at the same
//! round, for both sketch backends — and stays immutable and sane while
//! the writer keeps updating, failing, and rolling back around it.

use pmw_core::update::dual_certificate_at;
use pmw_core::{DataSide, OnlinePmw, PmwConfig, PmwError, ReadSnapshot, StateBackend};
use pmw_data::workload::ImplicitQuery;
use pmw_data::{BooleanCube, Dataset, PointQuery, Universe};
use pmw_erm::ExactOracle;
use pmw_losses::{CmLoss, LinearQueryLoss, PointPredicate};
use pmw_sketch::{
    FaultPlan, FaultyBackend, FaultyOracle, LazyLogBackend, RoundUpdate, SampledBackend,
    SampledConfig, SketchError, UniversePoints,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const DIM: usize = 3;

/// A published snapshot plus the readings it gave at publication time
/// (`None` where the read honestly degraded).
type Published = (Vec<Option<u64>>, Arc<dyn ReadSnapshot>);

fn dataset() -> Dataset {
    let rows: Vec<usize> = (0..40).map(|i| [7usize, 7, 7, 1][i % 4]).collect();
    Dataset::from_indices(1 << DIM, rows).unwrap()
}

fn config(alpha: f64) -> PmwConfig {
    PmwConfig::builder(1.0, 1e-6, alpha)
        .k(10)
        .scale(1.0)
        .rounds_override(4)
        .solver_iters(60)
        .build()
        .unwrap()
}

fn bit_loss(bit: usize) -> LinearQueryLoss {
    LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, DIM).unwrap()
}

fn bit_query(bit: usize) -> ImplicitQuery {
    ImplicitQuery::threshold(bit, 0.5, DIM).unwrap()
}

/// Bitwise comparison of a snapshot's reads against the live sampled
/// backend (over a `dim`-bit cube) at the same round: query means (value,
/// radius, beta) and the claimed read radius.
fn assert_sampled_snapshot_matches_live(
    backend: &SampledBackend<UniversePoints<BooleanCube>>,
    dim: usize,
    round: usize,
) {
    let snapshot = backend.publish_snapshot().unwrap();
    assert_eq!(snapshot.updates_recorded(), backend.updates_recorded());
    assert_eq!(snapshot.universe_size(), backend.universe_size());
    assert_eq!(snapshot.pool_size(), backend.pool_size());

    for bit in 0..dim {
        let query = ImplicitQuery::threshold(bit, 0.5, dim).unwrap();
        let live = backend.query_mean(&query as &dyn PointQuery);
        let snap = snapshot.expected_query_value(&query as &dyn PointQuery, None);
        match (live, snap) {
            (Ok(live), Ok(snap)) => {
                assert_eq!(
                    live.value.to_bits(),
                    snap.value.to_bits(),
                    "round {round} bit {bit}: snapshot query value diverged"
                );
                assert_eq!(live.radius.to_bits(), snap.radius.to_bits());
                assert_eq!(live.beta.to_bits(), snap.beta.to_bits());
            }
            // A degraded read (radius past the usable threshold) must
            // degrade identically through the snapshot.
            (Err(SketchError::Degraded(a)), Err(PmwError::Degraded(b))) => assert_eq!(a, b),
            (live, snap) => {
                panic!("round {round} bit {bit}: live {live:?} vs snapshot {snap:?}")
            }
        }
    }

    let live_radius = backend.read_radius(1.0);
    let snap_radius = snapshot.read_radius(1.0);
    assert_eq!(live_radius.to_bits(), snap_radius.to_bits());
}

#[test]
fn sampled_snapshot_reads_are_bitwise_live_at_every_round() {
    let cube = BooleanCube::new(DIM).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let sk = SampledConfig {
        budget: 6,
        resample_every: 3,
        ..SampledConfig::default()
    };
    let backend = SampledBackend::new(UniversePoints(cube.clone()), sk, &mut rng).unwrap();
    let mut mech = OnlinePmw::with_backend(
        config(0.05),
        DataSide::from_universe(&cube, &dataset()).unwrap(),
        ExactOracle::default(),
        backend,
        &mut rng,
    )
    .unwrap();

    // Round 0 (uniform state) and then mid-run after every answer.
    assert_sampled_snapshot_matches_live(mech.state(), DIM, 0);
    let mut snapshots: Vec<(usize, Arc<dyn ReadSnapshot>)> = Vec::new();
    for q in 0..8usize {
        let loss = bit_loss(q % DIM);
        match mech.answer(&loss, &mut rng) {
            Ok(_) | Err(PmwError::Halted) => {}
            Err(e) => panic!("unexpected error: {e:?}"),
        }
        assert_sampled_snapshot_matches_live(mech.state(), DIM, q + 1);
        snapshots.push((mech.updates_used(), mech.state().snapshot().unwrap()));
        if mech.has_halted() {
            break;
        }
    }
    assert!(mech.updates_used() > 0, "no update ever committed");

    // Old snapshots are frozen: each still reports the round it was
    // published at, even after later updates moved the live state on.
    for (round, snap) in &snapshots {
        assert_eq!(snap.updates_recorded(), *round);
        let est = snap
            .expected_query_value(&bit_query(0) as &dyn PointQuery, None)
            .unwrap();
        assert!(est.value.is_finite() && est.radius >= 0.0);
    }
}

/// The live certificate mean against the same integrand read through a
/// published snapshot's `estimate_mean`: value, radius and beta
/// bit-for-bit.
fn assert_certificate_matches_live(
    backend: &SampledBackend<UniversePoints<BooleanCube>>,
    loss: &LinearQueryLoss,
    theta: (f64, f64),
) {
    let (t_o, t_h) = ([theta.0], [theta.1]);
    let live = backend.certificate_mean(loss, &t_o, &t_h).unwrap();
    let snapshot = backend.publish_snapshot().unwrap();
    let mut grad = vec![0.0; loss.dim()];
    let snap = snapshot
        .estimate_mean("certificate-mean", loss.scale_bound(), &mut |_, point| {
            dual_certificate_at(loss, point, &t_o, &t_h, &mut grad)
        })
        .unwrap();
    assert_eq!(live.value.to_bits(), snap.value.to_bits());
    assert_eq!(live.radius.to_bits(), snap.radius.to_bits());
    assert_eq!(live.beta.to_bits(), snap.beta.to_bits());
}

/// Live-vs-snapshot parity at a real pool size: budget 2048 over a 2^12
/// universe, so every SNIS sum and moment runs over thousands of slots.
/// Checked after each of several records, after an explicit resample, and
/// after an escalation-ladder growth to the whole universe — the last two
/// rebuild the pool through the log replay.
#[test]
fn sampled_snapshot_reads_are_bitwise_live_at_budget_2048() {
    const BIG: usize = 12;
    let cube = BooleanCube::new(BIG).unwrap();
    let loss = |bit: usize| {
        LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, BIG).unwrap()
    };
    let update = |bit: usize, t_o: f64, t_h: f64, eta: f64| {
        RoundUpdate::new(
            Arc::new(loss(bit)) as Arc<dyn CmLoss>,
            vec![t_o],
            vec![t_h],
            eta,
        )
        .unwrap()
    };
    let steps = [
        (0usize, 0.9, 0.4, 0.7),
        (5, 0.15, 0.6, 0.5),
        (7, 0.8, 0.2, 0.9),
        (11, 0.3, 0.55, 0.6),
    ];
    let mut rng = StdRng::seed_from_u64(2048);
    let sk = SampledConfig {
        budget: 2048,
        ..SampledConfig::default()
    };
    let mut backend = SampledBackend::new(UniversePoints(cube.clone()), sk, &mut rng).unwrap();
    assert_eq!(backend.pool_size(), 2048);
    for (i, &(bit, t_o, t_h, eta)) in steps.iter().enumerate() {
        backend.record(update(bit, t_o, t_h, eta)).unwrap();
        assert_sampled_snapshot_matches_live(&backend, BIG, i + 1);
        assert_certificate_matches_live(&backend, &loss(bit), (t_o, t_h));
    }
    backend.resample(&mut rng).unwrap();
    assert_eq!(backend.resamples(), 1);
    assert_sampled_snapshot_matches_live(&backend, BIG, steps.len());
    assert_certificate_matches_live(&backend, &loss(3), (0.85, 0.15));

    // The escalation ladder's config at this scale: an unusably tight
    // threshold and a growth cap past |X|, so the round's emergency
    // resample fails to help and one doubling reaches the whole universe.
    let sk = SampledConfig {
        budget: 2048,
        max_usable_radius: 1e-9,
        growth_cap: 1 << 13,
        ..SampledConfig::default()
    };
    let mut ladder = SampledBackend::new(UniversePoints(cube.clone()), sk, &mut rng).unwrap();
    for &(bit, t_o, t_h, eta) in &steps {
        ladder.record(update(bit, t_o, t_h, eta)).unwrap();
    }
    let q = ImplicitQuery::marginal(vec![0], BIG).unwrap();
    StateBackend::apply_query_update(&mut ladder, &q, None, 1.0, 0.4, None, &mut rng).unwrap();
    assert_eq!((ladder.escalations(), ladder.pool_growths()), (1, 1));
    assert!(ladder.is_exhaustive());
    assert_eq!(ladder.pool_size(), cube.size());
    assert_sampled_snapshot_matches_live(&ladder, BIG, steps.len() + 1);
    assert_certificate_matches_live(&ladder, &loss(3), (0.85, 0.15));
}

#[test]
fn lazy_snapshot_reads_are_bitwise_live_at_every_round() {
    let cube = BooleanCube::new(4).unwrap();
    let mut lazy = LazyLogBackend::new(UniversePoints(cube.clone())).unwrap();
    let steps = [
        (0usize, 0.9, 0.4, 0.7),
        (1, 0.1, 0.6, 0.5),
        (2, 0.8, 0.2, 1.1),
    ];
    for (i, &(bit, t_o, t_h, eta)) in steps.iter().enumerate() {
        let loss =
            LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, 4).unwrap();
        lazy.record(
            RoundUpdate::new(Arc::new(loss) as Arc<dyn CmLoss>, vec![t_o], vec![t_h], eta).unwrap(),
        )
        .unwrap();

        let snapshot = lazy.snapshot();
        assert_eq!(snapshot.rounds(), i + 1);
        assert_eq!(snapshot.universe_size(), cube.size());
        for b in 0..4 {
            let query = ImplicitQuery::threshold(b, 0.5, 4).unwrap();
            let live = lazy
                .expected_query_value(&query as &dyn PointQuery)
                .unwrap();
            let snap = snapshot
                .expected_query_value(&query as &dyn PointQuery, None)
                .unwrap();
            assert_eq!(
                live.to_bits(),
                snap.value.to_bits(),
                "round {i} bit {b}: lazy snapshot diverged from live sweep"
            );
            assert_eq!(snap.radius, 0.0, "the lazy sweep is exact");
            assert_eq!(snap.beta, 0.0);
        }
        // Frozen prefix: log-weights agree element-wise with the live log
        // at publication time.
        for x in 0..cube.size() {
            assert_eq!(
                snapshot.log_weight_of(x).unwrap().to_bits(),
                lazy.log_weight_of(x).unwrap().to_bits()
            );
        }
    }

    // A snapshot taken at round 1 must not see later rounds.
    let mut lazy2 = LazyLogBackend::new(UniversePoints(cube.clone())).unwrap();
    let loss = LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![0] }, 4).unwrap();
    lazy2
        .record(
            RoundUpdate::new(Arc::new(loss) as Arc<dyn CmLoss>, vec![0.9], vec![0.4], 0.7).unwrap(),
        )
        .unwrap();
    let early = lazy2.snapshot();
    let frozen: Vec<u64> = (0..cube.size())
        .map(|x| early.log_weight_of(x).unwrap().to_bits())
        .collect();
    let loss2 = LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![1] }, 4).unwrap();
    lazy2
        .record(
            RoundUpdate::new(
                Arc::new(loss2) as Arc<dyn CmLoss>,
                vec![0.2],
                vec![0.6],
                0.9,
            )
            .unwrap(),
        )
        .unwrap();
    assert_eq!(early.rounds(), 1);
    for (x, want) in frozen.iter().enumerate() {
        assert_eq!(
            early.log_weight_of(x).unwrap().to_bits(),
            *want,
            "published lazy snapshot changed after a later record"
        );
    }
}

/// 25 seeded fault plans: whatever the faulty writer does — injected
/// estimate faults, NaN radii, oracle failures, rollbacks — snapshots
/// published from the *inner* (transactional) backend stay sane and
/// bitwise-consistent with the live state, and previously published
/// snapshots never change underneath their holders.
#[test]
fn writer_faults_never_corrupt_published_snapshots() {
    let cube = BooleanCube::new(DIM).unwrap();
    let data = dataset();
    let mut plans_exercised = 0;
    for seed in 0..25u64 {
        let plan = FaultPlan::seeded(seed);
        let mut rng = StdRng::seed_from_u64(9000 + seed);
        let sk = SampledConfig {
            budget: 5,
            resample_every: 2,
            ess_floor: 0.25,
            max_usable_radius: 0.75,
            growth_cap: 16,
            ..SampledConfig::default()
        };
        let backend = match SampledBackend::new(UniversePoints(cube.clone()), sk, &mut rng) {
            Ok(b) => b,
            Err(_) => continue,
        };
        let mut mech = OnlinePmw::with_backend(
            config(0.2),
            DataSide::from_universe(&cube, &data).unwrap(),
            FaultyOracle::new(ExactOracle::default(), plan.oracle),
            FaultyBackend::new(backend, plan),
            &mut rng,
        )
        .unwrap();
        plans_exercised += 1;

        let mut published: Vec<Published> = Vec::new();
        for q in 0..10usize {
            match mech.answer(&bit_loss(q % DIM), &mut rng) {
                Ok(_) | Err(_) => {}
            }
            if mech.state().inner().is_poisoned() {
                break;
            }
            // Publish from the inner transactional backend: the rolled-
            // back, consistent state — bitwise equal to its live reads.
            assert_sampled_snapshot_matches_live(mech.state().inner(), DIM, q);
            let snap: Arc<dyn ReadSnapshot> = mech.state().inner().snapshot().unwrap();
            let readings: Vec<Option<u64>> = (0..DIM)
                .map(|b| {
                    match snap.expected_query_value(&bit_query(b) as &dyn PointQuery, None) {
                        Ok(est) => {
                            assert!(est.value.is_finite(), "seed {seed}: corrupted snapshot");
                            assert!(est.radius.is_finite() && est.radius >= 0.0);
                            Some(est.value.to_bits())
                        }
                        // An honestly degraded read is not corruption —
                        // the snapshot refused, it did not lie.
                        Err(PmwError::Degraded(_)) => None,
                        Err(e) => panic!("seed {seed}: unexpected snapshot error {e:?}"),
                    }
                })
                .collect();
            published.push((readings, snap));
            if mech.has_halted() {
                break;
            }
        }
        // Immutability under continued writer activity (including the
        // faults and rollbacks above): every published snapshot still
        // answers exactly what it answered at publication time.
        for (expected, snap) in &published {
            for (b, want) in expected.iter().enumerate() {
                let now = snap
                    .expected_query_value(&bit_query(b) as &dyn PointQuery, None)
                    .ok()
                    .map(|est| est.value.to_bits());
                assert_eq!(
                    now, *want,
                    "seed {seed}: a published snapshot changed after publication"
                );
            }
        }
    }
    assert!(
        plans_exercised >= 20,
        "only {plans_exercised} of 25 fault plans ran"
    );
}
