//! Snapshot/commit split, read-side parity: a snapshot published mid-run
//! reads **bit-for-bit** what the live state reads at the same round — its
//! read margin is the live backend's, its `θ̂` is another snapshot's of the
//! same round and, on a free round, the mechanism's answer — and it stays
//! immutable and sane while the writer keeps updating, failing, and
//! rolling back around it.

use pmw_core::{DataSide, OnlinePmw, PmwConfig, PmwError, ReadSnapshot, StateBackend};
use pmw_data::workload::ImplicitQuery;
use pmw_data::{BooleanCube, Dataset, PointMatrix, Universe};
use pmw_erm::ExactOracle;
use pmw_losses::{CmLoss, LinearQueryLoss, PointPredicate};
use pmw_sketch::{
    FaultPlan, FaultyBackend, FaultyOracle, RoundUpdate, SampledBackend, SampledConfig,
    UniversePoints,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const DIM: usize = 3;
const SOLVER_ITERS: usize = 60;

/// A published snapshot plus the bits it read at publication time.
type Published = (Vec<u64>, Arc<dyn ReadSnapshot>);

fn dataset() -> Dataset {
    let rows: Vec<usize> = (0..40).map(|i| [7usize, 7, 7, 1][i % 4]).collect();
    Dataset::from_indices(1 << DIM, rows).unwrap()
}

fn config(alpha: f64) -> PmwConfig {
    PmwConfig::builder(1.0, 1e-6, alpha)
        .k(10)
        .scale(1.0)
        .rounds_override(4)
        .solver_iters(SOLVER_ITERS)
        .build()
        .unwrap()
}

fn bit_loss(bit: usize, dim: usize) -> LinearQueryLoss {
    LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, dim).unwrap()
}

/// A snapshot's reads as bits: `θ̂` for every single-bit loss of a
/// `dim`-bit cube, then the unit-scale read margin.
fn read_bits(snapshot: &dyn ReadSnapshot, dim: usize, points: &PointMatrix) -> Vec<u64> {
    let mut bits = Vec::new();
    for bit in 0..dim {
        let theta = snapshot
            .hypothesis_minimizer(&bit_loss(bit, dim), points, SOLVER_ITERS)
            .unwrap();
        assert!(theta.iter().all(|v| v.is_finite()), "non-finite θ̂");
        bits.extend(theta.iter().map(|v| v.to_bits()));
    }
    let margin = snapshot.read_radius(1.0);
    assert!(
        margin.is_finite() && margin >= 0.0,
        "bad read margin {margin}"
    );
    bits.push(margin.to_bits());
    bits
}

/// Bitwise comparison of a snapshot's reads at the sampled backend's
/// current round (over a `dim`-bit cube): the read margin against the live
/// backend's, and `θ̂` against a snapshot re-published at the same round.
/// The first snapshot is published before the live read and the second
/// after it, so when a write has left the pool's weights unnormalized, one
/// normalizes them itself and the other copies what the live read cached.
fn assert_sampled_snapshot_matches_live(
    backend: &SampledBackend<UniversePoints<BooleanCube>>,
    dim: usize,
    round: usize,
) {
    let points = BooleanCube::new(dim).unwrap().materialize();
    let snapshot = backend.publish_snapshot().unwrap();
    assert_eq!(snapshot.updates_recorded(), backend.updates_recorded());
    assert_eq!(snapshot.pool_size(), backend.pool_size());

    let live_radius = backend.read_radius(1.0);
    let republished = backend.publish_snapshot().unwrap();
    let bits = read_bits(&snapshot, dim, &points);
    assert_eq!(
        bits,
        read_bits(&republished, dim, &points),
        "round {round}: two snapshots of one round read different bits"
    );
    assert_eq!(
        bits.last(),
        Some(&live_radius.to_bits()),
        "round {round}: snapshot read margin diverged from the live backend's"
    );
}

#[test]
fn sampled_snapshot_reads_are_bitwise_live_at_every_round() {
    let cube = BooleanCube::new(DIM).unwrap();
    let points = cube.materialize();
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
    let mut free_rounds = 0;
    for q in 0..8usize {
        let loss = bit_loss(q % DIM, DIM);
        let updates = mech.updates_used();
        match mech.answer(&loss, &mut rng) {
            // A free answer is θ̂ on a snapshot of the unchanged state.
            Ok(answer) if mech.updates_used() == updates => {
                free_rounds += 1;
                let theta = mech
                    .state()
                    .snapshot()
                    .unwrap()
                    .hypothesis_minimizer(&loss, &points, SOLVER_ITERS)
                    .unwrap();
                assert_eq!(
                    answer.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    theta.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "answer {q}: free answer diverged from the snapshot's θ̂"
                );
            }
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
    assert!(free_rounds > 0, "no free answer to compare against");

    // Old snapshots are frozen: each still reports the round it was
    // published at, even after later updates moved the live state on.
    for (round, snap) in &snapshots {
        assert_eq!(snap.updates_recorded(), *round);
        read_bits(snap.as_ref(), DIM, &points);
    }
}

/// Live-vs-snapshot parity at a real pool size: budget 2048 over a 2^12
/// universe, so every SNIS sum runs over thousands of slots. Checked after
/// each of several records, after an explicit resample, and after an
/// escalation-ladder growth to the whole universe — the last two rebuild
/// the pool through the log replay.
#[test]
fn sampled_snapshot_reads_are_bitwise_live_at_budget_2048() {
    const BIG: usize = 12;
    let cube = BooleanCube::new(BIG).unwrap();
    let update = |bit: usize, t_o: f64, t_h: f64, eta: f64| {
        RoundUpdate::new(
            Arc::new(bit_loss(bit, BIG)) as Arc<dyn CmLoss>,
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
    }
    backend.resample(&mut rng).unwrap();
    assert_eq!(backend.resamples(), 1);
    assert_sampled_snapshot_matches_live(&backend, BIG, steps.len());

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
}

/// 25 seeded fault plans: whatever the faulty writer does — injected
/// update faults, NaN radii, oracle failures, rollbacks — snapshots
/// published from the *inner* (transactional) backend stay sane and
/// bitwise-consistent with the live state, and previously published
/// snapshots never change underneath their holders.
#[test]
fn writer_faults_never_corrupt_published_snapshots() {
    let cube = BooleanCube::new(DIM).unwrap();
    let points = cube.materialize();
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
            match mech.answer(&bit_loss(q % DIM, DIM), &mut rng) {
                Ok(_) | Err(_) => {}
            }
            if mech.state().inner().is_poisoned() {
                break;
            }
            // Publish from the inner transactional backend: the rolled-
            // back, consistent state — bitwise equal to its live reads.
            assert_sampled_snapshot_matches_live(mech.state().inner(), DIM, q);
            let snap: Arc<dyn ReadSnapshot> = mech.state().inner().snapshot().unwrap();
            published.push((read_bits(snap.as_ref(), DIM, &points), snap));
            if mech.has_halted() {
                break;
            }
        }
        // Immutability under continued writer activity (including the
        // faults and rollbacks above): every published snapshot still
        // reads exactly the θ̂ and read-margin bits it read at publication.
        for (expected, snap) in &published {
            assert_eq!(
                &read_bits(snap.as_ref(), DIM, &points),
                expected,
                "seed {seed}: a published snapshot changed after publication"
            );
        }
    }
    assert!(
        plans_exercised >= 20,
        "only {plans_exercised} of 25 fault plans ran"
    );
}
