//! Observability suite: the probe layer against the sketch-backed
//! mechanisms.
//!
//! Two guarantees are pinned here:
//!
//! * **Zero cost when off, zero interference when on**: a probed run
//!   (mechanism and backend both reporting through a live
//!   [`SummaryProbe`]) produces bit-for-bit the answers, transcript, and
//!   rng stream of the unprobed run — the probe only listens.
//! * **Rollback reporting**: a failed round's rollback reaches
//!   [`StateBackend::take_events`] as one marker, and the backend stays
//!   usable.

use pmw_core::{BackendEvent, DataSide, OnlinePmw, PmwConfig, PmwError, StateBackend};
use pmw_data::{BooleanCube, Dataset, ImplicitQuery};
use pmw_erm::ExactOracle;
use pmw_losses::{LinearQueryLoss, PointPredicate};
use pmw_obs::{Counter, Phase, SummaryProbe};
use pmw_sketch::{FaultRule, FaultySource, SampledBackend, SampledConfig, UniversePoints};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const DIM: usize = 3;

fn dataset() -> Dataset {
    let rows: Vec<usize> = (0..40).map(|i| [7usize, 7, 7, 1][i % 4]).collect();
    Dataset::from_indices(1 << DIM, rows).unwrap()
}

fn config() -> PmwConfig {
    PmwConfig::builder(1.0, 1e-6, 0.05)
        .k(20)
        .scale(1.0)
        .rounds_override(3)
        .solver_iters(60)
        .build()
        .unwrap()
}

fn sampled_config() -> SampledConfig {
    // Non-exhaustive pool redrawn every second round, so the probed run
    // crosses the instrumented resample path too.
    SampledConfig {
        budget: 5,
        resample_every: 2,
        ..SampledConfig::default()
    }
}

fn bit_loss(bit: usize) -> LinearQueryLoss {
    LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, DIM).unwrap()
}

/// The probe is a pure listener: running the online mechanism with a live
/// [`SummaryProbe`] on both the mechanism and its sampled backend leaves
/// every answer, every transcript record, and the shared rng stream
/// bit-for-bit identical to the unprobed run.
#[test]
fn probed_run_is_bit_for_bit_identical_to_the_unprobed_run() {
    let cube = BooleanCube::new(DIM).unwrap();

    // Unprobed reference run.
    let mut rng_a = StdRng::seed_from_u64(91);
    let backend_a =
        SampledBackend::new(UniversePoints(cube.clone()), sampled_config(), &mut rng_a).unwrap();
    let mut mech_a = OnlinePmw::with_backend(
        config(),
        DataSide::from_universe(&cube, &dataset()).unwrap(),
        ExactOracle::default(),
        backend_a,
        &mut rng_a,
    )
    .unwrap();
    let mut outcomes_a = Vec::new();
    for q in 0..12 {
        match mech_a.answer(&bit_loss(q % DIM), &mut rng_a) {
            Ok(theta) => outcomes_a.push(Ok(theta)),
            Err(e) => outcomes_a.push(Err(format!("{e:?}"))),
        }
    }

    // Probed run: the same probe observes the mechanism and the backend.
    let probe = SummaryProbe::new("online-pmw", "parity");
    let mut rng_b = StdRng::seed_from_u64(91);
    let backend_b = SampledBackend::with_probe(
        UniversePoints(cube.clone()),
        sampled_config(),
        &probe,
        &mut rng_b,
    )
    .unwrap();
    let mut mech_b = OnlinePmw::with_backend(
        config(),
        DataSide::from_universe(&cube, &dataset()).unwrap(),
        ExactOracle::default(),
        backend_b,
        &mut rng_b,
    )
    .unwrap();
    let mut outcomes_b = Vec::new();
    for q in 0..12 {
        match mech_b.answer_with_probe(&bit_loss(q % DIM), &mut rng_b, &probe) {
            Ok(theta) => outcomes_b.push(Ok(theta)),
            Err(e) => outcomes_b.push(Err(format!("{e:?}"))),
        }
    }

    // Bit-for-bit: answers (f64 equality), transcript, ledgers, and the
    // rng streams both runs leave behind.
    assert_eq!(outcomes_a, outcomes_b);
    assert_eq!(mech_a.updates_used(), mech_b.updates_used());
    assert_eq!(
        mech_a.transcript().records().len(),
        mech_b.transcript().records().len()
    );
    assert_eq!(
        format!("{:?}", mech_a.transcript().backend_events()),
        format!("{:?}", mech_b.transcript().backend_events())
    );
    assert_eq!(mech_a.accountant().len(), mech_b.accountant().len());
    assert_eq!(mech_a.state().health(), mech_b.state().health());
    assert_eq!(mech_a.state().resamples(), mech_b.state().resamples());
    drop(mech_a);
    drop(mech_b);
    assert_eq!(
        rng_a.random_range(0..u64::MAX),
        rng_b.random_range(0..u64::MAX),
        "probed run consumed a different number of rng draws"
    );

    // The comparison was non-trivial: the probe really was live and saw
    // mechanism phases, backend phases, and round outcomes.
    let summary = probe.finish();
    // Queries rejected before the round clock starts (halted mechanism,
    // exhausted query limit) open no round span.
    let pre_check_rejects = outcomes_b
        .iter()
        .filter(|o| matches!(o, Err(s) if s == "Halted" || s == "QueryLimitReached"))
        .count() as u64;
    assert_eq!(summary.rounds, 12 - pre_check_rejects);
    assert!(summary.rounds >= 1);
    assert!(summary
        .phases
        .iter()
        .any(|(p, _)| *p == Phase::HypothesisSolve));
    assert!(summary.phases.iter().any(|(p, _)| *p == Phase::SvScreen));
    assert!(summary.phases.iter().any(|(p, _)| *p == Phase::PoolSweep));
    assert!(summary
        .counters
        .iter()
        .any(|&(c, n)| c == Counter::UpdateRounds && n > 0));
}

/// A round whose cadence resample reads a NaN point rolls back: the pool
/// is restored, the backend is not poisoned, and the drain holds exactly
/// the rollback marker — a failing round queues no event of its own.
#[test]
fn failed_round_keeps_its_events_in_order_before_the_rollback_marker() {
    let dim = 10;
    let budget = 16;
    let cube = BooleanCube::new(dim).unwrap();
    let mut rng = StdRng::seed_from_u64(101);
    // Construction reads one point a slot, so the fault lands on the first
    // point the first resample reads (the chaos suite's
    // `Once(init_reads + 1)`).
    let source = FaultySource::new(UniversePoints(cube), FaultRule::Once(budget as u64 + 1));
    let mut sketch = SampledBackend::new(
        source,
        SampledConfig {
            budget,
            resample_every: 1,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let q = ImplicitQuery::marginal(vec![0], dim).unwrap();
    let err = StateBackend::apply_query_update(&mut sketch, &q, None, 1.0, 8.0, None, &mut rng)
        .unwrap_err();
    assert!(matches!(err, PmwError::LossMismatch(_)), "{err:?}");
    assert_eq!(sketch.rounds(), 0, "the failed round rolled back");
    assert_eq!(sketch.resamples(), 0);
    assert!(!sketch.is_poisoned());

    let events = StateBackend::take_events(&mut sketch);
    assert_eq!(events, [BackendEvent::RoundRolledBack { round: 1 }]);
    assert!(StateBackend::take_events(&mut sketch).is_empty());
}
