//! Observability suite: the probe layer against the sketch-backed
//! mechanisms.
//!
//! Two guarantees are pinned here:
//!
//! * **Zero cost when off, zero interference when on**: a probed run
//!   (mechanism and backend both reporting through a live
//!   [`SummaryProbe`]) produces bit-for-bit the answers, transcript, and
//!   rng stream of the unprobed run — the probe only listens.
//! * **Transcript ordering**: backend self-maintenance events (adaptive
//!   resamples, escalation rungs, rollbacks) arrive through
//!   [`StateBackend::take_events`] in execution order, on successful and
//!   failed rounds alike.

use pmw_core::{BackendEvent, DataSide, OnlinePmw, PmwConfig, PmwError, StateBackend};
use pmw_data::{BooleanCube, Dataset, ImplicitQuery};
use pmw_erm::ExactOracle;
use pmw_losses::{LinearQueryLoss, PointPredicate};
use pmw_obs::{Counter, Phase, SummaryProbe};
use pmw_sketch::{SampledBackend, SampledConfig, UniversePoints};
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
    // Non-exhaustive pool with every maintenance knob live, so the probed
    // run crosses the instrumented resample/escalation paths too.
    SampledConfig {
        budget: 5,
        resample_every: 2,
        ess_floor: 0.25,
        max_usable_radius: 0.75,
        growth_cap: 16,
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
    assert_eq!(mech_a.state().min_ess(), mech_b.state().min_ess());
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

/// Mixed maintenance sequences arrive in execution order: the adaptive
/// (ESS-floor) resample first, then the escalation ladder's emergency
/// resample, then each pool growth with strictly increasing sizes.
#[test]
fn maintenance_events_arrive_in_execution_order() {
    let dim = 10;
    let cube = BooleanCube::new(dim).unwrap();
    let mut rng = StdRng::seed_from_u64(97);
    let mut sketch = SampledBackend::new(
        UniversePoints(cube),
        SampledConfig {
            budget: 16,
            ess_floor: 0.9,
            max_usable_radius: 1e-9,
            growth_cap: 1 << dim,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    // One hard round: the update collapses the pool's ESS (adaptive
    // resample), the unusably tight radius threshold then runs the whole
    // ladder, and growth only stops at the exhaustive pool.
    let q = ImplicitQuery::marginal(vec![0], dim).unwrap();
    StateBackend::apply_query_update(&mut sketch, &q, None, 1.0, 8.0, None, &mut rng).unwrap();
    assert!(sketch.is_exhaustive(), "growth must reach the universe");

    let events = StateBackend::take_events(&mut sketch);
    assert!(
        matches!(
            events.as_slice(),
            [
                BackendEvent::AdaptiveResample { round: 1, .. },
                BackendEvent::EmergencyResample { round: 1, .. },
                BackendEvent::PoolGrowth { round: 1, .. },
                ..
            ]
        ),
        "{events:?}"
    );
    let sizes: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            BackendEvent::PoolGrowth { new_size, .. } => Some(*new_size),
            _ => None,
        })
        .collect();
    assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
    assert_eq!(sizes.last(), Some(&(1 << dim)));
    assert_eq!(events.len(), 2 + sizes.len());
}

/// A failed round's maintenance events survive the transactional rollback
/// in execution order, closed by the explicit rollback marker — the
/// escalation that *caused* a `Degraded` failure is never lost.
#[test]
fn failed_round_keeps_its_events_in_order_before_the_rollback_marker() {
    let dim = 10;
    let cube = BooleanCube::new(dim).unwrap();
    let mut rng = StdRng::seed_from_u64(101);
    let mut sketch = SampledBackend::new(
        UniversePoints(cube),
        SampledConfig {
            budget: 16,
            ess_floor: 0.9,
            max_usable_radius: 1e-9,
            growth_cap: 0, // rung 2 disabled: the ladder must fail
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let q = ImplicitQuery::marginal(vec![0], dim).unwrap();
    let err = StateBackend::apply_query_update(&mut sketch, &q, None, 1.0, 8.0, None, &mut rng)
        .unwrap_err();
    assert!(matches!(err, PmwError::Degraded(_)), "{err:?}");
    assert_eq!(sketch.rounds(), 0, "the failed round rolled back");
    assert!(!sketch.is_poisoned());

    let events = StateBackend::take_events(&mut sketch);
    assert!(
        matches!(
            events.as_slice(),
            [
                BackendEvent::AdaptiveResample { round: 1, .. },
                BackendEvent::EmergencyResample { round: 1, .. },
                BackendEvent::RoundRolledBack { round: 1 },
            ]
        ),
        "{events:?}"
    );
    assert!(StateBackend::take_events(&mut sketch).is_empty());
}
