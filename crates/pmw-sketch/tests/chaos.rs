//! Chaos suite: the sketch-backed mechanisms under deterministic fault
//! injection.
//!
//! Every test drives a full mechanism with seeded [`FaultPlan`] schedules
//! wrapping the oracle, the state backend, and the point source, and
//! asserts the invariants that must survive **any** failure schedule:
//!
//! * privacy budget is never overspent, and the accountant ledger never
//!   desyncs from the round counters;
//! * SV tops, `updates_used`, and the transcript agree on every exit path
//!   (the burn-the-round discipline);
//! * the β (estimation-failure) ledger stays conservative — entries from
//!   failed rounds persist, never vanish;
//! * backend state is never half-updated: a failed round rolls back
//!   completely, the pool stays internally consistent, and the fail-closed
//!   poison guard never trips under recoverable faults.

use pmw_core::{BackendEvent, DataSide, OnlinePmw, PmwConfig, PmwError, StateBackend};
use pmw_data::{BooleanCube, Dataset, ImplicitQuery};
use pmw_erm::ExactOracle;
use pmw_losses::{LinearQueryLoss, PointPredicate};
use pmw_sketch::{
    FaultPlan, FaultRule, FaultyBackend, FaultyOracle, FaultySource, PointSource, SampledBackend,
    SampledConfig, UniversePoints,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const DIM: usize = 3;

fn dataset() -> Dataset {
    // Skewed toward x = 7 so single-bit queries carry real signal.
    let rows: Vec<usize> = (0..40).map(|i| [7usize, 7, 7, 1][i % 4]).collect();
    Dataset::from_indices(1 << DIM, rows).unwrap()
}

fn robust_sampled_config() -> SampledConfig {
    // Small non-exhaustive pool redrawn every second round, so source
    // faults also land in cadence resamples alongside the other injected
    // faults.
    SampledConfig {
        budget: 5,
        resample_every: 2,
        ..SampledConfig::default()
    }
}

/// Pool-health and β-ledger invariants on the inner sampled backend.
fn check_backend<S: PointSource>(sampled: &SampledBackend<S>, updates_used: usize) {
    assert!(
        !sampled.is_poisoned(),
        "recoverable faults must never trip the fail-closed poison guard"
    );
    // Rolled-back rounds are burned by the mechanism but absent from the
    // backend log — never the other way around.
    assert!(
        sampled.updates_recorded() <= updates_used,
        "backend recorded {} rounds but the mechanism burned only {updates_used}",
        sampled.updates_recorded()
    );
    let h = sampled.health();
    assert!(h.ess.is_finite() && h.ess >= 0.0, "ESS corrupted: {h:?}");
    assert!((0.0..=1.0).contains(&h.ess_fraction), "{h:?}");
    assert!((0.0..=1.0).contains(&h.max_weight_share), "{h:?}");
    assert!(h.drift_bound.is_finite() && h.drift_bound >= 0.0, "{h:?}");
    // The β ledger is conservative: sanitized, non-negative entries only
    // (failed rounds keep their entries — an over-count, never an under-).
    for r in sampled.ledger().records() {
        assert!(r.radius >= 0.0, "negative ledgered radius in {r:?}");
        assert!(r.beta >= 0.0 && r.beta.is_finite(), "bad beta in {r:?}");
    }
}

/// A sampled backend's ledger records, for bitwise comparison.
fn ledger_records<S: PointSource>(sampled: &SampledBackend<S>) -> Vec<String> {
    sampled
        .ledger()
        .records()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect()
}

fn check_events(events: &[BackendEvent]) {
    for e in events {
        match e {
            BackendEvent::RoundRolledBack { round } => {
                assert!(*round >= 1);
            }
            BackendEvent::Compaction {
                round,
                folded_rounds,
                checkpoint_points: _,
                folded_drift,
            } => {
                assert!(*round >= 1);
                assert!(*folded_rounds >= 1);
                assert!(folded_drift.is_finite() && *folded_drift >= 0.0);
            }
        }
        // Every event renders a one-line human-readable summary.
        assert!(!e.to_string().is_empty() && !e.to_string().contains('\n'));
    }
}

#[test]
fn online_pmw_invariants_hold_under_every_seeded_fault_plan() {
    let cube = BooleanCube::new(DIM).unwrap();
    let data = dataset();
    let eps = 1.0;
    let delta = 1e-6;
    let mut seeds_run = 0;
    let mut faults_injected = 0u64;
    for seed in 0..24u64 {
        let plan = FaultPlan::seeded(seed);
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        // A source fault during initial pool construction fails fast and
        // loudly — a valid chaos outcome; the mechanism never exists, so
        // no budget was spent and no state can desync.
        let backend = match SampledBackend::new(
            FaultySource::new(UniversePoints(cube.clone()), plan.source),
            robust_sampled_config(),
            &mut rng,
        ) {
            Ok(b) => b,
            Err(e) => {
                assert!(matches!(e, pmw_sketch::SketchError::NonFinite(_)), "{e:?}");
                continue;
            }
        };
        seeds_run += 1;
        let config = PmwConfig::builder(eps, delta, 0.2)
            .k(10)
            .scale(1.0)
            .rounds_override(4)
            .solver_iters(40)
            .build()
            .unwrap();
        let mut mech = OnlinePmw::with_backend(
            config,
            DataSide::from_universe(&cube, &data).unwrap(),
            FaultyOracle::new(ExactOracle::default(), plan.oracle),
            FaultyBackend::new(backend, plan),
            &mut rng,
        )
        .unwrap();
        let rounds_declared = mech.derived().rounds;

        for q in 0..10usize {
            let loss = LinearQueryLoss::new(
                PointPredicate::Conjunction {
                    coords: vec![q % DIM],
                },
                DIM,
            )
            .unwrap();
            match mech.answer(&loss, &mut rng) {
                Ok(_) => {}
                Err(PmwError::Halted) | Err(PmwError::QueryLimitReached) => break,
                // Injected faults and refusals surface as loud errors;
                // what they must never do is corrupt the accounting below.
                Err(_) => {}
            }
            let used = mech.updates_used();
            assert_eq!(
                used + mech.updates_remaining(),
                rounds_declared,
                "seed {seed}: round accounting desynced"
            );
            assert_eq!(
                mech.transcript().updates(),
                used,
                "seed {seed}: transcript desynced from burned rounds"
            );
            // One "sparse-vector" entry plus exactly one up-front
            // "erm-oracle" charge per burned round — no more, no fewer
            // (failed rounds still pay).
            assert_eq!(
                mech.accountant().len(),
                1 + used,
                "seed {seed}: accountant ledger desynced"
            );
            let total = mech.accountant().basic_total().unwrap();
            assert!(
                total.epsilon() <= eps * (1.0 + 1e-9),
                "seed {seed}: overspent epsilon {}",
                total.epsilon()
            );
            assert!(
                total.delta() <= delta * (1.0 + 1e-9),
                "seed {seed}: overspent delta {}",
                total.delta()
            );
            check_backend(mech.state().inner(), used);
            check_events(mech.transcript().backend_events());
        }
        faults_injected += mech.state().injected();
    }
    assert!(
        seeds_run >= 6,
        "only {seeds_run} of 24 seeded plans survived construction — the grid lost its coverage"
    );
    assert!(
        faults_injected > 0,
        "no backend fault ever fired — the grid is not exercising the fault layer"
    );
}

#[test]
fn linear_pmw_invariants_hold_under_every_seeded_fault_plan() {
    use pmw_core::LinearPmw;
    let cube = BooleanCube::new(DIM).unwrap();
    let data = dataset();
    let eps = 1.0;
    let delta = 1e-6;
    let mut seeds_run = 0;
    for seed in 0..24u64 {
        let plan = FaultPlan::seeded(seed);
        let mut rng = StdRng::seed_from_u64(5000 + seed);
        let backend = match SampledBackend::new(
            FaultySource::new(UniversePoints(cube.clone()), plan.source),
            robust_sampled_config(),
            &mut rng,
        ) {
            Ok(b) => b,
            Err(e) => {
                assert!(matches!(e, pmw_sketch::SketchError::NonFinite(_)), "{e:?}");
                continue;
            }
        };
        seeds_run += 1;
        let config = PmwConfig::builder(eps, delta, 0.2)
            .k(10)
            .scale(1.0)
            .rounds_override(4)
            .build()
            .unwrap();
        let mut mech = LinearPmw::with_backend(
            config,
            DataSide::from_universe(&cube, &data).unwrap(),
            FaultyBackend::new(backend, plan),
            &mut rng,
        )
        .unwrap();

        for q in 0..10usize {
            let query = ImplicitQuery::new(
                PointPredicate::Conjunction {
                    coords: vec![q % DIM],
                },
                DIM,
            )
            .unwrap();
            match mech.answer(&query, &mut rng) {
                Ok(v) => assert!(v.is_finite(), "seed {seed}: non-finite answer"),
                Err(PmwError::Halted) | Err(PmwError::QueryLimitReached) => break,
                Err(_) => {}
            }
            let used = mech.updates_used();
            // One "sparse-vector" entry plus one up-front "laplace" charge
            // per burned round, conservative on every exit path.
            assert_eq!(
                mech.accountant().len(),
                1 + used,
                "seed {seed}: accountant ledger desynced"
            );
            let total = mech.accountant().basic_total().unwrap();
            assert!(total.epsilon() <= eps * (1.0 + 1e-9), "seed {seed}");
            assert!(total.delta() <= delta * (1.0 + 1e-9), "seed {seed}");
            check_backend(mech.state().inner(), used);
            check_events(mech.backend_events());
        }
    }
    assert!(
        seeds_run >= 6,
        "only {seeds_run} of 24 seeded plans survived construction — the grid lost its coverage"
    );
}

/// A test-local counting source: shares its call counter through an `Arc`
/// so the count stays readable after the source moves into a backend.
struct CountingSource<S: PointSource> {
    inner: S,
    calls: Arc<AtomicU64>,
}

impl<S: PointSource> PointSource for CountingSource<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn write_point(&self, index: usize, out: &mut [f64]) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.write_point(index, out);
    }
}

/// Satellite regression (PR-3 discipline): a resample that fails
/// mid-mechanism must still burn and record the round consistently — the
/// SV top is consumed, so `updates_used`, the accountant, and the
/// transcript all advance, while the backend rolls back to its exact
/// pre-round state and recovers on the next round.
#[test]
fn resample_fault_mid_mechanism_burns_the_round_and_rolls_back_the_backend() {
    let cube = BooleanCube::new(DIM).unwrap();
    let data = dataset();
    let sampled_config = SampledConfig {
        budget: 4,
        resample_every: 1, // refresh after every recorded round
        ..SampledConfig::default()
    };

    // Calibration pass: count how many point reads pool construction
    // consumes, so the injected fault lands on the *first read of the
    // first resample* — deterministically, whatever the draw pattern.
    let calls = Arc::new(AtomicU64::new(0));
    let mut cal_rng = StdRng::seed_from_u64(71);
    let _ = SampledBackend::new(
        CountingSource {
            inner: UniversePoints(cube.clone()),
            calls: Arc::clone(&calls),
        },
        sampled_config,
        &mut cal_rng,
    )
    .unwrap();
    let init_reads = calls.load(Ordering::Relaxed);
    assert!(init_reads > 0, "pool construction must read the source");

    let mut rng = StdRng::seed_from_u64(71);
    let backend = SampledBackend::new(
        FaultySource::new(
            UniversePoints(cube.clone()),
            FaultRule::Once(init_reads + 1),
        ),
        sampled_config,
        &mut rng,
    )
    .unwrap();
    let config = PmwConfig::builder(1.0, 1e-6, 0.05)
        .k(20)
        .scale(1.0)
        .rounds_override(3)
        .solver_iters(60)
        .build()
        .unwrap();
    let mut mech = OnlinePmw::with_backend(
        config,
        DataSide::from_universe(&cube, &data).unwrap(),
        ExactOracle::default(),
        backend,
        &mut rng,
    )
    .unwrap();

    // Answer until the first update round fires; its resample must fail.
    let err = loop {
        match mech.answer(
            &LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![0] }, DIM).unwrap(),
            &mut rng,
        ) {
            Ok(_) if mech.updates_used() == 0 => continue, // ⊥ round
            Ok(_) => panic!("the first update round must fail in its pool refresh"),
            Err(e) => break e,
        }
    };
    assert!(
        matches!(err, PmwError::LossMismatch(_)),
        "corrupted refresh point must surface as the backend's non-finite error, got {err:?}"
    );

    // The round is burned and recorded on the mechanism side...
    assert_eq!(mech.updates_used(), 1);
    assert_eq!(mech.transcript().updates(), 1);
    assert_eq!(mech.accountant().len(), 2, "sparse-vector + erm-oracle");
    let last = mech.transcript().records().last().unwrap();
    assert!(matches!(last.outcome, pmw_core::QueryOutcome::UpdateFailed));
    // ... while the backend rolled the whole round back: nothing recorded,
    // nothing resampled, not poisoned — and the transcript records the
    // rollback explicitly instead of losing the failed round's events.
    let state = mech.state();
    assert_eq!(state.updates_recorded(), 0);
    assert_eq!(state.resamples(), 0);
    assert!(!state.is_poisoned());
    assert!(
        matches!(
            mech.transcript().backend_events(),
            [BackendEvent::RoundRolledBack { round: 1 }]
        ),
        "{:?}",
        mech.transcript().backend_events()
    );

    // The fault was one-shot: the mechanism keeps serving and the next
    // update round (including its resample) succeeds.
    loop {
        match mech.answer(
            &LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![1] }, DIM).unwrap(),
            &mut rng,
        ) {
            Ok(_) if mech.updates_used() == 1 => continue,
            Ok(_) => break,
            Err(e) => panic!("recovery round failed: {e}"),
        }
    }
    assert_eq!(mech.updates_used(), 2);
    assert_eq!(mech.state().updates_recorded(), 1);
    assert_eq!(mech.state().resamples(), 1);
}

/// Compaction under chaos: the same seeded fault-plan grid as the main
/// online test, with an active [`CompactionPolicy`] folding the log every
/// few rounds. Every invariant must survive unchanged — folds run only
/// after fully successful rounds, so no fault schedule can land a
/// rollback boundary inside a folded prefix — and the compaction activity
/// must actually fire and surface through the event drain.
#[test]
fn online_pmw_invariants_hold_with_compaction_under_fault_plans() {
    use pmw_sketch::CompactionPolicy;
    let cube = BooleanCube::new(DIM).unwrap();
    let data = dataset();
    let compacted_config = SampledConfig {
        compaction: CompactionPolicy::EveryK(1),
        ..robust_sampled_config()
    };
    let mut seeds_run = 0;
    let mut compactions_seen = 0usize;
    let mut rollbacks_seen = 0usize;
    for seed in 0..24u64 {
        let plan = FaultPlan::seeded(seed);
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        let backend = match SampledBackend::new(
            FaultySource::new(UniversePoints(cube.clone()), plan.source),
            compacted_config,
            &mut rng,
        ) {
            Ok(b) => b,
            Err(_) => continue,
        };
        seeds_run += 1;
        let config = PmwConfig::builder(1.0, 1e-6, 0.2)
            .k(10)
            .scale(1.0)
            .rounds_override(4)
            .solver_iters(40)
            .build()
            .unwrap();
        let mut mech = OnlinePmw::with_backend(
            config,
            DataSide::from_universe(&cube, &data).unwrap(),
            FaultyOracle::new(ExactOracle::default(), plan.oracle),
            FaultyBackend::new(backend, plan),
            &mut rng,
        )
        .unwrap();
        for q in 0..10usize {
            let loss = LinearQueryLoss::new(
                PointPredicate::Conjunction {
                    coords: vec![q % DIM],
                },
                DIM,
            )
            .unwrap();
            match mech.answer(&loss, &mut rng) {
                Ok(_) => {}
                Err(PmwError::Halted) | Err(PmwError::QueryLimitReached) => break,
                Err(_) => {}
            }
            check_backend(mech.state().inner(), mech.updates_used());
            check_events(mech.transcript().backend_events());
        }
        let inner = mech.state().inner();
        compactions_seen += inner.compactions();
        // A committed fold must never out-run the committed log.
        assert!(
            inner.log().folded_len() <= inner.updates_recorded(),
            "seed {seed}: fold boundary passed the committed log"
        );
        rollbacks_seen += mech
            .transcript()
            .backend_events()
            .iter()
            .filter(|e| matches!(e, BackendEvent::RoundRolledBack { .. }))
            .count();
    }
    assert!(
        seeds_run >= 6,
        "only {seeds_run} plans survived construction"
    );
    assert!(
        compactions_seen > 0,
        "no fold ever fired — compaction was not exercised under chaos"
    );
    assert!(
        rollbacks_seen > 0,
        "no rollback ever fired alongside compaction — the interaction is untested"
    );
}

/// A fault landing on the round *after* a committed fold must roll that
/// round back across the checkpoint boundary cleanly: the fold's rounds
/// stay folded, the failed round vanishes, nothing is poisoned, and the
/// backend keeps serving.
#[test]
fn fault_after_a_fold_rolls_back_cleanly_without_poisoning() {
    use pmw_data::Universe;
    use pmw_sketch::CompactionPolicy;
    let cube = BooleanCube::new(DIM).unwrap();
    let points = cube.materialize();
    let sampled_config = SampledConfig {
        budget: 4,
        resample_every: 1, // a replay every round, so the fault can land in one
        compaction: CompactionPolicy::EveryK(2),
        ..SampledConfig::default()
    };
    // Pool construction reads m = 4 points; each per-round resample reads
    // 4 more. Aim the one-shot fault at the first read of round 3's
    // resample — strictly after round 2's fold committed.
    let mut rng = StdRng::seed_from_u64(17);
    let mut backend = SampledBackend::new(
        FaultySource::new(UniversePoints(cube.clone()), FaultRule::Once(4 + 8 + 1)),
        sampled_config,
        &mut rng,
    )
    .unwrap();
    let loss = LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![0] }, DIM).unwrap();
    for _ in 0..2 {
        backend
            .apply_update(&loss, None, &points, &[0.8], &[0.3], 0.5, None, &mut rng)
            .unwrap();
    }
    assert_eq!(backend.compactions(), 1, "round 2 must have folded");
    assert_eq!(backend.log().folded_len(), 2);
    let err = backend
        .apply_update(&loss, None, &points, &[0.8], &[0.3], 0.5, None, &mut rng)
        .expect_err("round 3's resample must hit the injected fault");
    assert!(matches!(err, PmwError::LossMismatch(_)), "{err:?}");
    // Rolled back across the checkpoint boundary: the fold stands, the
    // failed round is gone, nothing is poisoned.
    assert!(!backend.is_poisoned());
    assert_eq!(backend.updates_recorded(), 2);
    assert_eq!(backend.log().folded_len(), 2);
    assert_eq!(backend.log().retained_len(), 0);
    assert_eq!(backend.compactions(), 1);
    let events = backend.take_events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, BackendEvent::Compaction { round: 2, .. })),
        "{events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, BackendEvent::RoundRolledBack { round: 3 })),
        "{events:?}"
    );
    // One-shot fault: the retried round succeeds and folds again.
    backend
        .apply_update(&loss, None, &points, &[0.8], &[0.3], 0.5, None, &mut rng)
        .unwrap();
    assert_eq!(backend.updates_recorded(), 3);
    assert!(!backend.is_poisoned());
}

/// `Mwem` reads its estimates through the batched read, which
/// `FaultyBackend` forwards: the estimate site is consulted once per query
/// in query order, so a scheduled fault lands at the initial read or in the
/// middle of a later round's reads, after earlier rounds went through the
/// sampled pool's incidence tables. Every seeded plan must end in `Ok` or a
/// surfaced injected error, never a panic; a completed run stays within
/// its ε and releases only finite answers; and an empty plan reproduces the
/// bare backend bit for bit.
///
/// The seeded rules count single queries, and a read makes `k` of them, so
/// every seeded plan fails at the initial read or at an update. Each is
/// therefore also run with only its estimate rule, rescaled to count whole
/// reads; those plans end where their rule first fires within the run's
/// reads, some after the initial read, and complete when it never does.
#[test]
fn mwem_invariants_hold_under_every_seeded_fault_plan() {
    use pmw_core::{Mwem, MwemRun};
    use pmw_data::BigBitCube;
    use pmw_sketch::CompactionPolicy;
    const BITS: usize = 12;
    let (k, rounds, eps) = (8u64, 6, 1.0);
    let source = BigBitCube::new(BITS).unwrap();
    let queries: Vec<ImplicitQuery> = (0..k as usize)
        .map(|i| ImplicitQuery::marginal(vec![i, i + 4], BITS).unwrap())
        .collect();
    let rows: Vec<usize> = (0..200)
        .map(|i| [0xabc, 0x123, 0xfff, 0x0f0][i % 4])
        .collect();
    let data = DataSide::from_source(&source, &Dataset::from_indices(source.len(), rows).unwrap())
        .unwrap();
    let config = SampledConfig {
        budget: 48,
        resample_every: 2,
        compaction: CompactionPolicy::EveryK(2),
        ..SampledConfig::default()
    };
    let mwem = Mwem::new(rounds, 1.0).unwrap();
    let run = |seed: u64, plan: FaultPlan| {
        let mut rng = StdRng::seed_from_u64(6000 + seed);
        let backend = SampledBackend::new(source, config, &mut rng).unwrap();
        mwem.run_with_backend(
            &queries,
            &data,
            eps,
            FaultyBackend::new(backend, plan),
            &mut rng,
        )
    };

    // The empty plan against the bare backend.
    let bare: MwemRun<_> = {
        let mut rng = StdRng::seed_from_u64(6000);
        let backend = SampledBackend::new(source, config, &mut rng).unwrap();
        mwem.run_with_backend(&queries, &data, eps, backend, &mut rng)
            .unwrap()
    };
    let wrapped = run(0, FaultPlan::default()).unwrap();
    let bits = |a: &[f64]| a.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&wrapped.answers), bits(&bare.answers), "answers");
    assert_eq!(wrapped.selected, bare.selected, "selections");
    assert_eq!(wrapped.backend_events, bare.backend_events, "events");
    assert_eq!(
        ledger_records(wrapped.state.inner()),
        ledger_records(&bare.state)
    );
    assert!(bare.state.resamples() > 0 && bare.state.compactions() > 0);

    // Seeded plans; estimate faults placed inside a later round's reads
    // (call k·t + j is query j of round t's read) and update faults; and
    // plans a run completes under: one scheduled past the run's last read
    // (the initial read plus one a round), one on sites `Mwem` never
    // reaches.
    let targeted = [2 * k + 5, 3 * k + 1, 5 * k + 8].map(|c| FaultPlan {
        estimate: FaultRule::Once(c),
        ..FaultPlan::default()
    });
    let updates = [1, 4].map(|c| FaultPlan {
        update: FaultRule::Once(c),
        ..FaultPlan::default()
    });
    let harmless = [
        FaultPlan {
            estimate: FaultRule::Once(k * (rounds as u64 + 1) + 1),
            ..FaultPlan::default()
        },
        FaultPlan {
            oracle: FaultRule::Every(1),
            nan_radius: FaultRule::Every(1),
            source: FaultRule::Every(1),
            ..FaultPlan::default()
        },
    ];
    // A rate of 1/period per query call becomes about one per `period`
    // reads.
    let per_read = |rule: FaultRule| match rule {
        FaultRule::Never => FaultRule::Never,
        FaultRule::Every(n) => FaultRule::Every(n * k),
        FaultRule::Once(c) => FaultRule::Once(c * k),
        FaultRule::Hashed { period, salt } => FaultRule::Hashed {
            period: period * k,
            salt,
        },
    };
    let rescaled: Vec<FaultPlan> = (0..24)
        .map(|seed| FaultPlan {
            estimate: per_read(FaultPlan::seeded(seed).estimate),
            ..FaultPlan::default()
        })
        .collect();
    let plans = (0..24)
        .map(FaultPlan::seeded)
        .chain(targeted)
        .chain(updates)
        .chain(harmless)
        .chain(rescaled.iter().copied());
    let (mut completed, mut failed) = (0, 0);
    // How each plan ended: `None` when the run completed, else the
    // injected fault's message.
    let mut ends = Vec::new();
    for (seed, plan) in plans.enumerate() {
        match run(seed as u64, plan) {
            Ok(done) => {
                completed += 1;
                let total = done.accountant.basic_total().unwrap();
                assert!(total.epsilon() <= eps * (1.0 + 1e-9), "plan {seed}");
                assert_eq!(done.accountant.len(), 2 * rounds, "plan {seed}");
                assert_eq!(done.selected.len(), rounds, "plan {seed}");
                assert!(
                    done.answers.iter().all(|a| a.is_finite()),
                    "plan {seed}: non-finite answer"
                );
                check_backend(done.state.inner(), rounds);
                check_events(&done.backend_events);
                ends.push(None);
            }
            Err(PmwError::LossMismatch(what)) if what.starts_with("injected fault") => {
                failed += 1;
                ends.push(Some(what));
            }
            Err(e) => panic!("plan {seed}: {e:?} is not an injected fault"),
        }
    }
    let reads = k * (rounds as u64 + 1); // the initial read plus one a round
    let (mut late, mut clean) = (0, 0);
    for (plan, end) in rescaled.iter().zip(&ends[ends.len() - rescaled.len()..]) {
        match (1..=reads).find(|&call| plan.estimate.fires(call)) {
            Some(call) => {
                assert_eq!(*end, Some("injected fault: backend estimate"), "{plan:?}");
                if call > k {
                    late += 1;
                }
            }
            None => {
                assert_eq!(*end, None, "{plan:?}");
                clean += 1;
            }
        }
    }
    assert!(late > 0, "no rescaled plan fired after the initial read");
    assert!(clean > 0, "no rescaled plan completed");
    for plan in targeted {
        assert_eq!(
            run(0, plan).err(),
            Some(PmwError::LossMismatch("injected fault: backend estimate")),
            "{plan:?}"
        );
    }
    assert!(completed >= 2, "{completed} completed");
    assert!(failed >= 5, "{failed} failed");
}

/// `OfflinePmw` solves its `θ̂`s and reads its selection margin on one
/// snapshot per round, so a `FaultyBackend` reaches it through the
/// snapshots it publishes and through its update site. An empty plan
/// reproduces the bare backend bit for bit; a `NaN` margin on the first
/// snapshot read is refused before anything is spent, and the snapshot's
/// injection counts toward the backend's total; an update fault surfaces
/// as the injected error with the inner state untouched.
#[test]
fn offline_pmw_reads_its_snapshots_under_fault_plans() {
    use pmw_core::OfflinePmw;
    use pmw_losses::CmLoss;
    use pmw_sketch::CompactionPolicy;
    let cube = BooleanCube::new(DIM).unwrap();
    let data = DataSide::from_universe(&cube, &dataset()).unwrap();
    let losses: Vec<LinearQueryLoss> = (0..DIM)
        .map(|b| {
            LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![b] }, DIM).unwrap()
        })
        .collect();
    let refs: Vec<&dyn CmLoss> = losses.iter().map(|l| l as &dyn CmLoss).collect();
    let config = PmwConfig::builder(1.0, 1e-6, 0.2)
        .scale(1.0)
        .rounds_override(4)
        .solver_iters(40)
        .build()
        .unwrap();
    let off = OfflinePmw::with_oracle(config, ExactOracle::default());
    let sampled = |rng: &mut StdRng| {
        let config = SampledConfig {
            budget: 5,
            resample_every: 2,
            compaction: CompactionPolicy::EveryK(2),
            ..SampledConfig::default()
        };
        SampledBackend::new(UniversePoints(cube.clone()), config, rng).unwrap()
    };
    let run = |plan: FaultPlan| {
        let mut rng = StdRng::seed_from_u64(7000);
        let mut state = FaultyBackend::new(sampled(&mut rng), plan);
        let result = off.run_with_backend(&refs, &data, &mut state, &mut rng);
        (result, state)
    };
    let bits = |answers: &[Vec<f64>]| -> Vec<Vec<u64>> {
        answers
            .iter()
            .map(|a| a.iter().map(|v| v.to_bits()).collect())
            .collect()
    };

    let mut rng = StdRng::seed_from_u64(7000);
    let mut bare = sampled(&mut rng);
    let (expected, expected_spend) = off
        .run_with_backend(&refs, &data, &mut bare, &mut rng)
        .unwrap();
    assert!(bare.resamples() > 0 && bare.compactions() > 0);
    let (result, state) = run(FaultPlan::default());
    let (result, spend) = result.unwrap();
    assert_eq!(bits(&result.answers), bits(&expected.answers), "answers");
    assert_eq!(result.selected, expected.selected, "selections");
    assert_eq!(result.backend_events, expected.backend_events, "events");
    assert_eq!(
        ledger_records(state.inner()),
        ledger_records(&bare),
        "ledger records"
    );
    assert_eq!(spend.len(), expected_spend.len());
    assert_eq!(state.injected(), 0);

    let (result, state) = run(FaultPlan {
        nan_radius: FaultRule::Once(1),
        ..FaultPlan::default()
    });
    assert!(
        matches!(result, Err(PmwError::Degraded(_))),
        "{:?}",
        result.map(|(r, _)| r.selected)
    );
    assert_eq!(state.injected(), 1);
    assert_eq!(state.updates_recorded(), 0);

    let (result, state) = run(FaultPlan {
        update: FaultRule::Once(1),
        ..FaultPlan::default()
    });
    assert_eq!(
        result.err(),
        Some(PmwError::LossMismatch("injected fault: backend update"))
    );
    assert_eq!(state.injected(), 1);
    assert_eq!(state.inner().updates_recorded(), 0);
}

/// A failed `OfflinePmw` run drains no backend event: the caller's backend
/// keeps every round's events, the failed round's `RoundRolledBack` last.
#[test]
fn offline_pmw_leaves_a_failed_runs_events_in_the_backend() {
    use pmw_core::OfflinePmw;
    use pmw_losses::CmLoss;
    use pmw_sketch::CompactionPolicy;
    let cube = BooleanCube::new(DIM).unwrap();
    let data = DataSide::from_universe(&cube, &dataset()).unwrap();
    let losses: Vec<LinearQueryLoss> = (0..DIM)
        .map(|b| {
            LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![b] }, DIM).unwrap()
        })
        .collect();
    let refs: Vec<&dyn CmLoss> = losses.iter().map(|l| l as &dyn CmLoss).collect();
    let config = PmwConfig::builder(1.0, 1e-6, 0.2)
        .scale(1.0)
        .rounds_override(4)
        .solver_iters(40)
        .build()
        .unwrap();
    let off = OfflinePmw::with_oracle(config, ExactOracle::default());
    let budget = 5;
    // Construction reads one point a slot, so the NaN lands on the first
    // point the round-2 cadence resample reads.
    let source = FaultySource::new(
        UniversePoints(cube.clone()),
        FaultRule::Once(budget as u64 + 1),
    );
    let mut rng = StdRng::seed_from_u64(7000);
    let config = SampledConfig {
        budget,
        resample_every: 2,
        compaction: CompactionPolicy::EveryK(2),
        ..SampledConfig::default()
    };
    let mut state = SampledBackend::new(source, config, &mut rng).unwrap();
    let result = off.run_with_backend(&refs, &data, &mut state, &mut rng);
    assert!(result.is_err(), "{:?}", result.map(|(r, _)| r.selected));
    assert_eq!(state.updates_recorded(), 1, "round 2 rolled back");
    let events = state.take_events();
    assert_eq!(
        events.last(),
        Some(&BackendEvent::RoundRolledBack { round: 2 }),
        "{events:?}"
    );
    assert!(state.take_events().is_empty());
}
