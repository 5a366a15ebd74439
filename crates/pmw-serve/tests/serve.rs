//! Serving-layer integration tests: sequential parity, concurrent
//! multi-analyst runs, tenant-share enforcement, and ledger audits.

use pmw_core::{DataSide, Decision, OnlinePmw, PmwConfig, PmwError, StateBackend, Transcript};
use pmw_data::{BooleanCube, Dataset, PointMatrix};
use pmw_dp::PrivacyBudget;
use pmw_erm::{ErmError, ErmOracle, ExactOracle};
use pmw_losses::{CmLoss, LinearQueryLoss, PointPredicate};
use pmw_serve::{PmwServer, ServeConfig, ServeOutcome};
use pmw_sketch::{SampledBackend, SampledConfig, UniversePoints};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};

const DIM: usize = 3;

fn dataset() -> Dataset {
    // Skewed toward x = 7 so single-bit queries carry real signal.
    let rows: Vec<usize> = (0..40).map(|i| [7usize, 7, 7, 1][i % 4]).collect();
    Dataset::from_indices(1 << DIM, rows).unwrap()
}

fn config(k: usize, rounds: usize, alpha: f64) -> PmwConfig {
    PmwConfig::builder(2.0, 1e-6, alpha)
        .k(k)
        .rounds_override(rounds)
        .scale(1.0)
        .solver_iters(120)
        .build()
        .unwrap()
}

fn workload(queries: usize) -> Vec<LinearQueryLoss> {
    (0..queries)
        .map(|q| {
            LinearQueryLoss::new(
                PointPredicate::Conjunction {
                    coords: vec![q % DIM],
                },
                DIM,
            )
            .unwrap()
        })
        .collect()
}

fn fmt_result(r: &Result<Vec<f64>, PmwError>) -> String {
    match r {
        Ok(v) => format!("ok:{v:?}"),
        Err(e) => format!("err:{e:?}"),
    }
}

/// Two transcripts count the same answers and hold the same update
/// records, bit for bit (`{:?}` prints every `f64` exactly).
fn assert_same_transcript(served: &Transcript, base: &Transcript) {
    assert_eq!(served.len(), base.len());
    assert_eq!(
        format!("{:?}", served.records()),
        format!("{:?}", base.records())
    );
}

/// With one analyst, serving is bit-for-bit the same mechanism answered
/// sequentially by `OnlinePmw::answer` with an rng seeded like the writer
/// (dense backend): the sparse vector's first threshold comes from the
/// construction rng, every per-round draw from the answer rng, in the
/// identical order.
#[test]
fn single_analyst_dense_serving_is_bitwise_sequential() {
    let cube = BooleanCube::new(DIM).unwrap();
    let data = dataset();
    let losses = workload(12); // k = 10: exercises the limit path too
    let (build_seed, seed) = (5u64, 11u64);
    let build = || {
        let mut crng = StdRng::seed_from_u64(build_seed);
        OnlinePmw::with_oracle(
            config(10, 3, 0.05),
            &cube,
            data.clone(),
            ExactOracle::default(),
            &mut crng,
        )
        .unwrap()
    };

    // Sequential baseline: a second rng, seeded like the writer, answers.
    let mut base = build();
    let mut rng = StdRng::seed_from_u64(seed);
    let expected: Vec<String> = losses
        .iter()
        .map(|l| fmt_result(&base.answer(l, &mut rng)))
        .collect();

    let (server, mut handles) = PmwServer::spawn(build(), ServeConfig::new(1, seed)).unwrap();
    let mut handle = handles.pop().unwrap();
    let got: Vec<String> = losses
        .iter()
        .map(|l| fmt_result(&handle.answer(l).map(|a| a.values)))
        .collect();
    drop(handle);
    let join = server.join().unwrap();

    assert_eq!(got, expected, "serving diverged from the sequential run");

    // The privacy ledger is the sequential ledger, entry for entry.
    let base_ledger = base.accountant();
    let serve_ledger = join.mechanism.accountant();
    assert_eq!(serve_ledger.len(), base_ledger.len());
    for (a, b) in serve_ledger.entries().iter().zip(base_ledger.entries()) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.budget.epsilon().to_bits(), b.budget.epsilon().to_bits());
        assert_eq!(a.budget.delta().to_bits(), b.budget.delta().to_bits());
    }
    assert_eq!(join.mechanism.updates_used(), base.updates_used());
    assert_eq!(join.mechanism.has_halted(), base.has_halted());
    assert_same_transcript(join.mechanism.transcript(), base.transcript());

    // Tenant mirror: every oracle charge landed in the single shard, and
    // the merge audit accepts.
    let audit = join.sharding.audit().unwrap();
    assert_eq!(audit.per_tenant.len(), 1);
    let oracle_eps: f64 = base_ledger
        .entries()
        .iter()
        .filter(|e| e.label == "erm-oracle")
        .map(|e| e.budget.epsilon())
        .sum();
    assert!((audit.union_epsilon - oracle_eps).abs() < 1e-12);
}

/// Sequential-equivalent driver for the sketched backend, built from the
/// same public split primitives the server uses: screen against a
/// published snapshot, then the mechanism's decision on a batch of one.
#[test]
fn single_analyst_sampled_serving_is_bitwise_the_split_driver() {
    let cube = BooleanCube::new(DIM).unwrap();
    let data = dataset();
    let losses = workload(10);
    let sk_config = SampledConfig {
        budget: 6,
        resample_every: 3,
        ..SampledConfig::default()
    };
    let build = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let backend =
            SampledBackend::new(UniversePoints(cube.clone()), sk_config, &mut rng).unwrap();
        OnlinePmw::with_backend(
            config(10, 3, 0.05),
            DataSide::from_universe(&cube, &data).unwrap(),
            ExactOracle::default(),
            backend,
            &mut rng,
        )
        .unwrap()
    };
    let serve_seed = 23u64;

    // Baseline: drive the split API by hand in the strict sequential
    // order, with a dedicated rng seeded like the writer's.
    let mut base = build(7);
    let ctx = base.screen_context();
    let mut rng = StdRng::seed_from_u64(serve_seed);
    let mut expected = Vec::new();
    for loss in &losses {
        let loss = loss as &dyn CmLoss;
        // Serving order: the analyst always screens (recording its read
        // claims in the β ledger) before the writer's halted check.
        let result = base
            .snapshot()
            .and_then(|snap| ctx.screen(snap.as_ref(), loss))
            .and_then(|screened| {
                let batch = [(loss, &screened)];
                match base.decide_with_probe(&batch, &mut rng, &pmw_obs::NoopProbe)? {
                    Decision::Free => Ok(screened.theta_hat().to_vec()),
                    Decision::Update { answer, .. } => answer,
                }
            });
        expected.push(fmt_result(&result));
    }

    // Serving: identical construction seed (same pool), writer seeded
    // like the driver's answer rng.
    let mech = build(7);
    let (server, mut handles) = PmwServer::spawn(mech, ServeConfig::new(1, serve_seed)).unwrap();
    let mut handle = handles.pop().unwrap();
    let got: Vec<String> = losses
        .iter()
        .map(|l| fmt_result(&handle.answer(l).map(|a| a.values)))
        .collect();
    drop(handle);
    let join = server.join().unwrap();

    assert_eq!(
        got, expected,
        "sketched serving diverged from the split driver"
    );

    // ε/δ ledger equality, entry for entry.
    assert_eq!(join.mechanism.accountant().len(), base.accountant().len());
    for (a, b) in join
        .mechanism
        .accountant()
        .entries()
        .iter()
        .zip(base.accountant().entries())
    {
        assert_eq!(a.label, b.label);
        assert_eq!(a.budget.epsilon().to_bits(), b.budget.epsilon().to_bits());
    }
    assert_same_transcript(join.mechanism.transcript(), base.transcript());
    // β ledger equality: the snapshot reads recorded the same claims in
    // the same order as the driver's.
    let base_records = base.state().ledger().records().to_vec();
    let serve_records = join.mechanism.state().ledger().records().to_vec();
    assert_eq!(serve_records.len(), base_records.len());
    for (a, b) in serve_records.iter().zip(&base_records) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.radius.to_bits(), b.radius.to_bits());
        assert_eq!(a.beta.to_bits(), b.beta.to_bits());
    }
}

/// N analysts on their own threads: every request gets a well-formed
/// reply, outcome counts reconcile, and the sharded ledger's merge audit
/// proves the union stays inside the declared oracle slice.
#[test]
fn concurrent_analysts_reconcile_and_pass_the_merge_audit() {
    let cube = BooleanCube::new(DIM).unwrap();
    let mut crng = StdRng::seed_from_u64(3);
    let mech = OnlinePmw::with_oracle(
        config(64, 4, 0.1),
        &cube,
        dataset(),
        ExactOracle::default(),
        &mut crng,
    )
    .unwrap();
    let analysts = 4;
    let per_analyst = 8;
    let (server, handles) = PmwServer::spawn(mech, ServeConfig::new(analysts, 17)).unwrap();
    let mut threads = Vec::new();
    for mut handle in handles {
        threads.push(std::thread::spawn(move || {
            let losses = workload(per_analyst);
            let mut outcomes = Vec::new();
            for loss in &losses {
                match handle.answer(loss) {
                    Ok(a) => {
                        assert!(!a.values.is_empty());
                        assert!(a.values.iter().all(|v| v.is_finite()));
                        outcomes.push(Some(a.outcome));
                    }
                    Err(PmwError::Halted)
                    | Err(PmwError::QueryLimitReached)
                    | Err(PmwError::Dp(_)) => outcomes.push(None),
                    Err(e) => panic!("unexpected serving error: {e:?}"),
                }
            }
            outcomes
        }));
    }
    let outcomes: Vec<Option<ServeOutcome>> = threads
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    let join = server.join().unwrap();

    assert_eq!(outcomes.len(), analysts * per_analyst);
    let free = outcomes
        .iter()
        .filter(|o| **o == Some(ServeOutcome::Free))
        .count() as u64;
    let updates = outcomes
        .iter()
        .filter(|o| **o == Some(ServeOutcome::Update))
        .count() as u64;
    let stat_free: u64 = join.stats.per_analyst.iter().map(|a| a.free).sum();
    let stat_updates: u64 = join.stats.per_analyst.iter().map(|a| a.updates).sum();
    assert_eq!(stat_free, free);
    assert_eq!(stat_updates, updates);
    assert_eq!(join.stats.requests, (analysts * per_analyst) as u64);
    assert!(join.stats.batches >= 1);
    assert_eq!(updates as usize, join.mechanism.updates_used());

    // The merge audit: per-tenant oracle mirrors fold to exactly the
    // mechanism's own oracle spend, inside the declared slice.
    let audit = join.sharding.audit().unwrap();
    assert_eq!(audit.per_tenant.len(), analysts);
    let mech_oracle_eps: f64 = join
        .mechanism
        .accountant()
        .entries()
        .iter()
        .filter(|e| e.label == "erm-oracle")
        .map(|e| e.budget.epsilon())
        .sum();
    assert!((audit.union_epsilon - mech_oracle_eps).abs() < 1e-12);
    assert!(audit.union_epsilon <= audit.declared.epsilon() * (1.0 + 1e-9));
    // And the mechanism's own total never exceeded the declared budget.
    let total = join.mechanism.accountant().basic_total().unwrap();
    assert!(total.epsilon() <= 2.0 * (1.0 + 1e-9));
}

/// The mechanism counts every served answer, free ones included, and keeps
/// a record only per update round: after `join` its transcript is the
/// served record, and its `k` limit binds across analysts.
#[test]
fn the_mechanism_counts_every_served_answer() {
    let cube = BooleanCube::new(DIM).unwrap();
    let mut crng = StdRng::seed_from_u64(19);
    let k = 12;
    let mech = OnlinePmw::with_oracle(
        config(k, k, 0.1),
        &cube,
        dataset(),
        ExactOracle::default(),
        &mut crng,
    )
    .unwrap();
    let (analysts, per_analyst) = (3, 8);
    let (server, handles) = PmwServer::spawn(mech, ServeConfig::new(analysts, 31)).unwrap();
    let threads: Vec<_> = handles
        .into_iter()
        .map(|mut handle| {
            std::thread::spawn(move || {
                let losses = workload(per_analyst);
                let served = losses.iter().filter_map(|loss| handle.answer(loss).ok());
                served.map(|a| a.outcome).collect::<Vec<_>>()
            })
        })
        .collect();
    let served: Vec<ServeOutcome> = threads
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    let join = server.join().unwrap();

    let count = |outcome| served.iter().filter(|&&o| o == outcome).count();
    let (free, updates) = (count(ServeOutcome::Free), count(ServeOutcome::Update));
    assert!(free > 0, "no free answer was served");
    let transcript = join.mechanism.transcript();
    assert_eq!(transcript.len(), free + updates);
    assert!(transcript.len() <= k);
    assert_eq!(transcript.records().len(), join.mechanism.updates_used());
    assert_eq!(transcript.updates(), updates);
    let stats = &join.stats.per_analyst;
    assert_eq!(stats.iter().map(|a| a.free).sum::<u64>(), free as u64);
    assert_eq!(stats.iter().map(|a| a.updates).sum::<u64>(), updates as u64);
}

/// An oracle whose first call fails; every later call solves exactly.
#[derive(Default)]
struct FailsFirst {
    failed: AtomicBool,
}

impl ErmOracle for FailsFirst {
    fn solve(
        &self,
        loss: &dyn CmLoss,
        points: &PointMatrix,
        weights: &[f64],
        n: usize,
        budget: PrivacyBudget,
        rng: &mut dyn Rng,
    ) -> Result<Vec<f64>, ErmError> {
        if !self.failed.swap(true, Ordering::Relaxed) {
            return Err(ErmError::InvalidParameter("the first call fails"));
        }
        ExactOracle::default().solve(loss, points, weights, n, budget, rng)
    }

    fn name(&self) -> &'static str {
        "fails-first"
    }
}

/// A failed oracle call burns an update round but records no update, so
/// the screens that follow it, taken against the unchanged state, are
/// fresh: the writer re-screens none of them.
#[test]
fn a_failed_round_leaves_later_screens_fresh() {
    let cube = BooleanCube::new(DIM).unwrap();
    let mut crng = StdRng::seed_from_u64(7);
    let mech = OnlinePmw::with_oracle(
        config(32, 4, 0.05),
        &cube,
        dataset(),
        FailsFirst::default(),
        &mut crng,
    )
    .unwrap();
    let (server, mut handles) = PmwServer::spawn(mech, ServeConfig::new(1, 23)).unwrap();
    let mut handle = handles.pop().unwrap();
    let served: Vec<bool> = workload(30)
        .iter()
        .map(|loss| handle.answer(loss).is_ok())
        .collect();
    drop(handle);
    let join = server.join().unwrap();

    let failed = served.iter().position(|&ok| !ok).expect("a round failed");
    let after = served[failed + 1..].iter().filter(|&&ok| ok).count();
    assert!(after > 0, "nothing was served after the failed round");
    assert_eq!(join.stats.rescreens, 0);
    let recorded = join.mechanism.state().updates_recorded();
    assert_eq!(join.mechanism.updates_used(), recorded + 1);
}

/// A tenant whose share cannot cover one oracle call is refused up front
/// (data-independent admission), while its neighbor keeps full service —
/// budget isolation between tenants.
#[test]
fn starved_tenant_is_rejected_without_touching_its_neighbor() {
    let cube = BooleanCube::new(DIM).unwrap();
    let mut crng = StdRng::seed_from_u64(5);
    // Six update slots: only tenant 1's six asks can commit, so the
    // mechanism cannot halt before tenant 0's last ask, and each of tenant
    // 0's refusals is the share check's (a halted mechanism refuses with
    // `Halted` first).
    let mech = OnlinePmw::with_oracle(
        config(32, 6, 0.05),
        &cube,
        dataset(),
        ExactOracle::default(),
        &mut crng,
    )
    .unwrap();
    let oracle_budget = mech.derived().oracle_budget;
    let sv_budget = mech.derived().sv_budget;
    let slice_eps = 2.0 - sv_budget.epsilon();
    // Tenant 0: half of one oracle call — can never commit. Tenant 1:
    // the rest of the slice.
    let starved = PrivacyBudget::new(oracle_budget.epsilon() * 0.5, 0.0).unwrap();
    let rich = PrivacyBudget::new(slice_eps - starved.epsilon(), 1e-6 / 2.0).unwrap();
    let mut serve_config = ServeConfig::new(2, 29);
    serve_config.shares = Some(vec![starved, rich]);
    let (server, mut handles) = PmwServer::spawn(mech, serve_config).unwrap();
    let mut h1 = handles.pop().unwrap();
    let mut h0 = handles.pop().unwrap();
    assert_eq!(h0.id(), 0);

    let losses = workload(6);
    for loss in &losses {
        match h0.answer(loss) {
            Err(PmwError::Dp(pmw_dp::DpError::InvalidBudget(_))) => {}
            other => panic!("starved tenant was served: {other:?}"),
        }
        // The neighbor is untouched by tenant 0's starvation.
        match h1.answer(loss) {
            Ok(_) | Err(PmwError::Halted) => {}
            other => panic!("rich tenant degraded: {other:?}"),
        }
    }
    drop(h0);
    drop(h1);
    let join = server.join().unwrap();
    assert_eq!(join.stats.per_analyst[0].rejected, losses.len() as u64);
    assert_eq!(join.stats.per_analyst[0].updates, 0);
    assert!(join.sharding.shard(0).unwrap().is_empty());
    join.sharding.audit().unwrap();
}

/// Invalid serving configurations are refused before any thread spawns.
#[test]
fn spawn_validates_the_config() {
    let cube = BooleanCube::new(DIM).unwrap();
    let build = || {
        let mut crng = StdRng::seed_from_u64(1);
        OnlinePmw::with_oracle(
            config(8, 2, 0.2),
            &cube,
            dataset(),
            ExactOracle::default(),
            &mut crng,
        )
        .unwrap()
    };
    assert!(matches!(
        PmwServer::spawn(build(), ServeConfig::new(0, 1)),
        Err(PmwError::InvalidConfig(_))
    ));
    let mut bad_shares = ServeConfig::new(2, 1);
    bad_shares.shares = Some(vec![PrivacyBudget::new(0.1, 0.0).unwrap()]);
    assert!(matches!(
        PmwServer::spawn(build(), bad_shares),
        Err(PmwError::InvalidConfig(_))
    ));
}

/// The snapshot cell's epoch advances with every committed update, and
/// analysts observe the refreshed hypothesis (the published snapshot's
/// round follows the commits).
#[test]
fn snapshot_cell_epoch_tracks_commits() {
    let cube = BooleanCube::new(DIM).unwrap();
    let mut crng = StdRng::seed_from_u64(13);
    let mech = OnlinePmw::with_oracle(
        config(16, 3, 0.02),
        &cube,
        dataset(),
        ExactOracle::default(),
        &mut crng,
    )
    .unwrap();
    let (server, mut handles) = PmwServer::spawn(mech, ServeConfig::new(1, 41)).unwrap();
    let cell = std::sync::Arc::clone(server.snapshot_cell());
    assert_eq!(cell.epoch(), 0);
    let (_, snap) = cell.load();
    assert_eq!(snap.updates_recorded(), 0);

    let mut handle = handles.pop().unwrap();
    let mut commits = 0u64;
    for loss in &workload(10) {
        if let Ok(a) = handle.answer(loss) {
            if a.outcome == ServeOutcome::Update {
                commits += 1;
            }
        }
    }
    drop(handle);
    assert_eq!(cell.epoch(), commits, "one publication per committed round");
    let (_, snap) = cell.load();
    assert_eq!(snap.updates_recorded() as u64, commits);
    let join = server.join().unwrap();
    assert_eq!(join.mechanism.updates_used() as u64, commits);
}
