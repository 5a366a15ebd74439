//! `serve-linear`: a `PmwServer` with two analysts on their own threads,
//! each asking 1- and 2-way conjunction queries of a dense mechanism. A
//! screen takes about 100 µs, so the serving layer's own costs — channel
//! round trip, writer batching, snapshot publication, stale re-screens —
//! are a large share of every answer, and two concurrent analysts are the
//! only load that exercises batching.
//!
//! Two analysts and the writer keep both of a 2-core machine's cores busy.
//! With one analyst, every answer wakes an idle core twice (the writer,
//! then the analyst), and on a 2-vCPU VM that made throughput and p90
//! latency several times less steady from run to run.

use crate::gen::{conjunction_share, product_rows, Gen};
use crate::report::{peak_rss_mb, Reservoir};
use crate::speed::Speed;
use crate::{privacy_within, time_setups, ErrorStats, Tally, Timed};
use pmw_core::{OnlinePmw, PmwConfig, PmwError};
use pmw_data::{BooleanCube, Dataset};
use pmw_dp::DpError;
use pmw_losses::{CmLoss, LinearQueryLoss, PointPredicate};
use pmw_obs::Probe;
use pmw_serve::{PmwServer, ServeConfig, ServeOutcome, ServeStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 10;
const ROWS: usize = 1_000_000;
const ANALYSTS: usize = 2;
const EPSILON: f64 = 2.0;
const DELTA: f64 = 1e-6;
const ALPHA: f64 = 0.05;
const ROUNDS: usize = 64;
const SOLVER_ITERS: usize = 60;

const BIASES: [f64; DIM] = [0.9, 0.15, 0.9, 0.15, 0.9, 0.15, 0.7, 0.3, 0.6, 0.4];

pub struct Inputs {
    pub rows: Vec<usize>,
    /// Every 1- and 2-way conjunction over the cube's bits (55 queries).
    pub queries: Arc<Vec<LinearQueryLoss>>,
    /// Each query's true answer on the rows.
    pub truths: Arc<Vec<f64>>,
}

pub fn inputs(seed: u64) -> Inputs {
    let rows = product_rows(&mut Gen::new(seed, 3), &BIASES, ROWS);
    let mut coords: Vec<Vec<usize>> = (0..DIM).map(|a| vec![a]).collect();
    coords.extend((0..DIM).flat_map(|a| (a + 1..DIM).map(move |b| vec![a, b])));
    let truths = coords.iter().map(|c| conjunction_share(&rows, c)).collect();
    let queries = coords
        .into_iter()
        .map(|coords| {
            LinearQueryLoss::new(PointPredicate::Conjunction { coords }, DIM)
                .expect("coordinates lie in the cube")
        })
        .collect();
    Inputs {
        rows,
        queries: Arc::new(queries),
        truths: Arc::new(truths),
    }
}

fn build(rows: Vec<usize>, rng: &mut StdRng) -> OnlinePmw {
    let config = PmwConfig::builder(EPSILON, DELTA, ALPHA)
        .k(usize::MAX)
        .scale(1.0)
        .rounds_override(ROUNDS)
        .solver_iters(SOLVER_ITERS)
        .build()
        .expect("valid serve-linear config");
    let cube = BooleanCube::new(DIM).expect("10-bit cube");
    let data = Dataset::from_indices(1 << DIM, rows).expect("rows index the cube");
    OnlinePmw::new(config, &cube, data, rng).expect("serve-linear mechanism")
}

/// Seconds per set-up — a mechanism plus a spawned server with its
/// analyst handles — over spaced single set-ups, each with the host's
/// slowdown next to it; each server is shut down untimed.
pub fn setup_s(inputs: &Inputs, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    time_setups(
        1,
        || inputs.rows.clone(),
        |rows| {
            let mech = build(rows, &mut rng);
            PmwServer::spawn(mech, ServeConfig::new(ANALYSTS, seed)).expect("serve-linear server")
        },
        |(server, handles)| {
            drop(handles);
            server.join().expect("writer shuts down");
        },
    )
}

/// Answers each analyst delivers between two reference passes.
const ANSWERS_PER_PASS: u64 = 64;
/// Free-answer latencies each analyst keeps a uniform sample of.
const LATENCY_SAMPLE: usize = 1 << 16;
/// Answers per analyst the error and update metrics cover, after which the
/// process's peak memory is read: a fixed prefix of the run, so none of
/// them depends on how many answers a run's speed allowed. (`ServeStats`
/// keeps every request's queue wait, so memory read at the end of a run
/// would grow with throughput.)
const PREFIX_ANSWERS: u64 = 1 << 15;

/// One analyst's record, of a size independent of how many answers it got.
struct AnalystLog {
    /// Free-answer latencies, ns, each with the slowdown of the analyst's
    /// latest reference pass.
    free_ns: Reservoir<(u64, f64)>,
    /// Reference passes timed between answers.
    speed: Speed,
    /// |answer − truth| over the first `PREFIX_ANSWERS` answers.
    errors: ErrorStats,
    /// MW updates among those answers.
    prefix_updates: u64,
    /// Peak resident memory once those answers were delivered, MB.
    prefix_rss_mb: Option<f64>,
    /// Largest |answer − truth| of any answer, for the excess-risk check.
    worst: f64,
    in_domain: bool,
    tally: Tally,
}

/// Serve both analysts' closed loops for `seconds` against a fresh
/// mechanism, the writer reporting through `probe`.
pub fn run<P: Probe + Send + 'static>(
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    probe: P,
) -> (Timed, ServeStats) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0333);
    let mech = build(inputs.rows.clone(), &mut rng);
    let (server, handles) =
        PmwServer::spawn_with_probe(mech, ServeConfig::new(ANALYSTS, seed), probe)
            .expect("serve-linear server");
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let analysts: Vec<_> = handles
        .into_iter()
        .map(|mut handle| {
            let queries = Arc::clone(&inputs.queries);
            let truths = Arc::clone(&inputs.truths);
            std::thread::spawn(move || {
                let mut log = AnalystLog {
                    free_ns: Reservoir::new(
                        LATENCY_SAMPLE,
                        Gen::new(seed, 10 + handle.id() as u64),
                    ),
                    speed: Speed::default(),
                    errors: ErrorStats::default(),
                    prefix_updates: 0,
                    prefix_rss_mb: None,
                    worst: 0.0,
                    in_domain: true,
                    tally: Tally::default(),
                };
                // Analysts start half the query list apart, so they rarely
                // ask the same query at once.
                let offset = handle.id() * queries.len() / ANALYSTS;
                let mut j = 0;
                let mut local = log.speed.sample(1);
                while Instant::now() < deadline {
                    let q = (offset + j) % queries.len();
                    j += 1;
                    log.tally.attempted += 1;
                    let t = Instant::now();
                    let result = handle.answer(&queries[q] as &dyn CmLoss);
                    let ns = t.elapsed().as_nanos() as u64;
                    match result {
                        Ok(answer) => {
                            let free = answer.outcome == ServeOutcome::Free;
                            if free {
                                log.tally.free += 1;
                                log.free_ns.push((ns, local));
                            } else {
                                log.tally.updates += 1;
                            }
                            let value = answer.values[0];
                            log.in_domain &= value.is_finite() && (0.0..=1.0).contains(&value);
                            let err = (value - truths[q]).abs();
                            log.worst = log.worst.max(err);
                            if log.errors.n < PREFIX_ANSWERS {
                                log.errors.add(err);
                                log.prefix_updates += u64::from(!free);
                                if log.errors.n == PREFIX_ANSWERS {
                                    log.prefix_rss_mb = peak_rss_mb();
                                }
                            }
                        }
                        Err(PmwError::Halted) => log.tally.halted += 1,
                        Err(PmwError::Dp(DpError::InvalidBudget(_))) => log.tally.refused += 1,
                        Err(_) => log.tally.failed += 1,
                    }
                    if log.tally.attempted.is_multiple_of(ANSWERS_PER_PASS) {
                        local = log.speed.sample(1);
                    }
                }
                log
            })
        })
        .collect();
    let logs: Vec<AnalystLog> = analysts
        .into_iter()
        .map(|a| a.join().expect("analyst thread panicked"))
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    let joined = server.join().expect("writer shuts down");

    let mut timed = Timed {
        wall_s,
        ..Timed::default()
    };
    let mut in_domain = true;
    let mut worst = 0.0f64;
    for log in logs {
        timed.tally.add(&log.tally);
        timed.latency.extend(log.free_ns.into_items());
        timed.speed.merge(log.speed);
        timed.errors.merge(&log.errors);
        timed.prefix_updates += log.prefix_updates;
        // VmHWM only grows, so the last analyst's reading is the largest.
        timed.peak_rss_mb = log
            .prefix_rss_mb
            .into_iter()
            .chain(timed.peak_rss_mb)
            .reduce(f64::max);
        worst = worst.max(log.worst);
        in_domain &= log.in_domain;
    }
    timed.answers = timed.tally.free + timed.tally.updates;
    // A linear query's loss is ½(θ − q(D))², so its excess risk is half
    // the squared answer error.
    let max_risk = 0.5 * worst * worst;
    let audit = joined.sharding.audit();
    timed.checks = vec![
        (
            "serve-linear: privacy ledger within (eps, delta)".into(),
            privacy_within(joined.mechanism.accountant(), EPSILON, DELTA),
        ),
        (
            "serve-linear: tenant shards pass ShardedAccountant::audit".into(),
            audit.is_ok(),
        ),
        (
            "serve-linear: answers finite and inside [0, 1]".into(),
            in_domain,
        ),
        (
            format!("serve-linear: excess risk {max_risk:.5} <= alpha {ALPHA}"),
            max_risk <= ALPHA,
        ),
    ];
    (timed, joined.stats)
}
