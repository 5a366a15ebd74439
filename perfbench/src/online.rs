//! `online-glm`: one analyst asks a rotating pool of GLM tasks of a dense
//! `OnlinePmw` — the paper's headline use. A free answer is two convex
//! solves over the |X| = 1024 universe points, so `pmw-losses` and
//! `pmw-convex` do nearly all the work; the sketch, the serving layer and
//! multi-chunk sweeps are bypassed (|X| is below `PAR_THRESHOLD`).

use crate::gen::{product_rows, Gen};
use crate::speed::Speed;
use crate::{privacy_within, time_setups, Tally, Timed};
use pmw_convex::Objective;
use pmw_core::{OnlinePmw, PmwConfig, PmwError};
use pmw_data::{BooleanCube, Dataset};
use pmw_losses::traits::minimize_weighted;
use pmw_losses::{CmLoss, LinkFn, TargetLoss, WeightedObjective};
use pmw_obs::Probe;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const DIM: usize = 10;
const ROWS: usize = 1_000_000;
const TASKS: usize = 64;
const EPSILON: f64 = 2.0;
const DELTA: f64 = 1e-6;
const ALPHA: f64 = 0.1;
const ROUNDS: usize = 96;
const SOLVER_ITERS: usize = 100;
/// Iterations of the reference solve the excess-risk check measures
/// answers against.
const REFERENCE_ITERS: usize = 1000;
/// Answers the error and update metrics cover: a fixed prefix of the run,
/// so they do not depend on how many answers a run's speed allowed.
const PREFIX_ANSWERS: usize = 2048;

/// The seed the task directions are drawn from, whatever the run's seed:
/// like serve-linear's query set, the 64 tasks are fixed, and the run's
/// seed draws the rows, the task order and the privacy noise. Tasks drawn
/// per seed moved `answer_error_mean` by 13% across seeds, against 2% with
/// this fixed set.
const TASK_SEED: u64 = 0;

/// Bit `b` of a row is set with probability `BIASES[b]`.
const BIASES: [f64; DIM] = [0.9, 0.15, 0.9, 0.15, 0.9, 0.15, 0.7, 0.3, 0.6, 0.4];

pub struct Inputs {
    pub rows: Vec<usize>,
    /// 32 squared-link regressions, then 32 logistic classifications, the
    /// same for every seed.
    pub tasks: Vec<TargetLoss>,
    /// The order the analyst cycles through the tasks in: regressions and
    /// classifications alternate.
    pub order: Vec<usize>,
}

pub fn inputs(seed: u64) -> Inputs {
    let rows = product_rows(&mut Gen::new(seed, 1), &BIASES, ROWS);
    let mut g = Gen::new(TASK_SEED, 2);
    let tasks = (0..TASKS)
        .map(|i| {
            let dir: Vec<f64> = (0..DIM).map(|_| g.normal()).collect();
            if i < TASKS / 2 {
                TargetLoss::regression(dir, LinkFn::Squared)
            } else {
                TargetLoss::classification(dir, LinkFn::Logistic)
            }
            .expect("a random normal direction is nonzero")
        })
        .collect();
    let mut g = Gen::new(seed, 2);
    let mut shuffled = |range: std::ops::Range<usize>| {
        let mut v: Vec<usize> = range.collect();
        for i in (1..v.len()).rev() {
            v.swap(i, g.below(i + 1));
        }
        v
    };
    let regressions = shuffled(0..TASKS / 2);
    let classifications = shuffled(TASKS / 2..TASKS);
    let order = regressions
        .into_iter()
        .zip(classifications)
        .flat_map(|(r, c)| [r, c])
        .collect();
    Inputs { rows, tasks, order }
}

fn config() -> PmwConfig {
    PmwConfig::builder(EPSILON, DELTA, ALPHA)
        .k(usize::MAX)
        .rounds_override(ROUNDS)
        .solver_iters(SOLVER_ITERS)
        .build()
        .expect("valid online-glm config")
}

/// Rows in hand to a mechanism ready to answer.
fn build(rows: Vec<usize>, rng: &mut StdRng) -> OnlinePmw {
    let cube = BooleanCube::scaled(DIM).expect("10-bit cube");
    let data = Dataset::from_indices(1 << DIM, rows).expect("rows index the cube");
    OnlinePmw::new(config(), &cube, data, rng).expect("online-glm mechanism")
}

/// Seconds per construction, over spaced single constructions, each with
/// the host's slowdown next to it.
pub fn setup_s(inputs: &Inputs, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    time_setups(
        1,
        || inputs.rows.clone(),
        |rows| build(rows, &mut rng),
        drop,
    )
}

/// A fresh mechanism answering the rotation for `seconds`, reporting
/// through `probe`; the checks run afterwards, outside the timed phase.
pub fn run<P: Probe>(inputs: &Inputs, seed: u64, seconds: f64, probe: &P) -> Timed {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0111);
    let mut mech = build(inputs.rows.clone(), &mut rng);
    let mut tally = Tally::default();
    let mut prefix_updates = 0;
    let mut answered: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut latency = Vec::new();
    let mut done_ns = Vec::new();
    let mut speed = Speed::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        let task = inputs.order[i % TASKS];
        i += 1;
        tally.attempted += 1;
        let before = mech.updates_used();
        let t = Instant::now();
        let result = mech.answer_with_probe(&inputs.tasks[task], &mut rng, probe);
        let ns = t.elapsed().as_nanos() as u64;
        let local = speed.sample(1);
        match result {
            Ok(theta) => {
                done_ns.push(start.elapsed().as_nanos() as u64);
                if mech.updates_used() > before {
                    tally.updates += 1;
                    prefix_updates += u64::from(answered.len() < PREFIX_ANSWERS);
                } else {
                    tally.free += 1;
                    latency.push((ns, local));
                }
                answered.push((task, theta));
            }
            Err(PmwError::Halted) => tally.halted += 1,
            Err(_) => tally.failed += 1,
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let mut timed = Timed {
        tally,
        answers: answered.len() as u64,
        wall_s,
        latency,
        done_ns,
        speed,
        prefix_updates,
        ..Timed::default()
    };
    check(inputs, &mech, &answered, &mut timed);
    timed
}

/// Output checks: the ledger stays within (ε, δ), every answer is finite
/// and in its loss's domain, and its excess risk on the true data is at
/// most α. The error metrics cover the first `PREFIX_ANSWERS` answers.
fn check(inputs: &Inputs, mech: &OnlinePmw, answered: &[(usize, Vec<f64>)], timed: &mut Timed) {
    let (points, weights) = (mech.data_points(), mech.data_weights());
    let mut opt = vec![None; TASKS];
    let mut in_domain = true;
    let mut max_risk = 0.0f64;
    for (i, (task, theta)) in answered.iter().enumerate() {
        let loss = &inputs.tasks[*task];
        in_domain &= theta.iter().all(|v| v.is_finite()) && loss.domain().contains(theta, 1e-9);
        let obj = WeightedObjective::new(loss, points, weights).expect("objective");
        let best = *opt[*task].get_or_insert_with(|| {
            let theta_star =
                minimize_weighted(loss, points, weights, REFERENCE_ITERS).expect("reference solve");
            obj.value(&theta_star)
        });
        let risk = (obj.value(theta) - best).max(0.0);
        max_risk = max_risk.max(risk);
        if i < PREFIX_ANSWERS {
            timed.errors.add(risk);
        }
    }
    timed.checks.push((
        "online-glm: privacy ledger within (eps, delta)".into(),
        privacy_within(mech.accountant(), EPSILON, DELTA),
    ));
    timed.checks.push((
        "online-glm: answers finite and inside the loss domain".into(),
        in_domain,
    ));
    timed.checks.push((
        format!("online-glm: excess risk {max_risk:.4} <= alpha {ALPHA}"),
        max_risk <= ALPHA,
    ));
}
