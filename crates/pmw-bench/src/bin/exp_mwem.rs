//! E13 — Fast-MWEM: the offline linear-query mechanism past the Θ(|X|)
//! wall.
//!
//! Classic MWEM \[HLM12\] pays `Θ(k·|X|)` per round: every selection score
//! is a dense inner product and the MW update sweeps the histogram. This
//! binary drives the **same** [`Mwem`] engine through both state
//! representations:
//!
//! * **dense** — `run_with_backend` over a materialized `BooleanCube`
//!   (`DataSide::from_universe`) + `DenseBackend`, measured at the largest size where that is cheap
//!   (`2^16` full, `2^12` smoke) and extrapolated per-element beyond;
//! * **sampled** — `run_with_source_probed` over a `BigBitCube` point
//!   source + `SampledBackend` (pool budget `m`): implicit width-2 marginal
//!   queries, data side on the dataset's ≤ n support rows, per-round cost
//!   `O(k·m·d + n·d)` — flat in `|X|` through `2^26`, where the dense
//!   path cannot even materialize.
//!
//! At the shared size it reports the **answer-error columns**: sampled vs
//! dense answers under the identical rng stream (selection agreement
//! included), and — for the [`SampledConfig::resample_every`] pool-refresh
//! knob — sampled-vs-truth errors with the pool reused for the whole run
//! versus redrawn every few rounds. A reused pool makes successive
//! estimates *correlated* (the same sampling noise enters every round's
//! selection scores and answers); the two columns quantify what the
//! drift-aware refresh buys.
//!
//! Per-round figures on both paths difference a one-round baseline run
//! out of the `T`-round run, so one-time setup — `Θ(|X|·d)` universe
//! materialization and histogram build on the dense path, the `O(k·n·d)`
//! dataset-truths sweep on both — never inflates the extrapolation base.
//!
//! Writes `BENCH_mwem.json` (validated by `bench_schema_check`). Pass
//! `--smoke` for the seconds-long CI variant.
//!
//! A final **probed mirror run** at the shared size (untimed) replays the
//! sampled run under a live [`SummaryProbe`](pmw_obs::SummaryProbe) and lands its per-phase
//! latency table in the artifact's `"probe"` object; pass
//! `--trace <path>` to additionally stream that run as a JSONL trace
//! (render it with the `run_report` binary).

use pmw_bench::{header, probed_run, write_artifact};
use pmw_core::{DataSide, DenseBackend, Mwem};
use pmw_data::workload::random_implicit_marginals;
use pmw_data::{BigBitCube, BooleanCube, Dataset, ImplicitQuery, PointSource};
use pmw_obs::{json_object, Json, NoopProbe, Probe};
use pmw_sketch::{SampledBackend, SampledConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Experiment scale knobs (full vs `--smoke`).
struct Scale {
    sizes: &'static [usize],
    error_size: usize,
    rounds: usize,
    queries: usize,
    budget: usize,
    n: usize,
    epsilon: f64,
    resample_every: usize,
}

const FULL: Scale = Scale {
    sizes: &[12, 16, 20, 24, 26],
    error_size: 16,
    rounds: 8,
    queries: 24,
    budget: 2048,
    n: 2000,
    epsilon: 4.0,
    resample_every: 4,
};

const SMOKE: Scale = Scale {
    sizes: &[12, 14],
    error_size: 12,
    rounds: 4,
    queries: 8,
    budget: 256,
    n: 400,
    epsilon: 4.0,
    resample_every: 2,
};

/// Deterministic per-size workload: `k` random width-2 implicit marginals.
fn workload(dim: usize, k: usize) -> Vec<ImplicitQuery> {
    let mut rng = StdRng::seed_from_u64(500 + dim as u64);
    random_implicit_marginals(dim, 2, k, &mut rng).expect("workload")
}

/// A skewed dataset over the `dim`-bit cube: bit 0 set with probability
/// 0.9, the rest uniform — rows drawn through the point source, so the
/// construction itself is `O(n)` at any `|X|`.
fn skewed_rows(source: &BigBitCube, n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
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
    Dataset::from_indices(source.len(), rows).expect("dataset")
}

/// Exact true answers `q(D)` over the dataset's support rows — `O(n·d)`
/// per query, the reference for the truth-error columns.
fn true_answers(queries: &[ImplicitQuery], dataset: &Dataset, source: &BigBitCube) -> Vec<f64> {
    let (indices, weights) = dataset.support();
    let mut point = vec![0.0; source.dim()];
    queries
        .iter()
        .map(|q| {
            indices
                .iter()
                .zip(&weights)
                .map(|(&idx, &w)| {
                    source.write_point(idx, &mut point);
                    w * q.evaluate(&point)
                })
                .sum()
        })
        .collect()
}

#[derive(Clone)]
struct SampledRun {
    per_round_ns: f64,
    answers: Vec<f64>,
    selected: Vec<usize>,
    resamples: usize,
    /// Mean claimed radius over the run's `query-mean` ledger entries —
    /// the per-estimate error bar the selection and answers carried.
    claimed_radius_mean: f64,
    /// Per-bound win counts over the same entries
    /// (hoeffding, ess, bernstein).
    radius_wins: (usize, usize, usize),
    /// Final-state calibration probe `(claimed_radius_mean,
    /// realized_err_mean)`: fresh `query_mean` estimates on the run's
    /// final state paired with the **exact** lazy-log evaluation of the
    /// same state — per-estimate calibration, not transcript divergence
    /// (the widened EM makes sampled selections diverge from dense, so
    /// `answer_err_vs_dense` measures a different thing).
    probe: Option<(f64, f64)>,
}

/// One sampled run at the given round count; returns total wall time so
/// the caller can difference out the shared one-time setup (the run
/// builds the dataset truths in `O(k·n·d)` before the first round).
fn sampled_total<P: Probe>(
    scale: &Scale,
    log2_x: usize,
    resample_every: usize,
    run_seed: u64,
    rounds: usize,
    probe_exact: bool,
    probe: &P,
) -> (f64, SampledRun) {
    let source = BigBitCube::new(log2_x).expect("source");
    let dataset = skewed_rows(&source, scale.n, 40 + log2_x as u64);
    let queries = workload(log2_x, scale.queries);
    let mut pool_rng = StdRng::seed_from_u64(7000 + log2_x as u64);
    let backend = SampledBackend::with_probe(
        source,
        SampledConfig {
            budget: scale.budget,
            resample_every,
            ..SampledConfig::default()
        },
        probe,
        &mut pool_rng,
    )
    .expect("sampled backend");
    let mwem = Mwem::new(rounds, 1.0).expect("mwem");
    let mut rng = StdRng::seed_from_u64(run_seed);
    let start = Instant::now();
    let run = mwem
        .run_with_source_probed(
            &queries,
            &source,
            &dataset,
            scale.epsilon,
            backend,
            &mut rng,
            probe,
        )
        .expect("sampled mwem run");
    let elapsed = start.elapsed().as_nanos() as f64;
    assert!(
        run.averaged.is_none(),
        "sampled MWEM must not build a |X|-sized average"
    );
    let ledger = run.state.ledger();
    let query_records: Vec<_> = ledger
        .records()
        .iter()
        .filter(|r| r.label == "query-mean")
        .collect();
    let claimed_radius_mean = if query_records.is_empty() {
        0.0
    } else {
        query_records.iter().map(|r| r.radius).sum::<f64>() / query_records.len() as f64
    };
    let wins =
        |bound: pmw_dp::RadiusBound| query_records.iter().filter(|r| r.bound == bound).count();
    let radius_wins = (
        wins(pmw_dp::RadiusBound::Hoeffding),
        wins(pmw_dp::RadiusBound::EffectiveSample),
        wins(pmw_dp::RadiusBound::Bernstein),
    );
    drop(ledger);
    // The calibration probe: exact expected query values of the run's
    // *own* final state via a streaming two-pass sweep of its retained
    // update log (the LazyLogBackend evaluation engine — O(|X|·t·d), no
    // |X|-sized allocation), against fresh estimates of the same state.
    // This pairs each claimed radius with the estimator error it actually
    // bounds; it is only affordable at the shared (error) size.
    let probe = if probe_exact {
        let probe_source = BigBitCube::new(log2_x).expect("probe source");
        let n = probe_source.len();
        let mut point = vec![0.0; probe_source.dim()];
        let mut grad = Vec::new();
        let log = run.state.log();
        let mut shift = f64::NEG_INFINITY;
        for x in 0..n {
            probe_source.write_point(x, &mut point);
            shift = shift.max(log.log_weight_at(&point, &mut grad).expect("log weight"));
        }
        let mut den = 0.0;
        let mut nums = vec![0.0; queries.len()];
        for x in 0..n {
            probe_source.write_point(x, &mut point);
            let w = (log.log_weight_at(&point, &mut grad).expect("log weight") - shift).exp();
            den += w;
            for (num, q) in nums.iter_mut().zip(&queries) {
                *num += w * q.evaluate(&point);
            }
        }
        let mut err_sum = 0.0;
        let mut radius_sum = 0.0;
        for (q, num) in queries.iter().zip(&nums) {
            let est = run.state.query_mean(q).expect("probe estimate");
            err_sum += (est.value - num / den).abs();
            radius_sum += est.radius;
        }
        let k = queries.len() as f64;
        Some((radius_sum / k, err_sum / k))
    } else {
        None
    };
    (
        elapsed,
        SampledRun {
            per_round_ns: 0.0,
            answers: run.answers,
            selected: run.selected,
            resamples: run.state.resamples(),
            claimed_radius_mean,
            radius_wins,
            probe,
        },
    )
}

fn run_sampled(
    scale: &Scale,
    log2_x: usize,
    resample_every: usize,
    run_seed: u64,
    probe_exact: bool,
) -> SampledRun {
    // Difference a 1-round baseline out of the T-round run so the
    // per-round figure is the marginal round cost, not round + setup/T.
    // Warm the kernels (and any lazy global init, e.g. the parallel
    // thread pool) first: a cold baseline can otherwise exceed the
    // T-round total and floor the difference. Timed runs are never
    // probed: `NoopProbe` compiles to the unprobed loop.
    sampled_total(
        scale,
        log2_x,
        resample_every,
        run_seed,
        1,
        false,
        &NoopProbe,
    );
    let (baseline, _) = sampled_total(
        scale,
        log2_x,
        resample_every,
        run_seed,
        1,
        false,
        &NoopProbe,
    );
    let (total, mut run) = sampled_total(
        scale,
        log2_x,
        resample_every,
        run_seed,
        scale.rounds,
        probe_exact,
        &NoopProbe,
    );
    run.per_round_ns = ((total - baseline) / (scale.rounds - 1) as f64).max(1.0);
    run
}

struct DenseRun {
    per_round_ns: f64,
    answers: Vec<f64>,
    selected: Vec<usize>,
}

/// One dense run at the given round count; total wall time returned for
/// the same baseline subtraction (here the setup is `Θ(|X|·d)`: universe
/// materialization + histogram build, which would otherwise inflate the
/// extrapolation base).
fn dense_total(scale: &Scale, log2_x: usize, run_seed: u64, rounds: usize) -> (f64, DenseRun) {
    // Identical dataset/workload construction as the sampled run at this
    // size, so answers and selections are comparable one-to-one.
    let source = BigBitCube::new(log2_x).expect("source");
    let dataset = skewed_rows(&source, scale.n, 40 + log2_x as u64);
    let queries = workload(log2_x, scale.queries);
    let cube = BooleanCube::new(log2_x).expect("dense cube");
    let state = DenseBackend::new(1 << log2_x).expect("dense backend");
    let mwem = Mwem::new(rounds, 1.0).expect("mwem");
    let mut rng = StdRng::seed_from_u64(run_seed);
    let start = Instant::now();
    let data = DataSide::from_universe(&cube, &dataset).expect("dense data side");
    let run = mwem
        .run_with_backend(&queries, &data, scale.epsilon, state, &mut rng)
        .expect("dense mwem run");
    let elapsed = start.elapsed().as_nanos() as f64;
    (
        elapsed,
        DenseRun {
            per_round_ns: 0.0,
            answers: run.answers,
            selected: run.selected,
        },
    )
}

fn run_dense(scale: &Scale, log2_x: usize, run_seed: u64) -> DenseRun {
    // Same warmup rationale as `run_sampled`.
    dense_total(scale, log2_x, run_seed, 1);
    let (baseline, _) = dense_total(scale, log2_x, run_seed, 1);
    let (total, mut run) = dense_total(scale, log2_x, run_seed, scale.rounds);
    run.per_round_ns = ((total - baseline) / (scale.rounds - 1) as f64).max(1.0);
    run
}

fn err_stats(a: &[f64], b: &[f64]) -> (f64, f64) {
    let errs: Vec<f64> = a.iter().zip(b).map(|(x, y)| (x - y).abs()).collect();
    let mean = errs.iter().sum::<f64>() / errs.len() as f64;
    let max = errs.iter().cloned().fold(0.0, f64::max);
    (mean, max)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { SMOKE } else { FULL };
    let run_seed = 4242u64;

    println!(
        "# E13: Fast-MWEM scaling (T={}, k={}, budget={}, n={}, eps={})",
        scale.rounds, scale.queries, scale.budget, scale.n, scale.epsilon
    );
    println!("# workload: width-2 implicit marginals; dense reference measured at 2^{} and extrapolated per element", scale.error_size);
    header(&[
        "log2_X",
        "sampled_per_round_us",
        "dense_extrapolated_round_us",
        "speedup_vs_dense",
        "err_vs_dense_mean",
        "err_vs_dense_max",
        "selection_matches",
    ]);

    // The dense reference at the shared size: per-round cost and the
    // answer transcript the sampled run is checked against.
    let dense = run_dense(&scale, scale.error_size, run_seed);
    let dense_ns_per_elem = dense.per_round_ns / (1u64 << scale.error_size) as f64;

    // Pool-refresh (estimator-correlation) columns at the shared size:
    // the same run with the pool reused for the whole run vs redrawn
    // every `resample_every` rounds, both scored against the exact truth.
    let source = BigBitCube::new(scale.error_size).expect("source");
    let err_dataset = skewed_rows(&source, scale.n, 40 + scale.error_size as u64);
    let err_queries = workload(scale.error_size, scale.queries);
    let truths = true_answers(&err_queries, &err_dataset, &source);
    let reused = run_sampled(&scale, scale.error_size, 0, run_seed, true);
    let refreshed = run_sampled(
        &scale,
        scale.error_size,
        scale.resample_every,
        run_seed,
        false,
    );
    let (truth_err_reused, _) = err_stats(&reused.answers, &truths);
    let (truth_err_refreshed, _) = err_stats(&refreshed.answers, &truths);

    let mut size_rows = Vec::new();
    let mut speedups = Vec::new();
    for &log2_x in scale.sizes {
        // The reused-pool run at the shared size is bit-identical to the
        // one already measured for the error columns; don't pay it twice.
        let sampled = if log2_x == scale.error_size {
            reused.clone()
        } else {
            run_sampled(&scale, log2_x, 0, run_seed, false)
        };
        let universe = (1u128 << log2_x) as f64;
        let extrapolated = dense_ns_per_elem * universe;
        let speedup = extrapolated / sampled.per_round_ns;
        speedups.push((log2_x, speedup));
        let mut size_row = vec![
            ("log2_x", log2_x.into()),
            ("universe", (1u64 << log2_x).into()),
            ("sampled_per_round_ns", sampled.per_round_ns.into()),
            ("dense_extrapolated_round_ns", extrapolated.into()),
            ("speedup_vs_dense_extrapolation", speedup.into()),
            ("mwem_answers", sampled.answers.len().into()),
        ];
        let err_cells = if log2_x == scale.error_size {
            let (mean, max) = err_stats(&sampled.answers, &dense.answers);
            let matches = sampled
                .selected
                .iter()
                .zip(&dense.selected)
                .filter(|(a, b)| a == b)
                .count();
            let (claimed, realized) = sampled.probe.unwrap_or((sampled.claimed_radius_mean, mean));
            size_row.extend([
                ("dense_per_round_ns", dense.per_round_ns.into()),
                ("answer_err_vs_dense_mean", mean.into()),
                ("answer_err_vs_dense_max", max.into()),
                ("selection_matches", matches.into()),
                ("answer_err_vs_truth_mean", truth_err_reused.into()),
                (
                    "answer_err_vs_truth_resampled_mean",
                    truth_err_refreshed.into(),
                ),
                ("resamples", refreshed.resamples.into()),
                ("claimed_radius_mean", claimed.into()),
                ("realized_err_mean", realized.into()),
                ("radius_wins_hoeffding", sampled.radius_wins.0.into()),
                ("radius_wins_ess", sampled.radius_wins.1.into()),
                ("radius_wins_bernstein", sampled.radius_wins.2.into()),
            ]);
            (mean, max, matches as f64)
        } else {
            (-1.0, -1.0, -1.0)
        };
        pmw_bench::row(
            &format!("{log2_x}"),
            &[
                sampled.per_round_ns / 1e3,
                extrapolated / 1e3,
                speedup,
                err_cells.0,
                err_cells.1,
                err_cells.2,
            ],
        );
        size_rows.push(Json::object(size_row));
    }
    println!(
        "# sampled per-round time is flat in |X| (the pool never touches the other 2^d - m points)"
    );
    println!(
        "# pool refresh (resample_every={}): answer err vs truth {:.5} reused-pool vs {:.5} refreshed — \
         a reused pool correlates successive round estimates; the refresh redraws it from the retained log",
        scale.resample_every, truth_err_reused, truth_err_refreshed
    );
    let (probe_claimed, probe_realized) = reused.probe.expect("error-size run carries the probe");
    println!(
        "# calibration at 2^{}: final-state probe claimed radius {:.4} vs exact-sweep realized err \
         {:.4} = {:.0}x; run-ledger mean radius {:.4}, bound wins ess={} bernstein={} hoeffding={}; \
         the EM sensitivity is widened by these radii, so sampled selections need not match the \
         dense transcript",
        scale.error_size,
        probe_claimed,
        probe_realized,
        if probe_realized > 0.0 {
            probe_claimed / probe_realized
        } else {
            0.0
        },
        reused.claimed_radius_mean,
        reused.radius_wins.1,
        reused.radius_wins.2,
        reused.radius_wins.0,
    );

    // The dense/sampled crossover: the smallest measured size where the
    // sampled path beats the dense extrapolation. Below it, dense is
    // still the right backend (the pooled round has a fixed O(k·m·d)
    // floor the tiny universes undercut); `null` when sampled never wins.
    let crossover = speedups
        .iter()
        .find(|(_, s)| *s > 1.0)
        .map_or(Json::Null, |&(l, _)| l.into());
    println!(
        "# dense/sampled crossover: sampled first beats the dense extrapolation at log2_x={crossover}"
    );

    let machine_threads = std::thread::available_parallelism().map_or(1, usize::from);

    // Probed mirror of the sampled run at the shared size (untimed):
    // per-phase latency for the artifact, plus a JSONL trace when
    // `--trace <path>` is given. Every timed run above used `NoopProbe`.
    let detail = format!(
        "exp_mwem sampled log2_x={} T={} k={} budget={}",
        scale.error_size, scale.rounds, scale.queries, scale.budget
    );
    let probe = probed_run!("mwem", &detail, |probe| {
        sampled_total(
            &scale,
            scale.error_size,
            0,
            run_seed,
            scale.rounds,
            false,
            probe,
        )
    });

    let artifact = json_object! {
        "experiment": "mwem_scaling",
        "rounds": scale.rounds,
        "queries": scale.queries,
        "budget": scale.budget,
        "mwem_n": scale.n,
        "epsilon": scale.epsilon,
        "beta": SampledConfig::default().beta,
        "smoke": smoke,
        "workload": "width-2 implicit marginals",
        "resample_every": scale.resample_every,
        "dense_ref_log2_x": scale.error_size,
        "dense_ns_per_elem_ref": dense_ns_per_elem,
        "crossover_log2_x": crossover,
        "machine_threads": machine_threads,
        "sizes": Json::Array(size_rows),
        "probe": probe,
    };
    write_artifact("BENCH_mwem.json", &artifact);
}
