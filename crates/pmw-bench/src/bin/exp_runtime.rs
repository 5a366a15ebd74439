//! E11 — Section 4.3: running time scales with `|X|`, not `log|X|`.
//!
//! Paper claim: each iteration costs `poly(n, d)` except the histogram
//! update, which is `Θ(|X|)`; overall `poly(n, |X|, k)`, exponential in the
//! data dimension — and inherently so \[Ull13\]. This binary pins the three
//! Θ(|X|) kernels at `|X| ∈ {2^12 … 2^20}`:
//!
//! 1. `mw_update` — the fused log-domain pass (`log_w[x] -= η·u[x]`),
//!    measured against the seed's dense exp-renormalize reference
//!    ([`pmw_bench::mw_update_reference`]);
//! 2. the dual-certificate sweep (`certificate_batch` over the flat
//!    [`PointMatrix`]);
//! 3. a full `OnlinePmw::answer` round (oracle solve + sweep + update).
//!
//! Besides the TSV on stdout it writes `BENCH_runtime.json` (machine
//! readable, ns/element per kernel per size) into the working directory —
//! the perf trajectory record for future scaling PRs.
//!
//! A fourth section — the **backend axis** — times one state-maintenance
//! round (one MW update plus one state read) through each
//! [`StateBackend`] flavor: `dense` (Θ(|X|)
//! sweep), `lazy` (O(1) record, O(t·d) point lookup) and `sampled`
//! (O(m·d) pooled round at the configured budget). Pass `--smoke` for a
//! seconds-long CI variant (small sizes, few reps) that still writes a
//! schema-complete artifact.
//!
//! The **thread axis** re-times the certificate sweep at the largest size
//! with the sweep worker count forced to each listed value, and reports
//! `speedup_vs_1thread` from it. It is the only thread axis any artifact
//! carries: the sampled backend's pool sweeps are serial at every worker
//! count, so there is nothing else for the axis to measure.
//!
//! A final **probed mirror run** (untimed, largest size) replays the
//! kernel-3 workload under a live [`SummaryProbe`](pmw_obs::SummaryProbe) and lands its
//! per-phase latency table in the artifact's `"probe"` object; pass
//! `--trace <path>` to additionally stream that run as a JSONL trace
//! (render it with the `run_report` binary).

use pmw_bench::{
    header, mw_update_reference, probed_run, row, skewed_cube_dataset, thread_axis, write_artifact,
};
use pmw_core::update::dual_certificate_into;
use pmw_core::{DenseBackend, OnlinePmw, PmwConfig, StateBackend};
use pmw_data::{BooleanCube, Histogram, PointMatrix, Universe};
use pmw_erm::ExactOracle;
use pmw_losses::{CmLoss, LinearQueryLoss, PointPredicate};
use pmw_obs::{json_object, Json, NoopProbe, Probe};
use pmw_sketch::{LazyLogBackend, RoundUpdate, SampledBackend, SampledConfig, UniversePoints};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Mean wall time of `f` in nanoseconds over `reps` calls (plus warmup).
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

/// Kernel timings at `|X| = 2^log2_x` over the `log2_x`-bit boolean cube:
/// printed as a TSV row and returned as the artifact's `sizes` row.
fn measure(log2_x: usize) -> Json {
    let m = 1usize << log2_x;
    let dim = log2_x;
    let mut rng = StdRng::seed_from_u64(42 + log2_x as u64);
    // Scale repetitions so each kernel gets ~the same total work.
    let reps = ((1usize << 22) / m.max(1)).clamp(3, 256);

    // --- Kernel 1: MW update, log-domain vs the seed's dense reference. ---
    let payoff: Vec<f64> = (0..m).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
    let mut hist = Histogram::uniform(m).unwrap();
    let mw_ns = time_ns(reps, || {
        hist.mw_update(black_box(&payoff), black_box(0.01)).unwrap();
    });
    black_box(hist.weights());
    // Steady-state variant: OnlinePmw reads `weights()` at the top of every
    // round, so a ⊤-round pays the deferred exp/normalize pass exactly once
    // — time update + read together so the JSON records that cost too.
    let mw_read_ns = time_ns(reps, || {
        hist.mw_update(black_box(&payoff), black_box(0.01)).unwrap();
        black_box(hist.weights());
    });
    let mut dense = vec![1.0 / m as f64; m];
    let ref_ns = time_ns(reps, || {
        mw_update_reference(black_box(&mut dense), black_box(&payoff), black_box(0.01));
    });

    // --- Kernel 2: dual-certificate sweep over the flat PointMatrix. ---
    let cube = pmw_data::BooleanCube::new(dim).unwrap();
    let points = PointMatrix::from_universe(&cube);
    let loss = LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![0] }, dim).unwrap();
    let mut u = vec![0.0; m];
    let cert_ns = time_ns(reps, || {
        dual_certificate_into(
            black_box(&loss),
            black_box(&points),
            black_box(&[0.9]),
            black_box(&[0.1]),
            &mut u,
        )
        .unwrap();
    });

    // --- Kernel 3: a full online round (oracle solve + sweep + update). ---
    let round_ns = online_round_run(dim, &mut rng, &NoopProbe);

    let per_elem = |ns: f64| ns / m as f64;
    row(
        &format!("{log2_x}"),
        &[
            per_elem(mw_ns),
            per_elem(mw_read_ns),
            per_elem(ref_ns),
            ref_ns / mw_ns,
            per_elem(cert_ns),
            per_elem(round_ns),
        ],
    );
    json_object! {
        "log2_x": log2_x,
        "universe": m,
        "point_dim": dim,
        "mw_update_ns_per_elem": per_elem(mw_ns),
        "mw_update_with_read_ns_per_elem": per_elem(mw_read_ns),
        "mw_update_reference_ns_per_elem": per_elem(ref_ns),
        // Burst regime: updates with normalization deferred (the acceptance
        // metric). The with_read variant is the steady-state comparison —
        // OnlinePmw reads weights() once per round, so the deferred
        // log-sum-exp pass is paid there.
        "mw_update_speedup": ref_ns / mw_ns,
        "mw_update_with_read_speedup": ref_ns / mw_read_ns,
        "certificate_ns_per_elem": per_elem(cert_ns),
        "end_to_end_round_ns_per_elem": per_elem(round_ns),
    }
}

/// The kernel-3 workload as a probe-generic run: the full dense
/// `OnlinePmw::answer` loop at `|X| = 2^dim`, reporting mean ns per
/// answered query. The timed measurement passes [`NoopProbe`] (the loop
/// compiles to exactly the unprobed code); the probed mirror run passes a
/// live probe to harvest per-phase timings without touching the timed
/// figures.
fn online_round_run<P: Probe>(dim: usize, rng: &mut StdRng, probe: &P) -> f64 {
    let (cube, data) = skewed_cube_dataset(dim, 2000, rng);
    let k = 6usize;
    let config = PmwConfig::builder(2.0, 1e-6, 0.1)
        .k(k)
        .scale(1.0)
        .rounds_override(k)
        .solver_iters(80)
        .build()
        .unwrap();
    let mut mech =
        OnlinePmw::with_oracle(config, &cube, data, ExactOracle::new(80).unwrap(), rng).unwrap();
    let start = Instant::now();
    let mut answered = 0usize;
    for j in 0..k {
        let loss = LinearQueryLoss::new(
            PointPredicate::Conjunction {
                coords: vec![j % dim],
            },
            dim,
        )
        .unwrap();
        if mech.answer_with_probe(&loss, rng, probe).is_ok() {
            answered += 1;
        } else {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / answered.max(1) as f64
}

/// Rotating linear-query round parameters, shared by every backend so the
/// axis compares representations, not workloads.
fn axis_round(dim: usize, t: usize) -> (LinearQueryLoss, [f64; 1], [f64; 1], f64) {
    let loss = LinearQueryLoss::new(
        PointPredicate::Conjunction {
            coords: vec![t % dim],
        },
        dim,
    )
    .unwrap();
    let frac = (t % 7) as f64 / 7.0;
    (loss, [0.1 + 0.8 * frac], [0.9 - 0.8 * frac], 0.05)
}

/// Backend-axis timings at `|X| = 2^log2_x`, printed as TSV rows and
/// returned as the artifact's `backend_axis` rows. Per backend flavor,
/// `round_ns` is one MW round: the update plus one full state read of the
/// kind the backend supports (dense: weights sweep; lazy: record only,
/// since reads are point-level by design; sampled: pooled record plus a
/// certificate-mean estimate). `point_read_ns` is one point-level read
/// (dense: cached mass lookup; lazy: O(t·d) log-weight evaluation;
/// sampled: one Gumbel-max sample, O(m)).
fn measure_backend_axis(log2_x: usize, rounds: usize, budget: usize) -> Vec<Json> {
    let dim = log2_x;
    let m = 1usize << log2_x;
    let cube = BooleanCube::new(dim).unwrap();
    let points = cube.materialize();
    let mut rng = StdRng::seed_from_u64(7 + log2_x as u64);
    let reads = 1024usize;
    let mut rows = Vec::new();
    // Ends the point-read timing started at `reads_start`, then records.
    let mut push_row = |backend: &str, round_ns: f64, reads_start: Instant| {
        let point_read_ns = reads_start.elapsed().as_nanos() as f64 / reads as f64;
        row(&format!("{backend}\t{log2_x}"), &[round_ns, point_read_ns]);
        rows.push(json_object! {
            "backend": backend,
            "log2_x": log2_x,
            "round_ns": round_ns,
            "point_read_ns": point_read_ns,
        });
    };

    // Dense: Θ(|X|) certificate sweep + MW update + deferred weights read.
    let mut dense = DenseBackend::new(m).unwrap();
    let start = Instant::now();
    for t in 0..rounds {
        let (loss, t_o, t_h, eta) = axis_round(dim, t);
        dense
            .apply_update(&loss, None, &points, &t_o, &t_h, eta, None, &mut rng)
            .unwrap();
        black_box(dense.hypothesis().weights());
    }
    let dense_round = start.elapsed().as_nanos() as f64 / rounds as f64;
    let start = Instant::now();
    for i in 0..reads {
        black_box(dense.hypothesis().mass(i % m));
    }
    push_row("dense", dense_round, start);

    // Lazy: O(1) record; point reads re-evaluate the O(t·d) log.
    let mut lazy = LazyLogBackend::new(UniversePoints(cube.clone())).unwrap();
    let start = Instant::now();
    for t in 0..rounds {
        let (loss, t_o, t_h, eta) = axis_round(dim, t);
        lazy.record(
            RoundUpdate::new(
                Arc::new(loss) as Arc<dyn CmLoss>,
                t_o.to_vec(),
                t_h.to_vec(),
                eta,
            )
            .unwrap(),
        )
        .unwrap();
    }
    let lazy_round = start.elapsed().as_nanos() as f64 / rounds as f64;
    let start = Instant::now();
    for i in 0..reads {
        black_box(lazy.log_weight_of(i % m).unwrap());
    }
    push_row("lazy", lazy_round, start);

    // Sampled: O(budget·d) pooled round (record + certificate estimate).
    let mut sampled = SampledBackend::new(
        UniversePoints(cube),
        SampledConfig {
            budget,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let start = Instant::now();
    for t in 0..rounds {
        let (loss, t_o, t_h, eta) = axis_round(dim, t);
        sampled.record_borrowed(&loss, &t_o, &t_h, eta).unwrap();
        black_box(sampled.certificate_mean(&loss, &t_o, &t_h).unwrap());
    }
    let sampled_round = start.elapsed().as_nanos() as f64 / rounds as f64;
    let start = Instant::now();
    for _ in 0..reads {
        black_box(sampled.sample_index(&mut rng));
    }
    push_row("sampled", sampled_round, start);

    rows
}

/// One thread-axis row: the Θ(|X|) certificate kernel, ns per element,
/// re-timed with the worker count forced to `threads`. The chunk
/// boundaries are fixed independently of the worker count, so the row
/// measures pure scheduling: the numbers it produces are bit-for-bit the
/// serial row's.
fn measure_thread_row(log2_x: usize, threads: usize) -> f64 {
    pmw_data::par::with_threads(threads, || {
        let dim = log2_x;
        let m = 1usize << log2_x;
        let cube = BooleanCube::new(dim).unwrap();
        let points = PointMatrix::from_universe(&cube);
        let loss =
            LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![0] }, dim).unwrap();
        let mut u = vec![0.0; m];
        let reps = ((1usize << 22) / m.max(1)).clamp(3, 64);
        let cert_ns = time_ns(reps, || {
            dual_certificate_into(
                black_box(&loss),
                black_box(&points),
                black_box(&[0.9]),
                black_box(&[0.1]),
                &mut u,
            )
            .unwrap();
        });
        cert_ns / m as f64
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let parallel = cfg!(feature = "parallel");
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!("# E11 / Section 4.3: Θ(|X|) kernel cost (parallel={parallel}, threads={threads}, smoke={smoke})");
    header(&[
        "log2_X",
        "mw_update_ns_per_elem",
        "mw_update_with_read_ns_per_elem",
        "mw_reference_ns_per_elem",
        "mw_speedup",
        "certificate_ns_per_elem",
        "end_to_end_round_ns_per_elem",
    ]);

    let sizes: &[usize] = if smoke {
        &[10, 12]
    } else {
        &[12, 14, 16, 18, 20]
    };
    let size_rows: Vec<Json> = sizes.iter().map(|&log2_x| measure(log2_x)).collect();
    println!("# ns/element should stabilize: time is linear in |X|");

    // Backend axis: the same state-maintenance round through each
    // StateBackend flavor (see the module docs for the semantics).
    let (axis_rounds, axis_budget) = if smoke { (4, 256) } else { (12, 2048) };
    println!("# backend axis (round = update + representative read, budget={axis_budget})");
    header(&["backend", "log2_X", "round_ns", "point_read_ns"]);
    let axis: Vec<Json> = sizes
        .iter()
        .flat_map(|&log2_x| measure_backend_axis(log2_x, axis_rounds, axis_budget))
        .collect();

    // Thread axis: the certificate sweep re-timed at each forced worker
    // count. The chunked reductions use fixed boundaries, so every row
    // computes identical bits — only the wall time moves.
    let thread_counts = thread_axis();
    let thread_size = *sizes.last().unwrap();
    println!("# thread axis (log2_x={thread_size}, machine threads={threads})");
    header(&["threads", "certificate_ns_per_elem", "speedup_vs_1thread"]);
    let mut thread_rows = Vec::new();
    let mut serial = None;
    for &t in &thread_counts {
        let cert = measure_thread_row(thread_size, t);
        let speedup = *serial.get_or_insert(cert) / cert;
        row(&format!("{t}"), &[cert, speedup]);
        thread_rows.push(json_object! {
            "threads": t,
            "certificate_ns_per_elem": cert,
            "speedup_vs_1thread": speedup,
        });
    }

    // Probed mirror run at the largest measured size: per-phase latency
    // for the artifact (and a JSONL trace when `--trace <path>` is given).
    // The timed loops above all ran with `NoopProbe`; this extra run is
    // the only one a probe observes.
    let trace_size = *sizes.last().unwrap();
    let detail = format!("exp_runtime dense round log2_x={trace_size} k=6");
    let mut probe_rng = StdRng::seed_from_u64(42 + trace_size as u64);
    let probe = probed_run!("online_pmw", &detail, |probe| {
        online_round_run(trace_size, &mut probe_rng, probe)
    });

    let artifact = json_object! {
        "experiment": "runtime_scaling",
        "units": "ns_per_element",
        "parallel": parallel,
        "machine_threads": threads,
        "threads_axis": Json::Array(thread_counts.iter().map(|&t| t.into()).collect()),
        "smoke": smoke,
        "sizes": Json::Array(size_rows),
        "backend_axis": Json::Array(axis),
        "thread_scaling": Json::Array(thread_rows),
        "probe": probe,
    };
    write_artifact("BENCH_runtime.json", &artifact);
}
