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
//! kernel-3 workload under a live [`SummaryProbe`] and lands its
//! per-phase latency table in the artifact's `"probe"` object; pass
//! `--trace <path>` to additionally stream that run as a JSONL trace
//! (render it with the `run_report` binary).

use pmw_bench::{
    header, mw_update_reference, probe_json, row, skewed_cube_dataset, thread_axis,
    threads_axis_json, trace_path,
};
use pmw_core::update::dual_certificate_into;
use pmw_core::{DenseBackend, OnlinePmw, PmwConfig, StateBackend};
use pmw_data::{BooleanCube, Histogram, PointMatrix, Universe};
use pmw_erm::ExactOracle;
use pmw_losses::{CmLoss, LinearQueryLoss, PointPredicate};
use pmw_obs::{JsonlTraceProbe, NoopProbe, Probe, SummaryProbe};
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

struct SizeReport {
    log2_x: usize,
    point_dim: usize,
    mw_update_ns_per_elem: f64,
    mw_update_with_read_ns_per_elem: f64,
    mw_update_reference_ns_per_elem: f64,
    mw_update_speedup: f64,
    mw_update_with_read_speedup: f64,
    certificate_ns_per_elem: f64,
    end_to_end_round_ns_per_elem: f64,
}

/// Kernel timings at `|X| = 2^log2_x` over the `log2_x`-bit boolean cube.
fn measure(log2_x: usize) -> SizeReport {
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

    SizeReport {
        log2_x,
        point_dim: dim,
        mw_update_ns_per_elem: mw_ns / m as f64,
        mw_update_with_read_ns_per_elem: mw_read_ns / m as f64,
        mw_update_reference_ns_per_elem: ref_ns / m as f64,
        // Burst regime: updates with normalization deferred (the acceptance
        // metric). The with_read variant is the steady-state comparison —
        // OnlinePmw reads weights() once per round, so the deferred
        // log-sum-exp pass is paid there.
        mw_update_speedup: ref_ns / mw_ns,
        mw_update_with_read_speedup: ref_ns / mw_read_ns,
        certificate_ns_per_elem: cert_ns / m as f64,
        end_to_end_round_ns_per_elem: round_ns / m as f64,
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

/// One backend-axis measurement: a state-maintenance round (update +
/// representative read) plus a point-level read, per backend flavor.
struct BackendAxisRow {
    backend: &'static str,
    log2_x: usize,
    /// One MW round through the backend: update + one full state read of
    /// the kind the backend supports (dense: weights sweep; lazy: record
    /// only — reads are point-level by design; sampled: pooled record +
    /// certificate-mean estimate).
    round_ns: f64,
    /// One point-level read (dense: cached mass lookup; lazy: O(t·d)
    /// log-weight evaluation; sampled: one Gumbel-max sample, O(m)).
    point_read_ns: f64,
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

/// Backend-axis timings at `|X| = 2^log2_x`.
fn measure_backend_axis(log2_x: usize, rounds: usize, budget: usize) -> Vec<BackendAxisRow> {
    let dim = log2_x;
    let m = 1usize << log2_x;
    let cube = BooleanCube::new(dim).unwrap();
    let points = cube.materialize();
    let mut rng = StdRng::seed_from_u64(7 + log2_x as u64);
    let mut rows = Vec::new();

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
    let reads = 1024usize;
    for i in 0..reads {
        black_box(dense.hypothesis().mass(i % m));
    }
    rows.push(BackendAxisRow {
        backend: "dense",
        log2_x,
        round_ns: dense_round,
        point_read_ns: start.elapsed().as_nanos() as f64 / reads as f64,
    });

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
    rows.push(BackendAxisRow {
        backend: "lazy",
        log2_x,
        round_ns: lazy_round,
        point_read_ns: start.elapsed().as_nanos() as f64 / reads as f64,
    });

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
    rows.push(BackendAxisRow {
        backend: "sampled",
        log2_x,
        round_ns: sampled_round,
        point_read_ns: start.elapsed().as_nanos() as f64 / reads as f64,
    });

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
    let mut reports = Vec::new();
    for &log2_x in sizes {
        let r = measure(log2_x);
        row(
            &format!("{log2_x}"),
            &[
                r.mw_update_ns_per_elem,
                r.mw_update_with_read_ns_per_elem,
                r.mw_update_reference_ns_per_elem,
                r.mw_update_speedup,
                r.certificate_ns_per_elem,
                r.end_to_end_round_ns_per_elem,
            ],
        );
        reports.push(r);
    }
    println!("# ns/element should stabilize: time is linear in |X|");

    // Backend axis: the same state-maintenance round through each
    // StateBackend flavor (see the module docs for the semantics).
    let (axis_rounds, axis_budget) = if smoke { (4, 256) } else { (12, 2048) };
    println!("# backend axis (round = update + representative read, budget={axis_budget})");
    header(&["backend", "log2_X", "round_ns", "point_read_ns"]);
    let mut axis = Vec::new();
    for &log2_x in sizes {
        for r in measure_backend_axis(log2_x, axis_rounds, axis_budget) {
            row(
                &format!("{}\t{}", r.backend, r.log2_x),
                &[r.round_ns, r.point_read_ns],
            );
            axis.push(r);
        }
    }

    // Thread axis: the certificate sweep re-timed at each forced worker
    // count. The chunked reductions use fixed boundaries, so every row
    // computes identical bits — only the wall time moves.
    let thread_counts = thread_axis();
    let thread_size = *sizes.last().unwrap();
    println!("# thread axis (log2_x={thread_size}, machine threads={threads})");
    header(&["threads", "certificate_ns_per_elem", "speedup_vs_1thread"]);
    let mut thread_rows = Vec::new();
    for &t in &thread_counts {
        let cert = measure_thread_row(thread_size, t);
        thread_rows.push((t, cert));
        row(&format!("{t}"), &[cert, thread_rows[0].1 / cert]);
    }

    // Probed mirror run at the largest measured size: per-phase latency
    // for the artifact (and a JSONL trace when `--trace <path>` is given).
    // The timed loops above all ran with `NoopProbe`; this extra run is
    // the only one a probe observes.
    let trace_size = *sizes.last().unwrap();
    let detail = format!("exp_runtime dense round log2_x={trace_size} k=6");
    let summary_probe = SummaryProbe::new("online_pmw", &detail);
    let mut probe_rng = StdRng::seed_from_u64(42 + trace_size as u64);
    match trace_path() {
        Some(path) => {
            let jsonl = JsonlTraceProbe::create(&path).expect("create trace file");
            let tee = (&jsonl, &summary_probe);
            tee.run_start("online_pmw", &detail);
            online_round_run(trace_size, &mut probe_rng, &tee);
            tee.run_end();
            assert_eq!(jsonl.finish(), 0, "trace write errors");
            println!("# wrote {path}");
        }
        None => {
            summary_probe.run_start("online_pmw", &detail);
            online_round_run(trace_size, &mut probe_rng, &summary_probe);
        }
    }
    let probe_summary = summary_probe.finish();

    // Machine-readable record (hand-rolled JSON: the workspace is offline
    // and vendors no serde).
    let sizes: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "    {{\"log2_x\": {}, \"universe\": {}, \"point_dim\": {}, \
                 \"mw_update_ns_per_elem\": {:.3}, \
                 \"mw_update_with_read_ns_per_elem\": {:.3}, \
                 \"mw_update_reference_ns_per_elem\": {:.3}, \
                 \"mw_update_speedup\": {:.2}, \
                 \"mw_update_with_read_speedup\": {:.2}, \
                 \"certificate_ns_per_elem\": {:.3}, \
                 \"end_to_end_round_ns_per_elem\": {:.3}}}",
                r.log2_x,
                1usize << r.log2_x,
                r.point_dim,
                r.mw_update_ns_per_elem,
                r.mw_update_with_read_ns_per_elem,
                r.mw_update_reference_ns_per_elem,
                r.mw_update_speedup,
                r.mw_update_with_read_speedup,
                r.certificate_ns_per_elem,
                r.end_to_end_round_ns_per_elem,
            )
        })
        .collect();
    let axis_rows: Vec<String> = axis
        .iter()
        .map(|r| {
            format!(
                "    {{\"backend\": \"{}\", \"log2_x\": {}, \"round_ns\": {:.1}, \
                 \"point_read_ns\": {:.1}}}",
                r.backend, r.log2_x, r.round_ns, r.point_read_ns
            )
        })
        .collect();
    let thread_baseline = thread_rows[0].1;
    let thread_scaling: Vec<String> = thread_rows
        .iter()
        .map(|(t, cert)| {
            format!(
                "    {{\"threads\": {t}, \"certificate_ns_per_elem\": {cert:.3}, \
                 \"speedup_vs_1thread\": {:.2}}}",
                thread_baseline / cert
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"runtime_scaling\",\n  \"units\": \"ns_per_element\",\n  \
         \"parallel\": {parallel},\n  \"machine_threads\": {threads},\n  \
         \"threads_axis\": {},\n  \"smoke\": {smoke},\n  \
         \"sizes\": [\n{}\n  ],\n  \"backend_axis\": [\n{}\n  ],\n  \
         \"thread_scaling\": [\n{}\n  ],\n  \"probe\": {}\n}}\n",
        threads_axis_json(&thread_counts),
        sizes.join(",\n"),
        axis_rows.join(",\n"),
        thread_scaling.join(",\n"),
        probe_json(&probe_summary)
    );
    std::fs::write("BENCH_runtime.json", &json).expect("write BENCH_runtime.json");
    println!("# wrote BENCH_runtime.json");
}
