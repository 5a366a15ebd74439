//! E-serve — multi-analyst serving throughput over the snapshot/commit
//! split.
//!
//! The serving claim: with the screen phase (hypothesis solve + error
//! query, the Θ(|X|) work) running on analyst threads against published
//! snapshots, and only the cheap noise/commit phase serialized behind the
//! writer, total query throughput scales with the number of analysts —
//! on a machine with cores to run them. This binary measures queries per
//! second and per-request latency at `N ∈ {1, 2, 4, 8, 16}` analysts over
//! a shared dense-backend mechanism and writes `BENCH_serve.json`.
//!
//! The artifact records `machine_threads`
//! (`std::thread::available_parallelism`): on a single-core runner every
//! N multiplexes onto one CPU and the qps column reads flat — the
//! scaling acceptance is qualified on a multi-core runner, and the
//! schema check deliberately asserts no qps monotonicity.
//!
//! Pass `--smoke` for the seconds-long CI variant (fewer analysts,
//! fewer queries, same schema). Pass `--trace <path>` to additionally
//! stream a small probed serve run as a JSONL trace — the writer loop
//! reports one round per served request plus per-analyst `serve_analyst`
//! notes, which the `run_report` binary renders as a serving section.

use pmw_bench::{header, row, skewed_cube_dataset, trace_path, write_artifact};
use pmw_core::{OnlinePmw, PmwConfig};
use pmw_erm::ExactOracle;
use pmw_losses::{CmLoss, LinearQueryLoss, PointPredicate};
use pmw_obs::{json_object, Json, JsonlTraceProbe, NoopProbe, Probe};
use pmw_serve::{PmwServer, ServeConfig, ServeStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Nearest-rank percentile over raw nanosecond samples (0 when empty).
fn percentile_ns(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() - 1) as f64 * q).ceil() as usize;
    samples[rank.min(samples.len() - 1)]
}

/// The query an analyst issues at step `j`: single-coordinate
/// conjunctions rotating through the cube's bits, offset per analyst so
/// concurrent tenants do not all ask the same bit at the same moment.
fn step_loss(analyst: usize, j: usize, dim: usize) -> LinearQueryLoss {
    LinearQueryLoss::new(
        PointPredicate::Conjunction {
            coords: vec![(analyst + j) % dim],
        },
        dim,
    )
    .unwrap()
}

struct ScaleRow {
    requests: u64,
    qps: f64,
    latency_p50_ns: u64,
    latency_p99_ns: u64,
    stats: ServeStats,
}

/// One serving run: `analysts` handles on their own threads, each
/// issuing `queries` requests back to back. Returns wall-clock qps and
/// the pooled per-request latency distribution (every completed request
/// counts — free, update, or error — since each occupies the pipeline).
fn serve_run<P: Probe + Send + 'static>(
    analysts: usize,
    queries: usize,
    dim: usize,
    n: usize,
    seed: u64,
    probe: P,
) -> ScaleRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let (cube, data) = skewed_cube_dataset(dim, n, &mut rng);
    // Generous round budget: per-update cost is the oracle slice divided
    // by `rounds`, so a large override keeps every tenant's 1/N share
    // able to cover the handful of updates the warm-up triggers.
    let config = PmwConfig::builder(2.0, 1e-6, 0.2)
        .k(analysts * queries)
        .scale(1.0)
        .rounds_override(64)
        .solver_iters(60)
        .build()
        .unwrap();
    let mech =
        OnlinePmw::with_oracle(config, &cube, data, ExactOracle::default(), &mut rng).unwrap();
    let (server, handles) =
        PmwServer::spawn_with_probe(mech, ServeConfig::new(analysts, seed), probe).unwrap();

    let start = Instant::now();
    let workers: Vec<_> = handles
        .into_iter()
        .map(|mut handle| {
            std::thread::spawn(move || {
                let id = handle.id();
                let mut waits = Vec::with_capacity(queries);
                for j in 0..queries {
                    let loss = step_loss(id, j, dim);
                    let t = Instant::now();
                    let _ = handle.answer(&loss as &dyn CmLoss);
                    waits.push(t.elapsed().as_nanos() as u64);
                }
                waits
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(analysts * queries);
    for w in workers {
        latencies.extend(w.join().expect("analyst thread panicked"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let join = server.join().unwrap();

    let requests = latencies.len() as u64;
    ScaleRow {
        requests,
        qps: requests as f64 / elapsed.max(1e-9),
        latency_p50_ns: percentile_ns(&mut latencies, 0.50),
        latency_p99_ns: percentile_ns(&mut latencies, 0.99),
        stats: join.stats,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let machine_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let (fleet, queries, dim, n): (&[usize], usize, usize, usize) = if smoke {
        (&[1, 2], 8, 8, 500)
    } else {
        (&[1, 2, 4, 8, 16], 64, 10, 2000)
    };

    println!(
        "# E-serve: multi-analyst throughput (machine_threads={machine_threads}, smoke={smoke})"
    );
    header(&[
        "analysts",
        "requests",
        "qps",
        "latency_p50_ns",
        "latency_p99_ns",
        "free",
        "updates",
        "writer_wait_p99_ns",
    ]);

    let mut rows = Vec::new();
    for &analysts in fleet {
        let r = serve_run(analysts, queries, dim, n, 42, NoopProbe);
        let free: u64 = r.stats.per_analyst.iter().map(|a| a.free).sum();
        let updates: u64 = r.stats.per_analyst.iter().map(|a| a.updates).sum();
        let failed: u64 = r.stats.per_analyst.iter().map(|a| a.failed).sum();
        let rejected: u64 = r.stats.per_analyst.iter().map(|a| a.rejected).sum();
        row(
            &format!("{analysts}"),
            &[
                r.requests as f64,
                r.qps,
                r.latency_p50_ns as f64,
                r.latency_p99_ns as f64,
                free as f64,
                updates as f64,
                r.stats.wait_p99_ns() as f64,
            ],
        );
        rows.push(json_object! {
            "analysts": analysts,
            "requests": r.requests,
            "qps": r.qps,
            "latency_p50_ns": r.latency_p50_ns,
            "latency_p99_ns": r.latency_p99_ns,
            "free": free,
            "updates": updates,
            "failed": failed,
            "rejected": rejected,
            "halted_replies": r.stats.halted_replies,
            "batches": r.stats.batches,
            "rescreens": r.stats.rescreens,
            "writer_wait_p99_ns": r.stats.wait_p99_ns(),
        });
    }
    println!("# scaling is qualified on a multi-core runner; machine_threads above is the record");

    // Probed mirror run (untimed): a small serve under a live JSONL
    // trace, rendered by `run_report` into the serving section.
    if let Some(path) = trace_path() {
        let jsonl = JsonlTraceProbe::create(&path).expect("create trace file");
        let traced = serve_run(2, queries.min(8), dim, n, 43, jsonl);
        assert!(traced.requests > 0);
        println!("# wrote {path}");
    }

    let artifact = json_object! {
        "experiment": "serve_scaling",
        "machine_threads": machine_threads,
        "smoke": smoke,
        "queries_per_analyst": queries,
        "scaling": Json::Array(rows),
    };
    write_artifact("BENCH_serve.json", &artifact);
}
