//! Shared plumbing for the four artifact-writing experiment binaries
//! (`exp_runtime`, `exp_sublinear`, `exp_mwem`, `exp_serve`), the
//! `bench_schema_check` validator and the `run_report` trace renderer.
//!
//! The library provides the pieces they share: TSV table printing,
//! mean/std aggregation, the skewed-cube workload, the seed's dense MW
//! update kept as the perf reference, the worker-count axis, the
//! `"probe"` block every `BENCH_*.json` artifact but the serving one
//! carries, and the artifact writer. Artifacts are [`Json`] values
//! (`pmw_obs::json`), checked by [`schema`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod schema;

use pmw_data::{BooleanCube, Dataset};
use pmw_obs::{json_object, Json};
use rand::rngs::StdRng;

/// Print a TSV header row.
pub fn header(columns: &[&str]) {
    println!("{}", columns.join("\t"));
}

/// Print one TSV data row of floats with 5 significant digits.
pub fn row(label: &str, values: &[f64]) {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.5}")).collect();
    println!("{label}\t{}", cells.join("\t"));
}

/// Mean and sample standard deviation of a series.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var =
        values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (values.len() - 1) as f64;
    (mean, var.sqrt())
}

/// A skewed product-distribution dataset over a `dim`-bit cube: odd bits
/// biased low, even bits high — the standard discriminating instance.
pub fn skewed_cube_dataset(dim: usize, n: usize, rng: &mut StdRng) -> (BooleanCube, Dataset) {
    let cube = BooleanCube::new(dim).expect("cube");
    let biases: Vec<f64> = (0..dim)
        .map(|b| if b % 2 == 0 { 0.9 } else { 0.15 })
        .collect();
    let pop = pmw_data::synth::product_population(&cube, &biases).expect("population");
    let data = Dataset::sample_from(&pop, n, rng).expect("sample");
    (cube, data)
}

/// The seed's dense-domain multiplicative-weights update, kept verbatim as
/// the perf reference the log-domain [`pmw_data::Histogram::mw_update`] is
/// measured against: one `exp` per element plus a renormalization sweep per
/// call (exponents stabilized at `min(u)`, exactly as the seed did).
///
/// # Panics
/// Panics when `weights.len() != u.len()`.
pub fn mw_update_reference(weights: &mut [f64], u: &[f64], eta: f64) {
    assert_eq!(weights.len(), u.len(), "payoff length must match weights");
    let min_u = u.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut total = 0.0;
    for (w, &ux) in weights.iter_mut().zip(u) {
        *w *= (-eta * (ux - min_u)).exp();
        total += *w;
    }
    for w in weights.iter_mut() {
        *w /= total;
    }
}

/// The worker counts `BENCH_runtime.json` reports per-thread-count rows
/// for: the serial baseline, a 2-worker point, and — when the machine has
/// more cores — the full core count. The rows are measured in-process by
/// forcing each count through [`pmw_data::par::with_threads`], so the
/// axis exists even on single-core CI runners (there the multi-worker
/// rows record the chunked code path's overhead, not real scaling — the
/// artifact's `machine_threads` field is the qualifier).
pub fn thread_axis() -> Vec<usize> {
    let avail = std::thread::available_parallelism().map_or(1, usize::from);
    let mut axis = vec![1, 2];
    if avail > 2 {
        axis.push(avail);
    }
    axis
}

/// The `--trace <path>` argument shared by the experiment binaries: when
/// present, the probed mirror run streams its JSONL trace there.
pub fn trace_path() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1).cloned())
}

/// A probed run's rollup as the `"probe"` object of a `BENCH_*.json`
/// artifact: mechanism, round count, outcome tally, and the per-phase
/// latency table (count/total/p50/p99/max, nanoseconds).
pub fn probe_json(summary: &pmw_obs::Summary) -> Json {
    let phases = summary.phases.iter().map(|(phase, s)| {
        json_object! {
            "phase": phase.as_str(),
            "count": s.count,
            "total_ns": s.total_ns,
            "p50_ns": s.p50_ns,
            "p99_ns": s.p99_ns,
            "max_ns": s.max_ns,
        }
    });
    let outcomes = summary
        .outcomes
        .iter()
        .map(|(o, n)| (o.as_str(), (*n).into()));
    json_object! {
        "mechanism": summary.mechanism.as_str(),
        "probed_rounds": summary.rounds,
        "outcomes": Json::object(outcomes),
        "phases": Json::Array(phases.collect()),
    }
}

/// The probed mirror run every artifact but the serving one carries:
/// evaluate `$run` once with `$probe` bound to a live `SummaryProbe`, teed
/// into a JSONL trace at the `--trace <path>` argument when one is given,
/// and yield the run's [`probe_json`] object. A macro because `$run` is
/// generic over the probe's type, which a closure cannot be.
#[macro_export]
macro_rules! probed_run {
    ($mechanism:expr, $detail:expr, |$probe:ident| $run:expr) => {{
        use pmw_obs::Probe as _;
        let summary = pmw_obs::SummaryProbe::new($mechanism, $detail);
        match $crate::trace_path() {
            Some(path) => {
                let jsonl = pmw_obs::JsonlTraceProbe::create(&path).expect("create trace file");
                let $probe = &(&jsonl, &summary);
                $probe.run_start($mechanism, $detail);
                $run;
                $probe.run_end();
                assert_eq!(jsonl.finish(), 0, "trace write errors");
                println!("# wrote {path}");
            }
            None => {
                let $probe = &summary;
                $probe.run_start($mechanism, $detail);
                $run;
            }
        }
        $crate::probe_json(&summary.finish())
    }};
}

/// Write `artifact` to `path` in the working directory, indented one row
/// per line.
pub fn write_artifact(path: &str, artifact: &Json) {
    std::fs::write(path, format!("{artifact:#}\n")).expect("write the bench artifact");
    println!("# wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        let (m1, s1) = mean_std(&[5.0]);
        assert_eq!((m1, s1), (5.0, 0.0));
        assert!(mean_std(&[]).0.is_nan());
    }

    #[test]
    fn reference_update_matches_log_domain_histogram() {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(9);
        let m = 311usize;
        let mut hist = pmw_data::Histogram::uniform(m).unwrap();
        let mut dense = vec![1.0 / m as f64; m];
        for step in 0..8 {
            let u: Vec<f64> = (0..m).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
            let eta = 0.02 + 0.15 * step as f64;
            hist.mw_update(&u, eta).unwrap();
            mw_update_reference(&mut dense, &u, eta);
        }
        for (a, b) in hist.weights().iter().zip(&dense) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn workload_constructors_produce_consistent_shapes() {
        use pmw_data::Universe;
        let mut rng = StdRng::seed_from_u64(1);
        let (cube, data) = skewed_cube_dataset(4, 100, &mut rng);
        assert_eq!(cube.size(), 16);
        assert_eq!(data.len(), 100);
    }
}
