//! Shared plumbing for the experiment binaries and criterion benches.
//!
//! Every table and quantitative claim of the paper has one binary in
//! `src/bin/` (see DESIGN.md §3 for the experiment index); this library
//! provides the pieces they share: TSV table printing, seeded replication
//! with mean/std aggregation, and the standard workload constructions
//! (skewed cube datasets, clustered grid datasets, regression task pools).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod schema;

use pmw_data::{BooleanCube, Dataset, GridUniverse};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Run `f` once per seed and aggregate to (mean, std).
pub fn replicate(seeds: std::ops::Range<u64>, mut f: impl FnMut(&mut StdRng) -> f64) -> (f64, f64) {
    let values: Vec<f64> = seeds
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(s);
            f(&mut rng)
        })
        .collect();
    mean_std(&values)
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

/// A one-cluster dataset on a `dim`-dimensional grid scaled so points stay
/// inside the unit ball — the standard CM-query instance.
pub fn clustered_grid_dataset(
    dim: usize,
    cells: usize,
    n: usize,
    rng: &mut StdRng,
) -> (GridUniverse, Dataset) {
    let half = 0.55 / (dim as f64).sqrt().max(1.0);
    let grid = GridUniverse::new(dim, cells, -half, half).expect("grid");
    let center: Vec<f64> = (0..dim)
        .map(|i| if i % 2 == 0 { half * 0.7 } else { -half * 0.5 })
        .collect();
    let pop = pmw_data::synth::gaussian_mixture_population(&grid, &[center], half * 0.6)
        .expect("population");
    let data = Dataset::sample_from(&pop, n, rng).expect("sample");
    (grid, data)
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

/// Render a worker-count axis as the `"threads_axis"` JSON array.
pub fn threads_axis_json(axis: &[usize]) -> String {
    let items: Vec<String> = axis.iter().map(|t| t.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// The `--trace <path>` argument shared by the experiment binaries: when
/// present, the probed mirror run streams its JSONL trace there.
pub fn trace_path() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1).cloned())
}

/// Render a probed run's rollup as the `"probe"` object the
/// `BENCH_*.json` artifacts carry: mechanism, round count, outcome tally,
/// and the per-phase latency table (count/total/p50/p99/max, nanoseconds).
/// Hand-rolled JSON, like everything else in the offline workspace.
pub fn probe_json(summary: &pmw_obs::Summary) -> String {
    let phases: Vec<String> = summary
        .phases
        .iter()
        .map(|(phase, s)| {
            format!(
                "      {{\"phase\": \"{}\", \"count\": {}, \"total_ns\": {}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                phase.as_str(),
                s.count,
                s.total_ns,
                s.p50_ns,
                s.p99_ns,
                s.max_ns
            )
        })
        .collect();
    let outcomes: Vec<String> = summary
        .outcomes
        .iter()
        .map(|(o, n)| format!("\"{o}\": {n}"))
        .collect();
    format!(
        "{{\n    \"mechanism\": \"{}\", \"probed_rounds\": {}, \
         \"outcomes\": {{{}}},\n    \"phases\": [\n{}\n    ]\n  }}",
        summary.mechanism,
        summary.rounds,
        outcomes.join(", "),
        phases.join(",\n")
    )
}

/// Worst-case (max) excess risk of a batch of answers (`None` = unanswered,
/// skipped).
pub fn max_risk<L: pmw_losses::CmLoss>(
    losses: &[L],
    answers: &[Option<Vec<f64>>],
    points: &pmw_data::PointMatrix,
    weights: &[f64],
) -> f64 {
    losses
        .iter()
        .zip(answers)
        .filter_map(|(l, a)| {
            a.as_ref().map(|theta| {
                pmw_erm::excess_risk(l, points, weights, theta, 800).unwrap_or(f64::NAN)
            })
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn replicate_is_deterministic() {
        use rand::RngExt;
        let a = replicate(0..5, |rng| rng.random::<f64>());
        let b = replicate(0..5, |rng| rng.random::<f64>());
        assert_eq!(a, b);
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
        let mut rng = StdRng::seed_from_u64(1);
        let (cube, data) = skewed_cube_dataset(4, 100, &mut rng);
        assert_eq!(cube.size(), 16);
        assert_eq!(data.len(), 100);
        let (grid, data) = clustered_grid_dataset(3, 5, 200, &mut rng);
        assert_eq!(grid.size(), 125);
        assert_eq!(data.universe_size(), 125);
        use pmw_data::Universe;
        for p in &grid.materialize() {
            let norm: f64 = p.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(norm <= 1.0 + 1e-9);
        }
    }
}
