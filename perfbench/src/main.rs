//! Steady end-to-end and per-layer benchmark of the PMW workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <online-glm|mwem-marginals|serve-linear> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs untraced for `--seconds` and the
//! run prints the end-to-end metrics. With `--trace 1` it prints the
//! per-layer metrics instead: every workload runs once under the span
//! recorder (each layer is measured on the workload that loads it), the
//! named workload also runs untraced for the tracing-overhead comparison,
//! and the sweep-dispatch layer is timed directly. Every run checks the
//! program's outputs and ends with one JSON line; a failed check makes the
//! run exit with status 1. See `perfbench/README.md`.

mod gen;
mod mwem;
mod online;
mod recorder;
mod report;
mod serve;
mod speed;

use pmw_dp::composition::strong_composition;
use pmw_dp::Accountant;
use pmw_obs::{Gauge, NoopProbe};
use recorder::{Booked, Recorder, Trace};
use report::{median, peak_rss_mb, percentile, Report};
use speed::Speed;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    OnlineGlm,
    MwemMarginals,
    ServeLinear,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::OnlineGlm,
        Workload::MwemMarginals,
        Workload::ServeLinear,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::OnlineGlm => "online-glm",
            Workload::MwemMarginals => "mwem-marginals",
            Workload::ServeLinear => "serve-linear",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or(format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Answer counts of one timed phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub free: u64,
    pub updates: u64,
    pub halted: u64,
    pub refused: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.free += other.free;
        self.updates += other.updates;
        self.halted += other.halted;
        self.refused += other.refused;
        self.failed += other.failed;
    }

    /// Attempted answers the program did not deliver.
    fn not_answered(&self) -> u64 {
        self.halted + self.refused + self.failed
    }
}

/// What one timed phase of a workload produced.
#[derive(Default)]
pub struct Timed {
    pub tally: Tally,
    /// Answers delivered (on mwem-marginals: released query values).
    pub answers: u64,
    pub wall_s: f64,
    /// Latency of each free answer (online-glm, serve-linear) or release
    /// (mwem-marginals), ns, and the host's slowdown measured next to it.
    pub latency: Vec<(u64, f64)>,
    /// When each answer (mwem-marginals: each release) completed, ns after
    /// the phase began, in order; empty on serve-linear.
    pub done_ns: Vec<u64>,
    /// Reference passes timed between answers or releases; they take
    /// about 1% of the phase.
    pub speed: Speed,
    /// Per-answer error against the truth over a fixed prefix of the run,
    /// computed outside the timed work on online-glm and mwem-marginals.
    pub errors: ErrorStats,
    /// MW updates among the answers `errors` covers.
    pub prefix_updates: u64,
    /// Peak resident memory at a fixed point of the run, MB, where the
    /// workload's memory would otherwise grow with its throughput.
    pub peak_rss_mb: Option<f64>,
    /// Output checks: (what, passed).
    pub checks: Vec<(String, bool)>,
}

/// Running mean and maximum of per-answer errors.
#[derive(Debug, Default, Clone, Copy)]
pub struct ErrorStats {
    pub n: u64,
    pub sum: f64,
    pub max: f64,
}

impl ErrorStats {
    pub fn add(&mut self, error: f64) {
        self.n += 1;
        self.sum += error;
        self.max = self.max.max(error);
    }

    pub fn merge(&mut self, other: &ErrorStats) {
        self.n += other.n;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Set-up samples per run, and the pause after each: the samples spread
/// over about three seconds, because a shared host's speed can change
/// several times a second and a burst of set-ups would catch only one
/// state.
const SETUP_SAMPLES: usize = 31;
const SETUP_SPACING: std::time::Duration = std::time::Duration::from_millis(100);
/// Reference passes timed just before and just after each set-up batch.
const SETUP_PASSES: usize = 2;

/// Per-set-up seconds of `SETUP_SAMPLES` batches of `batch` set-ups each,
/// `SETUP_SPACING` apart, each with the host's slowdown over the reference
/// passes timed just before and after it: the inputs of a batch are
/// prepared, and its results torn down, outside the timer.
pub fn time_setups<I, T>(
    batch: usize,
    mut prepare: impl FnMut() -> I,
    mut build: impl FnMut(I) -> T,
    mut teardown: impl FnMut(T),
) -> Vec<(f64, f64)> {
    let mut speed = Speed::default();
    (0..SETUP_SAMPLES)
        .map(|_| {
            let inputs: Vec<I> = (0..batch).map(|_| prepare()).collect();
            let before = speed.sample(SETUP_PASSES);
            let t = Instant::now();
            let built: Vec<T> = inputs.into_iter().map(&mut build).collect();
            let s = t.elapsed().as_secs_f64() / batch as f64;
            let after = speed.sample(SETUP_PASSES);
            built.into_iter().for_each(&mut teardown);
            std::thread::sleep(SETUP_SPACING);
            (s, (before + after) / 2.0)
        })
        .collect()
}

/// Does an `OnlinePmw` ledger — one sparse-vector entry plus the oracle
/// calls — stay within `(ε, δ)`? The oracle calls compose under the
/// tighter of basic and strong composition at slack δ/4, the split the
/// mechanism's per-call budget is derived from.
pub fn privacy_within(ledger: &Accountant, epsilon: f64, delta: f64) -> bool {
    let (sv, oracle): (Vec<_>, Vec<_>) = ledger
        .entries()
        .iter()
        .partition(|e| e.label == "sparse-vector");
    let sum = |es: &[&pmw_dp::accountant::LedgerEntry]| {
        es.iter().fold((0.0, 0.0), |(e, d), x| {
            (e + x.budget.epsilon(), d + x.budget.delta())
        })
    };
    let (sv_eps, sv_delta) = sum(&sv);
    let (basic_eps, basic_delta) = sum(&oracle);
    let (oracle_eps, oracle_delta) = match oracle.first() {
        Some(first) if oracle.len() > 1 => {
            match strong_composition(first.budget, oracle.len(), delta / 4.0) {
                Ok(s) if s.epsilon() < basic_eps => (s.epsilon(), s.delta()),
                _ => (basic_eps, basic_delta),
            }
        }
        _ => (basic_eps, basic_delta),
    };
    let same_calls = oracle.iter().all(|e| e.budget == oracle[0].budget);
    same_calls
        && sv.len() == 1
        && sv_eps + oracle_eps <= epsilon * (1.0 + 1e-9)
        && sv_delta + oracle_delta <= delta * (1.0 + 1e-9)
}

fn record_context(report: &mut Report, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = match args.workload {
        Workload::MwemMarginals if !args.trace => 1,
        _ => pmw_data::par::threads(),
    };
    report.note(format!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} sweep_workers={workers} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::commit_id()
    ));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    record_context(&mut report, &args);
    if args.trace {
        traced(&args, &mut report);
    } else {
        end_to_end(&args, &mut report);
    }
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}

/// `--trace 0`: set-up medians, one untraced timed phase, the checks.
fn end_to_end(args: &Args, report: &mut Report) {
    let (seed, secs) = (args.seed, args.seconds);
    let (setups, timed) = match args.workload {
        Workload::OnlineGlm => {
            let inputs = online::inputs(seed);
            let setups = online::setup_s(&inputs, seed);
            (setups, online::run(&inputs, seed, secs, &NoopProbe))
        }
        Workload::MwemMarginals => {
            let inputs = mwem::inputs(seed);
            let setups = mwem::setup_s(&inputs, seed);
            (setups, mwem::run(&inputs, seed, secs, &NoopProbe).0)
        }
        Workload::ServeLinear => {
            let inputs = serve::inputs(seed);
            let setups = serve::setup_s(&inputs, seed);
            (setups, serve::run(&inputs, seed, secs, NoopProbe).0)
        }
    };
    let unit = if args.workload == Workload::MwemMarginals {
        "releases"
    } else {
        "free answers"
    };
    // Every timing is scaled to nominal host speed (see `speed.rs`): a
    // set-up sample or a latency is divided by the slowdown of the
    // reference passes timed next to it, and the throughput is multiplied
    // by the slowdown over the whole phase. The unscaled values are
    // printed as context.
    let scaled = |samples: &[(f64, f64)]| -> (Vec<f64>, Vec<f64>) {
        samples.iter().map(|&(v, local)| (v, v / local)).unzip()
    };
    let (mut setup_raw, mut setup_scaled) = scaled(&setups);
    let micros: Vec<(f64, f64)> = timed
        .latency
        .iter()
        .map(|&(ns, local)| (ns as f64 / 1e3, local))
        .collect();
    let (mut latency_raw, mut latency) = scaled(&micros);
    let p50 = percentile(&mut latency, 0.5);
    let p90 = percentile(&mut latency, 0.9);
    let n = latency.len();
    let t = &timed.tally;
    let slowdown = timed.speed.slowdown();
    let rate = timed.answers as f64 / timed.wall_s;
    report.note(format!(
        "answers: attempted={} free={} update={} halted={} refused={} failed={} delivered={} in {:.3} s",
        t.attempted, t.free, t.updates, t.halted, t.refused, t.failed, timed.answers, timed.wall_s
    ));
    report.note(format!(
        "host slowdown {slowdown:.4} over the timed phase (n={} reference passes); unscaled: setup {:.6} s, {rate:.1} answers/s, latency p50 {:.3} us, p90 {:.3} us",
        timed.speed.passes(),
        median(&mut setup_raw),
        percentile(&mut latency_raw, 0.5).unwrap_or(f64::NAN),
        percentile(&mut latency_raw, 0.9).unwrap_or(f64::NAN),
    ));
    report.metric(
        "setup_s",
        median(&mut setup_scaled),
        "s",
        format!("median of n={} set-up samples, scaled", setups.len()),
    );
    report.metric(
        "answers_per_s",
        rate * slowdown,
        "1/s",
        format!(
            "n={} answers over {:.1} s, scaled",
            timed.answers, timed.wall_s
        ),
    );
    // serve-linear keeps a uniform sample of its free-answer latencies.
    let total = match args.workload {
        Workload::MwemMarginals => n as u64,
        _ => t.free,
    };
    let basis = if n as u64 == total {
        format!("n={n} {unit}, scaled")
    } else {
        format!("n={n} sampled uniformly from {total} {unit}, scaled")
    };
    // The median is gated and the p90 printed as context: the p90 rests on
    // a run's slowest stretches, where scaling was least tried (README.md).
    report.note(format!(
        "latency p90 {:.3} us scaled, {basis}",
        p90.unwrap_or(f64::NAN)
    ));
    // A percentile without ten samples beyond it reads NaN, which fails
    // the run.
    report.metric("latency_p50_us", p50.unwrap_or(f64::NAN), "us", basis);
    let prefix = format!("first n={} answers", timed.errors.n);
    report.note(format!(
        "{} MW updates over the {prefix}",
        timed.prefix_updates
    ));
    report.metric(
        "answer_error_mean",
        timed.errors.sum / timed.errors.n as f64,
        "abs",
        prefix.clone(),
    );
    report.metric("answer_error_max", timed.errors.max, "abs", prefix);
    let (rss, rss_basis) = match timed.peak_rss_mb {
        Some(mb) => (Some(mb), "VmHWM once the first answers were delivered"),
        None => (peak_rss_mb(), "VmHWM of the process"),
    };
    report.metric(
        "peak_rss_mb",
        rss.unwrap_or(f64::NAN),
        "MB",
        rss_basis.into(),
    );
    finish_checks(report, &timed);
}

/// Failure accounting and the workload's own checks; every attempted
/// answer must be delivered.
fn finish_checks(report: &mut Report, timed: &Timed) {
    let t = &timed.tally;
    report.attempted += t.attempted;
    report.failed += t.not_answered();
    report.check(
        format!(
            "no answer halted, refused or failed ({} of {})",
            t.not_answered(),
            t.attempted
        ),
        t.attempted > 0 && t.not_answered() == 0,
    );
    for (name, ok) in &timed.checks {
        report.check(name.clone(), *ok);
    }
}

/// Extra wall time the traced pass took for the work both passes did
/// (their common prefix of answers or releases), as a share of the
/// untraced pass's, each scaled to nominal host speed.
fn overhead_share(traced: &Timed, plain: &Timed) -> f64 {
    let scaled = |t: &Timed, n: usize| t.done_ns[n - 1] as f64 / t.speed.slowdown();
    match traced.done_ns.len().min(plain.done_ns.len()) {
        0 => f64::NAN,
        n => scaled(traced, n) / scaled(plain, n) - 1.0,
    }
}

/// Scale the time-valued layer metrics (µs or ms per unit) to nominal
/// host speed; counts and ratios stay as they are.
fn scale_times(layers: &mut [(&'static str, f64, &'static str)], slowdown: f64) {
    for layer in layers {
        if layer.2.starts_with("us") || layer.2.starts_with("ms") {
            layer.1 /= slowdown;
        }
    }
}

/// `--trace 1`: every workload once under the recorder, the named one also
/// untraced, plus the dispatch layer timed directly. Layer times are scaled
/// to nominal host speed by the reference passes of the pass they come
/// from, like the end-to-end timings.
fn traced(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let slice = args.seconds / 4.0;
    let mut layers: Vec<(&'static str, f64, &'static str)> = Vec::new();

    // online-glm.
    let inputs = online::inputs(seed);
    let rec = Recorder::default();
    let traced = online::run(&inputs, seed, slice, &rec);
    let trace = rec.snapshot();
    let overhead_online = (args.workload == Workload::OnlineGlm).then(|| {
        let plain = online::run(&inputs, seed, slice, &NoopProbe);
        finish_checks(report, &plain);
        overhead_share(&traced, &plain)
    });
    online_layers(&trace, &traced, &mut layers);
    scale_times(&mut layers, traced.speed.slowdown());
    write_trace(report, &trace, "online-glm");
    report.note(format!("online-glm: {}", attribution_note(&trace)));
    finish_checks(report, &traced);
    drop(inputs);

    // mwem-marginals, plus the all-cores release and the parity check.
    let inputs = mwem::inputs(seed);
    let rec = Recorder::default();
    let (traced, releases) = mwem::run(&inputs, seed, slice, &rec);
    let trace = rec.snapshot();
    let overhead_mwem = (args.workload == Workload::MwemMarginals).then(|| {
        let (plain, _) = mwem::run(&inputs, seed, slice, &NoopProbe);
        finish_checks(report, &plain);
        overhead_share(&traced, &plain)
    });
    let from = layers.len();
    mwem_layers(&trace, &releases, &mut layers);
    let one = pmw_data::par::with_threads(1, || mwem::release(&inputs, seed, 0, &NoopProbe));
    let all = mwem::release(&inputs, seed, 0, &NoopProbe);
    let bits = |r: &mwem::Release| r.answers.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
    report.check(
        format!(
            "mwem-marginals: release at {} sweep workers equals the 1-worker release bit-for-bit",
            pmw_data::par::threads()
        ),
        bits(&one) == bits(&all) && one.selected == all.selected,
    );
    layers.push((
        "pmw-data.mwem_round_ms.all_cores",
        all.ns as f64 / 1e6 / mwem::ROUNDS as f64,
        "ms/round",
    ));
    scale_times(&mut layers[from..], traced.speed.slowdown());
    write_trace(report, &trace, "mwem-marginals");
    report.note(format!("mwem-marginals: {}", attribution_note(&trace)));
    finish_checks(report, &traced);
    drop(inputs);

    // serve-linear.
    let inputs = serve::inputs(seed);
    let rec = Recorder::default();
    let (traced, stats) = serve::run(&inputs, seed, slice, rec.clone());
    let trace = rec.snapshot();
    let overhead_serve = (args.workload == Workload::ServeLinear).then(|| {
        let (plain, _) = serve::run(&inputs, seed, slice, NoopProbe);
        finish_checks(report, &plain);
        let rate = |t: &Timed| t.answers as f64 / t.wall_s * t.speed.slowdown();
        rate(&plain) / rate(&traced) - 1.0
    });
    let from = layers.len();
    serve_layers(&trace, &traced, &stats, &mut layers);
    scale_times(&mut layers[from..], traced.speed.slowdown());
    write_trace(report, &trace, "serve-linear");
    finish_checks(report, &traced);

    let (one, all) = dispatch_us();
    layers.push(("pmw-data.dispatch_us.one_worker", one, "us/call"));
    layers.push(("pmw-data.dispatch_us.all_cores", all, "us/call"));
    let overhead = overhead_online
        .or(overhead_mwem)
        .or(overhead_serve)
        .expect("the named workload ran untraced");
    layers.push(("pmw-obs.trace_overhead_share", overhead, "ratio"));

    layers.sort_by_key(|l| l.0);
    for (name, value, unit) in layers {
        report.metric(name, value, unit, String::new());
    }
}

fn write_trace(report: &mut Report, trace: &Trace, workload: &str) {
    // One file per traced workload, overwritten by the next traced run.
    let path = std::path::PathBuf::from(format!(".perfbench/spans-{workload}.jsonl"));
    match trace.write_jsonl(&path) {
        Ok(()) => report.note(format!(
            "{workload}: {} spans, {} rounds written to {}",
            trace.spans.len(),
            trace.rounds.len(),
            path.display()
        )),
        Err(e) => report.check(format!("write {}: {e}", path.display()), false),
    }
}

/// MW updates per answer over the fixed prefix of the run the error
/// metrics cover, or over the whole run if it was shorter.
fn updates_per_answer(timed: &Timed) -> f64 {
    timed.prefix_updates as f64 / timed.errors.n.max(1) as f64
}

fn per(b: Option<&Booked>, units: u64) -> f64 {
    b.map_or(0.0, |b| b.self_ns as f64 / 1e3) / units.max(1) as f64
}

/// One line of how a trace's round wall time splits into layer self times.
fn attribution_note(trace: &Trace) -> String {
    let layers = trace.by_layer();
    let rounds = trace.round_times();
    let wall: u64 = rounds.iter().map(|r| r.wall).sum();
    let unattributed: u64 = rounds.iter().map(|r| r.unattributed).sum();
    let parts: Vec<String> = layers
        .iter()
        .map(|(k, b)| format!("{k}={:.1}ms/{}", b.self_ns as f64 / 1e6, b.spans))
        .collect();
    format!(
        "{} rounds, wall {:.1} ms = self {} + unattributed {:.1} ms",
        rounds.len(),
        wall as f64 / 1e6,
        parts.join(" "),
        unattributed as f64 / 1e6
    )
}

fn online_layers(
    trace: &Trace,
    timed: &Timed,
    layers: &mut Vec<(&'static str, f64, &'static str)>,
) {
    let by = trace.by_layer();
    let answers = timed.tally.free + timed.tally.updates;
    let updates = timed.tally.updates;
    layers.extend([
        (
            "pmw-losses.hypothesis_solve_us",
            per(by.get("pmw-losses.hypothesis_solve"), answers),
            "us/answer",
        ),
        (
            "pmw-losses.error_query_us",
            per(by.get("pmw-losses.error_query"), answers),
            "us/answer",
        ),
        (
            "pmw-dp.sv_screen_us",
            per(by.get("pmw-dp.sv_screen"), answers),
            "us/answer",
        ),
        (
            "pmw-erm.oracle_solve_us",
            per(by.get("pmw-erm.oracle_solve"), updates),
            "us/update",
        ),
        (
            "pmw-core.update_us.online-glm",
            per(by.get("pmw-core.update"), updates),
            "us/update",
        ),
        (
            "pmw-core.updates_per_answer.online-glm",
            updates_per_answer(timed),
            "ratio",
        ),
        ("pmw-obs.coverage.online-glm", trace.coverage(), "ratio"),
    ]);
}

fn mwem_layers(
    trace: &Trace,
    releases: &[mwem::Release],
    layers: &mut Vec<(&'static str, f64, &'static str)>,
) {
    let by = trace.by_layer();
    let rounds = trace.round_times().len() as u64;
    let count = |k: &str| by.get(k).map_or(0, |b| b.spans);
    let n = releases.len().max(1) as f64;
    let (radius_sum, radius_n) = releases
        .iter()
        .fold((0.0, 0), |(s, c), r| (s + r.radius.0, c + r.radius.1));
    let gauge = |g: Gauge| trace.gauge(g);
    layers.extend([
        (
            "pmw-dp.select_us",
            per(by.get("pmw-dp.select"), rounds),
            "us/round",
        ),
        (
            "pmw-dp.measure_us",
            per(by.get("pmw-dp.measure"), rounds),
            "us/round",
        ),
        (
            "pmw-core.update_us.mwem-marginals",
            per(by.get("pmw-core.update"), count("pmw-core.update")),
            "us/update",
        ),
        (
            "pmw-sketch.estimate_us",
            per(by.get("pmw-sketch.estimate"), count("pmw-sketch.estimate")),
            "us/estimate",
        ),
        (
            "pmw-sketch.estimates_per_round",
            count("pmw-sketch.estimate") as f64 / rounds.max(1) as f64,
            "count",
        ),
        (
            "pmw-sketch.pool_sweep_us",
            per(by.get("pmw-sketch.pool_sweep"), count("pmw-core.update")),
            "us/update",
        ),
        (
            "pmw-sketch.log_replay_us",
            per(
                by.get("pmw-sketch.log_replay"),
                count("pmw-sketch.log_replay"),
            ),
            "us/resample",
        ),
        (
            "pmw-sketch.resamples_per_release",
            releases.iter().map(|r| r.resamples).sum::<usize>() as f64 / n,
            "count",
        ),
        (
            "pmw-sketch.compactions_per_release",
            releases.iter().map(|r| r.compactions).sum::<usize>() as f64 / n,
            "count",
        ),
        (
            "pmw-sketch.replay_depth_max",
            gauge(Gauge::ReplayRounds).map_or(0.0, |g| g.max),
            "count",
        ),
        (
            "pmw-sketch.ess_fraction_min",
            gauge(Gauge::EssFraction).map_or(0.0, |g| g.min),
            "ratio",
        ),
        (
            "pmw-sketch.claimed_radius_mean",
            radius_sum / radius_n.max(1) as f64,
            "abs",
        ),
        ("pmw-obs.coverage.mwem-marginals", trace.coverage(), "ratio"),
    ]);
}

fn serve_layers(
    trace: &Trace,
    timed: &Timed,
    stats: &pmw_serve::ServeStats,
    layers: &mut Vec<(&'static str, f64, &'static str)>,
) {
    let by = trace.by_layer();
    let commit = per(by.get("pmw-erm.oracle_solve"), timed.tally.updates)
        + per(by.get("pmw-core.update"), timed.tally.updates);
    layers.extend([
        (
            "pmw-serve.queue_wait_p50_us",
            stats.wait_p50_ns() as f64 / 1e3,
            "us",
        ),
        (
            "pmw-serve.batch_size_mean",
            stats.requests as f64 / stats.batches.max(1) as f64,
            "requests/batch",
        ),
        (
            "pmw-serve.rescreen_share",
            stats.rescreens as f64 / stats.requests.max(1) as f64,
            "ratio",
        ),
        ("pmw-serve.commit_us", commit, "us/update"),
        (
            "pmw-core.updates_per_answer.serve-linear",
            updates_per_answer(timed),
            "ratio",
        ),
    ]);
}

/// Mean µs per `plan_fold` over a 2048-element plan at grain 256 (the
/// sampled pool's sweep shape), on one worker and on every core; the
/// median of several batches each, scaled by reference passes timed
/// between the batches.
fn dispatch_us() -> (f64, f64) {
    use pmw_data::par::{plan_fold, with_threads, ChunkPlan};
    let data: Vec<f64> = (0..2048).map(|i| i as f64).collect();
    let plan = ChunkPlan::with_grain(data.len(), 256);
    let speed = std::cell::RefCell::new(Speed::default());
    let batch = |calls: usize| {
        speed.borrow_mut().sample(2);
        let t = Instant::now();
        for _ in 0..calls {
            let s = plan_fold(
                plan,
                std::hint::black_box(&data),
                |_, chunk| chunk.iter().sum::<f64>(),
                |a, b| a + b,
            );
            std::hint::black_box(s);
        }
        t.elapsed().as_secs_f64() * 1e6 / calls as f64
    };
    let mut one: Vec<f64> = with_threads(1, || (0..9).map(|_| batch(2000)).collect());
    let mut all: Vec<f64> = (0..9).map(|_| batch(40)).collect();
    let slowdown = speed.borrow().slowdown();
    (median(&mut one) / slowdown, median(&mut all) / slowdown)
}
