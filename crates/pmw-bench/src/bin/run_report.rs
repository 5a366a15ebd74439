//! Render a JSONL run trace (the `--trace` output of the experiment
//! binaries, schema `pmw_obs::trace`) into a human-readable run report.
//!
//! Usage: `run_report <trace.jsonl>`
//!
//! The report opens with the [`pmw_obs::Summary`] rollup — per-phase
//! latency percentiles, counter totals, gauge ranges, the budget and
//! health endpoints — then prints the per-round timeline: outcome, wall
//! time, cumulative ε spent, the claimed vs envelope certificate radius,
//! and the pool's ESS fraction. Long runs elide the middle rounds.
//!
//! Traces from the serve writer loop (`pmw-serve`, via `exp_serve
//! --trace`) additionally carry per-analyst `serve_analyst` notes and a
//! `serve_writer` note; those render as a serving section — outcome
//! counts per analyst plus the writer-queue wait p99, the contention
//! signal a saturated writer shows first.
//!
//! Runs with an active log-compaction policy add a compaction section:
//! fold and checkpoint counts, the retained log length at the end of the
//! run, and the replay-depth distribution (p50/p99/max rounds per pool
//! rebuild) — the numbers that show per-round cost staying flat as the
//! round count grows.

use pmw_obs::{nearest_rank, Counter, Gauge, Summary, TraceEvent};
use std::process::ExitCode;

/// One row of the per-round timeline, filled in as the round's events
/// stream past (gauges keep their last reading in the round).
#[derive(Clone, Default)]
struct RoundRow {
    round: u64,
    outcome: String,
    ns: u64,
    eps: Option<f64>,
    claimed: Option<f64>,
    envelope: Option<f64>,
    ess_fraction: Option<f64>,
}

fn cell(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| format!("{x:.4}"))
}

fn print_row(r: &RoundRow) {
    println!(
        "{:>5} {:>8} {:>10.3} {:>10} {:>10} {:>10} {:>8}",
        r.round,
        r.outcome,
        r.ns as f64 / 1e6,
        cell(r.eps),
        cell(r.claimed),
        cell(r.envelope),
        cell(r.ess_fraction),
    );
}

/// `field=value` lookup inside a serve note's payload (the writer
/// formats them as `id=0 free=12 updates=3 ...`).
fn note_field(payload: &str, field: &str) -> Option<u64> {
    let prefix = format!("{field}=");
    payload
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(prefix.as_str()))
        .and_then(|v| v.parse().ok())
}

/// Render the serving section when the trace carries `serve_analyst` /
/// `serve_writer` notes (traces from the pmw-serve writer loop do;
/// single-mechanism traces print nothing here).
fn print_serving_section(events: &[TraceEvent]) {
    let notes: Vec<(&str, &str)> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Note { key, value, .. } => Some((key.as_str(), value.as_str())),
            _ => None,
        })
        .collect();
    let analysts: Vec<&str> = notes
        .iter()
        .filter(|(k, _)| *k == "serve_analyst")
        .map(|(_, v)| *v)
        .collect();
    if analysts.is_empty() {
        return;
    }
    println!("serving (per analyst):");
    println!(
        "{:>8} {:>6} {:>8} {:>7} {:>9} {:>14}",
        "analyst", "free", "updates", "failed", "rejected", "wait_p99_ms"
    );
    for payload in analysts {
        let cell = |f: &str| note_field(payload, f).map_or("-".into(), |v| v.to_string());
        let wait = note_field(payload, "wait_p99_ns")
            .map_or("-".to_string(), |ns| format!("{:.3}", ns as f64 / 1e6));
        println!(
            "{:>8} {:>6} {:>8} {:>7} {:>9} {:>14}",
            cell("id"),
            cell("free"),
            cell("updates"),
            cell("failed"),
            cell("rejected"),
            wait,
        );
    }
    if let Some((_, payload)) = notes.iter().find(|(k, _)| *k == "serve_writer") {
        let cell = |f: &str| note_field(payload, f).map_or("-".into(), |v| v.to_string());
        let wait = note_field(payload, "wait_p99_ns")
            .map_or("-".to_string(), |ns| format!("{:.3}", ns as f64 / 1e6));
        println!(
            "writer: batches={} requests={} rescreens={} halted={} queue_wait_p99_ms={}",
            cell("batches"),
            cell("requests"),
            cell("rescreens"),
            cell("halted"),
            wait,
        );
    }
}

/// Render the log-compaction section when the trace shows checkpointing
/// activity: fold count, checkpoints taken, retained log length, and the
/// distribution of replay depths (the quantity compaction keeps flat in
/// the round count). Uncompacted traces print nothing here.
fn print_compaction_section(events: &[TraceEvent]) {
    let mut compactions = 0u64;
    let mut checkpoints = 0.0f64;
    let mut log_len = None;
    let mut replay_depths = Vec::new();
    for ev in events {
        match ev {
            TraceEvent::Counter {
                counter: Counter::Compactions,
                delta,
                ..
            } => compactions += delta,
            TraceEvent::Gauge { gauge, value, .. } => match gauge {
                Gauge::CheckpointCount => checkpoints = checkpoints.max(*value),
                Gauge::LogLen => log_len = Some(*value),
                Gauge::ReplayRounds => replay_depths.push(*value),
                _ => {}
            },
            _ => {}
        }
    }
    if compactions == 0 && replay_depths.is_empty() {
        return;
    }
    let retained = log_len.map_or("-".to_string(), |v| format!("{v:.0}"));
    println!(
        "compaction: folds={compactions} checkpoints={checkpoints:.0} retained_rounds={retained}"
    );
    if !replay_depths.is_empty() {
        replay_depths.sort_by(f64::total_cmp);
        println!(
            "replay depth (rounds per pool rebuild): p50={:.0} p99={:.0} max={:.0} over {} rebuilds",
            nearest_rank(&replay_depths, 50.0),
            nearest_rank(&replay_depths, 99.0),
            replay_depths.iter().cloned().fold(0.0f64, f64::max),
            replay_depths.len(),
        );
    }
}

/// The per-round timeline, extracted from the raw event stream (the
/// summary rollup aggregates across rounds; this keeps them apart).
fn round_rows(events: &[TraceEvent]) -> Vec<RoundRow> {
    let mut rows = Vec::new();
    let mut current = RoundRow::default();
    for ev in events {
        match ev {
            TraceEvent::RoundBegin { round } => {
                current = RoundRow {
                    round: *round,
                    ..RoundRow::default()
                };
            }
            TraceEvent::Gauge {
                gauge,
                value,
                round: _,
            } => match gauge {
                Gauge::EpsSpent => current.eps = Some(*value),
                Gauge::ClaimedRadius => current.claimed = Some(*value),
                Gauge::EnvelopeRadius => current.envelope = Some(*value),
                Gauge::EssFraction => current.ess_fraction = Some(*value),
                _ => {}
            },
            TraceEvent::RoundEnd { round, outcome, ns } => {
                current.round = *round;
                current.outcome = outcome.clone();
                current.ns = *ns;
                rows.push(current.clone());
            }
            _ => {}
        }
    }
    rows
}

fn main() -> ExitCode {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => {
            eprintln!("usage: run_report <trace.jsonl>");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match TraceEvent::parse_trace(&text) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    print!("{}", Summary::from_events(&events).render());
    print_serving_section(&events);
    print_compaction_section(&events);

    let rows = round_rows(&events);
    if rows.is_empty() {
        println!("no completed rounds in the trace");
        return ExitCode::SUCCESS;
    }
    println!(
        "{:>5} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "round", "outcome", "ms", "eps", "claimed_r", "envelope_r", "ess_frac"
    );
    const HEAD_TAIL: usize = 24;
    if rows.len() <= 2 * HEAD_TAIL {
        rows.iter().for_each(print_row);
    } else {
        rows[..HEAD_TAIL].iter().for_each(print_row);
        println!("  ... ({} rounds elided) ...", rows.len() - 2 * HEAD_TAIL);
        rows[rows.len() - HEAD_TAIL..].iter().for_each(print_row);
    }
    ExitCode::SUCCESS
}
