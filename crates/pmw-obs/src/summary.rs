//! In-memory rollups: [`SummaryProbe`] records a run's events and
//! [`Summary`] aggregates them — per-phase latency percentiles, the
//! budget trajectory, the ESS health timeline, counter totals.
//!
//! [`Summary::from_events`] is deliberately a pure function of an event
//! list, so a summary computed live by the probe and one recomputed from
//! a parsed JSONL trace of the same events are `==` — the round-trip
//! guarantee the trace tests pin down.

use crate::probe::{Counter, Gauge, Phase, Probe};
use crate::trace::TraceEvent;
use std::cell::RefCell;
use std::time::Instant;

/// Latency rollup for one [`Phase`] (durations in nanoseconds,
/// nearest-rank percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of spans observed.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Median span duration.
    pub p50_ns: u64,
    /// 99th-percentile span duration.
    pub p99_ns: u64,
    /// Largest span duration.
    pub max_ns: u64,
}

/// Value rollup for one [`Gauge`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStats {
    /// Number of readings.
    pub count: u64,
    /// Most recent reading.
    pub last: f64,
    /// Smallest reading (NaN readings are counted but excluded here).
    pub min: f64,
    /// Largest reading (NaN readings are counted but excluded here).
    pub max: f64,
}

/// The aggregate view of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Mechanism name from the `run_start` event (empty if absent).
    pub mechanism: String,
    /// Run detail from the `run_start` event.
    pub detail: String,
    /// Total events aggregated.
    pub events: u64,
    /// Rounds completed (`round_end` count).
    pub rounds: u64,
    /// Rounds per outcome label, sorted by label.
    pub outcomes: Vec<(String, u64)>,
    /// Latency rollups for every phase observed, in [`Phase::ALL`] order.
    pub phases: Vec<(Phase, PhaseStats)>,
    /// Counter totals for every counter observed, in [`Counter::ALL`]
    /// order.
    pub counters: Vec<(Counter, u64)>,
    /// Gauge rollups for every gauge observed, in [`Gauge::ALL`] order.
    pub gauges: Vec<(Gauge, GaugeStats)>,
    /// Every [`Gauge::EpsSpent`] reading as `(round, ε_total)` — the
    /// budget trajectory.
    pub budget_trajectory: Vec<(u64, f64)>,
    /// Every [`Gauge::EssFraction`] reading as `(round, ESS/m)` — the
    /// pool-health timeline.
    pub health_timeline: Vec<(u64, f64)>,
}

/// Nearest-rank `p`th percentile (`p` in percent) of an ascending
/// sample: the value at 1-based rank `⌈p·n/100⌉`, clamped to `[1, n]`, so
/// the p50 and p99 of 1..=100 are 50 and 99. The default (zero) when the
/// sample is empty.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl Summary {
    /// Aggregate an event list. Pure: equal event lists give equal
    /// summaries.
    pub fn from_events(events: &[TraceEvent]) -> Summary {
        let (mut mechanism, mut detail) = (String::new(), String::new());
        let mut rounds = 0u64;
        let mut outcomes: Vec<(String, u64)> = Vec::new();
        let mut durations: Vec<(Phase, Vec<u64>)> = Vec::new();
        let mut counters: Vec<(Counter, u64)> = Vec::new();
        let mut gauges: Vec<(Gauge, GaugeStats)> = Vec::new();
        let mut budget_trajectory = Vec::new();
        let mut health_timeline = Vec::new();
        for ev in events {
            match ev {
                TraceEvent::RunStart {
                    mechanism: m,
                    detail: d,
                } => {
                    if mechanism.is_empty() {
                        mechanism = m.clone();
                        detail = d.clone();
                    }
                }
                TraceEvent::RoundBegin { .. } | TraceEvent::Note { .. } => {}
                TraceEvent::RoundEnd { outcome, .. } => {
                    rounds += 1;
                    match outcomes.iter_mut().find(|(o, _)| o == outcome) {
                        Some((_, n)) => *n += 1,
                        None => outcomes.push((outcome.clone(), 1)),
                    }
                }
                TraceEvent::Span { phase, ns, .. } => {
                    match durations.iter_mut().find(|(p, _)| p == phase) {
                        Some((_, v)) => v.push(*ns),
                        None => durations.push((*phase, vec![*ns])),
                    }
                }
                TraceEvent::Gauge {
                    gauge,
                    round,
                    value,
                } => {
                    match gauges.iter_mut().find(|(g, _)| g == gauge) {
                        Some((_, s)) => {
                            s.count += 1;
                            s.last = *value;
                            if !value.is_nan() {
                                s.min = s.min.min(*value);
                                s.max = s.max.max(*value);
                            }
                        }
                        None => gauges.push((
                            *gauge,
                            GaugeStats {
                                count: 1,
                                last: *value,
                                min: if value.is_nan() {
                                    f64::INFINITY
                                } else {
                                    *value
                                },
                                max: if value.is_nan() {
                                    f64::NEG_INFINITY
                                } else {
                                    *value
                                },
                            },
                        )),
                    }
                    match gauge {
                        Gauge::EpsSpent => budget_trajectory.push((*round, *value)),
                        Gauge::EssFraction => health_timeline.push((*round, *value)),
                        _ => {}
                    }
                }
                TraceEvent::Counter { counter, delta, .. } => {
                    match counters.iter_mut().find(|(c, _)| c == counter) {
                        Some((_, n)) => *n += delta,
                        None => counters.push((*counter, *delta)),
                    }
                }
                TraceEvent::RunEnd { .. } => {}
            }
        }
        outcomes.sort_by(|a, b| a.0.cmp(&b.0));
        durations.sort_by_key(|(p, _)| *p);
        counters.sort_by_key(|(c, _)| *c);
        gauges.sort_by_key(|(g, _)| *g);
        let phases = durations
            .into_iter()
            .map(|(phase, mut ns)| {
                ns.sort_unstable();
                (
                    phase,
                    PhaseStats {
                        count: ns.len() as u64,
                        total_ns: ns.iter().sum(),
                        p50_ns: nearest_rank(&ns, 50.0),
                        p99_ns: nearest_rank(&ns, 99.0),
                        max_ns: *ns.last().unwrap_or(&0),
                    },
                )
            })
            .collect();
        Summary {
            mechanism,
            detail,
            events: events.len() as u64,
            rounds,
            outcomes,
            phases,
            counters,
            gauges,
            budget_trajectory,
            health_timeline,
        }
    }

    /// Render the rollup as a short human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run: {}{}{}",
            if self.mechanism.is_empty() {
                "(unnamed)"
            } else {
                &self.mechanism
            },
            if self.detail.is_empty() { "" } else { " — " },
            self.detail
        );
        let outcomes: Vec<String> = self
            .outcomes
            .iter()
            .map(|(o, n)| format!("{o} {n}"))
            .collect();
        let _ = writeln!(
            out,
            "rounds: {} ({}); events: {}",
            self.rounds,
            if outcomes.is_empty() {
                "none".to_string()
            } else {
                outcomes.join(", ")
            },
            self.events
        );
        if !self.phases.is_empty() {
            let _ = writeln!(
                out,
                "{:<18} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "phase", "count", "total", "p50", "p99", "max"
            );
            for (phase, s) in &self.phases {
                let _ = writeln!(
                    out,
                    "{:<18} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    phase.as_str(),
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.p50_ns),
                    fmt_ns(s.p99_ns),
                    fmt_ns(s.max_ns)
                );
            }
        }
        if !self.counters.is_empty() {
            let list: Vec<String> = self
                .counters
                .iter()
                .map(|(c, n)| format!("{} {n}", c.as_str()))
                .collect();
            let _ = writeln!(out, "counters: {}", list.join(", "));
        }
        for (g, s) in &self.gauges {
            let _ = writeln!(
                out,
                "gauge {:<18} last {:.6} min {:.6} max {:.6} ({} readings)",
                g.as_str(),
                s.last,
                s.min,
                s.max,
                s.count
            );
        }
        if let (Some(first), Some(last)) = (
            self.budget_trajectory.first(),
            self.budget_trajectory.last(),
        ) {
            let _ = writeln!(
                out,
                "budget: ε {:.6} → {:.6} over {} readings",
                first.1,
                last.1,
                self.budget_trajectory.len()
            );
        }
        if let (Some(first), Some(last)) =
            (self.health_timeline.first(), self.health_timeline.last())
        {
            let min = self
                .health_timeline
                .iter()
                .map(|(_, v)| *v)
                .fold(f64::INFINITY, f64::min);
            let _ = writeln!(
                out,
                "health: ESS/m {:.4} → {:.4} (min {:.4}) over {} readings",
                first.1,
                last.1,
                min,
                self.health_timeline.len()
            );
        }
        out
    }
}

/// Render nanoseconds at a human scale.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// A span stack pairing `span_begin` clocks with their `span_end`,
/// tolerant of spans abandoned by early error returns: ending phase `p`
/// pops entries above the innermost open `p` (they never got an end).
#[derive(Debug, Default)]
pub(crate) struct SpanStack {
    open: Vec<(Phase, Instant)>,
}

impl SpanStack {
    pub(crate) fn begin(&mut self, phase: Phase) {
        self.open.push((phase, Instant::now()));
    }

    /// Close the innermost open span of `phase`, returning its duration.
    /// `None` when no such span is open (unmatched end: ignored).
    pub(crate) fn end(&mut self, phase: Phase) -> Option<u64> {
        let idx = self.open.iter().rposition(|(p, _)| *p == phase)?;
        let (_, start) = self.open.swap_remove(idx);
        // swap_remove is fine: everything above idx was abandoned and is
        // dropped wholesale the next time its own phase closes or the
        // round ends; ordering among abandoned spans is irrelevant.
        self.open.truncate(idx);
        Some(start.elapsed().as_nanos() as u64)
    }

    pub(crate) fn clear(&mut self) {
        self.open.clear();
    }
}

struct SummaryState {
    mechanism: String,
    detail: String,
    started: bool,
    events: Vec<TraceEvent>,
    stack: SpanStack,
    round: u64,
    round_start: Option<Instant>,
}

/// A probe that keeps the whole event stream in memory and rolls it up
/// into a [`Summary`] on [`SummaryProbe::finish`].
pub struct SummaryProbe {
    state: RefCell<SummaryState>,
}

impl SummaryProbe {
    /// A summary probe for a run of `mechanism`. The arguments are
    /// defaults: an explicit [`Probe::run_start`] from the driver
    /// overrides them.
    pub fn new(mechanism: &str, detail: &str) -> SummaryProbe {
        SummaryProbe {
            state: RefCell::new(SummaryState {
                mechanism: mechanism.to_string(),
                detail: detail.to_string(),
                started: false,
                events: Vec::new(),
                stack: SpanStack::default(),
                round: 0,
                round_start: None,
            }),
        }
    }

    /// The recorded event stream, closed with a `run_end` (and opened
    /// with the constructor's `run_start` if the driver never sent one).
    pub fn into_events(self) -> Vec<TraceEvent> {
        let mut st = self.state.into_inner();
        if !st.started {
            st.events.insert(
                0,
                TraceEvent::RunStart {
                    mechanism: st.mechanism.clone(),
                    detail: st.detail.clone(),
                },
            );
        }
        if !matches!(st.events.last(), Some(TraceEvent::RunEnd { .. })) {
            let n = st.events.len() as u64;
            st.events.push(TraceEvent::RunEnd { events: n });
        }
        st.events
    }

    /// Roll the recorded events up into a [`Summary`].
    pub fn finish(self) -> Summary {
        Summary::from_events(&self.into_events())
    }
}

impl Probe for SummaryProbe {
    fn run_start(&self, mechanism: &'static str, detail: &str) {
        let mut st = self.state.borrow_mut();
        st.started = true;
        let ev = TraceEvent::RunStart {
            mechanism: mechanism.to_string(),
            detail: detail.to_string(),
        };
        st.events.push(ev);
    }

    fn round_begin(&self, round: usize) {
        let mut st = self.state.borrow_mut();
        st.round = round as u64;
        st.round_start = Some(Instant::now());
        let ev = TraceEvent::RoundBegin {
            round: round as u64,
        };
        st.events.push(ev);
    }

    fn round_end(&self, round: usize, outcome: &'static str) {
        let mut st = self.state.borrow_mut();
        let ns = st
            .round_start
            .take()
            .map(|t| t.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        st.stack.clear();
        let ev = TraceEvent::RoundEnd {
            round: round as u64,
            outcome: outcome.to_string(),
            ns,
        };
        st.events.push(ev);
    }

    fn span_begin(&self, phase: Phase) {
        self.state.borrow_mut().stack.begin(phase);
    }

    fn span_end(&self, phase: Phase) {
        let mut st = self.state.borrow_mut();
        if let Some(ns) = st.stack.end(phase) {
            let round = st.round;
            st.events.push(TraceEvent::Span { phase, round, ns });
        }
    }

    fn gauge(&self, gauge: Gauge, value: f64) {
        let mut st = self.state.borrow_mut();
        let round = st.round;
        st.events.push(TraceEvent::Gauge {
            gauge,
            round,
            value,
        });
    }

    fn counter(&self, counter: Counter, delta: u64) {
        let mut st = self.state.borrow_mut();
        let round = st.round;
        st.events.push(TraceEvent::Counter {
            counter,
            round,
            delta,
        });
    }

    fn note(&self, key: &'static str, value: &str) {
        let mut st = self.state.borrow_mut();
        let round = st.round;
        st.events.push(TraceEvent::Note {
            key: key.to_string(),
            value: value.to_string(),
            round,
        });
    }

    fn run_end(&self) {
        let mut st = self.state.borrow_mut();
        if !matches!(st.events.last(), Some(TraceEvent::RunEnd { .. })) {
            let n = st.events.len() as u64;
            st.events.push(TraceEvent::RunEnd { events: n });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let ns: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&ns, 50.0), 50);
        assert_eq!(nearest_rank(&ns, 99.0), 99);
        assert_eq!(nearest_rank(&[7], 50.0), 7);
        assert_eq!(nearest_rank::<u64>(&[], 99.0), 0);
        assert_eq!(nearest_rank(&[0.5, 1.5, 2.5], 50.0), 1.5);
    }

    #[test]
    fn span_stack_survives_abandoned_spans() {
        let mut stack = SpanStack::default();
        stack.begin(Phase::Update);
        stack.begin(Phase::OracleSolve); // abandoned: early `?` return
        stack.begin(Phase::PoolSweep); // abandoned
        assert!(stack.end(Phase::Update).is_some());
        // The abandoned inner spans are gone with it.
        assert!(stack.end(Phase::OracleSolve).is_none());
        // Unmatched end on an empty stack: ignored.
        assert!(stack.end(Phase::Estimate).is_none());
    }

    #[test]
    fn summary_probe_rolls_up_a_run() {
        let probe = SummaryProbe::new("", "");
        probe.run_start("online_pmw", "test run");
        for round in 0..4usize {
            probe.round_begin(round);
            probe.span_begin(Phase::HypothesisSolve);
            probe.span_end(Phase::HypothesisSolve);
            probe.gauge(Gauge::EpsSpent, 0.25 * (round + 1) as f64);
            probe.gauge(Gauge::EssFraction, 1.0 - 0.1 * round as f64);
            probe.counter(Counter::UpdateRounds, 1);
            probe.round_end(round, if round % 2 == 0 { "update" } else { "free" });
        }
        probe.run_end();
        let summary = probe.finish();
        assert_eq!(summary.mechanism, "online_pmw");
        assert_eq!(summary.rounds, 4);
        assert_eq!(
            summary.outcomes,
            vec![("free".to_string(), 2), ("update".to_string(), 2)]
        );
        assert_eq!(summary.counters, vec![(Counter::UpdateRounds, 4)]);
        assert_eq!(summary.phases.len(), 1);
        let (phase, stats) = summary.phases[0];
        assert_eq!(phase, Phase::HypothesisSolve);
        assert_eq!(stats.count, 4);
        assert!(stats.p50_ns <= stats.p99_ns && stats.p99_ns <= stats.max_ns);
        assert_eq!(summary.budget_trajectory.len(), 4);
        assert_eq!(summary.budget_trajectory[3], (3, 1.0));
        assert_eq!(summary.health_timeline.len(), 4);
        let rendered = summary.render();
        assert!(rendered.contains("online_pmw"));
        assert!(rendered.contains("hypothesis_solve"));
        assert!(rendered.contains("budget: ε"));
        assert!(rendered.contains("health: ESS/m"));
    }

    #[test]
    fn summary_is_pure_in_the_event_list() {
        let probe = SummaryProbe::new("mwem", "detail");
        probe.round_begin(0);
        probe.gauge(Gauge::ClaimedRadius, 0.01);
        probe.note("bound", "bernstein");
        probe.round_end(0, "update");
        let events = probe.into_events();
        assert!(matches!(events.first(), Some(TraceEvent::RunStart { .. })));
        assert!(matches!(events.last(), Some(TraceEvent::RunEnd { .. })));
        // Serialize → parse → identical summary (the round-trip contract).
        let text: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        let parsed = TraceEvent::parse_trace(&text).unwrap();
        assert_eq!(parsed, events);
        assert_eq!(Summary::from_events(&parsed), Summary::from_events(&events));
    }

    #[test]
    fn nan_gauges_do_not_poison_min_max() {
        let events = [
            TraceEvent::Gauge {
                gauge: Gauge::SvMargin,
                round: 0,
                value: f64::NAN,
            },
            TraceEvent::Gauge {
                gauge: Gauge::SvMargin,
                round: 1,
                value: 2.0,
            },
        ];
        let s = Summary::from_events(&events);
        let (_, stats) = s.gauges[0];
        assert_eq!(stats.count, 2);
        assert_eq!((stats.min, stats.max), (2.0, 2.0));
        assert_eq!(stats.last, 2.0);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
    }
}
