//! The benchmark's span recorder: a [`Probe`] that keeps every span in
//! memory (phase, start, end, parent span, round id) and turns them into
//! exclusive (self) time per layer.
//!
//! A span's self time is its duration minus the durations of its direct
//! children. Within a round, the self times of every span plus the round's
//! `unattributed` time (wall time no top-level span covers) add up to the
//! round's wall time exactly, in integer nanoseconds.

use pmw_obs::{Gauge, Phase, Probe};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// End marker of a span or round that has not been closed.
const OPEN: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub phase: Phase,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id (index into the round list) of the round the span began in.
    pub round: Option<usize>,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// The mechanism's own round index (answer number, MWEM round `t`).
    pub index: usize,
    pub start: u64,
    pub end: u64,
    pub outcome: &'static str,
}

/// Range of one gauge's readings.
#[derive(Debug, Clone, Copy)]
pub struct GaugeAgg {
    pub min: f64,
    pub max: f64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Indices of the spans still open, innermost last.
    open: Vec<usize>,
    rounds: Vec<Round>,
    current_round: Option<usize>,
    gauges: BTreeMap<Gauge, GaugeAgg>,
}

/// A cloneable handle to one in-memory trace; clones record into the same
/// trace, so the serving layer's writer thread can own one.
#[derive(Clone)]
pub struct Recorder {
    origin: Instant,
    state: Arc<Mutex<State>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            state: Arc::default(),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a recorder hook panicked while holding the trace lock")
    }

    /// Freeze the trace: spans and rounds still open are dropped from the
    /// analysis (they were abandoned by an error return).
    pub fn snapshot(&self) -> Trace {
        let state = self.lock();
        Trace {
            spans: state.spans.clone(),
            rounds: state.rounds.clone(),
            gauges: state.gauges.clone(),
        }
    }
}

impl Probe for Recorder {
    fn round_begin(&self, round: usize) {
        let now = self.now();
        let mut s = self.lock();
        if let Some(open) = s.current_round.take() {
            s.rounds[open].end = now;
        }
        let id = s.rounds.len();
        s.rounds.push(Round {
            index: round,
            start: now,
            end: OPEN,
            outcome: "open",
        });
        s.current_round = Some(id);
    }

    fn round_end(&self, _round: usize, outcome: &'static str) {
        let now = self.now();
        let mut s = self.lock();
        if let Some(id) = s.current_round.take() {
            s.rounds[id].end = now;
            s.rounds[id].outcome = outcome;
        }
    }

    fn span_begin(&self, phase: Phase) {
        let mut s = self.lock();
        let parent = s.open.last().copied();
        let round = s.current_round;
        let id = s.spans.len();
        s.open.push(id);
        let start = self.now();
        s.spans.push(Span {
            phase,
            start,
            end: OPEN,
            parent,
            round,
        });
    }

    fn span_end(&self, phase: Phase) {
        let now = self.now();
        let mut s = self.lock();
        // Close the innermost open span of `phase`, and with it any span
        // opened inside it that an early return left open.
        let Some(pos) = s.open.iter().rposition(|&i| s.spans[i].phase == phase) else {
            return;
        };
        for i in s.open.split_off(pos) {
            s.spans[i].end = now;
        }
    }

    fn gauge(&self, gauge: Gauge, value: f64) {
        let mut s = self.lock();
        let agg = s.gauges.entry(gauge).or_insert(GaugeAgg {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        });
        agg.min = agg.min.min(value);
        agg.max = agg.max.max(value);
    }
}

/// The `layer.phase` a span's self time is booked to.
///
/// MWEM's own `estimate` span wraps the backend's `estimate` spans (one per
/// query); the outer one is the mechanism's loop (`pmw-core`), the inner
/// ones — and the initial estimates MWEM takes before its first round — are
/// the sketch's.
pub fn layer_of(span: &Span, spans: &[Span]) -> &'static str {
    match span.phase {
        Phase::HypothesisSolve => "pmw-losses.hypothesis_solve",
        Phase::ErrorQuery => "pmw-losses.error_query",
        Phase::SvScreen => "pmw-dp.sv_screen",
        Phase::Select => "pmw-dp.select",
        Phase::Measure => "pmw-dp.measure",
        Phase::OracleSolve => "pmw-erm.oracle_solve",
        Phase::Update => "pmw-core.update",
        Phase::PoolSweep => "pmw-sketch.pool_sweep",
        Phase::LogReplay => "pmw-sketch.log_replay",
        Phase::Estimate => {
            let in_estimate = span
                .parent
                .is_some_and(|p| spans[p].phase == Phase::Estimate);
            if in_estimate || span.round.is_none() {
                "pmw-sketch.estimate"
            } else {
                "pmw-core.mwem_estimate"
            }
        }
    }
}

/// Self time and span count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Booked {
    pub self_ns: u64,
    pub spans: u64,
}

/// A frozen trace plus its self-time analysis.
pub struct Trace {
    pub spans: Vec<Span>,
    pub rounds: Vec<Round>,
    pub gauges: BTreeMap<Gauge, GaugeAgg>,
}

/// Per-round attribution: `Σ self + unattributed == wall`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTime {
    pub wall: u64,
    pub self_sum: u64,
    pub unattributed: u64,
}

impl Trace {
    fn closed(&self) -> impl Iterator<Item = (usize, &Span)> {
        self.spans.iter().enumerate().filter(|(_, s)| s.end != OPEN)
    }

    /// Self time of every span (0 for spans left open).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for (_, s) in self.closed() {
            if let Some(p) = s.parent {
                children[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, &c)| if s.end == OPEN { 0 } else { s.duration() - c })
            .collect()
    }

    /// Self time booked per layer, over every closed span.
    pub fn by_layer(&self) -> BTreeMap<&'static str, Booked> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, Booked> = BTreeMap::new();
        for (i, s) in self.closed() {
            let b = out.entry(layer_of(s, &self.spans)).or_default();
            b.self_ns += selfs[i];
            b.spans += 1;
        }
        out
    }

    /// Attribution of each closed round: the self times of every span
    /// that began in it, and the wall time no top-level span covers.
    pub fn round_times(&self) -> Vec<RoundTime> {
        let selfs = self.self_times();
        let mut self_sum = vec![0u64; self.rounds.len()];
        let mut covered = vec![0u64; self.rounds.len()];
        for (i, s) in self.closed() {
            if let Some(r) = s.round {
                self_sum[r] += selfs[i];
                if s.parent.is_none() {
                    covered[r] += s.duration();
                }
            }
        }
        self.rounds
            .iter()
            .enumerate()
            .filter(|(_, r)| r.end != OPEN)
            .map(|(i, r)| {
                let wall = r.end - r.start;
                RoundTime {
                    wall,
                    self_sum: self_sum[i],
                    unattributed: wall.saturating_sub(covered[i]),
                }
            })
            .collect()
    }

    /// Σ self time over Σ wall time of the closed rounds.
    pub fn coverage(&self) -> f64 {
        let (wall, selfs) = self
            .round_times()
            .iter()
            .fold((0u64, 0u64), |(w, s), r| (w + r.wall, s + r.self_sum));
        if wall == 0 {
            0.0
        } else {
            selfs as f64 / wall as f64
        }
    }

    pub fn gauge(&self, g: Gauge) -> Option<GaugeAgg> {
        self.gauges.get(&g).copied()
    }

    /// Write every span and round as one JSON line each.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self.self_times();
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (i, s) in self.closed() {
            writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"round\":{}}}",
                s.phase.as_str(),
                layer_of(s, &self.spans),
                s.start,
                s.end,
                selfs[i],
                opt(s.parent),
                opt(s.round)
            )?;
        }
        for (i, r) in self
            .rounds
            .iter()
            .enumerate()
            .filter(|(_, r)| r.end != OPEN)
        {
            writeln!(
                out,
                "{{\"kind\":\"round\",\"id\":{i},\"index\":{},\"start_ns\":{},\"end_ns\":{},\"outcome\":\"{}\"}}",
                r.index, r.start, r.end, r.outcome
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmw_core::Mwem;
    use pmw_data::{BigBitCube, Dataset, ImplicitQuery};
    use pmw_sketch::{CompactionPolicy, SampledBackend, SampledConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_rounds_add_up(trace: &Trace) {
        let rounds = trace.round_times();
        assert!(!rounds.is_empty());
        for r in &rounds {
            assert_eq!(r.self_sum + r.unattributed, r.wall, "{r:?}");
        }
    }

    #[test]
    fn self_times_telescope_on_a_hand_built_trace() {
        let rec = Recorder::default();
        rec.round_begin(0);
        rec.span_begin(Phase::Update);
        rec.span_begin(Phase::PoolSweep);
        rec.span_end(Phase::PoolSweep);
        rec.span_begin(Phase::LogReplay);
        // An abandoned inner span is closed with its parent.
        rec.span_begin(Phase::Estimate);
        rec.span_end(Phase::Update);
        rec.span_end(Phase::LogReplay); // unmatched: ignored
        rec.round_end(0, "update");
        let trace = rec.snapshot();
        assert_eq!(trace.spans.len(), 4);
        assert!(trace.spans.iter().all(|s| s.end != OPEN));
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[3].parent, Some(2));
        assert_rounds_add_up(&trace);
    }

    /// A real Fast-MWEM release over the sampled backend: the backend's
    /// `estimate` spans nest inside MWEM's `estimate`, `pool_sweep` and
    /// `log_replay` nest inside `update`, and every round's self times plus
    /// `unattributed` equal its wall time.
    #[test]
    fn nested_mwem_spans_add_up_to_round_wall_time() {
        let source = BigBitCube::new(12).expect("cube");
        let rows: Vec<usize> = (0..400)
            .map(|i| ((i * 2654435761usize) % 4096) | 1)
            .collect();
        let dataset = Dataset::from_indices(4096, rows).expect("dataset");
        let queries: Vec<ImplicitQuery> = (0..6)
            .map(|i| ImplicitQuery::marginal(vec![i, i + 3], 12).expect("query"))
            .collect();
        let rec = Recorder::default();
        let config = SampledConfig {
            budget: 256,
            resample_every: 2,
            compaction: CompactionPolicy::EveryK(2),
            ..SampledConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let backend = SampledBackend::with_probe(source, config, &rec, &mut rng).expect("backend");
        Mwem::new(6, 1.0)
            .expect("mwem")
            .run_with_source_probed(&queries, &source, &dataset, 2.0, backend, &mut rng, &rec)
            .expect("release");
        let trace = rec.snapshot();
        assert_eq!(trace.rounds.len(), 6);
        assert_rounds_add_up(&trace);

        let parent_phase = |s: &Span| s.parent.map(|p| trace.spans[p].phase);
        let nested = |phase: Phase, parent: Phase| {
            trace
                .spans
                .iter()
                .filter(|s| s.phase == phase && parent_phase(s) == Some(parent))
                .count()
        };
        // Six queries re-estimated after each of the six rounds' updates.
        assert_eq!(nested(Phase::Estimate, Phase::Estimate), 6 * 6);
        assert_eq!(nested(Phase::PoolSweep, Phase::Update), 6);
        assert!(nested(Phase::LogReplay, Phase::Update) >= 2);

        // Nested time is booked once: the layers' self times sum to the
        // trace's total top-level span time.
        let layers = trace.by_layer();
        let booked: u64 = layers.values().map(|b| b.self_ns).sum();
        let top: u64 = trace
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration)
            .sum();
        assert_eq!(booked, top);
        // Plus the six initial estimates MWEM takes before its first round.
        assert_eq!(layers["pmw-sketch.estimate"].spans, 6 + 6 * 6);
        assert_eq!(layers["pmw-core.mwem_estimate"].spans, 6);
        assert!(trace.coverage() > 0.0 && trace.coverage() <= 1.0);
    }
}
