//! The [`Probe`] trait and its observation vocabulary.
//!
//! A probe is a passive listener: the instrumented code announces *what*
//! happened ([`Phase`] spans, [`Gauge`] readings, [`Counter`] bumps) and
//! the probe decides what to do with it — stream it, aggregate it, or (the
//! [`NoopProbe`] default) nothing at all. All hooks take `&self` so that
//! read-only code paths (`query_mean` on a shared backend reference)
//! can report; concrete probes use interior mutability.

/// A timed phase of a mechanism round or backend operation.
///
/// The two backend-cost phases are deliberately split: [`Phase::PoolSweep`]
/// is the `O(m·d)` pass over the Monte-Carlo pool that recording an update
/// costs, while [`Phase::LogReplay`] is the `O(m·t·d)` update-log replay a
/// pool refresh costs — the two scalings the sublinear claims are about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Figure 3 step (1): the non-private hypothesis solve `θ̂_t`.
    HypothesisSolve,
    /// The weighted error query `ℓ(θ̂_t; D) − OPT` evaluation.
    ErrorQuery,
    /// Sparse-vector screening of the (margin-widened) query value.
    SvScreen,
    /// The private ERM oracle solve.
    OracleSolve,
    /// Applying the MW update (dense sweep or log append + pool sweep).
    Update,
    /// `O(m·d)` pool sweep: scoring the round's payoff on every pool
    /// candidate while recording an update.
    PoolSweep,
    /// `O(m·t·d)` log replay: re-weighting a fresh pool through the whole
    /// update log during a resample or pool growth.
    LogReplay,
    /// A mean/query estimate read off the sketched state.
    Estimate,
    /// MWEM's exponential-mechanism selection.
    Select,
    /// MWEM's Laplace measurement of the selected query.
    Measure,
}

impl Phase {
    /// Every phase, for schema validation and rollups.
    pub const ALL: &'static [Phase] = &[
        Phase::HypothesisSolve,
        Phase::ErrorQuery,
        Phase::SvScreen,
        Phase::OracleSolve,
        Phase::Update,
        Phase::PoolSweep,
        Phase::LogReplay,
        Phase::Estimate,
        Phase::Select,
        Phase::Measure,
    ];

    /// The stable snake_case name used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::HypothesisSolve => "hypothesis_solve",
            Phase::ErrorQuery => "error_query",
            Phase::SvScreen => "sv_screen",
            Phase::OracleSolve => "oracle_solve",
            Phase::Update => "update",
            Phase::PoolSweep => "pool_sweep",
            Phase::LogReplay => "log_replay",
            Phase::Estimate => "estimate",
            Phase::Select => "select",
            Phase::Measure => "measure",
        }
    }

    /// Inverse of [`Phase::as_str`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.as_str() == name)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A point-in-time reading of a run quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Gauge {
    /// Cumulative ε spent so far (the accountant's total).
    EpsSpent,
    /// Cumulative δ spent so far.
    DeltaSpent,
    /// The sparse-vector margin (radius-widened) the round screened with.
    SvMargin,
    /// The concentration radius the backend claimed for a read.
    ClaimedRadius,
    /// The drift-envelope (Hoeffding) radius — the bound the claimed
    /// radius is the min of; `claimed < envelope` means a data-dependent
    /// bound won.
    EnvelopeRadius,
    /// Effective sample size as a fraction of the pool, `ESS/m`.
    EssFraction,
    /// Absolute effective sample size `1/Σŵ²`.
    Ess,
    /// Current Monte-Carlo pool size `m`.
    PoolSize,
    /// Accumulated drift envelope `Σ η_r·S_r` since the last refresh.
    DriftBound,
    /// Largest normalized pool weight `max ŵ_i`.
    MaxWeightShare,
    /// Rounds recorded since the backend last published a read snapshot —
    /// how stale concurrent readers currently are.
    SnapshotAge,
    /// Retained (un-folded) update-log length — the number of rounds a
    /// replay must still walk after restarting from the newest checkpoint.
    LogLen,
    /// Number of log-weight checkpoints taken so far (compaction folds).
    CheckpointCount,
    /// Rounds actually replayed by the most recent pool refresh — flat in
    /// `t` under a compaction policy, `t` itself without one.
    ReplayRounds,
}

impl Gauge {
    /// Every gauge, for schema validation and rollups.
    pub const ALL: &'static [Gauge] = &[
        Gauge::EpsSpent,
        Gauge::DeltaSpent,
        Gauge::SvMargin,
        Gauge::ClaimedRadius,
        Gauge::EnvelopeRadius,
        Gauge::EssFraction,
        Gauge::Ess,
        Gauge::PoolSize,
        Gauge::DriftBound,
        Gauge::MaxWeightShare,
        Gauge::SnapshotAge,
        Gauge::LogLen,
        Gauge::CheckpointCount,
        Gauge::ReplayRounds,
    ];

    /// The stable snake_case name used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            Gauge::EpsSpent => "eps_spent",
            Gauge::DeltaSpent => "delta_spent",
            Gauge::SvMargin => "sv_margin",
            Gauge::ClaimedRadius => "claimed_radius",
            Gauge::EnvelopeRadius => "envelope_radius",
            Gauge::EssFraction => "ess_fraction",
            Gauge::Ess => "ess",
            Gauge::PoolSize => "pool_size",
            Gauge::DriftBound => "drift_bound",
            Gauge::MaxWeightShare => "max_weight_share",
            Gauge::SnapshotAge => "snapshot_age",
            Gauge::LogLen => "log_len",
            Gauge::CheckpointCount => "checkpoint_count",
            Gauge::ReplayRounds => "replay_rounds",
        }
    }

    /// Inverse of [`Gauge::as_str`].
    pub fn from_name(name: &str) -> Option<Gauge> {
        Gauge::ALL.iter().copied().find(|g| g.as_str() == name)
    }
}

impl std::fmt::Display for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A monotone event count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Counter {
    /// Scheduled (fixed-cadence) pool resamples.
    Resamples,
    /// ESS-floor-triggered adaptive resamples.
    AdaptiveResamples,
    /// Escalation rung 1: emergency resamples on an unusable radius.
    EmergencyResamples,
    /// Escalation rung 2: pool growths.
    PoolGrowths,
    /// Private-oracle re-solves. No mechanism emits it (each update round
    /// calls the oracle once); it stays so v1 traces that carry it parse.
    OracleRetries,
    /// Rounds answered below the SV threshold (no budget beyond SV).
    FreeAnswers,
    /// Rounds that applied an MW update.
    UpdateRounds,
    /// Rounds that failed (the error surfaced to the caller).
    FailedRounds,
    /// Failed rounds whose state change was rolled back transactionally.
    RolledBackRounds,
    /// Update-log compaction folds (checkpoints taken).
    Compactions,
}

impl Counter {
    /// Every counter, for schema validation and rollups.
    pub const ALL: &'static [Counter] = &[
        Counter::Resamples,
        Counter::AdaptiveResamples,
        Counter::EmergencyResamples,
        Counter::PoolGrowths,
        Counter::OracleRetries,
        Counter::FreeAnswers,
        Counter::UpdateRounds,
        Counter::FailedRounds,
        Counter::RolledBackRounds,
        Counter::Compactions,
    ];

    /// The stable snake_case name used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::Resamples => "resamples",
            Counter::AdaptiveResamples => "adaptive_resamples",
            Counter::EmergencyResamples => "emergency_resamples",
            Counter::PoolGrowths => "pool_growths",
            Counter::OracleRetries => "oracle_retries",
            Counter::FreeAnswers => "free_answers",
            Counter::UpdateRounds => "update_rounds",
            Counter::FailedRounds => "failed_rounds",
            Counter::RolledBackRounds => "rolled_back_rounds",
            Counter::Compactions => "compactions",
        }
    }

    /// Inverse of [`Counter::as_str`].
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.iter().copied().find(|c| c.as_str() == name)
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A passive run observer. Every method has an empty default body, so an
/// implementation overrides only what it cares about, and the whole trait
/// vanishes under [`NoopProbe`].
///
/// Hot paths that would *marshal* data just to report it (formatting a
/// label, reading a clock) can skip the work entirely behind
/// `if P::ENABLED { ... }` — a compile-time constant, so the noop build
/// carries no branch.
pub trait Probe {
    /// Compile-time liveness: `false` only for [`NoopProbe`], letting
    /// instrumented code elide observation-marshalling work entirely.
    const ENABLED: bool = true;

    /// A mechanism run (or answer stream) begins.
    fn run_start(&self, mechanism: &'static str, detail: &str) {
        let _ = (mechanism, detail);
    }

    /// Round `round` (0-based) begins; starts the round clock.
    fn round_begin(&self, round: usize) {
        let _ = round;
    }

    /// Round `round` ended with `outcome` (mechanism-defined: `"free"`,
    /// `"update"`, `"failed"`, …); stops the round clock.
    fn round_end(&self, round: usize, outcome: &'static str) {
        let _ = (round, outcome);
    }

    /// A timed phase begins (monotonic clock).
    fn span_begin(&self, phase: Phase) {
        let _ = phase;
    }

    /// The innermost open span of `phase` ends. Probes tolerate unmatched
    /// ends and spans abandoned by early error returns.
    fn span_end(&self, phase: Phase) {
        let _ = phase;
    }

    /// Record a gauge reading.
    fn gauge(&self, gauge: Gauge, value: f64) {
        let _ = (gauge, value);
    }

    /// Bump a counter by `delta`.
    fn counter(&self, counter: Counter, delta: u64) {
        let _ = (counter, delta);
    }

    /// A free-form annotation (e.g. which concentration bound won a read).
    fn note(&self, key: &'static str, value: &str) {
        let _ = (key, value);
    }

    /// The run ended; probes flush here.
    fn run_end(&self) {}
}

/// The default probe: a zero-sized type whose hooks are all empty. Code
/// generic over `P: Probe` monomorphized with `NoopProbe` compiles to the
/// uninstrumented code — no calls, no branches, no clock reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;
}

/// Borrowed probes observe like their referent, so callers can hand the
/// same probe to a mechanism and its backend.
impl<P: Probe> Probe for &P {
    const ENABLED: bool = P::ENABLED;

    fn run_start(&self, mechanism: &'static str, detail: &str) {
        (**self).run_start(mechanism, detail);
    }
    fn round_begin(&self, round: usize) {
        (**self).round_begin(round);
    }
    fn round_end(&self, round: usize, outcome: &'static str) {
        (**self).round_end(round, outcome);
    }
    fn span_begin(&self, phase: Phase) {
        (**self).span_begin(phase);
    }
    fn span_end(&self, phase: Phase) {
        (**self).span_end(phase);
    }
    fn gauge(&self, gauge: Gauge, value: f64) {
        (**self).gauge(gauge, value);
    }
    fn counter(&self, counter: Counter, delta: u64) {
        (**self).counter(counter, delta);
    }
    fn note(&self, key: &'static str, value: &str) {
        (**self).note(key, value);
    }
    fn run_end(&self) {
        (**self).run_end();
    }
}

/// A tee: both probes observe every event, in tuple order. Lets a run
/// stream a JSONL trace *and* keep an in-memory summary.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn run_start(&self, mechanism: &'static str, detail: &str) {
        self.0.run_start(mechanism, detail);
        self.1.run_start(mechanism, detail);
    }
    fn round_begin(&self, round: usize) {
        self.0.round_begin(round);
        self.1.round_begin(round);
    }
    fn round_end(&self, round: usize, outcome: &'static str) {
        self.0.round_end(round, outcome);
        self.1.round_end(round, outcome);
    }
    fn span_begin(&self, phase: Phase) {
        self.0.span_begin(phase);
        self.1.span_begin(phase);
    }
    fn span_end(&self, phase: Phase) {
        self.0.span_end(phase);
        self.1.span_end(phase);
    }
    fn gauge(&self, gauge: Gauge, value: f64) {
        self.0.gauge(gauge, value);
        self.1.gauge(gauge, value);
    }
    fn counter(&self, counter: Counter, delta: u64) {
        self.0.counter(counter, delta);
        self.1.counter(counter, delta);
    }
    fn note(&self, key: &'static str, value: &str) {
        self.0.note(key, value);
        self.1.note(key, value);
    }
    fn run_end(&self) {
        self.0.run_end();
        self.1.run_end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_for_every_variant() {
        for &p in Phase::ALL {
            assert_eq!(Phase::from_name(p.as_str()), Some(p));
            assert_eq!(p.to_string(), p.as_str());
        }
        for &g in Gauge::ALL {
            assert_eq!(Gauge::from_name(g.as_str()), Some(g));
        }
        for &c in Counter::ALL {
            assert_eq!(Counter::from_name(c.as_str()), Some(c));
        }
        assert_eq!(Phase::from_name("nope"), None);
        assert_eq!(Gauge::from_name(""), None);
        assert_eq!(Counter::from_name("Resamples"), None); // names are snake_case
    }

    #[test]
    fn noop_probe_is_disabled_and_zero_sized() {
        // References and tuples propagate compile-time liveness.
        const LIVENESS: [bool; 4] = [
            NoopProbe::ENABLED,
            <&NoopProbe as Probe>::ENABLED,
            <(NoopProbe, NoopProbe) as Probe>::ENABLED,
            <(crate::SummaryProbe, NoopProbe) as Probe>::ENABLED,
        ];
        assert_eq!(LIVENESS, [false, false, false, true]);
        assert_eq!(std::mem::size_of::<NoopProbe>(), 0);
    }

    #[test]
    fn tee_delegates_every_hook() {
        use crate::SummaryProbe;
        let a = SummaryProbe::new("m", "");
        let b = SummaryProbe::new("m", "");
        let tee = (&a, &b);
        tee.round_begin(0);
        tee.span_begin(Phase::Update);
        tee.span_end(Phase::Update);
        tee.gauge(Gauge::EpsSpent, 0.5);
        tee.counter(Counter::UpdateRounds, 1);
        tee.note("bound", "bernstein");
        tee.round_end(0, "update");
        tee.run_end();
        let (sa, sb) = (a.finish(), b.finish());
        // Both probes saw every hook; only their clock readings differ.
        for s in [&sa, &sb] {
            assert_eq!(s.rounds, 1);
            assert_eq!(s.counters, vec![(Counter::UpdateRounds, 1)]);
            assert_eq!(s.phases.len(), 1);
            assert_eq!(s.budget_trajectory, vec![(0, 0.5)]);
        }
        assert_eq!(sa.events, sb.events);
        assert_eq!(sa.outcomes, sb.outcomes);
    }
}
