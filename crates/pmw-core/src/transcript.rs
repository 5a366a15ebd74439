//! The transcript of a mechanism run: one record per update round.
//!
//! PMW answers up to `k` queries — `k` may be exponential in `n` — from a
//! state that changes only on its at most `T` update (`⊤`) rounds. So the
//! transcript keeps one [`QueryRecord`] per `⊤` round, failed rounds
//! included, plus the state backend's self-maintenance events, and only
//! counts the free (`⊥`) answers: it stays O(T) however many queries are
//! answered. A record holds what an observer of the mechanism's *outputs*
//! could see — outcome, answer, update round — plus (when the config's
//! `diagnostics` flag is set) the non-private error-query value and
//! certificate gap that the Claim 3.5 test in `tests/end_to_end.rs` checks.

/// How an update round ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Sparse vector said `⊤`: answered by the private oracle, hypothesis
    /// updated.
    FromOracle,
    /// Sparse vector said `⊤` but the oracle (or the state update) failed
    /// after the sparse-vector round was already consumed: no answer was
    /// released, yet the update slot and its budget are burned. Recorded
    /// so the transcript stays in lockstep with `sv.tops_used()` and the
    /// accountant.
    UpdateFailed,
}

/// One query that consumed an update round.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Query index `j` (0-based) among every query answered, free ones
    /// included.
    pub index: usize,
    /// Loss name (from [`CmLoss::name`](pmw_losses::CmLoss::name)).
    pub loss_name: &'static str,
    /// How the round ended.
    pub outcome: QueryOutcome,
    /// The released answer `θ_t` (empty on a failed round).
    pub answer: Vec<f64>,
    /// Update round `t` consumed (0-based).
    pub update_round: Option<usize>,
    /// Diagnostics only (non-private): the true error-query value
    /// `err_ℓ(D, D̂_t)` fed to the sparse vector.
    pub error_query_value: Option<f64>,
    /// Diagnostics only (non-private): the dual-certificate payoff gap
    /// `⟨u_t, D̂_t − D⟩` at update time (Claim 3.5's left-hand side).
    pub certificate_gap: Option<f64>,
}

/// Full run transcript.
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    records: Vec<QueryRecord>,
    free: usize,
    backend_events: Vec<crate::state::BackendEvent>,
}

impl Transcript {
    /// Empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an update round's record.
    pub(crate) fn push(&mut self, record: QueryRecord) {
        self.records.push(record);
    }

    /// Count `answers` more queries answered free from the hypothesis.
    pub(crate) fn record_free(&mut self, answers: usize) {
        self.free += answers;
    }

    /// Append the backend's self-maintenance events for the round just
    /// applied (drained via `StateBackend::take_events`).
    pub(crate) fn record_backend_events(&mut self, events: Vec<crate::state::BackendEvent>) {
        self.backend_events.extend(events);
    }

    /// The update rounds' records, in query order (at most `T`).
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// Health-maintenance events the state backend reported while rounds
    /// were applied (adaptive/emergency refreshes, pool growths), in the
    /// order they fired. Empty for exact backends and for sketched
    /// backends whose health knobs are disabled.
    pub fn backend_events(&self) -> &[crate::state::BackendEvent] {
        &self.backend_events
    }

    /// Number of queries answered: free answers plus update rounds.
    pub fn len(&self) -> usize {
        self.free + self.records.len()
    }

    /// True if no queries have been answered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of queries that consumed an update round (`⊤` outcomes,
    /// including rounds burned by a failed oracle/update) — always equal
    /// to the mechanism's `updates_used()`.
    pub fn updates(&self) -> usize {
        self.records.len()
    }

    /// Fraction of queries served for free from the hypothesis.
    pub fn free_fraction(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        1.0 - self.updates() as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: usize, outcome: QueryOutcome) -> QueryRecord {
        QueryRecord {
            index: i,
            loss_name: "test",
            outcome,
            answer: vec![0.0],
            update_round: Some(i),
            error_query_value: None,
            certificate_gap: None,
        }
    }

    #[test]
    fn counts_updates_and_free_queries() {
        let mut t = Transcript::new();
        assert!(t.is_empty());
        t.record_free(1);
        t.push(record(1, QueryOutcome::FromOracle));
        t.record_free(2);
        assert_eq!(t.len(), 4);
        assert_eq!(t.updates(), 1);
        assert_eq!(t.records().len(), 1);
        assert!((t.free_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn burned_rounds_count_as_updates() {
        let mut t = Transcript::new();
        t.push(record(0, QueryOutcome::UpdateFailed));
        t.record_free(1);
        assert_eq!(t.updates(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_transcript_free_fraction_is_zero() {
        assert_eq!(Transcript::new().free_fraction(), 0.0);
    }
}
