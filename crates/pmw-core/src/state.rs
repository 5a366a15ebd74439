//! The **state-backend seam**: how the mechanisms represent `D̂_t`.
//!
//! Figure 3 only ever touches the hypothesis through four operations —
//! minimize a loss over it, apply the dual-certificate MW update, read the
//! expected payoff `⟨u_t, D̂_t⟩` for diagnostics, and sample synthetic
//! points from it. [`StateBackend`] abstracts exactly those four, so
//! [`OnlinePmw`](crate::OnlinePmw) and [`OfflinePmw`](crate::OfflinePmw)
//! are generic over the representation:
//!
//! * [`DenseBackend`] (here) wraps the log-domain
//!   [`Histogram`] + flat certificate sweep — the behavior-preserving
//!   default, bit-for-bit identical to the pre-seam mechanism;
//! * `SampledBackend` (the `pmw-sketch` crate) keeps the update log
//!   `{(η_t, θ_t, θ̂_t, ℓ_t)}` plus a Monte-Carlo pool instead of a
//!   `|X|`-sized vector and implements this trait, so the mechanisms run
//!   on sketched state directly. The exact values its estimates are
//!   checked against come from `pmw_sketch::exact_query_values`, a
//!   `Θ(|X|)` sweep of the same log that is a function, not a backend.
//!
//! Backends that must retain the round's loss beyond the call (the
//! update-log representation) obtain an owned handle via
//! [`CmLoss::clone_shared`]; the dense backend needs no retention and
//! works with any loss.

use crate::error::PmwError;
use crate::update::dual_certificate_into;
use pmw_data::workload::PointQuery;
use pmw_data::{Histogram, PointMatrix};
use pmw_losses::traits::minimize_weighted;
use pmw_losses::CmLoss;
use rand::Rng;
use std::any::Any;
use std::sync::Arc;

/// `⟨q, h⟩` on a dense histogram: the exact [`Histogram::dot`] fast path
/// for queries carrying dense values (bit-for-bit the classic pipeline),
/// a length-checked weighted point sweep for implicit ones. Shared by
/// [`DenseBackend`] (hypothesis side) and the linear mechanisms' dense
/// data side, so the two evaluations cannot drift.
pub(crate) fn eval_query_on_histogram(
    query: &dyn PointQuery,
    hist: &Histogram,
    points: Option<&PointMatrix>,
) -> Result<f64, PmwError> {
    if let Some(values) = query.dense_values() {
        if values.len() != hist.len() {
            return Err(PmwError::LossMismatch("query length != universe size"));
        }
        return Ok(hist.dot(values));
    }
    let points = points.ok_or(PmwError::LossMismatch(
        "implicit queries need universe points; construct with a universe or point source",
    ))?;
    if points.len() != hist.len() {
        return Err(PmwError::LossMismatch(
            "universe points do not match the histogram size",
        ));
    }
    let mut value = 0.0;
    for (w, point) in hist.weights().iter().zip(points.iter()) {
        let q = query.value_at_point(point).ok_or(PmwError::LossMismatch(
            "query supports neither index nor point evaluation",
        ))?;
        value += w * q;
    }
    Ok(value)
}

/// A health-maintenance action a state backend took on its own initiative
/// while applying a round — pool refreshes triggered by measured health
/// rather than the fixed cadence, and escalation-ladder rungs climbed to
/// keep claimed read radii usable. The mechanisms drain these through
/// [`StateBackend::take_events`] after every applied round and record them
/// in the [`Transcript`](crate::Transcript), so a run's degradation
/// history is observable without reaching into backend internals.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendEvent {
    /// The pool's effective sample size fell below the configured floor
    /// and the backend refreshed the pool outside its fixed cadence.
    AdaptiveResample {
        /// Recorded round (0-based) after which the refresh fired.
        round: usize,
        /// Effective sample size measured before the refresh.
        ess: f64,
        /// The configured ESS-fraction floor that was violated.
        floor: f64,
    },
    /// A read's claimed radius exceeded the usable threshold and the
    /// backend performed an emergency refresh (escalation rung 1).
    EmergencyResample {
        /// Recorded round (0-based) at which the ladder fired.
        round: usize,
        /// The claimed read radius that triggered the escalation.
        radius: f64,
    },
    /// The emergency refresh was not enough and the backend grew its pool
    /// (escalation rung 2).
    PoolGrowth {
        /// Recorded round (0-based) at which the growth happened.
        round: usize,
        /// Pool size after growing.
        new_size: usize,
    },
    /// The backend folded the old prefix of its update log into a
    /// log-weight checkpoint ([`CompactionPolicy`] fired). Lossless for
    /// checkpointed pool points; any fresh candidate drawn later pays the
    /// ledgered fold radius for the folded drift.
    ///
    /// [`CompactionPolicy`]: https://docs.rs/pmw-sketch
    Compaction {
        /// Recorded round (0-based) after which the fold ran.
        round: usize,
        /// Number of log rounds folded into the checkpoint by this fold.
        folded_rounds: usize,
        /// Pool points whose cumulative log-weights the checkpoint pins.
        checkpoint_points: usize,
        /// Total drift envelope `Σ η·S` of **all** folded rounds so far.
        folded_drift: f64,
    },
    /// The round's state change was rolled back after a post-round
    /// failure (e.g. the escalation ladder exhausted itself and the
    /// backend reported `Degraded`). Events preceding this one in the
    /// same drain describe what was attempted *before* the rollback.
    RoundRolledBack {
        /// Recorded round (0-based) that was rolled back.
        round: usize,
    },
}

impl std::fmt::Display for BackendEvent {
    /// One-line event summary, e.g.
    /// `round 7: adaptive resample (ESS 12.3 < floor 25%)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendEvent::AdaptiveResample { round, ess, floor } => write!(
                f,
                "round {round}: adaptive resample (ESS {ess:.1} < floor {:.1}%)",
                floor * 100.0
            ),
            BackendEvent::EmergencyResample { round, radius } => write!(
                f,
                "round {round}: emergency resample (claimed radius {radius:.4} unusable)"
            ),
            BackendEvent::PoolGrowth { round, new_size } => {
                write!(f, "round {round}: pool grown to {new_size}")
            }
            BackendEvent::Compaction {
                round,
                folded_rounds,
                checkpoint_points,
                folded_drift,
            } => write!(
                f,
                "round {round}: compacted {folded_rounds} rounds into a \
                 {checkpoint_points}-point checkpoint (folded drift {folded_drift:.3})"
            ),
            BackendEvent::RoundRolledBack { round } => {
                write!(f, "round {round}: rolled back after post-round failure")
            }
        }
    }
}

/// A backend's answer to `⟨q, D̂_t⟩`: the value plus the accuracy claim
/// attached to it. Exact backends return `radius = beta = 0`; sketching
/// backends return their concentration bound (`value ± radius` except with
/// probability `beta`) and record it in their sampling ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryEstimate {
    /// The (estimated) expected query value under `D̂_t`.
    pub value: f64,
    /// Claimed deviation bound (0 for exact backends).
    pub radius: f64,
    /// Failure probability of the claim (0 for exact backends).
    pub beta: f64,
}

/// What a backend keeps between the batched reads of one workload
/// ([`StateBackend::expected_query_values`]). This crate never looks
/// inside: the backend stores a memo type of its own in the slot and finds
/// it again with [`QueryMemo::get_or_default`], so a slot's layout stays
/// with the backend that reads it. A new memo is empty; whatever it holds
/// is freed when it is dropped.
///
/// A memo belongs to one workload. Pass it only with the `queries` slice it
/// was first used with, in the same order: a backend may key what it keeps
/// on its own state, but it keys the entries by query position.
#[derive(Debug, Default)]
pub struct QueryMemo(Option<Box<dyn Any + Send>>);

impl QueryMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `T` this memo holds, replacing whatever it held with
    /// `T::default()` when it held nothing or another type.
    pub fn get_or_default<T: Any + Send + Default>(&mut self) -> &mut T {
        if !self.0.as_ref().is_some_and(|held| held.is::<T>()) {
            self.0 = Some(Box::new(T::default()));
        }
        self.0
            .as_mut()
            .and_then(|held| held.downcast_mut())
            .expect("the slot holds a T after the check above")
    }
}

/// The per-element estimator a mean read sweeps: `f(index, point)`
/// evaluates one universe element (backends without per-element point
/// storage pass an empty point slice). A named alias because the full
/// trait-object signature recurs across every backend and snapshot.
pub type MeanFn<'a> = dyn FnMut(usize, &[f64]) -> Result<f64, PmwError> + 'a;

/// An immutable, shareable view of a backend's state at one round — the
/// read half of the snapshot/commit split.
///
/// A snapshot answers every *read* a backend supports — the hypothesis
/// minimizer, query-mean estimates, generic mean estimates, the claimed
/// read radius — against state frozen at publication time. It is `Send +
/// Sync`, so any number of threads can screen queries against it while
/// the writer applies the next MW update; the writer publishes a fresh
/// snapshot after each committed update (epoch-style), and readers holding
/// the old one keep getting consistent (merely stale) answers.
///
/// Accuracy claims made through a snapshot are **ledgered with the same
/// semantics as live reads**: sketching backends share their sampling
/// ledger with every snapshot they publish, so a β-budget audit sees one
/// stream of claims regardless of which view made them.
///
/// Reads take no RNG: every shipped backend's read path is deterministic
/// given its state (the `rng` parameters on [`StateBackend`] reads exist
/// for hypothetical randomized sketches, which would not be
/// snapshot-publishable anyway).
pub trait ReadSnapshot: Send + Sync {
    /// Universe size `|X|` the state is defined over.
    fn universe_size(&self) -> usize;

    /// Number of MW updates the backend had applied when this snapshot
    /// was published — the snapshot's round, for staleness checks.
    fn updates_recorded(&self) -> usize;

    /// The hypothesis minimizer `θ̂ = argmin_θ ℓ(θ; D̂)` against the
    /// frozen state. Same semantics as
    /// [`StateBackend::hypothesis_minimizer`], minus the RNG.
    fn hypothesis_minimizer(
        &self,
        loss: &dyn CmLoss,
        points: &PointMatrix,
        solver_iters: usize,
    ) -> Result<Vec<f64>, PmwError>;

    /// `⟨q, D̂⟩` against the frozen state. Same semantics as
    /// [`StateBackend::expected_query_value`].
    fn expected_query_value(
        &self,
        query: &dyn PointQuery,
        points: Option<&PointMatrix>,
    ) -> Result<QueryEstimate, PmwError>;

    /// Estimate `E_{x∼D̂}[f(x)]` for a per-element statistic bounded by
    /// `|f| ≤ scale`, where `f(index, point)` evaluates one universe
    /// element (backends without per-element point storage pass an empty
    /// point slice — index-route statistics only). Exact backends return
    /// `radius = beta = 0`; sketching backends return and ledger their
    /// concentration claim.
    fn estimate_mean(
        &self,
        label: &'static str,
        scale: f64,
        f: &mut MeanFn<'_>,
    ) -> Result<QueryEstimate, PmwError>;

    /// The concentration radius claimed for a mean read at this snapshot,
    /// ledgered exactly like [`StateBackend::read_radius`].
    fn read_radius(&self, scale: f64) -> f64 {
        let _ = scale;
        0.0
    }

    /// The frozen dense hypothesis, when the backend maintains one.
    fn dense_hypothesis(&self) -> Option<&Histogram> {
        None
    }
}

/// How the mechanisms hold and read the hypothesis `D̂_t`.
///
/// Contract: the backend represents a probability distribution over a
/// universe of `universe_size()` elements, initialized uniform (`D̂_1`).
/// `apply_update` performs (or records) one Figure-3 multiplicative-weights
/// step `D̂_{t+1}(x) ∝ exp(−η·u_t(x))·D̂_t(x)` with the dual-certificate
/// payoff `u_t(x) = ⟨θ_t − θ̂_t, ∇ℓ_x(θ̂_t)⟩` clamped to `[−S, S]`.
///
/// Exactness is *not* part of the contract — sketching backends answer
/// `hypothesis_minimizer` and the diagnostic gap with estimates whose
/// error they account separately (see `pmw_dp::SamplingAccountant`). The
/// dense backend is exact.
pub trait StateBackend {
    /// Universe size `|X|` the state is defined over.
    fn universe_size(&self) -> usize;

    /// Number of MW updates applied (or recorded) so far.
    fn updates_recorded(&self) -> usize;

    /// The hypothesis minimizer `θ̂_t = argmin_θ ℓ(θ; D̂_t)` — the
    /// non-private inner solve of Figure 3 step (1).
    ///
    /// `points` enumerates the universe only for backends with
    /// [`StateBackend::requires_materialized_universe`]; backends holding
    /// their own point representation ignore it (the point-source
    /// mechanism path passes the dataset's support rows instead of a
    /// `|X|`-sized matrix).
    ///
    /// `rng` is for backends that need randomness to *read* their state
    /// (Monte-Carlo sketches); the dense backend ignores it.
    fn hypothesis_minimizer(
        &self,
        loss: &dyn CmLoss,
        points: &PointMatrix,
        solver_iters: usize,
        rng: &mut dyn Rng,
    ) -> Result<Vec<f64>, PmwError>;

    /// Apply one dual-certificate MW update.
    ///
    /// When `gap_weights` is `Some(w)` (diagnostics mode), `w` is the
    /// data-side distribution **aligned with `points`** — the Θ(|X|) data
    /// histogram over universe points on the dense path, or the dataset's
    /// support weights over its support rows on the point-source path —
    /// and the return value is the certificate gap
    /// `⟨u_t, D̂_t⟩ − Σ_i w_i·u_t(points_i)` evaluated **before** the
    /// update: Claim 3.5's progress witness.
    ///
    /// `retained` carries the owned loss handle when the caller already
    /// obtained one (the mechanisms clone it once, up front, for backends
    /// with [`StateBackend::requires_shared_loss`]); backends that retain
    /// should use it instead of cloning again, and may fall back to
    /// [`CmLoss::clone_shared`] when given `None`.
    #[allow(clippy::too_many_arguments)]
    fn apply_update(
        &mut self,
        loss: &dyn CmLoss,
        retained: Option<std::sync::Arc<dyn CmLoss>>,
        points: &PointMatrix,
        theta_oracle: &[f64],
        theta_hyp: &[f64],
        eta: f64,
        gap_weights: Option<&[f64]>,
        rng: &mut dyn Rng,
    ) -> Result<Option<f64>, PmwError>;

    /// Draw `m` universe indices from `D̂_t` (synthetic-data release).
    fn sample_indices(&self, m: usize, rng: &mut dyn Rng) -> Result<Vec<usize>, PmwError>;

    /// The expected value `⟨q, D̂_t⟩ = Σ_x D̂_t(x)·q(x)` of a linear query
    /// under the hypothesis — the hypothesis-side read of the classic
    /// \[HR10\]/\[HLM12\] linear-query mechanisms ([`crate::LinearPmw`],
    /// [`crate::Mwem`]).
    ///
    /// `points` carries the materialized universe on dense constructions
    /// (required there for implicit queries, which evaluate on point
    /// coordinates); backends holding their own point representation
    /// ignore it. Queries exposing [`PointQuery::dense_values`] take the
    /// exact [`Histogram::dot`] fast path on the dense backend —
    /// bit-for-bit the pre-seam pipeline.
    ///
    /// `rng` is for backends that need randomness to read their state; no
    /// shipped backend draws from it today.
    fn expected_query_value(
        &self,
        query: &dyn PointQuery,
        points: Option<&PointMatrix>,
        rng: &mut dyn Rng,
    ) -> Result<QueryEstimate, PmwError> {
        let _ = (query, points, rng);
        Err(PmwError::InvalidConfig(
            "this state backend does not implement linear-query evaluation",
        ))
    }

    /// [`StateBackend::expected_query_value`] for every query of a
    /// workload, in order — the read [`crate::Mwem`] takes its selection
    /// scores and sketched answers from. The default is the per-query
    /// loop. An override must return what that loop returns, value and
    /// radius bits, errors and side effects (ledger records, probe spans)
    /// included, in query order; it may keep what it derives from the
    /// queries in `memo` for later calls (the sampled pool keeps each
    /// query's non-zero slots until the pool is redrawn).
    ///
    /// `memo` may only be reused with the same `queries` slice, in the
    /// same order (see [`QueryMemo`]); a caller starts each workload with
    /// a fresh one.
    fn expected_query_values(
        &self,
        queries: &[&dyn PointQuery],
        points: Option<&PointMatrix>,
        memo: &mut QueryMemo,
        rng: &mut dyn Rng,
    ) -> Result<Vec<QueryEstimate>, PmwError> {
        let _ = memo;
        queries
            .iter()
            .map(|q| self.expected_query_value(*q, points, rng))
            .collect()
    }

    /// Apply one linear-query MW step `D̂_{t+1}(x) ∝ exp(−η·u(x))·D̂_t(x)`
    /// with the payoff `u(x) = coeff·q(x)` — [`crate::LinearPmw`] passes
    /// `coeff = ±1` (\[HR10\]'s signed update), [`crate::Mwem`] passes
    /// `coeff = (est − measured)/(2·range)` (\[HLM12\]'s measured step).
    ///
    /// `retained` carries the owned query handle when the caller already
    /// obtained one ([`PointQuery::clone_shared`], for backends with
    /// [`StateBackend::requires_shared_loss`]); `points` is the
    /// materialized universe on dense constructions, as in
    /// [`StateBackend::expected_query_value`].
    #[allow(clippy::too_many_arguments)]
    fn apply_query_update(
        &mut self,
        query: &dyn PointQuery,
        retained: Option<Arc<dyn PointQuery>>,
        coeff: f64,
        eta: f64,
        points: Option<&PointMatrix>,
        rng: &mut dyn Rng,
    ) -> Result<(), PmwError> {
        let _ = (query, retained, coeff, eta, points, rng);
        Err(PmwError::InvalidConfig(
            "this state backend does not implement linear-query updates",
        ))
    }

    /// The dense hypothesis histogram, when this backend maintains one.
    /// Sketching backends return `None`.
    fn dense_hypothesis(&self) -> Option<&Histogram> {
        None
    }

    /// The concentration radius this backend claims for a generic mean
    /// read of a statistic bounded by `|f| ≤ scale` under the current
    /// state, at its configured failure probability — `0` for exact
    /// backends (the default). The mechanisms widen their sparse-vector
    /// margins by this value when screening on sketched state, so a `⊥`
    /// certifies the *true* hypothesis-side quantity and not just its
    /// estimate; because exact backends report `0`, the dense paths stay
    /// bit-for-bit unchanged. Implementations must return a finite,
    /// non-negative value.
    fn read_radius(&self, scale: f64) -> f64 {
        let _ = scale;
        0.0
    }

    /// True when [`StateBackend::apply_update`] needs an owned handle to
    /// the round's loss ([`CmLoss::clone_shared`]) — an update-log backend
    /// such as `pmw_sketch::SampledBackend` re-evaluates past payoffs
    /// whenever it replays a point, and must retain it. The
    /// mechanisms check this **before spending any privacy budget** on a
    /// round, so a non-retainable loss fails cleanly instead of draining
    /// the accountant on an update that can never be recorded.
    fn requires_shared_loss(&self) -> bool {
        false
    }

    /// Drain the health-maintenance events accumulated since the last
    /// drain ([`BackendEvent`]): adaptive refreshes, emergency refreshes,
    /// pool growths. Backends without self-maintenance return nothing
    /// (the default). The mechanisms call this after every applied round
    /// and push the events into their transcript.
    fn take_events(&mut self) -> Vec<BackendEvent> {
        Vec::new()
    }

    /// True when this backend's reads and updates sweep a **materialized
    /// universe** `PointMatrix` (the dense Θ(|X|) path) and therefore need
    /// the `points` argument to enumerate all of `X`. Sketching backends
    /// that hold their own point representation return `false`, which is
    /// what lets the mechanisms run them over a support-row data side
    /// ([`DataSide::from_source`](crate::DataSide::from_source)), handing
    /// them only the dataset's support rows without ever materializing the
    /// universe; the mechanisms reject a `true` backend on that data side.
    fn requires_materialized_universe(&self) -> bool {
        true
    }

    /// Publish an immutable [`ReadSnapshot`] of the current state.
    ///
    /// The snapshot answers reads identically to the live backend at this
    /// round, stays valid (merely stale) across later updates, and is
    /// `Send + Sync` — the seam the concurrent serving layer is built on.
    /// Backends that cannot freeze a consistent read view return an error
    /// (the default).
    fn snapshot(&self) -> Result<Arc<dyn ReadSnapshot>, PmwError> {
        Err(PmwError::InvalidConfig(
            "this state backend does not publish read snapshots",
        ))
    }
}

/// The dense, exact state backend: today's log-domain [`Histogram`] plus a
/// reusable Θ(|X|) certificate buffer. This is the default backend of both
/// mechanisms and reproduces the pre-seam behavior bit-for-bit (same float
/// operations in the same order, no extra RNG draws).
#[derive(Debug, Clone)]
pub struct DenseBackend {
    hypothesis: Histogram,
    /// Reusable Θ(|X|) payoff buffer: steady-state rounds allocate nothing.
    cert_buf: Vec<f64>,
    updates: usize,
}

impl DenseBackend {
    /// Uniform initial hypothesis over `universe_size` elements.
    pub fn new(universe_size: usize) -> Result<Self, PmwError> {
        Ok(Self {
            hypothesis: Histogram::uniform(universe_size)?,
            cert_buf: vec![0.0; universe_size],
            updates: 0,
        })
    }

    /// The hypothesis histogram `D̂_t`.
    pub fn hypothesis(&self) -> &Histogram {
        &self.hypothesis
    }
}

impl StateBackend for DenseBackend {
    fn universe_size(&self) -> usize {
        self.hypothesis.len()
    }

    fn updates_recorded(&self) -> usize {
        self.updates
    }

    fn hypothesis_minimizer(
        &self,
        loss: &dyn CmLoss,
        points: &PointMatrix,
        solver_iters: usize,
        _rng: &mut dyn Rng,
    ) -> Result<Vec<f64>, PmwError> {
        Ok(minimize_weighted(
            loss,
            points,
            self.hypothesis.weights(),
            solver_iters,
        )?)
    }

    fn apply_update(
        &mut self,
        loss: &dyn CmLoss,
        _retained: Option<std::sync::Arc<dyn CmLoss>>,
        points: &PointMatrix,
        theta_oracle: &[f64],
        theta_hyp: &[f64],
        eta: f64,
        gap_weights: Option<&[f64]>,
        _rng: &mut dyn Rng,
    ) -> Result<Option<f64>, PmwError> {
        dual_certificate_into(loss, points, theta_oracle, theta_hyp, &mut self.cert_buf)?;
        let u = &self.cert_buf;
        let gap = gap_weights.map(|data_w| {
            let u_hyp: f64 = self
                .hypothesis
                .weights()
                .iter()
                .zip(u)
                .map(|(w, v)| w * v)
                .sum();
            let u_data: f64 = data_w.iter().zip(u).map(|(w, v)| w * v).sum();
            u_hyp - u_data
        });
        self.hypothesis.mw_update(&self.cert_buf, eta)?;
        self.updates += 1;
        Ok(gap)
    }

    fn sample_indices(&self, m: usize, rng: &mut dyn Rng) -> Result<Vec<usize>, PmwError> {
        Ok(self.hypothesis.sample_many(m, rng))
    }

    fn expected_query_value(
        &self,
        query: &dyn PointQuery,
        points: Option<&PointMatrix>,
        _rng: &mut dyn Rng,
    ) -> Result<QueryEstimate, PmwError> {
        Ok(QueryEstimate {
            value: eval_query_on_histogram(query, &self.hypothesis, points)?,
            radius: 0.0,
            beta: 0.0,
        })
    }

    fn apply_query_update(
        &mut self,
        query: &dyn PointQuery,
        _retained: Option<Arc<dyn PointQuery>>,
        coeff: f64,
        eta: f64,
        points: Option<&PointMatrix>,
        _rng: &mut dyn Rng,
    ) -> Result<(), PmwError> {
        if let Some(values) = query.dense_values() {
            if values.len() != self.hypothesis.len() {
                return Err(PmwError::LossMismatch("query length != universe size"));
            }
            for (u, &v) in self.cert_buf.iter_mut().zip(values) {
                *u = coeff * v;
            }
        } else {
            let points = points.ok_or(PmwError::LossMismatch(
                "implicit query on the dense backend needs the materialized universe points",
            ))?;
            if points.len() != self.hypothesis.len() {
                return Err(PmwError::LossMismatch(
                    "universe points do not match the hypothesis size",
                ));
            }
            for (u, point) in self.cert_buf.iter_mut().zip(points.iter()) {
                let q = query.value_at_point(point).ok_or(PmwError::LossMismatch(
                    "query supports neither dense nor point evaluation",
                ))?;
                *u = coeff * q;
            }
        }
        self.hypothesis.mw_update(&self.cert_buf, eta)?;
        self.updates += 1;
        Ok(())
    }

    fn dense_hypothesis(&self) -> Option<&Histogram> {
        Some(&self.hypothesis)
    }

    fn snapshot(&self) -> Result<Arc<dyn ReadSnapshot>, PmwError> {
        Ok(Arc::new(DenseSnapshot {
            hypothesis: self.hypothesis.clone(),
            updates: self.updates,
        }))
    }
}

/// The dense backend's snapshot: a frozen clone of the hypothesis
/// histogram. Every read is exact (`radius = beta = 0`), so snapshot
/// answers are bit-for-bit the live backend's answers at the same round.
#[derive(Debug, Clone)]
pub struct DenseSnapshot {
    hypothesis: Histogram,
    updates: usize,
}

impl DenseSnapshot {
    /// The frozen hypothesis histogram.
    pub fn hypothesis(&self) -> &Histogram {
        &self.hypothesis
    }
}

impl ReadSnapshot for DenseSnapshot {
    fn universe_size(&self) -> usize {
        self.hypothesis.len()
    }

    fn updates_recorded(&self) -> usize {
        self.updates
    }

    fn hypothesis_minimizer(
        &self,
        loss: &dyn CmLoss,
        points: &PointMatrix,
        solver_iters: usize,
    ) -> Result<Vec<f64>, PmwError> {
        Ok(minimize_weighted(
            loss,
            points,
            self.hypothesis.weights(),
            solver_iters,
        )?)
    }

    fn expected_query_value(
        &self,
        query: &dyn PointQuery,
        points: Option<&PointMatrix>,
    ) -> Result<QueryEstimate, PmwError> {
        Ok(QueryEstimate {
            value: eval_query_on_histogram(query, &self.hypothesis, points)?,
            radius: 0.0,
            beta: 0.0,
        })
    }

    fn estimate_mean(
        &self,
        _label: &'static str,
        scale: f64,
        f: &mut MeanFn<'_>,
    ) -> Result<QueryEstimate, PmwError> {
        if !(scale.is_finite() && scale >= 0.0) {
            return Err(PmwError::InvalidConfig(
                "estimate_mean scale must be finite and non-negative",
            ));
        }
        let mut value = 0.0;
        for (i, w) in self.hypothesis.weights().iter().enumerate() {
            value += w * f(i, &[])?;
        }
        Ok(QueryEstimate {
            value,
            radius: 0.0,
            beta: 0.0,
        })
    }

    fn dense_hypothesis(&self) -> Option<&Histogram> {
        Some(&self.hypothesis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::dual_certificate;
    use pmw_losses::SquaredLoss;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SquaredLoss, PointMatrix) {
        let loss = SquaredLoss::new(1).unwrap();
        let points = PointMatrix::from_rows(vec![
            vec![1.0, 0.8],
            vec![-1.0, -0.8],
            vec![1.0, -0.8],
            vec![-1.0, 0.8],
        ])
        .unwrap();
        (loss, points)
    }

    #[test]
    fn dense_backend_matches_direct_histogram_ops() {
        let (loss, points) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let mut backend = DenseBackend::new(points.len()).unwrap();
        assert_eq!(backend.universe_size(), 4);
        assert_eq!(backend.updates_recorded(), 0);

        // Reference: drive the histogram directly with the same update.
        let mut reference = Histogram::uniform(points.len()).unwrap();
        let (theta_o, theta_h) = ([0.7], [-0.1]);
        let u = dual_certificate(&loss, &points, &theta_o, &theta_h).unwrap();
        reference.mw_update(&u, 0.4).unwrap();

        let gap = backend
            .apply_update(
                &loss, None, &points, &theta_o, &theta_h, 0.4, None, &mut rng,
            )
            .unwrap();
        assert!(gap.is_none());
        assert_eq!(backend.updates_recorded(), 1);
        for (a, b) in backend
            .hypothesis()
            .weights()
            .iter()
            .zip(reference.weights())
        {
            assert!((a - b).abs() < 1e-15, "{a} vs {b}");
        }
    }

    #[test]
    fn gap_is_payoff_expectation_difference_before_update() {
        let (loss, points) = setup();
        let mut rng = StdRng::seed_from_u64(8);
        let mut backend = DenseBackend::new(points.len()).unwrap();
        let (theta_o, theta_h) = ([0.9], [0.0]);
        let u = dual_certificate(&loss, &points, &theta_o, &theta_h).unwrap();
        let data_w = [0.5, 0.5, 0.0, 0.0];
        let expect: f64 = u.iter().map(|v| v * 0.25).sum::<f64>()
            - u.iter().zip(&data_w).map(|(v, w)| v * w).sum::<f64>();
        let gap = backend
            .apply_update(
                &loss,
                None,
                &points,
                &theta_o,
                &theta_h,
                0.3,
                Some(&data_w),
                &mut rng,
            )
            .unwrap()
            .unwrap();
        assert!((gap - expect).abs() < 1e-12, "{gap} vs {expect}");
    }

    #[test]
    fn dense_query_ops_match_direct_histogram_ops() {
        use pmw_data::workload::LinearQuery;
        let mut rng = StdRng::seed_from_u64(10);
        let mut backend = DenseBackend::new(4).unwrap();
        let q = LinearQuery::new(vec![1.0, 0.0, 1.0, 0.0]).unwrap();

        // Read: the dense fast path is exactly `hypothesis.dot`.
        let est = backend.expected_query_value(&q, None, &mut rng).unwrap();
        assert_eq!(est.value, backend.hypothesis().dot(q.values()));
        assert_eq!((est.radius, est.beta), (0.0, 0.0));

        // Update: u = ±q must reproduce a direct mw_update bit-for-bit.
        let mut reference = Histogram::uniform(4).unwrap();
        reference.mw_update(q.values(), 0.7).unwrap();
        backend
            .apply_query_update(&q, None, 1.0, 0.7, None, &mut rng)
            .unwrap();
        assert_eq!(backend.updates_recorded(), 1);
        for (a, b) in backend
            .hypothesis()
            .weights()
            .iter()
            .zip(reference.weights())
        {
            assert_eq!(a, b);
        }

        // Mismatched length is rejected on both ops.
        let bad = LinearQuery::new(vec![1.0; 3]).unwrap();
        assert!(backend.expected_query_value(&bad, None, &mut rng).is_err());
        assert!(backend
            .apply_query_update(&bad, None, 1.0, 0.1, None, &mut rng)
            .is_err());
    }

    #[test]
    fn dense_backend_evaluates_implicit_queries_over_universe_points() {
        use pmw_data::workload::ImplicitQuery;
        use pmw_data::{BooleanCube, Universe};
        let mut rng = StdRng::seed_from_u64(11);
        let cube = BooleanCube::new(3).unwrap();
        let points = cube.materialize();
        let mut backend = DenseBackend::new(8).unwrap();
        let q = ImplicitQuery::marginal(vec![0], 3).unwrap();

        // Implicit queries need the universe points on the dense path.
        assert!(backend.expected_query_value(&q, None, &mut rng).is_err());
        let est = backend
            .expected_query_value(&q, Some(&points), &mut rng)
            .unwrap();
        assert!((est.value - 0.5).abs() < 1e-12, "{}", est.value);

        // The implicit update equals the dense update with materialized
        // query values.
        let dense_vals: Vec<f64> = points.iter().map(|p| q.evaluate(p)).collect();
        let mut reference = Histogram::uniform(8).unwrap();
        let u: Vec<f64> = dense_vals.iter().map(|v| -0.5 * v).collect();
        reference.mw_update(&u, 0.9).unwrap();
        backend
            .apply_query_update(&q, None, -0.5, 0.9, Some(&points), &mut rng)
            .unwrap();
        for (a, b) in backend
            .hypothesis()
            .weights()
            .iter()
            .zip(reference.weights())
        {
            assert!((a - b).abs() < 1e-15, "{a} vs {b}");
        }
        assert!(backend
            .apply_query_update(&q, None, 1.0, 0.1, None, &mut rng)
            .is_err());
    }

    #[test]
    fn dense_snapshot_answers_identically_and_survives_later_updates() {
        use pmw_data::workload::LinearQuery;
        let (loss, points) = setup();
        let mut rng = StdRng::seed_from_u64(21);
        let mut backend = DenseBackend::new(points.len()).unwrap();
        backend
            .apply_update(&loss, None, &points, &[0.7], &[-0.1], 0.4, None, &mut rng)
            .unwrap();

        let snap = backend.snapshot().unwrap();
        assert_eq!(snap.universe_size(), 4);
        assert_eq!(snap.updates_recorded(), 1);

        // Snapshot reads match the live backend bit-for-bit.
        let q = LinearQuery::new(vec![1.0, 0.0, 1.0, 0.0]).unwrap();
        let live = backend.expected_query_value(&q, None, &mut rng).unwrap();
        let frozen = snap.expected_query_value(&q, None).unwrap();
        assert_eq!(live.value, frozen.value);
        let live_theta = backend
            .hypothesis_minimizer(&loss, &points, 200, &mut rng)
            .unwrap();
        let frozen_theta = snap.hypothesis_minimizer(&loss, &points, 200).unwrap();
        assert_eq!(live_theta, frozen_theta);
        assert_eq!(snap.read_radius(2.0), 0.0);

        // A generic mean read is the exact weighted sweep.
        let est = snap
            .estimate_mean("idx", 4.0, &mut |i, _| Ok(i as f64))
            .unwrap();
        let expect: f64 = snap
            .dense_hypothesis()
            .unwrap()
            .weights()
            .iter()
            .enumerate()
            .map(|(i, w)| w * i as f64)
            .sum();
        assert_eq!(est.value, expect);
        assert_eq!((est.radius, est.beta), (0.0, 0.0));

        // Mutating the live backend does not disturb the snapshot.
        backend
            .apply_update(&loss, None, &points, &[0.9], &[0.2], 0.4, None, &mut rng)
            .unwrap();
        assert_eq!(snap.updates_recorded(), 1);
        assert_eq!(
            snap.expected_query_value(&q, None).unwrap().value,
            frozen.value
        );

        // Snapshots cross threads.
        let moved = std::sync::Arc::clone(&snap);
        let handle =
            std::thread::spawn(move || moved.expected_query_value(&q, None).unwrap().value);
        assert_eq!(handle.join().unwrap(), frozen.value);
    }

    #[test]
    fn minimizer_and_samples_read_the_current_state() {
        let (loss, points) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let mut backend = DenseBackend::new(points.len()).unwrap();
        let theta = backend
            .hypothesis_minimizer(&loss, &points, 400, &mut rng)
            .unwrap();
        assert_eq!(theta.len(), 1);
        // Uniform over the four points: the symmetric instance minimizes
        // near 0.
        assert!(theta[0].abs() < 0.1, "{}", theta[0]);

        // Skew the state heavily toward index 0, then sample.
        backend
            .apply_update(&loss, None, &points, &[1.0], &[0.99], 50.0, None, &mut rng)
            .unwrap();
        let rows = backend.sample_indices(200, &mut rng).unwrap();
        assert_eq!(rows.len(), 200);
        assert!(rows.iter().all(|&r| r < 4));
        // Dense accessor agrees with the trait view.
        let dense = backend.dense_hypothesis().unwrap();
        assert_eq!(dense.len(), 4);
    }
}
