//! The **update log**: Figure 3's MW state as a list of rounds instead of
//! a `|X|`-sized vector.
//!
//! After `t` rounds the dense hypothesis satisfies
//!
//! `log D̂_{t+1}(x) = −Σ_{r≤t} η_r·u_r(x) + const`
//!
//! where each round's payoff is either the **dual-certificate** payoff
//! `u_r(x) = ⟨θ_r − θ̂_r, ∇ℓ_{x}(θ̂_r)⟩` clamped to `[−S_r, S_r]`
//! (the paper's Figure-3 CM rounds) or a **linear-query** payoff
//! `u_r(x) = c_r·q_r(x)` (the \[HR10\]/\[HLM12\] rounds: `c_r = ±1` for
//! online PMW, `c_r = (est − measured)/2·range` for MWEM) — in both cases
//! a function of `O(d)`-sized round parameters alone. [`UpdateLog`] stores
//! exactly those parameters (`O(t·d)` memory total, `O(1)` amortized per
//! round) and evaluates the log-weight of any single point on demand in
//! `O(t·d)` — never touching the other `|X| − 1` elements. This is the
//! engine of the sampled backend and of the exact reference below, for
//! both mechanism families.
//!
//! ## Checkpointed compaction
//!
//! An unbounded-round deployment cannot afford replay costs that grow
//! with its own uptime, so the log is **compactable**: behind a
//! [`CompactionPolicy`], [`UpdateLog::compact`] folds every retained
//! round into a [`LogCheckpoint`] — the cumulative log-weights of a panel
//! of pool points pinned at the fold, plus the folded drift envelope —
//! and clears the round list. Replay then restarts from the checkpoint:
//! [`UpdateLog::log_weight_seeded`] seeds a panel point with its pinned
//! prefix value (**lossless** — bit-for-bit the full replay, because the
//! seeded fold `lw → lw − η·u(x)` is the same float operations in the
//! same order) and replays only the retained suffix, amortized `O(d)` per
//! lookup instead of `O(t·d)`. A point *outside* the panel loses its
//! folded prefix (**lossy**); the resulting weight distortion is bounded
//! by the folded drift, and the backends charge it through
//! [`pmw_dp::compaction_fold_radius`] so every read's claim stays honest.
//!
//! ## The exact reference
//!
//! [`exact_query_values`] sweeps a whole [`PointSource`] through the log
//! and returns the exact expectations `⟨q, D̂_t⟩` the sketched estimates
//! are checked against — in tests and in `exp_mwem`'s calibration probe.
//! It is a `Θ(|X|·t·d)` spot check, not a per-round operation.

use crate::error::SketchError;
use crate::source::PointSource;
use pmw_core::update::{dual_certificate_at, dual_certificate_seeded};
use pmw_data::workload::PointQuery;
use pmw_data::PointMatrix;
use pmw_losses::CmLoss;
use std::sync::Arc;

/// Validate that `query` matches a universe of `universe_len` elements
/// with `point_dim`-dimensional points — shared by the sampled backend
/// and [`exact_query_values`] so the SNIS estimate and the exact
/// reference cannot drift.
pub(crate) fn validate_query_shape(
    query: &dyn PointQuery,
    universe_len: usize,
    point_dim: usize,
) -> Result<(), SketchError> {
    if let Some(d) = query.point_dim() {
        if d != point_dim {
            return Err(SketchError::DimensionMismatch {
                got: d,
                expected: point_dim,
            });
        }
    } else if query.universe_len() != Some(universe_len) {
        return Err(SketchError::DimensionMismatch {
            got: query.universe_len().unwrap_or(0),
            expected: universe_len,
        });
    }
    Ok(())
}

/// Index-or-point query evaluation with this crate's error type — one
/// thin wrapper over the canonical [`pmw_data::workload::query_value`]
/// dispatch, shared like [`validate_query_shape`].
pub(crate) fn query_value_at(
    query: &dyn PointQuery,
    index: usize,
    point: &[f64],
) -> Result<f64, SketchError> {
    pmw_data::workload::query_value(query, index, point).map_err(|_| {
        SketchError::UnsupportedLoss("query supports neither index nor point evaluation")
    })
}

/// What a query round's payoff returns at a point its query cannot read.
const UNEVALUABLE_QUERY: SketchError =
    SketchError::UnsupportedLoss("recorded query cannot evaluate at a point");

/// The round-specific payoff parameters.
#[derive(Clone)]
enum UpdatePayload {
    /// A Figure-3 dual-certificate round.
    Certificate {
        loss: Arc<dyn CmLoss>,
        theta_oracle: Vec<f64>,
        theta_hyp: Vec<f64>,
    },
    /// A linear-query round `u(x) = coeff·q(x)`. The query must be
    /// **point-evaluable** ([`PointQuery::point_dim`] is `Some`): the log
    /// re-evaluates payoffs at points it has never seen, which a
    /// universe-indexed dense query cannot do.
    Query {
        query: Arc<dyn PointQuery>,
        coeff: f64,
    },
}

/// One recorded MW round: the data needed to re-evaluate that round's
/// payoff `u_r(x)` at any point later. Cloning is cheap: the loss/query
/// payload is shared behind an `Arc`, so a clone copies only the round's
/// `O(d)` parameters.
#[derive(Clone)]
pub struct RoundUpdate {
    payload: UpdatePayload,
    eta: f64,
}

impl RoundUpdate {
    /// Bundle a dual-certificate round's parameters, validating dimensions
    /// against the loss.
    pub fn new(
        loss: Arc<dyn CmLoss>,
        theta_oracle: Vec<f64>,
        theta_hyp: Vec<f64>,
        eta: f64,
    ) -> Result<Self, SketchError> {
        let d = loss.dim();
        if theta_oracle.len() != d {
            return Err(SketchError::DimensionMismatch {
                got: theta_oracle.len(),
                expected: d,
            });
        }
        if theta_hyp.len() != d {
            return Err(SketchError::DimensionMismatch {
                got: theta_hyp.len(),
                expected: d,
            });
        }
        Self::validate_eta(eta)?;
        if theta_oracle
            .iter()
            .chain(&theta_hyp)
            .any(|v| !v.is_finite())
        {
            return Err(SketchError::NonFinite("theta must be finite"));
        }
        Ok(Self {
            payload: UpdatePayload::Certificate {
                loss,
                theta_oracle,
                theta_hyp,
            },
            eta,
        })
    }

    /// [`RoundUpdate::new`] from a borrowed loss, retained through
    /// [`CmLoss::clone_shared`]. Errors when the loss cannot be retained.
    pub fn from_dyn(
        loss: &dyn CmLoss,
        theta_oracle: &[f64],
        theta_hyp: &[f64],
        eta: f64,
    ) -> Result<Self, SketchError> {
        let shared = loss.clone_shared().ok_or(SketchError::UnsupportedLoss(
            "loss does not support clone_shared retention",
        ))?;
        Self::new(shared, theta_oracle.to_vec(), theta_hyp.to_vec(), eta)
    }

    /// Bundle a linear-query round `u(x) = coeff·q(x)`. The query must be
    /// point-evaluable; universe-indexed (dense) queries are rejected.
    pub fn query(query: Arc<dyn PointQuery>, coeff: f64, eta: f64) -> Result<Self, SketchError> {
        if query.point_dim().is_none() {
            return Err(SketchError::UnsupportedLoss(
                "universe-indexed queries cannot be re-evaluated from point coordinates; \
                 record implicit (point-evaluable) queries instead",
            ));
        }
        if !coeff.is_finite() {
            return Err(SketchError::NonFinite("query coefficient must be finite"));
        }
        Self::validate_eta(eta)?;
        Ok(Self {
            payload: UpdatePayload::Query { query, coeff },
            eta,
        })
    }

    /// [`RoundUpdate::query`] from a borrowed query, retained through
    /// [`PointQuery::clone_shared`]. Errors when the query cannot be
    /// retained.
    pub fn query_from_dyn(
        query: &dyn PointQuery,
        coeff: f64,
        eta: f64,
    ) -> Result<Self, SketchError> {
        let shared = query.clone_shared().ok_or(SketchError::UnsupportedLoss(
            "query does not support clone_shared retention",
        ))?;
        Self::query(shared, coeff, eta)
    }

    fn validate_eta(eta: f64) -> Result<(), SketchError> {
        if !eta.is_finite() || eta < 0.0 {
            return Err(SketchError::InvalidParameter("eta must be finite and >= 0"));
        }
        Ok(())
    }

    /// The round's loss, when this is a dual-certificate round.
    pub fn loss(&self) -> Option<&dyn CmLoss> {
        match &self.payload {
            UpdatePayload::Certificate { loss, .. } => Some(loss.as_ref()),
            UpdatePayload::Query { .. } => None,
        }
    }

    /// The round's query, when this is a linear-query round.
    pub fn point_query(&self) -> Option<&dyn PointQuery> {
        match &self.payload {
            UpdatePayload::Certificate { .. } => None,
            UpdatePayload::Query { query, .. } => Some(query.as_ref()),
        }
    }

    /// The point dimension this round's payoff reads.
    pub fn point_dim(&self) -> usize {
        match &self.payload {
            UpdatePayload::Certificate { loss, .. } => loss.point_dim(),
            UpdatePayload::Query { query, .. } => query
                .point_dim()
                .expect("query rounds are point-evaluable by construction"),
        }
    }

    /// The step size `η_r`.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// The round's payoff bound `S_r`: payoffs lie in `[−S_r, S_r]`
    /// (clamped there for certificate rounds, `|coeff|·max(|lo|, |hi|)`
    /// for query rounds).
    pub fn scale(&self) -> f64 {
        match &self.payload {
            UpdatePayload::Certificate { loss, .. } => loss.scale_bound(),
            UpdatePayload::Query { query, coeff } => {
                let (lo, hi) = query.value_bounds();
                coeff.abs() * lo.abs().max(hi.abs())
            }
        }
    }

    /// The payoff `u_r(x)` at one point — certificate rounds clamp exactly
    /// as the dense sweep clamps ([`dual_certificate_at`]); query rounds
    /// evaluate `coeff·q(x)`. A non-finite payoff is refused on either
    /// kind of round, so neither recording nor replay can write one into
    /// a log-weight. `grad_buf` is resized as needed (and unused by query
    /// rounds).
    pub fn payoff(&self, point: &[f64], grad_buf: &mut Vec<f64>) -> Result<f64, SketchError> {
        match &self.payload {
            UpdatePayload::Certificate {
                loss,
                theta_oracle,
                theta_hyp,
            } => {
                grad_buf.resize(loss.dim(), 0.0);
                dual_certificate_at(loss.as_ref(), point, theta_oracle, theta_hyp, grad_buf)
                    .map_err(|_| SketchError::NonFinite("certificate payoff"))
            }
            UpdatePayload::Query { query, coeff } => {
                let q = query.value_at_point(point).ok_or(UNEVALUABLE_QUERY)?;
                let u = coeff * q;
                if !u.is_finite() {
                    return Err(SketchError::NonFinite("query payoff"));
                }
                Ok(u)
            }
        }
    }

    /// [`RoundUpdate::payoff`] at every row of `points`, in row order,
    /// failing where the per-row loop would first fail. A query round
    /// evaluates its query over all rows in one
    /// [`PointQuery::values_at_rows`] call before scaling each value.
    pub(crate) fn payoffs(&self, points: &PointMatrix) -> Result<Vec<f64>, SketchError> {
        let UpdatePayload::Query { query, coeff } = &self.payload else {
            let mut grad = Vec::new();
            return points
                .iter()
                .map(|point| self.payoff(point, &mut grad))
                .collect();
        };
        let mut payoffs = vec![0.0; points.len()];
        let evaluated = query.values_at_rows(None, points.as_flat(), points.dim(), &mut payoffs);
        // Rows before the first unevaluable one come first.
        let rows = evaluated.err().unwrap_or(payoffs.len());
        for u in &mut payoffs[..rows] {
            // `q·coeff` has the bits of `coeff·q`: `coeff` is finite, and a
            // NaN `q` is refused below either way.
            *u *= coeff;
            if !u.is_finite() {
                return Err(SketchError::NonFinite("query payoff"));
            }
        }
        if rows < payoffs.len() {
            return Err(UNEVALUABLE_QUERY);
        }
        Ok(payoffs)
    }

    /// Fold this round into a running cumulative log-weight: returns
    /// `lw − η_r·u_r(x)`, **bit-for-bit** the replay step the backends
    /// have always performed (certificate rounds route through the
    /// checkpoint-seeded [`dual_certificate_seeded`]). Seeding `lw` with a
    /// checkpointed prefix therefore reproduces the full-history replay
    /// exactly.
    pub fn apply(
        &self,
        lw: f64,
        point: &[f64],
        grad_buf: &mut Vec<f64>,
    ) -> Result<f64, SketchError> {
        match &self.payload {
            UpdatePayload::Certificate {
                loss,
                theta_oracle,
                theta_hyp,
            } => {
                grad_buf.resize(loss.dim(), 0.0);
                dual_certificate_seeded(
                    loss.as_ref(),
                    point,
                    theta_oracle,
                    theta_hyp,
                    self.eta,
                    lw,
                    grad_buf,
                )
                .map_err(|_| SketchError::NonFinite("certificate payoff"))
            }
            UpdatePayload::Query { .. } => {
                let u = self.payoff(point, grad_buf)?;
                Ok(lw - self.eta * u)
            }
        }
    }
}

/// When [`UpdateLog::compact`] should fold the retained rounds into a
/// checkpoint. Checked by the backends after every committed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionPolicy {
    /// Never compact — the historical full-replay behavior, bit-for-bit.
    #[default]
    Never,
    /// Fold whenever `k` (> 0) or more rounds are retained, bounding every
    /// replay to at most `k` rounds. `EveryK(0)` never fires.
    EveryK(usize),
}

impl CompactionPolicy {
    /// True when a log with `retained_rounds` retained rounds is due for a
    /// fold.
    pub fn due(&self, retained_rounds: usize) -> bool {
        match *self {
            CompactionPolicy::Never => false,
            CompactionPolicy::EveryK(k) => k > 0 && retained_rounds >= k,
        }
    }
}

/// A log-weight checkpoint: the cumulative log-weights of a **panel** of
/// universe points, pinned at the moment the log prefix was folded away.
/// Replay for a panel point restarts here (lossless); replay for any
/// other point starts from `0` and pays the folded drift as a ledgered
/// error claim. Shared behind an `Arc` so snapshots freeze the chain for
/// free.
#[derive(Debug, Clone, PartialEq)]
pub struct LogCheckpoint {
    round: usize,
    missing_drift: f64,
    /// Panel universe indices, sorted ascending (binary-searchable).
    indices: Vec<usize>,
    /// `values[i]` is the pinned cumulative log-weight of `indices[i]`.
    values: Vec<f64>,
}

impl LogCheckpoint {
    /// Total recorded rounds folded below this checkpoint — replay
    /// restarting here resumes at round `round()`.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Number of panel points pinned.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when the panel is empty (every lookup replays unseeded).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The distortion bound (in log-weight) already carried by the panel
    /// values at fold time: `0` when the pool itself was exact, the prior
    /// fold's charge when the pool had been refreshed across a fold.
    pub fn missing_drift(&self) -> f64 {
        self.missing_drift
    }

    /// The pinned cumulative log-weight of universe index `index`, when
    /// it is in the panel.
    pub fn seed_for(&self, index: usize) -> Option<f64> {
        self.indices
            .binary_search(&index)
            .ok()
            .map(|pos| self.values[pos])
    }
}

/// What one [`UpdateLog::compact`] call did — the backends turn this into
/// a `BackendEvent::Compaction` and ledger the fold claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionReceipt {
    /// Rounds folded by **this** call (0 when the log had none retained).
    pub folded_rounds: usize,
    /// Panel points pinned by the new checkpoint.
    pub checkpoint_points: usize,
    /// Total drift envelope `Σ η·S` of all folded rounds so far.
    pub folded_drift: f64,
}

impl std::fmt::Debug for RoundUpdate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("RoundUpdate");
        match &self.payload {
            UpdatePayload::Certificate { loss, .. } => {
                s.field("loss", &loss.name()).field("dim", &loss.dim())
            }
            UpdatePayload::Query { query, coeff } => {
                s.field("query", &query.name()).field("coeff", coeff)
            }
        }
        .field("eta", &self.eta)
        .finish()
    }
}

/// The lazily evaluated MW state: uniform prior (`log w ≡ 0`) plus the
/// recorded rounds, with any folded prefix summarized by the newest
/// [`LogCheckpoint`].
/// Cloning freezes the current state: `O(retained·d)` parameter copies,
/// with the heavy loss/query payloads *and the checkpoint* shared behind
/// `Arc`s, so a clone is O(1) in the folded history.
#[derive(Debug, Default, Clone)]
pub struct UpdateLog {
    /// Retained (un-folded) rounds, oldest first.
    rounds: Vec<RoundUpdate>,
    /// `Σ_r η_r·S_r` over **all** rounds ever recorded (folded and
    /// retained) — every true log-weight lies in `[−drift, +drift]`, the
    /// computable envelope the sketched estimates' concentration bounds
    /// are built from. Invariant: `drift = folded_drift + Σ_retained η·S`.
    drift: f64,
    /// Rounds folded into the checkpoint chain so far.
    folded_rounds: usize,
    /// Drift envelope of the folded rounds alone.
    folded_drift: f64,
    /// The newest checkpoint, when any fold has run.
    checkpoint: Option<Arc<LogCheckpoint>>,
    /// Folds taken over the log's lifetime.
    checkpoints_taken: usize,
}

impl UpdateLog {
    /// Empty log (the uniform hypothesis `D̂_1`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one round. `point_dim` consistency with earlier rounds is the
    /// caller's contract (the backends validate against their source).
    pub fn push(&mut self, update: RoundUpdate) {
        self.drift += update.eta() * update.scale();
        self.rounds.push(update);
    }

    /// Drop every round past the first `len` (total-round numbering,
    /// counting folded rounds), recomputing the drift envelope from the
    /// survivors — the rollback primitive of the sketched backends'
    /// transactional rounds. A no-op when `len` is at or past the current
    /// length; an error when `len` reaches **into** the folded prefix,
    /// which no longer exists to be truncated to (the backends order
    /// folds after commit precisely so this cannot happen on a rollback).
    pub fn truncate(&mut self, len: usize) -> Result<(), SketchError> {
        if len >= self.len() {
            return Ok(());
        }
        if len < self.folded_rounds {
            return Err(SketchError::InvalidParameter(
                "cannot truncate into compacted (folded) rounds",
            ));
        }
        self.rounds.truncate(len - self.folded_rounds);
        self.drift =
            self.folded_drift + self.rounds.iter().map(|r| r.eta() * r.scale()).sum::<f64>();
        Ok(())
    }

    /// Number of recorded rounds `t`, **including** folded rounds — the
    /// round counter the mechanisms observe is unchanged by compaction.
    pub fn len(&self) -> usize {
        self.folded_rounds + self.rounds.len()
    }

    /// True when no rounds are recorded (folded or retained).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of retained (un-folded) rounds a replay must still walk.
    pub fn retained_len(&self) -> usize {
        self.rounds.len()
    }

    /// Rounds folded into the checkpoint chain so far.
    pub fn folded_len(&self) -> usize {
        self.folded_rounds
    }

    /// The **retained** rounds, oldest first (folded rounds are gone —
    /// that is the point of compaction).
    pub fn rounds(&self) -> &[RoundUpdate] {
        &self.rounds
    }

    /// The drift envelope `Σ_r η_r·S_r` over all rounds ever recorded:
    /// `|log w(x)| ≤ drift` for every `x`. Unchanged by compaction.
    pub fn drift_bound(&self) -> f64 {
        self.drift
    }

    /// Drift envelope of the folded rounds alone — the log-weight
    /// distortion bound for a point replayed **unseeded** (outside the
    /// checkpoint panel). `0` before any fold.
    pub fn folded_drift(&self) -> f64 {
        self.folded_drift
    }

    /// The newest checkpoint, when any fold has run.
    pub fn checkpoint(&self) -> Option<&Arc<LogCheckpoint>> {
        self.checkpoint.as_ref()
    }

    /// Folds taken over the log's lifetime.
    pub fn checkpoints_taken(&self) -> usize {
        self.checkpoints_taken
    }

    /// The unnormalized log-weight `log w(x) = −Σ_r η_r·u_r(x)` of one
    /// point over the **retained** rounds only — `O(retained·d)`, no
    /// `|X|`-sized anything. Before any fold this is the exact full
    /// history; after a fold it omits the folded prefix, whose
    /// contribution is bounded by [`UpdateLog::folded_drift`] (use
    /// [`UpdateLog::log_weight_seeded`] to recover panel points exactly).
    pub fn log_weight_at(
        &self,
        point: &[f64],
        grad_buf: &mut Vec<f64>,
    ) -> Result<f64, SketchError> {
        let mut lw = 0.0;
        for round in &self.rounds {
            lw = round.apply(lw, point, grad_buf)?;
        }
        Ok(lw)
    }

    /// The checkpoint-seeded log-weight of universe element `index` at
    /// `point`: replay starts from the checkpoint's pinned prefix value
    /// when `index` is in the panel (bit-for-bit the full replay) and
    /// from `0` otherwise. Returns `(log_weight, seeded)` so callers can
    /// track whether the lookup was lossless (`seeded`, distortion ≤
    /// [`LogCheckpoint::missing_drift`]) or paid the folded drift.
    pub fn log_weight_seeded(
        &self,
        index: usize,
        point: &[f64],
        grad_buf: &mut Vec<f64>,
    ) -> Result<(f64, bool), SketchError> {
        let (mut lw, seeded) = match self.checkpoint.as_ref().and_then(|c| c.seed_for(index)) {
            Some(seed) => (seed, true),
            None => (0.0, false),
        };
        for round in &self.rounds {
            lw = round.apply(lw, point, grad_buf)?;
        }
        Ok((lw, seeded))
    }

    /// Fold every retained round into a fresh [`LogCheckpoint`] pinning
    /// `panel_values[i]` as the cumulative log-weight of universe index
    /// `panel_indices[i]` (the backends pass their pool, whose cumulative
    /// log-weights are maintained incrementally and are therefore exactly
    /// the replay values). `panel_missing_drift` is the distortion bound
    /// those panel values already carry (`0` for an exact pool).
    ///
    /// Validates **before** mutating — on `Err` the log is untouched, so
    /// a failed fold composes with the backends' transactional rollback.
    /// Folding nothing (no retained rounds) is a no-op returning a zero
    /// receipt without consuming a checkpoint slot.
    pub fn compact(
        &mut self,
        panel_indices: &[usize],
        panel_values: &[f64],
        panel_missing_drift: f64,
    ) -> Result<CompactionReceipt, SketchError> {
        if panel_indices.len() != panel_values.len() {
            return Err(SketchError::DimensionMismatch {
                got: panel_values.len(),
                expected: panel_indices.len(),
            });
        }
        if !(panel_missing_drift.is_finite() && panel_missing_drift >= 0.0) {
            return Err(SketchError::NonFinite(
                "checkpoint missing-drift bound must be finite and >= 0",
            ));
        }
        if panel_values.iter().any(|v| !v.is_finite()) {
            return Err(SketchError::NonFinite(
                "checkpoint panel log-weights must be finite",
            ));
        }
        if !self.drift.is_finite() {
            return Err(SketchError::NonFinite(
                "cannot fold a log with a non-finite drift envelope",
            ));
        }
        let folded_now = self.rounds.len();
        if folded_now == 0 {
            return Ok(CompactionReceipt {
                folded_rounds: 0,
                checkpoint_points: self.checkpoint.as_ref().map_or(0, |c| c.len()),
                folded_drift: self.folded_drift,
            });
        }
        // Sort the panel by index for binary-searchable seeds. Duplicate
        // pool indices carry bit-identical cumulative values, so keeping
        // the first occurrence is exact.
        let mut pairs: Vec<(usize, f64)> = panel_indices
            .iter()
            .copied()
            .zip(panel_values.iter().copied())
            .collect();
        pairs.sort_by_key(|&(i, _)| i);
        pairs.dedup_by_key(|&mut (i, _)| i);
        let (indices, values): (Vec<usize>, Vec<f64>) = pairs.into_iter().unzip();

        // Commit: everything below is infallible.
        self.folded_rounds += folded_now;
        self.folded_drift = self.drift;
        self.checkpoint = Some(Arc::new(LogCheckpoint {
            round: self.folded_rounds,
            missing_drift: panel_missing_drift,
            indices,
            values,
        }));
        self.checkpoints_taken += 1;
        self.rounds.clear();
        Ok(CompactionReceipt {
            folded_rounds: folded_now,
            checkpoint_points: self.checkpoint.as_ref().map_or(0, |c| c.len()),
            folded_drift: self.folded_drift,
        })
    }
}

/// Exact expected values `⟨q, D̂_t⟩` of `queries` under the hypothesis
/// `log` represents over `source`, in query order: the reference the
/// sketched estimates are checked against.
///
/// Two serial sweeps over `x = 0..|X|`, each replaying the point's
/// log-weight with [`UpdateLog::log_weight_at`]. The first takes the
/// largest log-weight as the shift. The second accumulates
/// `w = exp(lw − shift)` into one normaliser and `w·q(x)` into one
/// numerator per query, in `x` order. `Θ(|X|·(t·d + k))` time and no
/// `|X|`-sized allocation. Each query's value depends only on the log, the
/// source and that query, so one sweep of k queries gives the bits of k
/// sweeps of one.
///
/// The replay walks the retained rounds only, so the values are exact
/// while nothing has been folded. After a panel-free fold
/// (`compact(&[], &[], 0.0)`) each one is off by at most
/// [`pmw_dp::compaction_fold_radius`] of its query's scale and
/// [`UpdateLog::folded_drift`].
///
/// Errors on an empty source, on a query or retained round whose shape
/// does not match the source, and on a non-finite payoff.
pub fn exact_query_values<S: PointSource + ?Sized>(
    log: &UpdateLog,
    source: &S,
    queries: &[&dyn PointQuery],
) -> Result<Vec<f64>, SketchError> {
    let (n, dim) = (source.len(), source.dim());
    if n == 0 {
        return Err(SketchError::EmptyUniverse);
    }
    for &query in queries {
        validate_query_shape(query, n, dim)?;
    }
    if let Some(round) = log.rounds.iter().find(|r| r.point_dim() != dim) {
        return Err(SketchError::DimensionMismatch {
            got: round.point_dim(),
            expected: dim,
        });
    }
    let mut point = vec![0.0; dim];
    let mut grad = Vec::new();
    let mut shift = f64::NEG_INFINITY;
    for x in 0..n {
        source.write_point(x, &mut point);
        shift = shift.max(log.log_weight_at(&point, &mut grad)?);
    }
    let mut nums = vec![0.0; queries.len()];
    let mut den = 0.0;
    for x in 0..n {
        source.write_point(x, &mut point);
        let w = (log.log_weight_at(&point, &mut grad)? - shift).exp();
        for (num, &query) in nums.iter_mut().zip(queries) {
            *num += w * query_value_at(query, x, &point)?;
        }
        den += w;
    }
    Ok(nums.into_iter().map(|num| num / den).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::UniversePoints;
    use pmw_core::update::dual_certificate;
    use pmw_data::workload::ImplicitQuery;
    use pmw_data::{BooleanCube, Histogram, LinearQuery, PointQuery, Universe};
    use pmw_losses::{LinearQueryLoss, PointPredicate, SquaredLoss};

    fn lq(bit: usize, dim: usize) -> Arc<dyn CmLoss> {
        Arc::new(
            LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, dim).unwrap(),
        )
    }

    #[test]
    fn round_update_validates() {
        let loss = lq(0, 3);
        assert!(RoundUpdate::new(loss.clone(), vec![0.2], vec![0.1], 0.5).is_ok());
        assert!(RoundUpdate::new(loss.clone(), vec![0.2, 0.1], vec![0.1], 0.5).is_err());
        assert!(RoundUpdate::new(loss.clone(), vec![0.2], vec![0.1, 0.0], 0.5).is_err());
        assert!(RoundUpdate::new(loss.clone(), vec![0.2], vec![0.1], f64::NAN).is_err());
        assert!(RoundUpdate::new(loss.clone(), vec![0.2], vec![0.1], -1.0).is_err());
        assert!(RoundUpdate::new(loss, vec![f64::NAN], vec![0.1], 0.5).is_err());
    }

    #[test]
    fn query_round_validates() {
        let q: Arc<dyn PointQuery> = Arc::new(ImplicitQuery::marginal(vec![1], 3).unwrap());
        assert!(RoundUpdate::query(q.clone(), 1.0, 0.5).is_ok());
        assert!(RoundUpdate::query(q.clone(), f64::NAN, 0.5).is_err());
        assert!(RoundUpdate::query(q.clone(), 1.0, -0.1).is_err());
        assert!(RoundUpdate::query(q, 1.0, f64::INFINITY).is_err());
        // Dense (universe-indexed) queries cannot be recorded: the log
        // must re-evaluate them at arbitrary points.
        let dense: Arc<dyn PointQuery> = Arc::new(LinearQuery::new(vec![1.0, 0.0]).unwrap());
        assert!(matches!(
            RoundUpdate::query(dense, 1.0, 0.5),
            Err(SketchError::UnsupportedLoss(_))
        ));
        let implicit = ImplicitQuery::parity(vec![0], 2).unwrap();
        assert!(RoundUpdate::query_from_dyn(&implicit, -0.25, 0.7).is_ok());
    }

    /// `q(x) = 0.3·x_0`, except `None` where `x_0 = 2` and NaN where
    /// `x_0 = 3`.
    #[derive(Clone)]
    struct Spotty;

    impl PointQuery for Spotty {
        fn value_bounds(&self) -> (f64, f64) {
            (0.0, 1.0)
        }
        fn value_at_index(&self, _index: usize) -> Option<f64> {
            None
        }
        fn value_at_point(&self, point: &[f64]) -> Option<f64> {
            match point[0] {
                2.0 => None,
                3.0 => Some(f64::NAN),
                x => Some(0.3 * x),
            }
        }
        fn point_dim(&self) -> Option<usize> {
            Some(2)
        }
    }

    #[test]
    fn payoffs_fail_where_the_per_row_loop_fails() {
        let per_row = |round: &RoundUpdate, points: &PointMatrix| {
            let mut grad = Vec::new();
            points
                .iter()
                .map(|point| round.payoff(point, &mut grad))
                .collect::<Result<Vec<f64>, _>>()
        };
        let bits = |r: Result<Vec<f64>, SketchError>| {
            r.map(|v| v.iter().map(|u| u.to_bits()).collect::<Vec<_>>())
        };
        let query = RoundUpdate::query(Arc::new(Spotty), -0.7, 1.0).unwrap();
        let certificate = RoundUpdate::new(lq(1, 2), vec![0.9], vec![0.2], 0.5).unwrap();
        let cases: [(&[f64], Result<(), SketchError>); 3] = [
            (&[0.0, 1.0, 0.5, 0.25, 1.0], Ok(())),
            (
                &[0.5, 3.0, 1.0, 2.0],
                Err(SketchError::NonFinite("query payoff")),
            ),
            (&[0.5, 2.0, 1.0, 3.0], Err(UNEVALUABLE_QUERY)),
        ];
        for (first, outcome) in cases {
            let flat: Vec<f64> = first.iter().flat_map(|&x| [x, 1.0 - x]).collect();
            let points = PointMatrix::from_flat(flat, 2).unwrap();
            assert_eq!(query.payoffs(&points).map(|_| ()), outcome);
            assert_eq!(bits(query.payoffs(&points)), bits(per_row(&query, &points)));
            assert_eq!(
                bits(certificate.payoffs(&points)),
                bits(per_row(&certificate, &points))
            );
        }
    }

    #[test]
    fn from_dyn_retains_concrete_losses() {
        let loss = SquaredLoss::new(2).unwrap();
        let u = RoundUpdate::from_dyn(&loss, &[0.1, 0.2], &[0.0, 0.0], 0.3).unwrap();
        assert_eq!(u.loss().unwrap().dim(), 2);
        assert!(u.point_query().is_none());
        assert!((u.eta() - 0.3).abs() < 1e-15);
        assert!(format!("{u:?}").contains("eta"));
    }

    #[test]
    fn log_weight_is_minus_sum_of_scaled_payoffs() {
        // Linear query on bit 0 of a 2-bit cube: payoff at x is
        // (theta_o - theta_h) * grad l_x(theta_h); for the quadratic
        // linear-query encoding grad = theta_h - q(x).
        let mut log = UpdateLog::new();
        assert!(log.is_empty());
        log.push(RoundUpdate::new(lq(0, 2), vec![0.9], vec![0.5], 0.8).unwrap());
        log.push(RoundUpdate::new(lq(1, 2), vec![0.2], vec![0.4], 0.6).unwrap());
        assert_eq!(log.len(), 2);

        let mut grad = Vec::new();
        // Point [1, 0]: q0 = 1, q1 = 0.
        let lw = log.log_weight_at(&[1.0, 0.0], &mut grad).unwrap();
        let u1 = (0.9 - 0.5) * (0.5 - 1.0);
        let u2 = (0.2 - 0.4) * (0.4 - 0.0);
        let expect = -(0.8 * u1 + 0.6 * u2);
        assert!((lw - expect).abs() < 1e-12, "{lw} vs {expect}");

        // Drift envelope bounds every log-weight.
        let s1 = log.rounds()[0].scale();
        let s2 = log.rounds()[1].scale();
        assert!((log.drift_bound() - (0.8 * s1 + 0.6 * s2)).abs() < 1e-12);
        assert!(lw.abs() <= log.drift_bound() + 1e-12);
    }

    #[test]
    fn truncate_restores_the_drift_envelope() {
        let mut log = UpdateLog::new();
        log.push(RoundUpdate::new(lq(0, 2), vec![0.9], vec![0.5], 0.8).unwrap());
        let drift_one = log.drift_bound();
        log.push(RoundUpdate::new(lq(1, 2), vec![0.2], vec![0.4], 0.6).unwrap());
        assert!(log.drift_bound() > drift_one);
        log.truncate(1).unwrap();
        assert_eq!(log.len(), 1);
        assert!((log.drift_bound() - drift_one).abs() < 1e-15);
        // At-or-past-length truncation is a no-op.
        log.truncate(5).unwrap();
        assert_eq!(log.len(), 1);
        log.truncate(0).unwrap();
        assert!(log.is_empty());
        assert_eq!(log.drift_bound(), 0.0);
    }

    #[test]
    fn query_rounds_mix_with_certificate_rounds_in_one_log() {
        let mut log = UpdateLog::new();
        log.push(RoundUpdate::new(lq(0, 2), vec![0.9], vec![0.5], 0.8).unwrap());
        let q = ImplicitQuery::marginal(vec![1], 2).unwrap();
        log.push(RoundUpdate::query_from_dyn(&q, -0.5, 1.0).unwrap());
        assert_eq!(log.len(), 2);

        let mut grad = Vec::new();
        // Point [1, 1]: certificate payoff as above; query payoff
        // -0.5 * q([1,1]) = -0.5.
        let lw = log.log_weight_at(&[1.0, 1.0], &mut grad).unwrap();
        let u1 = (0.9 - 0.5) * (0.5 - 1.0);
        let expect = -(0.8 * u1) - (1.0 * (-0.5));
        assert!((lw - expect).abs() < 1e-12, "{lw} vs {expect}");

        // Query-round scale is |coeff|·max(|lo|,|hi|) = 0.5 here.
        assert!((log.rounds()[1].scale() - 0.5).abs() < 1e-15);
        assert!(lw.abs() <= log.drift_bound() + 1e-12);
        assert!(format!("{:?}", log.rounds()[1]).contains("marginal"));
        assert_eq!(log.rounds()[1].point_dim(), 2);
    }

    #[test]
    fn compaction_policy_due_semantics() {
        assert!(!CompactionPolicy::Never.due(1_000_000));
        assert!(!CompactionPolicy::EveryK(0).due(1_000_000));
        assert!(!CompactionPolicy::EveryK(8).due(7));
        assert!(CompactionPolicy::EveryK(8).due(8));
        assert_eq!(CompactionPolicy::default(), CompactionPolicy::Never);
    }

    fn two_round_log() -> UpdateLog {
        let mut log = UpdateLog::new();
        log.push(RoundUpdate::new(lq(0, 2), vec![0.9], vec![0.5], 0.8).unwrap());
        log.push(RoundUpdate::new(lq(1, 2), vec![0.2], vec![0.4], 0.6).unwrap());
        log
    }

    #[test]
    fn seeded_replay_from_a_panel_hit_is_bit_for_bit_the_full_replay() {
        let mut log = two_round_log();
        let mut grad = Vec::new();
        let points = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]];
        let full: Vec<f64> = points
            .iter()
            .map(|p| log.log_weight_at(p, &mut grad).unwrap())
            .collect();
        let drift_before = log.drift_bound();

        // Fold both rounds, pinning points 0 and 2 (deliberately with a
        // duplicate to exercise dedup).
        let receipt = log
            .compact(&[2, 0, 2], &[full[2], full[0], full[2]], 0.0)
            .unwrap();
        assert_eq!(receipt.folded_rounds, 2);
        assert_eq!(receipt.checkpoint_points, 2);
        assert!((receipt.folded_drift - drift_before).abs() < 1e-15);
        assert_eq!(log.len(), 2); // total round count unchanged
        assert_eq!(log.retained_len(), 0);
        assert_eq!(log.folded_len(), 2);
        assert_eq!(log.checkpoints_taken(), 1);
        assert_eq!(log.drift_bound(), drift_before); // envelope unchanged

        // Push one more round on top of the fold.
        log.push(RoundUpdate::new(lq(0, 2), vec![0.3], vec![0.7], 0.5).unwrap());
        assert_eq!(log.len(), 3);
        assert_eq!(log.retained_len(), 1);

        // Reference: the same three rounds, never folded.
        let mut full_log = two_round_log();
        full_log.push(RoundUpdate::new(lq(0, 2), vec![0.3], vec![0.7], 0.5).unwrap());
        for (i, p) in points.iter().enumerate() {
            let want = full_log.log_weight_at(p, &mut grad).unwrap();
            let (got, seeded) = log.log_weight_seeded(i, p, &mut grad).unwrap();
            if i == 1 {
                // Panel miss: unseeded, off by exactly the folded prefix.
                assert!(!seeded);
                let suffix_only = got;
                assert!((want - suffix_only - full[1]).abs() < 1e-12);
                assert!((want - suffix_only).abs() <= log.folded_drift() + 1e-12);
            } else {
                assert!(seeded);
                assert_eq!(got.to_bits(), want.to_bits(), "panel point {i}");
            }
        }
    }

    #[test]
    fn compact_validates_before_mutating_and_truncate_respects_the_fold() {
        let mut log = two_round_log();
        // Mismatched panel / non-finite values / bad drift: all rejected,
        // log untouched.
        assert!(log.compact(&[0, 1], &[0.5], 0.0).is_err());
        assert!(log.compact(&[0], &[f64::NAN], 0.0).is_err());
        assert!(log.compact(&[0], &[0.5], f64::NAN).is_err());
        assert!(log.compact(&[0], &[0.5], -1.0).is_err());
        assert_eq!(log.retained_len(), 2);
        assert!(log.checkpoint().is_none());

        log.compact(&[0], &[0.25], 0.125).unwrap();
        let ck = log.checkpoint().unwrap();
        assert_eq!(ck.round(), 2);
        assert_eq!(ck.len(), 1);
        assert!(!ck.is_empty());
        assert_eq!(ck.seed_for(0), Some(0.25));
        assert_eq!(ck.seed_for(1), None);
        assert!((ck.missing_drift() - 0.125).abs() < 1e-15);

        // Truncating to/above the fold boundary is fine; into it, an error.
        log.push(RoundUpdate::new(lq(0, 2), vec![0.3], vec![0.7], 0.5).unwrap());
        let drift_at_fold = log.folded_drift();
        log.truncate(2).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.retained_len(), 0);
        assert!((log.drift_bound() - drift_at_fold).abs() < 1e-15);
        assert!(log.truncate(1).is_err());

        // An empty-retained fold is a no-op receipt, not a new checkpoint.
        let receipt = log.compact(&[5], &[1.0], 0.0).unwrap();
        assert_eq!(receipt.folded_rounds, 0);
        assert_eq!(log.checkpoints_taken(), 1);
        assert_eq!(log.checkpoint().unwrap().round(), 2);
    }

    #[test]
    fn empty_panel_fold_retains_nothing_and_seeds_nothing() {
        let mut log = two_round_log();
        log.compact(&[], &[], 0.0).unwrap();
        assert_eq!(log.retained_len(), 0);
        // Empty-panel checkpoints seed nothing: every lookup is unseeded.
        let mut grad = Vec::new();
        let (lw, seeded) = log.log_weight_seeded(0, &[1.0, 0.0], &mut grad).unwrap();
        assert_eq!(lw, 0.0);
        assert!(!seeded);
    }

    #[test]
    fn query_rounds_and_exact_query_values_match_dense() {
        // Mix a certificate round and a query round; the log-weights and
        // the exact expectation sweep must match a dense histogram driven
        // by the same updates.
        let cube = BooleanCube::new(4).unwrap();
        let points = cube.materialize();
        let source = UniversePoints(cube.clone());
        let mut dense = Histogram::uniform(cube.size()).unwrap();
        let mut log = UpdateLog::new();

        let loss = lq(0, 4);
        let u = dual_certificate(loss.as_ref(), &points, &[0.9], &[0.4]).unwrap();
        dense.mw_update(&u, 0.7).unwrap();
        log.push(RoundUpdate::new(loss, vec![0.9], vec![0.4], 0.7).unwrap());

        let q = ImplicitQuery::marginal(vec![1, 2], 4).unwrap();
        let qu: Vec<f64> = points.iter().map(|p| -0.4 * q.evaluate(p)).collect();
        dense.mw_update(&qu, 1.0).unwrap();
        log.push(RoundUpdate::query_from_dyn(&q, -0.4, 1.0).unwrap());

        let mut grad = Vec::new();
        for x in 0..cube.size() {
            let l = log.log_weight_at(points.row(x), &mut grad).unwrap();
            let d = dense.log_weight(x);
            assert!((l - d).abs() < 1e-12, "x={x}: log {l} vs dense {d}");
        }
        // Exact expectation: identical (to fp) with the dense dot, for an
        // implicit and for a dense query of the same predicate.
        let probe = ImplicitQuery::marginal(vec![3], 4).unwrap();
        let dense_probe: Vec<f64> = points.iter().map(|p| probe.evaluate(p)).collect();
        let exact: f64 = dense
            .weights()
            .iter()
            .zip(&dense_probe)
            .map(|(w, v)| w * v)
            .sum();
        let via_point = exact_query_values(&log, &source, &[&probe]).unwrap()[0];
        assert!((via_point - exact).abs() < 1e-12, "{via_point} vs {exact}");
        let dense_q = LinearQuery::new(dense_probe).unwrap();
        let via_index = exact_query_values(&log, &source, &[&dense_q]).unwrap()[0];
        assert!((via_index - exact).abs() < 1e-12);
        // One sweep of k queries gives the bits of k single sweeps.
        let batch = exact_query_values(&log, &source, &[&probe, &dense_q, &q]).unwrap();
        let single = exact_query_values(&log, &source, &[&q]).unwrap()[0];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&batch), bits(&[via_point, via_index, single]));
        // Dimension mismatches are rejected: a query's, and a recorded
        // round's against the source.
        let wrong = ImplicitQuery::marginal(vec![0], 7).unwrap();
        assert!(exact_query_values(&log, &source, &[&wrong]).is_err());
        log.push(RoundUpdate::query_from_dyn(&wrong, 1.0, 0.5).unwrap());
        assert_eq!(
            exact_query_values(&log, &source, &[&probe]),
            Err(SketchError::DimensionMismatch {
                got: 7,
                expected: 4
            })
        );
    }
}
