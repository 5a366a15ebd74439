//! The online private multiplicative weights mechanism for CM queries —
//! Figure 3 of the paper, verbatim (up to the documented constant fixes).
//!
//! Per query `ℓ_j`:
//!
//! 1. compute the hypothesis minimizer `θ̂_t = argmin_θ ℓ(θ; D̂_t)`
//!    (non-private: touches only the public hypothesis);
//! 2. form the error query `q_j(D) = err_{ℓ_j}(D, D̂_t)` — sensitivity
//!    `3S/n` (Section 3.4) — and feed it to the sparse vector algorithm;
//! 3. on `⊥`: answer `θ̂_t` (free: no privacy budget is consumed beyond
//!    SV's);
//! 4. on `⊤`: answer `θ_t ← A′(D, ℓ_j)` with the per-round budget
//!    `(ε₀, δ₀)`, then perform the dual-certificate multiplicative-weights
//!    update `D̂_{t+1}(x) ∝ exp(−η·u_t(x))·D̂_t(x)` with
//!    `u_t(x) = ⟨θ_t − θ̂_t, ∇ℓ_x(θ̂_t)⟩` (Claim 3.5);
//! 5. halt permanently once `T` updates have occurred.
//!
//! Privacy (Theorem 3.9): SV consumes `(ε/2, δ/2)`; the at-most-`T` oracle
//! calls compose to `(ε/2, δ/2)`; the hypothesis, its minimizers and the
//! update vectors are post-processing of those two streams. The built-in
//! [`Accountant`] records both streams so tests can audit the spend.
//! Accuracy (Theorem 3.8): every answer has excess risk at most `α`
//! provided `n ≥ max{n', Õ(S²√(log|X|)·log k/(εα²))}`.

use crate::config::{DerivedParams, PmwConfig};
use crate::data::DataSide;
use crate::error::{claimed_radius, PmwError};
use crate::state::{DenseBackend, ReadSnapshot, StateBackend};
use crate::transcript::{QueryOutcome, QueryRecord, Transcript};
use pmw_convex::Objective;
use pmw_data::{Dataset, Histogram, PointMatrix, Universe};
use pmw_dp::sparse_vector::{SvComposition, SvConfig, SvOutcome};
use pmw_dp::{Accountant, DpError, SparseVector};
use pmw_erm::{ErmOracle, OracleChoice};
use pmw_losses::{CmLoss, WeightedObjective};
use pmw_obs::{Counter, Gauge, NoopProbe, Phase, Probe};
use rand::Rng;
use std::sync::Arc;

/// The result of the pure read phase of one round: everything the
/// sparse-vector test and the (serialized) commit phase need, computed
/// against an immutable [`ReadSnapshot`] with **no RNG draws and no state
/// mutation**. Produced by [`ScreenContext::screen`]; consumed by
/// [`OnlinePmw::decide_with_probe`].
#[derive(Debug, Clone)]
pub struct ScreenedQuery {
    theta_hat: Vec<f64>,
    query_value: f64,
    read_margin: f64,
    snapshot_updates: usize,
}

impl ScreenedQuery {
    /// The hypothesis minimizer `θ̂` solved against the snapshot — the
    /// free answer on a `⊥` screen.
    pub fn theta_hat(&self) -> &[f64] {
        &self.theta_hat
    }

    /// The error query value `err_ℓ(D, D̂)` (non-negative).
    pub fn query_value(&self) -> f64 {
        self.query_value
    }

    /// The backend's ledgered read-uncertainty margin at screen time.
    pub fn read_margin(&self) -> f64 {
        self.read_margin
    }

    /// The value actually fed to the sparse vector:
    /// `query_value + read_margin`.
    pub fn sv_margin(&self) -> f64 {
        self.query_value + self.read_margin
    }

    /// The number of MW updates recorded by the snapshot this screen ran
    /// against — compare with the state's
    /// [`StateBackend::updates_recorded`] (through [`OnlinePmw::state`]) to
    /// detect a stale screen before committing. Not with
    /// [`OnlinePmw::updates_used`], which also counts the rounds a failed
    /// oracle call burned without recording an update.
    pub fn snapshot_updates(&self) -> usize {
        self.snapshot_updates
    }
}

/// How [`OnlinePmw::decide_with_probe`] settled a batch of screened
/// queries.
#[derive(Debug)]
pub enum Decision {
    /// `⊥` on the batch maximum: every member answers free from its own
    /// [`ScreenedQuery::theta_hat`], and each counts as one answered query.
    Free,
    /// `⊤` on the batch maximum: the member at `index` committed. The
    /// other members were not tested; re-screen them against the updated
    /// state before deciding them again.
    Update {
        /// The committed member's position in the batch.
        index: usize,
        /// The oracle's answer `θ_t`, or the error that burned the round.
        answer: Result<Vec<f64>, PmwError>,
    },
}

/// Everything the pure read phase needs besides the snapshot and the
/// loss — the per-analyst handle state of a serving layer. Obtained from
/// [`OnlinePmw::screen_context`]; it shares the mechanism's [`DataSide`]
/// behind an `Arc`, so cloning a context is O(1).
#[derive(Clone)]
pub struct ScreenContext {
    data: Arc<DataSide>,
    solver_iters: usize,
    scale_s: f64,
}

impl ScreenContext {
    /// Screen `loss` against `snapshot` — the pure read phase of one
    /// Figure-3 round, runnable by any thread holding a published
    /// snapshot. Consumes no RNG and mutates nothing (sketched snapshots
    /// ledger their concentration claims through their shared sampling
    /// ledger, exactly like the live backend's reads). Forks the error
    /// query's `θ*` solve under the same rule as [`OnlinePmw::answer`].
    pub fn screen(
        &self,
        snapshot: &dyn ReadSnapshot,
        loss: &dyn CmLoss,
    ) -> Result<ScreenedQuery, PmwError> {
        screen_query(self, snapshot, loss, &NoopProbe)
    }
}

/// Data-side solve size, in point-iterations (data-side points ×
/// `solver_iters`), from which the read phase builds the error query's
/// data objective and solves its `θ*` on a second thread while the caller
/// solves `θ̂`. The build goes with the solve, so the caller's only
/// data-side work is one value pass at `θ̂`, after the join.
///
/// On a 2-core VM a scoped spawn and join of an empty closure costs
/// 40–50 µs (medians of 2000 over four runs), and a solve on the tiled GLM
/// passes at `d = 10` 5.4–7.3 ns per point-iteration (`minimize_weighted`,
/// 1024 points × 100 iterations): a 2^16 solve takes 350–480 µs, so the
/// fork costs 8–14% of the solve it takes off the caller's thread.
///
/// A loss with a [`CmLoss::quadratic_target`] (a linear query) counts one
/// iteration: its objective reads the points once, to build `Σw`, `Σw·t`
/// and `Σw·t²`, and each solver iteration then costs O(1), so a 1024-point
/// solve takes a few µs. Counted as points × `solver_iters`, a dense
/// 1024-point linear query at 100 iterations forked: `exp_runtime`'s
/// linear-query free answers read 28.7–31.6 µs with two workers against
/// 10.8–16.6 µs at `PMW_THREADS=1`.
///
/// Squared GLMs, which `WeightedObjective` also solves from sufficient
/// statistics, keep points × `solver_iters`, although their whole solve
/// costs less than the spawn: over 1024 points at `d = 10` the statistics
/// build in 23–45 µs and 100 iterations take 8–12 µs, as the host's speed
/// varies. A variant that never forks a quadratic objective read a lower
/// `latency_p50_us` on perfbench online-glm in all of 10 alternating
/// pairs × 30 s at seed 1, but won `answers_per_s` in only 3 of them
/// (median 1,224 against 1,542 answers/s).
const FORK_POINT_ITERS: usize = 1 << 16;

/// The read phase: solve `θ̂` against the frozen hypothesis, evaluate the
/// error query `err_ℓ(D, D̂)` over the data-side rows, and collect the
/// backend's read margin.
///
/// The data-side [`WeightedObjective`] is built once per screen. Its solve
/// reports `ℓ_D(θ*)` with `θ*`, and the same objective then evaluates
/// `ℓ_D(θ̂)`.
///
/// With more than one sweep worker ([`pmw_data::par::threads`]) and a
/// data-side solve of at least [`FORK_POINT_ITERS`] (counted as that
/// constant's doc says), the error query's
/// objective is built and its `θ*` solved on a scoped second thread while
/// this thread solves `θ̂`; the objective comes back through the join. The
/// two solves are independent and deterministic, so the outcome is
/// bit-for-bit the serial one; every probe span stays on this thread, and
/// `θ̂`'s error still takes precedence over `θ*`'s.
fn screen_query<P: Probe>(
    ctx: &ScreenContext,
    snapshot: &dyn ReadSnapshot,
    loss: &dyn CmLoss,
    probe: &P,
) -> Result<ScreenedQuery, PmwError> {
    ctx.data.check_loss(loss)?;
    let (points, weights) = (ctx.data.points(), ctx.data.weights());
    // (1) Hypothesis minimizer theta-hat, against the frozen state.
    let solve_hat = || -> Result<Vec<f64>, PmwError> {
        let theta_hat = snapshot.hypothesis_minimizer(loss, points, ctx.solver_iters)?;
        probe.span_end(Phase::HypothesisSolve);
        probe.span_begin(Phase::ErrorQuery);
        Ok(theta_hat)
    };
    // (2) The error query q_j(D) = err_l(D, D-hat_t), evaluated over
    // the data-side point set: the universe histogram on the dense
    // path, the dataset's support rows (O(n·d)) on the row path. The data
    // objective is built once, by whichever thread solves theta*; the
    // solve reports l_D(theta*), and the objective comes back for
    // l_D(theta-hat).
    let solve_star = || -> Result<_, PmwError> {
        let data_obj = WeightedObjective::new(loss, points, weights)?;
        let at_star = data_obj.solve(ctx.solver_iters)?.value;
        Ok((data_obj, at_star))
    };
    let iters = if loss.quadratic_target().is_some() {
        1
    } else {
        ctx.solver_iters
    };
    let fork =
        pmw_data::par::threads() > 1 && points.len().saturating_mul(iters) >= FORK_POINT_ITERS;
    probe.span_begin(Phase::HypothesisSolve);
    let (theta_hat, star) = if fork {
        std::thread::scope(|s| {
            let star = s.spawn(solve_star);
            let theta_hat = solve_hat();
            let star = star.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            (theta_hat, star)
        })
    } else {
        let theta_hat = solve_hat()?;
        (Ok(theta_hat), solve_star())
    };
    let theta_hat = theta_hat?;
    let (data_obj, at_star) = star?;
    let query_value = error_query_value(data_obj.value(&theta_hat), at_star)?;
    probe.span_end(Phase::ErrorQuery);

    // On sketched state the SV margin is widened by the backend's claimed
    // read radius: θ̂ was solved against an *estimated* hypothesis, so a
    // ⊥ must certify the error query below α even after discounting the
    // sketch's read uncertainty. Exact backends claim radius 0. A
    // corrupted margin is refused before any budget or noise draw is
    // consumed, leaving the round un-burned.
    let read_margin = claimed_radius(snapshot.read_radius(ctx.scale_s))?;
    Ok(ScreenedQuery {
        theta_hat,
        query_value,
        read_margin,
        snapshot_updates: snapshot.updates_recorded(),
    })
}

/// The error query `err_ℓ(D, D̂) = ℓ_D(θ̂) − ℓ_D(θ*)` from the data
/// objective's values at `θ̂` and at its minimizer `θ*`, floored at 0 (the
/// iterative `θ*` can land a hair above `θ̂`). A non-finite difference is
/// refused before any noise is drawn: `f64::max` reads NaN as 0, a perfect
/// hypothesis, which the sparse vector would screen ⊥ and the exponential
/// mechanism would never select.
pub(crate) fn error_query_value(at_hat: f64, at_star: f64) -> Result<f64, PmwError> {
    let error = at_hat - at_star;
    if !error.is_finite() {
        return Err(PmwError::Dp(DpError::NonFinite("error query value")));
    }
    Ok(error.max(0.0))
}

/// The Figure-3 mechanism. Construct once per dataset, then [`answer`]
/// queries interactively; the analyst may choose each loss adaptively based
/// on previous answers (the accuracy game of Figure 1).
///
/// Generic over the [`StateBackend`] holding `D̂_t`: the default
/// [`DenseBackend`] is the exact Θ(|X|)-per-round representation; the
/// `pmw-sketch` backends make the state maintenance (hypothesis solve,
/// certificate expectation, MW update, synthetic sampling) cost
/// independent of `|X|` (construct with [`OnlinePmw::with_backend`]).
///
/// The data side is sublinear too: given a [`DataSide::from_source`], the
/// mechanism never materializes the universe or a `|X|`-sized data
/// histogram — the error query `err_ℓ(D, D̂_t)` is evaluated as a
/// row-weighted objective over the dataset's ≤ n support rows (`O(n·d)`
/// per query). With a sketching backend such as
/// `pmw_sketch::SampledBackend`, the **whole** `answer` loop then runs at
/// `|X| = 2^26` and beyond (`exp_sublinear`'s mechanism axis measures it
/// flat in `|X|`).
///
/// [`answer`]: OnlinePmw::answer
pub struct OnlinePmw<O: ErmOracle = OracleChoice, B: StateBackend = DenseBackend> {
    config: PmwConfig,
    derived: DerivedParams,
    oracle: O,
    /// The data side and screen parameters, shared with every
    /// [`OnlinePmw::screen_context`].
    ctx: ScreenContext,
    state: B,
    sv: SparseVector,
    update_round: usize,
    transcript: Transcript,
    accountant: Accountant,
    halted: bool,
}

impl OnlinePmw<OracleChoice, DenseBackend> {
    /// Build with the metadata-driven automatic oracle.
    pub fn new<U: Universe>(
        config: PmwConfig,
        universe: &U,
        dataset: Dataset,
        rng: &mut dyn Rng,
    ) -> Result<Self, PmwError> {
        Self::with_oracle(config, universe, dataset, OracleChoice::Auto, rng)
    }
}

impl<O: ErmOracle> OnlinePmw<O, DenseBackend> {
    /// Build with an explicit single-query oracle `A′`, the dense data side
    /// ([`DataSide::from_universe`]) and the default dense (exact) state
    /// backend.
    pub fn with_oracle<U: Universe>(
        config: PmwConfig,
        universe: &U,
        dataset: Dataset,
        oracle: O,
        rng: &mut dyn Rng,
    ) -> Result<Self, PmwError> {
        // State first: with the data side allocated first, online-glm
        // answers measured ~9% slower (heap placement of the sweep
        // buffers, same instructions).
        let state = DenseBackend::new(universe.size())?;
        let data = DataSide::from_universe(universe, &dataset)?;
        Self::with_backend(config, data, oracle, state, rng)
    }

    /// The current hypothesis histogram `D̂_t` — safe to release (it is a
    /// post-processing of private outputs) and usable as **synthetic data**,
    /// per the paper's Section 4.3 remark.
    pub fn hypothesis(&self) -> &Histogram {
        self.state.hypothesis()
    }
}

impl<O: ErmOracle, B: StateBackend> OnlinePmw<O, B> {
    /// Build over any data side with an explicit oracle **and** state
    /// backend — the seam that lets the mechanism run on sketched
    /// (sublinear) hypothesis state. With [`DataSide::from_source`] and a
    /// sketching backend nothing `|X|`-sized is ever allocated: per-answer
    /// cost is `O(n·d + m·d)` at pool budget `m`, flat in `|X|`.
    ///
    /// Draws exactly the sparse-vector noise from `rng`.
    pub fn with_backend(
        config: PmwConfig,
        data: DataSide,
        oracle: O,
        state: B,
        rng: &mut dyn Rng,
    ) -> Result<Self, PmwError> {
        data.check_backend(&state)?;
        let derived = config.derive(data.universe_size())?;
        let sv_config = SvConfig {
            max_top: derived.rounds,
            threshold: config.alpha,
            sensitivity: 3.0 * config.scale_s / data.n() as f64,
            budget: derived.sv_budget,
            composition: SvComposition::Strong,
        };
        let sv = SparseVector::new(sv_config, rng)?;
        let mut accountant = Accountant::new();
        accountant.spend("sparse-vector", derived.sv_budget);
        Ok(Self {
            ctx: ScreenContext {
                data: Arc::new(data),
                solver_iters: config.solver_iters,
                scale_s: config.scale_s,
            },
            state,
            config,
            derived,
            oracle,
            sv,
            update_round: 0,
            transcript: Transcript::new(),
            accountant,
            halted: false,
        })
    }

    /// Answer one CM query. Errors with [`PmwError::Halted`] once the `T`
    /// update slots are spent and with [`PmwError::QueryLimitReached`] past
    /// the declared `k`.
    ///
    /// When more than one sweep worker is available
    /// ([`pmw_data::par::threads`]) and the data-side solve reaches 2^16
    /// point-iterations (data-side points × `solver_iters`), the error
    /// query's `θ*` is solved on a scoped second thread while this thread
    /// solves `θ̂`. Every answer, transcript record, ledger entry and rng
    /// draw is bit-for-bit the serial one.
    pub fn answer(&mut self, loss: &dyn CmLoss, rng: &mut dyn Rng) -> Result<Vec<f64>, PmwError> {
        self.answer_with_probe(loss, rng, &NoopProbe)
    }

    /// [`OnlinePmw::answer`], reporting the round through `probe`: one
    /// round span per query with [`Phase::HypothesisSolve`],
    /// [`Phase::ErrorQuery`], [`Phase::SvScreen`] and (on `⊤` rounds)
    /// [`Phase::OracleSolve`]/[`Phase::Update`] sub-spans, the screened
    /// margin and budget gauges, and the [`Counter::FreeAnswers`],
    /// [`Counter::UpdateRounds`] and [`Counter::FailedRounds`] counters.
    /// `answer` itself delegates here with the [`NoopProbe`], which
    /// compiles the instrumentation away — probe-off rng streams are
    /// bit-for-bit those of the uninstrumented mechanism.
    pub fn answer_with_probe<P: Probe>(
        &mut self,
        loss: &dyn CmLoss,
        rng: &mut dyn Rng,
        probe: &P,
    ) -> Result<Vec<f64>, PmwError> {
        self.admit(0)?;
        let round_idx = self.transcript.len();
        probe.round_begin(round_idx);
        // The read phase against a freshly published snapshot — the seam a
        // serving layer's analysts screen through; its reads equal the live
        // state's and draw no rng — then the decision on a batch of one.
        let decided = self
            .state
            .snapshot()
            .and_then(|snapshot| screen_query(&self.ctx, snapshot.as_ref(), loss, probe))
            .and_then(|screened| {
                let decision = self.decide_with_probe(&[(loss, &screened)], rng, probe)?;
                Ok((decision, screened.theta_hat))
            });
        let (outcome_label, result) = match decided {
            Ok((Decision::Free, theta_hat)) => ("free", Ok(theta_hat)),
            Ok((Decision::Update { answer, .. }, _)) => {
                (if answer.is_ok() { "update" } else { "failed" }, answer)
            }
            Err(PmwError::Halted) => ("halted", Err(PmwError::Halted)),
            Err(e) => ("error", Err(e)),
        };
        probe.round_end(round_idx, outcome_label);
        result
    }

    /// Whether a decision can take one more query beside `pending` queries
    /// already admitted to it: [`PmwError::Halted`] once the `T` update
    /// slots are spent, then [`PmwError::QueryLimitReached`] once the
    /// answered and pending queries reach `k`. Draws nothing.
    pub fn admit(&self, pending: usize) -> Result<(), PmwError> {
        if self.halted {
            return Err(PmwError::Halted);
        }
        if self.transcript.len().saturating_add(pending) >= self.config.k {
            return Err(PmwError::QueryLimitReached);
        }
        Ok(())
    }

    /// Check `loss` against the data side and, for backends that retain
    /// losses (lazy update logs), obtain the owned handle — up front,
    /// before any privacy budget or sparse vector round is consumed on an
    /// update that could never be recorded. The clone is handed to
    /// `apply_update`, so retention-requiring backends pay exactly one
    /// clone per decision.
    fn retain(&self, loss: &dyn CmLoss) -> Result<Option<Arc<dyn CmLoss>>, PmwError> {
        self.ctx.data.check_loss(loss)?;
        if !self.state.requires_shared_loss() {
            return Ok(None);
        }
        loss.clone_shared().map(Some).ok_or(PmwError::LossMismatch(
            "this state backend requires a loss supporting clone_shared",
        ))
    }

    /// Decide a batch of screened queries with one sparse-vector test: the
    /// write phase of a Figure-3 round, which [`OnlinePmw::answer`] runs
    /// on a batch of one and a serving layer's writer on whatever its
    /// analysts queued together.
    ///
    /// Before any draw, the batch is refused as a whole when the mechanism
    /// cannot take all of it ([`OnlinePmw::admit`]), and the member with
    /// the largest [`ScreenedQuery::sv_margin`] has its loss retained.
    /// Then that largest margin is tested once: the maximum of queries of
    /// equal sensitivity has that sensitivity, so the batch costs one
    /// sparse-vector query. On `⊥` every member is below the threshold and
    /// answers free ([`Decision::Free`]). On `⊤` the arg-max member
    /// commits — oracle answer and MW update, reported through `probe` —
    /// and the others go back untested ([`Decision::Update`]).
    pub fn decide_with_probe<P: Probe>(
        &mut self,
        batch: &[(&dyn CmLoss, &ScreenedQuery)],
        rng: &mut dyn Rng,
        probe: &P,
    ) -> Result<Decision, PmwError> {
        let Some(last) = batch.len().checked_sub(1) else {
            return Err(PmwError::InvalidConfig(
                "a decision needs at least one screened query",
            ));
        };
        self.admit(last)?;
        let index = (0..batch.len())
            .max_by(|&a, &b| batch[a].1.sv_margin().total_cmp(&batch[b].1.sv_margin()))
            .expect("non-empty batch");
        let (loss, screened) = batch[index];
        let retained = self.retain(loss)?;

        // The sparse vector is the first (and on `⊥` the only) RNG
        // consumer of the round.
        if P::ENABLED {
            probe.gauge(Gauge::ClaimedRadius, screened.read_margin);
            probe.gauge(Gauge::SvMargin, screened.sv_margin());
        }
        probe.span_begin(Phase::SvScreen);
        let outcome = match self.sv.process(screened.sv_margin(), rng) {
            Ok(o) => o,
            Err(DpError::SparseVectorHalted) => {
                self.halted = true;
                return Err(PmwError::Halted);
            }
            Err(e) => return Err(e.into()),
        };
        probe.span_end(Phase::SvScreen);

        match outcome {
            SvOutcome::Bottom => {
                // Free answers leave the backend untouched, but a prior
                // failed round may have queued rollback events: drain
                // here too, so nothing waits on the next `⊤` round.
                let events = self.state.take_events();
                if !events.is_empty() {
                    self.transcript.record_backend_events(events);
                }
                probe.counter(Counter::FreeAnswers, batch.len() as u64);
                self.transcript.record_free(batch.len());
                Ok(Decision::Free)
            }
            SvOutcome::Top => Ok(Decision::Update {
                index,
                answer: self.commit_top_inner(loss, retained, screened, rng, probe),
            }),
        }
    }

    /// The serialized write phase of an above-threshold round: private
    /// oracle answer + dual-certificate MW update + all round
    /// bookkeeping.
    fn commit_top_inner<P: Probe>(
        &mut self,
        loss: &dyn CmLoss,
        retained: Option<Arc<dyn CmLoss>>,
        screened: &ScreenedQuery,
        rng: &mut dyn Rng,
        probe: &P,
    ) -> Result<Vec<f64>, PmwError> {
        let diagnostics = self.config.diagnostics;
        let data = &self.ctx.data;
        // The sparse vector consumed its top *before* this phase runs,
        // so from here the round is burned no matter how the oracle or
        // the update fares: every exit path below must advance
        // `update_round`, charge the accountant, record the round in the
        // transcript and mirror SV's halt state, or the mechanism's
        // counters drift one round behind `sv.tops_used()` (and
        // `updates_remaining` lies — the desync this block
        // regression-tests against).
        //
        // The per-round oracle budget is charged up front:
        // conservatively, a failing oracle may already have consumed its
        // budget before erroring.
        self.accountant
            .spend("erm-oracle", self.derived.oracle_budget);
        // One oracle call per round: a failed solve burns the consumed SV
        // top as `UpdateFailed`.
        probe.span_begin(Phase::OracleSolve);
        let solved = self
            .oracle
            .solve(
                loss,
                data.points(),
                data.weights(),
                data.n(),
                self.derived.oracle_budget,
                rng,
            )
            .map_err(PmwError::from);
        probe.span_end(Phase::OracleSolve);
        if P::ENABLED {
            if let Ok(total) = self.accountant.basic_total() {
                probe.gauge(Gauge::EpsSpent, total.epsilon());
                probe.gauge(Gauge::DeltaSpent, total.delta());
            }
        }
        probe.span_begin(Phase::Update);
        let applied = match solved {
            Ok(theta_t) => self
                .state
                .apply_update(
                    loss,
                    retained,
                    data.points(),
                    &theta_t,
                    &screened.theta_hat,
                    self.derived.eta,
                    diagnostics.then(|| data.weights()),
                    rng,
                )
                .map(|gap| (theta_t, gap)),
            Err(e) => Err(e),
        };
        probe.span_end(Phase::Update);
        // Backends with self-maintenance report what they did during the
        // update: a compaction, or a `RoundRolledBack` marker when a
        // transactional round failed, so the transcript records the
        // rollback beside the failed round.
        let events = self.state.take_events();
        if !events.is_empty() {
            self.transcript.record_backend_events(events);
        }
        let round = self.update_round;
        self.update_round += 1;
        // The sparse vector halts on its `T`-th top (`max_top == rounds`),
        // the round that spends the last update slot.
        if self.sv.has_halted() {
            self.halted = true;
        }
        let (outcome, answer, certificate_gap, result) = match applied {
            Ok((theta_t, gap)) => {
                probe.counter(Counter::UpdateRounds, 1);
                (QueryOutcome::FromOracle, theta_t.clone(), gap, Ok(theta_t))
            }
            Err(e) => {
                probe.counter(Counter::FailedRounds, 1);
                (QueryOutcome::UpdateFailed, Vec::new(), None, Err(e))
            }
        };
        self.transcript.push(QueryRecord {
            index: self.transcript.len(),
            loss_name: loss.name(),
            outcome,
            answer,
            update_round: Some(round),
            error_query_value: diagnostics.then_some(screened.query_value),
            certificate_gap,
        });
        result
    }

    /// Publish an immutable, `Send + Sync` snapshot of the current
    /// hypothesis state. Lock-free readers answer the SV-`⊥` path against
    /// it while the writer keeps committing updates; a snapshot's answers
    /// never change after publication.
    pub fn snapshot(&self) -> Result<Arc<dyn ReadSnapshot>, PmwError> {
        self.state.snapshot()
    }

    /// The screen-phase inputs (the data side, shared behind an `Arc`,
    /// plus the solver and scale parameters) — what a serving layer hands
    /// each analyst so screens run without borrowing the mechanism.
    pub fn screen_context(&self) -> ScreenContext {
        self.ctx.clone()
    }

    /// Draw an `m`-row synthetic dataset from the hypothesis state (a
    /// post-processing of private outputs, so free to release).
    pub fn synthetic_dataset(&self, m: usize, rng: &mut dyn Rng) -> Result<Dataset, PmwError> {
        if m == 0 {
            return Err(PmwError::Data(pmw_data::DataError::EmptyDataset));
        }
        let rows = self.state.sample_indices(m, rng)?;
        Ok(Dataset::from_indices(self.state.universe_size(), rows)?)
    }

    /// The state backend holding `D̂_t`.
    pub fn state(&self) -> &B {
        &self.state
    }

    /// The dense hypothesis histogram, when the backend maintains one
    /// (always for [`DenseBackend`]; `None` for sketching backends).
    pub fn dense_hypothesis(&self) -> Option<&Histogram> {
        self.state.dense_hypothesis()
    }

    /// The derived Figure-3 parameters in force.
    pub fn derived(&self) -> &DerivedParams {
        &self.derived
    }

    /// The materialized universe points (public information), on the
    /// dense data side; `None` on the support-row form, which never
    /// materializes the universe.
    pub fn universe_points(&self) -> Option<&PointMatrix> {
        self.ctx.data.universe_points()
    }

    /// The **raw private** Θ(|X|) data histogram, on the dense data side
    /// (the support-row form keeps no `|X|`-sized data structure). For
    /// curator-side diagnostics (e.g. measuring true excess risk in the
    /// accuracy game) only — never release anything derived from it
    /// without going through a mechanism.
    pub fn data_histogram(&self) -> Option<&Histogram> {
        self.ctx.data.histogram()
    }

    /// The **raw private** data-side point set: the universe matrix with
    /// histogram weights on the dense form, the dataset's support rows
    /// with empirical weights on the row form. Together with
    /// [`OnlinePmw::data_weights`] this evaluates any empirical objective
    /// exactly on either form. Curator-side diagnostics only — same
    /// warning as [`OnlinePmw::data_histogram`].
    pub fn data_points(&self) -> &PointMatrix {
        self.ctx.data.points()
    }

    /// The weights paired with [`OnlinePmw::data_points`] (they sum to 1).
    pub fn data_weights(&self) -> &[f64] {
        self.ctx.data.weights()
    }

    /// The configuration.
    pub fn config(&self) -> &PmwConfig {
        &self.config
    }

    /// Run transcript: a record per update round and the count of every
    /// answered query.
    pub fn transcript(&self) -> &Transcript {
        &self.transcript
    }

    /// The privacy ledger (sparse vector + every oracle call so far).
    pub fn accountant(&self) -> &Accountant {
        &self.accountant
    }

    /// Updates consumed so far (`t` in Figure 3).
    pub fn updates_used(&self) -> usize {
        self.update_round
    }

    /// Update slots remaining before the mechanism halts. Saturating: the
    /// invariant `updates_used() + updates_remaining() == T` holds on
    /// every path, and even a hypothetical overshoot reports 0 rather
    /// than panicking on underflow.
    pub fn updates_remaining(&self) -> usize {
        self.derived.rounds.saturating_sub(self.update_round)
    }

    /// True once the update budget is exhausted.
    pub fn has_halted(&self) -> bool {
        self.halted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmw_data::BooleanCube;
    use pmw_erm::ExactOracle;
    use pmw_losses::{LinearQueryLoss, PointPredicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn non_finite_error_query_is_refused() {
        // `(hat - star).max(0.0)` reads each of these as a perfect
        // hypothesis (0) or an unbounded error (∞).
        let inf = f64::INFINITY;
        for (hat, star) in [
            (f64::NAN, 0.1),
            (0.1, f64::NAN),
            (inf, 0.1),
            (-inf, 0.1),
            (0.1, -inf),
            (0.1, inf),
            (inf, inf),
        ] {
            assert!(
                matches!(
                    error_query_value(hat, star),
                    Err(PmwError::Dp(DpError::NonFinite(_)))
                ),
                "{hat} - {star}"
            );
        }
        // Finite differences keep their bits, floored at 0.
        assert_eq!(
            error_query_value(0.3, 0.1).unwrap().to_bits(),
            (0.3f64 - 0.1).to_bits()
        );
        assert_eq!(error_query_value(0.1, 0.1 + 1e-12).unwrap().to_bits(), 0);
    }

    fn config(k: usize, rounds: usize, alpha: f64) -> PmwConfig {
        PmwConfig::builder(2.0, 1e-6, alpha)
            .k(k)
            .rounds_override(rounds)
            .scale(1.0) // linear-query losses have S = 1
            .solver_iters(300)
            .diagnostics(true)
            .build()
            .unwrap()
    }

    /// Linear-query losses over a boolean cube universe: thresholds on
    /// single bits (the conjunction predicate).
    fn bit_losses(cube: &BooleanCube) -> Vec<LinearQueryLoss> {
        (0..cube.dim())
            .map(|b| {
                LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![b] }, cube.dim())
                    .unwrap()
            })
            .collect()
    }

    /// A skewed dataset over the cube: bit 0 almost always set, others fair.
    fn skewed_dataset(cube: &BooleanCube, n: usize, rng: &mut StdRng) -> Dataset {
        let biases: Vec<f64> = (0..cube.dim())
            .map(|b| if b == 0 { 0.95 } else { 0.5 })
            .collect();
        let pop = pmw_data::synth::product_population(cube, &biases).unwrap();
        Dataset::sample_from(&pop, n, rng).unwrap()
    }

    #[test]
    fn construction_validates_universe_match() {
        let mut rng = StdRng::seed_from_u64(121);
        let cube = BooleanCube::new(3).unwrap();
        let ds = Dataset::from_indices(9, vec![0, 1]).unwrap();
        assert!(OnlinePmw::new(config(4, 2, 0.3), &cube, ds, &mut rng).is_err());
    }

    #[test]
    fn answers_are_feasible_and_transcript_grows() {
        let mut rng = StdRng::seed_from_u64(122);
        let cube = BooleanCube::new(4).unwrap();
        let data = skewed_dataset(&cube, 800, &mut rng);
        let mut mech = OnlinePmw::with_oracle(
            config(8, 6, 0.2),
            &cube,
            data,
            ExactOracle::default(),
            &mut rng,
        )
        .unwrap();
        let losses = bit_losses(&cube);
        for loss in losses.iter().take(4) {
            let theta = mech.answer(loss, &mut rng).unwrap();
            assert_eq!(theta.len(), 1);
            assert!((0.0..=1.0).contains(&theta[0]), "{}", theta[0]);
        }
        assert_eq!(mech.transcript().len(), 4);
        assert!(mech.updates_used() <= 4);
    }

    #[test]
    fn accurate_answers_on_skewed_bit() {
        // The uniform hypothesis answers "fraction with bit 0 set" as 0.5,
        // but the data has 0.95: the mechanism must update and converge.
        let mut rng = StdRng::seed_from_u64(123);
        let cube = BooleanCube::new(4).unwrap();
        let data = skewed_dataset(&cube, 2000, &mut rng);
        let true_answer = {
            let h = data.histogram();
            (0..cube.size())
                .filter(|&x| cube.bit(x, 0))
                .map(|x| h.mass(x))
                .sum::<f64>()
        };
        let mut mech = OnlinePmw::with_oracle(
            config(12, 8, 0.15),
            &cube,
            data,
            ExactOracle::default(),
            &mut rng,
        )
        .unwrap();
        let loss = &bit_losses(&cube)[0];
        // Ask the same query a few times; after at most one update it must
        // be answered accurately.
        let mut last = f64::NAN;
        for _ in 0..3 {
            last = mech.answer(loss, &mut rng).unwrap()[0];
        }
        // The guarantee is on excess risk: for the quadratic linear-query
        // encoding err = (answer - truth)^2 / 2 <= alpha.
        let excess = 0.5 * (last - true_answer) * (last - true_answer);
        assert!(
            excess <= 0.15 + 0.05,
            "excess risk {excess} (answer {last} vs true {true_answer})"
        );
    }

    #[test]
    fn halts_after_t_updates_then_errors() {
        let mut rng = StdRng::seed_from_u64(124);
        let cube = BooleanCube::new(3).unwrap();
        let data = skewed_dataset(&cube, 500, &mut rng);
        // rounds = 1: the first above-threshold query exhausts the budget.
        let mut mech = OnlinePmw::with_oracle(
            config(20, 1, 0.1),
            &cube,
            data,
            ExactOracle::default(),
            &mut rng,
        )
        .unwrap();
        let losses = bit_losses(&cube);
        let mut halted = false;
        for j in 0..20 {
            match mech.answer(&losses[j % losses.len()], &mut rng) {
                Ok(_) => {}
                Err(PmwError::Halted) => {
                    halted = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(halted || mech.updates_used() <= 1);
        if halted {
            assert!(matches!(
                mech.answer(&losses[0], &mut rng),
                Err(PmwError::Halted)
            ));
        }
    }

    #[test]
    fn query_limit_enforced() {
        let mut rng = StdRng::seed_from_u64(125);
        let cube = BooleanCube::new(3).unwrap();
        let data = skewed_dataset(&cube, 500, &mut rng);
        let mut mech = OnlinePmw::with_oracle(
            config(2, 8, 0.3),
            &cube,
            data,
            ExactOracle::default(),
            &mut rng,
        )
        .unwrap();
        let loss = &bit_losses(&cube)[1];
        let _ = mech.answer(loss, &mut rng).unwrap();
        let _ = mech.answer(loss, &mut rng).unwrap();
        assert!(matches!(
            mech.answer(loss, &mut rng),
            Err(PmwError::QueryLimitReached)
        ));
    }

    #[test]
    fn privacy_ledger_stays_within_declared_budget() {
        let mut rng = StdRng::seed_from_u64(126);
        let cube = BooleanCube::new(4).unwrap();
        let data = skewed_dataset(&cube, 800, &mut rng);
        let cfg = config(16, 6, 0.15);
        let declared = cfg.budget;
        let mut mech =
            OnlinePmw::with_oracle(cfg, &cube, data, ExactOracle::default(), &mut rng).unwrap();
        let losses = bit_losses(&cube);
        for j in 0..16 {
            match mech.answer(&losses[j % losses.len()], &mut rng) {
                Ok(_) | Err(PmwError::Halted) => {}
                Err(e) => panic!("{e}"),
            }
            if mech.has_halted() {
                break;
            }
        }
        let total = mech
            .accountant()
            .best_total(declared.delta() / 4.0)
            .unwrap();
        assert!(
            total.epsilon() <= declared.epsilon() + 1e-9,
            "spent {} declared {}",
            total.epsilon(),
            declared.epsilon()
        );
        assert!(total.delta() <= declared.delta() + 1e-12);
    }

    #[test]
    fn free_queries_do_not_spend_oracle_budget() {
        // A uniform dataset: the uniform hypothesis is already correct, so
        // every query should be answered free with zero oracle calls.
        let mut rng = StdRng::seed_from_u64(127);
        let cube = BooleanCube::new(3).unwrap();
        // n large enough that the SV noise (scale ~ 3S*sqrt(T)/(n*eps)) sits
        // far below the alpha/2 bottom threshold.
        let rows: Vec<usize> = (0..16_000).map(|i| i % 8).collect();
        let data = Dataset::from_indices(8, rows).unwrap();
        let rounds = 4;
        let mut mech = OnlinePmw::with_oracle(
            config(usize::MAX, rounds, 0.2),
            &cube,
            data,
            ExactOracle::default(),
            &mut rng,
        )
        .unwrap();
        let losses = bit_losses(&cube);
        for loss in &losses {
            let a = mech.answer(loss, &mut rng).unwrap();
            assert!((a[0] - 0.5).abs() < 0.05, "{}", a[0]);
        }
        assert_eq!(mech.updates_used(), 0);
        assert_eq!(mech.transcript().updates(), 0);
        // Ledger holds only the SV entry.
        assert_eq!(mech.accountant().len(), 1);
        // Over ~10^4 answers the SV noise may still clear the threshold a
        // few times. The transcript counts every answer but keeps a
        // record only per update round, so it stays bounded by T.
        let answers = 10_000;
        for j in losses.len()..answers {
            let a = mech.answer(&losses[j % losses.len()], &mut rng).unwrap();
            assert!((a[0] - 0.5).abs() < 0.05, "{}", a[0]);
        }
        assert_eq!(mech.transcript().len(), answers);
        assert_eq!(mech.transcript().records().len(), mech.updates_used());
        assert!(mech.transcript().records().len() <= rounds);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let cube = BooleanCube::new(3).unwrap();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            // n large enough that the SV noise (scale 4·(3S/n)/ε₁ ≈ 0.03)
            // sits far below the bit-0 error query value (~0.1): the oracle
            // path — whose answer depends on the seed through the sampled
            // dataset — then fires for every seed, making cross-seed
            // differences certain rather than left to a noise coin flip.
            let data = skewed_dataset(&cube, 8000, &mut rng);
            let mut mech = OnlinePmw::with_oracle(
                config(4, 3, 0.05),
                &cube,
                data,
                ExactOracle::default(),
                &mut rng,
            )
            .unwrap();
            bit_losses(&cube)
                .iter()
                .take(3)
                .map(|l| mech.answer(l, &mut rng).unwrap()[0])
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(99), run(99));
        // Different seeds should (almost surely) differ somewhere.
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn synthetic_dataset_reflects_learned_histogram() {
        let mut rng = StdRng::seed_from_u64(128);
        let cube = BooleanCube::new(3).unwrap();
        // n large enough (SV noise scale ∝ 1/n) and alpha well under the
        // bit-0 error query value (~0.1), so the MW updates that skew the
        // hypothesis fire decisively instead of hinging on noise draws.
        let data = skewed_dataset(&cube, 20_000, &mut rng);
        let mut mech = OnlinePmw::with_oracle(
            config(10, 6, 0.05),
            &cube,
            data,
            ExactOracle::default(),
            &mut rng,
        )
        .unwrap();
        let loss = &bit_losses(&cube)[0];
        for _ in 0..4 {
            if mech.answer(loss, &mut rng).is_err() {
                break;
            }
        }
        let synth = mech.synthetic_dataset(4000, &mut rng).unwrap();
        let sh = synth.histogram();
        let bit0: f64 = (0..8).filter(|&x| x & 1 == 1).map(|x| sh.mass(x)).sum();
        assert!(bit0 > 0.6, "synthetic data should reflect the skew: {bit0}");
    }

    /// An oracle that always errors — the regression stub for the
    /// SV/oracle round-accounting desync: the sparse vector consumes its
    /// top before the oracle runs, so a failing oracle used to leave SV
    /// one round ahead of `update_round`, the accountant and the
    /// transcript.
    struct FailingOracle;

    impl ErmOracle for FailingOracle {
        fn solve(
            &self,
            _loss: &dyn CmLoss,
            _points: &PointMatrix,
            _weights: &[f64],
            _n: usize,
            _budget: pmw_dp::PrivacyBudget,
            _rng: &mut dyn Rng,
        ) -> Result<Vec<f64>, pmw_erm::ErmError> {
            Err(pmw_erm::ErmError::InvalidParameter(
                "stub oracle always fails",
            ))
        }

        fn name(&self) -> &'static str {
            "failing-stub"
        }
    }

    #[test]
    fn failed_oracle_rounds_stay_in_sync_with_sparse_vector() {
        // n large and alpha small so the bit-0 error query (~0.1) fires
        // the sparse vector deterministically on every ask: each answer
        // burns an update round through the failing oracle.
        let mut rng = StdRng::seed_from_u64(131);
        let cube = BooleanCube::new(3).unwrap();
        let data = skewed_dataset(&cube, 8000, &mut rng);
        let rounds = 3;
        let mut mech = OnlinePmw::with_oracle(
            config(40, rounds, 0.05),
            &cube,
            data,
            FailingOracle,
            &mut rng,
        )
        .unwrap();
        let loss = &bit_losses(&cube)[0];
        let mut burned = 0;
        let mut asked = 0;
        while burned < rounds {
            asked += 1;
            assert!(asked < 40, "sparse vector never fired");
            match mech.answer(loss, &mut rng) {
                // An (unlikely but possible) noise draw answered ⊥: a free
                // hypothesis answer, nothing burned.
                Ok(_) => continue,
                Err(PmwError::Erm(_)) => burned += 1,
                other => panic!("expected oracle failure, got {other:?}"),
            }
            // The consumed SV round is recorded everywhere, not just
            // inside the sparse vector.
            assert_eq!(mech.updates_used(), burned);
            assert_eq!(mech.updates_remaining(), rounds - burned);
            assert_eq!(mech.updates_used() + mech.updates_remaining(), rounds);
            assert_eq!(mech.transcript().len(), asked);
            assert_eq!(mech.transcript().updates(), burned);
            // Ledger: the SV entry plus one conservative oracle charge
            // per burned round.
            assert_eq!(mech.accountant().len(), 1 + burned);
            let record = mech.transcript().records().last().unwrap();
            assert_eq!(record.outcome, QueryOutcome::UpdateFailed);
            assert_eq!(record.update_round, Some(burned - 1));
            assert!(record.answer.is_empty());
        }
        // The third top exhausted SV: the mechanism halts in the same
        // breath instead of advertising phantom update slots.
        assert!(mech.has_halted());
        assert_eq!(mech.updates_remaining(), 0);
        assert!(matches!(mech.answer(loss, &mut rng), Err(PmwError::Halted)));
    }

    /// An oracle that fails its first `failures` solves, then delegates to
    /// the exact oracle — the transient-failure stub.
    struct FlakyOracle {
        failures: std::cell::Cell<usize>,
        inner: ExactOracle,
    }

    impl FlakyOracle {
        fn failing_once() -> Self {
            Self {
                failures: std::cell::Cell::new(1),
                inner: ExactOracle::default(),
            }
        }
    }

    impl ErmOracle for FlakyOracle {
        fn solve(
            &self,
            loss: &dyn CmLoss,
            points: &PointMatrix,
            weights: &[f64],
            n: usize,
            budget: pmw_dp::PrivacyBudget,
            rng: &mut dyn Rng,
        ) -> Result<Vec<f64>, pmw_erm::ErmError> {
            let left = self.failures.get();
            if left > 0 {
                self.failures.set(left - 1);
                return Err(pmw_erm::ErmError::InvalidParameter(
                    "transient stub failure",
                ));
            }
            self.inner.solve(loss, points, weights, n, budget, rng)
        }

        fn name(&self) -> &'static str {
            "flaky-stub"
        }
    }

    #[test]
    fn one_failed_oracle_call_burns_its_round() {
        // One oracle call per round: a flaky oracle's single failure burns
        // its slot, although a second call would have succeeded.
        let mut rng = StdRng::seed_from_u64(136);
        let cube = BooleanCube::new(3).unwrap();
        let data = skewed_dataset(&cube, 8000, &mut rng);
        let mut mech = OnlinePmw::with_oracle(
            config(10, 3, 0.05),
            &cube,
            data,
            FlakyOracle::failing_once(),
            &mut rng,
        )
        .unwrap();
        let loss = &bit_losses(&cube)[0];
        let mut asked = 0;
        loop {
            asked += 1;
            assert!(asked < 40, "sparse vector never fired");
            match mech.answer(loss, &mut rng) {
                Ok(_) if mech.updates_used() == 0 => continue, // ⊥ draw
                Ok(_) => break,                                // second top: the stub now succeeds
                Err(PmwError::Erm(_)) => {
                    // The single transient failure burned its round,
                    // under the one up-front oracle charge.
                    assert_eq!(mech.updates_used(), 1);
                    let record = mech.transcript().records().last().unwrap();
                    assert_eq!(record.outcome, QueryOutcome::UpdateFailed);
                    assert_eq!(mech.accountant().len(), 2);
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// A dense-delegating backend whose snapshots claim a large read
    /// radius — the stub for the sketched-state SV margin widening.
    struct WideReadBackend(DenseBackend);

    impl StateBackend for WideReadBackend {
        fn universe_size(&self) -> usize {
            self.0.universe_size()
        }

        fn updates_recorded(&self) -> usize {
            self.0.updates_recorded()
        }

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
        ) -> Result<Option<f64>, PmwError> {
            self.0.apply_update(
                loss,
                retained,
                points,
                theta_oracle,
                theta_hyp,
                eta,
                gap_weights,
                rng,
            )
        }

        fn sample_indices(&self, m: usize, rng: &mut dyn Rng) -> Result<Vec<usize>, PmwError> {
            self.0.sample_indices(m, rng)
        }

        fn snapshot(&self) -> Result<Arc<dyn ReadSnapshot>, PmwError> {
            struct WideReadSnapshot(Arc<dyn ReadSnapshot>);

            impl ReadSnapshot for WideReadSnapshot {
                fn updates_recorded(&self) -> usize {
                    self.0.updates_recorded()
                }

                fn hypothesis_minimizer(
                    &self,
                    loss: &dyn CmLoss,
                    points: &PointMatrix,
                    solver_iters: usize,
                ) -> Result<Vec<f64>, PmwError> {
                    self.0.hypothesis_minimizer(loss, points, solver_iters)
                }

                fn read_radius(&self, _scale: f64) -> f64 {
                    10.0
                }
            }

            Ok(Arc::new(WideReadSnapshot(self.0.snapshot()?)))
        }
    }

    #[test]
    fn sv_margin_widens_by_the_backend_read_radius() {
        // Uniform data: on the exact backend every query is a free ⊥
        // (`free_queries_do_not_spend_oracle_budget`). A backend claiming
        // a huge read radius cannot certify any ⊥ — the widened margin
        // pushes every query above threshold, so the first answer consumes
        // an update round.
        let mut rng = StdRng::seed_from_u64(137);
        let cube = BooleanCube::new(3).unwrap();
        let rows: Vec<usize> = (0..16_000).map(|i| i % 8).collect();
        let data = Dataset::from_indices(8, rows).unwrap();
        let state = WideReadBackend(DenseBackend::new(8).unwrap());
        let mut mech = OnlinePmw::with_backend(
            config(6, 4, 0.2),
            DataSide::from_universe(&cube, &data).unwrap(),
            ExactOracle::default(),
            state,
            &mut rng,
        )
        .unwrap();
        let loss = &bit_losses(&cube)[0];
        let a = mech.answer(loss, &mut rng).unwrap();
        assert!((a[0] - 0.5).abs() < 0.05, "{}", a[0]);
        assert_eq!(
            mech.updates_used(),
            1,
            "the widened margin must force the oracle path"
        );
    }

    #[test]
    fn single_round_oracle_failure_halts_without_underflow() {
        // rounds = 1: before the fix this left updates_used() == 0 with
        // SV already halted, so updates_remaining() advertised a free
        // slot (and the subtraction could underflow under further
        // desync). Now the burned round halts the mechanism cleanly.
        let mut rng = StdRng::seed_from_u64(132);
        let cube = BooleanCube::new(3).unwrap();
        let data = skewed_dataset(&cube, 8000, &mut rng);
        let mut mech =
            OnlinePmw::with_oracle(config(40, 1, 0.05), &cube, data, FailingOracle, &mut rng)
                .unwrap();
        let loss = &bit_losses(&cube)[0];
        let mut asked = 0;
        loop {
            asked += 1;
            assert!(asked < 40, "sparse vector never fired");
            match mech.answer(loss, &mut rng) {
                Ok(_) => continue, // noise said ⊥; ask again
                Err(PmwError::Erm(_)) => break,
                other => panic!("expected oracle failure, got {other:?}"),
            }
        }
        assert!(mech.has_halted());
        assert_eq!(mech.updates_used(), 1);
        assert_eq!(mech.updates_remaining(), 0);
        assert!(matches!(mech.answer(loss, &mut rng), Err(PmwError::Halted)));
    }

    #[test]
    fn update_accounting_invariant_holds_on_the_success_path() {
        let mut rng = StdRng::seed_from_u64(133);
        let cube = BooleanCube::new(4).unwrap();
        let data = skewed_dataset(&cube, 2000, &mut rng);
        let rounds = 4;
        let mut mech = OnlinePmw::with_oracle(
            config(16, rounds, 0.1),
            &cube,
            data,
            ExactOracle::default(),
            &mut rng,
        )
        .unwrap();
        let losses = bit_losses(&cube);
        for j in 0..16 {
            match mech.answer(&losses[j % losses.len()], &mut rng) {
                Ok(_) | Err(PmwError::Halted) => {}
                Err(e) => panic!("{e}"),
            }
            assert_eq!(
                mech.updates_used() + mech.updates_remaining(),
                rounds,
                "invariant broken after query {j}"
            );
            assert_eq!(mech.transcript().updates(), mech.updates_used());
            if mech.has_halted() {
                break;
            }
        }
    }

    #[test]
    fn point_source_construction_rejects_universe_sweeping_backends() {
        let mut rng = StdRng::seed_from_u64(134);
        let cube = BooleanCube::new(3).unwrap();
        let dataset = Dataset::from_indices(8, vec![0, 1, 2]).unwrap();
        let source = pmw_data::UniversePoints(cube);
        let state = DenseBackend::new(8).unwrap();
        assert!(matches!(
            OnlinePmw::with_backend(
                config(4, 2, 0.3),
                DataSide::from_source(&source, &dataset).unwrap(),
                ExactOracle::default(),
                state,
                &mut rng,
            ),
            Err(PmwError::InvalidConfig(_))
        ));
    }

    /// Every round and span event, with the thread that reported it.
    #[derive(Default)]
    struct EventLog(std::cell::RefCell<Vec<(String, std::thread::ThreadId)>>);

    impl EventLog {
        fn push(&self, event: String) {
            let thread = std::thread::current().id();
            self.0.borrow_mut().push((event, thread));
        }
    }

    impl Probe for EventLog {
        fn round_begin(&self, round: usize) {
            self.push(format!("round {round}"));
        }
        fn round_end(&self, round: usize, outcome: &'static str) {
            self.push(format!("end {round} {outcome}"));
        }
        fn span_begin(&self, phase: Phase) {
            self.push(format!("begin {phase}"));
        }
        fn span_end(&self, phase: Phase) {
            self.push(format!("end {phase}"));
        }
    }

    /// What one run of the fork test observed, as bits.
    struct Observed {
        answers: Vec<Vec<u64>>,
        error_queries: Vec<Option<u64>>,
        ledger: Vec<(String, u64, u64)>,
        next_draw: u64,
        events: Vec<String>,
        updates: usize,
    }

    #[test]
    fn forked_error_query_solve_is_bit_identical_to_the_serial_one() {
        use pmw_losses::catalog::{random_classification_tasks, random_regression_tasks};
        use pmw_losses::LinkFn;
        use rand::RngExt;

        assert_eq!(pmw_data::par::with_threads(2, pmw_data::par::threads), 2);
        let cube = BooleanCube::scaled(10).unwrap();
        let run = |threads: usize| {
            pmw_data::par::with_threads(threads, || {
                let mut rng = StdRng::seed_from_u64(171);
                let data = skewed_dataset(&cube, 20_000, &mut rng);
                // Room for the linear queries' updates: at 6 rounds the run
                // halts before its 20th answer.
                let config = PmwConfig::builder(2.0, 1e-6, 0.05)
                    .k(24)
                    .rounds_override(12)
                    .solver_iters(100)
                    .diagnostics(true)
                    .build()
                    .unwrap();
                let mut mech = OnlinePmw::new(config, &cube, data, &mut rng).unwrap();
                assert!(mech.data_points().len() * 100 >= FORK_POINT_ITERS);
                let mut tasks: Vec<Box<dyn CmLoss>> = Vec::new();
                let regress = random_regression_tasks(10, 3, LinkFn::Squared, &mut rng).unwrap();
                let classify = random_classification_tasks(10, 3, LinkFn::Logistic, &mut rng);
                for task in regress.into_iter().chain(classify.unwrap()) {
                    tasks.push(Box::new(task));
                }
                // Linear queries take the objective's quadratic path and
                // count one pass over the 1024 points, so they are solved
                // on the calling thread at either worker count. The cube's
                // coordinates are ±1/√10, so bit b is set where x_b ≥ 0.
                let linear = [
                    PointPredicate::Threshold {
                        coord: 0,
                        threshold: 0.0,
                        at_least: true,
                    },
                    PointPredicate::Threshold {
                        coord: 3,
                        threshold: 0.0,
                        at_least: true,
                    },
                    PointPredicate::Halfspace {
                        normal: (0..10).map(|b| if b < 2 { 1.0 } else { 0.0 }).collect(),
                        offset: 0.0,
                    },
                    PointPredicate::Linear {
                        weights: (0..10).map(|b| 0.3 + 0.1 * b as f64).collect(),
                        offset: 0.5,
                    },
                ];
                for predicate in linear {
                    tasks.push(Box::new(LinearQueryLoss::new(predicate, 10).unwrap()));
                }
                let probe = EventLog::default();
                let ctx = mech.screen_context();
                // Free rounds keep no record: take every round's error
                // query from a screen of the same snapshot, which draws no
                // rng and changes nothing, and the update rounds' from
                // their records too.
                let mut error_queries = Vec::new();
                let answers = (0..20)
                    .map(|j| {
                        let task = tasks[j % tasks.len()].as_ref();
                        let screened = ctx.screen(mech.snapshot().unwrap().as_ref(), task);
                        error_queries.push(Some(screened.unwrap().query_value().to_bits()));
                        let theta = mech.answer_with_probe(task, &mut rng, &probe).unwrap();
                        theta.iter().map(|v| v.to_bits()).collect()
                    })
                    .collect();
                let records = mech.transcript().records().iter();
                error_queries.extend(records.map(|r| r.error_query_value.map(f64::to_bits)));
                let ledger = mech
                    .accountant()
                    .entries()
                    .iter()
                    .map(|e| {
                        let (eps, delta) = (e.budget.epsilon(), e.budget.delta());
                        (e.label.clone(), eps.to_bits(), delta.to_bits())
                    })
                    .collect();
                // Every span stays on the calling thread, forked or not.
                let caller = std::thread::current().id();
                let events = probe
                    .0
                    .into_inner()
                    .into_iter()
                    .map(|(event, thread)| {
                        assert_eq!(thread, caller, "{event} reported off the calling thread");
                        event
                    })
                    .collect();
                Observed {
                    answers,
                    error_queries,
                    ledger,
                    next_draw: rng.random(),
                    events,
                    updates: mech.updates_used(),
                }
            })
        };
        let (serial, forked) = (run(1), run(2));
        // The mix has both free and update rounds.
        let updates = serial.updates;
        assert!(
            updates > 0 && updates < serial.answers.len(),
            "{updates} updates"
        );
        assert_eq!(serial.answers, forked.answers, "answers");
        assert_eq!(
            serial.error_queries, forked.error_queries,
            "error query values"
        );
        assert_eq!(serial.ledger, forked.ledger, "ledger");
        assert_eq!(serial.next_draw, forked.next_draw, "next rng draw");
        assert_eq!(serial.events, forked.events, "span sequence");
    }

    /// A loss without its quadratic structure: `is_glm`, `glm_link`,
    /// `glm_label` and `quadratic_target` keep their defaults, so every
    /// objective over it takes the per-point path. (`is_glm` goes too: the
    /// automatic oracle choice would otherwise pick the GLM oracle, which
    /// needs the link. At d = 10 that oracle runs the noisy gradient
    /// descent the wrapper gets, unprojected, with the same draws.)
    /// Everything else, the certificate sweep included, is forwarded.
    struct Unstructured(Box<dyn CmLoss>);

    impl CmLoss for Unstructured {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn domain(&self) -> &pmw_convex::Domain {
            self.0.domain()
        }
        fn point_dim(&self) -> usize {
            self.0.point_dim()
        }
        fn loss(&self, theta: &[f64], x: &[f64]) -> f64 {
            self.0.loss(theta, x)
        }
        fn gradient(&self, theta: &[f64], x: &[f64], out: &mut [f64]) {
            self.0.gradient(theta, x, out)
        }
        fn certificate_batch(
            &self,
            theta_hyp: &[f64],
            direction: &[f64],
            points: &PointMatrix,
            out: &mut [f64],
        ) {
            self.0.certificate_batch(theta_hyp, direction, points, out)
        }
        fn lipschitz(&self) -> f64 {
            self.0.lipschitz()
        }
        fn strong_convexity(&self) -> f64 {
            self.0.strong_convexity()
        }
        fn smoothness(&self) -> Option<f64> {
            self.0.smoothness()
        }
        fn scale_bound(&self) -> f64 {
            self.0.scale_bound()
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    /// Squared regressions and linear queries solve from their sufficient
    /// statistics, which round differently from the per-point sums; the
    /// mechanism still makes the same decisions: the same update rounds,
    /// and every answer within 1e-9 of the per-point run's.
    #[test]
    fn quadratic_objectives_keep_the_per_point_decisions() {
        use pmw_losses::catalog::random_regression_tasks;
        use pmw_losses::LinkFn;

        let cube = BooleanCube::scaled(10).unwrap();
        let run = |hide: bool| {
            let mut rng = StdRng::seed_from_u64(191);
            let data = skewed_dataset(&cube, 20_000, &mut rng);
            let config = PmwConfig::builder(2.0, 1e-6, 0.05)
                .k(48)
                .rounds_override(24)
                .solver_iters(100)
                .build()
                .unwrap();
            let mut mech = OnlinePmw::new(config, &cube, data, &mut rng).unwrap();
            let regress = random_regression_tasks(10, 4, LinkFn::Squared, &mut rng).unwrap();
            let mut tasks: Vec<Box<dyn CmLoss>> = Vec::new();
            for task in regress {
                tasks.push(Box::new(task));
            }
            // The cube's coordinates are ±1/√10: bit b is set where
            // x_b ≥ 0.
            for b in [0, 3, 6] {
                let predicate = PointPredicate::Threshold {
                    coord: b,
                    threshold: 0.0,
                    at_least: true,
                };
                tasks.push(Box::new(LinearQueryLoss::new(predicate, 10).unwrap()));
            }
            let linear = PointPredicate::Linear {
                weights: (0..10).map(|b| 0.3 + 0.1 * b as f64).collect(),
                offset: 0.5,
            };
            tasks.push(Box::new(LinearQueryLoss::new(linear, 10).unwrap()));
            if hide {
                tasks = tasks
                    .into_iter()
                    .map(|task| Box::new(Unstructured(task)) as Box<dyn CmLoss>)
                    .collect();
            }
            let answers: Vec<Vec<f64>> = (0..48)
                .map(|j| {
                    let task = tasks[j % tasks.len()].as_ref();
                    mech.answer(task, &mut rng).unwrap()
                })
                .collect();
            let records = mech.transcript().records().iter();
            let rounds: Vec<usize> = records.map(|r| r.index).collect();
            (answers, rounds, mech.updates_used())
        };
        let (fast, per_point) = (run(false), run(true));
        let updates = fast.2;
        assert!(updates > 0 && updates < fast.0.len(), "{updates} updates");
        assert_eq!(updates, per_point.2, "updates used");
        assert_eq!(fast.1, per_point.1, "update rounds");
        for (j, (a, b)) in fast.0.iter().zip(&per_point.0).enumerate() {
            for (a, b) in a.iter().zip(b) {
                assert!((a - b).abs() <= 1e-9, "answer {j}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn rejects_mismatched_loss_dimension() {
        let mut rng = StdRng::seed_from_u64(129);
        let cube = BooleanCube::new(3).unwrap();
        let data = skewed_dataset(&cube, 100, &mut rng);
        let mut mech = OnlinePmw::new(config(4, 2, 0.3), &cube, data, &mut rng).unwrap();
        // A loss expecting 5-dimensional points on a 3-bit cube.
        let loss =
            LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![4] }, 5).unwrap();
        assert!(matches!(
            mech.answer(&loss, &mut rng),
            Err(PmwError::LossMismatch(_))
        ));
    }
}
