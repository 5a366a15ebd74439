//! Classic private multiplicative weights for linear queries.
//!
//! Linear queries are the special case the paper generalizes (Table 1 row 1).
//! Two variants are provided, matching the two lineages the paper cites:
//!
//! * [`LinearPmw`] — the **online** mechanism of Hardt–Rothblum \[HR10\]:
//!   sparse-vector screening, Laplace measurement of above-threshold
//!   queries, multiplicative-weights update. Structurally identical to
//!   Figure 3 with `u_t = ±q_t`, which is exactly the point of the paper's
//!   Section 1.2 discussion.
//! * [`Mwem`] — the **offline** MWEM algorithm of Hardt–Ligett–McSherry
//!   \[HLM12\]: all queries known up front, exponential-mechanism selection of
//!   the worst query each round, Laplace measurement, MW update, answers
//!   from the averaged hypothesis.
//!
//! Both mechanisms are generic over the [`StateBackend`] holding `D̂_t` and
//! over the [`PointQuery`] representation of the workload, so the same code
//! runs the classic dense pipeline (`DenseBackend` + dense
//! [`LinearQuery`] vectors — bit-for-bit the pre-seam behavior, same rng
//! streams) and the **sublinear** pipeline of *Fast-MWEM: Private Data
//! Release in Sublinear Time*: implicit (marginal / parity / threshold)
//! queries over a `pmw_sketch::SampledBackend` and a
//! [`DataSide::from_source`] data side, where neither the universe, the
//! data histogram, nor any query vector is ever materialized — the data
//! side sweeps the dataset's ≤ n support rows and the hypothesis side
//! sweeps a Monte-Carlo pool, both flat in `|X|`.

use crate::config::PmwConfig;
use crate::data::DataSide;
use crate::error::PmwError;
use crate::state::{
    eval_query_on_histogram, BackendEvent, DenseBackend, QueryEstimate, QueryMemo, StateBackend,
};
use pmw_data::workload::{LinearQuery, PointQuery};
use pmw_data::{Dataset, Histogram, PointMatrix, PointSource};
use pmw_dp::sparse_vector::{SvComposition, SvConfig, SvOutcome};
use pmw_dp::{Accountant, ExponentialMechanism, LaplaceMechanism, SparseVector};
use pmw_obs::{Counter, Gauge, NoopProbe, Phase, Probe};
use rand::Rng;
use std::sync::Arc;

/// Pre-check and collect the owned query handles a retaining backend
/// needs, **before** any privacy budget is spent — mirrors the
/// `requires_shared_loss` guard of the CM mechanisms.
fn retained_handles(
    queries: &[&dyn PointQuery],
    state: &dyn StateBackend,
) -> Result<Option<Vec<Arc<dyn PointQuery>>>, PmwError> {
    if !state.requires_shared_loss() {
        return Ok(None);
    }
    queries
        .iter()
        .map(|q| {
            if q.point_dim().is_none() {
                return Err(PmwError::LossMismatch(
                    "this state backend re-evaluates retained updates from point coordinates; \
                     universe-indexed (dense) queries cannot be recorded — use implicit queries",
                ));
            }
            q.clone_shared().ok_or(PmwError::LossMismatch(
                "this state backend requires queries supporting clone_shared",
            ))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

/// Every query's hypothesis estimate through the batched read, refused
/// when any value or radius is not finite: a NaN radius would fall out of
/// the selection's `f64::max` widening fold and revert it to the
/// unwidened sensitivity, and a non-finite value would reach the selection
/// scores and, on the sketched path, the released answers.
fn finite_estimates<B: StateBackend>(
    state: &B,
    queries: &[&dyn PointQuery],
    points: Option<&PointMatrix>,
    memo: &mut QueryMemo,
) -> Result<Vec<QueryEstimate>, PmwError> {
    let ests = state.expected_query_values(queries, points, memo)?;
    if ests
        .iter()
        .any(|e| !(e.value.is_finite() && e.radius.is_finite()))
    {
        return Err(PmwError::InvalidConfig(
            "state backend returned a non-finite query estimate or radius",
        ));
    }
    Ok(ests)
}

/// Online private multiplicative weights for linear queries \[HR10\].
///
/// Use a [`PmwConfig`] with `scale(1.0)` for queries with values in `[0, 1]`
/// (the scale bound plays the role of the query range).
///
/// Generic over the [`StateBackend`] holding the hypothesis: the default
/// dense construction ([`LinearPmw::new`]) reproduces the classic pipeline
/// bit-for-bit; [`LinearPmw::with_backend`] over a
/// [`DataSide::from_source`] plus a sketching backend (e.g.
/// `pmw_sketch::SampledBackend`) answers implicit query workloads at
/// `|X| = 2^26` and beyond with per-answer cost flat in `|X|`.
pub struct LinearPmw<B: StateBackend = DenseBackend> {
    state: B,
    data: DataSide,
    eta: f64,
    k: usize,
    alpha: f64,
    /// The above-threshold measurement mechanism, built once at
    /// construction so no fallible step sits between the sparse vector
    /// consuming a top and the round being burned.
    laplace: LaplaceMechanism,
    rounds: usize,
    sv: SparseVector,
    queries_answered: usize,
    updates_used: usize,
    accountant: Accountant,
    halted: bool,
    /// Backend self-maintenance events (adaptive resamples, escalation
    /// rungs), drained after each update round; rolled-back rounds report
    /// nothing.
    backend_events: Vec<BackendEvent>,
}

impl LinearPmw<DenseBackend> {
    /// Build over a universe of the given size with the dense (exact)
    /// state backend — the classic \[HR10\] pipeline, unchanged. Dense
    /// [`LinearQuery`] workloads only; implicit queries need a
    /// [`DataSide`] carrying points ([`LinearPmw::with_backend`]).
    pub fn new(
        config: PmwConfig,
        universe_size: usize,
        dataset: &Dataset,
        rng: &mut dyn Rng,
    ) -> Result<Self, PmwError> {
        let data = DataSide::from_histogram(universe_size, dataset)?;
        let state = DenseBackend::new(universe_size)?;
        Self::with_backend(config, data, state, rng)
    }

    /// The current hypothesis histogram.
    pub fn hypothesis(&self) -> &Histogram {
        self.state.hypothesis()
    }
}

impl<B: StateBackend> LinearPmw<B> {
    /// Build over any data side with an explicit state backend. Both
    /// public [`DataSide`] forms carry points, so **implicit** queries
    /// evaluate on either; the support-row form with a sketching backend
    /// is the fully sublinear construction (implicit queries only — the
    /// retaining backends reject universe-indexed ones).
    ///
    /// Draws exactly the sparse-vector noise from `rng`.
    pub fn with_backend(
        config: PmwConfig,
        data: DataSide,
        state: B,
        rng: &mut dyn Rng,
    ) -> Result<Self, PmwError> {
        data.check_backend(&state)?;
        let derived = config.derive(data.universe_size())?;
        let sensitivity = config.scale_s / data.n() as f64;
        let sv = SparseVector::new(
            SvConfig {
                max_top: derived.rounds,
                threshold: config.alpha,
                sensitivity,
                budget: derived.sv_budget,
                composition: SvComposition::Strong,
            },
            rng,
        )?;
        let mut accountant = Accountant::new();
        accountant.spend("sparse-vector", derived.sv_budget);
        Ok(Self {
            state,
            data,
            eta: derived.eta,
            k: config.k,
            alpha: config.alpha,
            laplace: LaplaceMechanism::new(sensitivity, derived.oracle_budget.epsilon())?,
            rounds: derived.rounds,
            sv,
            queries_answered: 0,
            updates_used: 0,
            accountant,
            halted: false,
            backend_events: Vec::new(),
        })
    }

    /// Answer one linear query (dense [`LinearQuery`] or implicit
    /// [`pmw_data::ImplicitQuery`], per the data side).
    ///
    /// On an above-threshold (`⊤`) outcome the sparse-vector top is
    /// consumed inside `process`, so from there the round is burned no
    /// matter how the Laplace release or the MW update fares: the Laplace
    /// budget is charged **before** the release, `updates_used` advances
    /// on every exit path, and SV's halt is mirrored — the counters can
    /// never desync from `sv.tops_used()` (the same bug class as the
    /// Figure-3 mechanism's SV/oracle fix, regression-tested with a
    /// failing-backend stub).
    pub fn answer(&mut self, query: &dyn PointQuery, rng: &mut dyn Rng) -> Result<f64, PmwError> {
        if self.halted {
            return Err(PmwError::Halted);
        }
        if self.queries_answered >= self.k {
            return Err(PmwError::QueryLimitReached);
        }
        self.data.check_query(query)?;
        // Retaining backends need an owned query handle; obtain it before
        // any sparse-vector round or budget is consumed on an update that
        // could never be recorded.
        let retained = match retained_handles(&[query], &self.state)? {
            Some(mut handles) => handles.pop(),
            None => None,
        };
        let est = self
            .state
            .expected_query_value(query, self.data.universe_points())?;
        let truth = self.data.evaluate(query)?;
        let err = (est.value - truth).abs();
        // Radius-aware SV margin: on a sketching backend `est` carries a
        // claimed concentration radius, and a ⊥ must certify that the
        // *true* hypothesis answer ⟨q, D̂_t⟩ — not just its estimate — is
        // within α of the data. Exact backends claim radius 0, so the
        // dense path processes the identical value bit-for-bit.
        // A corrupted radius (NaN/∞/negative) would silently poison the
        // comparison — refuse loudly before any budget is consumed.
        if !est.radius.is_finite() || est.radius < 0.0 {
            return Err(PmwError::Degraded(
                "backend claimed a non-finite or negative estimate radius",
            ));
        }
        let outcome = match self.sv.process(err + est.radius, rng) {
            Ok(o) => o,
            Err(pmw_dp::DpError::SparseVectorHalted) => {
                self.halted = true;
                return Err(PmwError::Halted);
            }
            Err(e) => return Err(e.into()),
        };
        let answer = match outcome {
            SvOutcome::Bottom => {
                // A prior failed round may have queued rollback events:
                // drain on free answers too.
                self.backend_events.extend(self.state.take_events());
                est.value
            }
            SvOutcome::Top => {
                // Budget first: the release and the update may fail after
                // the SV top is already consumed, and a failing release
                // may already have leaked its noise.
                self.accountant.spend("laplace", self.laplace.budget());
                let applied = self
                    .laplace
                    .release(truth, rng)
                    .map_err(PmwError::from)
                    .and_then(|measured| {
                        // Update direction: if the hypothesis overestimates,
                        // penalize elements where q(x) is large
                        // (exp(-eta*q)); otherwise boost.
                        let coeff = if est.value > measured { 1.0 } else { -1.0 };
                        self.state
                            .apply_query_update(
                                query,
                                retained,
                                coeff,
                                self.eta,
                                self.data.universe_points(),
                                rng,
                            )
                            .map(|()| measured)
                    });
                // The top is spent whatever happened above: burn the round
                // and mirror SV's halt so the counters stay in sync.
                self.updates_used += 1;
                if self.sv.has_halted() {
                    self.halted = true;
                }
                // Self-maintaining backends report what the round did
                // (adaptive resample, escalation). Failed transactional
                // rounds preserve their events across the rollback and
                // close them with a `RoundRolledBack` marker.
                self.backend_events.extend(self.state.take_events());
                match applied {
                    Ok(measured) => measured,
                    Err(e) => {
                        self.queries_answered += 1;
                        return Err(e);
                    }
                }
            }
        };
        self.queries_answered += 1;
        Ok(answer)
    }

    /// The state backend holding the hypothesis.
    pub fn state(&self) -> &B {
        &self.state
    }

    /// The dense hypothesis histogram, when the backend maintains one.
    pub fn dense_hypothesis(&self) -> Option<&Histogram> {
        self.state.dense_hypothesis()
    }

    /// Updates consumed.
    pub fn updates_used(&self) -> usize {
        self.updates_used
    }

    /// Update slots remaining before the mechanism halts (saturating, so
    /// the invariant `updates_used() + updates_remaining() == T` holds on
    /// every path).
    pub fn updates_remaining(&self) -> usize {
        self.rounds.saturating_sub(self.updates_used)
    }

    /// True once the update budget is exhausted.
    pub fn has_halted(&self) -> bool {
        self.halted
    }

    /// The privacy ledger.
    pub fn accountant(&self) -> &Accountant {
        &self.accountant
    }

    /// Backend self-maintenance events drained so far (adaptive
    /// resamples, escalation rungs), in occurrence order.
    pub fn backend_events(&self) -> &[BackendEvent] {
        &self.backend_events
    }

    /// Target accuracy `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

/// Result of an MWEM run.
pub struct MwemRun<B> {
    /// The final state backend (post-processing of private outputs; usable
    /// for synthetic data via [`StateBackend::sample_indices`]).
    pub state: B,
    /// The averaged hypothesis (HLM12 recommend averaging), when the
    /// backend maintains a dense one — always on [`Mwem::run`]; `None` on
    /// sketched state, where no `|X|`-sized structure exists.
    pub averaged: Option<Histogram>,
    /// Answers to every input query: averaged-hypothesis evaluations on
    /// the dense path, the mean of the per-round hypothesis estimates on
    /// the sketched path (equal in expectation — averaging commutes with
    /// linear queries).
    pub answers: Vec<f64>,
    /// Indices of the queries selected for measurement each round.
    pub selected: Vec<usize>,
    /// The privacy ledger: one exponential-mechanism and one Laplace entry
    /// per round, auditable against the declared `ε`.
    pub accountant: Accountant,
    /// Backend self-maintenance events (adaptive resamples, escalation
    /// rungs) drained after each round, in occurrence order. Empty on
    /// exact backends.
    pub backend_events: Vec<BackendEvent>,
}

/// Offline MWEM \[HLM12\].
#[derive(Debug, Clone, Copy)]
pub struct Mwem {
    /// Number of measurement rounds `T`.
    pub rounds: usize,
    /// Query range bound (1 for counting queries).
    pub range: f64,
}

impl Mwem {
    /// MWEM with `T` rounds for queries with values in `[0, range]`.
    pub fn new(rounds: usize, range: f64) -> Result<Self, PmwError> {
        if rounds == 0 {
            return Err(PmwError::InvalidConfig("rounds must be >= 1"));
        }
        if !(range.is_finite() && range > 0.0) {
            return Err(PmwError::InvalidConfig("range must be positive"));
        }
        Ok(Self { rounds, range })
    }

    /// Run MWEM on a dense query workload under a pure `ε` budget, split
    /// evenly: `ε/2T` per exponential-mechanism selection, `ε/2T` per
    /// Laplace measurement. The classic pipeline: dense state, answers
    /// from the averaged histogram.
    pub fn run(
        &self,
        queries: &[LinearQuery],
        dataset: &Dataset,
        epsilon: f64,
        rng: &mut dyn Rng,
    ) -> Result<MwemRun<DenseBackend>, PmwError> {
        let m = dataset.universe_size();
        let data = DataSide::from_histogram(m, dataset)?;
        self.run_with_backend(queries, &data, epsilon, DenseBackend::new(m)?, rng)
    }

    /// Backend-generic MWEM over any data side: any [`PointQuery`]
    /// workload (implicit queries evaluate on the data side's points),
    /// any [`StateBackend`]. [`DataSide::from_source`] with a sketching
    /// backend is *Fast-MWEM*: nothing `|X|`-sized is ever allocated, so
    /// universes past the materialization cap (`pmw_data::BigBitCube`,
    /// `2^26`+) run at per-round cost flat in `|X|`.
    pub fn run_with_backend<Q: PointQuery, B: StateBackend>(
        &self,
        queries: &[Q],
        data: &DataSide,
        epsilon: f64,
        state: B,
        rng: &mut dyn Rng,
    ) -> Result<MwemRun<B>, PmwError> {
        self.engine(queries, data, epsilon, state, rng, &NoopProbe)
    }

    /// [`Mwem::run_with_backend`] over [`DataSide::from_source`]`(source,
    /// dataset)`, reporting each round through `probe`: [`Phase::Select`]
    /// (exponential mechanism), [`Phase::Measure`] (Laplace release),
    /// [`Phase::Update`] (MW step) and [`Phase::Estimate`] (the post-update
    /// score recompute) sub-spans per round, the selection-widening radius
    /// gauge, and the running ε/δ spend.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_source_probed<
        S: PointSource + ?Sized,
        Q: PointQuery,
        B: StateBackend,
        P: Probe,
    >(
        &self,
        queries: &[Q],
        source: &S,
        dataset: &Dataset,
        epsilon: f64,
        state: B,
        rng: &mut dyn Rng,
        probe: &P,
    ) -> Result<MwemRun<B>, PmwError> {
        let data = DataSide::from_source(source, dataset)?;
        self.engine(queries, &data, epsilon, state, rng, probe)
    }

    /// The shared MWEM engine. On `DenseBackend` this consumes the same
    /// rng stream as the classic implementation (`T × (k` Gumbel draws `+
    /// 1` Laplace draw`)`) and evaluates the same inner products, so dense
    /// selections are preserved. The [`NoopProbe`] compiles the
    /// instrumentation away.
    fn engine<Q: PointQuery, B: StateBackend, P: Probe>(
        &self,
        queries: &[Q],
        data: &DataSide,
        epsilon: f64,
        mut state: B,
        rng: &mut dyn Rng,
        probe: &P,
    ) -> Result<MwemRun<B>, PmwError> {
        if queries.is_empty() {
            return Err(PmwError::InvalidConfig("need at least one query"));
        }
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(PmwError::InvalidConfig("epsilon must be positive"));
        }
        data.check_backend(&state)?;
        let queries: Vec<&dyn PointQuery> = queries.iter().map(|q| q as &dyn PointQuery).collect();
        for q in &queries {
            data.check_query(*q)?;
        }
        // Retention pre-check before any privacy spend.
        let shared = retained_handles(&queries, &state)?;

        let per_round = epsilon / (2.0 * self.rounds as f64);
        let sensitivity = self.range / data.n() as f64;
        let lap = LaplaceMechanism::new(sensitivity, per_round)?;
        let points = data.universe_points();

        // True answers are data-independent of the round: evaluate once.
        let truths: Vec<f64> = queries
            .iter()
            .map(|q| data.evaluate(*q))
            .collect::<Result<_, _>>()?;
        // Hypothesis estimates under D̂_1 (round-1 selection scores), with
        // their claimed concentration radii (0 on exact backends). One memo
        // serves every read of the run and is freed with it.
        let mut memo = QueryMemo::new();
        let mut ests = finite_estimates(&state, &queries, points, &mut memo)?;

        let mut accountant = Accountant::new();
        let mut selected = Vec::with_capacity(self.rounds);
        let mut backend_events = Vec::new();
        let mut answer_sums = vec![0.0; queries.len()];
        // Dense backends also accumulate the HLM12 averaged histogram.
        let mut avg: Option<Vec<f64>> = state.dense_hypothesis().map(|h| vec![0.0; h.len()]);
        for t in 0..self.rounds {
            probe.round_begin(t);
            // Select the query the hypothesis answers worst. On a
            // non-exhaustive backend the scores are estimates, each off by
            // up to its claimed radius — the exponential mechanism's
            // sensitivity is widened by the worst per-score radius of the
            // round, so the selection guarantee holds for the *true*
            // scores and not just their sketches. Exact backends claim
            // radius 0, leaving the dense selection (and its rng stream)
            // bit-for-bit unchanged.
            let scores: Vec<f64> = ests
                .iter()
                .zip(&truths)
                .map(|(e, t)| (e.value - t).abs())
                .collect();
            // Every radius is finite (`finite_estimates`), so none can
            // fall out of this fold.
            let widen = ests.iter().map(|e| e.radius).fold(0.0, f64::max);
            if P::ENABLED {
                probe.gauge(Gauge::ClaimedRadius, widen);
            }
            let round_result = (|| -> Result<(), PmwError> {
                probe.span_begin(Phase::Select);
                let em = ExponentialMechanism::new(sensitivity + widen, per_round)?;
                let idx = em.select(&scores, rng)?;
                probe.span_end(Phase::Select);
                accountant.spend("exponential-mechanism", em.budget());
                selected.push(idx);
                probe.span_begin(Phase::Measure);
                let measured = lap.release(truths[idx], rng)?;
                probe.span_end(Phase::Measure);
                accountant.spend("laplace", lap.budget());
                if P::ENABLED {
                    if let Ok(total) = accountant.basic_total() {
                        probe.gauge(Gauge::EpsSpent, total.epsilon());
                        probe.gauge(Gauge::DeltaSpent, total.delta());
                    }
                }
                // MWEM update: D(x) *= exp(q(x)·(measured − est)/(2·range)).
                let coeff = (ests[idx].value - measured) / (2.0 * self.range);
                let retained = shared.as_ref().map(|handles| handles[idx].clone());
                probe.span_begin(Phase::Update);
                let applied =
                    state.apply_query_update(queries[idx], retained, coeff, 1.0, points, rng);
                probe.span_end(Phase::Update);
                // Drain before propagating a failure: a transactional
                // backend preserves the escalations that caused the
                // failure across its rollback, and they must reach the
                // run's event log even when the round errors out.
                backend_events.extend(state.take_events());
                applied?;
                // Post-update estimates: next round's scores, and — on the
                // sketched path — one term of the averaged answers (averaging
                // commutes with linear queries, so summing per-round
                // estimates equals evaluating on the averaged hypothesis).
                // The dense path answers from the averaged histogram instead,
                // so it skips both the final-round recompute and the sums.
                let last = t + 1 == self.rounds;
                if !(last && avg.is_some()) {
                    probe.span_begin(Phase::Estimate);
                    ests = finite_estimates(&state, &queries, points, &mut memo)?;
                    probe.span_end(Phase::Estimate);
                }
                Ok(())
            })();
            if let Err(e) = round_result {
                probe.round_end(t, "failed");
                return Err(e);
            }
            probe.counter(Counter::UpdateRounds, 1);
            probe.round_end(t, "update");
            if avg.is_none() {
                for (sum, est) in answer_sums.iter_mut().zip(&ests) {
                    *sum += est.value;
                }
            }
            if let Some(avg) = avg.as_mut() {
                let weights = state
                    .dense_hypothesis()
                    .expect("dense hypothesis cannot disappear mid-run")
                    .weights();
                for (a, w) in avg.iter_mut().zip(weights) {
                    *a += w;
                }
            }
        }
        let averaged = match avg {
            Some(weights) => Some(Histogram::from_weights(weights)?),
            None => None,
        };
        let answers = match &averaged {
            // Dense path: answers from the averaged histogram, exactly as
            // HLM12 (and the pre-seam implementation) compute them.
            Some(h) => queries
                .iter()
                .map(|q| eval_query_on_histogram(*q, h, points))
                .collect::<Result<_, _>>()?,
            // Sketched path: the mean of the per-round estimates — the
            // same quantity, without any |X|-sized accumulator.
            None => answer_sums.iter().map(|s| s / self.rounds as f64).collect(),
        };
        Ok(MwemRun {
            state,
            averaged,
            answers,
            selected,
            accountant,
            backend_events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmw_data::workload::{random_counting_queries, ImplicitQuery};
    use pmw_data::{BooleanCube, PointMatrix, Universe};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn skewed(cube: &BooleanCube, n: usize, rng: &mut StdRng) -> Dataset {
        let biases: Vec<f64> = (0..cube.dim())
            .map(|b| if b == 0 { 0.9 } else { 0.5 })
            .collect();
        let pop = pmw_data::synth::product_population(cube, &biases).unwrap();
        Dataset::sample_from(&pop, n, rng).unwrap()
    }

    fn linear_config(k: usize, rounds: usize, alpha: f64) -> PmwConfig {
        PmwConfig::builder(2.0, 1e-6, alpha)
            .k(k)
            .scale(1.0)
            .rounds_override(rounds)
            .build()
            .unwrap()
    }

    #[test]
    fn linear_pmw_answers_within_alpha_with_ample_data() {
        let mut rng = StdRng::seed_from_u64(141);
        let cube = BooleanCube::new(5).unwrap();
        let data = skewed(&cube, 4000, &mut rng);
        let truth = data.histogram();
        let queries = random_counting_queries(cube.size(), 24, &mut rng).unwrap();
        let mut mech =
            LinearPmw::new(linear_config(24, 12, 0.15), cube.size(), &data, &mut rng).unwrap();
        let mut max_err: f64 = 0.0;
        for q in &queries {
            match mech.answer(q, &mut rng) {
                Ok(a) => max_err = max_err.max((a - q.evaluate(&truth)).abs()),
                Err(PmwError::Halted) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(max_err <= 0.15 + 0.1, "max error {max_err}");
    }

    #[test]
    fn linear_pmw_serves_easy_queries_for_free() {
        // Uniform data: the uniform hypothesis nails every query.
        let mut rng = StdRng::seed_from_u64(142);
        let _cube = BooleanCube::new(4).unwrap();
        let rows: Vec<usize> = (0..1600).map(|i| i % 16).collect();
        let data = Dataset::from_indices(16, rows).unwrap();
        let queries = random_counting_queries(16, 10, &mut rng).unwrap();
        let mut mech = LinearPmw::new(linear_config(10, 5, 0.2), 16, &data, &mut rng).unwrap();
        for q in &queries {
            let _ = mech.answer(q, &mut rng).unwrap();
        }
        assert_eq!(mech.updates_used(), 0);
        assert_eq!(mech.accountant().len(), 1); // only the SV entry
    }

    #[test]
    fn linear_pmw_validates_inputs() {
        let mut rng = StdRng::seed_from_u64(143);
        let cube = BooleanCube::new(3).unwrap();
        let data = skewed(&cube, 100, &mut rng);
        let wrong = Dataset::from_indices(9, vec![0]).unwrap();
        assert!(LinearPmw::new(linear_config(4, 2, 0.3), 8, &wrong, &mut rng).is_err());
        let mut mech = LinearPmw::new(linear_config(4, 2, 0.3), 8, &data, &mut rng).unwrap();
        let bad = LinearQuery::new(vec![1.0; 4]).unwrap();
        assert!(matches!(
            mech.answer(&bad, &mut rng),
            Err(PmwError::LossMismatch(_))
        ));
        // Implicit queries need universe points, which the size-only dense
        // constructor does not hold.
        let implicit = ImplicitQuery::marginal(vec![0], 3).unwrap();
        assert!(matches!(
            mech.answer(&implicit, &mut rng),
            Err(PmwError::LossMismatch(_))
        ));
    }

    #[test]
    fn linear_pmw_with_backend_serves_implicit_queries() {
        // The universe-carrying constructor evaluates implicit marginals
        // on the dense path; answers must track the dense-query answers
        // for the same predicate.
        let mut rng = StdRng::seed_from_u64(147);
        let cube = BooleanCube::new(4).unwrap();
        let data = skewed(&cube, 4000, &mut rng);
        let truth = data.histogram();
        let state = DenseBackend::new(cube.size()).unwrap();
        let mut mech = LinearPmw::with_backend(
            linear_config(8, 6, 0.1),
            DataSide::from_universe(&cube, &data).unwrap(),
            state,
            &mut rng,
        )
        .unwrap();
        let mut max_err: f64 = 0.0;
        for bit in 0..cube.dim() {
            let q = ImplicitQuery::marginal(vec![bit], 4).unwrap();
            let dense: Vec<f64> = (0..cube.size())
                .map(|x| if cube.bit(x, bit) { 1.0 } else { 0.0 })
                .collect();
            let exact = truth.dot(&dense);
            match mech.answer(&q, &mut rng) {
                Ok(a) => max_err = max_err.max((a - exact).abs()),
                Err(PmwError::Halted) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(max_err <= 0.1 + 0.1, "max error {max_err}");
    }

    /// A stub backend whose reads succeed but whose query update always
    /// fails — the regression stub for the SV/accounting desync: the
    /// sparse vector consumes its top before the release and update run,
    /// so a failing round must still be burned, charged and halt-mirrored.
    struct FailingUpdateBackend(DenseBackend);

    impl StateBackend for FailingUpdateBackend {
        fn universe_size(&self) -> usize {
            self.0.universe_size()
        }

        fn updates_recorded(&self) -> usize {
            self.0.updates_recorded()
        }

        #[allow(clippy::too_many_arguments)]
        fn apply_update(
            &mut self,
            loss: &dyn pmw_losses::CmLoss,
            retained: Option<Arc<dyn pmw_losses::CmLoss>>,
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

        fn expected_query_value(
            &self,
            query: &dyn PointQuery,
            points: Option<&PointMatrix>,
        ) -> Result<crate::state::QueryEstimate, PmwError> {
            self.0.expected_query_value(query, points)
        }

        fn apply_query_update(
            &mut self,
            _query: &dyn PointQuery,
            _retained: Option<Arc<dyn PointQuery>>,
            _coeff: f64,
            _eta: f64,
            _points: Option<&PointMatrix>,
            _rng: &mut dyn Rng,
        ) -> Result<(), PmwError> {
            Err(PmwError::InvalidConfig("stub query update always fails"))
        }
    }

    #[test]
    fn failed_update_rounds_stay_in_sync_with_sparse_vector() {
        // n large and alpha small so the planted query's error (~0.4)
        // fires the sparse vector deterministically: each ask burns an
        // update round through the failing backend.
        let mut rng = StdRng::seed_from_u64(151);
        let cube = BooleanCube::new(3).unwrap();
        let data = skewed(&cube, 8000, &mut rng);
        let rounds = 3;
        let state = FailingUpdateBackend(DenseBackend::new(8).unwrap());
        let mut mech = LinearPmw::with_backend(
            linear_config(40, rounds, 0.05),
            DataSide::from_universe(&cube, &data).unwrap(),
            state,
            &mut rng,
        )
        .unwrap();
        // Indicator of bit 0 — heavily skewed, so |est - truth| ≈ 0.4.
        let q =
            LinearQuery::new((0..8).map(|x| if x & 1 == 1 { 1.0 } else { 0.0 }).collect()).unwrap();
        let mut burned = 0;
        let mut asked = 0;
        while burned < rounds {
            asked += 1;
            assert!(asked < 40, "sparse vector never fired");
            match mech.answer(&q, &mut rng) {
                Ok(_) => continue, // an unlikely ⊥ draw: free answer
                Err(PmwError::InvalidConfig(_)) => burned += 1,
                other => panic!("expected stub failure, got {other:?}"),
            }
            // The consumed SV round is recorded everywhere: counters,
            // the saturating invariant, and the ledger (one Laplace
            // charge per burned round — charged before the release).
            assert_eq!(mech.updates_used(), burned);
            assert_eq!(mech.updates_remaining(), rounds - burned);
            assert_eq!(mech.updates_used() + mech.updates_remaining(), rounds);
            assert_eq!(mech.accountant().len(), 1 + burned);
        }
        // The final top exhausted SV: the mechanism halts in the same
        // breath instead of advertising phantom update slots.
        assert!(mech.has_halted());
        assert_eq!(mech.updates_remaining(), 0);
        assert!(matches!(mech.answer(&q, &mut rng), Err(PmwError::Halted)));
    }

    /// A dense-delegating backend whose query estimates claim a fixed
    /// radius — the stub for radius-aware selection/screening on sketched
    /// state.
    struct WideRadiusBackend(DenseBackend, f64);

    impl StateBackend for WideRadiusBackend {
        fn universe_size(&self) -> usize {
            self.0.universe_size()
        }

        fn updates_recorded(&self) -> usize {
            self.0.updates_recorded()
        }

        #[allow(clippy::too_many_arguments)]
        fn apply_update(
            &mut self,
            loss: &dyn pmw_losses::CmLoss,
            retained: Option<Arc<dyn pmw_losses::CmLoss>>,
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

        fn expected_query_value(
            &self,
            query: &dyn PointQuery,
            points: Option<&PointMatrix>,
        ) -> Result<crate::state::QueryEstimate, PmwError> {
            let est = self.0.expected_query_value(query, points)?;
            Ok(crate::state::QueryEstimate {
                value: est.value,
                radius: self.1,
                beta: 1e-6,
            })
        }

        fn apply_query_update(
            &mut self,
            query: &dyn PointQuery,
            retained: Option<Arc<dyn PointQuery>>,
            coeff: f64,
            eta: f64,
            points: Option<&PointMatrix>,
            rng: &mut dyn Rng,
        ) -> Result<(), PmwError> {
            self.0
                .apply_query_update(query, retained, coeff, eta, points, rng)
        }
    }

    #[test]
    fn linear_pmw_sv_margin_widens_by_the_claimed_radius() {
        // Uniform data: the exact backend serves every query for free
        // (`linear_pmw_serves_easy_queries_for_free`). With estimates
        // claiming a huge radius, no ⊥ can be certified — the very first
        // answer must take the measured (update) path.
        let mut rng = StdRng::seed_from_u64(152);
        let rows: Vec<usize> = (0..1600).map(|i| i % 16).collect();
        let data = Dataset::from_indices(16, rows).unwrap();
        let cube = BooleanCube::new(4).unwrap();
        let queries = random_counting_queries(16, 4, &mut rng).unwrap();
        let state = WideRadiusBackend(DenseBackend::new(16).unwrap(), 10.0);
        let mut mech = LinearPmw::with_backend(
            linear_config(4, 3, 0.2),
            DataSide::from_universe(&cube, &data).unwrap(),
            state,
            &mut rng,
        )
        .unwrap();
        let a = mech.answer(&queries[0], &mut rng).unwrap();
        assert_eq!(
            mech.updates_used(),
            1,
            "the widened margin must force the measured path"
        );
        // The measured answer is the Laplace release of the truth.
        let truth = queries[0].evaluate(&data.histogram());
        assert!((a - truth).abs() < 0.2, "{a} vs {truth}");
    }

    #[test]
    fn mwem_selection_sensitivity_widens_by_the_claimed_radius() {
        // The planted-query setup of `mwem_selected_queries_are_high_error
        // _ones`: the exact backend picks the planted query in round 1.
        // With estimates claiming a huge radius the widened sensitivity
        // flattens the selection scores into (near-)uniform Gumbel noise,
        // so the same seed must produce a different selection transcript —
        // the selection provably stopped trusting sketch-noise-sized score
        // gaps.
        let data = Dataset::from_indices(16, vec![15; 500]).unwrap();
        let cube = BooleanCube::new(4).unwrap();
        let mut queries =
            vec![
                LinearQuery::new((0..16).map(|x| if x == 15 { 1.0 } else { 0.0 }).collect())
                    .unwrap(),
            ];
        for _ in 0..9 {
            queries.push(LinearQuery::new(vec![1.0; 16]).unwrap());
        }
        let mwem = Mwem::new(6, 1.0).unwrap();
        let dense_data = DataSide::from_universe(&cube, &data).unwrap();
        let mut rng_a = StdRng::seed_from_u64(146);
        let exact = mwem
            .run_with_backend(
                &queries,
                &dense_data,
                8.0,
                DenseBackend::new(16).unwrap(),
                &mut rng_a,
            )
            .unwrap();
        assert_eq!(exact.selected[0], 0);
        let mut rng_b = StdRng::seed_from_u64(146);
        let wide = mwem
            .run_with_backend(
                &queries,
                &dense_data,
                8.0,
                WideRadiusBackend(DenseBackend::new(16).unwrap(), 10.0),
                &mut rng_b,
            )
            .unwrap();
        assert_ne!(
            exact.selected, wide.selected,
            "radius-widened sensitivity must change the selection distribution"
        );
        // Privacy spend is unchanged: same per-round ε, same entry count.
        assert_eq!(exact.accountant.len(), wide.accountant.len());

        // A NaN radius must fail loudly instead of silently falling out
        // of the max fold and reverting to the unwidened sensitivity.
        let mut rng_c = StdRng::seed_from_u64(146);
        let nan = mwem.run_with_backend(
            &queries,
            &dense_data,
            8.0,
            WideRadiusBackend(DenseBackend::new(16).unwrap(), f64::NAN),
            &mut rng_c,
        );
        assert!(matches!(nan, Err(PmwError::InvalidConfig(_))));
    }

    /// A dense-delegating backend with no dense hypothesis (so `Mwem`
    /// answers from its per-round estimates, as on sketched state) whose
    /// estimates read NaN once `.1` updates are recorded.
    struct NanAfterUpdates(DenseBackend, usize);

    impl StateBackend for NanAfterUpdates {
        fn universe_size(&self) -> usize {
            self.0.universe_size()
        }

        fn updates_recorded(&self) -> usize {
            self.0.updates_recorded()
        }

        #[allow(clippy::too_many_arguments)]
        fn apply_update(
            &mut self,
            loss: &dyn pmw_losses::CmLoss,
            retained: Option<Arc<dyn pmw_losses::CmLoss>>,
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

        fn expected_query_value(
            &self,
            query: &dyn PointQuery,
            points: Option<&PointMatrix>,
        ) -> Result<QueryEstimate, PmwError> {
            let mut est = self.0.expected_query_value(query, points)?;
            if self.updates_recorded() >= self.1 {
                est.value = f64::NAN;
            }
            Ok(est)
        }

        fn apply_query_update(
            &mut self,
            query: &dyn PointQuery,
            retained: Option<Arc<dyn PointQuery>>,
            coeff: f64,
            eta: f64,
            points: Option<&PointMatrix>,
            rng: &mut dyn Rng,
        ) -> Result<(), PmwError> {
            self.0
                .apply_query_update(query, retained, coeff, eta, points, rng)
        }
    }

    #[test]
    fn mwem_refuses_non_finite_estimates_instead_of_releasing_them() {
        // Estimates that turn NaN after the last update would otherwise go
        // straight into the averaged answers; earlier ones into the
        // selection scores.
        let mut rng = StdRng::seed_from_u64(153);
        let cube = BooleanCube::new(4).unwrap();
        let data = DataSide::from_universe(&cube, &skewed(&cube, 500, &mut rng)).unwrap();
        let queries = random_counting_queries(16, 4, &mut rng).unwrap();
        let rounds = 3;
        let mwem = Mwem::new(rounds, 1.0).unwrap();
        for after in [rounds, 1, 0] {
            let state = NanAfterUpdates(DenseBackend::new(16).unwrap(), after);
            let run = mwem.run_with_backend(&queries, &data, 4.0, state, &mut rng);
            assert!(
                matches!(run, Err(PmwError::InvalidConfig(_))),
                "NaN after {after} updates: {:?}",
                run.map(|r| r.answers)
            );
        }
        // The same double with finite reads releases finite answers.
        let state = NanAfterUpdates(DenseBackend::new(16).unwrap(), rounds + 1);
        let run = mwem
            .run_with_backend(&queries, &data, 4.0, state, &mut rng)
            .unwrap();
        assert!(run.answers.iter().all(|a| a.is_finite()));
    }

    #[test]
    fn mwem_improves_over_uniform_hypothesis() {
        let mut rng = StdRng::seed_from_u64(144);
        let cube = BooleanCube::new(5).unwrap();
        let data = skewed(&cube, 3000, &mut rng);
        let truth = data.histogram();
        let queries = random_counting_queries(cube.size(), 30, &mut rng).unwrap();
        let uniform = Histogram::uniform(cube.size()).unwrap();
        let base_err: f64 = queries
            .iter()
            .map(|q| (q.evaluate(&uniform) - q.evaluate(&truth)).abs())
            .fold(0.0, f64::max);
        let result = Mwem::new(10, 1.0)
            .unwrap()
            .run(&queries, &data, 4.0, &mut rng)
            .unwrap();
        let mwem_err: f64 = queries
            .iter()
            .zip(&result.answers)
            .map(|(q, a)| (a - q.evaluate(&truth)).abs())
            .fold(0.0, f64::max);
        assert!(
            mwem_err < base_err,
            "MWEM max err {mwem_err} should beat uniform {base_err}"
        );
        assert_eq!(result.selected.len(), 10);
        assert_eq!(result.answers.len(), 30);
    }

    #[test]
    fn mwem_validates_inputs() {
        let mut rng = StdRng::seed_from_u64(145);
        let cube = BooleanCube::new(3).unwrap();
        let data = skewed(&cube, 100, &mut rng);
        assert!(Mwem::new(0, 1.0).is_err());
        assert!(Mwem::new(5, 0.0).is_err());
        let mwem = Mwem::new(5, 1.0).unwrap();
        assert!(mwem.run(&[], &data, 1.0, &mut rng).is_err());
        let q = LinearQuery::new(vec![1.0; 4]).unwrap();
        assert!(mwem.run(&[q], &data, 1.0, &mut rng).is_err());
        let q8 = LinearQuery::new(vec![1.0; 8]).unwrap();
        assert!(mwem
            .run(std::slice::from_ref(&q8), &data, 0.0, &mut rng)
            .is_err());
        assert!(mwem.run(&[q8], &data, 1.0, &mut rng).is_ok());
    }

    #[test]
    fn mwem_selected_queries_are_high_error_ones() {
        // Plant one query with a huge error under the uniform hypothesis;
        // MWEM should pick it in round 1 with high probability.
        let mut rng = StdRng::seed_from_u64(146);
        let _cube = BooleanCube::new(4).unwrap();
        // All mass on element 15.
        let data = Dataset::from_indices(16, vec![15; 500]).unwrap();
        // Query 0: indicator of element 15 (error 1 - 1/16 under uniform);
        // queries 1..: constant queries with zero error.
        let mut queries =
            vec![
                LinearQuery::new((0..16).map(|x| if x == 15 { 1.0 } else { 0.0 }).collect())
                    .unwrap(),
            ];
        for _ in 0..9 {
            queries.push(LinearQuery::new(vec![1.0; 16]).unwrap());
        }
        let result = Mwem::new(6, 1.0)
            .unwrap()
            .run(&queries, &data, 8.0, &mut rng)
            .unwrap();
        let histogram = result.averaged.expect("the dense run keeps the average");
        assert_eq!(result.selected[0], 0, "round 1 must pick the planted query");
        // And the learned (averaged) histogram should shift mass toward
        // element 15, well past its uniform share of 1/16.
        assert!(histogram.mass(15) > 0.15, "{}", histogram.mass(15));
    }

    #[test]
    fn mwem_accountant_audits_the_declared_budget() {
        let mut rng = StdRng::seed_from_u64(148);
        let cube = BooleanCube::new(4).unwrap();
        let data = skewed(&cube, 1500, &mut rng);
        let queries = random_counting_queries(cube.size(), 12, &mut rng).unwrap();
        let epsilon = 3.0;
        let rounds = 7;
        let result = Mwem::new(rounds, 1.0)
            .unwrap()
            .run(&queries, &data, epsilon, &mut rng)
            .unwrap();
        // One EM + one Laplace entry per round.
        assert_eq!(result.accountant.len(), 2 * rounds);
        let em_entries = result
            .accountant
            .entries()
            .iter()
            .filter(|e| e.label == "exponential-mechanism")
            .count();
        assert_eq!(em_entries, rounds);
        let total = result.accountant.basic_total().unwrap();
        assert!(
            total.epsilon() <= epsilon + 1e-9,
            "spent {} declared {epsilon}",
            total.epsilon()
        );
        assert_eq!(total.delta(), 0.0);
    }

    #[test]
    fn mwem_run_delegates_to_the_dense_backend_engine() {
        // `run` and `run_with_backend(DenseBackend)` must produce the
        // identical transcript under the same seed: same selections, same
        // answers, same ledger length.
        let cube = BooleanCube::new(4).unwrap();
        let mut setup_rng = StdRng::seed_from_u64(149);
        let data = skewed(&cube, 1000, &mut setup_rng);
        let queries = random_counting_queries(cube.size(), 10, &mut setup_rng).unwrap();
        let mwem = Mwem::new(6, 1.0).unwrap();
        let mut rng_a = StdRng::seed_from_u64(777);
        let classic = mwem.run(&queries, &data, 4.0, &mut rng_a).unwrap();
        let mut rng_b = StdRng::seed_from_u64(777);
        let state = DenseBackend::new(cube.size()).unwrap();
        let generic = mwem
            .run_with_backend(
                &queries,
                &DataSide::from_universe(&cube, &data).unwrap(),
                4.0,
                state,
                &mut rng_b,
            )
            .unwrap();
        assert_eq!(classic.selected, generic.selected);
        assert_eq!(classic.answers, generic.answers);
        assert_eq!(classic.accountant.len(), generic.accountant.len());
        let avg = generic.averaged.expect("dense run keeps the average");
        let classic_avg = classic.averaged.expect("dense run keeps the average");
        for (a, b) in classic_avg.weights().iter().zip(avg.weights()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn mwem_runs_implicit_workloads_on_the_dense_backend() {
        // Width-1 implicit marginals over a skewed cube: MWEM must learn
        // the skewed bit like it does with dense queries.
        let mut rng = StdRng::seed_from_u64(150);
        let cube = BooleanCube::new(4).unwrap();
        let data = skewed(&cube, 3000, &mut rng);
        let truth = data.histogram();
        let queries: Vec<ImplicitQuery> = (0..4)
            .map(|b| ImplicitQuery::marginal(vec![b], 4).unwrap())
            .collect();
        let state = DenseBackend::new(cube.size()).unwrap();
        let rounds = 12;
        let run = Mwem::new(rounds, 1.0)
            .unwrap()
            .run_with_backend(
                &queries,
                &DataSide::from_universe(&cube, &data).unwrap(),
                6.0,
                state,
                &mut rng,
            )
            .unwrap();
        let bit0_truth: f64 = (0..cube.size())
            .filter(|&x| cube.bit(x, 0))
            .map(|x| truth.mass(x))
            .sum();
        assert!((bit0_truth - 0.9).abs() < 0.05, "{bit0_truth}");
        // The uniform hypothesis answers 0.5; the averaged MWEM answer
        // must close most of that ~0.4 gap (it includes the early
        // near-uniform rounds, so exact convergence is not expected).
        let uniform_err = (0.5 - bit0_truth).abs();
        let mwem_err = (run.answers[0] - bit0_truth).abs();
        assert!(
            mwem_err < uniform_err / 2.0,
            "answer {} vs truth {bit0_truth} (uniform err {uniform_err})",
            run.answers[0]
        );
        assert_eq!(run.selected.len(), rounds);
        assert!(run.averaged.is_some());
    }
}
