//! The offline PMW variant for CM queries (Section 1.2, \[GHRU11\]-style).
//!
//! When all `k` losses are known in advance, the sparse vector screening is
//! replaced by exponential-mechanism *selection*: each of the `T` rounds
//! privately finds the loss on which the current hypothesis errs most
//! (score = `err_ℓ(D, D̂_t)`, sensitivity `3S/n`), asks the single-query
//! oracle for that loss, and performs the same dual-certificate update as
//! the online mechanism. Final answers for all `k` queries are read off the
//! last hypothesis. This is the variant the paper's Section 1.2 sketches as
//! "the offline variant contains the main novel ideas".

use crate::config::PmwConfig;
use crate::data::DataSide;
use crate::error::{claimed_radius, PmwError};
use crate::mechanism::error_query_value;
use crate::state::{BackendEvent, DenseBackend, StateBackend};
use pmw_convex::Objective;
use pmw_data::{Dataset, Universe};
use pmw_dp::{Accountant, ExponentialMechanism, PrivacyBudget};
use pmw_erm::{ErmOracle, OracleChoice};
use pmw_losses::{CmLoss, WeightedObjective};
use rand::Rng;
use std::sync::Arc;

/// Result of an offline PMW run. [`OfflinePmw::run_with_backend`] leaves
/// the final hypothesis (releasable synthetic data) in the caller's state
/// backend, e.g. [`DenseBackend::hypothesis`].
#[derive(Debug, Clone)]
pub struct OfflineResult {
    /// One answer per input loss, from the final hypothesis state.
    pub answers: Vec<Vec<f64>>,
    /// Which loss was selected for measurement each round.
    pub selected: Vec<usize>,
    /// Backend self-maintenance events (adaptive resamples, escalation
    /// rungs) drained after each round, in occurrence order. Empty on
    /// exact backends.
    pub backend_events: Vec<BackendEvent>,
}

/// Offline PMW for CM queries.
pub struct OfflinePmw<O: ErmOracle = OracleChoice> {
    config: PmwConfig,
    oracle: O,
}

impl<O: ErmOracle> OfflinePmw<O> {
    /// Build with an explicit oracle ([`OracleChoice::Auto`] picks one
    /// from each loss's metadata).
    pub fn with_oracle(config: PmwConfig, oracle: O) -> Self {
        Self { config, oracle }
    }

    /// Run `T` selection/measure/update rounds over the full loss workload
    /// on the dense data side and state backend, and answer every query
    /// from the final hypothesis.
    ///
    /// Budget split: `ε/2` across the `T` exponential-mechanism selections
    /// (each `ε/2T`, pure), `(ε/2, δ)` across the `T` oracle calls exactly
    /// as in the online variant.
    pub fn run<U: Universe>(
        &self,
        losses: &[&dyn CmLoss],
        universe: &U,
        dataset: &Dataset,
        rng: &mut dyn Rng,
    ) -> Result<(OfflineResult, Accountant), PmwError> {
        let data = DataSide::from_universe(universe, dataset)?;
        let mut state = DenseBackend::new(universe.size())?;
        self.run_with_backend(losses, &data, &mut state, rng)
    }

    /// [`OfflinePmw::run`] over any data side on a caller-supplied
    /// [`StateBackend`] — the seam that lets the offline rounds maintain
    /// `D̂_t` in a sketched (sublinear) representation. With
    /// [`DataSide::from_source`] and e.g. `pmw_sketch::SampledBackend` the
    /// whole offline run is sublinear in `|X|`. The backend is left holding
    /// the final hypothesis state.
    ///
    /// Each round solves its `θ̂`s and reads its margin on one
    /// [`StateBackend::snapshot`], taken after the previous update, and the
    /// final answers on one more, so the backend must publish snapshots.
    pub fn run_with_backend<B: StateBackend>(
        &self,
        losses: &[&dyn CmLoss],
        data: &DataSide,
        state: &mut B,
        rng: &mut dyn Rng,
    ) -> Result<(OfflineResult, Accountant), PmwError> {
        if losses.is_empty() {
            return Err(PmwError::InvalidConfig("need at least one loss"));
        }
        data.check_backend(state)?;
        let (data_points, data_weights, n) = (data.points(), data.weights(), data.n());
        // Loss-retaining backends need owned handles; obtain them for the
        // whole workload before any budget is spent (one clone per loss,
        // shared across rounds via `Arc`).
        let retained: Option<Vec<Arc<dyn CmLoss>>> = if state.requires_shared_loss() {
            let mut handles = Vec::with_capacity(losses.len());
            for loss in losses {
                handles.push(loss.clone_shared().ok_or(PmwError::LossMismatch(
                    "this state backend requires losses supporting clone_shared",
                ))?);
            }
            Some(handles)
        } else {
            None
        };
        let derived = self.config.derive(data.universe_size())?;
        let rounds = derived.rounds;
        let em_epsilon = self.config.budget.epsilon() / (2.0 * rounds as f64);
        let em_sensitivity = 3.0 * self.config.scale_s / n as f64;
        let mut accountant = Accountant::new();
        let mut selected = Vec::with_capacity(rounds);
        let mut backend_events = Vec::new();

        // Cache the per-loss optimal value on the true data (one solve per
        // loss, reused across rounds); the solve reports it.
        let mut opt_values = Vec::with_capacity(losses.len());
        for loss in losses {
            let obj = WeightedObjective::new(*loss, data_points, data_weights)?;
            opt_values.push(obj.solve(self.config.solver_iters)?.value);
        }

        for _ in 0..rounds {
            // Read phase on a snapshot of this round's state, as in
            // `OnlinePmw::answer`: score every loss by err_l(D, hypothesis)
            // from its θ̂, then read the margin.
            let snapshot = state.snapshot()?;
            let mut scores = Vec::with_capacity(losses.len());
            let mut hyp_minimizers = Vec::with_capacity(losses.len());
            for (loss, &opt) in losses.iter().zip(&opt_values) {
                let theta_hat =
                    snapshot.hypothesis_minimizer(*loss, data_points, self.config.solver_iters)?;
                let obj = WeightedObjective::new(*loss, data_points, data_weights)?;
                scores.push(error_query_value(obj.value(&theta_hat), opt)?);
                hyp_minimizers.push(theta_hat);
            }
            // Radius-aware selection, as in the online mechanisms: every
            // score was computed from a θ̂ solved against the (possibly
            // sketched) hypothesis, so the EM sensitivity is widened by
            // the snapshot's claimed read radius for this round's state.
            // Exact backends claim 0, leaving the dense selection (and
            // its rng stream) bit-for-bit unchanged. A corrupted widening
            // is refused before any spend.
            let widen = claimed_radius(snapshot.read_radius(self.config.scale_s))?;
            drop(snapshot);
            let em = ExponentialMechanism::new(em_sensitivity + widen, em_epsilon)?;
            let idx = em.select(&scores, rng)?;
            accountant.spend("em-select", PrivacyBudget::pure(em_epsilon)?);
            selected.push(idx);

            let theta_t = self.oracle.solve(
                losses[idx],
                data_points,
                data_weights,
                n,
                derived.oracle_budget,
                rng,
            )?;
            accountant.spend("erm-oracle", derived.oracle_budget);
            let applied = state.apply_update(
                losses[idx],
                retained.as_ref().map(|handles| handles[idx].clone()),
                data_points,
                &theta_t,
                &hyp_minimizers[idx],
                derived.eta,
                None,
                rng,
            );
            // Drain before propagating a failure: a transactional
            // backend preserves the escalations that caused the
            // failure across its rollback, and they must reach the
            // run's event log even when the round errors out.
            backend_events.extend(state.take_events());
            applied?;
        }

        // Answer everything from a snapshot of the final hypothesis.
        let snapshot = state.snapshot()?;
        let answers = losses
            .iter()
            .map(|loss| snapshot.hypothesis_minimizer(*loss, data_points, self.config.solver_iters))
            .collect::<Result<_, _>>()?;
        Ok((
            OfflineResult {
                answers,
                selected,
                backend_events,
            },
            accountant,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmw_data::{BooleanCube, PointMatrix};
    use pmw_erm::{excess_risk, ExactOracle};
    use pmw_losses::{LinearQueryLoss, PointPredicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(rounds: usize, alpha: f64) -> PmwConfig {
        PmwConfig::builder(2.0, 1e-6, alpha)
            .k(16)
            .scale(1.0)
            .rounds_override(rounds)
            .solver_iters(300)
            .build()
            .unwrap()
    }

    fn bit_losses(dim: usize) -> Vec<LinearQueryLoss> {
        (0..dim)
            .map(|b| {
                LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![b] }, dim).unwrap()
            })
            .collect()
    }

    #[test]
    fn validates_inputs() {
        let mut rng = StdRng::seed_from_u64(161);
        let cube = BooleanCube::new(3).unwrap();
        let data = Dataset::from_indices(8, vec![0; 50]).unwrap();
        let off = OfflinePmw::with_oracle(config(2, 0.2), ExactOracle::default());
        assert!(off.run(&[], &cube, &data, &mut rng).is_err());
        let wrong = Dataset::from_indices(9, vec![0]).unwrap();
        let losses = bit_losses(3);
        let refs: Vec<&dyn CmLoss> = losses.iter().map(|l| l as &dyn CmLoss).collect();
        assert!(off.run(&refs, &cube, &wrong, &mut rng).is_err());
    }

    /// A degenerate universe with zero elements (representable through
    /// the trait even though no stock constructor builds one).
    struct EmptyUniverse;

    impl Universe for EmptyUniverse {
        fn size(&self) -> usize {
            0
        }
        fn point_dim(&self) -> usize {
            1
        }
        fn write_point(&self, _index: usize, _out: &mut [f64]) {
            unreachable!("empty universe has no points")
        }
    }

    #[test]
    fn empty_universe_rejected_as_invalid_config() {
        // Regression: this used to slip through `DenseBackend::new(
        // universe.size().max(1))` and die later with a misleading
        // "backend universe size does not match" error.
        let mut rng = StdRng::seed_from_u64(164);
        let data = Dataset::from_indices(8, vec![0; 10]).unwrap();
        let losses = bit_losses(3);
        let refs: Vec<&dyn CmLoss> = losses.iter().map(|l| l as &dyn CmLoss).collect();
        let off = OfflinePmw::with_oracle(config(2, 0.2), ExactOracle::default());
        assert!(matches!(
            off.run(&refs, &EmptyUniverse, &data, &mut rng),
            Err(PmwError::InvalidConfig(
                "universe must contain at least one element"
            ))
        ));
    }

    /// Fails its first solve, then delegates — the transient-failure stub.
    struct FlakyOnce {
        failed: std::cell::Cell<bool>,
        inner: ExactOracle,
    }

    impl ErmOracle for FlakyOnce {
        fn solve(
            &self,
            loss: &dyn CmLoss,
            points: &PointMatrix,
            weights: &[f64],
            n: usize,
            budget: PrivacyBudget,
            rng: &mut dyn Rng,
        ) -> Result<Vec<f64>, pmw_erm::ErmError> {
            if !self.failed.replace(true) {
                return Err(pmw_erm::ErmError::InvalidParameter("transient stub"));
            }
            self.inner.solve(loss, points, weights, n, budget, rng)
        }

        fn name(&self) -> &'static str {
            "flaky-once"
        }
    }

    #[test]
    fn a_failed_oracle_solve_aborts_the_offline_run() {
        // One oracle call per round: the first selected round's transient
        // failure aborts the run, although a second call would succeed.
        let cube = BooleanCube::new(3).unwrap();
        let rows: Vec<usize> = (0..400).map(|i| if i % 4 == 0 { 1 } else { 7 }).collect();
        let data = Dataset::from_indices(8, rows).unwrap();
        let losses = bit_losses(3);
        let refs: Vec<&dyn CmLoss> = losses.iter().map(|l| l as &dyn CmLoss).collect();
        let off = OfflinePmw::with_oracle(
            config(2, 0.2),
            FlakyOnce {
                failed: std::cell::Cell::new(false),
                inner: ExactOracle::default(),
            },
        );
        let mut rng = StdRng::seed_from_u64(165);
        assert!(matches!(
            off.run(&refs, &cube, &data, &mut rng),
            Err(PmwError::Erm(_))
        ));
    }

    #[test]
    fn offline_run_reduces_worst_case_error() {
        let mut rng = StdRng::seed_from_u64(162);
        let cube = BooleanCube::new(4).unwrap();
        let pop = pmw_data::synth::product_population(&cube, &[0.95, 0.1, 0.5, 0.5]).unwrap();
        let data = Dataset::sample_from(&pop, 3000, &mut rng).unwrap();
        let losses = bit_losses(4);
        let refs: Vec<&dyn CmLoss> = losses.iter().map(|l| l as &dyn CmLoss).collect();
        let off = OfflinePmw::with_oracle(config(6, 0.1), ExactOracle::default());
        let (result, accountant) = off.run(&refs, &cube, &data, &mut rng).unwrap();
        assert_eq!(result.answers.len(), 4);
        assert_eq!(result.selected.len(), 6);
        assert_eq!(accountant.len(), 12); // 6 selections + 6 oracle calls

        let points = cube.materialize();
        let truth = data.histogram();
        let max_err = losses
            .iter()
            .zip(&result.answers)
            .map(|(l, a)| excess_risk(l, &points, truth.weights(), a, 1000).unwrap())
            .fold(0.0, f64::max);
        assert!(max_err < 0.15, "max error {max_err}");
    }

    #[test]
    fn selections_favor_high_error_losses() {
        let mut rng = StdRng::seed_from_u64(163);
        let cube = BooleanCube::new(3).unwrap();
        // Bit 0 exactly uniform (error 0 under the uniform hypothesis),
        // bit 2 fully skewed.
        let rows: Vec<usize> = (0..600)
            .map(|i| if i % 2 == 0 { 0b100 } else { 0b101 })
            .collect();
        let data = Dataset::from_indices(8, rows).unwrap();
        let losses = bit_losses(3);
        let refs: Vec<&dyn CmLoss> = losses.iter().map(|l| l as &dyn CmLoss).collect();
        let off = OfflinePmw::with_oracle(config(3, 0.1), ExactOracle::default());
        let (result, _) = off.run(&refs, &cube, &data, &mut rng).unwrap();
        // Bits 1 (never set) and 2 (always set) have identical positive
        // error under the uniform hypothesis — 0.5·(0.5 − p)² = 0.125 for
        // p ∈ {0, 1} — while bit 0 has error exactly 0. The exponential
        // mechanism must select one of the high-error bits first; which of
        // the two is a Gumbel-noise coin flip.
        assert!(
            result.selected[0] == 1 || result.selected[0] == 2,
            "selected {:?}",
            result.selected
        );
    }
}
