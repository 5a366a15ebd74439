//! The [`ErmOracle`] trait and the automatic oracle selector.

use crate::error::ErmError;
use crate::exact::ExactOracle;
use crate::glm_jl::JlGlmOracle;
use crate::net_exp::NetExponentialOracle;
use crate::noisy_gd::NoisyGdOracle;
use crate::objective_perturb::ObjectivePerturbationOracle;
use crate::output_perturb::OutputPerturbationOracle;
use pmw_convex::Objective;
use pmw_data::PointMatrix;
use pmw_dp::PrivacyBudget;
use pmw_losses::{CmLoss, WeightedObjective};
use rand::Rng;

/// A differentially private algorithm answering **one** CM query — the
/// paper's `A′` (Section 3.2). Implementations must be `(ε₀, δ₀)`-DP with
/// respect to one-row changes of the `n`-row dataset whose empirical
/// distribution over `points` is `weights`.
pub trait ErmOracle {
    /// Return a private approximate minimizer of
    /// `Σ_i weights[i] · ℓ(θ; points[i])` over `ℓ.domain()`.
    fn solve(
        &self,
        loss: &dyn CmLoss,
        points: &PointMatrix,
        weights: &[f64],
        n: usize,
        budget: PrivacyBudget,
        rng: &mut dyn Rng,
    ) -> Result<Vec<f64>, ErmError>;

    /// A short stable name for transcripts and tables.
    fn name(&self) -> &'static str;
}

/// Validate the common `(points, weights, n)` contract shared by every
/// oracle.
pub(crate) fn validate_inputs(
    loss: &dyn CmLoss,
    points: &PointMatrix,
    weights: &[f64],
    n: usize,
) -> Result<(), ErmError> {
    if n == 0 {
        return Err(ErmError::InvalidParameter("dataset size n must be >= 1"));
    }
    if points.is_empty() || points.len() != weights.len() {
        return Err(ErmError::InvalidParameter(
            "points and weights must be nonempty and equal-length",
        ));
    }
    if points.dim() != loss.point_dim() {
        return Err(ErmError::InvalidParameter(
            "point dimension does not match loss",
        ));
    }
    if weights.iter().any(|&w| !w.is_finite() || w < 0.0) {
        return Err(ErmError::InvalidParameter(
            "weights must be finite and non-negative",
        ));
    }
    Ok(())
}

/// Excess empirical risk `err_ℓ(D, θ̂) = ℓ_D(θ̂) − min_θ ℓ_D(θ)`
/// (Definition 2.2), with the minimum computed non-privately.
///
/// A difference that is not finite (a NaN or infinite `θ̂`) is an error:
/// flooring it at 0 would score a NaN answer as perfectly accurate.
pub fn excess_risk(
    loss: &dyn CmLoss,
    points: &PointMatrix,
    weights: &[f64],
    theta: &[f64],
    solver_iters: usize,
) -> Result<f64, ErmError> {
    let obj = WeightedObjective::new(loss, points, weights)?;
    let opt = obj.solve(solver_iters)?.value;
    let excess = obj.value(theta) - opt;
    if !excess.is_finite() {
        return Err(ErmError::InvalidParameter("excess risk is not finite"));
    }
    Ok(excess.max(0.0))
}

/// Runtime-selectable oracle, including an `Auto` mode that picks the
/// best-matching oracle from loss metadata the way Section 4.2 assigns
/// oracles to Table 1 rows: strong convexity → output perturbation, GLM
/// structure → the dimension-independent oracle, otherwise noisy gradient
/// descent.
#[derive(Debug, Clone, Default)]
pub enum OracleChoice {
    /// Metadata-driven selection (see above).
    #[default]
    Auto,
    /// Always use [`ExactOracle`] (non-private!).
    Exact(ExactOracle),
    /// Always use [`NoisyGdOracle`].
    NoisyGd(NoisyGdOracle),
    /// Always use [`OutputPerturbationOracle`].
    OutputPerturbation(OutputPerturbationOracle),
    /// Always use [`ObjectivePerturbationOracle`].
    ObjectivePerturbation(ObjectivePerturbationOracle),
    /// Always use [`JlGlmOracle`].
    JlGlm(JlGlmOracle),
    /// Always use [`NetExponentialOracle`].
    NetExponential(NetExponentialOracle),
}

impl ErmOracle for OracleChoice {
    fn solve(
        &self,
        loss: &dyn CmLoss,
        points: &PointMatrix,
        weights: &[f64],
        n: usize,
        budget: PrivacyBudget,
        rng: &mut dyn Rng,
    ) -> Result<Vec<f64>, ErmError> {
        match self {
            OracleChoice::Auto => {
                if loss.strong_convexity() > 0.0 {
                    OutputPerturbationOracle::default().solve(loss, points, weights, n, budget, rng)
                } else if loss.is_glm() && loss.dim() > 8 {
                    JlGlmOracle::default().solve(loss, points, weights, n, budget, rng)
                } else {
                    NoisyGdOracle::default().solve(loss, points, weights, n, budget, rng)
                }
            }
            OracleChoice::Exact(o) => o.solve(loss, points, weights, n, budget, rng),
            OracleChoice::NoisyGd(o) => o.solve(loss, points, weights, n, budget, rng),
            OracleChoice::OutputPerturbation(o) => o.solve(loss, points, weights, n, budget, rng),
            OracleChoice::ObjectivePerturbation(o) => {
                o.solve(loss, points, weights, n, budget, rng)
            }
            OracleChoice::JlGlm(o) => o.solve(loss, points, weights, n, budget, rng),
            OracleChoice::NetExponential(o) => o.solve(loss, points, weights, n, budget, rng),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            OracleChoice::Auto => "auto",
            OracleChoice::Exact(o) => o.name(),
            OracleChoice::NoisyGd(o) => o.name(),
            OracleChoice::OutputPerturbation(o) => o.name(),
            OracleChoice::ObjectivePerturbation(o) => o.name(),
            OracleChoice::JlGlm(o) => o.name(),
            OracleChoice::NetExponential(o) => o.name(),
        }
    }
}

/// A smooth logistic loss with corrupt (NaN) Lipschitz metadata, which
/// every noise-calibrating oracle must refuse rather than clamp.
#[cfg(test)]
pub(crate) struct NanLipschitz(pub(crate) pmw_losses::LogisticLoss);

#[cfg(test)]
impl CmLoss for NanLipschitz {
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
    fn lipschitz(&self) -> f64 {
        f64::NAN
    }
    fn smoothness(&self) -> Option<f64> {
        self.0.smoothness()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmw_losses::{L2Regularized, LogisticLoss, SquaredLoss};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_data() -> (PointMatrix, Vec<f64>) {
        // y = 0.5*x on 5 points.
        let pts = PointMatrix::from_rows(
            (0..5)
                .map(|i| {
                    let x = i as f64 / 5.0 * 2.0 - 1.0;
                    vec![x, 0.5 * x]
                })
                .collect(),
        )
        .unwrap();
        let w = vec![0.2; 5];
        (pts, w)
    }

    #[test]
    fn excess_risk_refuses_non_finite_answers() {
        let loss = pmw_losses::LinearQueryLoss::new(
            pmw_losses::PointPredicate::Conjunction { coords: vec![0] },
            2,
        )
        .unwrap();
        let (pts, w) = toy_data();
        let risk = excess_risk(&loss, &pts, &w, &[0.5], 50).unwrap();
        assert!(risk.is_finite() && risk >= 0.0);
        for theta in [f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    excess_risk(&loss, &pts, &w, &[theta], 50),
                    Err(ErmError::InvalidParameter(_))
                ),
                "theta {theta} must not score a finite excess risk"
            );
        }
    }

    #[test]
    fn validate_inputs_catches_misuse() {
        let loss = SquaredLoss::new(1).unwrap();
        let (pts, w) = toy_data();
        assert!(validate_inputs(&loss, &pts, &w, 0).is_err());
        assert!(validate_inputs(&loss, &pts, &w[..3], 10).is_err());
        // Wrong point dimension for the loss (the empty-universe case is
        // unrepresentable: PointMatrix constructors reject it).
        let bad = PointMatrix::from_rows(vec![vec![1.0]]).unwrap();
        assert!(validate_inputs(&loss, &bad, &[1.0], 10).is_err());
        assert!(validate_inputs(&loss, &pts, &w, 10).is_ok());
    }

    #[test]
    fn excess_risk_is_zero_at_optimum_positive_elsewhere() {
        let loss = SquaredLoss::new(1).unwrap();
        let (pts, w) = toy_data();
        let at_opt = excess_risk(&loss, &pts, &w, &[0.5], 2000).unwrap();
        assert!(at_opt < 1e-4, "{at_opt}");
        let off = excess_risk(&loss, &pts, &w, &[-0.5], 2000).unwrap();
        assert!(off > 0.01);
    }

    #[test]
    fn auto_picks_output_perturbation_for_strongly_convex() {
        let loss = L2Regularized::new(SquaredLoss::new(1).unwrap(), 0.5).unwrap();
        let (pts, w) = toy_data();
        let mut rng = StdRng::seed_from_u64(61);
        let budget = PrivacyBudget::new(2.0, 1e-6).unwrap();
        let theta = OracleChoice::Auto
            .solve(&loss, &pts, &w, 100_000, budget, &mut rng)
            .unwrap();
        assert_eq!(theta.len(), 1);
        assert!(loss.domain().contains(&theta, 1e-9));
    }

    #[test]
    fn auto_falls_back_to_noisy_gd_for_plain_lipschitz() {
        let loss = LogisticLoss::new(2).unwrap();
        let pts =
            PointMatrix::from_rows(vec![vec![0.5, 0.5, 1.0], vec![-0.5, -0.5, -1.0]]).unwrap();
        let w = vec![0.5, 0.5];
        let mut rng = StdRng::seed_from_u64(62);
        let budget = PrivacyBudget::new(2.0, 1e-6).unwrap();
        let theta = OracleChoice::Auto
            .solve(&loss, &pts, &w, 50_000, budget, &mut rng)
            .unwrap();
        assert!(loss.domain().contains(&theta, 1e-9));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(OracleChoice::Auto.name(), "auto");
        assert_eq!(OracleChoice::Exact(ExactOracle::default()).name(), "exact");
    }
}
