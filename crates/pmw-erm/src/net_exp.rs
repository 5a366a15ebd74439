//! Exponential-mechanism-over-a-net oracle.
//!
//! The generic fallback: discretize `Θ` into a finite net, score each
//! candidate by its negative empirical risk, and sample with the exponential
//! mechanism \[MT07\]. Works for *any* CM loss (no smoothness, no strong
//! convexity, pure `(ε₀, 0)`-DP) at the price of `poly(net)` time — usable
//! only in low dimension, mirroring the paper's own running-time discussion
//! (Section 4.3).
//!
//! Score sensitivity: by the paper's Section 3.4 argument, the scale
//! condition implies each per-row loss lives in an interval of width `S`, so
//! a one-row change moves the average loss by at most `S/n`.

use crate::error::ErmError;
use crate::oracle::{validate_inputs, ErmOracle};
use pmw_convex::Objective;
use pmw_data::PointMatrix;
use pmw_dp::{ExponentialMechanism, PrivacyBudget};
use pmw_losses::{CmLoss, WeightedObjective};
use rand::Rng;

/// Exponential mechanism over a grid net of `Θ`.
#[derive(Debug, Clone, Copy)]
pub struct NetExponentialOracle {
    /// Net resolution: points per axis.
    pub per_axis: usize,
}

impl Default for NetExponentialOracle {
    fn default() -> Self {
        Self { per_axis: 9 }
    }
}

impl NetExponentialOracle {
    /// Oracle with the given net resolution.
    pub fn new(per_axis: usize) -> Result<Self, ErmError> {
        if per_axis < 2 {
            return Err(ErmError::InvalidParameter("per_axis must be >= 2"));
        }
        Ok(Self { per_axis })
    }
}

impl ErmOracle for NetExponentialOracle {
    fn solve(
        &self,
        loss: &dyn CmLoss,
        points: &PointMatrix,
        weights: &[f64],
        n: usize,
        budget: PrivacyBudget,
        rng: &mut dyn Rng,
    ) -> Result<Vec<f64>, ErmError> {
        validate_inputs(loss, points, weights, n)?;
        let net = loss.domain().grid_net(self.per_axis)?;
        let objective = WeightedObjective::new(loss, points, weights)?;
        let scores: Vec<f64> = net.iter().map(|theta| -objective.value(theta)).collect();
        let sensitivity = loss.scale_bound() / n as f64;
        // A NaN, zero or negative bound has no valid sensitivity; a
        // near-zero one would release the argmax with no noise at all.
        if !(sensitivity.is_finite() && sensitivity > 0.0) {
            return Err(ErmError::InvalidParameter(
                "net exponential mechanism sensitivity must be finite and positive",
            ));
        }
        let mech = ExponentialMechanism::new(sensitivity, budget.epsilon())?;
        let idx = mech.select(&scores, rng)?;
        Ok(net[idx].clone())
    }

    fn name(&self) -> &'static str {
        "net-exponential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{excess_risk, NanLipschitz};
    use pmw_losses::{HingeLoss, LogisticLoss, SquaredLoss};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructor_validates() {
        assert!(NetExponentialOracle::new(1).is_err());
        assert!(NetExponentialOracle::new(5).is_ok());
    }

    #[test]
    fn rejects_a_corrupt_loss_bound() {
        // Clamping a NaN bound made the sensitivity ~1e-308, so the
        // mechanism returned the same net point on every seed.
        let loss = NanLipschitz(LogisticLoss::new(1).unwrap());
        let pts = PointMatrix::from_rows(vec![vec![0.5, 1.0], vec![-0.5, -1.0]]).unwrap();
        let w = vec![0.5, 0.5];
        let mut rng = StdRng::seed_from_u64(114);
        for (n, eps) in [(1, 1.0), (100, 0.01)] {
            let budget = PrivacyBudget::pure(eps).unwrap();
            assert!(matches!(
                NetExponentialOracle::default().solve(&loss, &pts, &w, n, budget, &mut rng),
                Err(ErmError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn handles_nonsmooth_losses_with_pure_dp() {
        // Hinge loss + pure epsilon: the combination the other oracles
        // cannot serve.
        let loss = HingeLoss::new(2).unwrap();
        let pts = PointMatrix::from_rows(vec![vec![0.7, 0.0, 1.0], vec![-0.7, 0.0, -1.0]]).unwrap();
        let w = vec![0.5, 0.5];
        let mut rng = StdRng::seed_from_u64(111);
        let budget = PrivacyBudget::pure(1.0).unwrap();
        let theta = NetExponentialOracle::default()
            .solve(&loss, &pts, &w, 100_000, budget, &mut rng)
            .unwrap();
        assert!(loss.domain().contains(&theta, 1e-9));
        // With huge n the selected point should be near-optimal: the
        // positive-margin direction theta ~ (1, 0).
        let risk = excess_risk(&loss, &pts, &w, &theta, 3000).unwrap();
        assert!(risk < 0.3, "risk {risk}");
    }

    #[test]
    fn large_n_selects_near_optimal_candidate() {
        let loss = SquaredLoss::new(1).unwrap();
        let pts = PointMatrix::from_rows(
            (0..8)
                .map(|i| {
                    let x = i as f64 / 8.0 * 2.0 - 1.0;
                    vec![x, 0.5 * x]
                })
                .collect(),
        )
        .unwrap();
        let w = vec![0.125; 8];
        let mut rng = StdRng::seed_from_u64(112);
        let budget = PrivacyBudget::pure(1.0).unwrap();
        let oracle = NetExponentialOracle::new(17).unwrap();
        let theta = oracle
            .solve(&loss, &pts, &w, 1_000_000, budget, &mut rng)
            .unwrap();
        assert!((theta[0] - 0.5).abs() < 0.13, "{}", theta[0]);
    }

    #[test]
    fn small_n_is_noisy_but_feasible() {
        let loss = SquaredLoss::new(1).unwrap();
        let pts = PointMatrix::from_rows(vec![vec![1.0, 0.5]]).unwrap();
        let w = vec![1.0];
        let mut rng = StdRng::seed_from_u64(113);
        let budget = PrivacyBudget::pure(0.1).unwrap();
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..50 {
            let theta = NetExponentialOracle::default()
                .solve(&loss, &pts, &w, 2, budget, &mut rng)
                .unwrap();
            assert!(loss.domain().contains(&theta, 1e-9));
            distinct.insert((theta[0] * 1000.0) as i64);
        }
        // With n = 2 and eps = 0.1 the selection must be visibly random.
        assert!(
            distinct.len() > 3,
            "only {} distinct outputs",
            distinct.len()
        );
    }
}
