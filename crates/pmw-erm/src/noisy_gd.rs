//! Noisy projected gradient descent — the \[BST14\]-style oracle
//! (Theorem 4.1's role: Lipschitz, `d`-bounded losses).
//!
//! Each iteration releases the average gradient through the Gaussian
//! mechanism (L2 sensitivity `2L/n` for an `L`-Lipschitz loss averaged over
//! `n` rows), steps, and projects back onto `Θ`. The `T` gradient releases
//! are calibrated in zCDP (`pmw_dp::zcdp::rho_for_budget`): the
//! `(ε₀, δ₀)` target converts to a `ρ` budget, each step gets `ρ/T`, so
//! `σ = (2L/n)·√(T/(2ρ))` — a `~√(8·ln(1/δ))` noise saving over splitting
//! the budget with \[DRV10\] strong composition (the paper's Section 3.4.1
//! bookkeeping remains valid: zCDP composition is at least as strong). The
//! returned point is the iterate average.
//!
//! Excess risk scales as `Õ(√d·√T/(nε₀)) + O(1/√T)`: more iterations reduce
//! optimization error but add noise, reproducing \[BST14\]'s `√d/(nε₀)` shape
//! at the balancing point (their analysis takes `T = n²`; we default to a
//! laptop-friendly budget and expose the knob).

use crate::error::ErmError;
use crate::oracle::{validate_inputs, ErmOracle};
use pmw_convex::solvers::StepRule;
use pmw_convex::{vecmath, Objective};
use pmw_data::PointMatrix;
use pmw_dp::zcdp::rho_for_budget;
use pmw_dp::PrivacyBudget;
use pmw_losses::{CmLoss, WeightedObjective};
use rand::Rng;

/// Noisy projected gradient descent oracle.
#[derive(Debug, Clone, Copy)]
pub struct NoisyGdOracle {
    /// Number of noisy gradient iterations `T`.
    pub iterations: usize,
}

impl Default for NoisyGdOracle {
    fn default() -> Self {
        Self { iterations: 60 }
    }
}

impl NoisyGdOracle {
    /// Oracle with a custom iteration count.
    pub fn new(iterations: usize) -> Result<Self, ErmError> {
        if iterations == 0 {
            return Err(ErmError::InvalidParameter("iterations must be >= 1"));
        }
        Ok(Self { iterations })
    }

    /// The noise level each gradient release receives for a given loss,
    /// dataset size and budget: with total zCDP
    /// budget `rho`, each of the `T` steps uses `sigma = Delta*sqrt(T/2rho)`.
    /// Fails closed unless `sigma` is finite and positive, which rejects a
    /// Lipschitz bound that is NaN, infinite, zero or negative.
    pub fn per_step_sigma(
        &self,
        lipschitz: f64,
        n: usize,
        budget: PrivacyBudget,
    ) -> Result<f64, ErmError> {
        let rho = rho_for_budget(budget)?;
        let sensitivity = 2.0 * lipschitz / n as f64;
        let sigma = sensitivity * (self.iterations as f64 / (2.0 * rho)).sqrt();
        // A σ that is NaN or underflows to 0 would release the (near-)
        // noiseless gradients; an infinite one, pure noise.
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(ErmError::InvalidParameter(
                "noisy gradient descent noise scale must be finite and positive",
            ));
        }
        Ok(sigma)
    }
}

impl ErmOracle for NoisyGdOracle {
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
        if budget.delta() <= 0.0 {
            return Err(ErmError::InvalidParameter(
                "noisy gradient descent requires delta > 0",
            ));
        }
        let objective = WeightedObjective::new(loss, points, weights)?;
        let domain = loss.domain();
        let d = loss.dim();
        let sigma = self.per_step_sigma(loss.lipschitz(), n, budget)?;

        // Step rule: 1/L for smooth losses, R/(G√t) otherwise; the noise is
        // zero-mean so the standard schedules remain valid in expectation.
        let rule = match loss.smoothness() {
            Some(s) => StepRule::Constant(1.0 / s.max(1e-9)),
            None => StepRule::InvSqrt(domain.diameter() / loss.lipschitz().max(1e-9)),
        };

        let mut theta = domain.center();
        let mut grad = vec![0.0; d];
        let mut avg = vec![0.0; d];
        for t in 0..self.iterations {
            objective.gradient(&theta, &mut grad);
            for g in grad.iter_mut() {
                *g += pmw_dp::sampler::gaussian(sigma, rng);
            }
            vecmath::axpy(-rule.step(t), &grad, &mut theta);
            domain.project(&mut theta)?;
            vecmath::axpy(1.0, &theta, &mut avg);
        }
        vecmath::scale(&mut avg, 1.0 / self.iterations as f64);
        domain.project(&mut avg)?;
        Ok(avg)
    }

    fn name(&self) -> &'static str {
        "noisy-gd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{excess_risk, NanLipschitz};
    use pmw_losses::{LogisticLoss, SquaredLoss};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn regression_data(m: usize) -> (PointMatrix, Vec<f64>) {
        let pts = PointMatrix::from_rows(
            (0..m)
                .map(|i| {
                    let x = i as f64 / m as f64 * 2.0 - 1.0;
                    vec![x, 0.6 * x]
                })
                .collect(),
        )
        .unwrap();
        let w = vec![1.0 / m as f64; m];
        (pts, w)
    }

    #[test]
    fn constructor_validates() {
        assert!(NoisyGdOracle::new(0).is_err());
        assert!(NoisyGdOracle::new(5).is_ok());
    }

    #[test]
    fn requires_positive_delta() {
        let loss = SquaredLoss::new(1).unwrap();
        let (pts, w) = regression_data(10);
        let mut rng = StdRng::seed_from_u64(71);
        let budget = PrivacyBudget::pure(1.0).unwrap();
        assert!(NoisyGdOracle::default()
            .solve(&loss, &pts, &w, 1000, budget, &mut rng)
            .is_err());
    }

    #[test]
    fn large_n_gives_small_excess_risk() {
        let loss = SquaredLoss::new(1).unwrap();
        let (pts, w) = regression_data(20);
        let mut rng = StdRng::seed_from_u64(72);
        let budget = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let oracle = NoisyGdOracle::new(80).unwrap();
        let theta = oracle
            .solve(&loss, &pts, &w, 100_000, budget, &mut rng)
            .unwrap();
        let risk = excess_risk(&loss, &pts, &w, &theta, 3000).unwrap();
        assert!(risk < 0.01, "risk {risk}");
    }

    #[test]
    fn excess_risk_decreases_with_n() {
        let loss = LogisticLoss::new(2).unwrap();
        let pts = PointMatrix::from_rows(vec![
            vec![0.7, 0.2, 1.0],
            vec![-0.6, -0.3, -1.0],
            vec![0.5, 0.5, 1.0],
            vec![-0.4, -0.6, -1.0],
        ])
        .unwrap();
        let w = vec![0.25; 4];
        let budget = PrivacyBudget::new(0.5, 1e-6).unwrap();
        let oracle = NoisyGdOracle::new(40).unwrap();
        let avg_risk = |n: usize, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut total = 0.0;
            for _ in 0..8 {
                let theta = oracle.solve(&loss, &pts, &w, n, budget, &mut rng).unwrap();
                total += excess_risk(&loss, &pts, &w, &theta, 3000).unwrap();
            }
            total / 8.0
        };
        let small = avg_risk(50, 73);
        let big = avg_risk(50_000, 74);
        assert!(
            big < small,
            "risk should fall with n: n=50 gives {small}, n=50000 gives {big}"
        );
    }

    #[test]
    fn per_step_sigma_scales_inversely_with_n() {
        let oracle = NoisyGdOracle::new(10).unwrap();
        let budget = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let s1 = oracle.per_step_sigma(1.0, 100, budget).unwrap();
        let s2 = oracle.per_step_sigma(1.0, 1000, budget).unwrap();
        assert!((s1 / s2 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_a_corrupt_lipschitz_bound() {
        // Clamping a NaN bound gave σ = 1.8e-308, which released the same
        // θ on every seed.
        let loss = NanLipschitz(LogisticLoss::new(1).unwrap());
        let (pts, w) = regression_data(10);
        let mut rng = StdRng::seed_from_u64(76);
        let budget = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let oracle = NoisyGdOracle::default();
        assert!(matches!(
            oracle.solve(&loss, &pts, &w, 100, budget, &mut rng),
            Err(ErmError::InvalidParameter(_))
        ));
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            assert!(matches!(
                oracle.per_step_sigma(bad, 100, budget),
                Err(ErmError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn result_is_feasible() {
        let loss = SquaredLoss::new(2).unwrap();
        let pts = PointMatrix::from_rows(vec![vec![1.0, 0.0, 1.0], vec![0.0, 1.0, -1.0]]).unwrap();
        let w = vec![0.5, 0.5];
        let mut rng = StdRng::seed_from_u64(75);
        // Tiny n -> huge noise; the projection must still keep us feasible.
        let budget = PrivacyBudget::new(0.1, 1e-6).unwrap();
        let theta = NoisyGdOracle::default()
            .solve(&loss, &pts, &w, 5, budget, &mut rng)
            .unwrap();
        assert!(loss.domain().contains(&theta, 1e-9));
    }
}
