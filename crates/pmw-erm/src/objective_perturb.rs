//! Objective perturbation (\[CMS11\], approximate-DP variant of \[KST12\]).
//!
//! Instead of noising the *output*, perturb the *objective*:
//!
//! `J(θ) = ℓ_D(θ) + ⟨b, θ⟩ + (λ/2)‖θ‖₂²`,
//!
//! with `b ~ N(0, σ_b²·I_d)`, `σ_b = (2L/n)·√(2·ln(1.25/δ₀))/(ε₀/2)`, and
//! ridge weight `λ = 4·c/(n·ε₀)` where `c` bounds the per-example Hessian
//! (the loss's smoothness). This is the `(ε₀, δ₀)` recipe of Kifer–Smith–
//! Thakurta with the budget split evenly between the noise vector and the
//! regularization term. Requires a *smooth* loss (the Hessian bound is what
//! controls the density ratio).
//!
//! Included as the third classical single-query oracle so all of
//! Section 4.2's options are available on equal footing.

use crate::error::ErmError;
use crate::oracle::{validate_inputs, ErmOracle};
use pmw_convex::solvers::{ProjectedGradientDescent, SolverConfig};
use pmw_convex::{vecmath, Objective};
use pmw_data::PointMatrix;
use pmw_dp::PrivacyBudget;
use pmw_losses::{CmLoss, WeightedObjective};
use rand::Rng;

/// Objective perturbation oracle; requires `loss.smoothness().is_some()`.
#[derive(Debug, Clone, Copy)]
pub struct ObjectivePerturbationOracle {
    /// Inner solver iteration budget.
    pub solver_iters: usize,
}

impl Default for ObjectivePerturbationOracle {
    fn default() -> Self {
        Self { solver_iters: 2000 }
    }
}

impl ObjectivePerturbationOracle {
    /// Oracle with a custom solver budget.
    pub fn new(solver_iters: usize) -> Result<Self, ErmError> {
        if solver_iters == 0 {
            return Err(ErmError::InvalidParameter("solver_iters must be >= 1"));
        }
        Ok(Self { solver_iters })
    }
}

struct PerturbedObjective<'a, L: CmLoss + ?Sized> {
    base: WeightedObjective<'a, L>,
    b: &'a [f64],
    lambda: f64,
}

impl<L: CmLoss + ?Sized> Objective for PerturbedObjective<'_, L> {
    fn dim(&self) -> usize {
        self.base.dim()
    }

    fn value(&self, theta: &[f64]) -> f64 {
        self.base.value(theta)
            + vecmath::dot(self.b, theta)
            + 0.5 * self.lambda * vecmath::norm2_sq(theta)
    }

    fn gradient(&self, theta: &[f64], out: &mut [f64]) {
        self.base.gradient(theta, out);
        for ((o, bi), ti) in out.iter_mut().zip(self.b).zip(theta) {
            *o += bi + self.lambda * ti;
        }
    }
}

impl ErmOracle for ObjectivePerturbationOracle {
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
        let smooth = loss.smoothness().ok_or(ErmError::UnsupportedLoss(
            "objective perturbation requires smoothness",
        ))?;
        if budget.delta() <= 0.0 {
            return Err(ErmError::InvalidParameter(
                "objective perturbation (approximate-DP variant) requires delta > 0",
            ));
        }
        let nf = n as f64;
        let eps = budget.epsilon();
        let sigma_b = (2.0 * loss.lipschitz() / nf) * (2.0 * (1.25 / budget.delta()).ln()).sqrt()
            / (eps / 2.0);
        let lambda = 4.0 * smooth / (nf * eps);
        let b: Vec<f64> = (0..loss.dim())
            .map(|_| pmw_dp::sampler::gaussian(sigma_b.max(f64::MIN_POSITIVE), rng))
            .collect();
        let base = WeightedObjective::new(loss, points, weights)?;
        let perturbed = PerturbedObjective {
            base,
            b: &b,
            lambda,
        };
        let config = SolverConfig::smooth(smooth + lambda, self.solver_iters)?;
        let solver = ProjectedGradientDescent::new(config)?;
        let result = solver.minimize(&perturbed, loss.domain(), None)?;
        Ok(result.theta)
    }

    fn name(&self) -> &'static str {
        "objective-perturbation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::excess_risk;
    use pmw_losses::{HingeLoss, LogisticLoss, SquaredLoss};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data() -> (PointMatrix, Vec<f64>) {
        let pts = PointMatrix::from_rows(
            (0..16)
                .map(|i| {
                    let x = i as f64 / 16.0 * 2.0 - 1.0;
                    vec![x, if x > 0.0 { 1.0 } else { -1.0 }]
                })
                .collect(),
        )
        .unwrap();
        let w = vec![1.0 / 16.0; 16];
        (pts, w)
    }

    #[test]
    fn rejects_nonsmooth_losses() {
        let loss = HingeLoss::new(1).unwrap();
        let (pts, w) = data();
        let mut rng = StdRng::seed_from_u64(91);
        let budget = PrivacyBudget::new(1.0, 1e-6).unwrap();
        assert!(matches!(
            ObjectivePerturbationOracle::default()
                .solve(&loss, &pts, &w, 100, budget, &mut rng)
                .unwrap_err(),
            ErmError::UnsupportedLoss(_)
        ));
    }

    #[test]
    fn rejects_pure_dp_budget() {
        let loss = LogisticLoss::new(1).unwrap();
        let (pts, w) = data();
        let mut rng = StdRng::seed_from_u64(92);
        let budget = PrivacyBudget::pure(1.0).unwrap();
        assert!(ObjectivePerturbationOracle::default()
            .solve(&loss, &pts, &w, 100, budget, &mut rng)
            .is_err());
    }

    #[test]
    fn large_n_gives_small_excess_risk() {
        let loss = LogisticLoss::new(1).unwrap();
        let (pts, w) = data();
        let mut rng = StdRng::seed_from_u64(93);
        let budget = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let theta = ObjectivePerturbationOracle::default()
            .solve(&loss, &pts, &w, 1_000_000, budget, &mut rng)
            .unwrap();
        let risk = excess_risk(&loss, &pts, &w, &theta, 3000).unwrap();
        assert!(risk < 0.01, "risk {risk}");
    }

    #[test]
    fn risk_degrades_gracefully_for_small_n() {
        let loss = SquaredLoss::new(1).unwrap();
        let (pts, w) = data();
        let budget = PrivacyBudget::new(0.5, 1e-6).unwrap();
        let avg = |n: usize, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tot = 0.0;
            for _ in 0..10 {
                let theta = ObjectivePerturbationOracle::default()
                    .solve(&loss, &pts, &w, n, budget, &mut rng)
                    .unwrap();
                tot += excess_risk(&loss, &pts, &w, &theta, 2000).unwrap();
            }
            tot / 10.0
        };
        let small = avg(30, 94);
        let big = avg(30_000, 95);
        assert!(big < small, "n=30: {small}, n=30000: {big}");
    }

    #[test]
    fn output_is_feasible() {
        let loss = LogisticLoss::new(2).unwrap();
        let pts =
            PointMatrix::from_rows(vec![vec![0.4, 0.4, 1.0], vec![-0.4, -0.4, -1.0]]).unwrap();
        let w = vec![0.5, 0.5];
        let mut rng = StdRng::seed_from_u64(96);
        let budget = PrivacyBudget::new(0.1, 1e-6).unwrap();
        let theta = ObjectivePerturbationOracle::default()
            .solve(&loss, &pts, &w, 10, budget, &mut rng)
            .unwrap();
        assert!(loss.domain().contains(&theta, 1e-9));
    }
}
