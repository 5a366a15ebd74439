//! The dimension-independent GLM oracle (Theorem 4.3's role).
//!
//! \[JT14\] show that for unconstrained generalized linear models the
//! single-query sample complexity needs **no dependence on the ambient
//! dimension `d`** — `n = Õ(1/(α₀²ε₀))`. We reproduce that property with a
//! *data-independent Johnson–Lindenstrauss reduction*, a substitute for
//! \[JT14\]'s own algorithm that reuses the noisy-GD oracle:
//!
//! 1. sample a random Gaussian map `Φ ∈ R^{m×d}`, `Φ_ij ~ N(0, 1/m)`,
//!    **before looking at the data** — so conditioning on `Φ` preserves any
//!    DP guarantee of the downstream computation;
//! 2. project every example's features, `z_i = clip(Φ x_i)` (row-wise
//!    clipping to the unit ball keeps the Lipschitz metadata valid and is a
//!    per-row map, hence DP-safe);
//! 3. run the [`NoisyGdOracle`] on the `m`-dimensional
//!    GLM with the same link — its error is `Õ(√m/(nε₀))`, independent of `d`;
//! 4. lift back: `θ_d = Φᵀ θ_m`, which by construction predicts
//!    `⟨θ_d, x⟩ = ⟨θ_m, Φx⟩` — the projected model's predictions, exactly.
//!
//! JL preserves the inner products `⟨θ*, x_i⟩` up to `±O(α)` once
//! `m = O(log(#points)/α²)`, so the lifted model's excess risk exceeds the
//! projected optimum by only `O(L·α)`: the whole pipeline has error
//! independent of the ambient `d`, which is the property Table 1 row 3
//! needs.

use crate::error::ErmError;
use crate::noisy_gd::NoisyGdOracle;
use crate::oracle::{validate_inputs, ErmOracle};
use pmw_convex::vecmath;
use pmw_data::PointMatrix;
use pmw_dp::PrivacyBudget;
use pmw_losses::{CmLoss, GlmLoss};
use rand::Rng;

/// JL-projected GLM oracle; requires `loss.glm_link()` to be available.
#[derive(Debug, Clone, Copy)]
pub struct JlGlmOracle {
    /// Projected dimension `m`.
    pub target_dim: usize,
    /// Inner noisy-GD oracle configuration.
    pub inner: NoisyGdOracle,
}

impl Default for JlGlmOracle {
    fn default() -> Self {
        Self {
            target_dim: 16,
            inner: NoisyGdOracle::default(),
        }
    }
}

impl JlGlmOracle {
    /// Oracle projecting to `m` dimensions.
    pub fn new(target_dim: usize, inner: NoisyGdOracle) -> Result<Self, ErmError> {
        if target_dim == 0 {
            return Err(ErmError::InvalidParameter("target_dim must be >= 1"));
        }
        Ok(Self { target_dim, inner })
    }

    /// The projected dimension that preserves inner products to `±α` over
    /// `points` many vectors: `m = ⌈8·ln(max(points, 2))/α²⌉`.
    pub fn dim_for_accuracy(alpha: f64, points: usize) -> Result<usize, ErmError> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(ErmError::InvalidParameter("alpha must lie in (0, 1]"));
        }
        let m = (8.0 * (points.max(2) as f64).ln() / (alpha * alpha)).ceil() as usize;
        Ok(m.max(1))
    }
}

impl ErmOracle for JlGlmOracle {
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
        let link = loss
            .glm_link()
            .ok_or(ErmError::UnsupportedLoss("JL oracle requires a GLM loss"))?;
        let d = loss.dim();
        let m = self.target_dim;

        // If the problem is already low-dimensional, skip the projection.
        if m >= d {
            return self.inner.solve(loss, points, weights, n, budget, rng);
        }

        // 1. Data-independent projection matrix (row-major m x d).
        let scale = 1.0 / (m as f64).sqrt();
        let phi: Vec<Vec<f64>> = (0..m)
            .map(|_| {
                (0..d)
                    .map(|_| pmw_dp::sampler::gaussian(scale, rng))
                    .collect()
            })
            .collect();

        // 2. Project features and keep labels; clip to the unit ball so the
        //    projected GLM's Lipschitz metadata stays valid. Built directly
        //    in the flat row-major layout (stride m + 1).
        let mut projected_flat: Vec<f64> = Vec::with_capacity(points.len() * (m + 1));
        for x in points {
            let (features, y) = loss
                .glm_example(x)
                .ok_or(ErmError::UnsupportedLoss("JL oracle requires glm_example"))?;
            let start = projected_flat.len();
            projected_flat.extend(phi.iter().map(|row| vecmath::dot(row, &features)));
            let z = &mut projected_flat[start..];
            let norm = vecmath::norm2(z);
            if norm > 1.0 {
                vecmath::scale(z, 1.0 / norm);
            }
            projected_flat.push(y);
        }
        let projected = PointMatrix::from_flat(projected_flat, m + 1)
            .map_err(|_| ErmError::InvalidParameter("projected features must be finite"))?;

        // 3. Solve the m-dimensional GLM privately.
        let projected_loss = GlmLoss::new(link, m)?;
        let theta_m = self
            .inner
            .solve(&projected_loss, &projected, weights, n, budget, rng)?;

        // 4. Lift: theta_d = Phi^T theta_m, then make feasible.
        let mut theta_d = vec![0.0; d];
        for (row, &tm) in phi.iter().zip(&theta_m) {
            vecmath::axpy(tm, row, &mut theta_d);
        }
        loss.domain().project(&mut theta_d)?;
        Ok(theta_d)
    }

    fn name(&self) -> &'static str {
        "jl-glm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::excess_risk;
    use pmw_losses::catalog::TargetLoss;
    use pmw_losses::{LinkFn, SquaredLoss};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn unit_cube_points(dim: usize, m: usize, rng: &mut StdRng) -> PointMatrix {
        PointMatrix::from_rows(
            (0..m)
                .map(|_| {
                    let v: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() - 0.5).collect();
                    let norm = vecmath::norm2(&v).max(1e-9);
                    v.into_iter().map(|x| x / norm * 0.9).collect()
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn constructor_and_dim_helper_validate() {
        assert!(JlGlmOracle::new(0, NoisyGdOracle::default()).is_err());
        assert!(JlGlmOracle::dim_for_accuracy(0.0, 100).is_err());
        assert!(JlGlmOracle::dim_for_accuracy(2.0, 100).is_err());
        let m = JlGlmOracle::dim_for_accuracy(0.5, 100).unwrap();
        assert!(m >= 8, "{m}");
    }

    #[test]
    fn rejects_non_glm_losses() {
        // LinearQueryLoss has no glm view.
        let loss = pmw_losses::LinearQueryLoss::new(
            pmw_losses::PointPredicate::Threshold {
                coord: 0,
                threshold: 0.0,
            },
            1,
        )
        .unwrap();
        let pts = PointMatrix::from_rows(vec![vec![0.5]]).unwrap();
        let w = vec![1.0];
        let mut rng = StdRng::seed_from_u64(101);
        let budget = PrivacyBudget::new(1.0, 1e-6).unwrap();
        // The GLM requirement binds before any dimension fallback: this
        // oracle is for GLMs only.
        let err = JlGlmOracle::new(2, NoisyGdOracle::default())
            .unwrap()
            .solve(&loss, &pts, &w, 100, budget, &mut rng)
            .unwrap_err();
        assert!(matches!(err, ErmError::UnsupportedLoss(_)));
    }

    #[test]
    fn solves_glm_through_projection() {
        let mut rng = StdRng::seed_from_u64(102);
        let d = 24usize;
        let task = TargetLoss::regression(
            (0..d).map(|i| if i == 0 { 1.0 } else { 0.1 }).collect(),
            LinkFn::Squared,
        )
        .unwrap();
        let pts = unit_cube_points(d, 40, &mut rng);
        let w = vec![1.0 / 40.0; 40];
        let budget = PrivacyBudget::new(2.0, 1e-6).unwrap();
        let oracle = JlGlmOracle::new(12, NoisyGdOracle::new(60).unwrap()).unwrap();
        let theta = oracle
            .solve(&task, &pts, &w, 200_000, budget, &mut rng)
            .unwrap();
        assert_eq!(theta.len(), d);
        assert!(task.domain().contains(&theta, 1e-9));
        let risk = excess_risk(&task, &pts, &w, &theta, 3000).unwrap();
        assert!(risk < 0.2, "risk {risk}");
    }

    #[test]
    fn error_does_not_blow_up_with_ambient_dimension() {
        // The defining JT14 property: fixing m and n, the risk at d = 48
        // should be comparable to d = 12 (whereas noisy-GD noise scales
        // with sqrt(d)). We check the JL risk stays bounded.
        let budget = PrivacyBudget::new(2.0, 1e-6).unwrap();
        let risk_at = |d: usize, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let task = TargetLoss::regression(
                (0..d).map(|i| if i < 4 { 1.0 } else { 0.0 }).collect(),
                LinkFn::Squared,
            )
            .unwrap();
            let pts = unit_cube_points(d, 30, &mut rng);
            let w = vec![1.0 / 30.0; 30];
            let oracle = JlGlmOracle::new(10, NoisyGdOracle::new(50).unwrap()).unwrap();
            let mut tot = 0.0;
            for _ in 0..5 {
                let theta = oracle
                    .solve(&task, &pts, &w, 100_000, budget, &mut rng)
                    .unwrap();
                tot += excess_risk(&task, &pts, &w, &theta, 3000).unwrap();
            }
            tot / 5.0
        };
        let low = risk_at(12, 103);
        let high = risk_at(48, 104);
        assert!(
            high < low + 0.15,
            "risk should not explode with d: d=12 {low}, d=48 {high}"
        );
    }

    #[test]
    fn fallback_for_low_dimension_matches_inner_oracle_contract() {
        let loss = SquaredLoss::new(2).unwrap();
        let pts =
            PointMatrix::from_rows(vec![vec![0.5, 0.0, 0.25], vec![-0.5, 0.0, -0.25]]).unwrap();
        let w = vec![0.5, 0.5];
        let mut rng = StdRng::seed_from_u64(105);
        let budget = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let oracle = JlGlmOracle::new(16, NoisyGdOracle::new(40).unwrap()).unwrap();
        let theta = oracle
            .solve(&loss, &pts, &w, 100_000, budget, &mut rng)
            .unwrap();
        assert_eq!(theta.len(), 2);
        assert!((theta[0] - 0.5).abs() < 0.1, "{:?}", theta);
    }
}
