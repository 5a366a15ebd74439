//! Linear queries encoded as CM queries.
//!
//! Linear queries are "a special case of Lipschitz, 1-bounded CM queries"
//! (Section 1.1, Table 1). The encoding: for a predicate `p: X → [0, 1]`,
//! take `Θ = [0, 1] ⊂ R` and
//!
//! `ℓ_p(θ; x) = ½·(θ − p(x))²`,
//!
//! whose averaged minimizer is exactly the query answer
//! `argmin_θ ℓ_p(θ; D) = E_{x∼D}[p(x)]`. The loss is 1-Lipschitz,
//! 1-strongly convex and 1-smooth, so every pipeline built for CM queries
//! (oracles, PMW, baselines) answers linear queries through this type —
//! which is how the tests check that CM-PMW degenerates to classic linear
//! PMW \[HR10\].

use crate::error::LossError;
use crate::traits::CmLoss;
use pmw_convex::{vecmath, Domain};

/// A point predicate `p: R^p → [0, 1]`, evaluated on raw point coordinates.
#[derive(Debug, Clone, PartialEq)]
pub enum PointPredicate {
    /// `p(x) = 1[⟨w, x⟩ ≥ b]` — halfspace membership.
    Halfspace {
        /// Normal vector (length = point dimension).
        normal: Vec<f64>,
        /// Offset.
        offset: f64,
    },
    /// `p(x) = 1[x_coord ≥ threshold]` — one-sided coordinate threshold.
    Threshold {
        /// Coordinate index.
        coord: usize,
        /// Threshold value.
        threshold: f64,
    },
    /// `p(x) = Π_{i∈coords} 1[x_i ≥ 0.5]` — monotone conjunction (a marginal
    /// query on `{0,1}`-valued coordinates).
    Conjunction {
        /// Coordinates that must be "set" (≥ 0.5).
        coords: Vec<usize>,
    },
    /// `p(x) = clamp(⟨w, x⟩ + b, 0, 1)` — a bounded linear statistic.
    Linear {
        /// Weights (length = point dimension).
        weights: Vec<f64>,
        /// Offset.
        offset: f64,
    },
}

impl PointPredicate {
    /// Evaluate `p(x) ∈ [0, 1]`.
    pub fn evaluate(&self, x: &[f64]) -> f64 {
        match self {
            PointPredicate::Halfspace { normal, offset } => {
                if vecmath::dot(normal, x) >= *offset {
                    1.0
                } else {
                    0.0
                }
            }
            PointPredicate::Threshold { coord, threshold } => {
                if x.get(*coord).copied().unwrap_or(0.0) >= *threshold {
                    1.0
                } else {
                    0.0
                }
            }
            PointPredicate::Conjunction { coords } => {
                if coords
                    .iter()
                    .all(|&c| x.get(c).copied().unwrap_or(0.0) >= 0.5)
                {
                    1.0
                } else {
                    0.0
                }
            }
            PointPredicate::Linear { weights, offset } => {
                (vecmath::dot(weights, x) + offset).clamp(0.0, 1.0)
            }
        }
    }

    fn validate(&self, point_dim: usize) -> Result<(), LossError> {
        match self {
            PointPredicate::Halfspace { normal, .. } => {
                if normal.len() != point_dim {
                    return Err(LossError::PointDimensionMismatch {
                        got: normal.len(),
                        expected: point_dim,
                    });
                }
            }
            PointPredicate::Threshold { coord, .. } => {
                if *coord >= point_dim {
                    return Err(LossError::InvalidParameter(
                        "threshold coordinate out of range",
                    ));
                }
            }
            PointPredicate::Conjunction { coords } => {
                if coords.iter().any(|&c| c >= point_dim) {
                    return Err(LossError::InvalidParameter(
                        "conjunction coordinate out of range",
                    ));
                }
            }
            PointPredicate::Linear { weights, .. } => {
                if weights.len() != point_dim {
                    return Err(LossError::PointDimensionMismatch {
                        got: weights.len(),
                        expected: point_dim,
                    });
                }
            }
        }
        Ok(())
    }
}

/// The CM encoding of a linear query: `ℓ(θ; x) = ½(θ − p(x))²` over
/// `Θ = [0, 1]`.
#[derive(Debug, Clone)]
pub struct LinearQueryLoss {
    predicate: PointPredicate,
    point_dim: usize,
    domain: Domain,
}

impl LinearQueryLoss {
    /// Wrap a predicate over `point_dim`-dimensional points.
    pub fn new(predicate: PointPredicate, point_dim: usize) -> Result<Self, LossError> {
        predicate.validate(point_dim)?;
        Ok(Self {
            predicate,
            point_dim,
            domain: Domain::interval(0.0, 1.0)?,
        })
    }

    /// The wrapped predicate.
    pub fn predicate(&self) -> &PointPredicate {
        &self.predicate
    }
}

impl CmLoss for LinearQueryLoss {
    fn dim(&self) -> usize {
        1
    }

    fn domain(&self) -> &Domain {
        &self.domain
    }

    fn point_dim(&self) -> usize {
        self.point_dim
    }

    fn loss(&self, theta: &[f64], x: &[f64]) -> f64 {
        let r = theta[0] - self.predicate.evaluate(x);
        0.5 * r * r
    }

    fn gradient(&self, theta: &[f64], x: &[f64], out: &mut [f64]) {
        out[0] = theta[0] - self.predicate.evaluate(x);
    }

    /// `p(x)`: the loss is `½(θ − p(x))²`, so a weighted objective
    /// evaluates the predicate once per point, not on every solver pass.
    fn quadratic_target(&self, x: &[f64]) -> Option<f64> {
        Some(self.predicate.evaluate(x))
    }

    /// Loop-fused sweep: `θ` is a scalar, so the payoff is
    /// `direction·(θ_hyp − p(x))` — one predicate evaluation per point,
    /// nothing else. Chunked across cores under the `parallel` feature.
    ///
    /// The predicate dispatch is hoisted out of the per-row loop (split
    /// loops per variant), with direct indexing licensed by construction
    /// (`validate` checked every coordinate against `point_dim`), so the
    /// single-coordinate variants compile to tight branchless sweeps. The
    /// dot-product variants keep `vecmath::dot`'s accumulation order so
    /// payoffs are bit-identical to the per-point gradient path.
    fn certificate_batch(
        &self,
        theta_hyp: &[f64],
        direction: &[f64],
        points: &pmw_data::PointMatrix,
        out: &mut [f64],
    ) {
        let (t, dir) = (theta_hyp[0], direction[0]);
        let stride = points.dim();
        pmw_data::par::for_each_chunk_mut(out, |offset, chunk| {
            let rows = points.row_block(offset, offset + chunk.len());
            match &self.predicate {
                PointPredicate::Threshold { coord, threshold } => {
                    let (c, th) = (*coord, *threshold);
                    let mut slots = chunk.chunks_exact_mut(4);
                    let mut xs = rows.chunks_exact(4 * stride);
                    for (s4, x4) in slots.by_ref().zip(xs.by_ref()) {
                        for lane in 0..4 {
                            s4[lane] = dir * (t - f64::from(x4[lane * stride + c] >= th));
                        }
                    }
                    for (slot, x) in slots
                        .into_remainder()
                        .iter_mut()
                        .zip(xs.remainder().chunks_exact(stride))
                    {
                        *slot = dir * (t - f64::from(x[c] >= th));
                    }
                }
                PointPredicate::Conjunction { coords } => {
                    for (slot, x) in chunk.iter_mut().zip(rows.chunks_exact(stride)) {
                        let mut hit = true;
                        for &c in coords {
                            hit &= x[c] >= 0.5;
                        }
                        *slot = dir * (t - f64::from(hit));
                    }
                }
                PointPredicate::Halfspace { normal, offset } => {
                    for (slot, x) in chunk.iter_mut().zip(rows.chunks_exact(stride)) {
                        *slot = dir * (t - f64::from(vecmath::dot(normal, x) >= *offset));
                    }
                }
                PointPredicate::Linear { weights, offset } => {
                    for (slot, x) in chunk.iter_mut().zip(rows.chunks_exact(stride)) {
                        *slot = dir * (t - (vecmath::dot(weights, x) + offset).clamp(0.0, 1.0));
                    }
                }
            }
        });
    }

    fn lipschitz(&self) -> f64 {
        // |theta - p| <= 1 on [0,1] x [0,1].
        1.0
    }

    fn strong_convexity(&self) -> f64 {
        1.0
    }

    fn smoothness(&self) -> Option<f64> {
        Some(1.0)
    }

    fn clone_shared(&self) -> Option<std::sync::Arc<dyn CmLoss>> {
        Some(std::sync::Arc::new(self.clone()))
    }

    fn name(&self) -> &'static str {
        "linear-query"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::minimize_weighted;

    #[test]
    fn predicates_evaluate() {
        let hs = PointPredicate::Halfspace {
            normal: vec![1.0, -1.0],
            offset: 0.0,
        };
        assert_eq!(hs.evaluate(&[0.5, 0.1]), 1.0);
        assert_eq!(hs.evaluate(&[0.1, 0.5]), 0.0);

        let th = PointPredicate::Threshold {
            coord: 1,
            threshold: 0.5,
        };
        assert_eq!(th.evaluate(&[0.0, 0.7]), 1.0);
        assert_eq!(th.evaluate(&[0.9, 0.2]), 0.0);

        let cj = PointPredicate::Conjunction { coords: vec![0, 2] };
        assert_eq!(cj.evaluate(&[1.0, 0.0, 1.0]), 1.0);
        assert_eq!(cj.evaluate(&[1.0, 1.0, 0.0]), 0.0);

        let ln = PointPredicate::Linear {
            weights: vec![0.5, 0.5],
            offset: 0.0,
        };
        assert_eq!(ln.evaluate(&[1.0, 1.0]), 1.0);
        assert_eq!(ln.evaluate(&[0.4, 0.4]), 0.4);
        assert_eq!(ln.evaluate(&[-3.0, 0.0]), 0.0);
    }

    #[test]
    fn construction_validates_dimensions() {
        assert!(LinearQueryLoss::new(
            PointPredicate::Halfspace {
                normal: vec![1.0],
                offset: 0.0
            },
            2
        )
        .is_err());
        assert!(LinearQueryLoss::new(
            PointPredicate::Threshold {
                coord: 3,
                threshold: 0.0
            },
            2
        )
        .is_err());
        assert!(
            LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![0, 5] }, 3).is_err()
        );
        assert!(LinearQueryLoss::new(
            PointPredicate::Linear {
                weights: vec![1.0, 1.0, 1.0],
                offset: 0.0
            },
            2
        )
        .is_err());
    }

    #[test]
    fn minimizer_is_query_answer() {
        // Dataset: 3 of 4 points satisfy the threshold predicate; the CM
        // minimizer must be 0.75 = the linear query answer.
        let loss = LinearQueryLoss::new(
            PointPredicate::Threshold {
                coord: 0,
                threshold: 0.5,
            },
            1,
        )
        .unwrap();
        let pts =
            pmw_data::PointMatrix::from_rows(vec![vec![1.0], vec![0.9], vec![0.8], vec![0.0]])
                .unwrap();
        let w = vec![0.25; 4];
        let theta = minimize_weighted(&loss, &pts, &w, 500).unwrap();
        assert!((theta[0] - 0.75).abs() < 1e-6, "{}", theta[0]);
    }

    #[test]
    fn metadata_matches_paper_special_case() {
        let loss =
            LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![0] }, 4).unwrap();
        assert_eq!(loss.dim(), 1);
        assert_eq!(loss.lipschitz(), 1.0);
        assert_eq!(loss.strong_convexity(), 1.0);
        // S = diameter * L = 1 for the [0,1] interval: linear queries are
        // "Lipschitz, 1-bounded" as Table 1 says.
        assert!((loss.scale_bound() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let loss = LinearQueryLoss::new(
            PointPredicate::Linear {
                weights: vec![0.3, 0.7],
                offset: 0.1,
            },
            2,
        )
        .unwrap();
        let x = [0.4, 0.2];
        let theta = [0.6];
        let mut g = [0.0];
        loss.gradient(&theta, &x, &mut g);
        let h = 1e-6;
        let fd = (loss.loss(&[theta[0] + h], &x) - loss.loss(&[theta[0] - h], &x)) / (2.0 * h);
        assert!((g[0] - fd).abs() < 1e-5);
    }
}
