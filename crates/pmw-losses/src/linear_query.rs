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
//!
//! `p` is pmw-data's [`ImplicitQuery`], the same query `Mwem` and the
//! sketch answer: [`ImplicitQuery::new`] validates the predicate, and
//! every evaluation goes through [`ImplicitQuery::evaluate`] (one point)
//! or [`PointQuery::values_at_rows`] (a block of rows: a weighted
//! objective's targets, through [`CmLoss::quadratic_target`], and the
//! certificate sweep).

use crate::error::LossError;
use crate::traits::CmLoss;
use pmw_convex::Domain;
use pmw_data::{DataError, ImplicitQuery, PointQuery};

pub use pmw_data::PointPredicate;

/// The CM encoding of a linear query: `ℓ(θ; x) = ½(θ − p(x))²` over
/// `Θ = [0, 1]`.
#[derive(Debug, Clone)]
pub struct LinearQueryLoss {
    query: ImplicitQuery,
    domain: Domain,
}

impl LinearQueryLoss {
    /// Wrap a predicate over `point_dim`-dimensional points, refusing what
    /// [`ImplicitQuery::new`] refuses.
    pub fn new(predicate: PointPredicate, point_dim: usize) -> Result<Self, LossError> {
        let query = ImplicitQuery::new(predicate, point_dim).map_err(|e| match e {
            DataError::DimensionMismatch { got, expected } => {
                LossError::PointDimensionMismatch { got, expected }
            }
            DataError::InvalidParameter(msg) | DataError::InvalidWeights(msg) => {
                LossError::InvalidParameter(msg)
            }
            _ => LossError::InvalidParameter("point dimension must be positive"),
        })?;
        Ok(Self {
            query,
            domain: Domain::interval(0.0, 1.0)?,
        })
    }

    /// The wrapped query `p`.
    pub fn query(&self) -> &ImplicitQuery {
        &self.query
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
        self.query.dim()
    }

    fn loss(&self, theta: &[f64], x: &[f64]) -> f64 {
        let r = theta[0] - self.query.evaluate(x);
        0.5 * r * r
    }

    fn gradient(&self, theta: &[f64], x: &[f64], out: &mut [f64]) {
        out[0] = theta[0] - self.query.evaluate(x);
    }

    /// `p`: the loss is `½(θ − p(x))²`, so a weighted objective evaluates
    /// the query once per point, in one block, not on every solver pass.
    fn quadratic_target(&self) -> Option<&dyn PointQuery> {
        Some(&self.query)
    }

    /// `θ` is a scalar, so the payoff is `direction·(θ_hyp − p(x))`: one
    /// [`PointQuery::values_at_rows`] call per chunk of rows, then that
    /// expression in place. Chunked across cores. Each `p(x)` has the bits
    /// of [`ImplicitQuery::evaluate`], so the payoffs are those of the
    /// per-point gradient path.
    fn certificate_batch(
        &self,
        theta_hyp: &[f64],
        direction: &[f64],
        points: &pmw_data::PointMatrix,
        out: &mut [f64],
    ) {
        let (t, dir) = (theta_hyp[0], direction[0]);
        let dim = points.dim();
        pmw_data::par::for_each_chunk_mut(out, |offset, chunk| {
            let rows = points.row_block(offset, offset + chunk.len());
            self.query
                .values_at_rows(None, rows, dim, chunk)
                .expect("an implicit query evaluates every row");
            for slot in chunk {
                *slot = dir * (t - *slot);
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

    /// The predicates keep the values `LinearQueryLoss` gave them before
    /// they moved to pmw-data: the threshold reads `x ≥ t` here, and dot
    /// products keep `vecmath::dot`'s bits.
    #[test]
    fn predicates_evaluate() {
        let p = |predicate, dim| LinearQueryLoss::new(predicate, dim).unwrap();
        let hs = p(
            PointPredicate::Halfspace {
                normal: vec![1.0, -1.0],
                offset: 0.0,
            },
            2,
        );
        assert_eq!(hs.query().evaluate(&[0.5, 0.1]), 1.0);
        assert_eq!(hs.query().evaluate(&[0.1, 0.5]), 0.0);

        let th = p(
            PointPredicate::Threshold {
                coord: 1,
                threshold: 0.5,
                at_least: true,
            },
            2,
        );
        assert_eq!(th.query().evaluate(&[0.0, 0.7]), 1.0);
        assert_eq!(th.query().evaluate(&[0.9, 0.2]), 0.0);

        let cj = p(PointPredicate::Conjunction { coords: vec![0, 2] }, 3);
        assert_eq!(cj.query().evaluate(&[1.0, 0.0, 1.0]), 1.0);
        assert_eq!(cj.query().evaluate(&[1.0, 1.0, 0.0]), 0.0);

        let ln = p(
            PointPredicate::Linear {
                weights: vec![0.5, 0.5],
                offset: 0.0,
            },
            2,
        );
        assert_eq!(ln.query().evaluate(&[1.0, 1.0]), 1.0);
        assert_eq!(ln.query().evaluate(&[0.4, 0.4]), 0.4);
        assert_eq!(ln.query().evaluate(&[-3.0, 0.0]), 0.0);

        let (w, offset) = (vec![0.3, -0.7, 0.45, 0.1], 0.15);
        let normal = w.clone();
        let hs = p(PointPredicate::Halfspace { normal, offset }, 4);
        let weights = w.clone();
        let ln = p(PointPredicate::Linear { weights, offset }, 4);
        for i in 0..64 {
            let i = f64::from(i);
            let x = [(i * 0.37).sin(), (i * 1.3).cos(), i * 0.011 - 0.2, 0.5];
            let dot = pmw_convex::vecmath::dot(&w, &x);
            let want = (dot + offset).clamp(0.0, 1.0);
            assert_eq!(ln.query().evaluate(&x).to_bits(), want.to_bits(), "{x:?}");
            assert_eq!(hs.query().evaluate(&x), f64::from(dot >= offset), "{x:?}");
        }
    }

    #[test]
    fn construction_validates_dimensions() {
        assert_eq!(
            LinearQueryLoss::new(
                PointPredicate::Halfspace {
                    normal: vec![1.0],
                    offset: 0.0
                },
                2
            )
            .unwrap_err(),
            LossError::PointDimensionMismatch {
                got: 1,
                expected: 2
            }
        );
        assert!(LinearQueryLoss::new(
            PointPredicate::Threshold {
                coord: 3,
                threshold: 0.0,
                at_least: true
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
        // Fail closed: an empty conjunction, and a non-finite threshold,
        // normal, weight or offset.
        assert!(LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![] }, 3).is_err());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let threshold = PointPredicate::Threshold {
                coord: 0,
                threshold: bad,
                at_least: true,
            };
            assert!(LinearQueryLoss::new(threshold, 2).is_err());
            for (coefficients, offset) in [(vec![bad, 1.0], 0.0), (vec![1.0, 1.0], bad)] {
                let normal = coefficients.clone();
                let halfspace = PointPredicate::Halfspace { normal, offset };
                assert!(LinearQueryLoss::new(halfspace, 2).is_err());
                let weights = coefficients;
                let linear = PointPredicate::Linear { weights, offset };
                assert!(LinearQueryLoss::new(linear, 2).is_err());
            }
        }
    }

    #[test]
    fn minimizer_is_query_answer() {
        // Dataset: 3 of 4 points satisfy the threshold predicate; the CM
        // minimizer must be 0.75 = the linear query answer.
        let loss = LinearQueryLoss::new(
            PointPredicate::Threshold {
                coord: 0,
                threshold: 0.5,
                at_least: true,
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
