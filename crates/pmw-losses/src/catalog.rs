//! Generators for families of distinct CM queries on unlabeled points.
//!
//! The paper's accuracy game (Figure 1) has the adversary choose `k`
//! different loss functions from a family `L`. These generators build such
//! families over *unlabeled* universes: each task plants a secret direction
//! `v` and asks the mechanism to fit the pseudo-label `⟨v, x⟩` (regression
//! links) or `sign(⟨v, x⟩)` (classification links) — `k` random directions
//! give `k` genuinely different CM queries against the same sensitive data,
//! the "many analysts, one dataset" workload of the paper's introduction.

use crate::error::LossError;
use crate::link::LinkFn;
use crate::traits::CmLoss;
use pmw_convex::{vecmath, Domain};
use rand::{Rng, RngExt};

/// A CM query on unlabeled points: `ℓ(θ; x) = φ(⟨θ, x⟩, label(x))` where the
/// label is synthesized from a planted direction `v`.
#[derive(Debug, Clone)]
pub struct TargetLoss {
    direction: Vec<f64>,
    link: LinkFn,
    binary_labels: bool,
    domain: Domain,
}

impl TargetLoss {
    /// Task with planted direction `v` (will be normalized to unit norm),
    /// regression labels `y = ⟨v, x⟩`.
    pub fn regression(direction: Vec<f64>, link: LinkFn) -> Result<Self, LossError> {
        Self::build(direction, link, false)
    }

    /// Task with planted direction `v`, classification labels
    /// `y = sign(⟨v, x⟩)`.
    pub fn classification(direction: Vec<f64>, link: LinkFn) -> Result<Self, LossError> {
        Self::build(direction, link, true)
    }

    fn build(mut direction: Vec<f64>, link: LinkFn, binary: bool) -> Result<Self, LossError> {
        if direction.is_empty() {
            return Err(LossError::InvalidParameter("direction must be nonempty"));
        }
        let norm = vecmath::norm2(&direction);
        if !norm.is_finite() || norm == 0.0 {
            return Err(LossError::InvalidParameter(
                "direction must be finite and nonzero",
            ));
        }
        vecmath::scale(&mut direction, 1.0 / norm);
        let dim = direction.len();
        Ok(Self {
            direction,
            link,
            binary_labels: binary,
            domain: Domain::unit_ball(dim)?,
        })
    }

    /// The planted (unit-norm) direction.
    pub fn direction(&self) -> &[f64] {
        &self.direction
    }

    fn label(&self, x: &[f64]) -> f64 {
        let z = vecmath::dot(&self.direction, x);
        if self.binary_labels {
            if z >= 0.0 {
                1.0
            } else {
                -1.0
            }
        } else {
            z.clamp(-1.0, 1.0)
        }
    }
}

impl CmLoss for TargetLoss {
    fn dim(&self) -> usize {
        self.direction.len()
    }

    fn domain(&self) -> &Domain {
        &self.domain
    }

    fn point_dim(&self) -> usize {
        self.direction.len()
    }

    fn loss(&self, theta: &[f64], x: &[f64]) -> f64 {
        self.link.value(vecmath::dot(theta, x), self.label(x))
    }

    fn gradient(&self, theta: &[f64], x: &[f64], out: &mut [f64]) {
        let d = self.link.derivative(vecmath::dot(theta, x), self.label(x));
        for (o, xi) in out.iter_mut().zip(x) {
            *o = d * xi;
        }
    }

    fn lipschitz(&self) -> f64 {
        // Features assumed unit-bounded (scaled universes).
        self.link.lipschitz(1.0)
    }

    fn smoothness(&self) -> Option<f64> {
        self.link.smoothness()
    }

    fn is_glm(&self) -> bool {
        true
    }

    fn glm_link(&self) -> Option<LinkFn> {
        Some(self.link)
    }

    fn glm_label(&self, x: &[f64]) -> Option<f64> {
        Some(self.label(x))
    }

    fn clone_shared(&self) -> Option<std::sync::Arc<dyn CmLoss>> {
        Some(std::sync::Arc::new(self.clone()))
    }

    fn name(&self) -> &'static str {
        self.link.name()
    }
}

fn random_unit_direction<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Vec<f64> {
    loop {
        // Gaussian via the central limit of uniforms is too crude; use the
        // sign-randomized exponential trick instead: coordinates ±Exp(1)
        // are heavy-tailed enough to avoid degenerate directions, and after
        // normalization the exact law is irrelevant for workload purposes.
        let v: Vec<f64> = (0..dim)
            .map(|_| {
                let u: f64 = rng.random();
                let mag = -(1.0 - u).max(f64::MIN_POSITIVE).ln();
                if rng.random::<bool>() {
                    mag
                } else {
                    -mag
                }
            })
            .collect();
        if vecmath::norm2(&v) > 1e-9 {
            return v;
        }
    }
}

/// `k` random regression tasks with the given link (squared by default in
/// the experiments) — Table 1 row 2/3 workloads.
pub fn random_regression_tasks<R: Rng + ?Sized>(
    dim: usize,
    k: usize,
    link: LinkFn,
    rng: &mut R,
) -> Result<Vec<TargetLoss>, LossError> {
    if dim == 0 {
        return Err(LossError::InvalidParameter("dimension must be >= 1"));
    }
    (0..k)
        .map(|_| TargetLoss::regression(random_unit_direction(dim, rng), link))
        .collect()
}

/// `k` random classification tasks (logistic or hinge links).
pub fn random_classification_tasks<R: Rng + ?Sized>(
    dim: usize,
    k: usize,
    link: LinkFn,
    rng: &mut R,
) -> Result<Vec<TargetLoss>, LossError> {
    if dim == 0 {
        return Err(LossError::InvalidParameter("dimension must be >= 1"));
    }
    (0..k)
        .map(|_| TargetLoss::classification(random_unit_direction(dim, rng), link))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::minimize_weighted;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates() {
        assert!(TargetLoss::regression(vec![], LinkFn::Squared).is_err());
        assert!(TargetLoss::regression(vec![0.0, 0.0], LinkFn::Squared).is_err());
        assert!(TargetLoss::regression(vec![f64::NAN], LinkFn::Squared).is_err());
        let t = TargetLoss::regression(vec![3.0, 4.0], LinkFn::Squared).unwrap();
        assert!((vecmath::norm2(t.direction()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_task_is_solved_by_planted_direction() {
        // With labels exactly <v,x>, theta = v achieves zero loss.
        let t = TargetLoss::regression(vec![0.6, 0.8], LinkFn::Squared).unwrap();
        let xs = [[0.5, 0.1], [-0.3, 0.4], [0.2, -0.9]];
        for x in &xs {
            assert!(t.loss(t.direction(), x) < 1e-12);
        }
    }

    #[test]
    fn minimizing_recovers_planted_direction() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = TargetLoss::regression(vec![1.0, -1.0, 0.5], LinkFn::Squared).unwrap();
        let pts = pmw_data::PointMatrix::from_rows(
            (0..60)
                .map(|_| (0..3).map(|_| rng.random::<f64>() * 1.1 - 0.55).collect())
                .collect(),
        )
        .unwrap();
        let w = vec![1.0 / 60.0; 60];
        let theta = minimize_weighted(&t, &pts, &w, 3000).unwrap();
        assert!(
            vecmath::dist2(&theta, t.direction()) < 0.05,
            "{theta:?} vs {:?}",
            t.direction()
        );
    }

    #[test]
    fn classification_labels_are_signs() {
        let t = TargetLoss::classification(vec![1.0, 0.0], LinkFn::Logistic).unwrap();
        // Points on the positive side get label +1: loss at theta = v small.
        let pos = [0.9, 0.1];
        let neg = [-0.9, 0.1];
        assert!(t.loss(t.direction(), &pos) < t.loss(t.direction(), &neg) + 1.0);
        assert!(t.is_glm());
    }

    #[test]
    fn generators_produce_distinct_tasks() {
        let mut rng = StdRng::seed_from_u64(6);
        let tasks = random_regression_tasks(4, 8, LinkFn::Squared, &mut rng).unwrap();
        assert_eq!(tasks.len(), 8);
        for w in tasks.windows(2) {
            assert!(vecmath::dist2(w[0].direction(), w[1].direction()) > 1e-6);
        }
        assert!(random_regression_tasks(0, 3, LinkFn::Squared, &mut rng).is_err());
        let cls = random_classification_tasks(4, 3, LinkFn::Hinge, &mut rng).unwrap();
        assert_eq!(cls.len(), 3);
        assert!(random_classification_tasks(0, 3, LinkFn::Hinge, &mut rng).is_err());
    }

    #[test]
    fn gradients_match_finite_differences() {
        let t = TargetLoss::regression(vec![0.3, 0.7], LinkFn::Logistic).unwrap();
        let theta = [0.4, -0.1];
        let x = [0.6, 0.2];
        let mut g = vec![0.0; 2];
        t.gradient(&theta, &x, &mut g);
        let h = 1e-6;
        for i in 0..2 {
            let mut plus = theta;
            plus[i] += h;
            let mut minus = theta;
            minus[i] -= h;
            let fd = (t.loss(&plus, &x) - t.loss(&minus, &x)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-5);
        }
    }
}
