//! Generalized linear model losses on labeled points.
//!
//! All losses here consume points laid out as `[x_1, …, x_d, y]` (the
//! [`LabeledGridUniverse`](../../pmw_data/universe/struct.LabeledGridUniverse.html)
//! layout) and factor through the inner product: `ℓ(θ; (x, y)) = φ(⟨θ, x⟩, y)`
//! for a scalar link `φ` — the paper's generalized-linear-model structure
//! (Section 4.2.2). Parameters live on the unit L2 ball by default, matching
//! the paper's `d`-bounded normalization, and features are assumed bounded
//! by `‖x‖₂ ≤ 1` (use scaled universes; the Lipschitz metadata scales with a
//! configurable feature bound otherwise).

use crate::error::LossError;
use crate::link::LinkFn;
use crate::traits::CmLoss;
use pmw_convex::{vecmath, Domain};

/// A GLM loss `φ(⟨θ, x⟩, y)` with an arbitrary [`LinkFn`].
#[derive(Debug, Clone)]
pub struct GlmLoss {
    link: LinkFn,
    dim: usize,
    domain: Domain,
    feature_bound: f64,
}

impl GlmLoss {
    /// GLM with the given link over the unit ball in `R^dim`, features
    /// assumed bounded by 1.
    pub fn new(link: LinkFn, dim: usize) -> Result<Self, LossError> {
        if let LinkFn::Huber { delta } = link {
            if !(delta.is_finite() && delta > 0.0) {
                return Err(LossError::InvalidParameter("huber delta must be positive"));
            }
        }
        Ok(Self {
            link,
            dim,
            domain: Domain::unit_ball(dim)?,
            feature_bound: 1.0,
        })
    }

    /// Override the constraint domain (must match `dim`).
    pub fn with_domain(mut self, domain: Domain) -> Result<Self, LossError> {
        if domain.dim() != self.dim {
            return Err(LossError::InvalidParameter("domain dimension mismatch"));
        }
        self.domain = domain;
        Ok(self)
    }

    /// Declare a feature-norm bound other than 1 (scales the Lipschitz
    /// metadata; evaluation is unaffected).
    pub fn with_feature_bound(mut self, bound: f64) -> Result<Self, LossError> {
        if !(bound.is_finite() && bound > 0.0) {
            return Err(LossError::InvalidParameter(
                "feature bound must be positive",
            ));
        }
        self.feature_bound = bound;
        Ok(self)
    }

    /// The link function.
    pub fn link(&self) -> LinkFn {
        self.link
    }

    fn split<'a>(&self, x: &'a [f64]) -> (&'a [f64], f64) {
        (&x[..self.dim], x[self.dim])
    }

    /// Largest `|⟨θ, x⟩|` over the domain and bounded features, used to
    /// instantiate link Lipschitz bounds.
    fn z_bound(&self) -> f64 {
        // For the unit ball the inner product is at most radius·feature_bound;
        // bound via domain diameter/2 + center offset, conservatively.
        (self.domain.diameter() / 2.0 + vecmath::norm2(&self.domain.center())) * self.feature_bound
    }
}

impl CmLoss for GlmLoss {
    fn dim(&self) -> usize {
        self.dim
    }

    fn domain(&self) -> &Domain {
        &self.domain
    }

    fn point_dim(&self) -> usize {
        self.dim + 1
    }

    fn loss(&self, theta: &[f64], x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim + 1);
        let (features, y) = self.split(x);
        self.link.value(vecmath::dot(theta, features), y)
    }

    fn gradient(&self, theta: &[f64], x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.dim + 1);
        let (features, y) = self.split(x);
        let d = self.link.derivative(vecmath::dot(theta, features), y);
        for (o, f) in out.iter_mut().zip(features) {
            *o = d * f;
        }
    }

    /// Loop-fused sweep: the GLM gradient is `φ'(⟨θ,x⟩, y)·x`, so the
    /// certificate payoff collapses to two dot products per point —
    /// `φ'(⟨θ_hyp,x⟩, y)·⟨direction, x⟩` — with the `d`-vector gradient
    /// never materialized. Chunked across cores.
    fn certificate_batch(
        &self,
        theta_hyp: &[f64],
        direction: &[f64],
        points: &pmw_data::PointMatrix,
        out: &mut [f64],
    ) {
        let d = self.dim;
        let stride = points.dim();
        let link = self.link;
        pmw_data::par::for_each_chunk_mut(out, |offset, chunk| {
            let rows = points.row_block(offset, offset + chunk.len());
            for (slot, x) in chunk.iter_mut().zip(rows.chunks_exact(stride)) {
                let features = &x[..d];
                let z = vecmath::dot(theta_hyp, features);
                *slot = link.derivative(z, x[d]) * vecmath::dot(direction, features);
            }
        });
    }

    fn lipschitz(&self) -> f64 {
        self.link.lipschitz(self.z_bound()) * self.feature_bound
    }

    fn smoothness(&self) -> Option<f64> {
        self.link
            .smoothness()
            .map(|s| s * self.feature_bound * self.feature_bound)
    }

    fn is_glm(&self) -> bool {
        true
    }

    fn glm_link(&self) -> Option<LinkFn> {
        Some(self.link)
    }

    fn glm_label(&self, x: &[f64]) -> Option<f64> {
        Some(x[self.dim])
    }

    fn clone_shared(&self) -> Option<std::sync::Arc<dyn CmLoss>> {
        Some(std::sync::Arc::new(self.clone()))
    }

    fn name(&self) -> &'static str {
        self.link.name()
    }
}

macro_rules! concrete_glm {
    ($(#[$doc:meta])* $name:ident, $link:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            inner: GlmLoss,
        }

        impl $name {
            /// Loss over the unit ball in `R^dim`, features bounded by 1,
            /// labeled points `[x..., y]`.
            pub fn new(dim: usize) -> Result<Self, LossError> {
                Ok(Self { inner: GlmLoss::new($link, dim)? })
            }

            /// Override the constraint domain.
            pub fn with_domain(self, domain: Domain) -> Result<Self, LossError> {
                Ok(Self { inner: self.inner.with_domain(domain)? })
            }
        }

        impl CmLoss for $name {
            fn dim(&self) -> usize { self.inner.dim() }
            fn domain(&self) -> &Domain { self.inner.domain() }
            fn point_dim(&self) -> usize { self.inner.point_dim() }
            fn loss(&self, theta: &[f64], x: &[f64]) -> f64 { self.inner.loss(theta, x) }
            fn gradient(&self, theta: &[f64], x: &[f64], out: &mut [f64]) {
                self.inner.gradient(theta, x, out)
            }
            fn certificate_batch(
                &self,
                theta_hyp: &[f64],
                direction: &[f64],
                points: &pmw_data::PointMatrix,
                out: &mut [f64],
            ) {
                self.inner.certificate_batch(theta_hyp, direction, points, out)
            }
            fn lipschitz(&self) -> f64 { self.inner.lipschitz() }
            fn smoothness(&self) -> Option<f64> { self.inner.smoothness() }
            fn is_glm(&self) -> bool { true }
            fn glm_link(&self) -> Option<LinkFn> { self.inner.glm_link() }
            fn glm_label(&self, x: &[f64]) -> Option<f64> { self.inner.glm_label(x) }
            fn clone_shared(&self) -> Option<std::sync::Arc<dyn CmLoss>> {
                Some(std::sync::Arc::new(self.clone()))
            }
            fn name(&self) -> &'static str { self.inner.name() }
        }
    };
}

concrete_glm!(
    /// Squared loss `(⟨θ,x⟩ − y)²/4` — linear regression, the paper's
    /// Section 1 running example, normalized to be 1-Lipschitz on the unit
    /// ball with `|y| ≤ 1`.
    SquaredLoss,
    LinkFn::Squared
);

concrete_glm!(
    /// Logistic loss `ln(1 + e^{−y⟨θ,x⟩})` — logistic regression
    /// (1-Lipschitz, 1/4-smooth).
    LogisticLoss,
    LinkFn::Logistic
);

concrete_glm!(
    /// Hinge loss `max(0, 1 − y⟨θ,x⟩)` — support vector machines
    /// (1-Lipschitz, non-smooth).
    HingeLoss,
    LinkFn::Hinge
);

concrete_glm!(
    /// Absolute loss `|⟨θ,x⟩ − y|/2` — least absolute deviations
    /// (1/2-Lipschitz, non-smooth).
    AbsoluteLoss,
    LinkFn::Absolute
);

/// Huber loss with configurable transition `delta` (1-Lipschitz,
/// `1/delta`-smooth).
#[derive(Debug, Clone)]
pub struct HuberLoss {
    inner: GlmLoss,
}

impl HuberLoss {
    /// Huber loss over the unit ball in `R^dim`.
    pub fn new(dim: usize, delta: f64) -> Result<Self, LossError> {
        Ok(Self {
            inner: GlmLoss::new(LinkFn::Huber { delta }, dim)?,
        })
    }
}

impl CmLoss for HuberLoss {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn domain(&self) -> &Domain {
        self.inner.domain()
    }
    fn point_dim(&self) -> usize {
        self.inner.point_dim()
    }
    fn loss(&self, theta: &[f64], x: &[f64]) -> f64 {
        self.inner.loss(theta, x)
    }
    fn gradient(&self, theta: &[f64], x: &[f64], out: &mut [f64]) {
        self.inner.gradient(theta, x, out)
    }
    fn certificate_batch(
        &self,
        theta_hyp: &[f64],
        direction: &[f64],
        points: &pmw_data::PointMatrix,
        out: &mut [f64],
    ) {
        self.inner
            .certificate_batch(theta_hyp, direction, points, out)
    }
    fn lipschitz(&self) -> f64 {
        self.inner.lipschitz()
    }
    fn smoothness(&self) -> Option<f64> {
        self.inner.smoothness()
    }
    fn is_glm(&self) -> bool {
        true
    }
    fn glm_link(&self) -> Option<LinkFn> {
        self.inner.glm_link()
    }
    fn glm_label(&self, x: &[f64]) -> Option<f64> {
        self.inner.glm_label(x)
    }
    fn clone_shared(&self) -> Option<std::sync::Arc<dyn CmLoss>> {
        Some(std::sync::Arc::new(self.clone()))
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check<L: CmLoss>(loss: &L, theta: &[f64], x: &[f64]) {
        let mut g = vec![0.0; loss.dim()];
        loss.gradient(theta, x, &mut g);
        let h = 1e-6;
        for i in 0..loss.dim() {
            let mut plus = theta.to_vec();
            plus[i] += h;
            let mut minus = theta.to_vec();
            minus[i] -= h;
            let fd = (loss.loss(&plus, x) - loss.loss(&minus, x)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-5, "coord {i}: {} vs {fd}", g[i]);
        }
    }

    #[test]
    fn squared_loss_basics() {
        let l = SquaredLoss::new(2).unwrap();
        assert_eq!(l.dim(), 2);
        assert_eq!(l.point_dim(), 3);
        assert!(l.is_glm());
        assert_eq!(l.name(), "squared");
        // Perfect prediction has zero loss.
        assert_eq!(l.loss(&[0.5, 0.5], &[1.0, 0.0, 0.5]), 0.0);
        finite_diff_check(&l, &[0.2, -0.4], &[0.7, 0.1, 0.3]);
    }

    #[test]
    fn squared_loss_is_one_lipschitz_on_unit_ball() {
        let l = SquaredLoss::new(3).unwrap();
        assert!(l.lipschitz() <= 1.0 + 1e-12, "{}", l.lipschitz());
        // Scale bound S <= 2 as the paper notes for the unit-ball setting.
        assert!(l.scale_bound() <= 2.0 + 1e-12);
    }

    #[test]
    fn logistic_loss_gradient_and_bounds() {
        let l = LogisticLoss::new(2).unwrap();
        finite_diff_check(&l, &[0.3, 0.3], &[0.6, -0.8, 1.0]);
        assert!(l.lipschitz() <= 1.0 + 1e-12);
        assert_eq!(l.smoothness(), Some(0.25));
        // Correct confident classification has small loss.
        let good = l.loss(&[1.0, 0.0], &[1.0, 0.0, 1.0]);
        let bad = l.loss(&[1.0, 0.0], &[1.0, 0.0, -1.0]);
        assert!(good < bad);
    }

    #[test]
    fn hinge_loss_margin_behavior() {
        let l = HingeLoss::new(1).unwrap();
        assert_eq!(l.loss(&[1.0], &[1.0, 1.0]), 0.0);
        assert_eq!(l.loss(&[0.0], &[1.0, 1.0]), 1.0);
        assert_eq!(l.loss(&[-1.0], &[1.0, 1.0]), 2.0);
        assert!(l.smoothness().is_none());
        finite_diff_check(&l, &[0.3], &[1.0, 1.0]);
    }

    #[test]
    fn absolute_and_huber_behave() {
        let a = AbsoluteLoss::new(1).unwrap();
        assert_eq!(a.loss(&[0.0], &[1.0, 0.6]), 0.3);
        let hb = HuberLoss::new(1, 0.5).unwrap();
        finite_diff_check(&hb, &[0.2], &[0.9, -0.4]);
        assert_eq!(hb.smoothness(), Some(2.0));
        assert!(HuberLoss::new(1, 0.0).is_err());
    }

    #[test]
    fn glm_loss_with_custom_domain_and_bound() {
        let g = GlmLoss::new(LinkFn::Logistic, 2)
            .unwrap()
            .with_domain(Domain::l2_ball(2, 2.0).unwrap())
            .unwrap()
            .with_feature_bound(0.5)
            .unwrap();
        assert_eq!(g.domain().dim(), 2);
        assert!(g.lipschitz() <= 0.5 + 1e-12);
        assert!(GlmLoss::new(LinkFn::Logistic, 2)
            .unwrap()
            .with_domain(Domain::unit_ball(3).unwrap())
            .is_err());
        assert!(GlmLoss::new(LinkFn::Logistic, 2)
            .unwrap()
            .with_feature_bound(0.0)
            .is_err());
    }

    #[test]
    fn gradients_are_lipschitz_bounded_empirically() {
        // Check ||grad|| <= lipschitz() over a grid of feasible thetas and
        // unit-norm features with |y| <= 1.
        let losses: Vec<Box<dyn CmLoss>> = vec![
            Box::new(SquaredLoss::new(2).unwrap()),
            Box::new(LogisticLoss::new(2).unwrap()),
            Box::new(HingeLoss::new(2).unwrap()),
            Box::new(AbsoluteLoss::new(2).unwrap()),
            Box::new(HuberLoss::new(2, 1.0).unwrap()),
        ];
        let thetas = [[0.0, 0.0], [0.6, 0.8], [-1.0, 0.0], [0.3, -0.3]];
        let xs = [[1.0, 0.0, 1.0], [0.6, -0.8, -1.0], [0.0, 1.0, 0.5]];
        for l in &losses {
            let bound = l.lipschitz();
            let mut g = vec![0.0; 2];
            for th in &thetas {
                for x in &xs {
                    l.gradient(th, x, &mut g);
                    let norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
                    assert!(
                        norm <= bound + 1e-9,
                        "{}: ||g||={norm} > L={bound}",
                        l.name()
                    );
                }
            }
        }
    }

    #[test]
    fn losses_are_convex_along_segments() {
        let l = LogisticLoss::new(2).unwrap();
        let x = [0.7, -0.7, 1.0];
        let a = [0.9, 0.1];
        let b = [-0.5, 0.5];
        for i in 1..10 {
            let t = i as f64 / 10.0;
            let mid = [a[0] * (1.0 - t) + b[0] * t, a[1] * (1.0 - t) + b[1] * t];
            let lhs = l.loss(&mid, &x);
            let rhs = (1.0 - t) * l.loss(&a, &x) + t * l.loss(&b, &x);
            assert!(lhs <= rhs + 1e-12);
        }
    }
}
