//! Scalar link functions for generalized linear models.
//!
//! A GLM loss factors as `ℓ(θ; (x, y)) = φ(⟨θ, x⟩, y)` for a scalar convex
//! link `φ(·, y)` (Section 4.2.2's `ℓ(θ, x) = ℓ'(⟨θ, x⟩)`, extended with the
//! label argument used by supervised losses). [`LinkFn`] enumerates the links
//! the loss zoo needs, with their analytic derivative, Lipschitz constant in
//! `z` (assuming `|z| ≤ z_bound`, `|y| ≤ 1`), and smoothness.

/// A scalar convex link `φ(z, y)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFn {
    /// `φ = (z − y)²/4` — squared loss scaled so `|φ'| ≤ 1` on
    /// `|z|, |y| ≤ 1` (the paper's 1-Lipschitz normalization). Its weighted
    /// sum is quadratic in `θ`, so a
    /// [`WeightedObjective`](crate::WeightedObjective) over it solves from
    /// the sufficient statistics `Σw·x xᵀ`, `Σw·y·x` and `Σw·y²` instead of
    /// passing over the points on every iteration.
    Squared,
    /// `φ = ln(1 + e^{−yz})` — logistic loss.
    Logistic,
    /// `φ = max(0, 1 − yz)` — hinge loss (subdifferentiable at the kink).
    Hinge,
    /// `φ = |z − y| / 2` — absolute loss, scaled to 1-Lipschitz.
    Absolute,
    /// Huber loss in `r = z − y`: `φ = r²/(2·delta)` for `|r| ≤ delta`,
    /// `|r| − delta/2` beyond. Scaled so `|φ'| ≤ 1` for every `delta`.
    Huber {
        /// Transition point between quadratic and linear regimes.
        delta: f64,
    },
}

impl LinkFn {
    /// Value `φ(z, y)`.
    pub fn value(&self, z: f64, y: f64) -> f64 {
        match *self {
            LinkFn::Squared => (z - y) * (z - y) / 4.0,
            LinkFn::Logistic => {
                let m = -y * z;
                // Stable log(1 + e^m).
                if m > 30.0 {
                    m
                } else {
                    m.exp().ln_1p()
                }
            }
            LinkFn::Hinge => (1.0 - y * z).max(0.0),
            LinkFn::Absolute => (z - y).abs() / 2.0,
            LinkFn::Huber { delta } => {
                let r = z - y;
                if r.abs() <= delta {
                    r * r / (2.0 * delta)
                } else {
                    r.abs() - delta / 2.0
                }
            }
        }
    }

    /// Derivative `∂φ/∂z` (a subderivative at kinks).
    pub fn derivative(&self, z: f64, y: f64) -> f64 {
        match *self {
            LinkFn::Squared => (z - y) / 2.0,
            LinkFn::Logistic => {
                let m = -y * z;
                let sig = if m > 30.0 {
                    1.0
                } else if m < -30.0 {
                    0.0
                } else {
                    let e = m.exp();
                    e / (1.0 + e)
                };
                -y * sig
            }
            LinkFn::Hinge => {
                if 1.0 - y * z > 0.0 {
                    -y
                } else {
                    0.0
                }
            }
            LinkFn::Absolute => {
                if z >= y {
                    0.5
                } else {
                    -0.5
                }
            }
            LinkFn::Huber { delta } => {
                let r = z - y;
                if r.abs() <= delta {
                    r / delta
                } else {
                    r.signum()
                }
            }
        }
    }

    /// Bound on `|∂φ/∂z|` valid for `|z| ≤ z_bound`, `|y| ≤ 1`.
    pub fn lipschitz(&self, z_bound: f64) -> f64 {
        match *self {
            LinkFn::Squared => (z_bound + 1.0) / 2.0,
            LinkFn::Logistic | LinkFn::Hinge | LinkFn::Huber { .. } => 1.0,
            LinkFn::Absolute => 0.5,
        }
    }

    /// Smoothness (bound on `∂²φ/∂z²`), `None` for non-smooth links.
    pub fn smoothness(&self) -> Option<f64> {
        match *self {
            LinkFn::Squared => Some(0.5),
            LinkFn::Logistic => Some(0.25),
            LinkFn::Hinge | LinkFn::Absolute => None,
            LinkFn::Huber { delta } => Some(1.0 / delta),
        }
    }

    /// A short stable name (for transcripts and experiment tables).
    pub fn name(&self) -> &'static str {
        match self {
            LinkFn::Squared => "squared",
            LinkFn::Logistic => "logistic",
            LinkFn::Hinge => "hinge",
            LinkFn::Absolute => "absolute",
            LinkFn::Huber { .. } => "huber",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINKS: [LinkFn; 5] = [
        LinkFn::Squared,
        LinkFn::Logistic,
        LinkFn::Hinge,
        LinkFn::Absolute,
        LinkFn::Huber { delta: 1.0 },
    ];

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for link in LINKS {
            for &y in &[-1.0f64, 1.0, 0.5] {
                for &z in &[-0.9f64, -0.3, 0.21, 0.77] {
                    // Skip points near kinks for non-smooth links.
                    if matches!(link, LinkFn::Hinge) && (1.0 - y * z).abs() < 1e-3 {
                        continue;
                    }
                    if matches!(link, LinkFn::Absolute) && (z - y).abs() < 1e-3 {
                        continue;
                    }
                    let fd = (link.value(z + h, y) - link.value(z - h, y)) / (2.0 * h);
                    let an = link.derivative(z, y);
                    assert!(
                        (fd - an).abs() < 1e-5,
                        "{link:?} y={y} z={z}: fd {fd} vs {an}"
                    );
                }
            }
        }
    }

    #[test]
    fn values_are_convex_in_z() {
        // Midpoint convexity check on a grid.
        for link in LINKS {
            for &y in &[-1.0, 1.0] {
                for i in 0..20 {
                    let a = -1.0 + i as f64 * 0.1;
                    let b = a + 0.35;
                    let mid = (a + b) / 2.0;
                    let lhs = link.value(mid, y);
                    let rhs = (link.value(a, y) + link.value(b, y)) / 2.0;
                    assert!(lhs <= rhs + 1e-12, "{link:?} not convex at {a},{b}");
                }
            }
        }
    }

    #[test]
    fn lipschitz_bounds_hold_on_grid() {
        for link in LINKS {
            let bound = link.lipschitz(1.0);
            for &y in &[-1.0, 0.0, 1.0] {
                for i in 0..=40 {
                    let z = -1.0 + i as f64 * 0.05;
                    let d = link.derivative(z, y).abs();
                    assert!(
                        d <= bound + 1e-12,
                        "{link:?}: |phi'({z},{y})|={d} > {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn logistic_is_numerically_stable_at_extremes() {
        let l = LinkFn::Logistic;
        assert!(l.value(1e3, -1.0).is_finite());
        assert!(l.value(-1e3, -1.0) >= 0.0);
        assert!(l.derivative(1e3, 1.0).abs() <= 1.0);
        assert!(l.derivative(-1e3, 1.0).abs() <= 1.0);
    }

    #[test]
    fn squared_loss_has_expected_minimum() {
        let l = LinkFn::Squared;
        assert_eq!(l.value(0.5, 0.5), 0.0);
        assert!(l.value(1.0, 0.5) > 0.0);
        assert_eq!(l.derivative(0.5, 0.5), 0.0);
    }

    #[test]
    fn hinge_zero_beyond_margin() {
        let l = LinkFn::Hinge;
        assert_eq!(l.value(2.0, 1.0), 0.0);
        assert_eq!(l.derivative(2.0, 1.0), 0.0);
        assert_eq!(l.value(0.0, 1.0), 1.0);
        assert_eq!(l.derivative(0.0, 1.0), -1.0);
    }

    #[test]
    fn huber_transitions_smoothly() {
        let l = LinkFn::Huber { delta: 0.5 };
        // At the transition r = delta the derivative is continuous (= 1).
        let eps = 1e-9;
        let d_in = l.derivative(0.5 - eps, 0.0);
        let d_out = l.derivative(0.5 + eps, 0.0);
        assert!((d_in - d_out).abs() < 1e-6);
        assert!((l.value(0.5, 0.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(LinkFn::Squared.name(), "squared");
        assert_eq!(LinkFn::Huber { delta: 2.0 }.name(), "huber");
    }
}
