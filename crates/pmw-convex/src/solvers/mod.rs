//! The first-order solver for constrained convex minimization.
//!
//! [`ProjectedGradientDescent`] is the solver behind every `argmin_{θ∈Θ}`
//! in the paper: the hypothesis minimizer `θ̂_t = argmin_θ ℓ(θ; D̂_t)`
//! computed each round of Figure 3, the true-data minimizer inside the
//! error query `err_ℓ(D, D̂_t)`, and the non-private core of several ERM
//! oracles. It runs projected (sub)gradient descent with constant, `c/√t`,
//! or strongly-convex `1/(σt)` step rules and optional iterate averaging
//! (the standard convergence guarantees for each rule are exercised by the
//! tests).

mod gd;

pub use gd::ProjectedGradientDescent;

use crate::error::ConvexError;

/// Step-size schedule for gradient methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepRule {
    /// Fixed step `γ` — the right choice for `L`-smooth objectives with
    /// `γ ≤ 1/L`.
    Constant(f64),
    /// Diminishing `γ_t = c/√(t+1)` — the classic subgradient schedule;
    /// pair with averaging.
    InvSqrt(f64),
    /// `γ_t = 2/(σ·(t+2))` for `σ`-strongly convex objectives, giving the
    /// `O(1/σt)` rate (with weighted averaging).
    StronglyConvex(f64),
}

impl StepRule {
    /// Step size at (0-based) iteration `t`.
    pub fn step(&self, t: usize) -> f64 {
        match *self {
            StepRule::Constant(g) => g,
            StepRule::InvSqrt(c) => c / ((t + 1) as f64).sqrt(),
            StepRule::StronglyConvex(sigma) => 2.0 / (sigma * (t + 2) as f64),
        }
    }

    fn validate(&self) -> Result<(), ConvexError> {
        let ok = match *self {
            StepRule::Constant(g) => g.is_finite() && g > 0.0,
            StepRule::InvSqrt(c) => c.is_finite() && c > 0.0,
            StepRule::StronglyConvex(s) => s.is_finite() && s > 0.0,
        };
        if ok {
            Ok(())
        } else {
            Err(ConvexError::InvalidParameter(
                "step rule parameter must be positive",
            ))
        }
    }
}

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Iteration budget.
    pub max_iters: usize,
    /// Early-stop tolerance on the iterate movement `‖θ_{t+1} − θ_t‖₂`
    /// (checked only for [`StepRule::Constant`], where it is meaningful).
    pub tolerance: f64,
    /// Step rule.
    pub step: StepRule,
    /// Return the (possibly weighted) average of iterates instead of the
    /// last — required for the subgradient guarantees.
    pub average: bool,
}

impl SolverConfig {
    /// Sensible defaults for an `L`-smooth problem: constant step `1/L`,
    /// last iterate.
    pub fn smooth(smoothness: f64, max_iters: usize) -> Result<Self, ConvexError> {
        if !(smoothness.is_finite() && smoothness > 0.0) {
            return Err(ConvexError::InvalidParameter("smoothness must be positive"));
        }
        Ok(Self {
            max_iters,
            tolerance: 1e-10,
            step: StepRule::Constant(1.0 / smoothness),
            average: false,
        })
    }

    /// Defaults for a non-smooth `G`-Lipschitz problem over a domain of
    /// diameter `R`: step `c/√t` with `c = R/G`, averaged iterates.
    pub fn subgradient(
        lipschitz: f64,
        diameter: f64,
        max_iters: usize,
    ) -> Result<Self, ConvexError> {
        if !(lipschitz.is_finite() && lipschitz > 0.0) {
            return Err(ConvexError::InvalidParameter("lipschitz must be positive"));
        }
        if !(diameter.is_finite() && diameter > 0.0) {
            return Err(ConvexError::InvalidParameter("diameter must be positive"));
        }
        Ok(Self {
            max_iters,
            tolerance: 0.0,
            step: StepRule::InvSqrt(diameter / lipschitz),
            average: true,
        })
    }

    /// Defaults for a `σ`-strongly convex problem.
    pub fn strongly_convex(sigma: f64, max_iters: usize) -> Result<Self, ConvexError> {
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(ConvexError::InvalidParameter("sigma must be positive"));
        }
        Ok(Self {
            max_iters,
            tolerance: 0.0,
            step: StepRule::StronglyConvex(sigma),
            average: true,
        })
    }

    fn validate(&self) -> Result<(), ConvexError> {
        if self.max_iters == 0 {
            return Err(ConvexError::InvalidParameter("max_iters must be >= 1"));
        }
        if !self.tolerance.is_finite() || self.tolerance < 0.0 {
            return Err(ConvexError::InvalidParameter("tolerance must be >= 0"));
        }
        self.step.validate()
    }
}

/// Result of a solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The returned (feasible) point.
    pub theta: Vec<f64>,
    /// Objective value at `theta`.
    pub value: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// True when the movement-based early stop fired.
    pub converged: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_rules_evaluate() {
        assert_eq!(StepRule::Constant(0.5).step(10), 0.5);
        assert!((StepRule::InvSqrt(1.0).step(3) - 0.5).abs() < 1e-12);
        assert!((StepRule::StronglyConvex(1.0).step(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn config_constructors_validate() {
        assert!(SolverConfig::smooth(0.0, 10).is_err());
        assert!(SolverConfig::subgradient(1.0, 0.0, 10).is_err());
        assert!(SolverConfig::subgradient(0.0, 1.0, 10).is_err());
        assert!(SolverConfig::strongly_convex(-1.0, 10).is_err());
        let c = SolverConfig::smooth(2.0, 100).unwrap();
        assert_eq!(c.step.step(0), 0.5);
        assert!(!c.average);
        let s = SolverConfig::subgradient(1.0, 2.0, 100).unwrap();
        assert!(s.average);
    }

    #[test]
    fn invalid_configs_rejected_by_validate() {
        let mut c = SolverConfig::smooth(1.0, 10).unwrap();
        c.max_iters = 0;
        assert!(c.validate().is_err());
        let mut c = SolverConfig::smooth(1.0, 10).unwrap();
        c.tolerance = -1.0;
        assert!(c.validate().is_err());
        let mut c = SolverConfig::smooth(1.0, 10).unwrap();
        c.step = StepRule::Constant(f64::NAN);
        assert!(c.validate().is_err());
    }
}
