//! Mechanism configuration and the Figure-3 derived parameters.
//!
//! [`PmwConfig`] holds the caller-facing knobs `(ε, δ, α, β, k, S, …)`;
//! [`DerivedParams`] computes the quantities Figure 3 derives from them once
//! the universe (and hence `log|X|`) is known:
//!
//! ```text
//! T  = 64·S²·log|X| / α²          η  = √(log|X|/T) / S
//! ε₀ = ε / (2·√(8T·log(4/δ)))     δ₀ = δ / 4T
//! α₀ = α/4                        β₀ = β / 2T
//! SV = SV(T, k, α, ε/2, δ/2)      sensitivity Δ = 3S/n
//! ```
//!
//! Note on `ε₀`: Figure 3 prints `ε/√(8T·log(4/δ))`, but the paper's own
//! privacy proof (Section 3.4.2, via the Theorem 3.10 "in particular"
//! clause applied at the half-budget `(ε/2, δ/2)`) requires the extra
//! factor 2 in the denominator for the `T` oracle calls to compose to
//! `(ε/2, δ/2)`. We use the provably-correct constant; the accountant test
//! below verifies the total stays within `(ε, δ)`.
//!
//! The theoretical `T` is astronomically large for tight `α` (the constant
//! 64 comes from a worst-case regret argument); as in the practical PMW
//! study \[HLM12\], `rounds_override` lets experiments run with a small `T`
//! while keeping every other derivation consistent — privacy is **never**
//! affected by the override (the budget splits adapt to whatever `T` is in
//! force; only the accuracy *guarantee* is).

use crate::error::PmwError;
use crate::theory;
use pmw_dp::PrivacyBudget;

/// Caller-facing configuration for [`OnlinePmw`](crate::OnlinePmw) and the
/// other mechanisms.
#[derive(Debug, Clone)]
pub struct PmwConfig {
    /// Total privacy budget `(ε, δ)`; Figure 3 requires `δ > 0`.
    pub budget: PrivacyBudget,
    /// Target per-query excess risk `α`.
    pub alpha: f64,
    /// Failure probability `β`.
    pub beta: f64,
    /// Number of queries the analyst may ask (`k`).
    pub k: usize,
    /// The family scale bound `S` (Section 3.2); 2 covers every 1-Lipschitz
    /// loss on the unit ball.
    pub scale_s: f64,
    /// Override for the update budget `T` (see module docs). `None` uses the
    /// theoretical `64·S²·log|X|/α²`.
    pub rounds_override: Option<usize>,
    /// Iteration budget for the inner (non-private) convex solves.
    pub solver_iters: usize,
    /// Record diagnostic values (true error-query values) in the transcript.
    /// These are *not* differentially private — for experiments only.
    pub diagnostics: bool,
}

impl PmwConfig {
    /// Start building a config from the three headline parameters.
    pub fn builder(epsilon: f64, delta: f64, alpha: f64) -> PmwConfigBuilder {
        PmwConfigBuilder {
            epsilon,
            delta,
            alpha,
            beta: 0.05,
            k: 128,
            scale_s: 2.0,
            rounds_override: None,
            solver_iters: 600,
            diagnostics: false,
        }
    }

    /// Compute the Figure-3 derived parameters for a universe of the given
    /// size.
    pub fn derive(&self, universe_size: usize) -> Result<DerivedParams, PmwError> {
        if universe_size < 2 {
            return Err(PmwError::InvalidConfig("universe must have >= 2 elements"));
        }
        let log_x = (universe_size as f64).ln();
        let rounds = match self.rounds_override {
            Some(t) => {
                if t == 0 {
                    return Err(PmwError::InvalidConfig("rounds override must be >= 1"));
                }
                t
            }
            None => {
                let t = theory::rounds_bound(self.scale_s, log_x, self.alpha).ceil();
                if t > 1e7 {
                    return Err(PmwError::InvalidConfig(
                        "theoretical T too large to run; set rounds_override",
                    ));
                }
                (t as usize).max(1)
            }
        };
        let eta = theory::learning_rate(self.scale_s, log_x, rounds as f64);
        let t = rounds as f64;
        let eps0 =
            self.budget.epsilon() / (2.0 * (8.0 * t * (4.0 / self.budget.delta()).ln()).sqrt());
        let delta0 = self.budget.delta() / (4.0 * t);
        let oracle_budget = PrivacyBudget::new(eps0, delta0)?;
        let (sv_budget, _) = self.budget.halves();
        Ok(DerivedParams {
            log_universe: log_x,
            rounds,
            eta,
            oracle_budget,
            sv_budget,
            alpha0: self.alpha / 4.0,
            beta0: self.beta / (2.0 * t),
        })
    }
}

/// Builder for [`PmwConfig`].
#[derive(Debug, Clone)]
pub struct PmwConfigBuilder {
    epsilon: f64,
    delta: f64,
    alpha: f64,
    beta: f64,
    k: usize,
    scale_s: f64,
    rounds_override: Option<usize>,
    solver_iters: usize,
    diagnostics: bool,
}

impl PmwConfigBuilder {
    /// Failure probability `β` (default 0.05).
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Query budget `k` (default 128).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Family scale bound `S` (default 2).
    pub fn scale(mut self, s: f64) -> Self {
        self.scale_s = s;
        self
    }

    /// Practical update-budget override (see module docs).
    pub fn rounds_override(mut self, t: usize) -> Self {
        self.rounds_override = Some(t);
        self
    }

    /// Inner solver iteration budget (default 600).
    pub fn solver_iters(mut self, iters: usize) -> Self {
        self.solver_iters = iters;
        self
    }

    /// Enable non-private transcript diagnostics (experiments only).
    pub fn diagnostics(mut self, on: bool) -> Self {
        self.diagnostics = on;
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<PmwConfig, PmwError> {
        let budget = PrivacyBudget::new(self.epsilon, self.delta)?;
        if budget.delta() <= 0.0 {
            return Err(PmwError::InvalidConfig(
                "figure-3 mechanism requires delta > 0",
            ));
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(PmwError::InvalidConfig("alpha must lie in (0, 1]"));
        }
        if !(self.beta > 0.0 && self.beta < 1.0) {
            return Err(PmwError::InvalidConfig("beta must lie in (0, 1)"));
        }
        if self.k == 0 {
            return Err(PmwError::InvalidConfig("k must be >= 1"));
        }
        if !(self.scale_s.is_finite() && self.scale_s > 0.0) {
            return Err(PmwError::InvalidConfig("scale S must be positive"));
        }
        if self.solver_iters == 0 {
            return Err(PmwError::InvalidConfig("solver_iters must be >= 1"));
        }
        Ok(PmwConfig {
            budget,
            alpha: self.alpha,
            beta: self.beta,
            k: self.k,
            scale_s: self.scale_s,
            rounds_override: self.rounds_override,
            solver_iters: self.solver_iters,
            diagnostics: self.diagnostics,
        })
    }
}

/// The quantities Figure 3 derives from a [`PmwConfig`] and `log|X|`.
#[derive(Debug, Clone, Copy)]
pub struct DerivedParams {
    /// `log|X|`.
    pub log_universe: f64,
    /// Update budget `T`.
    pub rounds: usize,
    /// MW learning rate `η`.
    pub eta: f64,
    /// Per-oracle-call budget `(ε₀, δ₀)`.
    pub oracle_budget: PrivacyBudget,
    /// Sparse-vector total budget `(ε/2, δ/2)`.
    pub sv_budget: PrivacyBudget,
    /// Oracle accuracy target `α₀ = α/4`.
    pub alpha0: f64,
    /// Oracle failure probability `β₀ = β/2T`.
    pub beta0: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PmwConfigBuilder {
        PmwConfig::builder(1.0, 1e-6, 0.25)
    }

    #[test]
    fn builder_validates() {
        assert!(base().build().is_ok());
        assert!(PmwConfig::builder(0.0, 1e-6, 0.25).build().is_err());
        assert!(PmwConfig::builder(1.0, 0.0, 0.25).build().is_err());
        assert!(PmwConfig::builder(1.0, 1e-6, 0.0).build().is_err());
        assert!(PmwConfig::builder(1.0, 1e-6, 1.5).build().is_err());
        assert!(base().beta(0.0).build().is_err());
        assert!(base().k(0).build().is_err());
        assert!(base().scale(0.0).build().is_err());
        assert!(base().solver_iters(0).build().is_err());
    }

    #[test]
    fn derive_computes_figure3_formulas() {
        let config = base().build().unwrap();
        let p = config.derive(256).unwrap();
        let log_x = (256f64).ln();
        let t_expect = (64.0 * 4.0 * log_x / (0.25 * 0.25)).ceil() as usize;
        assert_eq!(p.rounds, t_expect);
        let eta_expect = (log_x / t_expect as f64).sqrt() / 2.0;
        assert!((p.eta - eta_expect).abs() < 1e-12);
        assert!((p.alpha0 - 0.0625).abs() < 1e-12);
        let t = t_expect as f64;
        let eps0_expect = 1.0 / (2.0 * (8.0 * t * (4.0 / 1e-6f64).ln()).sqrt());
        assert!((p.oracle_budget.epsilon() - eps0_expect).abs() < 1e-12);
        assert!((p.oracle_budget.delta() - 1e-6 / (4.0 * t)).abs() < 1e-20);
        assert!((p.sv_budget.epsilon() - 0.5).abs() < 1e-12);
        assert!((p.beta0 - 0.05 / (2.0 * t)).abs() < 1e-15);
    }

    #[test]
    fn rounds_override_takes_precedence() {
        let config = base().rounds_override(10).build().unwrap();
        let p = config.derive(1024).unwrap();
        assert_eq!(p.rounds, 10);
        // eta re-derives from the overridden T.
        let expect = ((1024f64).ln() / 10.0).sqrt() / 2.0;
        assert!((p.eta - expect).abs() < 1e-12);
    }

    #[test]
    fn derive_rejects_degenerate_inputs() {
        let config = base().build().unwrap();
        assert!(config.derive(1).is_err());
        let too_tight = PmwConfig::builder(1.0, 1e-6, 0.001).build().unwrap();
        assert!(too_tight.derive(1 << 20).is_err());
        let zero_rounds = base().rounds_override(0).build().unwrap();
        assert!(zero_rounds.derive(64).is_err());
    }

    #[test]
    fn oracle_budget_composes_within_total() {
        // T oracle calls at (eps0, delta0) under strong composition, plus
        // the SV half, must stay within (eps, delta).
        let config = base().rounds_override(50).build().unwrap();
        let p = config.derive(512).unwrap();
        let composed = pmw_dp::composition::strong_composition(
            p.oracle_budget,
            p.rounds,
            config.budget.delta() / 4.0,
        )
        .unwrap();
        let total_eps = composed.epsilon() + p.sv_budget.epsilon();
        let total_delta = composed.delta() + p.sv_budget.delta();
        assert!(total_eps <= config.budget.epsilon() + 1e-9, "{total_eps}");
        assert!(
            total_delta <= config.budget.delta() + 1e-15,
            "{total_delta}"
        );
    }
}
