//! Zero-concentrated differential privacy (zCDP) calibration.
//!
//! The paper composes with \[DRV10\] (Theorem 3.10). Later work showed that
//! tracking composition in the `ρ`-zCDP calculus (Bun–Steinke 2016) is both
//! simpler and tighter for Gaussian-noise mechanisms. Noisy gradient descent
//! (`pmw_erm::NoisyGdOracle`) calibrates its per-step noise this way, using
//! two facts:
//!
//! * zCDP composes additively: `ρ = Σ ρᵢ`;
//! * `ρ`-zCDP implies `(ρ + 2√(ρ·ln(1/δ)), δ)`-DP for every `δ > 0`.

use crate::composition::PrivacyBudget;
use crate::error::DpError;

/// The largest `ρ` such that `ρ`-zCDP implies `(ε, δ)`-DP: inverting
/// `ε = ρ + 2√(ρ·ln(1/δ))` gives `√ρ = √(L + ε) − √L` with `L = ln(1/δ)`.
///
/// Used to calibrate iterative Gaussian mechanisms (e.g. noisy gradient
/// descent) to an `(ε, δ)` target: give each of `T` steps `ρ/T` and set
/// `σ = Δ·√(T/(2ρ))` — a `~√(8·ln(1/δ))` noise saving over splitting the
/// budget with \[DRV10\] strong composition.
pub fn rho_for_budget(budget: PrivacyBudget) -> Result<f64, DpError> {
    if budget.delta() <= 0.0 {
        return Err(DpError::InvalidBudget(
            "zCDP calibration requires delta > 0",
        ));
    }
    let l = (1.0 / budget.delta()).ln();
    let sqrt_rho = (l + budget.epsilon()).sqrt() - l.sqrt();
    Ok(sqrt_rho * sqrt_rho)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rho_for_budget_round_trips_through_conversion() {
        let budget = PrivacyBudget::new(0.7, 1e-7).unwrap();
        let rho = rho_for_budget(budget).unwrap();
        let back = rho + 2.0 * (rho * (1.0 / budget.delta()).ln()).sqrt();
        assert!((back - budget.epsilon()).abs() < 1e-9);
        assert!(rho_for_budget(PrivacyBudget::pure(1.0).unwrap()).is_err());
    }
}
