//! The classic output-perturbation mechanisms.
//!
//! * [`LaplaceMechanism`] — `(ε, 0)`-DP release of a `Δ`-sensitive statistic
//!   by adding `Lap(Δ/ε)` noise \[DMNS06\]. This is the per-query baseline of
//!   Table 1 row 1 ("Linear Queries, single query: `n = O(1/α)`").
//! * [`GaussianMechanism`] — `(ε, δ)`-DP release with
//!   `σ = Δ·√(2·ln(1.25/δ))/ε` (the classical calibration).
//! * [`randomized_response`] — the bitwise `(ε, 0)`-DP primitive, used by the
//!   audit tests as a mechanism with exactly-computable likelihood ratio.

use crate::composition::PrivacyBudget;
use crate::error::DpError;
use crate::sampler;
use rand::Rng;

/// Laplace mechanism for `Δ`-sensitive real statistics.
#[derive(Debug, Clone, Copy)]
pub struct LaplaceMechanism {
    sensitivity: f64,
    epsilon: f64,
}

impl LaplaceMechanism {
    /// Mechanism for statistics with L1 sensitivity `sensitivity`, at pure
    /// privacy level `ε`. Rejects inputs whose scale `Δ/ε` underflows to 0
    /// or overflows.
    pub fn new(sensitivity: f64, epsilon: f64) -> Result<Self, DpError> {
        if !sensitivity.is_finite() || sensitivity <= 0.0 {
            return Err(DpError::InvalidParameter("sensitivity must be positive"));
        }
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(DpError::InvalidBudget("epsilon must be positive"));
        }
        let mech = Self {
            sensitivity,
            epsilon,
        };
        let scale = mech.scale();
        if !(scale.is_finite() && scale > 0.0) {
            return Err(DpError::InvalidParameter(
                "noise scale must be finite and positive",
            ));
        }
        Ok(mech)
    }

    /// Noise scale `b = Δ/ε`.
    pub fn scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }

    /// Release `value + Lap(Δ/ε)`.
    pub fn release<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> Result<f64, DpError> {
        if !value.is_finite() {
            return Err(DpError::NonFinite("laplace mechanism input"));
        }
        Ok(value + sampler::laplace(self.scale(), rng))
    }

    /// The budget consumed by one release.
    pub fn budget(&self) -> PrivacyBudget {
        PrivacyBudget::pure(self.epsilon).expect("validated at construction")
    }

    /// High-probability error bound: `Pr[|noise| > t] = exp(−t/b)`, so with
    /// probability `1 − β` the error is at most `(Δ/ε)·ln(1/β)`.
    pub fn error_bound(&self, beta: f64) -> f64 {
        self.scale() * (1.0 / beta).ln()
    }
}

/// Gaussian mechanism for `Δ`-sensitive (in L2) statistics.
#[derive(Debug, Clone, Copy)]
pub struct GaussianMechanism {
    sensitivity: f64,
    budget: PrivacyBudget,
}

impl GaussianMechanism {
    /// Mechanism for statistics with L2 sensitivity `sensitivity` at
    /// approximate privacy level `(ε, δ)`, `δ > 0`, `ε ≤ 1` for the classical
    /// calibration to be valid. Rejects inputs whose `σ` underflows to 0 or
    /// overflows.
    pub fn new(sensitivity: f64, budget: PrivacyBudget) -> Result<Self, DpError> {
        if !sensitivity.is_finite() || sensitivity <= 0.0 {
            return Err(DpError::InvalidParameter("sensitivity must be positive"));
        }
        if budget.delta() <= 0.0 {
            return Err(DpError::InvalidBudget(
                "gaussian mechanism requires delta > 0",
            ));
        }
        let mech = Self {
            sensitivity,
            budget,
        };
        let sigma = mech.sigma();
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(DpError::InvalidParameter(
                "noise sigma must be finite and positive",
            ));
        }
        Ok(mech)
    }

    /// Noise level `σ = Δ·√(2·ln(1.25/δ))/ε`.
    pub fn sigma(&self) -> f64 {
        self.sensitivity * (2.0 * (1.25 / self.budget.delta()).ln()).sqrt() / self.budget.epsilon()
    }

    /// Release a scalar.
    pub fn release<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> Result<f64, DpError> {
        if !value.is_finite() {
            return Err(DpError::NonFinite("gaussian mechanism input"));
        }
        Ok(value + sampler::gaussian(self.sigma(), rng))
    }

    /// Release a vector whose L2 sensitivity is the configured `Δ`.
    pub fn release_vector<R: Rng + ?Sized>(
        &self,
        values: &[f64],
        rng: &mut R,
    ) -> Result<Vec<f64>, DpError> {
        if values.iter().any(|v| !v.is_finite()) {
            return Err(DpError::NonFinite("gaussian mechanism input vector"));
        }
        let sigma = self.sigma();
        Ok(values
            .iter()
            .map(|&v| v + sampler::gaussian(sigma, rng))
            .collect())
    }

    /// The budget consumed by one release.
    pub fn budget(&self) -> PrivacyBudget {
        self.budget
    }
}

/// Randomized response on one bit: report the truth with probability
/// `e^ε/(1+e^ε)`, the flip otherwise. `(ε, 0)`-DP.
pub fn randomized_response<R: Rng + ?Sized>(
    bit: bool,
    epsilon: f64,
    rng: &mut R,
) -> Result<bool, DpError> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(DpError::InvalidBudget("epsilon must be positive"));
    }
    let p_truth = epsilon.exp() / (1.0 + epsilon.exp());
    let u = sampler::uniform_open01(rng);
    Ok(if u < p_truth { bit } else { !bit })
}

/// Debias an average of randomized responses back to an unbiased frequency
/// estimate: if `p̂` is the reported frequency of 1s, the debiased estimate is
/// `(p̂·(e^ε+1) − 1)/(e^ε − 1)`.
pub fn debias_randomized_response(reported_frequency: f64, epsilon: f64) -> Result<f64, DpError> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(DpError::InvalidBudget("epsilon must be positive"));
    }
    let e = epsilon.exp();
    Ok((reported_frequency * (e + 1.0) - 1.0) / (e - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn laplace_mechanism_validates() {
        assert!(LaplaceMechanism::new(0.0, 1.0).is_err());
        assert!(LaplaceMechanism::new(1.0, 0.0).is_err());
        // Δ/ε = 1e-330 rounds to 0.0, and a zero scale releases the input.
        assert!(LaplaceMechanism::new(1e-320, 1e10).is_err());
        assert!(LaplaceMechanism::new(1e300, 1e-300).is_err());
        let m = LaplaceMechanism::new(0.5, 2.0).unwrap();
        assert!((m.scale() - 0.25).abs() < 1e-12);
        assert_eq!(m.budget().epsilon(), 2.0);
    }

    #[test]
    fn laplace_release_is_unbiased() {
        let m = LaplaceMechanism::new(1.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mean: f64 = (0..40_000)
            .map(|_| m.release(5.0, &mut rng).unwrap())
            .sum::<f64>()
            / 40_000.0;
        assert!((mean - 5.0).abs() < 0.05, "{mean}");
        assert!(m.release(f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn laplace_error_bound_holds_empirically() {
        let m = LaplaceMechanism::new(1.0, 1.0).unwrap();
        let beta = 0.05;
        let bound = m.error_bound(beta);
        let mut rng = StdRng::seed_from_u64(22);
        let trials = 20_000;
        let violations = (0..trials)
            .filter(|_| (m.release(0.0, &mut rng).unwrap()).abs() > bound)
            .count();
        let rate = violations as f64 / trials as f64;
        assert!(rate < beta * 1.3, "violation rate {rate} vs beta {beta}");
    }

    #[test]
    fn gaussian_mechanism_sigma_formula() {
        let b = PrivacyBudget::new(1.0, 1e-5).unwrap();
        let m = GaussianMechanism::new(2.0, b).unwrap();
        let expect = 2.0 * (2.0 * (1.25e5f64).ln()).sqrt();
        assert!((m.sigma() - expect).abs() < 1e-9);
        assert!(GaussianMechanism::new(1.0, PrivacyBudget::pure(1.0).unwrap()).is_err());
        // σ underflows to 0.0 or overflows to infinity.
        let tight = PrivacyBudget::new(1e10, 1e-6).unwrap();
        assert!(GaussianMechanism::new(1e-320, tight).is_err());
        let loose = PrivacyBudget::new(1e-300, 1e-6).unwrap();
        assert!(GaussianMechanism::new(1e300, loose).is_err());
    }

    #[test]
    fn gaussian_vector_release_perturbs_every_coordinate() {
        let b = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let m = GaussianMechanism::new(1.0, b).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let out = m.release_vector(&[1.0, 2.0, 3.0], &mut rng).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().zip([1.0, 2.0, 3.0]).all(|(a, b)| a != &b));
        assert!(m.release_vector(&[f64::INFINITY], &mut rng).is_err());
    }

    #[test]
    fn randomized_response_flips_at_expected_rate() {
        let mut rng = StdRng::seed_from_u64(24);
        let eps = 1.0f64;
        let trials = 40_000;
        let truths = (0..trials)
            .filter(|_| randomized_response(true, eps, &mut rng).unwrap())
            .count();
        let p = truths as f64 / trials as f64;
        let expect = eps.exp() / (1.0 + eps.exp());
        assert!((p - expect).abs() < 0.01, "{p} vs {expect}");
    }

    #[test]
    fn randomized_response_debias_recovers_frequency() {
        let mut rng = StdRng::seed_from_u64(25);
        let eps = 1.5;
        let true_freq = 0.3;
        let n = 60_000;
        let reported = (0..n)
            .filter(|i| {
                let bit = (*i as f64 / n as f64) < true_freq;
                randomized_response(bit, eps, &mut rng).unwrap()
            })
            .count() as f64
            / n as f64;
        let est = debias_randomized_response(reported, eps).unwrap();
        assert!((est - true_freq).abs() < 0.02, "{est}");
    }

    #[test]
    fn randomized_response_likelihood_ratio_is_exactly_exp_eps() {
        // The defining property used by the epsilon audit: the ratio of
        // Pr[output=true | bit=true] to Pr[output=true | bit=false] is e^eps.
        let eps = 0.8f64;
        let p = eps.exp() / (1.0 + eps.exp());
        let ratio = p / (1.0 - p);
        assert!((ratio - eps.exp()).abs() < 1e-12);
    }
}
