//! The exponential mechanism \[MT07\] and report-noisy-max.
//!
//! The paper uses the exponential mechanism in two places: the offline PMW
//! variant privately selects the *maximally inaccurate* query each round
//! (Section 1.2), and our net-based ERM oracle samples an approximate
//! minimizer from a discretization of `Θ` (Section 4.2's generic fallback).
//!
//! Sampling `θ_i` with probability `∝ exp(ε·s_i / 2Δ)` is implemented with
//! the Gumbel-max trick: add i.i.d. standard Gumbel noise to the scaled
//! scores and take the argmax — an exact sampler that needs no normalizing
//! constant and runs in one pass.

use crate::composition::PrivacyBudget;
use crate::error::DpError;
use crate::sampler;
use rand::Rng;

/// Exponential mechanism over a finite candidate set.
#[derive(Debug, Clone, Copy)]
pub struct ExponentialMechanism {
    sensitivity: f64,
    epsilon: f64,
}

impl ExponentialMechanism {
    /// Mechanism for score functions with sensitivity `sensitivity` (the max
    /// change of any candidate's score between adjacent datasets), at pure
    /// privacy level `ε`. Rejects inputs whose score coefficient `ε/2Δ`
    /// overflows: [`ExponentialMechanism::select`] would then compare
    /// infinities and return a fixed index, neither a sample nor the
    /// argmax.
    pub fn new(sensitivity: f64, epsilon: f64) -> Result<Self, DpError> {
        if !sensitivity.is_finite() || sensitivity <= 0.0 {
            return Err(DpError::InvalidParameter("sensitivity must be positive"));
        }
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(DpError::InvalidBudget("epsilon must be positive"));
        }
        if !(epsilon / (2.0 * sensitivity)).is_finite() {
            return Err(DpError::InvalidParameter(
                "epsilon/(2·sensitivity) must be finite",
            ));
        }
        Ok(Self {
            sensitivity,
            epsilon,
        })
    }

    /// Sample an index with probability `∝ exp(ε·score/2Δ)` (higher scores
    /// more likely) via the Gumbel-max trick.
    pub fn select<R: Rng + ?Sized>(&self, scores: &[f64], rng: &mut R) -> Result<usize, DpError> {
        if scores.is_empty() {
            return Err(DpError::EmptyCandidates);
        }
        if scores.iter().any(|s| !s.is_finite()) {
            return Err(DpError::NonFinite("exponential mechanism scores"));
        }
        let coeff = self.epsilon / (2.0 * self.sensitivity);
        let mut best = 0usize;
        let mut best_val = f64::NEG_INFINITY;
        for (i, &s) in scores.iter().enumerate() {
            let v = coeff * s + sampler::gumbel(rng);
            if v > best_val {
                best_val = v;
                best = i;
            }
        }
        Ok(best)
    }

    /// The budget consumed by one selection.
    pub fn budget(&self) -> PrivacyBudget {
        PrivacyBudget::pure(self.epsilon).expect("validated at construction")
    }

    /// Utility guarantee of \[MT07\]: with probability `1 − β` the selected
    /// score is within `(2Δ/ε)·ln(m/β)` of the maximum over `m` candidates.
    pub fn utility_bound(&self, candidates: usize, beta: f64) -> f64 {
        2.0 * self.sensitivity / self.epsilon * ((candidates as f64) / beta).ln()
    }
}

/// Report-noisy-max with Laplace noise: add `Lap(2Δ/ε)` to each score and
/// report the argmax. `(ε, 0)`-DP; an alternative to the exponential
/// mechanism with very similar utility.
pub fn report_noisy_max<R: Rng + ?Sized>(
    scores: &[f64],
    sensitivity: f64,
    epsilon: f64,
    rng: &mut R,
) -> Result<usize, DpError> {
    if scores.is_empty() {
        return Err(DpError::EmptyCandidates);
    }
    if !sensitivity.is_finite() || sensitivity <= 0.0 {
        return Err(DpError::InvalidParameter("sensitivity must be positive"));
    }
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(DpError::InvalidBudget("epsilon must be positive"));
    }
    if scores.iter().any(|s| !s.is_finite()) {
        return Err(DpError::NonFinite("report-noisy-max scores"));
    }
    let scale = 2.0 * sensitivity / epsilon;
    let mut best = 0usize;
    let mut best_val = f64::NEG_INFINITY;
    for (i, &s) in scores.iter().enumerate() {
        let v = s + sampler::laplace(scale, rng);
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates() {
        assert!(ExponentialMechanism::new(0.0, 1.0).is_err());
        assert!(ExponentialMechanism::new(1.0, -1.0).is_err());
        assert!(ExponentialMechanism::new(1.0, 1.0).is_ok());
    }

    #[test]
    fn overflowing_score_coefficient_is_rejected() {
        // ε/2Δ = 5e309 overflows: `select` would compare infinities and
        // return index 1 of [0, 1, 2] on every seed.
        assert!(matches!(
            ExponentialMechanism::new(1e-10, 1e300),
            Err(DpError::InvalidParameter(_))
        ));
    }

    #[test]
    fn selection_probabilities_match_softmax() {
        // Two candidates with score gap g: Pr[pick 0]/Pr[pick 1] should be
        // exp(eps*g/(2*sens)).
        let m = ExponentialMechanism::new(1.0, 2.0).unwrap();
        let scores = [1.0, 0.0];
        let mut rng = StdRng::seed_from_u64(31);
        let trials = 60_000;
        let zeros = (0..trials)
            .filter(|_| m.select(&scores, &mut rng).unwrap() == 0)
            .count() as f64;
        let ratio = zeros / (trials as f64 - zeros);
        let expect = (2.0 * 1.0 / 2.0f64).exp();
        assert!(
            (ratio / expect - 1.0).abs() < 0.1,
            "ratio {ratio} vs {expect}"
        );
    }

    #[test]
    fn selection_handles_edge_inputs() {
        let m = ExponentialMechanism::new(1.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        assert!(m.select(&[], &mut rng).is_err());
        assert!(m.select(&[f64::NAN], &mut rng).is_err());
        assert_eq!(m.select(&[3.0], &mut rng).unwrap(), 0);
    }

    #[test]
    fn utility_bound_holds_empirically() {
        let m = ExponentialMechanism::new(1.0, 1.0).unwrap();
        let scores: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let max = 4.9;
        let beta = 0.05;
        let bound = m.utility_bound(scores.len(), beta);
        let mut rng = StdRng::seed_from_u64(33);
        let trials = 5_000;
        let violations = (0..trials)
            .filter(|_| {
                let idx = m.select(&scores, &mut rng).unwrap();
                max - scores[idx] > bound
            })
            .count();
        assert!((violations as f64 / trials as f64) < beta);
    }

    #[test]
    fn noisy_max_prefers_clear_winner() {
        let mut rng = StdRng::seed_from_u64(34);
        let scores = [0.0, 0.0, 10.0, 0.0];
        let hits = (0..500)
            .filter(|_| report_noisy_max(&scores, 0.1, 1.0, &mut rng).unwrap() == 2)
            .count();
        assert!(hits > 480, "hits {hits}");
        assert!(report_noisy_max(&[], 1.0, 1.0, &mut rng).is_err());
        assert!(report_noisy_max(&scores, -1.0, 1.0, &mut rng).is_err());
        assert!(report_noisy_max(&scores, 1.0, 0.0, &mut rng).is_err());
    }
}
