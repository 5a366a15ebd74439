//! The online sparse vector algorithm (Section 3.1, Theorem 3.1).
//!
//! The paper treats `SV(T, k, α, ε, δ)` as a black box with three
//! guarantees, which this module implements and tests:
//!
//! 1. `SV` is `(ε, δ)`-differentially private;
//! 2. `SV` halts once `T` queries have been answered with `⊤`;
//! 3. if `n ≥ 256·S·√(T·log(2/δ))·log(4k/β) / (εα)` then with probability
//!    `1 − β`, every query with `q(D) ≥ α` is answered `⊤` and every query
//!    with `q(D) ≤ α/2` is answered `⊥` (the *threshold game*, Figure 2).
//!
//! The implementation is the textbook AboveThreshold algorithm of \[DR14\]
//! restarted after every `⊤`: each instance draws a fresh noisy threshold
//! `τ̂ = 3α/4 + Lap(2Δ/ε₁)` and compares each query value plus fresh
//! `Lap(4Δ/ε₁)` noise against it. Each instance is `(ε₁, 0)`-DP; the `T`
//! instances are stitched together with strong composition (\[DRV10\]) when
//! `δ > 0`, or basic composition for pure DP.

use crate::composition::{per_step_budget_for, PrivacyBudget};
use crate::error::DpError;
use crate::sampler;
use rand::Rng;

/// How the `T` AboveThreshold instances share the overall budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvComposition {
    /// `ε₁ = ε/T`, `δ = 0` — pure DP, worse accuracy for large `T`.
    Basic,
    /// `ε₁ = ε/√(8T·ln(2/δ))` via \[DRV10\] — the paper's choice.
    Strong,
}

/// Configuration of a sparse vector run.
#[derive(Debug, Clone, Copy)]
pub struct SvConfig {
    /// Maximum number of `⊤` answers before halting (`T` in the paper).
    pub max_top: usize,
    /// The accuracy threshold `α`: values `≥ α` should report `⊤`, values
    /// `≤ α/2` should report `⊥`. The internal test threshold is `3α/4`.
    pub threshold: f64,
    /// Sensitivity `Δ` of the supplied query values (the paper uses
    /// `Δ = 3S/n`, see Section 3.4).
    pub sensitivity: f64,
    /// Overall privacy budget for the entire run.
    pub budget: PrivacyBudget,
    /// Composition rule across AboveThreshold restarts.
    pub composition: SvComposition,
}

/// One answer of the sparse vector algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvOutcome {
    /// `⊤`: the (noisy) query value cleared the (noisy) threshold.
    Top,
    /// `⊥`: it did not.
    Bottom,
}

/// Stateful online sparse vector algorithm.
#[derive(Debug)]
pub struct SparseVector {
    config: SvConfig,
    eps1: f64,
    noisy_threshold: f64,
    tops_used: usize,
    queries_seen: usize,
    halted: bool,
}

impl SparseVector {
    /// Start a run; draws the first noisy threshold.
    pub fn new<R: Rng + ?Sized>(config: SvConfig, rng: &mut R) -> Result<Self, DpError> {
        if config.max_top == 0 {
            return Err(DpError::InvalidParameter("max_top must be at least 1"));
        }
        if !(config.threshold.is_finite() && config.threshold > 0.0) {
            return Err(DpError::InvalidParameter("threshold must be positive"));
        }
        if !(config.sensitivity.is_finite() && config.sensitivity > 0.0) {
            return Err(DpError::InvalidParameter("sensitivity must be positive"));
        }
        let eps1 = match config.composition {
            SvComposition::Basic => config.budget.epsilon() / config.max_top as f64,
            SvComposition::Strong => per_step_budget_for(config.budget, config.max_top)?.epsilon(),
        };
        // The threshold and query noise scales: one underflowing to 0
        // panics the sampler, one overflowing drowns every comparison.
        let usable = |scale: f64| scale.is_finite() && scale > 0.0;
        if !usable(2.0 * config.sensitivity / eps1) || !usable(4.0 * config.sensitivity / eps1) {
            return Err(DpError::InvalidParameter(
                "sparse vector noise scales 2Δ/ε₁ and 4Δ/ε₁ must be finite and positive",
            ));
        }
        let mut sv = Self {
            config,
            eps1,
            noisy_threshold: 0.0,
            tops_used: 0,
            queries_seen: 0,
            halted: false,
        };
        sv.redraw_threshold(rng);
        Ok(sv)
    }

    fn redraw_threshold<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let tau = 0.75 * self.config.threshold;
        let scale = 2.0 * self.config.sensitivity / self.eps1;
        self.noisy_threshold = tau + sampler::laplace(scale, rng);
    }

    /// Per-instance privacy parameter `ε₁`.
    pub fn per_instance_epsilon(&self) -> f64 {
        self.eps1
    }

    /// Number of `⊤` answers produced so far.
    pub fn tops_used(&self) -> usize {
        self.tops_used
    }

    /// Number of queries processed so far.
    pub fn queries_seen(&self) -> usize {
        self.queries_seen
    }

    /// True once `T` tops have been spent (guarantee 2 of Theorem 3.1).
    pub fn has_halted(&self) -> bool {
        self.halted
    }

    /// Process one query value; the caller is responsible for the value
    /// having the configured sensitivity.
    ///
    /// Returns [`DpError::SparseVectorHalted`] once `T` tops are exhausted.
    pub fn process<R: Rng + ?Sized>(
        &mut self,
        value: f64,
        rng: &mut R,
    ) -> Result<SvOutcome, DpError> {
        if self.halted {
            return Err(DpError::SparseVectorHalted);
        }
        if !value.is_finite() {
            return Err(DpError::NonFinite("sparse vector query value"));
        }
        self.queries_seen += 1;
        let query_scale = 4.0 * self.config.sensitivity / self.eps1;
        let noisy_value = value + sampler::laplace(query_scale, rng);
        if noisy_value >= self.noisy_threshold {
            self.tops_used += 1;
            if self.tops_used >= self.config.max_top {
                self.halted = true;
            } else {
                self.redraw_threshold(rng);
            }
            Ok(SvOutcome::Top)
        } else {
            Ok(SvOutcome::Bottom)
        }
    }

    /// Theorem 3.1's sufficient dataset size (with the paper's constants):
    /// `n ≥ 256·S·√(T·log(2/δ))·log(4k/β) / (εα)` where `S` relates to the
    /// sensitivity via `Δ = 3S/n`.
    pub fn paper_required_n(
        scale_s: f64,
        max_top: usize,
        k: usize,
        threshold: f64,
        budget: PrivacyBudget,
        beta: f64,
    ) -> f64 {
        let t = max_top as f64;
        let log_delta = (2.0 / budget.delta().max(f64::MIN_POSITIVE)).ln();
        256.0 * scale_s * (t * log_delta).sqrt() * (4.0 * k as f64 / beta).ln()
            / (budget.epsilon() * threshold)
    }

    /// High-probability noise margin of *this implementation*: with
    /// probability `1 − β` over a stream of `k` queries, every
    /// `|ρ| + |ν| ≤ margin`. The threshold-game guarantee holds whenever
    /// `margin ≤ α/4`.
    pub fn noise_margin(&self, k: usize, beta: f64) -> f64 {
        // |rho| <= (2Δ/ε₁)·ln(2T/β'), |nu| <= (4Δ/ε₁)·ln(2k/β') with
        // β' = β/2 each; margin is the sum of the two bounds.
        let d = self.config.sensitivity;
        let t = self.config.max_top as f64;
        let rho = 2.0 * d / self.eps1 * (4.0 * t / beta).ln();
        let nu = 4.0 * d / self.eps1 * (4.0 * k as f64 / beta).ln();
        rho + nu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(max_top: usize, sensitivity: f64) -> SvConfig {
        SvConfig {
            max_top,
            threshold: 0.2,
            sensitivity,
            budget: PrivacyBudget::new(1.0, 1e-6).unwrap(),
            composition: SvComposition::Strong,
        }
    }

    #[test]
    fn construction_validates() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut c = config(3, 1e-4);
        c.max_top = 0;
        assert!(SparseVector::new(c, &mut rng).is_err());
        let mut c = config(3, 1e-4);
        c.threshold = -0.5;
        assert!(SparseVector::new(c, &mut rng).is_err());
        let mut c = config(3, 1e-4);
        c.sensitivity = 0.0;
        assert!(SparseVector::new(c, &mut rng).is_err());
    }

    #[test]
    fn degenerate_noise_scales_are_rejected() {
        let mut rng = StdRng::seed_from_u64(47);
        // 2Δ/ε₁ = 1e-323/8 underflows to 0, which would panic the
        // threshold draw inside the Laplace sampler.
        let mut c = config(1, 5e-324);
        c.budget = PrivacyBudget::pure(8.0).unwrap();
        c.composition = SvComposition::Basic;
        assert!(matches!(
            SparseVector::new(c, &mut rng),
            Err(DpError::InvalidParameter(_))
        ));
        // 2Δ/ε₁ and 4Δ/ε₁ overflow, which would start the run with
        // infinite threshold noise.
        assert!(matches!(
            SparseVector::new(config(3, 1e308), &mut rng),
            Err(DpError::InvalidParameter(_))
        ));
    }

    #[test]
    fn strong_composition_gives_larger_eps1_for_big_t() {
        // Strong composition wins once T > 8·ln(2/δ) ≈ 116 for δ = 1e-6.
        let mut rng = StdRng::seed_from_u64(42);
        let t = 1000usize;
        let strong = SparseVector::new(config(t, 1e-4), &mut rng).unwrap();
        let mut c = config(t, 1e-4);
        c.composition = SvComposition::Basic;
        let basic = SparseVector::new(c, &mut rng).unwrap();
        assert!(strong.per_instance_epsilon() > basic.per_instance_epsilon());
    }

    #[test]
    fn halts_after_t_tops() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut sv = SparseVector::new(config(3, 1e-5), &mut rng).unwrap();
        let mut tops = 0;
        // Feed values far above threshold until halt.
        for _ in 0..100 {
            match sv.process(10.0, &mut rng) {
                Ok(SvOutcome::Top) => tops += 1,
                Ok(SvOutcome::Bottom) => {}
                Err(DpError::SparseVectorHalted) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(tops, 3);
        assert!(sv.has_halted());
        assert!(matches!(
            sv.process(10.0, &mut rng),
            Err(DpError::SparseVectorHalted)
        ));
    }

    #[test]
    fn threshold_game_guarantee_with_small_sensitivity() {
        // With tiny sensitivity (large n), answers must be exact w.h.p.
        let mut rng = StdRng::seed_from_u64(44);
        let mut failures = 0usize;
        let trials = 200;
        for _ in 0..trials {
            let mut sv = SparseVector::new(config(5, 1e-6), &mut rng).unwrap();
            // above-threshold values (alpha = 0.2) and below-half values.
            for &(v, expect_top) in &[
                (0.25, true),
                (0.05, false),
                (0.3, true),
                (0.0, false),
                (0.21, true),
            ] {
                match sv.process(v, &mut rng).unwrap() {
                    SvOutcome::Top if !expect_top => failures += 1,
                    SvOutcome::Bottom if expect_top => failures += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(failures, 0, "{failures} threshold-game violations");
    }

    #[test]
    fn noisy_answers_degrade_gracefully_with_large_sensitivity() {
        // With huge sensitivity the noise dominates; both outcomes occur.
        let mut rng = StdRng::seed_from_u64(45);
        let mut tops = 0;
        let mut bottoms = 0;
        for _ in 0..200 {
            let mut sv = SparseVector::new(config(1, 0.5), &mut rng).unwrap();
            match sv.process(0.15, &mut rng).unwrap() {
                SvOutcome::Top => tops += 1,
                SvOutcome::Bottom => bottoms += 1,
            }
        }
        assert!(tops > 10 && bottoms > 10, "tops {tops} bottoms {bottoms}");
    }

    #[test]
    fn queries_in_the_gap_may_answer_either_way() {
        // Values in (alpha/2, alpha) carry no guarantee; just verify the
        // algorithm accepts them and keeps running.
        let mut rng = StdRng::seed_from_u64(46);
        let mut sv = SparseVector::new(config(100, 1e-6), &mut rng).unwrap();
        for _ in 0..50 {
            let _ = sv.process(0.14, &mut rng).unwrap();
        }
        assert_eq!(sv.queries_seen(), 50);
    }

    #[test]
    fn rejects_non_finite_values() {
        let mut rng = StdRng::seed_from_u64(47);
        let mut sv = SparseVector::new(config(2, 1e-4), &mut rng).unwrap();
        assert!(sv.process(f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn noise_margin_shrinks_with_sensitivity() {
        let mut rng = StdRng::seed_from_u64(48);
        let sv_fine = SparseVector::new(config(5, 1e-6), &mut rng).unwrap();
        let sv_coarse = SparseVector::new(config(5, 1e-3), &mut rng).unwrap();
        let m_fine = sv_fine.noise_margin(100, 0.05);
        let m_coarse = sv_coarse.noise_margin(100, 0.05);
        assert!(m_fine < m_coarse);
        assert!(m_fine < 0.05, "margin {m_fine} should imply exactness");
    }

    #[test]
    fn paper_required_n_matches_formula_shape() {
        let budget = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let n1 = SparseVector::paper_required_n(2.0, 16, 1000, 0.1, budget, 0.05);
        let n2 = SparseVector::paper_required_n(2.0, 64, 1000, 0.1, budget, 0.05);
        // sqrt(T) scaling: quadrupling T doubles n.
        assert!((n2 / n1 - 2.0).abs() < 1e-9);
        let n3 = SparseVector::paper_required_n(2.0, 16, 1000, 0.2, budget, 0.05);
        assert!((n1 / n3 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_failure_rate_respects_margin_prediction() {
        // Pick sensitivity so the predicted margin is just below alpha/4 and
        // check the empirical violation rate is small.
        let mut rng = StdRng::seed_from_u64(49);
        let k = 20usize;
        let beta = 0.1;
        let mut sens = 1e-3;
        // Find sensitivity with margin <= alpha/4 for this config.
        loop {
            let sv = SparseVector::new(config(3, sens), &mut rng).unwrap();
            if sv.noise_margin(k, beta) <= 0.05 {
                break;
            }
            sens /= 2.0;
        }
        let mut violations = 0usize;
        let trials = 300;
        for _ in 0..trials {
            let mut sv = SparseVector::new(config(3, sens), &mut rng).unwrap();
            for j in 0..k {
                let (v, expect_top) = if j % 2 == 0 {
                    (0.25, true)
                } else {
                    (0.08, false)
                };
                match sv.process(v, &mut rng) {
                    Ok(SvOutcome::Top) if !expect_top => violations += 1,
                    Ok(SvOutcome::Bottom) if expect_top => violations += 1,
                    Ok(_) => {}
                    Err(DpError::SparseVectorHalted) => break,
                    Err(e) => panic!("{e}"),
                }
            }
        }
        let rate = violations as f64 / trials as f64;
        assert!(rate <= beta, "violation rate {rate} exceeds beta {beta}");
    }
}
