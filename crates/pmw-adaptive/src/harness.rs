//! The adaptive-analysis experiment harness (experiment E12).
//!
//! Runs the [`OverfitAnalyst`] twice against the same
//! sample from a **null population** (all bits fair):
//!
//! * **naive arm** — every query answered exactly on the sample (classic
//!   data reuse);
//! * **private arm** — every query answered through [`OnlinePmw`].
//!
//! The report compares, for the final adaptively-chosen query, the sample
//! answer against the true population value (exactly 1/2 on the null): the
//! gap is pure overfitting. \[DFH+15\]'s transfer theorem predicts the private
//! arm's gap stays `O(α)` while the naive arm's grows with the number of
//! selected features.

use crate::analyst::OverfitAnalyst;
use crate::population::Population;
use pmw_core::{OnlinePmw, PmwConfig, PmwError};
use pmw_data::{BooleanCube, Universe};
use pmw_erm::ExactOracle;
use pmw_losses::CmLoss;
use rand::Rng;

/// Configuration of one adaptive experiment.
#[derive(Debug, Clone)]
pub struct AdaptiveHarness {
    /// Feature bits `d`.
    pub dim: usize,
    /// Sample size `n`.
    pub n: usize,
    /// Selection threshold for the analyst.
    pub threshold: f64,
    /// PMW configuration for the private arm.
    pub pmw: PmwConfig,
}

/// Outcome of one adaptive experiment.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// Features the naive arm selected.
    pub naive_selected: usize,
    /// Final-query answer on the sample, naive arm.
    pub naive_sample_value: f64,
    /// Final-query value on the population (1/2 on the null), naive arm.
    pub naive_population_value: f64,
    /// Features the private arm selected.
    pub private_selected: usize,
    /// Final-query answer released by PMW.
    pub private_sample_value: f64,
    /// Final-query population value, private arm.
    pub private_population_value: f64,
}

impl AdaptiveReport {
    /// Overfitting gap of the naive arm: sample minus population value.
    pub fn naive_gap(&self) -> f64 {
        self.naive_sample_value - self.naive_population_value
    }

    /// Overfitting gap of the private arm.
    pub fn private_gap(&self) -> f64 {
        self.private_sample_value - self.private_population_value
    }
}

impl AdaptiveHarness {
    /// Run both arms on one fresh sample from the null population.
    pub fn run(&self, rng: &mut dyn Rng) -> Result<AdaptiveReport, PmwError> {
        let cube = BooleanCube::new(self.dim)?;
        let population = Population::uniform(&cube)?;
        let sample = population.sample(self.n, rng)?;
        let analyst = OverfitAnalyst::new(self.dim, self.threshold)?;

        // ---- naive arm: exact sample answers -------------------------------
        let sample_hist = sample.histogram();
        let points = cube.materialize();
        let sample_value = |loss: &dyn CmLoss, answer: f64| -> Result<f64, PmwError> {
            // For the linear-query encoding, the "answer" *is* the statistic.
            let _ = loss;
            Ok(answer)
        };
        let exact_answer = |loss: &dyn CmLoss| -> Result<f64, PmwError> {
            // The minimizer of (theta - p)^2/2 over the sample is the mean.
            let theta =
                pmw_losses::traits::minimize_weighted(loss, &points, sample_hist.weights(), 400)?;
            Ok(theta[0])
        };
        let phase1 = analyst.phase1_queries()?;
        let naive_answers: Vec<f64> = phase1
            .iter()
            .map(|q| exact_answer(q))
            .collect::<Result<_, _>>()?;
        let naive_sel = analyst.select(&naive_answers)?;
        let (naive_sample_value, naive_population_value, naive_selected) =
            match analyst.final_query(&naive_sel)? {
                Some(q) => {
                    let ans = exact_answer(&q)?;
                    let popv = population.expectation(|x| q.query().evaluate(x));
                    (sample_value(&q, ans)?, popv, naive_sel.len())
                }
                None => (0.5, 0.5, 0),
            };

        // ---- private arm: PMW-mediated answers -----------------------------
        let mut mech =
            OnlinePmw::with_oracle(self.pmw.clone(), &cube, sample, ExactOracle::default(), rng)?;
        let mut private_answers = Vec::with_capacity(self.dim);
        for q in &phase1 {
            match mech.answer(q, rng) {
                Ok(theta) => private_answers.push(theta[0]),
                Err(PmwError::Halted) => private_answers.push(0.5),
                Err(e) => return Err(e),
            }
        }
        let private_sel = analyst.select(&private_answers)?;
        let (private_sample_value, private_population_value, private_selected) =
            match analyst.final_query(&private_sel)? {
                Some(q) => {
                    let released = match mech.answer(&q, rng) {
                        Ok(theta) => theta[0],
                        Err(PmwError::Halted) => 0.5,
                        Err(e) => return Err(e),
                    };
                    let popv = population.expectation(|x| q.query().evaluate(x));
                    (released, popv, private_sel.len())
                }
                None => (0.5, 0.5, 0),
            };

        Ok(AdaptiveReport {
            naive_selected,
            naive_sample_value,
            naive_population_value,
            private_selected,
            private_sample_value,
            private_population_value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn harness(dim: usize, n: usize) -> AdaptiveHarness {
        AdaptiveHarness {
            dim,
            n,
            threshold: 0.04,
            pmw: PmwConfig::builder(1.0, 1e-6, 0.2)
                .k(dim + 1)
                .scale(1.0)
                .rounds_override(4)
                .solver_iters(250)
                .build()
                .unwrap(),
        }
    }

    #[test]
    fn naive_arm_overfits_on_null_population() {
        let mut rng = StdRng::seed_from_u64(211);
        // Small n so sample noise crosses the threshold often.
        let report = harness(10, 150).run(&mut rng).unwrap();
        assert!(report.naive_selected > 0, "selection should fire");
        assert!(
            report.naive_gap() > 0.02,
            "naive arm must overfit: gap {}",
            report.naive_gap()
        );
        // Population value is exactly 1/2 on the null.
        assert!((report.naive_population_value - 0.5).abs() < 1e-9);
    }

    #[test]
    fn private_arm_overfits_less_on_average() {
        let mut rng = StdRng::seed_from_u64(212);
        let h = harness(10, 150);
        let mut naive = 0.0;
        let mut private = 0.0;
        let runs = 6;
        for _ in 0..runs {
            let r = h.run(&mut rng).unwrap();
            naive += r.naive_gap();
            private += r.private_gap();
        }
        naive /= runs as f64;
        private /= runs as f64;
        assert!(
            private < naive,
            "private gap {private} should be below naive gap {naive}"
        );
    }
}
