//! The naive composition baseline the paper improves on.
//!
//! "Any algorithm for solving a single CM query can be applied repeatedly to
//! answer multiple CM queries using the well known composition properties of
//! differential privacy. However, this straightforward approach incurs a
//! significant loss of accuracy, and renders the answers meaningless after a
//! small number of queries (roughly n² in most natural settings)." (Section 1.)
//!
//! [`CompositionMechanism`] is that approach: split the total `(ε, δ)`
//! across the declared `k` queries with strong composition
//! (`ε₀ = ε/√(8k·ln(2/δ))`, `δ₀ = δ/2k`) and answer each query with the
//! single-query oracle at the per-query budget. Its error grows like
//! `k^{1/2}` in the oracle's `1/ε₀` term, against PMW's `log k`
//! ([`crate::theory::crossover_k`] locates the crossover).

use crate::data::DataSide;
use crate::error::PmwError;
use pmw_data::{Dataset, Universe};
use pmw_dp::composition::per_step_budget_for;
use pmw_dp::{Accountant, PrivacyBudget};
use pmw_erm::{ErmOracle, OracleChoice};
use pmw_losses::CmLoss;
use rand::Rng;

/// Answer each query independently under strong composition.
pub struct CompositionMechanism<O: ErmOracle = OracleChoice> {
    oracle: O,
    data: DataSide,
    k: usize,
    per_query_budget: PrivacyBudget,
    queries_answered: usize,
    accountant: Accountant,
}

impl CompositionMechanism<OracleChoice> {
    /// Build with the automatic oracle.
    pub fn new<U: Universe>(
        budget: PrivacyBudget,
        k: usize,
        universe: &U,
        dataset: Dataset,
    ) -> Result<Self, PmwError> {
        Self::with_oracle(budget, k, universe, dataset, OracleChoice::Auto)
    }
}

impl<O: ErmOracle> CompositionMechanism<O> {
    /// Build with an explicit oracle.
    pub fn with_oracle<U: Universe>(
        budget: PrivacyBudget,
        k: usize,
        universe: &U,
        dataset: Dataset,
        oracle: O,
    ) -> Result<Self, PmwError> {
        if k == 0 {
            return Err(PmwError::InvalidConfig("k must be >= 1"));
        }
        let data = DataSide::from_universe(universe, &dataset)?;
        let per_query_budget = if k == 1 {
            budget
        } else {
            per_step_budget_for(budget, k)?
        };
        Ok(Self {
            oracle,
            data,
            k,
            per_query_budget,
            queries_answered: 0,
            accountant: Accountant::new(),
        })
    }

    /// The per-query budget `(ε₀, δ₀)` after the `k`-way split.
    pub fn per_query_budget(&self) -> PrivacyBudget {
        self.per_query_budget
    }

    /// Answer one query with the per-query budget.
    pub fn answer(&mut self, loss: &dyn CmLoss, rng: &mut dyn Rng) -> Result<Vec<f64>, PmwError> {
        if self.queries_answered >= self.k {
            return Err(PmwError::QueryLimitReached);
        }
        let theta = self.oracle.solve(
            loss,
            self.data.points(),
            self.data.weights(),
            self.data.n(),
            self.per_query_budget,
            rng,
        )?;
        self.accountant.spend("oracle", self.per_query_budget);
        self.queries_answered += 1;
        Ok(theta)
    }

    /// The privacy ledger.
    pub fn accountant(&self) -> &Accountant {
        &self.accountant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmw_data::BooleanCube;
    use pmw_erm::{excess_risk, NoisyGdOracle};
    use pmw_losses::{LinearQueryLoss, PointPredicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, rng: &mut StdRng) -> (BooleanCube, Dataset) {
        let cube = BooleanCube::new(3).unwrap();
        let pop = pmw_data::synth::product_population(&cube, &[0.9, 0.5, 0.5]).unwrap();
        let data = Dataset::sample_from(&pop, n, rng).unwrap();
        (cube, data)
    }

    #[test]
    fn construction_validates() {
        let mut rng = StdRng::seed_from_u64(131);
        let (cube, data) = setup(100, &mut rng);
        let budget = PrivacyBudget::new(1.0, 1e-6).unwrap();
        assert!(CompositionMechanism::new(budget, 0, &cube, data.clone()).is_err());
        let wrong = Dataset::from_indices(9, vec![0]).unwrap();
        assert!(CompositionMechanism::new(budget, 4, &cube, wrong).is_err());
    }

    #[test]
    fn per_query_budget_shrinks_with_k() {
        let mut rng = StdRng::seed_from_u64(132);
        let (cube, data) = setup(100, &mut rng);
        let budget = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let m4 = CompositionMechanism::new(budget, 4, &cube, data.clone()).unwrap();
        let m64 = CompositionMechanism::new(budget, 64, &cube, data).unwrap();
        assert!(m64.per_query_budget().epsilon() < m4.per_query_budget().epsilon());
        // Strong composition: quadrupling k... 16x k halves... k->16k scales by 1/4.
        let ratio = m4.per_query_budget().epsilon() / m64.per_query_budget().epsilon();
        assert!((ratio - 4.0).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn enforces_query_limit_and_ledgers_spend() {
        let mut rng = StdRng::seed_from_u64(133);
        let (cube, data) = setup(5000, &mut rng);
        let budget = PrivacyBudget::new(2.0, 1e-6).unwrap();
        let mut mech = CompositionMechanism::with_oracle(
            budget,
            2,
            &cube,
            data,
            NoisyGdOracle::new(20).unwrap(),
        )
        .unwrap();
        let loss =
            LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![0] }, 3).unwrap();
        let _ = mech.answer(&loss, &mut rng).unwrap();
        let _ = mech.answer(&loss, &mut rng).unwrap();
        assert!(matches!(
            mech.answer(&loss, &mut rng),
            Err(PmwError::QueryLimitReached)
        ));
        assert_eq!(mech.accountant().len(), 2);
    }

    #[test]
    fn error_grows_with_declared_k() {
        // Same data and total budget; declaring more queries must hurt the
        // per-answer accuracy (the sqrt-k tax the paper fights).
        let mut rng = StdRng::seed_from_u64(134);
        let (cube, data) = setup(600, &mut rng);
        let budget = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let loss =
            LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![0] }, 3).unwrap();
        let points = cube.materialize();
        let weights = data.histogram();
        let avg_risk = |k: usize, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut total = 0.0;
            let trials = 12;
            for _ in 0..trials {
                let mut mech = CompositionMechanism::with_oracle(
                    budget,
                    k,
                    &cube,
                    data.clone(),
                    NoisyGdOracle::new(25).unwrap(),
                )
                .unwrap();
                let theta = mech.answer(&loss, &mut rng).unwrap();
                total += excess_risk(&loss, &points, weights.weights(), &theta, 1000).unwrap();
            }
            total / trials as f64
        };
        let small_k = avg_risk(2, 135);
        let big_k = avg_risk(512, 136);
        assert!(
            big_k > small_k,
            "k=512 risk {big_k} should exceed k=2 risk {small_k}"
        );
    }
}
