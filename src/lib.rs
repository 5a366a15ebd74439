//! # pmw — Private Multiplicative Weights Beyond Linear Queries
//!
//! A faithful, from-scratch Rust reproduction of
//! **Ullman, "Private Multiplicative Weights Beyond Linear Queries" (PODS
//! 2015, arXiv:1407.1571)**: a differentially private mechanism that answers
//! exponentially many adaptively-chosen *convex minimization* queries on a
//! sensitive dataset.
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`data`] — universes, histograms, datasets, workloads (paper §2.1)
//! * [`dp`] — noise, mechanisms, composition, the sparse vector algorithm (§3.1, §3.4)
//! * [`convex`] — domains, projections, first-order solvers (§2.2)
//! * [`losses`] — the CM loss zoo with Lipschitz/strong-convexity metadata (§1.1, §4.2)
//! * [`erm`] — single-query DP-ERM oracles, the paper's `A′` (§3.2, §4.2)
//! * [`core`] — the Figure-3 online PMW mechanism, offline variant, MWEM and
//!   composition baselines, and the theory formulas (§3, §4)
//! * [`attacks`] — reconstruction attacks and empirical ε audits (§1.2, \[KRS13\])
//! * [`adaptive`] — adaptive data analysis harness (§1.3)
//! * [`sketch`] — the sublinear-time state backend (update log plus
//!   Monte-Carlo pool) that breaks the §4.3 Θ(|X|)-per-round wall
//!
//! ## Quickstart
//!
//! ```
//! use pmw::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // Sensitive data: labeled points on a small grid universe.
//! let grid = GridUniverse::symmetric_unit(2, 5).unwrap();
//! let universe = LabeledGridUniverse::binary(grid).unwrap();
//! let population = pmw::data::synth::gaussian_mixture_population(
//!     &universe, &[vec![0.5, 0.5, 1.0], vec![-0.5, -0.5, -1.0]], 0.6).unwrap();
//! let dataset = Dataset::sample_from(&population, 400, &mut rng).unwrap();
//!
//! // A private mechanism for k = 8 logistic-regression queries.
//! let config = PmwConfig::builder(1.0, 1e-6, 0.45)
//!     .k(8)
//!     .rounds_override(6)
//!     .build()
//!     .unwrap();
//! let mut mech = OnlinePmw::new(config, &universe, dataset, &mut rng).unwrap();
//! let loss = LogisticLoss::new(2).unwrap();
//! let theta = mech.answer(&loss, &mut rng).unwrap();
//! assert_eq!(theta.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use pmw_adaptive as adaptive;
pub use pmw_attacks as attacks;
pub use pmw_convex as convex;
pub use pmw_core as core;
pub use pmw_data as data;
pub use pmw_dp as dp;
pub use pmw_erm as erm;
pub use pmw_losses as losses;
pub use pmw_sketch as sketch;

/// The most commonly used items, importable with `use pmw::prelude::*`.
pub mod prelude {
    pub use pmw_adaptive::{AdaptiveHarness, Population};
    pub use pmw_attacks::{EpsilonAudit, ReconstructionAttack};
    pub use pmw_convex::{Domain, SolverConfig};
    pub use pmw_core::{
        CompositionMechanism, DataSide, DenseBackend, LinearPmw, Mwem, OfflinePmw, OnlinePmw,
        PmwConfig, StateBackend, Transcript,
    };
    pub use pmw_data::{
        BooleanCube, Dataset, EnumeratedUniverse, GridUniverse, Histogram, LabeledGridUniverse,
        Universe,
    };
    pub use pmw_dp::{PrivacyBudget, SparseVector};
    pub use pmw_erm::{ErmOracle, OracleChoice};
    pub use pmw_losses::{
        CmLoss, GlmLoss, HingeLoss, HuberLoss, L2Regularized, LinearQueryLoss, LogisticLoss,
        SquaredLoss,
    };
    pub use pmw_sketch::{SampledBackend, SampledConfig};
}
