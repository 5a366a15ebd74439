//! Differential privacy substrate for the PMW reproduction.
//!
//! Everything in Sections 3.1 and 3.4 of Ullman (PODS 2015) that the main
//! mechanism treats as a black box lives here, implemented from scratch:
//!
//! * noise **samplers** (Laplace, Gaussian, exponential, Gumbel) built on
//!   `rand`'s uniform source ([`sampler`]),
//! * the classic **mechanisms**: Laplace \[DMNS06\], Gaussian, randomized
//!   response ([`mechanisms`]), and the **exponential mechanism** \[MT07\] via
//!   the Gumbel-max trick ([`exponential`]),
//! * **composition**: basic and the strong composition theorem of Dwork,
//!   Rothblum and Vadhan (\[DRV10\], restated as Theorem 3.10 in the paper),
//!   plus the paper's specific budget-splitting rules ([`composition`]), and
//!   a ledger-style [`accountant`],
//! * the zCDP calibration [`zcdp::rho_for_budget`] that noisy gradient
//!   descent uses to set its per-step noise ([`zcdp`]),
//! * the **online sparse vector algorithm** of Section 3.1 / Theorem 3.1:
//!   AboveThreshold with `T` restarts and the threshold-game guarantee
//!   ([`sparse_vector`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accountant;
pub mod composition;
pub mod error;
pub mod exponential;
pub mod mechanisms;
pub mod sampler;
pub mod sampling;
pub mod sharded;
pub mod sparse_vector;
pub mod zcdp;

pub use accountant::Accountant;
pub use composition::PrivacyBudget;
pub use error::DpError;
pub use exponential::ExponentialMechanism;
pub use mechanisms::{GaussianMechanism, LaplaceMechanism};
pub use sampling::{
    compaction_fold_radius, effective_sample_size, empirical_bernstein_radius, ess_radius,
    hoeffding_radius, uncovered_mass_bound, RadiusBound, SamplingAccountant, SamplingRecord,
};
pub use sharded::{MergeAudit, ShardedAccountant};
pub use sparse_vector::{SparseVector, SvConfig, SvOutcome};
