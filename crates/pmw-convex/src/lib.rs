//! Convex optimization substrate for the PMW reproduction.
//!
//! Every CM query `q_ℓ(D) = argmin_{θ∈Θ} ℓ(θ; D)` (Section 2.2 of Ullman,
//! PODS 2015) is answered by an inner convex solve, and the Figure-3
//! mechanism performs two such solves per query (one on the hypothesis
//! histogram, one on the true data). The Rust convex-optimization crate
//! ecosystem is thin, so this crate implements the needed machinery from
//! scratch:
//!
//! * constraint **domains** `Θ` with Euclidean projections — L2 balls
//!   (the paper's `d`-bounded setting), boxes, intervals and the probability
//!   simplex ([`domain`]),
//! * an [`Objective`](objective::Objective#) trait for differentiable (or
//!   subdifferentiable) convex functions ([`objective`]),
//! * one first-order **solver**: projected (sub)gradient descent with
//!   constant, `c/√t` or strongly convex `O(1/σt)` step rules and optional
//!   averaging ([`solvers`]),
//! * small dense **vector math** helpers used across the workspace
//!   ([`vecmath`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod domain;
pub mod error;
pub mod objective;
pub mod solvers;
pub mod vecmath;

pub use domain::Domain;
pub use error::ConvexError;
pub use objective::{Objective, QuadraticObjective};
pub use solvers::{ProjectedGradientDescent, SolveResult, SolverConfig, StepRule};
