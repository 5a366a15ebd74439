//! Differentially private single-query ERM oracles — the paper's `A′`.
//!
//! The Figure-3 mechanism assumes "oracle access to `A′`, an
//! `(ε₀, δ₀)`-differentially private algorithm that is `(α₀, β₀)`-accurate
//! for one convex minimization query" (Section 3.2). Section 4.2 then
//! instantiates `A′` with the algorithms of \[BST14\], \[JT14\] and the
//! strongly-convex variants to produce the rows of Table 1. This crate
//! implements that oracle layer:
//!
//! | Oracle | Paper instantiation | Loss requirement | Error shape |
//! |---|---|---|---|
//! | [`NoisyGdOracle`] | noisy gradient descent, \[BST14\]-style (Thm 4.1) | Lipschitz, bounded | `Õ(√d/(nε₀))` |
//! | [`OutputPerturbationOracle`] | output perturbation (Thm 4.5 setting) | σ-strongly convex | `Õ(√d/(σ n ε₀))` in distance |
//! | [`JlGlmOracle`] | dimension-independent GLM oracle (Thm 4.3 role, via data-independent Johnson–Lindenstrauss in place of \[JT14\]'s algorithm) | GLM | `Õ(1/(α₀ n ε₀))`, no `d` |
//! | [`ObjectivePerturbationOracle`] | \[CMS11\]/\[KST12\] objective perturbation | smooth | `Õ(√d/(nε₀))` |
//! | [`NetExponentialOracle`] | exponential mechanism over a Θ-net | any | `Õ(d·log/(nε₀))`, low-d only |
//! | [`ExactOracle`] | non-private baseline | any | 0 (no privacy) |
//!
//! All oracles consume the histogram representation `(points, weights, n)` —
//! `weights` is the empirical distribution of the `n`-row dataset over the
//! universe `points`, so one row change moves `1/n` of weight and average
//! gradients have L2 sensitivity `2L/n`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod exact;
pub mod glm_jl;
pub mod net_exp;
pub mod noisy_gd;
pub mod objective_perturb;
pub mod oracle;
pub mod output_perturb;

pub use error::ErmError;
pub use exact::ExactOracle;
pub use glm_jl::JlGlmOracle;
pub use net_exp::NetExponentialOracle;
pub use noisy_gd::NoisyGdOracle;
pub use objective_perturb::ObjectivePerturbationOracle;
pub use oracle::{excess_risk, ErmOracle, OracleChoice};
pub use output_perturb::OutputPerturbationOracle;
