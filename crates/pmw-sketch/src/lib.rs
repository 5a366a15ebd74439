//! Sublinear-time state backends for PMW — breaking the Θ(|X|) wall.
//!
//! Section 4.3 of the paper is blunt: each Figure-3 iteration costs
//! `poly(n, d)` *except* the histogram bookkeeping, which is `Θ(|X|)` —
//! exponential in the data dimension, and the reason the dense
//! [`pmw_core::OnlinePmw`] path stops at `|X| ≈ 2^20–2^24` on one machine.
//! Following the lazy-update/sampling playbook of *Private Data Release in
//! Sublinear Time*, this crate re-represents the MW hypothesis so that a
//! round costs time independent of `|X|`:
//!
//! * [`UpdateLog`] — the state *is* the list of rounds
//!   `{(η_t, θ_t, θ̂_t, ℓ_t)}`; `log D̂_t(x)` is recomputable at any point
//!   in `O(t·d)` (module [`log`]). Behind a [`CompactionPolicy`], old
//!   rounds fold into [`LogCheckpoint`]s so replay restarts from the
//!   newest checkpoint — amortized `O(d)` per lookup, flat in `t`, with
//!   any lossy fold charged through the sampling ledger.
//!   [`exact_query_values`] sweeps a [`PointSource`] through the log for
//!   the exact expectations the estimates are checked against, with no
//!   `|X|`-sized allocation.
//! * [`SampledBackend`] — a Monte-Carlo pool with incrementally maintained
//!   log-weights: `O(m·d)` per round and per read at sample budget `m`,
//!   with concentration-bounded certificate estimates, quantile-bounded
//!   max estimates, and Gumbel-max sampling (module [`sampled`]). This
//!   backend implements [`pmw_core::StateBackend`], so the online/offline
//!   mechanisms run on it directly; `Mwem`'s batched query reads sum each
//!   query over its non-zero pool slots alone, found once per pool draw.
//! * [`PointSource`] — indexed point access without materialization;
//!   [`BigBitCube`] reaches universe sizes (`2^26` and beyond) the dense
//!   structures refuse to represent (module [`source`]).
//!
//! Estimation error is accounted in a [`pmw_dp::SamplingAccountant`]
//! ledger alongside — never hidden inside — the privacy accounting:
//! sketching public state costs no privacy, but it is not free in
//! accuracy.
//!
//! The robustness layer keeps the sketch honest under stress:
//!
//! * [`PoolHealth`] — per-round pool diagnostics (ESS fraction,
//!   max-weight share, drift since refresh) sampled through the backend
//!   seam and driving adaptive resampling (module [`health`]);
//! * [`SampledBackend`]'s escalation ladder — emergency resample → pool
//!   growth → loud [`SketchError::Degraded`] when a claimed read radius
//!   stops being usable, with every round applied transactionally
//!   (complete or roll back, never half-updated);
//! * [`FaultPlan`] and friends — a deterministic, seeded fault-injection
//!   layer wrapping any backend, oracle, or point source, powering the
//!   chaos suite (module [`fault`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod fault;
pub mod health;
pub mod log;
pub mod sampled;
mod snis;
pub mod source;

pub use error::SketchError;
pub use fault::{FaultPlan, FaultRule, FaultyBackend, FaultyOracle, FaultySource};
pub use health::PoolHealth;
pub use log::{
    exact_query_values, CompactionPolicy, CompactionReceipt, LogCheckpoint, RoundUpdate, UpdateLog,
};
pub use sampled::{Estimate, MaxEstimate, SampledBackend, SampledConfig, SampledSnapshot};
pub use source::{BigBitCube, PointSource, UniversePoints};
