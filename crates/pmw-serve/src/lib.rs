//! Concurrent multi-analyst serving for the online PMW mechanism.
//!
//! The snapshot/commit split in `pmw-core` makes one Figure-3 round a
//! pure **read phase** (solve `θ̂` and the error query against an
//! immutable [`ReadSnapshot`](pmw_core::ReadSnapshot), no RNG, no state
//! change) followed by a small **write phase** (sparse-vector noise draw,
//! and on `⊤` the private oracle + MW update). This crate turns that
//! split into a serving architecture:
//!
//! * [`PmwServer`] moves the mechanism onto a single **writer thread**
//!   behind an MPSC channel — the only thread that ever draws noise,
//!   charges budget, or mutates hypothesis state, so the mechanism's
//!   transcript and privacy ledger stay a strictly serialized record
//!   exactly like a sequential run's.
//! * N [`AnalystHandle`]s run the expensive read phase **analyst-side**
//!   against the latest published snapshot. The snapshot lives in a
//!   [`SnapshotCell`]; the steady-state refresh is one atomic epoch load,
//!   so concurrent screens never contend on a lock.
//! * The writer drains whatever is queued into a **batch** and hands it
//!   to the mechanism's own decision
//!   ([`OnlinePmw::decide_with_probe`](pmw_core::OnlinePmw::decide_with_probe)):
//!   one test of the mechanism's sparse vector on the *batch maximum*
//!   margin. The maximum of same-sensitivity queries has the same
//!   sensitivity, so this is a single valid SV query charged once: a `⊥`
//!   certifies every member below threshold (each answers free from its
//!   own `θ̂`); a `⊤` commits only the arg-max member, and the survivors
//!   are re-screened against the fresh post-update state before being
//!   tested again.
//! * Privacy spend is mirrored into a per-tenant
//!   [`ShardedAccountant`](pmw_dp::ShardedAccountant): each analyst owns
//!   a declared share of the oracle budget, over-share commits are
//!   rejected *before* any noise is drawn (a data-independent admission
//!   check), and the merge audit proves the union of tenant ledgers sits
//!   inside the declaration.
//!
//! Every analyst blocks on its reply, so a batch holds at most one request
//! per analyst. With one analyst the writer loop is the sequential
//! screen → decision order, so single-analyst serving is bit-for-bit the
//! same mechanism answered by
//! [`OnlinePmw::answer`](pmw_core::OnlinePmw::answer) with an RNG seeded
//! like the writer's (the parity test pins this).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cell;
mod server;
mod stats;

pub use cell::SnapshotCell;
pub use server::{AnalystHandle, PmwServer, ServeAnswer, ServeConfig, ServeJoin, ServeOutcome};
pub use stats::{AnalystStats, ServeStats};
