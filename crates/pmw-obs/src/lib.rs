//! Observability spine for the PMW workspace.
//!
//! The mechanisms and sketch backends expose their run-time signals —
//! per-phase latency, per-round ε/δ spend, sparse-vector margins, claimed
//! concentration radii and the bound that won them, effective-sample-size
//! health, resamples/escalations — through one narrow seam: the
//! [`Probe`] trait. Every instrumented loop is generic over a
//! `P: Probe`, and the default [`NoopProbe`] is a zero-sized type whose
//! methods are empty and inline to nothing, so **probe-off builds are
//! bit-for-bit the uninstrumented code**: same float operations, same rng
//! stream, no branches on a runtime flag. (A parity test in `pmw-sketch`
//! holds the mechanisms to that.)
//!
//! Two concrete probes ship here:
//!
//! * [`JsonlTraceProbe`] — streams every observation as one line of
//!   newline-delimited JSON with a versioned schema (see [`trace`]), for
//!   offline analysis and the `run_report` renderer in `pmw-bench`;
//! * [`SummaryProbe`] — an in-memory rollup: p50/p99 per-phase latency,
//!   the budget trajectory, and the ESS health timeline, rendered by
//!   [`Summary::render`].
//!
//! Both record through the same [`TraceEvent`] vocabulary, and
//! [`Summary::from_events`] rebuilds the rollup from a parsed trace, which
//! is what makes the JSONL round-trip testable: serialize → parse →
//! identical summary.
//!
//! Trace lines are written and read through [`json`], the workspace's one
//! JSON value, which `pmw-bench` also uses for its `BENCH_*.json`
//! artifacts.
//!
//! # Wiring a probe
//!
//! ```
//! use pmw_obs::{Phase, Probe, SummaryProbe};
//!
//! // Instrumented code is generic over the probe and pays nothing when
//! // handed a `NoopProbe` (the mechanisms' default).
//! fn do_round<P: Probe>(probe: &P) {
//!     probe.round_begin(0);
//!     probe.span_begin(Phase::Update);
//!     // ... work ...
//!     probe.span_end(Phase::Update);
//!     probe.round_end(0, "update");
//! }
//!
//! let probe = SummaryProbe::new("demo", "doctest");
//! do_round(&probe);
//! let summary = probe.finish();
//! assert_eq!(summary.rounds, 1);
//! ```
//!
//! Probes are deliberately infallible: a probe must never make the
//! mechanism fail, so the I/O probe swallows write errors (counting them)
//! and all hooks take `&self` (interior mutability inside the concrete
//! probes), which lets read-only backend methods report through them.

pub mod json;
mod jsonl;
mod probe;
mod summary;
pub mod trace;

pub use json::Json;
pub use jsonl::JsonlTraceProbe;
pub use probe::{Counter, Gauge, NoopProbe, Phase, Probe};
pub use summary::{nearest_rank, GaugeStats, PhaseStats, Summary, SummaryProbe};
pub use trace::{TraceEvent, TraceParseError, TRACE_VERSION};
