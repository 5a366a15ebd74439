//! Online private multiplicative weights for convex minimization queries —
//! the primary contribution of Ullman, *"Private Multiplicative Weights
//! Beyond Linear Queries"* (PODS 2015).
//!
//! The centerpiece is [`OnlinePmw`], a faithful implementation of the
//! paper's Figure 3: an interactive mechanism that answers an adaptively
//! chosen stream of `k` CM queries with per-query excess risk `α`, while
//! satisfying `(ε, δ)`-differential privacy, given
//! `n = Õ(S²·√(log|X|)·log k/(εα²))` samples (Theorem 3.8). Each query's
//! error is screened by the sparse vector algorithm; queries the hypothesis
//! histogram already answers well are served for free, and the rest trigger
//! a private oracle call plus a **dual-certificate multiplicative-weights
//! update** (Claim 3.5) — the paper's key novelty, implemented in
//! [`update`].
//!
//! The crate also contains everything the evaluation compares against:
//!
//! * [`OfflinePmw`] — the offline variant sketched in Section 1.2
//!   (\[GHRU11\]-style): all `k` losses known up front, exponential-mechanism
//!   query selection.
//! * [`LinearPmw`] and [`Mwem`] — classic private multiplicative weights for
//!   linear queries [HR10, HLM12], the special case the paper generalizes.
//! * [`CompositionMechanism`] — the naive baseline: every query answered
//!   independently by a single-query oracle under strong composition,
//!   costing `√k` instead of `log k`.
//! * [`state`] — the state-backend seam ([`StateBackend`]/[`DenseBackend`]):
//!   every mechanism is generic over how `D̂_t` is represented, which is
//!   what lets the `pmw-sketch` crate swap in sublinear-time sketched state.
//! * [`data`] — the one data-side type, [`DataSide`]: the dataset as its
//!   histogram over the materialized universe, or as its ≤ n support rows
//!   ([`DataSide::from_source`]), which never materializes the universe.
//!   Each mechanism keeps a dense convenience constructor plus one generic
//!   entry taking a `DataSide` and a backend ([`OnlinePmw::with_backend`],
//!   [`LinearPmw::with_backend`], [`OfflinePmw::run_with_backend`],
//!   [`Mwem::run_with_backend`]); with support rows and a sketching backend
//!   the whole loop is flat in `|X|`.
//! * [`theory`] — every quantitative formula from Table 1 and
//!   Theorems 3.1/3.8; the mechanism takes its round count and learning
//!   rate from here, and its tests check Lemma 3.4's regret bound.
//! * [`game`] — the sample accuracy game of Figure 1 (Definition 2.4).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod composition_baseline;
pub mod config;
pub mod data;
pub mod error;
pub mod game;
pub mod linear;
pub mod mechanism;
pub mod offline;
pub mod state;
pub mod theory;
pub mod transcript;
pub mod update;

pub use composition_baseline::CompositionMechanism;
pub use config::{DerivedParams, PmwConfig, PmwConfigBuilder};
pub use data::DataSide;
pub use error::PmwError;
pub use game::{run_accuracy_game, GameOutcome};
pub use linear::{LinearPmw, Mwem, MwemRun};
pub use mechanism::{OnlinePmw, ScreenContext, ScreenedQuery};
pub use offline::{OfflinePmw, OfflineResult};
pub use state::{
    BackendEvent, DenseBackend, DenseSnapshot, MeanFn, QueryEstimate, QueryMemo, ReadSnapshot,
    StateBackend,
};
pub use transcript::{QueryOutcome, QueryRecord, Transcript};
