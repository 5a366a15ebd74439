//! Data substrate for the PMW reproduction.
//!
//! Implements the data model of Section 2.1 of Ullman (PODS 2015):
//!
//! * finite **data universes** `X` whose elements are points in `R^p`
//!   ([`universe`]),
//! * **datasets** `D ∈ X^n` as multisets of universe elements with the
//!   row-adjacency relation `D ~ D'` ([`dataset`]),
//! * the **histogram representation** `D ∈ R^X` used throughout the paper's
//!   technical sections, stored in the log domain so the Θ(|X|) MW update
//!   is a single fused pass ([`histogram`]),
//! * the **Gumbel-max sampler** over unnormalized log-weights, shared by
//!   the dense histogram and the sublinear (`pmw-sketch`) pool
//!   ([`logweight`]),
//! * **point sources** — on-demand indexed point access with no
//!   materialization ceiling ([`source`]): the seam the sketching backends
//!   and the mechanisms' row-based data path fetch points through,
//! * the materialized universe as one **contiguous row-major matrix**
//!   ([`matrix`]) — the layout every Θ(|X|) sweep walks — plus the chunked
//!   parallel sweep helpers ([`par`]),
//! * **discretization** of continuous data onto finite grids, the rounding
//!   step the paper declares "essentially without loss of generality"
//!   (Section 1.1) ([`discretize`]),
//! * **workload generators** for the query families the evaluation needs —
//!   random signed linear queries, marginals, random regression and
//!   classification tasks ([`workload`]),
//! * **synthetic populations** for the adaptive data analysis experiments of
//!   Section 1.3 ([`synth`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod discretize;
pub mod error;
pub mod histogram;
pub mod logweight;
pub mod matrix;
pub mod par;
pub mod source;
pub mod synth;
pub mod universe;
pub mod workload;

pub use dataset::Dataset;
pub use error::DataError;
pub use histogram::Histogram;
pub use logweight::{gumbel_max_index, standard_gumbel};
pub use matrix::{PointMatrix, RowBits};
pub use source::{BigBitCube, PointSource, UniversePoints};
pub use universe::{BooleanCube, EnumeratedUniverse, GridUniverse, LabeledGridUniverse, Universe};
pub use workload::{ImplicitQuery, LinearQuery, PointPredicate, PointQuery};
