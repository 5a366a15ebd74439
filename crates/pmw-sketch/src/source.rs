//! Point sources: indexed access to universe points **without**
//! materialization.
//!
//! The seam itself lives in [`pmw_data::source`] — the mechanisms'
//! support-row data side (`pmw_core::DataSide::from_source`) and this
//! crate's backends both consume it — and is re-exported here so the
//! sketching crate remains the one-stop import for sublinear work.

pub use pmw_data::source::{BigBitCube, PointSource, UniversePoints};
