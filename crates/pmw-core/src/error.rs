//! Error type for the PMW mechanisms.

use std::fmt;

/// Errors from the PMW mechanisms and baselines.
#[derive(Debug, Clone, PartialEq)]
pub enum PmwError {
    /// A configuration parameter was invalid.
    InvalidConfig(&'static str),
    /// The mechanism has halted (the sparse vector's `T` updates are spent,
    /// i.e. the privacy budget for updates is exhausted).
    Halted,
    /// The query limit `k` declared at configuration time was exceeded.
    QueryLimitReached,
    /// A supplied loss does not match the mechanism's universe.
    LossMismatch(&'static str),
    /// The state backend has degraded past its usable threshold (or has
    /// been poisoned by an unrecoverable partial update) and refuses to
    /// serve answers whose claimed accuracy would be meaningless. Loud by
    /// design: the alternative is silently returning estimates whose
    /// radius exceeds anything the mechanism could certify.
    Degraded(&'static str),
    /// Underlying data-substrate failure.
    Data(pmw_data::DataError),
    /// Underlying DP-substrate failure.
    Dp(pmw_dp::DpError),
    /// Underlying convex-substrate failure.
    Convex(pmw_convex::ConvexError),
    /// Underlying loss-layer failure.
    Loss(pmw_losses::LossError),
    /// Underlying ERM-oracle failure.
    Erm(pmw_erm::ErmError),
}

impl fmt::Display for PmwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmwError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PmwError::Halted => write!(f, "mechanism halted: update budget exhausted"),
            PmwError::QueryLimitReached => write!(f, "declared query limit k reached"),
            PmwError::LossMismatch(msg) => write!(f, "loss/universe mismatch: {msg}"),
            PmwError::Degraded(msg) => write!(f, "state backend degraded: {msg}"),
            PmwError::Data(e) => write!(f, "data error: {e}"),
            PmwError::Dp(e) => write!(f, "dp error: {e}"),
            PmwError::Convex(e) => write!(f, "convex error: {e}"),
            PmwError::Loss(e) => write!(f, "loss error: {e}"),
            PmwError::Erm(e) => write!(f, "erm error: {e}"),
        }
    }
}

impl std::error::Error for PmwError {}

/// A backend's claimed radius or read margin, refused with
/// [`PmwError::Degraded`] unless it is finite and non-negative. Every
/// mechanism widens a sparse-vector margin or a selection's sensitivity by
/// it and checks it here before spending anything: a NaN would fall out of
/// the comparison or the `f64::max` fold, and a negative value would
/// narrow what it should widen.
pub(crate) fn claimed_radius(radius: f64) -> Result<f64, PmwError> {
    if radius.is_finite() && radius >= 0.0 {
        Ok(radius)
    } else {
        Err(PmwError::Degraded(
            "backend claimed a non-finite or negative radius",
        ))
    }
}

impl From<pmw_data::DataError> for PmwError {
    fn from(e: pmw_data::DataError) -> Self {
        PmwError::Data(e)
    }
}
impl From<pmw_dp::DpError> for PmwError {
    fn from(e: pmw_dp::DpError) -> Self {
        PmwError::Dp(e)
    }
}
impl From<pmw_convex::ConvexError> for PmwError {
    fn from(e: pmw_convex::ConvexError) -> Self {
        PmwError::Convex(e)
    }
}
impl From<pmw_losses::LossError> for PmwError {
    fn from(e: pmw_losses::LossError) -> Self {
        PmwError::Loss(e)
    }
}
impl From<pmw_erm::ErmError> for PmwError {
    fn from(e: pmw_erm::ErmError) -> Self {
        PmwError::Erm(e)
    }
}
