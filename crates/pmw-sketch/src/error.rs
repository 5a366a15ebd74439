//! Error type for the sketching backends.

use pmw_core::PmwError;
use std::fmt;

/// Errors from the sublinear state backends.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchError {
    /// The point source describes an empty universe.
    EmptyUniverse,
    /// A dimension did not line up (`got` vs `expected`).
    DimensionMismatch {
        /// Dimension received.
        got: usize,
        /// Dimension required.
        expected: usize,
    },
    /// A configuration parameter was invalid.
    InvalidParameter(&'static str),
    /// The loss cannot be retained in the update log
    /// ([`pmw_losses::CmLoss::clone_shared`] returned `None`).
    UnsupportedLoss(&'static str),
    /// A numeric invariant failed (non-finite payoff or weight).
    NonFinite(&'static str),
    /// A round failed mid-update and the pool could not be rolled back to
    /// a consistent pre-round state; the backend fails closed and refuses
    /// all further operations rather than serve half-updated state.
    Poisoned,
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::EmptyUniverse => write!(f, "point source has no elements"),
            SketchError::DimensionMismatch { got, expected } => {
                write!(f, "dimension mismatch: got {got}, expected {expected}")
            }
            SketchError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            SketchError::UnsupportedLoss(msg) => write!(f, "unsupported loss: {msg}"),
            SketchError::NonFinite(msg) => write!(f, "non-finite value: {msg}"),
            SketchError::Poisoned => write!(
                f,
                "backend poisoned: a failed round could not be rolled back"
            ),
        }
    }
}

impl std::error::Error for SketchError {}

impl From<SketchError> for PmwError {
    fn from(e: SketchError) -> Self {
        match e {
            SketchError::EmptyUniverse => PmwError::Data(pmw_data::DataError::EmptyUniverse),
            SketchError::DimensionMismatch { got, expected } => {
                PmwError::Data(pmw_data::DataError::DimensionMismatch { got, expected })
            }
            SketchError::InvalidParameter(msg) => PmwError::InvalidConfig(msg),
            SketchError::UnsupportedLoss(msg) => PmwError::LossMismatch(msg),
            SketchError::NonFinite(msg) => PmwError::LossMismatch(msg),
            SketchError::Poisoned => {
                PmwError::Degraded("backend poisoned: a failed round could not be rolled back")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_converts() {
        let e = SketchError::DimensionMismatch {
            got: 2,
            expected: 3,
        };
        assert!(format!("{e}").contains("got 2"));
        assert!(matches!(
            PmwError::from(SketchError::UnsupportedLoss("x")),
            PmwError::LossMismatch("x")
        ));
        assert!(matches!(
            PmwError::from(SketchError::InvalidParameter("p")),
            PmwError::InvalidConfig("p")
        ));
        assert!(matches!(
            PmwError::from(SketchError::EmptyUniverse),
            PmwError::Data(pmw_data::DataError::EmptyUniverse)
        ));
        assert!(matches!(
            PmwError::from(SketchError::Poisoned),
            PmwError::Degraded(_)
        ));
        assert!(format!("{}", SketchError::Poisoned).contains("poisoned"));
    }
}
