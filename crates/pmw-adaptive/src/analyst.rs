//! The overfitting analyst (Freedman's paradox, adaptive form).
//!
//! The canonical adaptive strategy that breaks naive sample reuse:
//!
//! 1. ask the frequency of every feature bit;
//! 2. keep the bits whose answer deviates from the null value 1/2 by more
//!    than a selection threshold, *remembering the deviation's direction*;
//! 3. ask one final query — the average agreement with the selected
//!    directions.
//!
//! On a **null population** (every bit fair) nothing is real: the true
//! population value of the final query is exactly 1/2. But computed on the
//! sample, each selected bit deviates in its remembered direction *by
//! construction*, so the final sample answer is inflated — spurious
//! discovery. Differentially private answers bound this inflation
//! (\[DFH+15\]); the harness measures both.

use pmw_core::PmwError;
use pmw_losses::{LinearQueryLoss, PointPredicate};

/// The adaptive feature hunter over a `dim`-bit boolean universe.
#[derive(Debug, Clone)]
pub struct OverfitAnalyst {
    dim: usize,
    threshold: f64,
}

/// A selected feature: bit index and observed direction (`true` = "set more
/// often than the null 1/2").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectedBit {
    /// Bit index.
    pub bit: usize,
    /// Direction of the observed deviation.
    pub positive: bool,
}

impl OverfitAnalyst {
    /// Analyst over `dim` bits selecting deviations larger than `threshold`.
    pub fn new(dim: usize, threshold: f64) -> Result<Self, PmwError> {
        if dim == 0 {
            return Err(PmwError::InvalidConfig("dim must be >= 1"));
        }
        if !(threshold > 0.0 && threshold < 0.5) {
            return Err(PmwError::InvalidConfig("threshold must lie in (0, 0.5)"));
        }
        Ok(Self { dim, threshold })
    }

    /// Phase 1: one frequency query per bit.
    pub fn phase1_queries(&self) -> Result<Vec<LinearQueryLoss>, PmwError> {
        (0..self.dim)
            .map(|b| {
                LinearQueryLoss::new(
                    PointPredicate::Threshold {
                        coord: b,
                        threshold: 0.5,
                        at_least: true,
                    },
                    self.dim,
                )
                .map_err(PmwError::from)
            })
            .collect()
    }

    /// Phase 2 selection from the phase-1 answers.
    pub fn select(&self, answers: &[f64]) -> Result<Vec<SelectedBit>, PmwError> {
        if answers.len() != self.dim {
            return Err(PmwError::InvalidConfig("one answer per bit required"));
        }
        Ok(answers
            .iter()
            .enumerate()
            .filter(|(_, &a)| (a - 0.5).abs() > self.threshold)
            .map(|(bit, &a)| SelectedBit {
                bit,
                positive: a > 0.5,
            })
            .collect())
    }

    /// Phase 3: the final agreement query,
    /// `q*(x) = (1/m)·Σ_selected 1[bit agrees with its direction]`.
    /// Returns `None` when nothing was selected (no overfitting possible).
    pub fn final_query(
        &self,
        selected: &[SelectedBit],
    ) -> Result<Option<LinearQueryLoss>, PmwError> {
        if selected.is_empty() {
            return Ok(None);
        }
        let m = selected.len() as f64;
        // Agreement with a positive direction contributes x_b/m; with a
        // negative direction (1 - x_b)/m. Collect into a clamped linear
        // statistic: weights +-1/m and offset (#negative)/m.
        let mut weights = vec![0.0; self.dim];
        let mut offset = 0.0;
        for s in selected {
            if s.positive {
                weights[s.bit] += 1.0 / m;
            } else {
                weights[s.bit] -= 1.0 / m;
                offset += 1.0 / m;
            }
        }
        Ok(Some(LinearQueryLoss::new(
            PointPredicate::Linear { weights, offset },
            self.dim,
        )?))
    }

    /// Number of feature bits.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Selection threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmw_losses::CmLoss;

    #[test]
    fn construction_validates() {
        assert!(OverfitAnalyst::new(0, 0.1).is_err());
        assert!(OverfitAnalyst::new(4, 0.0).is_err());
        assert!(OverfitAnalyst::new(4, 0.6).is_err());
        assert!(OverfitAnalyst::new(4, 0.1).is_ok());
    }

    #[test]
    fn phase1_produces_one_query_per_bit() {
        let a = OverfitAnalyst::new(5, 0.1).unwrap();
        let qs = a.phase1_queries().unwrap();
        assert_eq!(qs.len(), 5);
        // Query b evaluates bit b on raw cube points.
        let x = [1.0, 0.0, 1.0, 0.0, 1.0];
        for (b, q) in qs.iter().enumerate() {
            let expect = x[b];
            // loss minimizer equals predicate value on a single point; just
            // check the predicate directly.
            match q.query().predicate() {
                PointPredicate::Threshold { coord, .. } => assert_eq!(*coord, b),
                other => panic!("unexpected predicate {other:?}"),
            }
            let _ = expect;
        }
    }

    #[test]
    fn selection_keeps_large_deviations_with_direction() {
        let a = OverfitAnalyst::new(4, 0.1).unwrap();
        let selected = a.select(&[0.5, 0.7, 0.35, 0.52]).unwrap();
        assert_eq!(
            selected,
            vec![
                SelectedBit {
                    bit: 1,
                    positive: true
                },
                SelectedBit {
                    bit: 2,
                    positive: false
                }
            ]
        );
        assert!(a.select(&[0.5; 3]).is_err());
    }

    #[test]
    fn final_query_measures_agreement() {
        let a = OverfitAnalyst::new(3, 0.1).unwrap();
        let selected = vec![
            SelectedBit {
                bit: 0,
                positive: true,
            },
            SelectedBit {
                bit: 2,
                positive: false,
            },
        ];
        let q = a.final_query(&selected).unwrap().unwrap();
        // Point agreeing with both: bit0=1, bit2=0 -> value 1.
        assert_eq!(q.query().evaluate(&[1.0, 0.0, 0.0]), 1.0);
        // Point agreeing with neither -> 0.
        assert_eq!(q.query().evaluate(&[0.0, 0.0, 1.0]), 0.0);
        // Half agreement -> 0.5.
        assert_eq!(q.query().evaluate(&[1.0, 0.0, 1.0]), 0.5);
        // Empty selection -> no query.
        assert!(a.final_query(&[]).unwrap().is_none());
        let _ = q.name();
    }
}
