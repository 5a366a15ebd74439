//! The data side of every mechanism: the private dataset `D` as the
//! weighted point set that the error queries, the `θ*` solves, the ERM
//! oracle and the true linear-query answers sweep.
//!
//! One decision separates the dense setting from the sublinear one. `D`
//! is held either as its histogram over the materialized universe
//! ([`DataSide::from_universe`], Θ(|X|) per sweep) or as the dataset's
//! ≤ n distinct support rows fetched through a [`PointSource`]
//! ([`DataSide::from_source`], `O(n·d)` per sweep and nothing `|X|`-sized —
//! the *Fast-MWEM* setting). Every mechanism takes a `DataSide`, and the
//! checks that tie one to its dataset and to a state backend live here.

use crate::error::PmwError;
use crate::state::{eval_query_on_histogram, StateBackend};
use pmw_data::workload::{query_values, PointQuery};
use pmw_data::{Dataset, Histogram, PointMatrix, PointSource, Universe};
use pmw_losses::CmLoss;

/// The private dataset as a weighted row set, built once and handed to a
/// mechanism.
///
/// Both forms weight their rows by the empirical distribution of the
/// dataset, so every data-side quantity has the same value on either; the
/// row form only skips the universe elements the dataset never hits.
#[derive(Clone)]
pub struct DataSide {
    universe_size: usize,
    n: usize,
    rows: Rows,
}

#[derive(Clone)]
enum Rows {
    /// The universe in index order, weighted by the data histogram.
    /// `points` is `None` only for the crate-private size-only form.
    Universe {
        points: Option<PointMatrix>,
        histogram: Histogram,
    },
    /// The dataset's distinct support rows in ascending universe index,
    /// with their empirical weights.
    Support {
        indices: Vec<usize>,
        points: PointMatrix,
        weights: Vec<f64>,
    },
}

impl DataSide {
    /// The dense data side: the materialized universe plus the Θ(|X|)
    /// data histogram. Pairs with any state backend.
    pub fn from_universe<U: Universe>(universe: &U, dataset: &Dataset) -> Result<Self, PmwError> {
        check_dataset(dataset, universe.size())?;
        Ok(Self {
            universe_size: universe.size(),
            n: dataset.len(),
            rows: Rows::Universe {
                points: Some(universe.materialize()),
                histogram: dataset.histogram(),
            },
        })
    }

    /// The sublinear data side: only the dataset's support rows, fetched
    /// on demand through `source` (`O(n·d)` time and memory, independent
    /// of `|X|`). Needs a state backend that holds its own points
    /// (`!`[`StateBackend::requires_materialized_universe`], e.g.
    /// `pmw_sketch::SampledBackend`); the mechanisms reject any other.
    pub fn from_source<S: PointSource + ?Sized>(
        source: &S,
        dataset: &Dataset,
    ) -> Result<Self, PmwError> {
        check_dataset(dataset, source.len())?;
        let (indices, points, weights) = dataset.support_points_indexed(source)?;
        Ok(Self {
            universe_size: source.len(),
            n: dataset.len(),
            rows: Rows::Support {
                indices,
                points,
                weights,
            },
        })
    }

    /// The dense form without universe points, for dense
    /// [`pmw_data::LinearQuery`] vectors that never evaluate a point.
    pub(crate) fn from_histogram(
        universe_size: usize,
        dataset: &Dataset,
    ) -> Result<Self, PmwError> {
        check_dataset(dataset, universe_size)?;
        Ok(Self {
            universe_size,
            n: dataset.len(),
            rows: Rows::Universe {
                points: None,
                histogram: dataset.histogram(),
            },
        })
    }

    /// Reject a backend over another universe, and a backend that sweeps
    /// a materialized universe on the support-row form (its rows are not
    /// the universe).
    pub(crate) fn check_backend(&self, state: &dyn StateBackend) -> Result<(), PmwError> {
        if matches!(self.rows, Rows::Support { .. }) && state.requires_materialized_universe() {
            return Err(PmwError::InvalidConfig(
                "this state backend sweeps a materialized universe; a support-row data side needs a sketching backend",
            ));
        }
        if state.universe_size() != self.universe_size {
            return Err(PmwError::LossMismatch(
                "state backend universe size does not match universe",
            ));
        }
        Ok(())
    }

    /// Universe size `|X|`.
    pub(crate) fn universe_size(&self) -> usize {
        self.universe_size
    }

    /// Number of dataset rows `n`.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// The weighted rows: every universe point on the dense form, the
    /// support rows on the row form.
    ///
    /// # Panics
    ///
    /// On the size-only form, which only the linear-query mechanisms
    /// build and which never reaches a CM mechanism.
    pub(crate) fn points(&self) -> &PointMatrix {
        self.point_rows()
            .expect("CM mechanisms only receive data sides that carry points")
    }

    /// The weights paired with [`DataSide::points`] (they sum to 1).
    pub(crate) fn weights(&self) -> &[f64] {
        match &self.rows {
            Rows::Universe { histogram, .. } => histogram.weights(),
            Rows::Support { weights, .. } => weights,
        }
    }

    /// The Θ(|X|) data histogram, on the dense form.
    pub(crate) fn histogram(&self) -> Option<&Histogram> {
        match &self.rows {
            Rows::Universe { histogram, .. } => Some(histogram),
            Rows::Support { .. } => None,
        }
    }

    /// The materialized universe, on the dense form built from a
    /// [`Universe`].
    pub(crate) fn universe_points(&self) -> Option<&PointMatrix> {
        match &self.rows {
            Rows::Universe { points, .. } => points.as_ref(),
            Rows::Support { .. } => None,
        }
    }

    fn point_rows(&self) -> Option<&PointMatrix> {
        match &self.rows {
            Rows::Universe { points, .. } => points.as_ref(),
            Rows::Support { points, .. } => Some(points),
        }
    }

    /// Check that CM loss `loss` reads points of this data side's dimension.
    pub(crate) fn check_loss(&self, loss: &dyn CmLoss) -> Result<(), PmwError> {
        if loss.point_dim() != self.points().dim() {
            return Err(PmwError::LossMismatch(
                "loss point dimension does not match universe",
            ));
        }
        Ok(())
    }

    /// Check that linear query `q` is evaluable against this data side
    /// (and against the hypothesis state, which shares its universe).
    pub(crate) fn check_query(&self, q: &dyn PointQuery) -> Result<(), PmwError> {
        if let Some(len) = q.universe_len() {
            if len != self.universe_size {
                return Err(PmwError::LossMismatch("query length != universe size"));
            }
            return Ok(());
        }
        let d = q.point_dim().ok_or(PmwError::LossMismatch(
            "query supports neither index nor point evaluation",
        ))?;
        match self.point_rows() {
            Some(points) if points.dim() == d => Ok(()),
            Some(_) => Err(PmwError::LossMismatch(
                "query point dimension does not match universe points",
            )),
            None => Err(PmwError::LossMismatch(
                "implicit queries need universe points; construct with a universe or point source",
            )),
        }
    }

    /// The true answer `q(D)`.
    pub(crate) fn evaluate(&self, q: &dyn PointQuery) -> Result<f64, PmwError> {
        match &self.rows {
            Rows::Universe { points, histogram } => {
                eval_query_on_histogram(q, histogram, points.as_ref())
            }
            Rows::Support {
                indices,
                points,
                weights,
            } => {
                // One batch call per stack tile of rows: the sum keeps its
                // row order and allocates nothing.
                const TILE: usize = 256;
                let mut tile = [0.0; TILE];
                let mut value = 0.0;
                for start in (0..weights.len()).step_by(TILE) {
                    let end = (start + TILE).min(weights.len());
                    let values = &mut tile[..end - start];
                    query_values(
                        q,
                        &indices[start..end],
                        points.row_block(start, end),
                        points.dim(),
                        values,
                    )?;
                    for (w, v) in weights[start..end].iter().zip(values.iter()) {
                        value += w * v;
                    }
                }
                Ok(value)
            }
        }
    }
}

/// Reject an empty universe and a dataset indexing a different one.
fn check_dataset(dataset: &Dataset, universe_size: usize) -> Result<(), PmwError> {
    if universe_size == 0 {
        return Err(PmwError::InvalidConfig(
            "universe must contain at least one element",
        ));
    }
    if dataset.universe_size() != universe_size {
        return Err(PmwError::LossMismatch(
            "dataset universe size does not match universe",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmw_data::workload::{query_value, ImplicitQuery, LinearQuery};
    use pmw_data::BigBitCube;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn support_answers_match_the_per_row_sum_bit_for_bit() {
        let source = BigBitCube::new(12).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        // Repeated rows give the ~620 support rows uneven weights, over
        // two full blocks and a partial third.
        let rows: Vec<usize> = (0..1200)
            .map(|_| rng.random_range(0..source.len()) % 800)
            .collect();
        let dataset = Dataset::from_indices(source.len(), rows).unwrap();
        let data = DataSide::from_source(&source, &dataset).unwrap();
        let Rows::Support {
            indices,
            points,
            weights,
        } = &data.rows
        else {
            panic!("a source builds the support form");
        };
        assert!(indices.len() > 512 && weights.iter().any(|&w| w != weights[0]));
        // Varying values, so a sum taken in another order would show.
        let dense =
            LinearQuery::new((0..source.len()).map(|i| (i % 17) as f64 / 16.0).collect()).unwrap();
        let queries: Vec<Box<dyn PointQuery>> = vec![
            Box::new(ImplicitQuery::marginal(vec![2, 9], 12).unwrap()),
            Box::new(ImplicitQuery::parity(vec![0, 5, 11], 12).unwrap()),
            Box::new(ImplicitQuery::threshold(4, 0.5, 12).unwrap()),
            Box::new(dense),
        ];
        for query in &queries {
            let query = query.as_ref();
            let mut expected = 0.0;
            for ((&index, point), w) in indices.iter().zip(points.iter()).zip(weights) {
                expected += w * query_value(query, index, point).unwrap();
            }
            let got = data.evaluate(query).unwrap();
            assert_eq!(got.to_bits(), expected.to_bits(), "{}", query.name());
        }
        // A query that evaluates by neither route fails as `query_value`
        // does.
        struct Neither;
        impl PointQuery for Neither {
            fn value_bounds(&self) -> (f64, f64) {
                (0.0, 1.0)
            }
            fn value_at_index(&self, _index: usize) -> Option<f64> {
                None
            }
            fn value_at_point(&self, _point: &[f64]) -> Option<f64> {
                None
            }
        }
        let err = query_value(&Neither, indices[0], &points[0]).unwrap_err();
        assert_eq!(data.evaluate(&Neither), Err(PmwError::Data(err)));
    }
}
