//! Datasets `D ∈ X^n` and the row-adjacency relation (Section 2.1).
//!
//! A [`Dataset`] stores rows as indices into a [`Universe`],
//! which makes histogram construction, adjacency edits, and loss evaluation
//! over rows cheap and allocation-free.

use crate::error::DataError;
use crate::histogram::Histogram;
use crate::matrix::PointMatrix;
use crate::source::PointSource;
use crate::universe::Universe;
use rand::Rng;

/// A multiset of universe elements, `D = (x_1, …, x_n) ∈ X^n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    universe_size: usize,
    rows: Vec<usize>,
}

impl Dataset {
    /// Build from universe row indices.
    pub fn from_indices(universe_size: usize, rows: Vec<usize>) -> Result<Self, DataError> {
        if universe_size == 0 {
            return Err(DataError::EmptyUniverse);
        }
        if rows.is_empty() {
            return Err(DataError::EmptyDataset);
        }
        if let Some(&bad) = rows.iter().find(|&&r| r >= universe_size) {
            return Err(DataError::IndexOutOfRange {
                index: bad,
                size: universe_size,
            });
        }
        Ok(Self {
            universe_size,
            rows,
        })
    }

    /// Sample `n` rows i.i.d. from a distribution over the universe — the
    /// `D ~ P^n` sampling step of the adaptive-analysis setting (Section 1.3).
    pub fn sample_from<R: Rng + ?Sized>(
        population: &Histogram,
        n: usize,
        rng: &mut R,
    ) -> Result<Self, DataError> {
        if n == 0 {
            return Err(DataError::EmptyDataset);
        }
        Ok(Self {
            universe_size: population.len(),
            rows: population.sample_many(n, rng),
        })
    }

    /// Number of rows `n`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the dataset has no rows (cannot happen for constructed values).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Size of the underlying universe.
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }

    /// Row indices.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The histogram (empirical distribution) of this dataset — the
    /// representation every PMW component consumes (Section 2.1).
    pub fn histogram(&self) -> Histogram {
        let mut counts = vec![0usize; self.universe_size];
        for &r in &self.rows {
            counts[r] += 1;
        }
        // Counts of a nonempty dataset always normalize.
        Histogram::from_counts(&counts).expect("nonempty dataset yields valid histogram")
    }

    /// The adjacent dataset `D' ~ D` obtained by replacing row `row` with
    /// universe element `new_value` (Definition 2.1's neighbor relation).
    pub fn with_row_replaced(&self, row: usize, new_value: usize) -> Result<Self, DataError> {
        if row >= self.rows.len() {
            return Err(DataError::IndexOutOfRange {
                index: row,
                size: self.rows.len(),
            });
        }
        if new_value >= self.universe_size {
            return Err(DataError::IndexOutOfRange {
                index: new_value,
                size: self.universe_size,
            });
        }
        let mut rows = self.rows.clone();
        rows[row] = new_value;
        Ok(Self {
            universe_size: self.universe_size,
            rows,
        })
    }

    /// A canonical adjacent dataset: replace row 0 with a different universe
    /// element (used by the privacy audits).
    pub fn canonical_neighbor(&self) -> Self {
        let new_value = (self.rows[0] + 1) % self.universe_size;
        self.with_row_replaced(0, new_value)
            .expect("row 0 exists and value is in range")
    }

    /// True if the two datasets differ in at most one row (`D ~ D'`).
    pub fn is_adjacent_to(&self, other: &Dataset) -> bool {
        self.universe_size == other.universe_size
            && self.rows.len() == other.rows.len()
            && self
                .rows
                .iter()
                .zip(&other.rows)
                .filter(|(a, b)| a != b)
                .count()
                <= 1
    }

    /// The dataset's **support**: its distinct universe indices (sorted
    /// ascending) with their empirical weights `count/n`. At most
    /// `min(n, |X|)` entries — the `O(n)` summary the row-based error-query
    /// path consumes instead of the Θ(|X|) histogram.
    pub fn support(&self) -> (Vec<usize>, Vec<f64>) {
        let mut sorted = self.rows.clone();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        let mut indices = Vec::new();
        let mut weights = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let value = sorted[i];
            let start = i;
            while i < sorted.len() && sorted[i] == value {
                i += 1;
            }
            indices.push(value);
            weights.push((i - start) as f64 / n);
        }
        (indices, weights)
    }

    /// Materialize only the support rows as a weighted point set, fetching
    /// each distinct point once through `source` — `O(n·d)` time and
    /// memory, independent of `|X|`. Returns the support's universe
    /// indices (ascending), the rows, and the empirical distribution
    /// restricted to the support (the weights sum to 1): a drop-in data
    /// side for weighted objectives, ERM oracles and universe-indexed
    /// queries alike.
    pub fn support_points_indexed<S: PointSource + ?Sized>(
        &self,
        source: &S,
    ) -> Result<(Vec<usize>, PointMatrix, Vec<f64>), DataError> {
        if self.universe_size != source.len() {
            return Err(DataError::InvalidParameter(
                "dataset universe size does not match point source",
            ));
        }
        let (indices, weights) = self.support();
        let dim = source.dim();
        let mut flat = vec![0.0; indices.len() * dim];
        for (row, &idx) in flat.chunks_exact_mut(dim).zip(&indices) {
            source.write_point(idx, row);
        }
        Ok((indices, PointMatrix::from_flat(flat, dim)?, weights))
    }

    /// Materialize the rows as points of `universe`.
    pub fn points<U: Universe>(&self, universe: &U) -> Result<Vec<Vec<f64>>, DataError> {
        if self.universe_size != universe.size() {
            return Err(DataError::InvalidParameter(
                "dataset universe size does not match supplied universe",
            ));
        }
        Ok(self.rows.iter().map(|&r| universe.point(r)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::BooleanCube;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_indices_validates() {
        assert!(Dataset::from_indices(0, vec![0]).is_err());
        assert!(Dataset::from_indices(4, vec![]).is_err());
        assert!(matches!(
            Dataset::from_indices(4, vec![0, 4]),
            Err(DataError::IndexOutOfRange { index: 4, size: 4 })
        ));
    }

    #[test]
    fn histogram_is_empirical_distribution() {
        let d = Dataset::from_indices(3, vec![0, 0, 2, 2, 2, 1]).unwrap();
        let h = d.histogram();
        assert!((h.mass(0) - 2.0 / 6.0).abs() < 1e-12);
        assert!((h.mass(1) - 1.0 / 6.0).abs() < 1e-12);
        assert!((h.mass(2) - 3.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn replaced_row_yields_adjacent_dataset() {
        let d = Dataset::from_indices(5, vec![1, 2, 3]).unwrap();
        let d2 = d.with_row_replaced(1, 4).unwrap();
        assert!(d.is_adjacent_to(&d2));
        assert!(d.is_adjacent_to(&d));
        assert_eq!(d2.rows(), &[1, 4, 3]);
        let d3 = d2.with_row_replaced(0, 0).unwrap();
        assert!(!d.is_adjacent_to(&d3));
    }

    #[test]
    fn canonical_neighbor_differs_in_exactly_row_zero() {
        let d = Dataset::from_indices(4, vec![3, 1]).unwrap();
        let nb = d.canonical_neighbor();
        assert!(d.is_adjacent_to(&nb));
        assert_eq!(nb.rows()[0], 0);
        assert_eq!(nb.rows()[1], 1);
    }

    #[test]
    fn adjacent_histograms_within_two_over_n() {
        let d = Dataset::from_indices(6, vec![0, 1, 2, 3, 4, 5, 0, 1]).unwrap();
        let nb = d.canonical_neighbor();
        let dist = d.histogram().l1_distance(&nb.histogram());
        assert!(dist <= 2.0 / d.len() as f64 + 1e-12);
    }

    #[test]
    fn sampling_from_population_matches_universe() {
        let pop = Histogram::from_counts(&[1, 1, 2]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let d = Dataset::sample_from(&pop, 100, &mut rng).unwrap();
        assert_eq!(d.len(), 100);
        assert_eq!(d.universe_size(), 3);
        assert!(Dataset::sample_from(&pop, 0, &mut rng).is_err());
    }

    #[test]
    fn support_is_sorted_distinct_with_empirical_weights() {
        let d = Dataset::from_indices(10, vec![7, 2, 2, 9, 2, 7]).unwrap();
        let (idx, w) = d.support();
        assert_eq!(idx, vec![2, 7, 9]);
        assert!((w[0] - 3.0 / 6.0).abs() < 1e-15);
        assert!((w[1] - 2.0 / 6.0).abs() < 1e-15);
        assert!((w[2] - 1.0 / 6.0).abs() < 1e-15);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn support_points_match_histogram_masses_on_support() {
        let cube = BooleanCube::new(3).unwrap();
        let d = Dataset::from_indices(8, vec![5, 0, 5, 3]).unwrap();
        let (idx, pts, w) = d
            .support_points_indexed(&crate::UniversePoints(cube.clone()))
            .unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts.dim(), 3);
        let h = d.histogram();
        assert_eq!(idx, d.support().0);
        for (slot, &x) in idx.iter().enumerate() {
            assert_eq!(pts.row(slot), cube.point(x).as_slice());
            assert!((w[slot] - h.mass(x)).abs() < 1e-15, "x={x}");
        }
        // Mismatched source size is rejected.
        let small = BooleanCube::new(2).unwrap();
        assert!(d
            .support_points_indexed(&crate::UniversePoints(small))
            .is_err());
    }

    #[test]
    fn points_materialize_against_universe() {
        let cube = BooleanCube::new(2).unwrap();
        let d = Dataset::from_indices(4, vec![0, 3]).unwrap();
        let pts = d.points(&cube).unwrap();
        assert_eq!(pts, vec![vec![0.0, 0.0], vec![1.0, 1.0]]);
        let d_bad = Dataset::from_indices(5, vec![0]).unwrap();
        assert!(d_bad.points(&cube).is_err());
    }

    #[test]
    fn replace_validates_bounds() {
        let d = Dataset::from_indices(3, vec![0, 1]).unwrap();
        assert!(d.with_row_replaced(2, 0).is_err());
        assert!(d.with_row_replaced(0, 3).is_err());
    }
}
