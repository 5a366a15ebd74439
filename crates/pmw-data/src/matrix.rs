//! The materialized universe as one contiguous row-major matrix.
//!
//! Every Θ(|X|) sweep of the Figure-3 mechanism — the dual-certificate
//! evaluation, the error-query objective, the MW update — walks all universe
//! points in index order. The seed representation, `Vec<Vec<f64>>`, put
//! every point behind its own heap allocation, so those sweeps paid a
//! pointer chase plus a likely cache miss per point. [`PointMatrix`] stores
//! the same `|X| × p` data as a single flat `Vec<f64>` with stride `p`:
//! rows are `chunks_exact(p)` views, sweeps are linear scans, and block
//! decomposition for the parallel kernels is free.
//!
//! Conjunctions and parities read each coordinate only through the test
//! `x_c ≥ ½`, so the matrix also serves that test as one bitset per
//! coordinate ([`PointMatrix::set_bits`]), built on first request and
//! cached; a query's incidence over the rows is then a few word-wide ANDs
//! or XORs ([`RowBits`], [`crate::PointQuery::incidence`]).

use crate::error::DataError;
use crate::universe::Universe;
use std::sync::OnceLock;

/// A dense row-major `rows × dim` matrix of universe points.
///
/// Invariants: `data.len() == rows * dim`, `dim >= 1`, and every entry is
/// finite (constructors validate).
///
/// The matrix also caches its *set-bit columns* ([`PointMatrix::set_bits`])
/// once something asks for them. They are derived from the entries, so
/// equality and `Debug` ignore them, and a clone carries them along.
#[derive(Clone)]
pub struct PointMatrix {
    data: Vec<f64>,
    rows: usize,
    dim: usize,
    /// Every coordinate's set-bit column, `words` words each, back to back
    /// in coordinate order (`words = ⌈rows/64⌉`).
    set_bits: OnceLock<Vec<u64>>,
}

impl PartialEq for PointMatrix {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.dim) == (other.rows, other.dim) && self.data == other.data
    }
}

impl std::fmt::Debug for PointMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PointMatrix")
            .field("data", &self.data)
            .field("rows", &self.rows)
            .field("dim", &self.dim)
            .finish()
    }
}

impl PointMatrix {
    fn new(data: Vec<f64>, rows: usize, dim: usize) -> Self {
        Self {
            data,
            rows,
            dim,
            set_bits: OnceLock::new(),
        }
    }

    /// Materialize every point of `universe`, in index order.
    pub fn from_universe<U: Universe + ?Sized>(universe: &U) -> Self {
        let (rows, dim) = (universe.size(), universe.point_dim());
        let mut data = vec![0.0; rows * dim];
        for (index, row) in data.chunks_exact_mut(dim).enumerate() {
            universe.write_point(index, row);
        }
        debug_assert!(
            data.iter().all(|v| v.is_finite()),
            "universe produced a non-finite point coordinate"
        );
        Self::new(data, rows, dim)
    }

    /// Build from explicit rows (test and workload construction); all rows
    /// must share one nonzero dimension and contain only finite values.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, DataError> {
        let first = rows.first().ok_or(DataError::EmptyUniverse)?;
        let dim = first.len();
        if dim == 0 {
            return Err(DataError::InvalidParameter(
                "points must have dimension >= 1",
            ));
        }
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in &rows {
            if row.len() != dim {
                return Err(DataError::DimensionMismatch {
                    got: row.len(),
                    expected: dim,
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(DataError::InvalidParameter("points must be finite"));
            }
            data.extend_from_slice(row);
        }
        Ok(Self::new(data, rows.len(), dim))
    }

    /// Build from an existing flat row-major buffer.
    pub fn from_flat(data: Vec<f64>, dim: usize) -> Result<Self, DataError> {
        if dim == 0 {
            return Err(DataError::InvalidParameter(
                "points must have dimension >= 1",
            ));
        }
        if data.is_empty() {
            return Err(DataError::EmptyUniverse);
        }
        if !data.len().is_multiple_of(dim) {
            return Err(DataError::DimensionMismatch {
                got: data.len(),
                expected: dim,
            });
        }
        if data.iter().any(|v| !v.is_finite()) {
            return Err(DataError::InvalidParameter("points must be finite"));
        }
        let rows = data.len() / dim;
        Ok(Self::new(data, rows, dim))
    }

    /// Number of points `|X|`.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the matrix holds no points (cannot happen for constructed
    /// values; kept for API symmetry with slices).
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Point dimension `p` (the row stride).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `index` as a slice view.
    ///
    /// # Panics
    /// Panics when `index >= len()`.
    pub fn row(&self, index: usize) -> &[f64] {
        &self.data[index * self.dim..(index + 1) * self.dim]
    }

    /// Iterate rows in index order (a linear scan of the backing buffer).
    pub fn iter(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.dim)
    }

    /// The flat row-major backing buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// The rows in `[start, end)` as one contiguous sub-matrix view
    /// (`(end - start) * dim` flat values) — the unit the parallel sweeps
    /// hand to each worker.
    ///
    /// # Panics
    /// Panics when `start > end` or `end > len()`.
    pub fn row_block(&self, start: usize, end: usize) -> &[f64] {
        &self.data[start * self.dim..end * self.dim]
    }

    /// Copy the rows out as a `Vec<Vec<f64>>` (compatibility/tests only —
    /// hot paths should stay on the flat layout).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.iter().map(<[f64]>::to_vec).collect()
    }

    /// Coordinate `coord`'s set-bit column: [`RowBits::words`]' layout over
    /// the rows, with row `r`'s bit set iff `row(r)[coord] ≥ 0.5`, the test
    /// a conjunction or parity applies to a coordinate. The first call
    /// builds every coordinate's column in one pass over the entries
    /// (`dim` × ⌈len/64⌉ words) and caches them; later calls, on any
    /// thread, read the cache. The entries are finite, so the test is
    /// exact and no value needs a check.
    ///
    /// # Panics
    /// Panics when `coord >= dim()`.
    pub fn set_bits(&self, coord: usize) -> &[u64] {
        assert!(coord < self.dim, "set-bit column of a coordinate past dim");
        let words = self.rows.div_ceil(64);
        let columns = self.set_bits.get_or_init(|| self.build_set_bits());
        &columns[coord * words..][..words]
    }

    /// Every column, 64 rows at a time: each row's tests are or-ed into one
    /// word per coordinate, then the words are stored column by column.
    fn build_set_bits(&self) -> Vec<u64> {
        let words = self.rows.div_ceil(64);
        let mut columns = vec![0; self.dim * words];
        let mut block = vec![0u64; self.dim];
        for (word, rows) in self.data.chunks(64 * self.dim).enumerate() {
            block.fill(0);
            for (bit, row) in rows.chunks_exact(self.dim).enumerate() {
                for (acc, &x) in block.iter_mut().zip(row) {
                    *acc |= u64::from(x >= 0.5) << bit;
                }
            }
            for (c, &acc) in block.iter().enumerate() {
                columns[c * words + word] = acc;
            }
        }
        columns
    }
}

/// A set of rows of a [`PointMatrix`] as a bitset: row `r` is bit `r % 64`
/// of word `r / 64`, and the bits past the last row are clear. What
/// [`crate::PointQuery::incidence`] returns: the rows at which a query
/// reads 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBits {
    words: Vec<u64>,
}

impl RowBits {
    /// Wrap `words` built over `rows` rows (`⌈rows/64⌉` words, tail clear).
    pub(crate) fn new(words: Vec<u64>, rows: usize) -> Self {
        debug_assert_eq!(words.len(), rows.div_ceil(64));
        debug_assert!(
            rows.is_multiple_of(64) || words.last().is_some_and(|w| w >> (rows % 64) == 0),
            "bits past the last row are clear"
        );
        Self { words }
    }

    /// The words, row 0 at bit 0 of word 0.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The rows in the set, in ascending order.
    pub fn rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    i * 64 + bit
                })
            })
        })
    }
}

impl std::ops::Index<usize> for PointMatrix {
    type Output = [f64];

    fn index(&self, index: usize) -> &[f64] {
        self.row(index)
    }
}

impl<'a> IntoIterator for &'a PointMatrix {
    type Item = &'a [f64];
    type IntoIter = std::slice::ChunksExact<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{BooleanCube, GridUniverse};

    #[test]
    fn from_universe_matches_write_point() {
        let g = GridUniverse::symmetric_unit(2, 4).unwrap();
        let m = PointMatrix::from_universe(&g);
        assert_eq!(m.len(), 16);
        assert_eq!(m.dim(), 2);
        for i in 0..m.len() {
            assert_eq!(m.row(i), g.point(i).as_slice());
        }
    }

    #[test]
    fn from_rows_validates() {
        assert!(PointMatrix::from_rows(vec![]).is_err());
        assert!(PointMatrix::from_rows(vec![vec![]]).is_err());
        assert!(PointMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(PointMatrix::from_rows(vec![vec![f64::NAN]]).is_err());
        let m = PointMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(&m[1], &[3.0, 4.0]);
    }

    #[test]
    fn from_flat_round_trips() {
        assert!(PointMatrix::from_flat(vec![], 2).is_err());
        assert!(PointMatrix::from_flat(vec![1.0; 5], 2).is_err());
        assert!(PointMatrix::from_flat(vec![1.0; 4], 0).is_err());
        let m = PointMatrix::from_flat(vec![0.0, 1.0, 2.0, 3.0], 2).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.row(1), &[2.0, 3.0]);
        assert_eq!(m.as_flat(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn iteration_is_row_order() {
        let cube = BooleanCube::new(3).unwrap();
        let m = PointMatrix::from_universe(&cube);
        let collected: Vec<Vec<f64>> = m.iter().map(<[f64]>::to_vec).collect();
        assert_eq!(collected, m.to_rows());
        assert_eq!(collected.len(), 8);
        assert_eq!(collected[5], cube.point(5));
        // IntoIterator for &PointMatrix supports `for row in &m`.
        let mut count = 0;
        for row in &m {
            assert_eq!(row.len(), 3);
            count += 1;
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn set_bits_are_the_half_test_entry_by_entry() {
        // Both sides of 0.5, signed zero, negatives and a huge value.
        let values = [
            0.5,
            0.5_f64.next_down(),
            -0.0,
            0.0,
            -0.5,
            -1e300,
            1e300,
            1.0,
            0.75,
            0.25,
        ];
        let dim = 3;
        for rows in [1, 63, 64, 65, 1000] {
            let flat: Vec<f64> = (0..rows * dim)
                .map(|i| values[(i * 7 + i / 5) % values.len()])
                .collect();
            let m = PointMatrix::from_flat(flat, dim).unwrap();
            let (plain, debug) = (m.clone(), format!("{m:?}"));
            for c in 0..dim {
                let column = m.set_bits(c);
                assert_eq!(column.len(), rows.div_ceil(64), "{rows} rows");
                for r in 0..rows {
                    let bit = column[r / 64] >> (r % 64) & 1 == 1;
                    assert_eq!(bit, m.row(r)[c] >= 0.5, "row {r} coordinate {c}");
                }
                if !rows.is_multiple_of(64) {
                    let tail = column[rows / 64] >> (rows % 64);
                    assert_eq!(tail, 0, "bits past row {rows}");
                }
            }
            // The cache is derived state: equality and `Debug` ignore it.
            assert_eq!(m, plain);
            assert_eq!(format!("{m:?}"), debug);
            assert!(!debug.contains("set_bits"));
        }
    }

    #[test]
    fn row_bits_list_their_rows_in_order() {
        let rows = [0, 5, 63, 64, 127, 128, 199];
        let mut words = vec![0u64; 4];
        for r in rows {
            words[r / 64] |= 1 << (r % 64);
        }
        let set = RowBits::new(words, 200);
        assert_eq!(set.rows().collect::<Vec<_>>(), rows);
        assert_eq!(RowBits::new(vec![0; 2], 100).rows().count(), 0);
    }

    #[test]
    fn row_blocks_partition_the_buffer() {
        let cube = BooleanCube::new(4).unwrap();
        let m = PointMatrix::from_universe(&cube);
        let block = m.row_block(4, 8);
        assert_eq!(block.len(), 4 * m.dim());
        assert_eq!(&block[..m.dim()], m.row(4));
    }
}
