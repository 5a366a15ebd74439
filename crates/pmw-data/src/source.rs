//! Point sources: indexed access to universe points **without**
//! materialization.
//!
//! The dense path walks a [`PointMatrix`] — `|X| × p` floats resident in
//! memory, which is exactly the wall the sublinear code paths exist to
//! avoid. [`PointSource`] is the narrower contract they need: the universe
//! size, the point dimension, and *on-demand* evaluation of one point.
//! A materialized [`PointMatrix`] is a `PointSource` (row copy), any
//! [`Universe`] can be adapted via [`UniversePoints`], and [`BigBitCube`]
//! provides boolean cubes past the materialization guard
//! ([`crate::universe::MAX_UNIVERSE_SIZE`]) — sizes like `2^26` that no
//! dense structure should ever be asked to hold.
//!
//! This seam lives in `pmw-data` (not the sketching crate) because *both*
//! sides of the mechanism consume it: the `pmw-sketch` state backends pull
//! pool points through it, and the mechanisms' row-based data path
//! materializes only a dataset's support rows through it (see
//! [`crate::Dataset::support_points_indexed`]).

use crate::error::DataError;
use crate::matrix::PointMatrix;
use crate::universe::Universe;

/// On-demand indexed access to the points of a finite universe.
pub trait PointSource {
    /// Number of points `|X|`.
    fn len(&self) -> usize;

    /// True when the source has no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point dimension `p`.
    fn dim(&self) -> usize;

    /// Write point `index` into `out` (length [`PointSource::dim`]).
    fn write_point(&self, index: usize, out: &mut [f64]);
}

impl PointSource for PointMatrix {
    fn len(&self) -> usize {
        PointMatrix::len(self)
    }

    fn dim(&self) -> usize {
        PointMatrix::dim(self)
    }

    fn write_point(&self, index: usize, out: &mut [f64]) {
        out.copy_from_slice(self.row(index));
    }
}

/// Adapter making any [`Universe`] a [`PointSource`] (no materialization —
/// points are evaluated through [`Universe::write_point`] per lookup).
#[derive(Debug, Clone)]
pub struct UniversePoints<U: Universe>(pub U);

impl<U: Universe> PointSource for UniversePoints<U> {
    fn len(&self) -> usize {
        self.0.size()
    }

    fn dim(&self) -> usize {
        self.0.point_dim()
    }

    fn write_point(&self, index: usize, out: &mut [f64]) {
        self.0.write_point(index, out);
    }
}

/// The boolean cube `{0,1}^d` as a pure point *source*, with no
/// materialization ceiling: [`crate::BooleanCube`] refuses dimensions
/// whose dense representation would be a configuration mistake, but a
/// point source never materializes, so cubes up to `d = 32` (4×10⁹
/// points) are fair game here.
#[derive(Debug, Clone, Copy)]
pub struct BigBitCube {
    dim: usize,
}

impl BigBitCube {
    /// Cube `{0,1}^dim` with `1 ≤ dim ≤ 32`.
    pub fn new(dim: usize) -> Result<Self, DataError> {
        if dim == 0 {
            return Err(DataError::EmptyUniverse);
        }
        if dim > 32 {
            return Err(DataError::InvalidParameter(
                "BigBitCube supports at most 32 bits",
            ));
        }
        Ok(Self { dim })
    }

    /// Number of bits `d`.
    pub fn bits(&self) -> usize {
        self.dim
    }
}

impl PointSource for BigBitCube {
    fn len(&self) -> usize {
        1usize << self.dim
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn write_point(&self, index: usize, out: &mut [f64]) {
        for (b, slot) in out.iter_mut().enumerate() {
            *slot = ((index >> b) & 1) as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::BooleanCube;

    #[test]
    fn matrix_and_universe_adapters_agree() {
        let cube = BooleanCube::new(4).unwrap();
        let matrix = cube.materialize();
        let adapted = UniversePoints(cube.clone());
        assert_eq!(PointSource::len(&matrix), adapted.len());
        assert_eq!(PointSource::dim(&matrix), adapted.dim());
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 4];
        for i in 0..adapted.len() {
            PointSource::write_point(&matrix, i, &mut a);
            adapted.write_point(i, &mut b);
            assert_eq!(a, b, "index {i}");
        }
        assert!(!adapted.is_empty());
    }

    #[test]
    fn big_bit_cube_matches_boolean_cube_where_both_exist() {
        let small = BooleanCube::new(6).unwrap();
        let big = BigBitCube::new(6).unwrap();
        assert_eq!(big.len(), small.size());
        assert_eq!(big.bits(), 6);
        let mut a = vec![0.0; 6];
        for i in [0usize, 1, 37, 63] {
            big.write_point(i, &mut a);
            assert_eq!(a, small.point(i), "index {i}");
        }
    }

    #[test]
    fn big_bit_cube_reaches_past_the_materialization_guard() {
        // 2^26 exceeds MAX_UNIVERSE_SIZE (the dense guard) but is a valid
        // point source; individual points still evaluate.
        assert!(BooleanCube::new(26).is_err());
        let big = BigBitCube::new(26).unwrap();
        assert_eq!(big.len(), 1 << 26);
        let mut p = vec![0.0; 26];
        big.write_point((1 << 26) - 1, &mut p);
        assert!(p.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn big_bit_cube_validates() {
        assert!(BigBitCube::new(0).is_err());
        assert!(BigBitCube::new(33).is_err());
    }
}
