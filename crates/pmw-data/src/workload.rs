//! Linear-query workloads: the dense representation, the **implicit**
//! ([`PointQuery`]) representation, and generators for both.
//!
//! Linear queries are both (a) the special case PMW was originally designed
//! for (Table 1 row 1, \[HR10\]) and (b) the raw material of the reconstruction
//! attacks of \[KRS13\] that motivate the paper's dual-certificate technique.
//! A linear query is classically represented densely as a vector
//! `q ∈ R^{|X|}` with `q(D) = ⟨q, D⟩` on histograms (Section 1.2) — a
//! Θ(|X|) object, which is exactly the wall the sublinear code paths tear
//! down. The [`PointQuery`] trait is the implicit alternative: a query is
//! anything that can be **evaluated at one universe element** — by index
//! (the dense [`LinearQuery`]) or from the element's point coordinates in
//! `O(d)` (the predicate-backed [`ImplicitQuery`]: k-way marginals,
//! parities, coordinate thresholds — the families of the paper's
//! Section 4.3 and of *Faster Private Release of Marginals on Small
//! Databases* — plus halfspaces and bounded linear statistics, all one
//! [`PointPredicate`]). Implicit evaluation composes with
//! [`Dataset::support`](crate::Dataset::support) on the data side (sum
//! `q` over ≤ n support rows) and with pooled/sketched state on the
//! hypothesis side, so neither side ever materializes `q` or `X`.

use crate::error::DataError;
use crate::histogram::Histogram;
use crate::matrix::{PointMatrix, RowBits};
use crate::universe::{BooleanCube, GridUniverse, Universe};
use rand::{Rng, RngExt};
use std::sync::Arc;

/// A linear (statistical) query over a finite universe, `q: X → [lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearQuery {
    values: Vec<f64>,
}

impl LinearQuery {
    /// Build from per-element values.
    pub fn new(values: Vec<f64>) -> Result<Self, DataError> {
        if values.is_empty() {
            return Err(DataError::EmptyUniverse);
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(DataError::InvalidWeights("query values must be finite"));
        }
        Ok(Self { values })
    }

    /// Per-element values `q(x)`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Universe size this query is defined over.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when defined over an empty universe (cannot be constructed).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// `q(D) = ⟨q, D⟩` on a histogram.
    pub fn evaluate(&self, h: &Histogram) -> f64 {
        h.dot(&self.values)
    }

    /// Query range `(min, max)` over universe elements; the sensitivity of
    /// `q(D)` on `n`-row datasets is `(max − min)/n`.
    pub fn range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }
}

/// `k` random counting queries: each element included with probability 1/2,
/// i.e. `q(x) ∈ {0, 1}` uniformly. The canonical "hard" workload for private
/// query release.
pub fn random_counting_queries<R: Rng + ?Sized>(
    universe_size: usize,
    k: usize,
    rng: &mut R,
) -> Result<Vec<LinearQuery>, DataError> {
    if universe_size == 0 {
        return Err(DataError::EmptyUniverse);
    }
    (0..k)
        .map(|_| {
            LinearQuery::new(
                (0..universe_size)
                    .map(|_| if rng.random::<bool>() { 1.0 } else { 0.0 })
                    .collect(),
            )
        })
        .collect()
}

/// `k` random signed queries `q(x) ∈ {−1, +1}` — the query family used by
/// linear reconstruction attacks \[KRS13\].
pub fn random_signed_queries<R: Rng + ?Sized>(
    universe_size: usize,
    k: usize,
    rng: &mut R,
) -> Result<Vec<LinearQuery>, DataError> {
    if universe_size == 0 {
        return Err(DataError::EmptyUniverse);
    }
    (0..k)
        .map(|_| {
            LinearQuery::new(
                (0..universe_size)
                    .map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 })
                    .collect(),
            )
        })
        .collect()
}

/// All width-`w` monotone conjunction (marginal) queries over a boolean cube:
/// "what fraction of rows have bits `b_1,…,b_w` all set?"
///
/// These are the `marginal queries` of the paper's Section 4.3 discussion of
/// families that admit faster algorithms.
pub fn marginal_queries(cube: &BooleanCube, width: usize) -> Result<Vec<LinearQuery>, DataError> {
    let d = cube.dim();
    if width == 0 || width > d {
        return Err(DataError::InvalidParameter(
            "marginal width must satisfy 1 <= width <= dim",
        ));
    }
    let mut queries = Vec::new();
    let mut subset = Vec::with_capacity(width);
    build_subsets(d, width, 0, &mut subset, &mut |bits: &[usize]| {
        let values = (0..cube.size())
            .map(|x| {
                if bits.iter().all(|&b| cube.bit(x, b)) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        queries.push(LinearQuery::new(values).expect("nonempty universe"));
    });
    Ok(queries)
}

fn build_subsets(
    d: usize,
    width: usize,
    start: usize,
    current: &mut Vec<usize>,
    emit: &mut impl FnMut(&[usize]),
) {
    if current.len() == width {
        emit(current);
        return;
    }
    for b in start..d {
        current.push(b);
        build_subsets(d, width, b + 1, current, emit);
        current.pop();
    }
}

/// All prefix (threshold) queries over a 1-dimensional grid:
/// `q_c(x) = 1[x ≤ axis_value(c)]` — the `interval queries` family of
/// \[BNS13\] referenced in Section 4.3.
pub fn threshold_queries(grid: &GridUniverse) -> Result<Vec<LinearQuery>, DataError> {
    if grid.point_dim() != 1 {
        return Err(DataError::InvalidParameter(
            "threshold queries require a 1-dimensional grid",
        ));
    }
    let m = grid.size();
    Ok((0..m)
        .map(|c| {
            let thr = grid.axis_value(c);
            LinearQuery::new(
                (0..m)
                    .map(|x| {
                        if grid.axis_value(x) <= thr + 1e-12 {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect(),
            )
            .expect("nonempty universe")
        })
        .collect())
}

/// A linear query evaluable **one universe element at a time** — the seam
/// both the row-based data path and the sketched hypothesis backends
/// consume.
///
/// A query supports at least one of two evaluation routes:
///
/// * **index route** ([`PointQuery::value_at_index`]): `q(x)` looked up by
///   universe index — the dense [`LinearQuery`], which stores a `|X|`-sized
///   value vector ([`PointQuery::universe_len`] is `Some`);
/// * **point route** ([`PointQuery::value_at_point`]): `q(x)` computed from
///   the element's point coordinates alone in `O(d)`
///   ([`PointQuery::point_dim`] is `Some`) — the implicit queries, the only
///   kind that scales past materializable universes, and the only kind the
///   retaining (update-log) backends accept: a recorded update must be
///   re-evaluable at points the query has never seen.
///
/// [`query_value`] dispatches between the two given an `(index, point)`
/// pair, preferring the index route (exact dense semantics) when available.
///
/// Sweeps evaluate a whole block of rows in one call,
/// [`PointQuery::values_at_rows`]: one dispatch per block instead of two
/// per row. Its default loops over the per-row routes; [`ImplicitQuery`]
/// overrides it with row loops of its own that return the same bits.
/// A query whose values are 0 or 1 by a test of `x_c ≥ ½` can also return
/// the rows where it reads 1 as a bitset, [`PointQuery::incidence`].
pub trait PointQuery: Send + Sync {
    /// Bounds `(lo, hi)` on `q(x)` over the universe; the sensitivity of
    /// `q(D)` on `n`-row datasets is `(hi − lo)/n` and sketched estimates
    /// use `max(|lo|, |hi|)` as the payoff scale.
    fn value_bounds(&self) -> (f64, f64);

    /// `q(x)` by universe index, when this query is universe-indexed.
    fn value_at_index(&self, index: usize) -> Option<f64>;

    /// `q(x)` from point coordinates alone in `O(d)`, when this query is
    /// implicit.
    fn value_at_point(&self, point: &[f64]) -> Option<f64>;

    /// The universe size the index route is defined over (`None` for
    /// implicit queries).
    fn universe_len(&self) -> Option<usize> {
        None
    }

    /// The point dimension the point route reads (`None` for
    /// universe-indexed queries).
    fn point_dim(&self) -> Option<usize> {
        None
    }

    /// The dense per-element value vector, when this query stores one —
    /// lets dense histogram state answer `⟨q, D̂⟩` with the exact
    /// [`Histogram::dot`] fast path, bit-for-bit the classic pipeline.
    fn dense_values(&self) -> Option<&[f64]> {
        None
    }

    /// An owned handle for state backends that **retain** query updates
    /// (sketch update logs re-evaluate `u_t = ±q_t` at future points).
    /// `None` when the query cannot be retained.
    fn clone_shared(&self) -> Option<Arc<dyn PointQuery>> {
        None
    }

    /// Short diagnostic name.
    fn name(&self) -> &'static str {
        "point-query"
    }

    /// `q` at every row of a block, in row order: `out[r]` gets row `r`,
    /// the `dim` coordinates at `points[r·dim..(r + 1)·dim]`, whose
    /// universe index is `indices[r]` when `indices` is given.
    ///
    /// Each row gets exactly the bits of the per-row call it stands for:
    ///
    /// * with `indices`, [`query_value`]'s route: the index first, then the
    ///   point ([`query_values`] is this route with `query_value`'s error);
    /// * without, [`PointQuery::value_at_point`] alone.
    ///
    /// `Err(r)` names the first row that route cannot evaluate, the row at
    /// which the per-row loop would stop; `out[..r]` then holds the rows
    /// before it, and the rest of `out` is unspecified. The default is that
    /// per-row loop, so an override may only be faster, never different.
    ///
    /// # Panics
    ///
    /// When `dim` is 0, when `points` is not `out.len()` rows of `dim`
    /// coordinates, or when `indices` is not `out.len()` long.
    fn values_at_rows(
        &self,
        indices: Option<&[usize]>,
        points: &[f64],
        dim: usize,
        out: &mut [f64],
    ) -> Result<(), usize> {
        check_block(indices, points, dim, out.len());
        for (r, (value, point)) in out.iter_mut().zip(points.chunks_exact(dim)).enumerate() {
            let v = match indices {
                Some(indices) => self
                    .value_at_index(indices[r])
                    .or_else(|| self.value_at_point(point)),
                None => self.value_at_point(point),
            };
            *value = v.ok_or(r)?;
        }
        Ok(())
    }

    /// The rows of `points` at which `q` reads 1, as a bitset, when the
    /// query has a bit form; `None`, the default, when it has none.
    ///
    /// Callers that sum over a query's non-zero rows try this before
    /// [`PointQuery::values_at_rows`]. Its contract is the same: an
    /// override may only be faster, never different. Its set rows are
    /// exactly those at which `values_at_rows` over `points` writes a
    /// non-zero value, by either route, and every such value is 1.0, so a
    /// sum that skips the other rows skips only terms of `±0`.
    /// [`ImplicitQuery`] overrides it for conjunctions and parities.
    fn incidence(&self, _points: &PointMatrix) -> Option<RowBits> {
        None
    }
}

/// The shape [`PointQuery::values_at_rows`] requires of a block of `rows`
/// rows.
fn check_block(indices: Option<&[usize]>, points: &[f64], dim: usize, rows: usize) {
    assert!(
        dim > 0 && points.len() == rows * dim,
        "a block holds out.len() rows of dim >= 1 coordinates"
    );
    assert!(
        indices.is_none_or(|indices| indices.len() == rows),
        "a block has one universe index per row"
    );
}

/// What [`query_value`] and [`query_values`] return for an element the
/// query evaluates by neither route.
const UNEVALUABLE: DataError = DataError::InvalidParameter(
    "query supports neither index nor point evaluation at this element",
);

/// Evaluate `query` at universe element `index` with coordinates `point`,
/// preferring the exact index route. Errors when the query supports
/// neither route (an impossible [`PointQuery`] implementation).
pub fn query_value(query: &dyn PointQuery, index: usize, point: &[f64]) -> Result<f64, DataError> {
    query
        .value_at_index(index)
        .or_else(|| query.value_at_point(point))
        .ok_or(UNEVALUABLE)
}

/// [`query_value`] at every row of a block (the rows at universe `indices`,
/// `dim` coordinates each, back to back in `points`) into `out`, through
/// one [`PointQuery::values_at_rows`] call. Errors as `query_value` does
/// at the first row it would fail on.
pub fn query_values(
    query: &dyn PointQuery,
    indices: &[usize],
    points: &[f64],
    dim: usize,
    out: &mut [f64],
) -> Result<(), DataError> {
    query
        .values_at_rows(Some(indices), points, dim, out)
        .map_err(|_| UNEVALUABLE)
}

impl PointQuery for LinearQuery {
    fn value_bounds(&self) -> (f64, f64) {
        self.range()
    }

    fn value_at_index(&self, index: usize) -> Option<f64> {
        self.values.get(index).copied()
    }

    fn value_at_point(&self, _point: &[f64]) -> Option<f64> {
        None
    }

    fn universe_len(&self) -> Option<usize> {
        Some(self.values.len())
    }

    fn dense_values(&self) -> Option<&[f64]> {
        Some(&self.values)
    }

    fn clone_shared(&self) -> Option<Arc<dyn PointQuery>> {
        Some(Arc::new(self.clone()))
    }

    fn name(&self) -> &'static str {
        "dense-linear"
    }
}

/// The workspace's one predicate type: the families behind
/// [`ImplicitQuery`], each evaluable on a point row in `O(d)` (or
/// `O(width)` for the subset families). The CM encoding of a linear query
/// (`LinearQueryLoss` in pmw-losses) wraps the same [`ImplicitQuery`].
///
/// A row narrower than the query's dimension (a *short* row) lacks some
/// coordinates. A lacking coordinate reads as 0.0, except under an
/// at-most threshold, where it reads as +∞ (so the row fails the
/// threshold); halfspace and linear dot products run over the
/// coordinates the row has.
#[derive(Debug, Clone, PartialEq)]
pub enum PointPredicate {
    /// `q(x) = Π_{c∈coords} 1[x_c ≥ 0.5]` — a k-way monotone conjunction
    /// (marginal) over `{0,1}`-valued coordinates.
    Conjunction {
        /// Coordinates that must all be set.
        coords: Vec<usize>,
    },
    /// `q(x) = ⊕_{c∈coords} 1[x_c ≥ 0.5]` — the parity of the selected
    /// bits, the classic hard family for linear reconstruction.
    Parity {
        /// Coordinates entering the parity.
        coords: Vec<usize>,
    },
    /// `q(x) = 1[x_coord ≥ threshold]` when `at_least`, otherwise
    /// `1[x_coord ≤ threshold]` — a prefix (interval) query along one axis,
    /// the \[BNS13\] threshold family.
    Threshold {
        /// Coordinate index.
        coord: usize,
        /// Inclusive threshold.
        threshold: f64,
        /// Which side of the threshold satisfies the query.
        at_least: bool,
    },
    /// `q(x) = 1[⟨normal, x⟩ ≥ offset]` — halfspace membership.
    Halfspace {
        /// Normal vector (length = point dimension).
        normal: Vec<f64>,
        /// Offset.
        offset: f64,
    },
    /// `q(x) = clamp(⟨weights, x⟩ + offset, 0, 1)` — a bounded linear
    /// statistic.
    Linear {
        /// Weights (length = point dimension).
        weights: Vec<f64>,
        /// Offset.
        offset: f64,
    },
}

/// An **implicit** linear query: a [`PointPredicate`] plus the point
/// dimension it reads. Never stores (or touches) anything `|X|`-sized —
/// the representation the sublinear MWEM/PMW paths run on.
#[derive(Debug, Clone, PartialEq)]
pub struct ImplicitQuery {
    predicate: PointPredicate,
    dim: usize,
}

impl ImplicitQuery {
    /// Wrap a predicate over `dim`-dimensional points. Refuses a zero
    /// `dim`, an empty coordinate subset, a coordinate `≥ dim`, a normal or
    /// weight vector not `dim` long, and a non-finite threshold, normal,
    /// weight or offset.
    pub fn new(predicate: PointPredicate, dim: usize) -> Result<Self, DataError> {
        if dim == 0 {
            return Err(DataError::EmptyUniverse);
        }
        match &predicate {
            PointPredicate::Conjunction { coords } | PointPredicate::Parity { coords } => {
                if coords.is_empty() {
                    return Err(DataError::InvalidParameter(
                        "predicate needs at least one coordinate",
                    ));
                }
                if coords.iter().any(|&c| c >= dim) {
                    return Err(DataError::InvalidParameter(
                        "predicate coordinate out of range",
                    ));
                }
            }
            PointPredicate::Threshold {
                coord, threshold, ..
            } => {
                if *coord >= dim {
                    return Err(DataError::InvalidParameter(
                        "threshold coordinate out of range",
                    ));
                }
                if !threshold.is_finite() {
                    return Err(DataError::InvalidWeights("threshold must be finite"));
                }
            }
            PointPredicate::Halfspace {
                normal: coefficients,
                offset,
            }
            | PointPredicate::Linear {
                weights: coefficients,
                offset,
            } => {
                if coefficients.len() != dim {
                    return Err(DataError::DimensionMismatch {
                        got: coefficients.len(),
                        expected: dim,
                    });
                }
                if !offset.is_finite() || coefficients.iter().any(|v| !v.is_finite()) {
                    return Err(DataError::InvalidWeights(
                        "coefficients and offset must be finite",
                    ));
                }
            }
        }
        Ok(Self { predicate, dim })
    }

    /// A width-`coords.len()` marginal query.
    pub fn marginal(coords: Vec<usize>, dim: usize) -> Result<Self, DataError> {
        Self::new(PointPredicate::Conjunction { coords }, dim)
    }

    /// A parity query over the given coordinates.
    pub fn parity(coords: Vec<usize>, dim: usize) -> Result<Self, DataError> {
        Self::new(PointPredicate::Parity { coords }, dim)
    }

    /// A threshold query `1[x_coord ≤ threshold]`.
    pub fn threshold(coord: usize, threshold: f64, dim: usize) -> Result<Self, DataError> {
        Self::new(
            PointPredicate::Threshold {
                coord,
                threshold,
                at_least: false,
            },
            dim,
        )
    }

    /// The wrapped predicate.
    pub fn predicate(&self) -> &PointPredicate {
        &self.predicate
    }

    /// The point dimension this query reads.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Evaluate `q(x) ∈ [0, 1]` on one point row (NaN when a linear
    /// statistic's dot product is NaN).
    pub fn evaluate(&self, point: &[f64]) -> f64 {
        // Full-width rows: coordinates were validated `< dim` at
        // construction, so one length check replaces the per-coordinate
        // `get` fallbacks, and the branchless accumulators let the
        // reductions unroll. Short rows take the defaults
        // [`PointPredicate`] states.
        let full = point.len() >= self.dim;
        let read = |c: usize, lacking: f64| point.get(c).copied().unwrap_or(lacking);
        match &self.predicate {
            PointPredicate::Conjunction { coords } if full => all_set(coords, point),
            PointPredicate::Parity { coords } if full => parity_of(coords, point),
            PointPredicate::Conjunction { coords } => {
                f64::from(coords.iter().all(|&c| read(c, 0.0) >= 0.5))
            }
            PointPredicate::Parity { coords } => {
                let ones = coords.iter().filter(|&&c| read(c, 0.0) >= 0.5).count();
                (ones % 2) as f64
            }
            &PointPredicate::Threshold {
                coord,
                threshold,
                at_least,
            } => {
                let lacking = if at_least { 0.0 } else { f64::INFINITY };
                passes(read(coord, lacking), threshold, at_least)
            }
            PointPredicate::Halfspace { normal, offset } => halfspace(normal, *offset, point),
            PointPredicate::Linear { weights, offset } => bounded(weights, *offset, point),
        }
    }
}

/// A marginal on a full-width row: 1 when every `coords` bit is set.
#[inline(always)]
fn all_set(coords: &[usize], point: &[f64]) -> f64 {
    let mut hit = true;
    for &c in coords {
        hit &= point[c] >= 0.5;
    }
    f64::from(hit)
}

/// A parity on a full-width row.
#[inline(always)]
fn parity_of(coords: &[usize], point: &[f64]) -> f64 {
    let mut ones = 0usize;
    for &c in coords {
        ones += usize::from(point[c] >= 0.5);
    }
    (ones % 2) as f64
}

/// A threshold on the coordinate value `x`.
#[inline(always)]
fn passes(x: f64, threshold: f64, at_least: bool) -> f64 {
    f64::from(if at_least {
        x >= threshold
    } else {
        x <= threshold
    })
}

/// Halfspace membership of a row.
#[inline(always)]
fn halfspace(normal: &[f64], offset: f64, point: &[f64]) -> f64 {
    f64::from(dot(normal, point) >= offset)
}

/// A bounded linear statistic of a row.
#[inline(always)]
fn bounded(weights: &[f64], offset: f64, point: &[f64]) -> f64 {
    (dot(weights, point) + offset).clamp(0.0, 1.0)
}

/// `Σ a_i·x_i` over the coordinates both slices have, summed in coordinate
/// order from −0.0: the bits of `pmw_convex::vecmath::dot`.
#[inline(always)]
fn dot(a: &[f64], x: &[f64]) -> f64 {
    a.iter().zip(x).map(|(a, x)| a * x).sum()
}

/// `value` at every `dim`-wide row of `points`, in row order, into `out`.
#[inline(always)]
fn fill(points: &[f64], dim: usize, out: &mut [f64], value: impl Fn(&[f64]) -> f64) {
    for (point, v) in points.chunks_exact(dim).zip(out) {
        *v = value(point);
    }
}

impl PointQuery for ImplicitQuery {
    /// Matches the predicate once and runs one row loop per kind, each row
    /// computed as [`ImplicitQuery::evaluate`] computes it. Every row of a
    /// block has the same width, so the full-width test is made once too.
    /// The index route never answers an implicit query, so both routes
    /// read the point and no row fails. Against the default, which matches
    /// the predicate at every row, perfbench's mwem-marginals read a 12%
    /// lower release p50 (7.3 against 8.3 ms, 2-core VM).
    fn values_at_rows(
        &self,
        indices: Option<&[usize]>,
        points: &[f64],
        dim: usize,
        out: &mut [f64],
    ) -> Result<(), usize> {
        check_block(indices, points, dim, out.len());
        if dim < self.dim {
            fill(points, dim, out, |point| self.evaluate(point));
            return Ok(());
        }
        match &self.predicate {
            PointPredicate::Conjunction { coords } => {
                fill(points, dim, out, |point| all_set(coords, point));
            }
            PointPredicate::Parity { coords } => {
                fill(points, dim, out, |point| parity_of(coords, point));
            }
            &PointPredicate::Threshold {
                coord,
                threshold,
                at_least,
            } => fill(points, dim, out, |point| {
                passes(point[coord], threshold, at_least)
            }),
            PointPredicate::Halfspace { normal, offset } => {
                fill(points, dim, out, |point| halfspace(normal, *offset, point));
            }
            PointPredicate::Linear { weights, offset } => {
                fill(points, dim, out, |point| bounded(weights, *offset, point));
            }
        }
        Ok(())
    }

    /// A conjunction's incidence is the AND of its coordinates' set-bit
    /// columns ([`PointMatrix::set_bits`]), which the matrix builds on the
    /// first request and caches, and a parity's is their XOR. A coordinate
    /// that short rows lack reads as unset, as [`PointPredicate`] states.
    /// The other predicates have no bit form.
    fn incidence(&self, points: &PointMatrix) -> Option<RowBits> {
        let (coords, parity) = match &self.predicate {
            PointPredicate::Conjunction { coords } => (coords, false),
            PointPredicate::Parity { coords } => (coords, true),
            _ => return None,
        };
        // `coords` is never empty, so a conjunction's all-ones start is
        // always cut down to the rows.
        let mut bits = vec![if parity { 0 } else { u64::MAX }; points.len().div_ceil(64)];
        for &c in coords {
            if c >= points.dim() {
                if !parity {
                    bits.fill(0);
                }
                continue;
            }
            for (bits, &column) in bits.iter_mut().zip(points.set_bits(c)) {
                if parity {
                    *bits ^= column;
                } else {
                    *bits &= column;
                }
            }
        }
        Some(RowBits::new(bits, points.len()))
    }

    fn value_bounds(&self) -> (f64, f64) {
        (0.0, 1.0)
    }

    fn value_at_index(&self, _index: usize) -> Option<f64> {
        None
    }

    fn value_at_point(&self, point: &[f64]) -> Option<f64> {
        Some(self.evaluate(point))
    }

    fn point_dim(&self) -> Option<usize> {
        Some(self.dim)
    }

    fn clone_shared(&self) -> Option<Arc<dyn PointQuery>> {
        Some(Arc::new(self.clone()))
    }

    fn name(&self) -> &'static str {
        match self.predicate {
            PointPredicate::Conjunction { .. } => "marginal",
            PointPredicate::Parity { .. } => "parity",
            PointPredicate::Threshold { .. } => "threshold",
            PointPredicate::Halfspace { .. } => "halfspace",
            PointPredicate::Linear { .. } => "linear",
        }
    }
}

/// All width-`width` marginal queries over `{0,1}^dim` as **implicit**
/// queries — `C(dim, width)` objects of size `O(width)` each, never a
/// `|X|`-sized vector (contrast [`marginal_queries`], which materializes).
pub fn implicit_marginal_queries(
    dim: usize,
    width: usize,
) -> Result<Vec<ImplicitQuery>, DataError> {
    if dim == 0 {
        return Err(DataError::EmptyUniverse);
    }
    if width == 0 || width > dim {
        return Err(DataError::InvalidParameter(
            "marginal width must satisfy 1 <= width <= dim",
        ));
    }
    let mut queries = Vec::new();
    let mut subset = Vec::with_capacity(width);
    build_subsets(dim, width, 0, &mut subset, &mut |bits: &[usize]| {
        queries.push(ImplicitQuery {
            predicate: PointPredicate::Conjunction {
                coords: bits.to_vec(),
            },
            dim,
        });
    });
    Ok(queries)
}

/// `k` random width-`width` implicit marginal queries (distinct coordinate
/// subsets are not enforced; each query draws its subset uniformly).
pub fn random_implicit_marginals<R: Rng + ?Sized>(
    dim: usize,
    width: usize,
    k: usize,
    rng: &mut R,
) -> Result<Vec<ImplicitQuery>, DataError> {
    random_implicit_subsets(dim, width, k, rng, |coords, dim| ImplicitQuery {
        predicate: PointPredicate::Conjunction { coords },
        dim,
    })
}

/// `k` random width-`width` implicit parity queries.
pub fn random_implicit_parities<R: Rng + ?Sized>(
    dim: usize,
    width: usize,
    k: usize,
    rng: &mut R,
) -> Result<Vec<ImplicitQuery>, DataError> {
    random_implicit_subsets(dim, width, k, rng, |coords, dim| ImplicitQuery {
        predicate: PointPredicate::Parity { coords },
        dim,
    })
}

fn random_implicit_subsets<R: Rng + ?Sized>(
    dim: usize,
    width: usize,
    k: usize,
    rng: &mut R,
    make: impl Fn(Vec<usize>, usize) -> ImplicitQuery,
) -> Result<Vec<ImplicitQuery>, DataError> {
    if dim == 0 {
        return Err(DataError::EmptyUniverse);
    }
    if width == 0 || width > dim {
        return Err(DataError::InvalidParameter(
            "subset width must satisfy 1 <= width <= dim",
        ));
    }
    Ok((0..k)
        .map(|_| {
            // Uniform width-subset via partial Fisher-Yates over 0..dim.
            let mut pool: Vec<usize> = (0..dim).collect();
            let mut coords = Vec::with_capacity(width);
            for i in 0..width {
                let j = rng.random_range(i..dim);
                pool.swap(i, j);
                coords.push(pool[i]);
            }
            coords.sort_unstable();
            make(coords, dim)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_query_evaluates_as_inner_product() {
        let q = LinearQuery::new(vec![1.0, 0.0, 1.0]).unwrap();
        let h = Histogram::from_counts(&[1, 1, 2]).unwrap();
        assert!((q.evaluate(&h) - 0.75).abs() < 1e-12);
        assert_eq!(q.range(), (0.0, 1.0));
    }

    #[test]
    fn query_constructor_validates() {
        assert!(LinearQuery::new(vec![]).is_err());
        assert!(LinearQuery::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn random_counting_queries_are_boolean() {
        let mut rng = StdRng::seed_from_u64(3);
        let qs = random_counting_queries(32, 10, &mut rng).unwrap();
        assert_eq!(qs.len(), 10);
        for q in &qs {
            assert!(q.values().iter().all(|&v| v == 0.0 || v == 1.0));
        }
        // Not all identical (astronomically unlikely).
        assert!(qs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn random_signed_queries_are_pm_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let qs = random_signed_queries(16, 5, &mut rng).unwrap();
        for q in &qs {
            assert!(q.values().iter().all(|&v| v == 1.0 || v == -1.0));
        }
    }

    #[test]
    fn marginals_count_matches_binomial() {
        let cube = BooleanCube::new(4).unwrap();
        let qs = marginal_queries(&cube, 2).unwrap();
        assert_eq!(qs.len(), 6); // C(4,2)
                                 // The all-ones row satisfies every marginal.
        for q in &qs {
            assert_eq!(q.values()[15], 1.0);
            assert_eq!(q.values()[0], 0.0);
        }
        assert!(marginal_queries(&cube, 0).is_err());
        assert!(marginal_queries(&cube, 5).is_err());
    }

    #[test]
    fn marginal_value_is_fraction_satisfying() {
        let cube = BooleanCube::new(2).unwrap();
        let qs = marginal_queries(&cube, 1).unwrap();
        // Dataset: rows 0b01, 0b01, 0b10, 0b11.
        let d = crate::dataset::Dataset::from_indices(4, vec![1, 1, 2, 3]).unwrap();
        let h = d.histogram();
        // Bit 0 set in rows 1,1,3 -> 3/4. Bit 1 set in rows 2,3 -> 2/4.
        assert!((qs[0].evaluate(&h) - 0.75).abs() < 1e-12);
        assert!((qs[1].evaluate(&h) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn implicit_marginal_matches_dense_marginal() {
        let cube = BooleanCube::new(4).unwrap();
        let dense = marginal_queries(&cube, 2).unwrap();
        let implicit = implicit_marginal_queries(4, 2).unwrap();
        assert_eq!(dense.len(), implicit.len());
        let mut point = vec![0.0; 4];
        for (d, q) in dense.iter().zip(&implicit) {
            for x in 0..cube.size() {
                cube.write_point(x, &mut point);
                assert_eq!(d.values()[x], q.evaluate(&point), "x={x}");
                // The PointQuery routes agree with the direct evaluations.
                assert_eq!(PointQuery::value_at_index(d, x), Some(d.values()[x]));
                assert_eq!(q.value_at_point(&point), Some(q.evaluate(&point)));
                assert_eq!(query_value(q, x, &point).unwrap(), q.evaluate(&point));
                assert_eq!(query_value(d, x, &point).unwrap(), d.values()[x]);
            }
        }
    }

    #[test]
    fn parity_and_threshold_predicates_evaluate() {
        let parity = ImplicitQuery::parity(vec![0, 2], 3).unwrap();
        assert_eq!(parity.evaluate(&[1.0, 0.0, 0.0]), 1.0);
        assert_eq!(parity.evaluate(&[1.0, 1.0, 1.0]), 0.0);
        assert_eq!(parity.evaluate(&[0.0, 1.0, 0.0]), 0.0);
        let thr = ImplicitQuery::threshold(1, 0.5, 3).unwrap();
        assert_eq!(thr.evaluate(&[9.0, 0.25, 0.0]), 1.0);
        assert_eq!(thr.evaluate(&[9.0, 0.75, 0.0]), 0.0);
        assert_eq!(thr.value_bounds(), (0.0, 1.0));
        assert_eq!(thr.point_dim(), Some(3));
        assert!(thr.universe_len().is_none());
        assert!(thr.clone_shared().is_some());

        let query = |predicate| ImplicitQuery::new(predicate, 2).unwrap();
        let at_least = query(PointPredicate::Threshold {
            coord: 1,
            threshold: 0.5,
            at_least: true,
        });
        assert_eq!(at_least.evaluate(&[0.0, 0.7]), 1.0);
        assert_eq!(at_least.evaluate(&[0.9, 0.2]), 0.0);
        assert_eq!(at_least.evaluate(&[0.0, 0.5]), 1.0);
        let halfspace = query(PointPredicate::Halfspace {
            normal: vec![1.0, -1.0],
            offset: 0.0,
        });
        assert_eq!(halfspace.evaluate(&[0.5, 0.1]), 1.0);
        assert_eq!(halfspace.evaluate(&[0.1, 0.5]), 0.0);
        let linear = query(PointPredicate::Linear {
            weights: vec![0.5, 0.5],
            offset: 0.0,
        });
        assert_eq!(linear.evaluate(&[1.0, 1.0]), 1.0);
        assert_eq!(linear.evaluate(&[0.4, 0.4]), 0.4);
        assert_eq!(linear.evaluate(&[-3.0, 0.0]), 0.0);
        let names: Vec<_> = [&thr, &at_least, &halfspace, &linear, &parity]
            .map(|q| q.name())
            .into();
        assert_eq!(
            names,
            ["threshold", "threshold", "halfspace", "linear", "parity"]
        );

        // A short row's lacking coordinate reads as 0.0, except under an
        // at-most threshold (+∞); dot products cover the coordinates the row
        // has.
        let lacking = query(PointPredicate::Threshold {
            coord: 1,
            threshold: -0.25,
            at_least: true,
        });
        assert_eq!(lacking.evaluate(&[-1.0]), 1.0);
        let lacking = ImplicitQuery::threshold(1, 1e300, 2).unwrap();
        assert_eq!(lacking.evaluate(&[-1.0]), 0.0);
        assert_eq!(linear.evaluate(&[0.6]), 0.3);
        assert_eq!(halfspace.evaluate(&[-0.1]), 0.0);
    }

    #[test]
    fn implicit_query_constructors_validate() {
        assert!(ImplicitQuery::marginal(vec![], 4).is_err());
        assert!(ImplicitQuery::marginal(vec![4], 4).is_err());
        assert!(ImplicitQuery::parity(vec![], 4).is_err());
        assert!(ImplicitQuery::parity(vec![0], 0).is_err());
        assert!(ImplicitQuery::threshold(4, 0.5, 4).is_err());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(ImplicitQuery::threshold(0, bad, 4).is_err());
            let at_least = PointPredicate::Threshold {
                coord: 0,
                threshold: bad,
                at_least: true,
            };
            assert!(ImplicitQuery::new(at_least, 4).is_err());
            for (coefficients, offset) in [(vec![1.0, bad], 0.0), (vec![1.0, 0.5], bad)] {
                let normal = coefficients.clone();
                let halfspace = PointPredicate::Halfspace { normal, offset };
                assert!(ImplicitQuery::new(halfspace, 2).is_err());
                let weights = coefficients;
                let linear = PointPredicate::Linear { weights, offset };
                assert!(ImplicitQuery::new(linear, 2).is_err());
            }
        }
        let offset = 0.0;
        for len in [1, 3] {
            let normal = vec![0.5; len];
            let halfspace = PointPredicate::Halfspace { normal, offset };
            let mismatch = DataError::DimensionMismatch {
                got: len,
                expected: 2,
            };
            assert_eq!(ImplicitQuery::new(halfspace, 2), Err(mismatch));
            let weights = vec![0.5; len];
            let linear = PointPredicate::Linear { weights, offset };
            assert!(ImplicitQuery::new(linear, 2).is_err());
        }
        assert!(implicit_marginal_queries(4, 0).is_err());
        assert!(implicit_marginal_queries(4, 5).is_err());
    }

    #[test]
    fn random_implicit_workloads_have_requested_width() {
        let mut rng = StdRng::seed_from_u64(9);
        let marginals = random_implicit_marginals(10, 3, 20, &mut rng).unwrap();
        assert_eq!(marginals.len(), 20);
        for q in &marginals {
            match q.predicate() {
                PointPredicate::Conjunction { coords } => {
                    assert_eq!(coords.len(), 3);
                    assert!(coords.windows(2).all(|w| w[0] < w[1]), "{coords:?}");
                    assert!(coords.iter().all(|&c| c < 10));
                }
                other => panic!("unexpected predicate {other:?}"),
            }
        }
        let parities = random_implicit_parities(6, 2, 5, &mut rng).unwrap();
        assert!(parities.iter().all(
            |q| matches!(q.predicate(), PointPredicate::Parity { coords } if coords.len() == 2)
        ));
        assert!(random_implicit_marginals(0, 1, 3, &mut rng).is_err());
        assert!(random_implicit_parities(4, 5, 3, &mut rng).is_err());
    }

    #[test]
    fn dense_query_exposes_point_query_metadata() {
        let q = LinearQuery::new(vec![0.5, -1.5, 2.0]).unwrap();
        assert_eq!(q.value_bounds(), (-1.5, 2.0));
        assert_eq!(q.universe_len(), Some(3));
        assert!(q.point_dim().is_none());
        assert_eq!(q.dense_values().unwrap(), q.values());
        assert!(PointQuery::value_at_index(&q, 3).is_none());
        assert!(q.value_at_point(&[1.0]).is_none());
        let shared = PointQuery::clone_shared(&q).unwrap();
        assert_eq!(shared.value_at_index(1), Some(-1.5));
    }

    /// A point-only query on the trait's default batch: a varying value
    /// from the coordinates, `None` on rows whose first coordinate is
    /// negative (or NaN).
    struct PointOnly;

    impl PointQuery for PointOnly {
        fn value_bounds(&self) -> (f64, f64) {
            (-4.0, 4.0)
        }

        fn value_at_index(&self, _index: usize) -> Option<f64> {
            None
        }

        fn value_at_point(&self, point: &[f64]) -> Option<f64> {
            (point[0] >= 0.0).then(|| point.iter().sum::<f64>() * 0.37 - 0.5)
        }
    }

    /// Checks `query`'s batch against its per-row calls on `points`
    /// (`dim`-wide rows at universe `indices`), by both routes: the same
    /// bits on every row before the first failing one, and the same first
    /// failing row.
    fn assert_batch_matches_rows(
        query: &dyn PointQuery,
        indices: &[usize],
        points: &[f64],
        dim: usize,
    ) {
        let rows: Vec<&[f64]> = points.chunks_exact(dim).collect();
        for route in [Some(indices), None] {
            let mut out = vec![f64::from_bits(0x7ff8_dead); rows.len()];
            let batch = query.values_at_rows(route, points, dim, &mut out);
            let expected: Vec<Option<f64>> = (0..rows.len())
                .map(|r| match route {
                    Some(indices) => query_value(query, indices[r], rows[r]).ok(),
                    None => query.value_at_point(rows[r]),
                })
                .collect();
            let first_failing = expected.iter().position(Option::is_none);
            assert_eq!(
                batch.err(),
                first_failing,
                "{} first failing row",
                query.name()
            );
            for (r, want) in expected.iter().map_while(|want| *want).enumerate() {
                assert_eq!(
                    out[r].to_bits(),
                    want.to_bits(),
                    "{} row {r}: {} vs {want}",
                    query.name(),
                    out[r]
                );
            }
        }
    }

    #[test]
    fn values_at_rows_matches_the_per_row_routes_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(41);
        let dim = 6;
        let coordinate = |rng: &mut StdRng| match rng.random_range(0..6usize) {
            0 => f64::NAN,
            1 => 0.5,
            2 => -0.0,
            3 => rng.random::<f64>() * 2.0 - 0.5,
            _ => f64::from(rng.random::<bool>()),
        };
        let full: Vec<f64> = (0..37 * dim).map(|_| coordinate(&mut rng)).collect();
        let indices: Vec<usize> = (0..37).map(|r| (r * 7) % 40).collect();
        let mut predicates = vec![
            PointPredicate::Parity {
                coords: vec![1, 4, 5],
            },
            PointPredicate::Parity { coords: vec![0] },
            PointPredicate::Threshold {
                coord: 2,
                threshold: 0.25,
                at_least: false,
            },
            PointPredicate::Threshold {
                coord: 5,
                threshold: -0.0,
                at_least: false,
            },
            PointPredicate::Threshold {
                coord: 4,
                threshold: 0.5,
                at_least: true,
            },
            PointPredicate::Threshold {
                coord: 0,
                threshold: -0.0,
                at_least: true,
            },
            PointPredicate::Halfspace {
                normal: vec![0.7, -1.3, 0.4, 2.0, -0.6, 0.9],
                offset: 0.3,
            },
            // Clamped at both ends on some rows, strictly inside on others.
            PointPredicate::Linear {
                weights: vec![1.2, -1.1, 0.6, -0.9, 0.8, 0.4],
                offset: 0.1,
            },
        ];
        for width in 1..=3 {
            predicates.push(PointPredicate::Conjunction {
                coords: (0..width).map(|c| 5 - 2 * c).collect(),
            });
        }
        for predicate in predicates {
            let query = ImplicitQuery::new(predicate, dim).unwrap();
            assert_batch_matches_rows(&query, &indices, &full, dim);
            if let PointPredicate::Linear { .. } = query.predicate() {
                let mut out = vec![0.0; 37];
                query.values_at_rows(None, &full, dim, &mut out).unwrap();
                let inside = out.iter().any(|&v| v > 0.0 && v < 1.0);
                assert!(
                    inside && out.contains(&0.0) && out.contains(&1.0),
                    "{out:?}"
                );
            }
            // Short rows (narrower than the query's dimension) keep the
            // historical out-of-range defaults.
            let short: Vec<f64> = full
                .chunks_exact(dim)
                .flat_map(|row| &row[..3])
                .copied()
                .collect();
            assert_batch_matches_rows(&query, &indices, &short, 3);
            assert_batch_matches_rows(&query, &[], &[], dim);
        }

        let dense = LinearQuery::new((0..40).map(|i| f64::from(i) * 0.3 - 2.0).collect()).unwrap();
        assert_batch_matches_rows(&dense, &indices, &full, dim);
        // An out-of-range index fails at its own row, by both the batch
        // and `query_values`.
        let mut past = indices.clone();
        past[11] = 40;
        past[20] = 99;
        assert_batch_matches_rows(&dense, &past, &full, dim);
        let mut out = vec![0.0; 37];
        assert_eq!(
            dense.values_at_rows(Some(&past), &full, dim, &mut out),
            Err(11)
        );
        assert_eq!(
            query_values(&dense, &past, &full, dim, &mut out),
            Err(query_value(&dense, 40, &full[..dim]).unwrap_err())
        );
        assert_eq!(dense.values_at_rows(None, &full, dim, &mut out), Err(0));

        // The default, on a query that fails at some rows.
        let finite: Vec<f64> = full
            .iter()
            .map(|v| if v.is_nan() { 0.25 } else { *v })
            .collect();
        assert_batch_matches_rows(&PointOnly, &indices, &finite, dim);
        let mut lifted = finite.clone();
        for row in lifted.chunks_exact_mut(dim) {
            row[0] = row[0].abs();
        }
        assert_batch_matches_rows(&PointOnly, &indices, &lifted, dim);
    }

    #[test]
    fn incidence_is_the_non_zero_pattern_of_values_at_rows() {
        let mut rng = StdRng::seed_from_u64(43);
        let dim = 6;
        let coordinate = |rng: &mut StdRng| match rng.random_range(0..6usize) {
            0 => 0.5,
            1 => 0.5_f64.next_down(),
            2 => -0.0,
            3 => rng.random::<f64>() * 2.0 - 0.5,
            _ => f64::from(rng.random::<bool>()),
        };
        let mut predicates = vec![
            PointPredicate::Parity {
                coords: vec![1, 4, 5],
            },
            PointPredicate::Parity { coords: vec![0] },
            PointPredicate::Parity { coords: vec![2, 0] },
        ];
        for width in 1..=3 {
            predicates.push(PointPredicate::Conjunction {
                coords: (0..width).map(|c| 5 - 2 * c).collect(),
            });
            predicates.push(PointPredicate::Conjunction {
                coords: (0..width).collect(),
            });
        }
        for rows in [1, 64, 130] {
            let flat: Vec<f64> = (0..rows * dim).map(|_| coordinate(&mut rng)).collect();
            let full = PointMatrix::from_flat(flat, dim).unwrap();
            // Short rows lack coordinates 3..6, which read as unset.
            let short: Vec<f64> = full.iter().flat_map(|row| &row[..3]).copied().collect();
            let short = PointMatrix::from_flat(short, 3).unwrap();
            for predicate in &predicates {
                let query = ImplicitQuery::new(predicate.clone(), dim).unwrap();
                for points in [&full, &short] {
                    let mut out = vec![0.0; rows];
                    query
                        .values_at_rows(None, points.as_flat(), points.dim(), &mut out)
                        .unwrap();
                    let set: Vec<usize> = (0..rows).filter(|&r| out[r] != 0.0).collect();
                    assert!(set.iter().all(|&r| out[r] == 1.0), "{predicate:?}");
                    let bits = query.incidence(points).unwrap();
                    assert_eq!(bits.rows().collect::<Vec<_>>(), set, "{predicate:?}");
                    assert_eq!(bits.words().len(), rows.div_ceil(64));
                    if !rows.is_multiple_of(64) {
                        assert_eq!(bits.words()[rows / 64] >> (rows % 64), 0, "tail bits");
                    }
                }
            }
        }
        // Thresholds, halfspaces, linear statistics and queries on the
        // default have no bit form.
        let points = PointMatrix::from_flat(vec![1.0; 12], dim).unwrap();
        let threshold = ImplicitQuery::threshold(0, 0.5, dim).unwrap();
        let halfspace = PointPredicate::Halfspace {
            normal: vec![1.0; dim],
            offset: 0.0,
        };
        let halfspace = ImplicitQuery::new(halfspace, dim).unwrap();
        let dense = LinearQuery::new(vec![1.0, 0.0]).unwrap();
        for query in [
            &threshold as &dyn PointQuery,
            &halfspace,
            &dense,
            &PointOnly,
        ] {
            assert!(query.incidence(&points).is_none(), "{}", query.name());
        }
    }

    #[test]
    fn thresholds_are_monotone() {
        let grid = GridUniverse::new(1, 6, 0.0, 1.0).unwrap();
        let qs = threshold_queries(&grid).unwrap();
        assert_eq!(qs.len(), 6);
        let h = Histogram::uniform(6).unwrap();
        let vals: Vec<f64> = qs.iter().map(|q| q.evaluate(&h)).collect();
        for w in vals.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        assert!((vals[5] - 1.0).abs() < 1e-12);
        let grid2 = GridUniverse::symmetric_unit(2, 3).unwrap();
        assert!(threshold_queries(&grid2).is_err());
    }
}
