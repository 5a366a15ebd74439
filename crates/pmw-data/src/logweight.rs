//! Point-indexed log-weight functions and Gumbel-max sampling.
//!
//! The sublinear state backends (`pmw-sketch`) never materialize the
//! hypothesis `D̂_t ∈ R^X`; they evaluate **unnormalized log-weights**
//! `log w(x)` at individual universe indices instead. [`LogWeightFn`] is
//! that evaluation seam: the dense [`Histogram`](crate::Histogram)
//! implements it (a lookup into its log-domain storage), and so do the
//! lazy update-log representations built on top of a per-point payoff
//! function via [`PointLogWeights`].
//!
//! Sampling goes through the **Gumbel-max trick**: if `G_x` are i.i.d.
//! standard Gumbel draws, then `argmax_x (log w(x) + G_x)` is distributed
//! exactly as the normalized distribution `w(x)/Σ w` — no normalizer
//! needed, which is precisely what an unnormalized log-weight oracle can
//! support. [`gumbel_max_index`] runs the exact Θ(|X|) version;
//! [`gumbel_max_among`] runs it over an explicit candidate set, which is
//! the sublinear building block: restricted to candidates `C`, the draw is
//! exact for the conditional distribution `w(x)/Σ_{y∈C} w(y)`.

use crate::matrix::PointMatrix;
use rand::{Rng, RngExt};

/// An unnormalized log-weight oracle over universe indices `0..universe_size`.
///
/// `-∞` encodes zero mass; implementations must never return `NaN` or `+∞`.
/// Weights are defined up to one shared additive constant (normalization is
/// the consumer's business), which is what makes lazily-evaluated update
/// logs and the dense log-domain histogram interchangeable behind this
/// trait.
pub trait LogWeightFn {
    /// Number of universe elements the oracle is defined over.
    fn universe_size(&self) -> usize;

    /// `log w(x)` (unnormalized; `-∞` for zero mass).
    fn log_weight(&self, x: usize) -> f64;
}

impl<T: LogWeightFn + ?Sized> LogWeightFn for &T {
    fn universe_size(&self) -> usize {
        (**self).universe_size()
    }

    fn log_weight(&self, x: usize) -> f64 {
        (**self).log_weight(x)
    }
}

impl LogWeightFn for [f64] {
    fn universe_size(&self) -> usize {
        self.len()
    }

    fn log_weight(&self, x: usize) -> f64 {
        self[x]
    }
}

impl LogWeightFn for Vec<f64> {
    fn universe_size(&self) -> usize {
        self.len()
    }

    fn log_weight(&self, x: usize) -> f64 {
        self[x]
    }
}

/// A [`LogWeightFn`] that evaluates a caller-supplied function of the
/// universe **point** (not index): the point-evaluation API over a
/// [`PointMatrix`]. This is how an update-log state (`log w(x) = −Σ_t
/// η_t·u_t(x)`, a function of the point's gradients) plugs into the
/// samplers without ever allocating a `|X|`-sized buffer.
pub struct PointLogWeights<'a, F: Fn(&[f64]) -> f64> {
    points: &'a PointMatrix,
    f: F,
}

impl<'a, F: Fn(&[f64]) -> f64> PointLogWeights<'a, F> {
    /// Pair universe points with a per-point log-weight function.
    pub fn new(points: &'a PointMatrix, f: F) -> Self {
        Self { points, f }
    }
}

impl<F: Fn(&[f64]) -> f64> LogWeightFn for PointLogWeights<'_, F> {
    fn universe_size(&self) -> usize {
        self.points.len()
    }

    fn log_weight(&self, x: usize) -> f64 {
        (self.f)(self.points.row(x))
    }
}

/// A uniform draw from the open interval `(0, 1)` (safe to feed logarithms).
#[inline]
fn uniform_open01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random();
        if u > 0.0 && u < 1.0 {
            return u;
        }
    }
}

/// One standard Gumbel draw: `−ln(−ln U)` for `U ~ Uniform(0,1)`.
#[inline]
pub fn standard_gumbel<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    -(-uniform_open01(rng).ln()).ln()
}

/// Draw one index exactly from the normalized distribution
/// `w(x)/Σ_y w(y)` via the Gumbel-max trick: `argmax_x (log w(x) + G_x)`.
///
/// Θ(|X|) evaluations and Gumbel draws — the exact reference the sublinear
/// candidate-set variant ([`gumbel_max_among`]) is tested against. Entries
/// at `-∞` never win (they consume no Gumbel draw, keeping the stream
/// aligned with the support).
///
/// # Panics
/// Panics when every log-weight is `-∞` (no mass anywhere) or the oracle is
/// empty — both impossible for weights derived from a valid histogram.
pub fn gumbel_max_index<W: LogWeightFn + ?Sized, R: Rng + ?Sized>(w: &W, rng: &mut R) -> usize {
    let mut best: Option<(usize, f64)> = None;
    for x in 0..w.universe_size() {
        let lw = w.log_weight(x);
        debug_assert!(!lw.is_nan(), "log-weight must not be NaN");
        if lw == f64::NEG_INFINITY {
            continue;
        }
        let key = lw + standard_gumbel(rng);
        if best.is_none_or(|(_, b)| key > b) {
            best = Some((x, key));
        }
    }
    best.expect("gumbel_max_index needs at least one finite log-weight")
        .0
}

/// [`gumbel_max_index`] restricted to an explicit candidate set: an exact
/// draw from `w(x)/Σ_{y ∈ candidates} w(y)`.
///
/// With candidates drawn uniformly this is the sublinear approximate
/// sampler the `pmw-sketch` backends use; returns `None` when every
/// candidate has zero mass.
pub fn gumbel_max_among<W: LogWeightFn + ?Sized, R: Rng + ?Sized>(
    w: &W,
    candidates: &[usize],
    rng: &mut R,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for &x in candidates {
        let lw = w.log_weight(x);
        debug_assert!(!lw.is_nan(), "log-weight must not be NaN");
        if lw == f64::NEG_INFINITY {
            continue;
        }
        let key = lw + standard_gumbel(rng);
        if best.is_none_or(|(_, b)| key > b) {
            best = Some((x, key));
        }
    }
    best.map(|(x, _)| x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gumbel_moments_match_theory() {
        let mut rng = StdRng::seed_from_u64(31);
        let n = 60_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_gumbel(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.5772).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn gumbel_max_tracks_histogram_masses() {
        // Frequencies of the Gumbel-max draw must match the normalized
        // weights — the softmax-sampling identity.
        let h = Histogram::from_counts(&[6, 1, 0, 3]).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        let n = 40_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[gumbel_max_index(&h, &mut rng)] += 1;
        }
        assert_eq!(counts[2], 0, "zero-mass bin must never be drawn");
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / n as f64;
            assert!(
                (freq - h.mass(i)).abs() < 0.02,
                "bin {i}: {freq} vs {}",
                h.mass(i)
            );
        }
    }

    #[test]
    fn gumbel_max_among_full_set_matches_full_sampler_distribution() {
        let h = Histogram::from_counts(&[2, 5, 3]).unwrap();
        let all = [0usize, 1, 2];
        let mut rng = StdRng::seed_from_u64(33);
        let n = 30_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[gumbel_max_among(&h, &all, &mut rng).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / n as f64;
            assert!((freq - h.mass(i)).abs() < 0.02, "bin {i}: {freq}");
        }
    }

    #[test]
    fn gumbel_max_among_conditions_on_the_candidate_set() {
        // Restricted to {0, 3} of a histogram with masses .4/.1/.1/.4, the
        // conditional distribution is 50/50.
        let h = Histogram::from_counts(&[4, 1, 1, 4]).unwrap();
        let mut rng = StdRng::seed_from_u64(34);
        let n = 30_000;
        let mut zero = 0usize;
        for _ in 0..n {
            match gumbel_max_among(&h, &[0, 3], &mut rng).unwrap() {
                0 => zero += 1,
                3 => {}
                other => panic!("drew non-candidate {other}"),
            }
        }
        let freq = zero as f64 / n as f64;
        assert!((freq - 0.5).abs() < 0.02, "{freq}");
    }

    #[test]
    fn gumbel_max_among_returns_none_on_zero_mass_candidates() {
        let h = Histogram::from_counts(&[0, 1, 0]).unwrap();
        let mut rng = StdRng::seed_from_u64(35);
        assert_eq!(gumbel_max_among(&h, &[0, 2], &mut rng), None);
        assert!(gumbel_max_among(&h, &[], &mut rng).is_none());
    }

    #[test]
    fn slice_and_point_adapters_agree() {
        let logs = [0.0f64, -1.0, -2.0];
        let points = PointMatrix::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let by_point = PointLogWeights::new(&points, |p| -p[0]);
        assert_eq!(logs.as_slice().universe_size(), 3);
        for x in 0..3 {
            assert_eq!(logs.as_slice().log_weight(x), by_point.log_weight(x));
        }
        // &T forwarding compiles and agrees.
        let by_ref: &dyn LogWeightFn = &by_point;
        assert_eq!(by_ref.log_weight(2), -2.0);
    }
}
