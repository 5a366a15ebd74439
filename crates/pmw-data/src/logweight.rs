//! Gumbel-max sampling from unnormalized log-weights.
//!
//! If `G_x` are i.i.d. standard Gumbel draws, then
//! `argmax_x (log w(x) + G_x)` is distributed exactly as the normalized
//! distribution `w(x)/Σ w` — no normalizer needed, which is what a state
//! held as unnormalized log-weights can support. [`gumbel_max_index`] runs
//! it over a slice of log-weights: the dense [`Histogram`]'s log-domain
//! storage ([`Histogram::log_weights`]) or the sampled sketch's pool.
//!
//! [`Histogram`]: crate::Histogram
//! [`Histogram::log_weights`]: crate::Histogram::log_weights

use rand::{Rng, RngExt};

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
/// `log_w[x]` is `log w(x)`, unnormalized, `-∞` for zero mass and never
/// `NaN` or `+∞`. Θ(|X|) Gumbel draws; entries at `-∞` never win and
/// consume no draw, keeping the stream aligned with the support.
///
/// # Panics
/// Panics when every log-weight is `-∞` (no mass anywhere) or the slice
/// is empty — both impossible for weights derived from a valid histogram.
pub fn gumbel_max_index<R: Rng + ?Sized>(log_w: &[f64], rng: &mut R) -> usize {
    let mut best: Option<(usize, f64)> = None;
    for (x, &lw) in log_w.iter().enumerate() {
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
            counts[gumbel_max_index(h.log_weights(), &mut rng)] += 1;
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
}
