//! Noise samplers built from first principles on `rand`'s uniform source.
//!
//! `rand` ships no continuous distributions, so the Laplace, Gaussian,
//! exponential and Gumbel samplers every DP mechanism needs are implemented
//! here via inverse-CDF and Box–Muller transforms. All samplers take
//! `&mut impl Rng` so experiments stay deterministic under seeded RNGs.

use rand::{Rng, RngExt};

/// A uniform draw from the *open* interval `(0, 1)`, suitable for feeding
/// logarithms (never returns exactly 0 or 1).
#[inline]
pub fn uniform_open01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random();
        if u > 0.0 && u < 1.0 {
            return u;
        }
    }
}

/// One draw from the Laplace distribution with mean 0 and scale `b`
/// (density `exp(−|z|/b) / 2b`), via inverse CDF.
///
/// This is the noise of the Laplace mechanism \[DMNS06\] and of the
/// AboveThreshold components inside the sparse vector algorithm (§3.1).
///
/// # Panics
/// Panics unless `scale > 0`, in every build profile: a zero scale would
/// release its input unperturbed.
#[inline]
pub fn laplace<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> f64 {
    assert!(scale > 0.0, "laplace scale must be positive");
    let u = uniform_open01(rng) - 0.5;
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// One standard normal draw via the Box–Muller transform.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = uniform_open01(rng);
    let u2 = uniform_open01(rng);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One draw from `N(0, sigma²)`.
///
/// # Panics
/// Panics unless `sigma > 0`, in every build profile.
#[inline]
pub fn gaussian<R: Rng + ?Sized>(sigma: f64, rng: &mut R) -> f64 {
    assert!(sigma > 0.0, "gaussian sigma must be positive");
    sigma * standard_normal(rng)
}

/// One draw from the exponential distribution with the given `scale`
/// (mean `scale`), via inverse CDF.
///
/// # Panics
/// Panics unless `scale > 0`, in every build profile.
#[inline]
pub fn exponential<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> f64 {
    assert!(scale > 0.0, "exponential scale must be positive");
    -scale * uniform_open01(rng).ln()
}

/// One standard Gumbel draw (`location 0, scale 1`): `−ln(−ln U)`.
///
/// Adding independent Gumbel noise to log-scores and taking the argmax
/// samples exactly from the softmax distribution — the implementation
/// route for the exponential mechanism \[MT07\] used in this crate.
#[inline]
pub fn gumbel<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    -(-uniform_open01(rng).ln()).ln()
}

/// Fill `out` with i.i.d. `N(0, sigma²)` noise.
pub fn gaussian_vector<R: Rng + ?Sized>(sigma: f64, out: &mut [f64], rng: &mut R) {
    for slot in out.iter_mut() {
        *slot = gaussian(sigma, rng);
    }
}

/// A vector with i.i.d. `N(0,1)` entries scaled so its *norm* follows the
/// Gamma-like law used by output perturbation \[CMS11\]: direction uniform on
/// the sphere, norm distributed as `Gamma(d, scale)`.
///
/// (Sum of `d` i.i.d. exponentials of the given scale is `Gamma(d, scale)`.)
pub fn gamma_noise_vector<R: Rng + ?Sized>(dim: usize, scale: f64, rng: &mut R) -> Vec<f64> {
    debug_assert!(dim > 0);
    // Direction: normalized Gaussian vector.
    let mut v: Vec<f64> = (0..dim).map(|_| standard_normal(rng)).collect();
    let norm = v
        .iter()
        .map(|x| x * x)
        .sum::<f64>()
        .sqrt()
        .max(f64::MIN_POSITIVE);
    // Magnitude: Gamma(dim, scale) via sum of exponentials.
    let mag: f64 = (0..dim).map(|_| exponential(scale, rng)).sum();
    for x in v.iter_mut() {
        *x = *x / norm * mag;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 60_000;

    fn moments(draws: &[f64]) -> (f64, f64) {
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        let var =
            draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (draws.len() - 1) as f64;
        (mean, var)
    }

    #[test]
    fn laplace_moments_match_theory() {
        let mut rng = StdRng::seed_from_u64(11);
        let b = 2.0;
        let draws: Vec<f64> = (0..N).map(|_| laplace(b, &mut rng)).collect();
        let (mean, var) = moments(&draws);
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!(
            (var - 2.0 * b * b).abs() < 0.3,
            "var {var} vs {}",
            2.0 * b * b
        );
    }

    #[test]
    fn laplace_tail_probability_matches_cdf() {
        // Pr[|Lap(b)| > t] = exp(-t/b).
        let mut rng = StdRng::seed_from_u64(12);
        let b = 1.0;
        let t = 1.5;
        let hits = (0..N).filter(|_| laplace(b, &mut rng).abs() > t).count();
        let empirical = hits as f64 / N as f64;
        let expected = (-t / b).exp();
        assert!(
            (empirical - expected).abs() < 0.01,
            "{empirical} vs {expected}"
        );
    }

    #[test]
    fn gaussian_moments_match_theory() {
        let mut rng = StdRng::seed_from_u64(13);
        let sigma = 1.5;
        let draws: Vec<f64> = (0..N).map(|_| gaussian(sigma, &mut rng)).collect();
        let (mean, var) = moments(&draws);
        assert!(mean.abs() < 0.05);
        assert!((var - sigma * sigma).abs() < 0.1, "var {var}");
    }

    #[test]
    fn gaussian_central_interval_mass() {
        // Pr[|N(0,1)| <= 1] ~ 0.6827.
        let mut rng = StdRng::seed_from_u64(14);
        let hits = (0..N)
            .filter(|_| standard_normal(&mut rng).abs() <= 1.0)
            .count();
        let frac = hits as f64 / N as f64;
        assert!((frac - 0.6827).abs() < 0.01, "{frac}");
    }

    #[test]
    fn exponential_moments_match_theory() {
        let mut rng = StdRng::seed_from_u64(15);
        let scale = 0.7;
        let draws: Vec<f64> = (0..N).map(|_| exponential(scale, &mut rng)).collect();
        let (mean, var) = moments(&draws);
        assert!(draws.iter().all(|&x| x >= 0.0));
        assert!((mean - scale).abs() < 0.02, "mean {mean}");
        assert!((var - scale * scale).abs() < 0.05, "var {var}");
    }

    #[test]
    fn degenerate_scales_panic_in_every_build() {
        // A `#[should_panic]` test stops at its first panic, so drive all
        // nine (sampler, scale) pairs through `catch_unwind` instead.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let samplers: [fn(f64, &mut StdRng) -> f64; 3] = [laplace, gaussian, exponential];
        let mut rng = StdRng::seed_from_u64(18);
        for (name, draw) in ["laplace", "gaussian", "exponential"]
            .into_iter()
            .zip(samplers)
        {
            for scale in [0.0, -1.0, f64::NAN] {
                let drawn = catch_unwind(AssertUnwindSafe(|| draw(scale, &mut rng)));
                assert!(drawn.is_err(), "{name}({scale}) returned {drawn:?}");
            }
        }
    }

    #[test]
    fn gumbel_mean_is_euler_mascheroni() {
        let mut rng = StdRng::seed_from_u64(16);
        let draws: Vec<f64> = (0..N).map(|_| gumbel(&mut rng)).collect();
        let (mean, var) = moments(&draws);
        assert!((mean - 0.5772).abs() < 0.03, "mean {mean}");
        // Var of standard Gumbel is pi^2/6 ~ 1.6449.
        assert!((var - 1.6449).abs() < 0.1, "var {var}");
    }

    #[test]
    fn gamma_vector_norm_has_gamma_mean() {
        // ||v|| ~ Gamma(d, scale) with mean d*scale.
        let mut rng = StdRng::seed_from_u64(17);
        let (dim, scale) = (5usize, 0.5f64);
        let trials = 4000;
        let mean_norm: f64 = (0..trials)
            .map(|_| {
                let v = gamma_noise_vector(dim, scale, &mut rng);
                v.iter().map(|x| x * x).sum::<f64>().sqrt()
            })
            .sum::<f64>()
            / trials as f64;
        assert!((mean_norm - dim as f64 * scale).abs() < 0.1, "{mean_norm}");
    }

    #[test]
    fn gaussian_vector_fills_all_slots() {
        let mut rng = StdRng::seed_from_u64(18);
        let mut buf = vec![0.0; 32];
        gaussian_vector(2.0, &mut buf, &mut rng);
        assert!(buf.iter().all(|&x| x != 0.0));
    }

    #[test]
    fn uniform_open01_stays_in_open_interval() {
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..10_000 {
            let u = uniform_open01(&mut rng);
            assert!(u > 0.0 && u < 1.0);
        }
    }
}
