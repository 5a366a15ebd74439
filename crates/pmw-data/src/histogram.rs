//! The histogram representation of a dataset (Section 2.1).
//!
//! The paper views a dataset as a probability distribution over the universe:
//! `D(x) = Pr_{x'←D}[x' = x]`. Changing a single row moves `1/n` of mass
//! from one bin to another, so adjacent datasets have histograms within
//! `2/n` in `‖·‖₁` (the paper states the per-bin bound `1/n`). All of the
//! PMW machinery (the hypothesis `D̂_t`, the multiplicative weights update,
//! the bounded-regret lemma) operates on [`Histogram`] values.
//!
//! # Log-domain representation
//!
//! The weights are stored as **unnormalized log-weights** `log_w`, with the
//! normalized probability vector materialized lazily. This turns the
//! Θ(|X|) multiplicative-weights update of Figure 3 — the mechanism's
//! running-time bottleneck per Section 4.3 — into one fused linear pass
//!
//! ```text
//! log_w[x] -= η · u(x)
//! ```
//!
//! with **no `exp` and no renormalization sweep**; consecutive updates
//! (common under bursts of above-threshold queries) pay exactly one
//! exponentiation pass total, when the weights are next read. In the
//! steady-state online path — `OnlinePmw::answer` reads `weights()` once
//! per round, so a ⊤-round pays one deferred exp pass — the per-round cost
//! is comparable to the dense representation (see the
//! `mw_update_with_read_speedup` series in `BENCH_runtime.json`); the
//! 4–6× kernel win applies to update-heavy regimes (offline/MWEM-style
//! loops, deferred reads) and the representation additionally gains
//! unconditional overflow safety. The read-side
//! normalization is an overflow-safe log-sum-exp: the running maximum of
//! `log_w` is maintained by the update pass, subtracted before
//! exponentiation, so no intermediate can overflow regardless of payoff
//! magnitudes. Zero-mass bins are `-∞` in log domain and stay exactly zero
//! through updates, matching the dense-domain semantics (`0 · e^{-ηu} = 0`).
//!
//! The update and normalization passes are chunked across cores via
//! [`crate::par`].

use crate::error::DataError;
use crate::par;
use rand::{Rng, RngExt};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A probability distribution over a finite universe, stored densely in the
/// log domain (see the module docs).
///
/// Invariants: every `log_w` entry is `-∞` or finite (never `NaN`/`+∞`), at
/// least one entry is finite, and `log_max` equals `max(log_w)`. The
/// normalized weights derived from any state sum to 1 up to floating-point
/// tolerance.
#[derive(Debug)]
pub struct Histogram {
    /// Unnormalized log-weights; `-∞` encodes zero mass.
    log_w: Vec<f64>,
    /// `max(log_w)` — maintained incrementally, used by the log-sum-exp.
    log_max: f64,
    /// Lazily materialized normalized weights; invalidated by updates.
    dense: OnceLock<Vec<f64>>,
    /// Memoized log-sum-exp `ln Σ_x exp(log_w[x] − log_max)`; computed in
    /// the same pass as `dense` (or standalone by [`Histogram::log_z`]) and
    /// invalidated by updates, so repeated reads between updates never
    /// re-run a normalization sweep.
    log_z: OnceLock<f64>,
    /// Count of Θ(|X|) normalization (exp-sum) sweeps performed — the
    /// regression guard for the memoization above.
    norm_passes: AtomicU64,
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        Self {
            log_w: self.log_w.clone(),
            log_max: self.log_max,
            dense: self.dense.clone(),
            log_z: self.log_z.clone(),
            norm_passes: AtomicU64::new(self.norm_passes.load(Ordering::Relaxed)),
        }
    }
}

/// Magnitude at which `log_w` is rebased toward 0 to preserve absolute
/// resolution. Unreachable in realistic runs (it would take ~1e11 updates
/// at `η·S = 10`), but keeps the representation self-healing.
const REBASE_LIMIT: f64 = 1e12;

impl Histogram {
    /// The uniform histogram over `size` elements — PMW's initial hypothesis
    /// `D̂_1` (Figure 3: "Let `D̂_t` be the uniform histogram over `X`").
    pub fn uniform(size: usize) -> Result<Self, DataError> {
        if size == 0 {
            return Err(DataError::EmptyUniverse);
        }
        let dense = OnceLock::new();
        let _ = dense.set(vec![1.0 / size as f64; size]);
        let log_z = OnceLock::new();
        let _ = log_z.set((size as f64).ln());
        Ok(Self {
            log_w: vec![0.0; size],
            log_max: 0.0,
            dense,
            log_z,
            norm_passes: AtomicU64::new(0),
        })
    }

    /// Build from non-negative weights, normalizing to total mass 1.
    pub fn from_weights(mut weights: Vec<f64>) -> Result<Self, DataError> {
        if weights.is_empty() {
            return Err(DataError::EmptyUniverse);
        }
        let mut total = 0.0;
        for &w in &weights {
            if !w.is_finite() {
                return Err(DataError::InvalidWeights("non-finite weight"));
            }
            if w < 0.0 {
                return Err(DataError::InvalidWeights("negative weight"));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(DataError::InvalidWeights("weights sum to zero"));
        }
        for w in &mut weights {
            *w /= total;
        }
        let mut log_max = f64::NEG_INFINITY;
        let log_w: Vec<f64> = weights
            .iter()
            .map(|&w| {
                let lw = w.ln(); // ln(0) = -inf encodes zero mass
                log_max = log_max.max(lw);
                lw
            })
            .collect();
        let dense = OnceLock::new();
        let _ = dense.set(weights);
        // Σ_x exp(log_w[x]) = 1 by construction, so the centered
        // log-sum-exp is exactly −log_max.
        let log_z = OnceLock::new();
        let _ = log_z.set(-log_max);
        Ok(Self {
            log_w,
            log_max,
            dense,
            log_z,
            norm_passes: AtomicU64::new(0),
        })
    }

    /// Build from row counts (the empirical distribution of a dataset).
    pub fn from_counts(counts: &[usize]) -> Result<Self, DataError> {
        Self::from_weights(counts.iter().map(|&c| c as f64).collect())
    }

    /// Number of universe elements.
    pub fn len(&self) -> usize {
        self.log_w.len()
    }

    /// True when the universe is empty (cannot happen for constructed values).
    pub fn is_empty(&self) -> bool {
        self.log_w.is_empty()
    }

    /// Probability mass at universe index `x`.
    pub fn mass(&self, x: usize) -> f64 {
        self.weights()[x]
    }

    /// The normalized weight vector.
    ///
    /// Materialized lazily: after a run of [`Histogram::mw_update`] calls,
    /// the first read performs one log-sum-exp pass (subtracting the
    /// maintained maximum, so it cannot overflow) and caches the result.
    pub fn weights(&self) -> &[f64] {
        self.dense.get_or_init(|| {
            self.norm_passes.fetch_add(1, Ordering::Relaxed);
            let mut dense = vec![0.0; self.log_w.len()];
            let log_w = &self.log_w;
            let log_max = self.log_max;
            let total = par::fold_chunks_mut(
                &mut dense,
                |offset, chunk| {
                    let mut sum = 0.0;
                    for (d, &lw) in chunk.iter_mut().zip(&log_w[offset..]) {
                        let v = (lw - log_max).exp();
                        *d = v;
                        sum += v;
                    }
                    sum
                },
                |a, b| a + b,
            );
            debug_assert!(total > 0.0 && total.is_finite());
            // The same pass yields the log-sum-exp: memoize it so a later
            // `log_z`/`log_mass` read costs nothing extra.
            let _ = self.log_z.set(total.ln());
            let inv = 1.0 / total;
            par::for_each_chunk_mut(&mut dense, |_, chunk| {
                for d in chunk.iter_mut() {
                    *d *= inv;
                }
            });
            dense
        })
    }

    /// The memoized log-sum-exp `ln Σ_x exp(log_w[x] − log_max)` — the
    /// normalizer of the log-domain representation, without materializing
    /// the dense weight vector.
    ///
    /// Computed at most once between updates: a preceding [`Histogram::weights`]
    /// read already seeded it (one fused pass covers both), and a standalone
    /// call runs one allocation-free sweep. Repeated reads of any mix of
    /// `weights`/`log_z`/`log_mass` between updates never re-run
    /// normalization (see [`Histogram::normalization_passes`]).
    pub fn log_z(&self) -> f64 {
        *self.log_z.get_or_init(|| {
            self.norm_passes.fetch_add(1, Ordering::Relaxed);
            let log_max = self.log_max;
            let total = par::fold_chunks(
                &self.log_w,
                |_, chunk| chunk.iter().map(|&lw| (lw - log_max).exp()).sum::<f64>(),
                |a: f64, b| a + b,
            );
            debug_assert!(total > 0.0 && total.is_finite());
            total.ln()
        })
    }

    /// Normalized log-probability `ln D(x)` at universe index `x`
    /// (`-∞` for zero mass), evaluated from the log-domain state without
    /// materializing the dense weights.
    pub fn log_mass(&self, x: usize) -> f64 {
        self.log_w[x] - self.log_max - self.log_z()
    }

    /// Unnormalized log-weight at universe index `x` (the point-evaluation
    /// form of [`Histogram::log_weights`]).
    pub fn log_weight(&self, x: usize) -> f64 {
        self.log_w[x]
    }

    /// Number of Θ(|X|) normalization sweeps performed so far — regression
    /// counter for the memoization contract: between two updates at most
    /// one dense pass and at most one standalone log-sum-exp pass ever run,
    /// no matter how many reads happen.
    pub fn normalization_passes(&self) -> u64 {
        self.norm_passes.load(Ordering::Relaxed)
    }

    /// The raw (unnormalized) log-weights; `-∞` encodes zero mass.
    pub fn log_weights(&self) -> &[f64] {
        &self.log_w
    }

    /// Inner product `⟨q, D⟩` — the value of the linear query `q` on this
    /// histogram (Section 1.2: "a linear query q can be written as ⟨q, D⟩").
    ///
    /// # Panics
    /// Panics when `q.len() != self.len()` (a mismatched query vector is a
    /// programming error, checked in all build profiles).
    pub fn dot(&self, q: &[f64]) -> f64 {
        let w = self.weights();
        assert_eq!(
            q.len(),
            w.len(),
            "query vector length must match the universe size"
        );
        w.iter().zip(q).map(|(w, v)| w * v).sum()
    }

    /// Total variation flavored `‖D − D'‖₁`.
    ///
    /// # Panics
    /// Panics when the histograms have different universe sizes.
    pub fn l1_distance(&self, other: &Histogram) -> f64 {
        let (a, b) = (self.weights(), other.weights());
        assert_eq!(a.len(), b.len(), "histograms must share a universe size");
        a.iter().zip(b).map(|(a, b)| (a - b).abs()).sum()
    }

    /// Euclidean distance between weight vectors.
    ///
    /// # Panics
    /// Panics when the histograms have different universe sizes.
    pub fn l2_distance(&self, other: &Histogram) -> f64 {
        let (a, b) = (self.weights(), other.weights());
        assert_eq!(a.len(), b.len(), "histograms must share a universe size");
        a.iter()
            .zip(b)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Relative entropy `KL(other ‖ self) = Σ_x other(x) ln(other(x)/self(x))`.
    ///
    /// Returns [`f64::INFINITY`] when `other` puts mass on a point where
    /// `self` has none (disjoint or partially disjoint supports) — the
    /// mathematically correct value, rather than a huge-but-finite artifact
    /// of clamping the denominator.
    ///
    /// This is the potential function in the standard multiplicative weights
    /// analysis (Lemma 3.4): each update with `⟨u_t, D̂_t − D⟩ ≥ α/4` shrinks
    /// `KL(D ‖ D̂_t)` by `Ω(α²/S²)`, which is what bounds the round count `T`.
    ///
    /// # Panics
    /// Panics when the histograms have different universe sizes.
    pub fn kl_from(&self, other: &Histogram) -> f64 {
        let (q, p) = (self.weights(), other.weights());
        assert_eq!(q.len(), p.len(), "histograms must share a universe size");
        let mut kl = 0.0;
        for (p, q) in p.iter().zip(q) {
            if *p > 0.0 {
                if *q <= 0.0 {
                    return f64::INFINITY;
                }
                kl += p * (p / q).ln();
            }
        }
        kl.max(0.0)
    }

    /// Shannon entropy in nats.
    pub fn entropy(&self) -> f64 {
        -self
            .weights()
            .iter()
            .filter(|&&w| w > 0.0)
            .map(|&w| w * w.ln())
            .sum::<f64>()
    }

    /// The multiplicative weights update of Figure 3, its sign fixed by
    /// Claim 3.5's payoff as explained below:
    ///
    /// `D̂_{t+1}(x) ∝ exp(−η·u(x)) · D̂_t(x)`
    ///
    /// Points where the payoff `u(x)` is large — i.e. where the hypothesis
    /// overweights relative to the true data (Claim 3.5 gives
    /// `⟨u, D̂⟩ ≥ 0 ≥ ⟨u, D⟩`) — lose mass.
    ///
    /// In the log-domain representation this is the single fused pass
    /// `log_w[x] -= η·u(x)` (tracking the new maximum as it goes): no
    /// exponentiation, no renormalization sweep. Normalization happens
    /// lazily on the next [`Histogram::weights`] read, centered at the
    /// maximum for overflow safety. Chunked across cores.
    pub fn mw_update(&mut self, u: &[f64], eta: f64) -> Result<(), DataError> {
        if u.len() != self.log_w.len() {
            return Err(DataError::DimensionMismatch {
                got: u.len(),
                expected: self.log_w.len(),
            });
        }
        if !eta.is_finite() || eta < 0.0 {
            return Err(DataError::InvalidParameter("eta must be finite and >= 0"));
        }
        // Validate before mutating so errors leave the histogram unchanged.
        // Checking the product `η·u[x]` (not just `u[x]`) also rejects
        // finite payoffs whose scaled step overflows to ±∞, which would
        // corrupt log-weights the dense representation handled finitely.
        // Summing a per-element indicator (instead of `all(is_finite)`)
        // avoids the short-circuit branch, so the scan vectorizes.
        let bad = par::fold_chunks(
            u,
            |_, chunk| {
                chunk
                    .iter()
                    .map(|v| u32::from(!(eta * v).is_finite()))
                    .sum::<u32>()
            },
            |a, b| a + b,
        );
        if bad != 0 {
            return Err(DataError::InvalidWeights(
                "non-finite payoff or overflowing eta*payoff step",
            ));
        }
        let u_ref = &u;
        self.log_max = par::fold_chunks_mut(
            &mut self.log_w,
            |offset, chunk| {
                // Four independent max accumulators break the serial `max`
                // dependency chain, letting the fused subtract-and-track
                // pass run at SIMD/memory speed.
                let us = &u_ref[offset..offset + chunk.len()];
                let mut maxs = [f64::NEG_INFINITY; 4];
                let mut lanes_w = chunk.chunks_exact_mut(4);
                let mut lanes_u = us.chunks_exact(4);
                for (w4, u4) in (&mut lanes_w).zip(&mut lanes_u) {
                    for lane in 0..4 {
                        // -inf - finite stays -inf: zero mass is absorbing.
                        let v = w4[lane] - eta * u4[lane];
                        w4[lane] = v;
                        maxs[lane] = maxs[lane].max(v);
                    }
                }
                let mut chunk_max = maxs[0].max(maxs[1]).max(maxs[2].max(maxs[3]));
                for (lw, &ux) in lanes_w.into_remainder().iter_mut().zip(lanes_u.remainder()) {
                    let v = *lw - eta * ux;
                    *lw = v;
                    chunk_max = chunk_max.max(v);
                }
                chunk_max
            },
            f64::max,
        );
        if self.log_max.abs() > REBASE_LIMIT {
            let shift = self.log_max;
            par::for_each_chunk_mut(&mut self.log_w, |_, chunk| {
                for lw in chunk.iter_mut() {
                    *lw -= shift;
                }
            });
            self.log_max = 0.0;
        }
        // Invalidate the caches by replacing the locks. The next `weights()`
        // read allocates a fresh dense vector; a reusable buffer would avoid
        // that Θ(|X|) alloc but needs interior mutability beyond `OnceLock`
        // (weights() takes &self), and update rounds are bounded by the
        // privacy budget T, so the allocation is not a steady-state cost.
        self.dense = OnceLock::new();
        self.log_z = OnceLock::new();
        Ok(())
    }

    /// Draw a universe index according to this distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let r: f64 = rng.random();
        let mut acc = 0.0;
        for (i, &w) in self.weights().iter().enumerate() {
            acc += w;
            if r < acc {
                return i;
            }
        }
        self.len() - 1
    }

    /// Draw `n` indices i.i.d. from this distribution.
    pub fn sample_many<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<usize> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Expected value of `f(x)` over the histogram, evaluating `f` on indices.
    pub fn expect(&self, mut f: impl FnMut(usize) -> f64) -> f64 {
        self.weights()
            .iter()
            .enumerate()
            .map(|(i, &w)| if w > 0.0 { w * f(i) } else { 0.0 })
            .sum()
    }
}

impl PartialEq for Histogram {
    /// Histograms are equal when they represent the same distribution
    /// (compared on normalized weights, not on the internal log state).
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.weights() == other.weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    /// The dense-domain reference update the log-domain path must match:
    /// exponentiate (centered at min for stability), multiply, renormalize.
    fn mw_update_reference(weights: &mut [f64], u: &[f64], eta: f64) {
        let min_u = u.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut total = 0.0;
        for (w, &ux) in weights.iter_mut().zip(u) {
            *w *= (-eta * (ux - min_u)).exp();
            total += *w;
        }
        for w in weights.iter_mut() {
            *w /= total;
        }
    }

    #[test]
    fn uniform_is_normalized() {
        let h = Histogram::uniform(10).unwrap();
        assert!(approx(h.weights().iter().sum::<f64>(), 1.0, 1e-12));
        assert!(approx(h.mass(3), 0.1, 1e-12));
    }

    #[test]
    fn from_weights_normalizes_and_validates() {
        let h = Histogram::from_weights(vec![1.0, 3.0]).unwrap();
        assert!(approx(h.mass(0), 0.25, 1e-12));
        assert!(Histogram::from_weights(vec![]).is_err());
        assert!(Histogram::from_weights(vec![1.0, -0.5]).is_err());
        assert!(Histogram::from_weights(vec![0.0, 0.0]).is_err());
        assert!(Histogram::from_weights(vec![f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn from_counts_matches_empirical_distribution() {
        let h = Histogram::from_counts(&[2, 0, 6]).unwrap();
        assert!(approx(h.mass(0), 0.25, 1e-12));
        assert!(approx(h.mass(1), 0.0, 1e-12));
        assert!(approx(h.mass(2), 0.75, 1e-12));
        assert_eq!(h.log_weights()[1], f64::NEG_INFINITY);
    }

    #[test]
    fn dot_computes_linear_query_value() {
        let h = Histogram::from_counts(&[1, 1, 2]).unwrap();
        let q = vec![1.0, 0.0, 0.5];
        assert!(approx(h.dot(&q), 0.25 + 0.25, 1e-12));
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn dot_panics_on_length_mismatch() {
        let h = Histogram::uniform(3).unwrap();
        let _ = h.dot(&[1.0, 2.0]);
    }

    #[test]
    fn distances_are_metrics_on_simple_cases() {
        let a = Histogram::from_counts(&[1, 0]).unwrap();
        let b = Histogram::from_counts(&[0, 1]).unwrap();
        assert!(approx(a.l1_distance(&b), 2.0, 1e-12));
        assert!(approx(a.l1_distance(&a), 0.0, 1e-12));
        assert!(approx(a.l2_distance(&b), 2f64.sqrt(), 1e-12));
    }

    #[test]
    #[should_panic(expected = "share a universe size")]
    fn l1_distance_panics_on_size_mismatch() {
        let a = Histogram::uniform(3).unwrap();
        let b = Histogram::uniform(4).unwrap();
        let _ = a.l1_distance(&b);
    }

    #[test]
    #[should_panic(expected = "share a universe size")]
    fn l2_distance_panics_on_size_mismatch() {
        let a = Histogram::uniform(3).unwrap();
        let b = Histogram::uniform(4).unwrap();
        let _ = a.l2_distance(&b);
    }

    #[test]
    #[should_panic(expected = "share a universe size")]
    fn kl_panics_on_size_mismatch() {
        let a = Histogram::uniform(3).unwrap();
        let b = Histogram::uniform(4).unwrap();
        let _ = a.kl_from(&b);
    }

    #[test]
    fn adjacent_dataset_histograms_are_close() {
        // Swapping one row of an n-row dataset moves 1/n of mass: L1 <= 2/n.
        let n = 50usize;
        let mut c1 = vec![0usize; 4];
        c1[0] = n;
        let mut c2 = c1.clone();
        c2[0] -= 1;
        c2[3] += 1;
        let h1 = Histogram::from_counts(&c1).unwrap();
        let h2 = Histogram::from_counts(&c2).unwrap();
        assert!(approx(h1.l1_distance(&h2), 2.0 / n as f64, 1e-12));
    }

    #[test]
    fn kl_is_zero_iff_equal_and_positive_otherwise() {
        let a = Histogram::from_counts(&[1, 1, 1, 1]).unwrap();
        let b = Histogram::from_counts(&[4, 1, 1, 2]).unwrap();
        assert!(approx(a.kl_from(&a), 0.0, 1e-12));
        assert!(a.kl_from(&b) > 0.0);
    }

    #[test]
    fn kl_is_infinite_for_disjoint_supports() {
        // q (self) has no mass where p (other) does: KL(p || q) = +inf,
        // reported exactly rather than as a huge finite number.
        let q = Histogram::from_counts(&[1, 1, 0, 0]).unwrap();
        let p = Histogram::from_counts(&[0, 0, 1, 1]).unwrap();
        assert_eq!(q.kl_from(&p), f64::INFINITY);
        // p-mass on a single point outside q's support is still infinite...
        let full = Histogram::from_counts(&[1, 1, 1, 1]).unwrap();
        let partial = Histogram::from_counts(&[1, 0, 1, 1]).unwrap();
        assert_eq!(partial.kl_from(&full), f64::INFINITY);
        // ...while the reverse (p's support contained in q's) is finite.
        assert!(full.kl_from(&partial).is_finite());
    }

    #[test]
    fn entropy_of_uniform_is_log_size() {
        let h = Histogram::uniform(16).unwrap();
        assert!(approx(h.entropy(), (16f64).ln(), 1e-12));
    }

    #[test]
    fn mw_update_downweights_high_payoff_points() {
        let mut h = Histogram::uniform(4).unwrap();
        let u = vec![1.0, 0.0, 0.0, -1.0];
        h.mw_update(&u, 0.5).unwrap();
        assert!(h.mass(0) < 0.25);
        assert!(h.mass(3) > 0.25);
        assert!(approx(h.weights().iter().sum::<f64>(), 1.0, 1e-12));
    }

    #[test]
    fn mw_update_with_zero_eta_is_identity() {
        let mut h = Histogram::from_counts(&[1, 2, 3]).unwrap();
        let before = h.clone();
        h.mw_update(&[5.0, -2.0, 0.0], 0.0).unwrap();
        assert!(h.l1_distance(&before) < 1e-12);
    }

    #[test]
    fn mw_update_moves_hypothesis_toward_target_in_kl() {
        // The MW potential argument: if <u, Dhat - D> is large, the update
        // shrinks KL(D || Dhat). Verify on a concrete instance.
        let target = Histogram::from_counts(&[8, 1, 1, 1]).unwrap();
        let mut hyp = Histogram::uniform(4).unwrap();
        // u positive where hyp overweights relative to target.
        let u: Vec<f64> = (0..4).map(|i| hyp.mass(i) - target.mass(i)).collect();
        let gap: f64 = u
            .iter()
            .zip(0..4)
            .map(|(v, i)| v * (hyp.mass(i) - target.mass(i)))
            .sum();
        assert!(gap > 0.0);
        let before = hyp.kl_from(&target);
        hyp.mw_update(&u, 1.0).unwrap();
        let after = hyp.kl_from(&target);
        assert!(after < before, "KL should shrink: {before} -> {after}");
    }

    #[test]
    fn mw_update_validates_inputs() {
        let mut h = Histogram::uniform(3).unwrap();
        assert!(h.mw_update(&[1.0, 2.0], 0.1).is_err());
        assert!(h.mw_update(&[1.0, 2.0, f64::NAN], 0.1).is_err());
        assert!(h.mw_update(&[1.0, 2.0, 3.0], f64::NAN).is_err());
        assert!(h.mw_update(&[1.0, 2.0, 3.0], -1.0).is_err());
        // A failed update leaves the histogram untouched.
        assert_eq!(h, Histogram::uniform(3).unwrap());
    }

    #[test]
    fn mw_update_rejects_overflowing_eta_payoff_product() {
        // Finite eta and finite payoffs whose product overflows to ±∞ must
        // error (the dense representation handled this input finitely, so
        // silently corrupting log-weights is not acceptable) and leave the
        // histogram unchanged.
        let mut h = Histogram::uniform(2).unwrap();
        assert!(h.mw_update(&[1e200, -1e200], 1e200).is_err());
        assert_eq!(h, Histogram::uniform(2).unwrap());
        assert!(h.weights().iter().all(|w| w.is_finite()));
    }

    #[test]
    fn mw_update_is_numerically_stable_for_large_payoffs() {
        let mut h = Histogram::uniform(3).unwrap();
        h.mw_update(&[1e4, -1e4, 0.0], 1.0).unwrap();
        let s: f64 = h.weights().iter().sum();
        assert!(approx(s, 1.0, 1e-9));
        assert!(h.mass(1) > 0.999);
    }

    #[test]
    fn log_domain_matches_dense_reference_across_update_runs() {
        // Several consecutive updates with the weights only read at the end
        // (the lazy path's fast case) must agree with the eager dense
        // reference to near machine precision.
        let mut rng = StdRng::seed_from_u64(77);
        let m = 257usize;
        let raw: Vec<f64> = (0..m).map(|_| rng.random::<f64>() + 1e-3).collect();
        let mut h = Histogram::from_weights(raw.clone()).unwrap();
        let mut reference: Vec<f64> = h.weights().to_vec();
        for step in 0..12 {
            let eta = 0.05 + 0.1 * step as f64;
            let u: Vec<f64> = (0..m).map(|_| rng.random::<f64>() * 4.0 - 2.0).collect();
            h.mw_update(&u, eta).unwrap();
            mw_update_reference(&mut reference, &u, eta);
        }
        for (a, b) in h.weights().iter().zip(&reference) {
            assert!(approx(*a, *b, 1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn zero_mass_bins_stay_zero_through_updates() {
        let mut h = Histogram::from_counts(&[3, 0, 1]).unwrap();
        h.mw_update(&[-5.0, -500.0, 2.0], 1.0).unwrap();
        assert_eq!(h.mass(1), 0.0);
        assert!(approx(h.weights().iter().sum::<f64>(), 1.0, 1e-12));
    }

    #[test]
    fn extreme_update_runs_rebase_instead_of_overflowing() {
        let mut h = Histogram::uniform(2).unwrap();
        // Push log-weights past the rebase limit; masses must stay finite
        // and normalized.
        for _ in 0..5 {
            h.mw_update(&[-1e12, 1e12], 1.0).unwrap();
        }
        let w = h.weights();
        assert!(w.iter().all(|v| v.is_finite()));
        assert!(approx(w.iter().sum::<f64>(), 1.0, 1e-12));
        assert!(h.mass(0) > 0.999);
    }

    #[test]
    fn sampling_tracks_masses() {
        let h = Histogram::from_counts(&[9, 1]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let draws = h.sample_many(20_000, &mut rng);
        let ones = draws.iter().filter(|&&i| i == 1).count() as f64 / 20_000.0;
        assert!(approx(ones, 0.1, 0.02), "empirical {ones}");
    }

    #[test]
    fn repeated_reads_between_updates_run_one_normalization_pass() {
        // Constructors pre-seed the caches: zero passes for any read mix.
        let mut h = Histogram::from_counts(&[1, 2, 3, 4]).unwrap();
        let _ = (h.weights(), h.mass(2), h.dot(&[1.0; 4]), h.entropy());
        let _ = (h.log_z(), h.log_mass(1));
        assert_eq!(h.normalization_passes(), 0);

        // After an update, the first dense read pays exactly one pass and
        // seeds log_z for free; any further reads are cache hits.
        h.mw_update(&[0.5, -0.5, 0.0, 0.25], 0.3).unwrap();
        let _ = h.weights();
        assert_eq!(h.normalization_passes(), 1);
        let _ = (
            h.weights(),
            h.mass(0),
            h.log_z(),
            h.log_mass(3),
            h.entropy(),
        );
        let _ = h.l1_distance(&h.clone());
        assert_eq!(h.normalization_passes(), 1);

        // A standalone log_z read after an update costs one allocation-free
        // pass; repeating it stays memoized. The later dense materialization
        // is its own (single) pass.
        h.mw_update(&[0.1, 0.1, -0.2, 0.0], 1.0).unwrap();
        let _ = (h.log_z(), h.log_z(), h.log_mass(0), h.log_mass(1));
        assert_eq!(h.normalization_passes(), 2);
        let _ = (h.weights(), h.weights());
        assert_eq!(h.normalization_passes(), 3);
    }

    #[test]
    fn log_mass_matches_dense_mass() {
        let mut h = Histogram::from_counts(&[3, 0, 5, 2]).unwrap();
        h.mw_update(&[1.0, -2.0, 0.5, 0.0], 0.7).unwrap();
        for x in 0..4 {
            let m = h.mass(x);
            if m == 0.0 {
                assert_eq!(h.log_mass(x), f64::NEG_INFINITY);
            } else {
                assert!(approx(h.log_mass(x), m.ln(), 1e-12), "bin {x}");
            }
        }
        // log_weight is the raw (unnormalized) log-domain entry.
        assert_eq!(h.log_weight(1), f64::NEG_INFINITY);
        assert_eq!(h.log_weight(0), h.log_weights()[0]);
    }

    #[test]
    fn clone_preserves_caches_and_counter() {
        let mut h = Histogram::uniform(8).unwrap();
        h.mw_update(&[1.0; 8], 0.1).unwrap();
        let _ = h.weights();
        let c = h.clone();
        assert_eq!(c.normalization_passes(), h.normalization_passes());
        let _ = (c.weights(), c.log_z());
        assert_eq!(c.normalization_passes(), h.normalization_passes());
    }

    #[test]
    fn expect_weights_function_values() {
        let h = Histogram::from_counts(&[1, 3]).unwrap();
        let v = h.expect(|i| i as f64);
        assert!(approx(v, 0.75, 1e-12));
    }
}
