//! Pool-health monitoring for the Monte-Carlo sketch.
//!
//! A reused importance-sampling pool degrades in a measurable way: as the
//! hypothesis drifts away from the uniform proposal, the normalized pool
//! weights concentrate on ever fewer candidates, the **effective sample
//! size** `ESS = 1/Σŵ²` collapses toward 1, and the claimed concentration
//! radii blow up. [`PoolHealth`] is the per-round snapshot of those
//! signals, computed in one `O(m)` pass over the cached pool log-weights.
//! [`SampledBackend::health`](crate::SampledBackend::health) returns it on
//! demand, and a backend with a live probe gauges it after every recorded
//! round. Nothing acts on it: a pool refreshes only on its fixed cadence
//! ([`SampledConfig::resample_every`](crate::SampledConfig::resample_every)),
//! and a collapsing ESS shows up in every later read's claimed radius.
//!
//! The constructor is deliberately paranoid: pools whose weights have all
//! underflowed to zero (or been corrupted to NaN) must yield a *sane*
//! snapshot — `ESS` clamped to `[1, m]`, max-weight share clamped to
//! `[1/m, 1]`, never NaN, never a panic — because the health monitor runs
//! exactly when the pool is at its sickest.

/// A point-in-time health snapshot of a Monte-Carlo pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolHealth {
    /// Pool size `m`.
    pub pool_size: usize,
    /// Effective sample size `1/Σŵ²` of the normalized pool weights,
    /// clamped to `[1, m]`. A degenerate pool (all weights underflowed or
    /// non-finite) reports the pessimistic floor `1`.
    pub ess: f64,
    /// `ess / m` — the fraction of the pool still effectively
    /// contributing, in `[1/m, 1]`.
    pub ess_fraction: f64,
    /// Largest normalized weight `max_i ŵ_i`, clamped to `[1/m, 1]`: how
    /// much of every estimate rides on a single candidate. `1` means the
    /// pool has collapsed onto one point.
    pub max_weight_share: f64,
    /// The drift envelope `Σ_r η_r·S_r` accumulated since the pool was
    /// last refreshed — the consecutive-round drift the current pool has
    /// absorbed without redrawing.
    pub drift_bound: f64,
    /// Recorded rounds since the pool was last drawn or refreshed.
    pub rounds_since_refresh: usize,
}

impl PoolHealth {
    /// Compute the snapshot from unnormalized pool log-weights.
    ///
    /// Robustness contract (property-tested): for any non-empty input —
    /// including all-`-inf` (every weight underflowed), `NaN`-corrupted
    /// entries, and values large enough to overflow `exp` — the result
    /// satisfies `ess ∈ [1, m]`, `ess_fraction ∈ [1/m, 1]` and
    /// `max_weight_share ∈ [1/m, 1]`, with no NaN anywhere. Non-finite
    /// log-weights contribute zero mass; if *no* finite mass remains the
    /// pool is reported as fully collapsed (`ess = 1`,
    /// `max_weight_share = 1`).
    pub fn from_log_weights(log_w: &[f64], drift_bound: f64, rounds_since_refresh: usize) -> Self {
        let m = log_w.len().max(1);
        // Shift by the largest *finite* log-weight so exp cannot overflow;
        // non-finite entries (NaN, ±inf) are excluded from the shift and
        // contribute zero mass below.
        let shift = log_w
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        let (mut total, mut total_sq, mut max_w) = (0.0f64, 0.0f64, 0.0f64);
        if shift.is_finite() {
            for &lw in log_w {
                let w = if lw.is_finite() {
                    (lw - shift).exp()
                } else {
                    0.0
                };
                total += w;
                total_sq += w * w;
                max_w = max_w.max(w);
            }
        }
        let degenerate = !(total.is_finite() && total > 0.0 && total_sq > 0.0);
        let (ess, share) = if degenerate {
            // No usable mass anywhere: report full collapse, not NaN.
            (1.0, 1.0)
        } else {
            (
                ((total * total) / total_sq).clamp(1.0, m as f64),
                (max_w / total).clamp(1.0 / m as f64, 1.0),
            )
        };
        Self {
            pool_size: m,
            ess,
            ess_fraction: (ess / m as f64).clamp(1.0 / m as f64, 1.0),
            max_weight_share: share,
            drift_bound: if drift_bound.is_finite() {
                drift_bound.max(0.0)
            } else {
                f64::INFINITY
            },
            rounds_since_refresh,
        }
    }

    /// True when the pool is effectively a single point (ESS at its floor
    /// or one candidate carrying essentially all weight).
    pub fn is_collapsed(&self) -> bool {
        self.ess <= 1.0 + 1e-9 || self.max_weight_share >= 1.0 - 1e-9
    }
}

impl std::fmt::Display for PoolHealth {
    /// One-line health summary, e.g.
    /// `pool 4096: ESS 1024.0 (25.0%), max share 0.3%, drift 1.25, 3 rounds since refresh`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pool {}: ESS {:.1} ({:.1}%), max share {:.1}%, drift {:.4}, {} rounds since refresh{}",
            self.pool_size,
            self.ess,
            self.ess_fraction * 100.0,
            self.max_weight_share * 100.0,
            self.drift_bound,
            self.rounds_since_refresh,
            if self.is_collapsed() {
                " [COLLAPSED]"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_pool_is_maximally_healthy() {
        let h = PoolHealth::from_log_weights(&[0.0; 64], 0.0, 0);
        assert_eq!(h.pool_size, 64);
        assert!((h.ess - 64.0).abs() < 1e-9);
        assert!((h.ess_fraction - 1.0).abs() < 1e-12);
        assert!((h.max_weight_share - 1.0 / 64.0).abs() < 1e-12);
        assert!(!h.is_collapsed());
    }

    #[test]
    fn one_dominant_weight_collapses_the_pool() {
        let mut lw = vec![-100.0; 32];
        lw[7] = 0.0;
        let h = PoolHealth::from_log_weights(&lw, 5.0, 3);
        assert!(h.ess < 1.5, "{}", h.ess);
        assert!(h.max_weight_share > 0.999);
        assert!(h.is_collapsed());
        assert_eq!(h.rounds_since_refresh, 3);
        assert_eq!(h.drift_bound, 5.0);
    }

    #[test]
    fn health_renders_a_one_line_summary() {
        let h = PoolHealth::from_log_weights(&[0.0; 64], 1.25, 3);
        let line = h.to_string();
        assert!(line.contains("pool 64"), "{line}");
        assert!(line.contains("3 rounds since refresh"), "{line}");
        assert!(!line.contains("COLLAPSED"), "{line}");
        assert!(!line.contains('\n'));
        let mut lw = vec![-200.0; 8];
        lw[0] = 0.0;
        let sick = PoolHealth::from_log_weights(&lw, 0.0, 0).to_string();
        assert!(sick.contains("COLLAPSED"), "{sick}");
    }

    #[test]
    fn degenerate_pools_stay_sane() {
        // All underflowed to -inf: no finite mass at all.
        let h = PoolHealth::from_log_weights(&[f64::NEG_INFINITY; 8], 2.0, 1);
        assert_eq!((h.ess, h.max_weight_share), (1.0, 1.0));
        assert!(h.is_collapsed());
        // NaN-corrupted entries contribute nothing, the rest normalize.
        let h = PoolHealth::from_log_weights(&[f64::NAN, 0.0, 0.0], 0.0, 0);
        assert!(h.ess.is_finite() && (1.0..=3.0).contains(&h.ess));
        assert!((1.0 / 3.0..=1.0).contains(&h.max_weight_share));
        // All NaN.
        let h = PoolHealth::from_log_weights(&[f64::NAN; 4], f64::NAN, 0);
        assert_eq!((h.ess, h.max_weight_share), (1.0, 1.0));
        assert!(h.drift_bound.is_infinite());
        // Empty input cannot panic or divide by zero.
        let h = PoolHealth::from_log_weights(&[], 0.0, 0);
        assert_eq!((h.ess, h.pool_size), (1.0, 1));
        // Huge log-weights: the shift keeps exp in range.
        let h = PoolHealth::from_log_weights(&[1e300, 1e300 - 1.0], 0.0, 0);
        assert!(h.ess.is_finite() && h.ess >= 1.0 && h.ess <= 2.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Decode a (selector, raw) pair into a log-weight, mixing plain
        /// values with the pathologies the monitor exists to survive:
        /// ±inf, NaN, underflow, and exp-overflowing magnitudes.
        fn decode_log_weight(sel: u8, raw: f64) -> f64 {
            match sel {
                0 => f64::NEG_INFINITY,
                1 => f64::INFINITY,
                2 => f64::NAN,
                3 => -1e308,
                4 => 1e308,
                5 => 0.0,
                _ => raw,
            }
        }

        proptest! {
            #[test]
            fn health_snapshot_is_always_sane(
                coded in prop::collection::vec((0u8..16, -1e3..1e3f64), 1..128),
                drift_sel in 0u8..8,
                drift_raw in -1e6..1e6f64,
                rounds in 0usize..1000,
            ) {
                let log_w: Vec<f64> = coded
                    .iter()
                    .map(|&(sel, raw)| decode_log_weight(sel, raw))
                    .collect();
                let drift = match drift_sel {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => drift_raw,
                };
                let m = log_w.len();
                let h = PoolHealth::from_log_weights(&log_w, drift, rounds);
                prop_assert_eq!(h.pool_size, m);
                prop_assert!(h.ess.is_finite());
                prop_assert!((1.0..=m as f64).contains(&h.ess), "ess {}", h.ess);
                prop_assert!(
                    (1.0 / m as f64..=1.0).contains(&h.ess_fraction),
                    "ess_fraction {}",
                    h.ess_fraction
                );
                prop_assert!(
                    (1.0 / m as f64..=1.0).contains(&h.max_weight_share),
                    "max_weight_share {}",
                    h.max_weight_share
                );
                prop_assert!(!h.drift_bound.is_nan() && h.drift_bound >= 0.0);
                prop_assert_eq!(h.rounds_since_refresh, rounds);
            }
        }
    }
}
