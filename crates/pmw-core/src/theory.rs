//! Every quantitative formula from the paper, in one auditable place.
//!
//! The mechanism derives its round count and learning rate from here, and
//! this module's tests check Lemma 3.4's regret bound against measured
//! multiplicative-weights runs. Constants follow the paper exactly where it
//! gives them (Figure 3, Theorem 3.8, Theorem 3.1); the `Õ(·)` rows of
//! Table 1 are implemented with constant 1 and serve as *shape* predictors.

/// The Figure-3 round bound `T = 64·S²·log|X| / α²`.
pub fn rounds_bound(scale_s: f64, log_universe: f64, alpha: f64) -> f64 {
    64.0 * scale_s * scale_s * log_universe / (alpha * alpha)
}

/// The multiplicative-weights learning rate. The paper writes
/// `η = √(log|X|/T)`; we use the `1/S`-normalized variant
/// `η = √(log|X|/T)/S` under which Lemma 3.4's bound
/// `2S√(log|X|/T)` holds verbatim for payoffs in `[−S, S]` (the
/// unnormalized rate only gives it for `S = 1`). At the Figure-3 `T` both
/// agree up to the explicit `1/S`: `η = α/(8S²)·S = α/(8S)`.
pub fn learning_rate(scale_s: f64, log_universe: f64, rounds: f64) -> f64 {
    (log_universe / rounds).sqrt() / scale_s
}

/// Lemma 3.4's average-regret bound `2S·√(log|X|/T)`.
pub fn mw_regret_bound(scale_s: f64, log_universe: f64, rounds: f64) -> f64 {
    2.0 * scale_s * (log_universe / rounds).sqrt()
}

/// Theorem 3.8's dataset-size requirement (second term of the max; the
/// first is the oracle's own `n'`):
/// `n ≥ 4096·S²·√(log|X|·log(4/δ))·log(8k/β) / (ε·α²)`.
pub fn pmw_required_n(
    scale_s: f64,
    log_universe: f64,
    k: usize,
    alpha: f64,
    beta: f64,
    epsilon: f64,
    delta: f64,
) -> f64 {
    4096.0
        * scale_s
        * scale_s
        * (log_universe * (4.0 / delta).ln()).sqrt()
        * (8.0 * k as f64 / beta).ln()
        / (epsilon * alpha * alpha)
}

/// Theorem 3.1's sparse-vector requirement:
/// `n ≥ 256·S·√(T·log(2/δ))·log(4k/β) / (ε·α)`.
pub fn sv_required_n(
    scale_s: f64,
    rounds: f64,
    k: usize,
    alpha: f64,
    beta: f64,
    epsilon: f64,
    delta: f64,
) -> f64 {
    256.0 * scale_s * (rounds * (2.0 / delta).ln()).sqrt() * (4.0 * k as f64 / beta).ln()
        / (epsilon * alpha)
}

/// Table 1 row 1 — linear queries, `k` of them (shape, constant 1):
/// `n = √(log|X|)·log k / α²` (for `ε` constant; divide by `ε` otherwise).
pub fn table1_linear(log_universe: f64, k: usize, alpha: f64, epsilon: f64) -> f64 {
    log_universe.sqrt() * (k.max(2) as f64).ln() / (alpha * alpha * epsilon)
}

/// Table 1 row 2 — Lipschitz, `d`-bounded CM queries:
/// `n = max{ √(d·log|X|)/α², log k·√(log|X|)/α² } / ε`.
pub fn table1_lipschitz(d: usize, log_universe: f64, k: usize, alpha: f64, epsilon: f64) -> f64 {
    let a2 = alpha * alpha;
    let term_oracle = ((d as f64) * log_universe).sqrt() / a2;
    let term_pmw = (k.max(2) as f64).ln() * log_universe.sqrt() / a2;
    term_oracle.max(term_pmw) / epsilon
}

/// Table 1 row 3 — Lipschitz, `d`-bounded **UGLM** queries:
/// `n = max{ √(log|X|)/α³, log k·√(log|X|)/α² } / ε` — no `d`.
pub fn table1_uglm(log_universe: f64, k: usize, alpha: f64, epsilon: f64) -> f64 {
    let term_oracle = log_universe.sqrt() / (alpha * alpha * alpha);
    let term_pmw = (k.max(2) as f64).ln() * log_universe.sqrt() / (alpha * alpha);
    term_oracle.max(term_pmw) / epsilon
}

/// Table 1 row 4 — `σ`-strongly convex queries:
/// `n = max{ √(d·log|X|)/(σ·α³)^(1/2)... }` — the paper's stated form is
/// `max{ √d·√(log|X|)/(√σ·α^{3/2}), log k·√(log|X|)/α² } / ε`.
pub fn table1_strongly_convex(
    d: usize,
    log_universe: f64,
    k: usize,
    sigma: f64,
    alpha: f64,
    epsilon: f64,
) -> f64 {
    let term_oracle = (d as f64).sqrt() * log_universe.sqrt() / (sigma.sqrt() * alpha.powf(1.5));
    let term_pmw = (k.max(2) as f64).ln() * log_universe.sqrt() / (alpha * alpha);
    term_oracle.max(term_pmw) / epsilon
}

/// Section 4.1's comparison: with composition, answering `k` queries costs a
/// factor `≈ √k` over one query; with PMW it costs
/// `≈ S·√(log|X|)·log k / α`. PMW wins once `√k` exceeds that factor. This
/// returns the smallest power-of-two `k` past the crossover (searching up to
/// `2^40`).
pub fn crossover_k(scale_s: f64, log_universe: f64, alpha: f64) -> u64 {
    let pmw_factor = |k: f64| scale_s * log_universe.sqrt() * k.max(2.0).ln() / alpha;
    let mut k = 2u64;
    while k < (1 << 40) {
        if (k as f64).sqrt() > pmw_factor(k as f64) {
            return k;
        }
        k *= 2;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_bound_matches_figure3() {
        // T = 64 * S^2 * log|X| / alpha^2 at S=2, |X|=256, alpha=0.5.
        let t = rounds_bound(2.0, (256f64).ln(), 0.5);
        let expect = 64.0 * 4.0 * (256f64).ln() / 0.25;
        assert!((t - expect).abs() < 1e-9);
    }

    #[test]
    fn learning_rate_times_scale_gives_regret_bound() {
        let (s, logx, t) = (2.0, 8.0, 1000.0);
        let eta = learning_rate(s, logx, t);
        // At the optimal eta the regret bound is 2S*sqrt(log|X|/T).
        let bound = mw_regret_bound(s, logx, t);
        assert!((eta * s * s * 2.0 - bound).abs() < 1e-12);
    }

    #[test]
    fn adversarial_mw_regret_stays_within_lemma_3_4() {
        // Lemma 3.4: for payoffs u_t in [-S, S]^X, MW at
        // eta = learning_rate(S, ln|X|, T) has average regret
        // (1/T)·Σ_t <u_t, D̂_t - D> <= 2S·sqrt(ln|X|/T). Each round plays
        // the payoff that maximizes its own term: +S where the hypothesis
        // overweights the target, -S where it underweights.
        let s = 1.0;
        for log2_x in [4usize, 8] {
            let m = 1usize << log2_x;
            let mut weights = vec![0.1 / m as f64; m];
            weights[m / 3] = 0.9;
            let target = pmw_data::Histogram::from_weights(weights).unwrap();
            let log_x = (m as f64).ln();
            for rounds in [16usize, 256] {
                let eta = learning_rate(s, log_x, rounds as f64);
                let mut hyp = pmw_data::Histogram::uniform(m).unwrap();
                let mut regret = 0.0;
                for _ in 0..rounds {
                    let (h, d) = (hyp.weights(), target.weights());
                    let u: Vec<f64> = (0..m).map(|x| if h[x] >= d[x] { s } else { -s }).collect();
                    regret += (0..m).map(|x| u[x] * (h[x] - d[x])).sum::<f64>();
                    hyp.mw_update(&u, eta).unwrap();
                }
                let measured = regret / rounds as f64;
                let bound = mw_regret_bound(s, log_x, rounds as f64);
                assert!(
                    measured > 0.0 && measured <= bound,
                    "|X| = {m}, T = {rounds}: regret {measured} vs bound {bound}"
                );
            }
        }
    }

    #[test]
    fn at_figure3_rounds_regret_bound_is_quarter_alpha() {
        // The whole point of the T choice: 2S*sqrt(log|X|/T) = alpha/4.
        let (s, logx, alpha) = (2.0, (1024f64).ln(), 0.3);
        let t = rounds_bound(s, logx, alpha);
        let bound = mw_regret_bound(s, logx, t);
        assert!((bound - alpha / 4.0).abs() < 1e-9, "{bound}");
    }

    #[test]
    fn required_n_scales_as_stated() {
        let base = pmw_required_n(2.0, 8.0, 100, 0.2, 0.05, 1.0, 1e-6);
        // Halving alpha quadruples n.
        let half_alpha = pmw_required_n(2.0, 8.0, 100, 0.1, 0.05, 1.0, 1e-6);
        assert!((half_alpha / base - 4.0).abs() < 1e-9);
        // Squaring k doubles the log factor — i.e. n grows only ~logarithmically.
        let more_k = pmw_required_n(2.0, 8.0, 10_000, 0.2, 0.05, 1.0, 1e-6);
        assert!(more_k / base < 2.0);
        // Doubling epsilon halves n.
        let more_eps = pmw_required_n(2.0, 8.0, 100, 0.2, 0.05, 2.0, 1e-6);
        assert!((base / more_eps - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sv_required_n_scales_with_sqrt_rounds() {
        let n1 = sv_required_n(2.0, 100.0, 1000, 0.2, 0.05, 1.0, 1e-6);
        let n2 = sv_required_n(2.0, 400.0, 1000, 0.2, 0.05, 1.0, 1e-6);
        assert!((n2 / n1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table1_rows_have_documented_shapes() {
        let logx = (4096f64).ln();
        // Row 1: log k dependence.
        let a = table1_linear(logx, 100, 0.1, 1.0);
        let b = table1_linear(logx, 10_000, 0.1, 1.0);
        assert!((b / a - 2.0).abs() < 1e-9, "log k doubling");
        // Row 2: sqrt(d) in the oracle-dominated regime (small k).
        let c = table1_lipschitz(4, logx, 2, 0.1, 1.0);
        let d = table1_lipschitz(16, logx, 2, 0.1, 1.0);
        assert!((d / c - 2.0).abs() < 1e-9, "sqrt d doubling");
        // Row 3: no d anywhere; 1/alpha^3 oracle term for small k.
        let e = table1_uglm(logx, 2, 0.2, 1.0);
        let f = table1_uglm(logx, 2, 0.1, 1.0);
        assert!((f / e - 8.0).abs() < 1e-9, "alpha^-3 scaling");
        // Row 4: 1/sqrt(sigma) scaling in the oracle-dominated regime
        // (large d, small alpha so the oracle term wins the max).
        let g = table1_strongly_convex(100, logx, 2, 1.0, 0.05, 1.0);
        let h = table1_strongly_convex(100, logx, 2, 0.25, 0.05, 1.0);
        assert!((h / g - 2.0).abs() < 1e-9, "sigma^-1/2 scaling: {}", h / g);
    }

    #[test]
    fn table1_pmw_term_dominates_for_large_k() {
        let logx = (256f64).ln();
        // For huge k, rows 2-4 all converge to the same PMW term.
        let k = 1 << 30;
        let r2 = table1_lipschitz(4, logx, k, 0.1, 1.0);
        let r3 = table1_uglm(logx, k, 0.1, 1.0);
        let r4 = table1_strongly_convex(4, logx, k, 0.5, 0.1, 1.0);
        assert!((r2 - r3).abs() < 1e-9);
        assert!((r2 - r4).abs() < 1e-9);
    }

    #[test]
    fn crossover_k_is_finite_and_monotone_in_alpha() {
        let k_tight = crossover_k(2.0, (1024f64).ln(), 0.5);
        let k_loose = crossover_k(2.0, (1024f64).ln(), 0.05);
        assert!(k_tight < k_loose, "{k_tight} vs {k_loose}");
        assert!(k_tight > 1);
    }
}
