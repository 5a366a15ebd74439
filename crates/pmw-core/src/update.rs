//! The dual-certificate update vector (Claim 3.5) — the paper's key novelty.
//!
//! Given a private approximate minimizer `θ_t ← A′(D, ℓ_t)` and the
//! hypothesis minimizer `θ̂_t = argmin_θ ℓ(θ; D̂_t)`, Figure 3 forms
//!
//! `u_t(x) = ⟨θ_t − θ̂_t, ∇ℓ_x(θ̂_t)⟩` for every `x ∈ X`.
//!
//! Claim 3.5 (proved via first-order optimality of `θ̂_t` on `D̂_t` plus
//! convexity of `ℓ_D`) shows `⟨u_t, D̂_t − D⟩ ≥ ℓ_D(θ̂_t) − ℓ_D(θ_t)`: when
//! the hypothesis answers the CM query badly, `u_t` is a *linear* query on
//! which the hypothesis is provably wrong — exactly what the
//! multiplicative-weights update needs. The tests verify both halves of the
//! claim's proof ((3): `⟨u_t, D̂_t⟩ ≥ 0`; (5): `−⟨u_t, D⟩ ≥ ℓ_D(θ̂)−ℓ_D(θ_t)`)
//! on concrete losses.
//!
//! This Θ(|X|) sweep is the mechanism's per-round bottleneck (Section 4.3),
//! so it is evaluated through [`CmLoss::certificate_batch`]: one
//! cache-friendly pass over the flat [`PointMatrix`] with zero per-point
//! allocation, loop-fused for the concrete losses and chunked across
//! cores. [`dual_certificate_into`] writes into a
//! caller-provided buffer so steady-state rounds allocate nothing.

use crate::error::PmwError;
use pmw_convex::vecmath;
use pmw_data::PointMatrix;
use pmw_losses::{certificate_sweep, CmLoss};

/// Compute the dual-certificate payoff vector
/// `u(x) = ⟨θ_oracle − θ_hyp, ∇ℓ_x(θ_hyp)⟩` over all universe points,
/// clamped to `[−S, S]` (Figure 3 requires `u_t ∈ [−S, S]^X`; clamping
/// absorbs floating-point spill past the theoretical bound).
pub fn dual_certificate(
    loss: &dyn CmLoss,
    points: &PointMatrix,
    theta_oracle: &[f64],
    theta_hyp: &[f64],
) -> Result<Vec<f64>, PmwError> {
    let mut u = vec![0.0; points.len()];
    dual_certificate_into(loss, points, theta_oracle, theta_hyp, &mut u)?;
    Ok(u)
}

/// The certificate payoff at a **single universe point** — the
/// point-evaluation form of [`dual_certificate`] the sublinear backends
/// use: `u(x) = ⟨θ_oracle − θ_hyp, ∇ℓ_x(θ_hyp)⟩` clamped to `[−S, S]`.
///
/// `grad_buf` must have length `loss.dim()` (reused across calls so a
/// lookup allocates nothing). Lazy state representations evaluate this
/// once per retained round per lookup — O(t·d) per point instead of the
/// Θ(|X|) sweep.
pub fn dual_certificate_at(
    loss: &dyn CmLoss,
    point: &[f64],
    theta_oracle: &[f64],
    theta_hyp: &[f64],
    grad_buf: &mut [f64],
) -> Result<f64, PmwError> {
    let d = loss.dim();
    if theta_oracle.len() != d || theta_hyp.len() != d || grad_buf.len() != d {
        return Err(PmwError::LossMismatch("theta dimension mismatch"));
    }
    if point.len() != loss.point_dim() {
        return Err(PmwError::LossMismatch("point dimension mismatch"));
    }
    loss.gradient(theta_hyp, point, grad_buf);
    let mut v = 0.0;
    for ((o, h), g) in theta_oracle.iter().zip(theta_hyp).zip(grad_buf.iter()) {
        v += (o - h) * g;
    }
    if !v.is_finite() {
        return Err(PmwError::LossMismatch("non-finite certificate payoff"));
    }
    let s = loss.scale_bound();
    Ok(v.clamp(-s, s))
}

/// The **checkpoint-seeded** form of [`dual_certificate_at`]: fold one
/// retained certificate round into a running cumulative log-weight,
/// starting from `seed` (a checkpointed prefix value, or `0.0` for a
/// from-scratch replay).
///
/// Returns `seed − η·u(x)` with `u(x)` the clamped certificate payoff —
/// **bit-for-bit** the same float operations, in the same order, as the
/// historical full replay `lw −= η·u(x)` starting from the seed. This is
/// what lets `UpdateLog` compaction restart replay from the newest
/// checkpoint instead of round 0 without perturbing any lossless parity
/// guarantee.
#[allow(clippy::too_many_arguments)]
pub fn dual_certificate_seeded(
    loss: &dyn CmLoss,
    point: &[f64],
    theta_oracle: &[f64],
    theta_hyp: &[f64],
    eta: f64,
    seed: f64,
    grad_buf: &mut [f64],
) -> Result<f64, PmwError> {
    let u = dual_certificate_at(loss, point, theta_oracle, theta_hyp, grad_buf)?;
    Ok(seed - eta * u)
}

/// [`dual_certificate`] writing into a reusable buffer (`u.len()` must equal
/// `points.len()`): the steady-state path of the online mechanism.
pub fn dual_certificate_into(
    loss: &dyn CmLoss,
    points: &PointMatrix,
    theta_oracle: &[f64],
    theta_hyp: &[f64],
    u: &mut [f64],
) -> Result<(), PmwError> {
    let d = loss.dim();
    if theta_oracle.len() != d || theta_hyp.len() != d {
        return Err(PmwError::LossMismatch("theta dimension mismatch"));
    }
    if points.dim() != loss.point_dim() {
        return Err(PmwError::LossMismatch("point dimension mismatch"));
    }
    let s = loss.scale_bound();
    let mut direction = vec![0.0; d];
    vecmath::sub(theta_oracle, theta_hyp, &mut direction);
    certificate_sweep(loss, theta_hyp, &direction, points, u)
        .map_err(|_| PmwError::LossMismatch("certificate sweep rejected inputs"))?;
    // One fused validate-and-clamp pass (u is an output buffer, so its
    // contents on the error path are unspecified; NaN survives clamp, so
    // checking before clamping in the same loop is sound).
    let bad = pmw_data::par::fold_chunks_mut(
        u,
        |_, chunk| {
            let mut bad = 0u32;
            for v in chunk.iter_mut() {
                bad += u32::from(!v.is_finite());
                *v = v.clamp(-s, s);
            }
            bad
        },
        |a, b| a + b,
    );
    if bad != 0 {
        return Err(PmwError::LossMismatch("non-finite certificate payoff"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmw_convex::Objective;
    use pmw_data::Histogram;
    use pmw_losses::traits::minimize_weighted;
    use pmw_losses::{SquaredLoss, WeightedObjective};

    /// Build a tiny universe of labeled points and two histograms (true
    /// data vs hypothesis) that disagree.
    fn setup() -> (SquaredLoss, PointMatrix, Histogram, Histogram) {
        let loss = SquaredLoss::new(1).unwrap();
        // Universe: (x, y) pairs where the "true" data follows y = 0.8x and
        // decoys follow y = -0.8x.
        let points = PointMatrix::from_rows(vec![
            vec![1.0, 0.8],
            vec![-1.0, -0.8],
            vec![1.0, -0.8],
            vec![-1.0, 0.8],
        ])
        .unwrap();
        let data = Histogram::from_counts(&[5, 5, 0, 0]).unwrap();
        let hyp = Histogram::uniform(4).unwrap();
        (loss, points, data, hyp)
    }

    #[test]
    fn certificate_satisfies_claim_3_5() {
        let (loss, points, data, hyp) = setup();
        // theta_hat: minimizer on the hypothesis; theta_t: (exact) minimizer
        // on the true data (an ideal oracle).
        let theta_hat = minimize_weighted(&loss, &points, hyp.weights(), 2000).unwrap();
        let theta_t = minimize_weighted(&loss, &points, data.weights(), 2000).unwrap();
        let u = dual_certificate(&loss, &points, &theta_t, &theta_hat).unwrap();

        // <u, Dhat> >= 0  (equation (3): first-order optimality).
        let u_hyp: f64 = hyp.weights().iter().zip(&u).map(|(w, v)| w * v).sum();
        assert!(u_hyp >= -1e-9, "{u_hyp}");

        // <u, Dhat - D> >= l_D(theta_hat) - l_D(theta_t)  (Claim 3.5).
        let u_data: f64 = data.weights().iter().zip(&u).map(|(w, v)| w * v).sum();
        let obj = WeightedObjective::new(&loss, &points, data.weights()).unwrap();
        let rhs = obj.value(&theta_hat) - obj.value(&theta_t);
        assert!(
            u_hyp - u_data >= rhs - 1e-6,
            "certificate gap {} < loss gap {rhs}",
            u_hyp - u_data
        );
        // And on this instance the hypothesis really is bad, so the gap is
        // strictly positive.
        assert!(rhs > 0.05, "{rhs}");
    }

    #[test]
    fn certificate_is_clamped_to_scale_bound() {
        let (loss, points, _, _) = setup();
        let s = loss.scale_bound();
        let u = dual_certificate(&loss, &points, &[1.0], &[-1.0]).unwrap();
        assert!(u.iter().all(|v| v.abs() <= s + 1e-12));
    }

    #[test]
    fn certificate_validates_dimensions() {
        let (loss, points, _, _) = setup();
        assert!(dual_certificate(&loss, &points, &[1.0, 0.0], &[0.0]).is_err());
        assert!(dual_certificate(&loss, &points, &[1.0], &[0.0, 0.0]).is_err());
        let bad_points = PointMatrix::from_rows(vec![vec![1.0]]).unwrap();
        assert!(dual_certificate(&loss, &bad_points, &[1.0], &[0.0]).is_err());
    }

    #[test]
    fn into_variant_rejects_wrong_buffer_length() {
        let (loss, points, _, _) = setup();
        let mut short = vec![0.0; points.len() - 1];
        assert!(dual_certificate_into(&loss, &points, &[1.0], &[0.0], &mut short).is_err());
    }

    #[test]
    fn identical_thetas_give_zero_certificate() {
        let (loss, points, _, _) = setup();
        let u = dual_certificate(&loss, &points, &[0.5], &[0.5]).unwrap();
        assert!(u.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn batched_path_matches_per_point_gradients() {
        // The certificate must equal the naive per-point evaluation
        // u(x) = <theta_o - theta_h, grad l_x(theta_h)> exactly (up to the
        // fused-multiply rounding absorbed by 1e-12).
        let (loss, points, _, _) = setup();
        let (theta_o, theta_h) = ([0.7], [-0.2]);
        let u = dual_certificate(&loss, &points, &theta_o, &theta_h).unwrap();
        let mut grad = vec![0.0; 1];
        for (i, x) in points.iter().enumerate() {
            loss.gradient(&theta_h, x, &mut grad);
            let expect = (theta_o[0] - theta_h[0]) * grad[0];
            let s = loss.scale_bound();
            assert!((u[i] - expect.clamp(-s, s)).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn point_evaluation_matches_the_batched_sweep() {
        let (loss, points, _, _) = setup();
        let (theta_o, theta_h) = ([0.55], [-0.3]);
        let u = dual_certificate(&loss, &points, &theta_o, &theta_h).unwrap();
        let mut grad = vec![0.0; loss.dim()];
        for (i, x) in points.iter().enumerate() {
            let v = dual_certificate_at(&loss, x, &theta_o, &theta_h, &mut grad).unwrap();
            assert!((v - u[i]).abs() < 1e-12, "row {i}: {v} vs {}", u[i]);
        }
    }

    #[test]
    fn point_evaluation_validates_dimensions() {
        let (loss, points, _, _) = setup();
        let mut grad = vec![0.0; 1];
        let x = points.row(0);
        assert!(dual_certificate_at(&loss, x, &[1.0, 2.0], &[0.0], &mut grad).is_err());
        assert!(dual_certificate_at(&loss, &[1.0], &[1.0], &[0.0], &mut grad).is_err());
        let mut short: Vec<f64> = vec![];
        assert!(dual_certificate_at(&loss, x, &[1.0], &[0.0], &mut short).is_err());
    }

    #[test]
    fn mw_update_with_certificate_moves_hypothesis_toward_data() {
        // One full Figure-3 update step: the KL divergence from the true
        // histogram must decrease.
        let (loss, points, data, mut hyp) = setup();
        let theta_hat = minimize_weighted(&loss, &points, hyp.weights(), 2000).unwrap();
        let theta_t = minimize_weighted(&loss, &points, data.weights(), 2000).unwrap();
        let u = dual_certificate(&loss, &points, &theta_t, &theta_hat).unwrap();
        let before = hyp.kl_from(&data);
        hyp.mw_update(&u, 0.5).unwrap();
        let after = hyp.kl_from(&data);
        assert!(after < before, "KL {before} -> {after}");
    }
}
