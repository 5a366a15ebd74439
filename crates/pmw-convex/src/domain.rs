//! Constraint domains `Θ` with Euclidean projections.
//!
//! The paper's `d-Bounded` restriction is `Θ ⊆ {θ ∈ R^d : ‖θ‖₂ ≤ 1}`
//! (Section 1.1); [`Domain::L2Ball`] is that set and the default everywhere.
//! Boxes, intervals and the simplex round out the domains the loss zoo and
//! the net-based ERM oracle need. Projections are exact (closed form for
//! ball/box, the sort-based algorithm for the simplex) and, like every
//! Euclidean projection onto a convex set, non-expansive — a property the
//! property tests check.

use crate::error::ConvexError;
use crate::vecmath;

/// A convex constraint set `Θ ⊆ R^d` with an exact Euclidean projection.
#[derive(Debug, Clone, PartialEq)]
pub enum Domain {
    /// `{θ : ‖θ‖₂ ≤ radius}` — the paper's `d`-bounded setting at radius 1.
    L2Ball {
        /// Dimension `d`.
        dim: usize,
        /// Ball radius (> 0).
        radius: f64,
    },
    /// Axis-aligned box `[lo, hi]^d`.
    Box {
        /// Dimension `d`.
        dim: usize,
        /// Lower bound per axis.
        lo: f64,
        /// Upper bound per axis.
        hi: f64,
    },
    /// The probability simplex `{θ ≥ 0 : Σθᵢ = 1}`.
    Simplex {
        /// Dimension `d`.
        dim: usize,
    },
}

impl Domain {
    /// The unit L2 ball in `R^d` — the canonical `Θ` of Table 1.
    pub fn unit_ball(dim: usize) -> Result<Self, ConvexError> {
        Self::l2_ball(dim, 1.0)
    }

    /// An L2 ball of the given radius.
    pub fn l2_ball(dim: usize, radius: f64) -> Result<Self, ConvexError> {
        if dim == 0 {
            return Err(ConvexError::InvalidParameter("dimension must be >= 1"));
        }
        if !(radius.is_finite() && radius > 0.0) {
            return Err(ConvexError::InvalidParameter("radius must be positive"));
        }
        Ok(Domain::L2Ball { dim, radius })
    }

    /// The box `[lo, hi]^d`.
    pub fn boxed(dim: usize, lo: f64, hi: f64) -> Result<Self, ConvexError> {
        if dim == 0 {
            return Err(ConvexError::InvalidParameter("dimension must be >= 1"));
        }
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(ConvexError::InvalidParameter("box requires finite lo < hi"));
        }
        Ok(Domain::Box { dim, lo, hi })
    }

    /// The interval `[lo, hi] ⊂ R` (a 1-dimensional box), used by the
    /// linear-query-as-CM encoding.
    pub fn interval(lo: f64, hi: f64) -> Result<Self, ConvexError> {
        Self::boxed(1, lo, hi)
    }

    /// The probability simplex in `R^d`.
    pub fn simplex(dim: usize) -> Result<Self, ConvexError> {
        if dim == 0 {
            return Err(ConvexError::InvalidParameter("dimension must be >= 1"));
        }
        Ok(Domain::Simplex { dim })
    }

    /// Ambient dimension `d`.
    pub fn dim(&self) -> usize {
        match *self {
            Domain::L2Ball { dim, .. } | Domain::Box { dim, .. } | Domain::Simplex { dim } => dim,
        }
    }

    /// Euclidean diameter `max_{θ,θ'∈Θ} ‖θ − θ'‖₂`; the scale parameter `S`
    /// of Section 3.2 satisfies `S ≤ diameter · Lipschitz`.
    pub fn diameter(&self) -> f64 {
        match *self {
            Domain::L2Ball { radius, .. } => 2.0 * radius,
            Domain::Box { dim, lo, hi } => (hi - lo) * (dim as f64).sqrt(),
            Domain::Simplex { .. } => std::f64::consts::SQRT_2,
        }
    }

    /// True when `theta ∈ Θ` (up to `tol`).
    pub fn contains(&self, theta: &[f64], tol: f64) -> bool {
        if theta.len() != self.dim() {
            return false;
        }
        match *self {
            Domain::L2Ball { radius, .. } => vecmath::norm2(theta) <= radius + tol,
            Domain::Box { lo, hi, .. } => theta.iter().all(|&v| v >= lo - tol && v <= hi + tol),
            Domain::Simplex { .. } => {
                theta.iter().all(|&v| v >= -tol) && (theta.iter().sum::<f64>() - 1.0).abs() <= tol
            }
        }
    }

    /// Project `theta` onto `Θ` in place.
    pub fn project(&self, theta: &mut [f64]) -> Result<(), ConvexError> {
        if theta.len() != self.dim() {
            return Err(ConvexError::DimensionMismatch {
                got: theta.len(),
                expected: self.dim(),
            });
        }
        if !vecmath::all_finite(theta) {
            return Err(ConvexError::NonFinite("projection input"));
        }
        match *self {
            Domain::L2Ball { radius, .. } => {
                let norm = vecmath::norm2(theta);
                if norm > radius {
                    vecmath::scale(theta, radius / norm);
                }
            }
            Domain::Box { lo, hi, .. } => {
                for v in theta.iter_mut() {
                    *v = v.clamp(lo, hi);
                }
            }
            Domain::Simplex { .. } => project_simplex(theta),
        }
        Ok(())
    }

    /// A canonical interior starting point: the origin for balls, the box
    /// center, or the uniform distribution for the simplex.
    pub fn center(&self) -> Vec<f64> {
        match *self {
            Domain::L2Ball { dim, .. } => vec![0.0; dim],
            Domain::Box { dim, lo, hi } => vec![(lo + hi) / 2.0; dim],
            Domain::Simplex { dim } => vec![1.0 / dim as f64; dim],
        }
    }

    /// A finite grid net over the domain with roughly `per_axis` points per
    /// axis (ball nets are a grid over the bounding box filtered to the
    /// ball). Used by the exponential-mechanism ERM oracle; practical only
    /// in low dimension, exactly as Section 4.3's `poly(|X|)` discussion
    /// anticipates.
    pub fn grid_net(&self, per_axis: usize) -> Result<Vec<Vec<f64>>, ConvexError> {
        if per_axis < 2 {
            return Err(ConvexError::InvalidParameter(
                "net needs >= 2 points per axis",
            ));
        }
        let d = self.dim();
        let total = (per_axis as u128).pow(d as u32);
        if total > 1 << 22 {
            return Err(ConvexError::InvalidParameter(
                "net too large to materialize",
            ));
        }
        let (lo, hi) = match *self {
            Domain::L2Ball { radius, .. } => (-radius, radius),
            Domain::Box { lo, hi, .. } => (lo, hi),
            Domain::Simplex { .. } => (0.0, 1.0),
        };
        let mut net = Vec::new();
        let mut point = vec![0.0; d];
        let mut idx = vec![0usize; d];
        loop {
            for (a, &i) in point.iter_mut().zip(&idx) {
                *a = lo + (hi - lo) * i as f64 / (per_axis - 1) as f64;
            }
            let mut candidate = point.clone();
            match *self {
                Domain::L2Ball { radius, .. } => {
                    if vecmath::norm2(&candidate) <= radius + 1e-12 {
                        net.push(candidate);
                    }
                }
                Domain::Box { .. } => net.push(candidate),
                Domain::Simplex { .. } => {
                    let sum: f64 = candidate.iter().sum();
                    if sum > 0.0 {
                        for v in candidate.iter_mut() {
                            *v /= sum;
                        }
                        net.push(candidate);
                    }
                }
            }
            // Odometer increment.
            let mut c = 0usize;
            loop {
                idx[c] += 1;
                if idx[c] < per_axis {
                    break;
                }
                idx[c] = 0;
                c += 1;
                if c == d {
                    // Always include the center so the net is nonempty.
                    let center = self.center();
                    if !net.iter().any(|p| vecmath::dist2(p, &center) < 1e-12) {
                        net.push(center);
                    }
                    return Ok(net);
                }
            }
        }
    }
}

/// Exact Euclidean projection onto the probability simplex
/// (sort-based algorithm of Held–Wolfe–Crowder).
fn project_simplex(theta: &mut [f64]) {
    let d = theta.len();
    let mut sorted: Vec<f64> = theta.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let mut cumsum = 0.0;
    let mut rho = 0usize;
    let mut theta_rho = 0.0;
    for (i, &v) in sorted.iter().enumerate() {
        cumsum += v;
        let t = (cumsum - 1.0) / (i as f64 + 1.0);
        if v - t > 0.0 {
            rho = i;
            theta_rho = t;
        }
    }
    let _ = rho;
    for v in theta.iter_mut().take(d) {
        *v = (*v - theta_rho).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_validate() {
        assert!(Domain::unit_ball(0).is_err());
        assert!(Domain::l2_ball(2, -1.0).is_err());
        assert!(Domain::boxed(2, 1.0, 0.0).is_err());
        assert!(Domain::simplex(0).is_err());
        assert!(Domain::interval(0.0, 1.0).is_ok());
    }

    #[test]
    fn ball_projection_clips_to_radius() {
        let ball = Domain::unit_ball(2).unwrap();
        let mut v = vec![3.0, 4.0];
        ball.project(&mut v).unwrap();
        assert!((vecmath::norm2(&v) - 1.0).abs() < 1e-12);
        assert!((v[0] - 0.6).abs() < 1e-12 && (v[1] - 0.8).abs() < 1e-12);
        // Interior points untouched.
        let mut w = vec![0.1, -0.2];
        ball.project(&mut w).unwrap();
        assert_eq!(w, vec![0.1, -0.2]);
    }

    #[test]
    fn box_projection_clamps() {
        let b = Domain::boxed(3, -1.0, 1.0).unwrap();
        let mut v = vec![-5.0, 0.5, 2.0];
        b.project(&mut v).unwrap();
        assert_eq!(v, vec![-1.0, 0.5, 1.0]);
    }

    #[test]
    fn simplex_projection_of_interior_point() {
        let s = Domain::simplex(3).unwrap();
        let mut v = vec![0.2, 0.3, 0.5];
        s.project(&mut v).unwrap();
        assert!(s.contains(&v, 1e-9));
        assert!((v[0] - 0.2).abs() < 1e-9);
    }

    #[test]
    fn simplex_projection_known_case() {
        let s = Domain::simplex(2).unwrap();
        let mut v = vec![1.0, 1.0];
        s.project(&mut v).unwrap();
        assert!((v[0] - 0.5).abs() < 1e-9 && (v[1] - 0.5).abs() < 1e-9);
        let mut w = vec![2.0, 0.0];
        s.project(&mut w).unwrap();
        assert!((w[0] - 1.0).abs() < 1e-9 && w[1].abs() < 1e-9);
    }

    #[test]
    fn projections_validate_inputs() {
        let ball = Domain::unit_ball(2).unwrap();
        assert!(ball.project(&mut [1.0]).is_err());
        assert!(ball.project(&mut [f64::NAN, 0.0]).is_err());
    }

    #[test]
    fn diameters() {
        assert!((Domain::unit_ball(5).unwrap().diameter() - 2.0).abs() < 1e-12);
        assert!((Domain::boxed(4, -1.0, 1.0).unwrap().diameter() - 4.0).abs() < 1e-12);
        assert!((Domain::simplex(3).unwrap().diameter() - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn grid_net_members_are_feasible() {
        for d in [
            Domain::unit_ball(2).unwrap(),
            Domain::boxed(2, 0.0, 1.0).unwrap(),
            Domain::simplex(3).unwrap(),
        ] {
            let net = d.grid_net(4).unwrap();
            assert!(!net.is_empty());
            for p in &net {
                assert!(d.contains(p, 1e-9), "{p:?} not in {d:?}");
            }
        }
        assert!(Domain::unit_ball(2).unwrap().grid_net(1).is_err());
        assert!(Domain::unit_ball(12).unwrap().grid_net(10).is_err());
    }

    #[test]
    fn centers_are_interior() {
        for d in [
            Domain::unit_ball(3).unwrap(),
            Domain::boxed(2, -2.0, 4.0).unwrap(),
            Domain::simplex(4).unwrap(),
        ] {
            assert!(d.contains(&d.center(), 1e-12));
        }
    }

    proptest! {
        #[test]
        fn ball_projection_is_idempotent_and_feasible(
            x in prop::collection::vec(-10.0f64..10.0, 3)
        ) {
            let ball = Domain::unit_ball(3).unwrap();
            let mut v = x.clone();
            ball.project(&mut v).unwrap();
            prop_assert!(ball.contains(&v, 1e-9));
            let mut w = v.clone();
            ball.project(&mut w).unwrap();
            prop_assert!(vecmath::dist2(&v, &w) < 1e-12);
        }

        #[test]
        fn simplex_projection_is_feasible_and_idempotent(
            x in prop::collection::vec(-5.0f64..5.0, 4)
        ) {
            let s = Domain::simplex(4).unwrap();
            let mut v = x.clone();
            s.project(&mut v).unwrap();
            prop_assert!(s.contains(&v, 1e-9), "projected {:?}", v);
            let mut w = v.clone();
            s.project(&mut w).unwrap();
            prop_assert!(vecmath::dist2(&v, &w) < 1e-9);
        }

        #[test]
        fn projections_are_non_expansive(
            x in prop::collection::vec(-10.0f64..10.0, 3),
            y in prop::collection::vec(-10.0f64..10.0, 3)
        ) {
            for d in [Domain::unit_ball(3).unwrap(),
                      Domain::boxed(3, -1.0, 1.0).unwrap(),
                      Domain::simplex(3).unwrap()] {
                let mut px = x.clone();
                let mut py = y.clone();
                d.project(&mut px).unwrap();
                d.project(&mut py).unwrap();
                prop_assert!(
                    vecmath::dist2(&px, &py) <= vecmath::dist2(&x, &y) + 1e-9,
                    "domain {:?}", d
                );
            }
        }

        #[test]
        fn projection_is_closest_point_on_net(
            x in prop::collection::vec(-3.0f64..3.0, 2)
        ) {
            // The projection must be at least as close as any net point.
            let ball = Domain::unit_ball(2).unwrap();
            let mut p = x.clone();
            ball.project(&mut p).unwrap();
            let pd = vecmath::dist2(&x, &p);
            for q in ball.grid_net(7).unwrap() {
                prop_assert!(pd <= vecmath::dist2(&x, &q) + 1e-9);
            }
        }
    }
}
