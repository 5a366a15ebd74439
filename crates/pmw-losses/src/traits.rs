//! The [`CmLoss`] trait and the weighted-average objective bridge.
//!
//! `CmLoss` is object-safe on purpose: the Figure-3 mechanism receives an
//! adaptively chosen stream of losses and stores them behind `&dyn CmLoss`.
//!
//! [`WeightedObjective`] realizes the paper's averaged loss
//! `ℓ_D(θ) = Σ_x D(x)·ℓ(θ; x)` (Section 2.2) as a
//! [`pmw_convex::Objective`], which is what the inner solvers minimize. The
//! weights may be a dataset's empirical distribution *or* the PMW hypothesis
//! histogram — both are just probability vectors over universe points.
//!
//! Universe points arrive as a [`PointMatrix`] — one flat row-major buffer —
//! so every Θ(|X|) sweep here (objective value, averaged gradient, the
//! [`CmLoss::certificate_batch`] dual-certificate sweep) is a linear scan
//! with zero per-point allocation.

use crate::error::LossError;
use crate::link::LinkFn;
use pmw_convex::solvers::{ProjectedGradientDescent, SolveResult, SolverConfig};
use pmw_convex::{vecmath, Domain, Objective};
use pmw_data::{PointMatrix, PointQuery};
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::Arc;

/// A convex loss function `ℓ: Θ × X → R` defining a CM query, with the
/// metadata the paper's restrictions refer to (Section 1.1).
pub trait CmLoss: Send + Sync {
    /// Dimension of the parameter `θ`.
    fn dim(&self) -> usize;

    /// The constraint set `Θ`.
    fn domain(&self) -> &Domain;

    /// Dimension of the data points this loss consumes (for supervised
    /// losses this is `dim() + 1`, the label being the last coordinate).
    fn point_dim(&self) -> usize;

    /// `ℓ(θ; x)`.
    fn loss(&self, theta: &[f64], x: &[f64]) -> f64;

    /// Write `∇_θ ℓ(θ; x)` (a subgradient at kinks) into `out`.
    fn gradient(&self, theta: &[f64], x: &[f64], out: &mut [f64]);

    /// Write the dual-certificate payoffs
    /// `out[i] = ⟨direction, ∇ℓ_{x_i}(θ_hyp)⟩` for every row `x_i` of
    /// `points` — the Θ(|X|) sweep of Claim 3.5, batched.
    ///
    /// The default implementation evaluates [`CmLoss::gradient`] per point
    /// into one reused buffer (no per-point allocation). Concrete losses
    /// whose gradient factors through a scalar (GLMs, linear queries)
    /// override this with a loop-fused sweep that never materializes the
    /// gradient at all; see `certificate_batch` in [`crate::glm`].
    ///
    /// Implementations may assume the caller validated `points.dim() ==
    /// point_dim()`, `theta_hyp.len() == direction.len() == dim()` and
    /// `out.len() == points.len()`, as
    /// [`certificate_sweep`] does.
    fn certificate_batch(
        &self,
        theta_hyp: &[f64],
        direction: &[f64],
        points: &PointMatrix,
        out: &mut [f64],
    ) {
        let mut grad = vec![0.0; self.dim()];
        for (slot, x) in out.iter_mut().zip(points.iter()) {
            self.gradient(theta_hyp, x, &mut grad);
            *slot = vecmath::dot(direction, &grad);
        }
    }

    /// Lipschitz bound: `‖∇ℓ_x(θ)‖₂ ≤ lipschitz()` for all `θ ∈ Θ`, `x ∈ X`.
    fn lipschitz(&self) -> f64;

    /// Strong convexity modulus `σ` (0 when merely convex).
    fn strong_convexity(&self) -> f64 {
        0.0
    }

    /// Smoothness (gradient-Lipschitz) constant, `None` if non-smooth.
    fn smoothness(&self) -> Option<f64> {
        None
    }

    /// The scale parameter `S ≥ max_{x,θ,θ'} |⟨θ − θ', ∇ℓ_x(θ)⟩|` of
    /// Section 3.2. Default: `diameter(Θ) · lipschitz()` (for the unit ball
    /// and a 1-Lipschitz loss this gives the paper's `S ≤ 2`).
    fn scale_bound(&self) -> f64 {
        self.domain().diameter() * self.lipschitz()
    }

    /// True for unconstrained generalized linear models (Section 4.2.2),
    /// enabling the dimension-independent oracle of Theorem 4.3.
    fn is_glm(&self) -> bool {
        false
    }

    /// For GLM losses, the scalar link `φ` with
    /// `ℓ(θ; x) = φ(⟨θ, features⟩, label)`; `None` otherwise.
    fn glm_link(&self) -> Option<LinkFn> {
        None
    }

    /// For GLM losses, the label `y` of a raw universe point `x`, so that
    /// `ℓ(θ; x) = φ(⟨θ, x[..dim()]⟩, y)`: a GLM's features are always the
    /// point's first [`CmLoss::dim`] coordinates. `None` for non-GLMs.
    ///
    /// [`WeightedObjective`] reads the label of every positive-weight point
    /// once per objective: into the sufficient statistics of a
    /// [`LinkFn::Squared`] loss, or beside the rows its three tiled GLM
    /// passes (dot products, link derivatives, accumulation) run over per
    /// gradient. The dimension-independent GLM oracle (Theorem 4.3's role)
    /// projects the features while keeping the labels fixed.
    fn glm_label(&self, _x: &[f64]) -> Option<f64> {
        None
    }

    /// For a loss `ℓ(θ; x) = ½(θ₀ − t(x))²` over a one-dimensional `θ`, the
    /// query `t`, whose value at a raw universe point `x` is the target;
    /// `None` for every other loss. A loss that reports it must compute
    /// [`CmLoss::loss`] as `0.5 * r * r` and [`CmLoss::gradient`] as `r`,
    /// for `r = θ₀ − t(x)` with `t(x)` the bits of the query's point route.
    ///
    /// [`WeightedObjective`] evaluates the query over all its points in one
    /// [`PointQuery::values_at_rows`] call per objective and keeps only the
    /// sufficient statistics `Σw`, `Σw·t` and `Σw·t²`, so each solver pass
    /// costs O(1) whatever the number of points. This is the one-feature
    /// case of a [`LinkFn::Squared`] GLM's statistics, at scale ½ where the
    /// squared link's `(z − y)²/4` has ¼. A wrapper that changes the loss
    /// must not forward this hook. The oracle choice and the GLM oracles
    /// read only [`CmLoss::is_glm`], [`CmLoss::glm_link`] and
    /// [`CmLoss::glm_label`].
    fn quadratic_target(&self) -> Option<&dyn PointQuery> {
        None
    }

    /// An owned, shareable handle to this loss — the retention hook for
    /// state backends that must keep the round's loss alive beyond the
    /// `answer` call (the lazy update-log representations of `pmw-sketch`
    /// re-evaluate `u_t(x) = ⟨θ_t − θ̂_t, ∇ℓ_x(θ̂_t)⟩` at lookup time, which
    /// needs the round-`t` loss). Object-safe by returning `Arc<dyn CmLoss>`.
    ///
    /// The default returns `None` ("cannot be retained"); every concrete
    /// loss in this crate overrides it with `Arc::new(self.clone())`.
    fn clone_shared(&self) -> Option<Arc<dyn CmLoss>> {
        None
    }

    /// A short name for transcripts and experiment tables.
    fn name(&self) -> &'static str {
        "cm-loss"
    }
}

/// Validated driver for [`CmLoss::certificate_batch`]: checks dimensions
/// once, then runs the batched sweep.
///
/// This is the entry point the mechanism's `dual_certificate` uses.
/// Parallelism lives *inside* the concrete `certificate_batch`
/// implementations (which know their `Self` is shareable across the sweep
/// workers); the object-safe default stays sequential.
pub fn certificate_sweep(
    loss: &dyn CmLoss,
    theta_hyp: &[f64],
    direction: &[f64],
    points: &PointMatrix,
    out: &mut [f64],
) -> Result<(), LossError> {
    if theta_hyp.len() != loss.dim() || direction.len() != loss.dim() {
        return Err(LossError::InvalidParameter("theta dimension mismatch"));
    }
    if points.dim() != loss.point_dim() {
        return Err(LossError::PointDimensionMismatch {
            got: points.dim(),
            expected: loss.point_dim(),
        });
    }
    if out.len() != points.len() {
        return Err(LossError::InvalidParameter(
            "certificate buffer length must equal the universe size",
        ));
    }
    loss.certificate_batch(theta_hyp, direction, points, out);
    Ok(())
}

/// The averaged loss `f(θ) = Σ_i w_i·ℓ(θ; x_i)` over weighted points — the
/// paper's `ℓ_D(θ)` with `D` a histogram, or the empirical risk with uniform
/// weights over dataset rows. Zero-weight points are skipped.
///
/// The objective picks one of three paths once, at construction, from the
/// loss's hooks:
///
/// - **From sufficient statistics.** A GLM whose [`CmLoss::glm_link`] is
///   [`LinkFn::Squared`] and whose kept points all have a
///   [`CmLoss::glm_label`] sums `¼·w·(⟨θ, x⟩ − y)²`; a loss with a
///   [`CmLoss::quadratic_target`] (a linear query) sums `½·w·(θ₀ − t(x))²`,
///   the same form with the one feature 1 and the label `t(x)`, whose
///   targets come from one [`PointQuery::values_at_rows`] call. Either sum
///   is `s·(θᵀAθ − 2bᵀθ + c)` with `A = Σw·x xᵀ`, `b = Σw·y·x`, `c = Σw·y²`
///   and `s` = ¼ or ½. One serial pass over the kept points, in point
///   order, builds `A`, `b` and `c`; `value` and `gradient` (`2s·(Aθ − b)`)
///   then cost O(d²) each, however many points there are. They match the
///   per-point sums up to rounding, not bit for bit, and the expanded value
///   cancels, so its error scales with `c` rather than with the value. If
///   some entry of `A`, `b` or `c` is not finite (coordinates near 1e154
///   overflow `x xᵀ`), the objective takes the path below that the loss
///   would take without this one: the tiled passes for a squared GLM, per
///   point for a target.
/// - **Tiled GLM passes.** Any other GLM (a link and a label for every
///   kept point) gathers its positive-weight rows once: the [`PointMatrix`]
///   itself, borrowed, when every weight is positive, otherwise a compact
///   copy of the kept rows' features. It also computes their labels once.
///   `gradient` then runs three passes over each tile of 64 rows in turn:
///   the dot products `⟨θ, x_i⟩`, four points at a time; the link
///   derivatives `φ′`; and `Σ w·(φ′·x)` in point order. So each row is read
///   from memory once per call, however many rows there are. `value` runs
///   the first pass per tile and sums `w·φ(⟨θ,x⟩, y)`. Widths up to 16 run
///   kernels specialised to their width at compile time. No float changes
///   its order against the per-point path, so every value, gradient and
///   solver iterate is bit-for-bit the same.
/// - **Per point.** Every other loss goes through [`CmLoss::loss`] and
///   [`CmLoss::gradient`] per point.
pub struct WeightedObjective<'a, L: CmLoss + ?Sized> {
    loss: &'a L,
    points: &'a PointMatrix,
    weights: &'a [f64],
    path: Path<'a>,
    grad_buf: RefCell<Vec<f64>>,
}

/// How a [`WeightedObjective`] evaluates; see its documentation.
enum Path<'a> {
    Quadratic(Quadratic),
    /// Boxed to keep the objective small.
    Glm(Box<GlmRows<'a>>),
    PerPoint,
}

impl<'a> Path<'a> {
    fn new<L: CmLoss + ?Sized>(loss: &L, points: &'a PointMatrix, weights: &'a [f64]) -> Self {
        let link = loss.glm_link();
        let quadratic = match link {
            Some(LinkFn::Squared) => Quadratic::squared_glm(loss, points, weights),
            Some(_) => None,
            None => Quadratic::target(loss, points, weights),
        };
        if let Some(quadratic) = quadratic.filter(Quadratic::is_finite) {
            return Path::Quadratic(quadratic);
        }
        link.and_then(|link| GlmRows::new(loss, link, points, weights))
            .map_or(Path::PerPoint, |rows| Path::Glm(Box::new(rows)))
    }
}

impl<'a, L: CmLoss + ?Sized> WeightedObjective<'a, L> {
    /// Bundle a loss with weighted points. Weights must be non-negative and
    /// sum to something positive (typically 1); zero-weight points are
    /// skipped during evaluation.
    pub fn new(
        loss: &'a L,
        points: &'a PointMatrix,
        weights: &'a [f64],
    ) -> Result<Self, LossError> {
        if points.len() != weights.len() {
            return Err(LossError::InvalidParameter(
                "points and weights must have equal length",
            ));
        }
        if points.is_empty() {
            return Err(LossError::InvalidParameter("need at least one point"));
        }
        if points.dim() != loss.point_dim() {
            return Err(LossError::PointDimensionMismatch {
                got: points.dim(),
                expected: loss.point_dim(),
            });
        }
        if weights.iter().any(|&w| !w.is_finite() || w < 0.0) {
            return Err(LossError::InvalidParameter(
                "weights must be finite and non-negative",
            ));
        }
        Ok(Self {
            loss,
            points,
            weights,
            path: Path::new(loss, points, weights),
            grad_buf: RefCell::new(vec![0.0; loss.dim()]),
        })
    }

    /// Minimize the objective over the loss's domain with the solver
    /// [`default_solver_config`] derives from the loss metadata. The result
    /// carries the objective's value at the returned `θ`, so a caller that
    /// needs `min ℓ_D` evaluates nothing again.
    pub fn solve(&self, max_iters: usize) -> Result<SolveResult, LossError> {
        let config = default_solver_config(self.loss, max_iters)?;
        let solver = ProjectedGradientDescent::new(config)?;
        Ok(solver.minimize(self, self.loss.domain(), None)?)
    }
}

impl<L: CmLoss + ?Sized> Objective for WeightedObjective<'_, L> {
    fn dim(&self) -> usize {
        self.loss.dim()
    }

    fn value(&self, theta: &[f64]) -> f64 {
        match &self.path {
            Path::Quadratic(quadratic) => quadratic.value(theta),
            Path::Glm(glm) => glm.value(theta),
            Path::PerPoint => self
                .points
                .iter()
                .zip(self.weights)
                .filter(|(_, &w)| w > 0.0)
                .map(|(x, &w)| w * self.loss.loss(theta, x))
                .sum(),
        }
    }

    fn gradient(&self, theta: &[f64], out: &mut [f64]) {
        if let Path::Quadratic(quadratic) = &self.path {
            quadratic.gradient(theta, out);
            return;
        }
        out.fill(0.0);
        if let Path::Glm(glm) = &self.path {
            glm.gradient(theta, out);
            return;
        }
        let mut buf = self.grad_buf.borrow_mut();
        for (x, &w) in self.points.iter().zip(self.weights) {
            if w > 0.0 {
                self.loss.gradient(theta, x, &mut buf);
                for (o, g) in out.iter_mut().zip(buf.iter()) {
                    *o += w * g;
                }
            }
        }
    }
}

/// A quadratic loss's weighted sum `s·(θᵀAθ − 2bᵀθ + c)`, from its
/// sufficient statistics.
struct Quadratic {
    /// `A = Σw·x xᵀ`, `d × d`, row-major and symmetric.
    a: Vec<f64>,
    /// `b = Σw·y·x`.
    b: Vec<f64>,
    /// `c = Σw·y²`.
    c: f64,
    /// `s`: ¼ for [`LinkFn::Squared`], ½ for a target.
    scale: f64,
}

impl Quadratic {
    /// A squared-link GLM over its kept rows: features `x[..d]`, label
    /// [`CmLoss::glm_label`]. `None` for a zero-width loss, or when some
    /// kept row has no label.
    fn squared_glm<L: CmLoss + ?Sized>(
        loss: &L,
        points: &PointMatrix,
        weights: &[f64],
    ) -> Option<Self> {
        let d = loss.dim();
        if d == 0 {
            return None;
        }
        let kept = points.iter().zip(weights).filter(|(_, &w)| w > 0.0);
        let rows = kept.map(|(x, &w)| Some((w, &x[..d], loss.glm_label(x)?)));
        Self::build(d, 0.25, rows)
    }

    /// A loss with a [`CmLoss::quadratic_target`] over its kept rows: the
    /// feature 1, the label the target. `None` unless the loss reports a
    /// target over a one-dimensional `θ` that evaluates every row.
    fn target<L: CmLoss + ?Sized>(loss: &L, points: &PointMatrix, weights: &[f64]) -> Option<Self> {
        if loss.dim() != 1 {
            return None;
        }
        let query = loss.quadratic_target()?;
        let mut targets = vec![0.0; points.len()];
        query
            .values_at_rows(None, points.as_flat(), points.dim(), &mut targets)
            .ok()?;
        let kept = weights.iter().zip(&targets).filter(|(&w, _)| w > 0.0);
        Self::build(1, 0.5, kept.map(|(&w, &t)| Some((w, &[1.0][..], t))))
    }

    /// The statistics of `(w, x, y)` rows with `d` features, summed in row
    /// order, at scale `s`; `None` if some row is.
    fn build<'r>(
        d: usize,
        scale: f64,
        rows: impl Iterator<Item = Option<(f64, &'r [f64], f64)>>,
    ) -> Option<Self> {
        macro_rules! fixed {
            ($($w:literal)*) => {
                match d {
                    $($w => add_fixed::<$w>,)*
                    _ => add,
                }
            };
        }
        let add: fn(&mut Self, f64, &[f64], f64) = fixed!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
        let mut quadratic = Self {
            a: vec![0.0; d * d],
            b: vec![0.0; d],
            c: 0.0,
            scale,
        };
        for row in rows {
            let (w, x, y) = row?;
            add(&mut quadratic, w, x, y);
        }
        // Copy the upper triangle onto the lower.
        for i in 0..d {
            for j in 0..i {
                quadratic.a[i * d + j] = quadratic.a[j * d + i];
            }
        }
        Some(quadratic)
    }

    fn is_finite(&self) -> bool {
        self.c.is_finite() && vecmath::all_finite(&self.a) && vecmath::all_finite(&self.b)
    }

    /// `s·(Σ_i θ_i·((Aθ)_i − 2b_i) + c)`.
    fn value(&self, theta: &[f64]) -> f64 {
        let rows = self.a.chunks_exact(theta.len()).zip(&self.b);
        let quadratic: f64 = rows
            .zip(theta)
            .map(|((row, &b), &t)| t * (vecmath::dot(row, theta) - 2.0 * b))
            .sum();
        self.scale * (quadratic + self.c)
    }

    /// `2s·(Aθ − b)`.
    fn gradient(&self, theta: &[f64], out: &mut [f64]) {
        let rows = self.a.chunks_exact(theta.len()).zip(&self.b);
        for (o, (row, &b)) in out.iter_mut().zip(rows) {
            *o = 2.0 * self.scale * (vecmath::dot(row, theta) - b);
        }
    }
}

/// Add `w·x xᵀ` to the upper triangle of `A`, `w·y·x` to `b` and `w·y²` to
/// `c`, over `d = x.len()` features.
#[inline(always)]
fn add(quadratic: &mut Quadratic, w: f64, x: &[f64], y: f64) {
    let d = x.len();
    for i in 0..d {
        let wx = w * x[i];
        let row = &mut quadratic.a[i * d..][..d];
        for j in i..d {
            row[j] += wx * x[j];
        }
        quadratic.b[i] += wx * y;
    }
    quadratic.c += w * y * y;
}

/// [`add`] with the width a compile-time constant, so its loops unroll:
/// at `d = 10` over 1,024 rows the build takes half the time.
fn add_fixed<const D: usize>(quadratic: &mut Quadratic, w: f64, x: &[f64], y: f64) {
    let x: &[f64; D] = x.try_into().expect("one coordinate per feature");
    add(quadratic, w, x, y);
}

/// Rows per tile. The GLM passes run one tile at a time, so each row is read
/// from memory once per call and the tile's dot products stay on the stack.
const TILE: usize = 64;

/// A GLM objective's positive-weight rows, with their weights and labels.
struct GlmRows<'a> {
    link: LinkFn,
    kernel: Kernel,
    /// Row `i`'s features are `rows[i·stride..][..d]`: the point matrix
    /// itself (stride `point_dim`) when every weight is positive, otherwise
    /// the kept rows' features, compacted (stride `d`).
    rows: Cow<'a, [f64]>,
    stride: usize,
    weights: Cow<'a, [f64]>,
    labels: Vec<f64>,
}

impl<'a> GlmRows<'a> {
    /// `None` for a zero-width loss, or when some kept row has no label.
    fn new<L: CmLoss + ?Sized>(
        loss: &L,
        link: LinkFn,
        points: &'a PointMatrix,
        weights: &'a [f64],
    ) -> Option<Self> {
        let d = loss.dim();
        if d == 0 {
            return None;
        }
        let kept = weights.iter().filter(|&&w| w > 0.0).count();
        let compact = kept < weights.len();
        let (mut rows, mut kept_weights) = if compact {
            (Vec::with_capacity(kept * d), Vec::with_capacity(kept))
        } else {
            (Vec::new(), Vec::new())
        };
        let mut labels = Vec::with_capacity(kept);
        for (x, &w) in points.iter().zip(weights).filter(|(_, &w)| w > 0.0) {
            labels.push(loss.glm_label(x)?);
            if compact {
                rows.extend_from_slice(&x[..d]);
                kept_weights.push(w);
            }
        }
        let (rows, stride, weights) = if compact {
            (Cow::Owned(rows), d, Cow::Owned(kept_weights))
        } else {
            (
                Cow::Borrowed(points.as_flat()),
                points.dim(),
                Cow::Borrowed(weights),
            )
        };
        Some(Self {
            link,
            kernel: Kernel::for_width(d),
            rows,
            stride,
            weights,
            labels,
        })
    }

    /// The kept rows, [`TILE`] at a time.
    fn tiles(&self) -> impl Iterator<Item = Tile<'_>> {
        let rows = self.rows.chunks(TILE * self.stride);
        let weights = self.weights.chunks(TILE);
        rows.zip(weights)
            .zip(self.labels.chunks(TILE))
            .map(|((rows, weights), labels)| Tile {
                rows,
                stride: self.stride,
                weights,
                labels,
            })
    }

    fn value(&self, theta: &[f64]) -> f64 {
        let link = self.link;
        let mut z = [0.0; TILE];
        // Where `Iterator::sum` starts, so the running total over the tiles
        // is the per-point path's sum.
        let mut total = -0.0;
        for tile in self.tiles() {
            let z = &mut z[..tile.weights.len()];
            (self.kernel.dots)(&tile, theta, z);
            for ((&z, &y), &w) in z.iter().zip(tile.labels).zip(tile.weights) {
                total += w * link.value(z, y);
            }
        }
        total
    }

    /// `out` must be zeroed.
    fn gradient(&self, theta: &[f64], out: &mut [f64]) {
        let link = self.link;
        let mut z = [0.0; TILE];
        for tile in self.tiles() {
            let z = &mut z[..tile.weights.len()];
            (self.kernel.dots)(&tile, theta, z);
            for (z, &y) in z.iter_mut().zip(tile.labels) {
                *z = link.derivative(*z, y);
            }
            (self.kernel.accumulate)(&tile, z, out);
        }
    }
}

/// Up to [`TILE`] consecutive kept rows, laid out as in [`GlmRows`].
struct Tile<'t> {
    rows: &'t [f64],
    stride: usize,
    weights: &'t [f64],
    labels: &'t [f64],
}

/// Passes 1 and 3 of the GLM objective over one tile, compiled for one
/// feature width.
struct Kernel {
    /// `z_i = ⟨θ, x_i⟩` for every row of the tile.
    dots: fn(&Tile<'_>, &[f64], &mut [f64]),
    /// `out_j += w_i·(φ′_i·x_ij)` over the tile's rows in order, given `φ′`.
    accumulate: fn(&Tile<'_>, &[f64], &mut [f64]),
}

impl Kernel {
    /// Widths up to 16 get passes with the width a compile-time constant,
    /// so the lanes' dot products and the gradient accumulators unroll
    /// into registers; wider rows run the same passes with a runtime width.
    ///
    /// Against the runtime-width passes at every d, on a 2-core VM:
    /// perfbench online-glm (d = 10), 10 alternating pairs × 30 s, reads
    /// `latency_p50_us` 1546 → 924; a squared-link gradient over 1024 rows
    /// takes 16.6–17.4 → 8.1–8.8 ns per row at d = 10, 10.5–10.9 → 4.4–4.6
    /// at d = 3 and 16.3–20.0 → 10.0–12.3 at d = 16. No benchmark workload
    /// runs a width other than 10, and the other widths are unmeasured.
    fn for_width(d: usize) -> Self {
        macro_rules! fixed {
            ($($w:literal)*) => {
                match d {
                    $($w => Kernel {
                        dots: dots_fixed::<$w>,
                        accumulate: accumulate_fixed::<$w>,
                    },)*
                    _ => Kernel { dots, accumulate },
                }
            };
        }
        fixed!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    }
}

fn dots_fixed<const D: usize>(tile: &Tile<'_>, theta: &[f64], z: &mut [f64]) {
    dots(tile, &theta[..D], z);
}

fn accumulate_fixed<const D: usize>(tile: &Tile<'_>, dphi: &[f64], out: &mut [f64]) {
    let mut acc: [f64; D] = out.try_into().expect("one accumulator per feature");
    accumulate(tile, dphi, &mut acc);
    out.copy_from_slice(&acc);
}

/// Pass 1. Each lane sums its point's coordinates in order from `−0.0`, as
/// [`vecmath::dot`] does; four lanes run side by side.
#[inline(always)]
fn dots(tile: &Tile<'_>, theta: &[f64], z: &mut [f64]) {
    let (d, s) = (theta.len(), tile.stride);
    let quads = tile.rows.chunks_exact(4 * s);
    let tail = quads.remainder();
    let mut zq = z.chunks_exact_mut(4);
    for (q, zq) in quads.zip(zq.by_ref()) {
        let x = [
            &q[..d],
            &q[s..s + d],
            &q[2 * s..2 * s + d],
            &q[3 * s..3 * s + d],
        ];
        let mut sum = [-0.0; 4];
        for (j, &t) in theta.iter().enumerate() {
            for (sum, x) in sum.iter_mut().zip(x) {
                *sum += t * x[j];
            }
        }
        zq.copy_from_slice(&sum);
    }
    for (zi, x) in zq.into_remainder().iter_mut().zip(tail.chunks_exact(s)) {
        *zi = vecmath::dot(theta, &x[..d]);
    }
}

/// Pass 3, into `acc` of length `d`.
#[inline(always)]
fn accumulate(tile: &Tile<'_>, dphi: &[f64], acc: &mut [f64]) {
    let d = acc.len();
    let rows = tile.rows.chunks_exact(tile.stride).zip(tile.weights);
    for ((x, &w), &dphi) in rows.zip(dphi) {
        for (a, &x) in acc.iter_mut().zip(&x[..d]) {
            *a += w * (dphi * x);
        }
    }
}

/// Exactly minimize the weighted loss over its domain with a solver chosen
/// from the loss metadata: constant-step gradient descent when smooth,
/// averaged subgradient descent otherwise (strong convexity upgrades the
/// schedule). This is the non-private inner solve PMW performs on hypothesis
/// histograms every round: [`WeightedObjective::solve`] on a fresh objective,
/// returning only `θ`.
pub fn minimize_weighted<L: CmLoss + ?Sized>(
    loss: &L,
    points: &PointMatrix,
    weights: &[f64],
    max_iters: usize,
) -> Result<Vec<f64>, LossError> {
    let objective = WeightedObjective::new(loss, points, weights)?;
    Ok(objective.solve(max_iters)?.theta)
}

/// The solver configuration [`minimize_weighted`] derives from loss
/// metadata; exposed so the mechanism crates can reuse the policy.
pub fn default_solver_config<L: CmLoss + ?Sized>(
    loss: &L,
    max_iters: usize,
) -> Result<SolverConfig, LossError> {
    // The bounds go to `SolverConfig` unclamped: its finite-and-positive
    // checks reject corrupt metadata, where a clamp would turn a NaN bound
    // into a huge step and an `Ok` far from the minimizer.
    let config = if let Some(smooth) = loss.smoothness() {
        SolverConfig::smooth(smooth, max_iters)?
    } else if loss.strong_convexity() > 0.0 {
        SolverConfig::strongly_convex(loss.strong_convexity(), max_iters)?
    } else {
        SolverConfig::subgradient(loss.lipschitz(), loss.domain().diameter(), max_iters)?
    };
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glm::SquaredLoss;

    fn matrix(rows: Vec<Vec<f64>>) -> PointMatrix {
        PointMatrix::from_rows(rows).unwrap()
    }

    #[test]
    fn weighted_objective_validates_inputs() {
        let loss = SquaredLoss::new(2).unwrap();
        let pts = matrix(vec![vec![1.0, 0.0, 0.5]]);
        assert!(WeightedObjective::new(&loss, &pts, &[0.5, 0.5]).is_err());
        let bad_pts = matrix(vec![vec![1.0, 0.0]]);
        assert!(WeightedObjective::new(&loss, &bad_pts, &[1.0]).is_err());
        assert!(WeightedObjective::new(&loss, &pts, &[-1.0]).is_err());
        assert!(WeightedObjective::new(&loss, &pts, &[1.0]).is_ok());
    }

    #[test]
    fn weighted_value_is_convex_combination() {
        let loss = SquaredLoss::new(1).unwrap();
        // Points (x=1, y=0) and (x=1, y=1).
        let pts = matrix(vec![vec![1.0, 0.0], vec![1.0, 1.0]]);
        let obj = WeightedObjective::new(&loss, &pts, &[0.25, 0.75]).unwrap();
        let theta = [0.0];
        let expect = 0.25 * loss.loss(&theta, pts.row(0)) + 0.75 * loss.loss(&theta, pts.row(1));
        assert!((obj.value(&theta) - expect).abs() < 1e-12);
    }

    #[test]
    fn weighted_gradient_matches_finite_difference() {
        let loss = SquaredLoss::new(2).unwrap();
        let pts = matrix(vec![vec![0.5, -0.5, 1.0], vec![-1.0, 0.3, -1.0]]);
        let obj = WeightedObjective::new(&loss, &pts, &[0.4, 0.6]).unwrap();
        let theta = [0.2, -0.7];
        let g = obj.gradient_vec(&theta);
        let h = 1e-6;
        for i in 0..2 {
            let mut plus = theta;
            plus[i] += h;
            let mut minus = theta;
            minus[i] -= h;
            let fd = (obj.value(&plus) - obj.value(&minus)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-5, "coord {i}");
        }
    }

    #[test]
    fn minimize_weighted_solves_one_dim_regression() {
        // Data: y = 0.8*x exactly; squared loss recovers theta ~ 0.8.
        let loss = SquaredLoss::new(1).unwrap();
        let pts = matrix(
            (0..10)
                .map(|i| {
                    let x = (i as f64 / 10.0) * 2.0 - 1.0;
                    vec![x, 0.8 * x]
                })
                .collect(),
        );
        let w = vec![0.1; 10];
        let theta = minimize_weighted(&loss, &pts, &w, 4000).unwrap();
        assert!((theta[0] - 0.8).abs() < 0.01, "{}", theta[0]);
    }

    #[test]
    fn zero_weight_points_are_ignored() {
        let loss = SquaredLoss::new(1).unwrap();
        let pts = matrix(vec![vec![1.0, 1.0], vec![1.0, -1.0]]);
        let obj_a = WeightedObjective::new(&loss, &pts, &[1.0, 0.0]).unwrap();
        let only = matrix(vec![vec![1.0, 1.0]]);
        let obj_b = WeightedObjective::new(&loss, &only, &[1.0]).unwrap();
        let theta = [0.3];
        assert!((obj_a.value(&theta) - obj_b.value(&theta)).abs() < 1e-12);
    }

    #[test]
    fn default_config_prefers_smooth_schedule() {
        let loss = SquaredLoss::new(2).unwrap();
        let c = default_solver_config(&loss, 100).unwrap();
        assert!(matches!(c.step, pmw_convex::StepRule::Constant(_)));
    }

    /// `inner` without its GLM structure, so [`WeightedObjective`] takes the
    /// per-point path. With `nan_bound`, the bound the solver steps by —
    /// the smoothness of a smooth loss, the Lipschitz constant otherwise —
    /// reads NaN.
    struct PerPoint<'a> {
        inner: &'a dyn CmLoss,
        nan_bound: bool,
    }

    impl CmLoss for PerPoint<'_> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn domain(&self) -> &Domain {
            self.inner.domain()
        }
        fn point_dim(&self) -> usize {
            self.inner.point_dim()
        }
        fn loss(&self, theta: &[f64], x: &[f64]) -> f64 {
            self.inner.loss(theta, x)
        }
        fn gradient(&self, theta: &[f64], x: &[f64], out: &mut [f64]) {
            self.inner.gradient(theta, x, out)
        }
        fn lipschitz(&self) -> f64 {
            if self.nan_bound && self.inner.smoothness().is_none() {
                f64::NAN
            } else {
                self.inner.lipschitz()
            }
        }
        fn smoothness(&self) -> Option<f64> {
            let nan = self.nan_bound;
            self.inner
                .smoothness()
                .map(|s| if nan { f64::NAN } else { s })
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `len`-coordinate draws from `[lo, hi)`, from a generator seeded with
    /// `seed`.
    fn uniform_source(seed: u64) -> impl FnMut(usize, f64, f64) -> Vec<f64> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        move |len, lo, hi| {
            (0..len)
                .map(|_| lo + (hi - lo) * rng.random::<f64>())
                .collect()
        }
    }

    /// The weight layouts of the bit-identity tests, as (rows, weights):
    /// every weight positive over the first `len - 3..=len` rows, so a GLM
    /// objective borrows the point matrix; and `len` rows with zero weight
    /// on the first, the last and 0..=3 more points, so it compacts the kept
    /// rows. At `len = 2·TILE + 4` the kept rows fill two tiles and part of
    /// a third (or exactly two) either way, and their counts take every
    /// residue mod 4.
    fn weight_layouts(
        len: usize,
        uniform: &mut impl FnMut(usize, f64, f64) -> Vec<f64>,
    ) -> Vec<(usize, Vec<f64>)> {
        let mut layouts: Vec<(usize, Vec<f64>)> =
            (len - 3..=len).map(|n| (n, uniform(n, 0.1, 1.1))).collect();
        for extra in 0..4 {
            let mut w = uniform(len, 0.1, 1.1);
            w[0] = 0.0;
            w[len - 1] = 0.0;
            for i in 0..extra {
                w[7 + 9 * i] = 0.0;
            }
            layouts.push((len, w));
        }
        layouts
    }

    /// `value` and `gradient` of `fast` are `to_bits`-equal to `per_point`'s
    /// at every `θ`.
    fn assert_same_bits(
        fast: &impl Objective,
        per_point: &impl Objective,
        thetas: &[Vec<f64>],
        case: &str,
    ) {
        for theta in thetas {
            assert_eq!(
                fast.value(theta).to_bits(),
                per_point.value(theta).to_bits(),
                "{case}: value at {theta:?}"
            );
            assert_eq!(
                bits(&fast.gradient_vec(theta)),
                bits(&per_point.gradient_vec(theta)),
                "{case}: gradient at {theta:?}"
            );
        }
    }

    #[test]
    fn fused_glm_pass_is_bit_identical_to_the_per_point_path() {
        use crate::catalog::TargetLoss;
        use crate::glm::GlmLoss;
        use std::collections::BTreeSet;

        let mut uniform = uniform_source(17);
        // (layout is borrowed, kept points mod 4) over every case.
        let mut covered = BTreeSet::new();
        let len = 2 * TILE + 4;
        // Both sides of every specialised width class and of the d = 16
        // boundary.
        for d in [1, 3, 4, 10, 16, 17, 33] {
            // Features in [-0.6, 0.6]; the labeled rows' last coordinate
            // is the label.
            let labeled = matrix((0..len).map(|_| uniform(d + 1, -0.6, 0.6)).collect());
            let unlabeled = matrix((0..len).map(|_| uniform(d, -0.6, 0.6)).collect());
            let dir = uniform(d, -1.0, 1.0);

            let mut cases: Vec<(Box<dyn CmLoss>, &PointMatrix)> = Vec::new();
            for link in [
                LinkFn::Logistic,
                LinkFn::Hinge,
                LinkFn::Absolute,
                LinkFn::Huber { delta: 0.5 },
            ] {
                cases.push((Box::new(GlmLoss::new(link, d).unwrap()), &labeled));
            }
            let task = TargetLoss::regression(dir.clone(), LinkFn::Huber { delta: 0.3 });
            cases.push((Box::new(task.unwrap()), &unlabeled));
            for link in [LinkFn::Logistic, LinkFn::Hinge] {
                let task = TargetLoss::classification(dir.clone(), link).unwrap();
                cases.push((Box::new(task), &unlabeled));
            }
            // Squared links solve from their statistics instead.
            let squared = GlmLoss::new(LinkFn::Squared, d).unwrap();
            let ones = vec![1.0; len];
            let squared = WeightedObjective::new(&squared, &labeled, &ones).unwrap();
            assert!(
                matches!(squared.path, Path::Quadratic(_)),
                "squared, d = {d}"
            );

            let layouts = weight_layouts(len, &mut uniform);
            let thetas = [vec![0.0; d], uniform(d, -0.3, 0.3), uniform(d, -0.9, 0.9)];
            for (loss, rows) in &cases {
                let name = loss.name();
                let per_point_loss = PerPoint {
                    inner: loss.as_ref(),
                    nan_bound: false,
                };
                for (n, w) in &layouts {
                    let pts =
                        PointMatrix::from_flat(rows.row_block(0, *n).to_vec(), rows.dim()).unwrap();
                    let fused = WeightedObjective::new(loss.as_ref(), &pts, w).unwrap();
                    let per_point = WeightedObjective::new(&per_point_loss, &pts, w).unwrap();
                    let Path::Glm(glm) = &fused.path else {
                        panic!("{name}, d = {d}: not on the tiled passes");
                    };
                    let case = format!("{name}, d = {d}, {} of {n} rows kept", glm.labels.len());
                    assert!(matches!(per_point.path, Path::PerPoint), "{case}");
                    let borrowed = matches!(glm.rows, Cow::Borrowed(_));
                    assert_eq!(borrowed, w.iter().all(|&w| w > 0.0), "{case}");
                    covered.insert((borrowed, glm.labels.len() % 4));
                    assert_same_bits(&fused, &per_point, &thetas, &case);
                    let a = minimize_weighted(loss.as_ref(), &pts, w, 60).unwrap();
                    let b = minimize_weighted(&per_point_loss, &pts, w, 60).unwrap();
                    assert_eq!(bits(&a), bits(&b), "{case}: minimizer");
                }
            }
        }
        assert_eq!(covered.len(), 8, "{covered:?}");
    }

    /// The bound the quadratic path keeps to against the per-point path:
    /// `|fast − per-point| ≤ QUADRATIC_TOLERANCE·(1 + |per-point|)`.
    const QUADRATIC_TOLERANCE: f64 = 1e-12;

    /// `a` is within [`QUADRATIC_TOLERANCE`] of the per-point `b`.
    fn assert_near(a: f64, b: f64, what: &str) {
        let gap = (a - b).abs();
        assert!(
            gap <= QUADRATIC_TOLERANCE * (1.0 + b.abs()),
            "{what}: {a} vs per-point {b} ({gap:e} apart)"
        );
    }

    /// `fast` takes the quadratic path and `per_point` the per-point one,
    /// and their values, gradients, 60-iteration minimizers and reported
    /// minima agree within [`QUADRATIC_TOLERANCE`].
    fn assert_near_per_point<L: CmLoss + ?Sized, P: CmLoss + ?Sized>(
        fast: &WeightedObjective<'_, L>,
        per_point: &WeightedObjective<'_, P>,
        thetas: &[Vec<f64>],
        case: &str,
    ) {
        assert!(matches!(fast.path, Path::Quadratic(_)), "{case}");
        assert!(matches!(per_point.path, Path::PerPoint), "{case}");
        for theta in thetas {
            let at = format!("{case}, θ = {theta:?}");
            assert_near(fast.value(theta), per_point.value(theta), &at);
            let (g, h) = (fast.gradient_vec(theta), per_point.gradient_vec(theta));
            for (g, h) in g.into_iter().zip(h) {
                assert_near(g, h, &format!("{at}: gradient"));
            }
        }
        let (a, b) = (fast.solve(60).unwrap(), per_point.solve(60).unwrap());
        for (a, b) in a.theta.iter().zip(&b.theta) {
            assert_near(*a, *b, &format!("{case}: minimizer"));
        }
        assert_near(a.value, b.value, &format!("{case}: minimum"));
    }

    #[test]
    fn quadratic_path_matches_the_per_point_path() {
        use crate::catalog::TargetLoss;
        use crate::glm::GlmLoss;
        use crate::linear_query::{LinearQueryLoss, PointPredicate};

        let mut uniform = uniform_source(17);
        let len = 2 * TILE + 4;
        for d in [1, 3, 4, 10, 16, 17, 33] {
            // Features in [-0.6, 0.6]; the labeled rows' last coordinate
            // is the label.
            let labeled = matrix((0..len).map(|_| uniform(d + 1, -0.6, 0.6)).collect());
            let unlabeled = matrix((0..len).map(|_| uniform(d, -0.6, 0.6)).collect());
            let task = TargetLoss::regression(uniform(d, -1.0, 1.0), LinkFn::Squared).unwrap();
            let cases: [(Box<dyn CmLoss>, &PointMatrix); 2] = [
                (
                    Box::new(GlmLoss::new(LinkFn::Squared, d).unwrap()),
                    &labeled,
                ),
                (Box::new(task), &unlabeled),
            ];
            let layouts = weight_layouts(len, &mut uniform);
            let thetas = [vec![0.0; d], uniform(d, -0.3, 0.3), uniform(d, -0.9, 0.9)];
            for (loss, rows) in &cases {
                let hidden = PerPoint {
                    inner: loss.as_ref(),
                    nan_bound: false,
                };
                for (n, w) in &layouts {
                    let pts =
                        PointMatrix::from_flat(rows.row_block(0, *n).to_vec(), rows.dim()).unwrap();
                    let fast = WeightedObjective::new(loss.as_ref(), &pts, w).unwrap();
                    let per_point = WeightedObjective::new(&hidden, &pts, w).unwrap();
                    let case = format!(
                        "{} on {} columns, d = {d}, {n} rows",
                        loss.name(),
                        rows.dim()
                    );
                    assert_near_per_point(&fast, &per_point, &thetas, &case);
                }
            }
        }

        let (len, p) = (2 * TILE + 4, 6);
        // Coordinates in [0, 1], so every predicate splits the rows.
        let rows = matrix((0..len).map(|_| uniform(p, 0.0, 1.0)).collect());
        let predicates = [
            PointPredicate::Halfspace {
                normal: uniform(p, -1.0, 1.0),
                offset: 0.1,
            },
            PointPredicate::Threshold {
                coord: 2,
                threshold: 0.4,
                at_least: true,
            },
            PointPredicate::Conjunction { coords: vec![0, 3] },
            // Clamped at both ends on some rows, strictly inside on others.
            PointPredicate::Linear {
                weights: vec![0.9, -0.9, 0.6, -0.6, 0.3, -0.3],
                offset: 0.5,
            },
        ];
        let layouts = weight_layouts(len, &mut uniform);
        // Three θ inside Θ = [0, 1] and one outside it.
        let thetas = [
            uniform(1, 0.0, 1.0),
            uniform(1, 0.0, 1.0),
            uniform(1, 0.0, 1.0),
            uniform(1, 1.0, 2.0),
        ];
        for predicate in predicates {
            let loss = LinearQueryLoss::new(predicate, p).unwrap();
            let hidden = PerPoint {
                inner: &loss,
                nan_bound: false,
            };
            let targets: Vec<f64> = rows.iter().map(|x| loss.query().evaluate(x)).collect();
            let case = format!("{:?}", loss.query().predicate());
            assert!(targets.contains(&0.0) && targets.contains(&1.0), "{case}");
            if matches!(loss.query().predicate(), PointPredicate::Linear { .. }) {
                let inside = targets.iter().any(|&t| t > 0.0 && t < 1.0);
                assert!(inside, "{case}: no target inside (0, 1)");
            }
            for (n, w) in &layouts {
                let pts = PointMatrix::from_flat(rows.row_block(0, *n).to_vec(), p).unwrap();
                let fast = WeightedObjective::new(&loss, &pts, w).unwrap();
                let per_point = WeightedObjective::new(&hidden, &pts, w).unwrap();
                let case = format!("{case}, {n} rows");
                assert_near_per_point(&fast, &per_point, &thetas, &case);
            }
        }
    }

    /// Statistics that overflow leave the quadratic path for the one the
    /// loss takes without it, with the per-point bits: a squared GLM's
    /// `x xᵀ` at ±1e200 coordinates goes to the tiled passes, and a linear
    /// query whose targets include NaN (±`f64::MAX` coordinates under
    /// weights above 1) goes per point.
    #[test]
    fn overflowing_statistics_fall_back_to_the_per_point_bits() {
        use crate::catalog::TargetLoss;
        use crate::glm::GlmLoss;
        use crate::linear_query::{LinearQueryLoss, PointPredicate};

        let big = |v: f64| if v < 0.0 { -1e200 } else { 1e200 };
        let mut uniform = uniform_source(61);
        let d = 3;
        let mut rows: Vec<Vec<f64>> = (0..12).map(|_| uniform(d + 1, -0.6, 0.6)).collect();
        for row in rows.iter_mut().step_by(3) {
            row[..d].iter_mut().for_each(|v| *v = big(*v));
        }
        let labeled = matrix(rows.clone());
        let unlabeled = matrix(rows.iter().map(|r| r[..d].to_vec()).collect());
        let squared: [(Box<dyn CmLoss>, &PointMatrix); 2] = [
            (
                Box::new(GlmLoss::new(LinkFn::Squared, d).unwrap()),
                &labeled,
            ),
            (
                Box::new(TargetLoss::regression(uniform(d, -1.0, 1.0), LinkFn::Squared).unwrap()),
                &unlabeled,
            ),
        ];
        let weights = uniform(rows.len(), 0.1, 1.1);
        // Finite per-point values and gradients: ⟨θ, x⟩ stays below ~1.
        let thetas = [vec![0.0; d], vec![1e-201, -2e-201, 3e-201]];
        for (loss, pts) in &squared {
            let hidden = PerPoint {
                inner: loss.as_ref(),
                nan_bound: false,
            };
            let fast = WeightedObjective::new(loss.as_ref(), pts, &weights).unwrap();
            let per_point = WeightedObjective::new(&hidden, pts, &weights).unwrap();
            assert!(matches!(fast.path, Path::Glm(_)), "{}", loss.name());
            assert_same_bits(&fast, &per_point, &thetas, loss.name());
            assert!(fast.gradient_vec(&thetas[0]).iter().all(|g| g.is_finite()));
        }

        let pts = matrix(vec![
            vec![f64::MAX, f64::MAX],
            vec![0.2, 0.7],
            vec![-f64::MAX, 0.4],
        ]);
        let loss = LinearQueryLoss::new(
            PointPredicate::Linear {
                weights: vec![1.5, -1.5],
                offset: 0.5,
            },
            2,
        )
        .unwrap();
        assert!(loss.query().evaluate(pts.row(0)).is_nan());
        let hidden = PerPoint {
            inner: &loss,
            nan_bound: false,
        };
        let fast = WeightedObjective::new(&loss, &pts, &[0.5, 0.3, 0.2]).unwrap();
        let per_point = WeightedObjective::new(&hidden, &pts, &[0.5, 0.3, 0.2]).unwrap();
        assert!(matches!(fast.path, Path::PerPoint));
        assert_same_bits(&fast, &per_point, &[vec![0.25], vec![0.75]], "linear");
    }

    /// `LinearQueryLoss::certificate_batch` writes the bits of the default
    /// per-point sweep (`gradient`, then `⟨direction, ∇⟩`) for every
    /// predicate kind and both threshold sides, on rows with ±0 and
    /// ±`f64::MAX` coordinates. A `PointMatrix` holds only finite
    /// coordinates, so NaN enters through the dot products: a weight above
    /// 1 turns ±`MAX` into ±∞, and a row with both sums to NaN. The rows
    /// span two full `PAR_THRESHOLD` chunks and a partial third, so with two
    /// or more sweep workers the sweep forks.
    #[test]
    fn linear_query_certificate_batch_matches_the_per_point_sweep() {
        use crate::linear_query::{LinearQueryLoss, PointPredicate};

        let p = 5;
        let len = 2 * pmw_data::par::PAR_THRESHOLD + 777;
        let mut uniform = uniform_source(43);
        // 13 is coprime to p, so every coordinate meets every special value.
        let flat: Vec<f64> = uniform(len * p, -0.25, 1.25)
            .into_iter()
            .enumerate()
            .map(|(i, v)| match i % 13 {
                3 => f64::MAX,
                5 => -f64::MAX,
                7 => 0.0,
                11 => -0.0,
                1 | 9 => f64::from(v >= 0.5),
                _ => v,
            })
            .collect();
        let pts = PointMatrix::from_flat(flat, p).unwrap();
        let predicates = [
            PointPredicate::Conjunction { coords: vec![1, 3] },
            PointPredicate::Parity {
                coords: vec![0, 2, 4],
            },
            PointPredicate::Threshold {
                coord: 2,
                threshold: 0.4,
                at_least: true,
            },
            PointPredicate::Threshold {
                coord: 4,
                threshold: -0.0,
                at_least: true,
            },
            PointPredicate::Threshold {
                coord: 1,
                threshold: 0.4,
                at_least: false,
            },
            PointPredicate::Threshold {
                coord: 3,
                threshold: 0.0,
                at_least: false,
            },
            PointPredicate::Halfspace {
                normal: uniform(p, -2.0, 2.0),
                offset: 0.05,
            },
            PointPredicate::Linear {
                weights: vec![0.9, -0.9, 0.6, -0.6, 0.3],
                offset: 0.5,
            },
            PointPredicate::Linear {
                weights: vec![1.5, -1.5, 1.25, -1.25, 1.5],
                offset: 0.5,
            },
        ];
        let cases = [([0.3], [1.0]), ([-0.0], [-0.7]), ([1.0], [-0.0])];
        let mut nan_rows = 0;
        for predicate in predicates {
            let loss = LinearQueryLoss::new(predicate, p).unwrap();
            let per_point = PerPoint {
                inner: &loss,
                nan_bound: false,
            };
            for (theta, dir) in &cases {
                let mut fast = vec![0.0; len];
                let mut slow = vec![0.0; len];
                certificate_sweep(&loss, theta, dir, &pts, &mut fast).unwrap();
                certificate_sweep(&per_point, theta, dir, &pts, &mut slow).unwrap();
                for (r, (f, s)) in fast.iter().zip(&slow).enumerate() {
                    assert_eq!(
                        f.to_bits(),
                        s.to_bits(),
                        "{:?}, θ {theta:?}, direction {dir:?}, row {r}: {f} vs {s}",
                        loss.query().predicate()
                    );
                }
                nan_rows += fast.iter().filter(|v| v.is_nan()).count();
            }
        }
        assert!(nan_rows > 0, "no NaN payoff was swept");
    }

    #[test]
    fn nan_smoothness_fails_closed() {
        // A clamp like `smooth.max(1e-9)` maps NaN to 1e-9: a 1e9 step and
        // an `Ok` far from the minimizer.
        let inner = SquaredLoss::new(2).unwrap();
        let loss = PerPoint {
            inner: &inner,
            nan_bound: true,
        };
        let pts = matrix(vec![vec![0.5, -0.5, 1.0], vec![-1.0, 0.3, -1.0]]);
        assert!(default_solver_config(&loss, 100).is_err());
        assert!(minimize_weighted(&loss, &pts, &[0.5, 0.5], 100).is_err());
    }

    #[test]
    fn nan_lipschitz_fails_closed_on_the_subgradient_branch() {
        let inner = crate::glm::AbsoluteLoss::new(2).unwrap();
        let loss = PerPoint {
            inner: &inner,
            nan_bound: true,
        };
        assert!(loss.smoothness().is_none());
        let pts = matrix(vec![vec![0.5, -0.5, 1.0], vec![-1.0, 0.3, -1.0]]);
        assert!(default_solver_config(&loss, 100).is_err());
        assert!(minimize_weighted(&loss, &pts, &[0.5, 0.5], 100).is_err());
    }

    #[test]
    fn clone_shared_retains_losses_through_dyn() {
        let loss = SquaredLoss::new(2).unwrap();
        let dynl: &dyn CmLoss = &loss;
        let shared = dynl.clone_shared().expect("concrete losses are retainable");
        assert_eq!(shared.dim(), 2);
        assert_eq!(shared.name(), loss.name());
        // The handle is an independent owned copy, not a borrow.
        assert_eq!(shared.point_dim(), 3);
    }

    #[test]
    fn certificate_sweep_validates_inputs() {
        let loss = SquaredLoss::new(1).unwrap();
        let pts = matrix(vec![vec![1.0, 0.5], vec![-1.0, 0.2]]);
        let mut out = vec![0.0; 2];
        assert!(certificate_sweep(&loss, &[0.0, 0.0], &[1.0], &pts, &mut out).is_err());
        assert!(certificate_sweep(&loss, &[0.0], &[1.0, 0.0], &pts, &mut out).is_err());
        let bad_pts = matrix(vec![vec![1.0]]);
        let mut bad_out = vec![0.0; 1];
        assert!(certificate_sweep(&loss, &[0.0], &[1.0], &bad_pts, &mut bad_out).is_err());
        let mut short = vec![0.0; 1];
        assert!(certificate_sweep(&loss, &[0.0], &[1.0], &pts, &mut short).is_err());
        assert!(certificate_sweep(&loss, &[0.0], &[1.0], &pts, &mut out).is_ok());
    }

    #[test]
    fn certificate_sweep_matches_per_point_gradient_dots() {
        let loss = SquaredLoss::new(2).unwrap();
        let pts = matrix(vec![
            vec![0.5, -0.5, 1.0],
            vec![-1.0, 0.3, -1.0],
            vec![0.2, 0.9, 0.4],
        ]);
        let theta = [0.3, -0.2];
        let dir = [0.7, 0.1];
        let mut out = vec![0.0; 3];
        certificate_sweep(&loss, &theta, &dir, &pts, &mut out).unwrap();
        let mut grad = vec![0.0; 2];
        for (i, x) in pts.iter().enumerate() {
            loss.gradient(&theta, x, &mut grad);
            let expect = vecmath::dot(&dir, &grad);
            assert!((out[i] - expect).abs() < 1e-12, "row {i}");
        }
    }
}
