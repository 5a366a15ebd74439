//! [`SampledBackend`]: the Monte-Carlo sketch of the MW state — per-round
//! cost independent of `|X|`.
//!
//! The backend keeps a **pool** of `m` universe indices drawn uniformly
//! (i.i.d., with replacement) at construction, their points cached in one
//! flat matrix, and their unnormalized log-weights maintained
//! *incrementally*: recording a round updates `m` cached values in
//! `O(m·d)` — not `O(|X|)`, and not even `O(m·t)`, because the log-weight
//! of a pooled point never has to be recomputed from the log.
//!
//! Reads are importance-sampling estimates against the uniform proposal:
//!
//! * **certificate means** `⟨u, D̂_t⟩` via self-normalized importance
//!   sampling, certified by the **minimum of three** concentration bounds
//!   evaluated in the same `O(m)` pass (the configured `β` is split
//!   across the candidates, so claiming the minimum is still a valid
//!   `1 − β` claim, and the ledger records which bound won):
//!   1. the worst-case **drift-envelope Hoeffding** bound
//!      (`|log w(x)| ≤ Σ_t η_t·S_t`, so `w(x) ∈ [e^{−c}, e^{c}]` and
//!      Hoeffding applies to both the numerator and the normalizer) —
//!      computable before any sample is drawn, but measured orders of
//!      magnitude above the realized error once the log has drifted;
//!   2. the **effective-sample-size** bound: Hoeffding at the pool's
//!      realized `ESS = (Σw)²/Σw²` with the *integrand's* range `2·S`,
//!      replacing the worst-case envelope with the weight spread the pool
//!      actually exhibits;
//!   3. the **empirical-Bernstein** (Maurer–Pontil) bound on the
//!      delta-method variance `Σ ŵ_i²(u_i − û)²` of the self-normalized
//!      ratio — the realized variance of the read, which also collapses
//!      when the integrand barely varies over the pool;
//! * **max payoffs** `max_x u_t(x)` as the pool maximum plus the quantile
//!   coverage bound `(1−q)^m ≤ β` — the returned value misses at most a
//!   `q = ln(1/β)/m` *uniform-mass* fraction of the universe, with
//!   probability `≥ 1 − β`;
//! * **samples** from `D̂_t` by Gumbel-max over the cached pool
//!   log-weights (exact for the pool-conditioned distribution; exact for
//!   `D̂_t` itself when the pool is exhaustive).
//!
//! When `budget ≥ |X|` the pool silently becomes the whole universe
//! (each index once) and every "estimate" is exact with radius 0 — which is
//! also how the backend plugs into [`OnlinePmw`](pmw_core::OnlinePmw) as a
//! drop-in replacement for the dense backend in tests.
//!
//! Every estimate's claimed bound is recorded in a
//! [`SamplingAccountant`] ledger, alongside — not inside — the privacy
//! accountant: sampling public state is free in privacy but not in
//! accuracy.
//!
//! Every pool sweep is a plain serial loop in slot order, whatever the
//! sweep worker count: a 2048-slot sweep takes
//! about 1.4 µs on one core, well under the 11–13 µs it costs to hand one
//! job to a parked worker and wait for it, so splitting it only loses.
//! The normalized SNIS weights are not swept per read at all: they are
//! derived state of the pool's log-weights, computed by the first read
//! after a write and shared by every later read of that state. Published
//! snapshots and the rollback checkpoint carry them together with the
//! log-weights.
//!
//! The pool's indices and points change only when the pool is drawn or
//! redrawn, so they live in one shared support (`Arc`) that a
//! round, a rollback checkpoint and a published snapshot hold without
//! copying. [`Mwem`](pmw_core::Mwem)'s batched read
//! ([`StateBackend::expected_query_values`]) keys on that support: the
//! first read of each query on a support tabulates the query's non-zero
//! slots, and every later read of it sums over those slots alone, in slot
//! order, for the same bits as the full pass.

use crate::error::SketchError;
use crate::health::PoolHealth;
use crate::log::{query_value_at, validate_query_shape, CompactionPolicy, RoundUpdate, UpdateLog};
use crate::snis::LogWeights;
use crate::source::PointSource;
use pmw_core::update::dual_certificate_at;
use pmw_core::{BackendEvent, PmwError, QueryEstimate, QueryMemo, ReadSnapshot, StateBackend};
use pmw_data::{gumbel_max_index, PointMatrix, PointQuery};
use pmw_dp::{
    compaction_fold_radius, effective_sample_size, empirical_bernstein_radius, ess_radius,
    hoeffding_radius, uncovered_mass_bound, RadiusBound, SamplingAccountant,
};
use pmw_losses::traits::minimize_weighted;
use pmw_losses::CmLoss;
use pmw_obs::{Counter, Gauge, NoopProbe, Phase, Probe};
use rand::{Rng, RngExt};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock the shared sampling ledger, recovering from a poisoned mutex: the
/// ledger is append-only plain data, so a panic mid-`record` cannot leave
/// it logically inconsistent.
fn lock_ledger(ledger: &Mutex<SamplingAccountant>) -> MutexGuard<'_, SamplingAccountant> {
    ledger
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Configuration of the Monte-Carlo sketch.
#[derive(Debug, Clone, Copy)]
pub struct SampledConfig {
    /// Pool size `m` (Monte-Carlo sample budget). Budgets at or above the
    /// universe size degrade gracefully to exhaustive (exact) state.
    pub budget: usize,
    /// Per-estimate failure probability of the claimed confidence bounds.
    pub beta: f64,
    /// **Drift-aware pool refresh**: redraw the whole pool every this many
    /// recorded rounds (`0` = never, the default). A reused pool makes
    /// successive round estimates *correlated* — the same sampling noise
    /// appears in every round's estimate — and increasingly mismatched
    /// with the drifting hypothesis; refreshing re-draws `m` fresh
    /// candidates and re-evaluates each from the retained update log in
    /// `O(t·d)` ([`UpdateLog::log_weight_seeded`]), restoring
    /// independence at `O(m·t·d)` per refresh. Exhaustive pools never
    /// resample.
    pub resample_every: usize,
    /// **Log compaction**: when to fold old rounds into a log-weight
    /// checkpoint ([`CompactionPolicy`]). [`CompactionPolicy::Never`]
    /// (the default) preserves the historical full-replay behavior
    /// bit-for-bit; `EveryK(k)` bounds every refresh replay to at most
    /// `k` retained rounds, making per-round cost flat in `t` for
    /// unbounded-round serving. A fold is lossless for pool points pinned
    /// in the checkpoint panel; fresh candidates drawn after a fold pay a
    /// deterministic, ledgered bias bound
    /// ([`pmw_dp::compaction_fold_radius`]) that widens every later read
    /// radius.
    pub compaction: CompactionPolicy,
}

impl Default for SampledConfig {
    fn default() -> Self {
        Self {
            budget: 1024,
            beta: 1e-6,
            resample_every: 0,
            compaction: CompactionPolicy::Never,
        }
    }
}

/// A sketched mean estimate with its claimed confidence radius: the true
/// value lies within `value ± radius` except with probability `beta`
/// (radius 0 and beta 0 when the pool is exhaustive).
///
/// `radius` is the minimum over the three candidate bounds (see the
/// module docs) and is always finite on non-exhaustive pools — the
/// effective-sample-size candidate exists for every pool, even when the
/// drift envelope alone would certify nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Self-normalized importance-sampling estimate.
    pub value: f64,
    /// Claimed deviation bound: the minimum over the candidate bounds.
    pub radius: f64,
    /// Failure probability of the claim.
    pub beta: f64,
    /// Which concentration bound produced `radius`.
    pub bound: RadiusBound,
    /// The worst-case drift-envelope Hoeffding radius alone (the bound
    /// every estimate claimed before the variance-adaptive candidates
    /// existed; may be `f64::INFINITY` when the envelope certifies
    /// nothing) — kept alongside so calibration benches can report the
    /// envelope-vs-adaptive ratio. `0` on exhaustive pools.
    pub envelope_radius: f64,
}

impl From<Estimate> for QueryEstimate {
    fn from(est: Estimate) -> Self {
        QueryEstimate {
            value: est.value,
            radius: est.radius,
            beta: est.beta,
        }
    }
}

/// A sketched maximum: `value` is the exact maximum over the pool, and the
/// universe's uniform-mass fraction with payoffs above `value` is at most
/// `uncovered_mass`, except with probability `beta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxEstimate {
    /// Maximum payoff over the pool (a lower bound on the true maximum).
    pub value: f64,
    /// Uniform-mass fraction possibly exceeding `value`.
    pub uncovered_mass: f64,
    /// Failure probability of the coverage claim.
    pub beta: f64,
}

/// The pool's support: its universe indices and their cached points. A
/// round changes only the log-weights, so the support is replaced, never
/// written, when the pool is drawn or redrawn, and the live backend,
/// its rollback checkpoint and its published snapshots share it through
/// one `Arc` instead of copying `O(m·d)`. The `Arc`'s identity is the key
/// of every [`IncidenceMemo`] entry built on it.
#[derive(Debug)]
struct PoolSupport {
    indices: Vec<usize>,
    points: PointMatrix,
}

impl PoolSupport {
    /// The support of the candidates at `indices`, whose points are the
    /// rows of the row-major `flat`.
    fn new(indices: Vec<usize>, flat: Vec<f64>, dim: usize) -> Result<Arc<Self>, SketchError> {
        let points = PointMatrix::from_flat(flat, dim)
            .map_err(|_| SketchError::NonFinite("point source produced invalid points"))?;
        Ok(Arc::new(Self { indices, points }))
    }
}

/// Where one query's entry sits in its [`IncidenceMemo`]: the query's
/// non-zero values on the memo's support, in slot order. A slot it leaves
/// out reads `±0`, which would add exactly `+0.0` to every sum of the
/// slot-order pass, so summing over the kept slots alone gives that pass's
/// bits. NaN is not zero: it is kept and propagates as before.
#[derive(Debug, Clone, Copy)]
enum Incidence {
    /// Kept slots `slots[start..end]`, each reading `value`, as every
    /// marginal's do: 4 bytes a slot.
    Constant {
        start: usize,
        end: usize,
        value: f64,
    },
    /// Kept slots `slots[start..end]` with values of their own, at
    /// `values[values..]`.
    Varying {
        start: usize,
        end: usize,
        values: usize,
    },
    /// Not tabulated, because the query failed to evaluate at some slot or
    /// the pool outgrew `u32` slot numbers. Reads take the slot-order pass,
    /// which evaluates only positive-weight slots and so fails exactly
    /// where it always did.
    SlotOrder,
}

/// What a [`SampledBackend`] keeps in a [`QueryMemo`]: one [`Incidence`]
/// per query position, made by that query's first read on the support
/// this memo holds a clone of, over two buffers that hold every entry's
/// slots and varying values back to back. Holding the clone keeps the
/// support alive, so no later support can reuse its address while the
/// memo compares it. A renewal empties the buffers but keeps their
/// capacity, so a run allocates them about once. An allocation per entry
/// fragmented the heap: at a fixed release count, perfbench's
/// mwem-marginals held 2.1 KB per release with it and 0.5 KB with the
/// shared buffers.
///
/// An entry is built by one [`PointQuery::values_at_rows`] call that
/// writes the query's value at every slot to the end of the value buffer,
/// then a compaction of the non-zero ones in place ([`compact_nonzero`]),
/// so the buffer grows by at most one pool beyond what its entries keep.
/// Tests: `tabulation_keeps_nan_and_drops_signed_zeros` pins the
/// compaction, `query_memo_never_goes_stale` the key, and the
/// `batched_read_parity` integration test whole `Mwem` runs against the
/// per-query loop.
#[derive(Default)]
struct IncidenceMemo {
    support: Option<Arc<PoolSupport>>,
    entries: Vec<Option<Incidence>>,
    slots: Vec<u32>,
    values: Vec<f64>,
}

impl IncidenceMemo {
    /// Keep the entries while they were made on this very support for `k`
    /// queries; empty them otherwise.
    fn renew(&mut self, support: &Arc<PoolSupport>, k: usize) {
        let current = self.entries.len() == k
            && self
                .support
                .as_ref()
                .is_some_and(|held| Arc::ptr_eq(held, support));
        if !current {
            self.support = Some(Arc::clone(support));
            self.entries.clear();
            self.entries.resize_with(k, || None);
            self.slots.clear();
            self.values.clear();
        }
    }

    /// Query `i`'s sums on `view`: over its kept slots, tabulated first if
    /// it has no entry yet.
    fn sums(
        &mut self,
        i: usize,
        query: &dyn PointQuery,
        view: &SketchReadView<'_>,
    ) -> Result<Sums, SketchError> {
        let entry = match self.entries[i] {
            Some(entry) => entry,
            None => {
                let entry = self.tabulate(query, view.support);
                self.entries[i] = Some(entry);
                entry
            }
        };
        Ok(match entry {
            Incidence::Constant { start, end, value } => {
                view.kept_sums(&self.slots[start..end], |_| value)
            }
            Incidence::Varying { start, end, values } => {
                let values = &self.values[values..];
                view.kept_sums(&self.slots[start..end], |j| values[j])
            }
            Incidence::SlotOrder => return view.query_sums(query),
        })
    }

    /// Evaluate `query` at every slot of `support` in one
    /// [`PointQuery::values_at_rows`] call (index first, as the slot-order
    /// pass reads it) and append its non-zero slots (and values, when they
    /// vary) to the buffers.
    fn tabulate(&mut self, query: &dyn PointQuery, support: &PoolSupport) -> Incidence {
        let m = support.indices.len();
        if u32::try_from(m).is_err() {
            return Incidence::SlotOrder;
        }
        let (start, values) = (self.slots.len(), self.values.len());
        self.values.resize(values + m, 0.0);
        let evaluated = query.values_at_rows(
            Some(&support.indices),
            support.points.as_flat(),
            support.points.dim(),
            &mut self.values[values..],
        );
        if evaluated.is_err() {
            self.values.truncate(values);
            return Incidence::SlotOrder;
        }
        self.slots.resize(start + m, 0);
        let kept = compact_nonzero(&mut self.values[values..], &mut self.slots[start..]);
        self.slots.truncate(start + kept);
        self.values.truncate(values + kept);
        let end = self.slots.len();
        let kept = &self.values[values..];
        match kept.first() {
            Some(first) if kept.iter().any(|v| v.to_bits() != first.to_bits()) => {
                Incidence::Varying { start, end, values }
            }
            first => {
                let value = first.copied().unwrap_or(0.0);
                self.values.truncate(values);
                Incidence::Constant { start, end, value }
            }
        }
    }
}

/// Move the non-zero entries of `values` to its front, in slot order, and
/// write their slot numbers to the front of `slots` (as long as `values`);
/// returns how many were kept. `v != 0.0` drops `±0` and keeps NaN. Every
/// slot is written and the count advanced by the comparison, with no
/// branch on the value, so the loop does not mispredict on the zeros and
/// ones a marginal reads.
fn compact_nonzero(values: &mut [f64], slots: &mut [u32]) -> usize {
    let mut kept = 0;
    for slot in 0..values.len() {
        let v = values[slot];
        values[kept] = v;
        slots[kept] = slot as u32;
        kept += usize::from(v != 0.0);
    }
    kept
}

/// The payoff scale `max(|lo|, |hi|)` of a query's value bounds.
fn query_scale(query: &dyn PointQuery) -> f64 {
    let (lo, hi) = query.value_bounds();
    lo.abs().max(hi.abs())
}

/// What one SNIS read sums over the positive-weight slots, in slot order:
/// the estimate Σŵ·f and the second moments Σŵ²f and Σŵ²f² the adaptive
/// bounds read (Σŵ² is the pool's own, [`crate::snis::Snis`]).
#[derive(Default)]
struct Sums {
    value: f64,
    w_sq_f: f64,
    w_sq_f_sq: f64,
}

impl Sums {
    fn add(&mut self, wi: f64, fv: f64) {
        self.value += wi * fv;
        self.w_sq_f += wi * wi * fv;
        self.w_sq_f_sq += wi * wi * fv * fv;
    }
}

/// The borrowed read-state shared by the live [`SampledBackend`] and its
/// published [`SampledSnapshot`]s: the pool plus the scalar parameters
/// every SNIS estimate and concentration bound reads. Keeping the
/// estimator bodies here — and only here — is what makes a snapshot's
/// answers bit-for-bit identical to the live backend's at the same round.
///
/// The log-weights arrive as [`LogWeights`], which normalizes them at most
/// once per pool state: every read through any view of one state shares
/// the same SNIS weights, and each read still makes its own pass over the
/// pool in slot order.
struct SketchReadView<'a> {
    support: &'a PoolSupport,
    pool_log_w: &'a LogWeights,
    exhaustive: bool,
    drift_bound: f64,
    /// The distortion bound (in log-weight) the pool's cached values
    /// carry from lossy compaction folds — `0` when every cached value is
    /// the exact full-history replay ([`CompactionPolicy::Never`], or a
    /// pool untouched since its panel was checkpointed). Every estimate
    /// and read margin widens by [`compaction_fold_radius`] of this.
    fold_drift: f64,
    beta: f64,
}

impl SketchReadView<'_> {
    fn pool_size(&self) -> usize {
        self.support.indices.len()
    }

    /// The drift-envelope ratio bound shared by every estimate and read
    /// margin, so the numerically delicate formula exists exactly once:
    /// `w(x) ∈ [e^{−c}, e^{c}]`, Hoeffding on the shifted numerator mean
    /// (range `2·scale·e^{c−shift}`) and the shifted normalizer mean
    /// (range `e^{c−shift}`), each at `beta_each`, combined through the
    /// standard ratio bound `(ε_A + scale·ε_B)/B̂` with `B̂ = e^shift·B̂'`.
    fn envelope_radius(&self, scale: f64, beta_each: f64, shift: f64, mean_shifted: f64) -> f64 {
        let m = self.pool_size();
        let c = self.drift_bound;
        match (
            hoeffding_radius(2.0 * scale, m, beta_each),
            hoeffding_radius(1.0, m, beta_each),
        ) {
            (Ok(ha), Ok(hb)) => {
                let scale_up = (c - shift).exp(); // e^c / e^shift
                (ha * scale_up + scale * hb * scale_up) / mean_shifted
            }
            _ => f64::INFINITY,
        }
    }

    /// One pass over the positive-weight slots in slot order, evaluating
    /// `f(slot, point)` at each.
    fn slot_order_sums<E>(
        &self,
        mut f: impl FnMut(usize, &[f64]) -> Result<f64, E>,
    ) -> Result<Sums, E> {
        let weights = &self.pool_log_w.snis().weights;
        let mut sums = Sums::default();
        for (slot, (point, &wi)) in self.support.points.iter().zip(weights).enumerate() {
            if wi > 0.0 {
                sums.add(wi, f(slot, point)?);
            }
        }
        Ok(sums)
    }

    /// The slot-order pass of a query, evaluated at each slot's index or
    /// point.
    fn query_sums(&self, query: &dyn PointQuery) -> Result<Sums, SketchError> {
        self.slot_order_sums(|slot, point| query_value_at(query, self.support.indices[slot], point))
    }

    /// The same sums over the slots a query's [`Incidence`] kept, in slot
    /// order, reading `fv(j)` at the `j`-th of them: the skipped slots
    /// would each have added `+0.0`.
    fn kept_sums(&self, slots: &[u32], fv: impl Fn(usize) -> f64) -> Sums {
        let weights = &self.pool_log_w.snis().weights;
        let mut sums = Sums::default();
        for (j, &slot) in slots.iter().enumerate() {
            let wi = weights[slot as usize];
            if wi > 0.0 {
                sums.add(wi, fv(j));
            }
        }
        sums
    }

    /// Turn a read's sums into its claim: the estimate with the minimum of
    /// the three candidate radii plus any fold bias (see
    /// [`SampledBackend::estimate_with`] for the bound derivation and the
    /// honesty caveat), ledgered into the shared accountant.
    fn claim(
        &self,
        ledger: &Mutex<SamplingAccountant>,
        label: &'static str,
        scale: f64,
        sums: Sums,
    ) -> Estimate {
        let snis = self.pool_log_w.snis();
        let Sums {
            value,
            w_sq_f,
            w_sq_f_sq,
        } = sums;
        let w_sq = snis.w_sq;
        // Deterministic fold bias: pool weights distorted by up to
        // `fold_drift` in log-space shift any bounded mean by at most
        // 2·scale·tanh(fold_drift) — a sure (β-free) claim added on top
        // of whichever concentration bound wins. Exactly 0 when no lossy
        // fold has touched the pool, leaving those paths bit-for-bit.
        let fold = compaction_fold_radius(scale, self.fold_drift);
        let (radius, beta, bound, envelope) = if scale <= 0.0 {
            // |f| ≤ 0 pins the statistic (and hence the estimate and the
            // true value) to exactly zero — no manufactured numerator
            // range, no radius, no failure probability.
            (0.0, 0.0, RadiusBound::Exact, 0.0)
        } else if self.exhaustive {
            // Exhaustive pools are exact in sampling, but a pool rebuilt
            // across a lossy fold still carries the fold bias — claiming
            // radius 0 there would be dishonest.
            if fold > 0.0 {
                (fold, 0.0, RadiusBound::Fold, 0.0)
            } else {
                (0.0, 0.0, RadiusBound::Exact, 0.0)
            }
        } else {
            let beta = self.beta;
            // Candidate 1 (β/2, split again over numerator/normalizer):
            // the worst-case drift-envelope ratio bound.
            let envelope = self.envelope_radius(scale, beta / 4.0, snis.shift, snis.mean_shifted);
            // Candidate 2 (β/4): Hoeffding at the realized effective
            // sample size with the integrand's own range — the drift
            // envelope replaced by the weight spread the pool exhibits.
            // ŵ sums to 1, so ESS = 1/Σŵ².
            let ess = effective_sample_size(1.0, w_sq);
            let r_ess = ess_radius(2.0 * scale, ess, beta / 4.0).unwrap_or(f64::INFINITY);
            // Candidate 3 (β/4): empirical Bernstein on the delta-method
            // variance of the self-normalized ratio,
            // S² = Σ ŵ_i²·(f_i − value)², treated as the variance of one
            // effective draw out of ESS.
            let delta_var = (w_sq_f_sq - 2.0 * value * w_sq_f + value * value * w_sq).max(0.0);
            let r_eb = if ess > 1.0 {
                empirical_bernstein_radius(2.0 * scale, delta_var * ess, ess, beta / 4.0)
                    .unwrap_or(f64::INFINITY)
            } else {
                f64::INFINITY
            };
            let (mut radius, bound) = if r_eb <= r_ess && r_eb <= envelope {
                (r_eb, RadiusBound::Bernstein)
            } else if r_ess <= envelope {
                (r_ess, RadiusBound::EffectiveSample)
            } else {
                (envelope, RadiusBound::Hoeffding)
            };
            // The fold bias is deterministic, so it adds to whichever
            // stochastic bound won (guarded to keep the uncompacted path
            // bit-for-bit identical).
            if fold > 0.0 {
                radius += fold;
            }
            (radius, beta, bound, envelope)
        };
        lock_ledger(ledger).record(label, self.pool_size(), radius, beta, bound);
        Estimate {
            value,
            radius,
            beta,
            bound,
            envelope_radius: envelope,
        }
    }

    /// The read margin: the concentration radius claimed for a mean read
    /// of a statistic bounded by `|f| ≤ scale`, at the configured `β` —
    /// the minimum of the drift-envelope and effective-sample-size bounds
    /// (`β/2` each; no integrand in hand means no variance candidate),
    /// widened by the deterministic lossy-fold bias when the pool carries
    /// one. `0` for a non-positive or NaN scale, and on exhaustive pools
    /// untouched by lossy folds. `O(m)` over the cached weights.
    ///
    /// Any claim it makes is recorded in `ledger` as a `"read-margin"`
    /// entry: a `⊥` screened against the widened margin *rests* on it
    /// holding, so the union-bound totals must count it like any estimate.
    /// On a sampled pool it also returns the winning bound and the envelope
    /// candidate, which the live backend's probe gauges.
    fn read_margin(
        &self,
        scale: f64,
        ledger: &Mutex<SamplingAccountant>,
    ) -> (f64, Option<(RadiusBound, f64)>) {
        if scale <= 0.0 || scale.is_nan() {
            return (0.0, None);
        }
        // Lossy-fold bias is deterministic, so it widens whichever
        // concentration candidate wins (exactly 0 under
        // [`CompactionPolicy::Never`]).
        let fold = compaction_fold_radius(scale, self.fold_drift);
        let (radius, beta, bound, envelope) = if self.exhaustive {
            // Exact in sampling, but an exhaustive pool rebuilt across a
            // lossy fold still carries the fold bias.
            (fold, 0.0, RadiusBound::Fold, None)
        } else {
            let snis = self.pool_log_w.snis();
            let w_sq: f64 = snis.weights.iter().map(|v| v * v).sum();
            let envelope =
                self.envelope_radius(scale, self.beta / 4.0, snis.shift, snis.mean_shifted);
            // ŵ sums to 1, so ESS = 1/Σŵ².
            let ess = effective_sample_size(1.0, w_sq);
            let r_ess = ess_radius(2.0 * scale, ess, self.beta / 2.0).unwrap_or(f64::INFINITY);
            let (radius, bound) = if r_ess <= envelope {
                (r_ess + fold, RadiusBound::EffectiveSample)
            } else {
                (envelope + fold, RadiusBound::Hoeffding)
            };
            (radius, self.beta, bound, Some(envelope))
        };
        // An exhaustive pool no lossy fold has touched claims nothing.
        if !self.exhaustive || fold > 0.0 {
            lock_ledger(ledger).record("read-margin", self.pool_size(), radius, beta, bound);
        }
        (radius, envelope.map(|envelope| (bound, envelope)))
    }
}

/// A published, immutable read view of the sketched MW state — the
/// [`ReadSnapshot`] the [`SampledBackend`] hands to concurrent readers.
///
/// Publishing copies the pool's log-weights (`O(m)`) and shares its
/// support — indices and points, which the writer replaces but never
/// writes — so writer-side faults after publication (failed rounds,
/// rollbacks, poisoning, pool corruption) can never reach an
/// already-published snapshot. The copy carries the pool's SNIS weights
/// when a read has already computed them; otherwise the snapshot's first
/// read computes them once for all of its readers. The sampling ledger is
/// **shared** (`Arc`) with the live backend: concentration claims made by
/// snapshot reads land in the same union-bound record as the live
/// backend's, in arrival order, so the accuracy accounting stays complete
/// no matter which path served a read.
#[derive(Debug, Clone)]
pub struct SampledSnapshot {
    support: Arc<PoolSupport>,
    pool_log_w: LogWeights,
    exhaustive: bool,
    drift_bound: f64,
    /// Lossy-fold distortion bound carried by the frozen pool weights —
    /// see [`SketchReadView`]'s field of the same name.
    fold_drift: f64,
    beta: f64,
    dim: usize,
    updates: usize,
    ledger: Arc<Mutex<SamplingAccountant>>,
}

impl SampledSnapshot {
    fn view(&self) -> SketchReadView<'_> {
        SketchReadView {
            support: &self.support,
            pool_log_w: &self.pool_log_w,
            exhaustive: self.exhaustive,
            drift_bound: self.drift_bound,
            fold_drift: self.fold_drift,
            beta: self.beta,
        }
    }

    /// Pool size `m` at publish time.
    pub fn pool_size(&self) -> usize {
        self.support.indices.len()
    }

    /// True when the frozen pool enumerates the whole universe.
    pub fn is_exhaustive(&self) -> bool {
        self.exhaustive
    }
}

impl ReadSnapshot for SampledSnapshot {
    fn updates_recorded(&self) -> usize {
        self.updates
    }

    fn hypothesis_minimizer(
        &self,
        loss: &dyn CmLoss,
        _points: &PointMatrix,
        solver_iters: usize,
    ) -> Result<Vec<f64>, PmwError> {
        if loss.point_dim() != self.dim {
            return Err(PmwError::LossMismatch(
                "loss point dimension does not match point source",
            ));
        }
        // Minimize over the frozen pooled hypothesis: SNIS weights on the
        // shared pool points. Exhaustive pools make this the exact dense
        // solve.
        Ok(minimize_weighted(
            loss,
            &self.support.points,
            &self.pool_log_w.snis().weights,
            solver_iters,
        )?)
    }

    fn read_radius(&self, scale: f64) -> f64 {
        self.view().read_margin(scale, &self.ledger).0
    }
}

/// Monte-Carlo sketched MW state over a [`PointSource`].
///
/// The second type parameter is an observation [`Probe`] (default:
/// [`NoopProbe`], which compiles every hook away). A live probe sees the
/// backend's two cost regimes as separate timed spans —
/// [`Phase::PoolSweep`] for the `O(m·d)` per-round pool update,
/// [`Phase::LogReplay`] for the `O(m·t·d)` refresh replay — plus
/// [`Phase::Estimate`] spans, claimed-radius gauges, and health gauges
/// after every recorded round. Construct with
/// [`SampledBackend::with_probe`] (typically handing `&probe` so the same
/// probe also observes the driving mechanism).
#[derive(Debug)]
pub struct SampledBackend<S: PointSource, P: Probe = NoopProbe> {
    source: S,
    probe: P,
    config: SampledConfig,
    log: UpdateLog,
    support: Arc<PoolSupport>,
    pool_log_w: LogWeights,
    /// The budget covers the universe; fixed at construction.
    exhaustive: bool,
    resamples: usize,
    /// Checkpointed log compactions committed so far (see
    /// [`SampledConfig::compaction`]).
    compactions: usize,
    /// Distortion bound (log-weight) the *current pool's* cached values
    /// carry from lossy folds: `0` until a fold happens, then the newest
    /// checkpoint's `missing_drift` when the pool replays from its own
    /// panel, or the full folded drift when any pool point missed the
    /// panel. Feeds the fold term of every read radius.
    pool_missing_drift: f64,
    /// Retained (non-folded) rounds replayed by the most recent full pool
    /// rebuild — the quantity compaction keeps flat in `t`.
    last_replay_depth: usize,
    /// Rounds recorded since the pool was last (re)drawn.
    rounds_since_refresh: usize,
    /// Drift envelope at the last pool (re)draw — `drift_bound() − this`
    /// is the drift the current pool has absorbed without refreshing.
    drift_at_refresh: f64,
    /// Fail-closed guard: set when a failed round could not be rolled back
    /// to a consistent pre-round state; every operation then errors with
    /// [`SketchError::Poisoned`] instead of serving half-updated state.
    poisoned: bool,
    /// Compaction and rollback events awaiting a
    /// [`StateBackend::take_events`] drain.
    pending_events: Vec<BackendEvent>,
    /// (point, gradient) scratch buffers; `RefCell` because reads are
    /// logically `&self`.
    bufs: RefCell<(Vec<f64>, Vec<f64>)>,
    /// The sampling-noise ledger, shared (`Arc`) with every published
    /// [`SampledSnapshot`] so concentration claims made by snapshot reads
    /// land in the same union-bound record as the live backend's, in
    /// arrival order.
    ledger: Arc<Mutex<SamplingAccountant>>,
    /// Round at which a read snapshot was last published (`None` before
    /// the first publication) — drives the `snapshot_age` health gauge.
    published_round: Cell<Option<usize>>,
}

/// Everything a failed round must restore: the pool support (shared, not
/// copied), the log-weights with their SNIS weights if a read computed
/// them, the log length and every health counter. Taken before a round's
/// first mutation, dropped on success.
struct PoolSnapshot {
    support: Arc<PoolSupport>,
    pool_log_w: LogWeights,
    log_len: usize,
    resamples: usize,
    pool_missing_drift: f64,
    last_replay_depth: usize,
    rounds_since_refresh: usize,
    drift_at_refresh: f64,
}

impl<S: PointSource> SampledBackend<S> {
    /// Draw the pool and cache its points. Consumes `min(budget, |X|)`
    /// uniform index draws from `rng` (none when exhaustive).
    pub fn new(source: S, config: SampledConfig, rng: &mut dyn Rng) -> Result<Self, SketchError> {
        Self::with_probe(source, config, NoopProbe, rng)
    }
}

impl<S: PointSource, P: Probe> SampledBackend<S, P> {
    /// [`SampledBackend::new`] with an observation probe. Identical pool
    /// draw and rng stream; the probe only listens.
    pub fn with_probe(
        source: S,
        config: SampledConfig,
        probe: P,
        rng: &mut dyn Rng,
    ) -> Result<Self, SketchError> {
        if source.is_empty() {
            return Err(SketchError::EmptyUniverse);
        }
        if config.budget == 0 {
            return Err(SketchError::InvalidParameter("budget must be >= 1"));
        }
        if !(config.beta > 0.0 && config.beta < 1.0) {
            return Err(SketchError::InvalidParameter("beta must be in (0, 1)"));
        }
        let n = source.len();
        let exhaustive = config.budget >= n;
        let pool_indices: Vec<usize> = if exhaustive {
            (0..n).collect()
        } else {
            (0..config.budget).map(|_| rng.random_range(0..n)).collect()
        };
        let dim = source.dim();
        let mut flat = vec![0.0; pool_indices.len() * dim];
        for (row, &idx) in flat.chunks_exact_mut(dim).zip(&pool_indices) {
            source.write_point(idx, row);
        }
        let m = pool_indices.len();
        let support = PoolSupport::new(pool_indices, flat, dim)?;
        Ok(Self {
            source,
            probe,
            config,
            log: UpdateLog::new(),
            support,
            pool_log_w: LogWeights::new(vec![0.0; m]),
            exhaustive,
            resamples: 0,
            compactions: 0,
            pool_missing_drift: 0.0,
            last_replay_depth: 0,
            rounds_since_refresh: 0,
            drift_at_refresh: 0.0,
            poisoned: false,
            pending_events: Vec::new(),
            bufs: RefCell::new((vec![0.0; dim], Vec::new())),
            ledger: Arc::new(Mutex::new(SamplingAccountant::new())),
            published_round: Cell::new(None),
        })
    }

    /// Universe size `|X|` (not the pool size).
    pub fn universe_size(&self) -> usize {
        self.source.len()
    }

    /// Pool size `m` (`min(budget, |X|)`).
    pub fn pool_size(&self) -> usize {
        self.support.indices.len()
    }

    /// True when the pool enumerates the whole universe (exact mode).
    pub fn is_exhaustive(&self) -> bool {
        self.exhaustive
    }

    /// Rounds recorded so far.
    pub fn rounds(&self) -> usize {
        self.log.len()
    }

    /// The retained update log.
    pub fn log(&self) -> &UpdateLog {
        &self.log
    }

    /// The sampling-noise ledger: one entry per estimate issued — by the
    /// live backend *and* by every snapshot published from it (the ledger
    /// is shared, so snapshot reads are ledgered too).
    pub fn ledger(&self) -> MutexGuard<'_, SamplingAccountant> {
        lock_ledger(&self.ledger)
    }

    /// Mutable ledger handle for recording (poison-recovering lock).
    fn ledger_mut(&self) -> MutexGuard<'_, SamplingAccountant> {
        lock_ledger(&self.ledger)
    }

    /// Publish an immutable [`SampledSnapshot`] of the current sketched
    /// state: the pool's log-weights copied (`O(m)`), its support
    /// (indices and points) shared, drift envelope frozen, sampling ledger
    /// shared. Fails closed on poisoned backends — a snapshot must never
    /// freeze inconsistent state — and records the publish round so the
    /// post-round health gauges can report snapshot age.
    pub fn publish_snapshot(&self) -> Result<SampledSnapshot, SketchError> {
        self.ensure_usable()?;
        self.published_round.set(Some(self.log.len()));
        Ok(SampledSnapshot {
            support: Arc::clone(&self.support),
            pool_log_w: self.pool_log_w.clone(),
            exhaustive: self.exhaustive,
            drift_bound: self.log.drift_bound(),
            fold_drift: self.pool_missing_drift,
            beta: self.config.beta,
            dim: self.source.dim(),
            updates: self.log.len(),
            ledger: Arc::clone(&self.ledger),
        })
    }

    /// Total pool refreshes so far — fixed-cadence
    /// ([`SampledConfig::resample_every`]) and manual ones alike.
    pub fn resamples(&self) -> usize {
        self.resamples
    }

    /// Checkpointed log compactions committed so far — policy-triggered
    /// ([`SampledConfig::compaction`]) and manual
    /// ([`SampledBackend::compact_now`]) alike.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// The log-weight distortion bound the current pool carries from lossy
    /// compaction folds (`0` until a fold happens; see
    /// [`LogCheckpoint::missing_drift`](crate::log::LogCheckpoint::missing_drift)). Every read radius widens by
    /// [`compaction_fold_radius`]`(scale, this)`.
    pub fn pool_missing_drift(&self) -> f64 {
        self.pool_missing_drift
    }

    /// Retained rounds replayed by the most recent full pool rebuild —
    /// the quantity compaction keeps flat in `t` (`0` before any rebuild).
    pub fn last_replay_depth(&self) -> usize {
        self.last_replay_depth
    }

    /// True once a failed round could not be rolled back and the backend
    /// fails closed (every operation errors with
    /// [`SketchError::Poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The current pool-health snapshot: ESS (fraction), max-weight share,
    /// drift absorbed since the last refresh, rounds since refresh — one
    /// `O(m)` pass, degenerate-pool safe (see [`PoolHealth`]).
    pub fn health(&self) -> PoolHealth {
        PoolHealth::from_log_weights(
            self.pool_log_w.as_slice(),
            (self.log.drift_bound() - self.drift_at_refresh).max(0.0),
            self.rounds_since_refresh,
        )
    }

    /// The fail-closed guard every operation passes through.
    fn ensure_usable(&self) -> Result<(), SketchError> {
        if self.poisoned {
            Err(SketchError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Record one MW round (dual-certificate or linear-query): `O(m·d)` —
    /// update every cached pool log-weight, then retain the round in the
    /// log.
    pub fn record(&mut self, update: RoundUpdate) -> Result<(), SketchError> {
        self.ensure_usable()?;
        if update.point_dim() != self.source.dim() {
            return Err(SketchError::DimensionMismatch {
                got: update.point_dim(),
                expected: self.source.dim(),
            });
        }
        // Two passes (evaluate, then apply) so a failed evaluation leaves
        // the pool untouched.
        self.probe.span_begin(Phase::PoolSweep);
        let payoffs = update.payoffs(&self.support.points);
        if let Ok(payoffs) = &payoffs {
            let eta = update.eta();
            for (lw, u) in self.pool_log_w.values_mut().iter_mut().zip(payoffs) {
                *lw -= eta * u;
            }
        }
        self.probe.span_end(Phase::PoolSweep);
        payoffs?;
        self.log.push(update);
        self.rounds_since_refresh += 1;
        Ok(())
    }

    /// [`SampledBackend::record`] from a borrowed loss (retained through
    /// [`CmLoss::clone_shared`]).
    pub fn record_borrowed(
        &mut self,
        loss: &dyn CmLoss,
        theta_oracle: &[f64],
        theta_hyp: &[f64],
        eta: f64,
    ) -> Result<(), SketchError> {
        self.record(RoundUpdate::from_dyn(loss, theta_oracle, theta_hyp, eta)?)
    }

    /// Redraw the whole Monte-Carlo pool and re-evaluate every fresh
    /// candidate's log-weight from the newest checkpoint plus the retained
    /// update log ([`UpdateLog::log_weight_seeded`]) — `O(t_retained·d)`
    /// per candidate, `O(m·t_retained·d)` total. Under an active
    /// [`CompactionPolicy`] the retained suffix is bounded, so the rebuild
    /// cost is flat in the total round count `t` (this is the fix for the
    /// latent `O(t)`-per-refresh quadratic); with no checkpoint it is the
    /// historical full replay, bit-for-bit. Restores estimator
    /// independence after the pool has been reused across drifting
    /// rounds; a no-op on exhaustive pools. Consumes `m` uniform index
    /// draws from `rng`.
    ///
    /// Called automatically every [`SampledConfig::resample_every`]
    /// recorded rounds when the backend is driven through the
    /// [`StateBackend`] seam; direct `record`/`record_borrowed` drivers
    /// call it explicitly.
    pub fn resample(&mut self, rng: &mut dyn Rng) -> Result<(), SketchError> {
        self.ensure_usable()?;
        if self.exhaustive {
            return Ok(());
        }
        let n = self.source.len();
        let m = self.pool_size();
        let indices: Vec<usize> = (0..m).map(|_| rng.random_range(0..n)).collect();
        self.probe.span_begin(Phase::LogReplay);
        let replayed = self.replay_candidates(&indices);
        self.probe.span_end(Phase::LogReplay);
        let (flat, log_w, missing_drift) = replayed?;
        // All fresh state computed; swap atomically so a failed
        // re-evaluation above leaves the old pool untouched.
        self.support = PoolSupport::new(indices, flat, self.source.dim())?;
        self.pool_log_w = LogWeights::new(log_w);
        self.pool_missing_drift = missing_drift;
        self.last_replay_depth = self.log.retained_len();
        if P::ENABLED {
            self.probe
                .gauge(Gauge::ReplayRounds, self.last_replay_depth as f64);
        }
        self.resamples += 1;
        self.probe.counter(Counter::Resamples, 1);
        self.rounds_since_refresh = 0;
        self.drift_at_refresh = self.log.drift_bound();
        Ok(())
    }

    /// Materialize the candidates at `indices` and replay each one's
    /// log-weight from the newest checkpoint plus the retained log
    /// ([`UpdateLog::log_weight_seeded`]) — `O(t_retained·d)` per
    /// candidate. Returns the flat points, the log-weights, and the
    /// distortion bound they carry: the checkpoint's `missing_drift` when
    /// every candidate hit its panel, the full folded drift when any had
    /// to replay unseeded. Mutates nothing, so a failed replay leaves the
    /// pool untouched.
    fn replay_candidates(
        &self,
        indices: &[usize],
    ) -> Result<(Vec<f64>, Vec<f64>, f64), SketchError> {
        let dim = self.source.dim();
        let mut flat = vec![0.0; indices.len() * dim];
        for (row, &idx) in flat.chunks_exact_mut(dim).zip(indices) {
            self.source.write_point(idx, row);
        }
        let mut grad = Vec::new();
        let mut any_unseeded = false;
        let mut log_w = Vec::with_capacity(indices.len());
        for (row, &idx) in flat.chunks_exact(dim).zip(indices) {
            let (lw, seeded) = self.log.log_weight_seeded(idx, row, &mut grad)?;
            log_w.push(lw);
            any_unseeded |= !seeded;
        }
        let missing_drift = if any_unseeded {
            self.log.folded_drift()
        } else {
            self.log.checkpoint().map_or(0.0, |c| c.missing_drift())
        };
        Ok((flat, log_w, missing_drift))
    }

    /// [`SampledBackend::resample`] when a refresh is due per
    /// [`SampledConfig::resample_every`].
    fn maybe_resample(&mut self, rng: &mut dyn Rng) -> Result<(), SketchError> {
        let every = self.config.resample_every;
        if every > 0 && !self.exhaustive && self.log.len().is_multiple_of(every) {
            self.resample(rng)?;
        }
        Ok(())
    }

    /// [`SampledBackend::compact_now`] when [`SampledConfig::compaction`]
    /// says a fold is due. Runs strictly after a successful round (see
    /// [`Self::transactional_round`]), so it never moves a rollback
    /// boundary.
    fn maybe_compact(&mut self) -> Result<(), SketchError> {
        if self.config.compaction.due(self.log.retained_len()) {
            self.compact_now()?;
        }
        Ok(())
    }

    /// Fold every retained round into a [`LogCheckpoint`](crate::log::LogCheckpoint) pinned on the
    /// current pool (the pool's cached log-weights become the checkpoint
    /// panel), so later rebuilds replay only rounds recorded *after* this
    /// fold. The pool's current distortion bound
    /// ([`SampledBackend::pool_missing_drift`]) is recorded as the
    /// checkpoint's [`LogCheckpoint::missing_drift`](crate::log::LogCheckpoint::missing_drift): a panel-seeded
    /// replay inherits exactly that bound, an unseeded one inherits the
    /// full folded drift, and either way the claim is charged as a sure
    /// (β = 0) fold entry in the sampling ledger and surfaced as a
    /// [`BackendEvent::Compaction`]. Validation happens before any
    /// mutation, so a failed fold leaves the log untouched. A no-op (no
    /// checkpoint, no event) when there is nothing retained to fold.
    pub fn compact_now(&mut self) -> Result<(), SketchError> {
        self.ensure_usable()?;
        let round = self.log.len();
        let receipt = self.log.compact(
            &self.support.indices,
            self.pool_log_w.as_slice(),
            self.pool_missing_drift,
        )?;
        if receipt.folded_rounds == 0 {
            return Ok(());
        }
        self.compactions += 1;
        self.probe.counter(Counter::Compactions, 1);
        if P::ENABLED {
            self.probe
                .gauge(Gauge::LogLen, self.log.retained_len() as f64);
            self.probe
                .gauge(Gauge::CheckpointCount, self.log.checkpoints_taken() as f64);
        }
        // Ledger the fold's error claim at unit scale: a reader at scale
        // `s` pays `compaction_fold_radius(s, folded_drift)`; recording
        // the unit-scale bound keeps the ledger entry scale-free and the
        // claim sure (β = 0 — it is a deterministic bias bound, not a
        // concentration failure probability).
        self.ledger_mut().record(
            "compaction-fold",
            receipt.checkpoint_points,
            compaction_fold_radius(1.0, receipt.folded_drift),
            0.0,
            RadiusBound::Fold,
        );
        self.pending_events.push(BackendEvent::Compaction {
            round,
            folded_rounds: receipt.folded_rounds,
            checkpoint_points: receipt.checkpoint_points,
            folded_drift: receipt.folded_drift,
        });
        Ok(())
    }

    /// Capture everything a failed round must restore. Taken before a
    /// round's first mutation, dropped on success. `O(m)` for the
    /// log-weights; the support is shared, not copied. (Distinct from the
    /// *published* read snapshot, [`Self::publish_snapshot`]: this one is
    /// the rollback checkpoint of the transactional round.)
    fn pool_checkpoint(&self) -> PoolSnapshot {
        PoolSnapshot {
            support: Arc::clone(&self.support),
            pool_log_w: self.pool_log_w.clone(),
            log_len: self.log.len(),
            resamples: self.resamples,
            pool_missing_drift: self.pool_missing_drift,
            last_replay_depth: self.last_replay_depth,
            rounds_since_refresh: self.rounds_since_refresh,
            drift_at_refresh: self.drift_at_refresh,
        }
    }

    /// Roll the backend back to a snapshot after a failed round, then
    /// verify the restored state is self-consistent. If it is not —
    /// rollback itself failed — the backend is poisoned and fails closed.
    ///
    /// Sampling-ledger entries issued by the failed round are deliberately
    /// *not* rolled back: the ledger is a conservative union-bound record
    /// of every claim ever made, and over-counting failed rounds only
    /// makes its totals more pessimistic.
    fn restore(&mut self, snap: PoolSnapshot) {
        self.support = snap.support;
        self.pool_log_w = snap.pool_log_w;
        self.resamples = snap.resamples;
        self.pool_missing_drift = snap.pool_missing_drift;
        self.last_replay_depth = snap.last_replay_depth;
        self.rounds_since_refresh = snap.rounds_since_refresh;
        self.drift_at_refresh = snap.drift_at_refresh;
        // Compaction only ever folds rounds that were already committed
        // (it runs strictly after a successful round), so the snapshot's
        // log length can never fall inside the folded prefix — a truncate
        // failure here means the log itself is inconsistent.
        let truncated = self.log.truncate(snap.log_len);
        let m = self.pool_size();
        if truncated.is_err()
            || self.pool_log_w.as_slice().len() != m
            || self.support.points.len() != m
            || self.log.len() != snap.log_len
            || !self.log.drift_bound().is_finite()
        {
            self.poisoned = true;
        }
    }

    /// Run one full round — record, cadence refresh, compaction —
    /// **transactionally**: either every step completes or the pool is
    /// rolled back to its exact pre-round state, a
    /// [`BackendEvent::RoundRolledBack`] marks the failed round, and the
    /// error surfaces loudly. A failing step queues no event of its own: a
    /// fold validates before it mutates anything, and its event is the
    /// round's last act. A rollback that cannot restore consistency
    /// poisons the backend (see [`SketchError::Poisoned`]).
    fn transactional_round(
        &mut self,
        update: RoundUpdate,
        rng: &mut dyn Rng,
    ) -> Result<(), SketchError> {
        self.ensure_usable()?;
        let snap = self.pool_checkpoint();
        // Compaction runs strictly *after* a fully successful round: a
        // fold can therefore never move the rollback boundary of the round
        // it rides on, and a failed fold (validation errors before any
        // mutation) rolls the round back like any other failure.
        let result = self
            .run_round(update, rng)
            .and_then(|()| self.maybe_compact());
        if result.is_err() {
            let round = snap.log_len + 1;
            self.restore(snap);
            self.pending_events
                .push(BackendEvent::RoundRolledBack { round });
        }
        result
    }

    fn run_round(&mut self, update: RoundUpdate, rng: &mut dyn Rng) -> Result<(), SketchError> {
        self.record(update)?;
        self.maybe_resample(rng)?;
        self.post_round_gauges();
        Ok(())
    }

    /// Post-round health gauges, for a live probe only: `health()` is an
    /// extra `O(m)` pass, so the noop build must not pay for it.
    fn post_round_gauges(&self) {
        if !P::ENABLED {
            return;
        }
        if !self.exhaustive {
            let health = self.health();
            self.probe.gauge(Gauge::Ess, health.ess);
            self.probe.gauge(Gauge::EssFraction, health.ess_fraction);
            self.probe
                .gauge(Gauge::MaxWeightShare, health.max_weight_share);
            self.probe.gauge(Gauge::DriftBound, health.drift_bound);
            self.probe.gauge(Gauge::PoolSize, self.pool_size() as f64);
        }
        if let Some(at) = self.published_round.get() {
            let age = self.log.len().saturating_sub(at);
            self.probe.gauge(Gauge::SnapshotAge, age as f64);
        }
        self.probe
            .gauge(Gauge::LogLen, self.log.retained_len() as f64);
        self.probe
            .gauge(Gauge::CheckpointCount, self.log.checkpoints_taken() as f64);
    }

    /// The borrowed read-state shared by the live backend and its
    /// published snapshots — one code path for every estimate and bound,
    /// so a snapshot's answers are bit-for-bit the live backend's at the
    /// same round.
    fn view(&self) -> SketchReadView<'_> {
        SketchReadView {
            support: &self.support,
            pool_log_w: &self.pool_log_w,
            exhaustive: self.exhaustive,
            drift_bound: self.log.drift_bound(),
            fold_drift: self.pool_missing_drift,
            beta: self.config.beta,
        }
    }

    /// Self-normalized importance-sampling estimate of
    /// `⟨f, D̂_t⟩ = Σ_x D̂_t(x)·f(x)` for a per-point function bounded by
    /// `|f| ≤ scale`, with its concentration radius. `sums` makes the
    /// read's pass over the pool: the slot-order pass of a closure that
    /// receives each positive-weight **slot** with its point (so
    /// index-route evaluations look up the support's indices), or the
    /// sparse pass over a query's tabulated non-zero slots, which sums the
    /// same terms in the same order. It runs inside the read's
    /// [`Phase::Estimate`] span, which also covers the claim below.
    ///
    /// The radius is the minimum of the drift-envelope Hoeffding bound and
    /// the two variance-adaptive bounds (effective-sample-size and
    /// empirical-Bernstein), with the configured `β` split across the
    /// candidates (envelope `β/2`, each adaptive `β/4`), so the post-hoc
    /// minimum claims no more confidence than its weakest member. Honesty
    /// caveat, stated plainly: the envelope candidate is a finite-sample
    /// theorem, while the two adaptive candidates apply their bounds at a
    /// *realized* (data-driven) effective sample size and delta-method
    /// variance — standard practice for self-normalized importance
    /// sampling, but an approximation, not a theorem. Their calibration is
    /// what the workspace's drift-regime × budget coverage tests and the
    /// `exp_sublinear` claimed-vs-realized columns measure empirically.
    /// The weight and value second moments both adaptive bounds need are
    /// accumulated inside the single `O(m)` value pass — no extra sweep.
    /// The claimed radius is always finite on non-exhaustive pools (the
    /// ESS candidate exists even when the drift envelope certifies
    /// nothing) and provably never exceeds the envelope-only bound this
    /// backend used to claim.
    ///
    /// The heavy lifting is shared with published snapshots through
    /// [`SketchReadView`].
    fn estimate_with(
        &self,
        label: &'static str,
        scale: f64,
        sums: impl FnOnce(&SketchReadView<'_>) -> Result<Sums, SketchError>,
    ) -> Result<Estimate, SketchError> {
        self.ensure_usable()?;
        self.probe.span_begin(Phase::Estimate);
        let view = self.view();
        let result = sums(&view).map(|sums| view.claim(&self.ledger, label, scale, sums));
        self.probe.span_end(Phase::Estimate);
        let est = result?;
        if P::ENABLED {
            self.probe.gauge(Gauge::ClaimedRadius, est.radius);
            self.probe.gauge(Gauge::EnvelopeRadius, est.envelope_radius);
            self.probe.note("bound", est.bound.name());
        }
        Ok(est)
    }

    /// The read margin this backend claims for a generic mean read of a
    /// statistic bounded by `|f| ≤ scale` under the current state, ledgered
    /// as a `"read-margin"` entry — what a [`SampledSnapshot`] published
    /// now would claim (see [`ReadSnapshot::read_radius`]). A live probe
    /// also sees the envelope candidate and the winning bound.
    pub fn read_radius(&self, scale: f64) -> f64 {
        let (radius, sampled) = self.view().read_margin(scale, &self.ledger);
        if let (true, Some((bound, envelope))) = (P::ENABLED, sampled) {
            self.probe.gauge(Gauge::EnvelopeRadius, envelope);
            self.probe.note("read_bound", bound.name());
        }
        radius
    }

    /// Estimate the certificate expectation `⟨u, D̂_t⟩` for the payoff
    /// `u(x) = ⟨θ_oracle − θ_hyp, ∇ℓ_x(θ_hyp)⟩` (clamped to `±S`), with a
    /// concentration radius at the configured `beta`.
    pub fn certificate_mean(
        &self,
        loss: &dyn CmLoss,
        theta_oracle: &[f64],
        theta_hyp: &[f64],
    ) -> Result<Estimate, SketchError> {
        if loss.point_dim() != self.source.dim() {
            return Err(SketchError::DimensionMismatch {
                got: loss.point_dim(),
                expected: self.source.dim(),
            });
        }
        let scale = loss.scale_bound();
        let mut grad = vec![0.0; loss.dim()];
        self.estimate_with("certificate-mean", scale, |view| {
            view.slot_order_sums(|_slot, point| {
                dual_certificate_at(loss, point, theta_oracle, theta_hyp, &mut grad)
                    .map_err(|_| SketchError::NonFinite("certificate payoff"))
            })
        })
    }

    /// SNIS estimate of the expected linear-query value `⟨q, D̂_t⟩` over
    /// the pool, with the adaptive (minimum-of-bounds) concentration
    /// radius at the configured `beta` — the hypothesis-side read of the
    /// \[HR10\]/\[HLM12\] mechanisms, recorded in the sampling ledger like
    /// every estimate.
    /// Implicit queries evaluate on the cached pool points; dense queries
    /// on the cached pool indices. Exact (radius 0) on exhaustive pools.
    pub fn query_mean(&self, query: &dyn PointQuery) -> Result<Estimate, SketchError> {
        self.query_mean_via(query, None)
    }

    /// [`Self::query_mean`], through entry `i` of a memo renewed on the
    /// current support when given one. An empty entry is tabulated inside
    /// the read's span, before the sparse pass reads it.
    fn query_mean_via(
        &self,
        query: &dyn PointQuery,
        memo: Option<(&mut IncidenceMemo, usize)>,
    ) -> Result<Estimate, SketchError> {
        validate_query_shape(query, self.source.len(), self.source.dim())?;
        self.estimate_with("query-mean", query_scale(query), |view| match memo {
            Some((memo, i)) => memo.sums(i, query, view),
            None => view.query_sums(query),
        })
    }

    /// Sketch of `max_x u(x)`: the exact maximum over the pool, plus the
    /// uniform-mass coverage bound (see the module docs). Exhaustive pools
    /// return the true maximum with `uncovered_mass = 0`.
    pub fn max_payoff(
        &self,
        loss: &dyn CmLoss,
        theta_oracle: &[f64],
        theta_hyp: &[f64],
    ) -> Result<MaxEstimate, SketchError> {
        self.ensure_usable()?;
        if loss.point_dim() != self.source.dim() {
            return Err(SketchError::DimensionMismatch {
                got: loss.point_dim(),
                expected: self.source.dim(),
            });
        }
        let mut grad = vec![0.0; loss.dim()];
        let mut value = f64::NEG_INFINITY;
        for point in self.support.points.iter() {
            let u = dual_certificate_at(loss, point, theta_oracle, theta_hyp, &mut grad)
                .map_err(|_| SketchError::NonFinite("certificate payoff"))?;
            value = value.max(u);
        }
        let (uncovered, beta, bound) = if self.exhaustive {
            (0.0, 0.0, RadiusBound::Exact)
        } else {
            let beta = self.config.beta;
            (
                uncovered_mass_bound(self.pool_size(), beta)
                    .map_err(|_| SketchError::InvalidParameter("beta"))?,
                beta,
                RadiusBound::Coverage,
            )
        };
        self.ledger_mut()
            .record("max-payoff", self.pool_size(), uncovered, beta, bound);
        Ok(MaxEstimate {
            value,
            uncovered_mass: uncovered,
            beta,
        })
    }

    /// Draw one universe index from the sketched `D̂_t` via Gumbel-max over
    /// the cached pool log-weights — exact for `D̂_t` conditioned on the
    /// pool (exact for `D̂_t` itself when exhaustive). `O(m)`.
    pub fn sample_index(&self, rng: &mut dyn Rng) -> usize {
        let slot = gumbel_max_index(self.pool_log_w.as_slice(), rng);
        self.support.indices[slot]
    }

    /// Unnormalized log-weight of any universe element, re-evaluated from
    /// the newest checkpoint (panel hit: bit-for-bit the full replay for
    /// lossless folds) plus the retained log — `O(t_retained·d)`; exact
    /// full-history replay when no fold has happened. Used for spot checks
    /// and pool refreshes; the pooled fast path never calls this.
    pub fn log_weight_of(&self, x: usize) -> Result<f64, SketchError> {
        self.ensure_usable()?;
        let mut bufs = self.bufs.borrow_mut();
        let (point, grad) = &mut *bufs;
        self.source.write_point(x, point);
        Ok(self.log.log_weight_seeded(x, point, grad)?.0)
    }
}

impl<S: PointSource, P: Probe> StateBackend for SampledBackend<S, P> {
    fn universe_size(&self) -> usize {
        self.source.len()
    }

    fn updates_recorded(&self) -> usize {
        self.log.len()
    }

    fn apply_update(
        &mut self,
        loss: &dyn CmLoss,
        retained: Option<std::sync::Arc<dyn CmLoss>>,
        points: &PointMatrix,
        theta_oracle: &[f64],
        theta_hyp: &[f64],
        eta: f64,
        gap_weights: Option<&[f64]>,
        rng: &mut dyn Rng,
    ) -> Result<Option<f64>, PmwError> {
        // Diagnostics gap (pre-update, like the dense backend): sketched
        // hypothesis side, exact data side over the nonzero data weights.
        let gap = match gap_weights {
            Some(data_w) => {
                let u_hyp = self.certificate_mean(loss, theta_oracle, theta_hyp)?.value;
                let mut grad = vec![0.0; loss.dim()];
                let mut u_data = 0.0;
                for (x, &w) in points.iter().zip(data_w) {
                    if w > 0.0 {
                        u_data +=
                            w * dual_certificate_at(loss, x, theta_oracle, theta_hyp, &mut grad)?;
                    }
                }
                Some(u_hyp - u_data)
            }
            None => None,
        };
        // Reuse the caller's owned handle (one clone per round, made
        // before any budget was spent); fall back to cloning here only
        // when driven without one.
        let update = match retained {
            Some(shared) => {
                RoundUpdate::new(shared, theta_oracle.to_vec(), theta_hyp.to_vec(), eta)?
            }
            None => RoundUpdate::from_dyn(loss, theta_oracle, theta_hyp, eta)?,
        };
        self.transactional_round(update, rng)?;
        Ok(gap)
    }

    fn sample_indices(&self, m: usize, rng: &mut dyn Rng) -> Result<Vec<usize>, PmwError> {
        self.ensure_usable()?;
        Ok((0..m).map(|_| self.sample_index(rng)).collect())
    }

    fn expected_query_value(
        &self,
        query: &dyn PointQuery,
        _points: Option<&PointMatrix>,
    ) -> Result<QueryEstimate, PmwError> {
        Ok(self.query_mean(query)?.into())
    }

    /// Each query's estimate is bit-for-bit its
    /// [`SampledBackend::query_mean`], with the same span, ledger record
    /// and gauges in query order, but after a query's first read on a pool
    /// support it sums over that query's non-zero slots alone. `memo`
    /// keeps them until the pool is redrawn.
    fn expected_query_values(
        &self,
        queries: &[&dyn PointQuery],
        _points: Option<&PointMatrix>,
        memo: &mut QueryMemo,
    ) -> Result<Vec<QueryEstimate>, PmwError> {
        let memo = memo.get_or_default::<IncidenceMemo>();
        memo.renew(&self.support, queries.len());
        queries
            .iter()
            .enumerate()
            .map(|(i, query)| Ok(self.query_mean_via(*query, Some((&mut *memo, i)))?.into()))
            .collect()
    }

    fn apply_query_update(
        &mut self,
        query: &dyn PointQuery,
        retained: Option<std::sync::Arc<dyn PointQuery>>,
        coeff: f64,
        eta: f64,
        _points: Option<&PointMatrix>,
        rng: &mut dyn Rng,
    ) -> Result<(), PmwError> {
        // Reuse the caller's owned handle (cloned before any budget was
        // spent); fall back to cloning here only when driven without one.
        let update = match retained {
            Some(shared) => RoundUpdate::query(shared, coeff, eta)?,
            None => RoundUpdate::query_from_dyn(query, coeff, eta)?,
        };
        self.transactional_round(update, rng)?;
        Ok(())
    }

    fn take_events(&mut self) -> Vec<BackendEvent> {
        std::mem::take(&mut self.pending_events)
    }

    fn requires_shared_loss(&self) -> bool {
        true
    }

    fn snapshot(&self) -> Result<Arc<dyn ReadSnapshot>, PmwError> {
        Ok(Arc::new(self.publish_snapshot()?))
    }

    fn requires_materialized_universe(&self) -> bool {
        // The pool caches its own points; `points` is only ever zipped
        // against the caller's data-side weights for the diagnostics gap.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultRule, FaultySource};
    use crate::source::UniversePoints;
    use pmw_core::update::dual_certificate;
    use pmw_data::{BooleanCube, Histogram, Universe};
    use pmw_losses::{LinearQueryLoss, PointPredicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn bit_loss(bit: usize, dim: usize) -> LinearQueryLoss {
        LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, dim).unwrap()
    }

    fn driven_pair(
        dim: usize,
        budget: usize,
        seed: u64,
    ) -> (
        SampledBackend<UniversePoints<BooleanCube>>,
        Histogram,
        PointMatrix,
    ) {
        let cube = BooleanCube::new(dim).unwrap();
        let points = cube.materialize();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sketch = SampledBackend::new(
            UniversePoints(cube.clone()),
            SampledConfig {
                budget,
                ..SampledConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        let mut dense = Histogram::uniform(cube.size()).unwrap();
        let steps = [
            (0usize, 0.9, 0.4, 0.7),
            (1, 0.2, 0.6, 0.5),
            (2, 0.7, 0.3, 0.9),
        ];
        for &(bit, t_o, t_h, eta) in &steps {
            let loss = bit_loss(bit, dim);
            let u = dual_certificate(&loss, &points, &[t_o], &[t_h]).unwrap();
            dense.mw_update(&u, eta).unwrap();
            sketch
                .record(
                    RoundUpdate::new(Arc::new(loss) as Arc<dyn CmLoss>, vec![t_o], vec![t_h], eta)
                        .unwrap(),
                )
                .unwrap();
        }
        (sketch, dense, points)
    }

    #[test]
    fn construction_validates() {
        let cube = BooleanCube::new(3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(SampledBackend::new(
            UniversePoints(cube.clone()),
            SampledConfig {
                budget: 0,
                ..SampledConfig::default()
            },
            &mut rng
        )
        .is_err());
        assert!(SampledBackend::new(
            UniversePoints(cube.clone()),
            SampledConfig {
                budget: 4,
                beta: 0.0,
                ..SampledConfig::default()
            },
            &mut rng
        )
        .is_err());
        let b = SampledBackend::new(
            UniversePoints(cube),
            SampledConfig {
                budget: 100,
                beta: 0.5,
                ..SampledConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        // Budget over |X| = 8 degrades to exhaustive.
        assert!(b.is_exhaustive());
        assert_eq!(b.pool_size(), 8);
        assert_eq!(b.universe_size(), 8);
    }

    #[test]
    fn exhaustive_pool_is_exact() {
        let (sketch, dense, _) = driven_pair(4, usize::MAX, 2);
        assert!(sketch.is_exhaustive());
        let loss = bit_loss(0, 4);
        let (t_o, t_h) = ([0.8], [0.2]);
        let est = sketch.certificate_mean(&loss, &t_o, &t_h).unwrap();
        assert_eq!(est.radius, 0.0);
        assert_eq!(est.beta, 0.0);
        // Exact expectation under the dense hypothesis.
        let u = dual_certificate(&loss, &dense_points(4), &t_o, &t_h).unwrap();
        let exact: f64 = dense.weights().iter().zip(&u).map(|(w, v)| w * v).sum();
        assert!(
            (est.value - exact).abs() < 1e-12,
            "{} vs {exact}",
            est.value
        );

        // Max over an exhaustive pool is the true max with zero slack.
        let max = sketch.max_payoff(&loss, &t_o, &t_h).unwrap();
        let true_max = u.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((max.value - true_max).abs() < 1e-12);
        assert_eq!(max.uncovered_mass, 0.0);
        // Ledger saw both estimates.
        assert_eq!(sketch.ledger().len(), 2);
    }

    fn dense_points(dim: usize) -> PointMatrix {
        BooleanCube::new(dim).unwrap().materialize()
    }

    #[test]
    fn sampled_estimate_stays_within_claimed_radius() {
        // Sub-universe budget: the SNIS estimate must land within its own
        // claimed radius of the exact value (the claim fails with
        // probability 1e-6; the seed is fixed, so this is deterministic).
        let (sketch, dense, points) = driven_pair(10, 256, 3);
        assert!(!sketch.is_exhaustive());
        let loss = bit_loss(3, 10);
        let (t_o, t_h) = ([0.9], [0.1]);
        let est = sketch.certificate_mean(&loss, &t_o, &t_h).unwrap();
        let u = dual_certificate(&loss, &points, &t_o, &t_h).unwrap();
        let exact: f64 = dense.weights().iter().zip(&u).map(|(w, v)| w * v).sum();
        assert!(est.radius.is_finite() && est.radius > 0.0);
        assert!(
            (est.value - exact).abs() <= est.radius,
            "estimate {} vs exact {exact}, radius {}",
            est.value,
            est.radius
        );

        // The sampled max never exceeds the true max.
        let max = sketch.max_payoff(&loss, &t_o, &t_h).unwrap();
        let true_max = u.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max.value <= true_max + 1e-12);
        assert!(max.uncovered_mass > 0.0 && max.uncovered_mass < 0.1);
    }

    #[test]
    fn adaptive_radius_covers_exact_value_across_drift_regimes_and_budgets() {
        // The drift-regime × budget grid of the calibration claim: at
        // every combination the adaptive estimate still covers the dense
        // exact value at its claimed radius, while never exceeding the
        // drift-envelope bound it replaced. Heavy drift (eta_scale 1.5
        // over 8 rounds) pushes the envelope into the useless range
        // (e^c ≫ 1); the adaptive radius must stay calibrated there too.
        let dim = 10usize;
        let cube = BooleanCube::new(dim).unwrap();
        let points = cube.materialize();
        for &budget in &[128usize, 384, 768] {
            for (regime, &eta_scale) in [0.05f64, 0.4, 1.5].iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(4000 + budget as u64 + regime as u64);
                let mut sketch = SampledBackend::new(
                    UniversePoints(cube.clone()),
                    SampledConfig {
                        budget,
                        ..SampledConfig::default()
                    },
                    &mut rng,
                )
                .unwrap();
                assert!(!sketch.is_exhaustive());
                let mut dense = Histogram::uniform(cube.size()).unwrap();
                let mut sched = StdRng::seed_from_u64(8000 + regime as u64);
                for t in 0..8usize {
                    let loss = bit_loss(t % dim, dim);
                    let (t_o, t_h) = (sched.random::<f64>(), sched.random::<f64>());
                    let eta = eta_scale / ((t + 1) as f64).sqrt();
                    let u = dual_certificate(&loss, &points, &[t_o], &[t_h]).unwrap();
                    dense.mw_update(&u, eta).unwrap();
                    sketch
                        .record(
                            RoundUpdate::new(
                                Arc::new(loss) as Arc<dyn CmLoss>,
                                vec![t_o],
                                vec![t_h],
                                eta,
                            )
                            .unwrap(),
                        )
                        .unwrap();
                }
                let loss = bit_loss(4, dim);
                let (t_o, t_h) = ([0.85], [0.15]);
                let est = sketch.certificate_mean(&loss, &t_o, &t_h).unwrap();
                let u = dual_certificate(&loss, &points, &t_o, &t_h).unwrap();
                let exact: f64 = dense.weights().iter().zip(&u).map(|(w, v)| w * v).sum();
                assert!(
                    est.radius.is_finite() && est.radius > 0.0,
                    "budget {budget} eta {eta_scale}: radius {}",
                    est.radius
                );
                assert!(
                    (est.value - exact).abs() <= est.radius,
                    "budget {budget} eta {eta_scale}: estimate {} vs exact {exact}, radius {}",
                    est.value,
                    est.radius
                );
                assert!(
                    est.radius <= est.envelope_radius,
                    "budget {budget} eta {eta_scale}: adaptive {} above envelope {}",
                    est.radius,
                    est.envelope_radius
                );
            }
        }
    }

    #[test]
    fn adaptive_radius_never_exceeds_the_drift_envelope_bound() {
        // Across drift regimes (mild to heavy) and pool budgets, the
        // claimed radius is the minimum over the candidate bounds: finite,
        // positive, never above the envelope-only bound, and won by one of
        // the adaptive candidates (the envelope provably cannot win).
        for &budget in &[64usize, 256, 512] {
            for &eta_scale in &[0.05f64, 0.4, 1.5] {
                let cube = BooleanCube::new(10).unwrap();
                let mut rng = StdRng::seed_from_u64(900 + budget as u64);
                let mut sketch = SampledBackend::new(
                    UniversePoints(cube),
                    SampledConfig {
                        budget,
                        ..SampledConfig::default()
                    },
                    &mut rng,
                )
                .unwrap();
                for t in 0..6usize {
                    let loss = bit_loss(t % 10, 10);
                    sketch
                        .record(
                            RoundUpdate::new(
                                Arc::new(loss) as Arc<dyn CmLoss>,
                                vec![0.9],
                                vec![0.1],
                                eta_scale / (t + 1) as f64,
                            )
                            .unwrap(),
                        )
                        .unwrap();
                }
                let loss = bit_loss(2, 10);
                let est = sketch.certificate_mean(&loss, &[0.8], &[0.3]).unwrap();
                assert!(est.radius.is_finite() && est.radius > 0.0);
                assert!(
                    est.radius <= est.envelope_radius,
                    "budget {budget} eta {eta_scale}: adaptive {} > envelope {}",
                    est.radius,
                    est.envelope_radius
                );
                assert!(matches!(
                    est.bound,
                    pmw_dp::RadiusBound::EffectiveSample | pmw_dp::RadiusBound::Bernstein
                ));
                // The ledger entry carries the same winner.
                let ledger = sketch.ledger();
                let rec = ledger.records().last().unwrap();
                assert_eq!(rec.bound, est.bound);
                assert_eq!(rec.radius, est.radius);
            }
        }
    }

    #[test]
    fn read_radius_is_zero_when_exhaustive_and_positive_when_pooled() {
        let (sketch, _, _) = driven_pair(10, 256, 8);
        assert!(!sketch.is_exhaustive());
        let r = sketch.read_radius(1.0);
        assert!(r.is_finite() && r > 0.0, "{r}");
        // The margin claim is a real β-claim the mechanisms' ⊥ answers
        // rest on, so it is ledgered like every estimate.
        {
            let ledger = sketch.ledger();
            let rec = ledger.records().last().unwrap();
            assert_eq!(rec.label, "read-margin");
            assert_eq!(rec.radius, r);
            assert!(matches!(
                rec.bound,
                pmw_dp::RadiusBound::EffectiveSample | pmw_dp::RadiusBound::Hoeffding
            ));
        }
        // Zero/negative scale pins the statistic: no margin, no claim.
        assert_eq!(sketch.read_radius(0.0), 0.0);
        assert_eq!(sketch.ledger().len(), 1);

        let (exhaustive, _, _) = driven_pair(4, usize::MAX, 9);
        assert!(exhaustive.is_exhaustive());
        assert_eq!(exhaustive.read_radius(1.0), 0.0);
    }

    /// A query that is identically zero, with honest `(0, 0)` bounds: the
    /// zero-scale regression case.
    struct ZeroQuery(usize);

    impl PointQuery for ZeroQuery {
        fn value_bounds(&self) -> (f64, f64) {
            (0.0, 0.0)
        }
        fn value_at_index(&self, _index: usize) -> Option<f64> {
            None
        }
        fn value_at_point(&self, _point: &[f64]) -> Option<f64> {
            Some(0.0)
        }
        fn point_dim(&self) -> Option<usize> {
            Some(self.0)
        }
    }

    #[test]
    fn zero_scale_estimate_claims_zero_radius() {
        // Regression: the old path fed `2·scale.max(f64::MIN_POSITIVE)`
        // into the Hoeffding numerator, manufacturing a nonzero range (and
        // hence a nonzero radius at nonzero beta) for a statistic that is
        // identically zero. A zero-scale estimate is exact: value 0,
        // radius 0, beta 0.
        let (sketch, _, _) = driven_pair(10, 256, 10);
        assert!(!sketch.is_exhaustive());
        let est = sketch.query_mean(&ZeroQuery(10)).unwrap();
        assert_eq!(est.value, 0.0);
        assert_eq!((est.radius, est.beta), (0.0, 0.0));
        assert_eq!(est.bound, pmw_dp::RadiusBound::Exact);
        let ledger = sketch.ledger();
        let rec = ledger.records().last().unwrap();
        assert_eq!(rec.radius, 0.0);
        assert_eq!(rec.bound, pmw_dp::RadiusBound::Exact);
    }

    #[test]
    fn pool_log_weights_match_exact_log_lookups() {
        // The incrementally maintained pool cache must agree with the
        // O(t·d) from-scratch evaluation of the same indices.
        let (sketch, _, _) = driven_pair(8, 64, 4);
        for (slot, &idx) in sketch.support.indices.iter().enumerate() {
            let exact = sketch.log_weight_of(idx).unwrap();
            assert!(
                (sketch.pool_log_w.as_slice()[slot] - exact).abs() < 1e-12,
                "slot {slot}"
            );
        }
    }

    #[test]
    fn exhaustive_sampling_matches_dense_masses() {
        let (sketch, dense, _) = driven_pair(3, usize::MAX, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let n = 20_000;
        let mut counts = [0usize; 8];
        for _ in 0..n {
            counts[sketch.sample_index(&mut rng)] += 1;
        }
        for (x, &c) in counts.iter().enumerate() {
            let freq = c as f64 / n as f64;
            assert!(
                (freq - dense.mass(x)).abs() < 0.02,
                "x={x}: {freq} vs {}",
                dense.mass(x)
            );
        }
    }

    #[test]
    fn query_mean_matches_dense_expectation() {
        use pmw_data::workload::ImplicitQuery;
        // Exhaustive pool: the SNIS query mean is exact, both for an
        // implicit marginal (point route) and the equivalent dense query
        // (index route).
        let (sketch, dense, points) = driven_pair(4, usize::MAX, 21);
        let q = ImplicitQuery::marginal(vec![1, 3], 4).unwrap();
        let dense_vals: Vec<f64> = points.iter().map(|p| q.evaluate(p)).collect();
        let exact: f64 = dense
            .weights()
            .iter()
            .zip(&dense_vals)
            .map(|(w, v)| w * v)
            .sum();
        let est = sketch.query_mean(&q).unwrap();
        assert_eq!((est.radius, est.beta), (0.0, 0.0));
        assert!(
            (est.value - exact).abs() < 1e-12,
            "{} vs {exact}",
            est.value
        );
        let dense_q = pmw_data::LinearQuery::new(dense_vals).unwrap();
        let est_idx = sketch.query_mean(&dense_q).unwrap();
        assert!((est_idx.value - exact).abs() < 1e-12);
        // Ledger records query estimates like every other read.
        assert!(sketch
            .ledger()
            .records()
            .iter()
            .any(|r| r.label == "query-mean"));

        // Sub-universe pool: the estimate carries a positive radius and
        // lands within it (deterministic under the fixed seed).
        let (sub, dense2, points2) = driven_pair(10, 256, 22);
        let q2 = ImplicitQuery::marginal(vec![0], 10).unwrap();
        let exact2: f64 = dense2
            .weights()
            .iter()
            .zip(points2.iter())
            .map(|(w, p)| w * q2.evaluate(p))
            .sum();
        let est2 = sub.query_mean(&q2).unwrap();
        assert!(est2.radius.is_finite() && est2.radius > 0.0);
        assert!(
            (est2.value - exact2).abs() <= est2.radius,
            "estimate {} vs exact {exact2}, radius {}",
            est2.value,
            est2.radius
        );

        // Dimension / length mismatches are rejected.
        assert!(sketch
            .query_mean(&ImplicitQuery::marginal(vec![0], 9).unwrap())
            .is_err());
        assert!(sketch
            .query_mean(&pmw_data::LinearQuery::new(vec![1.0; 3]).unwrap())
            .is_err());
    }

    #[test]
    fn query_updates_track_the_dense_histogram() {
        use pmw_data::workload::ImplicitQuery;
        // Drive certificate + query rounds through the sketch; the cached
        // pool log-weights must match a dense histogram driven by the
        // same schedule.
        let (mut sketch, mut dense, points) = driven_pair(5, usize::MAX, 23);
        let q = ImplicitQuery::parity(vec![0, 2], 5).unwrap();
        let u: Vec<f64> = points.iter().map(|p| -0.3 * q.evaluate(p)).collect();
        dense.mw_update(&u, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        StateBackend::apply_query_update(&mut sketch, &q, None, -0.3, 1.0, None, &mut rng).unwrap();
        assert_eq!(sketch.rounds(), 4);
        for (slot, &idx) in sketch.support.indices.iter().enumerate() {
            let exact = sketch.log_weight_of(idx).unwrap();
            assert!(
                (sketch.pool_log_w.as_slice()[slot] - exact).abs() < 1e-12,
                "slot {slot}"
            );
            assert!((dense.log_weight(idx) - exact).abs() < 1e-12, "idx {idx}");
        }
        // Dense queries cannot be retained in the update log.
        let dense_q = pmw_data::LinearQuery::new(vec![1.0; 32]).unwrap();
        assert!(StateBackend::apply_query_update(
            &mut sketch,
            &dense_q,
            None,
            1.0,
            1.0,
            None,
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn resample_refreshes_the_pool_consistently() {
        use pmw_data::workload::ImplicitQuery;
        let cube = BooleanCube::new(10).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let mut sketch = SampledBackend::new(
            UniversePoints(cube),
            SampledConfig {
                budget: 128,
                resample_every: 2,
                ..SampledConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        assert!(!sketch.is_exhaustive());
        let before: Vec<usize> = sketch.support.indices.clone();
        // Two query rounds: the second triggers the drift-aware refresh.
        let q = ImplicitQuery::marginal(vec![0], 10).unwrap();
        StateBackend::apply_query_update(&mut sketch, &q, None, 1.0, 0.4, None, &mut rng).unwrap();
        assert_eq!(sketch.resamples(), 0);
        StateBackend::apply_query_update(&mut sketch, &q, None, -1.0, 0.4, None, &mut rng).unwrap();
        assert_eq!(sketch.resamples(), 1);
        assert_ne!(before, sketch.support.indices, "pool must be redrawn");
        // Every fresh candidate's cached log-weight equals the exact
        // from-scratch replay of the update log.
        for (slot, &idx) in sketch.support.indices.iter().enumerate() {
            let exact = sketch.log_weight_of(idx).unwrap();
            assert!(
                (sketch.pool_log_w.as_slice()[slot] - exact).abs() < 1e-12,
                "slot {slot}"
            );
        }
        // Manual resample keeps working and counts.
        sketch.resample(&mut rng).unwrap();
        assert_eq!(sketch.resamples(), 2);

        // Exhaustive pools never resample.
        let cube4 = BooleanCube::new(4).unwrap();
        let mut exhaustive = SampledBackend::new(
            UniversePoints(cube4),
            SampledConfig {
                budget: usize::MAX,
                resample_every: 1,
                ..SampledConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        let q4 = ImplicitQuery::marginal(vec![0], 4).unwrap();
        StateBackend::apply_query_update(&mut exhaustive, &q4, None, 1.0, 0.4, None, &mut rng)
            .unwrap();
        exhaustive.resample(&mut rng).unwrap();
        assert_eq!(exhaustive.resamples(), 0);
    }

    #[test]
    fn record_validates_dimension() {
        let cube = BooleanCube::new(3).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut sketch =
            SampledBackend::new(UniversePoints(cube), SampledConfig::default(), &mut rng).unwrap();
        let wrong = RoundUpdate::new(
            Arc::new(bit_loss(0, 5)) as Arc<dyn CmLoss>,
            vec![0.5],
            vec![0.2],
            0.1,
        )
        .unwrap();
        assert!(sketch.record(wrong).is_err());
        assert_eq!(sketch.rounds(), 0);
        let ok = RoundUpdate::new(
            Arc::new(bit_loss(1, 3)) as Arc<dyn CmLoss>,
            vec![0.5],
            vec![0.2],
            0.1,
        )
        .unwrap();
        sketch.record(ok).unwrap();
        assert_eq!(sketch.rounds(), 1);
        assert!((sketch.log().drift_bound() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn poisoned_backend_fails_closed_on_every_operation() {
        use pmw_data::workload::ImplicitQuery;
        let cube = BooleanCube::new(3).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let mut sketch = SampledBackend::new(
            UniversePoints(cube),
            SampledConfig {
                budget: 4,
                ..SampledConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        sketch.poisoned = true;
        assert!(sketch.is_poisoned());
        let loss = bit_loss(0, 3);
        let upd = RoundUpdate::new(
            Arc::new(bit_loss(0, 3)) as Arc<dyn CmLoss>,
            vec![0.5],
            vec![0.2],
            0.1,
        )
        .unwrap();
        assert_eq!(sketch.record(upd), Err(SketchError::Poisoned));
        assert_eq!(sketch.resample(&mut rng), Err(SketchError::Poisoned));
        assert_eq!(
            sketch.certificate_mean(&loss, &[0.5], &[0.2]),
            Err(SketchError::Poisoned)
        );
        assert_eq!(
            sketch.max_payoff(&loss, &[0.5], &[0.2]),
            Err(SketchError::Poisoned)
        );
        assert_eq!(sketch.log_weight_of(0), Err(SketchError::Poisoned));
        assert!(matches!(
            StateBackend::sample_indices(&sketch, 2, &mut rng),
            Err(PmwError::Degraded(_))
        ));
        assert!(matches!(
            StateBackend::snapshot(&sketch),
            Err(PmwError::Degraded(_))
        ));
        let q = ImplicitQuery::marginal(vec![0], 3).unwrap();
        assert!(matches!(
            StateBackend::apply_query_update(&mut sketch, &q, None, 1.0, 0.4, None, &mut rng),
            Err(PmwError::Degraded(_))
        ));
        // The health snapshot itself stays readable (pure arithmetic).
        assert!(sketch.health().ess >= 1.0);
    }

    /// The reads that depend on the pool's SNIS weights, as bits: the
    /// unit-scale read radius and the hypothesis minimizer.
    fn snapshot_read_bits(
        snap: &dyn ReadSnapshot,
        loss: &dyn CmLoss,
        points: &PointMatrix,
    ) -> Vec<u64> {
        let theta = snap.hypothesis_minimizer(loss, points, 8).unwrap();
        std::iter::once(snap.read_radius(1.0))
            .chain(theta)
            .map(f64::to_bits)
            .collect()
    }

    /// After a write, the live backend, a snapshot published before any
    /// read and one published after the live reads must all read exactly
    /// what a fresh normalization of the current log-weights reads. The
    /// live reads also leave the weights cached for the next write.
    fn assert_reads_fresh<S: PointSource>(sketch: &SampledBackend<S>, step: &str) {
        use pmw_data::workload::ImplicitQuery;
        let dim = sketch.source.dim();
        let query = ImplicitQuery::marginal(vec![0], dim).unwrap();
        let loss = bit_loss(1, dim);
        let points = &sketch.support.points;
        let before_read = sketch.publish_snapshot().unwrap();
        let mut reference = sketch.publish_snapshot().unwrap();
        reference.pool_log_w = LogWeights::new(sketch.pool_log_w.as_slice().to_vec());
        let expected = snapshot_read_bits(&reference, &loss, points);
        // The query mean over the fresh weights, through the read view the
        // live backend's estimates share.
        let view = reference.view();
        let fresh = view.claim(
            &reference.ledger,
            "query-mean",
            query_scale(&query),
            view.query_sums(&query).unwrap(),
        );

        let est = sketch.query_mean(&query).unwrap();
        assert_eq!(
            [est.value, est.radius].map(f64::to_bits),
            [fresh.value, fresh.radius].map(f64::to_bits),
            "{step}: live query mean"
        );
        assert_eq!(
            sketch.read_radius(1.0).to_bits(),
            expected[0],
            "{step}: live read margin"
        );
        let after_read = sketch.publish_snapshot().unwrap();
        for (snap, when) in [(before_read, "before"), (after_read, "after")] {
            assert_eq!(
                snapshot_read_bits(&snap, &loss, points),
                expected,
                "{step}: snapshot published {when} a read"
            );
        }
    }

    /// One round of the bit-0 marginal through the backend seam.
    fn marginal_round<S: PointSource>(
        sketch: &mut SampledBackend<S>,
        coeff: f64,
        eta: f64,
        rng: &mut StdRng,
    ) -> Result<(), PmwError> {
        use pmw_data::workload::ImplicitQuery;
        let q = ImplicitQuery::marginal(vec![0], sketch.source.dim()).unwrap();
        StateBackend::apply_query_update(sketch, &q, None, coeff, eta, None, rng)
    }

    /// A 64-slot sketch of the 10-bit cube, redrawn every second round.
    fn cadence_sketch(seed: u64) -> SampledBackend<UniversePoints<BooleanCube>> {
        let config = SampledConfig {
            budget: 64,
            resample_every: 2,
            ..SampledConfig::default()
        };
        let cube = BooleanCube::new(10).unwrap();
        SampledBackend::new(
            UniversePoints(cube),
            config,
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap()
    }

    /// A 32-slot sketch of the 10-bit cube, redrawn every second round,
    /// whose source returns a NaN point on its first read after
    /// construction (the chaos suite's `Once(init_reads + 1)`): the second
    /// round's cadence resample fails and the round rolls back.
    fn sketch_failing_its_first_refresh(
        seed: u64,
    ) -> SampledBackend<FaultySource<UniversePoints<BooleanCube>>> {
        let budget = 32;
        let source = FaultySource::new(
            UniversePoints(BooleanCube::new(10).unwrap()),
            FaultRule::Once(budget as u64 + 1),
        );
        let config = SampledConfig {
            budget,
            resample_every: 2,
            ..SampledConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let sketch = SampledBackend::new(source, config, &mut rng).unwrap();
        assert_eq!(sketch.source.calls(), budget as u64, "one read a slot");
        sketch
    }

    #[test]
    fn cached_snis_weights_never_go_stale() {
        use pmw_data::workload::ImplicitQuery;
        // A stream apart from every construction seed below, so resamples
        // draw pools of their own.
        let mut rng = StdRng::seed_from_u64(5);

        // `record`, a manual resample, `compact_now`, a cadence resample.
        let mut sketch = cadence_sketch(67);
        assert_reads_fresh(&sketch, "construction");
        let q = Arc::new(ImplicitQuery::marginal(vec![0], 10).unwrap()) as Arc<dyn PointQuery>;
        sketch
            .record(RoundUpdate::query(q, 1.0, 0.5).unwrap())
            .unwrap();
        assert_reads_fresh(&sketch, "record");
        sketch.resample(&mut rng).unwrap();
        assert_reads_fresh(&sketch, "manual resample");
        sketch.compact_now().unwrap();
        assert_eq!(sketch.compactions(), 1);
        assert_reads_fresh(&sketch, "compact_now");
        marginal_round(&mut sketch, -1.0, 0.5, &mut rng).unwrap();
        assert_eq!(sketch.resamples(), 2);
        assert_reads_fresh(&sketch, "cadence resample");

        // A round rolled back when its cadence resample reads a NaN point.
        let mut sketch = sketch_failing_its_first_refresh(73);
        marginal_round(&mut sketch, 1.0, 0.5, &mut rng).unwrap();
        assert_reads_fresh(&sketch, "round before the rollback");
        let before = sketch.pool_log_w.as_slice().to_vec();
        let err = marginal_round(&mut sketch, -1.0, 0.5, &mut rng).unwrap_err();
        assert!(matches!(err, PmwError::LossMismatch(_)), "{err:?}");
        assert_eq!((sketch.rounds(), sketch.resamples()), (1, 0), "rolled back");
        assert_eq!(sketch.pool_log_w.as_slice(), before);
        assert_reads_fresh(&sketch, "rollback");
    }

    /// A query whose non-zero values vary: the share of bits 0–2 set.
    struct LowBitShare(usize);

    impl PointQuery for LowBitShare {
        fn value_bounds(&self) -> (f64, f64) {
            (0.0, 1.0)
        }
        fn value_at_index(&self, _index: usize) -> Option<f64> {
            None
        }
        fn value_at_point(&self, point: &[f64]) -> Option<f64> {
            Some(point[..3].iter().filter(|&&c| c >= 0.5).count() as f64 / 3.0)
        }
        fn point_dim(&self) -> Option<usize> {
            Some(self.0)
        }
    }

    /// The batched read through `memo` and the per-query `query_mean` loop
    /// must read the same bits and append the same ledger records, and the
    /// memo must then hold a complete entry set on the current support —
    /// one slot per log-weight — which is returned.
    fn assert_memo_reads_fresh<S: PointSource>(
        sketch: &SampledBackend<S>,
        memo: &mut QueryMemo,
        step: &str,
    ) -> Arc<PoolSupport> {
        use pmw_data::workload::ImplicitQuery;
        let dim = sketch.source.dim();
        let marginal = ImplicitQuery::marginal(vec![0], dim).unwrap();
        let pair = ImplicitQuery::marginal(vec![1, 2], dim).unwrap();
        let share = LowBitShare(dim);
        let by_index = pmw_data::LinearQuery::new(
            (0..sketch.universe_size())
                .map(|x| (x % 5) as f64 / 4.0)
                .collect(),
        )
        .unwrap();
        let queries: [&dyn PointQuery; 4] = [&marginal, &pair, &share, &by_index];
        let ledger_len = sketch.ledger().len();
        let looped: Vec<QueryEstimate> = queries
            .iter()
            .map(|q| sketch.query_mean(*q).unwrap().into())
            .collect();
        let batched = StateBackend::expected_query_values(sketch, &queries, None, memo).unwrap();
        let bits = |ests: &[QueryEstimate]| -> Vec<[u64; 3]> {
            ests.iter()
                .map(|e| [e.value.to_bits(), e.radius.to_bits(), e.beta.to_bits()])
                .collect()
        };
        assert_eq!(bits(&batched), bits(&looped), "{step}: estimates");
        let ledger = sketch.ledger();
        let records: Vec<String> = ledger.records()[ledger_len..]
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(
            records.len(),
            2 * queries.len(),
            "{step}: one record a read"
        );
        let (looped, batched) = records.split_at(queries.len());
        assert_eq!(batched, looped, "{step}: ledger records");
        let held = memo.get_or_default::<IncidenceMemo>();
        let support = held.support.clone().expect("the read keyed the memo");
        assert!(Arc::ptr_eq(&support, &sketch.support), "{step}: memo key");
        assert!(held.entries.iter().all(Option::is_some), "{step}: entries");
        let m = sketch.pool_log_w.as_slice().len();
        assert_eq!(support.indices.len(), m, "{step}: support and log-weights");
        support
    }

    #[test]
    fn query_memo_never_goes_stale() {
        let mut rng = StdRng::seed_from_u64(5);

        // A round and a fold keep the support and the memo's entries; a
        // manual and a cadence resample replace both.
        let mut sketch = cadence_sketch(67);
        let mut memo = QueryMemo::new();
        let built = assert_memo_reads_fresh(&sketch, &mut memo, "construction");
        marginal_round(&mut sketch, 1.0, 0.5, &mut rng).unwrap();
        let kept = assert_memo_reads_fresh(&sketch, &mut memo, "round");
        assert!(Arc::ptr_eq(&built, &kept), "a round keeps the support");
        sketch.resample(&mut rng).unwrap();
        let redrawn = assert_memo_reads_fresh(&sketch, &mut memo, "manual resample");
        assert!(!Arc::ptr_eq(&kept, &redrawn));
        sketch.compact_now().unwrap();
        assert_eq!(sketch.compactions(), 1);
        let folded = assert_memo_reads_fresh(&sketch, &mut memo, "compact_now");
        assert!(Arc::ptr_eq(&redrawn, &folded), "a fold keeps the support");
        marginal_round(&mut sketch, -1.0, 0.5, &mut rng).unwrap();
        assert_eq!(sketch.resamples(), 2);
        let cadence = assert_memo_reads_fresh(&sketch, &mut memo, "cadence resample");
        assert!(!Arc::ptr_eq(&folded, &cadence));

        // A round rolled back when its cadence resample reads a NaN point
        // keeps the pre-round support, and the memo's entries on it stay
        // good.
        let mut sketch = sketch_failing_its_first_refresh(73);
        let mut memo = QueryMemo::new();
        marginal_round(&mut sketch, 1.0, 0.5, &mut rng).unwrap();
        let before = assert_memo_reads_fresh(&sketch, &mut memo, "round before the rollback");
        let err = marginal_round(&mut sketch, -1.0, 0.5, &mut rng).unwrap_err();
        assert!(matches!(err, PmwError::LossMismatch(_)), "{err:?}");
        let restored = assert_memo_reads_fresh(&sketch, &mut memo, "rollback");
        assert!(
            Arc::ptr_eq(&before, &restored),
            "the rollback keeps the support"
        );
    }

    /// Reads NaN wherever bit 3 is set.
    struct NanWhereBit3(usize);

    impl PointQuery for NanWhereBit3 {
        fn value_bounds(&self) -> (f64, f64) {
            (0.0, 1.0)
        }
        fn value_at_index(&self, _index: usize) -> Option<f64> {
            None
        }
        fn value_at_point(&self, point: &[f64]) -> Option<f64> {
            Some(if point[3] >= 0.5 { f64::NAN } else { 1.0 })
        }
        fn point_dim(&self) -> Option<usize> {
            Some(self.0)
        }
    }

    #[test]
    fn record_refuses_a_non_finite_query_payoff() {
        use crate::source::BigBitCube;
        use pmw_data::workload::ImplicitQuery;
        let mut rng = StdRng::seed_from_u64(83);
        let config = SampledConfig {
            budget: 256,
            ..SampledConfig::default()
        };
        let mut sketch =
            SampledBackend::new(BigBitCube::new(12).unwrap(), config, &mut rng).unwrap();
        let marginal = ImplicitQuery::marginal(vec![0], 12).unwrap();
        let read = |sketch: &SampledBackend<BigBitCube>| {
            let est = sketch.query_mean(&marginal).unwrap();
            (est.value.to_bits(), est.radius.to_bits())
        };
        let before = read(&sketch);
        let log_w = sketch.pool_log_w.as_slice().to_vec();
        let nan = Arc::new(NanWhereBit3(12)) as Arc<dyn PointQuery>;
        let err = sketch.record(RoundUpdate::query(nan, 0.5, 1.0).unwrap());
        assert_eq!(err, Err(SketchError::NonFinite("query payoff")));
        assert_eq!(sketch.rounds(), 0);
        assert_eq!(sketch.pool_log_w.as_slice(), log_w, "the pool is untouched");
        assert_eq!(read(&sketch), before);
        assert_eq!(sketch.health().ess, 256.0);
    }

    /// Reads `values[index]` by index alone, so values no `LinearQuery`
    /// may hold (NaN, −0.0) reach the tabulation.
    struct Listed(Vec<f64>);

    impl PointQuery for Listed {
        fn value_bounds(&self) -> (f64, f64) {
            (-1.0, 1.0)
        }
        fn value_at_index(&self, index: usize) -> Option<f64> {
            self.0.get(index).copied()
        }
        fn value_at_point(&self, _point: &[f64]) -> Option<f64> {
            None
        }
    }

    #[test]
    fn tabulation_keeps_nan_and_drops_signed_zeros() {
        let nan = f64::NAN;
        let support = PoolSupport::new((0..8).collect(), vec![0.0; 8], 1).unwrap();
        let mut memo = IncidenceMemo::default();
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let constant = Listed(vec![-0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, -0.0]);
        let entry = memo.tabulate(&constant, &support);
        assert!(
            matches!(entry, Incidence::Constant { start: 0, end: 3, value } if value == 1.0),
            "{entry:?}"
        );
        assert_eq!(memo.slots, [1, 3, 6]);
        assert!(memo.values.is_empty(), "a constant entry keeps no values");

        // Appended after the first entry: NaN is kept, ±0 dropped.
        let varying = Listed(vec![0.0, -0.0, nan, 0.5, 0.0, -1.0, nan, -0.0]);
        let entry = memo.tabulate(&varying, &support);
        assert!(
            matches!(
                entry,
                Incidence::Varying {
                    start: 3,
                    end: 7,
                    values: 0
                }
            ),
            "{entry:?}"
        );
        assert_eq!(memo.slots[3..], [2, 3, 5, 6]);
        assert_eq!(bits(&memo.values), bits(&[nan, 0.5, -1.0, nan]));

        // Only zeros: an empty constant entry.
        let zeros = Listed(vec![0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0]);
        let entry = memo.tabulate(&zeros, &support);
        assert!(
            matches!(entry, Incidence::Constant { start: 7, end: 7, value } if value.to_bits() == 0),
            "{entry:?}"
        );

        // Unevaluable past slot 4: the slot-order pass, buffers as before.
        let short = Listed(vec![1.0, 0.0, 0.5, 1.0, 0.25]);
        assert!(matches!(
            memo.tabulate(&short, &support),
            Incidence::SlotOrder
        ));
        assert_eq!((memo.slots.len(), memo.values.len()), (7, 4));
    }

    #[test]
    fn health_snapshot_tracks_refreshes_and_drift() {
        let (mut sketch, _, _) = driven_pair(10, 256, 61);
        let h = sketch.health();
        assert_eq!(h.pool_size, 256);
        assert_eq!(h.rounds_since_refresh, 3);
        assert!(h.ess >= 1.0 && h.ess <= 256.0);
        assert!((h.drift_bound - sketch.log().drift_bound()).abs() < 1e-12);
        assert_eq!(h.ess_fraction, h.ess / 256.0);
        // A refresh resets the since-refresh counters and re-bases drift.
        let mut rng = StdRng::seed_from_u64(62);
        sketch.resample(&mut rng).unwrap();
        let h = sketch.health();
        assert_eq!(h.rounds_since_refresh, 0);
        assert_eq!(h.drift_bound, 0.0);
    }
}
