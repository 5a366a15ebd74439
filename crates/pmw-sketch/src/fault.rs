//! Deterministic fault injection for the sketch-backed mechanisms.
//!
//! Robustness claims are only as good as the failure schedules they were
//! tested under. This module provides a seeded, perfectly reproducible
//! fault layer that wraps the real components — no global state, no time,
//! no extra RNG draws from the mechanism's stream:
//!
//! * [`FaultRule`] — a deterministic schedule over a 1-based call counter
//!   (`Never` / `Every(n)` / `Once(k)` / `Hashed`-pseudorandom);
//! * [`FaultPlan`] — one rule per fault site (oracle solves, backend
//!   estimates, backend updates, claimed read radii, point-source reads),
//!   derivable from a single seed via [`FaultPlan::seeded`];
//! * [`FaultyBackend`] — wraps any [`StateBackend`], injecting estimate
//!   failures, update failures and (on the snapshots it publishes) `NaN`
//!   read radii on schedule;
//! * [`FaultyOracle`] — wraps any [`ErmOracle`], injecting solve failures
//!   on schedule (exercising the burn-the-round paths);
//! * [`FaultySource`] — wraps any [`PointSource`], corrupting scheduled
//!   point reads with a `NaN` coordinate — the deterministic way to make a
//!   *resample* (or pool growth) fail mid-round, since refreshes re-read
//!   points from the source.
//!
//! The chaos suite (`tests/chaos.rs`) drives the mechanisms over grids of
//! seeded plans and asserts the invariants that must survive **any**
//! failure schedule: privacy budget never overspent, round/SV/transcript
//! accounting never desyncs, the β ledger stays conservative, and state is
//! never left half-updated.

use crate::source::PointSource;
use pmw_core::{BackendEvent, PmwError, QueryEstimate, QueryMemo, ReadSnapshot, StateBackend};
use pmw_data::{Histogram, PointMatrix, PointQuery};
use pmw_erm::{ErmError, ErmOracle};
use pmw_losses::CmLoss;
use rand::Rng;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// SplitMix64 — the standard 64-bit finalizer, used so `Hashed` schedules
/// are reproducible across platforms without any RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic schedule deciding whether the `call`-th invocation
/// (1-based) of a fault site fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultRule {
    /// Never fires (the site is healthy).
    #[default]
    Never,
    /// Fires on every `n`-th call (`n = 0` never fires).
    Every(u64),
    /// Fires exactly on call number `k` (1-based; `k = 0` never fires).
    Once(u64),
    /// Fires pseudorandomly at rate `1/period`, deterministically in the
    /// call index: call `c` fails iff `splitmix64(c ⊕ salt) % period == 0`.
    Hashed {
        /// Average gap between failures (`0` never fires).
        period: u64,
        /// Decorrelates sites sharing a period.
        salt: u64,
    },
}

impl FaultRule {
    /// Does the schedule fire on the given 1-based call index?
    pub fn fires(&self, call: u64) -> bool {
        match *self {
            FaultRule::Never => false,
            FaultRule::Every(n) => n > 0 && call.is_multiple_of(n),
            FaultRule::Once(k) => k > 0 && call == k,
            FaultRule::Hashed { period, salt } => {
                period > 0 && splitmix64(call ^ salt).is_multiple_of(period)
            }
        }
    }
}

/// One [`FaultRule`] per injectable fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Oracle solve failures ([`FaultyOracle`]).
    pub oracle: FaultRule,
    /// Backend estimate failures (`expected_query_value`, and each query
    /// of `expected_query_values`, [`FaultyBackend`]).
    pub estimate: FaultRule,
    /// Backend update failures (`apply_update` / `apply_query_update`,
    /// [`FaultyBackend`]).
    pub update: FaultRule,
    /// Injected `NaN` claimed read radii (`read_radius` on the snapshots a
    /// [`FaultyBackend`] publishes) — the mechanisms must refuse these
    /// loudly.
    pub nan_radius: FaultRule,
    /// Corrupted point-source reads ([`FaultySource`]): the scheduled
    /// `write_point` call emits a `NaN` coordinate, deterministically
    /// failing whichever pool draw, refresh, or growth consumes it.
    pub source: FaultRule,
}

impl FaultPlan {
    /// Derive a full plan from one seed: every site gets a rule drawn
    /// deterministically from the seed (including, sometimes, `Never` —
    /// healthy sites are part of the space worth testing).
    pub fn seeded(seed: u64) -> Self {
        let rule = |site: u64| {
            let h = splitmix64(seed.wrapping_mul(0x9E37).wrapping_add(site));
            match h % 4 {
                0 => FaultRule::Never,
                1 => FaultRule::Every(2 + (h >> 2) % 5),
                2 => FaultRule::Once(1 + (h >> 2) % 6),
                _ => FaultRule::Hashed {
                    period: 2 + (h >> 2) % 4,
                    salt: splitmix64(seed ^ site),
                },
            }
        };
        Self {
            oracle: rule(1),
            estimate: rule(2),
            update: rule(3),
            nan_radius: rule(4),
            source: rule(5),
        }
    }
}

/// A [`StateBackend`] wrapper that injects failures per a [`FaultPlan`]:
/// scheduled `expected_query_value` / `apply_update` / `apply_query_update`
/// calls error *before* touching the inner backend (so an injected update
/// failure reaches the mechanism exactly like a real backend failure
/// would, with the inner state untouched), and scheduled `read_radius`
/// calls on its snapshots report `NaN`. Everything else delegates.
#[derive(Debug)]
pub struct FaultyBackend<B: StateBackend> {
    inner: B,
    plan: FaultPlan,
    estimate_calls: AtomicU64,
    update_calls: AtomicU64,
    // Shared (`Arc`) with every published snapshot, so the read-radius
    // site counts one deterministic 1-based call sequence across all of
    // them, and their injections count toward the backend's total.
    radius_calls: Arc<AtomicU64>,
    injected: Arc<AtomicU64>,
}

/// Advance the shared 1-based call counter for one fault site and report
/// whether the schedule fires on this call (bumping the injected total).
fn site_fires(rule: FaultRule, counter: &AtomicU64, injected: &AtomicU64) -> bool {
    let call = counter.fetch_add(1, Ordering::Relaxed) + 1;
    let hit = rule.fires(call);
    if hit {
        injected.fetch_add(1, Ordering::Relaxed);
    }
    hit
}

impl<B: StateBackend> FaultyBackend<B> {
    /// Wrap a backend under the given plan.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            estimate_calls: AtomicU64::new(0),
            update_calls: AtomicU64::new(0),
            radius_calls: Arc::new(AtomicU64::new(0)),
            injected: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Total faults injected so far (all sites, snapshots included).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn fires(&self, rule: FaultRule, counter: &AtomicU64) -> bool {
        site_fires(rule, counter, &self.injected)
    }
}

/// The read snapshot a [`FaultyBackend`] publishes: delegates both reads
/// to the wrapped backend's snapshot and keeps the read-radius fault site
/// live, on the call counter the wrapping backend shares with every
/// snapshot it publishes.
struct FaultySnapshot {
    inner: Arc<dyn ReadSnapshot>,
    plan: FaultPlan,
    radius_calls: Arc<AtomicU64>,
    injected: Arc<AtomicU64>,
}

impl ReadSnapshot for FaultySnapshot {
    fn updates_recorded(&self) -> usize {
        self.inner.updates_recorded()
    }

    fn hypothesis_minimizer(
        &self,
        loss: &dyn CmLoss,
        points: &PointMatrix,
        solver_iters: usize,
    ) -> Result<Vec<f64>, PmwError> {
        self.inner.hypothesis_minimizer(loss, points, solver_iters)
    }

    fn read_radius(&self, scale: f64) -> f64 {
        if site_fires(self.plan.nan_radius, &self.radius_calls, &self.injected) {
            return f64::NAN;
        }
        self.inner.read_radius(scale)
    }
}

impl<B: StateBackend> StateBackend for FaultyBackend<B> {
    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn updates_recorded(&self) -> usize {
        self.inner.updates_recorded()
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_update(
        &mut self,
        loss: &dyn CmLoss,
        retained: Option<Arc<dyn CmLoss>>,
        points: &PointMatrix,
        theta_oracle: &[f64],
        theta_hyp: &[f64],
        eta: f64,
        gap_weights: Option<&[f64]>,
        rng: &mut dyn Rng,
    ) -> Result<Option<f64>, PmwError> {
        if self.fires(self.plan.update, &self.update_calls) {
            return Err(PmwError::LossMismatch("injected fault: backend update"));
        }
        self.inner.apply_update(
            loss,
            retained,
            points,
            theta_oracle,
            theta_hyp,
            eta,
            gap_weights,
            rng,
        )
    }

    fn sample_indices(&self, m: usize, rng: &mut dyn Rng) -> Result<Vec<usize>, PmwError> {
        self.inner.sample_indices(m, rng)
    }

    fn expected_query_value(
        &self,
        query: &dyn PointQuery,
        points: Option<&PointMatrix>,
    ) -> Result<QueryEstimate, PmwError> {
        if self.fires(self.plan.estimate, &self.estimate_calls) {
            return Err(PmwError::LossMismatch("injected fault: backend estimate"));
        }
        self.inner.expected_query_value(query, points)
    }

    /// Consults the estimate site once per query, in query order, as the
    /// per-query loop does. When it fires at none of them, the whole slice
    /// goes to the inner batched read, memo included; when it fires at
    /// query `j`, queries before `j` are read one at a time through the
    /// inner backend and query `j` returns the injected error. Values,
    /// ledger records and spans then match the loop's. Only after a real
    /// inner error can the site's call count drift from the loop's.
    fn expected_query_values(
        &self,
        queries: &[&dyn PointQuery],
        points: Option<&PointMatrix>,
        memo: &mut QueryMemo,
    ) -> Result<Vec<QueryEstimate>, PmwError> {
        let Some(j) = queries
            .iter()
            .position(|_| self.fires(self.plan.estimate, &self.estimate_calls))
        else {
            return self.inner.expected_query_values(queries, points, memo);
        };
        for query in &queries[..j] {
            self.inner.expected_query_value(*query, points)?;
        }
        Err(PmwError::LossMismatch("injected fault: backend estimate"))
    }

    fn apply_query_update(
        &mut self,
        query: &dyn PointQuery,
        retained: Option<Arc<dyn PointQuery>>,
        coeff: f64,
        eta: f64,
        points: Option<&PointMatrix>,
        rng: &mut dyn Rng,
    ) -> Result<(), PmwError> {
        if self.fires(self.plan.update, &self.update_calls) {
            return Err(PmwError::LossMismatch("injected fault: backend update"));
        }
        self.inner
            .apply_query_update(query, retained, coeff, eta, points, rng)
    }

    fn dense_hypothesis(&self) -> Option<&Histogram> {
        self.inner.dense_hypothesis()
    }

    fn requires_shared_loss(&self) -> bool {
        self.inner.requires_shared_loss()
    }

    fn snapshot(&self) -> Result<Arc<dyn ReadSnapshot>, PmwError> {
        Ok(Arc::new(FaultySnapshot {
            inner: self.inner.snapshot()?,
            plan: self.plan,
            radius_calls: Arc::clone(&self.radius_calls),
            injected: Arc::clone(&self.injected),
        }))
    }

    fn requires_materialized_universe(&self) -> bool {
        self.inner.requires_materialized_universe()
    }

    fn take_events(&mut self) -> Vec<BackendEvent> {
        self.inner.take_events()
    }
}

/// An [`ErmOracle`] wrapper injecting solve failures per a [`FaultRule`].
/// Counts calls; each update round calls the oracle once.
#[derive(Debug)]
pub struct FaultyOracle<O: ErmOracle> {
    inner: O,
    rule: FaultRule,
    calls: Cell<u64>,
}

impl<O: ErmOracle> FaultyOracle<O> {
    /// Wrap an oracle under the given schedule.
    pub fn new(inner: O, rule: FaultRule) -> Self {
        Self {
            inner,
            rule,
            calls: Cell::new(0),
        }
    }

    /// Solve calls observed so far (including injected failures).
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

impl<O: ErmOracle> ErmOracle for FaultyOracle<O> {
    fn solve(
        &self,
        loss: &dyn CmLoss,
        points: &PointMatrix,
        weights: &[f64],
        n: usize,
        budget: pmw_dp::PrivacyBudget,
        rng: &mut dyn Rng,
    ) -> Result<Vec<f64>, ErmError> {
        let call = self.calls.get() + 1;
        self.calls.set(call);
        if self.rule.fires(call) {
            return Err(ErmError::InvalidParameter("injected fault: oracle solve"));
        }
        self.inner.solve(loss, points, weights, n, budget, rng)
    }

    fn name(&self) -> &'static str {
        "faulty-oracle"
    }
}

/// A [`PointSource`] wrapper corrupting scheduled reads: the `call`-th
/// `write_point` (1-based, per the rule) emits `NaN` in coordinate 0.
/// Because pool refreshes and growths re-read points from the source, this
/// is the deterministic way to make a *resample* fail mid-round — the
/// corrupted point's log-weight evaluation errors, and the transactional
/// round must roll back.
#[derive(Debug)]
pub struct FaultySource<S: PointSource> {
    inner: S,
    rule: FaultRule,
    calls: Cell<u64>,
}

impl<S: PointSource> FaultySource<S> {
    /// Wrap a source under the given schedule.
    pub fn new(inner: S, rule: FaultRule) -> Self {
        Self {
            inner,
            rule,
            calls: Cell::new(0),
        }
    }

    /// Point reads observed so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

impl<S: PointSource> PointSource for FaultySource<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn write_point(&self, index: usize, out: &mut [f64]) {
        self.inner.write_point(index, out);
        let call = self.calls.get() + 1;
        self.calls.set(call);
        if self.rule.fires(call) && !out.is_empty() {
            out[0] = f64::NAN;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_fire_on_schedule() {
        assert!(!FaultRule::Never.fires(1));
        assert!(!FaultRule::Every(0).fires(7));
        let every3: Vec<bool> = (1..=9).map(|c| FaultRule::Every(3).fires(c)).collect();
        assert_eq!(
            every3,
            [false, false, true, false, false, true, false, false, true]
        );
        let once2: Vec<bool> = (1..=4).map(|c| FaultRule::Once(2).fires(c)).collect();
        assert_eq!(once2, [false, true, false, false]);
        assert!(!FaultRule::Once(0).fires(0));
        // Hashed schedules are deterministic and hit roughly 1/period.
        let rule = FaultRule::Hashed {
            period: 4,
            salt: 99,
        };
        let hits = (1..=4000_u64).filter(|&c| rule.fires(c)).count();
        assert!((600..=1400).contains(&hits), "{hits}");
        assert_eq!(
            (1..=50).map(|c| rule.fires(c)).collect::<Vec<_>>(),
            (1..=50).map(|c| rule.fires(c)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn seeded_plans_are_reproducible_and_diverse() {
        assert_eq!(FaultPlan::seeded(7), FaultPlan::seeded(7));
        // Across a seed range, every site takes more than one rule shape.
        let plans: Vec<FaultPlan> = (0..32).map(FaultPlan::seeded).collect();
        assert!(plans.windows(2).any(|w| w[0] != w[1]));
        assert!(plans.iter().any(|p| p.oracle == FaultRule::Never));
        assert!(plans.iter().any(|p| p.oracle != FaultRule::Never));
        assert_eq!(FaultPlan::default().update, FaultRule::Never);
    }

    #[test]
    fn faulty_source_corrupts_scheduled_reads_only() {
        use crate::source::UniversePoints;
        use pmw_data::BooleanCube;
        let cube = BooleanCube::new(3).unwrap();
        let src = FaultySource::new(UniversePoints(cube), FaultRule::Once(2));
        let mut buf = [0.0; 3];
        src.write_point(5, &mut buf);
        assert!(buf.iter().all(|v| v.is_finite()));
        src.write_point(5, &mut buf);
        assert!(buf[0].is_nan(), "second read must be corrupted");
        src.write_point(5, &mut buf);
        assert!(buf.iter().all(|v| v.is_finite()));
        assert_eq!(src.calls(), 3);
        assert_eq!(src.len(), 8);
        assert_eq!(src.dim(), 3);
    }
}
