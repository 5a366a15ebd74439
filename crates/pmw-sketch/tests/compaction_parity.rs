//! Compacted-vs-full replay parity for the checkpointed update log.
//!
//! Three families of guarantees, each pinned here at the backend level
//! (the `log` module's unit tests pin them at the log level):
//!
//! * **Lossless folds are invisible.** On a pool whose panel covers every
//!   replayed point (exhaustive pools; panel hits on sampled pools), a
//!   compacted backend's entire read trace — estimates, radii, ledger
//!   betas, Gumbel draws, per-point log-weights — is **bit-for-bit** the
//!   uncompacted backend's, at 1, 2, and 8 threads alike.
//! * **Lossy folds are honestly priced.** When folded rounds genuinely
//!   drop information (panel misses; panel-free folds of a bare
//!   [`UpdateLog`], read through [`exact_query_values`]), the realized
//!   error never exceeds the claimed [`compaction_fold_radius`], across a
//!   grid of drift regimes, and the sampled backend ledgers the claim as
//!   a sure (β = 0) fold entry.
//! * **Replay cost is amortized O(1) in t.** Under an active policy the
//!   resample replay depth stays bounded by the fold cadence while the
//!   uncompacted backend's grows linearly with the round count — the fix
//!   for the latent quadratic in long-horizon serving.

use pmw_core::{BackendEvent, ReadSnapshot, StateBackend};
use pmw_data::par::with_threads;
use pmw_data::workload::ImplicitQuery;
use pmw_data::{BooleanCube, PointQuery, Universe};
use pmw_dp::{compaction_fold_radius, RadiusBound};
use pmw_losses::{CmLoss, LinearQueryLoss, PointPredicate};
use pmw_sketch::{
    exact_query_values, CompactionPolicy, RoundUpdate, SampledBackend, SampledConfig,
    UniversePoints, UpdateLog,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const DIM: usize = 6; // |X| = 64

fn bit_loss(bit: usize) -> LinearQueryLoss {
    LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, DIM).unwrap()
}

/// The mixed certificate + query round schedule every scenario drives.
fn steps() -> [(usize, f64, f64, f64); 6] {
    [
        (0, 0.9, 0.4, 0.7),
        (1, 0.15, 0.6, 0.5),
        (2, 0.8, 0.2, 0.9),
        (3, 0.3, 0.55, 0.6),
        (4, 0.7, 0.35, 0.8),
        (5, 0.25, 0.65, 0.4),
    ]
}

/// Drive `rounds` mixed rounds through the transactional [`StateBackend`]
/// seam (so the configured [`CompactionPolicy`] actually fires) and
/// return the backend.
fn drive(
    config: SampledConfig,
    rounds: usize,
    seed: u64,
) -> SampledBackend<UniversePoints<BooleanCube>> {
    let cube = BooleanCube::new(DIM).unwrap();
    let points = cube.materialize();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut backend = SampledBackend::new(UniversePoints(cube), config, &mut rng).unwrap();
    let plan = steps();
    for i in 0..rounds {
        let (bit, t_o, t_h, eta) = plan[i % plan.len()];
        if i % 3 == 2 {
            let q = ImplicitQuery::marginal(vec![bit, (bit + 1) % DIM], DIM).unwrap();
            backend
                .apply_query_update(&q, None, -0.4, eta, None, &mut rng)
                .unwrap();
        } else {
            let loss = bit_loss(bit);
            backend
                .apply_update(&loss, None, &points, &[t_o], &[t_h], eta, None, &mut rng)
                .unwrap();
        }
    }
    backend
}

/// Full read trace of a backend: estimates, radii, read margins, Gumbel
/// draws, snapshot reads and every universe element's log-weight.
fn read_trace(backend: &SampledBackend<UniversePoints<BooleanCube>>, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bits = Vec::new();
    for bit in 0..DIM {
        let loss = bit_loss(bit);
        match backend.certificate_mean(&loss, &[0.8], &[0.3]) {
            Ok(e) => bits.extend([e.value.to_bits(), e.radius.to_bits(), e.beta.to_bits()]),
            Err(_) => bits.push(u64::MAX),
        }
        let q = ImplicitQuery::threshold(bit, 0.5, DIM).unwrap();
        match backend.query_mean(&q as &dyn PointQuery) {
            Ok(e) => bits.extend([e.value.to_bits(), e.radius.to_bits()]),
            Err(_) => bits.push(u64::MAX),
        }
        bits.push(backend.read_radius(loss.scale_bound()).to_bits());
        bits.push(backend.sample_index(&mut rng) as u64);
    }
    let snap = backend.publish_snapshot().unwrap();
    let q = ImplicitQuery::marginal(vec![0, 3], DIM).unwrap();
    match snap.expected_query_value(&q as &dyn PointQuery, None) {
        Ok(e) => bits.extend([e.value.to_bits(), e.radius.to_bits(), e.beta.to_bits()]),
        Err(_) => bits.push(u64::MAX),
    }
    for x in 0..1usize << DIM {
        bits.push(backend.log_weight_of(x).unwrap().to_bits());
    }
    bits.push(backend.updates_recorded() as u64);
    bits.push(backend.log().drift_bound().to_bits());
    bits
}

#[test]
fn lossless_folds_are_bit_for_bit_invisible_across_thread_counts() {
    // Exhaustive pool: the checkpoint panel covers the whole universe, so
    // every fold is lossless and every seeded replay is a panel hit.
    let config = |policy| SampledConfig {
        budget: 1 << DIM,
        compaction: policy,
        ..SampledConfig::default()
    };
    let reference = with_threads(1, || {
        let backend = drive(config(CompactionPolicy::Never), 12, 42);
        read_trace(&backend, 9)
    });
    for &threads in &[1usize, 2, 8] {
        for &policy in &[
            CompactionPolicy::Never,
            CompactionPolicy::EveryK(2),
            CompactionPolicy::EveryK(5),
            // Small enough that a few retained rounds trip it.
            CompactionPolicy::MemoryBound(256),
        ] {
            let (trace, compactions) = with_threads(threads, || {
                let mut backend = drive(config(policy), 12, 42);
                let trace = read_trace(&backend, 9);
                // Compaction events surface through the standard drain
                // and render one-line summaries.
                let events = backend.take_events();
                for e in &events {
                    if let BackendEvent::Compaction { folded_rounds, .. } = e {
                        assert!(*folded_rounds >= 1);
                        assert!(e.to_string().contains("compacted"));
                    }
                }
                (trace, backend.compactions())
            });
            assert_eq!(
                reference, trace,
                "trace diverged under {policy:?} at {threads} threads"
            );
            if policy != CompactionPolicy::Never {
                assert!(compactions > 0, "{policy:?} never fired");
            }
        }
    }
}

#[test]
fn panel_hits_replay_bit_for_bit_and_misses_stay_within_the_folded_drift() {
    // Non-exhaustive pool: the checkpoint panel is the 16 pooled points.
    // Panel hits must reproduce the full-history replay exactly; misses
    // replay the retained suffix only and may be off by at most the
    // folded drift.
    let config = |policy| SampledConfig {
        budget: 16,
        compaction: policy,
        ..SampledConfig::default()
    };
    let full = drive(config(CompactionPolicy::Never), 9, 7);
    let compacted = drive(config(CompactionPolicy::EveryK(4)), 9, 7);
    assert!(compacted.compactions() > 0);
    let folded = compacted.log().folded_drift();
    assert!(folded > 0.0);
    // Same construction seed → same pool; the panel indices are exactly
    // the pooled ones, which Gumbel draws can only land on.
    let mut rng = StdRng::seed_from_u64(3);
    let mut panel_hits = 0;
    for _ in 0..32 {
        let x = compacted.sample_index(&mut rng);
        let lw_full = full.log_weight_of(x).unwrap();
        let lw_seeded = compacted.log_weight_of(x).unwrap();
        assert_eq!(
            lw_full.to_bits(),
            lw_seeded.to_bits(),
            "panel hit at x={x} not bit-for-bit"
        );
        panel_hits += 1;
    }
    assert!(panel_hits > 0);
    let mut misses = 0;
    for x in 0..1usize << DIM {
        let lw_full = full.log_weight_of(x).unwrap();
        let lw_seeded = compacted.log_weight_of(x).unwrap();
        let err = (lw_full - lw_seeded).abs();
        assert!(
            err <= folded * (1.0 + 1e-12),
            "x={x}: unseeded replay error {err} exceeds folded drift {folded}"
        );
        if err > 0.0 {
            misses += 1;
        }
    }
    assert!(misses > 0, "every point hit the panel — miss path untested");
}

#[test]
fn lossy_fold_realized_error_stays_within_the_claimed_radius() {
    // Panel-free folds (`compact(&[], &[], 0.0)`) are maximally lossy:
    // folded rounds are dropped outright. Across a grid of drift regimes
    // (eta scalings) and fold cadences, the exact sweep of the folded log
    // must stay within the claimed fold radius of the unfolded log's.
    let source = UniversePoints(BooleanCube::new(DIM).unwrap());
    let queries: Vec<ImplicitQuery> = (0..DIM)
        .map(|bit| ImplicitQuery::marginal(vec![bit], DIM).unwrap())
        .collect();
    let queries: Vec<&dyn PointQuery> = queries.iter().map(|q| q as &dyn PointQuery).collect();
    for &eta_scale in &[0.05, 0.3, 0.8, 1.5] {
        for &k in &[2usize, 4] {
            let policy = CompactionPolicy::EveryK(k);
            let mut exact = UpdateLog::new();
            let mut lossy = UpdateLog::new();
            for &(bit, t_o, t_h, eta) in &steps() {
                let update = RoundUpdate::new(
                    Arc::new(bit_loss(bit)) as Arc<dyn CmLoss>,
                    vec![t_o],
                    vec![t_h],
                    eta * eta_scale,
                )
                .unwrap();
                exact.push(update.clone());
                lossy.push(update);
                if policy.due(lossy.retained_len(), lossy.retained_bytes()) {
                    lossy.compact(&[], &[], 0.0).unwrap();
                }
            }
            assert_eq!(exact.folded_drift(), 0.0);
            let folded_drift = lossy.folded_drift();
            assert!(folded_drift > 0.0, "eta_scale {eta_scale}, k {k}");
            let truth = exact_query_values(&exact, &source, &queries).unwrap();
            let est = exact_query_values(&lossy, &source, &queries).unwrap();
            // Marginal queries have |q| ≤ 1, so the claimed radius is the
            // unit-scale fold bound.
            let radius = compaction_fold_radius(1.0, folded_drift);
            for (bit, (e, t)) in est.iter().zip(&truth).enumerate() {
                let realized = (e - t).abs();
                assert!(
                    realized <= radius * (1.0 + 1e-9) + 1e-12,
                    "eta_scale {eta_scale}, k {k}, bit {bit}: realized {realized} \
                     exceeds claimed {radius}"
                );
            }
        }
    }
}

#[test]
fn compaction_keeps_the_resample_replay_depth_amortized_o1() {
    // The latent quadratic: with a growing log, every fixed-cadence
    // resample replays the *whole* history — O(t) per refresh, O(t²)
    // over a run. A checkpointed log replays only the retained suffix,
    // whose length the policy bounds by the fold cadence.
    const ROUNDS: usize = 40;
    let config = |policy| SampledConfig {
        budget: 16,
        resample_every: 4,
        compaction: policy,
        ..SampledConfig::default()
    };
    let full = drive(config(CompactionPolicy::Never), ROUNDS, 13);
    assert_eq!(
        full.last_replay_depth(),
        ROUNDS,
        "uncompacted refresh must replay the whole history"
    );
    let flat = drive(config(CompactionPolicy::EveryK(8)), ROUNDS, 13);
    assert!(
        flat.last_replay_depth() <= 8,
        "compacted refresh replayed {} rounds — the amortized O(1) bound is broken",
        flat.last_replay_depth()
    );
    assert!(flat.compactions() >= ROUNDS / 8 - 1);
    assert_eq!(flat.updates_recorded(), ROUNDS);
    assert_eq!(
        flat.log().drift_bound().to_bits(),
        full.log().drift_bound().to_bits(),
        "compaction must not change the total drift envelope"
    );
}

#[test]
fn fold_claims_are_ledgered_as_sure_entries_and_counted() {
    let config = SampledConfig {
        budget: 16,
        resample_every: 4,
        compaction: CompactionPolicy::EveryK(4),
        ..SampledConfig::default()
    };
    let backend = drive(config, 12, 21);
    assert!(backend.compactions() > 0);
    let ledger = backend.ledger();
    let folds: Vec<_> = ledger
        .records()
        .iter()
        .filter(|r| r.label == "compaction-fold")
        .collect();
    assert_eq!(folds.len(), backend.compactions());
    let mut beta_without_folds = 0.0;
    for r in ledger.records() {
        if r.label != "compaction-fold" {
            beta_without_folds += r.beta;
        }
    }
    for f in &folds {
        assert_eq!(f.bound, RadiusBound::Fold);
        assert_eq!(f.beta, 0.0, "fold claims are sure, not probabilistic");
        assert!(f.radius >= 0.0 && f.radius.is_finite());
    }
    // Sure claims are *counted* in the union bound (they just add zero).
    assert_eq!(ledger.total_beta(), beta_without_folds);
    assert!(ledger.bound_wins(RadiusBound::Fold) >= folds.len());
}
