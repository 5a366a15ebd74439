//! Thread-count invariance of the sketch: a full mixed scenario
//! (certificate + query rounds, estimates, max sweeps, Gumbel draws,
//! resamples, snapshot reads) must produce **bit-for-bit identical**
//! traces at 1, 2, and 8 threads.
//!
//! No code in `pmw-sketch` depends on the worker count: the sampled
//! backend's pool sweeps are serial loops in slot order, and the crate
//! runs no chunked sweep of its own. This test guards that, so a sweep
//! that starts reading the worker count has to keep every bit.
//!
//! Pool budgets of 64, 384 and 600 cover one small and two larger pools.

use pmw_core::ReadSnapshot;
use pmw_data::par::with_threads;
use pmw_data::workload::ImplicitQuery;
use pmw_data::{BooleanCube, PointQuery, Universe};
use pmw_losses::{CmLoss, LinearQueryLoss, PointPredicate};
use pmw_sketch::{RoundUpdate, SampledBackend, SampledConfig, UniversePoints};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const DIM: usize = 10; // |X| = 1024

fn bit_loss(bit: usize) -> LinearQueryLoss {
    LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, DIM).unwrap()
}

fn cert_update(bit: usize, t_o: f64, t_h: f64, eta: f64) -> RoundUpdate {
    RoundUpdate::new(
        Arc::new(bit_loss(bit)) as Arc<dyn CmLoss>,
        vec![t_o],
        vec![t_h],
        eta,
    )
    .unwrap()
}

/// Push an estimate (or its failure) into the bit trace. Errors are part
/// of the trace too: a read that degrades at one thread count must
/// degrade at every thread count.
fn push_est(bits: &mut Vec<u64>, est: Result<pmw_sketch::Estimate, pmw_sketch::SketchError>) {
    match est {
        Ok(e) => bits.extend([
            e.value.to_bits(),
            e.radius.to_bits(),
            e.beta.to_bits(),
            e.envelope_radius.to_bits(),
        ]),
        Err(_) => bits.push(u64::MAX),
    }
}

/// Run the whole mixed scenario under a forced worker count and return
/// the full bit trace of everything it computed.
fn trace(budget: usize, threads: usize) -> Vec<u64> {
    with_threads(threads, || {
        let cube = BooleanCube::new(DIM).unwrap();
        let mut rng = StdRng::seed_from_u64(7 + budget as u64);
        let sk = SampledConfig {
            budget,
            ..SampledConfig::default()
        };
        let mut backend = SampledBackend::new(UniversePoints(cube), sk, &mut rng).unwrap();
        let mut bits = Vec::new();

        let steps = [
            (0usize, 0.9, 0.4, 0.7),
            (1, 0.15, 0.6, 0.5),
            (2, 0.8, 0.2, 0.9),
            (3, 0.3, 0.55, 0.6),
            (4, 0.7, 0.35, 0.8),
        ];
        for (i, &(bit, t_o, t_h, eta)) in steps.iter().enumerate() {
            backend.record(cert_update(bit, t_o, t_h, eta)).unwrap();
            if i % 2 == 1 {
                // Interleave a linear-query MW round so the query-side
                // log-weight path is exercised too.
                let q = ImplicitQuery::marginal(vec![bit, (bit + 1) % DIM], DIM).unwrap();
                backend
                    .record(RoundUpdate::query_from_dyn(&q, -0.4, 1.0).unwrap())
                    .unwrap();
            }

            let loss = bit_loss(bit);
            push_est(&mut bits, backend.certificate_mean(&loss, &[t_o], &[t_h]));
            let q = ImplicitQuery::threshold(bit, 0.5, DIM).unwrap();
            push_est(&mut bits, backend.query_mean(&q as &dyn PointQuery));
            match backend.max_payoff(&loss, &[t_o], &[t_h]) {
                Ok(mx) => bits.extend([mx.value.to_bits(), mx.uncovered_mass.to_bits()]),
                Err(_) => bits.push(u64::MAX),
            }
            bits.push(backend.read_radius(loss.scale_bound()).to_bits());
            bits.push(backend.sample_index(&mut rng) as u64);
        }

        // Resample (fresh index draws + full O(m·t·d) replay), then read
        // again.
        backend.resample(&mut rng).unwrap();
        let q = ImplicitQuery::marginal(vec![0, 3], DIM).unwrap();
        push_est(&mut bits, backend.query_mean(&q as &dyn PointQuery));

        // Published snapshot reads run the same sweeps.
        let snap = backend.publish_snapshot().unwrap();
        bits.push(snap.read_radius(1.0).to_bits());
        let points = BooleanCube::new(DIM).unwrap().materialize();
        match snap.hypothesis_minimizer(&bit_loss(0), &points, 40) {
            Ok(theta) => bits.extend(theta.iter().map(|v| v.to_bits())),
            Err(_) => bits.push(u64::MAX),
        }

        assert!(!bits.is_empty());
        bits
    })
}

#[test]
fn sweeps_are_bit_identical_across_thread_counts() {
    for &budget in &[64usize, 384, 600] {
        let base = trace(budget, 1);
        for &threads in &[2usize, 8] {
            let other = trace(budget, threads);
            assert_eq!(
                base, other,
                "budget {budget}: trace diverged at {threads} threads"
            );
        }
    }
}
