//! Maintaining the PMW hypothesis over a universe of 16.7 million points.
//!
//! The dense Figure-3 state pays Θ(|X|) per round — a certificate sweep,
//! an MW update and a weights read over every universe element — which at
//! `|X| = 2^24` means hundreds of milliseconds per round and gigabytes of
//! materialized points. The `pmw-sketch` [`SampledBackend`] keeps a
//! 2048-point Monte-Carlo pool instead: each round touches the pool, not
//! the universe, so the cost is flat in `|X|`.
//!
//! Run with `cargo run --release --example large_universe`.

use pmw::losses::{CmLoss, LinearQueryLoss, PointPredicate};
use pmw::sketch::{BigBitCube, PointSource, RoundUpdate, SampledBackend, SampledConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let bits = 24usize;
    let rounds = 50usize;
    let budget = 2048usize;
    let mut rng = StdRng::seed_from_u64(42);

    // A universe the dense path cannot materialize on one box:
    // 2^24 points x 24 coordinates x 8 bytes = 3.2 GB for the matrix alone.
    let source = BigBitCube::new(bits).expect("cube source");
    let mut backend = SampledBackend::new(
        source,
        SampledConfig {
            budget,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .expect("sampled backend");
    println!(
        "universe |X| = 2^{bits} = {} points; pool = {} samples",
        1u64 << bits,
        backend.pool_size()
    );

    // Dense reference: measure the Θ(|X|) round at a feasible size (2^14)
    // and extrapolate ns/element to 2^24.
    let dense_ns_per_elem = {
        let cube = pmw::data::BooleanCube::new(14).expect("small cube");
        let points = pmw::data::Universe::materialize(&cube);
        let mut hist = pmw::data::Histogram::uniform(1 << 14).expect("histogram");
        let loss = LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![0] }, 14)
            .expect("loss");
        let reps = 12;
        let start = Instant::now();
        for _ in 0..reps {
            let u = pmw::core::update::dual_certificate(&loss, &points, &[0.8], &[0.2])
                .expect("certificate");
            hist.mw_update(&u, 0.05).expect("update");
            std::hint::black_box(hist.weights());
        }
        start.elapsed().as_nanos() as f64 / reps as f64 / (1 << 14) as f64
    };

    // Drive 50 sketched rounds: record an update, estimate the certificate
    // mean, draw a few synthetic points.
    let start = Instant::now();
    for t in 0..rounds {
        let loss = LinearQueryLoss::new(
            PointPredicate::Conjunction {
                coords: vec![t % bits],
            },
            bits,
        )
        .expect("loss");
        let (theta_o, theta_h) = ([rng.random::<f64>()], [rng.random::<f64>()]);
        let eta = 0.4 / ((t + 1) as f64).sqrt();
        backend
            .record(
                RoundUpdate::new(
                    Arc::new(loss.clone()) as Arc<dyn CmLoss>,
                    theta_o.to_vec(),
                    theta_h.to_vec(),
                    eta,
                )
                .expect("round"),
            )
            .expect("record");
        let est = backend
            .certificate_mean(&loss, &theta_o, &theta_h)
            .expect("estimate");
        let _synthetic: Vec<usize> = (0..4).map(|_| backend.sample_index(&mut rng)).collect();
        if t % 10 == 0 {
            println!(
                "round {t:>2}: certificate mean estimate {:+.4} (radius {:.3})",
                est.value, est.radius
            );
        }
    }
    let per_round_us = start.elapsed().as_nanos() as f64 / rounds as f64 / 1e3;

    let dense_extrapolated_us = dense_ns_per_elem * (1u64 << bits) as f64 / 1e3;
    println!();
    println!("measured sketched round:      {per_round_us:>12.1} us");
    println!(
        "dense extrapolation at 2^{bits}: {dense_extrapolated_us:>12.1} us \
         ({dense_ns_per_elem:.2} ns/elem measured at 2^14)"
    );
    println!(
        "sketch advantage:             {:>12.0}x  ({} rounds, {} sampling-ledger entries)",
        dense_extrapolated_us / per_round_us,
        backend.rounds(),
        backend.ledger().len()
    );

    // --- Not just the state backend: the *whole* Figure-3 mechanism runs
    // past the materialization cap. `DataSide::from_source` keeps the
    // data side on the dataset's support rows (O(n·d)) and fetches
    // universe points on demand, so OnlinePmw::answer works at 2^26. ---
    let big_bits = 26usize;
    let big = BigBitCube::new(big_bits).expect("big cube");
    let n = 2000usize;
    let rows: Vec<usize> = (0..n)
        .map(|_| {
            // Bit 0 set on ~90% of rows: the skew the mechanism must learn.
            let x = rng.random_range(0..big.len());
            if rng.random::<f64>() < 0.9 {
                x | 1
            } else {
                x & !1
            }
        })
        .collect();
    let dataset = pmw::data::Dataset::from_indices(big.len(), rows).expect("dataset");
    let state = SampledBackend::new(
        big,
        SampledConfig {
            budget,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .expect("mechanism backend");
    let config = pmw::core::PmwConfig::builder(2.0, 1e-6, 0.05)
        .k(8)
        .rounds_override(4)
        .scale(1.0)
        .solver_iters(100)
        .build()
        .expect("config");
    let mut mech = pmw::core::OnlinePmw::with_backend(
        config,
        pmw::core::DataSide::from_source(&big, &dataset).expect("support rows"),
        pmw::erm::ExactOracle::default(),
        state,
        &mut rng,
    )
    .expect("mechanism");
    let skew_loss = LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![0] }, big_bits)
        .expect("loss");
    let queries = 4usize;
    let start = Instant::now();
    let mut answer = f64::NAN;
    for _ in 0..queries {
        answer = mech.answer(&skew_loss, &mut rng).expect("answer")[0];
    }
    let per_answer_us = start.elapsed().as_nanos() as f64 / queries as f64 / 1e3;
    println!();
    println!(
        "full mechanism at 2^{big_bits}:      {per_answer_us:>12.1} us per answer \
         (bit-0 answer {answer:.3} vs 0.9 in the data; {} updates, {} support rows, \
         universe never materialized)",
        mech.updates_used(),
        mech.data_points().len()
    );
}
