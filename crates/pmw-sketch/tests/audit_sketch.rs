//! ε-audit smoke over a **sketch-backed** mechanism.
//!
//! The privacy audits in `tests/privacy.rs` run the Monte-Carlo ε̂ lower
//! bound against the dense mechanisms; this test points the same
//! estimator at `OnlinePmw` running on a `SampledBackend`. The sketch adds
//! *public* randomness (pool draws, refreshes) and claimed-radius
//! arithmetic on top of the private core — none of which may leak: the
//! audited ε̂ on adjacent datasets must stay below the declared ε, sketch
//! or no sketch.
//!
//! A smoke, not a certificate: trial counts are CI-sized, so the check
//! catches gross leaks (sign errors, budget mis-splits, forgotten noise on
//! the sketched path), not marginal ones.

use pmw_attacks::EpsilonAudit;
use pmw_core::{DataSide, OnlinePmw, PmwConfig};
use pmw_data::{BooleanCube, Dataset};
use pmw_losses::{LinearQueryLoss, PointPredicate};
use pmw_sketch::{SampledBackend, SampledConfig, UniversePoints};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn sketch_backed_online_pmw_audit_stays_below_declared_epsilon() {
    let dim = 4usize;
    let cube = BooleanCube::new(dim).unwrap();
    // Adjacent datasets: one row flipped between the all-ones corner and
    // the origin — the pair a membership distinguisher would pick.
    let rows: Vec<usize> = (0..30).map(|i| [15usize, 15, 0, 1][i % 4]).collect();
    let d0 = Dataset::from_indices(1 << dim, rows).unwrap();
    let d1 = d0.with_row_replaced(0, 0).unwrap();
    let declared_eps = 1.0;
    let delta = 1e-6;

    let run_event = |data: &Dataset, r: &mut StdRng| -> bool {
        let config = PmwConfig::builder(declared_eps, delta, 0.2)
            .k(1)
            .scale(1.0)
            .rounds_override(2)
            .solver_iters(80)
            .build()
            .unwrap();
        // A genuinely sketched pool (8 of 16 points), redrawn after every
        // round so the redraws' extra public randomness is audited too.
        let backend = SampledBackend::new(
            UniversePoints(cube.clone()),
            SampledConfig {
                budget: 8,
                resample_every: 1,
                ..SampledConfig::default()
            },
            r,
        )
        .unwrap();
        let mut mech = OnlinePmw::with_backend(
            config,
            DataSide::from_universe(&cube, data).unwrap(),
            pmw_erm::NoisyGdOracle::new(5).unwrap(),
            backend,
            r,
        )
        .unwrap();
        let loss =
            LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![0] }, dim).unwrap();
        match mech.answer(&loss, r) {
            Ok(theta) => theta[0] > 0.55,
            Err(_) => false,
        }
    };

    let audit = EpsilonAudit::new(1200).unwrap();
    let mut rng = StdRng::seed_from_u64(353);
    let result = audit
        .estimate(
            |r| run_event(&d0, r),
            |r| run_event(&d1, r),
            delta,
            &mut rng,
        )
        .unwrap();
    // CI-sized trial counts carry sampling error; the declared ε plus a
    // generous slack still catches order-of-magnitude leaks.
    assert!(
        result.epsilon_lower_bound <= declared_eps * 1.5,
        "sketch-backed audit {} exceeds declared epsilon {declared_eps}",
        result.epsilon_lower_bound
    );
}
