//! `Mwem` reads its k estimates per round through the batched
//! `StateBackend::expected_query_values`. `SampledBackend` overrides it to
//! sum each query over its non-zero pool slots, memoized per pool support;
//! the trait's default is the per-query loop. These runs pin the two to
//! the same bits: every run goes once straight onto a `SampledBackend` and
//! once through a `FaultyBackend` with an empty fault plan, which forwards
//! every method except the batched read and so takes the default loop.
//! Answers, selections, backend events, ledger records and every probe
//! call (spans, radius gauges, bound notes, round outcomes) must match,
//! across pool redraws, compaction folds, pool growth to exhaustive and a
//! round the backend rolls back.

use pmw_core::{BackendEvent, Mwem, MwemRun, PmwError, StateBackend};
use pmw_data::{BigBitCube, Dataset, PointQuery, PointSource};
use pmw_dp::SamplingRecord;
use pmw_obs::{Counter, Gauge, Phase, Probe};
use pmw_sketch::{CompactionPolicy, FaultPlan, FaultyBackend, SampledBackend, SampledConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::RefCell;
use std::sync::Arc;

/// The share of `coords` set at a point: one coordinate reads 0 or 1 (a
/// marginal's constant non-zero value), two or three read varying values.
#[derive(Clone)]
struct BitShare {
    coords: Vec<usize>,
    dim: usize,
}

impl PointQuery for BitShare {
    fn value_bounds(&self) -> (f64, f64) {
        (0.0, 1.0)
    }

    fn value_at_index(&self, _index: usize) -> Option<f64> {
        None
    }

    fn value_at_point(&self, point: &[f64]) -> Option<f64> {
        let set = self.coords.iter().filter(|&&c| point[c] >= 0.5).count();
        Some(set as f64 / self.coords.len() as f64)
    }

    fn point_dim(&self) -> Option<usize> {
        Some(self.dim)
    }

    fn clone_shared(&self) -> Option<Arc<dyn PointQuery>> {
        Some(Arc::new(self.clone()))
    }
}

/// Every probe call in order, floats as bits.
#[derive(Default)]
struct Tape(RefCell<Vec<String>>);

impl Tape {
    fn push(&self, line: String) {
        self.0.borrow_mut().push(line);
    }
}

impl Probe for Tape {
    fn round_begin(&self, round: usize) {
        self.push(format!("round {round}"));
    }

    fn round_end(&self, round: usize, outcome: &'static str) {
        self.push(format!("round {round} {outcome}"));
    }

    fn span_begin(&self, phase: Phase) {
        self.push(format!("begin {phase:?}"));
    }

    fn span_end(&self, phase: Phase) {
        self.push(format!("end {phase:?}"));
    }

    fn gauge(&self, gauge: Gauge, value: f64) {
        self.push(format!("{gauge:?} {:#x}", value.to_bits()));
    }

    fn counter(&self, counter: Counter, delta: u64) {
        self.push(format!("{counter:?} +{delta}"));
    }

    fn note(&self, key: &'static str, value: &str) {
        self.push(format!("{key} {value}"));
    }
}

struct Case {
    dim: usize,
    config: SampledConfig,
    rounds: usize,
    range: f64,
}

fn queries(dim: usize) -> Vec<BitShare> {
    let mut rng = StdRng::seed_from_u64(17);
    (0..12)
        .map(|i| BitShare {
            coords: (0..1 + i % 3).map(|_| rng.random_range(0..dim)).collect(),
            dim,
        })
        .collect()
}

fn dataset(source: &BigBitCube) -> Dataset {
    let mut rng = StdRng::seed_from_u64(19);
    let rows = (0..600)
        .map(|_| rng.random_range(0..source.len()) | 1)
        .collect();
    Dataset::from_indices(source.len(), rows).unwrap()
}

/// One run of `case`, on the backend `wrap` makes of a fresh sampled
/// backend; returns the run (or its error) and the probe tape.
fn run<'t, B: StateBackend>(
    case: &Case,
    wrap: impl FnOnce(Sampled<'t>) -> B,
    tape: &'t Tape,
) -> Result<MwemRun<B>, PmwError> {
    let source = BigBitCube::new(case.dim).unwrap();
    let mut pool_rng = StdRng::seed_from_u64(23);
    let backend = SampledBackend::with_probe(source, case.config, tape, &mut pool_rng).unwrap();
    let mut rng = StdRng::seed_from_u64(29);
    Mwem::new(case.rounds, case.range)
        .unwrap()
        .run_with_source_probed(
            &queries(case.dim),
            &source,
            &dataset(&source),
            2.0,
            wrap(backend),
            &mut rng,
            tape,
        )
}

fn record_bits(records: &[SamplingRecord]) -> Vec<(&'static str, usize, u64, u64, String)> {
    records
        .iter()
        .map(|r| {
            let bound = format!("{:?}", r.bound);
            (
                r.label,
                r.samples,
                r.radius.to_bits(),
                r.beta.to_bits(),
                bound,
            )
        })
        .collect()
}

type Sampled<'t> = SampledBackend<BigBitCube, &'t Tape>;

/// Runs `case` both ways and checks they agree; returns the direct run.
fn assert_parity<'t>(case: &Case, direct_tape: &'t Tape) -> Result<MwemRun<Sampled<'t>>, PmwError> {
    let looped_tape = Tape::default();
    let direct = run(case, |b| b, direct_tape);
    let looped = run(
        case,
        |b| FaultyBackend::new(b, FaultPlan::default()),
        &looped_tape,
    );
    assert_eq!(
        *direct_tape.0.borrow(),
        *looped_tape.0.borrow(),
        "probe tapes"
    );
    match (&direct, &looped) {
        (Ok(d), Ok(l)) => {
            let bits = |a: &[f64]| a.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&d.answers), bits(&l.answers), "answers");
            assert_eq!(d.selected, l.selected, "selections");
            assert_eq!(d.backend_events, l.backend_events, "events");
            assert_eq!(
                record_bits(d.state.ledger().records()),
                record_bits(l.state.inner().ledger().records()),
                "ledger records"
            );
        }
        (Err(d), Err(l)) => assert_eq!(d, l, "errors"),
        _ => panic!(
            "one run failed: direct {:?}, looped {:?}",
            direct.as_ref().err(),
            looped.as_ref().err()
        ),
    }
    direct
}

#[test]
fn batched_estimates_match_the_per_query_loop_bit_for_bit() {
    // A pool reused for the whole run.
    let reused = Case {
        dim: 10,
        config: SampledConfig {
            budget: 64,
            ..SampledConfig::default()
        },
        rounds: 8,
        range: 1.0,
    };
    let tape = Tape::default();
    let run = assert_parity(&reused, &tape).unwrap();
    assert_eq!(run.state.resamples(), 0);
    let estimates = tape
        .0
        .borrow()
        .iter()
        .filter(|l| *l == "begin Estimate")
        .count();
    // The engine's span per round around k = 12 backend spans, plus the
    // k initial reads.
    assert_eq!(estimates, 8 + 12 * 9);

    // Redrawn every second round and folded every second round.
    let redrawn = Case {
        config: SampledConfig {
            resample_every: 2,
            compaction: CompactionPolicy::EveryK(2),
            ..reused.config
        },
        ..reused
    };
    let tape = Tape::default();
    let run = assert_parity(&redrawn, &tape).unwrap();
    assert_eq!(run.state.resamples(), 4);
    assert!(run.state.compactions() > 0);

    // A tight usable radius against steep steps (range 0.02 makes |coeff|
    // large): rounds 1 and 2 each take an emergency redraw and a doubling,
    // the second to the whole 64-point universe.
    let grown = Case {
        dim: 6,
        config: SampledConfig {
            budget: 16,
            max_usable_radius: 6.0,
            growth_cap: 64,
            ..SampledConfig::default()
        },
        rounds: 6,
        range: 0.02,
    };
    let tape = Tape::default();
    let run = assert_parity(&grown, &tape).unwrap();
    assert!(run.state.is_exhaustive());
    assert!(matches!(
        run.backend_events.as_slice(),
        [
            BackendEvent::EmergencyResample { round: 1, .. },
            BackendEvent::PoolGrowth { new_size: 32, .. },
            BackendEvent::EmergencyResample { round: 2, .. },
            BackendEvent::PoolGrowth { new_size: 64, .. },
        ]
    ));

    // Without growth the ladder runs out in round 1: the backend rolls
    // the round back and the run fails.
    let rolled_back = Case {
        config: SampledConfig {
            growth_cap: 0,
            ..grown.config
        },
        ..grown
    };
    let tape = Tape::default();
    let err = assert_parity(&rolled_back, &tape).err();
    assert!(matches!(err, Some(PmwError::Degraded(_))), "{err:?}");
    assert!(tape.0.borrow().contains(&"round 0 failed".to_string()));
}
