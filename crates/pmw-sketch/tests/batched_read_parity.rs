//! `Mwem` reads its k estimates per round through the batched
//! `StateBackend::expected_query_values`. `SampledBackend` overrides it to
//! sum each query over its non-zero pool slots, tabulated once per pool
//! support through `PointQuery::values_at_rows`; the trait's default is
//! the per-query loop, whose slot-order pass evaluates one slot at a time.
//! These runs pin the two to the same bits: every run goes once straight
//! onto a `SampledBackend`, once through an empty-plan `FaultyBackend`
//! (which forwards the batched read), and once through `PerQuery`, which
//! forwards every method except the batched read and so takes the default
//! loop. Answers, selections, backend events, ledger records and every
//! probe call (spans, radius gauges, bound notes, round outcomes) must
//! match, across pool redraws, compaction folds, pool growth to exhaustive
//! and a round the backend rolls back, on a query type that takes the
//! trait's default batch and on `ImplicitQuery`, which overrides it.

use pmw_core::{BackendEvent, Mwem, MwemRun, PmwError, QueryEstimate, ReadSnapshot, StateBackend};
use pmw_data::{
    BigBitCube, Dataset, Histogram, ImplicitQuery, PointMatrix, PointQuery, PointSource,
};
use pmw_dp::SamplingRecord;
use pmw_losses::CmLoss;
use pmw_obs::{Counter, Gauge, Phase, Probe};
use pmw_sketch::{CompactionPolicy, FaultPlan, FaultyBackend, SampledBackend, SampledConfig};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::cell::RefCell;
use std::sync::Arc;

/// Forwards every `StateBackend` method to the wrapped backend except the
/// batched read, which it leaves to the trait's per-query default.
struct PerQuery<B>(B);

impl<B: StateBackend> StateBackend for PerQuery<B> {
    fn universe_size(&self) -> usize {
        self.0.universe_size()
    }

    fn updates_recorded(&self) -> usize {
        self.0.updates_recorded()
    }

    fn hypothesis_minimizer(
        &self,
        loss: &dyn CmLoss,
        points: &PointMatrix,
        solver_iters: usize,
        rng: &mut dyn Rng,
    ) -> Result<Vec<f64>, PmwError> {
        self.0.hypothesis_minimizer(loss, points, solver_iters, rng)
    }

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
        self.0.apply_update(
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
        self.0.sample_indices(m, rng)
    }

    fn expected_query_value(
        &self,
        query: &dyn PointQuery,
        points: Option<&PointMatrix>,
        rng: &mut dyn Rng,
    ) -> Result<QueryEstimate, PmwError> {
        self.0.expected_query_value(query, points, rng)
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
        self.0
            .apply_query_update(query, retained, coeff, eta, points, rng)
    }

    fn dense_hypothesis(&self) -> Option<&Histogram> {
        self.0.dense_hypothesis()
    }

    fn read_radius(&self, scale: f64) -> f64 {
        self.0.read_radius(scale)
    }

    fn requires_shared_loss(&self) -> bool {
        self.0.requires_shared_loss()
    }

    fn take_events(&mut self) -> Vec<BackendEvent> {
        self.0.take_events()
    }

    fn requires_materialized_universe(&self) -> bool {
        self.0.requires_materialized_universe()
    }

    fn snapshot(&self) -> Result<Arc<dyn ReadSnapshot>, PmwError> {
        self.0.snapshot()
    }
}

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

/// Marginals of widths 1 to 3, parities and thresholds, as `ImplicitQuery`.
fn implicit_queries(dim: usize) -> Vec<ImplicitQuery> {
    let mut rng = StdRng::seed_from_u64(37);
    let mut coords = |width: usize| -> Vec<usize> {
        let mut coords: Vec<usize> = (0..width).map(|_| rng.random_range(0..dim)).collect();
        coords.sort_unstable();
        coords.dedup();
        coords
    };
    let mut queries = Vec::new();
    for width in [1, 2, 3, 1, 2, 3] {
        queries.push(ImplicitQuery::marginal(coords(width), dim).unwrap());
    }
    for width in [1, 2, 3] {
        queries.push(ImplicitQuery::parity(coords(width), dim).unwrap());
    }
    for coord in [0, dim / 2, dim - 1] {
        queries.push(ImplicitQuery::threshold(coord, 0.5, dim).unwrap());
    }
    queries
}

fn dataset(source: &BigBitCube) -> Dataset {
    let mut rng = StdRng::seed_from_u64(19);
    let rows = (0..600)
        .map(|_| rng.random_range(0..source.len()) | 1)
        .collect();
    Dataset::from_indices(source.len(), rows).unwrap()
}

/// One run of `case` over `queries`, on the backend `wrap` makes of a
/// fresh sampled backend; returns the run (or its error) and the probe
/// tape.
fn run<'t, Q: PointQuery, B: StateBackend>(
    case: &Case,
    queries: &[Q],
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
            queries,
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

/// Checks that `other` ran as `direct` did: the same probe tape, answers,
/// selections, events and ledger records, or the same error.
fn assert_same<'t, B: StateBackend>(
    direct: &Result<MwemRun<Sampled<'t>>, PmwError>,
    direct_tape: &Tape,
    other: &Result<MwemRun<B>, PmwError>,
    other_tape: &Tape,
    inner: impl Fn(&B) -> &Sampled<'t>,
    name: &str,
) {
    assert_eq!(
        *direct_tape.0.borrow(),
        *other_tape.0.borrow(),
        "{name}: probe tapes"
    );
    match (direct, other) {
        (Ok(d), Ok(o)) => {
            let bits = |a: &[f64]| a.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&d.answers), bits(&o.answers), "{name}: answers");
            assert_eq!(d.selected, o.selected, "{name}: selections");
            assert_eq!(d.backend_events, o.backend_events, "{name}: events");
            assert_eq!(
                record_bits(d.state.ledger().records()),
                record_bits(inner(&o.state).ledger().records()),
                "{name}: ledger records"
            );
        }
        (Err(d), Err(o)) => assert_eq!(d, o, "{name}: errors"),
        _ => panic!(
            "{name}: one run failed: direct {:?}, other {:?}",
            direct.as_ref().err(),
            other.as_ref().err()
        ),
    }
}

/// Runs `case` over `queries` straight, through an empty-plan
/// `FaultyBackend` and through `PerQuery`, and checks all three agree;
/// returns the direct run.
fn assert_parity<'t, Q: PointQuery>(
    case: &Case,
    queries: &[Q],
    direct_tape: &'t Tape,
) -> Result<MwemRun<Sampled<'t>>, PmwError> {
    let direct = run(case, queries, |b| b, direct_tape);
    let faulty_tape = Tape::default();
    let faulty = run(
        case,
        queries,
        |b| FaultyBackend::new(b, FaultPlan::default()),
        &faulty_tape,
    );
    assert_same(
        &direct,
        direct_tape,
        &faulty,
        &faulty_tape,
        FaultyBackend::inner,
        "empty fault plan",
    );
    let looped_tape = Tape::default();
    let looped = run(case, queries, PerQuery, &looped_tape);
    assert_same(
        &direct,
        direct_tape,
        &looped,
        &looped_tape,
        |b| &b.0,
        "per-query loop",
    );
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
    let run = assert_parity(&reused, &queries(reused.dim), &tape).unwrap();
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
    let run = assert_parity(&redrawn, &queries(redrawn.dim), &tape).unwrap();
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
    let run = assert_parity(&grown, &queries(grown.dim), &tape).unwrap();
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
    let err = assert_parity(&rolled_back, &queries(rolled_back.dim), &tape).err();
    assert!(matches!(err, Some(PmwError::Degraded(_))), "{err:?}");
    assert!(tape.0.borrow().contains(&"round 0 failed".to_string()));
}

#[test]
fn implicit_query_tabulation_matches_the_per_query_loop_bit_for_bit() {
    // `ImplicitQuery` overrides the batch; the per-query loop reads it one
    // slot at a time. A reused pool, then one redrawn and folded every
    // second round, then one grown to the whole universe.
    let reused = Case {
        dim: 10,
        config: SampledConfig {
            budget: 64,
            ..SampledConfig::default()
        },
        rounds: 8,
        range: 1.0,
    };
    let redrawn = Case {
        config: SampledConfig {
            resample_every: 2,
            compaction: CompactionPolicy::EveryK(2),
            ..reused.config
        },
        ..reused
    };
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
    for case in [&reused, &redrawn, &grown] {
        let queries = implicit_queries(case.dim);
        assert_eq!(queries.len(), 12);
        let tape = Tape::default();
        let run = assert_parity(case, &queries, &tape).unwrap();
        assert!(run.answers.iter().all(|a| a.is_finite()));
    }
}
