//! `mwem-marginals`: repeated Fast-MWEM releases through
//! `Mwem::run_with_source` over a 2^20-point `BigBitCube` that is never
//! materialized. Every round writes an MW update and then re-estimates all
//! k queries on the sketch, so the sketch's estimate path carries the
//! round; there is no convex solver, oracle or serving layer — the mirror
//! image of `online-glm`.
//!
//! Sweeps are pinned to one worker (`pmw_data::par::with_threads(1, …)`):
//! results are bit-for-bit identical at any worker count, and on a
//! multi-core machine every pool sweep otherwise pays a fresh thread scope
//! (see `perfbench/README.md`).

use crate::gen::{conjunction_share, product_rows, Gen};
use crate::speed::Speed;
use crate::{time_setups, Tally, Timed};
use pmw_core::Mwem;
use pmw_data::par::with_threads;
use pmw_data::{BigBitCube, Dataset, ImplicitQuery};
use pmw_obs::Probe;
use pmw_sketch::{CompactionPolicy, SampledBackend, SampledConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const BITS: usize = 20;
const ROWS: usize = 4000;
const QUERIES: usize = 64;
pub const ROUNDS: usize = 16;
const EPSILON: f64 = 2.0;
const POOL: usize = 2048;
const RESAMPLE_EVERY: usize = 8;
const COMPACT_EVERY: usize = 8;
/// Releases the error and update metrics cover: a fixed prefix of the
/// run, so they do not depend on how many releases a run's speed allowed.
const PREFIX_RELEASES: usize = 64;
/// Reference passes timed after each release.
const PASSES_PER_RELEASE: usize = 2;

pub struct Inputs {
    pub rows: Vec<usize>,
    pub dataset: Dataset,
    /// Width-2 marginals: query `i` pairs bit `i % 4` with a random bit
    /// from 4..20, so every seed asks 32 queries on the skewed bits.
    pub queries: Vec<ImplicitQuery>,
    pub truths: Vec<f64>,
}

pub fn inputs(seed: u64) -> Inputs {
    // Bits 0 and 1 are skewed; the other 18 are fair coins.
    let mut biases = [0.5; BITS];
    biases[0] = 0.9;
    biases[1] = 0.9;
    let rows = product_rows(&mut Gen::new(seed, 4), &biases, ROWS);
    let mut g = Gen::new(seed, 5);
    let mut pairs: Vec<Vec<usize>> = Vec::with_capacity(QUERIES);
    while pairs.len() < QUERIES {
        let pair = vec![pairs.len() % 4, 4 + g.below(BITS - 4)];
        if !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    let truths = pairs.iter().map(|p| conjunction_share(&rows, p)).collect();
    let queries = pairs
        .into_iter()
        .map(|p| ImplicitQuery::marginal(p, BITS).expect("coordinates lie in the cube"))
        .collect();
    let dataset = Dataset::from_indices(1 << BITS, rows.clone()).expect("rows index the cube");
    Inputs {
        rows,
        dataset,
        queries,
        truths,
    }
}

fn sampled_config() -> SampledConfig {
    SampledConfig {
        budget: POOL,
        resample_every: RESAMPLE_EVERY,
        compaction: CompactionPolicy::EveryK(COMPACT_EVERY),
        ..SampledConfig::default()
    }
}

/// Seconds per set-up — rows to dataset, a fresh sampled backend and the
/// `Mwem` runner — over spaced batches of 20 set-ups (one takes about 50 µs),
/// each with the host's slowdown next to it. Each set-up is dropped inside
/// its batch, so the allocator reuses its memory as a loop of releases does.
pub fn setup_s(inputs: &Inputs, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    time_setups(
        20,
        || inputs.rows.clone(),
        |rows| {
            let dataset = Dataset::from_indices(1 << BITS, rows).expect("rows index the cube");
            let source = BigBitCube::new(BITS).expect("20-bit cube");
            let backend =
                SampledBackend::new(source, sampled_config(), &mut rng).expect("sampled backend");
            std::hint::black_box((dataset, backend, Mwem::new(ROUNDS, 1.0).expect("mwem")));
        },
        drop,
    )
}

/// One release's outputs and the sketch's own counters.
pub struct Release {
    pub answers: Vec<f64>,
    pub selected: Vec<usize>,
    pub ns: u64,
    pub within_budget: bool,
    pub resamples: usize,
    pub compactions: usize,
    /// Σ and count of the claimed radii of the release's query estimates.
    pub radius: (f64, usize),
}

/// Release number `r` of seed `seed`: a fresh backend, then one timed
/// `run_with_source` call reporting through `probe`.
pub fn release<P: Probe>(inputs: &Inputs, seed: u64, r: u64, probe: &P) -> Release {
    let stream = seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let source = BigBitCube::new(BITS).expect("20-bit cube");
    let mut pool_rng = StdRng::seed_from_u64(stream ^ 0x0444);
    let backend = SampledBackend::with_probe(source, sampled_config(), probe, &mut pool_rng)
        .expect("sampled backend");
    let mwem = Mwem::new(ROUNDS, 1.0).expect("mwem");
    let mut rng = StdRng::seed_from_u64(stream ^ 0x0555);
    let t = Instant::now();
    let run = mwem
        .run_with_source_probed(
            &inputs.queries,
            &source,
            &inputs.dataset,
            EPSILON,
            backend,
            &mut rng,
            probe,
        )
        .expect("mwem release");
    let ns = t.elapsed().as_nanos() as u64;
    let within_budget = run
        .accountant
        .basic_total()
        .is_ok_and(|b| b.epsilon() <= EPSILON * (1.0 + 1e-9) && b.delta() == 0.0);
    let radius = {
        let ledger = run.state.ledger();
        ledger
            .records()
            .iter()
            .filter(|rec| rec.label == "query-mean")
            .fold((0.0, 0), |(s, n), rec| (s + rec.radius, n + 1))
    };
    Release {
        answers: run.answers,
        selected: run.selected,
        ns,
        within_budget,
        resamples: run.state.resamples(),
        compactions: run.state.compactions(),
        radius,
    }
}

/// Releases back to back for `seconds` on one sweep worker, after one
/// untimed warm-up release (the first release of a process is slower).
pub fn run<P: Probe>(inputs: &Inputs, seed: u64, seconds: f64, probe: &P) -> (Timed, Vec<Release>) {
    with_threads(1, || {
        release(inputs, seed, u64::MAX, &pmw_obs::NoopProbe);
        let mut releases = Vec::new();
        let mut locals = Vec::new();
        let mut done_ns = Vec::new();
        let mut speed = Speed::default();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            releases.push(release(inputs, seed, releases.len() as u64, probe));
            done_ns.push(start.elapsed().as_nanos() as u64);
            locals.push(speed.sample(PASSES_PER_RELEASE));
        }
        let wall_s = start.elapsed().as_secs_f64();
        let mut timed = Timed {
            wall_s,
            done_ns,
            speed,
            ..Timed::default()
        };
        let mut in_range = true;
        let mut within_budget = true;
        for (r, (rel, &local)) in releases.iter().zip(&locals).enumerate() {
            let n = rel.answers.len() as u64;
            timed.tally.add(&Tally {
                attempted: n,
                free: n - ROUNDS as u64,
                updates: ROUNDS as u64,
                ..Tally::default()
            });
            timed.latency.push((rel.ns, local));
            within_budget &= rel.within_budget;
            if r < PREFIX_RELEASES {
                timed.prefix_updates += ROUNDS as u64;
            }
            for (a, t) in rel.answers.iter().zip(&inputs.truths) {
                in_range &= a.is_finite() && (0.0..=1.0).contains(a);
                if r < PREFIX_RELEASES {
                    timed.errors.add((a - t).abs());
                }
            }
        }
        timed.answers = timed.tally.attempted;
        timed.checks = vec![
            (
                "mwem-marginals: every release's ledger within eps".into(),
                within_budget,
            ),
            ("mwem-marginals: answers inside [0, 1]".into(), in_range),
        ];
        (timed, releases)
    })
}
