//! E12 — the sublinear regime: MW state maintenance past the Θ(|X|) wall.
//!
//! The dense Figure-3 round pays `Θ(|X|)` in the certificate sweep, the
//! MW update and the weights read (measured per element by `exp_runtime`
//! into `BENCH_runtime.json`). This binary drives the
//! [`pmw_sketch::SampledBackend`] round pipeline —
//! record one update, estimate the certificate mean, estimate the max
//! payoff, draw synthetic samples — at universe sizes up to `2^26`, where
//! the dense path is unrunnable (a 2^26 histogram with its point matrix
//! is ~14 GB; `pmw-data` refuses to materialize past `2^24`).
//!
//! For every size it reports the measured per-round time against the
//! **dense extrapolation** `ns/element × |X|`, taking the per-element
//! figure from `BENCH_runtime.json` when present (certificate sweep +
//! update-with-read at the largest measured size) and from a
//! self-measured `2^14` dense reference otherwise. At `|X| = 2^16` — the
//! largest size where running both paths is cheap — it additionally runs
//! the identical update schedule through a dense backend and reports the
//! **sampled-vs-dense answer error** of every certificate estimate, next
//! to the concentration radius the sketch claimed: the accuracy/speed
//! trade-off, quantified.
//!
//! On top of the backend axis, a **mechanism axis** drives the complete
//! Figure-3 `answer` loop through `OnlinePmw::with_backend` over
//! `DataSide::from_source` (row-based data side over the dataset's support, `SampledBackend` state, no
//! universe materialization) at every size — the per-answer cost is flat
//! in `|X|`, which is the whole-mechanism sublinearity claim.
//!
//! A **long-horizon t-axis** complements the |X|-axis: the same sampled
//! round pipeline driven for t ∈ {50, 500, 5000} rounds (smoke: a smaller
//! pair) with periodic pool resamples, once under
//! [`CompactionPolicy::Never`] and once with checkpoints folded at the
//! resample cadence. The uncompacted replay re-walks the whole log — the
//! latent quadratic — so its per-round cost grows with t, while the
//! compacted column stays flat; the artifact's `per_round_ns_flat`
//! column, the median of [`FLAT_TRIALS`] trials per horizon, is
//! schema-gated to within 2× of its min-t row.
//!
//! Writes `BENCH_sublinear.json`. Pass `--smoke` for the seconds-long CI
//! variant (smaller sizes/budget, schema-complete artifact).
//!
//! A final **probed mirror run** of the mechanism axis (untimed, `2^20`
//! full / largest smoke size) replays the `answer` loop under a live
//! [`SummaryProbe`](pmw_obs::SummaryProbe) — backend pool sweeps
//! included — and lands its per-phase latency table in the artifact's
//! `"probe"` object; pass `--trace <path>` to additionally stream that run
//! as a JSONL trace (render it with the `run_report` binary).

use pmw_bench::schema::runtime_dense_ns_per_elem;
use pmw_bench::{header, mean_std, probed_run, row, write_artifact};
use pmw_core::update::dual_certificate;
use pmw_core::{DataSide, OnlinePmw, PmwConfig, PmwError, StateBackend};
use pmw_data::{BooleanCube, Dataset, Histogram, PointSource, Universe};
use pmw_erm::ExactOracle;
use pmw_losses::{CmLoss, LinearQueryLoss, PointPredicate};
use pmw_obs::{json_object, Json, NoopProbe, Probe};
use pmw_sketch::{BigBitCube, CompactionPolicy, RoundUpdate, SampledBackend, SampledConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The round-`t` workload: a rotating single-bit linear query with
/// drifting oracle/hypothesis minimizers — the same schedule for every
/// backend and size, so timings compare representations.
fn schedule(dim: usize, t: usize, rng: &mut StdRng) -> (LinearQueryLoss, [f64; 1], [f64; 1], f64) {
    let loss = LinearQueryLoss::new(
        PointPredicate::Conjunction {
            coords: vec![t % dim],
        },
        dim,
    )
    .unwrap();
    let t_o = [rng.random::<f64>()];
    let t_h = [rng.random::<f64>()];
    // Decaying MW step, as the Figure-3 schedule would use.
    let eta = 0.4 / ((t + 1) as f64).sqrt();
    (loss, t_o, t_h, eta)
}

/// The calibration columns collected at the size that also runs the dense
/// mirror: realized estimate error vs the radii the sketch claimed, plus
/// which concentration bound won each certificate.
struct Calibration {
    realized_err_mean: f64,
    realized_err_max: f64,
    claimed_radius_mean: f64,
    envelope_radius_mean: f64,
    wins_hoeffding: usize,
    wins_ess: usize,
    wins_bernstein: usize,
}

impl Calibration {
    /// Claimed-radius-to-realized-error ratio; 0 when the realized error
    /// is exactly 0 (a perfectly accurate run must not emit `inf` into
    /// the JSON artifact, where it would fail the number parse).
    fn ratio(&self) -> f64 {
        if self.realized_err_mean > 0.0 {
            self.claimed_radius_mean / self.realized_err_mean
        } else {
            0.0
        }
    }

    fn envelope_ratio(&self) -> f64 {
        if self.realized_err_mean > 0.0 {
            self.envelope_radius_mean / self.realized_err_mean
        } else {
            0.0
        }
    }
}

struct SizeReport {
    per_round_ns: f64,
    /// Sampled-vs-dense certificate-estimate calibration (sizes with a
    /// dense reference only).
    error_column: Option<Calibration>,
}

/// Run `rounds` sublinear rounds at `|X| = 2^log2_x`; when `with_dense`
/// is set, mirror the schedule through a dense histogram and collect the
/// answer-error column.
fn measure_sublinear(log2_x: usize, rounds: usize, budget: usize, with_dense: bool) -> SizeReport {
    let dim = log2_x;
    let source = BigBitCube::new(dim).expect("cube source");
    let mut rng = StdRng::seed_from_u64(1000 + log2_x as u64);
    let mut backend = SampledBackend::new(
        source,
        SampledConfig {
            budget,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .expect("sampled backend");

    let mut dense = if with_dense {
        let cube = BooleanCube::new(dim).expect("dense cube");
        Some((cube.materialize(), Histogram::uniform(1 << dim).unwrap()))
    } else {
        None
    };

    let mut schedule_rng = StdRng::seed_from_u64(77);
    let mut errors = Vec::new();
    let mut radii = Vec::new();
    let mut envelopes = Vec::new();
    let mut elapsed_ns = 0u128;
    for t in 0..rounds {
        let (loss, t_o, t_h, eta) = schedule(dim, t, &mut schedule_rng);
        let shared: Arc<dyn CmLoss> = Arc::new(loss.clone());

        // --- The timed sublinear round: record + reads. ---
        let start = Instant::now();
        backend
            .record(RoundUpdate::new(shared, t_o.to_vec(), t_h.to_vec(), eta).unwrap())
            .expect("record");
        let est = backend
            .certificate_mean(&loss, &t_o, &t_h)
            .expect("estimate");
        black_box(backend.max_payoff(&loss, &t_o, &t_h).expect("max"));
        for _ in 0..4 {
            black_box(backend.sample_index(&mut rng));
        }
        elapsed_ns += start.elapsed().as_nanos();

        // --- Untimed dense mirror for the error column. ---
        if let Some((points, hist)) = dense.as_mut() {
            let u = dual_certificate(&loss, points, &t_o, &t_h).expect("dense certificate");
            // Pre-update expectation, exactly what certificate_mean sketches.
            let exact: f64 = hist.weights().iter().zip(&u).map(|(w, v)| w * v).sum();
            errors.push((est.value - exact).abs());
            radii.push(est.radius);
            envelopes.push(est.envelope_radius);
            hist.mw_update(&u, eta).expect("dense update");
        }
    }

    // Per-bound win counts over the certificate estimates, from the
    // backend's own ledger.
    let ledger = backend.ledger();
    let cert_records: Vec<_> = ledger
        .records()
        .iter()
        .filter(|r| r.label == "certificate-mean")
        .collect();
    let wins =
        |bound: pmw_dp::RadiusBound| cert_records.iter().filter(|r| r.bound == bound).count();
    let error_column = if dense.is_some() {
        let (err_mean, _) = mean_std(&errors);
        let err_max = errors.iter().cloned().fold(0.0, f64::max);
        let (radius_mean, _) = mean_std(&radii);
        let (envelope_mean, _) = mean_std(&envelopes);
        Some(Calibration {
            realized_err_mean: err_mean,
            realized_err_max: err_max,
            claimed_radius_mean: radius_mean,
            envelope_radius_mean: envelope_mean,
            wins_hoeffding: wins(pmw_dp::RadiusBound::Hoeffding),
            wins_ess: wins(pmw_dp::RadiusBound::EffectiveSample),
            wins_bernstein: wins(pmw_dp::RadiusBound::Bernstein),
        })
    } else {
        None
    };
    drop(ledger);

    SizeReport {
        per_round_ns: elapsed_ns as f64 / rounds as f64,
        error_column,
    }
}

/// The full-mechanism axis: `OnlinePmw::answer` end to end at
/// `|X| = 2^log2_x` over `DataSide::from_source` — row-based data
/// side (n-row dataset, ≤ n support rows), `SampledBackend` state at the
/// given pool budget, `ExactOracle` as `A′` (so the measured cost is the
/// mechanism's, not a specific private oracle's). Rotating single-bit
/// queries with bit 0 skewed: the mix of free (⊥) and update (⊤) rounds
/// the mechanism actually serves. Returns the mean ns per answer and the
/// artifact's mechanism columns.
fn measure_mechanism<P: Probe>(
    log2_x: usize,
    queries: usize,
    budget: usize,
    n: usize,
    compaction: (usize, CompactionPolicy),
    probe: &P,
) -> (f64, Vec<(&'static str, Json)>) {
    let (resample_every, policy) = compaction;
    let dim = log2_x;
    let source = BigBitCube::new(dim).expect("cube source");
    let mut rng = StdRng::seed_from_u64(9000 + log2_x as u64);
    let rows: Vec<usize> = (0..n)
        .map(|_| {
            let mut x = rng.random_range(0..source.len());
            if rng.random::<f64>() < 0.9 {
                x |= 1;
            } else {
                x &= !1;
            }
            x
        })
        .collect();
    let dataset = Dataset::from_indices(source.len(), rows).expect("dataset");
    let backend = SampledBackend::with_probe(
        source,
        SampledConfig {
            budget,
            resample_every,
            compaction: policy,
            ..SampledConfig::default()
        },
        probe,
        &mut rng,
    )
    .expect("sampled backend");
    // α sits above the pool's claimed read radius (~0.12 at the full
    // budget of 2048): the SV margin is widened by that radius on
    // sketched state, and a smaller α could never certify a free ⊥ — the
    // bench would then measure only oracle rounds. (The smoke budget's
    // larger radius does push every round onto the oracle path; the smoke
    // artifact is schema coverage, not a headline figure.)
    let config = PmwConfig::builder(2.0, 1e-6, 0.15)
        .k(queries)
        .rounds_override((queries / 2).max(2))
        .scale(1.0)
        .solver_iters(80)
        .build()
        .expect("config");
    let mut mech = OnlinePmw::with_backend(
        config,
        DataSide::from_source(&source, &dataset).expect("support rows"),
        ExactOracle::default(),
        backend,
        &mut rng,
    )
    .expect("mechanism");
    assert!(
        mech.universe_points().is_none() && mech.data_histogram().is_none(),
        "point-source mechanism must not materialize |X|-sized structures"
    );
    let support = mech.data_points().len();

    let mut answers = 0usize;
    let mut elapsed_ns = 0u128;
    for q in 0..queries {
        let loss = LinearQueryLoss::new(
            PointPredicate::Conjunction {
                coords: vec![q % dim],
            },
            dim,
        )
        .expect("loss");
        let start = Instant::now();
        match mech.answer_with_probe(&loss, &mut rng, probe) {
            Ok(theta) => {
                black_box(theta);
                elapsed_ns += start.elapsed().as_nanos();
                answers += 1;
            }
            Err(PmwError::Halted) => break,
            Err(e) => panic!("mechanism answer failed: {e}"),
        }
    }
    let per_answer_ns = elapsed_ns as f64 / answers.max(1) as f64;
    let state = mech.state();
    let columns = vec![
        ("mechanism_per_answer_ns", per_answer_ns.into()),
        ("mechanism_answers", answers.into()),
        ("mechanism_updates", mech.updates_used().into()),
        ("mechanism_support_rows", support.into()),
        // Pool health from the backend's own monitor: the least ESS seen
        // (min_ess starts at +inf; with zero update rounds the pool is
        // untouched, so its full size is the honest, finite figure), and
        // how often the robustness machinery fired (adaptive resamples on
        // ESS collapse, escalations on unusable claimed radii).
        (
            "ess_min",
            state.min_ess().min(state.pool_size() as f64).into(),
        ),
        ("adaptive_resamples", state.adaptive_resamples().into()),
        ("escalations", state.escalations().into()),
    ];
    (per_answer_ns, columns)
}

/// One long-horizon measurement: per-round cost and end-of-run log shape
/// after `t` rounds under one compaction policy.
struct HorizonRun {
    per_round_ns: f64,
    compactions: usize,
    checkpoints: usize,
    retained_rounds: usize,
    replay_depth: usize,
}

/// Drive `t` rounds of the full transactional round — record, periodic
/// pool resample, policy-driven compaction — through the [`StateBackend`]
/// seam and report the amortized per-round cost. The resample replays the
/// update log per candidate, so with [`CompactionPolicy::Never`] each
/// refresh re-walks every round since the start (Θ(t²) total — the latent
/// quadratic), while a policy folding at the resample cadence keeps the
/// replay depth, and hence the per-round cost, flat in `t`.
fn measure_long_horizon(
    log2_x: usize,
    t: usize,
    budget: usize,
    resample_every: usize,
    policy: CompactionPolicy,
) -> HorizonRun {
    let dim = log2_x;
    let source = BigBitCube::new(dim).expect("cube source");
    // The point matrix feeds only the optional diagnostics gap (unused
    // here); |X| stays small on this axis — the horizon is t, not |X|.
    let points = BooleanCube::new(dim).expect("dense cube").materialize();
    let mut rng = StdRng::seed_from_u64(4200 + t as u64);
    let mut backend = SampledBackend::new(
        source,
        SampledConfig {
            budget,
            resample_every,
            compaction: policy,
            ..SampledConfig::default()
        },
        &mut rng,
    )
    .expect("sampled backend");
    let mut schedule_rng = StdRng::seed_from_u64(77);
    let start = Instant::now();
    for round in 0..t {
        let (loss, t_o, t_h, eta) = schedule(dim, round, &mut schedule_rng);
        let shared: Arc<dyn CmLoss> = Arc::new(loss.clone());
        backend
            .apply_update(
                &loss,
                Some(shared),
                &points,
                &t_o,
                &t_h,
                eta,
                None,
                &mut rng,
            )
            .expect("round");
        black_box(backend.sample_index(&mut rng));
    }
    let per_round_ns = start.elapsed().as_nanos() as f64 / t as f64;
    HorizonRun {
        per_round_ns,
        compactions: backend.compactions(),
        checkpoints: backend.log().checkpoints_taken(),
        retained_rounds: backend.log().retained_len(),
        replay_depth: backend.last_replay_depth(),
    }
}

/// Trials per horizon of the compacted column, which reports their median.
/// It is the gated one: timed once, a smoke horizon (about 11 µs per round
/// over t = 20 and 100 rounds) read up to 6.8× its t = 20 row on a shared
/// 2-vCPU host and failed the 2× flatness gate. The uncompacted column is
/// context, ungated, and stays one trial.
const FLAT_TRIALS: usize = 5;

/// Dense per-element round cost (certificate sweep + update + read): from
/// `BENCH_runtime.json`'s largest size when the file exists, else
/// self-measured at `2^14`. A runtime artifact that cannot be read is an
/// error, not a reason to measure.
fn dense_ns_per_elem(rounds: usize) -> (f64, &'static str) {
    match std::fs::read_to_string("BENCH_runtime.json") {
        Ok(text) => match runtime_dense_ns_per_elem(&text) {
            Ok(ns) => return (ns, "BENCH_runtime.json"),
            Err(e) => panic!("BENCH_runtime.json: {e}"),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("BENCH_runtime.json: {e}"),
    }
    // Self-measured fallback: one dense round at 2^14.
    let dim = 14usize;
    let cube = BooleanCube::new(dim).unwrap();
    let points = cube.materialize();
    let mut hist = Histogram::uniform(1 << dim).unwrap();
    let mut schedule_rng = StdRng::seed_from_u64(77);
    let start = Instant::now();
    for t in 0..rounds {
        let (loss, t_o, t_h, eta) = schedule(dim, t, &mut schedule_rng);
        let u = dual_certificate(&loss, &points, &t_o, &t_h).unwrap();
        hist.mw_update(&u, eta).unwrap();
        black_box(hist.weights());
    }
    (
        start.elapsed().as_nanos() as f64 / rounds as f64 / (1 << dim) as f64,
        "self-measured",
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, rounds, budget): (&[usize], usize, usize) = if smoke {
        (&[12, 14], 8, 256)
    } else {
        (&[16, 20, 24, 26], 50, 2048)
    };
    let (mech_queries, mech_n) = if smoke { (6, 400) } else { (24, 2000) };
    let parallel = cfg!(feature = "parallel");
    let (dense_ref, dense_ref_source) = dense_ns_per_elem(rounds.min(12));
    println!(
        "# E12: sublinear state maintenance (budget={budget}, rounds={rounds}, \
         dense reference {dense_ref:.3} ns/elem from {dense_ref_source})"
    );
    println!("# mechanism axis: full OnlinePmw::answer via DataSide::from_source (n={mech_n}, k={mech_queries}, ExactOracle)");
    header(&[
        "log2_X",
        "per_round_us",
        "dense_extrapolated_round_us",
        "speedup_vs_dense",
        "mech_per_answer_us",
        "answer_err_mean",
        "answer_err_max",
        "claimed_radius_mean",
    ]);

    // The error column runs the dense mirror too, so it is collected at
    // the largest size both paths can afford (2^16 full, 2^12 smoke).
    let error_size = if smoke { 12 } else { 16 };
    let mut size_rows = Vec::new();
    let mut calibration = None;
    for &log2_x in sizes {
        let r = measure_sublinear(log2_x, rounds, budget, log2_x == error_size);
        let (per_answer_ns, mechanism_columns) = measure_mechanism(
            log2_x,
            mech_queries,
            budget,
            mech_n,
            (0, CompactionPolicy::Never),
            &NoopProbe,
        );
        let universe = (1u128 << log2_x) as f64;
        let extrapolated = dense_ref * universe;
        let speedup = extrapolated / r.per_round_ns;
        let (em, ex, rm) = r
            .error_column
            .as_ref()
            .map(|c| {
                (
                    c.realized_err_mean,
                    c.realized_err_max,
                    c.claimed_radius_mean,
                )
            })
            .unwrap_or((-1.0, -1.0, -1.0));
        row(
            &format!("{log2_x}"),
            &[
                r.per_round_ns / 1e3,
                extrapolated / 1e3,
                speedup,
                per_answer_ns / 1e3,
                em,
                ex,
                rm,
            ],
        );
        let mut size_row = vec![
            ("log2_x", log2_x.into()),
            ("universe", (1u64 << log2_x).into()),
            ("point_dim", log2_x.into()),
            ("per_round_ns", r.per_round_ns.into()),
            ("dense_ns_per_elem_ref", dense_ref.into()),
            ("dense_extrapolated_round_ns", extrapolated.into()),
            ("speedup_vs_dense_extrapolation", speedup.into()),
        ];
        size_row.extend(mechanism_columns);
        if let Some(cal) = &r.error_column {
            size_row.extend([
                ("answer_error_mean", cal.realized_err_mean.into()),
                ("answer_error_max", cal.realized_err_max.into()),
                ("claimed_radius_mean", cal.claimed_radius_mean.into()),
                ("realized_err_mean", cal.realized_err_mean.into()),
                ("envelope_radius_mean", cal.envelope_radius_mean.into()),
                ("calibration_ratio", cal.ratio().into()),
                ("radius_wins_hoeffding", cal.wins_hoeffding.into()),
                ("radius_wins_ess", cal.wins_ess.into()),
                ("radius_wins_bernstein", cal.wins_bernstein.into()),
            ]);
        }
        size_rows.push(Json::object(size_row));
        calibration = calibration.or(r.error_column);
    }
    println!("# per-round time is flat in |X|: the sketch never touches the other 2^d - m points");
    println!("# mechanism per-answer time is flat too: the data side sweeps only the dataset's support rows");
    if let Some(cal) = calibration {
        println!(
            "# calibration at 2^{error_size}: claimed radius {:.4} over realized err {:.4} = {:.0}x \
             (envelope bound alone: {:.3} = {:.0}x); bound wins ess={} bernstein={} hoeffding={}",
            cal.claimed_radius_mean,
            cal.realized_err_mean,
            cal.ratio(),
            cal.envelope_radius_mean,
            cal.envelope_ratio(),
            cal.wins_ess,
            cal.wins_bernstein,
            cal.wins_hoeffding,
        );
    }

    let machine_threads = std::thread::available_parallelism().map_or(1, usize::from);

    // Long-horizon t-axis: the same pooled round driven t rounds deep,
    // uncompacted vs checkpoint-folded at the resample cadence. The
    // compacted column is the headline (schema-gated flat in t); the
    // uncompacted column shows the quadratic it retires.
    let (t_axis, h_log2_x, h_budget, h_resample): (&[usize], usize, usize, usize) = if smoke {
        (&[20, 100], 10, 64, 4)
    } else {
        (&[50, 500, 5000], 14, 256, 16)
    };
    println!(
        "# long-horizon axis (log2_x={h_log2_x}, budget={h_budget}, resample every \
         {h_resample} rounds, fold cadence EveryK({h_resample}); flat column: median of \
         {FLAT_TRIALS} trials)"
    );
    header(&[
        "t",
        "flat_per_round_us",
        "uncompacted_per_round_us",
        "folds",
        "replay_flat",
        "replay_uncompacted",
    ]);
    let mut horizon_rows = Vec::new();
    let fold = CompactionPolicy::EveryK(h_resample);
    for &t in t_axis {
        // The trials are seeded alike, so they differ only in their timings;
        // the median one stands for the horizon.
        let mut flats: Vec<HorizonRun> = (0..FLAT_TRIALS)
            .map(|_| measure_long_horizon(h_log2_x, t, h_budget, h_resample, fold))
            .collect();
        flats.sort_by(|a, b| a.per_round_ns.total_cmp(&b.per_round_ns));
        let flat = &flats[FLAT_TRIALS / 2];
        let full = measure_long_horizon(h_log2_x, t, h_budget, h_resample, CompactionPolicy::Never);
        row(
            &format!("{t}"),
            &[
                flat.per_round_ns / 1e3,
                full.per_round_ns / 1e3,
                flat.compactions as f64,
                flat.replay_depth as f64,
                full.replay_depth as f64,
            ],
        );
        horizon_rows.push(json_object! {
            "t": t,
            "per_round_ns_flat": flat.per_round_ns,
            "per_round_ns_uncompacted": full.per_round_ns,
            "compactions": flat.compactions,
            "checkpoints": flat.checkpoints,
            "retained_rounds": flat.retained_rounds,
            "replay_depth_flat": flat.replay_depth,
            "replay_depth_uncompacted": full.replay_depth,
        });
    }
    println!("# compacted per-round cost is flat in t; the uncompacted replay grows with the log");

    // Probed mirror of the mechanism axis (untimed): per-phase latency for
    // the artifact, plus a JSONL trace when `--trace <path>` is given.
    // 2^20 in the full run — the headline sketch-backed size — and the
    // largest smoke size otherwise. Every timed loop above ran `NoopProbe`.
    let trace_size = if smoke { *sizes.last().unwrap() } else { 20 };
    // The mirror runs with compaction live so the trace — and the
    // run_report compaction section it feeds — shows checkpoint folds and
    // replay depths from a real serving loop. The cadence is deliberately
    // tight (fold after every update, resample every other one): even the
    // smoke mirror's handful of update rounds must light the section up.
    let mirror_compaction = (2, CompactionPolicy::EveryK(1));
    let detail = format!(
        "exp_sublinear mechanism axis log2_x={trace_size} budget={budget} \
         k={mech_queries} n={mech_n}"
    );
    let probe = probed_run!("online_pmw", &detail, |probe| {
        measure_mechanism(
            trace_size,
            mech_queries,
            budget,
            mech_n,
            mirror_compaction,
            probe,
        )
    });

    let artifact = json_object! {
        "experiment": "sublinear_scaling",
        "budget": budget,
        "rounds": rounds,
        "beta": 1e-6,
        "parallel": parallel,
        "machine_threads": machine_threads,
        "smoke": smoke,
        "mechanism_n": mech_n,
        "mechanism_queries": mech_queries,
        "dense_ref_source": dense_ref_source,
        "sizes": Json::Array(size_rows),
        "t_axis": Json::Array(t_axis.iter().map(|&t| t.into()).collect()),
        "long_horizon": Json::Array(horizon_rows),
        "probe": probe,
    };
    write_artifact("BENCH_sublinear.json", &artifact);
}
