//! Minimal validation of the machine-readable bench artifacts.
//!
//! The workspace is offline (no serde); the experiment binaries hand-roll
//! their JSON and this module hand-rolls just enough parsing to check it:
//! key presence and the numeric sanity of every performance figure
//! (finite, positive). The CI bench-smoke job runs these checks through
//! the `bench_schema_check` binary after regenerating both artifacts.

/// Every number appearing as `"key": <number>` in `json`, in order.
/// Numbers are parsed as Rust `f64` literals (integer, decimal, scientific,
/// `inf`/`NaN` never appear in valid artifacts and simply fail the parse).
pub fn extract_numbers(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let trimmed = rest.trim_start();
        let end = trimmed
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(trimmed.len());
        if let Ok(v) = trimmed[..end].parse::<f64>() {
            out.push(v);
        }
    }
    out
}

/// True when `"key":` appears anywhere in the document.
pub fn has_key(json: &str, key: &str) -> bool {
    json.contains(&format!("\"{key}\":"))
}

fn require_positive(json: &str, key: &str) -> Result<(), String> {
    let values = extract_numbers(json, key);
    if values.is_empty() {
        return Err(format!("missing numeric key \"{key}\""));
    }
    for v in values {
        if !v.is_finite() || v <= 0.0 {
            return Err(format!(
                "key \"{key}\" has non-finite/non-positive value {v}"
            ));
        }
    }
    Ok(())
}

fn require_non_negative(json: &str, key: &str) -> Result<(), String> {
    let values = extract_numbers(json, key);
    if values.is_empty() {
        return Err(format!("missing numeric key \"{key}\""));
    }
    for v in values {
        if !v.is_finite() || v < 0.0 {
            return Err(format!("key \"{key}\" has non-finite/negative value {v}"));
        }
    }
    Ok(())
}

/// Validate the thread axis of the runtime artifact: a `"threads_axis"`
/// array listing the serial baseline plus at least one multi-worker count,
/// with a per-thread-count row (`"threads": <t>`) for each listed count.
/// The rows are measured in-process with the worker count forced, so the
/// axis exists even on single-core runners.
fn require_thread_axis(json: &str) -> Result<(), String> {
    let pos = json
        .find("\"threads_axis\":")
        .ok_or("missing \"threads_axis\"")?;
    let rest = &json[pos..];
    let open = rest.find('[').ok_or("\"threads_axis\" is not an array")?;
    let close = rest[open..]
        .find(']')
        .ok_or("unterminated \"threads_axis\"")?
        + open;
    let counts: Vec<u64> = rest[open + 1..close]
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    if counts.len() < 2 || !counts.contains(&1) {
        return Err(
            "threads_axis must list the serial baseline (1) and at least one \
             multi-worker count"
                .into(),
        );
    }
    for t in &counts {
        if !json.contains(&format!("\"threads\": {t}")) {
            return Err(format!("no per-thread-count row for threads={t}"));
        }
    }
    Ok(())
}

/// The least `speedup_vs_1thread` a full parallel runtime artifact may
/// report at a worker count the machine has cores for. Below it the
/// chunked certificate sweep loses to the serial one.
pub const THREAD_SPEEDUP_FLOOR: f64 = 0.95;

/// Gate the runtime artifact's thread axis on
/// [`THREAD_SPEEDUP_FLOOR`]. Only artifacts written with
/// `"smoke": false` and `"parallel": true` are gated: smoke runs time too
/// little work to tell, and sequential builds have nothing to scale.
/// Rows with more workers than `machine_threads` measure oversubscription,
/// not scaling, and pass.
fn require_thread_speedup(json: &str) -> Result<(), String> {
    if !json.contains("\"smoke\": false") || !json.contains("\"parallel\": true") {
        return Ok(());
    }
    let machine = *extract_numbers(json, "machine_threads")
        .first()
        .ok_or("missing numeric key \"machine_threads\"")?;
    let threads = extract_numbers(json, "threads");
    let speedups = extract_numbers(json, "speedup_vs_1thread");
    if threads.len() != speedups.len() {
        return Err("every thread_scaling row needs a speedup_vs_1thread".into());
    }
    for (t, speedup) in threads.iter().zip(&speedups) {
        if *t <= machine && *speedup < THREAD_SPEEDUP_FLOOR {
            return Err(format!(
                "thread_scaling: {t} workers on {machine} machine threads run at \
                 {speedup:.2}x the serial sweep (floor {THREAD_SPEEDUP_FLOOR}x)"
            ));
        }
    }
    Ok(())
}

/// The growth a sublinear artifact's compacted long-horizon column may
/// show before the schema check fails: the per-round cost at the largest
/// horizon must stay within this factor of the smallest-horizon row.
/// Uncompacted replay grows linearly in the round count (the t=5000 row
/// was measured ~40× its t=50 row); the checkpointed replay is amortized
/// O(1), so a regression that re-introduces the quadratic fails CI
/// loudly while honest timing jitter passes.
pub const LONG_HORIZON_FLATNESS_CEILING: f64 = 2.0;

/// Validate the long-horizon axis of a sublinear artifact: a `"t_axis"`
/// array of at least two increasing round horizons, one `"t"` row per
/// listed horizon carrying both per-round columns and the end-of-run log
/// shape, and the compacted column flat in t (within
/// [`LONG_HORIZON_FLATNESS_CEILING`] of its min-t row).
fn require_t_axis(json: &str) -> Result<(), String> {
    let pos = json.find("\"t_axis\":").ok_or("missing \"t_axis\"")?;
    let rest = &json[pos..];
    let open = rest.find('[').ok_or("\"t_axis\" is not an array")?;
    let close = rest[open..].find(']').ok_or("unterminated \"t_axis\"")? + open;
    let horizons: Vec<u64> = rest[open + 1..close]
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    if horizons.len() < 2 || horizons.windows(2).any(|w| w[0] >= w[1]) {
        return Err("t_axis must list at least two increasing round horizons".into());
    }
    for t in &horizons {
        if !json.contains(&format!("\"t\": {t}")) {
            return Err(format!("no long-horizon row for t={t}"));
        }
    }
    for key in ["per_round_ns_flat", "per_round_ns_uncompacted"] {
        require_positive(json, key)?;
    }
    for key in [
        "compactions",
        "checkpoints",
        "retained_rounds",
        "replay_depth_flat",
        "replay_depth_uncompacted",
    ] {
        require_non_negative(json, key)?;
    }
    let flat = extract_numbers(json, "per_round_ns_flat");
    if flat.len() != horizons.len() {
        return Err("per_round_ns_flat row count differs from t_axis length".into());
    }
    let (first, last) = (flat[0], flat[flat.len() - 1]);
    if last > LONG_HORIZON_FLATNESS_CEILING * first {
        return Err(format!(
            "per_round_ns_flat is not flat in t: {last:.0} ns at t={} vs {first:.0} ns at t={} \
             (ceiling {LONG_HORIZON_FLATNESS_CEILING}x)",
            horizons[horizons.len() - 1],
            horizons[0]
        ));
    }
    Ok(())
}

/// Validate the `"probe"` object every `BENCH_*.json` artifact carries:
/// the probed mirror run must have completed rounds and report per-phase
/// latency percentiles.
fn require_probe_columns(json: &str) -> Result<(), String> {
    if !has_key(json, "phases") {
        return Err("missing probed-run \"phases\" table".into());
    }
    require_positive(json, "probed_rounds")?;
    for key in ["total_ns", "p50_ns", "p99_ns", "max_ns"] {
        require_non_negative(json, key)?;
    }
    require_positive(json, "count")
}

/// Validate `BENCH_runtime.json`: the Θ(|X|) kernel record plus the
/// backend axis. Checks key presence, that every ns figure is finite
/// and positive, and that the thread axis scales
/// ([`THREAD_SPEEDUP_FLOOR`]).
pub fn validate_bench_runtime(json: &str) -> Result<(), String> {
    if !has_key(json, "experiment") || !json.contains("runtime_scaling") {
        return Err("not a runtime_scaling artifact".into());
    }
    for key in [
        "log2_x",
        "mw_update_ns_per_elem",
        "mw_update_with_read_ns_per_elem",
        "mw_update_reference_ns_per_elem",
        "certificate_ns_per_elem",
        "end_to_end_round_ns_per_elem",
        "round_ns",
        "point_read_ns",
    ] {
        require_positive(json, key)?;
    }
    for backend in ["dense", "lazy", "sampled"] {
        if !json.contains(&format!("\"backend\": \"{backend}\"")) {
            return Err(format!("backend axis is missing \"{backend}\""));
        }
    }
    require_thread_axis(json)?;
    require_thread_speedup(json)?;
    require_probe_columns(json)
}

/// The largest claimed-radius-to-realized-error ratio a sublinear
/// artifact may report before the schema check fails. The drift-envelope
/// bound alone was measured ~600× above the realized error at 2^16; the
/// variance-adaptive certificates sit well under this ceiling, so a
/// regression back toward envelope-only radii fails CI loudly.
pub const CALIBRATION_RATIO_CEILING: f64 = 100.0;

/// Validate `BENCH_sublinear.json`: the sublinear-scaling record. Checks
/// per-round figures, the dense-extrapolation speedup, the
/// sampled-vs-dense answer-error column, the calibration columns (with
/// the [`CALIBRATION_RATIO_CEILING`] sanity ceiling), the
/// full-mechanism axis (per-answer cost of the point-source
/// `OnlinePmw::answer` loop), and the long-horizon axis (compacted
/// per-round cost flat in the round count, within
/// [`LONG_HORIZON_FLATNESS_CEILING`] of the min-t row).
pub fn validate_bench_sublinear(json: &str) -> Result<(), String> {
    if !has_key(json, "experiment") || !json.contains("sublinear_scaling") {
        return Err("not a sublinear_scaling artifact".into());
    }
    for key in ["budget", "rounds", "log2_x", "universe"] {
        require_positive(json, key)?;
    }
    for key in [
        "per_round_ns",
        "dense_ns_per_elem_ref",
        "dense_extrapolated_round_ns",
        "speedup_vs_dense_extrapolation",
    ] {
        require_positive(json, key)?;
    }
    // The mechanism axis: every size must carry the end-to-end answer
    // cost plus its workload descriptors.
    for key in [
        "mechanism_n",
        "mechanism_queries",
        "mechanism_per_answer_ns",
        "mechanism_answers",
        "mechanism_support_rows",
    ] {
        require_positive(json, key)?;
    }
    require_non_negative(json, "mechanism_updates")?;
    // The pool-health columns: every size must report the minimum ESS the
    // backend observed and how often the robustness machinery fired.
    for key in ["ess_min", "adaptive_resamples", "escalations"] {
        require_non_negative(json, key)?;
    }
    for key in [
        "answer_error_mean",
        "answer_error_max",
        "claimed_radius_mean",
        "realized_err_mean",
        "envelope_radius_mean",
        "calibration_ratio",
        "radius_wins_hoeffding",
        "radius_wins_ess",
        "radius_wins_bernstein",
    ] {
        require_non_negative(json, key)?;
    }
    // Certificate honesty: the claimed radii must stay within the sanity
    // ceiling of the realized error, and must never exceed the envelope
    // bound they replaced.
    let claimed = extract_numbers(json, "claimed_radius_mean");
    let realized = extract_numbers(json, "realized_err_mean");
    let envelopes = extract_numbers(json, "envelope_radius_mean");
    for ((c, r), e) in claimed.iter().zip(&realized).zip(&envelopes) {
        if *r > 0.0 && c / r > CALIBRATION_RATIO_CEILING {
            return Err(format!(
                "claimed radius {c} is {:.0}x the realized error {r} \
                 (ceiling {CALIBRATION_RATIO_CEILING})",
                c / r
            ));
        }
        if c > e {
            return Err(format!(
                "claimed radius {c} exceeds the drift-envelope bound {e}"
            ));
        }
    }
    for ratio in extract_numbers(json, "calibration_ratio") {
        if ratio > CALIBRATION_RATIO_CEILING {
            return Err(format!(
                "calibration_ratio {ratio} exceeds ceiling {CALIBRATION_RATIO_CEILING}"
            ));
        }
    }
    require_t_axis(json)?;
    require_probe_columns(json)
}

/// Validate `BENCH_mwem.json`: the Fast-MWEM scaling record. Checks the
/// sampled per-round figures and dense extrapolation at every size, and
/// the shared-size answer-error columns (vs dense, vs truth, and the
/// pool-refresh variant).
pub fn validate_bench_mwem(json: &str) -> Result<(), String> {
    if !has_key(json, "experiment") || !json.contains("mwem_scaling") {
        return Err("not a mwem_scaling artifact".into());
    }
    for key in [
        "rounds",
        "queries",
        "budget",
        "mwem_n",
        "epsilon",
        "log2_x",
        "universe",
        "dense_ns_per_elem_ref",
        "sampled_per_round_ns",
        "dense_extrapolated_round_ns",
        "speedup_vs_dense_extrapolation",
        "mwem_answers",
        "dense_per_round_ns",
    ] {
        require_positive(json, key)?;
    }
    for key in [
        "resample_every",
        "answer_err_vs_dense_mean",
        "answer_err_vs_dense_max",
        "selection_matches",
        "answer_err_vs_truth_mean",
        "answer_err_vs_truth_resampled_mean",
        "resamples",
        "claimed_radius_mean",
        "realized_err_mean",
        "radius_wins_hoeffding",
        "radius_wins_ess",
        "radius_wins_bernstein",
    ] {
        require_non_negative(json, key)?;
    }
    // The same certificate-honesty ceiling as the sublinear artifact: a
    // regression back toward envelope-only radii on the MWEM path must
    // fail CI here too.
    let claimed = extract_numbers(json, "claimed_radius_mean");
    let realized = extract_numbers(json, "realized_err_mean");
    for (c, r) in claimed.iter().zip(&realized) {
        if *r > 0.0 && c / r > CALIBRATION_RATIO_CEILING {
            return Err(format!(
                "claimed radius {c} is {:.0}x the realized error {r} \
                 (ceiling {CALIBRATION_RATIO_CEILING})",
                c / r
            ));
        }
    }
    // The dense/sampled crossover column (the smallest size where the
    // sampled path wins; `null` when it never does).
    if !has_key(json, "crossover_log2_x") {
        return Err("missing \"crossover_log2_x\"".into());
    }
    require_probe_columns(json)
}

/// Validate `BENCH_serve.json`: the multi-analyst serving record. Checks
/// the scaling rows (positive qps and latency percentiles, with
/// `p50 ≤ p99` pairwise), the outcome tallies, and that the artifact
/// records `machine_threads` — qps scaling itself is deliberately NOT
/// asserted: on a single-core runner every analyst count multiplexes
/// onto one CPU and the column legitimately reads flat.
pub fn validate_bench_serve(json: &str) -> Result<(), String> {
    if !has_key(json, "experiment") || !json.contains("serve_scaling") {
        return Err("not a serve_scaling artifact".into());
    }
    for key in [
        "machine_threads",
        "queries_per_analyst",
        "analysts",
        "requests",
        "qps",
        "latency_p50_ns",
        "latency_p99_ns",
    ] {
        require_positive(json, key)?;
    }
    for key in [
        "free",
        "updates",
        "failed",
        "rejected",
        "halted_replies",
        "batches",
        "rescreens",
        "writer_wait_p99_ns",
    ] {
        require_non_negative(json, key)?;
    }
    let p50 = extract_numbers(json, "latency_p50_ns");
    let p99 = extract_numbers(json, "latency_p99_ns");
    if p50.len() != p99.len() {
        return Err("latency_p50_ns/latency_p99_ns row counts differ".into());
    }
    for (a, b) in p50.iter().zip(&p99) {
        if a > b {
            return Err(format!("latency p50 {a} exceeds p99 {b}"));
        }
    }
    // Every row must have served every request it issued: outcomes tally
    // back to the request count.
    let requests = extract_numbers(json, "requests");
    let free = extract_numbers(json, "free");
    let updates = extract_numbers(json, "updates");
    let failed = extract_numbers(json, "failed");
    let rejected = extract_numbers(json, "rejected");
    let halted = extract_numbers(json, "halted_replies");
    for i in 0..requests.len() {
        let tally = free[i] + updates[i] + failed[i] + rejected[i] + halted[i];
        if tally != requests[i] {
            return Err(format!(
                "row {i}: outcomes tally {tally} != requests {}",
                requests[i]
            ));
        }
    }
    Ok(())
}

/// Validate a JSONL run trace (the `--trace` output of the experiment
/// binaries): every line parses under the pmw-obs v1 schema, the trace is
/// framed by `run_start`/`run_end` with an accurate closing event count,
/// and round begin/end events pair up in execution order.
pub fn validate_trace(text: &str) -> Result<(), String> {
    use pmw_obs::TraceEvent;
    let events = TraceEvent::parse_trace(text).map_err(|e| format!("trace parse: {e}"))?;
    if !matches!(events.first(), Some(TraceEvent::RunStart { .. })) {
        return Err("trace does not open with run_start".into());
    }
    match events.last() {
        Some(TraceEvent::RunEnd { events: n }) => {
            if *n as usize != events.len() - 1 {
                return Err(format!(
                    "run_end counts {n} events, trace has {}",
                    events.len() - 1
                ));
            }
        }
        _ => return Err("trace does not close with run_end".into()),
    }
    let mut open: Option<u64> = None;
    let mut rounds = 0u64;
    for ev in &events {
        match ev {
            TraceEvent::RoundBegin { round } => {
                if let Some(prev) = open {
                    return Err(format!("round {round} begins inside open round {prev}"));
                }
                open = Some(*round);
            }
            TraceEvent::RoundEnd { round, .. } => {
                if open.take() != Some(*round) {
                    return Err(format!("round {round} ends without a matching begin"));
                }
                rounds += 1;
            }
            _ => {}
        }
    }
    if let Some(r) = open {
        return Err(format!("round {r} never ends"));
    }
    if rounds == 0 {
        return Err("trace contains no completed rounds".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_numbers_in_order() {
        let json = r#"{"a": 1.5, "b": [{"a": 2e3}, {"a": -4}], "c": 7}"#;
        assert_eq!(extract_numbers(json, "a"), vec![1.5, 2e3, -4.0]);
        assert_eq!(extract_numbers(json, "c"), vec![7.0]);
        assert!(extract_numbers(json, "missing").is_empty());
        assert!(has_key(json, "b"));
        assert!(!has_key(json, "missing"));
    }

    #[test]
    fn runtime_validator_accepts_a_well_formed_artifact() {
        let json = r#"{
          "experiment": "runtime_scaling",
          "parallel": true, "machine_threads": 2, "smoke": false,
          "sizes": [
            {"log2_x": 12, "mw_update_ns_per_elem": 1.2,
             "mw_update_with_read_ns_per_elem": 3.4,
             "mw_update_reference_ns_per_elem": 6.0,
             "certificate_ns_per_elem": 2.0,
             "end_to_end_round_ns_per_elem": 9.0}
          ],
          "backend_axis": [
            {"backend": "dense", "log2_x": 12, "round_ns": 5000.0, "point_read_ns": 2.0},
            {"backend": "lazy", "log2_x": 12, "round_ns": 90.0, "point_read_ns": 40.0},
            {"backend": "sampled", "log2_x": 12, "round_ns": 800.0, "point_read_ns": 60.0}
          ],
          "threads_axis": [1, 2],
          "thread_scaling": [
            {"threads": 1, "certificate_ns_per_elem": 2.0, "speedup_vs_1thread": 1.0},
            {"threads": 2, "certificate_ns_per_elem": 1.1, "speedup_vs_1thread": 1.82}
          ],
          "probe": {
            "mechanism": "online_pmw", "probed_rounds": 6,
            "outcomes": {"update": 4, "free": 2},
            "phases": [
              {"phase": "hypothesis_solve", "count": 6, "total_ns": 600,
               "p50_ns": 90, "p99_ns": 200, "max_ns": 210}
            ]
          }
        }"#;
        validate_bench_runtime(json).unwrap();
        // The probed-run phase table is part of the contract.
        let no_probe = json.replace("\"probed_rounds\": 6,", "");
        assert!(validate_bench_runtime(&no_probe).is_err());
        let no_phases = json.replace("\"phases\":", "\"not_phases\":");
        assert!(validate_bench_runtime(&no_phases).is_err());
        // The thread axis is part of the contract: the axis itself, a
        // serial baseline, and one row per listed worker count.
        let no_axis = json.replace("\"threads_axis\": [1, 2],", "");
        assert!(validate_bench_runtime(&no_axis)
            .unwrap_err()
            .contains("threads_axis"));
        let no_baseline = json.replace("\"threads_axis\": [1, 2]", "\"threads_axis\": [2]");
        assert!(validate_bench_runtime(&no_baseline).is_err());
        let missing_row = json.replace("\"threads\": 2,", "\"threads\": 3,");
        assert!(validate_bench_runtime(&missing_row)
            .unwrap_err()
            .contains("threads=2"));
        // A full parallel run must not slow down at a worker count the
        // machine has cores for; smoke runs and oversubscribed rows pass.
        let slow = json.replace(
            "\"speedup_vs_1thread\": 1.82",
            "\"speedup_vs_1thread\": 0.90",
        );
        assert!(validate_bench_runtime(&slow)
            .unwrap_err()
            .contains("serial sweep"));
        validate_bench_runtime(&slow.replace("\"smoke\": false", "\"smoke\": true")).unwrap();
        let one_core = slow.replace("\"machine_threads\": 2", "\"machine_threads\": 1");
        validate_bench_runtime(&one_core).unwrap();
    }

    #[test]
    fn runtime_validator_rejects_bad_values_and_missing_keys() {
        assert!(validate_bench_runtime("{}").is_err());
        let missing_backend = r#"{"experiment": "runtime_scaling",
          "log2_x": 12, "mw_update_ns_per_elem": 1.0,
          "mw_update_with_read_ns_per_elem": 1.0,
          "mw_update_reference_ns_per_elem": 1.0,
          "certificate_ns_per_elem": 1.0,
          "end_to_end_round_ns_per_elem": 1.0,
          "round_ns": 1.0, "point_read_ns": 1.0,
          "backend_axis": [{"backend": "dense"}]}"#;
        let err = validate_bench_runtime(missing_backend).unwrap_err();
        assert!(err.contains("lazy"), "{err}");
        let negative = missing_backend.replace(
            "\"certificate_ns_per_elem\": 1.0",
            "\"certificate_ns_per_elem\": -3.0",
        );
        assert!(validate_bench_runtime(&negative).is_err());
    }

    #[test]
    fn sublinear_validator_round_trips() {
        let json = r#"{
          "experiment": "sublinear_scaling", "budget": 2048, "rounds": 50,
          "mechanism_n": 2000, "mechanism_queries": 24,
          "sizes": [
            {"log2_x": 16, "universe": 65536, "per_round_ns": 100000.0,
             "dense_ns_per_elem_ref": 5.0,
             "dense_extrapolated_round_ns": 327680.0,
             "speedup_vs_dense_extrapolation": 3.3,
             "mechanism_per_answer_ns": 2500000.0, "mechanism_answers": 24,
             "mechanism_updates": 2, "mechanism_support_rows": 1987,
             "ess_min": 113.5, "adaptive_resamples": 1, "escalations": 0,
             "answer_error_mean": 0.001, "answer_error_max": 0.004,
             "claimed_radius_mean": 0.02,
             "realized_err_mean": 0.001, "envelope_radius_mean": 0.9,
             "calibration_ratio": 20.0,
             "radius_wins_hoeffding": 0, "radius_wins_ess": 20,
             "radius_wins_bernstein": 30}
          ],
          "t_axis": [50, 500],
          "long_horizon": [
            {"t": 50, "per_round_ns_flat": 52000.0, "per_round_ns_uncompacted": 64000.0,
             "compactions": 3, "checkpoints": 3, "retained_rounds": 2,
             "replay_depth_flat": 16, "replay_depth_uncompacted": 48},
            {"t": 500, "per_round_ns_flat": 54000.0, "per_round_ns_uncompacted": 310000.0,
             "compactions": 31, "checkpoints": 31, "retained_rounds": 4,
             "replay_depth_flat": 16, "replay_depth_uncompacted": 496}
          ],
          "probe": {
            "mechanism": "online_pmw", "probed_rounds": 12,
            "outcomes": {"update": 9, "failed": 3},
            "phases": [
              {"phase": "pool_sweep", "count": 24, "total_ns": 4800,
               "p50_ns": 180, "p99_ns": 400, "max_ns": 410},
              {"phase": "oracle_solve", "count": 9, "total_ns": 90000,
               "p50_ns": 9000, "p99_ns": 15000, "max_ns": 15200}
            ]
          }
        }"#;
        validate_bench_sublinear(json).unwrap();
        assert!(validate_bench_sublinear("{}").is_err());
        // The probed-run phase table is part of the contract.
        let no_probe = json.replace("\"probed_rounds\": 12,", "");
        assert!(validate_bench_sublinear(&no_probe).is_err());
        let zero_speed = json.replace(
            "\"speedup_vs_dense_extrapolation\": 3.3",
            "\"speedup_vs_dense_extrapolation\": 0.0",
        );
        assert!(validate_bench_sublinear(&zero_speed).is_err());
        let no_err_col = json.replace("\"answer_error_mean\": 0.001,", "");
        assert!(validate_bench_sublinear(&no_err_col).is_err());
        // The mechanism axis is part of the contract now.
        let no_mech = json.replace("\"mechanism_per_answer_ns\": 2500000.0,", "");
        assert!(validate_bench_sublinear(&no_mech).is_err());
        let zero_mech = json.replace(
            "\"mechanism_per_answer_ns\": 2500000.0",
            "\"mechanism_per_answer_ns\": 0.0",
        );
        assert!(validate_bench_sublinear(&zero_mech).is_err());
        // The calibration columns are part of the contract too.
        let no_cal = json.replace("\"realized_err_mean\": 0.001,", "");
        assert!(validate_bench_sublinear(&no_cal).is_err());
        // ... as are the pool-health columns.
        let no_health = json.replace("\"ess_min\": 113.5,", "");
        assert!(validate_bench_sublinear(&no_health).is_err());
        let negative_resamples =
            json.replace("\"adaptive_resamples\": 1,", "\"adaptive_resamples\": -1,");
        assert!(validate_bench_sublinear(&negative_resamples).is_err());
        let no_wins = json.replace("\"radius_wins_ess\": 20,", "");
        assert!(validate_bench_sublinear(&no_wins).is_err());
        // ... and so is the long-horizon axis: the t_axis array, one row
        // per listed horizon, and both per-round columns.
        let no_t_axis = json.replace("\"t_axis\": [50, 500],", "");
        assert!(validate_bench_sublinear(&no_t_axis)
            .unwrap_err()
            .contains("t_axis"));
        let missing_t_row = json.replace("\"t\": 500,", "\"t\": 501,");
        assert!(validate_bench_sublinear(&missing_t_row)
            .unwrap_err()
            .contains("t=500"));
        let zero_uncompacted = json.replace(
            "\"per_round_ns_uncompacted\": 64000.0,",
            "\"per_round_ns_uncompacted\": 0.0,",
        );
        assert!(validate_bench_sublinear(&zero_uncompacted).is_err());
        let negative_depth =
            json.replace("\"replay_depth_flat\": 16,", "\"replay_depth_flat\": -1,");
        assert!(validate_bench_sublinear(&negative_depth).is_err());
    }

    #[test]
    fn sublinear_validator_enforces_the_long_horizon_flatness_gate() {
        // Re-introducing the quadratic — compacted per-round cost growing
        // past 2x between the min-t and max-t rows — must fail the check.
        let json = r#"{
          "experiment": "sublinear_scaling", "budget": 2048, "rounds": 50,
          "mechanism_n": 2000, "mechanism_queries": 24,
          "sizes": [
            {"log2_x": 16, "universe": 65536, "per_round_ns": 100000.0,
             "dense_ns_per_elem_ref": 5.0,
             "dense_extrapolated_round_ns": 327680.0,
             "speedup_vs_dense_extrapolation": 3.3,
             "mechanism_per_answer_ns": 2500000.0, "mechanism_answers": 24,
             "mechanism_updates": 2, "mechanism_support_rows": 1987,
             "ess_min": 113.5, "adaptive_resamples": 1, "escalations": 0,
             "answer_error_mean": 0.001, "answer_error_max": 0.004,
             "claimed_radius_mean": 0.02,
             "realized_err_mean": 0.001, "envelope_radius_mean": 0.9,
             "calibration_ratio": 20.0,
             "radius_wins_hoeffding": 0, "radius_wins_ess": 20,
             "radius_wins_bernstein": 30}
          ],
          "t_axis": [50, 500],
          "long_horizon": [
            {"t": 50, "per_round_ns_flat": 52000.0, "per_round_ns_uncompacted": 64000.0,
             "compactions": 3, "checkpoints": 3, "retained_rounds": 2,
             "replay_depth_flat": 16, "replay_depth_uncompacted": 48},
            {"t": 500, "per_round_ns_flat": FLAT, "per_round_ns_uncompacted": 310000.0,
             "compactions": 31, "checkpoints": 31, "retained_rounds": 4,
             "replay_depth_flat": 16, "replay_depth_uncompacted": 496}
          ],
          "probe": {
            "mechanism": "online_pmw", "probed_rounds": 12,
            "phases": [
              {"phase": "pool_sweep", "count": 24, "total_ns": 4800,
               "p50_ns": 180, "p99_ns": 400, "max_ns": 410}
            ]
          }
        }"#;
        validate_bench_sublinear(&json.replace("FLAT", "54000.0")).unwrap();
        // Timing jitter inside the ceiling passes; 2x+ growth fails.
        validate_bench_sublinear(&json.replace("FLAT", "99000.0")).unwrap();
        let err = validate_bench_sublinear(&json.replace("FLAT", "120000.0")).unwrap_err();
        assert!(err.contains("not flat"), "{err}");
        // A decreasing t_axis is malformed.
        let reversed = json
            .replace("FLAT", "54000.0")
            .replace("\"t_axis\": [50, 500],", "\"t_axis\": [500, 50],");
        assert!(validate_bench_sublinear(&reversed)
            .unwrap_err()
            .contains("increasing"));
    }

    #[test]
    fn sublinear_validator_enforces_the_calibration_ceiling() {
        // A regression back to ~600x-inflated radii must fail the check,
        // through either the claimed/realized pair or the reported ratio.
        let base = r#"{
          "experiment": "sublinear_scaling", "budget": 2048, "rounds": 50,
          "mechanism_n": 2000, "mechanism_queries": 24,
          "sizes": [
            {"log2_x": 16, "universe": 65536, "per_round_ns": 100000.0,
             "dense_ns_per_elem_ref": 5.0,
             "dense_extrapolated_round_ns": 327680.0,
             "speedup_vs_dense_extrapolation": 3.3,
             "mechanism_per_answer_ns": 2500000.0, "mechanism_answers": 24,
             "mechanism_updates": 2, "mechanism_support_rows": 1987,
             "ess_min": 113.5, "adaptive_resamples": 1, "escalations": 0,
             "answer_error_mean": 0.009, "answer_error_max": 0.04,
             "claimed_radius_mean": CLAIMED,
             "realized_err_mean": 0.009, "envelope_radius_mean": 6.0,
             "calibration_ratio": RATIO,
             "radius_wins_hoeffding": 0, "radius_wins_ess": 20,
             "radius_wins_bernstein": 30}
          ],
          "t_axis": [50, 500],
          "long_horizon": [
            {"t": 50, "per_round_ns_flat": 52000.0, "per_round_ns_uncompacted": 64000.0,
             "compactions": 3, "checkpoints": 3, "retained_rounds": 2,
             "replay_depth_flat": 16, "replay_depth_uncompacted": 48},
            {"t": 500, "per_round_ns_flat": 54000.0, "per_round_ns_uncompacted": 310000.0,
             "compactions": 31, "checkpoints": 31, "retained_rounds": 4,
             "replay_depth_flat": 16, "replay_depth_uncompacted": 496}
          ],
          "probe": {
            "mechanism": "online_pmw", "probed_rounds": 12,
            "phases": [
              {"phase": "pool_sweep", "count": 24, "total_ns": 4800,
               "p50_ns": 180, "p99_ns": 400, "max_ns": 410}
            ]
          }
        }"#;
        let honest = base.replace("CLAIMED", "0.065").replace("RATIO", "7.4");
        validate_bench_sublinear(&honest).unwrap();
        let blown = base.replace("CLAIMED", "5.86").replace("RATIO", "651.0");
        let err = validate_bench_sublinear(&blown).unwrap_err();
        assert!(err.contains("ceiling"), "{err}");
        // A claimed radius above the envelope bound is dishonest even if
        // the ratio is fine.
        let above_envelope = base.replace("CLAIMED", "6.5").replace("RATIO", "7.4");
        assert!(validate_bench_sublinear(&above_envelope).is_err());
    }

    #[test]
    fn mwem_validator_round_trips() {
        let json = r#"{
          "experiment": "mwem_scaling", "rounds": 8, "queries": 24,
          "budget": 2048, "mwem_n": 2000, "epsilon": 4.0,
          "resample_every": 4, "dense_ref_log2_x": 16,
          "dense_ns_per_elem_ref": 3.2,
          "crossover_log2_x": 26,
          "sizes": [
            {"log2_x": 16, "universe": 65536,
             "sampled_per_round_ns": 900000.0,
             "dense_extrapolated_round_ns": 210000.0,
             "speedup_vs_dense_extrapolation": 0.3,
             "mwem_answers": 24,
             "dense_per_round_ns": 210000.0,
             "answer_err_vs_dense_mean": 0.002, "answer_err_vs_dense_max": 0.008,
             "selection_matches": 8,
             "answer_err_vs_truth_mean": 0.01,
             "answer_err_vs_truth_resampled_mean": 0.008,
             "resamples": 2,
             "claimed_radius_mean": 0.09, "realized_err_mean": 0.01,
             "radius_wins_hoeffding": 0, "radius_wins_ess": 100,
             "radius_wins_bernstein": 116},
            {"log2_x": 26, "universe": 67108864,
             "sampled_per_round_ns": 1000000.0,
             "dense_extrapolated_round_ns": 214748364.8,
             "speedup_vs_dense_extrapolation": 214.7,
             "mwem_answers": 24}
          ],
          "probe": {
            "mechanism": "mwem", "probed_rounds": 8,
            "outcomes": {"update": 8},
            "phases": [
              {"phase": "select", "count": 8, "total_ns": 8000,
               "p50_ns": 900, "p99_ns": 1500, "max_ns": 1600},
              {"phase": "estimate", "count": 8, "total_ns": 64000,
               "p50_ns": 7000, "p99_ns": 12000, "max_ns": 12300}
            ]
          }
        }"#;
        validate_bench_mwem(json).unwrap();
        assert!(validate_bench_mwem("{}").is_err());
        // The probed-run phase table is part of the contract.
        let no_probe = json.replace("\"probed_rounds\": 8,", "");
        assert!(validate_bench_mwem(&no_probe).is_err());
        let zero_speed = json.replace(
            "\"speedup_vs_dense_extrapolation\": 214.7",
            "\"speedup_vs_dense_extrapolation\": 0.0",
        );
        assert!(validate_bench_mwem(&zero_speed).is_err());
        let no_err = json.replace("\"answer_err_vs_dense_mean\": 0.002,", "");
        assert!(validate_bench_mwem(&no_err).is_err());
        let no_resample_col = json.replace("\"answer_err_vs_truth_resampled_mean\": 0.008,", "");
        assert!(validate_bench_mwem(&no_resample_col).is_err());
        // The calibration columns are part of the contract.
        let no_cal = json.replace("\"claimed_radius_mean\": 0.09,", "");
        assert!(validate_bench_mwem(&no_cal).is_err());
        // ... and the same calibration ceiling applies as for the
        // sublinear artifact.
        let blown = json.replace(
            "\"claimed_radius_mean\": 0.09,",
            "\"claimed_radius_mean\": 5.9,",
        );
        let err = validate_bench_mwem(&blown).unwrap_err();
        assert!(err.contains("ceiling"), "{err}");
        let negative_wins = json.replace("\"radius_wins_ess\": 100,", "\"radius_wins_ess\": -1,");
        assert!(validate_bench_mwem(&negative_wins).is_err());
        // The crossover column is part of the contract (a null value —
        // sampled never wins — is acceptable; absence is not).
        let null_crossover =
            json.replace("\"crossover_log2_x\": 26,", "\"crossover_log2_x\": null,");
        validate_bench_mwem(&null_crossover).unwrap();
        let no_crossover = json.replace("\"crossover_log2_x\": 26,", "");
        assert!(validate_bench_mwem(&no_crossover)
            .unwrap_err()
            .contains("crossover"));
        // A runtime artifact is not a MWEM artifact.
        assert!(validate_bench_mwem("{\"experiment\": \"runtime_scaling\"}").is_err());
    }

    #[test]
    fn serve_validator_round_trips() {
        let json = r#"{
          "experiment": "serve_scaling",
          "machine_threads": 8,
          "smoke": false,
          "queries_per_analyst": 64,
          "scaling": [
            {"analysts": 1, "requests": 64, "qps": 21000.0,
             "latency_p50_ns": 31000, "latency_p99_ns": 90000,
             "free": 58, "updates": 6, "failed": 0, "rejected": 0,
             "halted_replies": 0, "batches": 64, "rescreens": 0,
             "writer_wait_p99_ns": 4000},
            {"analysts": 8, "requests": 512, "qps": 150000.0,
             "latency_p50_ns": 28000, "latency_p99_ns": 120000,
             "free": 500, "updates": 4, "failed": 0, "rejected": 8,
             "halted_replies": 0, "batches": 90, "rescreens": 12,
             "writer_wait_p99_ns": 60000}
          ]
        }"#;
        validate_bench_serve(json).unwrap();
        assert!(validate_bench_serve("{}").is_err());
        // p50 must not exceed p99 within a row.
        let inverted = json.replace(
            "\"latency_p50_ns\": 31000, \"latency_p99_ns\": 90000",
            "\"latency_p50_ns\": 91000, \"latency_p99_ns\": 90000",
        );
        let err = validate_bench_serve(&inverted).unwrap_err();
        assert!(err.contains("p50"), "{err}");
        // qps must be positive...
        let zero_qps = json.replace("\"qps\": 21000.0", "\"qps\": 0.0");
        assert!(validate_bench_serve(&zero_qps).is_err());
        // ... but deliberately NOT monotone in the analyst count: a
        // single-core runner reads flat or worse, and that must pass.
        let flat = json.replace("\"qps\": 150000.0", "\"qps\": 11000.0");
        validate_bench_serve(&flat).unwrap();
        // machine_threads is part of the contract (the qualification).
        let no_threads = json.replace("\"machine_threads\": 8,", "");
        assert!(validate_bench_serve(&no_threads).is_err());
        // Outcome tallies must reconcile with the request count.
        let dropped = json.replace("\"free\": 58,", "\"free\": 57,");
        let err = validate_bench_serve(&dropped).unwrap_err();
        assert!(err.contains("tally"), "{err}");
        // A runtime artifact is not a serving artifact.
        assert!(validate_bench_serve("{\"experiment\": \"runtime_scaling\"}").is_err());
    }

    /// A well-formed trace as the `JsonlTraceProbe` would stream it.
    fn sample_trace() -> String {
        use pmw_obs::{Counter, Gauge, Phase, TraceEvent};
        let events = [
            TraceEvent::RunStart {
                mechanism: "online_pmw".into(),
                detail: "schema test".into(),
            },
            TraceEvent::RoundBegin { round: 0 },
            TraceEvent::Span {
                phase: Phase::HypothesisSolve,
                round: 0,
                ns: 1200,
            },
            TraceEvent::Gauge {
                gauge: Gauge::EpsSpent,
                round: 0,
                value: 0.25,
            },
            TraceEvent::Counter {
                counter: Counter::UpdateRounds,
                round: 0,
                delta: 1,
            },
            TraceEvent::RoundEnd {
                round: 0,
                outcome: "update".into(),
                ns: 5000,
            },
            TraceEvent::RunEnd { events: 6 },
        ];
        events.iter().map(|e| e.to_json_line() + "\n").collect()
    }

    #[test]
    fn trace_validator_accepts_a_streamed_trace() {
        validate_trace(&sample_trace()).unwrap();
    }

    #[test]
    fn trace_validator_rejects_broken_framing_and_bad_lines() {
        let trace = sample_trace();
        // Malformed JSON line.
        let garbage = trace.replace("\"kind\":\"span\"", "\"kind\":\"warp\"");
        assert!(validate_trace(&garbage).unwrap_err().contains("parse"));
        // Missing run_end (and the one-line truncation also breaks the
        // event count for any later close).
        let truncated: String = trace.lines().take(6).map(|l| format!("{l}\n")).collect();
        assert!(validate_trace(&truncated).unwrap_err().contains("run_end"));
        // Inaccurate closing event count.
        let miscounted = trace.replace("\"events\":6", "\"events\":5");
        assert!(validate_trace(&miscounted).unwrap_err().contains("counts"));
        // A round that never ends.
        let unclosed = trace.replace(
            "{\"v\":1,\"kind\":\"round_end\",\"round\":0,\"outcome\":\"update\",\"ns\":5000}\n",
            "",
        );
        assert!(validate_trace(&unclosed).is_err());
        // No rounds at all.
        let empty_run = "{\"v\":1,\"kind\":\"run_start\",\"mechanism\":\"m\",\"detail\":\"\"}\n\
                         {\"v\":1,\"kind\":\"run_end\",\"events\":1}\n";
        assert!(validate_trace(empty_run)
            .unwrap_err()
            .contains("no completed rounds"));
        assert!(validate_trace("").is_err());
    }
}
