//! Validation of the machine-readable bench artifacts.
//!
//! Each `BENCH_*.json` artifact is parsed with [`pmw_obs::json`] and
//! checked against one table of numeric columns by path. A path through an
//! array of rows (`sizes.log2_x`) checks every row, so a row that lacks a
//! column fails even when its neighbours carry it, and names the row
//! (`sizes[2]`). A file that is not JSON fails with the byte where parsing
//! stopped. The artifact's own gates then compare values within each row.
//! The CI bench-smoke job runs these checks through the
//! `bench_schema_check` binary after regenerating the artifacts.

use pmw_obs::Json;

/// Which values a numeric column may hold.
#[derive(Clone, Copy)]
enum Sign {
    /// Finite and above zero.
    Positive,
    /// Finite and at least zero.
    NonNegative,
}
use Sign::{NonNegative, Positive};

/// Numeric columns by dot-separated path from the document root, each with
/// the values it may hold. A path through an array applies to every row,
/// and the array must have rows.
type Columns = &'static [(&'static str, Sign)];

/// The `"probe"` object of a probed mirror run, which every artifact but
/// the serving one carries.
const PROBE: Columns = &[
    ("probe.probed_rounds", Positive),
    ("probe.phases.count", Positive),
    ("probe.phases.total_ns", NonNegative),
    ("probe.phases.p50_ns", NonNegative),
    ("probe.phases.p99_ns", NonNegative),
    ("probe.phases.max_ns", NonNegative),
];

/// `BENCH_runtime.json`: the Θ(|X|) kernels per size, the backend axis,
/// the free-answer axis and the thread axis.
const RUNTIME: Columns = &[
    ("machine_threads", Positive),
    ("sizes.log2_x", Positive),
    ("sizes.mw_update_ns_per_elem", Positive),
    ("sizes.mw_update_with_read_ns_per_elem", Positive),
    ("sizes.mw_update_reference_ns_per_elem", Positive),
    ("sizes.certificate_ns_per_elem", Positive),
    ("sizes.end_to_end_round_ns_per_elem", Positive),
    ("backend_axis.log2_x", Positive),
    ("backend_axis.round_ns", Positive),
    ("backend_axis.point_read_ns", Positive),
    ("free_answers.trials", Positive),
    ("free_answers.free_answers", Positive),
    ("free_answers.free_answer_ns_median", Positive),
    ("free_answers.free_answer_ns_iqr", NonNegative),
    ("thread_scaling.certificate_ns_per_elem", Positive),
    ("thread_scaling.speedup_vs_1thread", Positive),
];

/// `BENCH_sublinear.json`: the sampled round and the full mechanism per
/// size (with pool health), and the long-horizon axis.
const SUBLINEAR: Columns = &[
    ("budget", Positive),
    ("rounds", Positive),
    ("mechanism_n", Positive),
    ("mechanism_queries", Positive),
    ("sizes.log2_x", Positive),
    ("sizes.universe", Positive),
    ("sizes.per_round_ns", Positive),
    ("sizes.dense_ns_per_elem_ref", Positive),
    ("sizes.dense_extrapolated_round_ns", Positive),
    ("sizes.speedup_vs_dense_extrapolation", Positive),
    ("sizes.mechanism_per_answer_ns", Positive),
    ("sizes.mechanism_answers", Positive),
    ("sizes.mechanism_support_rows", Positive),
    ("sizes.mechanism_updates", NonNegative),
    ("sizes.ess_min", NonNegative),
    ("long_horizon.per_round_ns_flat", Positive),
    ("long_horizon.per_round_ns_uncompacted", Positive),
    ("long_horizon.compactions", NonNegative),
    ("long_horizon.checkpoints", NonNegative),
    ("long_horizon.retained_rounds", NonNegative),
    ("long_horizon.replay_depth_flat", NonNegative),
    ("long_horizon.replay_depth_uncompacted", NonNegative),
];

/// The sampled-vs-dense error and calibration columns of the
/// `BENCH_sublinear.json` size that also runs the dense mirror.
const SUBLINEAR_CALIBRATION: Columns = &[
    ("answer_error_mean", NonNegative),
    ("answer_error_max", NonNegative),
    ("claimed_radius_mean", NonNegative),
    ("realized_err_mean", NonNegative),
    ("envelope_radius_mean", NonNegative),
    ("calibration_ratio", NonNegative),
    ("radius_wins_hoeffding", NonNegative),
    ("radius_wins_ess", NonNegative),
    ("radius_wins_bernstein", NonNegative),
];

/// `BENCH_mwem.json`: the sampled MWEM round per size.
const MWEM: Columns = &[
    ("rounds", Positive),
    ("queries", Positive),
    ("budget", Positive),
    ("mwem_n", Positive),
    ("epsilon", Positive),
    ("dense_ns_per_elem_ref", Positive),
    ("resample_every", NonNegative),
    ("sizes.log2_x", Positive),
    ("sizes.universe", Positive),
    ("sizes.sampled_per_round_ns", Positive),
    ("sizes.dense_extrapolated_round_ns", Positive),
    ("sizes.speedup_vs_dense_extrapolation", Positive),
    ("sizes.mwem_answers", Positive),
];

/// The `BENCH_mwem.json` columns of the size shared with the dense run:
/// the dense round, answer errors vs dense and vs truth (pool reused and
/// refreshed), and calibration.
const MWEM_CALIBRATION: Columns = &[
    ("dense_per_round_ns", Positive),
    ("answer_err_vs_dense_mean", NonNegative),
    ("answer_err_vs_dense_max", NonNegative),
    ("selection_matches", NonNegative),
    ("answer_err_vs_truth_mean", NonNegative),
    ("answer_err_vs_truth_resampled_mean", NonNegative),
    ("resamples", NonNegative),
    ("claimed_radius_mean", NonNegative),
    ("realized_err_mean", NonNegative),
    ("radius_wins_hoeffding", NonNegative),
    ("radius_wins_ess", NonNegative),
    ("radius_wins_bernstein", NonNegative),
];

/// `BENCH_serve.json`: one `scaling` row per analyst count.
const SERVE: Columns = &[
    ("machine_threads", Positive),
    ("queries_per_analyst", Positive),
    ("scaling.analysts", Positive),
    ("scaling.requests", Positive),
    ("scaling.qps", Positive),
    ("scaling.latency_p50_ns", Positive),
    ("scaling.latency_p99_ns", Positive),
    ("scaling.free", NonNegative),
    ("scaling.updates", NonNegative),
    ("scaling.failed", NonNegative),
    ("scaling.rejected", NonNegative),
    ("scaling.halted_replies", NonNegative),
    ("scaling.batches", NonNegative),
    ("scaling.rescreens", NonNegative),
    ("scaling.writer_wait_p99_ns", NonNegative),
];

/// The number `value` named `name`, finite and of the given sign.
fn checked(value: Option<&Json>, name: &str, sign: Sign) -> Result<f64, String> {
    let value = value.ok_or_else(|| format!("missing numeric key \"{name}\""))?;
    let x = value
        .as_number::<f64>()
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("key \"{name}\" holds {value}, not a finite number"))?;
    match sign {
        Positive if x <= 0.0 => Err(format!("key \"{name}\" is {x}, not positive")),
        NonNegative if x < 0.0 => Err(format!("key \"{name}\" is negative ({x})")),
        _ => Ok(x),
    }
}

/// The number under `key`, finite and of the given sign.
fn number(row: &Json, key: &str, sign: Sign) -> Result<f64, String> {
    checked(row.get(key), key, sign)
}

/// Check the number at dot-separated `path` below `value`, whose own path
/// in the document is `at`. A path through an array checks every row.
fn check_path(value: &Json, at: &str, path: &str, sign: Sign) -> Result<(), String> {
    if let Json::Array(rows) = value {
        if rows.is_empty() {
            return Err(format!("\"{at}\" has no rows"));
        }
        let mut rows = rows.iter().enumerate();
        return rows.try_for_each(|(i, row)| check_path(row, &format!("{at}[{i}]"), path, sign));
    }
    let (key, rest) = path.split_once('.').unwrap_or((path, ""));
    let at = format!("{at}.{key}");
    let at = at.trim_start_matches('.');
    match value.get(key) {
        Some(inner) if !rest.is_empty() => check_path(inner, at, rest, sign),
        inner => checked(inner, at, sign).map(drop),
    }
}

/// Parse `text` as the `experiment` artifact and check its columns.
fn check(text: &str, experiment: &str, tables: &[Columns]) -> Result<Json, String> {
    let doc = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    if doc.get("experiment").and_then(Json::as_str) != Some(experiment) {
        return Err(format!("not a {experiment} artifact"));
    }
    for &(path, sign) in tables.iter().copied().flatten() {
        check_path(&doc, "", path, sign)?;
    }
    Ok(doc)
}

/// The non-empty array of rows under top-level `key`.
fn rows_at<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        Some(Json::Array(rows)) if !rows.is_empty() => Ok(rows),
        _ => Err(format!("missing \"{key}\" rows")),
    }
}

/// The `sizes` rows that carry `group`, with their index. Each row carries
/// the group whole or not at all, and at least one row carries it.
fn group_rows(doc: &Json, group: Columns) -> Result<Vec<(usize, &Json)>, String> {
    let mut carriers = Vec::new();
    for (i, row) in rows_at(doc, "sizes")?.iter().enumerate() {
        if group.iter().any(|(key, _)| row.get(key).is_some()) {
            for &(key, sign) in group {
                checked(row.get(key), &format!("sizes[{i}].{key}"), sign)?;
            }
            carriers.push((i, row));
        }
    }
    if carriers.is_empty() {
        return Err(format!("no sizes row carries \"{}\"", group[0].0));
    }
    Ok(carriers)
}

/// The row under `rows_key` for each entry of the integer array `axis`,
/// matched by the row's `key` value, in axis order; one row per entry.
fn axis_rows<'a>(
    doc: &'a Json,
    axis: &str,
    rows_key: &str,
    key: &str,
) -> Result<Vec<(u64, &'a Json)>, String> {
    let Some(Json::Array(entries)) = doc.get(axis) else {
        return Err(format!("missing \"{axis}\" array"));
    };
    let rows = rows_at(doc, rows_key)?;
    if rows.len() != entries.len() {
        return Err(format!(
            "{rows_key} has {} rows for {} {axis} entries",
            rows.len(),
            entries.len()
        ));
    }
    entries
        .iter()
        .map(|entry| {
            let v = entry
                .as_number::<u64>()
                .ok_or_else(|| format!("{axis} holds {entry}, not a count"))?;
            rows.iter()
                .find(|row| row.get(key).and_then(Json::as_number::<u64>) == Some(v))
                .map(|row| (v, row))
                .ok_or_else(|| format!("no {rows_key} row for {key}={v}"))
        })
        .collect()
}

/// The least `speedup_vs_1thread` a full runtime artifact may
/// report at a worker count the machine has cores for. Below it the
/// chunked certificate sweep loses to the serial one.
pub const THREAD_SPEEDUP_FLOOR: f64 = 0.95;

/// The query kinds the free-answer axis of a runtime artifact must time.
const FREE_ANSWER_KINDS: [&str; 3] = ["squared", "logistic", "linear-query"];

/// The fewest trials a free-answer row's median and IQR may come from.
const FREE_ANSWER_MIN_TRIALS: f64 = 5.0;

/// Some row under `rows_key` has `key` equal to each of `names`.
fn require_rows(doc: &Json, rows_key: &str, key: &str, names: &[&str]) -> Result<(), String> {
    let rows = rows_at(doc, rows_key)?;
    for name in names {
        if !rows
            .iter()
            .any(|row| row.get(key).and_then(Json::as_str) == Some(name))
        {
            return Err(format!("{rows_key} is missing \"{name}\""));
        }
    }
    Ok(())
}

/// Validate `BENCH_runtime.json`: its columns, the `dense`/`sampled`
/// backend rows, a free-answer row for each of `FREE_ANSWER_KINDS` from
/// at least `FREE_ANSWER_MIN_TRIALS` trials, and a `threads_axis` of the
/// serial baseline plus at least one multi-worker count, one
/// `thread_scaling` row each. With `smoke: false`, every count up to
/// `machine_threads` runs at least [`THREAD_SPEEDUP_FLOOR`]× the serial
/// sweep. Smoke runs time too little work to tell, and rows past the
/// machine's threads measure oversubscription.
pub fn validate_bench_runtime(text: &str) -> Result<(), String> {
    let doc = check(text, "runtime_scaling", &[RUNTIME, PROBE])?;
    require_rows(&doc, "backend_axis", "backend", &["dense", "sampled"])?;
    require_rows(&doc, "free_answers", "kind", &FREE_ANSWER_KINDS)?;
    for (i, row) in rows_at(&doc, "free_answers")?.iter().enumerate() {
        let trials = number(row, "trials", Positive)?;
        if trials < FREE_ANSWER_MIN_TRIALS {
            return Err(format!(
                "free_answers[{i}] is the median of {trials} trials, fewer than \
                 {FREE_ANSWER_MIN_TRIALS}"
            ));
        }
    }
    let threads = axis_rows(&doc, "threads_axis", "thread_scaling", "threads")?;
    if threads.len() < 2 || !threads.iter().any(|&(t, _)| t == 1) {
        return Err(
            "threads_axis must list the serial baseline (1) and at least one \
             multi-worker count"
                .into(),
        );
    }
    let Some(Json::Bool(smoke)) = doc.get("smoke") else {
        return Err("\"smoke\" must be a bool".into());
    };
    if *smoke {
        return Ok(());
    }
    let machine = number(&doc, "machine_threads", Positive)?;
    for (t, row) in threads {
        let speedup = number(row, "speedup_vs_1thread", Positive)?;
        if t as f64 <= machine && speedup < THREAD_SPEEDUP_FLOOR {
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

/// The largest claimed-radius-to-realized-error ratio a sublinear
/// artifact may report before the schema check fails. The drift-envelope
/// bound alone was measured ~600× above the realized error at 2^16; the
/// variance-adaptive certificates sit well under this ceiling, so a
/// regression back toward envelope-only radii fails CI loudly.
pub const CALIBRATION_RATIO_CEILING: f64 = 100.0;

/// The claimed radius of `sizes[i]`, once it is checked to lie within
/// [`CALIBRATION_RATIO_CEILING`] of the row's realized error.
fn claimed_radius(i: usize, row: &Json) -> Result<f64, String> {
    let claimed = number(row, "claimed_radius_mean", NonNegative)?;
    let realized = number(row, "realized_err_mean", NonNegative)?;
    if realized > 0.0 && claimed / realized > CALIBRATION_RATIO_CEILING {
        return Err(format!(
            "sizes[{i}]: claimed radius {claimed} is {:.0}x the realized error \
             {realized} (ceiling {CALIBRATION_RATIO_CEILING})",
            claimed / realized
        ));
    }
    Ok(claimed)
}

/// Validate `BENCH_sublinear.json`: its columns; claimed radii within
/// [`CALIBRATION_RATIO_CEILING`] of the realized error and never above the
/// drift-envelope radius; and a `t_axis` of at least two increasing
/// horizons, one `long_horizon` row each, whose compacted per-round cost
/// at the largest horizon stays within [`LONG_HORIZON_FLATNESS_CEILING`]
/// of the smallest.
pub fn validate_bench_sublinear(text: &str) -> Result<(), String> {
    let doc = check(text, "sublinear_scaling", &[SUBLINEAR, PROBE])?;
    for (i, row) in group_rows(&doc, SUBLINEAR_CALIBRATION)? {
        let claimed = claimed_radius(i, row)?;
        let envelope = number(row, "envelope_radius_mean", NonNegative)?;
        if claimed > envelope {
            return Err(format!(
                "sizes[{i}]: claimed radius {claimed} exceeds the drift-envelope bound {envelope}"
            ));
        }
        let ratio = number(row, "calibration_ratio", NonNegative)?;
        if ratio > CALIBRATION_RATIO_CEILING {
            return Err(format!(
                "sizes[{i}]: calibration_ratio {ratio} exceeds ceiling {CALIBRATION_RATIO_CEILING}"
            ));
        }
    }
    let horizons = axis_rows(&doc, "t_axis", "long_horizon", "t")?;
    if horizons.len() < 2 || horizons.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err("t_axis must list at least two increasing round horizons".into());
    }
    let (t_first, first) = horizons[0];
    let (t_last, last) = horizons[horizons.len() - 1];
    let first = number(first, "per_round_ns_flat", Positive)?;
    let last = number(last, "per_round_ns_flat", Positive)?;
    if last > LONG_HORIZON_FLATNESS_CEILING * first {
        return Err(format!(
            "per_round_ns_flat is not flat in t: {last:.0} ns at t={t_last} vs {first:.0} ns \
             at t={t_first} (ceiling {LONG_HORIZON_FLATNESS_CEILING}x)"
        ));
    }
    Ok(())
}

/// Validate `BENCH_mwem.json`: its columns, claimed radii within
/// [`CALIBRATION_RATIO_CEILING`] of the realized error, and the
/// `crossover_log2_x` field (`null` when sampled never wins).
pub fn validate_bench_mwem(text: &str) -> Result<(), String> {
    let doc = check(text, "mwem_scaling", &[MWEM, PROBE])?;
    for (i, row) in group_rows(&doc, MWEM_CALIBRATION)? {
        claimed_radius(i, row)?;
    }
    match doc.get("crossover_log2_x") {
        Some(Json::Null) => Ok(()),
        Some(_) => number(&doc, "crossover_log2_x", Positive).map(drop),
        None => Err("missing \"crossover_log2_x\"".into()),
    }
}

/// Validate `BENCH_serve.json`: the multi-analyst serving record. Checks
/// every scaling row (positive qps and latency percentiles, with
/// `p50 ≤ p99`, and outcome tallies that add up to the request count),
/// and that the artifact records `machine_threads` — qps scaling itself
/// is deliberately NOT asserted: on a single-core runner every analyst
/// count multiplexes onto one CPU and the column legitimately reads flat.
pub fn validate_bench_serve(text: &str) -> Result<(), String> {
    let doc = check(text, "serve_scaling", &[SERVE])?;
    for (i, row) in rows_at(&doc, "scaling")?.iter().enumerate() {
        let get = |key| number(row, key, NonNegative);
        let (p50, p99) = (get("latency_p50_ns")?, get("latency_p99_ns")?);
        if p50 > p99 {
            return Err(format!("scaling[{i}]: latency p50 {p50} exceeds p99 {p99}"));
        }
        let tally = ["free", "updates", "failed", "rejected", "halted_replies"]
            .into_iter()
            .map(get)
            .sum::<Result<f64, String>>()?;
        let requests = get("requests")?;
        if tally != requests {
            return Err(format!(
                "scaling[{i}]: outcomes tally {tally} != requests {requests}"
            ));
        }
    }
    Ok(())
}

/// The dense per-element round cost (certificate sweep plus update with
/// read) in a `BENCH_runtime.json`, from its largest size: the last
/// `sizes` row.
pub fn runtime_dense_ns_per_elem(text: &str) -> Result<f64, String> {
    let doc = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let rows = rows_at(&doc, "sizes")?;
    let largest = &rows[rows.len() - 1];
    Ok(number(largest, "certificate_ns_per_elem", Positive)?
        + number(largest, "mw_update_with_read_ns_per_elem", Positive)?)
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
    fn required_columns_reject_non_numeric_rows() {
        let json = r#"{"rows": [{"ns": 5.0}, {"ns": 7.0}]}"#;
        let check = |text: &str, sign| {
            let doc = Json::parse(text).map_err(|e| e.to_string())?;
            check_path(&doc, "", "rows.ns", sign)
        };
        for sign in [Positive, NonNegative] {
            check(json, sign).unwrap();
            for bad in ["NaN", "null", "\"7\""] {
                assert!(check(&json.replace("7.0", bad), sign).is_err(), "{bad}");
            }
        }
        // The committed artifacts pass; one bad row fails them.
        validate_bench_runtime(include_str!("../../../BENCH_runtime.json")).unwrap();
        validate_bench_sublinear(include_str!("../../../BENCH_sublinear.json")).unwrap();
        let committed = include_str!("../../../BENCH_mwem.json");
        validate_bench_mwem(committed).unwrap();
        let key = "\"sampled_per_round_ns\": ";
        let start = committed.find(key).expect("per-round column") + key.len();
        let len = committed[start..]
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .expect("row continues");
        for bad in ["NaN", "null"] {
            let broken = format!("{}{bad}{}", &committed[..start], &committed[start + len..]);
            assert!(validate_bench_mwem(&broken).is_err(), "{bad}");
        }
        // A row that lacks a column fails by name, although other rows
        // carry it.
        let row = committed.find("{\"log2_x\": 20").expect("2^20 row");
        let start = row + committed[row..].find(key).expect("per-round column");
        let end = start + committed[start..].find(", ").expect("row continues") + 2;
        let missing = format!("{}{}", &committed[..start], &committed[end..]);
        let err = validate_bench_mwem(&missing).unwrap_err();
        assert!(err.contains("\"sizes[2].sampled_per_round_ns\""), "{err}");
        // So does a file cut before its closing brackets.
        let cut = committed
            .trim_end()
            .strip_suffix("}\n}")
            .expect("closing brackets");
        let err = validate_bench_mwem(cut).unwrap_err();
        assert!(err.contains("not JSON"), "{err}");
    }

    /// A well-formed runtime artifact.
    const RUNTIME_DOC: &str = r#"{
      "experiment": "runtime_scaling",
      "machine_threads": 2, "smoke": false,
      "sizes": [
        {"log2_x": 12, "mw_update_ns_per_elem": 1.2,
         "mw_update_with_read_ns_per_elem": 3.4,
         "mw_update_reference_ns_per_elem": 6.0,
         "certificate_ns_per_elem": 2.0,
         "end_to_end_round_ns_per_elem": 9.0}
      ],
      "backend_axis": [
        {"backend": "dense", "log2_x": 12, "round_ns": 5000.0, "point_read_ns": 2.0},
        {"backend": "sampled", "log2_x": 12, "round_ns": 800.0, "point_read_ns": 60.0}
      ],
      "free_answers": [
        {"kind": "squared", "trials": 7, "free_answers": 224,
         "free_answer_ns_median": 90000.0, "free_answer_ns_iqr": 4000.0},
        {"kind": "logistic", "trials": 7, "free_answers": 223,
         "free_answer_ns_median": 800000.0, "free_answer_ns_iqr": 30000.0},
        {"kind": "linear-query", "trials": 7, "free_answers": 224,
         "free_answer_ns_median": 30000.0, "free_answer_ns_iqr": 0.0}
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

    #[test]
    fn runtime_validator_accepts_a_well_formed_artifact() {
        let json = RUNTIME_DOC;
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
        // A full run must not slow down at a worker count the
        // machine has cores for; smoke runs and oversubscribed rows pass.
        let slow = json.replace(
            "\"speedup_vs_1thread\": 1.82",
            "\"speedup_vs_1thread\": 0.90",
        );
        assert!(validate_bench_runtime(&slow)
            .unwrap_err()
            .contains("serial sweep"));
        // The gate reads `smoke` as a bool, not as text.
        let compact = Json::parse(&slow).unwrap().to_string();
        assert!(validate_bench_runtime(&compact)
            .unwrap_err()
            .contains("serial sweep"));
        validate_bench_runtime(&slow.replace("\"smoke\": false", "\"smoke\": true")).unwrap();
        let one_core = slow.replace("\"machine_threads\": 2", "\"machine_threads\": 1");
        validate_bench_runtime(&one_core).unwrap();
    }

    #[test]
    fn runtime_validator_rejects_bad_values_and_missing_keys() {
        assert!(validate_bench_runtime("{}").is_err());
        let missing_backend = RUNTIME_DOC.replace(
            r#",
        {"backend": "sampled", "log2_x": 12, "round_ns": 800.0, "point_read_ns": 60.0}"#,
            "",
        );
        let err = validate_bench_runtime(&missing_backend).unwrap_err();
        assert!(err.contains("sampled"), "{err}");
        // The free-answer axis: every kind, each from at least five trials.
        let no_axis = RUNTIME_DOC.replace("\"free_answers\": [", "\"not_free_answers\": [");
        let err = validate_bench_runtime(&no_axis).unwrap_err();
        assert!(err.contains("free_answers"), "{err}");
        let missing_kind = RUNTIME_DOC.replace("\"kind\": \"logistic\"", "\"kind\": \"hinge\"");
        let err = validate_bench_runtime(&missing_kind).unwrap_err();
        assert!(err.contains("\"logistic\""), "{err}");
        let few = RUNTIME_DOC.replace(
            "\"trials\": 7, \"free_answers\": 223",
            "\"trials\": 4, \"free_answers\": 223",
        );
        let err = validate_bench_runtime(&few).unwrap_err();
        assert!(err.contains("free_answers[1]"), "{err}");
        let no_iqr = RUNTIME_DOC.replace("\"free_answer_ns_iqr\": 0.0", "\"iqr\": 0.0");
        let err = validate_bench_runtime(&no_iqr).unwrap_err();
        assert!(err.contains("free_answers[2].free_answer_ns_iqr"), "{err}");
        let negative = RUNTIME_DOC.replace(
            "\"certificate_ns_per_elem\": 2.0",
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
             "ess_min": 113.5,
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
        // ... as is the pool-health column, which must not read negative.
        let no_health = json.replace("\"ess_min\": 113.5,", "");
        assert!(validate_bench_sublinear(&no_health).is_err());
        let negative_ess = json.replace("\"ess_min\": 113.5,", "\"ess_min\": -1.0,");
        assert!(validate_bench_sublinear(&negative_ess).is_err());
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
             "ess_min": 113.5,
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
             "ess_min": 113.5,
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
        // A row without an outcome column fails by row and key.
        let no_free = json.replace("\"free\": 500, ", "");
        let err = validate_bench_serve(&no_free).unwrap_err();
        assert!(err.contains("\"scaling[1].free\""), "{err}");
        // A runtime artifact is not a serving artifact.
        assert!(validate_bench_serve("{\"experiment\": \"runtime_scaling\"}").is_err());
    }

    #[test]
    fn dense_reference_reads_the_largest_size_row() {
        let committed = include_str!("../../../BENCH_runtime.json");
        let ns = runtime_dense_ns_per_elem(committed).unwrap();
        assert!((ns - 26.315579175949097).abs() < 1e-9, "{ns}");
        assert!(runtime_dense_ns_per_elem(r#"{"sizes": []}"#).is_err());
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
