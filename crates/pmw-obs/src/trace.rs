//! The versioned JSONL trace schema: [`TraceEvent`] plus its serializer
//! and parser.
//!
//! Every line of a trace is one flat JSON object carrying the schema
//! version (`"v"`) and an event kind (`"kind"`). Schema **v1**:
//!
//! | kind          | fields                                              |
//! |---------------|-----------------------------------------------------|
//! | `run_start`   | `mechanism` (str), `detail` (str)                   |
//! | `round_begin` | `round` (u64)                                       |
//! | `round_end`   | `round` (u64), `outcome` (str), `ns` (u64)          |
//! | `span`        | `phase` (str), `round` (u64), `ns` (u64)            |
//! | `gauge`       | `gauge` (str), `round` (u64), `value` (f64)         |
//! | `counter`     | `counter` (str), `round` (u64), `delta` (u64)       |
//! | `note`        | `key` (str), `value` (str), `round` (u64)           |
//! | `run_end`     | `events` (u64)                                      |
//!
//! `phase`/`gauge`/`counter` names are the snake_case vocabularies of
//! [`Phase::as_str`], [`Gauge::as_str`], [`Counter::as_str`]. Span/round
//! durations are monotonic-clock nanoseconds. Non-finite gauge values are
//! encoded as the quoted strings `"inf"`, `"-inf"`, `"nan"` (JSON has no
//! literals for them); finite values use Rust's shortest round-trip
//! float formatting, so serialize → parse is bit-exact.
//!
//! Lines are written and read through [`crate::json`]. The reader is
//! strict: it rejects unknown kinds, unknown vocabulary names, and
//! malformed lines with a [`TraceParseError`].

use crate::json::Json;
use crate::json_object;
use crate::probe::{Counter, Gauge, Phase};

/// Current trace schema version, written into every line.
pub const TRACE_VERSION: u64 = 1;

/// One observation in a run trace. The in-memory form of a JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A mechanism run began.
    RunStart {
        /// Mechanism name (`"online_pmw"`, `"mwem"`, …).
        mechanism: String,
        /// Free-form run description (sizes, config).
        detail: String,
    },
    /// Round `round` (0-based) began.
    RoundBegin {
        /// The round index.
        round: u64,
    },
    /// Round `round` ended after `ns` nanoseconds.
    RoundEnd {
        /// The round index.
        round: u64,
        /// Mechanism-defined outcome label (`"free"`, `"update"`, …).
        outcome: String,
        /// Wall-clock round duration (monotonic), nanoseconds.
        ns: u64,
    },
    /// A timed phase inside round `round` took `ns` nanoseconds.
    Span {
        /// Which phase.
        phase: Phase,
        /// Round the span belongs to.
        round: u64,
        /// Span duration (monotonic), nanoseconds.
        ns: u64,
    },
    /// A gauge reading.
    Gauge {
        /// Which gauge.
        gauge: Gauge,
        /// Round the reading belongs to.
        round: u64,
        /// The reading.
        value: f64,
    },
    /// A counter bump.
    Counter {
        /// Which counter.
        counter: Counter,
        /// Round the bump belongs to.
        round: u64,
        /// Increment.
        delta: u64,
    },
    /// A free-form annotation.
    Note {
        /// Annotation key.
        key: String,
        /// Annotation value.
        value: String,
        /// Round the note belongs to.
        round: u64,
    },
    /// The run ended; `events` counts every preceding line of the trace.
    RunEnd {
        /// Number of events emitted before this one.
        events: u64,
    },
}

/// Why a trace line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The line is not the flat JSON object the schema prescribes.
    Malformed(&'static str),
    /// The `"v"` field is missing or not [`TRACE_VERSION`].
    Version(u64),
    /// The `"kind"` field names no known event kind.
    UnknownKind(String),
    /// A known kind is missing a required field.
    MissingField(&'static str),
    /// A `phase`/`gauge`/`counter` name is outside the vocabulary.
    UnknownName(String),
    /// A numeric field failed to parse.
    BadNumber(&'static str),
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::Malformed(what) => write!(f, "malformed trace line: {what}"),
            TraceParseError::Version(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (expected {TRACE_VERSION})"
                )
            }
            TraceParseError::UnknownKind(k) => write!(f, "unknown trace event kind {k:?}"),
            TraceParseError::MissingField(name) => write!(f, "missing trace field {name:?}"),
            TraceParseError::UnknownName(n) => write!(f, "unknown vocabulary name {n:?}"),
            TraceParseError::BadNumber(name) => write!(f, "non-numeric trace field {name:?}"),
        }
    }
}

impl std::error::Error for TraceParseError {}

impl TraceEvent {
    /// Serialize to one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let v = TRACE_VERSION;
        let line = match self {
            TraceEvent::RunStart { mechanism, detail } => json_object! {
                "v": v, "kind": "run_start",
                "mechanism": mechanism.as_str(), "detail": detail.as_str(),
            },
            TraceEvent::RoundBegin { round } => json_object! {
                "v": v, "kind": "round_begin", "round": *round
            },
            TraceEvent::RoundEnd { round, outcome, ns } => json_object! {
                "v": v, "kind": "round_end", "round": *round, "outcome": outcome.as_str(), "ns": *ns
            },
            TraceEvent::Span { phase, round, ns } => json_object! {
                "v": v, "kind": "span", "phase": phase.as_str(), "round": *round, "ns": *ns
            },
            TraceEvent::Gauge {
                gauge,
                round,
                value,
            } => json_object! {
                "v": v, "kind": "gauge", "gauge": gauge.as_str(), "round": *round, "value": *value
            },
            TraceEvent::Counter {
                counter,
                round,
                delta,
            } => json_object! {
                "v": v, "kind": "counter",
                "counter": counter.as_str(), "round": *round, "delta": *delta,
            },
            TraceEvent::Note { key, value, round } => json_object! {
                "v": v, "kind": "note",
                "key": key.as_str(), "value": value.as_str(), "round": *round,
            },
            TraceEvent::RunEnd { events } => json_object! {
                "v": v, "kind": "run_end", "events": *events
            },
        };
        line.to_string()
    }

    /// Parse one JSONL line back into an event. Strict: unknown kinds,
    /// out-of-vocabulary names, wrong version, and malformed JSON are
    /// errors, not skips.
    pub fn parse_line(line: &str) -> Result<TraceEvent, TraceParseError> {
        let line = Json::parse(line).map_err(|e| TraceParseError::Malformed(e.what))?;
        if !matches!(line, Json::Object(_)) {
            return Err(TraceParseError::Malformed("expected an object"));
        }
        let get = |name: &'static str| line.get(name).ok_or(TraceParseError::MissingField(name));
        let get_u64 = |name: &'static str| {
            get(name)?
                .as_number()
                .ok_or(TraceParseError::BadNumber(name))
        };
        let get_str = |name: &'static str| -> Result<String, TraceParseError> {
            get(name)?
                .as_str()
                .map(str::to_string)
                .ok_or(TraceParseError::Malformed("expected a string field"))
        };
        // The one reader of quoted non-finite numbers: gauge values.
        let get_f64 = |name: &'static str| {
            let value = get(name)?;
            match value.as_str() {
                Some("inf") => Ok(f64::INFINITY),
                Some("-inf") => Ok(f64::NEG_INFINITY),
                Some("nan") => Ok(f64::NAN),
                _ => value.as_number().ok_or(TraceParseError::BadNumber(name)),
            }
        };

        let version = get_u64("v")?;
        if version != TRACE_VERSION {
            return Err(TraceParseError::Version(version));
        }
        let kind = get_str("kind")?;
        match kind.as_str() {
            "run_start" => Ok(TraceEvent::RunStart {
                mechanism: get_str("mechanism")?,
                detail: get_str("detail")?,
            }),
            "round_begin" => Ok(TraceEvent::RoundBegin {
                round: get_u64("round")?,
            }),
            "round_end" => Ok(TraceEvent::RoundEnd {
                round: get_u64("round")?,
                outcome: get_str("outcome")?,
                ns: get_u64("ns")?,
            }),
            "span" => Ok(TraceEvent::Span {
                phase: vocab(get_str("phase")?, Phase::from_name)?,
                round: get_u64("round")?,
                ns: get_u64("ns")?,
            }),
            "gauge" => Ok(TraceEvent::Gauge {
                gauge: vocab(get_str("gauge")?, Gauge::from_name)?,
                round: get_u64("round")?,
                value: get_f64("value")?,
            }),
            "counter" => Ok(TraceEvent::Counter {
                counter: vocab(get_str("counter")?, Counter::from_name)?,
                round: get_u64("round")?,
                delta: get_u64("delta")?,
            }),
            "note" => Ok(TraceEvent::Note {
                key: get_str("key")?,
                value: get_str("value")?,
                round: get_u64("round")?,
            }),
            "run_end" => Ok(TraceEvent::RunEnd {
                events: get_u64("events")?,
            }),
            _ => Err(TraceParseError::UnknownKind(kind)),
        }
    }

    /// Parse a whole trace (one event per non-empty line).
    pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, TraceParseError> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(TraceEvent::parse_line)
            .collect()
    }
}

/// The vocabulary entry `name`, or [`TraceParseError::UnknownName`].
fn vocab<T>(name: String, from_name: fn(&str) -> Option<T>) -> Result<T, TraceParseError> {
    from_name(&name).ok_or(TraceParseError::UnknownName(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                mechanism: "online_pmw".into(),
                detail: "log2_universe=16 \"quoted\"\nnewline\tand\\slash".into(),
            },
            TraceEvent::RoundBegin { round: 0 },
            TraceEvent::Span {
                phase: Phase::HypothesisSolve,
                round: 0,
                ns: 12_345,
            },
            TraceEvent::Gauge {
                gauge: Gauge::EpsSpent,
                round: 0,
                value: 0.125,
            },
            TraceEvent::Gauge {
                gauge: Gauge::ClaimedRadius,
                round: 0,
                value: 1e-300,
            },
            TraceEvent::Gauge {
                gauge: Gauge::DriftBound,
                round: 0,
                value: f64::INFINITY,
            },
            TraceEvent::Counter {
                counter: Counter::OracleRetries,
                round: 0,
                delta: 2,
            },
            TraceEvent::Note {
                key: "bound".into(),
                value: "bernstein".into(),
                round: 0,
            },
            TraceEvent::RoundEnd {
                round: 0,
                outcome: "update".into(),
                ns: 99_000,
            },
            TraceEvent::RunEnd { events: 8 },
        ]
    }

    #[test]
    fn every_kind_round_trips_exactly() {
        // Schema v1, byte for byte.
        let v1 = [
            r#"{"v":1,"kind":"run_start","mechanism":"online_pmw","detail":"log2_universe=16 \"quoted\"\nnewline\tand\\slash"}"#,
            r#"{"v":1,"kind":"round_begin","round":0}"#,
            r#"{"v":1,"kind":"span","phase":"hypothesis_solve","round":0,"ns":12345}"#,
            r#"{"v":1,"kind":"gauge","gauge":"eps_spent","round":0,"value":0.125}"#,
            r#"{"v":1,"kind":"gauge","gauge":"claimed_radius","round":0,"value":1e-300}"#,
            r#"{"v":1,"kind":"gauge","gauge":"drift_bound","round":0,"value":"inf"}"#,
            r#"{"v":1,"kind":"counter","counter":"oracle_retries","round":0,"delta":2}"#,
            r#"{"v":1,"kind":"note","key":"bound","value":"bernstein","round":0}"#,
            r#"{"v":1,"kind":"round_end","round":0,"outcome":"update","ns":99000}"#,
            r#"{"v":1,"kind":"run_end","events":8}"#,
        ];
        for (ev, v1) in sample_events().into_iter().zip(v1) {
            let line = ev.to_json_line();
            assert_eq!(line, v1);
            let back = TraceEvent::parse_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(back, ev, "{line}");
            // And serialization is idempotent through a parse.
            assert_eq!(back.to_json_line(), line);
        }
    }

    #[test]
    fn nan_gauges_round_trip_at_the_line_level() {
        let ev = TraceEvent::Gauge {
            gauge: Gauge::SvMargin,
            round: 3,
            value: f64::NAN,
        };
        let line = ev.to_json_line();
        assert!(line.contains("\"nan\""));
        let back = TraceEvent::parse_line(&line).unwrap();
        match back {
            TraceEvent::Gauge { value, .. } => assert!(value.is_nan()),
            other => panic!("{other:?}"),
        }
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn finite_values_round_trip_bit_for_bit() {
        for &v in &[
            0.0,
            -0.0,
            1.0 / 3.0,
            1e308,
            5e-324,
            -2.5e-10,
            123456789.123456,
        ] {
            let ev = TraceEvent::Gauge {
                gauge: Gauge::Ess,
                round: 0,
                value: v,
            };
            match TraceEvent::parse_line(&ev.to_json_line()).unwrap() {
                TraceEvent::Gauge { value, .. } => {
                    assert_eq!(value.to_bits(), v.to_bits(), "{v}")
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn parse_trace_reads_lines_and_skips_blanks() {
        let events = sample_events();
        let text: String = events
            .iter()
            .map(|e| e.to_json_line() + "\n")
            .collect::<String>()
            + "\n  \n";
        let back = TraceEvent::parse_trace(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn strict_parsing_rejects_bad_lines() {
        use TraceParseError as E;
        let cases: &[(&str, E)] = &[
            ("", E::Malformed("expected a value")),
            ("{\"v\":1}", E::MissingField("kind")),
            ("{\"kind\":\"span\"}", E::MissingField("v")),
            ("{\"v\":2,\"kind\":\"run_end\",\"events\":0}", E::Version(2)),
            ("{\"v\":1,\"kind\":\"warp\"}", E::UnknownKind("warp".into())),
            (
                "{\"v\":1,\"kind\":\"span\",\"phase\":\"sideways\",\"round\":0,\"ns\":1}",
                E::UnknownName("sideways".into()),
            ),
            (
                "{\"v\":1,\"kind\":\"round_begin\",\"round\":-3}",
                E::BadNumber("round"),
            ),
            (
                "{\"v\":1,\"kind\":\"run_end\",\"events\":1} trailing",
                E::Malformed("trailing characters after the value"),
            ),
        ];
        for (line, want) in cases {
            assert_eq!(&TraceEvent::parse_line(line).unwrap_err(), want, "{line}");
        }
        // Errors display as readable one-liners.
        assert!(E::Version(2).to_string().contains("expected 1"));
    }
}
