//! CI gate: validate the machine-readable bench artifacts.
//!
//! Reads `BENCH_runtime.json`, `BENCH_sublinear.json` and
//! `BENCH_mwem.json` from the working directory (or the paths given as
//! arguments, in that order), parses each, and checks every row by path
//! (`pmw_bench::schema`): required keys present, every ns-per-element /
//! per-round figure finite and positive, the backend axis complete, the
//! answer-error columns populated, and the probed-run phase table. A fourth
//! argument names a JSONL run trace to validate against the pmw-obs v1
//! schema; `bench_schema_check --trace <path>` validates only the trace
//! (the observability CI job, which regenerates no bench artifacts), and
//! `bench_schema_check --serve <path>` validates only a
//! `BENCH_serve.json` serving artifact (the serving CI job).
//! Exits nonzero on the first violation, naming the row and key
//! (`sizes[2].log2_x`) or the byte where a file stops being JSON.

use pmw_bench::schema::{
    validate_bench_mwem, validate_bench_runtime, validate_bench_serve, validate_bench_sublinear,
    validate_trace,
};
use std::process::ExitCode;

fn check(path: &str, validate: fn(&str) -> Result<(), String>) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    validate(&json).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: ok");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let checks: Vec<Result<(), String>> = if args.first().map(String::as_str) == Some("--trace") {
        match args.get(1) {
            Some(trace) => vec![check(trace, validate_trace)],
            None => {
                eprintln!("usage: bench_schema_check --trace <trace.jsonl>");
                return ExitCode::FAILURE;
            }
        }
    } else if args.first().map(String::as_str) == Some("--serve") {
        let serve = args.get(1).map_or("BENCH_serve.json", String::as_str);
        let mut checks = vec![check(serve, validate_bench_serve)];
        // `--serve <artifact> <trace.jsonl>` also validates the serve trace.
        if let Some(trace) = args.get(2) {
            checks.push(check(trace, validate_trace));
        }
        checks
    } else {
        let runtime = args.first().map_or("BENCH_runtime.json", String::as_str);
        let sublinear = args.get(1).map_or("BENCH_sublinear.json", String::as_str);
        let mwem = args.get(2).map_or("BENCH_mwem.json", String::as_str);
        let mut checks = vec![
            check(runtime, validate_bench_runtime),
            check(sublinear, validate_bench_sublinear),
            check(mwem, validate_bench_mwem),
        ];
        if let Some(trace) = args.get(3) {
            checks.push(check(trace, validate_trace));
        }
        checks
    };
    for c in checks {
        if let Err(e) = c {
            eprintln!("schema check failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("bench artifacts validate");
    ExitCode::SUCCESS
}
