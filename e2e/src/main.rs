//! `e2e` — the repository's end-to-end benchmark.
//!
//! Every workload runs the whole chain: profiles → KNN graph at the
//! recall floor → served → update visible. See README.md beside this
//! package for the workloads, the metrics and how they map to layers.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one workload, in
//!                                   this process; the benchmark driver's call
//! e2e run  --seed N [--repeats R] [--trace FILE] [--out FILE] [--smoke]
//!                                   every workload, each in a fresh process
//! e2e ledger FILE                   per-layer self-time table of a trace
//! e2e diff A.json B.json            ok / regressed / unresolved per metric
//! e2e spec                          print BENCHMARK.json
//! ```

mod commands;
mod host;
mod json;
mod load;
mod pipeline;
mod spec;
mod stats;
mod timed;
mod trace;

use std::process::ExitCode;

/// `--name value` anywhere in `args`.
fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parses `--name value`, with a default when the option is absent.
fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match opt(args, name) {
        None if flag(args, name) => Err(format!("{name} needs a value")),
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{name}: cannot read {raw:?}")),
    }
}

const USAGE: &str = "usage:
  e2e --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--detail FILE] [--trace-out FILE]
  e2e run --seed N [--seconds S] [--repeats R] [--trace FILE] [--out FILE] [--smoke]
  e2e ledger TRACE.json
  e2e diff A.json B.json
  e2e spec";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => commands::run_all(&args[1..]),
        Some("ledger") => commands::ledger(&args[1..]),
        Some("diff") => commands::diff(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        _ if opt(&args, "--workload").is_some() => commands::run_one(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}
