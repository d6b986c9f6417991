//! The command-line entry points: one workload in this process, every
//! workload each in a fresh child, the trace ledger, and the diff.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::pipeline::{self, Options, Outcome};
use crate::spec::{self, Metric};
use crate::stats::{median, spread};
use crate::trace::{self, Span};
use crate::{flag, host, opt, parsed};

/// A workload whose host probes moved by more than this between its
/// start and its end measured the host, not the program.
const DRIFT_LIMIT: f64 = 0.10;

fn work_dir() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    Ok(cwd.join(".bench_work"))
}

fn metrics_json(outcome: &Outcome, set: &[Metric]) -> Json {
    Json::Obj(
        set.iter()
            .map(|m| {
                let value = outcome.values.get(m.name).copied().unwrap_or(0.0);
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::num(value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The full record of one run, for `run` to collect from its children.
fn detail_json(outcome: &Outcome, name: &str, seed: u64, seconds: f64, traced: bool) -> Json {
    let flat = |set: &[Metric]| {
        Json::Obj(
            set.iter()
                .filter_map(|m| {
                    outcome
                        .values
                        .get(m.name)
                        .map(|&v| (m.name.to_string(), Json::num(v)))
                })
                .collect(),
        )
    };
    Json::obj(vec![
        ("workload", Json::str(name)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(traced)),
        ("correct", Json::Bool(outcome.breaches.is_empty())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "breaches",
            Json::Arr(outcome.breaches.iter().map(Json::str).collect()),
        ),
        ("digest", Json::str(format!("{:016x}", outcome.digest))),
        ("sizes", outcome.detail.clone()),
        ("end_to_end", flat(spec::END_TO_END)),
        ("per_layer", flat(spec::PER_LAYER)),
    ])
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `e2e --workload …`: runs one workload in this process and prints,
/// last, the one-line result the benchmark driver reads.
pub fn run_one(args: &[String]) -> Result<bool, String> {
    let name = opt(args, "--workload").ok_or("--workload needs a name")?;
    let known = || {
        let names: Vec<&str> = spec::workloads().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    };
    let mut workload = spec::workload(name).ok_or_else(known)?;
    if flag(args, "--smoke") {
        workload = spec::smoke(workload);
    }
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds.is_finite() && (0.1..=600.0).contains(&seconds)) {
        return Err(format!("--seconds {seconds} is outside 0.1..=600"));
    }
    let traced = match opt(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let options = Options {
        workload,
        seed,
        seconds,
        trace: traced,
        work_dir: work_dir()?,
    };
    let outcome = pipeline::run(&options)?;

    let set = if traced {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    println!(
        "{name} seed={seed} seconds={seconds} trace={} digest={:016x}",
        traced as u8, outcome.digest
    );
    for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
        if let Some(value) = outcome.values.get(m.name) {
            let exact = if m.exact { " =" } else { "" };
            println!("  {:<32} {:>16.4} {}{exact}", m.name, value, m.unit);
        }
    }
    for breach in &outcome.breaches {
        println!("  BREACH: {breach}");
    }
    if let Some(path) = opt(args, "--detail") {
        let detail = detail_json(&outcome, name, seed, seconds, traced);
        write_file(path, &detail.pretty())?;
    }
    if let Some(path) = opt(args, "--trace-out") {
        let spans: Vec<Json> = outcome
            .spans
            .iter()
            .map(|s| trace::span_to_json(s, name))
            .collect();
        write_file(path, &Json::Arr(spans).encode())?;
    }
    let correct = outcome.breaches.is_empty();
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&outcome, set)),
    ]);
    println!("{}", line.encode());
    Ok(correct)
}

/// Runs one workload in a fresh child process (so its `VmHWM` is its
/// own) and reads back its detailed record and, when traced, its spans.
fn run_child(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    scratch: &Path,
) -> Result<(Json, Vec<Json>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let detail = scratch.join(format!("{name}.detail.json"));
    let spans = scratch.join(format!("{name}.spans.json"));
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .stdout(std::process::Stdio::null());
    if traced {
        command.arg("--trace-out").arg(&spans);
    }
    if smoke {
        command.arg("--smoke");
    }
    let status = command
        .status()
        .map_err(|e| format!("starting {name}: {e}"))?;
    // Exit 1 is a gate breach: the record says which. Anything else
    // means there is no record to read.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("{name} ended with {status}"));
    }
    let record = read_json(&detail.to_string_lossy())?;
    let spans = if traced {
        read_json(&spans.to_string_lossy())?.as_arr().to_vec()
    } else {
        Vec::new()
    };
    Ok((record, spans))
}

fn value_of(record: &Json, section: &str, metric: &str) -> Option<f64> {
    record.get(section)?.get(metric)?.as_f64()
}

/// Medians of a metric over a workload's runs.
fn median_of(runs: &[Json], section: &str, metric: &str) -> Option<f64> {
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| value_of(r, section, metric))
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

/// `e2e run`: every workload, each in a fresh child, interleaved across
/// repeats; optionally a separate traced pass; one JSON document.
pub fn run_all(args: &[String]) -> Result<bool, String> {
    let seed: u64 = parsed(args, "--seed", 1)?;
    let smoke = flag(args, "--smoke");
    let default_seconds = if smoke { 2.0 } else { spec::RUN_SECONDS as f64 };
    let seconds: f64 = parsed(args, "--seconds", default_seconds)?;
    let repeats: usize = parsed(args, "--repeats", 1)?;
    if repeats == 0 {
        return Err("--repeats must be at least 1".into());
    }
    let trace_path = opt(args, "--trace");
    let scratch = work_dir()?.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let workloads = spec::workloads();
    let mut runs: BTreeMap<&str, Vec<Json>> = BTreeMap::new();
    let mut ok = true;
    for repeat in 0..repeats {
        // Rotating the order spreads slow host drift over the
        // workloads instead of landing it on one.
        for slot in 0..workloads.len() {
            let w = &workloads[(slot + repeat) % workloads.len()];
            eprintln!("run {}/{repeats}: {}", repeat + 1, w.name);
            let drift_of =
                |record: &Json| value_of(record, "per_layer", "host.probe_drift").unwrap_or(0.0);
            let (mut record, _) = run_child(w.name, seed, seconds, false, smoke, &scratch)?;
            let rerun = drift_of(&record) > DRIFT_LIMIT;
            if rerun {
                eprintln!("  host probes drifted: running it again");
                record = run_child(w.name, seed, seconds, false, smoke, &scratch)?.0;
            }
            let drift = drift_of(&record);
            if let Json::Obj(pairs) = &mut record {
                pairs.push(("drifted".into(), Json::Bool(drift > DRIFT_LIMIT)));
                pairs.push(("rerun".into(), Json::Bool(rerun)));
            }
            ok &= record.get("correct").and_then(Json::as_bool) == Some(true);
            runs.entry(w.name).or_default().push(record);
        }
    }

    // The traced pass is separate: end-to-end numbers come from the
    // runs above, per-layer timings from this one, and the gap between
    // the two is what tracing costs.
    let mut traced: BTreeMap<&str, Json> = BTreeMap::new();
    if let Some(path) = trace_path {
        let mut all_spans = Vec::new();
        for w in &workloads {
            eprintln!("traced: {}", w.name);
            let (record, spans) = run_child(w.name, seed, seconds, true, smoke, &scratch)?;
            all_spans.extend(spans);
            traced.insert(w.name, record);
        }
        let doc = Json::obj(vec![
            ("schema", Json::str("knn-e2e-trace/1")),
            (
                "sampling",
                Json::obj(vec![(
                    "request.lookup",
                    Json::Num(trace::LOOKUP_SAMPLING as f64),
                )]),
            ),
            ("spans", Json::Arr(all_spans)),
        ]);
        write_file(path, &doc.encode())?;
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let mut entries = Vec::new();
    for w in &workloads {
        let records = &runs[w.name];
        let digests: Vec<&str> = records
            .iter()
            .filter_map(|r| r.get("digest")?.as_str())
            .collect();
        let digests_agree = digests.windows(2).all(|d| d[0] == d[1]);
        if !digests_agree {
            ok = false;
            eprintln!(
                "{}: graph digests differ across repeats: {digests:?}",
                w.name
            );
        }
        let mut pairs = vec![
            ("name", Json::str(w.name)),
            ("digests_agree", Json::Bool(digests_agree)),
            ("runs", Json::Arr(records.clone())),
        ];
        if let Some(record) = traced.get(w.name) {
            let overhead = |section: &str, metric: &str| {
                let base = median_of(records, section, metric)?;
                let with = value_of(record, section, metric)?;
                Some(with / base - 1.0)
            };
            pairs.push(("traced", record.clone()));
            pairs.push((
                "tracing_overhead",
                Json::obj(vec![
                    (
                        "converge_s",
                        overhead("end_to_end", "converge_s").map_or(Json::Null, Json::num),
                    ),
                    (
                        "lookup_rps",
                        overhead("end_to_end", "lookup_rps").map_or(Json::Null, Json::num),
                    ),
                ]),
            ));
        }
        entries.push(Json::obj(pairs));
        print_summary(w.name, records, traced.get(w.name));
    }

    let doc = Json::obj(vec![
        ("schema", Json::str("knn-e2e/1")),
        (
            "meta",
            Json::obj(vec![
                ("git_rev", Json::str(host::git_rev())),
                ("rustc", Json::str(host::rustc_version())),
                ("nproc", Json::Num(host::nproc() as f64)),
                ("seed", Json::Num(seed as f64)),
                ("seconds", Json::Num(seconds)),
                ("repeats", Json::Num(repeats as f64)),
                ("smoke", Json::Bool(smoke)),
            ]),
        ),
        ("workloads", Json::Arr(entries)),
    ]);
    match opt(args, "--out") {
        Some(path) => write_file(path, &doc.pretty())?,
        None => print!("{}", doc.pretty()),
    }
    Ok(ok)
}

/// Every metric by name with its unit, to stderr: the median over the
/// untraced runs, or the traced run's value for what only it measures.
fn print_summary(name: &str, records: &[Json], traced: Option<&Json>) {
    eprintln!("\n{name}  ({} run(s))", records.len());
    for (section, set) in [
        ("end_to_end", spec::END_TO_END),
        ("per_layer", spec::PER_LAYER),
    ] {
        for m in set {
            let value = median_of(records, section, m.name)
                .or_else(|| traced.and_then(|t| value_of(t, section, m.name)));
            if let Some(value) = value {
                let exact = if m.exact { " =" } else { "" };
                eprintln!("  {:<32} {:>16.4} {}{exact}", m.name, value, m.unit);
            }
        }
    }
    for record in records {
        let failed = record.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let attempted = record
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        eprintln!(
            "  operations: {attempted} attempted, {failed} failed; digest {}",
            record.get("digest").and_then(Json::as_str).unwrap_or("?")
        );
        for breach in record.get("breaches").map(Json::as_arr).unwrap_or(&[]) {
            eprintln!("  BREACH: {}", breach.as_str().unwrap_or("?"));
        }
    }
}

/// `e2e ledger FILE`: the per-layer self-time table of each workload in
/// a trace file.
pub fn ledger(args: &[String]) -> Result<bool, String> {
    let path = args.first().ok_or("ledger needs a trace file")?;
    let doc = read_json(path)?;
    let mut by_workload: BTreeMap<String, Vec<Span>> = BTreeMap::new();
    for value in doc.get("spans").map(Json::as_arr).unwrap_or(&[]) {
        let (workload, span) =
            trace::span_from_json(value).ok_or_else(|| format!("{path}: a malformed span"))?;
        by_workload.entry(workload).or_default().push(span);
    }
    if by_workload.is_empty() {
        return Err(format!("{path}: no spans"));
    }
    // Written through `write!`, not `println!`: a reader that stops
    // early (`| head`) is not an error worth a panic.
    let mut out = std::io::stdout().lock();
    for (workload, spans) in &by_workload {
        let table = trace::render_ledger(workload, &trace::ledger(spans));
        if writeln!(out, "{table}").is_err() {
            break;
        }
    }
    Ok(true)
}

/// One row of a diff.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread on either side is wider than the bound, so
    /// "no worse" cannot be told from "worse".
    Unresolved,
}

/// Judges one end-to-end metric: `before` and `after` are each side's
/// values over its runs.
pub fn judge(metric: &Metric, before: &[f64], after: &[f64]) -> Verdict {
    let (a, b) = (median(before), median(after));
    if !(a.is_finite() && b.is_finite()) || a == 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = match metric.better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    };
    if worse_by > metric.bound {
        return Verdict::Regressed;
    }
    // Quartiles of fewer than four runs say nothing about spread.
    let wide =
        |values: &[f64]| values.len() >= 4 && spread(values).is_some_and(|s| s > metric.bound);
    if wide(before) || wide(after) {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

fn values_of(runs: &[Json], section: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| value_of(r, section, metric))
        .collect()
}

/// `e2e diff A.json B.json`: A is the baseline.
pub fn diff(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("diff needs two run documents".into());
    };
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let entry = |doc: &Json, name: &str| -> Option<Json> {
        doc.get("workloads")?
            .as_arr()
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .cloned()
    };
    let mut regressions = 0usize;
    let mut unresolved = 0usize;
    println!(
        "{:<20} {:<26} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for w in spec::workloads() {
        let (Some(wa), Some(wb)) = (entry(&a, w.name), entry(&b, w.name)) else {
            println!("{:<20} missing from one side", w.name);
            regressions += 1;
            continue;
        };
        let runs_a = wa.get("runs").map(Json::as_arr).unwrap_or(&[]).to_vec();
        let runs_b = wb.get("runs").map(Json::as_arr).unwrap_or(&[]).to_vec();
        let row = |metric: &str, va: f64, vb: f64, verdict: &str| {
            let change = if va != 0.0 {
                (vb / va - 1.0) * 100.0
            } else {
                0.0
            };
            println!(
                "{:<20} {:<26} {:>14.4} {:>14.4} {:>+7.1}%  {verdict}",
                w.name, metric, va, vb, change
            );
        };
        for m in spec::END_TO_END {
            let va = values_of(&runs_a, "end_to_end", m.name);
            let vb = values_of(&runs_b, "end_to_end", m.name);
            let verdict = judge(m, &va, &vb);
            match verdict {
                Verdict::Regressed => regressions += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            };
            row(m.name, median(&va), median(&vb), word);
        }
        // Counts that repeat exactly for a seed must be equal on every
        // run of both sides; from the traced record too where both
        // sides have one.
        let mut sides: Vec<(Vec<Json>, Vec<Json>)> = vec![(runs_a.clone(), runs_b.clone())];
        if let (Some(ta), Some(tb)) = (wa.get("traced"), wb.get("traced")) {
            sides.push((vec![ta.clone()], vec![tb.clone()]));
        }
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            for (side_a, side_b) in &sides {
                let mut all = values_of(side_a, "per_layer", m.name);
                all.extend(values_of(side_b, "per_layer", m.name));
                if all.windows(2).any(|p| p[0] != p[1]) {
                    regressions += 1;
                    row(
                        m.name,
                        all[0],
                        *all.last().expect("two values"),
                        "COUNT DIFFERS",
                    );
                }
            }
        }
        let digests = |runs: &[Json]| -> Vec<String> {
            runs.iter()
                .filter_map(|r| Some(r.get("digest")?.as_str()?.to_string()))
                .collect()
        };
        let mut all = digests(&runs_a);
        all.extend(digests(&runs_b));
        if all.windows(2).any(|p| p[0] != p[1]) {
            regressions += 1;
            println!("{:<20} graph digests differ: {all:?}", w.name);
        }
        let failed_share = |runs: &[Json]| {
            let sum = |key: &str| -> f64 {
                runs.iter()
                    .filter_map(|r| r.get(key)?.as_f64())
                    .sum::<f64>()
            };
            let attempted = sum("attempted");
            if attempted > 0.0 {
                sum("failed") / attempted
            } else {
                0.0
            }
        };
        let (fa, fb) = (failed_share(&runs_a), failed_share(&runs_b));
        if fb > fa {
            regressions += 1;
            row("failed operation share", fa, fb, "MORE FAILURES");
        }
    }
    println!("\n{regressions} regression(s), {unresolved} unresolved");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Metric {
        Metric {
            name: "t",
            unit: "ms",
            better: "lower",
            bound,
            exact: false,
        }
    }

    #[test]
    fn diff_thresholds_follow_direction_and_bound() {
        let m = lower(0.10);
        assert_eq!(judge(&m, &[100.0], &[109.9]), Verdict::Ok);
        assert_eq!(judge(&m, &[100.0], &[110.1]), Verdict::Regressed);
        // Getting better is never a regression, however far.
        assert_eq!(judge(&m, &[100.0], &[10.0]), Verdict::Ok);
        let h = Metric {
            better: "higher",
            ..lower(0.10)
        };
        assert_eq!(judge(&h, &[100.0], &[90.1]), Verdict::Ok);
        assert_eq!(judge(&h, &[100.0], &[89.9]), Verdict::Regressed);
        assert_eq!(judge(&h, &[100.0], &[500.0]), Verdict::Ok);
    }

    #[test]
    fn diff_compares_medians_and_calls_wide_spreads_unresolved() {
        let m = lower(0.10);
        // Medians 100 vs 104: fine, and both sides are tight.
        let a = [99.0, 100.0, 101.0, 100.0, 100.5];
        let b = [103.0, 104.0, 105.0, 104.0, 104.5];
        assert_eq!(judge(&m, &a, &b), Verdict::Ok);
        // Same medians, but A's quartiles are 30% apart: cannot tell.
        let noisy = [80.0, 100.0, 120.0, 85.0, 115.0];
        assert_eq!(judge(&m, &noisy, &b), Verdict::Unresolved);
        // A clear regression stays one even when noisy.
        assert_eq!(judge(&m, &noisy, &[150.0, 151.0]), Verdict::Regressed);
        // Two runs a side have no quartiles worth the name: judged on
        // their medians alone.
        assert_eq!(judge(&m, &[90.0, 110.0], &[95.0, 112.0]), Verdict::Ok);
        // Nothing to compare is unresolved, not ok.
        assert_eq!(judge(&m, &[], &[1.0]), Verdict::Unresolved);
    }
}
