//! `e2e` — the end-to-end benchmark of the AIVRIL2 reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/examples/e2e/Cargo.toml -- \
//!     --workload grid_cold --seed 1 --seconds 20 --trace 0 [--json out.json]
//! ```
//!
//! Runs one workload (`grid_cold`, `grid_cached`, `serve_trickle`,
//! `serve_load`), checks its outputs, prints every metric by name with
//! its unit, and ends with one JSON result line. `--trace 1` prints the
//! per-layer metrics instead of the end-to-end ones. Without
//! `--workload` every workload runs, each in a fresh child process;
//! `--repeat N` does that N times, alternating the order, and prints
//! each metric's median, quartiles and spread. See README.md beside
//! this package.

mod grid;
mod serve;
mod stats;
mod trace;

use aivril_obs::json;
use stats::{RunReport, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const WORKLOADS: [&str; 4] = ["grid_cold", "grid_cached", "serve_trickle", "serve_load"];

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    repeat: usize,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        json: None,
        repeat: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value(flag)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?} (want one of {WORKLOADS:?})"
                    ));
                }
                o.workload = Some(w);
            }
            "--seed" => o.seed = value(flag)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value(flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds.is_finite() && o.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = true;
                if let Some(v) = it.next_if(|v| *v == "0" || *v == "1") {
                    o.trace = v == "1";
                }
            }
            "--json" => o.json = Some(value(flag)?),
            "--repeat" => {
                o.repeat = value(flag)?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if o.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunReport, String> {
    match name {
        "grid_cold" => grid::run(false, seconds, trace),
        "grid_cached" => grid::run(true, seconds, trace),
        "serve_trickle" => serve::run(&serve::TRICKLE, seed, seconds, trace),
        "serve_load" => serve::run(&serve::LOAD, seed, seconds, trace),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn print_report(o: &Options, name: &str, report: &RunReport) {
    println!(
        "[e2e] {name} seed={} seconds={} trace={}",
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    for m in report.metrics.iter().chain(&report.extra) {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("  {note}");
    }
    println!(
        "  correct={} attempted={} failed={}",
        report.correct, report.attempted, report.failed
    );
}

fn single(o: &Options, name: &str) -> ExitCode {
    let report = match run_workload(name, o.seed, o.seconds, o.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[e2e] {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_report(o, name, &report);
    if let Some(path) = &o.json {
        let doc = report.document(&[
            ("workload", json::string(name)),
            ("seed", o.seed.to_string()),
            ("seconds", o.seconds.to_string()),
            ("trace", o.trace.to_string()),
        ]);
        if let Err(e) = aivril_bench::write_json(path, &doc) {
            eprintln!("[e2e] cannot write {path}: {e}");
        }
    }
    println!(
        "{}",
        report.result_line(if o.trace { &PER_LAYER } else { &END_TO_END })
    );
    ExitCode::SUCCESS
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn parse_result(line: &str) -> Option<ChildResult> {
    let v = json::parse(line)?;
    let json::Value::Obj(fields) = v.get("metrics")? else {
        return None;
    };
    Some(ChildResult {
        correct: v.get("correct")?.bool()?,
        failed: v.get("failed")?.num()?,
        metrics: fields
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.num()?)))
            .collect(),
    })
}

/// Runs every selected workload `repeat` times, each run in a fresh
/// child process, alternating the workload order between rounds.
fn many(o: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("[e2e] cannot find own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs: BTreeMap<&str, Vec<ChildResult>> = BTreeMap::new();
    let mut ok = true;
    for round in 0..o.repeat {
        let mut order = WORKLOADS.to_vec();
        if round % 2 == 1 {
            order.reverse();
        }
        let seed = o.seed + round as u64;
        for w in order {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output();
            let stdout = out
                .as_ref()
                .map(|out| String::from_utf8_lossy(&out.stdout).into_owned())
                .unwrap_or_default();
            if o.repeat == 1 {
                print!("{stdout}");
            }
            match stdout.lines().last().and_then(parse_result) {
                Some(r) => {
                    ok &= r.correct && r.failed == 0.0;
                    if o.repeat > 1 {
                        println!(
                            "[e2e] round {round} {w}: correct={} failed={}",
                            r.correct, r.failed
                        );
                    }
                    runs.entry(w).or_default().push(r);
                }
                None => {
                    ok = false;
                    eprintln!(
                        "[e2e] round {round} {w}: no result ({:?})",
                        out.map(|o| o.status)
                    );
                }
            }
        }
    }
    if o.repeat > 1 {
        println!(
            "\n{:<14} {:<26} {:>12} {:>12} {:>12} {:>8} {:>8}",
            "workload", "metric", "q1", "median", "q3", "iqr/med", "rng/med"
        );
        for (w, results) in &runs {
            let names: Vec<&String> = results
                .first()
                .map(|r| r.metrics.keys().collect())
                .unwrap_or_default();
            for name in names {
                let values: Vec<f64> = results
                    .iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect();
                let (q1, med, q3) = stats::quartiles(&values);
                let (lo, hi) = values
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                        (lo.min(*v), hi.max(*v))
                    });
                let rel = |d: f64| if med == 0.0 { 0.0 } else { d / med.abs() };
                println!(
                    "{w:<14} {name:<26} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>8.4} {:>8.4}",
                    rel(q3 - q1),
                    rel(hi - lo)
                );
            }
        }
    }
    if let Some(path) = &o.json {
        let doc: Vec<(&str, String)> = runs
            .iter()
            .map(|(w, results)| {
                let items: Vec<String> = results
                    .iter()
                    .map(|r| {
                        let fields: Vec<(&str, String)> = r
                            .metrics
                            .iter()
                            .map(|(k, v)| (k.as_str(), format!("{v}")))
                            .collect();
                        json::object(&fields)
                    })
                    .collect();
                (*w, format!("[{}]", items.join(",")))
            })
            .collect();
        if let Err(e) = aivril_bench::write_json(path, &format!("{}\n", json::object(&doc))) {
            eprintln!("[e2e] cannot write {path}: {e}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Internal child modes.
    match args.first().map(String::as_str) {
        Some("--serve-child") => return serve::serve_child(),
        Some("--setup-probe") => {
            grid::setup_probe(args.get(1).map(PathBuf::from).as_deref());
            return ExitCode::SUCCESS;
        }
        Some("--replay-jobs") => {
            return match args.get(1) {
                Some(list) => serve::replay_child(std::path::Path::new(list)),
                None => ExitCode::FAILURE,
            };
        }
        Some("--grid-pass") => {
            grid::pass_child(args.get(1).map(PathBuf::from).as_deref());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("[e2e] {e}");
            return ExitCode::from(2);
        }
    };
    match &o.workload {
        Some(name) => single(&o, name),
        None => many(&o),
    }
}
