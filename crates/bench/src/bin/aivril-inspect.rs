//! `aivril-inspect` — the read side of the observability stack: query,
//! diff and attribute existing run artifacts without re-running
//! anything.
//!
//! ```text
//! aivril-inspect summary <artifact>
//! aivril-inspect diff <artifact-a> <artifact-b>
//! aivril-inspect flame <journal>
//! aivril-inspect tail <checkpoint-dir> [--follow [--interval <secs>]
//!                                       [--expect-cells <n>]]
//! aivril-inspect regress --baseline <BENCH_SIM.json> [--current <criterion.jsonl>]
//!                        [--tolerance <frac>] [--absolute]
//! ```
//!
//! * `summary` — per-stage/per-problem modeled-time attribution tree
//!   and outcome/error-class breakdown from a JSONL run journal
//!   (`AIVRIL_TRACE_JSON`) or an `aivril.results` JSON (`--json`).
//! * `diff` — two artifacts of the same kind: metric deltas and
//!   per-cell outcome flips for results, first-divergence pinpointing
//!   down to the first differing line for journals. Exit 0 means
//!   byte-identical ("no divergence"), 1 means diverged.
//! * `flame` — collapsed-stack export of the journal's span tree
//!   (`stack;path microseconds` lines for flamegraph.pl / inferno /
//!   speedscope), byte-identical across thread counts.
//! * `tail` — read-only progress view of a live `AIVRIL_CHECKPOINT_DIR`
//!   (cells done/remaining, rolling pass rate, resilience counters),
//!   tolerating torn tails exactly like resume does. `--follow` polls
//!   until the grid completes: exactly when `--expect-cells` gives the
//!   planned grid size (problems × samples), otherwise against a size
//!   inferred from the shard log names, trusted only once the
//!   discovered ranges tile the grid gap-free (a gap means a planned
//!   shard has not opened its log yet).
//! * `regress` — compares a fresh criterion/kernel report against the
//!   committed `BENCH_SIM.json` baseline; exit 1 on regression (the CI
//!   perf gate). Relative mode (the default) normalises out uniform
//!   machine-speed differences; `--absolute` compares raw ratios.
//!
//! Every subcommand is read-only and deterministic: same artifacts in,
//! byte-identical report out (`tests/inspect.rs` enforces this).
//! Reports go to stdout; diagnostics to stderr.

use aivril_bench::checkpoint;
use aivril_obs::analyze;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

/// Why a subcommand stopped: bad input (reported, exit 2), or stdout
/// failing under it (a closed pipe ends the run quietly).
enum Failure {
    Input(String),
    Output(io::Error),
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Input(e)
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::Output(e)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: aivril-inspect <summary|diff|flame|tail|regress> ...\n\
         \x20 summary <artifact>                        attribution + outcome breakdown\n\
         \x20 diff <a> <b>                              compare two artifacts (exit 1 on divergence)\n\
         \x20 flame <journal>                           collapsed stacks for flamegraph tools\n\
         \x20 tail <ckpt-dir> [--follow] [--expect-cells <n>]  live shard progress (read-only)\n\
         \x20 regress --baseline <json> [--current <jsonl>] [--tolerance <frac>] [--absolute]"
    );
    ExitCode::FAILURE
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The value following `flag` within `args`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn run(args: &[String], out: &mut impl Write) -> Result<ExitCode, Failure> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(usage());
    };
    match cmd.as_str() {
        "summary" => {
            let [path] = rest else { return Ok(usage()) };
            write!(out, "{}", analyze::summary(&read(path)?)?)?;
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let [a, b] = rest else { return Ok(usage()) };
            let diff = analyze::diff(a, &read(a)?, b, &read(b)?)?;
            write!(out, "{}", diff.report)?;
            Ok(if diff.diverged {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "flame" => {
            let [path] = rest else { return Ok(usage()) };
            write!(out, "{}", analyze::flame(&read(path)?)?)?;
            Ok(ExitCode::SUCCESS)
        }
        "tail" => {
            let Some(dir) = rest.first() else {
                return Ok(usage());
            };
            let dir = Path::new(dir);
            let follow = rest.iter().any(|a| a == "--follow");
            let expected = match flag_value(rest, "--expect-cells") {
                None => None,
                Some(v) => Some(v.parse::<usize>().map_err(|_| {
                    format!("bad --expect-cells {v} (want the grid size, problems x samples)")
                })?),
            };
            let interval = flag_value(rest, "--interval")
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(2.0)
                .max(0.1);
            loop {
                // One scan per poll: the printed progress and the exit
                // decision come from the same directory snapshot.
                let groups = checkpoint::scan_dir(dir);
                write!(out, "{}", checkpoint::render_progress(dir, &groups))?;
                let complete = !groups.is_empty() && groups.iter().all(|g| g.complete(expected));
                if !follow || complete {
                    return Ok(ExitCode::SUCCESS);
                }
                std::thread::sleep(std::time::Duration::from_secs_f64(interval));
            }
        }
        "regress" => {
            let Some(baseline) = flag_value(rest, "--baseline") else {
                return Ok(usage());
            };
            let tolerance = match flag_value(rest, "--tolerance") {
                None => 0.15,
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("bad --tolerance {v} (want a fraction, e.g. 0.15)"))?,
            };
            let absolute = rest.iter().any(|a| a == "--absolute");
            // Fresh timings come from --current, or from the
            // CRITERION_JSON report the bench run just appended.
            let current_path = flag_value(rest, "--current")
                .or_else(|| {
                    std::env::var("CRITERION_JSON")
                        .ok()
                        .filter(|v| !v.is_empty())
                })
                .ok_or_else(|| {
                    "regress needs --current <criterion.jsonl> (or CRITERION_JSON set)".to_string()
                })?;
            let regress = analyze::regress(
                &read(&baseline)?,
                &read(&current_path)?,
                tolerance,
                absolute,
            )?;
            write!(out, "{}", regress.report)?;
            Ok(if regress.regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        _ => Ok(usage()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    aivril_bench::with_stdout(|out| match run(&args, out) {
        Ok(code) => Ok(code),
        Err(Failure::Output(e)) => Err(e),
        Err(Failure::Input(e)) => {
            eprintln!("[inspect] {e}");
            Ok(ExitCode::from(2))
        }
    })
}
