//! Smoke-test harness: a miniature Table-1-shaped run (few tasks, few
//! samples, one model) that finishes in seconds. Useful for sanity
//! checking after changes, before committing to the full table runs.
//!
//! The shape is fixed at the first 10 tasks x 2 samples:
//! `AIVRIL_TASKS` and `AIVRIL_SAMPLES` are not read. Every other
//! harness variable (`AIVRIL_THREADS`, `AIVRIL_EDA_CACHE`,
//! `AIVRIL_CANONICAL`, ...) applies as usual.
//!
//! Observability: honours `AIVRIL_TRACE_JSON`, `AIVRIL_TRACE_CHROME`
//! and `AIVRIL_METRICS` (see README), and `--json <path>` writes the
//! outcomes and stats as schema-versioned JSON.

use aivril_bench::{Driver, Flow, HarnessConfig};
use aivril_llm::profiles;
use aivril_metrics::{language_name, suite_metric};
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    aivril_bench::with_stdout(run)
}

fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let mut driver = Driver::new(HarnessConfig {
        samples: 2,
        task_limit: 10,
        ..HarnessConfig::from_env()
    });
    let profile = profiles::claude35_sonnet();
    driver.header(out, "quicklook", &format!(" x {}", profile.name))?;

    for verilog in [true, false] {
        let base = driver.evaluate(&profile, verilog, Flow::Baseline);
        let full = driver.evaluate(&profile, verilog, Flow::Aivril2);
        writeln!(
            out,
            "  {:8}  baseline S {:5.1}% F {:5.1}%   AIVRIL2 S {:5.1}% F {:5.1}%",
            language_name(verilog),
            suite_metric(&base, 1, |s| s.syntax) * 100.0,
            suite_metric(&base, 1, |s| s.functional) * 100.0,
            suite_metric(&full, 1, |s| s.syntax) * 100.0,
            suite_metric(&full, 1, |s| s.functional) * 100.0,
        )?;
    }

    driver.finish(out)?;
    writeln!(out, "ok")?;
    Ok(ExitCode::SUCCESS)
}
