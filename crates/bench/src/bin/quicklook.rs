//! Smoke-test harness: a miniature Table-1-shaped run (few tasks, few
//! samples, one model) that finishes in seconds. Useful for sanity
//! checking after changes, before committing to the full table runs.
//!
//! Observability: honours `AIVRIL_TRACE_JSON`, `AIVRIL_TRACE_CHROME`
//! and `AIVRIL_METRICS` (see README), and `--json <path>` writes the
//! outcomes and stats as schema-versioned JSON.

use aivril_bench::{
    arg_value, results_json, write_json, Flow, Harness, HarnessConfig, ResultSection, Telemetry,
};
use aivril_llm::profiles;
use aivril_metrics::suite_metric;
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    aivril_bench::with_stdout(run)
}

fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let config = HarnessConfig {
        samples: 2,
        task_limit: 10,
        ..HarnessConfig::from_env()
    };
    let telemetry = Telemetry::from_env();
    let harness = Harness::new(config.clone()).with_recorder(telemetry.recorder());
    let profile = profiles::claude35_sonnet();
    writeln!(
        out,
        "quicklook: {} tasks x {} samples on {} thread(s), {}",
        harness.problems().len(),
        config.samples,
        config.effective_threads(),
        profile.name
    )?;

    let mut sections = Vec::new();
    for verilog in [true, false] {
        let lang = if verilog { "Verilog" } else { "VHDL" };
        let (base, base_stats) = harness.evaluate_with_stats(&profile, verilog, Flow::Baseline);
        let (full, stats) = harness.evaluate_with_stats(&profile, verilog, Flow::Aivril2);
        writeln!(
            out,
            "  {lang:8}  baseline S {:5.1}% F {:5.1}%   AIVRIL2 S {:5.1}% F {:5.1}%",
            suite_metric(&base, 1, |s| s.syntax) * 100.0,
            suite_metric(&base, 1, |s| s.functional) * 100.0,
            suite_metric(&full, 1, |s| s.syntax) * 100.0,
            suite_metric(&full, 1, |s| s.functional) * 100.0,
        )?;
        writeln!(out, "  {stats}")?;
        sections.push(ResultSection {
            label: format!("{} {lang} baseline", profile.name),
            outcomes: base,
            stats: base_stats,
        });
        sections.push(ResultSection {
            label: format!("{} {lang} aivril2", profile.name),
            outcomes: full,
            stats,
        });
    }

    if let Some(stats) = harness.cache_stats() {
        writeln!(out, "[cache] {stats}")?;
    }
    if let Some(path) = arg_value("--json") {
        write_json(&path, &results_json(&sections)).expect("write --json output");
        writeln!(out, "results written to {path}")?;
    }
    match telemetry.finish() {
        Ok(summary) if !summary.is_empty() => writeln!(out, "{summary}")?,
        Ok(_) => {}
        Err(e) => eprintln!("[obs] export failed: {e}"),
    }
    writeln!(out, "ok")?;
    Ok(ExitCode::SUCCESS)
}
