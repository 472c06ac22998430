//! Regenerates the paper's **Table 2**: Verilog pass@1_F of AIVRIL2
//! (measured here) against published state-of-the-art numbers (cited
//! constants — the closed systems cannot be rerun).

use aivril_bench::{
    arg_value, results_json, write_json, Flow, Harness, HarnessConfig, ResultSection, Telemetry,
};
use aivril_llm::profiles;
use aivril_metrics::{render_table2, suite_metric};
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    aivril_bench::with_stdout(run)
}

fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let config = HarnessConfig::from_env();
    let telemetry = Telemetry::from_env();
    let harness = Harness::new(config.clone()).with_recorder(telemetry.recorder());
    writeln!(
        out,
        "Running Table 2: {} tasks x {} samples x 3 models (Verilog, AIVRIL2) \
         on {} thread(s)\n",
        harness.problems().len(),
        config.samples,
        config.effective_threads()
    )?;

    let mut measured = Vec::new();
    let mut sections = Vec::new();
    for profile in profiles::all() {
        eprintln!("== AIVRIL2 ({}) ==", profile.name);
        let (outcomes, stats) = harness.evaluate_with_stats(&profile, true, Flow::Aivril2);
        eprintln!("   {stats}");
        let f = suite_metric(&outcomes, 1, |s| s.functional) * 100.0;
        let license = if profile.name.contains("Llama") {
            "Open Source"
        } else {
            "Closed Source"
        };
        measured.push((
            format!("AIVRIL2 ({})", profile.name),
            license.to_string(),
            f,
        ));
        sections.push(ResultSection {
            label: format!("{} Verilog aivril2", profile.name),
            outcomes,
            stats,
        });
    }

    if let Some(stats) = harness.cache_stats() {
        writeln!(out, "[cache] {stats}\n")?;
    }
    if let Some(path) = arg_value("--json") {
        write_json(&path, &results_json(&sections)).expect("write --json output");
        writeln!(out, "results written to {path}\n")?;
    }
    match telemetry.finish() {
        Ok(summary) if !summary.is_empty() => writeln!(out, "{summary}")?,
        Ok(_) => {}
        Err(e) => eprintln!("[obs] export failed: {e}"),
    }
    writeln!(out, "{}", render_table2(&measured))?;
    writeln!(out, "Paper reference: AIVRIL2 rows are 55.13 (Llama3-70B), 72.44 (GPT-4o), 77 (Claude 3.5 Sonnet);")?;
    writeln!(out, "best case is 3.4x ChipNemo-13B's 22.4.")?;
    Ok(ExitCode::SUCCESS)
}
