//! Regenerates the paper's **Figure 3**: average end-to-end latency per
//! model × language, split into baseline vs AIVRIL2's syntax-loop and
//! functional-loop phases, plus the convergence cycle counts quoted in
//! Sec. 4.2 (e.g. Llama3/VHDL ≈ 3.95 syntax and 4.7 functional cycles;
//! Claude/Verilog ≈ 2 and 3).

use aivril_bench::{
    arg_value, results_json, write_json, Flow, Harness, HarnessConfig, ResultSection, Telemetry,
};
use aivril_llm::profiles;
use aivril_metrics::{figure3, render_figure3};
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
        "Running Figure 3: {} tasks x {} samples x 3 models x 2 languages x 2 flows \
         on {} thread(s)\n",
        harness.problems().len(),
        config.samples,
        config.effective_threads()
    )?;

    let mut rows = Vec::new();
    let mut sections = Vec::new();
    for profile in profiles::all() {
        for verilog in [true, false] {
            let lang = if verilog { "Verilog" } else { "VHDL" };
            eprintln!("== {} / {lang} ==", profile.name);
            let (base, base_stats) = harness.evaluate_with_stats(&profile, verilog, Flow::Baseline);
            let (full, stats) = harness.evaluate_with_stats(&profile, verilog, Flow::Aivril2);
            eprintln!("   {stats}");
            rows.push(figure3(format!("{} / {lang}", profile.name), &base, &full));
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
    writeln!(out, "{}", render_figure3(&rows))?;
    let worst = rows.iter().map(|r| r.total()).fold(0.0f64, f64::max);
    writeln!(
        out,
        "Worst-case average AIVRIL2 latency: {worst:.2}s (paper: did not exceed 42s)."
    )?;
    writeln!(
        out,
        "Paper reference points: Llama3/VHDL baseline 6.68s vs ~39.29s AIVRIL2 (~6x);\n\
         Claude/Verilog ~2x; Llama3/VHDL cycles ~3.95 syntax + 4.7 functional;\n\
         Claude/Verilog cycles ~2 syntax + 3 functional."
    )?;
    Ok(ExitCode::SUCCESS)
}
