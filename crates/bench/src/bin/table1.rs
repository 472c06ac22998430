//! Regenerates the paper's **Table 1**: pass@1_S / pass@1_F / Δ_F for
//! three models × two languages × {baseline, AIVRIL2}.
//!
//! Scale with `AIVRIL_SAMPLES` (default 5), `AIVRIL_TASKS`
//! (default 156) and `AIVRIL_THREADS` (default: all cores; results are
//! bit-identical for any thread count). Run with `--release`; the full
//! table is ~19k pipeline executions.

use aivril_bench::{
    arg_value, results_json, write_json, Flow, Harness, HarnessConfig, ResultSection, Telemetry,
};
use aivril_llm::profiles;
use aivril_metrics::{delta_f, render_table1, suite_metric, suite_metric_with_se, Table1Row};
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
        "Running Table 1: {} tasks x {} samples x 3 models x 2 languages x 2 flows \
         on {} thread(s)\n",
        harness.problems().len(),
        config.samples,
        config.effective_threads()
    )?;
    let start = std::time::Instant::now();

    let mut rows = Vec::new();
    let mut sections = Vec::new();
    let mut max_se: Option<f64> = None;
    for profile in profiles::all() {
        eprintln!("== {} ==", profile.name);
        let mut cells = [[0.0f64; 2]; 4]; // [base_s, base_f, a2_s, a2_f] x [verilog, vhdl]
        for (li, verilog) in [(0usize, true), (1usize, false)] {
            let lang = if verilog { "Verilog" } else { "VHDL" };
            eprintln!("   baseline / {lang} ...");
            let (base, base_stats) = harness.evaluate_with_stats(&profile, verilog, Flow::Baseline);
            eprintln!("   {base_stats}");
            eprintln!("   AIVRIL2  / {lang} ...");
            let (full, full_stats) = harness.evaluate_with_stats(&profile, verilog, Flow::Aivril2);
            eprintln!("   {full_stats}");
            cells[0][li] = suite_metric(&base, 1, |s| s.syntax) * 100.0;
            cells[1][li] = suite_metric(&base, 1, |s| s.functional) * 100.0;
            cells[2][li] = suite_metric(&full, 1, |s| s.syntax) * 100.0;
            let (f_mean, f_se) = suite_metric_with_se(&full, 1, |s| s.functional);
            cells[3][li] = f_mean * 100.0;
            max_se = Some(max_se.map_or(f_se, |m: f64| m.max(f_se)));
            sections.push(ResultSection {
                label: format!("{} {lang} baseline", profile.name),
                outcomes: base,
                stats: base_stats,
            });
            sections.push(ResultSection {
                label: format!("{} {lang} aivril2", profile.name),
                outcomes: full,
                stats: full_stats,
            });
        }
        rows.push(Table1Row {
            config: profile.name.clone(),
            verilog_s: cells[0][0],
            verilog_f: cells[1][0],
            vhdl_s: cells[0][1],
            vhdl_f: cells[1][1],
            delta_verilog: None,
            delta_vhdl: None,
        });
        rows.push(Table1Row {
            config: format!("AIVRIL2 ({})", profile.name),
            verilog_s: cells[2][0],
            verilog_f: cells[3][0],
            vhdl_s: cells[2][1],
            vhdl_f: cells[3][1],
            delta_verilog: delta_f(cells[3][0], cells[1][0]),
            delta_vhdl: delta_f(cells[3][1], cells[1][1]),
        });
    }

    writeln!(
        out,
        "Completed in {:.2}s wall on {} thread(s).\n",
        start.elapsed().as_secs_f64(),
        config.effective_threads()
    )?;
    writeln!(out, "{}", render_table1(&rows))?;
    if let Some(se) = max_se {
        writeln!(
            out,
            "(max standard error across cells, from per-task variation: ±{:.2} points)\n",
            se * 100.0
        )?;
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
    writeln!(out, "Paper reference (Table 1):")?;
    writeln!(
        out,
        "  Llama3-70B           V 71.15/37.82      H  1.28/ 0.00"
    )?;
    writeln!(
        out,
        "  GPT-4o               V 71.79/51.29      H 39.10/27.56"
    )?;
    writeln!(
        out,
        "  Claude 3.5 Sonnet    V 91.03/60.23      H 88.46/53.85"
    )?;
    writeln!(
        out,
        "  AIVRIL2(Llama3)      V 100/55.13 d45.76 H 58.87/32.69 dN/A"
    )?;
    writeln!(
        out,
        "  AIVRIL2(GPT-4o)      V 100/72.44 d41.23 H 100/59.62 d116.32"
    )?;
    writeln!(
        out,
        "  AIVRIL2(Claude)      V 100/77.00 d27.84 H 100/66.00 d22.56"
    )?;
    Ok(ExitCode::SUCCESS)
}
