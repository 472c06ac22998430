//! Regenerates the paper's **Table 1**: pass@1_S / pass@1_F / Δ_F for
//! three models × two languages × {baseline, AIVRIL2}.
//!
//! Scale with `AIVRIL_SAMPLES` (default 5), `AIVRIL_TASKS`
//! (default 156) and `AIVRIL_THREADS` (default: all cores; results are
//! bit-identical for any thread count). Run with `--release`; the full
//! table is ~19k pipeline executions.

use aivril_bench::{Driver, Flow};
use aivril_llm::profiles;
use aivril_metrics::{
    delta_f, paper, render_table1, suite_metric, suite_metric_with_se, Table1Row,
};
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    aivril_bench::with_stdout(run)
}

fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let mut driver = Driver::from_env();
    driver.header(out, "Table 1", " x 3 models x 2 languages x 2 flows")?;
    let start = std::time::Instant::now();

    let mut rows = Vec::new();
    let mut max_se: Option<f64> = None;
    for profile in profiles::all() {
        // [base_s, base_f, a2_s, a2_f] for Verilog (v) and VHDL (h).
        let [v, h] = [true, false].map(|verilog| {
            let base = driver.evaluate(&profile, verilog, Flow::Baseline);
            let full = driver.evaluate(&profile, verilog, Flow::Aivril2);
            let (f_mean, f_se) = suite_metric_with_se(&full, 1, |s| s.functional);
            max_se = Some(max_se.map_or(f_se, |m: f64| m.max(f_se)));
            [
                suite_metric(&base, 1, |s| s.syntax),
                suite_metric(&base, 1, |s| s.functional),
                suite_metric(&full, 1, |s| s.syntax),
                f_mean,
            ]
            .map(|x| x * 100.0)
        });
        rows.push(Table1Row {
            config: profile.name.clone(),
            verilog_s: v[0],
            verilog_f: v[1],
            vhdl_s: h[0],
            vhdl_f: h[1],
            delta_verilog: None,
            delta_vhdl: None,
        });
        rows.push(Table1Row {
            config: format!("AIVRIL2 ({})", profile.name),
            verilog_s: v[2],
            verilog_f: v[3],
            vhdl_s: h[2],
            vhdl_f: h[3],
            delta_verilog: delta_f(v[3], v[1]),
            delta_vhdl: delta_f(h[3], h[1]),
        });
    }

    writeln!(
        out,
        "Completed in {:.2}s wall on {} thread(s).\n",
        start.elapsed().as_secs_f64(),
        driver.threads()
    )?;
    writeln!(out, "{}", render_table1(&rows))?;
    if let Some(se) = max_se {
        writeln!(
            out,
            "(max standard error across cells, from per-task variation: ±{:.2} points)\n",
            se * 100.0
        )?;
    }
    driver.finish(out)?;
    write!(out, "{}", paper::table1_reference())?;
    Ok(ExitCode::SUCCESS)
}
