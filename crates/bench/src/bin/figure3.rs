//! Regenerates the paper's **Figure 3**: average end-to-end latency per
//! model × language, split into baseline vs AIVRIL2's syntax-loop and
//! functional-loop phases, plus the convergence cycle counts quoted in
//! Sec. 4.2 (`aivril_metrics::paper::FIGURE3_SLOWEST` and
//! `FIGURE3_FASTEST`).

use aivril_bench::{Driver, Flow};
use aivril_llm::profiles;
use aivril_metrics::{figure3, language_name, paper, render_figure3};
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    aivril_bench::with_stdout(run)
}

fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let mut driver = Driver::from_env();
    driver.header(out, "Figure 3", " x 3 models x 2 languages x 2 flows")?;

    let mut rows = Vec::new();
    for profile in profiles::all() {
        for verilog in [true, false] {
            let base = driver.evaluate(&profile, verilog, Flow::Baseline);
            let full = driver.evaluate(&profile, verilog, Flow::Aivril2);
            let config = format!("{} / {}", profile.name, language_name(verilog));
            rows.push(figure3(config, &base, &full));
        }
    }

    driver.finish(out)?;
    writeln!(out, "{}", render_figure3(&rows))?;
    let worst = rows.iter().map(|r| r.total()).fold(0.0f64, f64::max);
    write!(out, "{}", paper::figure3_reference(worst))?;
    Ok(ExitCode::SUCCESS)
}
