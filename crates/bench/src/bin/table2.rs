//! Regenerates the paper's **Table 2**: Verilog pass@1_F of AIVRIL2
//! (measured here) against published state-of-the-art numbers (cited
//! constants — the closed systems cannot be rerun).

use aivril_bench::{Driver, Flow};
use aivril_llm::profiles;
use aivril_metrics::{paper, render_table2, suite_metric};
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    aivril_bench::with_stdout(run)
}

fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let mut driver = Driver::from_env();
    driver.header(out, "Table 2", " x 3 models (Verilog, AIVRIL2)")?;

    let mut measured = Vec::new();
    for profile in profiles::all() {
        let outcomes = driver.evaluate(&profile, true, Flow::Aivril2);
        let f = suite_metric(&outcomes, 1, |s| s.functional) * 100.0;
        let license = paper::model(&profile.name).map_or("", |m| m.license);
        let name = format!("AIVRIL2 ({})", profile.name);
        measured.push((name, license.to_string(), f));
    }

    driver.finish(out)?;
    writeln!(out, "{}", render_table2(&measured))?;
    write!(out, "{}", paper::table2_reference())?;
    Ok(ExitCode::SUCCESS)
}
