//! `aivril` — command-line front door to the toolchain.
//!
//! ```text
//! aivril compile  <files...>            # xvlog/xvhdl + xelab style check
//! aivril simulate <files...> [--top T] [--vcd out.vcd]
//! aivril suite list                     # the 156 benchmark problems
//! aivril suite show <name> [--vhdl]     # spec + golden + testbench
//! ```
//!
//! Exit code 0 on success (clean compile / passing simulation), 1 on
//! errors — so the binary slots into scripts and CI like the real tools.

use aivril_eda::{HdlFile, ToolSuite, XsimToolSuite};
use std::io::{self, Write};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  aivril compile <files...>\n  aivril simulate <files...> [--top T] [--vcd out.vcd]\n  aivril suite list\n  aivril suite show <name> [--vhdl]"
    );
    ExitCode::FAILURE
}

fn read_files(paths: &[String]) -> Result<Vec<HdlFile>, ExitCode> {
    let mut files = Vec::new();
    for p in paths {
        match std::fs::read_to_string(p) {
            Ok(text) => files.push(HdlFile::new(p.clone(), text)),
            Err(e) => {
                eprintln!("error: cannot read {p}: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    if files.is_empty() {
        eprintln!("error: no input files");
        return Err(ExitCode::FAILURE);
    }
    Ok(files)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    aivril_bench::with_stdout(|out| run(&args, out))
}

fn run(args: &[String], out: &mut impl Write) -> io::Result<ExitCode> {
    let Some(command) = args.first().map(String::as_str) else {
        return Ok(usage());
    };
    let tools = XsimToolSuite::new();
    Ok(match command {
        "compile" => {
            let files = match read_files(&args[1..]) {
                Ok(f) => f,
                Err(code) => return Ok(code),
            };
            let report = tools.compile(&files);
            write!(out, "{}", report.log)?;
            if report.success {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "simulate" => {
            let mut paths = Vec::new();
            let mut top: Option<String> = None;
            let mut vcd_out: Option<String> = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--top" => top = it.next().cloned(),
                    "--vcd" => vcd_out = it.next().cloned(),
                    _ => paths.push(a.clone()),
                }
            }
            let files = match read_files(&paths) {
                Ok(f) => f,
                Err(code) => return Ok(code),
            };
            let (report, waves) = tools.simulate_with_waves(&files, top.as_deref());
            write!(out, "{}", report.log)?;
            if let (Some(path), Some(vcd)) = (vcd_out, waves) {
                match std::fs::write(&path, vcd) {
                    Ok(()) => eprintln!("waveform written to {path}"),
                    Err(e) => eprintln!("error: cannot write {path}: {e}"),
                }
            }
            if report.passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "suite" => match args.get(1).map(String::as_str) {
            Some("list") => {
                for p in aivril_verilogeval::suite() {
                    writeln!(
                        out,
                        "{:<34} {:<16} {:?}",
                        p.name,
                        p.family.to_string(),
                        p.difficulty
                    )?;
                }
                ExitCode::SUCCESS
            }
            Some("show") => {
                let Some(name) = args.get(2) else {
                    return Ok(usage());
                };
                let vhdl = args.iter().any(|a| a == "--vhdl");
                let problems = aivril_verilogeval::suite();
                let Some(p) = problems.iter().find(|p| &p.name == name) else {
                    eprintln!("error: unknown problem '{name}' (try `aivril suite list`)");
                    return Ok(ExitCode::FAILURE);
                };
                let golden = p.golden(!vhdl);
                writeln!(out, "=== spec ===\n{}", p.spec)?;
                writeln!(out, "=== golden DUT ===\n{}", golden.dut)?;
                writeln!(out, "=== reference testbench ===\n{}", golden.tb)?;
                ExitCode::SUCCESS
            }
            _ => usage(),
        },
        _ => usage(),
    })
}
