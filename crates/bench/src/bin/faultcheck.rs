//! Calibration utility: measures what fraction of single functional
//! faults from the catalogue actually fail the reference testbench.
use aivril_bench::{Harness, HarnessConfig};
use aivril_llm::mutate::{
    apply_fault, count_occurrences, functional_templates, AppliedFault, Dialect, FaultKind,
};
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    aivril_bench::with_stdout(run)
}

fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    // Honour `AIVRIL_TASKS` so CI can smoke a small slice; the default
    // (no env) still sweeps the full 156-problem suite.
    let base = HarnessConfig::from_env();
    for verilog in [true, false] {
        let h = Harness::new(HarnessConfig {
            samples: 1,
            task_limit: base.task_limit.min(156),
            ..HarnessConfig::default()
        });
        let dialect = if verilog {
            Dialect::Verilog
        } else {
            Dialect::Vhdl
        };
        let (mut total, mut caught, mut broke_syntax, mut noop) = (0, 0, 0, 0);
        let mut immune = 0;
        for p in h.problems() {
            let golden = &p.golden(verilog).dut;
            if functional_templates(dialect)
                .iter()
                .all(|t| count_occurrences(golden, t.pattern) == 0)
            {
                immune += 1;
                writeln!(out, "IMMUNE {} {}", if verilog { "V" } else { "H" }, p.name)?;
            }
            for t in functional_templates(dialect) {
                let n = count_occurrences(golden, t.pattern);
                for occ in 0..n.min(2) {
                    let f = AppliedFault {
                        template: t.clone(),
                        occurrence: occ,
                        kind: FaultKind::Functional,
                    };
                    let mutated = apply_fault(golden, &f);
                    if *mutated == **golden {
                        noop += 1;
                        continue;
                    }
                    total += 1;
                    let (s, func) = h.score(p, &mutated, verilog);
                    if !s {
                        broke_syntax += 1;
                        writeln!(
                            out,
                            "SYNTAXBREAK {} {} '{}'->'{}'",
                            p.name, t.description, t.pattern, t.replacement
                        )?;
                    } else if !func {
                        caught += 1;
                    } else {
                        writeln!(
                            out,
                            "UNCAUGHT {} {} '{}'->'{}' occ{}",
                            p.name, t.description, t.pattern, t.replacement, occ
                        )?;
                    }
                }
            }
        }
        eprintln!("{}: total={total} caught={caught} uncaught={} broke_syntax={broke_syntax} noop={noop} immune_problems={immune}",
            if verilog {"Verilog"} else {"VHDL"}, total - caught - broke_syntax);
    }
    Ok(ExitCode::SUCCESS)
}
