//! Ablation experiments extending the paper's evaluation (the design
//! deltas DESIGN.md calls out):
//!
//! 1. **Testbench-first vs simultaneous** — the paper's stated advance
//!    over AIVRIL \[7\]: pre-validating the testbench before any RTL
//!    exists vs using it as generated.
//! 2. **Iteration-budget sweep** — how pass rates saturate as the
//!    syntax/functional loop budgets grow from 1 to 6.
//! 3. **Corrective-prompt detail** — Sec. 3.2 argues detailed prompts
//!    (locations + snippets + hints) minimise iterations; this compares
//!    them against error-id-only prompts.
//!
//! Scale with `AIVRIL_SAMPLES` / `AIVRIL_TASKS` / `AIVRIL_THREADS`.

use aivril_bench::{Flow, Harness, HarnessConfig};
use aivril_core::{Aivril2Config, PromptDetail};
use aivril_llm::profiles;
use aivril_metrics::{sample_mean, suite_metric};
use std::io::{self, Write};
use std::process::ExitCode;

fn run(
    config: HarnessConfig,
    profile: &aivril_llm::ModelProfile,
    verilog: bool,
) -> (f64, f64, f64) {
    let harness = Harness::new(config);
    let (outcomes, stats) = harness.evaluate_with_stats(profile, verilog, Flow::Aivril2);
    eprintln!("   {stats}");
    let s = suite_metric(&outcomes, 1, |x| x.syntax) * 100.0;
    let f = suite_metric(&outcomes, 1, |x| x.functional) * 100.0;
    let iters = sample_mean(&outcomes, |x| {
        f64::from(x.syntax_iters + x.functional_iters)
    });
    (s, f, iters)
}

fn main() -> ExitCode {
    aivril_bench::with_stdout(experiments)
}

fn experiments(out: &mut impl Write) -> io::Result<ExitCode> {
    let base = HarnessConfig::from_env();
    writeln!(
        out,
        "Ablation experiments, {} tasks x {} samples on {} thread(s)\n",
        base.task_limit.min(156),
        base.samples,
        base.effective_threads()
    )?;

    // -- 1. testbench-first vs simultaneous. Llama3-70B has the weakest
    // testbench generation (tb_syntax_ok 0.80 Verilog / 0.55 VHDL), so
    // the pre-validation loop matters most there.
    writeln!(
        out,
        "1. Testbench-first methodology (Llama3-70B; the AIVRIL -> AIVRIL2 delta)"
    )?;
    writeln!(
        out,
        "{:<34}{:>10}{:>10}",
        "configuration", "pass@1_S", "pass@1_F"
    )?;
    for verilog in [true, false] {
        let lang = aivril_metrics::language_name(verilog);
        for tb_first in [true, false] {
            let mut cfg = base.clone();
            cfg.pipeline = Aivril2Config {
                testbench_first: tb_first,
                ..cfg.pipeline
            };
            let (s, f, _) = run(cfg, &profiles::llama3_70b(), verilog);
            writeln!(
                out,
                "{:<34}{s:>10.2}{f:>10.2}",
                format!(
                    "{lang} / {}",
                    if tb_first {
                        "testbench-first"
                    } else {
                        "simultaneous"
                    }
                )
            )?;
        }
    }

    // -- 2. iteration-budget sweep (Claude 3.5 Sonnet, Verilog).
    writeln!(
        out,
        "\n2. Iteration-budget sweep (Claude 3.5 Sonnet, Verilog; budget applies to both loops)"
    )?;
    writeln!(
        out,
        "{:<10}{:>10}{:>10}{:>14}",
        "budget", "pass@1_S", "pass@1_F", "avg cycles"
    )?;
    for k in 1..=6u32 {
        let mut cfg = base.clone();
        cfg.pipeline = Aivril2Config {
            max_syntax_iters: k,
            max_functional_iters: k,
            ..cfg.pipeline
        };
        let (s, f, it) = run(cfg, &profiles::claude35_sonnet(), true);
        writeln!(out, "{k:<10}{s:>10.2}{f:>10.2}{it:>14.2}")?;
    }

    // -- 3. corrective-prompt detail (Llama3-70B, VHDL: the most
    // iteration-hungry configuration, where distillation quality shows).
    writeln!(out, "\n3. Corrective-prompt detail (Llama3-70B, VHDL)")?;
    writeln!(
        out,
        "{:<16}{:>10}{:>10}{:>14}",
        "detail", "pass@1_S", "pass@1_F", "avg cycles"
    )?;
    for (label, detail) in [
        ("detailed", PromptDetail::Detailed),
        ("errors-only", PromptDetail::ErrorsOnly),
    ] {
        let mut cfg = base.clone();
        cfg.pipeline = Aivril2Config {
            prompt_detail: detail,
            ..cfg.pipeline
        };
        let (s, f, it) = run(cfg, &profiles::llama3_70b(), false);
        writeln!(out, "{label:<16}{s:>10.2}{f:>10.2}{it:>14.2}")?;
    }
    writeln!(
        out,
        "\nExpected shapes: testbench-first dominates simultaneous; pass rates\n\
         saturate around budget 4-5; detailed prompts converge in fewer cycles\n\
         with higher pass rates."
    )?;
    Ok(ExitCode::SUCCESS)
}
