//! Cross-crate property-based tests (proptest): the robustness
//! invariants the AIVRIL2 loop depends on.
//!
//! The single most important one: the toolchain must be *total* — any
//! corrupted source, however mangled, must produce located diagnostics
//! or a clean run, never a panic or a hang. The agent loop feeds the
//! compiler LLM-corrupted code on every iteration.

use aivril_bench::build_library;
use aivril_core::{Aivril2, Aivril2Config, Stage, TaskInput};
use aivril_eda::{HdlFile, ToolSuite, XsimToolSuite};
use aivril_hdl::logic::Logic;
use aivril_hdl::vec::LogicVec;
use aivril_llm::{profiles, SimLlm, TaskLibrary};
use aivril_metrics::pass_at_k;
use aivril_sim::SimConfig;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn suite() -> &'static [aivril_verilogeval::Problem] {
    static SUITE: OnceLock<Vec<aivril_verilogeval::Problem>> = OnceLock::new();
    SUITE.get_or_init(aivril_verilogeval::suite)
}

fn library() -> &'static TaskLibrary {
    static LIB: OnceLock<TaskLibrary> = OnceLock::new();
    LIB.get_or_init(|| build_library(suite()))
}

/// Runs one AIVRIL2 pipeline execution on a suite problem.
fn run_pipeline(
    config: Aivril2Config,
    problem_idx: usize,
    model_idx: usize,
    verilog: bool,
    seed: u64,
) -> aivril_core::RunResult {
    let problems = suite();
    let p = &problems[problem_idx % problems.len()];
    let models = profiles::all();
    let mut model = SimLlm::new(models[model_idx % models.len()].clone(), library().clone());
    let tools = XsimToolSuite::new();
    let pipeline = Aivril2::new(&tools, config);
    let task = TaskInput {
        name: p.name.clone(),
        module_name: p.module_name.clone(),
        spec: p.spec.clone(),
        verilog,
        seed,
    };
    pipeline.run(&mut model, &task)
}

/// Failure count of a functional-loop `simulate:` narration, or `None`
/// for non-simulate events. A compile-broken revision counts as worse
/// than any failing-tests outcome, matching the loop's own accounting.
fn simulate_failures(what: &str) -> Option<usize> {
    let rest = what.strip_prefix("simulate: ")?;
    if rest == "all tests passed" {
        Some(0)
    } else if rest == "revision failed to compile" {
        Some(usize::MAX)
    } else {
        rest.split(' ').next().and_then(|n| n.parse().ok())
    }
}

fn suite_sources() -> &'static [(String, Arc<str>)] {
    static SOURCES: OnceLock<Vec<(String, Arc<str>)>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        suite()
            .iter()
            .take(24)
            .flat_map(|p| {
                [
                    (format!("{}.v", p.module_name), p.verilog.dut.clone()),
                    (format!("{}.vhd", p.module_name), p.vhdl.dut.clone()),
                ]
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Byte-level corruption of real designs never panics the tools and
    /// never loses error information silently (a changed file either
    /// still compiles or yields at least one error message).
    #[test]
    fn compiler_is_total_under_corruption(
        idx in 0usize..48,
        cut_start in 0usize..2000,
        cut_len in 1usize..40,
        insert in "[ -~]{0,16}",
    ) {
        let sources = suite_sources();
        let (name, text) = &sources[idx % sources.len()];
        let mut corrupted = text.to_string();
        let start = cut_start % corrupted.len().max(1);
        let end = (start + cut_len).min(corrupted.len());
        corrupted.replace_range(start..end, &insert);
        let tools = XsimToolSuite::new();
        let report = tools.compile(&[HdlFile::new(name.clone(), corrupted)]);
        // Either success or at least one structured error message.
        prop_assert!(report.success || report.error_count() >= 1);
    }

    /// Arbitrary "source" text (printable noise) is handled gracefully
    /// by both frontends.
    #[test]
    fn frontends_survive_noise(text in "[ -~\\n]{0,300}") {
        let tools = XsimToolSuite::new();
        let _ = tools.compile(&[HdlFile::new("noise.v", text.clone())]);
        let _ = tools.compile(&[HdlFile::new("noise.vhd", text)]);
    }

    /// Simulation of corrupted-but-compiling designs always terminates
    /// within the configured budgets.
    #[test]
    fn simulation_always_terminates(idx in 0usize..24, flip in 0usize..64) {
        let problems = suite();
        let p = &problems[idx % problems.len()];
        // Flip one operator-ish byte in the DUT.
        let mut dut = p.verilog.dut.as_bytes().to_vec();
        let pos = flip % dut.len();
        if dut[pos] == b'&' { dut[pos] = b'|'; } else if dut[pos] == b'+' { dut[pos] = b'-'; }
        let dut = String::from_utf8(dut).expect("ascii");
        let tools = XsimToolSuite::new().with_sim_config(SimConfig::default());
        let report = tools.simulate(
            &[
                HdlFile::new(format!("{}.v", p.module_name), dut),
                HdlFile::new("tb.v", p.verilog.tb.clone()),
            ],
            Some("tb"),
        );
        // Terminating at all is the property; outcome may be anything.
        prop_assert!(report.modeled_latency.is_finite());
    }

    /// LogicVec arithmetic agrees with u64 arithmetic on known values.
    #[test]
    fn logicvec_matches_u64(a in 0u64..u64::MAX, b in 0u64..u64::MAX, w in 1u32..63) {
        let mask = (1u64 << w) - 1;
        let (a, b) = (a & mask, b & mask);
        let va = LogicVec::from_u64(w, a);
        let vb = LogicVec::from_u64(w, b);
        prop_assert_eq!(va.add(&vb).to_u64(), Some(a.wrapping_add(b) & mask));
        prop_assert_eq!(va.sub(&vb).to_u64(), Some(a.wrapping_sub(b) & mask));
        prop_assert_eq!(va.and(&vb).to_u64(), Some(a & b));
        prop_assert_eq!(va.or(&vb).to_u64(), Some(a | b));
        prop_assert_eq!(va.xor(&vb).to_u64(), Some(a ^ b));
        prop_assert_eq!(va.lt(&vb), Logic::from_bool(a < b));
        prop_assert_eq!(va.logic_eq(&vb), Logic::from_bool(a == b));
    }

    /// X-propagation: any unknown operand poisons arithmetic entirely.
    #[test]
    fn x_poisons_arithmetic(a in 0u64..1024, w in 2u32..16, bit in 0u32..16) {
        let mut va = LogicVec::from_u64(w, a & ((1 << w) - 1));
        va.set(bit % w, Logic::X);
        let vb = LogicVec::from_u64(w, 3);
        prop_assert!(va.add(&vb).iter().all(|b| b == Logic::X));
        prop_assert_eq!(va.logic_eq(&vb), Logic::X);
    }

    /// Concatenation then slicing round-trips.
    #[test]
    fn concat_slice_roundtrip(hi in 0u64..256, lo in 0u64..256) {
        let vhi = LogicVec::from_u64(8, hi);
        let vlo = LogicVec::from_u64(8, lo);
        let cat = vhi.concat(&vlo);
        prop_assert_eq!(cat.slice(15, 8).to_u64(), Some(hi));
        prop_assert_eq!(cat.slice(7, 0).to_u64(), Some(lo));
    }

    /// Whatever the seed, model, language or budgets, a pipeline run
    /// never spends more corrective iterations than its configured
    /// budgets allow — the loops must be inescapably bounded.
    #[test]
    fn iteration_counts_respect_budgets(
        problem_idx in 0usize..156,
        model_idx in 0usize..3,
        verilog in (0u8..2).prop_map(|b| b == 0),
        seed in 0u64..1_000_000,
        max_syntax in 1u32..5,
        max_functional in 1u32..5,
    ) {
        let config = Aivril2Config {
            max_syntax_iters: max_syntax,
            max_functional_iters: max_functional,
            ..Aivril2Config::default()
        };
        let r = run_pipeline(config, problem_idx, model_idx, verilog, seed);
        prop_assert!(
            r.trace.iterations(Stage::TbSyntaxLoop) <= max_syntax,
            "tb syntax loop overran: {} > {max_syntax}\n{}",
            r.trace.iterations(Stage::TbSyntaxLoop),
            r.trace.narration()
        );
        prop_assert!(
            r.trace.iterations(Stage::RtlSyntaxLoop) <= max_syntax,
            "rtl syntax loop overran: {} > {max_syntax}\n{}",
            r.trace.iterations(Stage::RtlSyntaxLoop),
            r.trace.narration()
        );
        prop_assert!(
            r.trace.iterations(Stage::FunctionalLoop) <= max_functional,
            "functional loop overran: {} > {max_functional}\n{}",
            r.trace.iterations(Stage::FunctionalLoop),
            r.trace.narration()
        );
    }

    /// The rollback mechanism's contract: the RTL a run returns is never
    /// worse (against the run's own frozen testbench) than the best
    /// version the functional loop observed.
    #[test]
    fn rollback_never_returns_worse_than_best_seen(
        problem_idx in 0usize..156,
        model_idx in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let r = run_pipeline(Aivril2Config::default(), problem_idx, model_idx, true, seed);
        let observed: Vec<usize> = r
            .trace
            .events
            .iter()
            .filter(|e| e.stage == Stage::FunctionalLoop)
            .filter_map(|e| simulate_failures(&e.what))
            .collect();
        if let Some(&best_seen) = observed.iter().min() {
            let tools = XsimToolSuite::new();
            let report = tools.simulate(
                &[
                    HdlFile::new("dut.v".to_string(), r.final_rtl.clone()),
                    HdlFile::new("tb.v".to_string(), r.final_tb.clone()),
                ],
                Some("tb"),
            );
            let final_failures = if report.passed {
                0
            } else if report.compiled {
                report.failures.len()
            } else {
                usize::MAX
            };
            prop_assert!(
                final_failures <= best_seen,
                "final RTL has {final_failures} failure(s) but the loop saw a \
                 version with only {best_seen}\n{}",
                r.trace.narration()
            );
        }
    }

    /// pass@k is a probability, monotone in c, and exact for k = n.
    #[test]
    fn pass_at_k_properties(n in 1u64..40, c in 0u64..40, k in 1u64..40) {
        let c = c.min(n);
        let k = k.min(n);
        let v = pass_at_k(n, c, k);
        prop_assert!((0.0..=1.0).contains(&v));
        if c > 0 {
            prop_assert!(v >= pass_at_k(n, c - 1, k) - 1e-12);
        }
        if k == n {
            // Drawing all samples: succeeds iff any sample is correct.
            prop_assert!((v - f64::from(u8::from(c > 0))).abs() < 1e-12);
        }
    }
}
