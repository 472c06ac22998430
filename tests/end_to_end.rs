//! Full-stack integration tests spanning every crate: benchmark suite →
//! simulated LLM → agents/loops → EDA tools → metrics.

use aivril_bench::{build_library, Flow, Harness, HarnessConfig};
use aivril_core::{Aivril2, Aivril2Config, Stage, TaskInput};
use aivril_eda::XsimToolSuite;
use aivril_llm::{profiles, SimLlm};
use aivril_metrics::suite_metric;

fn harness(tasks: usize, samples: u32) -> Harness {
    Harness::new(HarnessConfig {
        samples,
        task_limit: tasks,
        threads: 0,
        ..HarnessConfig::default()
    })
}

#[test]
fn aivril2_strictly_improves_every_model_on_a_slice() {
    let h = harness(12, 3);
    for profile in profiles::all() {
        let base = h.evaluate(&profile, true, Flow::Baseline);
        let full = h.evaluate(&profile, true, Flow::Aivril2);
        let base_s = suite_metric(&base, 1, |s| s.syntax);
        let full_s = suite_metric(&full, 1, |s| s.syntax);
        let base_f = suite_metric(&base, 1, |s| s.functional);
        let full_f = suite_metric(&full, 1, |s| s.functional);
        assert!(
            full_s >= base_s,
            "{}: syntax degraded {base_s} -> {full_s}",
            profile.name
        );
        assert!(
            full_f >= base_f,
            "{}: functional degraded {base_f} -> {full_f}",
            profile.name
        );
        assert!(
            full_s > 0.95,
            "{}: syntax loop must converge, got {full_s}",
            profile.name
        );
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let h = harness(4, 2);
    let profile = profiles::gpt4o();
    let a = h.evaluate(&profile, true, Flow::Aivril2);
    let b = h.evaluate(&profile, true, Flow::Aivril2);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.task, y.task);
        for (sx, sy) in x.samples.iter().zip(&y.samples) {
            assert_eq!(sx.syntax, sy.syntax);
            assert_eq!(sx.functional, sy.functional);
            assert!((sx.total_latency - sy.total_latency).abs() < 1e-9);
        }
    }
}

#[test]
fn vhdl_flow_runs_the_same_pipeline() {
    let h = harness(8, 2);
    let profile = profiles::claude35_sonnet();
    let full = h.evaluate(&profile, false, Flow::Aivril2);
    let s = suite_metric(&full, 1, |x| x.syntax);
    assert!(s > 0.9, "VHDL syntax loop should converge with Claude: {s}");
}

#[test]
fn trace_latencies_are_consistent() {
    let h = harness(1, 1);
    let p = &h.problems()[0];
    let mut model = SimLlm::new(profiles::llama3_70b(), build_library(h.problems()));
    let tools = XsimToolSuite::new();
    let pipeline = Aivril2::new(&tools, Aivril2Config::default());
    let task = TaskInput {
        name: p.name.clone(),
        module_name: p.module_name.clone(),
        spec: p.spec.clone(),
        verilog: true,
        seed: 5,
    };
    let r = pipeline.run(&mut model, &task);
    let by_stage: f64 = [
        Stage::TbGeneration,
        Stage::TbSyntaxLoop,
        Stage::RtlGeneration,
        Stage::RtlSyntaxLoop,
        Stage::FunctionalLoop,
    ]
    .iter()
    .map(|&s| r.trace.stage_latency(s))
    .sum();
    assert!((by_stage - r.trace.total_latency()).abs() < 1e-9);
    assert!(r.trace.total_latency() > 0.0);
}

#[test]
fn golden_rtl_always_scores_perfect() {
    // Cross-crate invariant: the scorer accepts every golden design.
    let h = harness(156, 1);
    for p in h.problems() {
        let (s, f) = h.score(p, &p.verilog.dut, true);
        assert!(s && f, "verilog golden {} must score clean", p.name);
    }
}

#[test]
fn corrupted_rtl_never_scores_functional() {
    use aivril_llm::mutate::{
        apply_fault, count_occurrences, functional_templates, AppliedFault, Dialect, FaultKind,
    };
    // Sampled invariant: at least 90% of single functional faults are
    // caught by the reference testbenches (a few equivalent mutants are
    // tolerated and compensated by profile calibration).
    let h = harness(30, 1);
    let (mut total, mut caught) = (0, 0);
    for p in h.problems() {
        let golden = &p.verilog.dut;
        for t in functional_templates(Dialect::Verilog) {
            if count_occurrences(golden, t.pattern) == 0 {
                continue;
            }
            let fault = AppliedFault {
                template: t.clone(),
                occurrence: 0,
                kind: FaultKind::Functional,
            };
            let mutated = apply_fault(golden, &fault);
            if *mutated == **golden {
                continue;
            }
            total += 1;
            let (_, f) = h.score(p, &mutated, true);
            if !f {
                caught += 1;
            }
        }
    }
    assert!(total > 30, "expected a meaningful sample, got {total}");
    assert!(
        f64::from(caught) / f64::from(total) > 0.9,
        "caught only {caught}/{total}"
    );
}
