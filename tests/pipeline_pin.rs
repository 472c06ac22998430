//! Pipeline pin: one digest per flow configuration over a fixed slice
//! of the suite, compared against committed constants.
//!
//! The other suites compare runs with each other (thread counts,
//! reruns, cache modes), so a change that moves every run the same way
//! gets through them. These digests catch it. Each one covers, for
//! every run of the slice:
//!
//! - every `RunTrace` event: stage, kind, narration, and both modeled
//!   latencies as `f64::to_bits`;
//! - the `RunResult`: final RTL and testbench, both pass flags and the
//!   `ResilienceCounters`;
//! - the recorder's journal and metrics, rendered once per
//!   configuration.
//!
//! A change that moves a constant on purpose states why in its commit.

use aivril_bench::{build_library, run_seed};
use aivril_core::{
    Aivril2, Aivril2Config, BaselineFlow, PromptDetail, RunResult, StaticUser, TaskInput,
    TraceEventKind,
};
use aivril_eda::XsimToolSuite;
use aivril_llm::{profiles, FaultConfig, SimLlm};
use aivril_obs::siphash::SipHasher13;
use aivril_obs::{render_journal, Recorder};
use aivril_verilogeval::{suite, Problem};
use std::hash::Hasher;

/// The CI job's fault plan (`AIVRIL_FAULTS` in the resilience step).
const CI_FAULTS: &str = "timeout=0.2,rate_limit=0.15,truncate=0.1,empty=0.05,wrong_language=0.05";

/// Which flow a configuration runs, and how it reaches the pipeline.
#[derive(Clone, Copy)]
enum Flow {
    Aivril2,
    Baseline,
    /// AIVRIL2 on a prompt stripped of its task header, with a
    /// `StaticUser` holding the full spec.
    Clarified,
}

/// Every 13th problem from 10 on: twelve problems over most families,
/// the last two with a fault-free rollback.
fn slice(problems: &[Problem]) -> impl Iterator<Item = &Problem> {
    problems.iter().filter(|p| p.id % 13 == 10)
}

struct Digest {
    hash: SipHasher13,
    /// Every event narration seen, for the coverage checks.
    narrations: Vec<String>,
    kinds: Vec<TraceEventKind>,
}

impl Digest {
    fn run(&mut self, r: &RunResult) {
        let h = &mut self.hash;
        h.write_u64(r.trace.events.len() as u64);
        for e in &r.trace.events {
            h.write_str_pinned(&format!("{:?}", e.stage));
            h.write_str_pinned(&format!("{:?}", e.kind));
            h.write_str_pinned(&e.what);
            h.write_u64(e.llm_latency.to_bits());
            h.write_u64(e.tool_latency.to_bits());
            self.narrations.push(e.what.clone());
            self.kinds.push(e.kind);
        }
        h.write_str_pinned(&r.final_rtl);
        h.write_str_pinned(&r.final_tb);
        h.write_u8(u8::from(r.syntax_pass));
        h.write_u8(u8::from(r.functional_pass));
        let c = &r.resilience;
        for n in [
            c.llm_faults,
            c.retries,
            c.breaker_opens,
            c.degraded,
            c.sim_diverged,
        ] {
            h.write_u32(n);
        }
        h.write_u64(c.backoff_s.to_bits());
    }

    fn saw(&self, needle: &str) -> bool {
        self.narrations.iter().any(|n| n.contains(needle))
    }

    fn saw_kind(&self, kind: TraceEventKind) -> bool {
        self.kinds.contains(&kind)
    }
}

/// Runs the slice under `config` and returns its digest.
fn pin(flow: Flow, config: Aivril2Config, faults: FaultConfig) -> (u64, Digest) {
    let problems = suite();
    let library = std::sync::Arc::new(build_library(&problems));
    let models = [
        profiles::llama3_70b(),
        profiles::gpt4o(),
        profiles::claude35_sonnet(),
    ];
    let rec = Recorder::new();
    let tools = XsimToolSuite::new().with_recorder(rec.clone());
    let pipeline = Aivril2::new(&tools, config).with_recorder(rec.clone());
    let mut digest = Digest {
        hash: SipHasher13::new(),
        narrations: Vec::new(),
        kinds: Vec::new(),
    };
    for (i, problem) in slice(&problems).enumerate() {
        let profile = &models[i % models.len()];
        for sample in 0..2u32 {
            for verilog in [true, false] {
                let mut model = SimLlm::new(profile.clone(), library.clone())
                    .with_faults(faults)
                    .with_recorder(rec.clone());
                let task = TaskInput {
                    name: problem.name.clone(),
                    module_name: problem.module_name.clone(),
                    spec: problem.spec.clone(),
                    verilog,
                    seed: run_seed(problem.id, sample),
                };
                rec.begin_run(problem.id as u32, sample * 2 + u32::from(verilog));
                let result = match flow {
                    Flow::Aivril2 => pipeline.run(&mut model, &task),
                    Flow::Baseline => BaselineFlow::new().run(&mut model, &task, &config),
                    Flow::Clarified => {
                        let vague = TaskInput {
                            spec: "Please build the module.".into(),
                            ..task.clone()
                        };
                        pipeline.run_with_user(&mut model, &vague, &StaticUser::new(task.spec))
                    }
                };
                rec.end_run();
                digest.run(&result);
            }
        }
    }
    digest.hash.write_str_pinned(&render_journal(&rec));
    digest.hash.write_str_pinned(&rec.metrics().render());
    (digest.hash.finish(), digest)
}

fn assert_pinned(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: pipeline digest moved ({got:#018x}, pinned {want:#018x})"
    );
}

#[test]
fn default_config_is_pinned() {
    let (got, d) = pin(Flow::Aivril2, Aivril2Config::default(), FaultConfig::off());
    assert!(
        d.saw_kind(TraceEventKind::Rollback),
        "slice has no rollback"
    );
    assert_pinned("default", got, 0x332d_69b5_34fe_7fd1);
}

#[test]
fn without_testbench_first_is_pinned() {
    let config = Aivril2Config {
        testbench_first: false,
        ..Aivril2Config::default()
    };
    let (got, d) = pin(Flow::Aivril2, config, FaultConfig::off());
    assert!(!d.saw_kind(TraceEventKind::Analysis));
    assert_pinned("testbench_first=false", got, 0x153e_df27_936e_84f4);
}

#[test]
fn errors_only_prompts_are_pinned() {
    let config = Aivril2Config {
        prompt_detail: PromptDetail::ErrorsOnly,
        ..Aivril2Config::default()
    };
    let (got, _) = pin(Flow::Aivril2, config, FaultConfig::off());
    assert_pinned("errors-only", got, 0x7719_6460_13a0_8e35);
}

/// Fault-free revisions never break compilation, so only a faulted run
/// (a truncated or wrong-language reply in the functional loop) reaches
/// the loop's syntax prompt.
#[test]
fn errors_only_prompts_under_faults_are_pinned() {
    let config = Aivril2Config {
        prompt_detail: PromptDetail::ErrorsOnly,
        ..Aivril2Config::default()
    };
    let faults = FaultConfig::parse(CI_FAULTS).expect("valid plan");
    let (got, d) = pin(Flow::Aivril2, config, faults);
    assert!(
        d.saw("revision failed to compile"),
        "slice never breaks compilation"
    );
    // Moved when the functional loop's compile-broken prompt stopped
    // ignoring `PromptDetail` (it was always the detailed one).
    assert_pinned("errors-only under faults", got, 0x0ef7_05ec_ee7f_7950);
}

#[test]
fn budgets_of_one_are_pinned() {
    let config = Aivril2Config {
        max_syntax_iters: 1,
        max_functional_iters: 1,
        ..Aivril2Config::default()
    };
    let (got, _) = pin(Flow::Aivril2, config, FaultConfig::off());
    assert_pinned("budgets of 1", got, 0xe373_6cc8_5cfe_d73b);
}

#[test]
fn ci_fault_plan_is_pinned() {
    let faults = FaultConfig::parse(CI_FAULTS).expect("valid plan");
    let (got, d) = pin(Flow::Aivril2, Aivril2Config::default(), faults);
    assert!(d.saw_kind(TraceEventKind::Retry), "plan never retries");
    assert!(d.saw_kind(TraceEventKind::Degraded), "plan never degrades");
    assert!(
        d.saw("revision failed to compile"),
        "slice never breaks compilation"
    );
    assert_pinned("CI fault plan", got, 0x43d9_16ad_5a43_da19);
}

#[test]
fn baseline_flow_is_pinned() {
    let (got, d) = pin(Flow::Baseline, Aivril2Config::default(), FaultConfig::off());
    assert!(d.saw_kind(TraceEventKind::Generation));
    assert_pinned("baseline", got, 0x5815_5d27_2b39_90b6);
}

#[test]
fn clarification_run_is_pinned() {
    let (got, d) = pin(
        Flow::Clarified,
        Aivril2Config::default(),
        FaultConfig::off(),
    );
    assert!(d.saw("user supplied additional detail"));
    assert_pinned("clarification", got, 0xe8be_a9c5_303f_772c);
}
