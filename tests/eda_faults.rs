//! Chaos-plane acceptance suite: the deterministic EDA/storage fault
//! injector (`AIVRIL_EDA_FAULTS`) must not cost the workspace any of
//! its determinism guarantees. Every fault decision is a pure hash of
//! the invocation's content key, so a faulted evaluation is required
//! to be **byte-identical** across worker-thread counts and cache
//! modes — and with the plan off, byte-identical to a build that has
//! never heard of faults.

use aivril_bench::{results_json, Flow, Harness, HarnessConfig, ResultSection};
use aivril_eda::EdaFaultPlan;
use aivril_llm::{profiles, FaultConfig};
use aivril_obs::{render_journal, Recorder};

/// A canonical-mode config so the whole results JSON (volatile stats
/// masked) is byte-comparable across schedules.
fn config(threads: usize) -> HarnessConfig {
    HarnessConfig {
        samples: 1,
        task_limit: 4,
        threads,
        canonical: true,
        ..HarnessConfig::default()
    }
}

/// The composed plan the acceptance criteria exercise: every tool
/// class plus disk chaos, at rates high enough to fire repeatedly on
/// a four-task grid.
fn plan() -> EdaFaultPlan {
    EdaFaultPlan::parse(
        "crash=0.25,hang=0.1,garbled=0.2,truncate=0.15,spurious_exit=0.2,\
         disk_probe_eio=0.3,disk_short_write=0.3,retry_max=2,watchdog_s=30",
    )
    .expect("plan parses")
}

/// One full grid (both flows, Verilog) under `cfg`: (results JSON,
/// rendered run journal, canonical metrics text).
fn artifacts(cfg: &HarnessConfig) -> (String, String, String) {
    let recorder = Recorder::new();
    let harness = Harness::new(cfg.clone()).with_recorder(recorder.clone());
    let profile = profiles::claude35_sonnet();
    let mut sections = Vec::new();
    for flow in [Flow::Baseline, Flow::Aivril2] {
        let (outcomes, stats) = harness.evaluate_with_stats(&profile, true, flow);
        sections.push(ResultSection {
            label: "chaos acceptance".into(),
            outcomes,
            stats,
        });
    }
    (
        results_json(&sections),
        render_journal(&recorder),
        recorder.metrics().canonical().render(),
    )
}

#[test]
fn faulted_artifacts_are_bit_identical_across_thread_counts() {
    let mut one = config(1);
    one.eda_faults = plan();
    let mut four = config(4);
    four.eda_faults = plan();
    let (res_1, jrn_1, met_1) = artifacts(&one);
    let (res_4, jrn_4, met_4) = artifacts(&four);
    assert_eq!(res_1, res_4, "faulted results must not see the schedule");
    assert_eq!(jrn_1, jrn_4, "faulted journals must not see the schedule");
    assert_eq!(met_1, met_4, "faulted metrics must not see the schedule");

    // The plan is live, not decorative: it must change outcomes
    // relative to the clean run (crashes exhaust retries and fail
    // compiles that would otherwise succeed).
    let (clean, _, _) = artifacts(&config(1));
    assert_ne!(res_1, clean, "a composed fault plan must actually fire");
}

#[test]
fn faulted_artifacts_are_bit_identical_across_cache_modes() {
    let mut off = config(2);
    off.eda_faults = plan();
    let mut on = off.clone();
    on.eda_cache = true;
    let (res_off, jrn_off, _) = artifacts(&off);
    let (res_on, jrn_on, _) = artifacts(&on);
    assert_eq!(res_off, res_on, "faults must roll on content, not on hits");
    assert_eq!(jrn_off, jrn_on);
}

#[test]
fn composed_llm_and_eda_faults_stay_deterministic() {
    let compose = |threads: usize| {
        let mut cfg = config(threads);
        cfg.faults = FaultConfig::uniform(0.15);
        cfg.eda_faults = plan();
        cfg
    };
    let (res_1, jrn_1, met_1) = artifacts(&compose(1));
    let (res_4, jrn_4, met_4) = artifacts(&compose(4));
    assert_eq!(res_1, res_4);
    assert_eq!(jrn_1, jrn_4);
    assert_eq!(met_1, met_4);
}

#[test]
fn an_off_plan_is_exactly_the_default_code_path() {
    // `EdaFaultPlan::off()` (what an unset `AIVRIL_EDA_FAULTS`
    // resolves to) must be indistinguishable from a config that never
    // touched the field: same results, same journal, same metrics.
    let default = config(2);
    let mut explicit = config(2);
    explicit.eda_faults = EdaFaultPlan::off();
    assert!(explicit.eda_faults.is_off());
    let (res_d, jrn_d, met_d) = artifacts(&default);
    let (res_e, jrn_e, met_e) = artifacts(&explicit);
    assert_eq!(res_d, res_e);
    assert_eq!(jrn_d, jrn_e);
    assert_eq!(met_d, met_e);
}

#[test]
fn both_fault_plans_share_one_grammar() {
    // Inputs that name no class: `AIVRIL_FAULTS` and
    // `AIVRIL_EDA_FAULTS` must accept and reject exactly the same ones,
    // and agree on what an accepted one means.
    let off = [
        "", "  ", "off", "OFF", " Off ", "0", "0.0", ",", ",,", " , ,",
    ];
    let uniform = [("0.25", 0.25), (" 1 ", 1.0), ("1.0", 1.0), ("0.5", 0.5)];
    let rejected = [
        "1.5", "-0.1", "NaN", "inf", "-inf", "x", "0.1,", "=", "=0.1", "warp=0.1", "a=b=c", "off,",
        "0.1 0.2",
    ];
    for s in off {
        let (llm, eda) = (FaultConfig::parse(s), EdaFaultPlan::parse(s));
        assert_eq!(llm, Ok(FaultConfig::off()), "{s:?}");
        assert_eq!(eda, Ok(EdaFaultPlan::off()), "{s:?}");
    }
    for (s, rate) in uniform {
        assert_eq!(
            FaultConfig::parse(s),
            Ok(FaultConfig::uniform(rate)),
            "{s:?}"
        );
        assert_eq!(
            EdaFaultPlan::parse(s),
            Ok(EdaFaultPlan::uniform(rate)),
            "{s:?}"
        );
    }
    for s in rejected {
        assert!(FaultConfig::parse(s).is_err(), "{s:?}");
        assert!(EdaFaultPlan::parse(s).is_err(), "{s:?}");
    }
    // The same holds per class: skipped empty pairs, any-case `off`
    // and duplicate refusal apply to both class tables.
    assert_eq!(
        FaultConfig::parse("timeout=0.1,,truncate=0.2,").map(|c| (c.timeout, c.truncate)),
        Ok((0.1, 0.2))
    );
    assert_eq!(
        EdaFaultPlan::parse("crash=0.1,,hang=0.2,").map(|p| (p.crash, p.hang)),
        Ok((0.1, 0.2))
    );
    assert!(FaultConfig::parse("empty=0.1,empty=0.1").is_err());
    assert!(EdaFaultPlan::parse("hang=0.1,hang=0.1").is_err());
}
