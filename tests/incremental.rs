//! Incremental-compile invalidation suite: the per-file parse memo and
//! the closure-keyed elaboration memo must replay exactly when sources
//! are untouched, re-run exactly when they change, fall back to a
//! fresh elaboration whenever the closure key cannot be trusted — and
//! never change a single observable byte in any mode.

use aivril_bench::{results_json, Flow, Harness, HarnessConfig, ResultSection};
use aivril_eda::{CompileReport, EdaCache, HdlFile, ToolSuite, XsimToolSuite};
use aivril_llm::profiles;

/// Eight chained Verilog stages, one uninstantiated scratch module,
/// and the top (declared last so `find_top` resolves it).
fn chain_files() -> Vec<HdlFile> {
    let mut files = Vec::new();
    for i in 0..8 {
        files.push(HdlFile::new(
            format!("stage{i}.v"),
            format!(
                "module stage{i}(input [31:0] d, output [31:0] q);\n  \
                 assign q = d + 32'd{};\nendmodule\n",
                i + 1
            ),
        ));
    }
    files.push(HdlFile::new(
        "scratch.v",
        "module scratch(input s, output t);\n  assign t = ~s;\nendmodule\n",
    ));
    let mut top = String::from("module chain_top(input [31:0] din, output [31:0] dout);\n");
    for i in 0..8 {
        top.push_str(&format!("  wire [31:0] w{i};\n"));
    }
    for i in 0..8 {
        let src = if i == 0 {
            "din".to_string()
        } else {
            format!("w{}", i - 1)
        };
        top.push_str(&format!("  stage{i} u{i}(.d({src}), .q(w{i}));\n"));
    }
    top.push_str("  assign dout = w7;\nendmodule\n");
    files.push(HdlFile::new("top.v", top));
    files
}

fn incremental_suite(cache: &EdaCache) -> XsimToolSuite {
    XsimToolSuite::new().with_cache(cache.clone())
}

fn plain_suite() -> XsimToolSuite {
    XsimToolSuite::new()
}

/// The whole observable compile outcome, for byte-comparison between
/// the incremental and the from-scratch path.
fn fingerprint(report: &CompileReport) -> (bool, String, usize, u64) {
    (
        report.success,
        report.log.clone(),
        report.messages.len(),
        report.modeled_latency.to_bits(),
    )
}

#[test]
fn untouched_sources_hit_both_memos() {
    let cache = EdaCache::new();
    let suite = incremental_suite(&cache);
    let files = chain_files();
    let (r1, d1) = suite.compile_to_design(&files, None);
    assert!(r1.success, "chain must compile: {}", r1.log);
    assert_eq!(d1.as_deref().map(|d| d.top.as_str()), Some("chain_top"));
    let before = cache.stats();
    assert_eq!(
        (before.parse_hits, before.parse_misses),
        (0, 10),
        "cold compile parses every file once"
    );
    assert_eq!(
        (before.elab_hits, before.elab_misses),
        (0, 1),
        "cold compile elaborates once"
    );

    // Same sources with the top now explicit: a different whole-compile
    // key, but every file and the closure replay from the memos.
    let (r2, _) = suite.compile_to_design(&files, Some("chain_top"));
    assert!(r2.success);
    let after = cache.stats().since(&before);
    assert_eq!(
        (after.parse_hits, after.parse_misses),
        (10, 0),
        "identical texts at identical indices must all hit"
    );
    assert_eq!(
        (after.elab_hits, after.elab_misses),
        (1, 0),
        "an unchanged instantiation closure must replay elaboration"
    );
}

#[test]
fn edit_outside_the_closure_replays_elaboration() {
    let cache = EdaCache::new();
    let suite = incremental_suite(&cache);
    let files = chain_files();
    let (r1, _) = suite.compile_to_design(&files, None);
    assert!(r1.success);
    let before = cache.stats();

    let mut edited = files.clone();
    edited[8].text = format!("{}// cosmetic revision\n", edited[8].text).into();
    let (r2, _) = suite.compile_to_design(&edited, None);
    assert!(r2.success);
    let delta = cache.stats().since(&before);
    assert_eq!(
        (delta.parse_hits, delta.parse_misses),
        (9, 1),
        "only the edited file re-parses"
    );
    assert_eq!(
        (delta.elab_hits, delta.elab_misses),
        (1, 0),
        "an edit outside chain_top's instantiation closure must not \
         re-elaborate"
    );
    assert_eq!(
        fingerprint(&r2),
        fingerprint(&plain_suite().compile_to_design(&edited, None).0),
        "replayed elaboration must be byte-identical to a fresh compile"
    );
}

#[test]
fn edited_module_in_the_closure_reelaborates() {
    let cache = EdaCache::new();
    let suite = incremental_suite(&cache);
    let files = chain_files();
    let (r1, _) = suite.compile_to_design(&files, None);
    assert!(r1.success);
    let before = cache.stats();

    let mut edited = files.clone();
    edited[3].text = edited[3].text.replace("32'd4", "32'd40").into();
    let (r2, d2) = suite.compile_to_design(&edited, None);
    assert!(r2.success);
    let delta = cache.stats().since(&before);
    assert_eq!((delta.parse_hits, delta.parse_misses), (9, 1));
    assert_eq!(
        (delta.elab_hits, delta.elab_misses),
        (0, 1),
        "an edited module inside the closure must re-elaborate"
    );
    // The re-elaborated design actually reflects the edit.
    let fresh = plain_suite().compile_to_design(&edited, None);
    assert_eq!(fingerprint(&r2), fingerprint(&fresh.0));
    assert_eq!(
        format!("{:?}", d2),
        format!("{:?}", fresh.1),
        "memoized path must produce the same design as a fresh compile"
    );
}

#[test]
fn renamed_top_gets_its_own_closure_key() {
    let cache = EdaCache::new();
    let suite = incremental_suite(&cache);
    let files = chain_files();
    let (r1, _) = suite.compile_to_design(&files, None);
    assert!(r1.success);
    let before = cache.stats();

    // Rename the top module: find_top now resolves a different name,
    // so the closure key differs and elaboration must re-run — a
    // replay of chain_top's entry would report the wrong top.
    let mut renamed = files.clone();
    renamed[9].text = renamed[9].text.replace("chain_top", "alt_top").into();
    let (r2, d2) = suite.compile_to_design(&renamed, None);
    assert!(r2.success);
    let delta = cache.stats().since(&before);
    assert_eq!(
        (delta.elab_hits, delta.elab_misses),
        (0, 1),
        "a renamed top must never replay the old top's elaboration"
    );
    assert_eq!(d2.as_deref().map(|d| d.top.as_str()), Some("alt_top"));
}

#[test]
fn removed_module_reports_identically_to_a_fresh_compile() {
    let cache = EdaCache::new();
    let suite = incremental_suite(&cache);
    let files = chain_files();
    let (r1, _) = suite.compile_to_design(&files, None);
    assert!(r1.success);

    // Drop an instantiated stage: the closure walk sees an unknown
    // instance name, elaboration diagnoses it, and the failure must be
    // byte-identical to the non-incremental path.
    let mut removed = files.clone();
    removed.remove(3);
    let (r2, d2) = suite.compile_to_design(&removed, None);
    assert!(!r2.success, "missing module must fail");
    assert!(d2.is_none());
    let fresh = plain_suite().compile_to_design(&removed, None);
    assert!(!fresh.0.success);
    assert_eq!(fingerprint(&r2), fingerprint(&fresh.0));
}

#[test]
fn duplicate_module_names_bypass_the_elab_memo() {
    let cache = EdaCache::new();
    let suite = incremental_suite(&cache);
    let files = chain_files();
    let (r1, _) = suite.compile_to_design(&files, None);
    assert!(r1.success);
    let before = cache.stats();

    // A second definition of stage2: redeclaration is a *global*
    // diagnostic, so the closure key cannot represent the design and
    // the memo must be bypassed entirely (no hit, no miss).
    let mut dup = files.clone();
    dup.push(HdlFile::new(
        "stage2_copy.v",
        "module stage2(input [31:0] d, output [31:0] q);\n  \
         assign q = d;\nendmodule\n",
    ));
    let (r2, _) = suite.compile_to_design(&dup, None);
    let delta = cache.stats().since(&before);
    assert_eq!(
        (delta.elab_hits, delta.elab_misses),
        (0, 0),
        "ambiguous module sets must not touch the elaboration memo"
    );
    assert_eq!(
        fingerprint(&r2),
        fingerprint(&plain_suite().compile_to_design(&dup, None).0)
    );
}

#[test]
fn vhdl_closure_replays_and_falls_back_like_verilog() {
    let inner = HdlFile::new(
        "inner.vhd",
        "entity inner is\n  port (d : in std_logic; q : out std_logic);\nend inner;\n\
         architecture rtl of inner is\nbegin\n  q <= d;\nend rtl;\n",
    );
    let spare = HdlFile::new(
        "spare.vhd",
        "entity spare is\n  port (s : in std_logic; t : out std_logic);\nend spare;\n\
         architecture rtl of spare is\nbegin\n  t <= s;\nend rtl;\n",
    );
    let top = HdlFile::new(
        "wrap.vhd",
        "entity wrap is\n  port (d : in std_logic; q : out std_logic);\nend wrap;\n\
         architecture rtl of wrap is\nbegin\n  u0 : entity inner port map (d => d, q => q);\n\
         end rtl;\n",
    );
    let files = vec![inner, spare, top];
    let cache = EdaCache::new();
    let suite = incremental_suite(&cache);
    let (r1, d1) = suite.compile_to_design(&files, None);
    assert!(r1.success, "{}", r1.log);
    assert_eq!(d1.as_deref().map(|d| d.top.as_str()), Some("wrap"));
    let before = cache.stats();

    // An edit to the uninstantiated entity replays the elaboration.
    let mut edited = files.clone();
    edited[1].text = format!("{}-- cosmetic\n", edited[1].text).into();
    let (r2, _) = suite.compile_to_design(&edited, None);
    assert!(r2.success);
    let delta = cache.stats().since(&before);
    assert_eq!((delta.parse_hits, delta.parse_misses), (2, 1));
    assert_eq!((delta.elab_hits, delta.elab_misses), (1, 0));

    // A second architecture for `inner` makes selection order-
    // dependent: the memo must be bypassed.
    let before = cache.stats();
    let mut second_arch = files.clone();
    second_arch.push(HdlFile::new(
        "inner_alt.vhd",
        "architecture alt of inner is\nbegin\n  q <= d;\nend alt;\n",
    ));
    let (r3, _) = suite.compile_to_design(&second_arch, None);
    let delta = cache.stats().since(&before);
    assert_eq!(
        (delta.elab_hits, delta.elab_misses),
        (0, 0),
        "two architectures for one entity must bypass the memo"
    );
    assert_eq!(
        fingerprint(&r3),
        fingerprint(&plain_suite().compile_to_design(&second_arch, None).0)
    );
}

/// The end-to-end guarantee behind every `results/*.txt` artifact: the
/// canonical results JSON (what the table/figure binaries render from)
/// is byte-identical with the incremental memos on vs. off, at any
/// thread count.
#[test]
fn harness_results_are_byte_identical_incremental_on_off() {
    let run = |incremental: bool, threads: usize| -> String {
        let harness = Harness::new(HarnessConfig {
            samples: 2,
            task_limit: 4,
            threads,
            eda_cache: true,
            incremental,
            canonical: true,
            ..HarnessConfig::default()
        });
        let (outcomes, stats) =
            harness.evaluate_with_stats(&profiles::claude35_sonnet(), true, Flow::Aivril2);
        results_json(&[ResultSection {
            label: "aivril2".into(),
            outcomes,
            stats,
        }])
    };
    let reference = run(true, 1);
    for (incremental, threads) in [(true, 4), (false, 1), (false, 4)] {
        assert_eq!(
            reference,
            run(incremental, threads),
            "canonical artifact must not depend on incremental={incremental} \
             threads={threads}"
        );
    }
}

/// Every problem of the suite in both languages, golden and with a
/// syntax-broken DUT (its last line dropped): `analyze`,
/// `compile_to_design` and `simulate` report byte-identically with no
/// cache, with a cache but the incremental memos off, and with both on.
/// The cached suites run the three calls in order, so compile and
/// simulate replay the parses analyze memoised. Every second problem
/// keeps a debug build under 10 s and still covers every family.
#[test]
fn reports_are_byte_identical_across_cache_and_memo_modes() {
    let modes = [
        XsimToolSuite::new(),
        XsimToolSuite::new()
            .with_cache(EdaCache::new())
            .with_incremental(false),
        XsimToolSuite::new().with_cache(EdaCache::new()),
    ];
    let reports = |suite: &XsimToolSuite, files: &[HdlFile]| -> String {
        let analyzed = suite.analyze(files);
        let (compiled, design) = suite.compile_to_design(files, None);
        let simulated = suite.simulate(files, Some("tb"));
        let top = design.map(|d| d.top.clone());
        format!("{analyzed:?}\n{compiled:?}\n{top:?}\n{simulated:?}")
    };
    let suite = aivril_verilogeval::suite();
    let families = |stride| {
        let names = suite.iter().step_by(stride).map(|p| p.family.to_string());
        names.collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(families(2), families(1), "the stride skips a family");
    for problem in suite.iter().step_by(2) {
        for verilog in [true, false] {
            let golden = problem.golden(verilog);
            let ext = if verilog { "v" } else { "vhd" };
            let tb = HdlFile::new(format!("{}_tb.{ext}", problem.name), golden.tb.clone());
            let dut_name = format!("{}.{ext}", problem.name);
            let text = golden.dut.trim_end();
            let broken = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
            for (dut, syntax_ok) in [
                (HdlFile::new(&dut_name, golden.dut.clone()), true),
                (HdlFile::new(&dut_name, broken), false),
            ] {
                let files = [dut, tb.clone()];
                assert_eq!(modes[0].analyze(&files).success, syntax_ok, "{dut_name}");
                let reference = reports(&modes[0], &files);
                for (mode, suite) in modes.iter().enumerate().skip(1) {
                    assert_eq!(
                        reference,
                        reports(suite, &files),
                        "{} ({ext}) differs in mode {mode}",
                        files[0].name
                    );
                }
            }
        }
    }
}
