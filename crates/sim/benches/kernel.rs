//! Simulation-kernel microbenchmarks.
//!
//! Four workloads exercise the kernel's and the EDA layer's hot paths:
//!
//! * `clkdiv_osc` — an oscillating clock driving a 32-bit divider chain
//!   with ternary/compare feedback: every value fits one 64-bit word,
//!   so this measures the inline-`LogicVec` + compiled-bytecode steady
//!   state (zero allocations per activation).
//! * `wide_adder` — a 256-bit accumulator pipeline, measuring the
//!   multi-word arithmetic paths through the pre-sized wide-value
//!   arena (zero allocations per activation too).
//! * `wide_mix` — a 384/512-bit datapath mixing xor/shift/add/mul with
//!   slices, concatenation, replication and a ternary whose condition
//!   stays `X` for the whole run, so every four-state merge and
//!   word-parallel unknown-plane path runs hot — still allocation-free.
//! * `many_module` — a ten-file Verilog hierarchy compiled through
//!   `XsimToolSuite`'s incremental path: each iteration edits one file
//!   outside the top's instantiation closure, so a compile re-parses
//!   one file and replays the memoized elaboration. Set
//!   `AIVRIL_BENCH_NOINC=1` to disable the incremental memos and
//!   measure the full-recompile baseline.
//!
//! Run with `cargo bench -p aivril-sim --bench kernel`. Environment
//! switches (see the vendored criterion stand-in): `CRITERION_QUICK=1`
//! for a fast smoke run, `CRITERION_JSON=<path>` for a machine-readable
//! report. Additionally `AIVRIL_BENCH_RESULTS=<path>` writes each
//! workload's *functional* outcome (log lines, end time, instruction
//! count) to `<path>` before timing — CI diffs that artifact against
//! `crates/sim/benches/expected_results.txt` to prove optimisations
//! changed no observable output. `BENCH_SIM.json` at the repo root
//! records the tracked before/after timings.

use aivril_hdl::ir::{
    BinaryOp, Design, Expr, Instr, LValue, Net, NetKind, Process, ProcessKind, SysTaskKind,
    Trigger, UnaryOp,
};
use aivril_hdl::vec::LogicVec;
use aivril_sim::{KernelPerf, SimConfig, SimResult, Simulator};
use criterion::{criterion_group, criterion_main, Criterion};

fn net(d: &mut Design, name: &str, width: u32, init: u64) -> aivril_hdl::ir::NetId {
    d.add_net(Net {
        name: name.into(),
        width,
        kind: NetKind::Reg,
        init: Some(LogicVec::from_u64(width, init)),
    })
}

fn binary(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

/// `forever #half clk = ~clk;` plus `#run_for; $display(...); $finish`.
fn add_clock_and_finish(
    d: &mut Design,
    clk: aivril_hdl::ir::NetId,
    half_period: u64,
    run_for: u64,
    summary_format: &str,
    summary_args: Vec<Expr>,
) {
    d.add_process(Process {
        name: "clkgen".into(),
        kind: ProcessKind::Always,
        body: vec![
            Instr::Delay {
                amount: Expr::constant(64, half_period),
            },
            Instr::BlockingAssign {
                lvalue: LValue::Net(clk),
                expr: Expr::Unary {
                    op: UnaryOp::Not,
                    operand: Box::new(Expr::Net(clk)),
                },
            },
            Instr::Jump(0),
        ],
    });
    d.add_process(Process {
        name: "timeout".into(),
        kind: ProcessKind::Initial,
        body: vec![
            Instr::Delay {
                amount: Expr::constant(64, run_for),
            },
            Instr::SysCall {
                kind: SysTaskKind::Display,
                format: Some(summary_format.into()),
                args: summary_args,
            },
            Instr::SysCall {
                kind: SysTaskKind::Finish,
                format: None,
                args: vec![],
            },
            Instr::Halt,
        ],
    });
}

/// Oscillating clock divider: every net is <= 64 bits wide, so the whole
/// steady state should run allocation-free through the inline-word
/// representation and compiled bytecode.
fn clkdiv_design() -> Design {
    let mut d = Design::new("clkdiv_osc");
    let clk = net(&mut d, "clk", 1, 0);
    let div = net(&mut d, "div", 32, 0);
    let q = net(&mut d, "q", 16, 0);
    let tap = net(&mut d, "tap", 1, 0);
    // always @(posedge clk) begin
    //   div <= div + 1;
    //   q <= ((div & 15) == 0) ? q + 3 : q ^ (div >> 4);
    // end
    d.add_process(Process {
        name: "divider".into(),
        kind: ProcessKind::Always,
        body: vec![
            Instr::WaitEvent {
                triggers: vec![Trigger::Posedge(clk)],
            },
            Instr::NonblockingAssign {
                lvalue: LValue::Net(div),
                expr: binary(BinaryOp::Add, Expr::Net(div), Expr::constant(32, 1)),
            },
            Instr::NonblockingAssign {
                lvalue: LValue::Net(q),
                expr: Expr::Ternary {
                    cond: Box::new(binary(
                        BinaryOp::Eq,
                        binary(BinaryOp::And, Expr::Net(div), Expr::constant(32, 15)),
                        Expr::constant(32, 0),
                    )),
                    then: Box::new(binary(BinaryOp::Add, Expr::Net(q), Expr::constant(16, 3))),
                    els: Box::new(binary(
                        BinaryOp::Xor,
                        Expr::Net(q),
                        binary(BinaryOp::Shr, Expr::Net(div), Expr::constant(32, 4)),
                    )),
                },
            },
            Instr::Jump(0),
        ],
    });
    // assign tap = div[7];
    d.add_continuous_assign(
        LValue::Net(tap),
        Expr::Range {
            net: div,
            msb: 7,
            lsb: 7,
        },
    );
    add_clock_and_finish(
        &mut d,
        clk,
        5,
        100_000,
        "div=%h q=%h tap=%b",
        vec![Expr::Net(div), Expr::Net(q), Expr::Net(tap)],
    );
    d
}

/// Wide-adder testbench: a 256-bit accumulator pipeline exercising the
/// spilled (multi-word) arithmetic, bitwise and shift paths.
fn wide_adder_design() -> Design {
    let mut d = Design::new("wide_adder");
    let clk = net(&mut d, "clk", 1, 0);
    let a = net(&mut d, "a", 256, 0x0123_4567_89ab_cdef);
    let b = net(&mut d, "b", 256, 0xfedc_ba98_7654_3210);
    let acc = net(&mut d, "acc", 256, 1);
    // always @(posedge clk) begin
    //   acc <= acc + (a ^ b) + (acc >> 1);
    //   a <= a + 257;
    //   b <= b - 3;
    // end
    d.add_process(Process {
        name: "adder".into(),
        kind: ProcessKind::Always,
        body: vec![
            Instr::WaitEvent {
                triggers: vec![Trigger::Posedge(clk)],
            },
            Instr::NonblockingAssign {
                lvalue: LValue::Net(acc),
                expr: binary(
                    BinaryOp::Add,
                    binary(
                        BinaryOp::Add,
                        Expr::Net(acc),
                        binary(BinaryOp::Xor, Expr::Net(a), Expr::Net(b)),
                    ),
                    binary(BinaryOp::Shr, Expr::Net(acc), Expr::constant(32, 1)),
                ),
            },
            Instr::NonblockingAssign {
                lvalue: LValue::Net(a),
                expr: binary(BinaryOp::Add, Expr::Net(a), Expr::constant(256, 257)),
            },
            Instr::NonblockingAssign {
                lvalue: LValue::Net(b),
                expr: binary(BinaryOp::Sub, Expr::Net(b), Expr::constant(256, 3)),
            },
            Instr::Jump(0),
        ],
    });
    add_clock_and_finish(
        &mut d,
        clk,
        5,
        20_000,
        "acc=%h a=%h b=%h",
        vec![Expr::Net(acc), Expr::Net(a), Expr::Net(b)],
    );
    d
}

/// Wide mixed-operation datapath: 384- and 512-bit values through
/// xor/shift/add/mul, slices, concatenation, replication and a ternary
/// whose condition is never driven — it stays `X`, forcing the
/// four-state merge path (and unknown-plane propagation through every
/// word-parallel op) on each cycle.
fn wide_mix_design() -> Design {
    let mut d = Design::new("wide_mix");
    let clk = net(&mut d, "clk", 1, 0);
    let a = net(&mut d, "a", 512, 0x0123_4567_89ab_cdef);
    let b = net(&mut d, "b", 512, 0x0f0f_f0f0_5a5a_a5a5);
    let m = net(&mut d, "m", 384, 7);
    // Declared but never driven: permanently X.
    let xcond = d.add_net(Net {
        name: "xcond".into(),
        width: 1,
        kind: NetKind::Reg,
        init: None,
    });
    // always @(posedge clk) begin
    //   a <= (a ^ (a >> 3)) + {8{m[47:0]}};
    //   b <= xcond ? b + 513 : {b[255:0], a[511:256]};
    //   m <= (m | a[400:17]) & (m * 3);
    // end
    // `a` and `m` stay fully known (a rich hex fingerprint in the
    // artifact); `b` soaks up the X condition through the merge, the
    // add-with-unknowns and the mixed known/unknown concatenation.
    d.add_process(Process {
        name: "mixer".into(),
        kind: ProcessKind::Always,
        body: vec![
            Instr::WaitEvent {
                triggers: vec![Trigger::Posedge(clk)],
            },
            Instr::NonblockingAssign {
                lvalue: LValue::Net(a),
                expr: binary(
                    BinaryOp::Add,
                    binary(
                        BinaryOp::Xor,
                        Expr::Net(a),
                        binary(BinaryOp::Shr, Expr::Net(a), Expr::constant(32, 3)),
                    ),
                    Expr::Repeat {
                        count: 8,
                        operand: Box::new(Expr::Range {
                            net: m,
                            msb: 47,
                            lsb: 0,
                        }),
                    },
                ),
            },
            Instr::NonblockingAssign {
                lvalue: LValue::Net(b),
                expr: Expr::Ternary {
                    cond: Box::new(Expr::Net(xcond)),
                    then: Box::new(binary(
                        BinaryOp::Add,
                        Expr::Net(b),
                        Expr::constant(512, 513),
                    )),
                    els: Box::new(Expr::Concat(vec![
                        Expr::Range {
                            net: b,
                            msb: 255,
                            lsb: 0,
                        },
                        Expr::Range {
                            net: a,
                            msb: 511,
                            lsb: 256,
                        },
                    ])),
                },
            },
            Instr::NonblockingAssign {
                lvalue: LValue::Net(m),
                expr: binary(
                    BinaryOp::And,
                    binary(
                        BinaryOp::Or,
                        Expr::Net(m),
                        Expr::Range {
                            net: a,
                            msb: 400,
                            lsb: 17,
                        },
                    ),
                    binary(BinaryOp::Mul, Expr::Net(m), Expr::constant(384, 3)),
                ),
            },
            Instr::Jump(0),
        ],
    });
    add_clock_and_finish(
        &mut d,
        clk,
        5,
        20_000,
        "a=%h b=%h m=%h",
        vec![Expr::Net(a), Expr::Net(b), Expr::Net(m)],
    );
    d
}

/// The many-module workload: eight chained 32-bit stages under one
/// top, plus a module nothing instantiates (so edits to it stay
/// outside every elaboration closure). The top comes last — `find_top`
/// prefers later definitions.
fn many_module_files() -> Vec<aivril_eda::HdlFile> {
    let mut files = Vec::new();
    for i in 0..8 {
        files.push(aivril_eda::HdlFile::new(
            format!("stage{i}.v"),
            format!(
                "module stage{i}(input [31:0] d, output [31:0] q);\n  \
                 assign q = d + 32'd{};\nendmodule\n",
                i + 1
            ),
        ));
    }
    files.push(aivril_eda::HdlFile::new(
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
    files.push(aivril_eda::HdlFile::new("top.v", top));
    files
}

fn many_module_suite(cache: aivril_eda::EdaCache) -> aivril_eda::XsimToolSuite {
    aivril_eda::XsimToolSuite::new()
        .with_cache(cache)
        .with_incremental(std::env::var("AIVRIL_BENCH_NOINC").is_err())
}

/// Drives the incremental-compile scenario once and renders its
/// functional outcome: cold compile, explicit-top recompile (same
/// closure — elaboration replays), an edit outside the closure
/// (elaboration replays again), and an edit inside it (elaboration
/// reruns). Counter values are schedule-independent, so the artifact is
/// byte-stable.
fn many_module_artifact() -> String {
    let files = many_module_files();
    let cache = aivril_eda::EdaCache::new();
    let suite = many_module_suite(cache.clone());

    let (r1, design) = suite.compile_to_design(&files, None);
    let (r2, _) = suite.compile_to_design(&files, Some("chain_top"));
    let mut outside = files.clone();
    outside[8].text = format!("{}// revision note\n", outside[8].text).into();
    let (r3, _) = suite.compile_to_design(&outside, None);
    let mut inside = files.clone();
    inside[3].text = inside[3].text.replace("32'd4", "32'd40").into();
    let (r4, _) = suite.compile_to_design(&inside, None);

    let stats = cache.stats();
    if std::env::var("AIVRIL_BENCH_NOINC").is_err() {
        assert!(
            stats.elab_hits >= 2,
            "the explicit-top and outside-closure compiles must replay \
             the memoized elaboration: {stats}"
        );
    }
    let mut out = String::new();
    out.push_str("bench: many_module\n");
    out.push_str(&format!(
        "success: {} {} {} {}\n",
        r1.success, r2.success, r3.success, r4.success
    ));
    out.push_str(&format!(
        "top: {}\n",
        design.as_deref().map_or("<none>", |d| d.top.as_str())
    ));
    out.push_str(&format!(
        "parse: {} hits / {} misses\n",
        stats.parse_hits, stats.parse_misses
    ));
    out.push_str(&format!(
        "elab: {} hits / {} misses\n",
        stats.elab_hits, stats.elab_misses
    ));
    out.push_str("---\n");
    out
}

fn run_once(design: &Design) -> SimResult {
    Simulator::new(design, SimConfig::default()).run()
}

fn run_with_perf(design: &Design) -> (SimResult, KernelPerf) {
    let mut sim = Simulator::new(design, SimConfig::default());
    let result = sim.run();
    let perf = sim.perf();
    (result, perf)
}

/// Renders one workload's functional outcome — everything observable
/// about the run except wall-clock time. Byte-stable across kernel
/// optimisations by construction. The `eval_allocs` line pins the
/// zero-steady-state-allocation claim — 0 for every workload now that
/// wide values run through the pre-sized arena.
fn result_artifact(name: &str, result: &SimResult, perf: &KernelPerf) -> String {
    let mut out = String::new();
    out.push_str(&format!("bench: {name}\n"));
    out.push_str(&format!("end_time: {}\n", result.end_time));
    out.push_str(&format!("finished: {}\n", result.finished));
    out.push_str(&format!("starved: {}\n", result.starved));
    out.push_str(&format!("errors: {}\n", result.error_count));
    out.push_str(&format!("limit: {:?}\n", result.limit_hit));
    out.push_str(&format!("instructions: {}\n", result.instructions_executed));
    out.push_str(&format!("eval_allocs: {}\n", perf.eval_allocs));
    for line in &result.lines {
        out.push_str(&format!("log[{}]: {}\n", line.time, line.text));
    }
    out.push_str("---\n");
    out
}

/// When `AIVRIL_BENCH_RESULTS` is set, runs each workload once and
/// writes the combined functional artifact there.
fn maybe_write_results() {
    let Ok(path) = std::env::var("AIVRIL_BENCH_RESULTS") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let mut combined = String::new();
    for (name, design) in [
        ("clkdiv_osc", clkdiv_design()),
        ("wide_adder", wide_adder_design()),
        ("wide_mix", wide_mix_design()),
    ] {
        let (result, perf) = run_with_perf(&design);
        combined.push_str(&result_artifact(name, &result, &perf));
    }
    combined.push_str(&many_module_artifact());
    std::fs::write(&path, combined).expect("write AIVRIL_BENCH_RESULTS artifact");
    eprintln!("[bench] wrote kernel result artifact to {path}");
}

fn bench_clkdiv(c: &mut Criterion) {
    let design = clkdiv_design();
    let (result, perf) = run_with_perf(&design);
    assert!(result.finished, "clkdiv bench design must finish cleanly");
    assert_eq!(
        perf.eval_allocs, 0,
        "every clkdiv net fits one word: the compiled steady state must \
         be allocation-free"
    );
    c.bench_function("sim_kernel/clkdiv_osc", |bencher| {
        bencher.iter(|| run_once(&design))
    });
}

fn bench_wide_adder(c: &mut Criterion) {
    let design = wide_adder_design();
    let (result, perf) = run_with_perf(&design);
    assert!(
        result.finished,
        "wide-adder bench design must finish cleanly"
    );
    assert_eq!(
        perf.eval_allocs, 0,
        "the 256-bit workload must run allocation-free through the \
         pre-sized wide-value arena"
    );
    c.bench_function("sim_kernel/wide_adder", |bencher| {
        bencher.iter(|| run_once(&design))
    });
}

fn bench_wide_mix(c: &mut Criterion) {
    let design = wide_mix_design();
    let (result, perf) = run_with_perf(&design);
    assert!(result.finished, "wide-mix bench design must finish cleanly");
    assert_eq!(
        perf.eval_allocs, 0,
        "the 384/512-bit four-state workload must run allocation-free \
         through the pre-sized wide-value arena"
    );
    c.bench_function("sim_kernel/wide_mix", |bencher| {
        bencher.iter(|| run_once(&design))
    });
}

fn bench_many_module(c: &mut Criterion) {
    // One warm-up pass checks the functional outcome and the memo
    // accounting before any timing happens.
    let _ = many_module_artifact();
    let files = many_module_files();
    let cache = aivril_eda::EdaCache::new();
    let suite = many_module_suite(cache.clone());
    let (report, _) = suite.compile_to_design(&files, None);
    assert!(report.success, "many-module hierarchy must compile");
    // Each iteration edits the one file outside the top's instantiation
    // closure — a distinct text per iteration, so the whole-invocation
    // compile cache always misses and the timing measures the
    // incremental path: nine parse replays + one fresh parse + one
    // elaboration replay (or a full recompile with AIVRIL_BENCH_NOINC).
    let mut revision = 0u64;
    c.bench_function("sim_kernel/many_module", |bencher| {
        bencher.iter(|| {
            revision += 1;
            let mut edited = files.clone();
            edited[8].text = format!(
                "module scratch(input s, output t);\n  \
                 assign t = ~s; // rev {revision}\nendmodule\n"
            )
            .into();
            suite.compile_to_design(&edited, None)
        })
    });
}

fn bench_entry(c: &mut Criterion) {
    maybe_write_results();
    bench_clkdiv(c);
    bench_wide_adder(c);
    bench_wide_mix(c);
    bench_many_module(c);
}

criterion_group!(kernel, bench_entry);
criterion_main!(kernel);
