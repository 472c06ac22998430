//! Allocation gates for the HDL frontends and the compile path.
//!
//! Tokens are `Copy` views into the source text, so lexing a file
//! allocates only the token vector itself (reserved from the file's
//! length, grown at most once), however many tokens it holds. A
//! counting global allocator checks that for every golden DUT and
//! testbench of the suite, in both languages, and reports how many
//! allocations a whole `analyze_file` (lex + parse + AST) makes per
//! token. It then counts every phase of compiling and simulating each
//! golden DUT+testbench pair — parse, elaboration, lowering, run — and
//! gates each one. Finally it gates what a parsed file keeps: the live
//! AST bytes per source byte of the golden testbenches, and the widths
//! of the statement and expression nodes. Run it with `--nocapture` for
//! the per-phase table and the measured ratios.

use aivril_hdl::diag::Diagnostics;
use aivril_hdl::source::FileId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed on this thread (layout sizes,
    /// so allocator overhead is not counted).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation of `grown` more live bytes.
fn count(grown: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|n| n.set(n.get() + grown));
}

fn size(layout: Layout) -> i64 {
    i64::try_from(layout.size()).expect("allocation size fits i64")
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(size(layout));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(size(layout));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(i64::try_from(new_size).expect("allocation size fits i64") - size(layout));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - size(layout)));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the number of allocations
/// (including reallocations) it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the bytes it left allocated on
/// this thread: what the result holds, once `f`'s temporaries are gone.
fn retained<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    let grown = LIVE.with(Cell::get) - before;
    (
        out,
        u64::try_from(grown).expect("a result holds no negative bytes"),
    )
}

/// Every golden source of the suite: (name, is_verilog, text).
fn golden_files() -> Vec<(String, bool, Arc<str>)> {
    aivril_verilogeval::suite()
        .into_iter()
        .flat_map(|p| {
            [
                (format!("{}.v", p.name), true, p.verilog.dut),
                (format!("{}_tb.v", p.name), true, p.verilog.tb),
                (format!("{}.vhd", p.name), false, p.vhdl.dut),
                (format!("{}_tb.vhd", p.name), false, p.vhdl.tb),
            ]
        })
        .collect()
}

#[test]
fn lexing_allocates_nothing_per_token() {
    let files = golden_files();
    assert_eq!(
        files.len(),
        624,
        "156 problems x DUT/testbench x 2 languages"
    );
    let file = FileId(0);
    // (lex allocs, tokens, analyze allocs, bytes)
    let mut totals = [(0u64, 0usize, 0u64, 0usize); 2];
    let mut densest = [f64::INFINITY; 2]; // fewest bytes per token in a file
    for (name, verilog, text) in &files {
        let mut diags = Diagnostics::new();
        let (tokens, allocs) = if *verilog {
            let (toks, n) = counted(|| aivril_verilog::lex(file, text, &mut diags));
            (toks.len(), n)
        } else {
            let (toks, n) = counted(|| aivril_vhdl::lex(file, text, &mut diags));
            (toks.len(), n)
        };
        assert!(!diags.has_errors(), "{name}: {:?}", diags.all());
        assert!(
            allocs <= 2,
            "{name}: lexing {tokens} tokens made {allocs} allocations"
        );
        let analyze = if *verilog {
            counted(|| aivril_verilog::analyze_file(file, text)).1
        } else {
            counted(|| aivril_vhdl::analyze_file(file, text)).1
        };
        let total = &mut totals[usize::from(!*verilog)];
        total.0 += allocs;
        total.1 += tokens;
        total.2 += analyze;
        total.3 += text.len();
        let d = &mut densest[usize::from(!*verilog)];
        *d = d.min(text.len() as f64 / tokens as f64);
    }
    for ((lang, (lex_allocs, tokens, analyze_allocs, bytes)), densest) in
        ["verilog", "vhdl"].iter().zip(totals).zip(densest)
    {
        let per_token = analyze_allocs as f64 / tokens as f64;
        // The lexers reserve one token per three bytes; these figures
        // are what that guess rests on.
        println!(
            "{lang}: {bytes} bytes, {tokens} tokens = {:.2} bytes per token (densest file \
             {densest:.2}); lex {lex_allocs} allocations for {} files; analyze_file {analyze_allocs} \
             allocations = {per_token:.2} per token",
            bytes as f64 / tokens as f64,
            files.len() / 2
        );
        // What is left is AST nodes (boxes, one exact allocation per
        // list) and the few names longer than a `Name` holds inline; an
        // owned string per token would put this near 3, and one per name
        // near 1. Measured: 0.197 (Verilog) and 0.110 (VHDL).
        let bound = if *lang == "verilog" { 0.21 } else { 0.12 };
        assert!(
            per_token < bound,
            "{lang}: {per_token:.2} allocations per token"
        );
    }
}

/// Allocations of compiling and simulating every golden DUT+testbench
/// pair of one language, per phase.
#[derive(Debug, Default, Clone, Copy)]
struct Phases {
    /// Lex + parse of both files (`analyze`).
    parse: u64,
    /// Elaboration of `tb` into a `Design`.
    elab: u64,
    /// Bytecode lowering (`Simulator::new`).
    lower: u64,
    /// The simulation run.
    run: u64,
}

impl Phases {
    fn total(&self) -> u64 {
        self.parse + self.elab + self.lower + self.run
    }
}

fn compile_and_simulate(verilog: bool) -> Phases {
    let mut phases = Phases::default();
    for p in aivril_verilogeval::suite() {
        let pair = p.golden(verilog);
        let mut sources = aivril_hdl::SourceMap::new();
        let ext = if verilog { "v" } else { "vhd" };
        sources.add_file(format!("{}.{ext}", p.name), pair.dut.clone());
        sources.add_file(format!("{}_tb.{ext}", p.name), pair.tb.clone());
        let mut diags = Diagnostics::new();
        let (design, parse, elab) = if verilog {
            let ((unit, d), parse) = counted(|| aivril_verilog::analyze(&sources));
            diags.extend(d);
            let (design, elab) = counted(|| aivril_verilog::elaborate(&unit, "tb", &mut diags));
            (design, parse, elab)
        } else {
            let ((file, d), parse) = counted(|| aivril_vhdl::analyze(&sources));
            diags.extend(d);
            let (design, elab) = counted(|| aivril_vhdl::elaborate(&file, "tb", &mut diags));
            (design, parse, elab)
        };
        assert!(!diags.has_errors(), "{}: {:?}", p.name, diags.all());
        let design = design.expect("golden pair elaborates");
        let (mut sim, lower) =
            counted(|| aivril_sim::Simulator::new(&design, aivril_sim::SimConfig::default()));
        let (result, run) = counted(|| sim.run());
        assert!(
            result.log_text().contains("All tests passed successfully!"),
            "{}",
            p.name
        );
        phases.parse += parse;
        phases.elab += elab;
        phases.lower += lower;
        phases.run += run;
    }
    phases
}

/// One compile+simulate call allocates in proportion to the files it
/// handles: names and literals stay inline in the AST, literals decode
/// straight into their planes, elaboration borrows names from the AST
/// and rewrites the IR in place, and lowering appends every program of
/// a simulator to one op list. The gates sit a few percent above the
/// measured counts, which are deterministic (one thread, no I/O).
#[test]
fn compile_phases_allocate_per_file() {
    let measured = [
        ("verilog", compile_and_simulate(true)),
        ("vhdl", compile_and_simulate(false)),
    ];
    println!("allocations over the 156 golden DUT+testbench pairs");
    println!("{:<8}{:>10}{:>10}", "phase", "verilog", "vhdl");
    let [(_, v), (_, h)] = measured;
    for (phase, a, b) in [
        ("parse", v.parse, h.parse),
        ("elab", v.elab, h.elab),
        ("lower", v.lower, h.lower),
        ("run", v.run, h.run),
        ("total", v.total(), h.total()),
    ] {
        println!("{phase:<8}{a:>10}{b:>10}");
    }
    // (parse, elab, lower, run) gates per language.
    let gates = [
        (134_000, 142_000, 7_200, 8_500),
        (54_000, 73_000, 7_200, 8_700),
    ];
    for ((lang, p), (parse, elab, lower, run)) in measured.iter().zip(gates) {
        assert!(
            p.parse <= parse,
            "{lang}: parse made {} allocations",
            p.parse
        );
        assert!(
            p.elab <= elab,
            "{lang}: elaboration made {} allocations",
            p.elab
        );
        assert!(
            p.lower <= lower,
            "{lang}: lowering made {} allocations",
            p.lower
        );
        assert!(p.run <= run, "{lang}: the runs made {} allocations", p.run);
    }
}

/// Live bytes of the parsed ASTs of the 156 golden testbenches, per
/// source byte. The EDA cache's parse memo keeps one such AST for every
/// file it has seen, so this ratio is what a memoized testbench costs.
/// Lists are exactly as long as what they hold and the common nodes do
/// not pay for rare wide variants: measured 5.94x (Verilog) and 3.52x
/// (VHDL). The bounds sit a few percent above; growth-doubled lists
/// and unboxed wide variants read 13.5x and 9.4x.
#[test]
fn parsed_testbenches_hold_a_few_bytes_per_source_byte() {
    let file = FileId(0);
    // (source bytes, live AST bytes) per language
    let mut totals = [(0usize, 0u64); 2];
    for p in aivril_verilogeval::suite() {
        let (v, v_bytes) = retained(|| aivril_verilog::analyze_file(file, &p.verilog.tb));
        assert!(!v.1.has_errors(), "{}: {:?}", p.name, v.1.all());
        let (h, h_bytes) = retained(|| aivril_vhdl::analyze_file(file, &p.vhdl.tb));
        assert!(!h.1.has_errors(), "{}: {:?}", p.name, h.1.all());
        totals[0].0 += p.verilog.tb.len();
        totals[0].1 += v_bytes;
        totals[1].0 += p.vhdl.tb.len();
        totals[1].1 += h_bytes;
    }
    for ((lang, (source, live)), bound) in ["verilog", "vhdl"].iter().zip(totals).zip([6.2, 3.7]) {
        let ratio = live as f64 / source as f64;
        println!(
            "{lang}: 156 testbenches, {source} source bytes, {live} live AST bytes = \
             {ratio:.2} per source byte"
        );
        assert!(
            ratio <= bound,
            "{lang}: {ratio:.2} AST bytes per source byte"
        );
    }
}

/// Every statement and expression in a memoized AST is one of these
/// enums, so their widths set what a node costs. Each is as wide as its
/// common variants; the rare wide ones are boxed (Verilog `Expr::Call`,
/// VHDL `Expr::{Call, Slice, Attr}` and `SeqStmt::For`).
#[test]
fn ast_nodes_fit_their_ceilings() {
    use std::mem::size_of;
    for (node, size, ceiling) in [
        ("verilog Expr", size_of::<aivril_verilog::ast::Expr>(), 40),
        ("verilog Stmt", size_of::<aivril_verilog::ast::Stmt>(), 96),
        ("vhdl Expr", size_of::<aivril_vhdl::ast::Expr>(), 40),
        ("vhdl SeqStmt", size_of::<aivril_vhdl::ast::SeqStmt>(), 96),
    ] {
        println!("{node}: {size} bytes");
        assert!(size <= ceiling, "{node} is {size} bytes, over {ceiling}");
    }
}
