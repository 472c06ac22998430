//! Allocation gate for the HDL frontends.
//!
//! Tokens are `Copy` views into the source text, so lexing a file
//! allocates only the token vector itself (reserved from the file's
//! length, grown at most once), however many tokens it holds. A counting global allocator checks that for every golden DUT
//! and testbench of the suite, in both languages, and reports how many
//! allocations a whole `analyze_file` (lex + parse + AST) makes per
//! token.

use aivril_hdl::diag::Diagnostics;
use aivril_hdl::source::FileId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

/// Every golden source of the suite: (name, is_verilog, text).
fn golden_files() -> Vec<(String, bool, String)> {
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
        // What is left is AST nodes (names, boxes, vectors); an owned
        // string per token would put this near 3.
        assert!(
            per_token < 1.0,
            "{lang}: {per_token:.2} allocations per token"
        );
    }
}
