//! Allocation and sharing gates for process set-up.
//!
//! Every process that evaluates anything (a grid pass, a shard, the job
//! server, each table binary) starts by building the 156-problem suite
//! and the simulated models' task library from it. The suite's golden
//! texts are written straight into one pre-sized buffer each, so
//! building it costs a bounded number of allocations per problem; the
//! library then shares those texts by `Arc` instead of copying them. A
//! counting global allocator checks both. Run it with `--nocapture` for
//! the counts.

use aivril_bench::{build_library, Harness, HarnessConfig};
use aivril_verilogeval::Problem;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

struct Counting;

thread_local! {
    /// (allocations, bytes requested) on this thread.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCS.try_with(|n| {
        let (count, total) = n.get();
        n.set((count + 1, total + bytes as u64));
    });
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations (including
/// reallocations) it made on this thread and the bytes they requested.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (n0, b0) = ALLOCS.with(Cell::get);
    let out = f();
    let (n1, b1) = ALLOCS.with(Cell::get);
    (out, n1 - n0, b1 - b0)
}

/// Median wall time of five calls of `f`, in milliseconds (reported,
/// not gated: wall time depends on the host).
fn median_ms(f: impl Fn()) -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2] * 1e3
}

/// Bytes of golden text (both languages' DUT and testbench) in `problems`.
fn text_bytes(problems: &[Problem]) -> usize {
    problems
        .iter()
        .map(|p| p.verilog.dut.len() + p.verilog.tb.len() + p.vhdl.dut.len() + p.vhdl.tb.len())
        .sum()
}

/// Allocations per problem that building the suite may make. Measured
/// at 56.7: the family specs (names, bodies, port lists, the golden
/// model closure), the flat vector and expected-output tables, and one
/// pre-sized buffer plus its shared copy per text. The golden models
/// write into the expected-output table; when each returned a `Vec` it
/// was 158.5, and before the generators wrote in place 3,030.
const SUITE_ALLOCS_PER_PROBLEM: f64 = 60.0;

#[test]
fn building_the_suite_allocates_a_bounded_count_per_problem() {
    let (problems, allocs, bytes) = counted(aivril_verilogeval::suite);
    let text = text_bytes(&problems);
    let per_problem = allocs as f64 / problems.len() as f64;
    println!(
        "suite(): {allocs} allocations ({per_problem:.1}/problem, gate {SUITE_ALLOCS_PER_PROBLEM}), \
         {bytes} bytes requested for {text} bytes of golden text, median {:.1} ms",
        median_ms(|| drop(std::hint::black_box(aivril_verilogeval::suite())))
    );
    assert!(
        per_problem <= SUITE_ALLOCS_PER_PROBLEM,
        "suite() made {per_problem:.1} allocations per problem (gate {SUITE_ALLOCS_PER_PROBLEM})"
    );
    // Each golden text is written once into a buffer sized up front,
    // then copied once into its shared `Arc<str>`: about twice the text,
    // plus the specs and vector tables.
    assert!(
        bytes <= 3 * text as u64,
        "suite() requested {bytes} bytes for {text} bytes of text"
    );
}

#[test]
fn the_task_library_shares_the_suite_texts() {
    let harness = Harness::new(HarnessConfig::default());
    let library = harness.library();
    assert_eq!(library.len(), harness.problems().len());
    for p in harness.problems() {
        let k = library.get(&p.name).expect("every problem is a task");
        for (held, own) in [
            (&k.verilog_dut, &p.verilog.dut),
            (&k.verilog_tb, &p.verilog.tb),
            (&k.vhdl_dut, &p.vhdl.dut),
            (&k.vhdl_tb, &p.vhdl.tb),
        ] {
            assert!(Arc::ptr_eq(held, own), "{}: library holds a copy", p.name);
        }
    }
    // Building a library copies names and grows its table (whose slots
    // hold the fault-site tables inline), never the texts.
    let (library, allocs, bytes) = counted(|| build_library(harness.problems()));
    let text = text_bytes(harness.problems());
    println!(
        "build_library(): {allocs} allocations, {bytes} bytes requested \
         ({text} bytes of golden text shared), median {:.3} ms",
        median_ms(|| drop(std::hint::black_box(build_library(harness.problems()))))
    );
    assert_eq!(library.len(), harness.problems().len());
    assert!(
        bytes < text as u64 / 4,
        "build_library() requested {bytes} bytes for {text} bytes of text: it copies texts"
    );
}
