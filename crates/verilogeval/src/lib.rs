//! A VerilogEval-Human-style benchmark suite, generated deterministically.
//!
//! The paper evaluates AIVRIL2 on the 156 problems of VerilogEval-Human
//! [Liu et al., ICCAD'23]. That dataset (and its reference testbenches)
//! cannot be redistributed here, so this crate synthesises a suite with
//! the same role and shape: **156 problems** across 16 circuit families
//! spanning combinational logic (gates, muxes, decoders, encoders,
//! adders, comparators, parity, popcount, shifters, Gray code,
//! seven-segment, ALUs) and sequential logic (counters, shift registers,
//! edge detectors, FSM sequence detectors).
//!
//! Every [`Problem`] carries:
//!
//! * a natural-language **spec** (the prompt a Code Agent receives),
//! * a golden **Verilog** DUT and a golden **VHDL** DUT,
//! * exhaustive self-checking **reference testbenches** in both
//!   languages whose expected vectors come from a Rust golden model
//!   (combinational problems enumerate the full input space up to 10
//!   bits, then fall back to 64 seeded pseudo-random vectors; sequential
//!   problems run directed multi-cycle stimulus).
//!
//! An integration test (and `aivril-bench`) checks the core invariant:
//! every golden DUT passes its own testbench in both languages under
//! the `aivril-eda` tool suite.
//!
//! # Example
//!
//! ```
//! use aivril_verilogeval::suite;
//!
//! let problems = suite();
//! assert_eq!(problems.len(), 156);
//! let p = &problems[0];
//! assert!(p.spec.contains(&p.module_name));
//! assert!(p.verilog.dut.contains("module"));
//! assert!(p.vhdl.dut.contains("entity"));
//! ```

#![warn(missing_docs)]

mod builders;
pub mod families;
mod port;

pub use builders::{CombSpec, SeqSpec};
pub use port::Port;

use std::fmt;
use std::sync::Arc;

/// Circuit family a problem belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Family {
    Gates,
    Mux,
    Decoder,
    Encoder,
    Adder,
    Comparator,
    Parity,
    Popcount,
    Shifter,
    GrayCode,
    SevenSegment,
    Alu,
    Counter,
    ShiftRegister,
    EdgeDetector,
    Fsm,
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Family::Gates => "gates",
            Family::Mux => "mux",
            Family::Decoder => "decoder",
            Family::Encoder => "encoder",
            Family::Adder => "adder",
            Family::Comparator => "comparator",
            Family::Parity => "parity",
            Family::Popcount => "popcount",
            Family::Shifter => "shifter",
            Family::GrayCode => "gray",
            Family::SevenSegment => "sevenseg",
            Family::Alu => "alu",
            Family::Counter => "counter",
            Family::ShiftRegister => "shift_register",
            Family::EdgeDetector => "edge_detector",
            Family::Fsm => "fsm",
        };
        f.write_str(s)
    }
}

/// Rough difficulty bucket, mirroring VerilogEval-Human's mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Difficulty {
    /// Single-expression combinational logic.
    Easy,
    /// Multi-signal combinational or simple sequential logic.
    Medium,
    /// FSMs and wider datapaths.
    Hard,
}

/// Golden DUT plus reference testbench for one language.
///
/// Each text is built once, by [`suite`], and shared from then on: the
/// simulated model's task library, the harness's scoring files and the
/// EDA source maps all hold clones of these `Arc`s, never copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenPair {
    /// Device-under-test source.
    pub dut: Arc<str>,
    /// Self-checking reference testbench source (top unit `tb`).
    pub tb: Arc<str>,
}

/// One benchmark problem.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Stable index, `0..156`.
    pub id: usize,
    /// Unique name, e.g. `prob042_counter_mod12`.
    pub name: String,
    /// Family.
    pub family: Family,
    /// Difficulty bucket.
    pub difficulty: Difficulty,
    /// Natural-language prompt handed to the Code Agent. Contains the
    /// required module/entity name and the full port list.
    pub spec: String,
    /// DUT module/entity name.
    pub module_name: String,
    /// Golden Verilog sources.
    pub verilog: GoldenPair,
    /// Golden VHDL sources.
    pub vhdl: GoldenPair,
}

impl Problem {
    /// Golden pair for `language` (`true` = Verilog).
    #[must_use]
    pub fn golden(&self, verilog: bool) -> &GoldenPair {
        if verilog {
            &self.verilog
        } else {
            &self.vhdl
        }
    }
}

/// Builds the full 156-problem suite. Deterministic: two calls return
/// identical problems. Each problem is built knowing its index, so its
/// unique name `prob{id:03}_{module}` is written once, straight into
/// the name and the prompt.
#[must_use]
pub fn suite() -> Vec<Problem> {
    let mut problems = Vec::with_capacity(156);
    families::gates::extend(&mut problems);
    families::mux::extend(&mut problems);
    families::decoder::extend(&mut problems);
    families::encoder::extend(&mut problems);
    families::adder::extend(&mut problems);
    families::comparator::extend(&mut problems);
    families::parity::extend(&mut problems);
    families::popcount::extend(&mut problems);
    families::shifter::extend(&mut problems);
    families::gray::extend(&mut problems);
    families::sevenseg::extend(&mut problems);
    families::alu::extend(&mut problems);
    families::counter::extend(&mut problems);
    families::shiftreg::extend(&mut problems);
    families::edge::extend(&mut problems);
    families::fsm::extend(&mut problems);
    assert_eq!(problems.len(), 156, "suite size is part of the contract");
    problems
}

/// Looks a problem up by its generated name (used by the simulated LLM's
/// task library).
#[must_use]
pub fn find_problem<'a>(problems: &'a [Problem], name: &str) -> Option<&'a Problem> {
    problems.iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_156_problems_with_unique_names() {
        let s = suite();
        assert_eq!(s.len(), 156);
        let mut names: Vec<&str> = s.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 156, "names must be unique");
    }

    #[test]
    fn suite_is_deterministic() {
        let a = suite();
        let b = suite();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.verilog, y.verilog);
            assert_eq!(x.vhdl, y.vhdl);
        }
    }

    #[test]
    fn every_family_is_represented() {
        let s = suite();
        use Family::*;
        for fam in [
            Gates,
            Mux,
            Decoder,
            Encoder,
            Adder,
            Comparator,
            Parity,
            Popcount,
            Shifter,
            GrayCode,
            SevenSegment,
            Alu,
            Counter,
            ShiftRegister,
            EdgeDetector,
            Fsm,
        ] {
            assert!(s.iter().any(|p| p.family == fam), "missing {fam}");
        }
    }

    #[test]
    fn specs_name_the_interface() {
        for p in suite() {
            assert!(p.spec.contains(&p.module_name), "{}", p.name);
            assert!(p.verilog.dut.contains(&format!("module {}", p.module_name)));
            assert!(p.vhdl.dut.contains(&format!("entity {}", p.module_name)));
            assert!(p.verilog.tb.contains("All tests passed successfully!"));
            assert!(p.vhdl.tb.contains("All tests passed successfully!"));
        }
    }

    #[test]
    fn difficulty_mix_has_all_buckets() {
        let s = suite();
        for d in [Difficulty::Easy, Difficulty::Medium, Difficulty::Hard] {
            assert!(s.iter().any(|p| p.difficulty == d));
        }
    }

    #[test]
    fn find_problem_by_name() {
        let s = suite();
        let name = s[10].name.clone();
        assert_eq!(find_problem(&s, &name).map(|p| p.id), Some(10));
        assert!(find_problem(&s, "nope").is_none());
    }
}
