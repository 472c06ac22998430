//! Event-driven four-state HDL simulator.
//!
//! Executes the elaborated [`aivril_hdl::ir::Design`] shared by the
//! Verilog and VHDL frontends, providing the *functional verification*
//! substrate of the AIVRIL2 reproduction (the role Vivado `xsim` plays in
//! the paper).
//!
//! The kernel implements the classic stratified event queue:
//!
//! 1. **Active region** — runnable processes execute until they suspend
//!    at a `#delay`, an `@(...)` event control, or terminate.
//! 2. **NBA region** — when no process is runnable, pending nonblocking
//!    assignments commit atomically, possibly waking more processes
//!    (a new delta cycle).
//! 3. **Time advance** — when a time step is quiescent, simulation time
//!    jumps to the earliest scheduled wake-up.
//!
//! Runaway protection (per-process instruction budgets, delta-cycle and
//! wall-time limits) matters here more than in an ordinary simulator:
//! the AIVRIL2 loop routinely simulates *LLM-corrupted* RTL, and a
//! mutated loop bound must surface as a diagnosable runtime error rather
//! than a hang.
//!
//! # Example
//!
//! ```
//! use aivril_hdl::ir::*;
//! use aivril_sim::{Simulator, SimConfig};
//!
//! let mut d = Design::new("hello");
//! d.add_process(Process {
//!     name: "main".into(),
//!     kind: ProcessKind::Initial,
//!     body: vec![
//!         Instr::SysCall {
//!             kind: SysTaskKind::Display,
//!             format: Some("hello at %t".into()),
//!             args: vec![Expr::Time],
//!         },
//!         Instr::Halt,
//!     ],
//! });
//! let result = Simulator::new(&d, SimConfig::default()).run();
//! assert!(result.log_text().contains("hello at 0"));
//! ```

#![warn(missing_docs)]

mod bytecode;
mod engine;
#[cfg(test)]
mod eval;
mod format;
mod result;
mod sched;
mod vcd;

pub use engine::{KernelPerf, KernelTelemetry, Simulator};
pub use result::{LimitKind, LogLine, SimConfig, SimResult};
