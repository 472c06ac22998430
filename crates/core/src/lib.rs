//! AIVRIL2: a self-verifying, LLM-agnostic multi-agent framework for
//! RTL code generation.
//!
//! This crate is the paper's primary contribution — the two-stage,
//! testbench-first pipeline of Fig. 1:
//!
//! 1. The **Code Agent** ([`agents::CodeAgent`]) first generates a
//!    comprehensive self-checking testbench from the user spec (step ②
//!    of Fig. 2), then the RTL implementation (step ③). It is the only
//!    source of code in the system and keeps every version for rollback.
//! 2. The **Syntax Optimization loop**, supervised by the **Review
//!    Agent** ([`agents::ReviewAgent`]): the EDA compiler's log is
//!    distilled into a corrective prompt with exact line numbers and
//!    code snippets, and the Code Agent revises until the code compiles
//!    (or the iteration budget runs out). The loop runs once for the
//!    testbench and once for the RTL.
//! 3. The **Functional Optimization loop**, supervised by the
//!    **Verification Agent** ([`agents::VerificationAgent`]): the design
//!    is simulated against the *frozen* testbench; failing test cases
//!    (step ⑤) become corrective prompts until all tests pass (step ⑧)
//!    or the budget runs out. The testbench never changes during this
//!    loop, keeping evaluation unbiased across RTL revisions.
//!
//! The pipeline is **language-agnostic** (the agents only route sources
//! and logs; Verilog vs VHDL is a flag) and **LLM-agnostic** (models are
//! a [`aivril_llm::LanguageModel`] trait object).
//!
//! [`BaselineFlow`] implements the paper's comparison point: one
//! zero-shot generation, no loops.
//!
//! # Example
//!
//! ```
//! use aivril_core::{Aivril2, Aivril2Config, TaskInput};
//! use aivril_eda::XsimToolSuite;
//! use aivril_llm::{profiles, SimLlm, TaskLibrary};
//!
//! let mut lib = TaskLibrary::new();
//! lib.add_task(
//!     "inv",
//!     "module inv(\n  input wire a,\n  output wire y\n);\n  assign y = ~a;\nendmodule\n",
//!     "module tb;\n  reg a;\n  wire y;\n  inv dut(.a(a), .y(y));\n  initial begin\n    a = 0; #1;\n    if (y !== 1'b1) $error(\"Test Case 1 Failed: y should be 1\");\n    $display(\"All tests passed successfully!\");\n    $finish;\n  end\nendmodule\n",
//!     "entity inv is end entity;\n",
//!     "entity tb is end entity;\n",
//! );
//! let mut model = SimLlm::new(profiles::claude35_sonnet(), lib);
//! let tools = XsimToolSuite::new();
//! let pipeline = Aivril2::new(&tools, Aivril2Config::default());
//! let task = TaskInput {
//!     name: "inv".into(),
//!     module_name: "inv".into(),
//!     spec: "y is the inverse of a".into(),
//!     verilog: true,
//!     seed: 1,
//! };
//! let result = pipeline.run(&mut model, &task);
//! assert!(result.syntax_pass);
//! ```

#![warn(missing_docs)]

pub mod agents;
mod config;
mod flow;
mod resilience;
mod task;
mod trace;
mod user;

pub use config::{Aivril2Config, PromptDetail};
pub use flow::{Aivril2, BaselineFlow, RunResult};
pub use resilience::{
    BreakerBank, CircuitBreaker, ResilienceCounters, ResiliencePolicy, MAX_RETRY_AFTER_S,
};
pub use task::{dut_file_name, tb_file_name, TaskInput};
pub use trace::{RunTrace, Stage, TraceEvent, TraceEventKind};
pub use user::{spec_is_sufficient, NoClarification, StaticUser, UserProxy};
