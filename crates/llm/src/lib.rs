//! LLM abstraction and the simulated, fault-injecting language models.
//!
//! AIVRIL2 is *LLM-agnostic*: its agents exchange chat messages with any
//! model behind a uniform interface. This crate provides that interface
//! ([`LanguageModel`], [`ChatRequest`]/[`ChatResponse`]) plus the
//! reproduction's central substitution: [`SimLlm`], a deterministic
//! model simulator.
//!
//! # Why a simulated model is a sound substitute
//!
//! The framework under study never inspects model internals — it only
//! sees generated code, compiler logs and simulation logs. What matters
//! for reproducing the paper's results is the *error process*: how often
//! a model's RTL carries syntax or functional faults, and how reliably
//! pointed-at faults get repaired per corrective iteration. [`SimLlm`]
//! implements exactly that process: starting from a golden solution (its
//! "knowledge" of the task, provided by a [`TaskLibrary`]), it injects
//! *real, compilable-or-not* textual faults at per-model × per-language
//! calibrated rates ([`profiles`]), and on corrective prompts repairs
//! surviving faults with calibrated per-iteration probabilities. Every
//! sample is reproducible from the request's seed.
//!
//! Latencies are modeled per generated token ([`LlmLatencyModel`]) so
//! the paper's Figure 3 latency breakdown can be regenerated.
//!
//! # Example
//!
//! ```
//! use aivril_llm::{profiles, ChatRequest, GenParams, LanguageModel, Message, SimLlm, TaskLibrary};
//!
//! let mut lib = TaskLibrary::new();
//! lib.add_task(
//!     "prob000_and2",
//!     "module and2(input a, input b, output y);\n  assign y = a & b;\nendmodule\n",
//!     "module tb; endmodule\n",
//!     "entity and2 is end entity;\n",
//!     "entity tb is end entity;\n",
//! );
//! let mut model = SimLlm::new(profiles::claude35_sonnet(), lib);
//! let request = ChatRequest {
//!     messages: vec![Message::user(
//!         "Design task: prob000_and2.\nTarget language: Verilog.\n\
//!          Write the RTL module for the task.",
//!     )],
//!     params: GenParams { seed: 1, ..GenParams::default() },
//! };
//! let response = model.chat(&request).expect("no faults configured");
//! assert!(response.content.contains("```"));
//! assert!(response.latency_s > 0.0);
//! ```

#![warn(missing_docs)]

mod chat;
mod faults;
mod latency;
pub mod mutate;
pub mod profiles;
mod simllm;
mod task;

pub use chat::{ChatRequest, ChatResponse, GenParams, Message, Role, TokenUsage};
pub use faults::{BackendFault, FaultConfig, LlmError};
pub use latency::LlmLatencyModel;
pub use profiles::{LangProfile, ModelProfile};
pub use simllm::{protocol, task_header, SimLlm};
pub use task::TaskLibrary;

/// A chat-completion language model, as the agents see it.
///
/// Implementations must be deterministic given
/// [`GenParams::seed`] — the evaluation harness relies on replayable
/// samples for the unbiased pass@k estimator.
pub trait LanguageModel {
    /// Model identifier shown in result tables (e.g. `Claude 3.5 Sonnet`).
    fn name(&self) -> &str;

    /// Produces the assistant's next message for `request`, or a
    /// transport-level [`LlmError`] (timeout, rate limit) when the
    /// backend fails before yielding one. Content-level degradations —
    /// truncated or empty completions, wrong-language code — are `Ok`
    /// responses: the corrective loop, not the transport, handles those.
    fn chat(&mut self, request: &ChatRequest) -> Result<ChatResponse, LlmError>;
}

/// Extracts the first fenced code block from a model response, the way
/// the Code Agent ingests generations. Falls back to the whole text when
/// no fence is present (models sometimes reply with bare code).
#[must_use]
pub fn extract_code(response: &str) -> String {
    if let Some(start) = find_fence(response) {
        let after = &response[start + 3..];
        // Skip the info string (e.g. `verilog`).
        let body_start = after.find('\n').map_or(0, |i| i + 1);
        let body = &after[body_start..];
        if let Some(end) = find_fence(body) {
            return body[..end].to_string();
        }
        return body.to_string();
    }
    response.to_string()
}

/// The byte offset of the first "```" in `text`. Code has few
/// backticks, so a byte search for one and a look at the next two
/// beats a substring searcher over a whole generated file.
fn find_fence(text: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(i) = text[from..].find('`') {
        let at = from + i;
        if text[at..].starts_with("```") {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_fenced_code() {
        let r = "Here is the module:\n```verilog\nmodule m;\nendmodule\n```\nDone.";
        assert_eq!(extract_code(r), "module m;\nendmodule\n");
    }

    #[test]
    fn extract_without_fence_returns_all() {
        assert_eq!(extract_code("module m; endmodule"), "module m; endmodule");
    }

    #[test]
    fn fences_are_found_past_stray_backticks() {
        for r in [
            "`a` `` ```v\nx ` `` y\n```",
            "``````",
            "````\n`````",
            "a``\n``b```c",
            "\u{e9}```\n\u{e9}`",
        ] {
            assert_eq!(find_fence(r), r.find("```"), "{r:?}");
            let rest = &r[r.find("```").map_or(0, |i| i + 3)..];
            assert_eq!(find_fence(rest), rest.find("```"), "{rest:?}");
        }
        assert_eq!(extract_code("`a` ```v\nx ` `` y\n``` z"), "x ` `` y\n");
    }

    #[test]
    fn extract_unterminated_fence() {
        let r = "```vhdl\nentity e is end;";
        assert_eq!(extract_code(r), "entity e is end;");
    }
}
