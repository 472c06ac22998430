//! The Code Agent: the system's only source of generated code.
//!
//! It translates the user spec into a testbench and then RTL, ingests
//! corrective prompts from the other two agents, and keeps every
//! version it produced so the orchestrator can roll back (Sec. 3.1).

use crate::task::TaskInput;
use aivril_llm::{
    extract_code, protocol, task_header, ChatRequest, GenParams, LanguageModel, LlmError, Message,
};

/// A generated artefact with its modeled latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Generation {
    /// Extracted source code.
    pub code: String,
    /// Modeled LLM seconds for the call.
    pub latency_s: f64,
    /// `true` when the response contained a fenced code block. An
    /// unfenced reply means the model answered in prose (it does not
    /// know the task) — corrective iteration cannot recover from that.
    pub fenced: bool,
}

/// The Code Agent: owns the conversation with the underlying model.
pub struct CodeAgent<'m> {
    model: &'m mut dyn LanguageModel,
    messages: Vec<Message>,
    params: GenParams,
    versions: Vec<String>,
}

impl<'m> CodeAgent<'m> {
    /// Starts a conversation for `task` on top of `model`.
    pub fn new(model: &'m mut dyn LanguageModel, task: &TaskInput, params: GenParams) -> Self {
        let language = if task.verilog { "Verilog" } else { "VHDL" };
        let system = format!(
            "You are the Code Agent of the AIVRIL2 RTL design framework. \
             You write complete, synthesizable {language} and comprehensive \
             self-checking testbenches. Always answer with a single fenced \
             code block containing the full file."
        );
        let mut params = params;
        params.seed = task.seed;
        CodeAgent {
            model,
            messages: vec![Message::system(system)],
            params,
            versions: Vec::new(),
        }
    }

    /// Sets the transport-retry counter mixed into the next request's
    /// [`GenParams`]. The resilience layer bumps this per retry so a
    /// failed attempt re-rolls its fault; content plans ignore it.
    pub fn set_attempt(&mut self, attempt: u32) {
        self.params.attempt = attempt;
    }

    /// One prompt/response exchange. Commit-on-success: a transport
    /// fault leaves the conversation and version history untouched, so
    /// the caller can retry the same exchange (with a bumped attempt
    /// counter) without corrupting state.
    ///
    /// The history moves into the request and back, never copied: the
    /// prompt is appended for the call and popped again on a fault.
    fn roundtrip(&mut self, prompt: String) -> Result<Generation, LlmError> {
        let mut messages = std::mem::take(&mut self.messages);
        messages.push(Message::user(prompt));
        let request = ChatRequest {
            messages,
            params: self.params,
        };
        let result = self.model.chat(&request);
        self.messages = request.messages;
        let response = match result {
            Ok(response) => response,
            Err(err) => {
                self.messages.pop();
                return Err(err);
            }
        };
        let fenced = response.content.contains("```");
        let code = extract_code(&response.content);
        self.messages.push(Message::assistant(response.content));
        self.versions.push(code.clone());
        Ok(Generation {
            code,
            latency_s: response.latency_s,
            fenced,
        })
    }

    /// Step ②: generate the testbench from the spec, before any RTL
    /// exists (the testbench-first methodology).
    pub fn generate_testbench(&mut self, task: &TaskInput) -> Result<Generation, LlmError> {
        let prompt = format!(
            "{}{} named `tb` for the design described below. Cover every \
             behaviour a correct implementation must exhibit; report each \
             mismatch as a numbered failing test case and print \
             \"All tests passed successfully!\" when everything passes.\n\n\
             Specification:\n{}",
            task_header(&task.name, task.verilog),
            protocol::REQ_TB,
            task.spec
        );
        self.roundtrip(prompt)
    }

    /// Step ③: generate the RTL, with the (frozen) testbench as an
    /// additional reference.
    pub fn generate_rtl(
        &mut self,
        task: &TaskInput,
        testbench: &str,
    ) -> Result<Generation, LlmError> {
        let prompt = format!(
            "{}{} `{}` implementing the specification below. The testbench \
             that will verify it is attached for reference; do not modify \
             it.\n\nSpecification:\n{}\nReference testbench:\n```\n{}```",
            task_header(&task.name, task.verilog),
            protocol::REQ_RTL,
            task.module_name,
            task.spec,
            testbench
        );
        self.roundtrip(prompt)
    }

    /// Applies a corrective prompt from the Review or Verification
    /// agent and returns the revised artefact.
    pub fn revise(&mut self, corrective_prompt: String) -> Result<Generation, LlmError> {
        self.roundtrip(corrective_prompt)
    }

    /// All versions produced so far, oldest first — the implicit version
    /// history Sec. 3.1 describes.
    #[must_use]
    pub fn versions(&self) -> &[String] {
        &self.versions
    }

    /// Rolls the conversation back to just after version `index` was
    /// produced, discarding later exchanges (used when a revision made
    /// things worse).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn rollback_to(&mut self, index: usize) {
        assert!(index < self.versions.len(), "rollback index out of range");
        self.versions.truncate(index + 1);
        // Each version corresponds to one (user, assistant) pair after
        // the system message.
        self.messages.truncate(1 + 2 * (index + 1));
    }
}

impl std::fmt::Debug for CodeAgent<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodeAgent")
            .field("model", &self.model.name())
            .field("messages", &self.messages.len())
            .field("versions", &self.versions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivril_llm::{ChatResponse, TokenUsage};

    /// A scripted fake model for agent-level tests.
    struct Scripted {
        replies: Vec<String>,
        at: usize,
    }

    impl LanguageModel for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn chat(&mut self, _request: &ChatRequest) -> Result<ChatResponse, LlmError> {
            let content = self.replies[self.at.min(self.replies.len() - 1)].clone();
            self.at += 1;
            Ok(ChatResponse {
                content,
                usage: TokenUsage::default(),
                latency_s: 1.0,
            })
        }
    }

    /// Fails the first `fail_first` calls with a timeout, then delegates.
    struct Flaky {
        inner: Scripted,
        fail_first: usize,
        calls: usize,
    }

    impl LanguageModel for Flaky {
        fn name(&self) -> &str {
            "flaky"
        }
        fn chat(&mut self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
            self.calls += 1;
            if self.calls <= self.fail_first {
                return Err(LlmError::Timeout { elapsed_s: 30.0 });
            }
            self.inner.chat(request)
        }
    }

    fn task() -> TaskInput {
        TaskInput {
            name: "t".into(),
            module_name: "m".into(),
            spec: "do things".into(),
            verilog: true,
            seed: 9,
        }
    }

    #[test]
    fn generation_tracks_versions_and_extracts_code() {
        let mut model = Scripted {
            replies: vec![
                "```verilog\nmodule tb;\nendmodule\n```".into(),
                "```verilog\nmodule m;\nendmodule\n```".into(),
                "```verilog\nmodule m2;\nendmodule\n```".into(),
            ],
            at: 0,
        };
        let t = task();
        let mut agent = CodeAgent::new(&mut model, &t, GenParams::default());
        let tb = agent.generate_testbench(&t).expect("scripted never faults");
        assert_eq!(tb.code, "module tb;\nendmodule\n");
        assert!(tb.fenced);
        let rtl = agent
            .generate_rtl(&t, &tb.code)
            .expect("scripted never faults");
        assert_eq!(rtl.code, "module m;\nendmodule\n");
        let fixed = agent
            .revise("There is a syntax error.".into())
            .expect("scripted never faults");
        assert_eq!(fixed.code, "module m2;\nendmodule\n");
        assert_eq!(agent.versions().len(), 3);
    }

    #[test]
    fn rollback_discards_later_versions() {
        let mut model = Scripted {
            replies: vec![
                "```verilog\nv0\n```".into(),
                "```verilog\nv1\n```".into(),
                "```verilog\nv2\n```".into(),
            ],
            at: 0,
        };
        let t = task();
        let mut agent = CodeAgent::new(&mut model, &t, GenParams::default());
        agent.generate_testbench(&t).expect("scripted never faults");
        agent.revise("fix".into()).expect("scripted never faults");
        agent
            .revise("fix again".into())
            .expect("scripted never faults");
        assert_eq!(agent.versions().len(), 3);
        agent.rollback_to(0);
        assert_eq!(agent.versions().len(), 1);
        assert_eq!(agent.versions()[0], "v0\n");
    }

    #[test]
    fn prompts_carry_protocol_headers() {
        let mut model = Scripted {
            replies: vec!["```verilog\nx\n```".into()],
            at: 0,
        };
        let t = task();
        let mut agent = CodeAgent::new(&mut model, &t, GenParams::default());
        agent.generate_testbench(&t).expect("scripted never faults");
        let prompt = &agent.messages[1].content;
        assert!(prompt.contains("Design task: t."));
        assert!(prompt.contains("Target language: Verilog."));
        assert!(prompt.contains(protocol::REQ_TB));
    }

    #[test]
    fn seed_comes_from_task() {
        let mut model = Scripted {
            replies: vec!["x".into()],
            at: 0,
        };
        let t = task();
        let agent = CodeAgent::new(&mut model, &t, GenParams::default());
        assert_eq!(agent.params.seed, 9);
    }

    #[test]
    fn failed_exchange_leaves_conversation_retryable() {
        let mut model = Flaky {
            inner: Scripted {
                replies: vec!["```verilog\nmodule tb;\nendmodule\n```".into()],
                at: 0,
            },
            fail_first: 2,
            calls: 0,
        };
        let t = task();
        let mut agent = CodeAgent::new(&mut model, &t, GenParams::default());
        for attempt in 0..2u32 {
            agent.set_attempt(attempt);
            let err = agent
                .generate_testbench(&t)
                .expect_err("first calls time out");
            assert_eq!(err.class(), "timeout");
            // Commit-on-success: no user message, no version recorded.
            assert_eq!(agent.messages.len(), 1, "attempt {attempt}");
            assert!(agent.versions().is_empty(), "attempt {attempt}");
        }
        agent.set_attempt(2);
        let tb = agent.generate_testbench(&t).expect("third attempt works");
        assert_eq!(tb.code, "module tb;\nendmodule\n");
        assert_eq!(agent.messages.len(), 3);
        assert_eq!(agent.versions().len(), 1);
    }

    /// Records every request and fails the calls whose 1-based index
    /// is listed in `fail`.
    struct Recording {
        inner: Scripted,
        fail: Vec<usize>,
        requests: Vec<ChatRequest>,
    }

    impl LanguageModel for Recording {
        fn name(&self) -> &str {
            "recording"
        }
        fn chat(&mut self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
            self.requests.push(request.clone());
            if self.fail.contains(&self.requests.len()) {
                return Err(LlmError::RateLimited { retry_after_s: 1.0 });
            }
            self.inner.chat(request)
        }
    }

    /// Drives testbench, RTL and one revision, retrying each exchange
    /// until it succeeds; returns every request the model saw.
    fn drive(fail: Vec<usize>) -> Vec<ChatRequest> {
        let mut model = Recording {
            inner: Scripted {
                replies: vec![
                    "```verilog\nmodule tb;\nendmodule\n```".into(),
                    "```verilog\nmodule m;\nendmodule\n```".into(),
                    "```verilog\nmodule m2;\nendmodule\n```".into(),
                ],
                at: 0,
            },
            fail,
            requests: Vec::new(),
        };
        let t = task();
        let mut agent = CodeAgent::new(&mut model, &t, GenParams::default());
        for step in 0..3 {
            for attempt in 0.. {
                let before = (agent.messages.clone(), agent.versions.clone());
                agent.set_attempt(attempt);
                let result = match step {
                    0 => agent.generate_testbench(&t),
                    1 => agent.generate_rtl(&t, "module tb;\nendmodule\n"),
                    _ => agent.revise("There is a syntax error.".into()),
                };
                if result.is_ok() {
                    break;
                }
                // A fault leaves history and versions byte-identical.
                assert_eq!((&agent.messages, &agent.versions), (&before.0, &before.1));
            }
        }
        model.requests
    }

    #[test]
    fn transport_faults_leave_history_identical_and_retries_resend_it() {
        let clean = drive(Vec::new());
        assert_eq!(clean.len(), 3);
        // The RTL exchange fails twice and the revision once.
        let faulted = drive(vec![2, 3, 5]);
        assert_eq!(faulted.len(), 6);
        for (i, want) in [(0, 0), (1, 1), (2, 1), (3, 1), (4, 2), (5, 2)] {
            let (got, want) = (&faulted[i], &clean[want]);
            assert_eq!(got.messages, want.messages, "request {i}");
            let attempt = got.params.attempt;
            assert_eq!(
                GenParams {
                    attempt: 0,
                    ..got.params
                },
                want.params,
                "request {i} differs only in its attempt counter ({attempt})"
            );
        }
        assert_eq!(
            faulted[3].params.attempt, 2,
            "second retry of the RTL exchange"
        );
    }

    #[test]
    fn unfenced_reply_is_flagged() {
        let mut model = Scripted {
            replies: vec!["I could not identify the design task; please restate it.".into()],
            at: 0,
        };
        let t = task();
        let mut agent = CodeAgent::new(&mut model, &t, GenParams::default());
        let gen = agent.generate_testbench(&t).expect("no transport fault");
        assert!(!gen.fenced);
    }
}
