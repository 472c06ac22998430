//! The deterministic fault-injecting model simulator.

use crate::chat::{estimate_tokens, ChatRequest, ChatResponse, Role, TokenUsage};
use crate::faults::{BackendFault, FaultConfig, LlmError};
use crate::mutate::{apply_all, AppliedFault, FaultKind};
use crate::profiles::{LangProfile, ModelProfile};
use crate::task::{SiteTable, TaskKnowledge, TaskLibrary};
use crate::LanguageModel;
use aivril_obs::siphash::SipHasher13;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::hash::Hasher;
use std::sync::Arc;

/// Prompt-protocol markers shared between the agents (which write
/// prompts) and the simulated models (which read them). Real models
/// would not need these to be exact, but determinism does.
pub mod protocol {
    /// Prefix of the line naming the benchmark task.
    pub const TASK_PREFIX: &str = "Design task:";
    /// Prefix of the line naming the target language.
    pub const LANG_PREFIX: &str = "Target language:";
    /// Generation request for the testbench (testbench-first flow).
    pub const REQ_TB: &str = "Write a comprehensive, self-checking testbench";
    /// Generation request for the RTL implementation.
    pub const REQ_RTL: &str = "Write the RTL module";
    /// Substring present in every Review Agent corrective prompt.
    pub const SYNTAX_MARKER: &str = "syntax error";
    /// Substring present in every Verification Agent corrective prompt.
    pub const FUNC_MARKER: &str = "failing test case";
    /// Substring marking a *detailed* corrective prompt (locations and
    /// snippets included). Terse correctives repair half as fast.
    pub const DETAIL_MARKER: &str = "offending line";
    /// Substring marking a detailed functional corrective (per-case
    /// failure list included).
    pub const FUNC_DETAIL_MARKER: &str = "- Test Case";
}

/// Which artefact a generation/corrective exchange concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Artifact {
    Testbench,
    Rtl,
}

/// A deterministic simulated LLM.
///
/// See the crate docs for why this is a sound substitute for hosted
/// models in this reproduction. Construct per model via
/// [`crate::profiles`]; determinism is per `(model, task, seed)`.
#[derive(Debug, Clone)]
pub struct SimLlm {
    profile: ModelProfile,
    library: Arc<TaskLibrary>,
    recorder: aivril_obs::Recorder,
    faults: FaultConfig,
}

impl SimLlm {
    /// Creates a simulated model with `profile` behaviour and `library`
    /// knowledge. The library is held behind an [`Arc`] so model
    /// instances sharing one knowledge base (e.g. the parallel
    /// evaluation workers) clone a pointer, not the golden sources;
    /// passing a plain [`TaskLibrary`] still works.
    #[must_use]
    pub fn new(profile: ModelProfile, library: impl Into<Arc<TaskLibrary>>) -> SimLlm {
        SimLlm {
            profile,
            library: library.into(),
            recorder: aivril_obs::Recorder::disabled(),
            faults: FaultConfig::off(),
        }
    }

    /// Enables deterministic backend-fault injection (see
    /// [`FaultConfig`]). With the default all-zero config every code
    /// path is byte-identical to a fault-free model.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> SimLlm {
        self.faults = faults;
        self
    }

    /// Attaches an observability recorder: every [`SimLlm::chat`] call
    /// emits an `llm.chat` span (tokens, latency, request kind) and
    /// advances the modeled clock by its latency. Disabled by default.
    #[must_use]
    pub fn with_recorder(mut self, recorder: aivril_obs::Recorder) -> SimLlm {
        self.recorder = recorder;
        self
    }

    /// The behaviour profile.
    #[must_use]
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    fn rng(&self, task: &str, seed: u64, tag: &str) -> StdRng {
        let mut h = SipHasher13::new();
        h.write_str_pinned(&self.profile.name);
        h.write_str_pinned(task);
        h.write_u64(seed);
        h.write_str_pinned(tag);
        StdRng::seed_from_u64(h.finish())
    }

    /// Samples `1 + Geometric(p)`: the corrective round at which a fault
    /// gets fixed. Capped so a zero/low `p` cannot loop unboundedly.
    fn repair_round(rng: &mut StdRng, p: f64) -> u32 {
        let mut round = 1;
        while round < 64 {
            if rng.gen_bool(p.clamp(0.001, 0.999)) {
                return round;
            }
            round += 1;
        }
        round
    }

    /// Chooses `count` faults of `kind` from `sites`, the templates of
    /// that kind applicable to the golden text with their occurrence
    /// counts there.
    fn pick_faults(
        rng: &mut StdRng,
        sites: &SiteTable,
        kind: FaultKind,
        count: u32,
    ) -> Vec<AppliedFault> {
        if sites.len() == 0 {
            return Vec::new();
        }
        let mut out: Vec<AppliedFault> = Vec::new();
        for _ in 0..count {
            let (template, occurrences) = sites.get(rng.gen_range(0..sites.len()));
            let occ = rng.gen_range(0..occurrences);
            let fault = AppliedFault {
                template: template.clone(),
                occurrence: occ,
                kind,
            };
            // Applying the identical corruption twice would cancel out
            // (e.g. a double selector inversion); keep each site once.
            if !out.contains(&fault) {
                out.push(fault);
            }
        }
        out
    }

    /// The fault plan of the artefact `view` asks for. `pick(rng, kind,
    /// count)` draws the faults from the golden text's sites.
    fn plan(
        &self,
        task: &str,
        seed: u64,
        view: &View<'_>,
        pick: impl Fn(&mut StdRng, FaultKind, u32) -> Vec<AppliedFault>,
    ) -> FaultPlan {
        let lang = self.profile.lang(view.verilog);
        match view.artifact {
            Artifact::Testbench => self.tb_plan(task, seed, lang, pick),
            Artifact::Rtl => self.rtl_plan(task, seed, lang, view.vague_spec, pick),
        }
    }

    /// The RTL fault plan for one `(task, seed)` sample: each fault is
    /// paired with the corrective round at which it disappears.
    fn rtl_plan(
        &self,
        task: &str,
        seed: u64,
        lang: &LangProfile,
        vague_spec: bool,
        pick: impl Fn(&mut StdRng, FaultKind, u32) -> Vec<AppliedFault>,
    ) -> FaultPlan {
        let mut rng = self.rng(task, seed, "rtl");
        let syntax_broken = rng.gen_bool(1.0 - lang.syntax_ok);
        let mut syntax = Vec::new();
        if syntax_broken {
            let k = rng.gen_range(lang.syntax_faults.0..=lang.syntax_faults.1);
            for f in pick(&mut rng, FaultKind::Syntax, k) {
                let fixed_at = Self::repair_round(&mut rng, lang.syntax_repair);
                syntax.push((f, fixed_at));
            }
        }
        let func_ok = if syntax_broken {
            lang.func_ok_given_syntax_bad
        } else {
            lang.func_ok_given_syntax_ok
        };
        let mut functional = Vec::new();
        if rng.gen_bool(1.0 - func_ok) {
            let k = rng.gen_range(lang.func_faults.0..=lang.func_faults.1);
            for f in pick(&mut rng, FaultKind::Functional, k) {
                let fixed_at = Self::repair_round(&mut rng, lang.func_repair);
                functional.push((f, fixed_at));
            }
        }
        // An underspecified prompt forces the model to guess behaviour:
        // extra functional faults that corrective iterations cannot fix
        // (the testbench feedback cannot restore information the prompt
        // never contained).
        if vague_spec {
            let mut vrng = self.rng(task, seed, "vague");
            for f in pick(&mut vrng, FaultKind::Functional, 2) {
                functional.push((f, u32::MAX));
            }
        }
        // Reintroduction schedule for the syntax loop: at round j a fresh
        // syntax fault may appear, fixed some rounds later.
        let mut reintroduced = Vec::new();
        let mut reintro_rng = self.rng(task, seed, "reintro");
        for round in 1..=8u32 {
            if reintro_rng.gen_bool(lang.reintroduce.clamp(0.0, 0.5)) {
                if let Some(f) = pick(&mut reintro_rng, FaultKind::Syntax, 1).pop() {
                    let fixed_at = round + Self::repair_round(&mut reintro_rng, lang.syntax_repair);
                    reintroduced.push((f, round, fixed_at));
                }
            }
        }
        FaultPlan {
            syntax,
            functional,
            reintroduced,
        }
    }

    /// The testbench fault plan (syntax only — the reference stimulus is
    /// assumed behaviourally exhaustive per the testbench-first design).
    fn tb_plan(
        &self,
        task: &str,
        seed: u64,
        lang: &LangProfile,
        pick: impl Fn(&mut StdRng, FaultKind, u32) -> Vec<AppliedFault>,
    ) -> FaultPlan {
        let mut rng = self.rng(task, seed, "tb");
        let mut syntax = Vec::new();
        if rng.gen_bool(1.0 - lang.tb_syntax_ok) {
            for f in pick(&mut rng, FaultKind::Syntax, 1) {
                let fixed_at = Self::repair_round(&mut rng, lang.syntax_repair);
                syntax.push((f, fixed_at));
            }
        }
        FaultPlan {
            syntax,
            functional: Vec::new(),
            reintroduced: Vec::new(),
        }
    }
}

/// A sample's faults with their repair schedule.
#[derive(Debug, Clone, Default)]
struct FaultPlan {
    /// (fault, corrective round at which it is fixed)
    syntax: Vec<(AppliedFault, u32)>,
    functional: Vec<(AppliedFault, u32)>,
    /// (fault, round injected, round fixed)
    reintroduced: Vec<(AppliedFault, u32, u32)>,
}

impl FaultPlan {
    /// Faults present after `syntax_rounds` syntax-repair credits and
    /// `func_rounds` functional-repair credits (fractional: terse
    /// correctives earn half a round).
    fn surviving(&self, syntax_rounds: f64, func_rounds: f64) -> Vec<AppliedFault> {
        let mut out = Vec::new();
        for (f, fixed_at) in &self.syntax {
            if f64::from(*fixed_at) > syntax_rounds {
                out.push(f.clone());
            }
        }
        for (f, injected, fixed_at) in &self.reintroduced {
            if f64::from(*injected) <= syntax_rounds && f64::from(*fixed_at) > syntax_rounds {
                out.push(f.clone());
            }
        }
        for (f, fixed_at) in &self.functional {
            if f64::from(*fixed_at) > func_rounds {
                out.push(f.clone());
            }
        }
        out
    }
}

/// What the conversation asks for, recovered from the message history.
///
/// Corrective rounds are *fractional*: a detailed corrective prompt
/// (line numbers + snippets, marked by [`protocol::DETAIL_MARKER`])
/// earns a full round of repair progress, while a terse one earns half —
/// the mechanism behind the paper's claim that prompt detail minimises
/// iterations (Sec. 3.2).
#[derive(Debug, PartialEq)]
struct View<'a> {
    task: Option<&'a str>,
    verilog: bool,
    artifact: Artifact,
    syntax_rounds: f64,
    func_rounds: f64,
    /// `true` when the generation request carries too little
    /// specification text: the model has to guess the behaviour, which
    /// manifests as extra, essentially unrepairable functional faults.
    vague_spec: bool,
}

/// `text.contains(needle)`. std vectorises `contains` for needles of up
/// to 32 bytes only, so a longer needle is first looked for by its
/// 32-byte head: text without the head is rejected at vector speed.
fn has(text: &str, needle: &str) -> bool {
    match needle.get(..32) {
        Some(head) if head.len() < needle.len() => text.contains(head) && text.contains(needle),
        _ => text.contains(needle),
    }
}

/// The rest of every line of `text` that starts with `prefix`, first to
/// last, with a trailing `\r` dropped as [`str::lines`] drops it. The
/// next occurrence is located with `find` only after `contains` found
/// one, so the text after the last occurrence is read by the vectorised
/// `contains` alone, and nothing is allocated.
fn header_lines<'t>(text: &'t str, prefix: &'t str) -> impl Iterator<Item = &'t str> {
    let mut from = 0;
    std::iter::from_fn(move || loop {
        let rest = &text[from..];
        if !has(rest, prefix) {
            return None;
        }
        let at = from + rest.find(prefix)?;
        from = at + prefix.len();
        if at == 0 || text.as_bytes()[at - 1] == b'\n' {
            let line = &text[from..];
            let line = line.find('\n').map_or(line, |end| &line[..end]);
            return Some(line.strip_suffix('\r').unwrap_or(line));
        }
    })
}

/// `true` when a generation request carries too little specification
/// text. Crude but effective: a workable requirement needs a couple of
/// sentences of actual specification text (measured between the
/// `Specification:` heading and any attached material).
fn spec_is_vague(request: &str) -> bool {
    let spec = request
        .split_once("Specification:")
        .map_or(request, |(_, rest)| rest);
    let spec = spec
        .split_once("Reference testbench:")
        .map_or(spec, |(head, _)| head);
    spec.trim().len() < 120
}

/// Reads the protocol lines and markers of a conversation. Each message
/// is read at most once, by a few vectorised substring searches, and
/// most are not read to the end:
///
/// * the first `Design task:` line in any message wins (specifications
///   embedded later in a prompt may carry their own heading), so the
///   scan stops at the message that has one;
/// * the last `Target language:` line in any message wins, so the scan
///   runs from the newest message and stops at the first that has one;
/// * corrective rounds count the user messages after the most recent
///   generation request, so that scan also runs from the newest message
///   and stops at the request. The first message never counts as a
///   corrective.
fn parse_view(request: &ChatRequest) -> View<'_> {
    let messages = &request.messages;
    let task = messages
        .iter()
        .find_map(|m| header_lines(&m.content, protocol::TASK_PREFIX).next())
        .map(|rest| rest.trim().trim_end_matches('.'));
    let verilog = messages
        .iter()
        .rev()
        .find_map(|m| header_lines(&m.content, protocol::LANG_PREFIX).last())
        .is_none_or(|rest| {
            !rest
                .as_bytes()
                .windows(4)
                .any(|w| w.eq_ignore_ascii_case(b"vhdl"))
        });
    // Half-round credits: a detailed corrective earns 2, a terse one 1.
    let (mut syntax_halves, mut func_halves) = (0u32, 0u32);
    let mut generation = None;
    for (i, m) in messages.iter().enumerate().rev() {
        if m.role != Role::User {
            continue;
        }
        let text = m.content.as_str();
        let testbench = has(text, protocol::REQ_TB);
        if testbench || has(text, protocol::REQ_RTL) {
            generation = Some((testbench, text));
            break;
        }
        if i == 0 {
            break;
        }
        if has(text, protocol::FUNC_MARKER) {
            func_halves += if has(text, protocol::FUNC_DETAIL_MARKER) {
                2
            } else {
                1
            };
        } else if has(text, protocol::SYNTAX_MARKER) {
            syntax_halves += if has(text, protocol::DETAIL_MARKER) {
                2
            } else {
                1
            };
        }
    }
    let (artifact, vague_spec) = match generation {
        Some((true, text)) => (Artifact::Testbench, spec_is_vague(text)),
        Some((false, text)) => (Artifact::Rtl, spec_is_vague(text)),
        None => (Artifact::Rtl, false),
    };
    View {
        task,
        verilog,
        artifact,
        // Sums of halves are exact in f64, whatever the order.
        syntax_rounds: f64::from(syntax_halves) * 0.5,
        func_rounds: f64::from(func_halves) * 0.5,
        vague_spec,
    }
}

/// `{intro}\n```{fence}\n{code}{close}`, allocated once.
fn fenced(intro: &str, fence: &str, code: &str, close: &str) -> String {
    let mut out = String::with_capacity(intro.len() + fence.len() + code.len() + close.len() + 5);
    out.push_str(intro);
    out.push_str("\n```");
    out.push_str(fence);
    out.push('\n');
    out.push_str(code);
    out.push_str(close);
    out
}

impl SimLlm {
    /// Rolls the backend fault of `request`. A transport fault ends the
    /// exchange here, like a real transport failing before the model
    /// ever sees the prompt; a content fault is returned for
    /// [`SimLlm::respond`] to apply. With injection off this is a no-op
    /// returning `Ok(None)`.
    fn roll_fault(&self, request: &ChatRequest) -> Result<Option<BackendFault>, LlmError> {
        let fault = self.faults.roll(&self.profile.name, request);
        if !matches!(
            fault,
            Some(BackendFault::Timeout | BackendFault::RateLimited)
        ) {
            return Ok(fault);
        }
        let mut frng = self.faults.rng(&self.profile.name, request);
        // First draw reproduces the class decision; the rest
        // parameterise the fault from the same stream.
        let _class: f64 = frng.gen_range(0.0..1.0);
        let err = match fault {
            Some(BackendFault::Timeout) => LlmError::Timeout {
                elapsed_s: 30.0 + frng.gen_range(0.0..30.0),
            },
            _ => LlmError::RateLimited {
                retry_after_s: frng.gen_range(1.0..8.0),
            },
        };
        if self.recorder.is_enabled() {
            let span = self.recorder.span("llm.chat");
            self.recorder.advance(err.elapsed_s());
            span.attr_str("model", &self.profile.name);
            span.attr_str("kind", "fault");
            span.attr_str("fault", err.class());
            drop(span);
            self.recorder
                .counter_add("resilience_llm_faults_total", &[("class", err.class())], 1);
        }
        Err(err)
    }

    /// Writes the response to `request`: `found` is the task's golden
    /// texts with the fault plan of the artefact `view` asks for, or
    /// `None` when the conversation names no known task.
    fn respond(
        &self,
        request: &ChatRequest,
        fault: Option<BackendFault>,
        view: &View<'_>,
        found: Option<(&TaskKnowledge, FaultPlan)>,
    ) -> ChatResponse {
        let seed = request.params.seed;
        let corrective = view.syntax_rounds + view.func_rounds > 0.0;
        let content = match found {
            None => {
                "I could not identify the design task in the prompt; please restate it.".to_string()
            }
            Some((knowledge, plan)) => {
                let (golden, label) = match view.artifact {
                    Artifact::Testbench => (knowledge.tb(view.verilog), "testbench"),
                    Artifact::Rtl => (knowledge.dut(view.verilog), "RTL module"),
                };
                let faults = plan.surviving(view.syntax_rounds, view.func_rounds);
                let code = if faults.is_empty() {
                    Cow::Borrowed(golden)
                } else {
                    Cow::Owned(apply_all(golden, &faults))
                };
                let fence = if view.verilog { "verilog" } else { "vhdl" };
                let intro = if corrective {
                    format!("I have revised the {label} to address the reported issues.")
                } else {
                    format!("Here is the {label} for the task.")
                };
                match fault {
                    // An empty code block: the fence is there, the code
                    // is not. The corrective loop sees "no top module".
                    Some(BackendFault::Empty) => fenced(&intro, fence, "", "```\n"),
                    // The right task in the wrong HDL — a real failure
                    // mode of multilingual models under pressure.
                    Some(BackendFault::WrongLanguage) => {
                        let other = match view.artifact {
                            Artifact::Testbench => knowledge.tb(!view.verilog),
                            Artifact::Rtl => knowledge.dut(!view.verilog),
                        };
                        let other_fence = if view.verilog { "vhdl" } else { "verilog" };
                        fenced(&intro, other_fence, other, "```\n")
                    }
                    // The completion stops mid-module: unterminated
                    // fence, code cut at a seeded fraction.
                    Some(BackendFault::Truncate) => {
                        let mut frng = self.faults.rng(&self.profile.name, request);
                        let _class: f64 = frng.gen_range(0.0..1.0);
                        let frac: f64 = frng.gen_range(0.25..0.75);
                        let mut cut = (code.len() as f64 * frac) as usize;
                        while cut > 0 && !code.is_char_boundary(cut) {
                            cut -= 1;
                        }
                        fenced(&intro, fence, &code[..cut], "")
                    }
                    _ => fenced(&intro, fence, &code, "```\n"),
                }
            }
        };

        let completion_tokens = estimate_tokens(&content);
        let prompt_tokens: u64 = request
            .messages
            .iter()
            .map(|m| estimate_tokens(&m.content))
            .sum();
        let noise = self
            .rng(
                view.task.unwrap_or(""),
                seed,
                &format!(
                    "lat{}",
                    (2.0 * (view.syntax_rounds + view.func_rounds)) as u64
                ),
            )
            .gen_range(0.0..1.0);
        let latency_s = self.profile.latency.seconds(completion_tokens, noise);
        if self.recorder.is_enabled() {
            let kind = if corrective { "corrective" } else { "generate" };
            let span = self.recorder.span("llm.chat");
            self.recorder.advance(latency_s);
            span.attr_str("model", &self.profile.name);
            span.attr_str("kind", kind);
            span.attr_int("prompt_tokens", prompt_tokens as i64);
            span.attr_int("completion_tokens", completion_tokens as i64);
            span.attr_f64("latency_s", latency_s);
            drop(span);
            self.recorder
                .counter_add("llm_requests_total", &[("kind", kind)], 1);
            self.recorder
                .counter_add("llm_tokens_total", &[("kind", "prompt")], prompt_tokens);
            self.recorder.counter_add(
                "llm_tokens_total",
                &[("kind", "completion")],
                completion_tokens,
            );
            self.recorder.observe(
                "llm_latency_seconds",
                &[],
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
                latency_s,
            );
        }
        ChatResponse {
            content,
            usage: TokenUsage {
                prompt_tokens,
                completion_tokens,
            },
            latency_s,
        }
    }
}

impl LanguageModel for SimLlm {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn chat(&mut self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let fault = self.roll_fault(request)?;
        let view = parse_view(request);
        let found = view.task.and_then(|task| {
            let (knowledge, sites) = self.library.get_with_sites(task)?;
            let sites = sites.lang(view.verilog);
            let plan = self.plan(task, request.params.seed, &view, |rng, kind, count| {
                let sites = match (view.artifact, kind) {
                    (Artifact::Rtl, FaultKind::Syntax) => &sites.dut_syntax,
                    (Artifact::Rtl, FaultKind::Functional) => &sites.dut_functional,
                    (Artifact::Testbench, FaultKind::Syntax) => &sites.tb_syntax,
                    (Artifact::Testbench, FaultKind::Functional) => {
                        unreachable!("testbench plans draw syntax faults only")
                    }
                };
                Self::pick_faults(rng, sites, kind, count)
            });
            Some((knowledge, plan))
        });
        Ok(self.respond(request, fault, &view, found))
    }
}

/// Builds a chat message carrying the task/language header the protocol
/// requires; a convenience for agents and tests.
#[must_use]
pub fn task_header(task: &str, verilog: bool) -> String {
    format!(
        "{} {}.\n{} {}.\n",
        protocol::TASK_PREFIX,
        task,
        protocol::LANG_PREFIX,
        if verilog { "Verilog" } else { "VHDL" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::{GenParams, Message};
    use crate::extract_code;
    use crate::mutate::{count_occurrences, functional_templates, syntax_templates, Dialect};
    use crate::profiles;
    use proptest::prelude::*;

    /// The line-by-line reader [`parse_view`] replaced, kept as its
    /// oracle: every line of every message, then every user message.
    fn parse_view_oracle(request: &ChatRequest) -> View<'_> {
        let mut task = None;
        let mut verilog = true;
        for m in &request.messages {
            for line in m.content.lines() {
                if let Some(rest) = line.strip_prefix(protocol::TASK_PREFIX) {
                    if task.is_none() {
                        task = Some(rest.trim().trim_end_matches('.'));
                    }
                }
                if let Some(rest) = line.strip_prefix(protocol::LANG_PREFIX) {
                    verilog = !rest.to_ascii_lowercase().contains("vhdl");
                }
            }
        }
        let mut artifact = Artifact::Rtl;
        let mut gen_index = 0usize;
        let mut vague_spec = false;
        for (i, m) in request.messages.iter().enumerate() {
            if m.role != Role::User {
                continue;
            }
            if m.content.contains(protocol::REQ_TB) || m.content.contains(protocol::REQ_RTL) {
                artifact = if m.content.contains(protocol::REQ_TB) {
                    Artifact::Testbench
                } else {
                    Artifact::Rtl
                };
                gen_index = i;
                let spec_text = m
                    .content
                    .split_once("Specification:")
                    .map(|(_, rest)| rest)
                    .unwrap_or(&m.content);
                let spec_text = spec_text
                    .split("Reference testbench:")
                    .next()
                    .unwrap_or(spec_text);
                vague_spec = spec_text.trim().len() < 120;
            }
        }
        let mut syntax_rounds = 0.0;
        let mut func_rounds = 0.0;
        for m in request.messages.iter().skip(gen_index + 1) {
            if m.role != Role::User {
                continue;
            }
            if m.content.contains(protocol::FUNC_MARKER) {
                func_rounds += if m.content.contains(protocol::FUNC_DETAIL_MARKER) {
                    1.0
                } else {
                    0.5
                };
            } else if m.content.contains(protocol::SYNTAX_MARKER) {
                syntax_rounds += if m.content.contains(protocol::DETAIL_MARKER) {
                    1.0
                } else {
                    0.5
                };
            }
        }
        View {
            task,
            verilog,
            artifact,
            syntax_rounds,
            func_rounds,
            vague_spec,
        }
    }

    /// The per-request fault draw the site tables replaced, kept as
    /// their oracle: every template is counted over the golden text on
    /// every call.
    fn pick_faults_oracle(
        rng: &mut StdRng,
        golden: &str,
        dialect: Dialect,
        kind: FaultKind,
        count: u32,
    ) -> Vec<AppliedFault> {
        let templates = match kind {
            FaultKind::Syntax => syntax_templates(dialect),
            FaultKind::Functional => functional_templates(dialect),
        };
        let applicable: Vec<_> = templates
            .iter()
            .filter(|t| count_occurrences(golden, t.pattern) > 0)
            .collect();
        if applicable.is_empty() {
            return Vec::new();
        }
        let mut out: Vec<AppliedFault> = Vec::new();
        for _ in 0..count {
            let t = applicable[rng.gen_range(0..applicable.len())];
            let occ = rng.gen_range(0..count_occurrences(golden, t.pattern));
            let fault = AppliedFault {
                template: t.clone(),
                occurrence: occ,
                kind,
            };
            if !out.contains(&fault) {
                out.push(fault);
            }
        }
        out
    }

    impl SimLlm {
        /// [`SimLlm::chat`] through both oracles.
        fn chat_oracle(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
            let fault = self.roll_fault(request)?;
            let view = parse_view_oracle(request);
            let found = view.task.and_then(|task| {
                let knowledge = self.library.get(task)?;
                let golden = match view.artifact {
                    Artifact::Testbench => knowledge.tb(view.verilog),
                    Artifact::Rtl => knowledge.dut(view.verilog),
                };
                let dialect = if view.verilog {
                    Dialect::Verilog
                } else {
                    Dialect::Vhdl
                };
                let plan = self.plan(task, request.params.seed, &view, |rng, kind, count| {
                    pick_faults_oracle(rng, golden, dialect, kind, count)
                });
                Some((knowledge, plan))
            });
            Ok(self.respond(request, fault, &view, found))
        }
    }

    /// Asserts that the table path and the oracle path answer `request`
    /// identically, down to the latency bits.
    fn assert_matches_oracle(model: &mut SimLlm, request: &ChatRequest) -> ChatResponse {
        let want = model.chat_oracle(request).expect("no transport faults");
        let got = model.chat(request).expect("no transport faults");
        assert_eq!(got.content, want.content);
        assert_eq!(got.usage, want.usage);
        assert_eq!(got.latency_s.to_bits(), want.latency_s.to_bits());
        got
    }

    /// Lines a random history is made of: protocol headers (well
    /// formed, padded, in the middle of a line), every marker, and the
    /// headings `spec_is_vague` splits on.
    const LINES: [&str; 24] = [
        "Design task: prob000_and2.",
        "Design task:  prob001_or2 . ",
        "Design task:t.",
        "see Design task: nested.",
        " Design task: indented.",
        "Target language: VHDL.",
        "Target language: Verilog.",
        "Target language: vHdL-93",
        "x Target language: VHDL.",
        "Target language:",
        "Write a comprehensive, self-checking testbench named `tb`.",
        "Write a comprehensive, self-checking",
        "Write the RTL module `m` implementing the specification below.",
        "The compiler reported a syntax error on line 3.",
        "offending line: `assign y = a & b`",
        "The simulation reported a failing test case.",
        "- Test Case 1 Failed",
        "log: syntax error near - Test Case",
        "Specification:",
        "The module and2 exposes two 1-bit inputs a and b and one 1-bit output y.",
        "Reference testbench:",
        "```verilog",
        "",
        "endmodule",
    ];

    /// A message from `(role, line indices, line ending, trailing end)`.
    fn message((role, lines, crlf, trailing): (u8, Vec<usize>, bool, bool)) -> Message {
        let eol = if crlf { "\r\n" } else { "\n" };
        let mut content = lines
            .iter()
            .map(|&i| LINES[i])
            .collect::<Vec<_>>()
            .join(eol);
        if trailing {
            content.push_str(eol);
        }
        by_role(role, content)
    }

    /// A system message for 0, a user message for 1 or 2, else an
    /// assistant message.
    fn by_role(role: u8, content: String) -> Message {
        match role {
            0 => Message::system(content),
            1 | 2 => Message::user(content),
            _ => Message::assistant(content),
        }
    }

    fn history() -> impl Strategy<Value = Vec<Message>> {
        proptest::collection::vec(
            (
                0u8..4,
                proptest::collection::vec(0usize..LINES.len(), 0..8),
                (0u8..2).prop_map(|b| b == 1),
                (0u8..2).prop_map(|b| b == 1),
            )
                .prop_map(message),
            0..7,
        )
    }

    proptest! {
        #[test]
        fn oracle_parse_view_matches_on_random_histories(messages in history()) {
            let request = ChatRequest { messages, params: GenParams::default() };
            prop_assert_eq!(parse_view(&request), parse_view_oracle(&request));
        }

        #[test]
        fn oracle_parse_view_matches_on_random_text(
            texts in proptest::collection::vec("[DTWa-z :.\\r\\n-]{0,80}", 0..5),
            roles in proptest::collection::vec(0u8..4, 5),
            splice in proptest::collection::vec(0usize..LINES.len(), 5),
        ) {
            // Random bytes around a protocol line, so prefixes land at
            // line starts, mid-line and after bare `\r`s.
            let messages: Vec<Message> = texts
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let (a, b) = t.split_at(t.len() / 2);
                    by_role(roles[i], format!("{a}{}{b}", LINES[splice[i]]))
                })
                .collect();
            let request = ChatRequest { messages, params: GenParams::default() };
            prop_assert_eq!(parse_view(&request), parse_view_oracle(&request));
        }

        #[test]
        fn oracle_chat_matches_on_random_histories(
            messages in history(),
            seed in 0u64..64,
            profile in 0usize..3,
        ) {
            let mut model = SimLlm::new(all_profiles()[profile].clone(), library());
            let request = ChatRequest {
                messages,
                params: GenParams { seed, ..GenParams::default() },
            };
            let want = model.chat_oracle(&request).expect("no transport faults");
            let got = model.chat(&request).expect("no transport faults");
            prop_assert_eq!(got.content, want.content);
            prop_assert_eq!(got.usage, want.usage);
            prop_assert_eq!(got.latency_s.to_bits(), want.latency_s.to_bits());
        }
    }

    fn all_profiles() -> [ModelProfile; 3] {
        [
            profiles::claude35_sonnet(),
            profiles::gpt4o(),
            profiles::llama3_70b(),
        ]
    }

    /// Every task of the suite, both languages, every profile, seeds
    /// 0..8: a testbench generation, an RTL generation carrying that
    /// testbench, a detailed syntax corrective and a terse functional
    /// one, each answered identically by the table path and the oracle.
    #[test]
    fn oracle_chat_matches_on_every_suite_task() {
        let problems = aivril_verilogeval::suite();
        let mut lib = TaskLibrary::new();
        for p in &problems {
            lib.add_task(
                &p.name,
                p.verilog.dut.clone(),
                p.verilog.tb.clone(),
                p.vhdl.dut.clone(),
                p.vhdl.tb.clone(),
            );
        }
        let lib = Arc::new(lib);
        for profile in all_profiles() {
            let mut model = SimLlm::new(profile, Arc::clone(&lib));
            for p in &problems {
                for verilog in [true, false] {
                    for seed in 0..9 {
                        let params = GenParams {
                            seed,
                            ..GenParams::default()
                        };
                        let mut messages = vec![
                            Message::system("You are the Code Agent."),
                            Message::user(format!(
                                "{}{} named `tb`.\n\nSpecification:\n{}",
                                task_header(&p.name, verilog),
                                protocol::REQ_TB,
                                p.spec
                            )),
                        ];
                        let tb = assert_matches_oracle(
                            &mut model,
                            &ChatRequest {
                                messages: messages.clone(),
                                params,
                            },
                        );
                        let tb_code = extract_code(&tb.content);
                        messages.push(Message::assistant(tb.content));
                        messages.push(Message::user(format!(
                            "{}{} `{}`.\n\nSpecification:\n{}\nReference testbench:\n```\n{}```",
                            task_header(&p.name, verilog),
                            protocol::REQ_RTL,
                            p.module_name,
                            p.spec,
                            tb_code
                        )));
                        for corrective in [
                            "The compiler reported a syntax error; offending line: `x`.",
                            "The simulation reported a failing test case.",
                        ] {
                            let r = assert_matches_oracle(
                                &mut model,
                                &ChatRequest {
                                    messages: messages.clone(),
                                    params,
                                },
                            );
                            messages.push(Message::assistant(r.content));
                            messages.push(Message::user(corrective));
                        }
                        assert_matches_oracle(&mut model, &ChatRequest { messages, params });
                    }
                }
            }
        }
    }

    /// The site tables are the only template search: the first request
    /// for a task counts every template its plans draw from once,
    /// and no later request for that task searches again, whatever its
    /// artefact, language, seed or corrective round.
    #[test]
    fn site_tables_are_built_once_per_task() {
        use crate::mutate::tests::TEMPLATE_SEARCHES;
        let searches = || TEMPLATE_SEARCHES.with(std::cell::Cell::get);
        let mut model = SimLlm::new(profiles::llama3_70b(), library());
        let before = searches();
        model.chat(&rtl_request(0)).expect("no faults configured");
        // DUT: both kinds; testbench: syntax only.
        let tables = |d| (2 * syntax_templates(d).len() + functional_templates(d).len()) as u64;
        assert_eq!(
            searches() - before,
            tables(Dialect::Verilog) + tables(Dialect::Vhdl),
            "one search per template and golden text"
        );
        let built = searches();
        for seed in 0..40 {
            for verilog in [true, false] {
                for req in [protocol::REQ_TB, protocol::REQ_RTL] {
                    let mut messages = vec![Message::user(format!(
                        "{}{req}",
                        task_header("prob000_and2", verilog)
                    ))];
                    for _ in 0..3 {
                        let params = GenParams {
                            seed,
                            ..GenParams::default()
                        };
                        let r = model
                            .chat(&ChatRequest {
                                messages: messages.clone(),
                                params,
                            })
                            .expect("no faults configured");
                        messages.push(Message::assistant(r.content));
                        messages.push(Message::user("syntax error; offending line: `x`"));
                    }
                }
            }
        }
        assert_eq!(
            searches(),
            built,
            "no template search after the first request"
        );
    }

    const GOLDEN_V: &str =
        "module and2(\n  input wire a,\n  input wire b,\n  output wire y\n);\n  assign y = a & b;\nendmodule\n";
    const GOLDEN_TB: &str = "module tb;\n  reg a, b;\n  wire y;\nendmodule\n";

    fn library() -> TaskLibrary {
        let mut lib = TaskLibrary::new();
        lib.add_task(
            "prob000_and2",
            GOLDEN_V,
            GOLDEN_TB,
            "entity and2 is\nend entity;\n",
            "entity tb is\nend entity;\n",
        );
        lib
    }

    /// A generation request with enough specification text to not count
    /// as vague (vagueness is exercised by its own test below).
    fn rtl_request(seed: u64) -> ChatRequest {
        ChatRequest {
            messages: vec![Message::user(format!(
                "{}{}\nSpecification:\nThe module and2 exposes two 1-bit inputs \
                 a and b and one 1-bit output y. The output y is the logical AND \
                 of the two inputs at all times; the module is combinational.",
                task_header("prob000_and2", true),
                protocol::REQ_RTL
            ))],
            params: GenParams {
                seed,
                ..GenParams::default()
            },
        }
    }

    /// Pinned seeds: every content plan and latency draw is seeded
    /// here, so these values may move only with a deliberate change of
    /// every seeded result.
    #[test]
    fn golden_rng_values() {
        use rand::RngCore;
        let cases = [
            (profiles::claude35_sonnet(), "prob000_and2", 0, "rtl"),
            (profiles::gpt4o(), "prob042_x", 7, "reintro"),
            (profiles::llama3_70b(), "", u64::MAX, "lat3"),
        ];
        let got: Vec<u64> = cases
            .into_iter()
            .map(|(profile, task, seed, tag)| {
                SimLlm::new(profile, TaskLibrary::new())
                    .rng(task, seed, tag)
                    .next_u64()
            })
            .collect();
        assert_eq!(
            got,
            [
                12146091074901822419,
                15687845444144771246,
                12083646720644824165
            ]
        );
    }

    #[test]
    fn vague_specs_degrade_generations() {
        let mut model = SimLlm::new(profiles::claude35_sonnet(), library());
        let mut vague_broken = 0;
        for seed in 0..40 {
            let req = ChatRequest {
                messages: vec![Message::user(format!(
                    "{}{}",
                    task_header("prob000_and2", true),
                    protocol::REQ_RTL
                ))],
                params: GenParams {
                    seed,
                    ..GenParams::default()
                },
            };
            let code = extract_code(&model.chat(&req).expect("no faults configured").content);
            vague_broken += u32::from(code != GOLDEN_V);
        }
        // With no specification text the model always has to guess.
        assert_eq!(vague_broken, 40, "vague prompts must corrupt every sample");
    }

    #[test]
    fn responses_are_deterministic_per_seed() {
        let mut m1 = SimLlm::new(profiles::claude35_sonnet(), library());
        let mut m2 = SimLlm::new(profiles::claude35_sonnet(), library());
        let r1 = m1.chat(&rtl_request(7)).expect("no faults configured");
        let r2 = m2.chat(&rtl_request(7)).expect("no faults configured");
        assert_eq!(r1.content, r2.content);
        assert_eq!(r1.latency_s, r2.latency_s);
        let r3 = m1.chat(&rtl_request(8)).expect("no faults configured");
        // Different seeds usually differ in latency even when the code is
        // identical.
        assert!(r3.latency_s != r1.latency_s || r3.content != r1.content);
    }

    #[test]
    fn fault_rates_track_profile() {
        // Llama3 on VHDL is broken ~99% of the time; Claude on Verilog
        // ~9%. Count corrupted generations over many seeds.
        let count_broken = |profile: ModelProfile, verilog: bool| {
            let mut model = SimLlm::new(profile, library());
            let mut broken = 0;
            for seed in 0..200 {
                let req = ChatRequest {
                    messages: vec![Message::user(format!(
                        "{}{}\nSpecification:\nThe module and2 exposes two 1-bit \
                         inputs a and b and one 1-bit output y, the logical AND of \
                         the inputs; it is purely combinational at all times.",
                        task_header("prob000_and2", verilog),
                        protocol::REQ_RTL
                    ))],
                    params: GenParams {
                        seed,
                        ..GenParams::default()
                    },
                };
                let code = extract_code(&model.chat(&req).expect("no faults configured").content);
                let golden = if verilog {
                    GOLDEN_V
                } else {
                    "entity and2 is\nend entity;\n"
                };
                if code != golden {
                    broken += 1;
                }
            }
            broken
        };
        let claude_v = count_broken(profiles::claude35_sonnet(), true);
        let llama_h = count_broken(profiles::llama3_70b(), false);
        // Claude Verilog: ~(1-.9103) syntax + ~.33 functional ≈ 40%.
        assert!(claude_v > 30 && claude_v < 140, "claude_v={claude_v}");
        // Llama VHDL: ~99% corrupted.
        assert!(llama_h > 180, "llama_h={llama_h}");
    }

    #[test]
    fn corrective_rounds_converge_to_golden() {
        let mut model = SimLlm::new(profiles::claude35_sonnet(), library());
        // Find a seed with a corrupted initial generation.
        let mut messages = None;
        for seed in 0..300 {
            let req = rtl_request(seed);
            let resp = model.chat(&req).expect("no faults configured");
            if extract_code(&resp.content) != GOLDEN_V {
                let mut ms = req.messages.clone();
                ms.push(Message::assistant(resp.content));
                messages = Some((ms, seed));
                break;
            }
        }
        let (mut ms, seed) = messages.expect("some corrupted sample exists");
        // Apply many corrective rounds of both kinds; the code must
        // eventually return to golden (every fault has a finite repair
        // round).
        for _ in 0..80 {
            ms.push(Message::user(
                "The compiler reported a syntax error; offending line: `x`. \
                 Also the simulation reported a failing test case.\n\
                 - Test Case 1 Failed"
                    .to_string(),
            ));
            let req = ChatRequest {
                messages: ms.clone(),
                params: GenParams {
                    seed,
                    ..GenParams::default()
                },
            };
            let resp = model.chat(&req).expect("no faults configured");
            let code = extract_code(&resp.content);
            ms.push(Message::assistant(resp.content));
            if code == GOLDEN_V {
                return;
            }
        }
        panic!("corrective loop did not converge in 80 rounds");
    }

    #[test]
    fn testbench_requests_return_testbench() {
        let mut model = SimLlm::new(profiles::gpt4o(), library());
        let req = ChatRequest {
            messages: vec![Message::user(format!(
                "{}{}",
                task_header("prob000_and2", true),
                protocol::REQ_TB
            ))],
            params: GenParams {
                seed: 3,
                ..GenParams::default()
            },
        };
        let resp = model.chat(&req).expect("no faults configured");
        assert!(resp.content.contains("testbench"));
        let code = extract_code(&resp.content);
        assert!(code.contains("module tb"), "{code}");
    }

    #[test]
    fn unknown_task_yields_no_code() {
        let mut model = SimLlm::new(profiles::gpt4o(), library());
        let req = ChatRequest {
            messages: vec![Message::user("Design task: mystery.\nWrite the RTL module")],
            params: GenParams::default(),
        };
        let resp = model.chat(&req).expect("no faults configured");
        assert!(resp.content.contains("could not identify"));
    }

    #[test]
    fn latency_scales_with_model_speed() {
        let mut slow = SimLlm::new(profiles::claude35_sonnet(), library());
        let mut fast = SimLlm::new(profiles::gpt4o(), library());
        let mut slow_total = 0.0;
        let mut fast_total = 0.0;
        for seed in 0..20 {
            slow_total += slow.chat(&rtl_request(seed)).expect("no faults").latency_s;
            fast_total += fast.chat(&rtl_request(seed)).expect("no faults").latency_s;
        }
        assert!(slow_total > fast_total);
    }

    #[test]
    fn view_parsing_counts_rounds() {
        let messages = vec![
            Message::user(format!("{}{}", task_header("t", false), protocol::REQ_RTL)),
            Message::assistant("```vhdl\nx\n```"),
            Message::user("There is a syntax error on line 3."),
            Message::assistant("```vhdl\ny\n```"),
            Message::user("The simulation reported a failing test case.\n- Test Case 2 Failed"),
        ];
        let req = ChatRequest {
            messages,
            params: GenParams::default(),
        };
        let v = parse_view(&req);
        assert_eq!(v.task, Some("t"));
        assert!(!v.verilog);
        assert_eq!(v.artifact, Artifact::Rtl);
        assert!(
            (v.syntax_rounds - 0.5).abs() < 1e-9,
            "terse syntax corrective = half credit"
        );
        assert!(
            (v.func_rounds - 1.0).abs() < 1e-9,
            "detailed functional corrective = full credit"
        );
    }

    #[test]
    fn transport_faults_surface_as_errors() {
        use crate::faults::FaultConfig;
        let cfg = FaultConfig {
            timeout: 1.0,
            ..FaultConfig::off()
        };
        let mut model = SimLlm::new(profiles::claude35_sonnet(), library()).with_faults(cfg);
        let err = model
            .chat(&rtl_request(1))
            .expect_err("rate 1.0 always faults");
        assert_eq!(err.class(), "timeout");
        assert!(err.elapsed_s() >= 30.0, "timeout consumes the deadline");
        let cfg = FaultConfig {
            rate_limit: 1.0,
            ..FaultConfig::off()
        };
        let mut model = SimLlm::new(profiles::claude35_sonnet(), library()).with_faults(cfg);
        match model.chat(&rtl_request(1)) {
            Err(crate::LlmError::RateLimited { retry_after_s }) => {
                assert!((1.0..8.0).contains(&retry_after_s));
            }
            other => panic!("expected rate limit, got {other:?}"),
        }
    }

    #[test]
    fn content_faults_degrade_the_completion() {
        use crate::faults::FaultConfig;
        let empty = FaultConfig {
            empty: 1.0,
            ..FaultConfig::off()
        };
        let mut model = SimLlm::new(profiles::claude35_sonnet(), library()).with_faults(empty);
        let resp = model.chat(&rtl_request(2)).expect("content faults are Ok");
        assert_eq!(extract_code(&resp.content), "", "empty code block");

        let wrong = FaultConfig {
            wrong_language: 1.0,
            ..FaultConfig::off()
        };
        let mut model = SimLlm::new(profiles::claude35_sonnet(), library()).with_faults(wrong);
        let resp = model.chat(&rtl_request(2)).expect("content faults are Ok");
        assert!(
            resp.content.contains("```vhdl"),
            "verilog request answered in vhdl"
        );
        assert!(extract_code(&resp.content).contains("entity"));

        let trunc = FaultConfig {
            truncate: 1.0,
            ..FaultConfig::off()
        };
        let mut model = SimLlm::new(profiles::claude35_sonnet(), library()).with_faults(trunc);
        let resp = model.chat(&rtl_request(2)).expect("content faults are Ok");
        let code = extract_code(&resp.content);
        assert!(
            !resp.content.trim_end().ends_with("```"),
            "fence unterminated"
        );
        assert!(code.len() < GOLDEN_V.len(), "code cut short: {code:?}");
    }

    #[test]
    fn fault_free_config_is_byte_identical_to_plain_model() {
        use crate::faults::FaultConfig;
        let mut plain = SimLlm::new(profiles::claude35_sonnet(), library());
        let mut off =
            SimLlm::new(profiles::claude35_sonnet(), library()).with_faults(FaultConfig::off());
        for seed in 0..40 {
            let a = plain.chat(&rtl_request(seed)).expect("no faults");
            let b = off.chat(&rtl_request(seed)).expect("no faults");
            assert_eq!(a.content, b.content);
            assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
        }
    }

    #[test]
    fn retries_can_outlive_transport_faults() {
        use crate::faults::FaultConfig;
        // At a 30% timeout rate, some attempt within a small retry
        // budget must succeed for every seed (deterministically so).
        let cfg = FaultConfig {
            timeout: 0.3,
            ..FaultConfig::off()
        };
        let mut model = SimLlm::new(profiles::claude35_sonnet(), library()).with_faults(cfg);
        for seed in 0..30 {
            let mut ok = false;
            for attempt in 0..8 {
                let mut req = rtl_request(seed);
                req.params.attempt = attempt;
                if model.chat(&req).is_ok() {
                    ok = true;
                    break;
                }
            }
            assert!(ok, "seed {seed} failed all 8 attempts");
        }
    }
}
