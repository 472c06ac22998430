//! Deterministic backend-fault injection for the simulated models.
//!
//! Real LLM backends fail in two distinct ways: the *transport* fails
//! (timeouts, rate limits — the request never yields a message) or the
//! *content* degrades (truncated completions, empty code blocks, code in
//! the wrong language). [`FaultConfig`] models both classes with
//! per-class rates, and every decision is a pure function of the request
//! — model name, seed, attempt counter and message history — so a fault
//! schedule replays bit-identically for any worker-thread count, exactly
//! like the code-fault plans in [`SimLlm`](crate::SimLlm).

use crate::chat::ChatRequest;
use aivril_obs::faultplan;
use aivril_obs::siphash::SipHasher13;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::hash::Hasher;

/// A transport-level backend failure: the request consumed modeled time
/// but produced no assistant message. Content-level degradations
/// (truncation, empty blocks, wrong language) are *not* errors — they
/// arrive as ordinary [`ChatResponse`](crate::ChatResponse)s and are the
/// corrective loop's problem, matching how real APIs behave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LlmError {
    /// The backend did not answer within the modeled deadline.
    Timeout {
        /// Modeled seconds the caller waited before giving up.
        elapsed_s: f64,
    },
    /// The backend rejected the request for quota reasons.
    RateLimited {
        /// Modeled seconds the backend asks the caller to wait
        /// (`Retry-After`).
        retry_after_s: f64,
    },
}

impl LlmError {
    /// Modeled wall-clock seconds the failed attempt consumed.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        match self {
            LlmError::Timeout { elapsed_s } => *elapsed_s,
            // A rate-limit rejection is immediate; the *wait* is advisory
            // and belongs to the caller's backoff policy.
            LlmError::RateLimited { .. } => 0.0,
        }
    }

    /// Stable class label for metrics and logs.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            LlmError::Timeout { .. } => "timeout",
            LlmError::RateLimited { .. } => "rate_limited",
        }
    }
}

impl fmt::Display for LlmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlmError::Timeout { elapsed_s } => {
                write!(f, "model backend timed out after {elapsed_s:.1}s")
            }
            LlmError::RateLimited { retry_after_s } => {
                write!(
                    f,
                    "model backend rate-limited (retry after {retry_after_s:.1}s)"
                )
            }
        }
    }
}

impl std::error::Error for LlmError {}

/// One injectable fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendFault {
    /// Transport: modeled deadline exceeded ([`LlmError::Timeout`]).
    Timeout,
    /// Transport: quota rejection ([`LlmError::RateLimited`]).
    RateLimited,
    /// Content: the completion stops mid-module (unterminated fence).
    Truncate,
    /// Content: an empty code block.
    Empty,
    /// Content: code in the other HDL than the one requested.
    WrongLanguage,
}

/// The `AIVRIL_FAULTS` class names, in [`FaultConfig`] field order.
const CLASSES: [&str; 5] = [
    "timeout",
    "rate_limit",
    "truncate",
    "empty",
    "wrong_language",
];

/// Per-class fault rates, parsed from `AIVRIL_FAULTS`.
///
/// All-zero (the default) means injection is off and [`FaultConfig::roll`]
/// never fires, so a faults-off run is *exactly* the pre-fault code path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Probability of a modeled timeout per attempt.
    pub timeout: f64,
    /// Probability of a rate-limit rejection per attempt.
    pub rate_limit: f64,
    /// Probability of a truncated completion per attempt.
    pub truncate: f64,
    /// Probability of an empty code block per attempt.
    pub empty: f64,
    /// Probability of a wrong-language completion per attempt.
    pub wrong_language: f64,
}

impl FaultConfig {
    /// No injection (the default).
    #[must_use]
    pub fn off() -> FaultConfig {
        FaultConfig::default()
    }

    /// The same rate for every class.
    #[must_use]
    pub fn uniform(rate: f64) -> FaultConfig {
        let r = rate.clamp(0.0, 1.0);
        FaultConfig {
            timeout: r,
            rate_limit: r,
            truncate: r,
            empty: r,
            wrong_language: r,
        }
    }

    /// `true` when every class rate is zero.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.timeout == 0.0
            && self.rate_limit == 0.0
            && self.truncate == 0.0
            && self.empty == 0.0
            && self.wrong_language == 0.0
    }

    /// Parses the `AIVRIL_FAULTS` syntax, the grammar of
    /// [`aivril_obs::faultplan`]: `off`, `0` or the empty string, one
    /// rate for every class, or `class=rate` pairs over `timeout`,
    /// `rate_limit`, `truncate`, `empty` and `wrong_language`.
    ///
    /// # Errors
    ///
    /// A description of the malformation: unknown or repeated class, or
    /// a rate outside `[0, 1]`.
    pub fn parse(s: &str) -> Result<FaultConfig, String> {
        let ([timeout, rate_limit, truncate, empty, wrong_language], _) =
            faultplan::parse(s, &CLASSES, &[])?;
        Ok(FaultConfig {
            timeout,
            rate_limit,
            truncate,
            empty,
            wrong_language,
        })
    }

    /// Decides whether this attempt faults, and how. Pure function of
    /// `(model, seed, attempt, message history)` — two workers issuing
    /// the same request always roll the same fault, and a *retry* (same
    /// messages, `attempt + 1`) rolls afresh, which is what makes
    /// retries worth anything.
    #[must_use]
    pub fn roll(&self, model: &str, request: &ChatRequest) -> Option<BackendFault> {
        if self.is_off() {
            return None;
        }
        let r: f64 = self.rng(model, request).gen_range(0.0..1.0);
        faultplan::pick(
            r,
            &[
                (self.timeout, BackendFault::Timeout),
                (self.rate_limit, BackendFault::RateLimited),
                (self.truncate, BackendFault::Truncate),
                (self.empty, BackendFault::Empty),
                (self.wrong_language, BackendFault::WrongLanguage),
            ],
        )
    }

    /// The RNG backing [`FaultConfig::roll`] and the fault parameters
    /// (timeout duration, `retry_after`, truncation point). Exposed
    /// crate-internally so [`SimLlm`](crate::SimLlm) derives those
    /// parameters from the same stream that chose the class.
    pub(crate) fn rng(&self, model: &str, request: &ChatRequest) -> StdRng {
        let mut h = SipHasher13::new();
        h.write_str_pinned(model);
        h.write_u64(request.params.seed);
        h.write_u32(request.params.attempt);
        for m in &request.messages {
            h.write_str_pinned(&m.content);
        }
        StdRng::seed_from_u64(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::{GenParams, Message};

    fn request(seed: u64, attempt: u32) -> ChatRequest {
        ChatRequest {
            messages: vec![Message::user("Design task: t.\nWrite the RTL module")],
            params: GenParams {
                seed,
                attempt,
                ..GenParams::default()
            },
        }
    }

    /// Pinned seeds of the fault rolls (they hash the model, seed,
    /// attempt and every message).
    #[test]
    fn golden_rng_values() {
        use rand::RngCore;
        let cfg = FaultConfig::uniform(0.1);
        let mut req = request(3, 1);
        req.messages
            .push(Message::assistant("```verilog\nmodule m;\nendmodule\n```"));
        let got = [
            cfg.rng("m", &request(0, 0)).next_u64(),
            cfg.rng("GPT-4o", &req).next_u64(),
        ];
        assert_eq!(got, [17703263249224158367, 15918550169479255649]);
    }

    #[test]
    fn parse_accepts_all_forms() {
        assert!(FaultConfig::parse("off").unwrap().is_off());
        assert!(FaultConfig::parse("0").unwrap().is_off());
        assert!(FaultConfig::parse("").unwrap().is_off());
        let u = FaultConfig::parse("0.25").unwrap();
        assert_eq!(u, FaultConfig::uniform(0.25));
        let c = FaultConfig::parse("timeout=0.1, rate_limit=0.05").unwrap();
        assert_eq!(c.timeout, 0.1);
        assert_eq!(c.rate_limit, 0.05);
        assert_eq!(c.truncate, 0.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultConfig::parse("1.5").is_err());
        assert!(FaultConfig::parse("timeout=nope").is_err());
        assert!(FaultConfig::parse("warp_core_breach=0.1").is_err());
        assert!(FaultConfig::parse("just_a_name").is_err());
    }

    #[test]
    fn parse_rejects_duplicate_classes() {
        // Last-wins used to hide the typo entirely.
        let err = FaultConfig::parse("timeout=0.1,timeout=0.9").unwrap_err();
        assert!(err.contains("duplicate fault class"), "{err}");
        assert!(err.contains("timeout"), "{err}");
        // Even an identical repeat is refused: the plan is malformed.
        assert!(FaultConfig::parse("empty=0.2, empty=0.2").is_err());
        // Distinct classes still compose.
        let ok = FaultConfig::parse("timeout=0.1,rate_limit=0.2,empty=0.3").unwrap();
        assert_eq!(ok.timeout, 0.1);
        assert_eq!(ok.rate_limit, 0.2);
        assert_eq!(ok.empty, 0.3);
    }

    #[test]
    fn off_never_faults() {
        let cfg = FaultConfig::off();
        for seed in 0..100 {
            assert_eq!(cfg.roll("m", &request(seed, 0)), None);
        }
    }

    #[test]
    fn rolls_are_deterministic_and_attempt_sensitive() {
        let cfg = FaultConfig::uniform(0.2);
        for seed in 0..50 {
            let a = cfg.roll("m", &request(seed, 0));
            let b = cfg.roll("m", &request(seed, 0));
            assert_eq!(a, b, "same request, same verdict");
        }
        // A retry (attempt + 1) must re-roll: over many seeds the two
        // attempt streams cannot be identical.
        let differs = (0..200)
            .any(|seed| cfg.roll("m", &request(seed, 0)) != cfg.roll("m", &request(seed, 1)));
        assert!(differs, "attempt counter must decorrelate retries");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let cfg = FaultConfig {
            timeout: 0.5,
            ..FaultConfig::off()
        };
        let hits = (0..400)
            .filter(|&seed| cfg.roll("m", &request(seed, 0)) == Some(BackendFault::Timeout))
            .count();
        assert!((120..=280).contains(&hits), "hits={hits}");
    }

    #[test]
    fn error_accessors() {
        let t = LlmError::Timeout { elapsed_s: 30.0 };
        assert_eq!(t.class(), "timeout");
        assert_eq!(t.elapsed_s(), 30.0);
        assert!(t.to_string().contains("timed out"));
        let r = LlmError::RateLimited { retry_after_s: 4.0 };
        assert_eq!(r.class(), "rate_limited");
        assert_eq!(r.elapsed_s(), 0.0);
        assert!(r.to_string().contains("retry after"));
    }
}
