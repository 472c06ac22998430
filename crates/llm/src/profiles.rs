//! Calibrated per-model × per-language behaviour profiles.
//!
//! Each profile encodes, per target language, the error process of one
//! of the paper's three models. The headline rates come from Table 1's
//! *baseline* rows (`aivril_metrics::paper`): `syntax_ok` is pass@1_S
//! in every row, and `syntax_ok × func_ok_given_syntax_ok` rounds to
//! pass@1_F in every row but Claude 3.5 Sonnet's Verilog one, where
//! 0.9103 × 0.65 gives 59.17 against the paper's 60.23
//! (`tests/paper_shape.rs` checks both). The repair rates and the
//! functional quality of initially-syntax-broken samples are set by
//! hand so that the closed loops land near the paper's AIVRIL2 rows and
//! the reported convergence cycle counts.

use crate::latency::LlmLatencyModel;

/// Error process for one model on one language.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LangProfile {
    /// Probability a zero-shot generation is syntactically clean
    /// (baseline pass@1_S).
    pub syntax_ok: f64,
    /// Number of syntax faults injected when the sample is broken
    /// (inclusive range).
    pub syntax_faults: (u32, u32),
    /// Per-fault probability that one corrective iteration of the
    /// Syntax Optimization loop fixes a pointed-at syntax fault.
    pub syntax_repair: f64,
    /// Probability the logic is correct when the syntax was clean.
    pub func_ok_given_syntax_ok: f64,
    /// Probability the logic is correct when the syntax was broken
    /// (syntax-challenged samples tend to be logically weaker too).
    pub func_ok_given_syntax_bad: f64,
    /// Number of functional faults injected when the logic is wrong.
    pub func_faults: (u32, u32),
    /// Per-fault probability that one corrective iteration of the
    /// Functional Optimization loop fixes a pointed-at functional fault.
    pub func_repair: f64,
    /// Probability a generated testbench is syntactically clean.
    pub tb_syntax_ok: f64,
    /// Probability that a repair iteration also introduces a fresh
    /// syntax fault (models sometimes break code while "fixing" it).
    pub reintroduce: f64,
}

/// A complete model profile: both languages plus serving speed.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Display name used in tables (e.g. `Llama3-70B`).
    pub name: String,
    /// Verilog behaviour.
    pub verilog: LangProfile,
    /// VHDL behaviour.
    pub vhdl: LangProfile,
    /// Serving latency.
    pub latency: LlmLatencyModel,
}

impl ModelProfile {
    /// The language profile for `verilog`-or-VHDL.
    #[must_use]
    pub fn lang(&self, verilog: bool) -> &LangProfile {
        if verilog {
            &self.verilog
        } else {
            &self.vhdl
        }
    }
}

/// Llama3-70B: strong open-weights coder with thin VHDL training data,
/// near-zero zero-shot VHDL syntax in the paper.
#[must_use]
pub fn llama3_70b() -> ModelProfile {
    ModelProfile {
        name: "Llama3-70B".into(),
        verilog: LangProfile {
            syntax_ok: 0.7115,
            syntax_faults: (1, 2),
            syntax_repair: 0.82,
            func_ok_given_syntax_ok: 0.5316,
            func_ok_given_syntax_bad: 0.62,
            func_faults: (1, 2),
            func_repair: 0.020,
            tb_syntax_ok: 0.80,
            reintroduce: 0.06,
        },
        vhdl: LangProfile {
            syntax_ok: 0.0128,
            syntax_faults: (1, 2),
            syntax_repair: 0.23,
            func_ok_given_syntax_ok: 0.0,
            func_ok_given_syntax_bad: 0.50,
            func_faults: (1, 2),
            func_repair: 0.075,
            tb_syntax_ok: 0.55,
            reintroduce: 0.10,
        },
        latency: LlmLatencyModel {
            base_s: 2.6,
            tokens_per_s: 65.0,
            jitter: 0.12,
            billed_token_cap: 150,
        },
    }
}

/// GPT-4o: balanced frontier model, close to Llama3-70B on Verilog
/// syntax and far ahead on VHDL.
#[must_use]
pub fn gpt4o() -> ModelProfile {
    ModelProfile {
        name: "GPT-4o".into(),
        verilog: LangProfile {
            syntax_ok: 0.7179,
            syntax_faults: (1, 2),
            syntax_repair: 0.88,
            func_ok_given_syntax_ok: 0.7144,
            func_ok_given_syntax_bad: 0.58,
            func_faults: (1, 2),
            func_repair: 0.022,
            tb_syntax_ok: 0.88,
            reintroduce: 0.04,
        },
        vhdl: LangProfile {
            syntax_ok: 0.391,
            syntax_faults: (1, 2),
            syntax_repair: 0.82,
            func_ok_given_syntax_ok: 0.7049,
            func_ok_given_syntax_bad: 0.42,
            func_faults: (1, 2),
            func_repair: 0.045,
            tb_syntax_ok: 0.80,
            reintroduce: 0.05,
        },
        latency: LlmLatencyModel {
            base_s: 1.5,
            tokens_per_s: 90.0,
            jitter: 0.10,
            billed_token_cap: 300,
        },
    }
}

/// Claude 3.5 Sonnet: the strongest RTL generator in the study, with
/// the best baselines in both languages and the best functional-repair
/// behaviour.
#[must_use]
pub fn claude35_sonnet() -> ModelProfile {
    ModelProfile {
        name: "Claude 3.5 Sonnet".into(),
        verilog: LangProfile {
            syntax_ok: 0.9103,
            syntax_faults: (1, 1),
            syntax_repair: 0.95,
            func_ok_given_syntax_ok: 0.65,
            func_ok_given_syntax_bad: 0.55,
            func_faults: (1, 2),
            func_repair: 0.165,
            tb_syntax_ok: 0.95,
            reintroduce: 0.02,
        },
        vhdl: LangProfile {
            syntax_ok: 0.8846,
            syntax_faults: (1, 1),
            syntax_repair: 0.93,
            func_ok_given_syntax_ok: 0.6087,
            func_ok_given_syntax_bad: 0.44,
            func_faults: (1, 2),
            func_repair: 0.08,
            tb_syntax_ok: 0.93,
            reintroduce: 0.02,
        },
        latency: LlmLatencyModel {
            base_s: 2.4,
            tokens_per_s: 60.0,
            jitter: 0.10,
            billed_token_cap: 250,
        },
    }
}

/// All three paper models, in Table 1 order.
#[must_use]
pub fn all() -> Vec<ModelProfile> {
    vec![llama3_70b(), gpt4o(), claude35_sonnet()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_are_valid() {
        for m in all() {
            for lang in [&m.verilog, &m.vhdl] {
                for p in [
                    lang.syntax_ok,
                    lang.syntax_repair,
                    lang.func_ok_given_syntax_ok,
                    lang.func_ok_given_syntax_bad,
                    lang.func_repair,
                    lang.tb_syntax_ok,
                    lang.reintroduce,
                ] {
                    assert!((0.0..=1.0).contains(&p), "{}: {p}", m.name);
                }
                assert!(lang.syntax_faults.0 >= 1);
                assert!(lang.syntax_faults.1 >= lang.syntax_faults.0);
            }
        }
    }

    #[test]
    fn baselines_match_table1() {
        let l = llama3_70b();
        assert!((l.verilog.syntax_ok - 0.7115).abs() < 1e-6);
        assert!((l.verilog.syntax_ok * l.verilog.func_ok_given_syntax_ok - 0.3782).abs() < 2e-3);
        assert!((l.vhdl.syntax_ok - 0.0128).abs() < 1e-6);
        let c = claude35_sonnet();
        // Claude's functional rate is fitted to *measured* behaviour
        // (which includes a ~1% equivalent-mutant pass-through), so the
        // analytic product sits slightly under the paper value.
        assert!((c.verilog.syntax_ok * c.verilog.func_ok_given_syntax_ok - 0.6023).abs() < 2e-2);
        let g = gpt4o();
        assert!((g.vhdl.syntax_ok * g.vhdl.func_ok_given_syntax_ok - 0.2756).abs() < 2e-3);
    }

    #[test]
    fn model_ordering_of_quality() {
        // Claude must be the strongest Verilog model, Llama the weakest
        // on VHDL — the qualitative shape Table 1 reports.
        let (l, g, c) = (llama3_70b(), gpt4o(), claude35_sonnet());
        assert!(c.verilog.syntax_ok > g.verilog.syntax_ok);
        assert!(g.vhdl.syntax_ok > l.vhdl.syntax_ok);
        assert!(c.vhdl.syntax_ok > g.vhdl.syntax_ok);
    }

    #[test]
    fn lang_selector() {
        let c = claude35_sonnet();
        assert_eq!(c.lang(true).syntax_ok, c.verilog.syntax_ok);
        assert_eq!(c.lang(false).syntax_ok, c.vhdl.syntax_ok);
    }
}
