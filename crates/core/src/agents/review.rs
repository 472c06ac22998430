//! The Review Agent: turns compiler logs into corrective prompts.
//!
//! Per Sec. 3.2, the agent parses the EDA log, extracts each error's
//! line number, pulls the offending code snippet out of the source, and
//! distils everything into a highly detailed, actionable prompt — the
//! level of detail is what lets the Code Agent converge in few
//! iterations.

use aivril_eda::ToolMessage;

/// One distilled syntax finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxFinding {
    /// Message id from the log (e.g. `VRFC 10-91`).
    pub code: String,
    /// Error text.
    pub message: String,
    /// File name, when located.
    pub file: Option<String>,
    /// 1-based line, when located.
    pub line: Option<u32>,
    /// The offending source line.
    pub snippet: Option<String>,
}

/// The Review Agent. Stateless: each report is analysed on its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReviewAgent;

impl ReviewAgent {
    /// Creates the agent.
    #[must_use]
    pub fn new() -> ReviewAgent {
        ReviewAgent
    }

    /// Extracts structured findings from a failed check's tool
    /// messages, resolving line numbers against `source` (the artefact
    /// under review).
    #[must_use]
    pub fn findings(&self, messages: &[ToolMessage], source: &str) -> Vec<SyntaxFinding> {
        let lines: Vec<&str> = source.lines().collect();
        messages
            .iter()
            .filter(|m| m.is_error())
            .map(|m| {
                let snippet = m
                    .line
                    .and_then(|l| lines.get(l as usize - 1))
                    .map(|s| s.trim_end().to_string());
                SyntaxFinding {
                    code: m.code.clone(),
                    message: m.message.clone(),
                    file: m.file.clone(),
                    line: m.line,
                    snippet,
                }
            })
            .collect()
    }

    /// Builds the corrective prompt for the Code Agent. The prompt
    /// always contains the phrase `syntax error` (the protocol marker)
    /// plus per-error locations, snippets and fixing hints.
    #[must_use]
    pub fn corrective_prompt(
        &self,
        messages: &[ToolMessage],
        source: &str,
        artifact: &str,
    ) -> String {
        let findings = self.findings(messages, source);
        let mut p = format!(
            "The compiler reported {} syntax error(s) in your {artifact}. \
             Fix every issue and return the complete corrected file.\n\n",
            findings.len().max(1)
        );
        for (i, f) in findings.iter().take(8).enumerate() {
            p.push_str(&format!("{}. [{}] {}", i + 1, f.code, f.message));
            if let (Some(file), Some(line)) = (&f.file, f.line) {
                p.push_str(&format!(" at {file}:{line}"));
            }
            p.push('\n');
            if let Some(snippet) = &f.snippet {
                p.push_str(&format!("   offending line: `{snippet}`\n"));
            }
            if let Some(hint) = hint_for(&f.message) {
                p.push_str(&format!("   hint: {hint}\n"));
            }
        }
        if findings.len() > 8 {
            p.push_str(&format!("(and {} more)\n", findings.len() - 8));
        }
        p
    }

    /// Low-detail variant (error identifiers only) used by the
    /// prompt-detail ablation: no locations, snippets or hints, so the
    /// Code Agent has far less to work with.
    #[must_use]
    pub fn corrective_prompt_brief(&self, messages: &[ToolMessage], artifact: &str) -> String {
        let errors: Vec<&ToolMessage> = messages.iter().filter(|m| m.is_error()).collect();
        let mut p = format!(
            "The compiler reported {} syntax error(s) in your {artifact}. Fix them.\n",
            errors.len().max(1)
        );
        for m in errors.iter().take(8) {
            p.push_str(&format!("- [{}]\n", m.code));
        }
        p
    }
}

/// Heuristic fixing hints keyed on common message shapes.
fn hint_for(message: &str) -> Option<&'static str> {
    if message.contains("expected ';'") {
        Some("a statement is probably missing its terminating semicolon")
    } else if message.contains("is not declared") {
        Some("check the identifier's spelling against the declarations")
    } else if message.contains("expected 'endmodule'") || message.contains("found end of file") {
        Some("a block or module is not closed properly")
    } else if message.contains("expected") {
        Some("check the syntax immediately before the reported location")
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivril_eda::{HdlFile, ToolSuite, XsimToolSuite};

    const BROKEN: &str = "module m(input a, output y)\n  assign y = ~a;\nendmodule\n";

    #[test]
    fn findings_carry_line_and_snippet() {
        let tools = XsimToolSuite::new();
        let report = tools.compile(&[HdlFile::new("m.v", BROKEN)]);
        assert!(!report.success);
        let agent = ReviewAgent::new();
        let findings = agent.findings(&report.messages, BROKEN);
        assert!(!findings.is_empty());
        let f = &findings[0];
        assert!(f.line.is_some());
        assert!(f.snippet.is_some());
        assert_eq!(f.file.as_deref(), Some("m.v"));
    }

    #[test]
    fn corrective_prompt_contains_marker_and_details() {
        let tools = XsimToolSuite::new();
        let report = tools.compile(&[HdlFile::new("m.v", BROKEN)]);
        let agent = ReviewAgent::new();
        let prompt = agent.corrective_prompt(&report.messages, BROKEN, "RTL module");
        assert!(prompt.contains("syntax error"), "{prompt}");
        assert!(prompt.contains("m.v:"), "{prompt}");
        assert!(prompt.contains("offending line"), "{prompt}");
        assert!(prompt.contains("hint:"), "{prompt}");
    }

    #[test]
    fn clean_report_produces_minimal_prompt() {
        let tools = XsimToolSuite::new();
        let good = "module m(input a, output y);\n  assign y = ~a;\nendmodule\n";
        let report = tools.compile(&[HdlFile::new("m.v", good)]);
        assert!(report.success);
        let agent = ReviewAgent::new();
        assert!(agent.findings(&report.messages, good).is_empty());
    }

    #[test]
    fn brief_prompt_omits_locations() {
        let tools = XsimToolSuite::new();
        let report = tools.compile(&[HdlFile::new("m.v", BROKEN)]);
        let agent = ReviewAgent::new();
        let prompt = agent.corrective_prompt_brief(&report.messages, "RTL module");
        assert!(prompt.contains("syntax error"));
        assert!(!prompt.contains("offending line"));
        assert!(!prompt.contains("m.v:"));
    }

    #[test]
    fn hints_cover_common_messages() {
        assert!(hint_for("expected ';', found 'wire'").is_some());
        assert!(hint_for("'foo' is not declared").is_some());
        assert!(hint_for("totally novel message").is_none());
    }
}
