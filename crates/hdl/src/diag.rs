//! Structured diagnostics with Vivado-style log rendering.
//!
//! The AIVRIL2 loop is driven by EDA *logs*: the Review Agent reads the
//! compiler's output, extracts error locations and snippets, and converts
//! them into corrective prompts. This module produces exactly that raw
//! material — structured [`Diagnostic`]s that render into the
//! `ERROR: [VRFC 10-91] message [file.v:12]` format familiar from
//! Vivado's `xvlog`/`xvhdl` front ends.

use crate::source::{SourceMap, Span};
use std::fmt;

/// Severity of a diagnostic, ordered from least to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Informational message.
    Note,
    /// Suspicious but legal construct.
    Warning,
    /// The input is invalid; compilation cannot produce a design unit.
    Error,
    /// Unrecoverable condition; processing stopped immediately.
    Fatal,
}

impl Severity {
    /// Vivado log prefix (`INFO`, `WARNING`, `ERROR`, `FATAL`).
    #[must_use]
    pub fn log_prefix(self) -> &'static str {
        match self {
            Severity::Note => "INFO",
            Severity::Warning => "WARNING",
            Severity::Error => "ERROR",
            Severity::Fatal => "FATAL",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.log_prefix())
    }
}

/// A single tool message with location and message-id metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How severe the message is.
    pub severity: Severity,
    /// Vivado-style message id, e.g. `VRFC 10-91`.
    pub code: String,
    /// Human-readable message text.
    pub message: String,
    /// Location in the source, when known.
    pub span: Option<Span>,
}

impl Diagnostic {
    /// Creates an [`Severity::Error`] diagnostic.
    #[must_use]
    pub fn error(code: impl Into<String>, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code: code.into(),
            message: message.into(),
            span: Some(span),
        }
    }

    /// Creates a [`Severity::Warning`] diagnostic.
    #[must_use]
    pub fn warning(code: impl Into<String>, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            code: code.into(),
            message: message.into(),
            span: Some(span),
        }
    }

    /// Creates an error diagnostic with no source location (e.g. a missing
    /// top module reported at elaboration).
    #[must_use]
    pub fn global_error(code: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code: code.into(),
            message: message.into(),
            span: None,
        }
    }

    /// Renders one Vivado-style log line, e.g.
    /// `ERROR: [VRFC 10-91] syntax error near ';' [adder.v:12]`.
    #[must_use]
    pub fn render(&self, sources: &SourceMap) -> String {
        match self.span {
            Some(span) => format!(
                "{}: [{}] {} [{}]",
                self.severity.log_prefix(),
                self.code,
                self.message,
                sources.describe(span)
            ),
            None => format!(
                "{}: [{}] {}",
                self.severity.log_prefix(),
                self.code,
                self.message
            ),
        }
    }
}

/// Accumulates diagnostics during a compilation phase.
///
/// # Example
///
/// ```
/// use aivril_hdl::diag::{Diagnostics, Diagnostic};
/// use aivril_hdl::source::{SourceMap, Span};
///
/// let mut sources = SourceMap::new();
/// let file = sources.add_file("top.v", "module top\nendmodule\n");
/// let mut diags = Diagnostics::new();
/// diags.push(Diagnostic::error("VRFC 10-91", "expected ';'", Span::new(file, 10, 11)));
/// assert!(diags.has_errors());
/// let log = diags.render(&sources);
/// assert!(log.contains("[top.v:1]"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    diags: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diags.push(diag);
    }

    /// `true` if any [`Severity::Error`] or [`Severity::Fatal`] message was
    /// recorded.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity >= Severity::Error)
    }

    /// Number of error-or-worse messages.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity >= Severity::Error)
            .count()
    }

    /// Drops every diagnostic after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.diags.truncate(len);
    }

    /// All recorded diagnostics in order.
    #[must_use]
    pub fn all(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Merges another sink's contents into this one.
    pub fn extend(&mut self, other: Diagnostics) {
        self.diags.extend(other.diags);
    }

    /// Renders the whole log, one Vivado-style line per diagnostic.
    #[must_use]
    pub fn render(&self, sources: &SourceMap) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.render(sources));
            out.push('\n');
        }
        out
    }
}

impl FromIterator<Diagnostic> for Diagnostics {
    fn from_iter<I: IntoIterator<Item = Diagnostic>>(iter: I) -> Diagnostics {
        Diagnostics {
            diags: iter.into_iter().collect(),
        }
    }
}

impl Extend<Diagnostic> for Diagnostics {
    fn extend<I: IntoIterator<Item = Diagnostic>>(&mut self, iter: I) {
        self.diags.extend(iter);
    }
}

/// Message-id constants used across the toolchain, loosely modeled on
/// Vivado's `VRFC` (HDL frontend) and `XSIM` (simulation) id spaces.
pub mod codes {
    /// Syntax error from the Verilog parser.
    pub const VLOG_SYNTAX: &str = "VRFC 10-91";
    /// Reference to an undeclared identifier (Verilog).
    pub const VLOG_UNDECLARED: &str = "VRFC 10-2865";
    /// Redeclaration of an existing identifier (Verilog).
    pub const VLOG_REDECLARED: &str = "VRFC 10-1108";
    /// Unknown module in an instantiation.
    pub const ELAB_UNKNOWN_MODULE: &str = "VRFC 10-2063";
    /// Port connection mismatch at instantiation.
    pub const ELAB_PORT_MISMATCH: &str = "VRFC 10-719";
    /// Illegal assignment target (e.g. procedural assign to a wire).
    pub const VLOG_BAD_ASSIGN: &str = "VRFC 10-3053";
    /// Syntax error from the VHDL parser.
    pub const VHDL_SYNTAX: &str = "VRFC 10-1412";
    /// Reference to an undeclared identifier (VHDL).
    pub const VHDL_UNDECLARED: &str = "VRFC 10-724";
    /// VHDL type mismatch.
    pub const VHDL_TYPE: &str = "VRFC 10-1504";
    /// Simulation runtime issue (e.g. iteration limit).
    pub const SIM_RUNTIME: &str = "XSIM 43-3225";
    /// Width mismatch warning.
    pub const WIDTH_MISMATCH: &str = "VRFC 10-3091";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceMap;

    fn setup() -> (SourceMap, Span) {
        let mut sources = SourceMap::new();
        let file = sources.add_file("counter.v", "module counter;\nreg q\nendmodule\n");
        (sources, Span::new(file, 16, 21))
    }

    #[test]
    fn renders_vivado_style_error() {
        let (sources, span) = setup();
        let d = Diagnostic::error(codes::VLOG_SYNTAX, "expected ';' near 'endmodule'", span);
        assert_eq!(
            d.render(&sources),
            "ERROR: [VRFC 10-91] expected ';' near 'endmodule' [counter.v:2]"
        );
    }

    #[test]
    fn renders_global_error_without_location() {
        let (sources, _) = setup();
        let d = Diagnostic::global_error(codes::ELAB_UNKNOWN_MODULE, "module 'foo' not found");
        assert_eq!(
            d.render(&sources),
            "ERROR: [VRFC 10-2063] module 'foo' not found"
        );
    }

    #[test]
    fn error_counting_ignores_warnings() {
        let (_, span) = setup();
        let mut diags = Diagnostics::new();
        diags.push(Diagnostic::warning(
            codes::WIDTH_MISMATCH,
            "width mismatch",
            span,
        ));
        assert!(!diags.has_errors());
        diags.push(Diagnostic::error(codes::VLOG_SYNTAX, "syntax error", span));
        assert!(diags.has_errors());
        assert_eq!(diags.error_count(), 1);
        assert_eq!(diags.all().len(), 2);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Fatal > Severity::Error);
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }

    #[test]
    fn collect_and_render_multi_line_log() {
        let (sources, span) = setup();
        let diags: Diagnostics = vec![
            Diagnostic::error(codes::VLOG_SYNTAX, "first", span),
            Diagnostic::error(codes::VLOG_UNDECLARED, "second", span),
        ]
        .into_iter()
        .collect();
        let log = diags.render(&sources);
        assert_eq!(log.lines().count(), 2);
        assert!(log.contains("VRFC 10-2865"));
    }
}
