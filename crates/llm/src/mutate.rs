//! Fault catalogue: the concrete syntax and functional mistakes the
//! simulated models make.
//!
//! Faults are *textual but real*: a syntax fault produces source the
//! compiler rejects with a located error, and a functional fault
//! produces source that compiles but fails the reference testbench —
//! which is what makes the closed agent loop in this reproduction
//! genuine rather than mocked.

/// Whether a fault breaks compilation or behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Compiler-visible mistake (missing `;`, misspelled keyword, ...).
    Syntax,
    /// Compiles, but the logic is wrong (swapped operator, wrong edge...).
    Functional,
}

/// HDL dialect a fault catalogue applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dialect {
    /// Verilog-2001.
    Verilog,
    /// VHDL-93.
    Vhdl,
}

/// One way of corrupting a source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultTemplate {
    /// Search pattern (must occur in the source to be applicable).
    pub pattern: &'static str,
    /// Replacement text.
    pub replacement: &'static str,
    /// Human-readable description (useful in traces).
    pub description: &'static str,
}

/// A fault chosen for a concrete source: template plus which occurrence
/// of the pattern it corrupts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedFault {
    /// Corruption recipe.
    pub template: FaultTemplate,
    /// 0-based occurrence index of the pattern.
    pub occurrence: usize,
    /// Breaks compilation or behaviour.
    pub kind: FaultKind,
}

/// Syntax fault catalogue for `dialect`.
#[must_use]
pub fn syntax_templates(dialect: Dialect) -> &'static [FaultTemplate] {
    match dialect {
        Dialect::Verilog => &[
            FaultTemplate {
                pattern: ";\n",
                replacement: "\n",
                description: "missing semicolon",
            },
            FaultTemplate {
                pattern: "endmodule",
                replacement: "endmodul",
                description: "misspelled 'endmodule'",
            },
            FaultTemplate {
                pattern: "assign ",
                replacement: "asign ",
                description: "misspelled 'assign'",
            },
            FaultTemplate {
                pattern: "always",
                replacement: "alway",
                description: "misspelled 'always'",
            },
            FaultTemplate {
                pattern: "output ",
                replacement: "ouput ",
                description: "misspelled 'output'",
            },
            FaultTemplate {
                pattern: "begin",
                replacement: "begn",
                description: "misspelled 'begin'",
            },
            FaultTemplate {
                pattern: ");",
                replacement: ";",
                description: "missing closing parenthesis",
            },
        ],
        Dialect::Vhdl => &[
            FaultTemplate {
                pattern: ";\n",
                replacement: "\n",
                description: "missing semicolon",
            },
            FaultTemplate {
                pattern: "end process",
                replacement: "end proces",
                description: "misspelled 'end process'",
            },
            FaultTemplate {
                pattern: "entity ",
                replacement: "entiy ",
                description: "misspelled 'entity'",
            },
            FaultTemplate {
                pattern: "signal ",
                replacement: "signl ",
                description: "misspelled 'signal'",
            },
            FaultTemplate {
                pattern: "begin",
                replacement: "begn",
                description: "misspelled 'begin'",
            },
            FaultTemplate {
                pattern: "elsif",
                replacement: "elseif",
                description: "misspelled 'elsif'",
            },
            FaultTemplate {
                pattern: "downto",
                replacement: "dwnto",
                description: "misspelled 'downto'",
            },
        ],
    }
}

/// Functional fault catalogue for `dialect`. Every template preserves
/// syntactic validity on the golden sources (the generators emit spaced
/// operators so the patterns bind to real operator sites).
#[must_use]
pub fn functional_templates(dialect: Dialect) -> &'static [FaultTemplate] {
    match dialect {
        Dialect::Verilog => &[
            FaultTemplate {
                pattern: " & ",
                replacement: " | ",
                description: "AND became OR",
            },
            FaultTemplate {
                pattern: " | ",
                replacement: " & ",
                description: "OR became AND",
            },
            FaultTemplate {
                pattern: " ^ ",
                replacement: " & ",
                description: "XOR became AND",
            },
            FaultTemplate {
                pattern: "posedge",
                replacement: "negedge",
                description: "wrong clock edge",
            },
            FaultTemplate {
                pattern: " + 1",
                replacement: " + 2",
                description: "wrong increment",
            },
            FaultTemplate {
                pattern: " + ",
                replacement: " - ",
                description: "ADD became SUB",
            },
            FaultTemplate {
                pattern: " - ",
                replacement: " + ",
                description: "SUB became ADD",
            },
            FaultTemplate {
                pattern: " == ",
                replacement: " != ",
                description: "inverted equality test",
            },
            FaultTemplate {
                pattern: " < ",
                replacement: " <= ",
                description: "off-by-one comparison",
            },
            FaultTemplate {
                pattern: " > ",
                replacement: " >= ",
                description: "off-by-one comparison",
            },
            FaultTemplate {
                pattern: "~",
                replacement: "",
                description: "dropped inversion",
            },
            FaultTemplate {
                pattern: "1'b1",
                replacement: "1'b0",
                description: "flipped constant bit",
            },
            FaultTemplate {
                pattern: "if (rst)",
                replacement: "if (!rst)",
                description: "inverted reset polarity",
            },
            FaultTemplate {
                pattern: " ? ",
                replacement: " == 0 ? ",
                description: "inverted mux select",
            },
            FaultTemplate {
                pattern: "case (",
                replacement: "case (~",
                description: "inverted case selector",
            },
            FaultTemplate {
                pattern: "casez (",
                replacement: "casez (~",
                description: "inverted priority selector",
            },
            FaultTemplate {
                pattern: " << ",
                replacement: " >> ",
                description: "wrong shift direction",
            },
            FaultTemplate {
                pattern: " >> ",
                replacement: " << ",
                description: "wrong shift direction",
            },
            FaultTemplate {
                pattern: " && ",
                replacement: " || ",
                description: "AND became OR",
            },
            FaultTemplate {
                pattern: " || ",
                replacement: " && ",
                description: "OR became AND",
            },
            FaultTemplate {
                pattern: " ~^ ",
                replacement: " ^ ",
                description: "XNOR became XOR",
            },
            FaultTemplate {
                pattern: "= ^",
                replacement: "= ~^",
                description: "inverted reduction parity",
            },
            FaultTemplate {
                pattern: "= |",
                replacement: "= ~|",
                description: "inverted reduction OR",
            },
            FaultTemplate {
                pattern: ", a[",
                replacement: ", ~a[",
                description: "inverted concatenation operand",
            },
            FaultTemplate {
                pattern: "{a[",
                replacement: "{~a[",
                description: "inverted concatenation operand",
            },
        ],
        Dialect::Vhdl => &[
            FaultTemplate {
                pattern: " and ",
                replacement: " or ",
                description: "AND became OR",
            },
            FaultTemplate {
                pattern: " or ",
                replacement: " and ",
                description: "OR became AND",
            },
            FaultTemplate {
                pattern: " xor ",
                replacement: " and ",
                description: "XOR became AND",
            },
            FaultTemplate {
                pattern: "rising_edge",
                replacement: "falling_edge",
                description: "wrong clock edge",
            },
            FaultTemplate {
                pattern: " + 1",
                replacement: " + 2",
                description: "wrong increment",
            },
            FaultTemplate {
                pattern: " + ",
                replacement: " - ",
                description: "ADD became SUB",
            },
            FaultTemplate {
                pattern: " - ",
                replacement: " + ",
                description: "SUB became ADD",
            },
            FaultTemplate {
                pattern: "rst = '1'",
                replacement: "rst = '0'",
                description: "inverted reset polarity",
            },
            FaultTemplate {
                pattern: " < ",
                replacement: " <= ",
                description: "off-by-one comparison",
            },
            FaultTemplate {
                pattern: " > ",
                replacement: " >= ",
                description: "off-by-one comparison",
            },
            FaultTemplate {
                pattern: "not ",
                replacement: "",
                description: "dropped inversion",
            },
            FaultTemplate {
                pattern: "case ",
                replacement: "case not ",
                description: "inverted case selector",
            },
            FaultTemplate {
                pattern: " = '1' else",
                replacement: " = '0' else",
                description: "inverted select condition",
            },
            FaultTemplate {
                pattern: " & '0';",
                replacement: " & '1';",
                description: "wrong shift fill bit",
            },
            FaultTemplate {
                pattern: " xnor ",
                replacement: " xor ",
                description: "XNOR became XOR",
            },
            FaultTemplate {
                pattern: " = '1' then",
                replacement: " = '0' then",
                description: "inverted level test",
            },
            FaultTemplate {
                pattern: "'1' when ",
                replacement: "'0' when ",
                description: "flipped conditional constant",
            },
            FaultTemplate {
                pattern: "0\";",
                replacement: "1\";",
                description: "flipped constant bit",
            },
            FaultTemplate {
                pattern: "'0' when ",
                replacement: "'1' when ",
                description: "flipped conditional constant",
            },
            FaultTemplate {
                pattern: " & a(",
                replacement: " & not a(",
                description: "inverted concatenation operand",
            },
        ],
    }
}

/// Counts non-overlapping occurrences of `pattern` in `text`.
#[must_use]
pub fn count_occurrences(text: &str, pattern: &str) -> usize {
    #[cfg(test)]
    tests::TEMPLATE_SEARCHES.with(|n| n.set(n.get() + 1));
    // `contains` is vectorised and most templates are absent from a
    // given text; `matches` walks a present pattern once.
    if pattern.is_empty() || !text.contains(pattern) {
        return 0;
    }
    text.matches(pattern).count()
}

/// Replaces the `occurrence`-th (0-based) non-overlapping match of
/// `fault.template` in `text`. Returns the text unchanged when the
/// occurrence is absent (an empty pattern never occurs).
#[must_use]
pub fn apply_fault(text: &str, fault: &AppliedFault) -> String {
    let pattern = fault.template.pattern;
    if pattern.is_empty() {
        return text.to_string();
    }
    match text.match_indices(pattern).nth(fault.occurrence) {
        Some((pos, _)) => {
            let replacement = fault.template.replacement;
            let mut out = String::with_capacity(text.len() - pattern.len() + replacement.len());
            out.push_str(&text[..pos]);
            out.push_str(replacement);
            out.push_str(&text[pos + pattern.len()..]);
            out
        }
        None => text.to_string(),
    }
}

/// Applies a set of faults in order. Later faults see the text produced
/// by earlier ones, so occurrence indices are chosen against the golden
/// text and may shift slightly — acceptable, since any landed corruption
/// serves the purpose.
#[must_use]
pub fn apply_all(text: &str, faults: &[AppliedFault]) -> String {
    faults
        .iter()
        .fold(text.to_string(), |t, f| apply_fault(&t, f))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Calls of [`count_occurrences`] on this thread: every search
        /// of a template over a text goes through it.
        pub(crate) static TEMPLATE_SEARCHES: Cell<u64> = const { Cell::new(0) };
    }

    /// The searcher-per-match counter this module used to ship.
    fn count_occurrences_oracle(text: &str, pattern: &str) -> usize {
        if pattern.is_empty() {
            return 0;
        }
        let mut n = 0;
        let mut at = 0;
        while let Some(i) = text[at..].find(pattern) {
            n += 1;
            at += i + pattern.len();
        }
        n
    }

    /// The searcher-per-match position of the `k`-th non-overlapping
    /// match, as `apply_fault` used to find it.
    fn nth_match_oracle(text: &str, pattern: &str, k: usize) -> Option<usize> {
        let mut at = 0;
        let mut seen = 0;
        while let Some(i) = text[at..].find(pattern) {
            let pos = at + i;
            if seen == k {
                return Some(pos);
            }
            seen += 1;
            at = pos + pattern.len();
        }
        None
    }

    fn fault(pattern: &'static str, replacement: &'static str, occurrence: usize) -> AppliedFault {
        AppliedFault {
            template: FaultTemplate {
                pattern,
                replacement,
                description: "x",
            },
            occurrence,
            kind: FaultKind::Syntax,
        }
    }

    #[test]
    fn occurrence_indices_are_non_overlapping() {
        // "aaaaa" holds "aa" at 0 and 2; the match at 1 overlaps the first.
        for (k, want) in [(0, "Xaaa"), (1, "aaXa"), (2, "aaaaa")] {
            assert_eq!(apply_fault("aaaaa", &fault("aa", "X", k)), want, "k={k}");
        }
        // Matches are counted left to right, each resuming after the last.
        let src = "ab;\nab;\n;\n";
        assert_eq!(apply_fault(src, &fault(";\n", "", 0)), "abab;\n;\n");
        assert_eq!(apply_fault(src, &fault(";\n", "", 1)), "ab;\nab;\n");
        assert_eq!(apply_fault(src, &fault(";\n", "", 2)), "ab;\nab;\n");
        assert_eq!(apply_fault(src, &fault(";\n", "", 3)), src);
        assert_eq!(
            apply_fault("abc", &fault("", "X", 0)),
            "abc",
            "empty pattern"
        );
    }

    const PATTERNS: [&str; 7] = ["a", "aa", "ab", ";\n", "aba", "b;\na", ""];

    proptest! {
        #[test]
        fn oracle_counting_and_applying_match_the_per_match_searcher(
            text in "[ab;\\n]{0,40}",
            pattern in (0usize..PATTERNS.len()).prop_map(|i| PATTERNS[i]),
            k in 0usize..12,
        ) {
            prop_assert_eq!(count_occurrences(&text, pattern), count_occurrences_oracle(&text, pattern));
            let applied = apply_fault(&text, &fault(pattern, "<R>", k));
            let want = match nth_match_oracle(&text, pattern, k) {
                Some(pos) if !pattern.is_empty() => {
                    format!("{}<R>{}", &text[..pos], &text[pos + pattern.len()..])
                }
                _ => text.clone(),
            };
            prop_assert_eq!(applied, want);
        }
    }

    const SRC: &str = "module m(input a, output y);\n  assign y = a & a;\nendmodule\n";

    #[test]
    fn count_occurrences_basic() {
        assert_eq!(count_occurrences(SRC, ";\n"), 2);
        assert_eq!(count_occurrences(SRC, "assign "), 1);
        assert_eq!(count_occurrences(SRC, "zzz"), 0);
        assert_eq!(count_occurrences("aaaa", "aa"), 2, "non-overlapping");
    }

    #[test]
    fn apply_fault_targets_occurrence() {
        let fault = AppliedFault {
            template: FaultTemplate {
                pattern: ";\n",
                replacement: "\n",
                description: "x",
            },
            occurrence: 1,
            kind: FaultKind::Syntax,
        };
        let out = apply_fault(SRC, &fault);
        assert!(out.contains("output y);\n"), "first ; kept");
        assert!(out.contains("a & a\nendmodule"), "second ; dropped: {out}");
    }

    #[test]
    fn apply_fault_missing_occurrence_is_noop() {
        let fault = AppliedFault {
            template: FaultTemplate {
                pattern: "assign ",
                replacement: "asign ",
                description: "x",
            },
            occurrence: 5,
            kind: FaultKind::Syntax,
        };
        assert_eq!(apply_fault(SRC, &fault), SRC);
    }

    #[test]
    fn catalogues_are_nonempty_for_both_dialects() {
        for d in [Dialect::Verilog, Dialect::Vhdl] {
            assert!(!syntax_templates(d).is_empty());
            assert!(!functional_templates(d).is_empty());
            for catalogue in [syntax_templates(d), functional_templates(d)] {
                assert!(catalogue.len() <= crate::task::MAX_TEMPLATES);
            }
        }
    }

    #[test]
    fn functional_swap_keeps_compilable_shape() {
        let fault = AppliedFault {
            template: FaultTemplate {
                pattern: " & ",
                replacement: " | ",
                description: "x",
            },
            occurrence: 0,
            kind: FaultKind::Functional,
        };
        let out = apply_fault(SRC, &fault);
        assert!(out.contains("a | a"));
    }
}
