//! Frontend fuzz suite (proptest): the Verilog and VHDL lexers,
//! parsers and elaborators must be *total* — arbitrary byte soup,
//! mangled real designs and reordered token streams may produce any
//! number of diagnostics, but never a panic.
//!
//! The agent loop feeds LLM-generated (and, under fault injection,
//! truncated or wrong-language) code to these frontends on every
//! iteration, so a panicking corner case is a pipeline-crashing bug.

use aivril_hdl::diag::Diagnostics;
use aivril_hdl::source::SourceMap;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn suite() -> &'static [aivril_verilogeval::Problem] {
    static SUITE: OnceLock<Vec<aivril_verilogeval::Problem>> = OnceLock::new();
    SUITE.get_or_init(aivril_verilogeval::suite)
}

/// Real sources to mutate: Verilog and VHDL DUTs and testbenches.
fn corpus() -> &'static [(bool, Arc<str>)] {
    static CORPUS: OnceLock<Vec<(bool, Arc<str>)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        suite()
            .iter()
            .take(16)
            .flat_map(|p| {
                [
                    (true, p.verilog.dut.clone()),
                    (true, p.verilog.tb.clone()),
                    (false, p.vhdl.dut.clone()),
                    (false, p.vhdl.tb.clone()),
                ]
            })
            .collect()
    })
}

/// Runs the full frontend stack on one text: analyze (lex + parse),
/// top-module inference, then elaboration of whatever top was found.
/// The property is simply that this returns.
fn exercise_frontends(text: &str) {
    let mut sources = SourceMap::new();
    sources.add_file("fuzz.v", text.to_string());
    let (unit, _) = aivril_verilog::analyze(&sources);
    if let Some(top) = aivril_verilog::find_top(&unit) {
        let _ = aivril_verilog::compile(&sources, &top);
    }
    let mut sources = SourceMap::new();
    sources.add_file("fuzz.vhd", text.to_string());
    let (file, _) = aivril_vhdl::analyze(&sources);
    if let Some(top) = aivril_vhdl::find_top(&file) {
        let _ = aivril_vhdl::compile(&sources, &top);
    }
}

/// A signed marker followed by a multi-byte character, or by nothing,
/// once split a character or ran past the end of the input; followed
/// by punctuation, it swallowed it. Each is now a located diagnostic.
#[test]
fn signed_marker_with_bad_base_is_a_diagnostic() {
    const BAD_BASE: &str = "expected base specifier after \"'\" in number literal";
    for (literal, messages) in [
        ("4's\u{e9}", vec![BAD_BASE, "unexpected character '\u{e9}'"]),
        (
            "'s\u{20ac}",
            vec![BAD_BASE, "unexpected character '\u{20ac}'"],
        ),
        ("4's", vec![BAD_BASE]),
    ] {
        exercise_frontends(literal);
        let text = format!("module m(output [31:0] y);\n  assign y = {literal};\nendmodule\n");
        let mut sources = SourceMap::new();
        sources.add_file("m.v", text);
        let diags = aivril_verilog::compile(&sources, "m").expect_err(literal);
        let got: Vec<_> = diags.all().iter().map(|d| d.message.as_str()).collect();
        assert_eq!(got, messages, "{literal}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Raw byte soup (lossily decoded) never panics either frontend.
    #[test]
    fn frontends_survive_byte_soup(bytes in proptest::collection::vec(0u8..=255, 0..400)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        exercise_frontends(&text);
    }

    /// Arbitrary unicode never panics either frontend (exercises
    /// multi-byte characters inside identifiers, strings and comments).
    #[test]
    fn frontends_survive_unicode(
        codepoints in proptest::collection::vec(0u32..0x11_0000, 0..200),
    ) {
        let text: String = codepoints.iter().filter_map(|&c| char::from_u32(c)).collect();
        exercise_frontends(&text);
    }

    /// Splicing a random window of one real design into another —
    /// plausible LLM-mangled output — never panics.
    #[test]
    fn frontends_survive_spliced_designs(
        a in 0usize..64,
        b in 0usize..64,
        cut in 0usize..4000,
        len in 0usize..400,
    ) {
        let corpus = corpus();
        let (_, src) = &corpus[a % corpus.len()];
        let (_, donor) = &corpus[b % corpus.len()];
        let start = cut % donor.len().max(1);
        let end = (start + len).min(donor.len());
        // Byte-offset splices can land mid-char only in ASCII sources
        // (the corpus is ASCII), so direct slicing is safe here.
        let mut text = src.to_string();
        let at = cut % text.len().max(1);
        text.insert_str(at, &donor[start..end]);
        exercise_frontends(&text);
    }

    /// Token reordering: lex a real Verilog design, swap token pairs,
    /// and re-parse + elaborate. The parser must absorb any ordering.
    #[test]
    fn verilog_parser_survives_token_reordering(
        idx in 0usize..32,
        swaps in proptest::collection::vec((0usize..5000, 0usize..5000), 1..24),
    ) {
        let corpus = corpus();
        let (_, src) = corpus
            .iter()
            .filter(|(verilog, _)| *verilog)
            .nth(idx % 32)
            .expect("corpus has 32 verilog sources");
        let mut sources = SourceMap::new();
        let file = sources.add_file("reorder.v", src.clone());
        let mut diags = Diagnostics::new();
        let mut tokens = aivril_verilog::lex(file, sources.file(file).text(), &mut diags);
        for &(i, j) in &swaps {
            if !tokens.is_empty() {
                let (i, j) = (i % tokens.len(), j % tokens.len());
                tokens.swap(i, j);
            }
        }
        let unit = aivril_verilog::parse(tokens, &mut diags);
        if let Some(top) = aivril_verilog::find_top(&unit) {
            let _ = aivril_verilog::elaborate(&unit, &top, &mut diags);
        }
    }

    /// Same property for the VHDL frontend.
    #[test]
    fn vhdl_parser_survives_token_reordering(
        idx in 0usize..32,
        swaps in proptest::collection::vec((0usize..5000, 0usize..5000), 1..24),
    ) {
        let corpus = corpus();
        let (_, src) = corpus
            .iter()
            .filter(|(verilog, _)| !*verilog)
            .nth(idx % 32)
            .expect("corpus has 32 vhdl sources");
        let mut sources = SourceMap::new();
        let file = sources.add_file("reorder.vhd", src.clone());
        let mut diags = Diagnostics::new();
        let mut tokens = aivril_vhdl::lex(file, sources.file(file).text(), &mut diags);
        for &(i, j) in &swaps {
            if !tokens.is_empty() {
                let (i, j) = (i % tokens.len(), j % tokens.len());
                tokens.swap(i, j);
            }
        }
        let file = aivril_vhdl::parse(tokens, &mut diags);
        if let Some(top) = aivril_vhdl::find_top(&file) {
            let _ = aivril_vhdl::elaborate(&file, &top, &mut diags);
        }
    }
}
