//! Lexer for the Verilog-2001 subset.
//!
//! The lexer is *total*: any byte sequence produces a token stream, with
//! unrecognised characters reported as syntax diagnostics. This matters
//! because the AIVRIL2 loop feeds it LLM-corrupted source — garbage must
//! surface as a well-located error, never a panic.

use crate::token::{Keyword, Punct, Token, TokenKind};
use aivril_hdl::diag::{codes, Diagnostic, Diagnostics};
use aivril_hdl::source::{FileId, Span};

/// Lexes `text` (registered as `file`) into tokens, appending any
/// lexical errors to `diags`. Always ends with an [`TokenKind::Eof`]
/// token. Tokens borrow their text from `text`; nothing is allocated
/// per token.
pub fn lex<'src>(file: FileId, text: &'src str, diags: &mut Diagnostics) -> Vec<Token<'src>> {
    Lexer {
        file,
        src: text,
        bytes: text.as_bytes(),
        pos: 0,
        // The suite's golden files average 5.0 (Verilog) and 6.3 (VHDL)
        // bytes per token, the densest 1.8 and 2.3 (printed by
        // `tests/frontend_allocs.rs`): one reservation covers 289 of the
        // 312 Verilog files and 309 of the 312 VHDL ones; the rest grow
        // once.
        tokens: Vec::with_capacity(text.len() / 3 + 1),
    }
    .run(diags)
}

struct Lexer<'a> {
    file: FileId,
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    tokens: Vec<Token<'a>>,
}

impl<'a> Lexer<'a> {
    fn run(mut self, diags: &mut Diagnostics) -> Vec<Token<'a>> {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let c = self.bytes[self.pos];
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => {
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.pos += 2;
                    let mut closed = false;
                    while self.pos + 1 < self.bytes.len() {
                        if self.bytes[self.pos] == b'*' && self.bytes[self.pos + 1] == b'/' {
                            self.pos += 2;
                            closed = true;
                            break;
                        }
                        self.pos += 1;
                    }
                    if !closed {
                        self.pos = self.bytes.len();
                        diags.push(Diagnostic::error(
                            codes::VLOG_SYNTAX,
                            "unterminated block comment",
                            self.span(start),
                        ));
                    }
                }
                b'"' => self.lex_string(start, diags),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident(start),
                b'\\' => self.lex_escaped_ident(start),
                b'$' => self.lex_sys_ident(start, diags),
                b'0'..=b'9' | b'\'' => self.lex_number(start, diags),
                b'`' => {
                    // Compiler directives (`timescale etc.): skip the line.
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => self.lex_punct(start, diags),
            }
        }
        let end = self.bytes.len();
        self.tokens.push(Token {
            kind: TokenKind::Eof,
            span: Span::new(self.file, end as u32, end as u32),
            text: "",
        });
        self.tokens
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn span(&self, start: usize) -> Span {
        Span::new(self.file, start as u32, self.pos as u32)
    }

    fn push(&mut self, kind: TokenKind, text: &'a str, start: usize) {
        let span = self.span(start);
        self.tokens.push(Token { kind, span, text });
    }

    /// The token text is the raw contents; [`Token::value`] decodes the
    /// escapes. Scanning only has to know that a backslash hides the
    /// next byte from the terminators (`"` and newline), which are
    /// ASCII, so multi-byte characters pass through untouched.
    fn lex_string(&mut self, start: usize, diags: &mut Diagnostics) {
        self.pos += 1;
        let content_start = self.pos;
        let mut content_end = self.bytes.len();
        let mut closed = false;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'"' => {
                    content_end = self.pos;
                    self.pos += 1;
                    closed = true;
                    break;
                }
                b'\\' => self.pos = (self.pos + 2).min(self.bytes.len()),
                b'\n' => {
                    content_end = self.pos;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        if !closed {
            diags.push(Diagnostic::error(
                codes::VLOG_SYNTAX,
                "unterminated string literal",
                Span::new(self.file, start as u32, content_start as u32),
            ));
        }
        self.push(TokenKind::Str, &self.src[content_start..content_end], start);
    }

    fn lex_ident(&mut self, start: usize) {
        while matches!(
            self.bytes.get(self.pos),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'$')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        // A number base suffix can follow a size: handled in lex_number,
        // so here any word is an identifier or keyword.
        let kind = match Keyword::from_str(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident,
        };
        self.push(kind, text, start);
    }

    fn lex_escaped_ident(&mut self, start: usize) {
        self.pos += 1;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| !b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
        self.push(TokenKind::Ident, &self.src[start + 1..self.pos], start);
    }

    fn lex_sys_ident(&mut self, start: usize, _diags: &mut Diagnostics) {
        self.pos += 1;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
        ) {
            self.pos += 1;
        }
        self.push(TokenKind::SysIdent, &self.src[start..self.pos], start);
    }

    /// Lexes decimal, sized and based literals: `42`, `8'hFF`, `'b01xz`,
    /// `4'd1_0`. The whole literal becomes a single `Number` token whose
    /// text is parsed for value later (keeping the lexer total).
    fn lex_number(&mut self, start: usize, diags: &mut Diagnostics) {
        // Optional size digits.
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9' | b'_')) {
            self.pos += 1;
        }
        // Optional whitespace before the base tick (legal Verilog).
        let mut look = self.pos;
        while matches!(self.bytes.get(look), Some(b' ' | b'\t')) {
            look += 1;
        }
        if self.bytes.get(look) == Some(&b'\'') {
            self.pos = look + 1;
            // Optional signed marker, then the base character. Only an
            // ASCII base letter is consumed, so `pos` stays on a character
            // boundary whatever follows.
            if matches!(self.bytes.get(self.pos), Some(b's' | b'S')) {
                self.pos += 1;
            }
            match self.bytes.get(self.pos) {
                Some(b'b' | b'B' | b'o' | b'O' | b'd' | b'D' | b'h' | b'H') => {
                    self.pos += 1;
                    // Optional whitespace between base and digits.
                    while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t')) {
                        self.pos += 1;
                    }
                    while matches!(
                        self.bytes.get(self.pos),
                        Some(
                            b'0'..=b'9'
                            | b'a'..=b'f'
                            | b'A'..=b'F'
                            | b'x'
                            | b'X'
                            | b'z'
                            | b'Z'
                            | b'?'
                            | b'_',
                        )
                    ) {
                        self.pos += 1;
                    }
                }
                _ => {
                    diags.push(Diagnostic::error(
                        codes::VLOG_SYNTAX,
                        "expected base specifier after \"'\" in number literal",
                        self.span(start),
                    ));
                }
            }
        }
        self.push(TokenKind::Number, &self.src[start..self.pos], start);
    }

    fn lex_punct(&mut self, start: usize, diags: &mut Diagnostics) {
        use Punct::*;
        let c = self.bytes[self.pos];
        let two = |l: &Lexer<'_>| l.peek(1);
        let three = |l: &Lexer<'_>| l.peek(2);
        let (p, len) = match c {
            b'(' => (LParen, 1),
            b')' => (RParen, 1),
            b'[' => (LBracket, 1),
            b']' => (RBracket, 1),
            b'{' => (LBrace, 1),
            b'}' => (RBrace, 1),
            b';' => (Semi, 1),
            b',' => (Comma, 1),
            b':' => (Colon, 1),
            b'.' => (Dot, 1),
            b'#' => (Hash, 1),
            b'@' => (At, 1),
            b'?' => (Question, 1),
            b'+' => (Plus, 1),
            b'-' => (Minus, 1),
            b'*' if two(self) == Some(b'*') => (Star2, 2),
            b'*' => (Star, 1),
            b'/' => (Slash, 1),
            b'%' => (Percent, 1),
            b'&' if two(self) == Some(b'&') => (AmpAmp, 2),
            b'&' => (Amp, 1),
            b'|' if two(self) == Some(b'|') => (PipePipe, 2),
            b'|' => (Pipe, 1),
            b'^' if two(self) == Some(b'~') => (TildeCaret, 2),
            b'^' => (Caret, 1),
            b'~' if two(self) == Some(b'^') => (TildeCaret, 2),
            b'~' if two(self) == Some(b'&') => (TildeAmp, 2),
            b'~' if two(self) == Some(b'|') => (TildePipe, 2),
            b'~' => (Tilde, 1),
            b'!' if two(self) == Some(b'=') && three(self) == Some(b'=') => (CaseNotEq, 3),
            b'!' if two(self) == Some(b'=') => (NotEq, 2),
            b'!' => (Bang, 1),
            b'=' if two(self) == Some(b'=') && three(self) == Some(b'=') => (CaseEq, 3),
            b'=' if two(self) == Some(b'=') => (EqEq, 2),
            b'=' => (Assign, 1),
            b'<' if two(self) == Some(b'=') => (LtEqual, 2),
            b'<' if two(self) == Some(b'<') => (Shl, 2),
            b'<' => (Lt, 1),
            b'>' if two(self) == Some(b'=') => (GtEq, 2),
            b'>' if two(self) == Some(b'>') => (Shr, 2),
            b'>' => (Gt, 1),
            _ => {
                // One diagnostic per character, multi-byte ones included.
                let ch = self.src[start..].chars().next().unwrap_or('\u{fffd}');
                self.pos += ch.len_utf8();
                diags.push(Diagnostic::error(
                    codes::VLOG_SYNTAX,
                    format!("unexpected character '{ch}'"),
                    self.span(start),
                ));
                return;
            }
        };
        self.pos += len;
        self.push(TokenKind::Punct(p), &self.src[start..self.pos], start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivril_hdl::source::SourceMap;

    fn lex_ok(src: &str) -> Vec<Token<'_>> {
        let mut sources = SourceMap::new();
        let file = sources.add_file("t.v", src);
        let mut diags = Diagnostics::new();
        let toks = lex(file, src, &mut diags);
        assert!(!diags.has_errors(), "unexpected errors: {:?}", diags.all());
        toks
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex_ok(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_idents() {
        let toks = lex_ok("module foo_1;");
        assert_eq!(toks[0].kind, TokenKind::Keyword(Keyword::Module));
        assert_eq!(toks[1].kind, TokenKind::Ident);
        assert_eq!(toks[1].text, "foo_1");
        assert_eq!(toks[2].kind, TokenKind::Punct(Punct::Semi));
        assert_eq!(toks[3].kind, TokenKind::Eof);
    }

    #[test]
    fn numbers() {
        let toks = lex_ok("42 8'hFF 4'b10xz 'd9 16'd1_000");
        let texts: Vec<&str> = toks[..5].iter().map(|t| t.text).collect();
        assert_eq!(texts, vec!["42", "8'hFF", "4'b10xz", "'d9", "16'd1_000"]);
        assert!(toks[..5].iter().all(|t| t.kind == TokenKind::Number));
    }

    #[test]
    fn operators_longest_match() {
        use Punct::*;
        assert_eq!(
            kinds("=== == = !== != ! <= << < ~^ ~& ~| **"),
            vec![
                TokenKind::Punct(CaseEq),
                TokenKind::Punct(EqEq),
                TokenKind::Punct(Assign),
                TokenKind::Punct(CaseNotEq),
                TokenKind::Punct(NotEq),
                TokenKind::Punct(Bang),
                TokenKind::Punct(LtEqual),
                TokenKind::Punct(Shl),
                TokenKind::Punct(Lt),
                TokenKind::Punct(TildeCaret),
                TokenKind::Punct(TildeAmp),
                TokenKind::Punct(TildePipe),
                TokenKind::Punct(Star2),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex_ok("a // line comment\n/* block\ncomment */ b");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0].text, "a");
        assert_eq!(toks[1].text, "b");
    }

    #[test]
    fn string_escapes() {
        let toks = lex_ok(r#""hello\nworld""#);
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert_eq!(toks[0].text, r"hello\nworld");
        assert_eq!(toks[0].value(), "hello\nworld");
    }

    #[test]
    fn sys_idents() {
        let toks = lex_ok("$display $finish");
        assert_eq!(toks[0].kind, TokenKind::SysIdent);
        assert_eq!(toks[0].text, "$display");
        assert_eq!(toks[1].text, "$finish");
    }

    #[test]
    fn directives_skipped() {
        let toks = lex_ok("`timescale 1ns/1ps\nmodule");
        assert_eq!(toks[0].kind, TokenKind::Keyword(Keyword::Module));
    }

    #[test]
    fn bad_character_reports_error_but_continues() {
        let (toks, diags) = lex_all("a £ b");
        // One diagnostic for the two-byte character, naming it, and
        // 'a' and 'b' still lexed.
        let messages: Vec<_> = diags.all().iter().map(|d| d.message.as_str()).collect();
        assert_eq!(messages, ["unexpected character '£'"]);
        assert_eq!(span_of(diags.all()[0].span.expect("located")), (2, 4));
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, ["a", "b", ""]);
    }

    #[test]
    fn unterminated_string_is_error() {
        let mut sources = SourceMap::new();
        let src = "\"oops\nmodule";
        let file = sources.add_file("t.v", src);
        let mut diags = Diagnostics::new();
        let _ = lex(file, src, &mut diags);
        assert!(diags.has_errors());
    }

    fn lex_all(src: &str) -> (Vec<Token<'_>>, Diagnostics) {
        let mut sources = SourceMap::new();
        let file = sources.add_file("t.v", src);
        let mut diags = Diagnostics::new();
        let toks = lex(file, src, &mut diags);
        (toks, diags)
    }

    fn span_of(span: Span) -> (u32, u32) {
        (span.start, span.end)
    }

    /// Kind, `value()` and span of every token but the final EOF.
    fn vectors(src: &str) -> Vec<(TokenKind, String, (u32, u32))> {
        let (toks, diags) = lex_all(src);
        assert!(!diags.has_errors(), "unexpected errors: {:?}", diags.all());
        assert_eq!(toks.last().map(|t| t.kind), Some(TokenKind::Eof));
        toks[..toks.len() - 1]
            .iter()
            .map(|t| (t.kind, t.value(), span_of(t.span)))
            .collect()
    }

    #[test]
    fn hand_worked_number_vectors() {
        use TokenKind::Number;
        assert_eq!(
            vectors("8 'h FF 'b01xz 16'd1_000 4'sb1 42"),
            vec![
                (Number, "8'hFF".to_string(), (0, 7)),
                (Number, "'b01xz".to_string(), (8, 14)),
                (Number, "16'd1_000".to_string(), (15, 24)),
                (Number, "4'sb1".to_string(), (25, 30)),
                (Number, "42".to_string(), (31, 33)),
            ]
        );
        // The text keeps the blanks; only value() drops them.
        assert_eq!(lex_ok("8 'h FF")[0].text, "8 'h FF");
    }

    #[test]
    fn hand_worked_identifier_vectors() {
        assert_eq!(
            vectors("\\bus[0] q$1 $display end"),
            vec![
                (TokenKind::Ident, "bus[0]".to_string(), (0, 7)),
                (TokenKind::Ident, "q$1".to_string(), (8, 11)),
                (TokenKind::SysIdent, "$display".to_string(), (12, 20)),
                (
                    TokenKind::Keyword(Keyword::End),
                    "end".to_string(),
                    (21, 24)
                ),
            ]
        );
    }

    #[test]
    fn hand_worked_string_vectors() {
        use TokenKind::Str;
        assert_eq!(
            vectors(r#""a\"b\\c\nd\te" "x\qy" """#),
            vec![
                (Str, "a\"b\\c\nd\te".to_string(), (0, 15)),
                (Str, "xqy".to_string(), (16, 22)),
                (Str, String::new(), (23, 25)),
            ]
        );
        // UTF-8 passes through unchanged, also right after a backslash.
        assert_eq!(
            vectors("\"héllo → ok\" \"\\é\\€\""),
            vec![
                (Str, "héllo → ok".to_string(), (0, 15)),
                (Str, "é€".to_string(), (16, 25)),
            ]
        );
        // A backslash before a newline keeps the string open.
        assert_eq!(
            vectors("\"a\\\nb\""),
            vec![(Str, "a\nb".to_string(), (0, 6))]
        );
    }

    #[test]
    fn hand_worked_unterminated_string() {
        let (toks, diags) = lex_all("\"oops\nmodule");
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert_eq!(toks[0].value(), "oops");
        assert_eq!(span_of(toks[0].span), (0, 5));
        assert_eq!(toks[1].kind, TokenKind::Keyword(Keyword::Module));
        let messages: Vec<_> = diags.all().iter().map(|d| d.message.as_str()).collect();
        assert_eq!(messages, ["unterminated string literal"]);
        assert_eq!(span_of(diags.all()[0].span.expect("located")), (0, 1));
        // At end of input the contents run to the end, escapes included.
        let (toks, _) = lex_all("\"ab\\");
        assert_eq!((toks[0].text, span_of(toks[0].span)), ("ab\\", (0, 4)));
        assert_eq!(toks[0].value(), "ab");
    }

    /// A signed marker is consumed only with the base letter after it;
    /// anything else (a multi-byte character, punctuation, end of input)
    /// is left for the next token and reported at the literal.
    #[test]
    fn signed_marker_before_a_bad_or_missing_base() {
        const BAD_BASE: &str = "expected base specifier after \"'\" in number literal";
        for (src, literal, rest, messages) in [
            (
                "4's\u{e9}",
                (0, 3),
                vec![],
                vec![BAD_BASE, "unexpected character '\u{e9}'"],
            ),
            (
                "'s\u{20ac}",
                (0, 2),
                vec![],
                vec![BAD_BASE, "unexpected character '\u{20ac}'"],
            ),
            ("4's", (0, 3), vec![], vec![BAD_BASE]),
            (
                "'S;",
                (0, 2),
                vec![TokenKind::Punct(Punct::Semi)],
                vec![BAD_BASE],
            ),
            ("4'sq", (0, 3), vec![TokenKind::Ident], vec![BAD_BASE]),
        ] {
            let (toks, diags) = lex_all(src);
            assert_eq!(toks[0].kind, TokenKind::Number, "{src:?}");
            assert_eq!(span_of(toks[0].span), literal, "{src:?}");
            let kinds: Vec<_> = toks[1..toks.len() - 1].iter().map(|t| t.kind).collect();
            assert_eq!(kinds, rest, "{src:?}");
            let got: Vec<_> = diags.all().iter().map(|d| d.message.as_str()).collect();
            assert_eq!(got, messages, "{src:?}");
            assert_eq!(span_of(diags.all()[0].span.expect("located")), literal);
        }
        assert_eq!(
            vectors("8'sh1F 4'Sd 9"),
            vec![
                (TokenKind::Number, "8'sh1F".to_string(), (0, 6)),
                (TokenKind::Number, "4'Sd9".to_string(), (7, 13)),
            ]
        );
    }

    #[test]
    fn describe_strings_are_pinned() {
        let (toks, _) = lex_all("module ; ^~ ~^ foo 8 'h FF \"hi\\tthere\" $finish");
        let described: Vec<String> = toks.iter().map(Token::describe).collect();
        assert_eq!(
            described,
            [
                "'module'",
                "';'",
                "'~^'",
                "'~^'",
                "'foo'",
                "'8'hFF'",
                "\"hi\tthere\"",
                "'$finish'",
                "end of file",
            ]
        );
    }

    #[test]
    fn spans_give_correct_lines() {
        let mut sources = SourceMap::new();
        let src = "module m;\nwire w;\nendmodule\n";
        let file = sources.add_file("t.v", src);
        let mut diags = Diagnostics::new();
        let toks = lex(file, src, &mut diags);
        let wire = toks
            .iter()
            .find(|t| t.kind == TokenKind::Keyword(Keyword::Wire))
            .expect("wire token");
        assert_eq!(sources.file(file).line_of(wire.span.start), 2);
    }
}
