//! Lexer for the VHDL-93 subset.
//!
//! VHDL is case-insensitive: tokens keep the source spelling, keywords
//! are matched in any case, and [`Token::value`] lowercases identifiers
//! where an AST node stores them. Like the Verilog lexer, this one is
//! *total* — corrupted input produces located diagnostics, never panics.

use aivril_hdl::cursor::Lexeme;
use aivril_hdl::diag::{codes, Diagnostic, Diagnostics};
use aivril_hdl::source::{FileId, Span};
use aivril_hdl::Name;

/// Kinds of token the VHDL lexer produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier. Keywords are [`TokenKind::Keyword`].
    Ident,
    /// Reserved word.
    Keyword(Keyword),
    /// Integer literal, `_` separators included in [`Token::text`].
    Number,
    /// Character literal contents, e.g. `0` from `'0'`.
    CharLit,
    /// String literal contents (bit-string or report message).
    StrLit,
    /// Hex bit-string literal contents, e.g. `A5` from `x"A5"`.
    HexString,
    /// Operator / punctuation.
    Punct(Punct),
    /// End of input.
    Eof,
}

aivril_hdl::vocabulary! {
    /// Reserved words of the supported subset.
    pub enum Keyword {
        Library => "library",
        Use => "use",
        Entity => "entity",
        Architecture => "architecture",
        Of => "of",
        Is => "is",
        Begin => "begin",
        End => "end",
        Port => "port",
        Generic => "generic",
        Map => "map",
        In => "in",
        Out => "out",
        Inout => "inout",
        Signal => "signal",
        Constant => "constant",
        Variable => "variable",
        Process => "process",
        If => "if",
        Then => "then",
        Elsif => "elsif",
        Else => "else",
        Case => "case",
        When => "when",
        Others => "others",
        For => "for",
        Loop => "loop",
        To => "to",
        Downto => "downto",
        While => "while",
        Wait => "wait",
        Until => "until",
        And => "and",
        Or => "or",
        Xor => "xor",
        Nand => "nand",
        Nor => "nor",
        Xnor => "xnor",
        Not => "not",
        Mod => "mod",
        Rem => "rem",
        Sll => "sll",
        Srl => "srl",
        Report => "report",
        Severity => "severity",
        Assert => "assert",
        Null => "null",
        After => "after",
        All => "all",
        Component => "component",
        True => "true",
        False => "false",
    }
    /// Looks up a keyword by its lowercase spelling.
    fn from_lowercase;
}

impl Keyword {
    /// Looks up a keyword from identifier text in any case, without
    /// allocating.
    #[must_use]
    pub fn from_str(s: &str) -> Option<Keyword> {
        // Lowercase into a buffer as long as the longest keyword.
        let mut buf = [0u8; Keyword::MAX_LEN];
        let lower = buf.get_mut(..s.len())?;
        lower.copy_from_slice(s.as_bytes());
        lower.make_ascii_lowercase();
        // ASCII lowercasing keeps the text UTF-8.
        Keyword::from_lowercase(std::str::from_utf8(lower).ok()?)
    }
}

aivril_hdl::vocabulary! {
    /// Operators and punctuation.
    pub enum Punct {
        LParen => "(",
        RParen => ")",
        Semi => ";",
        Comma => ",",
        Colon => ":",
        Dot => ".",
        Amp => "&",
        Tick => "'",
        Bar => "|",
        Assign => ":=",
        /// Also relational less-or-equal; the context decides.
        SigAssign => "<=",
        Arrow => "=>",
        Eq => "=",
        Ne => "/=",
        Lt => "<",
        Gt => ">",
        Ge => ">=",
        Plus => "+",
        Minus => "-",
        Star => "*",
        Slash => "/",
        Star2 => "**",
    }
    /// Looks up an operator from its spelling.
    pub fn from_str;
}

/// One lexed token: a `Copy` view into the source text. Lexing
/// allocates nothing per token; [`Token::value`] builds the owned,
/// normalised text only where an AST node keeps it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    /// Kind.
    pub kind: TokenKind,
    /// Location.
    pub span: Span,
    /// The exact source slice of the token, in its source case. For
    /// character, string and bit-string literals, the contents between
    /// the quotes; empty at end of file.
    pub text: &'src str,
}

impl Token<'_> {
    /// Whether the token is the identifier `word` (given in lowercase),
    /// in any case: VHDL is case-insensitive, and this and
    /// [`Token::value`] are where that is decided for identifiers.
    #[must_use]
    pub fn is_word(&self, word: &str) -> bool {
        self.kind == TokenKind::Ident && self.text.eq_ignore_ascii_case(word)
    }

    /// The token's normalised text as an owned string: identifiers and
    /// keywords lowercased, `_` removed from numbers, anything else as
    /// written.
    #[must_use]
    pub fn value(&self) -> String {
        match self.kind {
            TokenKind::Ident | TokenKind::Keyword(_) => self.text.to_ascii_lowercase(),
            TokenKind::Number => self.text.replace('_', ""),
            _ => self.text.to_owned(),
        }
    }

    /// The token's normalised text as a [`Name`], as [`Token::value`]
    /// gives it. Identifiers and keywords are lowercased straight into
    /// the name's inline buffer: a short one costs no allocation.
    #[must_use]
    pub fn name(&self) -> Name {
        match self.kind {
            TokenKind::Ident | TokenKind::Keyword(_) => Name::lowercase(self.text),
            TokenKind::Number => Name::from(self.value()),
            _ => Name::new(self.text),
        }
    }

    /// Human-readable description for error messages.
    #[must_use]
    pub fn describe(&self) -> String {
        match self.kind {
            TokenKind::Eof => "end of file".to_string(),
            TokenKind::StrLit => format!("\"{}\"", self.text),
            _ => format!("'{}'", self.value()),
        }
    }
}

impl Lexeme for Token<'_> {
    type Keyword = Keyword;
    type Punct = Punct;

    fn is_eof(&self) -> bool {
        self.kind == TokenKind::Eof
    }

    fn is_ident(&self) -> bool {
        self.kind == TokenKind::Ident
    }

    fn is_keyword(&self, k: Keyword) -> bool {
        self.kind == TokenKind::Keyword(k)
    }

    fn is_punct(&self, p: Punct) -> bool {
        self.kind == TokenKind::Punct(p)
    }

    fn span(&self) -> Span {
        self.span
    }

    fn describe(&self) -> String {
        Token::describe(self)
    }

    fn value(&self) -> String {
        Token::value(self)
    }
}

/// Lexes VHDL `text` into tokens, appending errors to `diags`. Tokens
/// borrow their text from `text`; nothing is allocated per token.
pub fn lex<'src>(file: FileId, text: &'src str, diags: &mut Diagnostics) -> Vec<Token<'src>> {
    let bytes = text.as_bytes();
    // The suite's golden files average 5.0 (Verilog) and 6.3 (VHDL)
    // bytes per token, the densest 1.8 and 2.3 (printed by
    // `tests/frontend_allocs.rs`): one reservation covers 289 of the
    // 312 Verilog files and 309 of the 312 VHDL ones; the rest grow
    // once.
    let mut tokens = Vec::with_capacity(text.len() / 3 + 1);
    let mut pos = 0usize;
    let span = |s: usize, e: usize| Span::new(file, s as u32, e as u32);
    while pos < bytes.len() {
        let start = pos;
        let c = bytes[pos];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => pos += 1,
            b'-' if bytes.get(pos + 1) == Some(&b'-') => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while matches!(
                    bytes.get(pos),
                    Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
                ) {
                    pos += 1;
                }
                let raw = &text[start..pos];
                // Hex bit-string: x"A5"
                if (raw == "x" || raw == "X") && bytes.get(pos) == Some(&b'"') {
                    pos += 1;
                    let content_start = pos;
                    while pos < bytes.len() && bytes[pos] != b'"' {
                        pos += 1;
                    }
                    let content = &text[content_start..pos];
                    if pos < bytes.len() {
                        pos += 1;
                    } else {
                        diags.push(Diagnostic::error(
                            codes::VHDL_SYNTAX,
                            "unterminated bit-string literal",
                            span(start, pos),
                        ));
                    }
                    tokens.push(Token {
                        kind: TokenKind::HexString,
                        span: span(start, pos),
                        text: content,
                    });
                    continue;
                }
                let kind = match Keyword::from_str(raw) {
                    Some(kw) => TokenKind::Keyword(kw),
                    None => TokenKind::Ident,
                };
                tokens.push(Token {
                    kind,
                    span: span(start, pos),
                    text: raw,
                });
            }
            b'0'..=b'9' => {
                while matches!(bytes.get(pos), Some(b'0'..=b'9' | b'_')) {
                    pos += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Number,
                    span: span(start, pos),
                    text: &text[start..pos],
                });
            }
            b'"' => {
                pos += 1;
                let content_start = pos;
                while pos < bytes.len() && bytes[pos] != b'"' {
                    pos += 1;
                }
                let content = &text[content_start..pos];
                if pos < bytes.len() {
                    pos += 1;
                } else {
                    diags.push(Diagnostic::error(
                        codes::VHDL_SYNTAX,
                        "unterminated string literal",
                        span(start, pos),
                    ));
                }
                tokens.push(Token {
                    kind: TokenKind::StrLit,
                    span: span(start, pos),
                    text: content,
                });
            }
            b'\'' => {
                // Character literal '0' vs attribute tick.
                if pos + 2 < bytes.len() && bytes[pos + 2] == b'\'' {
                    pos += 3;
                    tokens.push(Token {
                        kind: TokenKind::CharLit,
                        span: span(start, pos),
                        text: &text[start + 1..start + 2],
                    });
                } else {
                    pos += 1;
                    tokens.push(Token {
                        kind: TokenKind::Punct(Punct::Tick),
                        span: span(start, pos),
                        text: &text[start..pos],
                    });
                }
            }
            _ => {
                use Punct::*;
                let two = bytes.get(pos + 1).copied();
                let (p, len) = match c {
                    b'(' => (LParen, 1),
                    b')' => (RParen, 1),
                    b';' => (Semi, 1),
                    b',' => (Comma, 1),
                    b':' if two == Some(b'=') => (Assign, 2),
                    b':' => (Colon, 1),
                    b'.' => (Dot, 1),
                    b'&' => (Amp, 1),
                    b'|' => (Bar, 1),
                    b'<' if two == Some(b'=') => (SigAssign, 2),
                    b'<' => (Lt, 1),
                    b'>' if two == Some(b'=') => (Ge, 2),
                    b'>' => (Gt, 1),
                    b'=' if two == Some(b'>') => (Arrow, 2),
                    b'=' => (Eq, 1),
                    b'/' if two == Some(b'=') => (Ne, 2),
                    b'/' => (Slash, 1),
                    b'+' => (Plus, 1),
                    b'-' => (Minus, 1),
                    b'*' if two == Some(b'*') => (Star2, 2),
                    b'*' => (Star, 1),
                    _ => {
                        // One diagnostic per character, multi-byte ones
                        // included.
                        let ch = text[start..].chars().next().unwrap_or('\u{fffd}');
                        pos += ch.len_utf8();
                        diags.push(Diagnostic::error(
                            codes::VHDL_SYNTAX,
                            format!("unexpected character '{ch}'"),
                            span(start, pos),
                        ));
                        continue;
                    }
                };
                pos += len;
                tokens.push(Token {
                    kind: TokenKind::Punct(p),
                    span: span(start, pos),
                    text: &text[start..pos],
                });
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: span(bytes.len(), bytes.len()),
        text: "",
    });
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivril_hdl::source::SourceMap;

    fn lex_ok(src: &str) -> Vec<Token<'_>> {
        let mut sources = SourceMap::new();
        let file = sources.add_file("t.vhd", src);
        let mut diags = Diagnostics::new();
        let toks = lex(file, src, &mut diags);
        assert!(!diags.has_errors(), "unexpected: {:?}", diags.all());
        toks
    }

    #[test]
    fn case_insensitive_keywords() {
        let toks = lex_ok("ENTITY foo IS End");
        assert_eq!(toks[0].kind, TokenKind::Keyword(Keyword::Entity));
        assert_eq!(toks[1].text, "foo");
        assert_eq!(toks[2].kind, TokenKind::Keyword(Keyword::Is));
        assert_eq!(toks[3].kind, TokenKind::Keyword(Keyword::End));
    }

    #[test]
    fn char_and_string_literals() {
        let toks = lex_ok("'0' \"0101\" \"Test Failed\"");
        assert_eq!(toks[0].kind, TokenKind::CharLit);
        assert_eq!(toks[0].text, "0");
        assert_eq!(toks[1].kind, TokenKind::StrLit);
        assert_eq!(toks[1].text, "0101");
        assert_eq!(toks[2].text, "Test Failed");
    }

    #[test]
    fn hex_bit_string() {
        let toks = lex_ok("x\"A5\"");
        assert_eq!(toks[0].kind, TokenKind::HexString);
        assert_eq!(toks[0].text, "A5");
    }

    #[test]
    fn attribute_tick_vs_char() {
        let toks = lex_ok("clk'event");
        assert_eq!(toks[0].text, "clk");
        assert_eq!(toks[1].kind, TokenKind::Punct(Punct::Tick));
        assert_eq!(toks[2].text, "event");
    }

    #[test]
    fn comments_skipped() {
        let toks = lex_ok("a -- comment\nb");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1].text, "b");
    }

    #[test]
    fn compound_operators() {
        use Punct::*;
        let toks = lex_ok(":= <= => /= >= **");
        let kinds: Vec<_> = toks[..6].iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Punct(Assign),
                TokenKind::Punct(SigAssign),
                TokenKind::Punct(Arrow),
                TokenKind::Punct(Ne),
                TokenKind::Punct(Ge),
                TokenKind::Punct(Star2),
            ]
        );
    }

    #[test]
    fn numbers_with_underscores() {
        let toks = lex_ok("1_000");
        assert_eq!(toks[0].text, "1_000");
        assert_eq!(toks[0].value(), "1000");
    }

    #[test]
    fn bad_character_reported() {
        let (toks, diags) = lex_all("a @ b");
        assert!(diags.has_errors());
        assert!(toks.iter().any(|t| t.text == "b"));
    }

    #[test]
    fn multibyte_character_is_one_diagnostic() {
        let (toks, diags) = lex_all("a £€ b");
        let messages: Vec<_> = diags.all().iter().map(|d| d.message.as_str()).collect();
        assert_eq!(
            messages,
            ["unexpected character '£'", "unexpected character '€'"]
        );
        let spans: Vec<_> = diags
            .all()
            .iter()
            .map(|d| span_of(d.span.expect("located")))
            .collect();
        assert_eq!(spans, [(2, 4), (4, 7)]);
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, ["a", "b", ""]);
    }

    fn lex_all(src: &str) -> (Vec<Token<'_>>, Diagnostics) {
        let mut sources = SourceMap::new();
        let file = sources.add_file("t.vhd", src);
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
        assert!(!diags.has_errors(), "unexpected: {:?}", diags.all());
        assert_eq!(toks.last().map(|t| t.kind), Some(TokenKind::Eof));
        toks[..toks.len() - 1]
            .iter()
            .map(|t| (t.kind, t.value(), span_of(t.span)))
            .collect()
    }

    #[test]
    fn hand_worked_vectors() {
        use TokenKind::*;
        assert_eq!(
            vectors("ENTITY Foo iS 1_000 x\"A5\" X\"0f\""),
            vec![
                (Keyword(self::Keyword::Entity), "entity".to_string(), (0, 6)),
                (Ident, "foo".to_string(), (7, 10)),
                (Keyword(self::Keyword::Is), "is".to_string(), (11, 13)),
                (Number, "1000".to_string(), (14, 19)),
                (HexString, "A5".to_string(), (20, 25)),
                (HexString, "0f".to_string(), (26, 31)),
            ]
        );
        // The text keeps the source spelling; only value() normalises.
        let toks = lex_ok("ENTITY Foo 1_000");
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, ["ENTITY", "Foo", "1_000", ""]);
        // A character literal right after an attribute: the tick before
        // `event` is punctuation, the quotes around `1` a literal.
        assert_eq!(
            vectors("clk'EVENT='1'"),
            vec![
                (Ident, "clk".to_string(), (0, 3)),
                (Punct(self::Punct::Tick), "'".to_string(), (3, 4)),
                (Ident, "event".to_string(), (4, 9)),
                (Punct(self::Punct::Eq), "=".to_string(), (9, 10)),
                (CharLit, "1".to_string(), (10, 13)),
            ]
        );
    }

    #[test]
    fn is_word_folds_case_for_identifiers_only() {
        let toks = lex_ok("RANGE Open ns \"open\" range_x");
        assert!(toks[0].is_word("range"));
        assert!(toks[1].is_word("open"));
        assert!(toks[2].is_word("ns"));
        assert!(!toks[3].is_word("open"), "a string literal is not a word");
        assert!(!toks[4].is_word("range"));
    }

    #[test]
    fn hand_worked_unterminated_bit_string() {
        let (toks, diags) = lex_all("x\"A5");
        assert_eq!(toks[0].kind, TokenKind::HexString);
        assert_eq!(toks[0].value(), "A5");
        assert_eq!(span_of(toks[0].span), (0, 4));
        assert_eq!(toks[1].kind, TokenKind::Eof);
        let messages: Vec<_> = diags.all().iter().map(|d| d.message.as_str()).collect();
        assert_eq!(messages, ["unterminated bit-string literal"]);
        assert_eq!(span_of(diags.all()[0].span.expect("located")), (0, 4));
    }

    /// Every spelling of a vocabulary in table order, space-separated,
    /// after checking that each spelling is unique, looks up its own
    /// variant and is at most `max_len` bytes long, the longest one
    /// exactly.
    fn spellings<T: Copy + PartialEq + std::fmt::Debug>(
        all: &[T],
        as_str: fn(T) -> &'static str,
        from_str: fn(&str) -> Option<T>,
        max_len: usize,
    ) -> String {
        let mut seen = std::collections::HashSet::new();
        for &v in all {
            assert_eq!(from_str(as_str(v)), Some(v), "{v:?}");
            assert!(seen.insert(as_str(v)), "{v:?} repeats a spelling");
        }
        assert_eq!(seen.iter().map(|s| s.len()).max(), Some(max_len));
        all.iter().map(|&v| as_str(v)).collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn keywords_are_spelled_once_match_in_any_case_and_are_pinned() {
        assert_eq!(
            spellings(
                Keyword::ALL,
                Keyword::as_str,
                Keyword::from_str,
                Keyword::MAX_LEN
            ),
            "library use entity architecture of is begin end port generic map in out inout \
             signal constant variable process if then elsif else case when others for loop \
             to downto while wait until and or xor nand nor xnor not mod rem sll srl report \
             severity assert null after all component true false"
        );
        for &k in Keyword::ALL {
            let upper = k.as_str().to_ascii_uppercase();
            let mixed: String = (k.as_str().char_indices())
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect();
            assert_eq!(Keyword::from_str(&upper), Some(k), "{upper}");
            assert_eq!(Keyword::from_str(&mixed), Some(k), "{mixed}");
        }
        // Longer than every keyword: not one, and no overrun.
        assert_eq!(Keyword::from_str("Architectures"), None);
        assert_eq!(Keyword::Downto.to_string(), "downto");
    }

    #[test]
    fn operators_are_spelled_once_and_pinned() {
        assert_eq!(
            spellings(Punct::ALL, Punct::as_str, Punct::from_str, Punct::MAX_LEN),
            "( ) ; , : . & ' | := <= => = /= < > >= + - * / **"
        );
    }

    #[test]
    fn describe_strings_are_pinned() {
        let toks = lex_ok("ENTITY := Foo 1_000 \"Test Failed\" '0' x\"A5\"");
        let described: Vec<String> = toks.iter().map(Token::describe).collect();
        assert_eq!(
            described,
            [
                "'entity'",
                "':='",
                "'foo'",
                "'1000'",
                "\"Test Failed\"",
                "'0'",
                "'A5'",
                "end of file",
            ]
        );
    }
}
