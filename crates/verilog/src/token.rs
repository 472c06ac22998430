//! Token definitions for the Verilog-2001 subset.

use aivril_hdl::cursor::Lexeme;
use aivril_hdl::source::Span;
use aivril_hdl::Name;

/// Kinds of token the lexer produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier; keywords are [`TokenKind::Keyword`] instead. For an
    /// escaped identifier (`\bus[0] `) [`Token::text`] omits the
    /// backslash.
    Ident,
    /// Reserved word (`module`, `always`, ...).
    Keyword(Keyword),
    /// System task/function name including the `$` (e.g. `$display`).
    SysIdent,
    /// Integer literal, possibly sized/based (`8'hFF`, `42`). Blanks
    /// around the base tick stay in [`Token::text`];
    /// [`Token::value`] drops them.
    Number,
    /// String literal. [`Token::text`] is the raw contents between the
    /// quotes; [`Token::value`] decodes the escapes.
    Str,
    /// Operator or punctuation.
    Punct(Punct),
    /// End of input.
    Eof,
}

aivril_hdl::vocabulary! {
    /// All reserved words recognised by this subset.
    pub enum Keyword {
        Module => "module",
        Endmodule => "endmodule",
        Input => "input",
        Output => "output",
        Inout => "inout",
        Wire => "wire",
        Reg => "reg",
        Integer => "integer",
        Parameter => "parameter",
        Localparam => "localparam",
        Assign => "assign",
        Always => "always",
        Initial => "initial",
        Begin => "begin",
        End => "end",
        If => "if",
        Else => "else",
        Case => "case",
        Casez => "casez",
        Casex => "casex",
        Endcase => "endcase",
        Default => "default",
        For => "for",
        While => "while",
        Repeat => "repeat",
        Forever => "forever",
        Posedge => "posedge",
        Negedge => "negedge",
        Or => "or",
        Signed => "signed",
        Generate => "generate",
        Endgenerate => "endgenerate",
        Genvar => "genvar",
        Function => "function",
        Endfunction => "endfunction",
        Task => "task",
        Endtask => "endtask",
        Wait => "wait",
    }
    /// Looks up a keyword from identifier text.
    pub fn from_str;
}

aivril_hdl::vocabulary! {
    /// Operators and punctuation.
    pub enum Punct {
        LParen => "(",
        RParen => ")",
        LBracket => "[",
        RBracket => "]",
        LBrace => "{",
        RBrace => "}",
        Semi => ";",
        Comma => ",",
        Colon => ":",
        Dot => ".",
        Hash => "#",
        At => "@",
        Question => "?",
        Assign => "=",
        /// Both relational and nonblocking.
        LtEqual => "<=",
        Plus => "+",
        Minus => "-",
        Star => "*",
        Slash => "/",
        Percent => "%",
        Amp => "&",
        AmpAmp => "&&",
        Pipe => "|",
        PipePipe => "||",
        Caret => "^",
        /// Also written `^~`.
        TildeCaret => "~^",
        Tilde => "~",
        TildeAmp => "~&",
        TildePipe => "~|",
        Bang => "!",
        EqEq => "==",
        NotEq => "!=",
        CaseEq => "===",
        CaseNotEq => "!==",
        Lt => "<",
        Gt => ">",
        GtEq => ">=",
        Shl => "<<",
        Shr => ">>",
        Star2 => "**",
    }
    /// Looks up an operator from its canonical spelling.
    pub fn from_str;
}

/// One lexed token: a `Copy` view into the source text. Lexing
/// allocates nothing per token; [`Token::value`] and [`Token::name`]
/// build the owned, normalised text only where an AST node keeps it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    /// What kind of token.
    pub kind: TokenKind,
    /// Source location.
    pub span: Span,
    /// The exact source slice of the token. For strings, the raw
    /// contents between the quotes (escapes undecoded); for escaped
    /// identifiers, the name after the backslash; empty at end of file.
    pub text: &'src str,
}

impl Token<'_> {
    /// The token's normalised text as an owned string: string escapes
    /// decoded (`\n`, `\t`, and `\c` for any other character `c`),
    /// number blanks removed (`8 'h FF` gives `8'hFF`), anything else
    /// as written.
    #[must_use]
    pub fn value(&self) -> String {
        match self.kind {
            TokenKind::Str => unescape(self.text),
            TokenKind::Number => self.text.replace([' ', '\t'], ""),
            _ => self.text.to_owned(),
        }
    }

    /// The token's normalised text as a [`Name`], as [`Token::value`]
    /// gives it: built straight from the source slice, so a short
    /// identifier or number costs no allocation.
    #[must_use]
    pub fn name(&self) -> Name {
        match self.kind {
            TokenKind::Number if self.text.contains([' ', '\t']) => Name::from(self.value()),
            TokenKind::Str => Name::from(self.value()),
            _ => Name::new(self.text),
        }
    }

    /// Short human-readable description for error messages, e.g. `';'`
    /// or `'endmodule'`.
    #[must_use]
    pub fn describe(&self) -> String {
        match self.kind {
            TokenKind::Eof => "end of file".to_string(),
            TokenKind::Str => format!("\"{}\"", self.value()),
            // The canonical spelling: `^~` is reported as `'~^'`.
            TokenKind::Punct(p) => format!("'{p}'"),
            TokenKind::Number => format!("'{}'", self.value()),
            _ => format!("'{}'", self.text),
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

/// Decodes the escapes of raw string-literal contents into a string of
/// exactly the decoded length.
fn unescape(raw: &str) -> String {
    // Each escape decodes to the character after its backslash (or to
    // nothing, at the end), so it is one byte shorter than written.
    let mut escapes = 0;
    let mut bytes = raw.bytes();
    while let Some(b) = bytes.next() {
        if b == b'\\' {
            escapes += 1;
            bytes.next();
        }
    }
    let mut out = String::with_capacity(raw.len() - escapes);
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

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
        let mut seen = HashSet::new();
        for &v in all {
            assert_eq!(from_str(as_str(v)), Some(v), "{v:?}");
            assert!(seen.insert(as_str(v)), "{v:?} repeats a spelling");
        }
        assert_eq!(seen.iter().map(|s| s.len()).max(), Some(max_len));
        all.iter().map(|&v| as_str(v)).collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn keywords_are_spelled_once_and_pinned() {
        assert_eq!(
            spellings(
                Keyword::ALL,
                Keyword::as_str,
                Keyword::from_str,
                Keyword::MAX_LEN
            ),
            "module endmodule input output inout wire reg integer parameter localparam \
             assign always initial begin end if else case casez casex endcase default for \
             while repeat forever posedge negedge or signed generate endgenerate genvar \
             function endfunction task endtask wait"
        );
        // Verilog is case-sensitive.
        assert_eq!(Keyword::from_str("Module"), None);
        assert_eq!(Keyword::Endmodule.to_string(), "endmodule");
    }

    #[test]
    fn operators_are_spelled_once_and_pinned() {
        assert_eq!(
            spellings(Punct::ALL, Punct::as_str, Punct::from_str, Punct::MAX_LEN),
            "( ) [ ] { } ; , : . # @ ? = <= + - * / % & && | || ^ ~^ ~ ~& ~| ! == != \
             === !== < > >= << >> **"
        );
        // `^~` lexes as `~^`; only the canonical spelling is in the table.
        assert_eq!(Punct::from_str("^~"), None);
    }
}
