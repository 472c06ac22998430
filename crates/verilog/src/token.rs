//! Token definitions for the Verilog-2001 subset.

use aivril_hdl::source::Span;
use aivril_hdl::Name;
use std::fmt;

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

/// All reserved words recognised by this subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Keyword {
    Module,
    Endmodule,
    Input,
    Output,
    Inout,
    Wire,
    Reg,
    Integer,
    Parameter,
    Localparam,
    Assign,
    Always,
    Initial,
    Begin,
    End,
    If,
    Else,
    Case,
    Casez,
    Casex,
    Endcase,
    Default,
    For,
    While,
    Repeat,
    Forever,
    Posedge,
    Negedge,
    Or,
    Signed,
    Generate,
    Endgenerate,
    Genvar,
    Function,
    Endfunction,
    Task,
    Endtask,
    Wait,
}

impl Keyword {
    /// Looks up a keyword from identifier text.
    #[allow(clippy::should_implement_trait)] // fallible lookup, not parsing
    #[must_use]
    pub fn from_str(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "module" => Module,
            "endmodule" => Endmodule,
            "input" => Input,
            "output" => Output,
            "inout" => Inout,
            "wire" => Wire,
            "reg" => Reg,
            "integer" => Integer,
            "parameter" => Parameter,
            "localparam" => Localparam,
            "assign" => Assign,
            "always" => Always,
            "initial" => Initial,
            "begin" => Begin,
            "end" => End,
            "if" => If,
            "else" => Else,
            "case" => Case,
            "casez" => Casez,
            "casex" => Casex,
            "endcase" => Endcase,
            "default" => Default,
            "for" => For,
            "while" => While,
            "repeat" => Repeat,
            "forever" => Forever,
            "posedge" => Posedge,
            "negedge" => Negedge,
            "or" => Or,
            "signed" => Signed,
            "generate" => Generate,
            "endgenerate" => Endgenerate,
            "genvar" => Genvar,
            "function" => Function,
            "endfunction" => Endfunction,
            "task" => Task,
            "endtask" => Endtask,
            "wait" => Wait,
            _ => return None,
        })
    }

    /// Canonical source spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        use Keyword::*;
        match self {
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
    }
}

/// Operators and punctuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Punct {
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Semi,
    Comma,
    Colon,
    Dot,
    Hash,
    At,
    Question,
    Assign,  // =
    LtEqual, // <= (both relational and nonblocking)
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,        // &
    AmpAmp,     // &&
    Pipe,       // |
    PipePipe,   // ||
    Caret,      // ^
    TildeCaret, // ~^ (also ^~)
    Tilde,      // ~
    TildeAmp,   // ~&
    TildePipe,  // ~|
    Bang,       // !
    EqEq,       // ==
    NotEq,      // !=
    CaseEq,     // ===
    CaseNotEq,  // !==
    Lt,
    Gt,
    GtEq,
    Shl,   // <<
    Shr,   // >>
    Star2, // **
}

impl fmt::Display for Punct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Punct::*;
        let s = match self {
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
        };
        f.write_str(s)
    }
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
