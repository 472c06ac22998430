//! The token cursor both recursive-descent parsers read through.
//!
//! A parser holds its token stream, which ends in one end-of-file
//! token, its position in it and the diagnostics it reports into;
//! [`Cursor`] gives it the lookahead, the matching of keywords and
//! punctuation and the "expected X, found Y" errors of both languages.
//! End of file is sticky: reading past the last token reads it again.
//! A parser reports at most [`MAX_ERRORS`] errors into one log, so
//! corrupted input yields a focused log for the Review agent rather
//! than an avalanche.
//!
//! # Example
//!
//! ```
//! use aivril_hdl::cursor::{Cursor, Lexeme};
//! use aivril_hdl::diag::Diagnostics;
//! use aivril_hdl::source::{FileId, Span};
//!
//! #[derive(Clone, Copy)]
//! struct Word(&'static str, Span);
//!
//! impl Lexeme for Word {
//!     type Keyword = &'static str;
//!     type Punct = char;
//!
//!     fn is_eof(&self) -> bool {
//!         self.0.is_empty()
//!     }
//!     fn is_ident(&self) -> bool {
//!         self.0.starts_with(char::is_alphabetic) && self.0 != "end"
//!     }
//!     fn is_keyword(&self, k: &'static str) -> bool {
//!         self.0 == k
//!     }
//!     fn is_punct(&self, p: char) -> bool {
//!         self.0.len() == 1 && self.0.starts_with(p)
//!     }
//!     fn span(&self) -> Span {
//!         self.1
//!     }
//!     fn describe(&self) -> String {
//!         format!("'{}'", self.0)
//!     }
//!     fn value(&self) -> String {
//!         self.0.to_owned()
//!     }
//! }
//!
//! struct Parser<'d> {
//!     tokens: Vec<Word>,
//!     pos: usize,
//!     diags: &'d mut Diagnostics,
//! }
//!
//! impl Cursor for Parser<'_> {
//!     type Token = Word;
//!     const SYNTAX: &'static str = "SYN 1";
//!
//!     fn tokens(&self) -> &[Word] {
//!         &self.tokens
//!     }
//!     fn pos(&self) -> usize {
//!         self.pos
//!     }
//!     fn pos_mut(&mut self) -> &mut usize {
//!         &mut self.pos
//!     }
//!     fn diags(&mut self) -> &mut Diagnostics {
//!         self.diags
//!     }
//! }
//!
//! let at = Span::new(FileId(0), 0, 0);
//! let mut diags = Diagnostics::new();
//! let mut p = Parser {
//!     tokens: ["x", ";", "end", ""].map(|w| Word(w, at)).to_vec(),
//!     pos: 0,
//!     diags: &mut diags,
//! };
//! assert_eq!(p.expect_ident().map(|(name, _)| name), Some("x".to_string()));
//! assert!(p.eat(';'));
//! assert!(p.expect(')').is_none());
//! assert!(p.eat_kw("end") && p.at_eof());
//! p.bump();
//! assert!(p.at_eof(), "end of file is sticky");
//! assert_eq!(diags.all()[0].message, "expected ')', found 'end'");
//! ```

use crate::diag::{Diagnostic, Diagnostics};
use crate::source::Span;
use std::fmt;

/// The most errors a parser reports into one log.
pub const MAX_ERRORS: usize = 20;

/// What the cursor reads of one language's tokens.
pub trait Lexeme: Copy {
    /// The language's reserved words.
    type Keyword: Copy + fmt::Display;
    /// The language's operators and punctuation.
    type Punct: Copy + fmt::Display;

    /// Whether this is the end-of-file token.
    fn is_eof(&self) -> bool;
    /// Whether this is an identifier (not a keyword).
    fn is_ident(&self) -> bool;
    /// Whether this is the keyword `k`.
    fn is_keyword(&self, k: Self::Keyword) -> bool;
    /// Whether this is the punctuation `p`.
    fn is_punct(&self, p: Self::Punct) -> bool;
    /// Where the token is.
    fn span(&self) -> Span;
    /// The token as an error message names it, e.g. `';'`.
    fn describe(&self) -> String;
    /// The token's normalised text.
    fn value(&self) -> String;
}

/// A parser reading a token stream that ends in an end-of-file token.
pub trait Cursor {
    /// The language's token.
    type Token: Lexeme;
    /// The diagnostic code of the language's syntax errors.
    const SYNTAX: &'static str;

    /// The token stream; its last token is the end of file.
    fn tokens(&self) -> &[Self::Token];
    /// The index of the next token.
    fn pos(&self) -> usize;
    /// The index of the next token, to advance.
    fn pos_mut(&mut self) -> &mut usize;
    /// Where errors go.
    fn diags(&mut self) -> &mut Diagnostics;

    /// The next token.
    fn peek(&self) -> Self::Token {
        let tokens = self.tokens();
        tokens[self.pos().min(tokens.len() - 1)]
    }

    /// The token after the next one.
    fn peek2(&self) -> Self::Token {
        let tokens = self.tokens();
        tokens[(self.pos() + 1).min(tokens.len() - 1)]
    }

    /// Whether the next token is the end of file.
    fn at_eof(&self) -> bool {
        self.peek().is_eof()
    }

    /// Takes the next token; at the end of file, stays there.
    fn bump(&mut self) -> Self::Token {
        let t = self.peek();
        if self.pos() < self.tokens().len() - 1 {
            *self.pos_mut() += 1;
        }
        t
    }

    /// Whether the next token is `p`.
    fn check(&self, p: <Self::Token as Lexeme>::Punct) -> bool {
        self.peek().is_punct(p)
    }

    /// Whether the next token is the keyword `k`.
    fn check_kw(&self, k: <Self::Token as Lexeme>::Keyword) -> bool {
        self.peek().is_keyword(k)
    }

    /// Takes the next token if it is `p`.
    fn eat(&mut self, p: <Self::Token as Lexeme>::Punct) -> bool {
        let found = self.check(p);
        if found {
            self.bump();
        }
        found
    }

    /// Takes the next token if it is the keyword `k`.
    fn eat_kw(&mut self, k: <Self::Token as Lexeme>::Keyword) -> bool {
        let found = self.check_kw(k);
        if found {
            self.bump();
        }
        found
    }

    /// Reports a syntax error, unless [`MAX_ERRORS`] errors are in the
    /// log already.
    fn error(&mut self, message: String, span: Span) {
        if self.diags().error_count() < MAX_ERRORS {
            self.diags()
                .push(Diagnostic::error(Self::SYNTAX, message, span));
        }
    }

    /// Reports that `expected` was expected where the next token is.
    fn error_expected(&mut self, expected: impl fmt::Display) {
        let tok = self.peek();
        self.error(
            format!("expected {expected}, found {}", tok.describe()),
            tok.span(),
        );
    }

    /// Takes the next token if it is `p`; otherwise reports it.
    fn expect(&mut self, p: <Self::Token as Lexeme>::Punct) -> Option<Self::Token> {
        if self.check(p) {
            return Some(self.bump());
        }
        self.error_expected(format_args!("'{p}'"));
        None
    }

    /// Takes the next token if it is the keyword `k`; otherwise reports
    /// it.
    fn expect_kw(&mut self, k: <Self::Token as Lexeme>::Keyword) -> Option<()> {
        if self.eat_kw(k) {
            return Some(());
        }
        self.error_expected(format_args!("'{k}'"));
        None
    }

    /// Takes the next token if it is an identifier, giving its
    /// normalised text and span; otherwise reports it.
    fn expect_ident(&mut self) -> Option<(String, Span)> {
        self.expect_ident_token().map(|t| (t.value(), t.span()))
    }

    /// Takes the next token if it is an identifier; otherwise reports
    /// it.
    fn expect_ident_token(&mut self) -> Option<Self::Token> {
        if self.peek().is_ident() {
            return Some(self.bump());
        }
        self.error_expected("identifier");
        None
    }
}
