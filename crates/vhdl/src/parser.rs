//! Recursive-descent parser for the VHDL-93 subset.
//!
//! Lists are collected on [`Scratch`] stacks owned by the parser and
//! moved out with one exact allocation each ([`aivril_hdl::scratch`]),
//! so an AST list is never larger than what it holds.

use crate::ast::*;
use crate::lexer::{Keyword as Kw, Punct, Token, TokenKind};
use aivril_hdl::cursor::Cursor;
use aivril_hdl::diag::{codes, Diagnostics};
use aivril_hdl::scratch::Lists;
use aivril_hdl::source::Span;
use aivril_hdl::Name;

/// Parses a token stream into a design file, appending errors to `diags`.
pub fn parse(tokens: Vec<Token<'_>>, diags: &mut Diagnostics) -> DesignFile {
    let mut p = Parser {
        tokens,
        pos: 0,
        diags,
        scratch: Scratch::default(),
    };
    let mut file = DesignFile::default();
    while !p.at_eof() {
        if p.eat_kw(Kw::Library) {
            p.parse_library_clause();
        } else if p.eat_kw(Kw::Use) {
            p.parse_use_clause();
        } else if p.check_kw(Kw::Entity) {
            p.bump();
            if let Some(e) = p.parse_entity() {
                file.entities.push(std::sync::Arc::new(e));
            } else {
                p.skip_to_design_unit();
            }
        } else if p.check_kw(Kw::Architecture) {
            p.bump();
            if let Some(a) = p.parse_architecture() {
                file.architectures.push(std::sync::Arc::new(a));
            } else {
                p.skip_to_design_unit();
            }
        } else {
            p.error_expected("'entity' or 'architecture'");
            p.bump();
            p.skip_to_design_unit();
        }
    }
    file
}

struct Parser<'s, 'd> {
    tokens: Vec<Token<'s>>,
    pos: usize,
    diags: &'d mut Diagnostics,
    scratch: Scratch,
}

aivril_hdl::scratch_stacks! {
    /// One stack per list element type.
    struct Scratch {
        generics: GenericDecl,
        ports: PortDecl,
        names: (String, Span),
        decls: Decl,
        concurrent: ConcurrentStmt,
        variables: VarDecl,
        generic_map: (String, Expr),
        port_map: (String, Option<Expr>, Span),
        stmts: SeqStmt,
        if_arms: (Expr, Box<[SeqStmt]>),
        case_arms: CaseArm,
        exprs: Expr,
    }
}

impl Lists for Parser<'_, '_> {
    type Scratch = Scratch;

    fn scratch(&mut self) -> &mut Scratch {
        &mut self.scratch
    }
}

impl<'s> Cursor for Parser<'s, '_> {
    type Token = Token<'s>;
    const SYNTAX: &'static str = codes::VHDL_SYNTAX;

    fn tokens(&self) -> &[Token<'s>] {
        &self.tokens
    }

    fn pos(&self) -> usize {
        self.pos
    }

    fn pos_mut(&mut self) -> &mut usize {
        &mut self.pos
    }

    fn diags(&mut self) -> &mut Diagnostics {
        self.diags
    }
}

impl Parser<'_, '_> {
    fn skip_past_semi(&mut self) {
        while !self.at_eof() {
            if self.eat(Punct::Semi) {
                return;
            }
            self.bump();
        }
    }

    /// `library ident {, ident} ;` — names are recorded nowhere (only
    /// `work`/`ieee` exist here) but the syntax is checked strictly.
    fn parse_library_clause(&mut self) {
        if self.expect_ident_token().is_none() {
            self.skip_past_semi();
            return;
        }
        while self.eat(Punct::Comma) {
            if self.expect_ident_token().is_none() {
                self.skip_past_semi();
                return;
            }
        }
        self.expect(Punct::Semi);
    }

    /// `use name.name.all ;` — checked strictly, contents ignored.
    fn parse_use_clause(&mut self) {
        if self.expect_ident_token().is_none() {
            self.skip_past_semi();
            return;
        }
        while self.eat(Punct::Dot) {
            if self.eat_kw(Kw::All) {
                break;
            }
            if self.expect_ident_token().is_none() {
                self.skip_past_semi();
                return;
            }
        }
        self.expect(Punct::Semi);
    }

    /// Recovery after a failed design unit: skips to the next `entity`
    /// or `architecture`, or past the failed unit's own
    /// `end entity|architecture [name] ;`, whose keyword does not start
    /// a unit.
    fn skip_to_design_unit(&mut self) {
        while !self.at_eof() && !self.check_kw(Kw::Entity) && !self.check_kw(Kw::Architecture) {
            if !self.eat_kw(Kw::End) {
                self.bump();
            } else if self.eat_kw(Kw::Entity) || self.eat_kw(Kw::Architecture) {
                if self.peek().kind == TokenKind::Ident {
                    self.bump();
                }
                self.eat(Punct::Semi);
                return;
            }
        }
    }

    // -------------------------------------------------------- entities

    fn parse_entity(&mut self) -> Option<Entity> {
        let (name, span) = self.expect_ident()?;
        self.expect_kw(Kw::Is)?;
        let mut generics = Box::default();
        let mut ports = Box::default();
        if self.eat_kw(Kw::Generic) {
            self.expect(Punct::LParen)?;
            generics = self.try_list(|p| loop {
                let names = p.parse_ident_list()?;
                p.expect(Punct::Colon)?;
                let _ty = p.parse_type_mark()?;
                let default = if p.eat(Punct::Assign) {
                    Some(p.parse_expr())
                } else {
                    None
                };
                for (n, s) in names {
                    p.push(GenericDecl {
                        name: n,
                        default: default.clone(),
                        span: s,
                    });
                }
                if !p.eat(Punct::Semi) {
                    return Some(());
                }
            })?;
            self.expect(Punct::RParen)?;
            self.expect(Punct::Semi)?;
        }
        if self.eat_kw(Kw::Port) {
            self.expect(Punct::LParen)?;
            ports = self.try_list(|p| loop {
                let names = p.parse_ident_list()?;
                p.expect(Punct::Colon)?;
                let dir = if p.eat_kw(Kw::In) {
                    PortDir::In
                } else if p.eat_kw(Kw::Out) {
                    PortDir::Out
                } else if p.eat_kw(Kw::Inout) {
                    PortDir::Inout
                } else {
                    p.error_expected("port direction");
                    PortDir::In
                };
                let ty = p.parse_type_mark()?;
                for (n, s) in names {
                    p.push(PortDecl {
                        name: n,
                        dir,
                        ty: ty.clone(),
                        span: s,
                    });
                }
                if !p.eat(Punct::Semi) {
                    return Some(());
                }
            })?;
            self.expect(Punct::RParen)?;
            self.expect(Punct::Semi)?;
        }
        self.expect_kw(Kw::End)?;
        self.eat_kw(Kw::Entity);
        if self.peek().kind == TokenKind::Ident {
            self.bump();
        }
        self.expect(Punct::Semi)?;
        Some(Entity {
            name,
            generics,
            ports,
            span,
        })
    }

    /// `ident {, ident}`.
    fn parse_ident_list(&mut self) -> Option<Box<[(String, Span)]>> {
        self.try_list(|p| loop {
            let name = p.expect_ident()?;
            p.push(name);
            if !p.eat(Punct::Comma) {
                return Some(());
            }
        })
    }

    fn parse_type_mark(&mut self) -> Option<TypeMark> {
        let tok = self.expect_ident_token()?;
        let is_one_of = |words: &[&str]| words.iter().any(|w| tok.is_word(w));
        if is_one_of(&["std_logic", "std_ulogic", "bit"]) {
            Some(TypeMark::StdLogic)
        } else if tok.is_word("boolean") {
            Some(TypeMark::Boolean)
        } else if is_one_of(&["integer", "natural", "positive"]) {
            // Optional range constraint: `integer range 0 to 255`.
            if self.peek().is_word("range") {
                self.bump();
                let _ = self.parse_expr();
                if !(self.eat_kw(Kw::To) || self.eat_kw(Kw::Downto)) {
                    self.error_expected("'to' or 'downto'");
                }
                let _ = self.parse_expr();
            }
            Some(TypeMark::Integer)
        } else if is_one_of(&["std_logic_vector", "unsigned", "signed", "bit_vector"]) {
            self.expect(Punct::LParen)?;
            let left = self.parse_expr();
            let downto = if self.eat_kw(Kw::Downto) {
                true
            } else if self.eat_kw(Kw::To) {
                false
            } else {
                self.error_expected("'downto' or 'to'");
                true
            };
            let right = self.parse_expr();
            self.expect(Punct::RParen)?;
            let (high, low) = if downto { (left, right) } else { (right, left) };
            Some(TypeMark::Vector { high, low, downto })
        } else {
            self.error(format!("unsupported type '{}'", tok.value()), tok.span);
            None
        }
    }

    // --------------------------------------------------- architectures

    fn parse_architecture(&mut self) -> Option<Architecture> {
        let (name, span) = self.expect_ident()?;
        self.expect_kw(Kw::Of)?;
        let (entity, _) = self.expect_ident()?;
        self.expect_kw(Kw::Is)?;
        let decls = self.try_list(|p| {
            while !p.check_kw(Kw::Begin) && !p.at_eof() {
                if p.eat_kw(Kw::Signal) {
                    let names = p.parse_ident_list()?;
                    p.expect(Punct::Colon)?;
                    let ty = p.parse_type_mark()?;
                    let init = if p.eat(Punct::Assign) {
                        Some(p.parse_expr())
                    } else {
                        None
                    };
                    p.expect(Punct::Semi)?;
                    p.push(Decl::Signal { names, ty, init });
                } else if p.eat_kw(Kw::Constant) {
                    let (cname, cspan) = p.expect_ident()?;
                    p.expect(Punct::Colon)?;
                    let _ty = p.parse_type_mark()?;
                    p.expect(Punct::Assign)?;
                    let value = p.parse_expr();
                    p.expect(Punct::Semi)?;
                    p.push(Decl::Constant {
                        name: cname,
                        value,
                        span: cspan,
                    });
                } else if p.eat_kw(Kw::Component) {
                    // Component declarations are tolerated and skipped;
                    // only direct entity instantiation is supported.
                    while !p.at_eof() {
                        if p.eat_kw(Kw::End) && p.eat_kw(Kw::Component) {
                            if p.peek().kind == TokenKind::Ident {
                                p.bump();
                            }
                            p.expect(Punct::Semi)?;
                            break;
                        }
                        p.bump();
                    }
                } else {
                    p.error_expected("declaration or 'begin'");
                    return None;
                }
            }
            Some(())
        })?;
        self.expect_kw(Kw::Begin)?;
        let stmts = self.try_list(|p| loop {
            if p.check_kw(Kw::End) {
                p.bump();
                p.eat_kw(Kw::Architecture);
                if p.peek().kind == TokenKind::Ident {
                    p.bump();
                }
                p.expect(Punct::Semi)?;
                return Some(());
            }
            if p.at_eof() {
                p.error("expected 'end', found end of file".into(), span);
                return Some(());
            }
            match p.parse_concurrent_stmt() {
                Some(s) => p.push(s),
                None => p.skip_past_semi(),
            }
        })?;
        Some(Architecture {
            name,
            entity,
            decls,
            stmts,
            span,
        })
    }

    fn parse_concurrent_stmt(&mut self) -> Option<ConcurrentStmt> {
        // Optional label.
        let label = if self.peek().kind == TokenKind::Ident
            && self.peek2().kind == TokenKind::Punct(Punct::Colon)
        {
            let (l, _) = self.expect_ident()?;
            self.bump(); // ':'
            Some(l)
        } else {
            None
        };
        if self.check_kw(Kw::Process) {
            let span = self.bump().span;
            let mut sensitivity = Box::default();
            if self.eat(Punct::LParen) {
                sensitivity = self.parse_ident_list()?;
                self.expect(Punct::RParen)?;
            }
            self.eat_kw(Kw::Is);
            // Process-declarative part: variable declarations.
            let variables = self.try_list(|p| {
                while !p.check_kw(Kw::Begin) && !p.at_eof() {
                    if p.eat_kw(Kw::Variable) {
                        let names = p.parse_ident_list()?;
                        p.expect(Punct::Colon)?;
                        let ty = p.parse_type_mark()?;
                        let init = if p.eat(Punct::Assign) {
                            Some(p.parse_expr())
                        } else {
                            None
                        };
                        p.expect(Punct::Semi)?;
                        p.push(VarDecl { names, ty, init });
                    } else {
                        p.error_expected("'variable' or 'begin'");
                        return None;
                    }
                }
                Some(())
            })?;
            self.expect_kw(Kw::Begin)?;
            let body = self.parse_seq_stmts(&[Kw::End]);
            self.expect_kw(Kw::End)?;
            self.expect_kw(Kw::Process)?;
            if self.peek().kind == TokenKind::Ident {
                self.bump();
            }
            self.expect(Punct::Semi)?;
            return Some(ConcurrentStmt::Process {
                label,
                sensitivity,
                variables,
                body,
                span,
            });
        }
        if self.check_kw(Kw::Entity) {
            let span = self.bump().span;
            let Some(label) = label else {
                self.error("entity instantiation requires a label".into(), span);
                return None;
            };
            // work.NAME
            let mut entity = self.expect_ident_token()?;
            if self.eat(Punct::Dot) {
                entity = self.expect_ident_token()?;
            }
            let entity = entity.value();
            let mut generic_map = Box::default();
            if self.eat_kw(Kw::Generic) {
                self.expect_kw(Kw::Map)?;
                self.expect(Punct::LParen)?;
                generic_map = self.try_list(|p| loop {
                    let (gname, _) = p.expect_ident()?;
                    p.expect(Punct::Arrow)?;
                    let value = p.parse_expr();
                    p.push((gname, value));
                    if !p.eat(Punct::Comma) {
                        return Some(());
                    }
                })?;
                self.expect(Punct::RParen)?;
            }
            self.expect_kw(Kw::Port)?;
            self.expect_kw(Kw::Map)?;
            self.expect(Punct::LParen)?;
            let port_map = self.try_list(|p| loop {
                let (pname, pspan) = p.expect_ident()?;
                p.expect(Punct::Arrow)?;
                // `open` connection.
                let actual = if p.peek().is_word("open") {
                    p.bump();
                    None
                } else {
                    Some(p.parse_expr())
                };
                p.push((pname, actual, pspan));
                if !p.eat(Punct::Comma) {
                    return Some(());
                }
            })?;
            self.expect(Punct::RParen)?;
            self.expect(Punct::Semi)?;
            return Some(ConcurrentStmt::Instance {
                label,
                entity,
                generic_map,
                port_map,
                span,
            });
        }
        // Concurrent signal assignment.
        let target = self.parse_name_expr()?;
        let span = target.span().unwrap_or_else(|| self.peek().span);
        self.expect(Punct::SigAssign)?;
        let value = self.parse_when_expr();
        self.expect(Punct::Semi)?;
        Some(ConcurrentStmt::Assign {
            target,
            value,
            span,
        })
    }

    // ----------------------------------------------------- sequentials

    /// Parses sequential statements until one of `stops` is the lookahead.
    fn parse_seq_stmts(&mut self, stops: &[Kw]) -> Box<[SeqStmt]> {
        self.list(|p| loop {
            if p.at_eof() || stops.iter().any(|&k| p.check_kw(k)) {
                return;
            }
            match p.parse_seq_stmt() {
                Some(s) => p.push(s),
                None => {
                    p.skip_past_semi();
                    if p.at_eof() {
                        return;
                    }
                }
            }
        })
    }

    fn parse_seq_stmt(&mut self) -> Option<SeqStmt> {
        let tok = self.peek();
        if self.eat_kw(Kw::If) {
            let mut els = None;
            let arms = self.try_list(|p| {
                let cond = p.parse_expr();
                p.expect_kw(Kw::Then)?;
                let body = p.parse_seq_stmts(&[Kw::Elsif, Kw::Else, Kw::End]);
                p.push((cond, body));
                loop {
                    if p.eat_kw(Kw::Elsif) {
                        let c = p.parse_expr();
                        p.expect_kw(Kw::Then)?;
                        let b = p.parse_seq_stmts(&[Kw::Elsif, Kw::Else, Kw::End]);
                        p.push((c, b));
                    } else if p.eat_kw(Kw::Else) {
                        els = Some(p.parse_seq_stmts(&[Kw::End]));
                        return Some(());
                    } else {
                        return Some(());
                    }
                }
            })?;
            self.expect_kw(Kw::End)?;
            self.expect_kw(Kw::If)?;
            self.expect(Punct::Semi)?;
            return Some(SeqStmt::If { arms, els });
        }
        if self.eat_kw(Kw::Case) {
            let subject = self.parse_expr();
            self.expect_kw(Kw::Is)?;
            let arms = self.try_list(|p| {
                while p.eat_kw(Kw::When) {
                    let choices = p.list(|p| {
                        if !p.eat_kw(Kw::Others) {
                            loop {
                                let e = p.parse_expr();
                                p.push(e);
                                if !p.eat(Punct::Bar) {
                                    break;
                                }
                            }
                        }
                    });
                    p.expect(Punct::Arrow)?;
                    let body = p.parse_seq_stmts(&[Kw::When, Kw::End]);
                    p.push((choices, body));
                }
                Some(())
            })?;
            self.expect_kw(Kw::End)?;
            self.expect_kw(Kw::Case)?;
            self.expect(Punct::Semi)?;
            return Some(SeqStmt::Case {
                subject,
                arms,
                span: tok.span,
            });
        }
        if self.eat_kw(Kw::For) {
            let (var, _) = self.expect_ident()?;
            self.expect_kw(Kw::In)?;
            let from = self.parse_expr();
            let downto = if self.eat_kw(Kw::Downto) {
                true
            } else {
                self.expect_kw(Kw::To)?;
                false
            };
            let to = self.parse_expr();
            self.expect_kw(Kw::Loop)?;
            let body = self.parse_seq_stmts(&[Kw::End]);
            self.expect_kw(Kw::End)?;
            self.expect_kw(Kw::Loop)?;
            self.expect(Punct::Semi)?;
            return Some(SeqStmt::For(Box::new(ForLoop {
                var,
                from,
                to,
                downto,
                body,
                span: tok.span,
            })));
        }
        if self.eat_kw(Kw::While) {
            let cond = self.parse_expr();
            self.expect_kw(Kw::Loop)?;
            let body = self.parse_seq_stmts(&[Kw::End]);
            self.expect_kw(Kw::End)?;
            self.expect_kw(Kw::Loop)?;
            self.expect(Punct::Semi)?;
            return Some(SeqStmt::While { cond, body });
        }
        if self.eat_kw(Kw::Wait) {
            if self.eat_kw(Kw::For) {
                let amount = self.parse_time_expr();
                self.expect(Punct::Semi)?;
                return Some(SeqStmt::WaitFor {
                    amount,
                    span: tok.span,
                });
            }
            if self.eat_kw(Kw::Until) {
                let cond = self.parse_expr();
                // Optional trailing `for <time>` is unsupported; tolerate.
                self.expect(Punct::Semi)?;
                return Some(SeqStmt::WaitUntil {
                    cond,
                    span: tok.span,
                });
            }
            self.expect(Punct::Semi)?;
            return Some(SeqStmt::WaitForever { span: tok.span });
        }
        if self.eat_kw(Kw::Assert) {
            let cond = self.parse_expr();
            let report = if self.eat_kw(Kw::Report) {
                Some(self.parse_message()?)
            } else {
                None
            };
            let severity = self.parse_severity(SeverityLevel::Error)?;
            self.expect(Punct::Semi)?;
            return Some(SeqStmt::Assert {
                cond,
                report,
                severity,
                span: tok.span,
            });
        }
        if self.eat_kw(Kw::Report) {
            let message = self.parse_message()?;
            let severity = self.parse_severity(SeverityLevel::Note)?;
            self.expect(Punct::Semi)?;
            return Some(SeqStmt::Report {
                message,
                severity,
                span: tok.span,
            });
        }
        if self.eat_kw(Kw::Null) {
            self.expect(Punct::Semi)?;
            return Some(SeqStmt::Null);
        }
        // Signal (`<=`) or variable (`:=`) assignment.
        let target = self.parse_name_expr()?;
        let span = target.span().unwrap_or(tok.span);
        if self.eat(Punct::Assign) {
            let value = self.parse_expr();
            self.expect(Punct::Semi)?;
            return Some(SeqStmt::VariableAssign {
                target,
                value,
                span,
            });
        }
        self.expect(Punct::SigAssign)?;
        let value = self.parse_expr();
        if self.eat_kw(Kw::After) {
            let t = self.peek();
            self.error("'after' delays are not supported".into(), t.span);
            let _ = self.parse_time_expr();
        }
        self.expect(Punct::Semi)?;
        Some(SeqStmt::SignalAssign {
            target,
            value,
            span,
        })
    }

    fn parse_message(&mut self) -> Option<String> {
        if self.peek().kind == TokenKind::StrLit {
            return Some(self.bump().value());
        }
        self.error_expected("a string message");
        None
    }

    fn parse_severity(&mut self, default: SeverityLevel) -> Option<SeverityLevel> {
        if !self.eat_kw(Kw::Severity) {
            return Some(default);
        }
        const LEVELS: [(&str, SeverityLevel); 4] = [
            ("note", SeverityLevel::Note),
            ("warning", SeverityLevel::Warning),
            ("error", SeverityLevel::Error),
            ("failure", SeverityLevel::Failure),
        ];
        let tok = self.expect_ident_token()?;
        match LEVELS.iter().find(|(name, _)| tok.is_word(name)) {
            Some(&(_, level)) => Some(level),
            None => {
                self.error(
                    format!("unknown severity level '{}'", tok.value()),
                    tok.span,
                );
                Some(default)
            }
        }
    }

    /// Parses an expression followed by an optional time unit, folding
    /// the unit's multiplier into integer literals (`10 ns` → `10`).
    fn parse_time_expr(&mut self) -> Expr {
        let e = self.parse_expr();
        const UNITS: [(&str, i64); 5] = [
            ("ns", 1),
            ("us", 1_000),
            ("ms", 1_000_000),
            ("ps", 0),
            ("fs", 0),
        ];
        let unit = self.peek();
        if let Some(&(_, m)) = UNITS.iter().find(|(name, _)| unit.is_word(name)) {
            self.bump();
            if let Expr::Int { value, span } = e {
                return Expr::Int {
                    value: value * m,
                    span,
                };
            }
        }
        e
    }

    // ------------------------------------------------------ expressions

    /// Concurrent conditional value: `a when c else b when c2 else d`.
    fn parse_when_expr(&mut self) -> Expr {
        let value = self.parse_expr();
        if self.eat_kw(Kw::When) {
            let cond = self.parse_expr();
            if self.expect_kw(Kw::Else).is_none() {
                return value;
            }
            let els = self.parse_when_expr();
            return Expr::When {
                value: Box::new(value),
                cond: Box::new(cond),
                els: Box::new(els),
            };
        }
        value
    }

    fn parse_expr(&mut self) -> Expr {
        // Logical operators (lowest precedence, left-assoc chain).
        let mut lhs = self.parse_relational();
        loop {
            let op = if self.eat_kw(Kw::And) {
                BinOp::And
            } else if self.eat_kw(Kw::Or) {
                BinOp::Or
            } else if self.eat_kw(Kw::Xor) {
                BinOp::Xor
            } else if self.eat_kw(Kw::Nand) {
                BinOp::Nand
            } else if self.eat_kw(Kw::Nor) {
                BinOp::Nor
            } else if self.eat_kw(Kw::Xnor) {
                BinOp::Xnor
            } else {
                return lhs;
            };
            let rhs = self.parse_relational();
            lhs = Expr::Binary {
                op,
                operands: Box::new([lhs, rhs]),
            };
        }
    }

    fn parse_relational(&mut self) -> Expr {
        let lhs = self.parse_shift();
        let op = match self.peek().kind {
            TokenKind::Punct(Punct::Eq) => BinOp::Eq,
            TokenKind::Punct(Punct::Ne) => BinOp::Ne,
            TokenKind::Punct(Punct::Lt) => BinOp::Lt,
            TokenKind::Punct(Punct::SigAssign) => BinOp::Le,
            TokenKind::Punct(Punct::Gt) => BinOp::Gt,
            TokenKind::Punct(Punct::Ge) => BinOp::Ge,
            _ => return lhs,
        };
        self.bump();
        let rhs = self.parse_shift();
        Expr::Binary {
            op,
            operands: Box::new([lhs, rhs]),
        }
    }

    fn parse_shift(&mut self) -> Expr {
        let lhs = self.parse_adding();
        let op = if self.eat_kw(Kw::Sll) {
            BinOp::Sll
        } else if self.eat_kw(Kw::Srl) {
            BinOp::Srl
        } else {
            return lhs;
        };
        let rhs = self.parse_adding();
        Expr::Binary {
            op,
            operands: Box::new([lhs, rhs]),
        }
    }

    fn parse_adding(&mut self) -> Expr {
        let mut lhs = self.parse_term();
        loop {
            let op = match self.peek().kind {
                TokenKind::Punct(Punct::Plus) => BinOp::Add,
                TokenKind::Punct(Punct::Minus) => BinOp::Sub,
                TokenKind::Punct(Punct::Amp) => BinOp::Concat,
                _ => return lhs,
            };
            self.bump();
            let rhs = self.parse_term();
            lhs = Expr::Binary {
                op,
                operands: Box::new([lhs, rhs]),
            };
        }
    }

    fn parse_term(&mut self) -> Expr {
        let mut lhs = self.parse_factor();
        loop {
            let op = match self.peek().kind {
                TokenKind::Punct(Punct::Star) => BinOp::Mul,
                TokenKind::Punct(Punct::Slash) => BinOp::Div,
                TokenKind::Keyword(Kw::Mod) => BinOp::Mod,
                TokenKind::Keyword(Kw::Rem) => BinOp::Rem,
                _ => return lhs,
            };
            self.bump();
            let rhs = self.parse_factor();
            lhs = Expr::Binary {
                op,
                operands: Box::new([lhs, rhs]),
            };
        }
    }

    fn parse_factor(&mut self) -> Expr {
        if self.eat_kw(Kw::Not) {
            let operand = self.parse_factor();
            return Expr::Unary {
                op: UnOp::Not,
                operand: Box::new(operand),
            };
        }
        if self.eat(Punct::Minus) {
            let operand = self.parse_factor();
            return Expr::Unary {
                op: UnOp::Negate,
                operand: Box::new(operand),
            };
        }
        if self.eat(Punct::Plus) {
            let operand = self.parse_factor();
            return Expr::Unary {
                op: UnOp::Plus,
                operand: Box::new(operand),
            };
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Expr {
        let tok = self.peek();
        match tok.kind {
            TokenKind::Number => {
                self.bump();
                // Lexer guarantees digits and `_`; overflow falls back to 0.
                let value = tok
                    .text
                    .bytes()
                    .filter(|&b| b != b'_')
                    .try_fold(0i64, |acc, b| {
                        acc.checked_mul(10)?.checked_add(i64::from(b - b'0'))
                    })
                    .unwrap_or(0);
                Expr::Int {
                    value,
                    span: tok.span,
                }
            }
            TokenKind::CharLit => {
                self.bump();
                Expr::CharLit {
                    ch: tok.text.chars().next().unwrap_or('0'),
                    span: tok.span,
                }
            }
            TokenKind::StrLit => {
                self.bump();
                let is_bits = !tok.text.is_empty()
                    && tok
                        .text
                        .chars()
                        .all(|c| matches!(c, '0' | '1' | 'x' | 'X' | 'z' | 'Z'));
                if is_bits {
                    Expr::BitString {
                        bits: tok.name(),
                        span: tok.span,
                    }
                } else {
                    Expr::StrLit {
                        text: tok.value(),
                        span: tok.span,
                    }
                }
            }
            TokenKind::HexString => {
                self.bump();
                Expr::HexString {
                    digits: tok.name(),
                    span: tok.span,
                }
            }
            TokenKind::Keyword(Kw::True) => {
                self.bump();
                Expr::Bool {
                    value: true,
                    span: tok.span,
                }
            }
            TokenKind::Keyword(Kw::False) => {
                self.bump();
                Expr::Bool {
                    value: false,
                    span: tok.span,
                }
            }
            TokenKind::Keyword(Kw::Others) => {
                // Bare `others` only appears inside aggregates; handled in
                // the LParen branch. Reaching it here is an error.
                self.bump();
                self.error(
                    "'others' is only valid inside an aggregate".into(),
                    tok.span,
                );
                Expr::Int {
                    value: 0,
                    span: tok.span,
                }
            }
            TokenKind::Ident => {
                self.bump();
                let name = tok.name();
                // Attribute?
                if self.check(Punct::Tick) {
                    self.bump();
                    let attr = match self.expect_ident_token() {
                        Some(a) => a.name(),
                        None => Name::new("event"),
                    };
                    return Expr::Attr(Box::new(Attr {
                        name,
                        attr,
                        span: tok.span,
                    }));
                }
                // Call / index / slice?
                if self.eat(Punct::LParen) {
                    let first = self.parse_expr();
                    if self.eat_kw(Kw::Downto) {
                        let right = self.parse_expr();
                        self.expect(Punct::RParen);
                        return Expr::Slice(Box::new(Slice {
                            name,
                            left: first,
                            right,
                            downto: true,
                            span: tok.span,
                        }));
                    }
                    if self.eat_kw(Kw::To) {
                        let right = self.parse_expr();
                        self.expect(Punct::RParen);
                        return Expr::Slice(Box::new(Slice {
                            name,
                            left: first,
                            right,
                            downto: false,
                            span: tok.span,
                        }));
                    }
                    let args = self.list(|p| {
                        p.push(first);
                        while p.eat(Punct::Comma) {
                            let e = p.parse_expr();
                            p.push(e);
                        }
                    });
                    self.expect(Punct::RParen);
                    return Expr::Call(Box::new(Call {
                        name,
                        args,
                        span: tok.span,
                    }));
                }
                Expr::Ident {
                    name,
                    span: tok.span,
                }
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                if self.eat_kw(Kw::Others) {
                    self.expect(Punct::Arrow);
                    let fill = self.parse_expr();
                    self.expect(Punct::RParen);
                    return Expr::Aggregate {
                        fill: Box::new(fill),
                        span: tok.span,
                    };
                }
                let e = self.parse_expr();
                self.expect(Punct::RParen);
                e
            }
            _ => {
                self.error(format!("syntax error near {}", tok.describe()), tok.span);
                self.bump();
                Expr::Int {
                    value: 0,
                    span: tok.span,
                }
            }
        }
    }

    /// Restricted name expression for assignment targets: identifier,
    /// index `a(3)`, or slice `a(7 downto 0)`.
    fn parse_name_expr(&mut self) -> Option<Expr> {
        let tok = self.peek();
        if tok.kind != TokenKind::Ident {
            self.error_expected("a signal name");
            return None;
        }
        match self.parse_primary() {
            e @ (Expr::Ident { .. } | Expr::Call(_) | Expr::Slice(_)) => Some(e),
            _ => {
                self.error("illegal assignment target".into(), tok.span);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use aivril_hdl::source::SourceMap;

    fn parse_src(src: &str) -> (DesignFile, Diagnostics) {
        let mut sources = SourceMap::new();
        let file = sources.add_file("t.vhd", src);
        let mut diags = Diagnostics::new();
        let toks = lex(file, src, &mut diags);
        let unit = parse(toks, &mut diags);
        (unit, diags)
    }

    fn parse_clean(src: &str) -> DesignFile {
        let (unit, diags) = parse_src(src);
        assert!(!diags.has_errors(), "unexpected: {:?}", diags.all());
        unit
    }

    const COUNTER: &str = "\
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity counter is
  generic (WIDTH : integer := 4);
  port (
    clk : in std_logic;
    rst : in std_logic;
    q   : out std_logic_vector(WIDTH-1 downto 0)
  );
end entity;

architecture rtl of counter is
  signal count : unsigned(WIDTH-1 downto 0) := (others => '0');
begin
  process (clk, rst)
  begin
    if rst = '1' then
      count <= (others => '0');
    elsif rising_edge(clk) then
      count <= count + 1;
    end if;
  end process;
  q <= std_logic_vector(count);
end architecture;
";

    #[test]
    fn parses_counter() {
        let unit = parse_clean(COUNTER);
        assert_eq!(unit.entities.len(), 1);
        assert_eq!(unit.architectures.len(), 1);
        let e = &unit.entities[0];
        assert_eq!(e.name, "counter");
        assert_eq!(e.generics.len(), 1);
        assert_eq!(e.ports.len(), 3);
        assert_eq!(e.ports[2].dir, PortDir::Out);
        let a = &unit.architectures[0];
        assert_eq!(a.entity, "counter");
        assert_eq!(a.decls.len(), 1);
        assert_eq!(a.stmts.len(), 2);
    }

    #[test]
    fn process_if_elsif_shape() {
        let unit = parse_clean(COUNTER);
        match &unit.architectures[0].stmts[0] {
            ConcurrentStmt::Process {
                sensitivity, body, ..
            } => {
                assert_eq!(sensitivity.len(), 2);
                match &body[0] {
                    SeqStmt::If { arms, els } => {
                        assert_eq!(arms.len(), 2, "if + elsif");
                        assert!(els.is_none());
                    }
                    other => panic!("expected if, got {other:?}"),
                }
            }
            other => panic!("expected process, got {other:?}"),
        }
    }

    #[test]
    fn testbench_constructs() {
        let unit = parse_clean(
            "entity tb is end entity;\n\
             architecture sim of tb is\n  signal clk : std_logic := '0';\nbegin\n\
             clk <= not clk; -- placeholder\n\
             process\nbegin\n  wait for 10 ns;\n\
             assert clk = '1' report \"Test Case 1 Failed: clk should be 1\" severity error;\n\
             report \"All tests passed successfully!\" severity note;\n  wait;\nend process;\n\
             end architecture;\n",
        );
        match &unit.architectures[0].stmts[1] {
            ConcurrentStmt::Process {
                sensitivity, body, ..
            } => {
                assert!(sensitivity.is_empty());
                assert!(matches!(body[0], SeqStmt::WaitFor { .. }));
                assert!(matches!(
                    body[1],
                    SeqStmt::Assert {
                        severity: SeverityLevel::Error,
                        ..
                    }
                ));
                assert!(matches!(body[2], SeqStmt::Report { .. }));
                assert!(matches!(body[3], SeqStmt::WaitForever { .. }));
            }
            other => panic!("expected process, got {other:?}"),
        }
    }

    #[test]
    fn instance_with_maps() {
        let unit = parse_clean(
            "entity tb is end entity;\narchitecture sim of tb is\n\
             signal a, y : std_logic;\nbegin\n\
             dut: entity work.counter generic map (WIDTH => 8) port map (clk => a, q => open);\n\
             end architecture;\n",
        );
        match &unit.architectures[0].stmts[0] {
            ConcurrentStmt::Instance {
                label,
                entity,
                generic_map,
                port_map,
                ..
            } => {
                assert_eq!(label, "dut");
                assert_eq!(entity, "counter");
                assert_eq!(generic_map.len(), 1);
                assert_eq!(port_map.len(), 2);
                assert!(port_map[1].1.is_none(), "open connection");
            }
            other => panic!("expected instance, got {other:?}"),
        }
    }

    /// `range`, `open` and time units are identifiers, not keywords, and
    /// still match in any case.
    #[test]
    fn contextual_words_ignore_case() {
        let src = "entity tb is end entity;\narchitecture sim of tb is\n\
                   signal n : integer range 0 to 7;\nsignal a : std_logic;\nbegin\n\
                   dut: entity work.counter port map (clk => a, q => open);\n\
                   process\nbegin\n  wait for 10 ns;\nend process;\n\
                   end architecture;\n";
        let lower = parse_clean(src);
        let upper = parse_clean(
            &src.replace("range", "RANGE")
                .replace("open", "Open")
                .replace("ns;", "NS;"),
        );
        assert_eq!(format!("{upper:?}"), format!("{lower:?}"));
        assert!(format!("{lower:?}").contains("value: 10,"), "{lower:?}");
    }

    /// Type marks and severity levels match in any case; the errors
    /// for unknown ones name the word lowercased.
    #[test]
    fn type_marks_and_severities_ignore_case() {
        let src = "library IEEE;\nuse IEEE.Std_Logic_1164.ALL;\n\
                   entity tb is end entity;\narchitecture sim of tb is\n\
                   signal a : Std_Logic;\nsignal b : BOOLEAN;\nsignal n : Natural;\n\
                   signal v : Unsigned(3 downto 0);\nbegin\n\
                   process\nbegin\n  report \"x\" severity Warning;\n  wait;\nend process;\n\
                   end architecture;\n";
        let lower = parse_clean(&src.to_ascii_lowercase().replace("\"x\"", "\"X\""));
        assert_eq!(
            format!("{:?}", parse_clean(&src.replace("\"x\"", "\"X\""))),
            format!("{lower:?}")
        );
        let (_, diags) = parse_src(
            "entity tb is port (a : in Std_Logic_Vec); end entity;\n\
             architecture sim of tb is begin\n\
             process begin report \"x\" severity Fatal; wait; end process;\n\
             end architecture;\n",
        );
        let messages: Vec<&str> = diags.all().iter().map(|d| d.message.as_str()).collect();
        assert_eq!(
            messages,
            [
                "unsupported type 'std_logic_vec'",
                "unknown severity level 'fatal'"
            ]
        );
    }

    #[test]
    fn a_failed_unit_resumes_after_its_own_end() {
        // The `entity` of the failed entity's own `end entity` starts no
        // new unit: one error, and the architecture after it parses.
        let (unit, diags) = parse_src(
            "entity tb is port (a : in std_logic_vec); end entity tb;\n\
             architecture sim of tb is begin end architecture;\n",
        );
        let messages: Vec<&str> = diags.all().iter().map(|d| d.message.as_str()).collect();
        assert_eq!(messages, ["unsupported type 'std_logic_vec'"]);
        assert_eq!(unit.architectures.len(), 1);
        // Likewise after a failed architecture.
        let (unit, diags) = parse_src(
            "architecture sim of tb is bogus; begin end architecture sim;\n\
             entity m is end entity;\n",
        );
        let messages: Vec<&str> = diags.all().iter().map(|d| d.message.as_str()).collect();
        assert_eq!(messages, ["expected declaration or 'begin', found 'bogus'"]);
        assert_eq!(unit.entities.len(), 1);
    }

    #[test]
    fn conditional_concurrent_assignment() {
        let unit = parse_clean(
            "entity m is end entity;\narchitecture a of m is\n\
             signal s, x, y, z : std_logic;\nbegin\n\
             z <= x when s = '1' else y;\nend architecture;\n",
        );
        match &unit.architectures[0].stmts[0] {
            ConcurrentStmt::Assign {
                value: Expr::When { .. },
                ..
            } => {}
            other => panic!("expected when-assign, got {other:?}"),
        }
    }

    #[test]
    fn case_with_others_and_alternatives() {
        let unit = parse_clean(
            "entity m is end entity;\narchitecture a of m is\n\
             signal s : std_logic_vector(1 downto 0);\n  signal y : std_logic;\nbegin\n\
             process (s)\n  begin\n    case s is\n\
             when \"00\" | \"11\" => y <= '1';\n      when others => y <= '0';\n\
             end case;\n  end process;\nend architecture;\n",
        );
        match &unit.architectures[0].stmts[0] {
            ConcurrentStmt::Process { body, .. } => match &body[0] {
                SeqStmt::Case { arms, .. } => {
                    assert_eq!(arms.len(), 2);
                    assert_eq!(arms[0].0.len(), 2, "two alternatives");
                    assert!(arms[1].0.is_empty(), "others = empty choices");
                }
                other => panic!("expected case, got {other:?}"),
            },
            other => panic!("expected process, got {other:?}"),
        }
    }

    #[test]
    fn missing_semicolon_is_error() {
        let (_, diags) = parse_src("entity e is\n  port (a : in std_logic)\nend entity;\n");
        assert!(diags.has_errors());
    }

    #[test]
    fn missing_end_if_is_error() {
        let (_, diags) = parse_src(
            "entity e is end entity;\narchitecture a of e is\nsignal x : std_logic;\nbegin\n\
             process (x)\nbegin\n  if x = '1' then\n    x <= '0';\nend process;\n\
             end architecture;\n",
        );
        assert!(diags.has_errors());
    }

    #[test]
    fn for_loop_in_testbench() {
        let unit = parse_clean(
            "entity tb is end entity;\narchitecture sim of tb is\n\
             signal v : std_logic_vector(3 downto 0);\nbegin\n\
             process\nbegin\n  for i in 0 to 15 loop\n    wait for 5 ns;\n  end loop;\n\
             wait;\nend process;\nend architecture;\n",
        );
        match &unit.architectures[0].stmts[0] {
            ConcurrentStmt::Process { body, .. } => {
                assert!(matches!(&body[0], SeqStmt::For(f) if !f.downto));
            }
            other => panic!("expected process, got {other:?}"),
        }
    }
}
