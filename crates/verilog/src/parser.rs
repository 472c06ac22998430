//! Recursive-descent parser for the Verilog-2001 subset.
//!
//! The parser is resilient: syntax errors are recorded as Vivado-style
//! diagnostics and parsing resynchronises at `;` / `endmodule`
//! boundaries, so a single fault produces a focused log rather than an
//! avalanche — important for the quality of the Review Agent's
//! corrective prompts.
//!
//! Lists are collected on [`Scratch`] stacks owned by the parser and
//! moved out with one exact allocation each ([`aivril_hdl::scratch`]),
//! so an AST list is never larger than what it holds.

use crate::ast::*;
use crate::token::{Keyword as Kw, Punct, Token, TokenKind};
use aivril_hdl::cursor::Cursor;
use aivril_hdl::diag::{codes, Diagnostics};
use aivril_hdl::scratch::Lists;
use aivril_hdl::source::Span;
use aivril_hdl::Name;

/// Parses a token stream into modules, appending errors to `diags`.
pub fn parse(tokens: Vec<Token<'_>>, diags: &mut Diagnostics) -> SourceUnit {
    let mut p = Parser {
        tokens,
        pos: 0,
        diags,
        scratch: Scratch::default(),
    };
    let mut unit = SourceUnit::default();
    while !p.at_eof() {
        if p.eat_kw(Kw::Module) {
            if let Some(m) = p.parse_module() {
                unit.modules.push(std::sync::Arc::new(m));
            }
        } else {
            p.error_expected("'module'");
            p.bump();
            // Skip forward to the next 'module'.
            while !p.at_eof() && !p.check_kw(Kw::Module) {
                p.bump();
            }
        }
    }
    unit
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
        items: Item,
        params: ParamDecl,
        ports: Port,
        names: (String, Span),
        net_names: (String, Span, Option<Expr>),
        mem_names: MemName,
        overrides: (String, Expr),
        inputs: FunctionInput,
        connections: (String, Option<Expr>, Span),
        stmts: Stmt,
        arms: (Box<[Expr]>, Stmt),
        events: EventExpr,
        sys_args: SysArg,
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
    const SYNTAX: &'static str = codes::VLOG_SYNTAX;

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
    /// Skips tokens until after the next `;`, or until a module boundary.
    fn sync_to_semi(&mut self) {
        while !self.at_eof() {
            if self.eat(Punct::Semi) {
                return;
            }
            if self.check_kw(Kw::Endmodule) || self.check_kw(Kw::Module) {
                return;
            }
            self.bump();
        }
    }

    // ------------------------------------------------------ module level

    fn parse_module(&mut self) -> Option<Module> {
        let (name, span) = self.expect_ident()?;
        let mut params = Box::default();
        let mut ports = Box::default();
        let mut nonansi_ports = Box::default();
        if self.eat(Punct::Hash) {
            self.expect(Punct::LParen)?;
            params = self.list(Self::parse_param_list);
            self.expect(Punct::RParen);
        }
        if self.eat(Punct::LParen) {
            // A header whose first entry is a bare identifier is the
            // non-ANSI style: directions come from body declarations.
            if self.peek().kind == TokenKind::Ident {
                nonansi_ports = self.list(|p| {
                    while let Some(port) = p.expect_ident() {
                        p.push(port);
                        if !p.eat(Punct::Comma) {
                            break;
                        }
                    }
                });
            } else {
                ports = self.list(Self::parse_port_list);
            }
            self.expect(Punct::RParen);
        }
        if self.expect(Punct::Semi).is_none() {
            self.sync_to_semi();
        }
        let items = self.list(|p| loop {
            if p.eat_kw(Kw::Endmodule) {
                break;
            }
            if p.at_eof() {
                p.error_expected("'endmodule'");
                break;
            }
            if p.attempt::<Item>(Self::parse_item).is_none() {
                p.sync_to_semi();
            }
        });
        Some(Module {
            name,
            span,
            params,
            ports,
            nonansi_ports,
            items,
        })
    }

    fn parse_param_list(&mut self) {
        loop {
            self.eat_kw(Kw::Parameter);
            let Some((name, span)) = self.expect_ident() else {
                return;
            };
            if self.expect(Punct::Assign).is_none() {
                return;
            }
            let default = self.parse_expr();
            self.push(ParamDecl {
                name,
                default,
                span,
                local: false,
            });
            if !self.eat(Punct::Comma) {
                return;
            }
        }
    }

    fn parse_port_list(&mut self) {
        if self.check(Punct::RParen) {
            return;
        }
        let mut dir = PortDir::Input;
        let mut net_type = NetType::Wire;
        let mut range: Option<(Expr, Expr)> = None;
        loop {
            let explicit_dir = if self.eat_kw(Kw::Input) {
                Some(PortDir::Input)
            } else if self.eat_kw(Kw::Output) {
                Some(PortDir::Output)
            } else if self.eat_kw(Kw::Inout) {
                Some(PortDir::Inout)
            } else {
                None
            };
            if let Some(d) = explicit_dir {
                dir = d;
                net_type = if self.eat_kw(Kw::Reg) {
                    NetType::Reg
                } else {
                    self.eat_kw(Kw::Wire);
                    NetType::Wire
                };
                self.eat_kw(Kw::Signed);
                range = if self.check(Punct::LBracket) {
                    self.parse_range()
                } else {
                    None
                };
            }
            let Some((name, span)) = self.expect_ident() else {
                return;
            };
            self.push(Port {
                dir,
                net_type,
                range: range.clone(),
                name,
                span,
            });
            if !self.eat(Punct::Comma) {
                return;
            }
        }
    }

    fn parse_range(&mut self) -> Option<(Expr, Expr)> {
        self.expect(Punct::LBracket)?;
        let msb = self.parse_expr();
        self.expect(Punct::Colon)?;
        let lsb = self.parse_expr();
        self.expect(Punct::RBracket)?;
        Some((msb, lsb))
    }

    /// Parses one body declaration or statement, pushing its items
    /// (one declaration can make several).
    fn parse_item(&mut self) -> Option<()> {
        let tok = self.peek();
        match tok.kind {
            TokenKind::Keyword(Kw::Input)
            | TokenKind::Keyword(Kw::Output)
            | TokenKind::Keyword(Kw::Inout) => {
                let dir = if self.eat_kw(Kw::Input) {
                    PortDir::Input
                } else if self.eat_kw(Kw::Output) {
                    PortDir::Output
                } else {
                    self.bump();
                    PortDir::Inout
                };
                let net_type = if self.eat_kw(Kw::Reg) {
                    NetType::Reg
                } else {
                    self.eat_kw(Kw::Wire);
                    NetType::Wire
                };
                self.eat_kw(Kw::Signed);
                let range = if self.check(Punct::LBracket) {
                    self.parse_range()
                } else {
                    None
                };
                let names = self.try_list(Self::parse_name_list)?;
                self.expect(Punct::Semi)?;
                self.push(Item::PortDecl {
                    dir,
                    net_type,
                    range,
                    names,
                });
                Some(())
            }
            TokenKind::Keyword(Kw::Wire) | TokenKind::Keyword(Kw::Reg) => {
                let net_type = if self.eat_kw(Kw::Reg) {
                    NetType::Reg
                } else {
                    self.bump();
                    NetType::Wire
                };
                self.eat_kw(Kw::Signed);
                let range = if self.check(Punct::LBracket) {
                    self.parse_range()
                } else {
                    None
                };
                // Plain nets and memories are two lists filled side by
                // side, each on its own stack.
                let mut names = Box::default();
                let mems = self.try_list::<MemName>(|p| {
                    names = p.try_list(|p| loop {
                        let (name, span) = p.expect_ident()?;
                        if p.check(Punct::LBracket) {
                            // Array dimension: a memory declaration.
                            let (a, b) = p.parse_range()?;
                            if net_type != NetType::Reg {
                                p.error("memories must be declared as 'reg'".into(), span);
                            }
                            p.push((name, (a, b), span));
                        } else {
                            let init = if p.eat(Punct::Assign) {
                                Some(p.parse_expr())
                            } else {
                                None
                            };
                            p.push((name, span, init));
                        }
                        if !p.eat(Punct::Comma) {
                            return Some(());
                        }
                    })?;
                    Some(())
                })?;
                self.expect(Punct::Semi)?;
                if !names.is_empty() {
                    self.push(Item::NetDecl {
                        net_type,
                        range: range.clone(),
                        names,
                    });
                }
                if !mems.is_empty() {
                    self.push(Item::MemDecl {
                        width_range: range,
                        names: mems,
                    });
                }
                Some(())
            }
            TokenKind::Keyword(Kw::Integer) => {
                self.bump();
                let names = self.try_list(Self::parse_name_list)?;
                self.expect(Punct::Semi)?;
                self.push(Item::IntegerDecl { names });
                Some(())
            }
            TokenKind::Keyword(Kw::Parameter) | TokenKind::Keyword(Kw::Localparam) => {
                let local = tok.kind == TokenKind::Keyword(Kw::Localparam);
                self.bump();
                loop {
                    let (name, span) = self.expect_ident()?;
                    self.expect(Punct::Assign)?;
                    let default = self.parse_expr();
                    self.push(Item::Param(ParamDecl {
                        name,
                        default,
                        span,
                        local,
                    }));
                    if !self.eat(Punct::Comma) {
                        break;
                    }
                }
                self.expect(Punct::Semi)?;
                Some(())
            }
            TokenKind::Keyword(Kw::Assign) => {
                self.bump();
                loop {
                    let target = self.parse_lvalue_expr()?;
                    self.expect(Punct::Assign)?;
                    let expr = self.parse_expr();
                    self.push(Item::ContinuousAssign {
                        target,
                        expr,
                        span: tok.span,
                    });
                    if !self.eat(Punct::Comma) {
                        break;
                    }
                }
                self.expect(Punct::Semi)?;
                Some(())
            }
            TokenKind::Keyword(Kw::Always) => {
                self.bump();
                let events = if self.eat(Punct::At) {
                    Some(self.parse_event_list()?)
                } else {
                    None
                };
                let body = self.parse_stmt()?;
                self.push(Item::Always {
                    events,
                    body,
                    span: tok.span,
                });
                Some(())
            }
            TokenKind::Keyword(Kw::Initial) => {
                self.bump();
                let body = self.parse_stmt()?;
                self.push(Item::Initial {
                    body,
                    span: tok.span,
                });
                Some(())
            }
            TokenKind::Keyword(Kw::Function) => {
                self.bump();
                // Tolerate `automatic`.
                if self.peek().kind == TokenKind::Ident && self.peek().text == "automatic" {
                    self.bump();
                }
                let range = if self.check(Punct::LBracket) {
                    self.parse_range()
                } else {
                    None
                };
                let (name, _) = self.expect_ident()?;
                self.expect(Punct::Semi)?;
                let inputs = self.try_list(|p| {
                    while p.eat_kw(Kw::Input) {
                        p.eat_kw(Kw::Wire);
                        p.eat_kw(Kw::Signed);
                        let arange = if p.check(Punct::LBracket) {
                            p.parse_range()
                        } else {
                            None
                        };
                        loop {
                            let (aname, aspan) = p.expect_ident()?;
                            p.push((aname, arange.clone(), aspan));
                            if !p.eat(Punct::Comma) {
                                break;
                            }
                        }
                        p.expect(Punct::Semi)?;
                    }
                    Some(())
                })?;
                let body = self.parse_stmt()?;
                self.expect_kw(Kw::Endfunction)?;
                self.push(Item::Function(Box::new(FunctionDecl {
                    name,
                    range,
                    inputs,
                    body,
                    span: tok.span,
                })));
                Some(())
            }
            TokenKind::Ident => {
                // Module instantiation: modname [#(...)] instname ( ... ) ;
                let module = self.bump().value();
                let mut param_overrides = Box::default();
                if self.eat(Punct::Hash) {
                    self.expect(Punct::LParen)?;
                    param_overrides = self.try_list(|p| loop {
                        if p.eat(Punct::Dot) {
                            let (pname, _) = p.expect_ident()?;
                            p.expect(Punct::LParen)?;
                            let e = p.parse_expr();
                            p.expect(Punct::RParen)?;
                            p.push((pname, e));
                        } else {
                            // Positional parameter override — rare; named
                            // slot is synthesised by ordinal later.
                            let e = p.parse_expr();
                            p.push((String::new(), e));
                        }
                        if !p.eat(Punct::Comma) {
                            return Some(());
                        }
                    })?;
                    self.expect(Punct::RParen)?;
                }
                let (name, _) = self.expect_ident()?;
                self.expect(Punct::LParen)?;
                let connections = self.parse_connections()?;
                self.expect(Punct::RParen)?;
                self.expect(Punct::Semi)?;
                self.push(Item::Instance {
                    module,
                    name,
                    param_overrides,
                    connections,
                    span: tok.span,
                });
                Some(())
            }
            _ => {
                self.error(format!("syntax error near {}", tok.describe()), tok.span);
                None
            }
        }
    }

    /// `name {, name}`, pushed as `(name, span)`.
    fn parse_name_list(&mut self) -> Option<()> {
        loop {
            let name = self.expect_ident()?;
            self.push(name);
            if !self.eat(Punct::Comma) {
                return Some(());
            }
        }
    }

    fn parse_connections(&mut self) -> Option<Connections> {
        if self.check(Punct::RParen) {
            return Some(Connections::Positional(Box::default()));
        }
        if self.check(Punct::Dot) {
            let conns = self.try_list(|p| loop {
                let dot = p.expect(Punct::Dot)?;
                let (pname, _) = p.expect_ident()?;
                p.expect(Punct::LParen)?;
                let expr = if p.check(Punct::RParen) {
                    None
                } else {
                    Some(p.parse_expr())
                };
                p.expect(Punct::RParen)?;
                p.push((pname, expr, dot.span));
                if !p.eat(Punct::Comma) {
                    return Some(());
                }
            })?;
            Some(Connections::Named(conns))
        } else {
            Some(Connections::Positional(self.parse_expr_list()))
        }
    }

    /// `expr {, expr}`.
    fn parse_expr_list(&mut self) -> Box<[Expr]> {
        self.list(|p| loop {
            let e = p.parse_expr();
            p.push(e);
            if !p.eat(Punct::Comma) {
                break;
            }
        })
    }

    fn parse_event_list(&mut self) -> Option<Box<[EventExpr]>> {
        // Forms: @* | @(*) | @(ev [or|, ev]*)
        if self.check(Punct::Star) {
            self.bump();
            return Some(Box::default());
        }
        self.expect(Punct::LParen)?;
        if self.eat(Punct::Star) {
            self.expect(Punct::RParen)?;
            return Some(Box::default());
        }
        let events = self.list(|p| loop {
            let ev = if p.eat_kw(Kw::Posedge) {
                EventExpr::Posedge(p.parse_expr())
            } else if p.eat_kw(Kw::Negedge) {
                EventExpr::Negedge(p.parse_expr())
            } else {
                EventExpr::Any(p.parse_expr())
            };
            p.push(ev);
            if !(p.eat_kw(Kw::Or) || p.eat(Punct::Comma)) {
                break;
            }
        });
        self.expect(Punct::RParen)?;
        Some(events)
    }

    // ------------------------------------------------------- statements

    fn parse_stmt(&mut self) -> Option<Stmt> {
        let tok = self.peek();
        match tok.kind {
            TokenKind::Keyword(Kw::Begin) => {
                self.bump();
                // Optional block label.
                if self.eat(Punct::Colon) {
                    self.expect_ident();
                }
                let stmts = self.list(|p| loop {
                    if p.eat_kw(Kw::End) {
                        break;
                    }
                    if p.at_eof() {
                        p.error("expected 'end', found end of file".into(), tok.span);
                        break;
                    }
                    match p.parse_stmt() {
                        Some(s) => p.push(s),
                        None => {
                            p.sync_to_semi();
                            if p.check_kw(Kw::Endmodule) {
                                break;
                            }
                        }
                    }
                });
                Some(Stmt::Block(stmts))
            }
            TokenKind::Keyword(Kw::If) => {
                self.bump();
                self.expect(Punct::LParen)?;
                let cond = self.parse_expr();
                self.expect(Punct::RParen)?;
                let then = Box::new(self.parse_stmt()?);
                let els = if self.eat_kw(Kw::Else) {
                    Some(Box::new(self.parse_stmt()?))
                } else {
                    None
                };
                Some(Stmt::If { cond, then, els })
            }
            TokenKind::Keyword(Kw::Case)
            | TokenKind::Keyword(Kw::Casez)
            | TokenKind::Keyword(Kw::Casex) => {
                let wildcard = !matches!(tok.kind, TokenKind::Keyword(Kw::Case));
                self.bump();
                self.expect(Punct::LParen)?;
                let subject = self.parse_expr();
                self.expect(Punct::RParen)?;
                let mut default = None;
                let arms = self.try_list(|p| loop {
                    if p.eat_kw(Kw::Endcase) {
                        return Some(());
                    }
                    if p.at_eof() {
                        p.error("expected 'endcase', found end of file".into(), tok.span);
                        return Some(());
                    }
                    if p.eat_kw(Kw::Default) {
                        p.eat(Punct::Colon);
                        default = Some(Box::new(p.parse_stmt()?));
                        continue;
                    }
                    let labels = p.parse_expr_list();
                    p.expect(Punct::Colon)?;
                    let body = p.parse_stmt()?;
                    p.push((labels, body));
                })?;
                Some(Stmt::Case {
                    subject,
                    arms,
                    default,
                    wildcard,
                    span: tok.span,
                })
            }
            TokenKind::Keyword(Kw::For) => {
                self.bump();
                self.expect(Punct::LParen)?;
                let init_span = self.peek().span;
                let init_t = self.parse_lvalue_expr()?;
                self.expect(Punct::Assign)?;
                let init_v = self.parse_expr();
                self.expect(Punct::Semi)?;
                let cond = self.parse_expr();
                self.expect(Punct::Semi)?;
                let step_span = self.peek().span;
                let step_t = self.parse_lvalue_expr()?;
                self.expect(Punct::Assign)?;
                let step_v = self.parse_expr();
                self.expect(Punct::RParen)?;
                let body = Box::new(self.parse_stmt()?);
                Some(Stmt::For {
                    init: Box::new(Stmt::Blocking {
                        target: init_t,
                        value: init_v,
                        span: init_span,
                    }),
                    cond,
                    step: Box::new(Stmt::Blocking {
                        target: step_t,
                        value: step_v,
                        span: step_span,
                    }),
                    body,
                })
            }
            TokenKind::Keyword(Kw::While) => {
                self.bump();
                self.expect(Punct::LParen)?;
                let cond = self.parse_expr();
                self.expect(Punct::RParen)?;
                Some(Stmt::While {
                    cond,
                    body: Box::new(self.parse_stmt()?),
                })
            }
            TokenKind::Keyword(Kw::Repeat) => {
                self.bump();
                self.expect(Punct::LParen)?;
                let count = self.parse_expr();
                self.expect(Punct::RParen)?;
                Some(Stmt::Repeat {
                    count,
                    body: Box::new(self.parse_stmt()?),
                })
            }
            TokenKind::Keyword(Kw::Forever) => {
                self.bump();
                Some(Stmt::Forever {
                    body: Box::new(self.parse_stmt()?),
                })
            }
            TokenKind::Keyword(Kw::Wait) => {
                self.bump();
                self.expect(Punct::LParen)?;
                let cond = self.parse_expr();
                self.expect(Punct::RParen)?;
                let then = self.parse_controlled_stmt()?;
                Some(Stmt::WaitCond { cond, then })
            }
            TokenKind::Punct(Punct::Hash) => {
                self.bump();
                let amount = self.parse_delay_value();
                let then = self.parse_controlled_stmt()?;
                Some(Stmt::Delay { amount, then })
            }
            TokenKind::Punct(Punct::At) => {
                self.bump();
                let events = self.parse_event_list()?;
                let then = self.parse_controlled_stmt()?;
                Some(Stmt::EventControl {
                    events,
                    then,
                    span: tok.span,
                })
            }
            TokenKind::SysIdent => {
                let name = self.bump().name();
                let args = self.try_list(|p| {
                    if p.eat(Punct::LParen) {
                        if !p.check(Punct::RParen) {
                            loop {
                                let arg = if p.peek().kind == TokenKind::Str {
                                    SysArg::Str(p.bump().value())
                                } else {
                                    SysArg::Expr(p.parse_expr())
                                };
                                p.push(arg);
                                if !p.eat(Punct::Comma) {
                                    break;
                                }
                            }
                        }
                        p.expect(Punct::RParen)?;
                    }
                    Some(())
                })?;
                self.expect(Punct::Semi)?;
                Some(Stmt::SysCall {
                    name,
                    args,
                    span: tok.span,
                })
            }
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Some(Stmt::Null)
            }
            TokenKind::Ident | TokenKind::Punct(Punct::LBrace) => {
                let target = self.parse_lvalue_expr()?;
                let span = tok.span;
                if self.eat(Punct::Assign) {
                    // Optional intra-assignment delay: `a = #1 b;` — the
                    // delay is honoured as a pre-assignment wait.
                    if self.eat(Punct::Hash) {
                        let amount = self.parse_delay_value();
                        let value = self.parse_expr();
                        self.expect(Punct::Semi)?;
                        return Some(Stmt::Block(Box::new([
                            Stmt::Delay { amount, then: None },
                            Stmt::Blocking {
                                target,
                                value,
                                span,
                            },
                        ])));
                    }
                    let value = self.parse_expr();
                    self.expect(Punct::Semi)?;
                    Some(Stmt::Blocking {
                        target,
                        value,
                        span,
                    })
                } else if self.eat(Punct::LtEqual) {
                    let value = self.parse_expr();
                    self.expect(Punct::Semi)?;
                    Some(Stmt::Nonblocking {
                        target,
                        value,
                        span,
                    })
                } else {
                    self.error_expected("'=' or '<=' after assignment target");
                    None
                }
            }
            _ => {
                self.error(format!("syntax error near {}", tok.describe()), tok.span);
                None
            }
        }
    }

    /// Statement controlled by `#d` / `@(...)`: either a real statement
    /// or a bare `;`.
    fn parse_controlled_stmt(&mut self) -> Option<Option<Box<Stmt>>> {
        if self.eat(Punct::Semi) {
            return Some(None);
        }
        Some(Some(Box::new(self.parse_stmt()?)))
    }

    fn parse_delay_value(&mut self) -> Expr {
        if self.eat(Punct::LParen) {
            let e = self.parse_expr();
            self.expect(Punct::RParen);
            e
        } else {
            // number or identifier
            let tok = self.peek();
            match tok.kind {
                TokenKind::Number => {
                    self.bump();
                    Expr::Number {
                        text: tok.name(),
                        span: tok.span,
                    }
                }
                TokenKind::Ident => {
                    self.bump();
                    Expr::Ident {
                        name: tok.name(),
                        span: tok.span,
                    }
                }
                _ => {
                    self.error_expected("delay value");
                    Expr::Number {
                        text: Name::new("0"),
                        span: tok.span,
                    }
                }
            }
        }
    }

    /// Restricted expression for assignment targets: identifier with
    /// optional select, or a concatenation of such.
    fn parse_lvalue_expr(&mut self) -> Option<Expr> {
        if self.eat(Punct::LBrace) {
            let parts = self.try_list(|p| loop {
                let part = p.parse_lvalue_expr()?;
                p.push(part);
                if !p.eat(Punct::Comma) {
                    return Some(());
                }
            })?;
            self.expect(Punct::RBrace)?;
            return Some(Expr::Concat(parts));
        }
        let tok = self.expect_ident_token()?;
        let mut expr = Expr::Ident {
            name: tok.name(),
            span: tok.span,
        };
        if self.eat(Punct::LBracket) {
            let first = self.parse_expr();
            if self.eat(Punct::Colon) {
                let lsb = self.parse_expr();
                self.expect(Punct::RBracket)?;
                expr = Expr::RangeSel {
                    base: Box::new(expr),
                    msb: Box::new(first),
                    lsb: Box::new(lsb),
                };
            } else {
                self.expect(Punct::RBracket)?;
                expr = Expr::Index {
                    base: Box::new(expr),
                    index: Box::new(first),
                };
            }
        }
        Some(expr)
    }

    // ------------------------------------------------------ expressions

    fn parse_expr(&mut self) -> Expr {
        self.parse_ternary()
    }

    fn parse_ternary(&mut self) -> Expr {
        let cond = self.parse_binary(0);
        if self.eat(Punct::Question) {
            let then = self.parse_expr();
            if self.expect(Punct::Colon).is_none() {
                return cond;
            }
            let els = self.parse_expr();
            return Expr::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            };
        }
        cond
    }

    /// The binary operator at the cursor and its binding level, 0
    /// (`||`) to 10 (`**`), from IEEE 1364-2005 Table 5-4.
    fn binop(&self) -> Option<(BinOp, u8)> {
        use Punct::*;
        let TokenKind::Punct(p) = self.peek().kind else {
            return None;
        };
        Some(match p {
            PipePipe => (BinOp::LogicalOr, 0),
            AmpAmp => (BinOp::LogicalAnd, 1),
            Pipe => (BinOp::Or, 2),
            Caret => (BinOp::Xor, 3),
            TildeCaret => (BinOp::Xnor, 3),
            Amp => (BinOp::And, 4),
            EqEq => (BinOp::Eq, 5),
            NotEq => (BinOp::Ne, 5),
            CaseEq => (BinOp::CaseEq, 5),
            CaseNotEq => (BinOp::CaseNe, 5),
            Lt => (BinOp::Lt, 6),
            LtEqual => (BinOp::Le, 6),
            Gt => (BinOp::Gt, 6),
            GtEq => (BinOp::Ge, 6),
            Shl => (BinOp::Shl, 7),
            Shr => (BinOp::Shr, 7),
            Plus => (BinOp::Add, 8),
            Minus => (BinOp::Sub, 8),
            Star => (BinOp::Mul, 9),
            Slash => (BinOp::Div, 9),
            Percent => (BinOp::Rem, 9),
            Star2 => (BinOp::Pow, 10),
            _ => return None,
        })
    }

    /// Precedence climbing: an operand, then every binary operator that
    /// binds at `min_level` or tighter. Every binary operator is
    /// left-associative (IEEE 1364-2005 §5.1.2), so a right operand
    /// takes only operators that bind strictly tighter than its own.
    fn parse_binary(&mut self, min_level: u8) -> Expr {
        let mut lhs = self.parse_unary();
        while let Some((op, level)) = self.binop().filter(|&(_, level)| level >= min_level) {
            self.bump();
            let rhs = self.parse_binary(level + 1);
            lhs = Expr::Binary {
                op,
                operands: Box::new([lhs, rhs]),
            };
        }
        lhs
    }

    fn parse_unary(&mut self) -> Expr {
        use Punct::*;
        let op = match self.peek().kind {
            TokenKind::Punct(Tilde) => Some(UnOp::Not),
            TokenKind::Punct(Bang) => Some(UnOp::LogicalNot),
            TokenKind::Punct(Minus) => Some(UnOp::Negate),
            TokenKind::Punct(Plus) => Some(UnOp::Plus),
            TokenKind::Punct(Amp) => Some(UnOp::ReduceAnd),
            TokenKind::Punct(Pipe) => Some(UnOp::ReduceOr),
            TokenKind::Punct(Caret) => Some(UnOp::ReduceXor),
            TokenKind::Punct(TildeAmp) => Some(UnOp::ReduceNand),
            TokenKind::Punct(TildePipe) => Some(UnOp::ReduceNor),
            TokenKind::Punct(TildeCaret) => Some(UnOp::ReduceXnor),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.parse_unary();
            return Expr::Unary {
                op,
                operand: Box::new(operand),
            };
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Expr {
        let mut expr = self.parse_primary();
        while self.check(Punct::LBracket) {
            self.bump();
            let first = self.parse_expr();
            if self.eat(Punct::Colon) {
                let lsb = self.parse_expr();
                self.expect(Punct::RBracket);
                expr = Expr::RangeSel {
                    base: Box::new(expr),
                    msb: Box::new(first),
                    lsb: Box::new(lsb),
                };
            } else {
                self.expect(Punct::RBracket);
                expr = Expr::Index {
                    base: Box::new(expr),
                    index: Box::new(first),
                };
            }
        }
        expr
    }

    fn parse_primary(&mut self) -> Expr {
        let tok = self.peek();
        match tok.kind {
            TokenKind::Number => {
                self.bump();
                Expr::Number {
                    text: tok.name(),
                    span: tok.span,
                }
            }
            TokenKind::Ident => {
                self.bump();
                if self.check(Punct::LParen) {
                    // Function call in expression position.
                    self.bump();
                    let args = if self.check(Punct::RParen) {
                        Box::default()
                    } else {
                        self.parse_expr_list()
                    };
                    self.expect(Punct::RParen);
                    return Expr::Call(Box::new(Call {
                        name: tok.value(),
                        args,
                        span: tok.span,
                    }));
                }
                Expr::Ident {
                    name: tok.name(),
                    span: tok.span,
                }
            }
            TokenKind::SysIdent if tok.text == "$time" => {
                self.bump();
                Expr::Time { span: tok.span }
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.parse_expr();
                self.expect(Punct::RParen);
                e
            }
            TokenKind::Punct(Punct::LBrace) => {
                self.bump();
                let first = self.parse_expr();
                if self.check(Punct::LBrace) {
                    // Replication {n{v}}
                    self.bump();
                    let value = self.parse_expr();
                    // Additional items inside replication braces would be a
                    // nested concat; support {n{a,b}} via Concat.
                    let value = if self.eat(Punct::Comma) {
                        Expr::Concat(self.list(|p| {
                            p.push(value);
                            loop {
                                let e = p.parse_expr();
                                p.push(e);
                                if !p.eat(Punct::Comma) {
                                    break;
                                }
                            }
                        }))
                    } else {
                        value
                    };
                    self.expect(Punct::RBrace);
                    self.expect(Punct::RBrace);
                    return Expr::Repeat {
                        count: Box::new(first),
                        value: Box::new(value),
                    };
                }
                let parts = self.list(|p| {
                    p.push(first);
                    while p.eat(Punct::Comma) {
                        let e = p.parse_expr();
                        p.push(e);
                    }
                });
                self.expect(Punct::RBrace);
                Expr::Concat(parts)
            }
            _ => {
                self.error(format!("syntax error near {}", tok.describe()), tok.span);
                self.bump();
                Expr::Number {
                    text: Name::new("0"),
                    span: tok.span,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use aivril_hdl::source::SourceMap;

    fn parse_src(src: &str) -> (SourceUnit, Diagnostics) {
        let mut sources = SourceMap::new();
        let file = sources.add_file("t.v", src);
        let mut diags = Diagnostics::new();
        let toks = lex(file, src, &mut diags);
        let unit = parse(toks, &mut diags);
        (unit, diags)
    }

    fn parse_clean(src: &str) -> SourceUnit {
        let (unit, diags) = parse_src(src);
        assert!(!diags.has_errors(), "unexpected errors: {:?}", diags.all());
        unit
    }

    #[test]
    fn minimal_module() {
        let unit = parse_clean("module m; endmodule");
        assert_eq!(unit.modules.len(), 1);
        assert_eq!(unit.modules[0].name, "m");
    }

    #[test]
    fn ansi_ports_with_inherited_direction() {
        let unit = parse_clean(
            "module m(input wire a, b, output reg [7:0] q, input [3:0] sel); endmodule",
        );
        let ports = &unit.modules[0].ports;
        assert_eq!(ports.len(), 4);
        assert_eq!(ports[0].dir, PortDir::Input);
        assert_eq!(ports[1].dir, PortDir::Input, "b inherits input");
        assert_eq!(ports[1].name, "b");
        assert_eq!(ports[2].dir, PortDir::Output);
        assert_eq!(ports[2].net_type, NetType::Reg);
        assert!(ports[2].range.is_some());
        assert_eq!(ports[3].name, "sel");
    }

    #[test]
    fn parameters_header_and_body() {
        let unit = parse_clean("module m #(parameter W = 8, N = 4); localparam D = W*N; endmodule");
        let m = &unit.modules[0];
        assert_eq!(m.params.len(), 2);
        assert!(matches!(m.items[0], Item::Param(ref p) if p.local && p.name == "D"));
    }

    #[test]
    fn always_posedge_with_nonblocking() {
        let unit = parse_clean(
            "module m(input clk, input d, output reg q);\n\
             always @(posedge clk) q <= d;\nendmodule",
        );
        match &unit.modules[0].items[0] {
            Item::Always {
                events: Some(ev),
                body,
                ..
            } => {
                assert_eq!(ev.len(), 1);
                assert!(matches!(ev[0], EventExpr::Posedge(_)));
                assert!(matches!(body, Stmt::Nonblocking { .. }));
            }
            other => panic!("expected always, got {other:?}"),
        }
    }

    #[test]
    fn always_star_and_case() {
        let unit = parse_clean(
            "module m(input [1:0] s, output reg y);\n\
             always @* begin\n  case (s)\n    2'b00: y = 1;\n    2'b01, 2'b10: y = 0;\n\
             default: y = 1'bx;\n  endcase\nend\nendmodule",
        );
        match &unit.modules[0].items[0] {
            Item::Always {
                events: Some(ev),
                body,
                ..
            } => {
                assert!(ev.is_empty(), "@* parses as empty event list");
                match body {
                    Stmt::Block(stmts) => match &stmts[0] {
                        Stmt::Case {
                            arms,
                            default,
                            wildcard,
                            ..
                        } => {
                            assert_eq!(arms.len(), 2);
                            assert_eq!(arms[1].0.len(), 2, "multi-label arm");
                            assert!(default.is_some());
                            assert!(!wildcard);
                        }
                        other => panic!("expected case, got {other:?}"),
                    },
                    other => panic!("expected block, got {other:?}"),
                }
            }
            other => panic!("expected always, got {other:?}"),
        }
    }

    #[test]
    fn instance_with_named_connections_and_params() {
        let unit = parse_clean(
            "module tb; wire [3:0] y; reg [3:0] a;\n\
             adder #(.W(4)) u_add (.sum(y), .a(a), .b(4'd3));\nendmodule",
        );
        match unit.modules[0].items.last().expect("instance item") {
            Item::Instance {
                module,
                name,
                param_overrides,
                connections,
                ..
            } => {
                assert_eq!(module, "adder");
                assert_eq!(name, "u_add");
                assert_eq!(param_overrides.len(), 1);
                match connections {
                    Connections::Named(c) => assert_eq!(c.len(), 3),
                    Connections::Positional(_) => panic!("expected named"),
                }
            }
            other => panic!("expected instance, got {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let unit = parse_clean("module m; wire y; assign y = 1 + 2 * 3 == 7 && 1;\nendmodule");
        match &unit.modules[0].items[1] {
            Item::ContinuousAssign { expr, .. } => {
                // Top must be &&.
                assert!(matches!(
                    expr,
                    Expr::Binary {
                        op: BinOp::LogicalAnd,
                        ..
                    }
                ));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    /// The binary operators of IEEE 1364-2005 Table 5-4, highest level
    /// last, with the `BinOp` each one parses to.
    const BINARY_OPS: [(&str, &str, u8); 22] = [
        ("||", "LogicalOr", 0),
        ("&&", "LogicalAnd", 1),
        ("|", "Or", 2),
        ("^", "Xor", 3),
        ("~^", "Xnor", 3),
        ("&", "And", 4),
        ("==", "Eq", 5),
        ("!=", "Ne", 5),
        ("===", "CaseEq", 5),
        ("!==", "CaseNe", 5),
        ("<", "Lt", 6),
        ("<=", "Le", 6),
        (">", "Gt", 6),
        (">=", "Ge", 6),
        ("<<", "Shl", 7),
        (">>", "Shr", 7),
        ("+", "Add", 8),
        ("-", "Sub", 8),
        ("*", "Mul", 9),
        ("/", "Div", 9),
        ("%", "Rem", 9),
        ("**", "Pow", 10),
    ];

    /// Renders an expression as a fully parenthesised S-expression.
    fn sexpr(e: &Expr) -> String {
        match e {
            Expr::Ident { name, .. } => name.to_string(),
            Expr::Number { text, .. } => text.to_string(),
            Expr::Binary { op, operands } => {
                let [lhs, rhs] = &**operands;
                format!("({op:?} {} {})", sexpr(lhs), sexpr(rhs))
            }
            Expr::Unary { op, operand } => format!("({op:?} {})", sexpr(operand)),
            Expr::Ternary { cond, then, els } => {
                format!("(? {} {} {})", sexpr(cond), sexpr(then), sexpr(els))
            }
            Expr::Index { base, index } => format!("(Index {} {})", sexpr(base), sexpr(index)),
            Expr::Concat(parts) => {
                let parts: Vec<String> = parts.iter().map(sexpr).collect();
                format!("{{{}}}", parts.join(" "))
            }
            other => panic!("unexpected expression {other:?}"),
        }
    }

    fn expr_tree(expr: &str) -> String {
        let unit = parse_clean(&format!("module m; assign y = {expr};\nendmodule"));
        match &unit.modules[0].items[0] {
            Item::ContinuousAssign { expr, .. } => sexpr(expr),
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn precedence_and_associativity_table() {
        // Every pair of binary operators, both orders: the lower level
        // ends up on top, and within one level the left operator binds
        // first (all binary operators are left-associative, §5.1.2).
        for &(x, xname, xlevel) in &BINARY_OPS {
            for &(z, zname, zlevel) in &BINARY_OPS {
                let got = expr_tree(&format!("a {x} b {z} c"));
                let want = if xlevel >= zlevel {
                    format!("({zname} ({xname} a b) c)")
                } else {
                    format!("({xname} a ({zname} b c))")
                };
                assert_eq!(got, want, "a {x} b {z} c");
            }
        }
    }

    #[test]
    fn expression_trees_match_hand_worked_parses() {
        for (src, want) in [
            // Left-associative exponent (IEEE 1364-2005 §5.1.2).
            ("a ** b ** c", "(Pow (Pow a b) c)"),
            ("a - b - c", "(Sub (Sub a b) c)"),
            (
                "a + b * c - d / e % f",
                "(Sub (Add a (Mul b c)) (Rem (Div d e) f))",
            ),
            (
                "a || b && c | d ^ e & f == g < h << i + j * k ** l",
                "(LogicalOr a (LogicalAnd b (Or c (Xor d (And e (Eq f (Lt g \
                 (Shl h (Add i (Mul j (Pow k l)))))))))))",
            ),
            (
                "a ** b * c + d << e < f == g & h ^ i | j && k || l",
                "(LogicalOr (LogicalAnd (Or (Xor (And (Eq (Lt (Shl (Add (Mul \
                 (Pow a b) c) d) e) f) g) h) i) j) k) l)",
            ),
            ("(a + b) * c", "(Mul (Add a b) c)"),
            ("a * (b + c)", "(Mul a (Add b c))"),
            // Unary operators bind tighter than every binary operator,
            // `**` included, and apply to a selected operand.
            ("-a ** b", "(Pow (Negate a) b)"),
            ("a ** -b", "(Pow a (Negate b))"),
            ("~a & b", "(And (Not a) b)"),
            ("!a || b", "(LogicalOr (LogicalNot a) b)"),
            ("a - -b", "(Sub a (Negate b))"),
            ("- - a", "(Negate (Negate a))"),
            ("&a | ~|b", "(Or (ReduceAnd a) (ReduceNor b))"),
            ("a & ~^b", "(And a (ReduceXnor b))"),
            ("~a[3] + +b", "(Add (Not (Index a 3)) (Plus b))"),
            // `?:` is lowest and right-nested in both arms.
            ("a ? b : c", "(? a b c)"),
            ("a ? b : c ? d : e", "(? a b (? c d e))"),
            ("a ? b ? c : d : e", "(? a (? b c d) e)"),
            (
                "a || b ? c + d : e & f",
                "(? (LogicalOr a b) (Add c d) (And e f))",
            ),
            ("a ? b : c || d", "(? a b (LogicalOr c d))"),
            ("{a, b + c} == d", "(Eq {a (Add b c)} d)"),
        ] {
            assert_eq!(expr_tree(src), want, "{src}");
        }
        // `~&` and `~|` are unary only: a binary use is a syntax error.
        let (_, diags) = parse_src("module m; assign y = a ~& b;\nendmodule");
        assert!(diags.has_errors());
    }

    #[test]
    fn testbench_constructs() {
        let unit = parse_clean(
            "module tb;\nreg clk = 0;\nreg [7:0] i;\ninitial begin\n\
             clk = 0;\n  forever #5 clk = ~clk;\nend\n\
             initial begin\n  for (i = 0; i < 8; i = i + 1) begin\n    #10;\n\
             if (i === 3) $display(\"i=%0d\", i);\n  end\n  $finish;\nend\nendmodule",
        );
        assert_eq!(unit.modules[0].items.len(), 4);
    }

    #[test]
    fn missing_semicolon_is_reported_with_location() {
        let (_, diags) = parse_src("module m;\nwire a\nwire b;\nendmodule");
        assert!(diags.has_errors());
        let msg = &diags.all()[0];
        assert!(msg.message.contains("';'"), "got: {}", msg.message);
    }

    #[test]
    fn unbalanced_end_is_reported() {
        let (_, diags) =
            parse_src("module m(input clk); reg q; always @(posedge clk) begin q <= 1; endmodule");
        assert!(diags.has_errors());
    }

    #[test]
    fn misspelled_keyword_is_reported() {
        let (_, diags) = parse_src("module m; asign y = 1; endmodule");
        assert!(diags.has_errors());
    }

    #[test]
    fn recovery_parses_later_modules() {
        let (unit, diags) =
            parse_src("module bad; wire ; endmodule\nmodule good; wire w; endmodule");
        assert!(diags.has_errors());
        assert!(unit.modules.iter().any(|m| m.name == "good"));
    }

    #[test]
    fn concat_replication_and_selects() {
        let unit = parse_clean(
            "module m(input [7:0] a, output [15:0] y);\n\
             assign y = {{2{a[7:4]}}, a[3:0], 4'b0000};\nendmodule",
        );
        assert_eq!(unit.modules.len(), 1);
    }

    #[test]
    fn intra_assignment_delay() {
        let unit = parse_clean("module m; reg a; initial a = #5 1; endmodule");
        match &unit.modules[0].items[1] {
            Item::Initial {
                body: Stmt::Block(stmts),
                ..
            } => {
                assert!(matches!(stmts[0], Stmt::Delay { .. }));
                assert!(matches!(stmts[1], Stmt::Blocking { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wait_statement() {
        let unit = parse_clean("module m; reg a; initial wait (a) $finish; endmodule");
        match &unit.modules[0].items[1] {
            Item::Initial {
                body: Stmt::WaitCond { .. },
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
