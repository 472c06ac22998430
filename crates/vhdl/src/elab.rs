//! VHDL elaboration: AST → shared simulatable IR.
//!
//! VHDL signal assignments have delta-delayed semantics, so every
//! sequential `<=` lowers to a *nonblocking* assignment; a process with a
//! sensitivity list runs once at time zero and then re-arms on its list,
//! exactly per the LRM's implicit `wait on` rule. `rising_edge`/
//! `falling_edge` lower to the IR's [`Expr::EdgeFlag`], which the
//! simulator evaluates from the wake cause of the executing process.

use crate::ast::{
    self, Architecture, BinOp, ConcurrentStmt, Decl, DesignFile, Entity, PortDir, SeqStmt,
    SeverityLevel, TypeMark, UnOp, VarDecl,
};
use aivril_hdl::diag::{codes, Diagnostic, Diagnostics};
use aivril_hdl::ir::{
    BinaryOp, Builder, Design, Expr, Instr, LValue, Net, NetId, NetKind, Process, ProcessKind,
    SysTaskKind, Trigger, UnaryOp,
};
use aivril_hdl::logic::Logic;
use aivril_hdl::source::{FileId, Span};
use aivril_hdl::vec::LogicVec;
use std::collections::HashMap;

const MAX_DEPTH: u32 = 64;

/// Elaborates entity `top` (using its last declared architecture).
pub fn elaborate(file: &DesignFile, top: &str, diags: &mut Diagnostics) -> Option<Design> {
    let mut entities: HashMap<&str, &Entity> = HashMap::new();
    for e in &file.entities {
        entities.insert(e.name.as_str(), &**e);
    }
    let mut archs: HashMap<&str, &Architecture> = HashMap::new();
    for a in &file.architectures {
        archs.insert(a.entity.as_str(), &**a);
    }
    let top = top.to_ascii_lowercase();
    let Some(&entity) = entities.get(top.as_str()) else {
        diags.push(Diagnostic::global_error(
            codes::ELAB_UNKNOWN_MODULE,
            format!("top entity '{top}' not found in the compiled sources"),
        ));
        return None;
    };
    let Some(&arch) = archs.get(top.as_str()) else {
        diags.push(Diagnostic::global_error(
            codes::ELAB_UNKNOWN_MODULE,
            format!("entity '{top}' has no architecture"),
        ));
        return None;
    };
    let mut el = Elaborator {
        entities,
        archs,
        design: Design::new(&top),
        diags,
    };
    el.instantiate(entity, arch, String::new(), HashMap::new(), None, 0);
    if el.diags.has_errors() {
        None
    } else {
        Some(el.design)
    }
}

/// The names visible in one entity instance, keyed by their
/// (lowercased) text in the AST.
#[derive(Debug, Default)]
struct Scope<'a> {
    prefix: String,
    consts: HashMap<&'a str, i64>,
    nets: HashMap<&'a str, NetId>,
}

struct Elaborator<'a, 'd> {
    entities: HashMap<&'a str, &'a Entity>,
    archs: HashMap<&'a str, &'a Architecture>,
    design: Design,
    diags: &'d mut Diagnostics,
}

struct InstanceConn<'a, 's> {
    port_map: &'a [(String, Option<ast::Expr>, Span)],
    parent_scope: &'s Scope<'a>,
}

impl<'a> Elaborator<'a, '_> {
    fn error(&mut self, code: &str, message: String, span: Span) {
        self.diags.push(Diagnostic::error(code, message, span));
    }

    fn net_width(&self, id: NetId) -> u32 {
        self.design.net(id).width
    }

    /// The net `name` refers to in `scope`, or the "not declared" error.
    fn net(&mut self, name: &str, span: Span, scope: &Scope<'a>) -> Option<NetId> {
        let id = scope.nets.get(name).copied();
        if id.is_none() {
            self.error(
                codes::VHDL_UNDECLARED,
                format!("'{name}' is not declared"),
                span,
            );
        }
        id
    }

    fn instantiate(
        &mut self,
        entity: &'a Entity,
        arch: &'a Architecture,
        prefix: String,
        generics: HashMap<&'a str, i64>,
        conns: Option<InstanceConn<'a, '_>>,
        depth: u32,
    ) {
        if depth > MAX_DEPTH {
            self.error(
                codes::ELAB_UNKNOWN_MODULE,
                format!("hierarchy deeper than {MAX_DEPTH} levels (recursive instantiation?)"),
                entity.span,
            );
            return;
        }
        let mut scope = Scope {
            prefix,
            ..Scope::default()
        };

        // Generics.
        for g in &entity.generics {
            let value = match generics.get(g.name.as_str()) {
                Some(&v) => v,
                None => match &g.default {
                    Some(d) => self.eval_const(d, &scope).unwrap_or(0),
                    None => {
                        self.error(
                            codes::VHDL_TYPE,
                            format!("generic '{}' has no value", g.name),
                            g.span,
                        );
                        0
                    }
                },
            };
            scope.consts.insert(&g.name, value);
        }

        // Ports.
        for p in &entity.ports {
            if p.dir == PortDir::Inout {
                self.error(
                    codes::ELAB_PORT_MISMATCH,
                    format!("inout port '{}' is not supported", p.name),
                    p.span,
                );
            }
            let width = self.type_width(&p.ty, &scope);
            self.declare_signal(&mut scope, &p.name, width, None, p.span);
        }

        // Architecture declarations.
        for d in &arch.decls {
            match d {
                Decl::Signal { names, ty, init } => {
                    let width = self.type_width(ty, &scope);
                    let init_value = init
                        .as_ref()
                        .and_then(|e| self.eval_const_vec(e, width, &scope));
                    for (n, s) in names {
                        self.declare_signal(&mut scope, n, width, init_value.clone(), *s);
                    }
                }
                Decl::Constant { name, value, span } => {
                    let v = self.eval_const(value, &scope).unwrap_or(0);
                    if scope.consts.insert(name, v).is_some() {
                        self.error(
                            codes::VLOG_REDECLARED,
                            format!("'{name}' is already declared"),
                            *span,
                        );
                    }
                }
            }
        }

        // Parent-side port connections.
        if let Some(conn) = conns {
            self.connect_ports(entity, &scope, conn);
        }

        // Concurrent statements.
        for stmt in &arch.stmts {
            match stmt {
                ConcurrentStmt::Assign {
                    target,
                    value,
                    span,
                } => {
                    if let Some(lv) = self.lower_target(target, &scope) {
                        let w = lv.width(&self.design);
                        let rhs = self.lower_rvalue(value, &scope, w);
                        let rhs = self.design.fit(rhs, w, *span, self.diags);
                        self.design.add_continuous_assign(lv, rhs);
                    }
                }
                ConcurrentStmt::Process {
                    label,
                    sensitivity,
                    variables,
                    body,
                    span,
                } => {
                    self.compile_process(
                        label.as_deref(),
                        sensitivity,
                        variables,
                        body,
                        &mut scope,
                        *span,
                    );
                }
                ConcurrentStmt::Instance {
                    label,
                    entity: child_name,
                    generic_map,
                    port_map,
                    span,
                } => {
                    let child_name = child_name.to_ascii_lowercase();
                    let (Some(&child_entity), child_arch) = (
                        self.entities.get(child_name.as_str()),
                        self.archs.get(child_name.as_str()).copied(),
                    ) else {
                        self.error(
                            codes::ELAB_UNKNOWN_MODULE,
                            format!("unknown entity '{child_name}' instantiated as '{label}'"),
                            *span,
                        );
                        continue;
                    };
                    let Some(child_arch) = child_arch else {
                        self.error(
                            codes::ELAB_UNKNOWN_MODULE,
                            format!("entity '{child_name}' has no architecture"),
                            *span,
                        );
                        continue;
                    };
                    let mut bound = HashMap::new();
                    for (gname, gexpr) in generic_map {
                        if !child_entity.generics.iter().any(|g| &g.name == gname) {
                            self.error(
                                codes::ELAB_PORT_MISMATCH,
                                format!("entity '{child_name}' has no generic '{gname}'"),
                                *span,
                            );
                            continue;
                        }
                        let v = self.eval_const(gexpr, &scope).unwrap_or(0);
                        bound.insert(gname.as_str(), v);
                    }
                    let child_prefix = format!("{}{}.", scope.prefix, label);
                    self.instantiate(
                        child_entity,
                        child_arch,
                        child_prefix,
                        bound,
                        Some(InstanceConn {
                            port_map,
                            parent_scope: &scope,
                        }),
                        depth + 1,
                    );
                }
            }
        }
    }

    fn declare_signal(
        &mut self,
        scope: &mut Scope<'a>,
        name: &'a str,
        width: u32,
        init: Option<LogicVec>,
        span: Span,
    ) {
        if scope.nets.contains_key(name) || scope.consts.contains_key(name) {
            self.error(
                codes::VLOG_REDECLARED,
                format!("'{name}' is already declared in this scope"),
                span,
            );
            return;
        }
        let id = self.design.add_net(Net {
            name: format!("{}{}", scope.prefix, name),
            width,
            kind: NetKind::Reg,
            init,
        });
        scope.nets.insert(name, id);
    }

    fn type_width(&mut self, ty: &TypeMark, scope: &Scope<'a>) -> u32 {
        match ty {
            TypeMark::StdLogic | TypeMark::Boolean => 1,
            TypeMark::Integer => 32,
            TypeMark::Vector { high, low, .. } => {
                let h = self.eval_const(high, scope).unwrap_or(0);
                let l = self.eval_const(low, scope).unwrap_or(0);
                (h - l).unsigned_abs() as u32 + 1
            }
        }
    }

    fn connect_ports(
        &mut self,
        entity: &'a Entity,
        child_scope: &Scope<'a>,
        conn: InstanceConn<'a, '_>,
    ) {
        for (pname, pexpr, pspan) in conn.port_map {
            let Some(port) = entity.ports.iter().find(|p| &p.name == pname) else {
                self.error(
                    codes::ELAB_PORT_MISMATCH,
                    format!("entity '{}' has no port named '{}'", entity.name, pname),
                    *pspan,
                );
                continue;
            };
            let Some(&child_net) = child_scope.nets.get(pname.as_str()) else {
                continue;
            };
            match (port.dir, pexpr) {
                (PortDir::In, Some(e)) => {
                    let lv = LValue::Net(child_net);
                    let w = lv.width(&self.design);
                    let rhs = self.lower_rvalue(e, conn.parent_scope, w);
                    let rhs = self.design.fit(rhs, w, *pspan, self.diags);
                    self.design.add_continuous_assign(lv, rhs);
                }
                (PortDir::Out, Some(e)) => {
                    if let Some(lv) = self.lower_target(e, conn.parent_scope) {
                        let w = lv.width(&self.design);
                        let rhs = self.design.fit(Expr::Net(child_net), w, *pspan, self.diags);
                        self.design.add_continuous_assign(lv, rhs);
                    }
                }
                (_, None) | (PortDir::Inout, _) => {}
            }
        }
    }

    // ---------------------------------------------------- const folding

    fn eval_const(&mut self, e: &ast::Expr, scope: &Scope<'a>) -> Option<i64> {
        match self.try_eval_const(e, scope) {
            Some(v) => Some(v),
            None => {
                self.error(
                    codes::VHDL_SYNTAX,
                    "expected a constant integer expression".to_string(),
                    span_of(e),
                );
                None
            }
        }
    }

    fn try_eval_const(&self, e: &ast::Expr, scope: &Scope<'a>) -> Option<i64> {
        match e {
            ast::Expr::Int { value, .. } => Some(*value),
            ast::Expr::Ident { name, .. } => scope.consts.get(name.as_str()).copied(),
            ast::Expr::Unary { op, operand } => {
                let v = self.try_eval_const(operand, scope)?;
                Some(match op {
                    UnOp::Negate => -v,
                    UnOp::Plus => v,
                    UnOp::Not => i64::from(v == 0),
                })
            }
            ast::Expr::Binary { op, operands } => {
                let [lhs, rhs] = &**operands;
                let a = self.try_eval_const(lhs, scope)?;
                let b = self.try_eval_const(rhs, scope)?;
                Some(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => a.checked_div(b)?,
                    BinOp::Mod => a.checked_rem_euclid(b)?,
                    BinOp::Rem => a.checked_rem(b)?,
                    _ => return None,
                })
            }
            _ => None,
        }
    }

    /// Constant vector value for signal initialisers.
    fn eval_const_vec(&mut self, e: &ast::Expr, width: u32, scope: &Scope<'a>) -> Option<LogicVec> {
        match e {
            ast::Expr::CharLit { ch, .. } => Some(LogicVec::filled(width, char_logic(*ch))),
            ast::Expr::BitString { bits, .. } => {
                LogicVec::parse_binary(bits).map(|v| v.resize(width))
            }
            ast::Expr::HexString { digits, .. } => parse_hex(digits).map(|v| v.resize(width)),
            ast::Expr::Aggregate { fill, .. } => {
                let f = self.eval_const_vec(fill, 1, scope)?;
                Some(LogicVec::filled(width, f.get(0)))
            }
            other => self
                .try_eval_const(other, scope)
                .map(|v| LogicVec::from_u64(width, v as u64)),
        }
    }

    // -------------------------------------------------------- lowering

    /// Lowers an r-value; `target_width` lets integer literals and
    /// aggregates adopt their context width, per VHDL typing.
    fn lower_rvalue(&mut self, e: &ast::Expr, scope: &Scope<'a>, target_width: u32) -> Expr {
        match e {
            ast::Expr::Aggregate { fill, .. } => {
                let f = self.lower_rvalue(fill, scope, 1);
                match f {
                    Expr::Const(v) => Expr::Const(LogicVec::filled(target_width, v.get(0))),
                    _ => {
                        self.error(
                            codes::VHDL_TYPE,
                            "aggregate fill must be a constant".to_string(),
                            span_of(e),
                        );
                        Expr::Const(LogicVec::xes(target_width))
                    }
                }
            }
            ast::Expr::When { value, cond, els } => Expr::Ternary {
                cond: Box::new(self.lower_expr(cond, scope)),
                then: Box::new(self.lower_rvalue(value, scope, target_width)),
                els: Box::new(self.lower_rvalue(els, scope, target_width)),
            },
            other => self.lower_expr(other, scope),
        }
    }

    fn lower_expr(&mut self, e: &ast::Expr, scope: &Scope<'a>) -> Expr {
        match e {
            ast::Expr::Int { value, .. } => Expr::Const(LogicVec::from_u64(32, *value as u64)),
            ast::Expr::Bool { value, .. } => Expr::constant(1, u64::from(*value)),
            ast::Expr::CharLit { ch, .. } => Expr::Const(LogicVec::from_logic(char_logic(*ch))),
            ast::Expr::BitString { bits, span } => match LogicVec::parse_binary(bits) {
                Some(v) => Expr::Const(v),
                None => {
                    self.error(
                        codes::VHDL_SYNTAX,
                        format!("malformed bit-string \"{bits}\""),
                        *span,
                    );
                    Expr::Const(LogicVec::xes(1))
                }
            },
            ast::Expr::HexString { digits, span } => match parse_hex(digits) {
                Some(v) => Expr::Const(v),
                None => {
                    self.error(
                        codes::VHDL_SYNTAX,
                        format!("malformed hex bit-string x\"{digits}\""),
                        *span,
                    );
                    Expr::Const(LogicVec::xes(1))
                }
            },
            ast::Expr::StrLit { text, span } => {
                self.error(
                    codes::VHDL_TYPE,
                    format!("string \"{text}\" is not valid in this context"),
                    *span,
                );
                Expr::Const(LogicVec::xes(1))
            }
            ast::Expr::Ident { name, span } => {
                if let Some(&v) = scope.consts.get(name.as_str()) {
                    return Expr::Const(LogicVec::from_u64(32, v as u64));
                }
                match self.net(name, *span, scope) {
                    Some(id) => Expr::Net(id),
                    None => Expr::Const(LogicVec::xes(1)),
                }
            }
            ast::Expr::Call(call) => self.lower_call(&call.name, &call.args, call.span, scope),
            ast::Expr::Slice(slice) => {
                let ast::Slice {
                    name,
                    left,
                    right,
                    span,
                    ..
                } = &**slice;
                let Some(net) = self.net(name, *span, scope) else {
                    return Expr::Const(LogicVec::xes(1));
                };
                let l = self.eval_const(left, scope).unwrap_or(0).max(0) as u32;
                let r = self.eval_const(right, scope).unwrap_or(0).max(0) as u32;
                let (msb, lsb) = if l >= r { (l, r) } else { (r, l) };
                Expr::Range { net, msb, lsb }
            }
            ast::Expr::Attr(a) => {
                let ast::Attr { name, attr, span } = &**a;
                let Some(net) = self.net(name, *span, scope) else {
                    return Expr::Const(LogicVec::xes(1));
                };
                match attr.as_str() {
                    "event" => Expr::Binary {
                        op: BinaryOp::LogicalOr,
                        lhs: Box::new(Expr::EdgeFlag { net, rising: true }),
                        rhs: Box::new(Expr::EdgeFlag { net, rising: false }),
                    },
                    other => {
                        self.error(
                            codes::VHDL_SYNTAX,
                            format!("attribute '{other}' is not supported"),
                            *span,
                        );
                        Expr::Const(LogicVec::xes(1))
                    }
                }
            }
            ast::Expr::Unary { op, operand } => {
                let inner = self.lower_expr(operand, scope);
                match op {
                    UnOp::Not => Expr::Unary {
                        op: UnaryOp::Not,
                        operand: Box::new(inner),
                    },
                    UnOp::Negate => Expr::Unary {
                        op: UnaryOp::Negate,
                        operand: Box::new(inner),
                    },
                    UnOp::Plus => inner,
                }
            }
            ast::Expr::Binary { op, operands } => {
                let [lhs, rhs] = &**operands;
                let mut l = self.lower_expr(lhs, scope);
                let mut r = self.lower_expr(rhs, scope);
                // VHDL numeric_std: an integer operand adopts the vector
                // operand's width.
                let nw = |id: NetId| self.net_width(id);
                if matches!(lhs, ast::Expr::Int { .. }) && !matches!(rhs, ast::Expr::Int { .. }) {
                    let w = r.width_with(&nw);
                    if let Expr::Const(v) = &l {
                        l = Expr::Const(v.resize(w.max(1)));
                    }
                } else if matches!(rhs, ast::Expr::Int { .. })
                    && !matches!(lhs, ast::Expr::Int { .. })
                {
                    let w = l.width_with(&nw);
                    if let Expr::Const(v) = &r {
                        r = Expr::Const(v.resize(w.max(1)));
                    }
                }
                let op = match op {
                    BinOp::And => BinaryOp::And,
                    BinOp::Or => BinaryOp::Or,
                    BinOp::Xor => BinaryOp::Xor,
                    BinOp::Xnor => BinaryOp::Xnor,
                    BinOp::Nand => {
                        return Expr::Unary {
                            op: UnaryOp::Not,
                            operand: Box::new(Expr::Binary {
                                op: BinaryOp::And,
                                lhs: Box::new(l),
                                rhs: Box::new(r),
                            }),
                        }
                    }
                    BinOp::Nor => {
                        return Expr::Unary {
                            op: UnaryOp::Not,
                            operand: Box::new(Expr::Binary {
                                op: BinaryOp::Or,
                                lhs: Box::new(l),
                                rhs: Box::new(r),
                            }),
                        }
                    }
                    BinOp::Eq => BinaryOp::Eq,
                    BinOp::Ne => BinaryOp::Ne,
                    BinOp::Lt => BinaryOp::Lt,
                    BinOp::Le => BinaryOp::Le,
                    BinOp::Gt => BinaryOp::Gt,
                    BinOp::Ge => BinaryOp::Ge,
                    BinOp::Add => BinaryOp::Add,
                    BinOp::Sub => BinaryOp::Sub,
                    BinOp::Mul => BinaryOp::Mul,
                    BinOp::Div => BinaryOp::Div,
                    BinOp::Mod => BinaryOp::Rem,
                    BinOp::Rem => BinaryOp::Rem,
                    BinOp::Sll => BinaryOp::Shl,
                    BinOp::Srl => BinaryOp::Shr,
                    BinOp::Concat => {
                        return Expr::Concat(vec![l, r]);
                    }
                };
                Expr::Binary {
                    op,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                }
            }
            ast::Expr::Aggregate { span, .. } => {
                self.error(
                    codes::VHDL_TYPE,
                    "aggregates are only supported on assignment right-hand sides".to_string(),
                    *span,
                );
                Expr::Const(LogicVec::xes(1))
            }
            ast::Expr::When { .. } => {
                self.error(
                    codes::VHDL_SYNTAX,
                    "conditional expressions are only supported in concurrent assignments"
                        .to_string(),
                    Span::file_start(FileId(0)),
                );
                Expr::Const(LogicVec::xes(1))
            }
        }
    }

    fn lower_call(
        &mut self,
        name: &str,
        args: &[ast::Expr],
        span: Span,
        scope: &Scope<'a>,
    ) -> Expr {
        // A signal name means index/slice rather than a function call.
        if let Some(&net) = scope.nets.get(name) {
            if args.len() == 1 {
                let idx = self.lower_expr(&args[0], scope);
                return Expr::Index {
                    net,
                    index: Box::new(idx),
                };
            }
            self.error(
                codes::VHDL_SYNTAX,
                format!("'{name}' is a signal; expected one index"),
                span,
            );
            return Expr::Const(LogicVec::xes(1));
        }
        match name {
            "rising_edge" | "falling_edge" => {
                let rising = name == "rising_edge";
                match args.first() {
                    Some(ast::Expr::Ident {
                        name: sig,
                        span: sspan,
                    }) => match self.net(sig, *sspan, scope) {
                        Some(net) => Expr::EdgeFlag { net, rising },
                        None => Expr::Const(LogicVec::xes(1)),
                    },
                    _ => {
                        self.error(
                            codes::VHDL_SYNTAX,
                            format!("{name}() requires a signal name argument"),
                            span,
                        );
                        Expr::Const(LogicVec::xes(1))
                    }
                }
            }
            // Width-preserving conversions are identities in this IR.
            "std_logic_vector" | "unsigned" | "signed" | "to_integer" | "to_stdlogicvector"
            | "to_bitvector" => match args.first() {
                Some(a) => self.lower_expr(a, scope),
                None => {
                    self.error(
                        codes::VHDL_SYNTAX,
                        format!("{name}() requires an argument"),
                        span,
                    );
                    Expr::Const(LogicVec::xes(1))
                }
            },
            "to_unsigned" | "to_signed" | "conv_std_logic_vector" => {
                if args.len() != 2 {
                    self.error(
                        codes::VHDL_SYNTAX,
                        format!("{name}() requires (value, width) arguments"),
                        span,
                    );
                    return Expr::Const(LogicVec::xes(1));
                }
                let Some(width) = self.eval_const(&args[1], scope) else {
                    return Expr::Const(LogicVec::xes(1));
                };
                let width = width.max(1) as u32;
                let mut inner = self.lower_expr(&args[0], scope);
                let nw = |id: NetId| self.net_width(id);
                match inner {
                    Expr::Const(v) => Expr::Const(v.resize(width)),
                    _ if inner.width_with(&nw) <= width => {
                        inner.widen(width, &nw);
                        inner
                    }
                    _ => {
                        self.error(
                            codes::VHDL_TYPE,
                            format!("{name}() cannot narrow a non-constant expression"),
                            span,
                        );
                        Expr::Const(LogicVec::xes(width))
                    }
                }
            }
            "resize" => {
                if args.len() != 2 {
                    self.error(
                        codes::VHDL_SYNTAX,
                        "resize() requires (value, width) arguments".to_string(),
                        span,
                    );
                    return Expr::Const(LogicVec::xes(1));
                }
                let width = self.eval_const(&args[1], scope).unwrap_or(1).max(1) as u32;
                let mut inner = self.lower_expr(&args[0], scope);
                match inner {
                    Expr::Const(v) => Expr::Const(v.resize(width)),
                    Expr::Net(id) if self.net_width(id) > width => Expr::Range {
                        net: id,
                        msb: width - 1,
                        lsb: 0,
                    },
                    _ => {
                        inner.widen(width, &|id| self.net_width(id));
                        inner
                    }
                }
            }
            other => {
                self.error(
                    codes::VHDL_UNDECLARED,
                    format!("unknown function or undeclared signal '{other}'"),
                    span,
                );
                Expr::Const(LogicVec::xes(1))
            }
        }
    }

    fn lower_target(&mut self, e: &ast::Expr, scope: &Scope<'a>) -> Option<LValue> {
        match e {
            ast::Expr::Ident { name, span } => self.net(name, *span, scope).map(LValue::Net),
            ast::Expr::Call(call) => {
                let ast::Call { name, args, span } = &**call;
                let id = self.net(name, *span, scope)?;
                if args.len() != 1 {
                    self.error(codes::VHDL_SYNTAX, "expected one index".to_string(), *span);
                    return None;
                }
                let idx = self.lower_expr(&args[0], scope);
                Some(LValue::Index(id, idx))
            }
            ast::Expr::Slice(slice) => {
                let ast::Slice {
                    name,
                    left,
                    right,
                    span,
                    ..
                } = &**slice;
                let id = self.net(name, *span, scope)?;
                let l = self.eval_const(left, scope)?.max(0) as u32;
                let r = self.eval_const(right, scope)?.max(0) as u32;
                let (msb, lsb) = if l >= r { (l, r) } else { (r, l) };
                Some(LValue::Range(id, msb, lsb))
            }
            other => {
                self.error(
                    codes::VHDL_SYNTAX,
                    "illegal assignment target".to_string(),
                    span_of(other),
                );
                None
            }
        }
    }

    // ------------------------------------------------------- processes

    fn compile_process(
        &mut self,
        label: Option<&str>,
        sensitivity: &[(String, Span)],
        variables: &'a [VarDecl],
        body: &'a [SeqStmt],
        scope: &mut Scope<'a>,
        span: Span,
    ) {
        // Process variables become process-private nets, visible only
        // while this body compiles; `:=` lowers to immediate (blocking)
        // assignment, matching VHDL variable semantics. Their values
        // persist across activations, exactly as in the LRM.
        let mut shadowed: Vec<(&str, Option<NetId>)> = Vec::new();
        for v in variables {
            let width = self.type_width(&v.ty, scope);
            let init = v
                .init
                .as_ref()
                .and_then(|e| self.eval_const_vec(e, width, scope));
            for (name, _) in &v.names {
                let id = self.design.add_net(Net {
                    name: format!("{}{}${}", scope.prefix, label.unwrap_or("process"), name),
                    width,
                    kind: NetKind::Reg,
                    init: init.clone(),
                });
                shadowed.push((name, scope.nets.insert(name, id)));
            }
        }
        let mut b = Builder::default();
        for stmt in body {
            self.compile_seq(stmt, scope, &mut b);
        }
        for (name, prev) in shadowed.into_iter().rev() {
            match prev {
                Some(id) => {
                    scope.nets.insert(name, id);
                }
                None => {
                    scope.nets.remove(name);
                }
            }
        }
        if sensitivity.is_empty() {
            // Self-pacing process; guard against missing timing control.
            let has_timing = b.instrs.iter().any(|i| {
                matches!(
                    i,
                    Instr::Delay { .. } | Instr::WaitEvent { .. } | Instr::Halt
                )
            });
            if !has_timing {
                self.error(
                    codes::VHDL_SYNTAX,
                    "process without sensitivity list contains no wait statement".to_string(),
                    span,
                );
            }
            b.emit(Instr::Jump(0));
        } else {
            let mut triggers = Vec::new();
            for (name, sspan) in sensitivity {
                if let Some(id) = self.net(name, *sspan, scope) {
                    triggers.push(Trigger::AnyChange(id));
                }
            }
            b.emit(Instr::WaitEvent { triggers });
            b.emit(Instr::Jump(0));
        }
        let name = match label {
            Some(l) => format!("{}{}", scope.prefix, l),
            None => format!("{}process@{}", scope.prefix, span.start),
        };
        self.design.add_process(Process {
            name,
            kind: ProcessKind::Always,
            body: b.instrs,
        });
    }

    fn compile_seq(&mut self, stmt: &'a SeqStmt, scope: &mut Scope<'a>, b: &mut Builder) {
        match stmt {
            SeqStmt::VariableAssign {
                target,
                value,
                span,
            }
            | SeqStmt::SignalAssign {
                target,
                value,
                span,
            } => {
                if let Some(lvalue) = self.lower_target(target, scope) {
                    let w = lvalue.width(&self.design);
                    let expr = self.lower_rvalue(value, scope, w);
                    let expr = self.design.fit(expr, w, *span, self.diags);
                    b.emit(if matches!(stmt, SeqStmt::SignalAssign { .. }) {
                        Instr::NonblockingAssign { lvalue, expr }
                    } else {
                        Instr::BlockingAssign { lvalue, expr }
                    });
                }
            }
            SeqStmt::If { arms, els } => {
                let mut end_jumps = Vec::new();
                for (cond, body) in arms {
                    let c = self.lower_expr(cond, scope);
                    let skip = b.emit_branch(c);
                    for s in body {
                        self.compile_seq(s, scope, b);
                    }
                    end_jumps.push(b.emit(Instr::Jump(usize::MAX)));
                    b.patch(skip, b.here());
                }
                if let Some(body) = els {
                    for s in body {
                        self.compile_seq(s, scope, b);
                    }
                }
                for j in end_jumps {
                    b.patch(j, b.here());
                }
            }
            SeqStmt::Case {
                subject,
                arms,
                span: _,
            } => {
                let subj = self.lower_expr(subject, scope);
                let mut end_jumps = Vec::new();
                for (choices, body) in arms {
                    if choices.is_empty() {
                        // `when others` — unconditional.
                        for s in body {
                            self.compile_seq(s, scope, b);
                        }
                        end_jumps.push(b.emit(Instr::Jump(usize::MAX)));
                        continue;
                    }
                    let mut cond: Option<Expr> = None;
                    for choice in choices {
                        let cexpr = self.lower_expr(choice, scope);
                        let c = Expr::Binary {
                            op: BinaryOp::CaseEq,
                            lhs: Box::new(subj.clone()),
                            rhs: Box::new(cexpr),
                        };
                        cond = Some(match cond {
                            None => c,
                            Some(prev) => Expr::Binary {
                                op: BinaryOp::LogicalOr,
                                lhs: Box::new(prev),
                                rhs: Box::new(c),
                            },
                        });
                    }
                    let skip = b.emit_branch(cond.expect("non-empty choices"));
                    for s in body {
                        self.compile_seq(s, scope, b);
                    }
                    end_jumps.push(b.emit(Instr::Jump(usize::MAX)));
                    b.patch(skip, b.here());
                }
                for j in end_jumps {
                    b.patch(j, b.here());
                }
            }
            SeqStmt::For(f) => {
                let ast::ForLoop {
                    var,
                    from,
                    to,
                    downto,
                    body,
                    span,
                } = &**f;
                // Hidden 32-bit loop counter, visible as `var` in the body.
                let counter = self.design.add_net(Net {
                    name: format!("{}{}@{}", scope.prefix, var, span.start),
                    width: 32,
                    kind: NetKind::Reg,
                    init: Some(LogicVec::zeros(32)),
                });
                let shadowed = scope.nets.insert(var, counter);
                let from_e = self.lower_expr(from, scope);
                let to_e = self.lower_expr(to, scope);
                b.emit(Instr::BlockingAssign {
                    lvalue: LValue::Net(counter),
                    expr: from_e,
                });
                let head = b.here();
                let cmp = if *downto { BinaryOp::Ge } else { BinaryOp::Le };
                let cond = Expr::Binary {
                    op: cmp,
                    lhs: Box::new(Expr::Net(counter)),
                    rhs: Box::new(to_e),
                };
                let exit = b.emit_branch(cond);
                for s in body {
                    self.compile_seq(s, scope, b);
                }
                let step_op = if *downto {
                    BinaryOp::Sub
                } else {
                    BinaryOp::Add
                };
                b.emit(Instr::BlockingAssign {
                    lvalue: LValue::Net(counter),
                    expr: Expr::Binary {
                        op: step_op,
                        lhs: Box::new(Expr::Net(counter)),
                        rhs: Box::new(Expr::constant(32, 1)),
                    },
                });
                b.emit(Instr::Jump(head));
                b.patch(exit, b.here());
                match shadowed {
                    Some(prev) => {
                        scope.nets.insert(var, prev);
                    }
                    None => {
                        scope.nets.remove(var.as_str());
                    }
                }
            }
            SeqStmt::While { cond, body } => {
                let head = b.here();
                let c = self.lower_expr(cond, scope);
                let exit = b.emit_branch(c);
                for s in body {
                    self.compile_seq(s, scope, b);
                }
                b.emit(Instr::Jump(head));
                b.patch(exit, b.here());
            }
            SeqStmt::WaitFor { amount, span: _ } => {
                let amt = self.lower_expr(amount, scope);
                b.emit(Instr::Delay { amount: amt });
            }
            SeqStmt::WaitUntil { cond, span } => {
                // `wait until rising_edge(clk)` gets a precise edge wait;
                // the general form loops on any change of the read nets.
                if let ast::Expr::Call(call) = cond {
                    let ast::Call { name, args, .. } = &**call;
                    if name == "rising_edge" || name == "falling_edge" {
                        if let Some(ast::Expr::Ident { name: sig, .. }) = args.first() {
                            if let Some(&net) = scope.nets.get(sig.as_str()) {
                                let trig = if name == "rising_edge" {
                                    Trigger::Posedge(net)
                                } else {
                                    Trigger::Negedge(net)
                                };
                                b.emit(Instr::WaitEvent {
                                    triggers: vec![trig],
                                });
                                return;
                            }
                        }
                    }
                }
                let c = self.lower_expr(cond, scope);
                let mut reads = Vec::new();
                c.collect_reads(&mut reads);
                reads.sort_unstable();
                reads.dedup();
                if reads.is_empty() {
                    self.error(
                        codes::VHDL_SYNTAX,
                        "wait until condition reads no signals".to_string(),
                        *span,
                    );
                    return;
                }
                // head: wait(any change); if cond is false go back to the
                // wait, otherwise fall through.
                let head = b.here();
                b.emit(Instr::WaitEvent {
                    triggers: reads.into_iter().map(Trigger::AnyChange).collect(),
                });
                let back = b.emit_branch(c);
                b.patch(back, head);
            }
            SeqStmt::WaitForever { .. } => {
                b.emit(Instr::Halt);
            }
            SeqStmt::Assert {
                cond,
                report,
                severity,
                span: _,
            } => {
                let c = self.lower_expr(cond, scope);
                let fail = b.emit_branch(c);
                let ok = b.emit(Instr::Jump(usize::MAX));
                b.patch(fail, b.here());
                b.emit(syscall_for(
                    *severity,
                    report
                        .clone()
                        .unwrap_or_else(|| "Assertion violation.".to_string()),
                ));
                b.patch(ok, b.here());
            }
            SeqStmt::Report {
                message,
                severity,
                span: _,
            } => {
                b.emit(syscall_for(*severity, message.clone()));
            }
            SeqStmt::Null => {}
        }
    }
}

/// Decodes the digits of a hex bit-string (`x"FF_00"`): four bits per
/// hex digit, with single underscores allowed between digits (IEEE
/// 1076-1993 §13.7). Written straight into the vector's planes, so a
/// string of up to 16 digits costs no heap allocation.
fn parse_hex(digits: &str) -> Option<LogicVec> {
    let well_formed = !digits.starts_with('_')
        && !digits.ends_with('_')
        && !digits.contains("__")
        && digits.bytes().all(|b| b.is_ascii_hexdigit() || b == b'_');
    if !well_formed {
        return None;
    }
    let hex = || digits.bytes().filter(|&b| b != b'_');
    let width = u32::try_from(4 * hex().count()).ok().filter(|&w| w > 0)?;
    LogicVec::from_radix_digits(hex(), 4, width)
}

/// Maps a VHDL severity to the corresponding system task instruction.
fn syscall_for(severity: SeverityLevel, message: String) -> Instr {
    let kind = match severity {
        SeverityLevel::Note | SeverityLevel::Warning => SysTaskKind::Display,
        SeverityLevel::Error => SysTaskKind::Error,
        SeverityLevel::Failure => SysTaskKind::Fatal,
    };
    Instr::SysCall {
        kind,
        format: Some(message),
        args: Vec::new(),
    }
}

fn char_logic(ch: char) -> Logic {
    match ch {
        '0' | 'L' | 'l' => Logic::Zero,
        '1' | 'H' | 'h' => Logic::One,
        'z' | 'Z' => Logic::Z,
        _ => Logic::X,
    }
}

/// Where a diagnostic about `e` points: its first token, or the start
/// of the first file for an expression that has none.
fn span_of(e: &ast::Expr) -> Span {
    e.span().unwrap_or_else(|| Span::file_start(FileId(0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The hex decoder `parse_hex` replaced, kept as the oracle of the
    /// property test below: one `u64`, so at most 16 digits and no `_`.
    fn parse_hex_oracle(digits: &str) -> Option<LogicVec> {
        let v = u64::from_str_radix(digits, 16).ok()?;
        Some(LogicVec::from_u64(4 * digits.len() as u32, v))
    }

    #[test]
    fn hex_strings_hand_worked() {
        let bits = |s: &str| LogicVec::parse_binary(s).expect("test vector");
        assert_eq!(parse_hex("A5"), Some(bits("10100101")));
        assert_eq!(parse_hex("ff_00"), Some(bits("1111111100000000")));
        assert_eq!(parse_hex("F"), Some(bits("1111")));
        assert_eq!(parse_hex(&"F".repeat(16)), Some(bits(&"1".repeat(64))));
        // Beyond one word: 72 and 132 bits.
        assert_eq!(
            parse_hex("FF0000000000000001"),
            Some(bits(&format!("11111111{}1", "0".repeat(63))))
        );
        assert_eq!(
            parse_hex(&format!("8{}", "0".repeat(32))),
            Some(bits(&format!("1{}", "0".repeat(131))))
        );
        // IEEE 1076-1993 §13.7: one underscore between two digits.
        for bad in ["", "_", "_FF", "FF_", "F__F", "+F", "XZ", "FG", "F F"] {
            assert_eq!(parse_hex(bad), None, "{bad:?}");
        }
    }

    proptest! {
        /// The planes decoder agrees with the one-word oracle wherever
        /// that oracle accepts, and only adds the wide and separated
        /// forms.
        #[test]
        fn hex_matches_one_word_oracle(digits in "[0-9a-fA-F_g]{0,20}") {
            let new = parse_hex(&digits);
            match parse_hex_oracle(&digits) {
                Some(old) => prop_assert_eq!(new, Some(old)),
                None => prop_assert!(
                    new.is_none() || digits.contains('_') || digits.len() > 16,
                    "{} now decodes", digits
                ),
            }
        }

        /// No digit text makes the decoders panic.
        #[test]
        fn decoders_total_on_noise(text in "[ -~\\u{e9}\\u{20ac}]{0,40}") {
            let _ = parse_hex(&text);
            let _ = LogicVec::parse_binary(&text);
        }
    }
}
