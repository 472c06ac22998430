//! Elaboration: AST → shared simulatable IR.
//!
//! Resolves the module hierarchy from a chosen top, propagates
//! parameters, flattens instances (ports become continuous assignments
//! between parent and child nets, the classic interpreted-simulator
//! approach), performs the semantic checks whose messages the Review
//! Agent consumes (undeclared identifiers, illegal assignment targets,
//! port mismatches), and compiles behavioural statements into the
//! [`aivril_hdl::ir::Instr`] programs the simulator executes.

use crate::ast::{self, BinOp, Connections, EventExpr, Item, Module, NetType, PortDir, UnOp};
use crate::literal::parse_literal;
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

/// Elaborates `top` from the parsed `unit`, appending problems to
/// `diags`. Returns `None` when errors prevent producing a design.
pub fn elaborate(unit: &ast::SourceUnit, top: &str, diags: &mut Diagnostics) -> Option<Design> {
    let mut modules: HashMap<&str, &Module> = HashMap::new();
    for m in &unit.modules {
        if modules.insert(m.name.as_str(), &**m).is_some() {
            diags.push(Diagnostic::error(
                codes::VLOG_REDECLARED,
                format!("module '{}' is defined more than once", m.name),
                m.span,
            ));
        }
    }
    let Some(&top_module) = modules.get(top) else {
        diags.push(Diagnostic::global_error(
            codes::ELAB_UNKNOWN_MODULE,
            format!("top module '{top}' not found in the compiled sources"),
        ));
        return None;
    };
    let mut el = Elaborator {
        modules,
        design: Design::new(top),
        diags,
        inline_counter: 0,
        inline_depth: 0,
        nesting_error_end: None,
    };
    el.instantiate(top_module, String::new(), HashMap::new(), None, 0);
    if el.diags.has_errors() {
        None
    } else {
        Some(el.design)
    }
}

/// Everything known about one name inside a module scope.
#[derive(Debug, Clone, Copy)]
struct NetInfo {
    id: NetId,
    net_type: NetType,
}

/// A module function, resolved at declaration time.
#[derive(Debug, Clone)]
struct FunctionSig<'a> {
    width: u32,
    inputs: Vec<(&'a str, u32)>,
    body: &'a ast::Stmt,
}

/// One declared memory: its element nets in address order.
#[derive(Debug, Clone)]
struct MemInfo {
    elems: Vec<NetId>,
    width: u32,
    /// Lowest legal address.
    base: i64,
}

/// The names visible in one module instance, keyed by their text in
/// the AST.
#[derive(Debug, Default, Clone)]
struct Scope<'a> {
    prefix: String,
    params: HashMap<&'a str, i64>,
    nets: HashMap<&'a str, NetInfo>,
    functions: HashMap<&'a str, FunctionSig<'a>>,
    mems: HashMap<&'a str, MemInfo>,
}

/// One port of a module as elaboration sees it, borrowed from either
/// an ANSI header or a non-ANSI body declaration.
#[derive(Debug, Clone, Copy)]
struct PortView<'a> {
    dir: PortDir,
    net_type: NetType,
    range: &'a Option<(ast::Expr, ast::Expr)>,
    name: &'a str,
    span: Span,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AssignCtx {
    Continuous,
    Procedural,
}

struct Elaborator<'a, 'd> {
    modules: HashMap<&'a str, &'a Module>,
    design: Design,
    diags: &'d mut Diagnostics,
    /// Unique id source for function-inlining temporaries.
    inline_counter: u32,
    /// Guard against (mutually) recursive functions.
    inline_depth: u32,
    /// The log length just after the first "call nesting exceeds 16"
    /// error, until the outermost call returns: what the enclosing
    /// bodies report meanwhile was lowered against the error's
    /// placeholder value, once per level, and is dropped.
    nesting_error_end: Option<usize>,
}

impl<'a> Elaborator<'a, '_> {
    fn error(&mut self, code: &str, message: String, span: Span) {
        self.diags.push(Diagnostic::error(code, message, span));
    }

    fn warning(&mut self, code: &str, message: String, span: Span) {
        self.diags.push(Diagnostic::warning(code, message, span));
    }

    /// Instantiates `module` under hierarchical `prefix`; `bindings`
    /// carries evaluated parameter overrides. `conns` describes the
    /// parent-side port connections (absent for the top instance).
    fn instantiate(
        &mut self,
        module: &'a Module,
        prefix: String,
        bindings: HashMap<&'a str, i64>,
        conns: Option<PortBinding<'a, '_>>,
        depth: u32,
    ) {
        if depth > MAX_DEPTH {
            self.error(
                codes::ELAB_UNKNOWN_MODULE,
                format!("hierarchy deeper than {MAX_DEPTH} levels (recursive instantiation?)"),
                module.span,
            );
            return;
        }
        let mut scope = Scope {
            prefix,
            ..Scope::default()
        };

        // Non-ANSI headers list bare names; their direction/type/range
        // come from body `input`/`output` declarations.
        let ports: Vec<PortView<'a>> = if module.nonansi_ports.is_empty() {
            module
                .ports
                .iter()
                .map(|p| PortView {
                    dir: p.dir,
                    net_type: p.net_type,
                    range: &p.range,
                    name: &p.name,
                    span: p.span,
                })
                .collect()
        } else {
            self.resolve_nonansi_ports(module)
        };
        let ports = &ports;

        // --- Pass 0: header parameters (defaults overridden by bindings).
        for p in &module.params {
            let value = match bindings.get(p.name.as_str()) {
                Some(&v) => v,
                None => self.eval_const(&p.default, &scope).unwrap_or(0),
            };
            scope.params.insert(&p.name, value);
        }

        // --- Pass 1: declarations (ports, nets, body params).
        for port in ports {
            if port.dir == PortDir::Inout {
                self.error(
                    codes::ELAB_PORT_MISMATCH,
                    format!("inout port '{}' is not supported", port.name),
                    port.span,
                );
            }
            let width = self.range_width(port.range, &scope);
            self.declare_net(&mut scope, port.name, width, port.net_type, None, port.span);
        }
        for item in &module.items {
            match item {
                Item::PortDecl { .. } => {}
                Item::Param(p) => {
                    let value = if p.local {
                        self.eval_const(&p.default, &scope).unwrap_or(0)
                    } else {
                        match bindings.get(p.name.as_str()) {
                            Some(&v) => v,
                            None => self.eval_const(&p.default, &scope).unwrap_or(0),
                        }
                    };
                    scope.params.insert(&p.name, value);
                }
                Item::NetDecl {
                    net_type,
                    range,
                    names,
                } => {
                    let width = self.range_width(range, &scope);
                    for (name, span, init) in names {
                        // `output q; reg q;` legally re-types a non-ANSI
                        // port as a register.
                        if let Some(info) = scope.nets.get(name.as_str()).copied() {
                            let is_port = ports.iter().any(|p| p.name == name);
                            if is_port
                                && info.net_type == NetType::Wire
                                && *net_type == NetType::Reg
                                && self.design.net(info.id).width == width
                            {
                                scope.nets.insert(
                                    name,
                                    NetInfo {
                                        id: info.id,
                                        net_type: NetType::Reg,
                                    },
                                );
                                self.design.nets[info.id.0 as usize].kind = NetKind::Reg;
                                continue;
                            }
                        }
                        let init_value = init.as_ref().and_then(|e| {
                            self.eval_const(e, &scope)
                                .map(|v| LogicVec::from_u64(width, v as u64))
                        });
                        self.declare_net(&mut scope, name, width, *net_type, init_value, *span);
                    }
                }
                Item::IntegerDecl { names } => {
                    for (name, span) in names {
                        self.declare_net(&mut scope, name, 32, NetType::Reg, None, *span);
                    }
                }
                Item::MemDecl { width_range, names } => {
                    let width = self.range_width(width_range, &scope);
                    for (name, (a, b), span) in names {
                        let av = self.eval_const(a, &scope).unwrap_or(0);
                        let bv = self.eval_const(b, &scope).unwrap_or(0);
                        let (lo, hi) = if av <= bv { (av, bv) } else { (bv, av) };
                        let depth = (hi - lo + 1).max(1);
                        if depth > 1024 {
                            self.error(
                                codes::VLOG_SYNTAX,
                                format!(
                                    "memory '{name}' has {depth} words; at most 1024 are supported"
                                ),
                                *span,
                            );
                            continue;
                        }
                        if scope.nets.contains_key(name.as_str())
                            || scope.mems.contains_key(name.as_str())
                            || scope.params.contains_key(name.as_str())
                        {
                            self.error(
                                codes::VLOG_REDECLARED,
                                format!("'{name}' is already declared in this scope"),
                                *span,
                            );
                            continue;
                        }
                        let elems: Vec<NetId> = (0..depth)
                            .map(|k| {
                                self.design.add_net(Net {
                                    name: format!("{}{}[{}]", scope.prefix, name, lo + k),
                                    width,
                                    kind: NetKind::Reg,
                                    init: None,
                                })
                            })
                            .collect();
                        scope.mems.insert(
                            name,
                            MemInfo {
                                elems,
                                width,
                                base: lo,
                            },
                        );
                    }
                }
                Item::Function(f) => {
                    let width = self.range_width(&f.range, &scope);
                    let inputs: Vec<(&str, u32)> = f
                        .inputs
                        .iter()
                        .map(|(n, r, _)| (n.as_str(), self.range_width(r, &scope)))
                        .collect();
                    if scope
                        .functions
                        .insert(
                            &f.name,
                            FunctionSig {
                                width,
                                inputs,
                                body: &f.body,
                            },
                        )
                        .is_some()
                    {
                        self.error(
                            codes::VLOG_REDECLARED,
                            format!("function '{}' is already declared", f.name),
                            f.span,
                        );
                    }
                }
                _ => {}
            }
        }

        // --- Pass 2: port connections from the parent side.
        if let Some(binding) = conns {
            self.connect_ports(&module.name, ports, &scope, binding);
        }

        // --- Pass 3: behaviour.
        for item in &module.items {
            match item {
                Item::PortDecl { .. }
                | Item::Param(_)
                | Item::NetDecl { .. }
                | Item::MemDecl { .. }
                | Item::IntegerDecl { .. }
                | Item::Function(_) => {}
                Item::ContinuousAssign { target, expr, span } => {
                    if expr_contains_call(expr) {
                        // Function calls need statement context: compile
                        // the assign as an inferred-sensitivity process.
                        let mut b = Builder::default();
                        let wait_slot = b.emit(Instr::WaitEvent {
                            triggers: Vec::new(),
                        });
                        let rhs = self.lower_expr(expr, &scope, Some(&mut b));
                        if let Some(lv) = self.lower_lvalue(target, &scope, AssignCtx::Continuous) {
                            let rhs = self.fit(&lv, rhs, *span);
                            b.emit(Instr::BlockingAssign {
                                lvalue: lv,
                                expr: rhs,
                            });
                            b.emit(Instr::Jump(0));
                            b.instrs[wait_slot] = Instr::WaitEvent {
                                triggers: instr_reads(&b.instrs)
                                    .into_iter()
                                    .map(Trigger::AnyChange)
                                    .collect(),
                            };
                            self.design.add_process(Process {
                                name: format!("{}assign_fn@{}", scope.prefix, span.start),
                                kind: ProcessKind::Always,
                                body: b.instrs,
                            });
                        }
                    } else {
                        let rhs = self.lower_expr(expr, &scope, None);
                        if let Some(lv) = self.lower_lvalue(target, &scope, AssignCtx::Continuous) {
                            let rhs = self.fit(&lv, rhs, *span);
                            self.design.add_continuous_assign(lv, rhs);
                        }
                    }
                }
                Item::Always { events, body, span } => {
                    self.compile_always(events.as_deref(), body, &scope, *span);
                }
                Item::Initial { body, span } => {
                    let mut b = Builder::default();
                    self.compile_stmt(body, &scope, &mut b);
                    b.emit(Instr::Halt);
                    self.design.add_process(Process {
                        name: format!("{}initial@{}", scope.prefix, span.start),
                        kind: ProcessKind::Initial,
                        body: b.instrs,
                    });
                }
                Item::Instance {
                    module: child_name,
                    name,
                    param_overrides,
                    connections,
                    span,
                } => {
                    let Some(&child) = self.modules.get(child_name.as_str()) else {
                        self.error(
                            codes::ELAB_UNKNOWN_MODULE,
                            format!("unknown module '{child_name}' instantiated as '{name}'"),
                            *span,
                        );
                        continue;
                    };
                    // Evaluate parameter overrides in the parent scope.
                    let mut bindings = HashMap::new();
                    for (i, (pname, expr)) in param_overrides.iter().enumerate() {
                        let value = self.eval_const(expr, &scope).unwrap_or(0);
                        let key = if pname.is_empty() {
                            match child.params.get(i) {
                                Some(p) => p.name.as_str(),
                                None => continue,
                            }
                        } else {
                            pname.as_str()
                        };
                        if !child.params.iter().any(|p| p.name == key) {
                            self.error(
                                codes::ELAB_PORT_MISMATCH,
                                format!("module '{child_name}' has no parameter '{key}'"),
                                *span,
                            );
                            continue;
                        }
                        bindings.insert(key, value);
                    }
                    let child_prefix = format!("{}{}.", scope.prefix, name);
                    self.instantiate(
                        child,
                        child_prefix,
                        bindings,
                        Some(PortBinding {
                            connections,
                            parent_scope: &scope,
                            span: *span,
                        }),
                        depth + 1,
                    );
                }
            }
        }
    }

    /// Builds the effective port list of a non-ANSI module from its
    /// header names and body `input`/`output` declarations.
    fn resolve_nonansi_ports(&mut self, module: &'a Module) -> Vec<PortView<'a>> {
        let mut decls: HashMap<&str, PortView<'a>> = HashMap::new();
        for item in &module.items {
            if let Item::PortDecl {
                dir,
                net_type,
                range,
                names,
            } = item
            {
                for (name, span) in names {
                    decls.insert(
                        name,
                        PortView {
                            dir: *dir,
                            net_type: *net_type,
                            range,
                            name,
                            span: *span,
                        },
                    );
                }
            }
        }
        let mut ports = Vec::new();
        for (name, span) in &module.nonansi_ports {
            match decls.remove(name.as_str()) {
                Some(port) => ports.push(port),
                None => self.error(
                    codes::ELAB_PORT_MISMATCH,
                    format!("port '{name}' has no input/output declaration in the module body"),
                    *span,
                ),
            }
        }
        for (name, port) in decls {
            self.error(
                codes::ELAB_PORT_MISMATCH,
                format!("'{name}' is declared input/output but is not in the port list"),
                port.span,
            );
        }
        ports
    }

    fn declare_net(
        &mut self,
        scope: &mut Scope<'a>,
        name: &'a str,
        width: u32,
        net_type: NetType,
        init: Option<LogicVec>,
        span: Span,
    ) {
        if scope.nets.contains_key(name) || scope.params.contains_key(name) {
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
            kind: match net_type {
                NetType::Wire => NetKind::Wire,
                NetType::Reg => NetKind::Reg,
            },
            init,
        });
        scope.nets.insert(name, NetInfo { id, net_type });
    }

    fn range_width(&mut self, range: &Option<(ast::Expr, ast::Expr)>, scope: &Scope<'a>) -> u32 {
        match range {
            None => 1,
            Some((msb, lsb)) => {
                let m = self.eval_const(msb, scope).unwrap_or(0);
                let l = self.eval_const(lsb, scope).unwrap_or(0);
                (m - l).unsigned_abs() as u32 + 1
            }
        }
    }

    // ------------------------------------------------------ connections

    fn connect_ports(
        &mut self,
        module_name: &str,
        ports: &[PortView<'a>],
        child_scope: &Scope<'a>,
        binding: PortBinding<'a, '_>,
    ) {
        let PortBinding {
            connections,
            parent_scope,
            span,
        } = binding;
        let pairs: Vec<(&PortView<'a>, Option<&'a ast::Expr>, Span)> = match connections {
            Connections::Positional(exprs) => {
                if exprs.len() > ports.len() {
                    self.error(
                        codes::ELAB_PORT_MISMATCH,
                        format!(
                            "too many port connections: module '{module_name}' has {} ports, {} given",
                            ports.len(),
                            exprs.len()
                        ),
                        span,
                    );
                }
                ports
                    .iter()
                    .zip(exprs.iter().map(Some).chain(std::iter::repeat(None)))
                    .map(|(p, e)| (p, e, span))
                    .collect()
            }
            Connections::Named(named) => {
                let mut pairs = Vec::new();
                for (pname, expr, cspan) in named {
                    match ports.iter().find(|p| p.name == pname) {
                        Some(port) => pairs.push((port, expr.as_ref(), *cspan)),
                        None => self.error(
                            codes::ELAB_PORT_MISMATCH,
                            format!("module '{module_name}' has no port named '{pname}'"),
                            *cspan,
                        ),
                    }
                }
                pairs
            }
        };
        for (port, expr, cspan) in pairs {
            let Some(&info) = child_scope.nets.get(port.name) else {
                continue;
            };
            match (port.dir, expr) {
                (PortDir::Input, Some(e)) => {
                    let rhs = self.lower_expr(e, parent_scope, None);
                    let lv = LValue::Net(info.id);
                    let rhs = self.fit(&lv, rhs, cspan);
                    self.design.add_continuous_assign(lv, rhs);
                }
                (PortDir::Input, None) => {
                    self.warning(
                        codes::ELAB_PORT_MISMATCH,
                        format!("input port '{}' is unconnected", port.name),
                        cspan,
                    );
                }
                (PortDir::Output, Some(e)) => {
                    if let Some(lv) = self.lower_lvalue(e, parent_scope, AssignCtx::Continuous) {
                        let rhs = self.fit(&lv, Expr::Net(info.id), cspan);
                        self.design.add_continuous_assign(lv, rhs);
                    }
                }
                (PortDir::Output, None) | (PortDir::Inout, _) => {}
            }
        }
    }

    /// Adjusts `rhs` to the width of `lv` ([`Design::fit`]).
    fn fit(&mut self, lv: &LValue, rhs: Expr, span: Span) -> Expr {
        self.design
            .fit(rhs, lv.width(&self.design), span, self.diags)
    }

    // ---------------------------------------------------- const folding

    fn eval_const(&mut self, e: &ast::Expr, scope: &Scope<'a>) -> Option<i64> {
        match self.try_eval_const(e, scope) {
            Some(v) => Some(v),
            None => {
                self.error(
                    codes::VLOG_SYNTAX,
                    "expected a constant expression".to_string(),
                    span_of(e),
                );
                None
            }
        }
    }

    fn try_eval_const(&self, e: &ast::Expr, scope: &Scope<'a>) -> Option<i64> {
        match e {
            ast::Expr::Number { text, .. } => {
                let v = crate::literal::try_parse_literal(text)?;
                v.to_u64().map(|u| u as i64)
            }
            ast::Expr::Ident { name, .. } => scope.params.get(name.as_str()).copied(),
            ast::Expr::Unary { op, operand } => {
                let v = self.try_eval_const(operand, scope)?;
                Some(match op {
                    UnOp::Negate => -v,
                    UnOp::Not => !v,
                    UnOp::LogicalNot => i64::from(v == 0),
                    UnOp::Plus => v,
                    _ => return None,
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
                    BinOp::Rem => a.checked_rem(b)?,
                    BinOp::Shl => a.wrapping_shl(b as u32),
                    BinOp::Shr => a.wrapping_shr(b as u32),
                    BinOp::Pow => (a as f64).powi(b as i32) as i64,
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Eq => i64::from(a == b),
                    BinOp::Ne => i64::from(a != b),
                    BinOp::Lt => i64::from(a < b),
                    BinOp::Le => i64::from(a <= b),
                    BinOp::Gt => i64::from(a > b),
                    BinOp::Ge => i64::from(a >= b),
                    _ => return None,
                })
            }
            ast::Expr::Ternary { cond, then, els } => {
                let c = self.try_eval_const(cond, scope)?;
                if c != 0 {
                    self.try_eval_const(then, scope)
                } else {
                    self.try_eval_const(els, scope)
                }
            }
            _ => None,
        }
    }

    // -------------------------------------------------------- lowering

    /// Lowers `e`. With a builder (a statement context), function calls
    /// are inlined into it and the call site becomes the return
    /// temporary; without one, a call is an error.
    fn lower_expr(
        &mut self,
        e: &'a ast::Expr,
        scope: &Scope<'a>,
        mut b: Option<&mut Builder>,
    ) -> Expr {
        match e {
            ast::Expr::Number { text, span } => Expr::Const(parse_literal(text, *span, self.diags)),
            ast::Expr::Ident { name, span } => {
                if let Some(&v) = scope.params.get(name.as_str()) {
                    return Expr::Const(LogicVec::from_u64(32, v as u64));
                }
                match self.net(name, *span, scope) {
                    Some(info) => Expr::Net(info.id),
                    None => Expr::Const(LogicVec::xes(1)),
                }
            }
            ast::Expr::Index { base, index } => {
                if let ast::Expr::Ident { name, .. } = base.as_ref() {
                    if let Some(mem) = scope.mems.get(name.as_str()) {
                        let idx = self.lower_expr(index, scope, b);
                        return mem_read_mux(mem, idx);
                    }
                }
                let Some(net) = self.base_net(base, scope) else {
                    return Expr::Const(LogicVec::xes(1));
                };
                let idx = self.lower_expr(index, scope, b);
                Expr::Index {
                    net,
                    index: Box::new(idx),
                }
            }
            ast::Expr::RangeSel { base, msb, lsb } => {
                let Some(net) = self.base_net(base, scope) else {
                    return Expr::Const(LogicVec::xes(1));
                };
                let m = self.eval_const(msb, scope).unwrap_or(0).max(0) as u32;
                let l = self.eval_const(lsb, scope).unwrap_or(0).max(0) as u32;
                let (m, l) = if m >= l { (m, l) } else { (l, m) };
                Expr::Range {
                    net,
                    msb: m,
                    lsb: l,
                }
            }
            ast::Expr::Unary { op, operand } => {
                let inner = self.lower_expr(operand, scope, b);
                match unop_of(*op) {
                    Some(op) => Expr::Unary {
                        op,
                        operand: Box::new(inner),
                    },
                    None => inner, // unary `+` is the identity
                }
            }
            ast::Expr::Binary { op, operands } => {
                let [lhs, rhs] = &**operands;
                let Some(op) = binop_of(*op) else {
                    return self.lower_pow(e, operands, scope, b);
                };
                let l = self.lower_expr(lhs, scope, b.as_deref_mut());
                let r = self.lower_expr(rhs, scope, b);
                Expr::Binary {
                    op,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                }
            }
            ast::Expr::Ternary { cond, then, els } => Expr::Ternary {
                cond: Box::new(self.lower_expr(cond, scope, b.as_deref_mut())),
                then: Box::new(self.lower_expr(then, scope, b.as_deref_mut())),
                els: Box::new(self.lower_expr(els, scope, b)),
            },
            ast::Expr::Concat(parts) => Expr::Concat(
                parts
                    .iter()
                    .map(|p| self.lower_expr(p, scope, b.as_deref_mut()))
                    .collect(),
            ),
            ast::Expr::Repeat { count, value } => {
                let n = self.eval_const(count, scope).unwrap_or(1).max(1) as u32;
                Expr::Repeat {
                    count: n,
                    operand: Box::new(self.lower_expr(value, scope, b)),
                }
            }
            ast::Expr::Time { .. } => Expr::Time,
            ast::Expr::Call(call) => match b {
                Some(b) => self.inline_call(&call.name, &call.args, call.span, scope, b),
                None => {
                    self.error(
                        codes::VLOG_SYNTAX,
                        format!(
                            "function call '{}(...)' is not allowed in this context \
                             (functions are supported in procedural code and continuous assignments)",
                            call.name
                        ),
                        call.span,
                    );
                    Expr::Const(LogicVec::xes(1))
                }
            },
        }
    }

    /// Lowers `lhs ** rhs`, which exists only as a constant fold (all
    /// the suite needs). In a statement context the operands' calls are
    /// inlined first, and then rejected.
    fn lower_pow(
        &mut self,
        e: &'a ast::Expr,
        operands: &'a [ast::Expr; 2],
        scope: &Scope<'a>,
        b: Option<&mut Builder>,
    ) -> Expr {
        if let Some(b) = b.filter(|_| expr_contains_call(e)) {
            for operand in operands {
                self.lower_expr(operand, scope, Some(&mut *b));
            }
            self.error(
                codes::VLOG_SYNTAX,
                "the power operator '**' cannot take function-call operands".to_string(),
                span_of(e),
            );
            return Expr::Const(LogicVec::xes(32));
        }
        if let Some(v) = self.try_eval_const(e, scope) {
            return Expr::Const(LogicVec::from_u64(32, v as u64));
        }
        self.error(
            codes::VLOG_SYNTAX,
            "the power operator '**' requires constant operands".to_string(),
            span_of(e),
        );
        Expr::Const(LogicVec::xes(32))
    }

    /// Inlines one function call: binds arguments to fresh temporaries,
    /// compiles the function body with the argument/return overlay, and
    /// returns the return temporary.
    fn inline_call(
        &mut self,
        name: &'a str,
        args: &'a [ast::Expr],
        span: Span,
        scope: &Scope<'a>,
        b: &mut Builder,
    ) -> Expr {
        let Some(sig) = scope.functions.get(name) else {
            self.error(
                codes::VLOG_UNDECLARED,
                format!("'{name}' is not a declared function"),
                span,
            );
            return Expr::Const(LogicVec::xes(1));
        };
        if args.len() != sig.inputs.len() {
            self.error(
                codes::ELAB_PORT_MISMATCH,
                format!(
                    "function '{name}' takes {} argument(s), {} given",
                    sig.inputs.len(),
                    args.len()
                ),
                span,
            );
            return Expr::Const(LogicVec::xes(sig.width));
        }
        if self.inline_depth >= 16 {
            self.error(
                codes::VLOG_SYNTAX,
                format!("function '{name}': call nesting exceeds 16 (recursion?)"),
                span,
            );
            let end = self.diags.all().len();
            self.nesting_error_end.get_or_insert(end);
            return Expr::Const(LogicVec::xes(sig.width));
        }
        self.inline_counter += 1;
        let uid = self.inline_counter;
        // Overlay scope: arguments and the return variable shadow module
        // names; everything else (nets, params, functions) stays visible.
        let mut inner = scope.clone();
        for ((arg_name, width), arg_expr) in sig.inputs.iter().zip(args) {
            let id = self.design.add_net(Net {
                name: format!("{}$fn{uid}${arg_name}", scope.prefix),
                width: *width,
                kind: NetKind::Reg,
                init: None,
            });
            let value = self.lower_expr(arg_expr, scope, Some(&mut *b));
            let lv = LValue::Net(id);
            let value = self.fit(&lv, value, span);
            b.emit(Instr::BlockingAssign {
                lvalue: lv,
                expr: value,
            });
            inner.nets.insert(
                arg_name,
                NetInfo {
                    id,
                    net_type: NetType::Reg,
                },
            );
        }
        let ret = self.design.add_net(Net {
            name: format!("{}$fn{uid}$return", scope.prefix),
            width: sig.width,
            kind: NetKind::Reg,
            init: None,
        });
        inner.nets.insert(
            name,
            NetInfo {
                id: ret,
                net_type: NetType::Reg,
            },
        );
        let body_start = b.here();
        self.inline_depth += 1;
        self.compile_stmt(sig.body, &inner, b);
        self.inline_depth -= 1;
        if self.inline_depth == 0 {
            if let Some(end) = self.nesting_error_end.take() {
                self.diags.truncate(end);
            }
        }
        // IEEE 1364 §10.3.4: function bodies may not contain timing
        // controls or nonblocking assignments.
        if b.instrs[body_start..].iter().any(|i| {
            matches!(
                i,
                Instr::Delay { .. } | Instr::WaitEvent { .. } | Instr::NonblockingAssign { .. }
            )
        }) {
            self.error(
                codes::VLOG_SYNTAX,
                format!(
                    "function '{name}' contains timing controls or nonblocking \
                     assignments, which functions may not use"
                ),
                span,
            );
        }
        Expr::Net(ret)
    }

    /// Resolves the base of a select, which must be a plain identifier.
    fn base_net(&mut self, base: &ast::Expr, scope: &Scope<'a>) -> Option<NetId> {
        match base {
            ast::Expr::Ident { name, span } => self.net(name, *span, scope).map(|info| info.id),
            other => {
                self.error(
                    codes::VLOG_SYNTAX,
                    "bit/part select base must be a simple identifier".to_string(),
                    span_of(other),
                );
                None
            }
        }
    }

    /// The net `name` refers to in `scope`, or the "not declared" error.
    fn net(&mut self, name: &str, span: Span, scope: &Scope<'a>) -> Option<NetInfo> {
        let info = scope.nets.get(name).copied();
        if info.is_none() {
            self.error(
                codes::VLOG_UNDECLARED,
                format!("'{name}' is not declared"),
                span,
            );
        }
        info
    }

    fn lower_lvalue(
        &mut self,
        e: &'a ast::Expr,
        scope: &Scope<'a>,
        ctx: AssignCtx,
    ) -> Option<LValue> {
        match e {
            ast::Expr::Ident { name, span } => {
                let info = self.lvalue_net(name, *span, scope, ctx)?;
                Some(LValue::Net(info.id))
            }
            ast::Expr::Index { base, index } => {
                let (name, span) = ident_of(base)?;
                let info = self.lvalue_net(name, span, scope, ctx)?;
                let idx = self.lower_expr(index, scope, None);
                Some(LValue::Index(info.id, idx))
            }
            ast::Expr::RangeSel { base, msb, lsb } => {
                let (name, span) = ident_of(base)?;
                let info = self.lvalue_net(name, span, scope, ctx)?;
                let m = self.eval_const(msb, scope)?.max(0) as u32;
                let l = self.eval_const(lsb, scope)?.max(0) as u32;
                let (m, l) = if m >= l { (m, l) } else { (l, m) };
                Some(LValue::Range(info.id, m, l))
            }
            ast::Expr::Concat(parts) => {
                let mut lvs = Vec::new();
                for p in parts {
                    lvs.push(self.lower_lvalue(p, scope, ctx)?);
                }
                Some(LValue::Concat(lvs))
            }
            other => {
                self.error(
                    codes::VLOG_BAD_ASSIGN,
                    "illegal assignment target".to_string(),
                    span_of(other),
                );
                None
            }
        }
    }

    fn lvalue_net(
        &mut self,
        name: &str,
        span: Span,
        scope: &Scope<'a>,
        ctx: AssignCtx,
    ) -> Option<NetInfo> {
        let info = self.net(name, span, scope)?;
        match (ctx, info.net_type) {
            (AssignCtx::Continuous, NetType::Reg) => {
                self.error(
                    codes::VLOG_BAD_ASSIGN,
                    format!("continuous assignment to reg '{name}' is illegal"),
                    span,
                );
                None
            }
            (AssignCtx::Procedural, NetType::Wire) => {
                self.error(
                    codes::VLOG_BAD_ASSIGN,
                    format!(
                        "procedural assignment to wire '{name}' is illegal (declare it as reg)"
                    ),
                    span,
                );
                None
            }
            _ => Some(info),
        }
    }

    // ------------------------------------------------- statement compile

    fn compile_always(
        &mut self,
        events: Option<&[EventExpr]>,
        body: &'a ast::Stmt,
        scope: &Scope<'a>,
        span: Span,
    ) {
        let mut b = Builder::default();
        match events {
            Some(list) if !list.is_empty() => {
                let triggers = self.lower_events(list, scope);
                b.emit(Instr::WaitEvent { triggers });
                self.compile_stmt(body, scope, &mut b);
                b.emit(Instr::Jump(0));
            }
            Some(_) => {
                // @* — infer sensitivity from every net the body reads.
                let wait_slot = b.emit(Instr::WaitEvent {
                    triggers: Vec::new(),
                });
                self.compile_stmt(body, scope, &mut b);
                b.emit(Instr::Jump(0));
                let reads = instr_reads(&b.instrs);
                if reads.is_empty() {
                    self.warning(
                        codes::SIM_RUNTIME,
                        "always @* block reads no signals; it will run once".to_string(),
                        span,
                    );
                }
                b.instrs[wait_slot] = Instr::WaitEvent {
                    triggers: reads.into_iter().map(Trigger::AnyChange).collect(),
                };
            }
            None => {
                self.compile_stmt(body, scope, &mut b);
                b.emit(Instr::Jump(0));
                // An always block with no timing control at all would spin
                // forever within one time step: reject it, as linting
                // compilers do.
                let has_timing = b
                    .instrs
                    .iter()
                    .any(|i| matches!(i, Instr::Delay { .. } | Instr::WaitEvent { .. }));
                if !has_timing {
                    self.error(
                        codes::VLOG_SYNTAX,
                        "always block contains no timing control (# or @)".to_string(),
                        span,
                    );
                }
            }
        }
        self.design.add_process(Process {
            name: format!("{}always@{}", scope.prefix, span.start),
            kind: ProcessKind::Always,
            body: b.instrs,
        });
    }

    fn lower_events(&mut self, list: &[EventExpr], scope: &Scope<'a>) -> Vec<Trigger> {
        let mut triggers = Vec::new();
        for ev in list {
            let (expr, ctor): (&ast::Expr, fn(NetId) -> Trigger) = match ev {
                EventExpr::Posedge(e) => (e, Trigger::Posedge),
                EventExpr::Negedge(e) => (e, Trigger::Negedge),
                EventExpr::Any(e) => (e, Trigger::AnyChange),
            };
            match expr {
                ast::Expr::Ident { name, span } => {
                    if let Some(info) = self.net(name, *span, scope) {
                        triggers.push(ctor(info.id));
                    }
                }
                other => self.error(
                    codes::VLOG_SYNTAX,
                    "event expression must be a simple signal name".to_string(),
                    span_of(other),
                ),
            }
        }
        triggers
    }

    fn compile_stmt(&mut self, stmt: &'a ast::Stmt, scope: &Scope<'a>, b: &mut Builder) {
        match stmt {
            ast::Stmt::Block(stmts) => {
                for s in stmts {
                    self.compile_stmt(s, scope, b);
                }
            }
            ast::Stmt::Blocking {
                target,
                value,
                span,
            } => self.compile_assign(target, value, false, *span, scope, b),
            ast::Stmt::Nonblocking {
                target,
                value,
                span,
            } => self.compile_assign(target, value, true, *span, scope, b),
            ast::Stmt::If { cond, then, els } => {
                let c = self.lower_expr(cond, scope, Some(&mut *b));
                let branch = b.emit_branch(c);
                self.compile_stmt(then, scope, b);
                match els {
                    Some(e) => {
                        let jump_end = b.emit(Instr::Jump(usize::MAX));
                        b.patch(branch, b.here());
                        self.compile_stmt(e, scope, b);
                        b.patch(jump_end, b.here());
                    }
                    None => b.patch(branch, b.here()),
                }
            }
            ast::Stmt::Case {
                subject,
                arms,
                default,
                wildcard,
                span,
            } => {
                self.compile_case(
                    subject,
                    arms,
                    default.as_deref(),
                    *wildcard,
                    *span,
                    scope,
                    b,
                );
            }
            ast::Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.compile_stmt(init, scope, b);
                let head = b.here();
                let c = self.lower_expr(cond, scope, Some(&mut *b));
                let exit = b.emit_branch(c);
                self.compile_stmt(body, scope, b);
                self.compile_stmt(step, scope, b);
                b.emit(Instr::Jump(head));
                b.patch(exit, b.here());
            }
            ast::Stmt::While { cond, body } => {
                let head = b.here();
                let c = self.lower_expr(cond, scope, Some(&mut *b));
                let exit = b.emit_branch(c);
                self.compile_stmt(body, scope, b);
                b.emit(Instr::Jump(head));
                b.patch(exit, b.here());
            }
            ast::Stmt::Repeat { count, body } => {
                // Dedicated hidden counter so nested repeats don't clash.
                let counter = self.design.add_net(Net {
                    name: format!("{}$repeat{}", scope.prefix, self.design.nets.len()),
                    width: 32,
                    kind: NetKind::Reg,
                    init: Some(LogicVec::zeros(32)),
                });
                let n = self.lower_expr(count, scope, None);
                b.emit(Instr::BlockingAssign {
                    lvalue: LValue::Net(counter),
                    expr: n,
                });
                let head = b.here();
                let cond = Expr::Binary {
                    op: BinaryOp::Gt,
                    lhs: Box::new(Expr::Net(counter)),
                    rhs: Box::new(Expr::constant(32, 0)),
                };
                let exit = b.emit_branch(cond);
                self.compile_stmt(body, scope, b);
                b.emit(Instr::BlockingAssign {
                    lvalue: LValue::Net(counter),
                    expr: Expr::Binary {
                        op: BinaryOp::Sub,
                        lhs: Box::new(Expr::Net(counter)),
                        rhs: Box::new(Expr::constant(32, 1)),
                    },
                });
                b.emit(Instr::Jump(head));
                b.patch(exit, b.here());
            }
            ast::Stmt::Forever { body } => {
                let head = b.here();
                self.compile_stmt(body, scope, b);
                b.emit(Instr::Jump(head));
            }
            ast::Stmt::Delay { amount, then } => {
                let amt = self.lower_expr(amount, scope, None);
                b.emit(Instr::Delay { amount: amt });
                if let Some(s) = then {
                    self.compile_stmt(s, scope, b);
                }
            }
            ast::Stmt::EventControl { events, then, span } => {
                if events.is_empty() {
                    self.error(
                        codes::VLOG_SYNTAX,
                        "@* is only supported at the top of an always block".to_string(),
                        *span,
                    );
                } else {
                    let triggers = self.lower_events(events, scope);
                    b.emit(Instr::WaitEvent { triggers });
                }
                if let Some(s) = then {
                    self.compile_stmt(s, scope, b);
                }
            }
            ast::Stmt::WaitCond { cond, then } => {
                // head: if (cond) goto end; wait(any net in cond); goto head;
                let c = self.lower_expr(cond, scope, None);
                let mut reads = Vec::new();
                c.collect_reads(&mut reads);
                reads.sort_unstable();
                reads.dedup();
                let head = b.here();
                let to_wait = b.emit_branch(c);
                let jump_end = b.emit(Instr::Jump(usize::MAX));
                b.patch(to_wait, b.here());
                b.emit(Instr::WaitEvent {
                    triggers: reads.into_iter().map(Trigger::AnyChange).collect(),
                });
                b.emit(Instr::Jump(head));
                b.patch(jump_end, b.here());
                if let Some(s) = then {
                    self.compile_stmt(s, scope, b);
                }
            }
            ast::Stmt::SysCall { name, args, span } => {
                self.compile_syscall(name, args, *span, scope, b);
            }
            ast::Stmt::Null => {}
        }
    }

    /// Compiles `target = value` (`<=` when `nonblocking`). A memory
    /// element target becomes a per-element conditional write.
    #[allow(clippy::too_many_arguments)] // mirrors the AST node's fields
    fn compile_assign(
        &mut self,
        target: &'a ast::Expr,
        value: &'a ast::Expr,
        nonblocking: bool,
        span: Span,
        scope: &Scope<'a>,
        b: &mut Builder,
    ) {
        let expr = self.lower_expr(value, scope, Some(&mut *b));
        if let ast::Expr::Index { base, index } = target {
            if let ast::Expr::Ident { name, .. } = base.as_ref() {
                if let Some(mem) = scope.mems.get(name.as_str()) {
                    self.compile_mem_write(mem, index, expr, nonblocking, span, scope, b);
                    return;
                }
            }
        }
        if let Some(lvalue) = self.lower_lvalue(target, scope, AssignCtx::Procedural) {
            let expr = self.fit(&lvalue, expr, span);
            b.emit(if nonblocking {
                Instr::NonblockingAssign { lvalue, expr }
            } else {
                Instr::BlockingAssign { lvalue, expr }
            });
        }
    }

    /// Compiles `mem[index] = value` / `mem[index] <= value` as a
    /// per-element conditional write (address demultiplexer).
    #[allow(clippy::too_many_arguments)] // one logical operation, many facets
    fn compile_mem_write(
        &mut self,
        mem: &MemInfo,
        index: &'a ast::Expr,
        value: Expr,
        nonblocking: bool,
        span: Span,
        scope: &Scope<'a>,
        b: &mut Builder,
    ) {
        let mut idx = self.lower_expr(index, scope, Some(&mut *b));
        // Evaluate address and data once into temporaries so the demux
        // arms agree even if the expressions have function calls.
        self.inline_counter += 1;
        let uid = self.inline_counter;
        let addr_net = self.design.add_net(Net {
            name: format!("{}$mem{uid}$addr", scope.prefix),
            width: 32,
            kind: NetKind::Reg,
            init: None,
        });
        idx.pad(32, &|id| self.design.net(id).width);
        b.emit(Instr::BlockingAssign {
            lvalue: LValue::Net(addr_net),
            expr: idx,
        });
        let data_net = self.design.add_net(Net {
            name: format!("{}$mem{uid}$data", scope.prefix),
            width: mem.width,
            kind: NetKind::Reg,
            init: None,
        });
        let data_lv = LValue::Net(data_net);
        let value = self.fit(&data_lv, value, span);
        b.emit(Instr::BlockingAssign {
            lvalue: data_lv,
            expr: value,
        });
        for (k, id) in mem.elems.iter().enumerate() {
            let addr = mem.base + k as i64;
            let cond = Expr::Binary {
                op: BinaryOp::Eq,
                lhs: Box::new(Expr::Net(addr_net)),
                rhs: Box::new(Expr::constant(32, addr as u64)),
            };
            let skip = b.emit_branch(cond);
            let instr = if nonblocking {
                Instr::NonblockingAssign {
                    lvalue: LValue::Net(*id),
                    expr: Expr::Net(data_net),
                }
            } else {
                Instr::BlockingAssign {
                    lvalue: LValue::Net(*id),
                    expr: Expr::Net(data_net),
                }
            };
            b.emit(instr);
            b.patch(skip, b.here());
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the AST node's fields
    fn compile_case(
        &mut self,
        subject: &'a ast::Expr,
        arms: &'a [(Box<[ast::Expr]>, ast::Stmt)],
        default: Option<&'a ast::Stmt>,
        wildcard: bool,
        span: Span,
        scope: &Scope<'a>,
        b: &mut Builder,
    ) {
        let subj = self.lower_expr(subject, scope, None);
        let mut end_jumps = Vec::new();
        for (labels, body) in arms {
            let mut cond: Option<Expr> = None;
            for label in labels {
                let c = if wildcard {
                    // casez/casex: constant label with z/?/x as don't-care.
                    match label {
                        ast::Expr::Number { text, span } => {
                            let lit = parse_literal(text, *span, self.diags);
                            let width = lit.width();
                            let mut mask = LogicVec::zeros(width);
                            let mut want = LogicVec::zeros(width);
                            for i in 0..width {
                                match lit.get(i) {
                                    Logic::Zero => mask.set(i, Logic::One),
                                    Logic::One => {
                                        mask.set(i, Logic::One);
                                        want.set(i, Logic::One);
                                    }
                                    Logic::X | Logic::Z => {}
                                }
                            }
                            Expr::Binary {
                                op: BinaryOp::CaseEq,
                                lhs: Box::new(Expr::Binary {
                                    op: BinaryOp::And,
                                    lhs: Box::new(subj.clone()),
                                    rhs: Box::new(Expr::Const(mask)),
                                }),
                                rhs: Box::new(Expr::Const(want)),
                            }
                        }
                        other => {
                            let s = other.span().unwrap_or(span);
                            self.error(
                                codes::VLOG_SYNTAX,
                                "casez/casex labels must be constant literals".to_string(),
                                s,
                            );
                            Expr::constant(1, 0)
                        }
                    }
                } else {
                    Expr::Binary {
                        op: BinaryOp::CaseEq,
                        lhs: Box::new(subj.clone()),
                        rhs: Box::new(self.lower_expr(label, scope, None)),
                    }
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
            let cond = cond.unwrap_or_else(|| Expr::constant(1, 0));
            let skip = b.emit_branch(cond);
            self.compile_stmt(body, scope, b);
            end_jumps.push(b.emit(Instr::Jump(usize::MAX)));
            b.patch(skip, b.here());
        }
        if let Some(d) = default {
            self.compile_stmt(d, scope, b);
        }
        for j in end_jumps {
            b.patch(j, b.here());
        }
    }

    fn compile_syscall(
        &mut self,
        name: &str,
        args: &'a [ast::SysArg],
        span: Span,
        scope: &Scope<'a>,
        b: &mut Builder,
    ) {
        let kind = match name {
            "$display" | "$strobe" => SysTaskKind::Display,
            "$monitor" => SysTaskKind::Monitor,
            "$write" => SysTaskKind::Write,
            "$error" => SysTaskKind::Error,
            "$fatal" => SysTaskKind::Fatal,
            "$finish" | "$stop" => SysTaskKind::Finish,
            other => {
                self.warning(
                    codes::SIM_RUNTIME,
                    format!("system task '{other}' is not supported and will be ignored"),
                    span,
                );
                return;
            }
        };
        let mut format = None;
        let mut exprs = Vec::new();
        for (i, arg) in args.iter().enumerate() {
            match arg {
                ast::SysArg::Str(s) if i == 0 => format = Some(s.clone()),
                ast::SysArg::Str(s) => {
                    // Non-leading strings print literally: fold into format.
                    match &mut format {
                        Some(f) => f.push_str(s),
                        None => format = Some(s.clone()),
                    }
                }
                ast::SysArg::Expr(e) => exprs.push(self.lower_expr(e, scope, Some(&mut *b))),
            }
        }
        // $fatal's first argument may be a finish-code number.
        if kind == SysTaskKind::Fatal && format.is_none() && exprs.len() == 1 {
            exprs.clear();
        }
        b.emit(Instr::SysCall {
            kind,
            format,
            args: exprs,
        });
    }
}

struct PortBinding<'a, 's> {
    connections: &'a Connections,
    parent_scope: &'s Scope<'a>,
    span: Span,
}

fn ident_of(e: &ast::Expr) -> Option<(&str, Span)> {
    match e {
        ast::Expr::Ident { name, span } => Some((name, *span)),
        _ => None,
    }
}

/// Where a diagnostic about `e` points: its first token, or the start
/// of the first file for an expression that has none.
fn span_of(e: &ast::Expr) -> Span {
    e.span().unwrap_or_else(|| Span::file_start(FileId(0)))
}

/// Builds the read multiplexer for `mem[idx]`: a ternary chain over the
/// element nets; out-of-range addresses read all-`X`, like real memory
/// models.
fn mem_read_mux(mem: &MemInfo, idx: Expr) -> Expr {
    let mut out = Expr::Const(LogicVec::xes(mem.width));
    for (k, id) in mem.elems.iter().enumerate().rev() {
        let addr = mem.base + k as i64;
        out = Expr::Ternary {
            cond: Box::new(Expr::Binary {
                op: BinaryOp::Eq,
                lhs: Box::new(idx.clone()),
                rhs: Box::new(Expr::constant(32, addr as u64)),
            }),
            then: Box::new(Expr::Net(*id)),
            els: Box::new(out),
        };
    }
    out
}

/// `true` when the AST expression contains a function call anywhere.
fn expr_contains_call(e: &ast::Expr) -> bool {
    match e {
        ast::Expr::Call { .. } => true,
        ast::Expr::Unary { operand, .. } => expr_contains_call(operand),
        ast::Expr::Binary { operands, .. } => operands.iter().any(expr_contains_call),
        ast::Expr::Ternary { cond, then, els } => {
            expr_contains_call(cond) || expr_contains_call(then) || expr_contains_call(els)
        }
        ast::Expr::Concat(parts) => parts.iter().any(expr_contains_call),
        ast::Expr::Repeat { count, value } => {
            expr_contains_call(count) || expr_contains_call(value)
        }
        ast::Expr::Index { base, index } => expr_contains_call(base) || expr_contains_call(index),
        ast::Expr::RangeSel { base, msb, lsb } => {
            expr_contains_call(base) || expr_contains_call(msb) || expr_contains_call(lsb)
        }
        ast::Expr::Number { .. } | ast::Expr::Ident { .. } | ast::Expr::Time { .. } => false,
    }
}

/// AST → IR unary-operator mapping (`None` for the identity `+`).
fn unop_of(op: UnOp) -> Option<UnaryOp> {
    Some(match op {
        UnOp::Not => UnaryOp::Not,
        UnOp::LogicalNot => UnaryOp::LogicalNot,
        UnOp::Negate => UnaryOp::Negate,
        UnOp::Plus => return None,
        UnOp::ReduceAnd => UnaryOp::ReduceAnd,
        UnOp::ReduceOr => UnaryOp::ReduceOr,
        UnOp::ReduceXor => UnaryOp::ReduceXor,
        UnOp::ReduceNand => UnaryOp::ReduceNand,
        UnOp::ReduceNor => UnaryOp::ReduceNor,
        UnOp::ReduceXnor => UnaryOp::ReduceXnor,
    })
}

/// AST → IR binary-operator mapping (`None` for `**`, which only exists
/// as a constant fold).
fn binop_of(op: BinOp) -> Option<BinaryOp> {
    Some(match op {
        BinOp::And => BinaryOp::And,
        BinOp::Or => BinaryOp::Or,
        BinOp::Xor => BinaryOp::Xor,
        BinOp::Xnor => BinaryOp::Xnor,
        BinOp::LogicalAnd => BinaryOp::LogicalAnd,
        BinOp::LogicalOr => BinaryOp::LogicalOr,
        BinOp::Add => BinaryOp::Add,
        BinOp::Sub => BinaryOp::Sub,
        BinOp::Mul => BinaryOp::Mul,
        BinOp::Div => BinaryOp::Div,
        BinOp::Rem => BinaryOp::Rem,
        BinOp::Pow => return None,
        BinOp::Shl => BinaryOp::Shl,
        BinOp::Shr => BinaryOp::Shr,
        BinOp::Eq => BinaryOp::Eq,
        BinOp::Ne => BinaryOp::Ne,
        BinOp::CaseEq => BinaryOp::CaseEq,
        BinOp::CaseNe => BinaryOp::CaseNe,
        BinOp::Lt => BinaryOp::Lt,
        BinOp::Le => BinaryOp::Le,
        BinOp::Gt => BinaryOp::Gt,
        BinOp::Ge => BinaryOp::Ge,
    })
}

/// Every net the instructions read, sorted and without repeats (for
/// `@*` inference).
fn instr_reads(instrs: &[Instr]) -> Vec<NetId> {
    let mut out = Vec::new();
    for i in instrs {
        match i {
            Instr::BlockingAssign { lvalue, expr } | Instr::NonblockingAssign { lvalue, expr } => {
                expr.collect_reads(&mut out);
                if let LValue::Index(_, idx) = lvalue {
                    idx.collect_reads(&mut out);
                }
            }
            Instr::Delay { amount } => amount.collect_reads(&mut out),
            Instr::BranchIfFalse { cond, .. } => cond.collect_reads(&mut out),
            Instr::SysCall { args, .. } => {
                for a in args {
                    a.collect_reads(&mut out);
                }
            }
            Instr::WaitEvent { .. } | Instr::Jump(_) | Instr::Halt => {}
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}
