//! Abstract syntax tree for the Verilog-2001 subset.
//!
//! Every list is a boxed slice exactly as long as what it holds (the
//! parser collects each list on a scratch stack and moves it out with
//! one allocation), and the rare wide variants ([`Expr::Call`],
//! [`Item::Function`]) are boxed, so the common nodes stay small: the
//! EDA parse memo keeps one of these trees for every file it has seen.

use aivril_hdl::source::Span;
use aivril_hdl::Name;
use std::sync::Arc;

/// A parsed compilation unit (one or more source files).
///
/// Modules are `Arc`-shared so per-file parse results can be memoized
/// (the EDA parse cache) and stitched into fresh units without cloning
/// the AST bodies.
#[derive(Debug, Clone, Default)]
pub struct SourceUnit {
    /// All module definitions in parse order.
    pub modules: Vec<Arc<Module>>,
}

/// A `module ... endmodule` definition.
#[derive(Debug, Clone)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Location of the header.
    pub span: Span,
    /// `#(parameter ...)` header parameters, plus body `parameter` items.
    pub params: Box<[ParamDecl]>,
    /// ANSI-style port declarations (empty for non-ANSI headers).
    pub ports: Box<[Port]>,
    /// Non-ANSI header port names (`module m(a, b);`), in port order;
    /// their directions come from body [`Item::PortDecl`] items.
    pub nonansi_ports: Box<[(String, Span)]>,
    /// Module body items.
    pub items: Box<[Item]>,
}

/// One parameter declaration with its default expression.
#[derive(Debug, Clone)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: String,
    /// Default value (a constant expression).
    pub default: Expr,
    /// Declaration location.
    pub span: Span,
    /// `true` for `localparam` (not overridable at instantiation).
    pub local: bool,
}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// `input`
    Input,
    /// `output`
    Output,
    /// `inout` (accepted, treated as unsupported at elaboration)
    Inout,
}

/// Declared net discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetType {
    /// `wire` (default for ports)
    Wire,
    /// `reg`
    Reg,
}

/// An ANSI port declaration.
#[derive(Debug, Clone)]
pub struct Port {
    /// Direction.
    pub dir: PortDir,
    /// Discipline (`output reg q` vs `output q`).
    pub net_type: NetType,
    /// Optional `[msb:lsb]` range (constant expressions).
    pub range: Option<(Expr, Expr)>,
    /// Port name.
    pub name: String,
    /// Location.
    pub span: Span,
}

/// A module body item.
#[derive(Debug, Clone)]
pub enum Item {
    /// `wire`/`reg` declaration (possibly multiple names).
    NetDecl {
        /// Discipline.
        net_type: NetType,
        /// Optional `[msb:lsb]` range.
        range: Option<(Expr, Expr)>,
        /// Declared names with optional initialisers (`reg q = 0;`).
        names: Box<[(String, Span, Option<Expr>)]>,
    },
    /// Memory declaration: `reg [7:0] name [0:15];`
    MemDecl {
        /// Element `[msb:lsb]` range (element width).
        width_range: Option<(Expr, Expr)>,
        /// Declared memories.
        names: Box<[MemName]>,
    },
    /// `integer` declaration — elaborated as a 32-bit `reg`.
    IntegerDecl {
        /// Declared names.
        names: Box<[(String, Span)]>,
    },
    /// Body port-direction declaration for a non-ANSI header
    /// (`input [3:0] a;` / `output reg q;`).
    PortDecl {
        /// Direction.
        dir: PortDir,
        /// Discipline (`output reg q`).
        net_type: NetType,
        /// Optional `[msb:lsb]` range.
        range: Option<(Expr, Expr)>,
        /// Declared names.
        names: Box<[(String, Span)]>,
    },
    /// Body `parameter`/`localparam`.
    Param(ParamDecl),
    /// `assign target = expr;`
    ContinuousAssign {
        /// Target expression (must elaborate to an l-value).
        target: Expr,
        /// Source expression.
        expr: Expr,
        /// Location.
        span: Span,
    },
    /// `always ...`
    Always {
        /// Sensitivity: `Some(events)` for `@(...)`, `None` when the body
        /// paces itself with delays (`always #5 clk = ~clk;`), and
        /// `Some(empty)` for `@*`.
        events: Option<Box<[EventExpr]>>,
        /// Body statement.
        body: Stmt,
        /// Location.
        span: Span,
    },
    /// `initial ...`
    Initial {
        /// Body statement.
        body: Stmt,
        /// Location.
        span: Span,
    },
    /// `function [range] name; input decls...; body endfunction`
    /// (boxed: rare, and wider than the other items).
    Function(Box<FunctionDecl>),
    /// Module instantiation.
    Instance {
        /// Instantiated module name.
        module: String,
        /// Instance name.
        name: String,
        /// `#(.P(expr))` parameter overrides.
        param_overrides: Box<[(String, Expr)]>,
        /// Port connections.
        connections: Connections,
        /// Location.
        span: Span,
    },
}

/// One declared memory: `(name, (bound_a, bound_b), span)`.
pub type MemName = (String, (Expr, Expr), Span);

/// One function input argument: `(name, range, span)`.
pub type FunctionInput = (String, Option<(Expr, Expr)>, Span);

/// A module-level function declaration.
#[derive(Debug, Clone)]
pub struct FunctionDecl {
    /// Function name (doubles as the return variable inside the body).
    pub name: String,
    /// Optional return `[msb:lsb]` range (1 bit when absent).
    pub range: Option<(Expr, Expr)>,
    /// Input arguments in declaration order.
    pub inputs: Box<[FunctionInput]>,
    /// Body statement.
    pub body: Stmt,
    /// Location.
    pub span: Span,
}

/// Port connection style at an instantiation.
#[derive(Debug, Clone)]
pub enum Connections {
    /// `.port(expr)` pairs; `expr` of `None` means explicitly open.
    Named(Box<[(String, Option<Expr>, Span)]>),
    /// Positional expressions.
    Positional(Box<[Expr]>),
}

/// One entry of an `@(...)` event list.
#[derive(Debug, Clone)]
pub enum EventExpr {
    /// `posedge sig`
    Posedge(Expr),
    /// `negedge sig`
    Negedge(Expr),
    /// plain `sig`
    Any(Expr),
}

/// A behavioural statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `begin ... end`
    Block(Box<[Stmt]>),
    /// `target = expr;`
    Blocking {
        /// Assignment target.
        target: Expr,
        /// Value.
        value: Expr,
        /// Location.
        span: Span,
    },
    /// `target <= expr;`
    Nonblocking {
        /// Assignment target.
        target: Expr,
        /// Value.
        value: Expr,
        /// Location.
        span: Span,
    },
    /// `if (cond) then [else els]`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Box<Stmt>,
        /// Optional else branch.
        els: Option<Box<Stmt>>,
    },
    /// `case`/`casez`/`casex`
    Case {
        /// Scrutinee.
        subject: Expr,
        /// `(labels, body)` arms in source order.
        arms: Box<[(Box<[Expr]>, Stmt)]>,
        /// `default:` body.
        default: Option<Box<Stmt>>,
        /// `true` for `casez`/`casex` (don't-care matching).
        wildcard: bool,
        /// Location.
        span: Span,
    },
    /// `for (init; cond; step) body`
    For {
        /// Init assignment, a [`Stmt::Blocking`] with its own span.
        init: Box<Stmt>,
        /// Loop condition.
        cond: Expr,
        /// Step assignment, a [`Stmt::Blocking`] with its own span.
        step: Box<Stmt>,
        /// Body.
        body: Box<Stmt>,
    },
    /// `while (cond) body`
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Box<Stmt>,
    },
    /// `repeat (count) body`
    Repeat {
        /// Iteration count.
        count: Expr,
        /// Body.
        body: Box<Stmt>,
    },
    /// `forever body`
    Forever {
        /// Body.
        body: Box<Stmt>,
    },
    /// `#amount [stmt]`
    Delay {
        /// Delay amount.
        amount: Expr,
        /// Optional controlled statement.
        then: Option<Box<Stmt>>,
    },
    /// `@(events) [stmt]`
    EventControl {
        /// Events.
        events: Box<[EventExpr]>,
        /// Optional controlled statement.
        then: Option<Box<Stmt>>,
        /// Location of the `@`.
        span: Span,
    },
    /// `wait (cond) [stmt]` — level-sensitive wait.
    WaitCond {
        /// Condition to wait for.
        cond: Expr,
        /// Optional controlled statement.
        then: Option<Box<Stmt>>,
    },
    /// `$task(args);`
    SysCall {
        /// Task name including `$`.
        name: Name,
        /// Arguments (strings or expressions).
        args: Box<[SysArg]>,
        /// Location.
        span: Span,
    },
    /// `;`
    Null,
}

/// A system-task argument.
#[derive(Debug, Clone)]
pub enum SysArg {
    /// String literal (typically the format).
    Str(String),
    /// Expression argument.
    Expr(Expr),
}

/// An expression with location info on the leaves that need it.
///
/// Identifier and literal text is a [`Name`], which derefs to `&str`
/// and keeps short text inline.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Integer literal text (e.g. `8'hFF`), value-parsed at elaboration.
    Number {
        /// Literal text as written, blanks removed.
        text: Name,
        /// Location.
        span: Span,
    },
    /// Identifier reference.
    Ident {
        /// Name.
        name: Name,
        /// Location.
        span: Span,
    },
    /// `base[index]`
    Index {
        /// Indexed identifier.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `base[msb:lsb]` (constant bounds).
    RangeSel {
        /// Selected identifier.
        base: Box<Expr>,
        /// MSB bound.
        msb: Box<Expr>,
        /// LSB bound.
        lsb: Box<Expr>,
    },
    /// Unary operator application.
    Unary {
        /// Operator text (`~`, `!`, `-`, `&`, `|`, `^`, `~&`, `~|`, `~^`).
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Binary operator application.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left and right operands, in one allocation.
        operands: Box<[Expr; 2]>,
    },
    /// `cond ? a : b`
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// True arm.
        then: Box<Expr>,
        /// False arm.
        els: Box<Expr>,
    },
    /// `{a, b, ...}`
    Concat(Box<[Expr]>),
    /// `{n{v}}`
    Repeat {
        /// Replication count (constant).
        count: Box<Expr>,
        /// Replicated value.
        value: Box<Expr>,
    },
    /// `$time`
    Time {
        /// Location.
        span: Span,
    },
    /// `f(arg, ...)` — a function call, inlined at elaboration (boxed:
    /// rare, and wider than the other expressions).
    Call(Box<Call>),
}

/// A function call in expression position.
#[derive(Debug, Clone)]
pub struct Call {
    /// Function name.
    pub name: String,
    /// Arguments.
    pub args: Box<[Expr]>,
    /// Location.
    pub span: Span,
}

impl Expr {
    /// The span of this expression's leftmost leaf (best-effort anchor
    /// for diagnostics).
    #[must_use]
    pub fn span(&self) -> Option<Span> {
        match self {
            Expr::Number { span, .. } | Expr::Ident { span, .. } | Expr::Time { span } => {
                Some(*span)
            }
            Expr::Index { base, .. } | Expr::RangeSel { base, .. } => base.span(),
            Expr::Unary { operand, .. } => operand.span(),
            Expr::Binary { operands, .. } => operands[0].span(),
            Expr::Ternary { cond, .. } => cond.span(),
            Expr::Concat(parts) => parts.first().and_then(Expr::span),
            Expr::Repeat { count, .. } => count.span(),
            Expr::Call(call) => Some(call.span),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    Not,
    LogicalNot,
    Negate,
    Plus,
    ReduceAnd,
    ReduceOr,
    ReduceXor,
    ReduceNand,
    ReduceNor,
    ReduceXnor,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    And,
    Or,
    Xor,
    Xnor,
    LogicalAnd,
    LogicalOr,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Pow,
    Shl,
    Shr,
    Eq,
    Ne,
    CaseEq,
    CaseNe,
    Lt,
    Le,
    Gt,
    Ge,
}
