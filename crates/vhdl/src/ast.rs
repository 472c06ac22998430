//! Abstract syntax tree for the VHDL-93 subset.
//!
//! Every list is a boxed slice exactly as long as what it holds (the
//! parser collects each list on a scratch stack and moves it out with
//! one allocation), and the rare wide variants ([`Expr::Call`],
//! [`Expr::Slice`], [`Expr::Attr`], [`SeqStmt::For`]) are boxed, so the
//! common nodes stay small: the EDA parse memo keeps one of these trees
//! for every file it has seen.

use aivril_hdl::source::Span;
use aivril_hdl::Name;
use std::sync::Arc;

/// A parsed design file: entities and architectures.
///
/// Design units are `Arc`-shared so per-file parse results can be
/// memoized (the EDA parse cache) and stitched into fresh files without
/// cloning the AST bodies.
#[derive(Debug, Clone, Default)]
pub struct DesignFile {
    /// Entity declarations.
    pub entities: Vec<Arc<Entity>>,
    /// Architecture bodies.
    pub architectures: Vec<Arc<Architecture>>,
}

/// `entity NAME is [generic(...)] [port(...)] end;`
#[derive(Debug, Clone)]
pub struct Entity {
    /// Entity name (lowercased).
    pub name: String,
    /// Generic declarations.
    pub generics: Box<[GenericDecl]>,
    /// Port declarations.
    pub ports: Box<[PortDecl]>,
    /// Location of the header.
    pub span: Span,
}

/// One generic constant.
#[derive(Debug, Clone)]
pub struct GenericDecl {
    /// Name (lowercased).
    pub name: String,
    /// Default value.
    pub default: Option<Expr>,
    /// Location.
    pub span: Span,
}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// `in`
    In,
    /// `out`
    Out,
    /// `inout` (rejected at elaboration)
    Inout,
}

/// A subtype indication of the supported type universe.
#[derive(Debug, Clone)]
pub enum TypeMark {
    /// `std_logic`
    StdLogic,
    /// `std_logic_vector(h downto l)` / `unsigned(...)` / `signed(...)`
    Vector {
        /// High bound expression.
        high: Expr,
        /// Low bound expression.
        low: Expr,
        /// `true` for `downto`, `false` for `to`.
        downto: bool,
    },
    /// `integer` (32 bits here)
    Integer,
    /// `boolean`
    Boolean,
}

/// One port.
#[derive(Debug, Clone)]
pub struct PortDecl {
    /// Name (lowercased).
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Type.
    pub ty: TypeMark,
    /// Location.
    pub span: Span,
}

/// `architecture NAME of ENTITY is DECLS begin STMTS end;`
#[derive(Debug, Clone)]
pub struct Architecture {
    /// Architecture name.
    pub name: String,
    /// Target entity name.
    pub entity: String,
    /// Declarative part.
    pub decls: Box<[Decl]>,
    /// Concurrent statements.
    pub stmts: Box<[ConcurrentStmt]>,
    /// Location.
    pub span: Span,
}

/// A declaration in an architecture's declarative part.
#[derive(Debug, Clone)]
pub enum Decl {
    /// `signal a, b : TYPE [:= init];`
    Signal {
        /// Declared names.
        names: Box<[(String, Span)]>,
        /// Type.
        ty: TypeMark,
        /// Optional initial value.
        init: Option<Expr>,
    },
    /// `constant C : TYPE := value;`
    Constant {
        /// Name.
        name: String,
        /// Value expression.
        value: Expr,
        /// Location.
        span: Span,
    },
}

/// A concurrent statement.
#[derive(Debug, Clone)]
pub enum ConcurrentStmt {
    /// `target <= value;` or `target <= a when c else b;`
    Assign {
        /// Target signal expression.
        target: Expr,
        /// Value (possibly a when/else chain lowered to [`Expr::When`]).
        value: Expr,
        /// Location.
        span: Span,
    },
    /// `process (sens) [variable decls] begin ... end process;`
    Process {
        /// Optional label.
        label: Option<String>,
        /// Sensitivity list signal names.
        sensitivity: Box<[(String, Span)]>,
        /// Process-local variable declarations.
        variables: Box<[VarDecl]>,
        /// Sequential body.
        body: Box<[SeqStmt]>,
        /// Location.
        span: Span,
    },
    /// `label: entity work.NAME [generic map (...)] port map (...);`
    Instance {
        /// Instance label.
        label: String,
        /// Instantiated entity name.
        entity: String,
        /// Generic associations.
        generic_map: Box<[(String, Expr)]>,
        /// Port associations (`open` = `None`).
        port_map: Box<[(String, Option<Expr>, Span)]>,
        /// Location.
        span: Span,
    },
}

/// Severity of an `assert`/`report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeverityLevel {
    /// `note`
    Note,
    /// `warning`
    Warning,
    /// `error`
    Error,
    /// `failure`
    Failure,
}

/// One process-local variable declaration.
#[derive(Debug, Clone)]
pub struct VarDecl {
    /// Declared names.
    pub names: Box<[(String, Span)]>,
    /// Type.
    pub ty: TypeMark,
    /// Optional initial value.
    pub init: Option<Expr>,
}

/// A sequential statement inside a process.
#[derive(Debug, Clone)]
pub enum SeqStmt {
    /// `target := value;` — immediate (variable) assignment.
    VariableAssign {
        /// Target variable.
        target: Expr,
        /// Value.
        value: Expr,
        /// Location.
        span: Span,
    },
    /// `target <= value;`
    SignalAssign {
        /// Target.
        target: Expr,
        /// Value.
        value: Expr,
        /// Location.
        span: Span,
    },
    /// `if c1 then .. elsif c2 then .. else .. end if;`
    If {
        /// `(condition, body)` arms: the `if` plus each `elsif`.
        arms: Box<[(Expr, Box<[SeqStmt]>)]>,
        /// `else` body.
        els: Option<Box<[SeqStmt]>>,
    },
    /// `case subject is when ... end case;`
    Case {
        /// Scrutinee.
        subject: Expr,
        /// `(choices, body)` arms; an empty choice list = `when others`.
        arms: Box<[CaseArm]>,
        /// Location.
        span: Span,
    },
    /// `for i in A to|downto B loop ... end loop;` (boxed: rare, and
    /// wider than the other statements).
    For(Box<ForLoop>),
    /// `while cond loop ... end loop;`
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Box<[SeqStmt]>,
    },
    /// `wait for N ns;`
    WaitFor {
        /// Amount in time units.
        amount: Expr,
        /// Location.
        span: Span,
    },
    /// `wait until cond;`
    WaitUntil {
        /// Resume condition.
        cond: Expr,
        /// Location.
        span: Span,
    },
    /// `wait;` — suspend forever.
    WaitForever {
        /// Location.
        span: Span,
    },
    /// `assert cond [report "msg"] [severity level];`
    Assert {
        /// Condition (message fires when it is false).
        cond: Expr,
        /// Message.
        report: Option<String>,
        /// Severity (defaults to error).
        severity: SeverityLevel,
        /// Location.
        span: Span,
    },
    /// `report "msg" [severity level];`
    Report {
        /// Message.
        message: String,
        /// Severity (defaults to note).
        severity: SeverityLevel,
        /// Location.
        span: Span,
    },
    /// `null;`
    Null,
}

/// One `when` arm of a `case`: `(choices, body)`, where empty choices
/// are `when others`.
pub type CaseArm = (Box<[Expr]>, Box<[SeqStmt]>);

/// A `for` loop.
#[derive(Debug, Clone)]
pub struct ForLoop {
    /// Loop variable name.
    pub var: String,
    /// Start bound.
    pub from: Expr,
    /// End bound.
    pub to: Expr,
    /// Direction.
    pub downto: bool,
    /// Body.
    pub body: Box<[SeqStmt]>,
    /// Location.
    pub span: Span,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    And,
    Or,
    Xor,
    Nand,
    Nor,
    Xnor,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Concat,
    Mul,
    Div,
    Mod,
    Rem,
    Sll,
    Srl,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    Not,
    Negate,
    Plus,
}

/// An expression.
///
/// Names and literal digits are a [`Name`], which derefs to `&str` and
/// keeps short text inline.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Integer literal.
    Int {
        /// Value.
        value: i64,
        /// Location.
        span: Span,
    },
    /// Character literal `'0'`, `'1'`, `'X'`, `'Z'`.
    CharLit {
        /// The character.
        ch: char,
        /// Location.
        span: Span,
    },
    /// Bit-string literal `"0101"`.
    BitString {
        /// Binary digit text.
        bits: Name,
        /// Location.
        span: Span,
    },
    /// Hex bit-string `x"A5"`.
    HexString {
        /// Hex digit text.
        digits: Name,
        /// Location.
        span: Span,
    },
    /// String literal used as a report message.
    StrLit {
        /// Text.
        text: String,
        /// Location.
        span: Span,
    },
    /// `true` / `false`
    Bool {
        /// Value.
        value: bool,
        /// Location.
        span: Span,
    },
    /// Name reference.
    Ident {
        /// Name (lowercased).
        name: Name,
        /// Location.
        span: Span,
    },
    /// `name(arg1, arg2, ...)` — call, index, or conversion; resolved at
    /// elaboration.
    Call(Box<Call>),
    /// `name(H downto L)` / `name(L to H)` slice.
    Slice(Box<Slice>),
    /// `name'attr` (only `'event` is supported).
    Attr(Box<Attr>),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left and right operands, in one allocation.
        operands: Box<[Expr; 2]>,
    },
    /// `(others => FILL)` aggregate.
    Aggregate {
        /// Fill value.
        fill: Box<Expr>,
        /// Location.
        span: Span,
    },
    /// `V when COND else W [when ... else ...]` conditional value.
    When {
        /// Value when the condition holds.
        value: Box<Expr>,
        /// Condition.
        cond: Box<Expr>,
        /// Fallback.
        els: Box<Expr>,
    },
}

/// `name(arg1, arg2, ...)`: a call, an index or a conversion.
#[derive(Debug, Clone)]
pub struct Call {
    /// Called/indexed name.
    pub name: Name,
    /// Arguments.
    pub args: Box<[Expr]>,
    /// Location.
    pub span: Span,
}

/// `name(H downto L)` / `name(L to H)`.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Sliced name.
    pub name: Name,
    /// High/left bound.
    pub left: Expr,
    /// Low/right bound.
    pub right: Expr,
    /// Direction.
    pub downto: bool,
    /// Location.
    pub span: Span,
}

/// `name'attr`.
#[derive(Debug, Clone)]
pub struct Attr {
    /// Base name.
    pub name: Name,
    /// Attribute name (lowercased).
    pub attr: Name,
    /// Location.
    pub span: Span,
}

impl Expr {
    /// Best-effort source anchor.
    #[must_use]
    pub fn span(&self) -> Option<Span> {
        match self {
            Expr::Int { span, .. }
            | Expr::CharLit { span, .. }
            | Expr::BitString { span, .. }
            | Expr::HexString { span, .. }
            | Expr::StrLit { span, .. }
            | Expr::Bool { span, .. }
            | Expr::Ident { span, .. }
            | Expr::Aggregate { span, .. } => Some(*span),
            Expr::Call(call) => Some(call.span),
            Expr::Slice(slice) => Some(slice.span),
            Expr::Attr(attr) => Some(attr.span),
            Expr::Unary { operand, .. } => operand.span(),
            Expr::Binary { operands, .. } => operands[0].span(),
            Expr::When { value, .. } => value.span(),
        }
    }
}
