//! Elaborated design intermediate representation.
//!
//! Both the Verilog and VHDL frontends lower their ASTs into this single
//! IR, which the event-driven simulator executes directly. Sharing one IR
//! is what gives the toolchain mixed-language simulation — the property
//! the paper exploited by running Vivado's unified HLx flow.
//!
//! A [`Design`] is a flat list of [`Net`]s (four-state vectors) plus a
//! list of [`Process`]es. Statement-level constructs (`if`, `case`,
//! loops, delays, event controls) are compiled into a small linear
//! instruction program ([`Instr`]) per process, so that processes can be
//! suspended at `#delay` / `wait` points and resumed by the scheduler —
//! the standard coroutine-free technique used by interpreted HDL kernels.

use crate::diag::{codes, Diagnostic, Diagnostics};
use crate::source::Span;
use crate::vec::LogicVec;
use std::fmt;

/// Index of a net in [`Design::nets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Index of a process in [`Design::processes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u32);

/// How a net may be driven; informational for linting and log messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// Driven by continuous assignments / port connections (`wire`,
    /// VHDL signal driven concurrently).
    Wire,
    /// Driven by procedural code (`reg`, VHDL signal driven in a process).
    Reg,
}

/// A state-holding vector signal in the elaborated design.
#[derive(Debug, Clone)]
pub struct Net {
    /// Hierarchical name, e.g. `tb.u_dut.count`.
    pub name: String,
    /// Bit width (>= 1).
    pub width: u32,
    /// Driving discipline.
    pub kind: NetKind,
    /// Optional initial value; nets without one start all-`X`.
    pub init: Option<LogicVec>,
}

/// Unary operators over [`LogicVec`] operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Bitwise NOT (`~`, VHDL `not`).
    Not,
    /// Logical NOT (`!`): 1-bit result.
    LogicalNot,
    /// Two's-complement negation (`-`).
    Negate,
    /// Reduction AND (`&v`).
    ReduceAnd,
    /// Reduction OR (`|v`).
    ReduceOr,
    /// Reduction XOR (`^v`).
    ReduceXor,
    /// Reduction NAND (`~&v`).
    ReduceNand,
    /// Reduction NOR (`~|v`).
    ReduceNor,
    /// Reduction XNOR (`~^v`).
    ReduceXnor,
}

/// Binary operators over [`LogicVec`] operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise XNOR.
    Xnor,
    /// Logical AND (`&&`): 1-bit result.
    LogicalAnd,
    /// Logical OR (`||`): 1-bit result.
    LogicalOr,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Rem,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Logical equality (`==`): may yield `X`.
    Eq,
    /// Logical inequality (`!=`): may yield `X`.
    Ne,
    /// Case equality (`===`): always `0`/`1`.
    CaseEq,
    /// Case inequality (`!==`): always `0`/`1`.
    CaseNe,
    /// Unsigned less-than.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
}

/// An expression tree evaluated against current net values.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant vector value.
    Const(LogicVec),
    /// The full value of a net.
    Net(NetId),
    /// Dynamic bit-select `net[expr]`.
    Index {
        /// Source net.
        net: NetId,
        /// Bit index expression (out-of-range reads yield `X`).
        index: Box<Expr>,
    },
    /// Constant part-select `net[msb:lsb]`.
    Range {
        /// Source net.
        net: NetId,
        /// Most-significant selected bit.
        msb: u32,
        /// Least-significant selected bit.
        lsb: u32,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Conditional `cond ? then : else`; an unknown condition merges both
    /// arms bit-wise into `X` where they disagree.
    Ternary {
        /// Selector.
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        els: Box<Expr>,
    },
    /// Concatenation `{a, b, ...}`, first element most significant.
    Concat(Vec<Expr>),
    /// Replication `{count{v}}`.
    Repeat {
        /// Replication count (elaboration-time constant).
        count: u32,
        /// Replicated operand.
        operand: Box<Expr>,
    },
    /// Current simulation time (`$time`), 64-bit.
    Time,
    /// VHDL `rising_edge(sig)` / `falling_edge(sig)`: true exactly when
    /// the executing process was resumed by a change of `net` whose new
    /// low bit matches the requested direction. Evaluates false in
    /// contexts with no wake information (continuous assigns, time
    /// wake-ups, initial execution).
    EdgeFlag {
        /// Observed signal.
        net: NetId,
        /// `true` for a rising edge, `false` for a falling edge.
        rising: bool,
    },
}

impl Expr {
    /// Convenience constructor for a sized constant.
    #[must_use]
    pub fn constant(width: u32, value: u64) -> Expr {
        Expr::Const(LogicVec::from_u64(width, value))
    }

    /// Computes this expression's self-determined width in bits, given
    /// an oracle for net widths.
    #[must_use]
    pub fn width_with(&self, net_width: &dyn Fn(NetId) -> u32) -> u32 {
        match self {
            Expr::Const(v) => v.width(),
            Expr::Net(id) => net_width(*id),
            Expr::Index { .. } | Expr::EdgeFlag { .. } => 1,
            Expr::Range { msb, lsb, .. } => msb - lsb + 1,
            Expr::Unary { op, operand } => match op {
                UnaryOp::Not | UnaryOp::Negate => operand.width_with(net_width),
                _ => 1,
            },
            Expr::Binary { op, lhs, rhs } => match op {
                BinaryOp::Eq
                | BinaryOp::Ne
                | BinaryOp::CaseEq
                | BinaryOp::CaseNe
                | BinaryOp::Lt
                | BinaryOp::Le
                | BinaryOp::Gt
                | BinaryOp::Ge
                | BinaryOp::LogicalAnd
                | BinaryOp::LogicalOr => 1,
                BinaryOp::Shl | BinaryOp::Shr => lhs.width_with(net_width),
                _ => lhs.width_with(net_width).max(rhs.width_with(net_width)),
            },
            Expr::Ternary { then, els, .. } => {
                then.width_with(net_width).max(els.width_with(net_width))
            }
            Expr::Concat(parts) => parts.iter().map(|p| p.width_with(net_width)).sum(),
            Expr::Repeat { count, operand } => count * operand.width_with(net_width),
            Expr::Time => 64,
        }
    }

    /// Recursively widens context-determined operators (arithmetic,
    /// bitwise, shifts, ternaries, constants) to `w` bits, zero-padding
    /// self-determined subexpressions — the IEEE 1364 context-determined
    /// sizing rule shared by both frontends. Rewrites the tree in place:
    /// only the constants that grow and the pads it inserts allocate.
    pub fn widen(&mut self, w: u32, net_width: &dyn Fn(NetId) -> u32) {
        // No early return at equal width: context sizing must still reach
        // narrower inner operands (e.g. `a + (flag << 1)` with 1-bit
        // `flag`), exactly as in IEEE 1364.
        match self {
            Expr::Const(v) => {
                if v.width() < w {
                    *v = v.resize(w);
                }
            }
            Expr::Binary {
                op: BinaryOp::Shl | BinaryOp::Shr,
                lhs,
                ..
            } => lhs.widen(w, net_width),
            Expr::Binary {
                op:
                    BinaryOp::Add
                    | BinaryOp::Sub
                    | BinaryOp::Mul
                    | BinaryOp::Div
                    | BinaryOp::Rem
                    | BinaryOp::And
                    | BinaryOp::Or
                    | BinaryOp::Xor
                    | BinaryOp::Xnor,
                lhs,
                rhs,
            } => {
                lhs.widen(w, net_width);
                rhs.widen(w, net_width);
            }
            Expr::Unary {
                op: UnaryOp::Not | UnaryOp::Negate,
                operand,
            } => operand.widen(w, net_width),
            Expr::Ternary { then, els, .. } => {
                then.widen(w, net_width);
                els.widen(w, net_width);
            }
            _ => self.pad(w, net_width),
        }
    }

    /// Zero-extends a self-determined expression to `w` bits in place by
    /// concatenating leading zeros.
    pub fn pad(&mut self, w: u32, net_width: &dyn Fn(NetId) -> u32) {
        let cur = self.width_with(net_width);
        if cur < w {
            let inner = std::mem::replace(self, Expr::Time);
            *self = Expr::Concat(vec![Expr::Const(LogicVec::zeros(w - cur)), inner]);
        }
    }

    /// Collects every net read by this expression into `out`.
    pub fn collect_reads(&self, out: &mut Vec<NetId>) {
        match self {
            Expr::Const(_) | Expr::Time => {}
            Expr::EdgeFlag { net, .. } => out.push(*net),
            Expr::Net(id) => out.push(*id),
            Expr::Index { net, index } => {
                out.push(*net);
                index.collect_reads(out);
            }
            Expr::Range { net, .. } => out.push(*net),
            Expr::Unary { operand, .. } => operand.collect_reads(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_reads(out);
                rhs.collect_reads(out);
            }
            Expr::Ternary { cond, then, els } => {
                cond.collect_reads(out);
                then.collect_reads(out);
                els.collect_reads(out);
            }
            Expr::Concat(parts) => {
                for p in parts {
                    p.collect_reads(out);
                }
            }
            Expr::Repeat { operand, .. } => operand.collect_reads(out),
        }
    }
}

/// Assignment target.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Whole net.
    Net(NetId),
    /// Constant part-select `net[msb:lsb]`.
    Range(NetId, u32, u32),
    /// Dynamic bit-select `net[expr]`.
    Index(NetId, Expr),
    /// Concatenated target `{a, b} = ...`, first element most significant.
    Concat(Vec<LValue>),
}

impl LValue {
    /// Width in bits of the target: one per bit-select, the sum of the
    /// parts for a concatenation.
    #[must_use]
    pub fn width(&self, design: &Design) -> u32 {
        match self {
            LValue::Net(id) => design.net(*id).width,
            LValue::Range(_, msb, lsb) => msb - lsb + 1,
            LValue::Index(_, _) => 1,
            LValue::Concat(parts) => parts.iter().map(|p| p.width(design)).sum(),
        }
    }
}

/// An event that can resume a waiting process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// Any value change on the net.
    AnyChange(NetId),
    /// `0→1` (or `X/Z→1`) transition of bit 0.
    Posedge(NetId),
    /// `1→0` (or `X/Z→0`) transition of bit 0.
    Negedge(NetId),
}

impl Trigger {
    /// The net this trigger observes.
    #[must_use]
    pub fn net(self) -> NetId {
        match self {
            Trigger::AnyChange(n) | Trigger::Posedge(n) | Trigger::Negedge(n) => n,
        }
    }
}

/// Which system task a [`Instr::SysCall`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SysTaskKind {
    /// `$display` — formatted line to the simulation log.
    Display,
    /// `$write` — formatted text without trailing newline.
    Write,
    /// `$error` / VHDL `assert ... severity error` — formatted line with
    /// an error marker; counted by the simulator.
    Error,
    /// `$fatal` / `severity failure` — error marker plus immediate stop.
    Fatal,
    /// `$finish` — orderly end of simulation.
    Finish,
    /// `$monitor` — registers a format; the simulator prints it at the
    /// end of every time step in which any argument changed (IEEE 1364
    /// §17.1; a later `$monitor` replaces the active one).
    Monitor,
}

/// One instruction of a compiled process program.
///
/// Instructions are addressed by their index; `Jump`/`BranchIfFalse`
/// targets are absolute indices within the owning process.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Blocking assignment: takes effect immediately.
    BlockingAssign {
        /// Target.
        lvalue: LValue,
        /// Source expression.
        expr: Expr,
    },
    /// Nonblocking assignment: value is computed now, committed in the
    /// NBA phase of the current time step.
    NonblockingAssign {
        /// Target.
        lvalue: LValue,
        /// Source expression.
        expr: Expr,
    },
    /// Suspend for `amount` time units (`#n` / `wait for n ns`).
    Delay {
        /// Delay amount expression (evaluated when reached).
        amount: Expr,
    },
    /// Suspend until one of `triggers` fires (`@(...)` / process
    /// sensitivity / `wait until`).
    WaitEvent {
        /// Resuming events.
        triggers: Vec<Trigger>,
    },
    /// Unconditional branch to an absolute instruction index.
    Jump(usize),
    /// Branch to `target` when `cond` is false or unknown.
    BranchIfFalse {
        /// Condition.
        cond: Expr,
        /// Absolute branch target.
        target: usize,
    },
    /// System task / report statement.
    SysCall {
        /// Which task.
        kind: SysTaskKind,
        /// Format string with `%b %h %d %0d %s %t %%` directives; when
        /// `None`, arguments print space-separated in decimal.
        format: Option<String>,
        /// Format arguments.
        args: Vec<Expr>,
    },
    /// Terminate this process permanently.
    Halt,
}

/// Builds one process's instruction program. Forward branches are
/// emitted with an unknown target and patched once the target is known.
#[derive(Debug, Default)]
pub struct Builder {
    /// The program so far.
    pub instrs: Vec<Instr>,
}

impl Builder {
    /// Appends `i` and returns its index.
    pub fn emit(&mut self, i: Instr) -> usize {
        self.instrs.push(i);
        self.instrs.len() - 1
    }

    /// Appends a [`Instr::BranchIfFalse`] on `cond` whose target
    /// [`Builder::patch`] fills in later; returns its index.
    pub fn emit_branch(&mut self, cond: Expr) -> usize {
        self.emit(Instr::BranchIfFalse {
            cond,
            target: usize::MAX,
        })
    }

    /// The index the next emitted instruction will have.
    #[must_use]
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    /// Points the jump or branch at `at` to `target`.
    ///
    /// # Panics
    ///
    /// Panics if the instruction at `at` is not a jump or branch.
    pub fn patch(&mut self, at: usize, target: usize) {
        match &mut self.instrs[at] {
            Instr::Jump(t) => *t = target,
            Instr::BranchIfFalse { target: t, .. } => *t = target,
            other => unreachable!("patched a non-branch instruction: {other:?}"),
        }
    }
}

/// How a process starts and restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessKind {
    /// Runs once from instruction 0 at time zero (`initial`, VHDL process
    /// ending in `wait;`).
    Initial,
    /// Runs at time zero and loops forever (its program re-arms itself by
    /// jumping back to its `WaitEvent` header).
    Always,
}

/// A compiled process: straight-line instruction program plus metadata.
#[derive(Debug, Clone)]
pub struct Process {
    /// Debug name, e.g. `tb.stimulus` or `dut.always@12`.
    pub name: String,
    /// Start/restart behaviour.
    pub kind: ProcessKind,
    /// Compiled instruction program.
    pub body: Vec<Instr>,
}

/// A fully elaborated, simulatable design.
///
/// # Example
///
/// Building a tiny design by hand (frontends normally do this):
///
/// ```
/// use aivril_hdl::ir::*;
/// use aivril_hdl::vec::LogicVec;
///
/// let mut d = Design::new("toggler");
/// let q = d.add_net(Net {
///     name: "q".into(),
///     width: 1,
///     kind: NetKind::Reg,
///     init: Some(LogicVec::zeros(1)),
/// });
/// d.add_process(Process {
///     name: "flip".into(),
///     kind: ProcessKind::Always,
///     body: vec![
///         Instr::Delay { amount: Expr::constant(32, 5) },
///         Instr::BlockingAssign {
///             lvalue: LValue::Net(q),
///             expr: Expr::Unary { op: UnaryOp::Not, operand: Box::new(Expr::Net(q)) },
///         },
///         Instr::Jump(0),
///     ],
/// });
/// assert_eq!(d.nets.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Design {
    /// Name of the top-level unit this design was elaborated from.
    pub top: String,
    /// All nets, indexed by [`NetId`].
    pub nets: Vec<Net>,
    /// All processes, indexed by [`ProcessId`].
    pub processes: Vec<Process>,
}

impl Design {
    /// Creates an empty design for top-level unit `top`.
    #[must_use]
    pub fn new(top: impl Into<String>) -> Design {
        Design {
            top: top.into(),
            nets: Vec::new(),
            processes: Vec::new(),
        }
    }

    /// Adds a net and returns its id.
    pub fn add_net(&mut self, net: Net) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(net);
        id
    }

    /// Adds a process and returns its id.
    pub fn add_process(&mut self, process: Process) -> ProcessId {
        let id = ProcessId(self.processes.len() as u32);
        self.processes.push(process);
        id
    }

    /// Adds a continuous assignment, compiled into an always-process that
    /// evaluates once at time zero and then re-evaluates whenever any net
    /// read by `expr` (or by dynamic indices in `lvalue`) changes.
    pub fn add_continuous_assign(&mut self, lvalue: LValue, expr: Expr) -> ProcessId {
        let mut reads = Vec::new();
        expr.collect_reads(&mut reads);
        if let LValue::Index(_, idx) = &lvalue {
            idx.collect_reads(&mut reads);
        }
        reads.sort_unstable();
        reads.dedup();
        let triggers: Vec<Trigger> = reads.into_iter().map(Trigger::AnyChange).collect();
        let name = format!("assign#{}", self.processes.len());
        let body = if triggers.is_empty() {
            // Pure-constant RHS: assign once and halt.
            vec![Instr::BlockingAssign { lvalue, expr }, Instr::Halt]
        } else {
            vec![
                Instr::BlockingAssign { lvalue, expr },
                Instr::WaitEvent { triggers },
                Instr::Jump(0),
            ]
        };
        self.add_process(Process {
            name,
            kind: ProcessKind::Always,
            body,
        })
    }

    /// Fits `rhs` to a `width`-bit assignment target. A wider `rhs` is
    /// kept and earns a Vivado-style truncation warning at `span`;
    /// otherwise context-determined operators are widened recursively
    /// and narrower self-determined values zero-padded
    /// ([`Expr::widen`]).
    #[must_use]
    pub fn fit(&self, mut rhs: Expr, width: u32, span: Span, diags: &mut Diagnostics) -> Expr {
        let net_width = |id: NetId| self.net(id).width;
        let rw = rhs.width_with(&net_width);
        if rw > width {
            diags.push(Diagnostic::warning(
                codes::WIDTH_MISMATCH,
                format!("assignment truncates a {rw}-bit expression to {width} bits"),
                span,
            ));
        } else {
            // Even at equal widths, context sizing must reach narrower
            // inner operands (e.g. `credit + (dime << 1)` where `dime`
            // is 1 bit): widen unconditionally.
            rhs.widen(width, &net_width);
        }
        rhs
    }

    /// Finds a net by exact hierarchical name.
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name == name)
            .map(|i| NetId(i as u32))
    }

    /// Looks up a net definition.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this design.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "design '{}' ({} nets, {} processes)",
            self.top,
            self.nets.len(),
            self.processes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(name: &str, width: u32) -> Net {
        Net {
            name: name.into(),
            width,
            kind: NetKind::Reg,
            init: None,
        }
    }

    #[test]
    fn expr_collect_reads_dedup_at_assign() {
        let mut d = Design::new("t");
        let a = d.add_net(reg("a", 4));
        let b = d.add_net(reg("b", 4));
        let y = d.add_net(reg("y", 4));
        let expr = Expr::Binary {
            op: BinaryOp::Add,
            lhs: Box::new(Expr::Net(a)),
            rhs: Box::new(Expr::Binary {
                op: BinaryOp::Xor,
                lhs: Box::new(Expr::Net(a)),
                rhs: Box::new(Expr::Net(b)),
            }),
        };
        let pid = d.add_continuous_assign(LValue::Net(y), expr);
        let proc = &d.processes[pid.0 as usize];
        match &proc.body[1] {
            Instr::WaitEvent { triggers } => {
                assert_eq!(triggers.len(), 2, "a deduplicated, b present");
            }
            other => panic!("expected WaitEvent, got {other:?}"),
        }
    }

    #[test]
    fn constant_assign_halts() {
        let mut d = Design::new("t");
        let y = d.add_net(reg("y", 1));
        let pid = d.add_continuous_assign(LValue::Net(y), Expr::constant(1, 1));
        let proc = &d.processes[pid.0 as usize];
        assert_eq!(proc.body.last(), Some(&Instr::Halt));
    }

    #[test]
    fn find_net_by_name() {
        let mut d = Design::new("t");
        let a = d.add_net(reg("tb.u.a", 1));
        assert_eq!(d.find_net("tb.u.a"), Some(a));
        assert_eq!(d.find_net("missing"), None);
    }

    #[test]
    fn trigger_net_accessor() {
        let n = NetId(3);
        assert_eq!(Trigger::Posedge(n).net(), n);
        assert_eq!(Trigger::Negedge(n).net(), n);
        assert_eq!(Trigger::AnyChange(n).net(), n);
    }

    #[test]
    fn display_summary() {
        let mut d = Design::new("top");
        d.add_net(reg("x", 8));
        assert_eq!(d.to_string(), "design 'top' (1 nets, 0 processes)");
    }
}
