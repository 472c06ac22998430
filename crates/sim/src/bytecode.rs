//! Compiled expression evaluation: flat register-machine bytecode.
//!
//! This is the simulator's only evaluator. At
//! [`Simulator::new`](crate::Simulator::new) every expression of every
//! process — assignment values, l-value bit-select indices, delay
//! amounts, branch conditions and system-task arguments (`$monitor`
//! included) — is lowered **once** into a program: a post-order
//! sequence of [`Op`]s reading and writing numbered scratch slots,
//! executed by a tight non-recursive loop over a per-simulator
//! [`ScratchArena`] that is allocated once and reused for every
//! evaluation. All programs of one simulator live in one
//! [`ProgramStore`]: one op list plus offsets, so lowering a design
//! allocates a handful of growing vectors, not two per expression. The hot loop of a simulation evaluates the same handful
//! of expressions millions of times, so it pays no recursion, no
//! `match` on boxed nodes and no pointer chasing.
//!
//! Because every net's width is known at lowering time, lowering
//! additionally infers a static width bound for each scratch slot (all
//! width rules — `max`, sum, `count * w` — are monotone in their
//! operands, so the bound holds for every dynamic evaluation). The
//! arena pre-sizes each slot's [`ScratchBuf`] to that bound once, and
//! execution then proceeds entirely in place over borrowed plane
//! slices: wide (>64-bit) operations never box a `LogicVec`, which is
//! what drives the kernel's `eval_allocs` to zero on wide datapaths. If
//! a bound is ever too small the buffer grows — correct, and *counted*,
//! so the zero-alloc claim stays honest.
//!
//! The tree interpreter in `eval.rs` is the test oracle only: it is
//! compiled under `cfg(test)`, and the differential property tests at
//! the bottom of this file require bit-for-bit agreement between the
//! two on randomly generated expression trees. Any divergence is a bug
//! in *this* file — the tree is the specification.
//!
//! Slot discipline: `compile_into(expr, dst)` leaves `expr`'s value in
//! slot `dst` and may scribble on any slot `> dst`. Binary operands go
//! to `dst` / `dst+1`, ternaries to `dst` / `dst+1` / `dst+2`, so the
//! arena height equals the expression tree's operand depth, not its
//! size.

use aivril_hdl::bits::{BitsRef, ScratchBuf};
use aivril_hdl::ir::{BinaryOp, Expr, NetId, UnaryOp};
use aivril_hdl::logic::Logic;
use aivril_hdl::vec::LogicVec;

/// One bytecode instruction. `dst` is the scratch slot the result is
/// written to; operand slots are fixed offsets from `dst` (see the
/// module docs).
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// `slot[dst] = consts[value]`, from the store's constant pool.
    Const { dst: u32, value: u32 },
    /// `slot[dst] = nets[net]`.
    Net { dst: u32, net: NetId },
    /// Bit-select: the index value is already in `slot[dst]`;
    /// `slot[dst] = nets[net][index]` (X when unknown/out of range).
    Index { dst: u32, net: NetId },
    /// Part-select straight off the net: `slot[dst] = nets[net][msb:lsb]`.
    Range {
        dst: u32,
        net: NetId,
        msb: u32,
        lsb: u32,
    },
    /// `slot[dst] = op slot[dst]`.
    Unary { dst: u32, op: UnaryOp },
    /// `slot[dst] = slot[dst] op slot[dst+1]`.
    Binary { dst: u32, op: BinaryOp },
    /// Ternary select: condition in `dst`, arms in `dst+1` / `dst+2`.
    Select { dst: u32 },
    /// `slot[dst] = {slot[dst], slot[dst+1]}` (left operand is the MSBs).
    Concat2 { dst: u32 },
    /// `slot[dst] = {count{slot[dst]}}`.
    Repeat { dst: u32, count: u32 },
    /// `slot[dst] = $time` (64 bits).
    Time { dst: u32 },
    /// `slot[dst] = 1'b1` iff the wake that resumed this process was the
    /// matching edge of `net`.
    EdgeFlag { dst: u32, net: NetId, rising: bool },
}

/// Every compiled expression of one simulator: one flat op list, the
/// offset where each program starts, the constants the ops load, and a
/// running per-slot width bound over all of them. Executing program `i`
/// leaves its result in slot 0.
#[derive(Debug)]
pub(crate) struct ProgramStore {
    ops: Vec<Op>,
    /// Constant pool: kept out of the ops so an op stays a few words.
    consts: Vec<LogicVec>,
    /// `ops[starts[i]..starts[i + 1]]` is program `i`.
    starts: Vec<u32>,
    /// Maximum width any op result can take in each slot, over every
    /// program compiled so far, inferred from the net-width environment.
    slot_widths: Vec<u32>,
}

impl Default for ProgramStore {
    fn default() -> ProgramStore {
        ProgramStore {
            ops: Vec::new(),
            consts: Vec::new(),
            starts: vec![0],
            slot_widths: Vec::new(),
        }
    }
}

impl ProgramStore {
    /// Lowers `expr` into a new program against the design's net widths
    /// (`net_widths[net.0]`) and returns its index.
    pub(crate) fn compile(&mut self, expr: &Expr, net_widths: &[u32]) -> usize {
        compile_into(expr, 0, net_widths, self);
        self.starts.push(self.ops.len() as u32);
        self.starts.len() - 2
    }

    /// The ops of program `i`.
    fn program(&self, i: usize) -> &[Op] {
        &self.ops[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Appends `op = Const` loading `value` into slot `dst`.
    fn push_const(&mut self, dst: u32, value: LogicVec) {
        let index = self.consts.len() as u32;
        self.consts.push(value);
        self.ops.push(Op::Const { dst, value: index });
    }

    /// Number of programs compiled so far.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Static per-slot width bounds, one entry per slot any program uses.
    pub(crate) fn slot_widths(&self) -> &[u32] {
        &self.slot_widths
    }
}

/// Records that slot `dst` can hold a `width`-bit result.
fn note_width(store: &mut ProgramStore, dst: u32, width: u32) {
    let d = dst as usize;
    if d >= store.slot_widths.len() {
        store.slot_widths.resize(d + 1, 1);
    }
    store.slot_widths[d] = store.slot_widths[d].max(width.max(1));
}

/// Lowers `expr` with its result in `dst`; returns the static width
/// bound of that result.
fn compile_into(expr: &Expr, dst: u32, net_widths: &[u32], store: &mut ProgramStore) -> u32 {
    let net_width = |net: &NetId| net_widths.get(net.0 as usize).copied().unwrap_or(1);
    let width = match expr {
        Expr::Const(value) => {
            let w = value.width();
            store.push_const(dst, value.clone());
            w
        }
        Expr::Net(net) => {
            store.ops.push(Op::Net { dst, net: *net });
            net_width(net)
        }
        Expr::Index { net, index } => {
            compile_into(index, dst, net_widths, store);
            store.ops.push(Op::Index { dst, net: *net });
            1
        }
        Expr::Range { net, msb, lsb } => {
            store.ops.push(Op::Range {
                dst,
                net: *net,
                msb: *msb,
                lsb: *lsb,
            });
            msb.max(lsb) - msb.min(lsb) + 1
        }
        Expr::Unary { op, operand } => {
            let w = compile_into(operand, dst, net_widths, store);
            store.ops.push(Op::Unary { dst, op: *op });
            match op {
                UnaryOp::Not | UnaryOp::Negate => w,
                _ => 1,
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let wl = compile_into(lhs, dst, net_widths, store);
            let wr = compile_into(rhs, dst + 1, net_widths, store);
            store.ops.push(Op::Binary { dst, op: *op });
            match op {
                BinaryOp::And
                | BinaryOp::Or
                | BinaryOp::Xor
                | BinaryOp::Xnor
                | BinaryOp::Add
                | BinaryOp::Sub
                | BinaryOp::Mul
                | BinaryOp::Div
                | BinaryOp::Rem => wl.max(wr),
                BinaryOp::Shl | BinaryOp::Shr => wl,
                _ => 1,
            }
        }
        Expr::Ternary { cond, then, els } => {
            // Both arms are always evaluated (expressions are pure, so
            // this is unobservable); Select picks per the tree walker's
            // exact rules, including the unknown-condition X-merge.
            compile_into(cond, dst, net_widths, store);
            let wt = compile_into(then, dst + 1, net_widths, store);
            let we = compile_into(els, dst + 2, net_widths, store);
            store.ops.push(Op::Select { dst });
            wt.max(we)
        }
        Expr::Concat(parts) => match parts.split_first() {
            None => {
                store.push_const(dst, LogicVec::zeros(1));
                1
            }
            Some((first, rest)) => {
                let mut acc = compile_into(first, dst, net_widths, store);
                for part in rest {
                    let wp = compile_into(part, dst + 1, net_widths, store);
                    store.ops.push(Op::Concat2 { dst });
                    acc = acc.saturating_add(wp);
                    note_width(store, dst, acc);
                }
                acc
            }
        },
        Expr::Repeat { count, operand } => {
            let w = compile_into(operand, dst, net_widths, store);
            let count = (*count).max(1);
            store.ops.push(Op::Repeat { dst, count });
            w.saturating_mul(count)
        }
        Expr::Time => {
            store.ops.push(Op::Time { dst });
            64
        }
        Expr::EdgeFlag { net, rising } => {
            store.ops.push(Op::EdgeFlag {
                dst,
                net: *net,
                rising: *rising,
            });
            1
        }
    };
    note_width(store, dst, width);
    width
}

/// The pre-sized wide-value scratch arena shared by every compiled
/// program of one simulator.
///
/// Slot `i` is sized to the maximum static width bound any program
/// records for slot `i`; `spare` (the staging buffer for `Repeat`) is
/// sized to the overall maximum. Sizing happens once at lowering, so
/// steady-state execution performs no heap allocation — [`allocs`]
/// reports any growth events that would falsify that claim, and
/// [`total_words`] reports the arena's high-water footprint for the
/// kernel telemetry.
///
/// [`allocs`]: Self::allocs
/// [`total_words`]: Self::total_words
#[derive(Debug, Default)]
pub(crate) struct ScratchArena {
    slots: Vec<ScratchBuf>,
    /// Staging buffer for `Repeat`'s source pattern.
    spare: ScratchBuf,
}

impl ScratchArena {
    /// Builds an arena sized for every program in `store`.
    pub(crate) fn for_programs(store: &ProgramStore) -> ScratchArena {
        let widths = store.slot_widths();
        let max_width = widths.iter().copied().fold(1, u32::max);
        ScratchArena {
            slots: widths.iter().map(|&w| ScratchBuf::with_width(w)).collect(),
            spare: ScratchBuf::with_width(max_width),
        }
    }

    /// Number of scratch slots.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Total growth events across all buffers — zero on a correctly
    /// pre-sized arena.
    pub(crate) fn allocs(&self) -> u64 {
        self.slots.iter().map(ScratchBuf::grows).sum::<u64>() + self.spare.grows()
    }

    /// High-water footprint: per-plane capacity words summed over every
    /// buffer.
    pub(crate) fn total_words(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.capacity_words() as u64)
            .sum::<u64>()
            + self.spare.capacity_words() as u64
    }

    /// Borrowed view of the last executed program's result (slot 0).
    pub(crate) fn result(&self) -> BitsRef<'_> {
        self.slots[0].as_bits()
    }

    /// Owned copy of the result — test and cold-path use only.
    #[cfg(test)]
    pub(crate) fn result_vec(&self) -> LogicVec {
        self.slots[0].to_logic_vec()
    }
}

/// Runs program `prog` of `store` against the current net `values`,
/// leaving the result in the arena's slot 0 (read it with
/// [`ScratchArena::result`]).
///
/// Every op executes in place over the pre-sized slot buffers; the only
/// possible steady-state allocation is a slot outgrowing its static
/// bound, which the arena counts in [`ScratchArena::allocs`].
pub(crate) fn exec(
    store: &ProgramStore,
    prog: usize,
    values: &[LogicVec],
    time: u64,
    last_wake: Option<NetId>,
    arena: &mut ScratchArena,
) {
    let ScratchArena { slots, spare } = arena;
    for op in store.program(prog) {
        match op {
            Op::Const { dst, value } => {
                slots[*dst as usize].load(store.consts[*value as usize].as_bits());
            }
            Op::Net { dst, net } => slots[*dst as usize].load(values[net.0 as usize].as_bits()),
            Op::Index { dst, net } => {
                let value = &values[net.0 as usize];
                let d = *dst as usize;
                let bit = match slots[d].as_bits().to_u64() {
                    Some(i) if i < u64::from(value.width()) => value.get(i as u32),
                    _ => Logic::X,
                };
                slots[d].load_logic(bit);
            }
            Op::Range { dst, net, msb, lsb } => {
                slots[*dst as usize].slice_from(values[net.0 as usize].as_bits(), *msb, *lsb);
            }
            Op::Unary { dst, op } => {
                let v = &mut slots[*dst as usize];
                match op {
                    UnaryOp::Not => v.not_self(),
                    UnaryOp::LogicalNot => {
                        let b = match v.as_bits().to_bool() {
                            Some(b) => Logic::from_bool(!b),
                            None => Logic::X,
                        };
                        v.load_logic(b);
                    }
                    UnaryOp::Negate => v.neg_self(),
                    UnaryOp::ReduceAnd => {
                        let b = v.as_bits().reduce_and();
                        v.load_logic(b);
                    }
                    UnaryOp::ReduceOr => {
                        let b = v.as_bits().reduce_or();
                        v.load_logic(b);
                    }
                    UnaryOp::ReduceXor => {
                        let b = v.as_bits().reduce_xor();
                        v.load_logic(b);
                    }
                    UnaryOp::ReduceNand => {
                        let b = v.as_bits().reduce_and().not();
                        v.load_logic(b);
                    }
                    UnaryOp::ReduceNor => {
                        let b = v.as_bits().reduce_or().not();
                        v.load_logic(b);
                    }
                    UnaryOp::ReduceXnor => {
                        let b = v.as_bits().reduce_xor().not();
                        v.load_logic(b);
                    }
                }
            }
            Op::Binary { dst, op } => {
                let d = *dst as usize;
                let (lo, hi) = slots.split_at_mut(d + 1);
                let a = &mut lo[d];
                let b = hi[0].as_bits();
                match op {
                    BinaryOp::And => a.and_assign(b),
                    BinaryOp::Or => a.or_assign(b),
                    BinaryOp::Xor => a.xor_assign(b),
                    BinaryOp::Xnor => a.xnor_assign(b),
                    BinaryOp::Add => a.add_assign(b),
                    BinaryOp::Sub => a.sub_assign(b),
                    BinaryOp::Mul => a.mul_assign(b),
                    BinaryOp::Div => a.div_assign(b),
                    BinaryOp::Rem => a.rem_assign(b),
                    BinaryOp::Shl => a.shl_assign(b),
                    BinaryOp::Shr => a.shr_assign(b),
                    BinaryOp::Eq => {
                        let r = a.as_bits().logic_eq(b);
                        a.load_logic(r);
                    }
                    BinaryOp::Ne => {
                        let r = a.as_bits().logic_eq(b).not();
                        a.load_logic(r);
                    }
                    BinaryOp::CaseEq => {
                        let r = Logic::from_bool(a.as_bits().case_eq(b));
                        a.load_logic(r);
                    }
                    BinaryOp::CaseNe => {
                        let r = Logic::from_bool(!a.as_bits().case_eq(b));
                        a.load_logic(r);
                    }
                    BinaryOp::Lt => {
                        let r = a.as_bits().lt(b);
                        a.load_logic(r);
                    }
                    BinaryOp::Le => {
                        let r = a.as_bits().le(b);
                        a.load_logic(r);
                    }
                    BinaryOp::Gt => {
                        let r = a.as_bits().gt(b);
                        a.load_logic(r);
                    }
                    BinaryOp::Ge => {
                        let r = a.as_bits().ge(b);
                        a.load_logic(r);
                    }
                    // The tree walker evaluates both operands' truth
                    // values unconditionally; with both already in
                    // slots this is the same computation.
                    BinaryOp::LogicalAnd | BinaryOp::LogicalOr => {
                        let (x, y) = (a.as_bits().to_bool(), b.to_bool());
                        let r = match (op, x, y) {
                            (BinaryOp::LogicalAnd, Some(false), _)
                            | (BinaryOp::LogicalAnd, _, Some(false)) => Logic::Zero,
                            (BinaryOp::LogicalAnd, Some(true), Some(true)) => Logic::One,
                            (BinaryOp::LogicalOr, Some(true), _)
                            | (BinaryOp::LogicalOr, _, Some(true)) => Logic::One,
                            (BinaryOp::LogicalOr, Some(false), Some(false)) => Logic::Zero,
                            _ => Logic::X,
                        };
                        a.load_logic(r);
                    }
                }
            }
            Op::Select { dst } => {
                let d = *dst as usize;
                let cond = slots[d].as_bits().to_bool();
                let (lo, hi) = slots.split_at_mut(d + 1);
                match cond {
                    // Known condition: the taken arm at its own width.
                    Some(true) => {
                        let src = hi[0].as_bits();
                        lo[d].load(src);
                    }
                    Some(false) => {
                        let src = hi[1].as_bits();
                        lo[d].load(src);
                    }
                    // IEEE 1364: merge both arms; disagreeing bits go X.
                    // Mirrors the tree walker bit for bit.
                    None => {
                        let (t, e) = (hi[0].as_bits(), hi[1].as_bits());
                        lo[d].select_merge(t, e);
                    }
                }
            }
            Op::Concat2 { dst } => {
                let d = *dst as usize;
                let (lo, hi) = slots.split_at_mut(d + 1);
                lo[d].concat_low(hi[0].as_bits());
            }
            Op::Repeat { dst, count } => slots[*dst as usize].replicate_self(*count, spare),
            Op::Time { dst } => slots[*dst as usize].load_u64(64, time),
            Op::EdgeFlag { dst, net, rising } => {
                let fired = last_wake == Some(*net) && {
                    let bit = values[net.0 as usize].get(0);
                    if *rising {
                        bit == Logic::One
                    } else {
                        bit == Logic::Zero
                    }
                };
                slots[*dst as usize].load_logic(Logic::from_bool(fired));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalCtx;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;
    use proptest::strategy::BoxedStrategy;

    /// Lowers `expr` alone into a store, with an arena sized for it.
    fn compile(expr: &Expr, net_widths: &[u32]) -> (ProgramStore, ScratchArena) {
        let mut store = ProgramStore::default();
        assert_eq!(store.compile(expr, net_widths), 0);
        let arena = ScratchArena::for_programs(&store);
        (store, arena)
    }

    /// Runs `expr` through both evaluators and asserts bit-for-bit
    /// agreement (width included, via `PartialEq`).
    fn check(expr: &Expr, values: &[LogicVec], time: u64, last_wake: Option<NetId>) {
        let oracle = EvalCtx {
            values,
            time,
            last_wake,
        }
        .eval(expr);
        let (store, mut arena) = compile(expr, &NET_WIDTHS);
        exec(&store, 0, values, time, last_wake, &mut arena);
        assert_eq!(
            arena.result_vec(),
            oracle,
            "bytecode diverged from tree walker on {expr:?}"
        );
        assert_eq!(
            arena.allocs(),
            0,
            "statically sized arena grew at runtime on {expr:?}"
        );
    }

    /// Fixed net environment: widths chosen to cover the inline word,
    /// the boundary, and the spilled multi-word representation.
    const NET_WIDTHS: [u32; 6] = [1, 8, 16, 33, 64, 100];

    fn vec_from_masks(width: u32, aval: u64, bval: u64) -> LogicVec {
        let mut v = LogicVec::zeros(width);
        for i in 0..width.min(64) {
            v.set(i, Logic::from_avab(aval >> i & 1 == 1, bval >> i & 1 == 1));
        }
        v
    }

    fn values_strategy() -> BoxedStrategy<Vec<LogicVec>> {
        pvec(
            (0u64..=u64::MAX, 0u64..=u64::MAX),
            NET_WIDTHS.len()..=NET_WIDTHS.len(),
        )
        .prop_map(|masks| {
            NET_WIDTHS
                .iter()
                .zip(masks)
                .map(|(&w, (a, b))| vec_from_masks(w, a, b))
                .collect()
        })
        .boxed()
    }

    fn net_id_strategy() -> BoxedStrategy<NetId> {
        (0u32..NET_WIDTHS.len() as u32).prop_map(NetId).boxed()
    }

    fn leaf_strategy() -> BoxedStrategy<Expr> {
        prop_oneof![
            (1u32..=80, 0u64..=u64::MAX, 0u64..=u64::MAX)
                .prop_map(|(w, a, b)| Expr::Const(vec_from_masks(w, a, b))),
            net_id_strategy().prop_map(Expr::Net),
            (net_id_strategy(), 0u32..110, 0u32..110).prop_map(|(net, a, b)| Expr::Range {
                net,
                msb: a.max(b),
                lsb: a.min(b),
            }),
            Just(Expr::Time),
            (net_id_strategy(), 0u32..=1).prop_map(|(net, r)| Expr::EdgeFlag {
                net,
                rising: r == 1
            }),
        ]
        .boxed()
    }

    const UNARY_OPS: [UnaryOp; 9] = [
        UnaryOp::Not,
        UnaryOp::LogicalNot,
        UnaryOp::Negate,
        UnaryOp::ReduceAnd,
        UnaryOp::ReduceOr,
        UnaryOp::ReduceXor,
        UnaryOp::ReduceNand,
        UnaryOp::ReduceNor,
        UnaryOp::ReduceXnor,
    ];

    const BINARY_OPS: [BinaryOp; 21] = [
        BinaryOp::And,
        BinaryOp::Or,
        BinaryOp::Xor,
        BinaryOp::Xnor,
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Rem,
        BinaryOp::Shl,
        BinaryOp::Shr,
        BinaryOp::Eq,
        BinaryOp::Ne,
        BinaryOp::CaseEq,
        BinaryOp::CaseNe,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
        BinaryOp::LogicalAnd,
        BinaryOp::LogicalOr,
    ];

    /// Random expression trees of bounded depth over the fixed nets.
    fn expr_strategy(depth: u32) -> BoxedStrategy<Expr> {
        if depth == 0 {
            return leaf_strategy();
        }
        let sub = move || expr_strategy(depth - 1);
        prop_oneof![
            leaf_strategy(),
            (0usize..UNARY_OPS.len(), sub()).prop_map(|(i, operand)| Expr::Unary {
                op: UNARY_OPS[i],
                operand: Box::new(operand),
            }),
            (0usize..BINARY_OPS.len(), sub(), sub()).prop_map(|(i, lhs, rhs)| Expr::Binary {
                op: BINARY_OPS[i],
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            }),
            (sub(), sub(), sub()).prop_map(|(cond, then, els)| Expr::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            }),
            pvec(sub(), 1..=3).prop_map(Expr::Concat),
            (1u32..=3, sub()).prop_map(|(count, operand)| Expr::Repeat {
                count,
                operand: Box::new(operand),
            }),
            (net_id_strategy(), sub()).prop_map(|(net, index)| Expr::Index {
                net,
                index: Box::new(index),
            }),
        ]
        .boxed()
    }

    fn last_wake_strategy() -> BoxedStrategy<Option<NetId>> {
        (0u32..=NET_WIDTHS.len() as u32)
            .prop_map(|i| (i as usize != NET_WIDTHS.len()).then_some(NetId(i)))
            .boxed()
    }

    proptest! {
        /// Satellite: compiled bytecode must agree with the tree
        /// interpreter bit-for-bit on arbitrary expression trees — and
        /// the statically sized arena must absorb every intermediate
        /// without growing.
        #[test]
        fn bytecode_matches_tree_interpreter(
            expr in expr_strategy(3),
            values in values_strategy(),
            time in 0u64..1_000_000,
            last_wake in last_wake_strategy(),
        ) {
            check(&expr, &values, time, last_wake);
        }

        /// Deep, narrow trees stress the slot allocator (operand depth
        /// beyond what random shapes usually reach).
        #[test]
        fn deep_chains_match(
            expr in expr_strategy(5),
            values in values_strategy(),
        ) {
            check(&expr, &values, 7, None);
        }
    }

    #[test]
    fn inline_only_programs_run_without_allocation() {
        // (n1 + 8'd3) ^ (n2 >> 2) over <=64-bit nets.
        let expr = Expr::Binary {
            op: BinaryOp::Xor,
            lhs: Box::new(Expr::Binary {
                op: BinaryOp::Add,
                lhs: Box::new(Expr::Net(NetId(1))),
                rhs: Box::new(Expr::constant(8, 3)),
            }),
            rhs: Box::new(Expr::Binary {
                op: BinaryOp::Shr,
                lhs: Box::new(Expr::Net(NetId(2))),
                rhs: Box::new(Expr::constant(8, 2)),
            }),
        };
        let values: Vec<LogicVec> = NET_WIDTHS
            .iter()
            .map(|&w| LogicVec::from_u64(w, 0x5a))
            .collect();
        let (store, mut arena) = compile(&expr, &NET_WIDTHS);
        for _ in 0..100 {
            exec(&store, 0, &values, 0, None, &mut arena);
        }
        assert_eq!(arena.allocs(), 0, "no growth events may occur");
    }

    #[test]
    fn wide_programs_run_without_allocation() {
        // The zero-alloc tentpole: a 100-bit add used to spill three
        // boxed values per evaluation; the pre-sized arena does not
        // touch the heap at all.
        let expr = Expr::Binary {
            op: BinaryOp::Add,
            lhs: Box::new(Expr::Net(NetId(5))), // 100-bit net
            rhs: Box::new(Expr::constant(100, 1)),
        };
        let values: Vec<LogicVec> = NET_WIDTHS
            .iter()
            .map(|&w| LogicVec::from_u64(w, 1))
            .collect();
        let (store, mut arena) = compile(&expr, &NET_WIDTHS);
        for _ in 0..1000 {
            exec(&store, 0, &values, 0, None, &mut arena);
        }
        assert_eq!(arena.allocs(), 0, "wide ops must stay in the arena");
        assert_eq!(arena.result_vec().to_u64(), Some(2));
    }

    #[test]
    fn understated_widths_grow_and_are_counted() {
        // Compiling against an empty width environment understates the
        // 100-bit net as 1 bit; execution must still be correct, with
        // the growth honestly counted.
        let expr = Expr::Binary {
            op: BinaryOp::Add,
            lhs: Box::new(Expr::Net(NetId(5))),
            rhs: Box::new(Expr::Net(NetId(5))),
        };
        let values: Vec<LogicVec> = NET_WIDTHS
            .iter()
            .map(|&w| LogicVec::from_u64(w, 1))
            .collect();
        let (store, mut arena) = compile(&expr, &[]);
        exec(&store, 0, &values, 0, None, &mut arena);
        assert_eq!(arena.result_vec().to_u64(), Some(2));
        assert!(arena.allocs() > 0, "under-sized slots must count growth");
    }

    #[test]
    fn slot_heights_are_depth_not_size() {
        // A left-leaning chain of adds reuses slot 1 for every rhs.
        let mut expr = Expr::constant(8, 1);
        for i in 2..30u64 {
            expr = Expr::Binary {
                op: BinaryOp::Add,
                lhs: Box::new(expr),
                rhs: Box::new(Expr::constant(8, i)),
            };
        }
        let (store, arena) = compile(&expr, &NET_WIDTHS);
        assert_eq!(store.slot_widths(), &[8, 8]);
        assert_eq!(arena.slot_count(), 2);
    }

    #[test]
    fn shift_amount_edges_hand_worked() {
        // IEEE 1364-2005 §5.1.12 on the compiled path: known amounts of
        // 2^32 and a 65-bit 2^64 shift every bit out; X/Z gives all-X.
        let mut two_pow_64 = LogicVec::zeros(65);
        two_pow_64.set(64, Logic::One);
        let (zeros, xes) = (LogicVec::zeros(8), LogicVec::xes(8));
        let cases = [
            (LogicVec::from_u64(33, 1 << 32), &zeros),
            (two_pow_64, &zeros),
            (LogicVec::parse_binary("0x1").expect("literal"), &xes),
        ];
        for op in [BinaryOp::Shl, BinaryOp::Shr] {
            for (amount, want) in &cases {
                let expr = Expr::Binary {
                    op,
                    lhs: Box::new(Expr::constant(8, 0xA5)),
                    rhs: Box::new(Expr::Const(amount.clone())),
                };
                let (store, mut arena) = compile(&expr, &NET_WIDTHS);
                exec(&store, 0, &[], 0, None, &mut arena);
                assert_eq!(&arena.result_vec(), *want, "8'ha5 {op:?} {amount}");
            }
        }
    }

    #[test]
    fn empty_concat_compiles_to_one_bit_zero() {
        let (store, mut arena) = compile(&Expr::Concat(vec![]), &[]);
        exec(&store, 0, &[], 0, None, &mut arena);
        assert_eq!(arena.result_vec(), LogicVec::zeros(1));
    }
}
