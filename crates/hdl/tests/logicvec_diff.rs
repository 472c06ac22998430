//! Differential property tests for the four-state word kernels.
//!
//! Every operation of `aivril_hdl::bits` is checked, through both of
//! its owners — the packed [`LogicVec`] (inline and spilled planes) and
//! the in-place [`ScratchBuf`] — against a naive per-bit reference built
//! directly on `Vec<Logic>` and the scalar [`Logic`] resolution tables.
//! Widths span 1–200 with extra cases pinned at the word boundaries
//! (63/64/65/127/128/129), and operands are drawn from an X/Z-heavy
//! distribution so the four-state corners get real coverage.

use aivril_hdl::bits::ScratchBuf;
use aivril_hdl::vec::LogicVec;
use aivril_hdl::Logic;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// LSB-first bit list — the reference representation.
type Bits = Vec<Logic>;

/// Bit `i`, zero-extended beyond the end (how every width-mixing Verilog
/// operator treats the shorter operand).
fn bit(v: &Bits, i: usize) -> Logic {
    v.get(i).copied().unwrap_or(Logic::Zero)
}

fn is_known(b: Logic) -> bool {
    matches!(b, Logic::Zero | Logic::One)
}

fn all_known(v: &Bits) -> bool {
    v.iter().copied().all(is_known)
}

/// Unsigned value of the low 64 bits; bits above 64 are ignored.
fn low64(v: &Bits) -> u64 {
    v.iter()
        .take(64)
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | u64::from(b == Logic::One) << i)
}

/// `to_u64` semantics: `None` when unknown or when bits >= 64 are set.
fn ref_to_u64(v: &Bits) -> Option<u64> {
    if !all_known(v) || v.iter().skip(64).any(|&b| b == Logic::One) {
        return None;
    }
    Some(low64(v))
}

fn xes(width: usize) -> Bits {
    vec![Logic::X; width]
}

fn ref_bitwise(a: &Bits, b: &Bits, f: impl Fn(Logic, Logic) -> Logic) -> Bits {
    let w = a.len().max(b.len());
    (0..w).map(|i| f(bit(a, i), bit(b, i))).collect()
}

fn ref_not(a: &Bits) -> Bits {
    a.iter().map(|b| b.not()).collect()
}

/// Ripple-carry adder over known bits; all-X on any unknown operand bit.
fn ref_add(a: &Bits, b: &Bits) -> Bits {
    let w = a.len().max(b.len());
    if !all_known(a) || !all_known(b) {
        return xes(w);
    }
    let mut carry = false;
    (0..w)
        .map(|i| {
            let x = bit(a, i) == Logic::One;
            let y = bit(b, i) == Logic::One;
            let s = x ^ y ^ carry;
            carry = x && y || carry && (x || y);
            Logic::from_bool(s)
        })
        .collect()
}

/// `a - b` as `a + !b + 1` at the common width.
fn ref_sub(a: &Bits, b: &Bits) -> Bits {
    let w = a.len().max(b.len());
    if !all_known(a) || !all_known(b) {
        return xes(w);
    }
    let not_b: Bits = (0..w).map(|i| bit(b, i).not()).collect();
    let one: Bits = (0..w).map(|i| Logic::from_bool(i == 0)).collect();
    ref_add(&ref_add(&a.clone(), &not_b), &one)
}

fn ref_negate(a: &Bits) -> Bits {
    if !all_known(a) {
        return xes(a.len());
    }
    ref_sub(&vec![Logic::Zero; a.len()], a)
}

/// Shift-and-add over known bits at the common width: `a << i` is
/// added for every set bit `i` of `b`, wrapping at the width; all-X on
/// any unknown operand bit.
fn ref_mul(a: &Bits, b: &Bits) -> Bits {
    let w = a.len().max(b.len());
    if !all_known(a) || !all_known(b) {
        return xes(w);
    }
    let mut product = vec![Logic::Zero; w];
    for i in (0..w).filter(|&i| bit(b, i) == Logic::One) {
        let shifted: Bits = (0..w)
            .map(|k| if k >= i { bit(a, k - i) } else { Logic::Zero })
            .collect();
        product = ref_add(&product, &shifted);
    }
    product
}

/// `a >= b` over known bits, the shorter zero-extended.
fn ref_ge(a: &Bits, b: &Bits) -> bool {
    (0..a.len().max(b.len()))
        .rev()
        .find(|&i| bit(a, i) != bit(b, i))
        .is_none_or(|i| bit(a, i) == Logic::One)
}

/// Restoring long division at the common width, one dividend bit at a
/// time from the top; all-X on an unknown operand bit or a zero
/// divisor. The remainder carries one spare bit, so shifting it left
/// never loses its top bit.
fn ref_divrem(a: &Bits, b: &Bits, rem: bool) -> Bits {
    let w = a.len().max(b.len());
    if !all_known(a) || !all_known(b) || !b.contains(&Logic::One) {
        return xes(w);
    }
    let mut quotient = vec![Logic::Zero; w];
    let mut remainder = vec![Logic::Zero; w + 1];
    for i in (0..w).rev() {
        remainder.pop();
        remainder.insert(0, bit(a, i));
        if ref_ge(&remainder, b) {
            let divisor: Bits = (0..=w).map(|k| bit(b, k)).collect();
            remainder = ref_sub(&remainder, &divisor);
            quotient[i] = Logic::One;
        }
    }
    remainder.truncate(w);
    if rem {
        remainder
    } else {
        quotient
    }
}

fn ref_shl_const(a: &Bits, n: usize) -> Bits {
    (0..a.len())
        .map(|i| if i >= n { bit(a, i - n) } else { Logic::Zero })
        .collect()
}

fn ref_shr_const(a: &Bits, n: usize) -> Bits {
    (0..a.len())
        .map(|i| match i.checked_add(n) {
            Some(src) if src < a.len() => a[src],
            _ => Logic::Zero,
        })
        .collect()
}

/// Variable shifts (IEEE 1364-2005 §5.1.12): an amount with any X/Z
/// bit yields all-X; a known amount shifts by its full value, so one at
/// or beyond the width — however many bits it has — yields zeros. The
/// amount is summed per bit, saturating where it exceeds `usize`.
fn ref_shift(a: &Bits, amount: &Bits, left: bool) -> Bits {
    if !all_known(amount) {
        return xes(a.len());
    }
    let n = amount
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == Logic::One)
        .map(|(i, _)| 1usize.checked_shl(i as u32).unwrap_or(usize::MAX))
        .fold(0usize, usize::saturating_add);
    if left {
        ref_shl_const(a, n)
    } else {
        ref_shr_const(a, n)
    }
}

fn ref_concat(hi: &Bits, lo: &Bits) -> Bits {
    lo.iter().chain(hi.iter()).copied().collect()
}

fn ref_replicate(a: &Bits, count: usize) -> Bits {
    let mut out = Bits::new();
    for _ in 0..count {
        out.extend_from_slice(a);
    }
    out
}

fn ref_slice(a: &Bits, msb: usize, lsb: usize) -> Bits {
    let (msb, lsb) = if msb >= lsb { (msb, lsb) } else { (lsb, msb) };
    (lsb..=msb)
        .map(|i| if i < a.len() { a[i] } else { Logic::X })
        .collect()
}

fn ref_set_slice(a: &Bits, msb: usize, lsb: usize, value: &Bits) -> Bits {
    let (msb, lsb) = if msb >= lsb { (msb, lsb) } else { (lsb, msb) };
    let mut out = a.clone();
    for i in 0..=(msb - lsb) {
        if lsb + i < out.len() {
            out[lsb + i] = if i < value.len() {
                value[i]
            } else {
                Logic::Zero
            };
        }
    }
    out
}

fn ref_logic_eq(a: &Bits, b: &Bits) -> Logic {
    if !all_known(a) || !all_known(b) {
        return Logic::X;
    }
    let w = a.len().max(b.len());
    Logic::from_bool((0..w).all(|i| bit(a, i) == bit(b, i)))
}

fn ref_case_eq(a: &Bits, b: &Bits) -> bool {
    let w = a.len().max(b.len());
    (0..w).all(|i| bit(a, i) == bit(b, i))
}

fn ref_value_cmp(a: &Bits, b: &Bits) -> Option<std::cmp::Ordering> {
    if !all_known(a) || !all_known(b) {
        return None;
    }
    let w = a.len().max(b.len());
    for i in (0..w).rev() {
        let (x, y) = (bit(a, i) == Logic::One, bit(b, i) == Logic::One);
        if x != y {
            return Some(if x {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            });
        }
    }
    Some(std::cmp::Ordering::Equal)
}

fn ref_to_bool(a: &Bits) -> Option<bool> {
    if a.contains(&Logic::One) {
        return Some(true);
    }
    if all_known(a) {
        Some(false)
    } else {
        None
    }
}

fn ref_reduce(a: &Bits, init: Logic, f: impl Fn(Logic, Logic) -> Logic) -> Logic {
    a.iter().copied().fold(init, f)
}

fn ref_count_ones(a: &Bits) -> Option<u32> {
    if !all_known(a) {
        return None;
    }
    Some(a.iter().filter(|&&b| b == Logic::One).count() as u32)
}

fn ref_resize(a: &Bits, width: usize) -> Bits {
    (0..width).map(|i| bit(a, i)).collect()
}

/// Packs the reference bits into a LogicVec.
fn lv(bits: &Bits) -> LogicVec {
    let mut v = LogicVec::zeros(bits.len() as u32);
    for (i, &b) in bits.iter().enumerate() {
        v.set(i as u32, b);
    }
    v
}

/// Unpacks a LogicVec back into reference bits.
fn unpack(v: &LogicVec) -> Bits {
    v.iter().collect()
}

/// Asserts a packed result matches the reference, bit for bit.
fn assert_same(packed: &LogicVec, reference: &Bits, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(packed.width() as usize, reference.len(), "{} width", what);
    prop_assert_eq!(&unpack(packed), reference, "{} bits", what);
    // The representation invariant: width alone picks inline vs spilled.
    prop_assert_eq!(packed.is_spilled(), packed.width() > 64, "{} repr", what);
    Ok(())
}

/// Widths 1–200 with the word boundaries pinned as explicit choices.
fn width_strategy() -> BoxedStrategy<u32> {
    prop_oneof![
        1u32..=200,
        Just(63u32),
        Just(64u32),
        Just(65u32),
        Just(127u32),
        Just(128u32),
        Just(129u32),
    ]
    .boxed()
}

/// X/Z-heavy four-state distribution (one third unknown bits).
fn logic_strategy() -> BoxedStrategy<Logic> {
    prop_oneof![
        Just(Logic::Zero),
        Just(Logic::Zero),
        Just(Logic::One),
        Just(Logic::One),
        Just(Logic::X),
        Just(Logic::Z),
    ]
    .boxed()
}

/// Known bits only: wide operands drawn from the mostly-known
/// distribution almost never come out all-known, and the multi-word
/// products and long division need them.
fn known_strategy() -> BoxedStrategy<Logic> {
    prop_oneof![Just(Logic::Zero), Just(Logic::One)].boxed()
}

/// Mostly-known distribution, so arithmetic paths run on real values
/// often instead of short-circuiting to all-X.
fn mostly_known_strategy() -> BoxedStrategy<Logic> {
    prop_oneof![
        Just(Logic::Zero),
        Just(Logic::Zero),
        Just(Logic::Zero),
        Just(Logic::One),
        Just(Logic::One),
        Just(Logic::One),
        Just(Logic::One),
        Just(Logic::X),
    ]
    .boxed()
}

fn bits_strategy(element: fn() -> BoxedStrategy<Logic>) -> BoxedStrategy<Bits> {
    width_strategy()
        .prop_flat_map(move |w| pvec(element(), w as usize..=w as usize))
        .boxed()
}

proptest! {
    #[test]
    fn bitwise_ops_match_reference(
        a in bits_strategy(logic_strategy),
        b in bits_strategy(logic_strategy),
    ) {
        let (pa, pb) = (lv(&a), lv(&b));
        assert_same(&pa.and(&pb), &ref_bitwise(&a, &b, Logic::and), "and")?;
        assert_same(&pa.or(&pb), &ref_bitwise(&a, &b, Logic::or), "or")?;
        assert_same(&pa.xor(&pb), &ref_bitwise(&a, &b, Logic::xor), "xor")?;
        assert_same(
            &pa.xnor(&pb),
            &ref_bitwise(&a, &b, |x, y| x.xor(y).not()),
            "xnor",
        )?;
        assert_same(&pa.not(), &ref_not(&a), "not")?;
    }

    #[test]
    fn arithmetic_matches_reference(
        a in bits_strategy(mostly_known_strategy),
        b in bits_strategy(mostly_known_strategy),
    ) {
        let (pa, pb) = (lv(&a), lv(&b));
        assert_same(&pa.add(&pb), &ref_add(&a, &b), "add")?;
        assert_same(&pa.sub(&pb), &ref_sub(&a, &b), "sub")?;
        assert_same(&pa.negate(), &ref_negate(&a), "negate")?;
        assert_same(&pa.mul(&pb), &ref_mul(&a, &b), "mul")?;
        assert_same(&pa.div(&pb), &ref_divrem(&a, &b, false), "div")?;
        assert_same(&pa.rem(&pb), &ref_divrem(&a, &b, true), "rem")?;
    }

    /// Multi-word products and long division on known operands, through
    /// both owners. The operand widths are drawn independently, so a
    /// narrow divisor often leaves a quotient many words wide.
    #[test]
    fn known_multiword_arithmetic_matches_reference(
        a in bits_strategy(known_strategy),
        b in bits_strategy(known_strategy),
    ) {
        let (pa, pb) = (lv(&a), lv(&b));
        let want = [
            ref_mul(&a, &b),
            ref_divrem(&a, &b, false),
            ref_divrem(&a, &b, true),
        ];
        assert_same(&pa.mul(&pb), &want[0], "mul")?;
        assert_same(&pa.div(&pb), &want[1], "div")?;
        assert_same(&pa.rem(&pb), &want[2], "rem")?;
        type Op = fn(&mut ScratchBuf, aivril_hdl::bits::BitsRef<'_>);
        let ops: [(Op, &str); 3] = [
            (ScratchBuf::mul_assign, "mul_assign"),
            (ScratchBuf::div_assign, "div_assign"),
            (ScratchBuf::rem_assign, "rem_assign"),
        ];
        for ((op, what), want) in ops.into_iter().zip(&want) {
            let mut s = sb(&a);
            op(&mut s, pb.as_bits());
            assert_same_sb(&s, want, what)?;
        }
    }

    #[test]
    fn shifts_match_reference(
        a in bits_strategy(logic_strategy),
        n in 0u32..210,
        amt in bits_strategy(mostly_known_strategy),
    ) {
        let (pa, pamt) = (lv(&a), lv(&amt));
        assert_same(&pa.shift_left_const(n), &ref_shl_const(&a, n as usize), "shl const")?;
        assert_same(&pa.shift_right_const(n), &ref_shr_const(&a, n as usize), "shr const")?;
        assert_same(&pa.shl(&pamt), &ref_shift(&a, &amt, true), "shl")?;
        assert_same(&pa.shr(&pamt), &ref_shift(&a, &amt, false), "shr")?;
    }

    #[test]
    fn structure_ops_match_reference(
        a in bits_strategy(logic_strategy),
        b in bits_strategy(logic_strategy),
        count in 1u32..4,
        msb in 0u32..210,
        lsb in 0u32..210,
        src_lsb in 0u32..210,
    ) {
        let (pa, pb) = (lv(&a), lv(&b));
        assert_same(&pa.concat(&pb), &ref_concat(&a, &b), "concat")?;
        assert_same(&pa.replicate(count), &ref_replicate(&a, count as usize), "replicate")?;
        assert_same(
            &pa.slice(msb, lsb),
            &ref_slice(&a, msb as usize, lsb as usize),
            "slice",
        )?;
        let mut target = pa.clone();
        target.set_slice(msb, lsb, &pb);
        assert_same(
            &target,
            &ref_set_slice(&a, msb as usize, lsb as usize, &b),
            "set_slice",
        )?;
        // The in-place window write reads `b` from `src_lsb` up.
        let mut target = pa.clone();
        let changed = target.set_slice_bits(msb, lsb, pb.as_bits(), src_lsb);
        let shifted: Bits = b.iter().skip(src_lsb as usize).copied().collect();
        assert_same(
            &target,
            &ref_set_slice(&a, msb as usize, lsb as usize, &shifted),
            "set_slice_bits",
        )?;
        prop_assert_eq!(changed, target != pa, "set_slice_bits change flag");
    }

    #[test]
    fn predicates_match_reference(
        a in bits_strategy(logic_strategy),
        b in bits_strategy(mostly_known_strategy),
        w in width_strategy(),
    ) {
        let (pa, pb) = (lv(&a), lv(&b));
        prop_assert_eq!(pa.logic_eq(&pb), ref_logic_eq(&a, &b));
        prop_assert_eq!(pa.case_eq(&pb), ref_case_eq(&a, &b));
        prop_assert_eq!(pa.value_cmp(&pb), ref_value_cmp(&a, &b));
        let cmp = ref_value_cmp(&a, &b);
        let expect = |want: &[std::cmp::Ordering]| match cmp {
            Some(ord) => Logic::from_bool(want.contains(&ord)),
            None => Logic::X,
        };
        use std::cmp::Ordering::*;
        prop_assert_eq!(pa.lt(&pb), expect(&[Less]));
        prop_assert_eq!(pa.le(&pb), expect(&[Less, Equal]));
        prop_assert_eq!(pa.gt(&pb), expect(&[Greater]));
        prop_assert_eq!(pa.ge(&pb), expect(&[Greater, Equal]));
        prop_assert_eq!(pa.to_bool(), ref_to_bool(&a));
        prop_assert_eq!(pa.to_u64(), ref_to_u64(&a));
        prop_assert_eq!(pa.count_ones(), ref_count_ones(&a));
        prop_assert_eq!(pa.has_unknown(), !all_known(&a));
        prop_assert_eq!(pa.reduce_and(), ref_reduce(&a, Logic::One, Logic::and));
        prop_assert_eq!(pa.reduce_or(), ref_reduce(&a, Logic::Zero, Logic::or));
        prop_assert_eq!(pa.reduce_xor(), ref_reduce(&a, Logic::Zero, Logic::xor));
        assert_same(&pa.resize(w), &ref_resize(&a, w as usize), "resize")?;
        for i in 0..(a.len() as u32 + 3) {
            let want = if (i as usize) < a.len() { a[i as usize] } else { Logic::X };
            prop_assert_eq!(pa.get(i), want, "get({})", i);
        }
    }
}

/// Ternary merge under an unknown condition: zero-extended arms, the
/// shared value where both are known and agree, X otherwise.
fn ref_select_merge(then: &Bits, els: &Bits) -> Bits {
    let w = then.len().max(els.len());
    (0..w)
        .map(|i| {
            let (x, y) = (bit(then, i), bit(els, i));
            if is_known(x) && x == y {
                x
            } else {
                Logic::X
            }
        })
        .collect()
}

/// Loads the reference bits into a scratch buffer (via the packed form,
/// which the random `LogicVec` suites above already pin to the oracle).
fn sb(bits: &Bits) -> ScratchBuf {
    let mut buf = ScratchBuf::new();
    buf.load(lv(bits).as_bits());
    buf
}

/// Asserts an in-place result matches the reference, bit for bit, and
/// that the buffer never grew past its initial `load` (the zero-alloc
/// contract: one sizing at load, none during the op).
fn assert_same_sb(buf: &ScratchBuf, reference: &Bits, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(buf.width() as usize, reference.len(), "{} width", what);
    prop_assert_eq!(&unpack(&buf.to_logic_vec()), reference, "{} bits", what);
    Ok(())
}

// The word-parallel in-place ops of `ScratchBuf` against the same
// scalar oracle as the packed suites, at the same boundary-pinned
// widths (63/64/65/127/128/129 among 1-200). These are the kernels the
// wide-value arena executes on borrowed slices, so any divergence here
// is a simulation wrong-answer, not just a perf bug.
proptest! {
    #[test]
    fn scratch_bitwise_ops_match_reference(
        a in bits_strategy(logic_strategy),
        b in bits_strategy(logic_strategy),
    ) {
        let pb = lv(&b);
        let mut s = sb(&a);
        s.and_assign(pb.as_bits());
        assert_same_sb(&s, &ref_bitwise(&a, &b, Logic::and), "and_assign")?;
        let mut s = sb(&a);
        s.or_assign(pb.as_bits());
        assert_same_sb(&s, &ref_bitwise(&a, &b, Logic::or), "or_assign")?;
        let mut s = sb(&a);
        s.xor_assign(pb.as_bits());
        assert_same_sb(&s, &ref_bitwise(&a, &b, Logic::xor), "xor_assign")?;
        let mut s = sb(&a);
        s.xnor_assign(pb.as_bits());
        assert_same_sb(&s, &ref_bitwise(&a, &b, |x, y| x.xor(y).not()), "xnor_assign")?;
        let mut s = sb(&a);
        s.not_self();
        assert_same_sb(&s, &ref_not(&a), "not_self")?;
        let mut s = sb(&a);
        s.select_merge(lv(&a).as_bits(), pb.as_bits());
        assert_same_sb(&s, &ref_select_merge(&a, &b), "select_merge")?;
    }

    #[test]
    fn scratch_arithmetic_matches_reference(
        a in bits_strategy(mostly_known_strategy),
        b in bits_strategy(mostly_known_strategy),
    ) {
        let pb = lv(&b);
        let mut s = sb(&a);
        s.add_assign(pb.as_bits());
        assert_same_sb(&s, &ref_add(&a, &b), "add_assign")?;
        let mut s = sb(&a);
        s.sub_assign(pb.as_bits());
        assert_same_sb(&s, &ref_sub(&a, &b), "sub_assign")?;
        let mut s = sb(&a);
        s.neg_self();
        assert_same_sb(&s, &ref_negate(&a), "neg_self")?;
        let mut s = sb(&a);
        s.mul_assign(pb.as_bits());
        assert_same_sb(&s, &ref_mul(&a, &b), "mul_assign")?;
        let mut s = sb(&a);
        s.div_assign(pb.as_bits());
        assert_same_sb(&s, &ref_divrem(&a, &b, false), "div_assign")?;
        let mut s = sb(&a);
        s.rem_assign(pb.as_bits());
        assert_same_sb(&s, &ref_divrem(&a, &b, true), "rem_assign")?;
    }

    #[test]
    fn scratch_shifts_and_structure_match_reference(
        a in bits_strategy(logic_strategy),
        b in bits_strategy(logic_strategy),
        n in 0u32..210,
        amt in bits_strategy(mostly_known_strategy),
        count in 1u32..4,
        msb in 0u32..210,
        lsb in 0u32..210,
    ) {
        let (pa, pb, pamt) = (lv(&a), lv(&b), lv(&amt));
        let mut s = sb(&a);
        s.shl_assign_const(n);
        assert_same_sb(&s, &ref_shl_const(&a, n as usize), "shl_assign_const")?;
        let mut s = sb(&a);
        s.shr_assign_const(n);
        assert_same_sb(&s, &ref_shr_const(&a, n as usize), "shr_assign_const")?;
        let mut s = sb(&a);
        s.shl_assign(pamt.as_bits());
        assert_same_sb(&s, &ref_shift(&a, &amt, true), "shl_assign")?;
        let mut s = sb(&a);
        s.shr_assign(pamt.as_bits());
        assert_same_sb(&s, &ref_shift(&a, &amt, false), "shr_assign")?;
        let mut s = ScratchBuf::new();
        s.slice_from(pa.as_bits(), msb, lsb);
        assert_same_sb(&s, &ref_slice(&a, msb as usize, lsb as usize), "slice_from")?;
        let mut s = sb(&a);
        s.concat_low(pb.as_bits());
        assert_same_sb(&s, &ref_concat(&a, &b), "concat_low")?;
        let mut s = sb(&a);
        let mut spare = ScratchBuf::new();
        s.replicate_self(count, &mut spare);
        assert_same_sb(&s, &ref_replicate(&a, count as usize), "replicate_self")?;
    }

    #[test]
    fn bits_ref_predicates_match_reference(
        a in bits_strategy(logic_strategy),
        b in bits_strategy(mostly_known_strategy),
    ) {
        let (pa, pb) = (lv(&a), lv(&b));
        let (ra, rb) = (pa.as_bits(), pb.as_bits());
        prop_assert_eq!(ra.logic_eq(rb), ref_logic_eq(&a, &b));
        prop_assert_eq!(ra.case_eq(rb), ref_case_eq(&a, &b));
        prop_assert_eq!(ra.value_cmp(rb), ref_value_cmp(&a, &b));
        prop_assert_eq!(ra.to_bool(), ref_to_bool(&a));
        prop_assert_eq!(ra.to_u64(), ref_to_u64(&a));
        prop_assert_eq!(ra.has_unknown(), !all_known(&a));
        prop_assert_eq!(ra.reduce_and(), ref_reduce(&a, Logic::One, Logic::and));
        prop_assert_eq!(ra.reduce_or(), ref_reduce(&a, Logic::Zero, Logic::or));
        prop_assert_eq!(ra.reduce_xor(), ref_reduce(&a, Logic::Zero, Logic::xor));
        for i in 0..(a.len() as u32 + 3) {
            let want = if (i as usize) < a.len() { a[i as usize] } else { Logic::X };
            prop_assert_eq!(ra.get(i), want, "get({})", i);
        }
    }

    /// The arena contract: a buffer pre-sized to the op's statically
    /// known result width completes any op sequence without regrowing.
    #[test]
    fn presized_scratch_never_grows(
        a in bits_strategy(logic_strategy),
        b in bits_strategy(mostly_known_strategy),
        n in 0u32..210,
    ) {
        let (pa, pb) = (lv(&a), lv(&b));
        let max_w = (a.len().max(b.len()) as u32) * 4;
        let mut s = ScratchBuf::with_width(max_w);
        let mut spare = ScratchBuf::with_width(max_w);
        s.load_resized(pa.as_bits(), a.len() as u32);
        s.xor_assign(pb.as_bits());
        s.add_assign(pb.as_bits());
        s.shl_assign_const(n.min(s.width()));
        s.not_self();
        s.replicate_self(3, &mut spare);
        s.select_merge(pa.as_bits(), pb.as_bits());
        prop_assert_eq!(s.grows(), 0, "pre-sized buffer must not regrow");
        prop_assert_eq!(spare.grows(), 0, "spare must not regrow");
    }
}

/// Hand-worked shift amounts at the edges the per-bit reference draws
/// rarely: 2^32 (once truncated to a shift by 0), a 65-bit 2^64 (once
/// rejected like an unknown) and an X amount. Checked through both the
/// owned and the in-place form.
#[test]
fn shift_amount_edges_hand_worked() {
    let v = LogicVec::from_u64(8, 0xA5);
    let mut two_pow_64 = LogicVec::zeros(65);
    two_pow_64.set(64, Logic::One);
    let (zeros, xes) = (LogicVec::zeros(8), LogicVec::xes(8));
    let cases = [
        (LogicVec::from_u64(33, 1 << 32), &zeros, &zeros),
        (two_pow_64, &zeros, &zeros),
        (LogicVec::parse_binary("0x1").expect("literal"), &xes, &xes),
        (
            LogicVec::from_u64(4, 3),
            &LogicVec::from_u64(8, 0x28),
            &LogicVec::from_u64(8, 0x14),
        ),
    ];
    for (amount, want_shl, want_shr) in cases {
        assert_eq!(&v.shl(&amount), want_shl, "8'ha5 << {amount}");
        assert_eq!(&v.shr(&amount), want_shr, "8'ha5 >> {amount}");
        let mut s = ScratchBuf::new();
        s.load(v.as_bits());
        s.shl_assign(amount.as_bits());
        assert_eq!(&s.to_logic_vec(), want_shl, "8'ha5 <<= {amount}");
        s.load(v.as_bits());
        s.shr_assign(amount.as_bits());
        assert_eq!(&s.to_logic_vec(), want_shr, "8'ha5 >>= {amount}");
    }
}

/// Deterministic sweep of the word-boundary widths with structured
/// patterns — belt and braces on top of the random cases above.
#[test]
fn boundary_width_patterns_match_reference() {
    let patterns: &[fn(usize) -> Logic] = &[
        |_| Logic::Zero,
        |_| Logic::One,
        |i| Logic::from_bool(i % 2 == 0),
        |i| if i % 7 == 3 { Logic::X } else { Logic::One },
        |i| if i % 5 == 0 { Logic::Z } else { Logic::Zero },
    ];
    for &w in &[1usize, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 200] {
        for make_a in patterns {
            for make_b in patterns {
                let a: Bits = (0..w).map(make_a).collect();
                let b: Bits = (0..w).map(make_b).collect();
                let (pa, pb) = (lv(&a), lv(&b));
                assert_eq!(unpack(&pa.add(&pb)), ref_add(&a, &b), "add w={w}");
                assert_eq!(unpack(&pa.sub(&pb)), ref_sub(&a, &b), "sub w={w}");
                assert_eq!(
                    unpack(&pa.and(&pb)),
                    ref_bitwise(&a, &b, Logic::and),
                    "and w={w}"
                );
                assert_eq!(
                    unpack(&pa.xor(&pb)),
                    ref_bitwise(&a, &b, Logic::xor),
                    "xor w={w}"
                );
                assert_eq!(pa.case_eq(&pb), ref_case_eq(&a, &b), "case_eq w={w}");
                assert_eq!(pa.value_cmp(&pb), ref_value_cmp(&a, &b), "cmp w={w}");
                assert_eq!(
                    unpack(&pa.shift_left_const(w as u32 / 2)),
                    ref_shl_const(&a, w / 2),
                    "shl w={w}"
                );
                assert_eq!(
                    pa.reduce_and(),
                    ref_reduce(&a, Logic::One, Logic::and),
                    "reduce_and w={w}"
                );
            }
        }
    }
}
