//! Four-state word kernels over borrowed bit planes, and reusable
//! scratch buffers.
//!
//! This module is the one implementation of four-state word logic in
//! the crate. Every value is a pair of `(aval, bval)` bit planes of
//! `u64` words, and every operation works on whole words — 64 lanes of
//! value and unknown bits at a time:
//!
//! * [`BitsRef`] — a cheap read-only view of `(width, aval, bval)`
//!   planes carrying every predicate (truthiness, reductions,
//!   equality, ordering);
//! * `BitsMut` — the mutable view every value-producing kernel runs
//!   on, in place (`dst = dst op rhs`), over borrowed `&mut [u64]`
//!   planes;
//! * [`ScratchBuf`] — an owned, capacity-retaining plane pair whose
//!   operations size the destination and then run a `BitsMut` kernel.
//!
//! [`LogicVec`](crate::vec::LogicVec) runs the same kernels over its own
//! planes (inline for ≤ 64 bits, so narrow results stay heap-free); its
//! ops only choose the result width. `crates/hdl/tests/logicvec_diff.rs`
//! checks both owners against a scalar per-bit reference.
//!
//! # Invariant
//!
//! Plane bits at positions `>= width` in the top word are always zero.
//! Every kernel that can set them re-establishes this with
//! `BitsMut::mask_top`.

use crate::logic::Logic;
use crate::vec::LogicVec;
use std::cmp::Ordering;

/// Number of 64-bit words needed for `width` bits.
pub(crate) fn words_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

/// Mask covering the low `width` bits of a word (`width` clamped to 64).
pub(crate) fn low_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Valid-bit mask for word `i` of a `width`-bit vector's planes.
pub(crate) fn word_mask_for(width: u32, i: usize) -> u64 {
    let rem = width % 64;
    if rem != 0 && i == words_for(width) - 1 {
        (1u64 << rem) - 1
    } else {
        u64::MAX
    }
}

/// Normalises a `[msb:lsb]` select written in either order to
/// `(lsb, width)`.
pub(crate) fn select_range(msb: u32, lsb: u32) -> (u32, u32) {
    let (lo, hi) = (msb.min(lsb), msb.max(lsb));
    (lo, hi - lo + 1)
}

/// Word `i` of a plane, reading zero beyond its end (the implicit
/// zero-extension every width-mixing operation relies on).
fn word_at(plane: &[u64], i: usize) -> u64 {
    plane.get(i).copied().unwrap_or(0)
}

/// The 64 plane bits starting at bit position `bit`, zero-extended.
fn extract_word(plane: &[u64], bit: u32) -> u64 {
    let (ws, bs) = ((bit / 64) as usize, bit % 64);
    let lo = word_at(plane, ws) >> bs;
    let hi = if bs > 0 {
        word_at(plane, ws + 1) << (64 - bs)
    } else {
        0
    };
    lo | hi
}

/// ORs `src` shifted left by `shift` bits into `dst` (bits falling
/// beyond `dst` are dropped).
fn or_shifted(dst: &mut [u64], src: &[u64], shift: u32) {
    let (ws, bs) = ((shift / 64) as usize, shift % 64);
    for (i, &w) in src.iter().enumerate() {
        let pos = ws + i;
        if pos < dst.len() {
            dst[pos] |= w << bs;
        }
        if bs > 0 && pos + 1 < dst.len() {
            dst[pos + 1] |= w >> (64 - bs);
        }
    }
}

/// Word-parallel four-state AND over one word of each operand's planes:
/// 0 where either operand is known-0, 1 where both are known-1, X
/// otherwise.
pub(crate) fn and_words(a1: u64, b1: u64, a2: u64, b2: u64) -> (u64, u64) {
    let r0 = (!a1 & !b1) | (!a2 & !b2);
    let r1 = (a1 & !b1) & (a2 & !b2);
    (!r0, !r0 & !r1)
}

/// Word-parallel four-state OR: 1 where either operand is known-1, 0
/// where both are known-0, X otherwise.
pub(crate) fn or_words(a1: u64, b1: u64, a2: u64, b2: u64) -> (u64, u64) {
    let r1 = (a1 & !b1) | (a2 & !b2);
    let r0 = (!a1 & !b1) & (!a2 & !b2);
    (r1 | !(r0 | r1), !(r0 | r1))
}

/// Word-parallel four-state XOR: X wherever either operand is unknown.
pub(crate) fn xor_words(a1: u64, b1: u64, a2: u64, b2: u64) -> (u64, u64) {
    let unk = b1 | b2;
    ((a1 ^ a2) | unk, unk)
}

/// Word-parallel four-state XNOR: X wherever either operand is unknown.
pub(crate) fn xnor_words(a1: u64, b1: u64, a2: u64, b2: u64) -> (u64, u64) {
    let unk = b1 | b2;
    (!(a1 ^ a2) | unk, unk)
}

/// A known shift amount saturated to `u32`, or `None` for an X/Z amount
/// (IEEE 1364-2005 §5.1.12). Saturation keeps amounts of 2^32 and above
/// — however many words they span — on the "shift out every bit" path
/// instead of wrapping to a small count.
fn shift_amount(amount: BitsRef<'_>) -> Option<u32> {
    if amount.has_unknown() {
        return None;
    }
    Some(
        amount
            .to_u64()
            .map_or(u32::MAX, |n| u32::try_from(n).unwrap_or(u32::MAX)),
    )
}

/// A borrowed read-only view of a four-state vector's packed planes.
///
/// Works identically over [`LogicVec`] storage (via
/// [`LogicVec::as_bits`]) and [`ScratchBuf`] storage (via
/// [`ScratchBuf::as_bits`]), so consumers of evaluation results never
/// need to know where a value lives.
#[derive(Debug, Clone, Copy)]
pub struct BitsRef<'a> {
    width: u32,
    aval: &'a [u64],
    bval: &'a [u64],
}

impl<'a> BitsRef<'a> {
    /// Wraps pre-packed planes. `aval`/`bval` must hold exactly
    /// `width.div_ceil(64)` words with zero bits above `width`.
    #[must_use]
    pub fn new(width: u32, aval: &'a [u64], bval: &'a [u64]) -> BitsRef<'a> {
        debug_assert_eq!(aval.len(), words_for(width));
        debug_assert_eq!(bval.len(), words_for(width));
        BitsRef { width, aval, bval }
    }

    /// Width in bits.
    #[must_use]
    pub fn width(self) -> u32 {
        self.width
    }

    /// Word `i` of both planes, zero-extended beyond the end.
    pub(crate) fn word(self, i: usize) -> (u64, u64) {
        (word_at(self.aval, i), word_at(self.bval, i))
    }

    /// Returns the bit at `index` (LSB = 0), or `Logic::X` out of range.
    #[must_use]
    pub fn get(self, index: u32) -> Logic {
        if index >= self.width {
            return Logic::X;
        }
        let (w, b) = ((index / 64) as usize, index % 64);
        Logic::from_avab(self.aval[w] >> b & 1 == 1, self.bval[w] >> b & 1 == 1)
    }

    /// `true` if any bit is `X` or `Z`.
    #[must_use]
    pub fn has_unknown(self) -> bool {
        self.bval.iter().any(|&w| w != 0)
    }

    /// Unsigned integer value; `None` on unknown bits or non-zero high
    /// words beyond 64 bits.
    #[must_use]
    pub fn to_u64(self) -> Option<u64> {
        if self.has_unknown() {
            return None;
        }
        if self.aval.iter().skip(1).any(|&w| w != 0) {
            return None;
        }
        Some(word_at(self.aval, 0))
    }

    /// Verilog truthiness: `Some(true)` when any bit is a known `1`,
    /// `Some(false)` when all bits are known `0`, else `None`.
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        let any_one = self.aval.iter().zip(self.bval).any(|(&a, &b)| a & !b != 0);
        if any_one {
            return Some(true);
        }
        if self.has_unknown() {
            return None;
        }
        Some(false)
    }

    /// Reduction AND over all bits: `0` if any bit is a known zero, else
    /// `X` if any bit is unknown, else `1` (matches the per-bit
    /// [`Logic::and`] fold because AND is monotone and commutative).
    #[must_use]
    pub fn reduce_and(self) -> Logic {
        let mut unknown = false;
        for (i, (&a, &b)) in self.aval.iter().zip(self.bval).enumerate() {
            if !a & !b & word_mask_for(self.width, i) != 0 {
                return Logic::Zero;
            }
            unknown |= b != 0;
        }
        if unknown {
            Logic::X
        } else {
            Logic::One
        }
    }

    /// Reduction OR over all bits: `1` if any bit is a known one, else
    /// `X` if any bit is unknown, else `0`.
    #[must_use]
    pub fn reduce_or(self) -> Logic {
        let mut unknown = false;
        for (&a, &b) in self.aval.iter().zip(self.bval) {
            if a & !b != 0 {
                return Logic::One;
            }
            unknown |= b != 0;
        }
        if unknown {
            Logic::X
        } else {
            Logic::Zero
        }
    }

    /// Reduction XOR (parity) over all bits: `X` if any bit is unknown.
    #[must_use]
    pub fn reduce_xor(self) -> Logic {
        if self.has_unknown() {
            return Logic::X;
        }
        let ones: u32 = self.aval.iter().map(|w| w.count_ones()).sum();
        Logic::from_bool(ones % 2 == 1)
    }

    /// Logical equality (`==`): `X` if either side has unknown bits.
    #[must_use]
    pub fn logic_eq(self, rhs: BitsRef<'_>) -> Logic {
        if self.has_unknown() || rhs.has_unknown() {
            return Logic::X;
        }
        Logic::from_bool(self.case_eq(rhs))
    }

    /// Case equality (`===`): exact four-state comparison with implicit
    /// zero-extension of the shorter operand.
    #[must_use]
    pub fn case_eq(self, rhs: BitsRef<'_>) -> bool {
        let n = self.aval.len().max(rhs.aval.len());
        (0..n).all(|i| self.word(i) == rhs.word(i))
    }

    /// Unsigned value comparison; `None` when unknown bits are present.
    #[must_use]
    pub fn value_cmp(self, rhs: BitsRef<'_>) -> Option<Ordering> {
        if self.has_unknown() || rhs.has_unknown() {
            return None;
        }
        let n = self.aval.len().max(rhs.aval.len());
        let ord = (0..n)
            .rev()
            .map(|i| word_at(self.aval, i).cmp(&word_at(rhs.aval, i)))
            .find(|&ord| ord != Ordering::Equal);
        Some(ord.unwrap_or(Ordering::Equal))
    }

    /// `X` on unknown operands, else whether the value ordering
    /// satisfies `holds`.
    fn compare(self, rhs: BitsRef<'_>, holds: fn(Ordering) -> bool) -> Logic {
        self.value_cmp(rhs)
            .map_or(Logic::X, |ord| Logic::from_bool(holds(ord)))
    }

    /// Unsigned less-than: `X` on unknown operands.
    #[must_use]
    pub fn lt(self, rhs: BitsRef<'_>) -> Logic {
        self.compare(rhs, Ordering::is_lt)
    }

    /// Unsigned less-or-equal: `X` on unknown operands.
    #[must_use]
    pub fn le(self, rhs: BitsRef<'_>) -> Logic {
        self.compare(rhs, Ordering::is_le)
    }

    /// Unsigned greater-than: `X` on unknown operands.
    #[must_use]
    pub fn gt(self, rhs: BitsRef<'_>) -> Logic {
        self.compare(rhs, Ordering::is_gt)
    }

    /// Unsigned greater-or-equal: `X` on unknown operands.
    #[must_use]
    pub fn ge(self, rhs: BitsRef<'_>) -> Logic {
        self.compare(rhs, Ordering::is_ge)
    }
}

/// A mutable view of a `width`-bit value's planes: the destination of
/// every in-place kernel.
///
/// The owner sizes the planes to the result width before calling a
/// kernel; width-changing kernels (`slice_from`, `concat_low`,
/// `replicate`, `select_merge`) document what the destination must
/// already hold.
pub(crate) struct BitsMut<'a> {
    width: u32,
    aval: &'a mut [u64],
    bval: &'a mut [u64],
}

impl<'a> BitsMut<'a> {
    /// Wraps planes holding exactly `width.div_ceil(64)` words.
    pub(crate) fn new(width: u32, aval: &'a mut [u64], bval: &'a mut [u64]) -> BitsMut<'a> {
        debug_assert_eq!(aval.len(), words_for(width));
        debug_assert_eq!(bval.len(), words_for(width));
        BitsMut { width, aval, bval }
    }

    fn view(&self) -> BitsRef<'_> {
        BitsRef::new(self.width, self.aval, self.bval)
    }

    /// Clears plane bits above `width` in the top word.
    pub(crate) fn mask_top(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            let mask = (1u64 << rem) - 1;
            let last = self.aval.len() - 1;
            self.aval[last] &= mask;
            self.bval[last] &= mask;
        }
    }

    /// Sets every bit to `fill`.
    pub(crate) fn fill(&mut self, fill: Logic) {
        let (a, b) = fill.to_avab();
        self.aval.fill(if a { u64::MAX } else { 0 });
        self.bval.fill(if b { u64::MAX } else { 0 });
        self.mask_top();
    }

    /// Copies `src` in, zero-extending or truncating it to `width`.
    pub(crate) fn copy_from(&mut self, src: BitsRef<'_>) {
        for i in 0..self.aval.len() {
            (self.aval[i], self.bval[i]) = src.word(i);
        }
        self.mask_top();
    }

    /// Sets the value to the low bits of `value`.
    pub(crate) fn set_u64(&mut self, value: u64) {
        self.fill(Logic::Zero);
        if let Some(w) = self.aval.first_mut() {
            *w = value;
        }
        self.mask_top();
    }

    /// `self = f(self, rhs)` word by word, `rhs` zero-extended; `f` is
    /// one of the `*_words` resolution functions.
    pub(crate) fn bitwise(&mut self, rhs: BitsRef<'_>, f: fn(u64, u64, u64, u64) -> (u64, u64)) {
        for i in 0..self.aval.len() {
            let (a2, b2) = rhs.word(i);
            (self.aval[i], self.bval[i]) = f(self.aval[i], self.bval[i], a2, b2);
        }
        self.mask_top();
    }

    /// `self = ~self`: known bits invert, X/Z become X.
    pub(crate) fn not(&mut self) {
        for (a, &b) in self.aval.iter_mut().zip(self.bval.iter()) {
            *a = !*a | b;
        }
        self.mask_top();
    }

    /// Fills with X and returns `true` if either operand has an unknown
    /// bit — the all-X rule of every arithmetic operator.
    fn x_if_unknown(&mut self, rhs: BitsRef<'_>) -> bool {
        let unknown = self.view().has_unknown() || rhs.has_unknown();
        if unknown {
            self.fill(Logic::X);
        }
        unknown
    }

    /// `self = self + rhs_word + carry_in` over the value plane, as one
    /// ripple-carry chain of whole words.
    fn carry_chain(&mut self, carry_in: u64, rhs_word: impl Fn(usize) -> u64) {
        let mut carry = u128::from(carry_in);
        for (i, a) in self.aval.iter_mut().enumerate() {
            let sum = u128::from(*a) + u128::from(rhs_word(i)) + carry;
            *a = sum as u64;
            carry = sum >> 64;
        }
        self.mask_top();
    }

    /// `self = self + rhs` (wrapping at `width`), all-X on unknowns.
    pub(crate) fn add(&mut self, rhs: BitsRef<'_>) {
        if !self.x_if_unknown(rhs) {
            self.carry_chain(0, |i| rhs.word(i).0);
        }
    }

    /// `self = self - rhs` as `self + !rhs + 1`, all-X on unknowns. The
    /// complement's bits above `width` only reach bits that
    /// `mask_top` clears, so `rhs` needs no masking.
    pub(crate) fn sub(&mut self, rhs: BitsRef<'_>) {
        if !self.x_if_unknown(rhs) {
            self.carry_chain(1, |i| !rhs.word(i).0);
        }
    }

    /// `self = -self` as `!self + 1`, all-X on unknown bits.
    pub(crate) fn neg(&mut self) {
        if self.view().has_unknown() {
            self.fill(Logic::X);
        } else {
            self.not();
            self.carry_chain(1, |_| 0);
        }
    }

    /// `self = self * rhs`, keeping the product of the low words only
    /// (exact for results of ≤ 64 bits); all-X on unknowns.
    pub(crate) fn mul(&mut self, rhs: BitsRef<'_>) {
        if !self.x_if_unknown(rhs) {
            let low = self.view().word(0).0.wrapping_mul(rhs.word(0).0);
            self.set_u64(low);
        }
    }

    /// `self = self / rhs`; all-X on unknowns, division by zero, or an
    /// operand that does not fit in 64 bits.
    pub(crate) fn div(&mut self, rhs: BitsRef<'_>) {
        self.div_rem(rhs, |a, b| a / b);
    }

    /// `self = self % rhs`; all-X under the same conditions as `div`.
    pub(crate) fn rem(&mut self, rhs: BitsRef<'_>) {
        self.div_rem(rhs, |a, b| a % b);
    }

    fn div_rem(&mut self, rhs: BitsRef<'_>, op: fn(u64, u64) -> u64) {
        match (self.view().to_u64(), rhs.to_u64()) {
            (Some(a), Some(b)) if b != 0 => self.set_u64(op(a, b)),
            _ => self.fill(Logic::X),
        }
    }

    /// `self = self << amount`: all-X for an X/Z amount, zeros for a
    /// known amount `>= width`.
    pub(crate) fn shl(&mut self, amount: BitsRef<'_>) {
        match shift_amount(amount) {
            Some(n) => self.shl_const(n),
            None => self.fill(Logic::X),
        }
    }

    /// `self = self >> amount`, with the same amount rules as `shl`.
    pub(crate) fn shr(&mut self, amount: BitsRef<'_>) {
        match shift_amount(amount) {
            Some(n) => self.shr_const(n),
            None => self.fill(Logic::X),
        }
    }

    /// Shift left by a constant, filling with zeros. Runs top-down so
    /// every word is read before it is overwritten.
    pub(crate) fn shl_const(&mut self, n: u32) {
        if n >= self.width {
            self.fill(Logic::Zero);
            return;
        }
        let (ws, bs) = ((n / 64) as usize, n % 64);
        for plane in [&mut *self.aval, &mut *self.bval] {
            for i in (ws..plane.len()).rev() {
                let carried = if bs > 0 && i > ws {
                    plane[i - ws - 1] >> (64 - bs)
                } else {
                    0
                };
                plane[i] = plane[i - ws] << bs | carried;
            }
            plane[..ws].fill(0);
        }
        self.mask_top();
    }

    /// Shift right by a constant, filling with zeros. Runs bottom-up so
    /// every word is read before it is overwritten.
    pub(crate) fn shr_const(&mut self, n: u32) {
        if n >= self.width {
            self.fill(Logic::Zero);
            return;
        }
        for plane in [&mut *self.aval, &mut *self.bval] {
            for i in 0..plane.len() {
                plane[i] = extract_word(plane, n + 64 * i as u32);
            }
        }
        self.mask_top();
    }

    /// `self = src[lsb + width - 1 : lsb]`; bits beyond `src` read X.
    pub(crate) fn slice_from(&mut self, src: BitsRef<'_>, lsb: u32) {
        let known = src.width.saturating_sub(lsb);
        for i in 0..self.aval.len() {
            let bit = lsb + 64 * i as u32;
            self.aval[i] = extract_word(src.aval, bit);
            self.bval[i] = extract_word(src.bval, bit);
        }
        if known < self.width {
            let (ws, bs) = ((known / 64) as usize, known % 64);
            for i in ws..self.aval.len() {
                let m = if i == ws { u64::MAX << bs } else { u64::MAX };
                self.aval[i] |= m;
                self.bval[i] |= m;
            }
        }
        self.mask_top();
    }

    /// `self = {self, low}`: the destination, sized to the concatenated
    /// width, holds the high part zero-extended on entry.
    pub(crate) fn concat_low(&mut self, low: BitsRef<'_>) {
        self.shl_const(low.width);
        or_shifted(self.aval, low.aval, 0);
        or_shifted(self.bval, low.bval, 0);
    }

    /// `self = {count{pattern}}`: the destination is sized to
    /// `count * pattern.width()` bits.
    pub(crate) fn replicate(&mut self, pattern: BitsRef<'_>, count: u32) {
        self.fill(Logic::Zero);
        for k in 0..count {
            or_shifted(self.aval, pattern.aval, k * pattern.width);
            or_shifted(self.bval, pattern.bval, k * pattern.width);
        }
    }

    /// Ternary merge under an unknown condition, sized to the wider arm:
    /// for each bit of the zero-extended arms, the shared value where
    /// both agree and are known, X otherwise.
    pub(crate) fn select_merge(&mut self, then: BitsRef<'_>, els: BitsRef<'_>) {
        for i in 0..self.aval.len() {
            let (a1, b1) = then.word(i);
            let (a2, b2) = els.word(i);
            let same = !(a1 ^ a2) & !b1 & !b2;
            self.aval[i] = (a1 & same) | !same;
            self.bval[i] = !same;
        }
        self.mask_top();
    }
}

/// An owned, reusable four-state plane pair executing in place.
///
/// A `ScratchBuf` never shrinks its heap capacity and never
/// canonicalises to an inline form: once sized for the widest value it
/// will hold, re-use is allocation-free. The [`grows`](Self::grows)
/// counter records every time an operation outgrew the current
/// capacity — on a correctly pre-sized arena it stays at zero, which is
/// exactly what the kernel's `eval_allocs` telemetry asserts.
///
/// All binary operations are `dst = dst op rhs` with `rhs` borrowed,
/// so aliasing between operands is impossible by construction.
#[derive(Debug, Default)]
pub struct ScratchBuf {
    width: u32,
    aval: Vec<u64>,
    bval: Vec<u64>,
    grows: u64,
}

impl ScratchBuf {
    /// An empty buffer (width 0). Any operation will size it on first
    /// use, counting a growth event.
    #[must_use]
    pub fn new() -> ScratchBuf {
        ScratchBuf::default()
    }

    /// A buffer pre-sized for `width` bits, holding all zeros.
    /// Construction is not counted as a growth event.
    #[must_use]
    pub fn with_width(width: u32) -> ScratchBuf {
        let n = words_for(width);
        ScratchBuf {
            width,
            aval: vec![0; n],
            bval: vec![0; n],
            grows: 0,
        }
    }

    /// Current width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of times an operation outgrew the pre-sized capacity.
    #[must_use]
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Per-plane capacity in 64-bit words.
    #[must_use]
    pub fn capacity_words(&self) -> usize {
        self.aval.capacity()
    }

    /// A read-only view of the current value.
    #[must_use]
    pub fn as_bits(&self) -> BitsRef<'_> {
        BitsRef::new(self.width, &self.aval, &self.bval)
    }

    fn bits_mut(&mut self) -> BitsMut<'_> {
        BitsMut::new(self.width, &mut self.aval, &mut self.bval)
    }

    /// An owned canonical [`LogicVec`] copy of the current value
    /// (allocates for widths above 64 — test and cold-path use only).
    #[must_use]
    pub fn to_logic_vec(&self) -> LogicVec {
        LogicVec::from_bits(self.as_bits())
    }

    /// Resizes to `width` bits, zero-extending or truncating the held
    /// value. Counts a growth event when the word count exceeds the
    /// retained capacity.
    pub fn set_width(&mut self, width: u32) {
        let n = words_for(width);
        if n > self.aval.capacity() || n > self.bval.capacity() {
            self.grows += 1;
        }
        self.aval.resize(n, 0);
        self.bval.resize(n, 0);
        self.width = width;
        self.bits_mut().mask_top();
    }

    /// Copies `src` in, adopting its width.
    pub fn load(&mut self, src: BitsRef<'_>) {
        self.load_resized(src, src.width());
    }

    /// Copies `src` in at `width` bits (zero-extending or truncating).
    pub fn load_resized(&mut self, src: BitsRef<'_>, width: u32) {
        self.set_width(width);
        self.bits_mut().copy_from(src);
    }

    /// Loads the low bits of `value` at `width` bits.
    pub fn load_u64(&mut self, width: u32, value: u64) {
        self.set_width(width);
        self.bits_mut().set_u64(value);
    }

    /// Loads a single-bit scalar.
    pub fn load_logic(&mut self, value: Logic) {
        self.fill(1, value);
    }

    /// Sets every bit to `fill` at `width` bits.
    pub fn fill(&mut self, width: u32, fill: Logic) {
        self.set_width(width);
        self.bits_mut().fill(fill);
    }

    /// Widens to the larger operand width, then runs `kernel` in place.
    fn binary(&mut self, rhs: BitsRef<'_>, kernel: impl FnOnce(&mut BitsMut<'_>, BitsRef<'_>)) {
        self.set_width(self.width.max(rhs.width()));
        kernel(&mut self.bits_mut(), rhs);
    }

    /// `self = self & rhs` with four-state resolution.
    pub fn and_assign(&mut self, rhs: BitsRef<'_>) {
        self.binary(rhs, |d, r| d.bitwise(r, and_words));
    }

    /// `self = self | rhs` with four-state resolution.
    pub fn or_assign(&mut self, rhs: BitsRef<'_>) {
        self.binary(rhs, |d, r| d.bitwise(r, or_words));
    }

    /// `self = self ^ rhs` with four-state resolution.
    pub fn xor_assign(&mut self, rhs: BitsRef<'_>) {
        self.binary(rhs, |d, r| d.bitwise(r, xor_words));
    }

    /// `self = self ~^ rhs` with four-state resolution.
    pub fn xnor_assign(&mut self, rhs: BitsRef<'_>) {
        self.binary(rhs, |d, r| d.bitwise(r, xnor_words));
    }

    /// `self = ~self`: known bits invert, X/Z become X.
    pub fn not_self(&mut self) {
        self.bits_mut().not();
    }

    /// `self = self + rhs` at the max operand width, all-X on any
    /// unknown operand bit.
    pub fn add_assign(&mut self, rhs: BitsRef<'_>) {
        self.binary(rhs, |d, r| d.add(r));
    }

    /// `self = self - rhs` (two's-complement wraparound), all-X on any
    /// unknown operand bit.
    pub fn sub_assign(&mut self, rhs: BitsRef<'_>) {
        self.binary(rhs, |d, r| d.sub(r));
    }

    /// `self = -self` (two's complement), all-X on unknown bits.
    pub fn neg_self(&mut self) {
        self.bits_mut().neg();
    }

    /// `self = self * rhs` (low 64 bits), all-X on unknown operands.
    pub fn mul_assign(&mut self, rhs: BitsRef<'_>) {
        self.binary(rhs, |d, r| d.mul(r));
    }

    /// `self = self / rhs`; division by zero or unknown operands yield
    /// all-X.
    pub fn div_assign(&mut self, rhs: BitsRef<'_>) {
        self.binary(rhs, |d, r| d.div(r));
    }

    /// `self = self % rhs`; modulo zero or unknown operands yield all-X.
    pub fn rem_assign(&mut self, rhs: BitsRef<'_>) {
        self.binary(rhs, |d, r| d.rem(r));
    }

    /// `self = self << amount` at the current width; an X/Z amount
    /// yields all-X, a known amount `>= width` yields zeros.
    pub fn shl_assign(&mut self, amount: BitsRef<'_>) {
        self.bits_mut().shl(amount);
    }

    /// `self = self >> amount` at the current width; an X/Z amount
    /// yields all-X, a known amount `>= width` yields zeros.
    pub fn shr_assign(&mut self, amount: BitsRef<'_>) {
        self.bits_mut().shr(amount);
    }

    /// Shift left by a constant, filling with zeros.
    pub fn shl_assign_const(&mut self, n: u32) {
        self.bits_mut().shl_const(n);
    }

    /// Shift right by a constant, filling with zeros.
    pub fn shr_assign_const(&mut self, n: u32) {
        self.bits_mut().shr_const(n);
    }

    /// `self = src[msb:lsb]` (inclusive, LSB-0). Out-of-range bits read
    /// as X.
    pub fn slice_from(&mut self, src: BitsRef<'_>, msb: u32, lsb: u32) {
        let (lsb, width) = select_range(msb, lsb);
        self.set_width(width);
        self.bits_mut().slice_from(src, lsb);
    }

    /// `self = {self, low}` — `self` supplies the high bits, as in the
    /// Verilog concatenation `{a, b}` where `a` is written first.
    pub fn concat_low(&mut self, low: BitsRef<'_>) {
        self.set_width(self.width + low.width());
        self.bits_mut().concat_low(low);
    }

    /// `self = {count{self}}`, staging the source pattern in `spare`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `count` is zero.
    pub fn replicate_self(&mut self, count: u32, spare: &mut ScratchBuf) {
        debug_assert!(count > 0, "replication count must be non-zero");
        spare.load(self.as_bits());
        self.set_width(self.width * count);
        self.bits_mut().replicate(spare.as_bits(), count);
    }

    /// Ternary merge under an unknown condition: for each bit of the
    /// zero-extended arms, the result is the shared value where both
    /// arms agree and are known, X otherwise.
    pub fn select_merge(&mut self, then: BitsRef<'_>, els: BitsRef<'_>) {
        self.set_width(then.width().max(els.width()));
        self.bits_mut().select_merge(then, els);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lv(s: &str) -> LogicVec {
        LogicVec::parse_binary(s).expect("valid literal")
    }

    /// A `width`-bit vector with exactly the listed bits set to `1`.
    fn ones_at(width: u32, bits: &[u32]) -> LogicVec {
        let mut v = LogicVec::zeros(width);
        for &b in bits {
            v.set(b, Logic::One);
        }
        v
    }

    #[test]
    fn presized_buffer_never_grows() {
        let mut buf = ScratchBuf::with_width(256);
        let a = LogicVec::from_u64(200, 0xDEAD_BEEF);
        let b = LogicVec::from_u64(256, 0x1234);
        buf.load(a.as_bits());
        buf.add_assign(b.as_bits());
        buf.xor_assign(a.as_bits());
        buf.shl_assign_const(77);
        buf.not_self();
        assert_eq!(buf.grows(), 0);
        assert_eq!(buf.width(), 256);
    }

    #[test]
    fn growth_is_counted() {
        let mut buf = ScratchBuf::with_width(64);
        buf.load(LogicVec::zeros(64).as_bits());
        assert_eq!(buf.grows(), 0);
        buf.load(LogicVec::zeros(640).as_bits());
        assert_eq!(buf.grows(), 1);
        // Capacity is retained: shrinking and re-growing is free.
        buf.load(LogicVec::zeros(64).as_bits());
        buf.load(LogicVec::zeros(640).as_bits());
        assert_eq!(buf.grows(), 1);
    }

    #[test]
    fn bitwise_ops_hand_worked() {
        let a = lv("1x01zzz010110x01");
        let b = lv("0110x01z01101010");
        let mut buf = ScratchBuf::with_width(64);
        type Op = fn(&mut ScratchBuf, BitsRef<'_>);
        let cases: [(Op, &str); 4] = [
            (ScratchBuf::and_assign, "0x00x0x000100000"),
            (ScratchBuf::or_assign, "1111xx1x11111x11"),
            (ScratchBuf::xor_assign, "1x11xxxx11011x11"),
            (ScratchBuf::xnor_assign, "0x00xxxx00100x00"),
        ];
        for (op, want) in cases {
            buf.load(a.as_bits());
            op(&mut buf, b.as_bits());
            assert_eq!(buf.to_logic_vec(), lv(want), "{a} op {b}");
        }
        buf.load(a.as_bits());
        buf.not_self();
        assert_eq!(buf.to_logic_vec(), lv("0x10xxx101001x10"));
    }

    #[test]
    fn wide_arithmetic_hand_worked() {
        let mut buf = ScratchBuf::with_width(130);
        // (2^128 - 1) + 1 carries across both word boundaries of a
        // 130-bit value into bit 128.
        let low128 = LogicVec::filled(128, Logic::One);
        let one = LogicVec::from_u64(130, 1);
        buf.load(low128.as_bits());
        buf.add_assign(one.as_bits());
        assert_eq!(buf.to_logic_vec(), ones_at(130, &[128]));
        // ...and 2^128 - 1 borrows back down through both boundaries.
        buf.sub_assign(one.as_bits());
        assert_eq!(buf.to_logic_vec(), low128.resize(130));
        // 0 - 1 and -1 wrap to all ones at the full width.
        buf.load(LogicVec::zeros(130).as_bits());
        buf.sub_assign(one.as_bits());
        assert_eq!(buf.to_logic_vec(), LogicVec::filled(130, Logic::One));
        buf.load(one.as_bits());
        buf.neg_self();
        assert_eq!(buf.to_logic_vec(), LogicVec::filled(130, Logic::One));
        // 13 * 11 = 143; 143 / 11 = 13; 100 % 7 = 2; x / 0 = X.
        buf.load_u64(8, 13);
        buf.mul_assign(LogicVec::from_u64(8, 11).as_bits());
        assert_eq!(buf.to_logic_vec(), LogicVec::from_u64(8, 143));
        buf.div_assign(LogicVec::from_u64(8, 11).as_bits());
        assert_eq!(buf.to_logic_vec(), LogicVec::from_u64(8, 13));
        buf.load_u64(8, 100);
        buf.rem_assign(LogicVec::from_u64(8, 7).as_bits());
        assert_eq!(buf.to_logic_vec(), LogicVec::from_u64(8, 2));
        buf.div_assign(LogicVec::zeros(8).as_bits());
        assert_eq!(buf.to_logic_vec(), LogicVec::xes(8));
    }

    #[test]
    fn concat_replicate_slice_roundtrip() {
        // {64'h8000_0000_0000_0001, 65'h1_0000_0000_0000_0001}: the low
        // part owns bits 0 and 64, the high part lands at 65 and 128.
        let hi = ones_at(64, &[0, 63]);
        let lo = ones_at(65, &[0, 64]);
        let mut buf = ScratchBuf::new();
        buf.load(hi.as_bits());
        buf.concat_low(lo.as_bits());
        let cat = ones_at(129, &[0, 64, 65, 128]);
        assert_eq!(buf.to_logic_vec(), cat);

        let mut spare = ScratchBuf::new();
        buf.load(lv("10x").as_bits());
        buf.replicate_self(5, &mut spare);
        assert_eq!(buf.to_logic_vec(), lv("10x10x10x10x10x"));

        // [128:64] of the concatenation, written in either order.
        buf.slice_from(cat.as_bits(), 128, 64);
        assert_eq!(buf.to_logic_vec(), ones_at(65, &[0, 1, 64]));
        buf.slice_from(cat.as_bits(), 64, 128);
        assert_eq!(buf.to_logic_vec(), ones_at(65, &[0, 1, 64]));
        // [130:100]: bits 100..=128 exist (bit 128 -> 28), 129/130 read X.
        buf.slice_from(cat.as_bits(), 130, 100);
        let mut want = ones_at(31, &[28]);
        want.set(29, Logic::X);
        want.set(30, Logic::X);
        assert_eq!(buf.to_logic_vec(), want);
    }

    #[test]
    fn select_merge_matches_per_bit_rule() {
        let t = lv("1x0z10");
        let e = lv("110z00");
        let mut buf = ScratchBuf::new();
        buf.select_merge(t.as_bits(), e.as_bits());
        let out = buf.to_logic_vec();
        for i in 0..6 {
            let (tb, eb) = (t.get(i), e.get(i));
            let expect = if tb == eb && !tb.is_unknown() {
                tb
            } else {
                Logic::X
            };
            assert_eq!(out.get(i), expect, "bit {i}");
        }
    }
}
