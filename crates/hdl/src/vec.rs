//! Packed four-state bit vectors with Verilog evaluation semantics.
//!
//! [`LogicVec`] stores a vector of [`Logic`] values in the classic
//! simulator (aval, bval) packed encoding: two bit-planes of `u64` words.
//! All operations follow IEEE 1364 semantics: bitwise operators resolve
//! per bit, while arithmetic and relational operators degrade to all-`X`
//! as soon as any operand bit is unknown.
//!
//! # Representation
//!
//! The planes use a small-value representation: vectors of 64 bits or
//! fewer keep their single `(aval, bval)` word pair inline with zero
//! heap allocation (the overwhelming majority of nets in the benchmark
//! suite), spilling to heap-allocated `Vec<u64>` planes only for wider
//! vectors. The representation is canonical — a given width always uses
//! the same variant — so structural equality and hashing are unaffected.
//!
//! The four-state word logic itself lives in [`crate::bits`]: each
//! operation here only picks its result width and runs, over these
//! planes, the same in-place kernel that
//! [`ScratchBuf`](crate::bits::ScratchBuf) runs.

use crate::bits::{self, low_mask, select_range, word_mask_for, words_for, BitsMut, BitsRef};
use crate::logic::Logic;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// One bit-plane: a single word inline for widths <= 64, a heap
/// vector beyond. The variant is determined solely by the vector's
/// width, so equal values always have equal representations.
#[derive(Debug, Clone)]
enum Words {
    Inline(u64),
    Spilled(Vec<u64>),
}

impl Words {
    /// A plane of `n` zero words.
    fn zeroed(n: usize) -> Words {
        if n == 1 {
            Words::Inline(0)
        } else {
            Words::Spilled(vec![0; n])
        }
    }
}

impl Deref for Words {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Words::Inline(w) => std::slice::from_ref(w),
            Words::Spilled(v) => v,
        }
    }
}

impl DerefMut for Words {
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Words::Inline(w) => std::slice::from_mut(w),
            Words::Spilled(v) => v,
        }
    }
}

impl PartialEq for Words {
    fn eq(&self, other: &Words) -> bool {
        **self == **other
    }
}

impl Eq for Words {}

impl Hash for Words {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

/// A fixed-width vector of four-state logic values.
///
/// Bit 0 is the least-significant bit, matching Verilog `[msb:0]`
/// declarations.
///
/// # Example
///
/// ```
/// use aivril_hdl::vec::LogicVec;
///
/// let a = LogicVec::from_u64(4, 0b1010);
/// let b = LogicVec::from_u64(4, 0b0011);
/// assert_eq!(a.add(&b).to_u64(), Some(0b1101));
/// assert_eq!(a.xor(&b).to_u64(), Some(0b1001));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogicVec {
    width: u32,
    /// Value plane: bit set = `1` or `X`.
    aval: Words,
    /// Unknown plane: bit set = `Z` or `X`.
    bval: Words,
}

impl LogicVec {
    /// Builds a one-word vector from pre-computed planes, masking to
    /// `width`. Only valid for `width <= 64`.
    fn inline(width: u32, aval: u64, bval: u64) -> LogicVec {
        debug_assert!(0 < width && width <= 64);
        let m = low_mask(width);
        LogicVec {
            width,
            aval: Words::Inline(aval & m),
            bval: Words::Inline(bval & m),
        }
    }

    /// Creates a vector of `width` bits, every bit set to `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn filled(width: u32, fill: Logic) -> LogicVec {
        assert!(width > 0, "LogicVec width must be non-zero");
        let n = words_for(width);
        let v = LogicVec {
            width,
            aval: Words::zeroed(n),
            bval: Words::zeroed(n),
        };
        v.apply(|d| d.fill(fill))
    }

    /// All-zero vector of `width` bits.
    #[must_use]
    pub fn zeros(width: u32) -> LogicVec {
        LogicVec::filled(width, Logic::Zero)
    }

    /// All-`X` vector of `width` bits — the reset state of every register.
    #[must_use]
    pub fn xes(width: u32) -> LogicVec {
        LogicVec::filled(width, Logic::X)
    }

    /// Builds a vector of `width` bits from the low bits of `value`.
    #[must_use]
    pub fn from_u64(width: u32, value: u64) -> LogicVec {
        if width <= 64 {
            return LogicVec::inline(width, value, 0);
        }
        let mut v = LogicVec::zeros(width);
        v.aval[0] = value;
        v
    }

    /// Builds a single-bit vector from a scalar logic value.
    #[must_use]
    pub fn from_logic(value: Logic) -> LogicVec {
        LogicVec::filled(1, value)
    }

    /// `true` when this vector's planes are heap-allocated (width > 64).
    /// Diagnostic hook for the kernel's allocation accounting.
    #[must_use]
    pub fn is_spilled(&self) -> bool {
        matches!(self.aval, Words::Spilled(_))
    }

    /// A borrowed read-only view of the packed planes.
    #[must_use]
    pub fn as_bits(&self) -> BitsRef<'_> {
        BitsRef::new(self.width, &self.aval, &self.bval)
    }

    /// Builds a canonical vector from a borrowed plane view.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has zero width.
    #[must_use]
    pub fn from_bits(bits: BitsRef<'_>) -> LogicVec {
        LogicVec::zeros(bits.width()).apply(|d| d.copy_from(bits))
    }

    /// Overwrites this vector in place from `bits`, keeping its own
    /// width (zero-extending or truncating `bits` — the same resize
    /// semantics as a full-net assignment). Never reallocates.
    pub fn assign_bits(&mut self, bits: BitsRef<'_>) {
        self.bits_mut().copy_from(bits);
    }

    /// Compares this vector against `bits` under the same resize
    /// semantics as [`assign_bits`](Self::assign_bits): `true` iff the
    /// assignment would leave the value unchanged.
    #[must_use]
    pub fn equals_bits(&self, bits: BitsRef<'_>) -> bool {
        for i in 0..self.aval.len() {
            let m = word_mask_for(self.width, i);
            let (a, b) = bits.word(i);
            if self.aval[i] != a & m || self.bval[i] != b & m {
                return false;
            }
        }
        true
    }

    /// Builds a vector from bits listed MSB-first, as they appear in a
    /// Verilog literal such as `4'b10x1`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    #[must_use]
    pub fn from_bits_msb_first(bits: &[Logic]) -> LogicVec {
        assert!(!bits.is_empty(), "bit list must be non-empty");
        let width = bits.len() as u32;
        let mut v = LogicVec::zeros(width);
        for (i, bit) in bits.iter().rev().enumerate() {
            v.set(i as u32, *bit);
        }
        v
    }

    /// Parses a string of `0 1 x z` characters (MSB first).
    ///
    /// Returns `None` on empty input or invalid characters.
    #[must_use]
    pub fn parse_binary(s: &str) -> Option<LogicVec> {
        let bits: Option<Vec<Logic>> = s.chars().map(Logic::from_char).collect();
        let bits = bits?;
        if bits.is_empty() {
            return None;
        }
        Some(LogicVec::from_bits_msb_first(&bits))
    }

    /// Width of this vector in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Returns the bit at `index` (LSB = 0), or `Logic::X` when out of
    /// range (matching Verilog out-of-bounds select semantics).
    #[must_use]
    pub fn get(&self, index: u32) -> Logic {
        if index >= self.width {
            return Logic::X;
        }
        let (w, b) = ((index / 64) as usize, index % 64);
        Logic::from_avab(self.aval[w] >> b & 1 == 1, self.bval[w] >> b & 1 == 1)
    }

    /// Sets the bit at `index` (LSB = 0). Out-of-range writes are ignored,
    /// matching Verilog semantics for out-of-bounds part-select targets.
    pub fn set(&mut self, index: u32, value: Logic) {
        if index >= self.width {
            return;
        }
        let (w, b) = ((index / 64) as usize, index % 64);
        let (a, bb) = value.to_avab();
        let mask = 1u64 << b;
        if a {
            self.aval[w] |= mask;
        } else {
            self.aval[w] &= !mask;
        }
        if bb {
            self.bval[w] |= mask;
        } else {
            self.bval[w] &= !mask;
        }
    }

    /// `true` if any bit is `X` or `Z`.
    #[must_use]
    pub fn has_unknown(&self) -> bool {
        self.as_bits().has_unknown()
    }

    /// Interprets the vector as an unsigned integer.
    ///
    /// Returns `None` if any bit is unknown or the width exceeds 64 bits
    /// with non-zero high bits.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        self.as_bits().to_u64()
    }

    /// Truthiness in a Verilog `if`: `Some(true)` when any bit is `1`,
    /// `Some(false)` when all bits are `0`, `None` when the answer depends
    /// on unknown bits.
    #[must_use]
    pub fn to_bool(&self) -> Option<bool> {
        self.as_bits().to_bool()
    }

    /// Iterates over bits from LSB to MSB.
    pub fn iter(&self) -> impl Iterator<Item = Logic> + '_ {
        (0..self.width).map(move |i| self.get(i))
    }

    fn bits_mut(&mut self) -> BitsMut<'_> {
        BitsMut::new(self.width, &mut self.aval, &mut self.bval)
    }

    /// Runs an in-place [`crate::bits`] kernel over this vector.
    fn apply(mut self, kernel: impl FnOnce(&mut BitsMut<'_>)) -> LogicVec {
        kernel(&mut self.bits_mut());
        self
    }

    /// A copy zero-extended to the wider of the two operands: the
    /// destination of every width-mixing binary operator.
    fn widened(&self, rhs: &LogicVec) -> LogicVec {
        self.resize(self.width.max(rhs.width))
    }

    /// Zero-extends or truncates to `width` bits.
    #[must_use]
    pub fn resize(&self, width: u32) -> LogicVec {
        LogicVec::zeros(width).apply(|d| d.copy_from(self.as_bits()))
    }

    /// Bitwise AND with Verilog four-state resolution: 0 where either
    /// operand is known-0, 1 where both are known-1, X otherwise.
    #[must_use]
    pub fn and(&self, rhs: &LogicVec) -> LogicVec {
        self.widened(rhs)
            .apply(|d| d.bitwise(rhs.as_bits(), bits::and_words))
    }

    /// Bitwise OR with Verilog four-state resolution: 1 where either
    /// operand is known-1, 0 where both are known-0, X otherwise.
    #[must_use]
    pub fn or(&self, rhs: &LogicVec) -> LogicVec {
        self.widened(rhs)
            .apply(|d| d.bitwise(rhs.as_bits(), bits::or_words))
    }

    /// Bitwise XOR with Verilog four-state resolution: X wherever either
    /// operand is unknown, else the plain XOR.
    #[must_use]
    pub fn xor(&self, rhs: &LogicVec) -> LogicVec {
        self.widened(rhs)
            .apply(|d| d.bitwise(rhs.as_bits(), bits::xor_words))
    }

    /// Bitwise XNOR with Verilog four-state resolution.
    #[must_use]
    pub fn xnor(&self, rhs: &LogicVec) -> LogicVec {
        self.widened(rhs)
            .apply(|d| d.bitwise(rhs.as_bits(), bits::xnor_words))
    }

    /// Bitwise NOT with four-state resolution: known bits invert; X/Z
    /// become X.
    #[must_use]
    pub fn not(&self) -> LogicVec {
        self.clone().apply(|d| d.not())
    }

    /// Reduction AND over all bits: `0` if any bit is a known zero, else
    /// `X` if any bit is unknown, else `1`.
    #[must_use]
    pub fn reduce_and(&self) -> Logic {
        self.as_bits().reduce_and()
    }

    /// Reduction OR over all bits: `1` if any bit is a known one, else
    /// `X` if any bit is unknown, else `0`.
    #[must_use]
    pub fn reduce_or(&self) -> Logic {
        self.as_bits().reduce_or()
    }

    /// Reduction XOR over all bits (parity): `X` if any bit is unknown.
    #[must_use]
    pub fn reduce_xor(&self) -> Logic {
        self.as_bits().reduce_xor()
    }

    /// Addition with Verilog X-propagation: any unknown operand bit makes
    /// the whole result `X`. Result width is the max operand width.
    #[must_use]
    pub fn add(&self, rhs: &LogicVec) -> LogicVec {
        self.widened(rhs).apply(|d| d.add(rhs.as_bits()))
    }

    /// Subtraction (two's complement wraparound) with X-propagation.
    #[must_use]
    pub fn sub(&self, rhs: &LogicVec) -> LogicVec {
        self.widened(rhs).apply(|d| d.sub(rhs.as_bits()))
    }

    /// Two's-complement negation with X-propagation.
    #[must_use]
    pub fn negate(&self) -> LogicVec {
        self.clone().apply(|d| d.neg())
    }

    /// Multiplication (low bits) with X-propagation.
    #[must_use]
    pub fn mul(&self, rhs: &LogicVec) -> LogicVec {
        self.widened(rhs).apply(|d| d.mul(rhs.as_bits()))
    }

    /// Division; division by zero or unknown operands yield all-`X`,
    /// matching IEEE 1364.
    #[must_use]
    pub fn div(&self, rhs: &LogicVec) -> LogicVec {
        self.widened(rhs).apply(|d| d.div(rhs.as_bits()))
    }

    /// Remainder; modulo zero or unknown operands yield all-`X`.
    #[must_use]
    pub fn rem(&self, rhs: &LogicVec) -> LogicVec {
        self.widened(rhs).apply(|d| d.rem(rhs.as_bits()))
    }

    /// Logical shift left (IEEE 1364-2005 §5.1.12): an X/Z shift amount
    /// yields all-`X`; a known amount `>= width` yields zeros.
    #[must_use]
    pub fn shl(&self, amount: &LogicVec) -> LogicVec {
        self.clone().apply(|d| d.shl(amount.as_bits()))
    }

    /// Logical shift right, with the same amount rules as
    /// [`shl`](Self::shl).
    #[must_use]
    pub fn shr(&self, amount: &LogicVec) -> LogicVec {
        self.clone().apply(|d| d.shr(amount.as_bits()))
    }

    /// Shift left by a constant amount, filling with zeros.
    #[must_use]
    pub fn shift_left_const(&self, n: u32) -> LogicVec {
        self.clone().apply(|d| d.shl_const(n))
    }

    /// Shift right by a constant amount, filling with zeros.
    #[must_use]
    pub fn shift_right_const(&self, n: u32) -> LogicVec {
        self.clone().apply(|d| d.shr_const(n))
    }

    /// Logical equality (`==`): returns `X` if either operand has unknown
    /// bits, else `0`/`1`.
    #[must_use]
    pub fn logic_eq(&self, rhs: &LogicVec) -> Logic {
        self.as_bits().logic_eq(rhs.as_bits())
    }

    /// Case equality (`===`): exact four-state comparison, always `0`/`1`
    /// (the shorter operand zero-extends, like the per-bit definition).
    #[must_use]
    pub fn case_eq(&self, rhs: &LogicVec) -> bool {
        self.as_bits().case_eq(rhs.as_bits())
    }

    /// Unsigned less-than: `X` on unknown operands.
    #[must_use]
    pub fn lt(&self, rhs: &LogicVec) -> Logic {
        self.as_bits().lt(rhs.as_bits())
    }

    /// Unsigned less-or-equal: `X` on unknown operands.
    #[must_use]
    pub fn le(&self, rhs: &LogicVec) -> Logic {
        self.as_bits().le(rhs.as_bits())
    }

    /// Unsigned greater-than: `X` on unknown operands.
    #[must_use]
    pub fn gt(&self, rhs: &LogicVec) -> Logic {
        self.as_bits().gt(rhs.as_bits())
    }

    /// Unsigned greater-or-equal: `X` on unknown operands.
    #[must_use]
    pub fn ge(&self, rhs: &LogicVec) -> Logic {
        self.as_bits().ge(rhs.as_bits())
    }

    /// Unsigned value comparison; `None` when unknown bits are present.
    #[must_use]
    pub fn value_cmp(&self, rhs: &LogicVec) -> Option<std::cmp::Ordering> {
        self.as_bits().value_cmp(rhs.as_bits())
    }

    /// Concatenates `{self, low}` — `self` supplies the high bits, as in
    /// the Verilog concatenation `{a, b}` where `a` is written first.
    #[must_use]
    pub fn concat(&self, low: &LogicVec) -> LogicVec {
        self.resize(self.width + low.width)
            .apply(|d| d.concat_low(low.as_bits()))
    }

    /// Replicates the vector `count` times, as in `{count{v}}`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn replicate(&self, count: u32) -> LogicVec {
        assert!(count > 0, "replication count must be non-zero");
        LogicVec::zeros(self.width * count).apply(|d| d.replicate(self.as_bits(), count))
    }

    /// Extracts bits `[msb:lsb]` (inclusive, LSB-0 indexing).
    ///
    /// Out-of-range bits read as `X`, matching Verilog.
    #[must_use]
    pub fn slice(&self, msb: u32, lsb: u32) -> LogicVec {
        let (lsb, width) = select_range(msb, lsb);
        LogicVec::zeros(width).apply(|d| d.slice_from(self.as_bits(), lsb))
    }

    /// Ternary merge of `self` (the then-arm) and `els` under an unknown
    /// condition (IEEE 1364): at the wider arm's width, each bit is the
    /// shared value where both zero-extended arms agree and are known,
    /// `X` otherwise.
    #[must_use]
    pub fn select_merge(&self, els: &LogicVec) -> LogicVec {
        LogicVec::zeros(self.width.max(els.width))
            .apply(|d| d.select_merge(self.as_bits(), els.as_bits()))
    }

    /// Writes `value` into bits `[msb:lsb]`, truncating or zero-extending
    /// `value` as needed.
    pub fn set_slice(&mut self, msb: u32, lsb: u32, value: &LogicVec) {
        let (msb, lsb) = if msb >= lsb { (msb, lsb) } else { (lsb, msb) };
        if lsb >= self.width {
            return;
        }
        // Full overwrite by an equal-width value: copy the planes whole.
        if lsb == 0 && msb + 1 >= self.width && value.width == self.width {
            self.aval.copy_from_slice(&value.aval);
            self.bval.copy_from_slice(&value.bval);
            return;
        }
        if self.width <= 64 {
            // Effective bits written: [lsb, min(msb + 1, self.width)).
            let eff = (msb + 1).min(self.width) - lsb;
            let window = low_mask(eff) << lsb;
            // value bits beyond value.width read as known zero, which the
            // plane encoding already provides.
            let va = (value.aval[0] & low_mask(eff)) << lsb;
            let vb = (value.bval[0] & low_mask(eff)) << lsb;
            self.aval[0] = self.aval[0] & !window | va;
            self.bval[0] = self.bval[0] & !window | vb;
            return;
        }
        for i in 0..=(msb - lsb) {
            let bit = if i < value.width {
                value.get(i)
            } else {
                Logic::Zero
            };
            self.set(lsb + i, bit);
        }
    }

    /// Population count of `1` bits; `None` if any bit is unknown.
    #[must_use]
    pub fn count_ones(&self) -> Option<u32> {
        if self.has_unknown() {
            return None;
        }
        Some(self.aval.iter().map(|w| w.count_ones()).sum())
    }

    /// Renders as a binary digit string, MSB first (no width prefix).
    #[must_use]
    pub fn to_binary_string(&self) -> String {
        (0..self.width)
            .rev()
            .map(|i| self.get(i).to_char())
            .collect()
    }

    /// Renders as lowercase hex; nibbles containing unknown bits render
    /// as `x`/`z` like a Verilog `%h` format.
    #[must_use]
    pub fn to_hex_string(&self) -> String {
        let nibbles = self.width.div_ceil(4);
        let mut s = String::new();
        for n in (0..nibbles).rev() {
            let lsb = n * 4;
            let msb = (lsb + 3).min(self.width - 1);
            let nib = self.slice(msb, lsb);
            if nib.has_unknown() {
                let all_z = nib.iter().all(|b| b == Logic::Z);
                s.push(if all_z { 'z' } else { 'x' });
            } else {
                let v = nib.to_u64().expect("known nibble");
                s.push(char::from_digit(v as u32, 16).expect("nibble < 16"));
            }
        }
        s
    }

    /// Renders as decimal, or `x`/`z` when unknown bits are present.
    #[must_use]
    pub fn to_decimal_string(&self) -> String {
        match self.to_u64() {
            Some(v) => v.to_string(),
            None => {
                if self.iter().all(|b| b == Logic::Z) {
                    "z".to_string()
                } else {
                    "x".to_string()
                }
            }
        }
    }
}

impl fmt::Display for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b{}", self.width, self.to_binary_string())
    }
}

impl From<bool> for LogicVec {
    fn from(b: bool) -> LogicVec {
        LogicVec::from_logic(Logic::from_bool(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_u64_roundtrip() {
        let v = LogicVec::from_u64(16, 0xBEEF);
        assert_eq!(v.to_u64(), Some(0xBEEF));
        assert_eq!(v.width(), 16);
    }

    #[test]
    fn width_truncates_value() {
        let v = LogicVec::from_u64(4, 0xFF);
        assert_eq!(v.to_u64(), Some(0xF));
    }

    #[test]
    fn parse_binary_with_unknowns() {
        let v = LogicVec::parse_binary("10xz").expect("valid literal");
        assert_eq!(v.get(3), Logic::One);
        assert_eq!(v.get(2), Logic::Zero);
        assert_eq!(v.get(1), Logic::X);
        assert_eq!(v.get(0), Logic::Z);
        assert!(v.has_unknown());
        assert_eq!(v.to_u64(), None);
    }

    #[test]
    fn add_wraps_at_width() {
        let a = LogicVec::from_u64(4, 0xF);
        let b = LogicVec::from_u64(4, 1);
        assert_eq!(a.add(&b).to_u64(), Some(0));
    }

    #[test]
    fn add_propagates_x() {
        let a = LogicVec::parse_binary("1x00").expect("valid");
        let b = LogicVec::from_u64(4, 1);
        let sum = a.add(&b);
        assert!(sum.iter().all(|bit| bit == Logic::X));
    }

    #[test]
    fn wide_add_carries_across_words() {
        let a = LogicVec::from_u64(128, u64::MAX).resize(128);
        let b = LogicVec::from_u64(128, 1);
        let sum = a.add(&b);
        assert_eq!(sum.get(64), Logic::One);
        for i in 0..64 {
            assert_eq!(sum.get(i), Logic::Zero);
        }
    }

    #[test]
    fn sub_wraps_two_complement() {
        let a = LogicVec::from_u64(8, 3);
        let b = LogicVec::from_u64(8, 5);
        assert_eq!(a.sub(&b).to_u64(), Some(0xFE));
    }

    #[test]
    fn wide_sub_borrows_across_words() {
        // 2^64 - 1 == u64::MAX at width 100.
        let a = LogicVec::from_u64(100, 0).set_bit_at(64);
        let b = LogicVec::from_u64(100, 1);
        let diff = a.sub(&b);
        assert_eq!(diff.get(64), Logic::Zero);
        for i in 0..64 {
            assert_eq!(diff.get(i), Logic::One, "bit {i}");
        }
        // And 0 - 1 wraps to all-ones at the full width.
        let z = LogicVec::zeros(100);
        let wrapped = z.sub(&LogicVec::from_u64(100, 1));
        assert!(wrapped.iter().all(|bit| bit == Logic::One));
    }

    impl LogicVec {
        /// Test helper: returns a copy with bit `i` set to `1`.
        fn set_bit_at(mut self, i: u32) -> LogicVec {
            self.set(i, Logic::One);
            self
        }
    }

    #[test]
    fn div_by_zero_is_x() {
        let a = LogicVec::from_u64(8, 42);
        let z = LogicVec::from_u64(8, 0);
        assert!(a.div(&z).has_unknown());
        assert!(a.rem(&z).has_unknown());
    }

    #[test]
    fn logic_eq_vs_case_eq() {
        let a = LogicVec::parse_binary("1x").expect("valid");
        let b = LogicVec::parse_binary("1x").expect("valid");
        assert_eq!(a.logic_eq(&b), Logic::X);
        assert!(a.case_eq(&b));
        let c = LogicVec::parse_binary("10").expect("valid");
        assert!(!a.case_eq(&c));
    }

    #[test]
    fn comparisons() {
        let a = LogicVec::from_u64(8, 5);
        let b = LogicVec::from_u64(8, 9);
        assert_eq!(a.lt(&b), Logic::One);
        assert_eq!(b.lt(&a), Logic::Zero);
        assert_eq!(a.le(&a), Logic::One);
        assert_eq!(b.gt(&a), Logic::One);
        assert_eq!(a.ge(&b), Logic::Zero);
    }

    #[test]
    fn comparison_with_x_is_x() {
        let a = LogicVec::parse_binary("0x").expect("valid");
        let b = LogicVec::from_u64(2, 1);
        assert_eq!(a.lt(&b), Logic::X);
    }

    #[test]
    fn concat_and_slice() {
        let hi = LogicVec::from_u64(4, 0xA);
        let lo = LogicVec::from_u64(4, 0x5);
        let v = hi.concat(&lo);
        assert_eq!(v.to_u64(), Some(0xA5));
        assert_eq!(v.slice(7, 4).to_u64(), Some(0xA));
        assert_eq!(v.slice(3, 0).to_u64(), Some(0x5));
    }

    #[test]
    fn wide_concat_crosses_word_boundaries() {
        let hi = LogicVec::from_u64(40, 0xAB_CDEF_0123);
        let lo = LogicVec::from_u64(40, 0x45_6789_ABCD);
        let v = hi.concat(&lo);
        assert_eq!(v.width(), 80);
        assert_eq!(v.slice(39, 0).to_u64(), Some(0x45_6789_ABCD));
        assert_eq!(v.slice(79, 40).to_u64(), Some(0xAB_CDEF_0123));
    }

    #[test]
    fn replicate() {
        let v = LogicVec::from_u64(2, 0b10);
        assert_eq!(v.replicate(3).to_u64(), Some(0b101010));
    }

    #[test]
    fn slice_out_of_range_reads_x() {
        let v = LogicVec::from_u64(8, 0xFF);
        let s = v.slice(11, 4);
        assert_eq!(s.width(), 8);
        for i in 0..4 {
            assert_eq!(s.get(i), Logic::One, "in-range bit {i}");
        }
        for i in 4..8 {
            assert_eq!(s.get(i), Logic::X, "out-of-range bit {i}");
        }
        assert!(v.slice(20, 10).iter().all(|b| b == Logic::X));
    }

    #[test]
    fn set_slice_updates_range() {
        let mut v = LogicVec::zeros(8);
        v.set_slice(7, 4, &LogicVec::from_u64(4, 0xF));
        assert_eq!(v.to_u64(), Some(0xF0));
    }

    #[test]
    fn set_slice_clamps_to_width() {
        let mut v = LogicVec::from_u64(8, 0xFF);
        // Target bits beyond the vector are ignored; value bits beyond
        // the value read as zero.
        v.set_slice(11, 6, &LogicVec::from_u64(2, 0b01));
        assert_eq!(v.to_u64(), Some(0b0111_1111));
        let mut w = LogicVec::from_u64(8, 0);
        w.set_slice(20, 10, &LogicVec::from_u64(4, 0xF));
        assert_eq!(w.to_u64(), Some(0));
    }

    #[test]
    fn shifts() {
        let v = LogicVec::from_u64(8, 0b0000_0110);
        assert_eq!(v.shift_left_const(2).to_u64(), Some(0b0001_1000));
        assert_eq!(v.shift_right_const(1).to_u64(), Some(0b0000_0011));
        assert_eq!(v.shift_left_const(8).to_u64(), Some(0));
        assert_eq!(v.shift_right_const(20).to_u64(), Some(0));
    }

    #[test]
    fn wide_shifts_cross_words() {
        let v = LogicVec::from_u64(130, 0b1011);
        let l = v.shift_left_const(70);
        assert_eq!(l.get(70), Logic::One);
        assert_eq!(l.get(71), Logic::One);
        assert_eq!(l.get(72), Logic::Zero);
        assert_eq!(l.get(73), Logic::One);
        assert_eq!(l.shift_right_const(70).slice(3, 0).to_u64(), Some(0b1011));
        // X/Z bits travel with the shift.
        let mut x = LogicVec::zeros(130);
        x.set(0, Logic::X);
        assert_eq!(x.shift_left_const(100).get(100), Logic::X);
    }

    #[test]
    fn reductions() {
        assert_eq!(LogicVec::from_u64(4, 0xF).reduce_and(), Logic::One);
        assert_eq!(LogicVec::from_u64(4, 0x7).reduce_and(), Logic::Zero);
        assert_eq!(LogicVec::from_u64(4, 0).reduce_or(), Logic::Zero);
        assert_eq!(LogicVec::from_u64(4, 0b0110).reduce_xor(), Logic::Zero);
        assert_eq!(LogicVec::from_u64(4, 0b0111).reduce_xor(), Logic::One);
    }

    #[test]
    fn reductions_with_unknowns() {
        let v = LogicVec::parse_binary("1x11").expect("valid");
        assert_eq!(v.reduce_and(), Logic::X);
        assert_eq!(v.reduce_or(), Logic::One);
        assert_eq!(v.reduce_xor(), Logic::X);
        let z = LogicVec::parse_binary("0z00").expect("valid");
        assert_eq!(z.reduce_and(), Logic::Zero);
        assert_eq!(z.reduce_or(), Logic::X);
    }

    #[test]
    fn to_bool_semantics() {
        assert_eq!(LogicVec::from_u64(4, 2).to_bool(), Some(true));
        assert_eq!(LogicVec::from_u64(4, 0).to_bool(), Some(false));
        // 1x -> true because a known 1 exists.
        let v = LogicVec::parse_binary("1x").expect("valid");
        assert_eq!(v.to_bool(), Some(true));
        // 0x -> unknown.
        let v = LogicVec::parse_binary("0x").expect("valid");
        assert_eq!(v.to_bool(), None);
    }

    #[test]
    fn hex_rendering() {
        assert_eq!(LogicVec::from_u64(12, 0xABC).to_hex_string(), "abc");
        let v = LogicVec::parse_binary("1010xxxx").expect("valid");
        assert_eq!(v.to_hex_string(), "ax");
    }

    #[test]
    fn decimal_rendering() {
        assert_eq!(LogicVec::from_u64(8, 77).to_decimal_string(), "77");
        assert_eq!(LogicVec::xes(8).to_decimal_string(), "x");
        assert_eq!(LogicVec::filled(8, Logic::Z).to_decimal_string(), "z");
    }

    #[test]
    fn display_format() {
        assert_eq!(LogicVec::from_u64(4, 0b1010).to_string(), "4'b1010");
    }

    #[test]
    fn out_of_range_reads_x() {
        let v = LogicVec::from_u64(4, 0xF);
        assert_eq!(v.get(10), Logic::X);
    }

    #[test]
    fn representation_is_canonical_per_width() {
        // Same width always picks the same variant, whatever the
        // construction path, so equality/hash never see mixed forms.
        for w in [1, 32, 63, 64] {
            assert!(!LogicVec::zeros(w).is_spilled());
            assert!(!LogicVec::xes(w).is_spilled());
            assert!(!LogicVec::from_u64(128, 7).resize(w).is_spilled());
            assert!(!LogicVec::from_u64(w, 1)
                .add(&LogicVec::from_u64(w, 1))
                .is_spilled());
        }
        for w in [65, 127, 128, 129, 200] {
            assert!(LogicVec::zeros(w).is_spilled());
            assert!(LogicVec::from_u64(1, 1).resize(w).is_spilled());
        }
    }

    #[test]
    fn word_boundary_widths_roundtrip() {
        for w in [63u32, 64, 65, 127, 128, 129] {
            let ones = LogicVec::filled(w, Logic::One);
            assert_eq!(ones.count_ones(), Some(w));
            assert_eq!(ones.reduce_and(), Logic::One);
            let inc = ones.add(&LogicVec::from_u64(w, 1));
            assert_eq!(inc.count_ones(), Some(0), "2^{w} wraps to zero");
            assert_eq!(ones.sub(&ones).count_ones(), Some(0));
            assert_eq!(ones.not().count_ones(), Some(0));
            assert_eq!(ones.concat(&ones).width(), 2 * w);
            assert_eq!(ones.slice(w - 1, 0), ones);
        }
    }
}
