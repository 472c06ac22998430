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
        if width <= 64 {
            let (a, b) = fill.to_avab();
            return LogicVec::inline(
                width,
                u64::from(a).wrapping_neg(),
                u64::from(b).wrapping_neg(),
            );
        }
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

    /// Parses a string of `0 1 x z` characters (MSB first, any case;
    /// `?` is `z`).
    ///
    /// Returns `None` on empty input or invalid characters.
    #[must_use]
    pub fn parse_binary(s: &str) -> Option<LogicVec> {
        let width = u32::try_from(s.len()).ok().filter(|&w| w > 0)?;
        LogicVec::from_radix_digits(s.bytes(), 1, width)
    }

    /// Decodes the digits of a based literal, written most significant
    /// first, into a `width`-bit vector. Each digit carries `bits_per`
    /// bits (1, 3 or 4: binary, octal, hex): a digit below the radix
    /// (`0`-`9`, `a`-`f` in either case), or `x`/`X` (all X) or
    /// `z`/`Z`/`?` (all Z). Digits beyond `width` are truncated from the
    /// left; missing high bits are X after a leftmost `x`, Z after a
    /// leftmost `z`/`?`, and 0 otherwise (IEEE 1364-2005 §3.5.1).
    ///
    /// The planes are written directly: a result of 64 bits or fewer
    /// never touches the heap. Returns `None` when there are no digits or
    /// one is not valid in the radix.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `bits_per` is not 1, 3 or 4.
    #[must_use]
    pub fn from_radix_digits<I>(digits: I, bits_per: u32, width: u32) -> Option<LogicVec>
    where
        I: DoubleEndedIterator<Item = u8>,
    {
        assert!(matches!(bits_per, 1 | 3 | 4), "radix of {bits_per} bits");
        let mut v = LogicVec::zeros(width);
        let words = v.aval.len();
        let mut pos = 0u32; // bit position of the next digit's LSB
        let mut leftmost = None;
        for d in digits.rev() {
            let group = low_mask(bits_per);
            let (a, b) = match d {
                b'x' | b'X' => (group, group),
                b'z' | b'Z' | b'?' => (0, group),
                _ => (u64::from(char::from(d).to_digit(1 << bits_per)?), 0),
            };
            leftmost = Some(d);
            if pos < width {
                let (w, shift) = ((pos / 64) as usize, pos % 64);
                v.aval[w] |= a << shift;
                v.bval[w] |= b << shift;
                // An octal digit can straddle a word boundary.
                if shift + bits_per > 64 && w + 1 < words {
                    v.aval[w + 1] |= a >> (64 - shift);
                    v.bval[w + 1] |= b >> (64 - shift);
                }
            }
            pos = pos.saturating_add(bits_per);
        }
        let pad = match leftmost? {
            b'x' | b'X' => Logic::X,
            b'z' | b'Z' | b'?' => Logic::Z,
            _ => Logic::Zero,
        };
        if pad != Logic::Zero {
            for i in pos..width {
                v.set(i, pad);
            }
        }
        v.bits_mut().mask_top();
        Some(v)
    }

    /// Decodes a decimal digit string into a `width`-bit vector, the
    /// value taken modulo 2^`width` (a sized decimal literal keeps its
    /// low bits). The planes are written directly: a result of 64 bits
    /// or fewer never touches the heap, and values of any length are
    /// accepted. Returns `None` when there are no digits or one is not
    /// `0`-`9`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn from_decimal_digits(
        digits: impl IntoIterator<Item = u8>,
        width: u32,
    ) -> Option<LogicVec> {
        let mut v = LogicVec::zeros(width);
        let mut any = false;
        for d in digits {
            if !d.is_ascii_digit() {
                return None;
            }
            any = true;
            // aval = aval * 10 + d, word by word; the carry out of the
            // top word is dropped (and the top word masked below).
            let mut carry = u128::from(d - b'0');
            for w in v.aval.iter_mut() {
                let t = u128::from(*w) * 10 + carry;
                *w = t as u64;
                carry = t >> 64;
            }
        }
        v.bits_mut().mask_top();
        any.then_some(v)
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
        self.set_slice_bits(msb, lsb, value.as_bits(), 0);
    }

    /// Writes `bits[src_lsb + (msb - lsb) : src_lsb]` into bits
    /// `[msb:lsb]` in place: `bits` zero-extends, and bits beyond this
    /// vector's width are dropped. Returns whether any bit changed.
    pub fn set_slice_bits(&mut self, msb: u32, lsb: u32, bits: BitsRef<'_>, src_lsb: u32) -> bool {
        let (lsb, width) = select_range(msb, lsb);
        self.bits_mut().splice(lsb, width, bits, src_lsb)
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

    /// The per-bit bit-string decoder `parse_binary` replaced, kept as
    /// the oracle of the property test below.
    fn parse_binary_oracle(s: &str) -> Option<LogicVec> {
        let bits: Option<Vec<Logic>> = s.chars().map(Logic::from_char).collect();
        let bits = bits?;
        if bits.is_empty() {
            return None;
        }
        Some(LogicVec::from_bits_msb_first(&bits))
    }

    #[test]
    fn bit_strings_at_word_edges() {
        for w in [1usize, 63, 64, 65, 128, 129] {
            for pattern in ["1", "0", "x", "Z", "?", "10xz"] {
                let text: String = pattern.chars().cycle().take(w).collect();
                let v = LogicVec::parse_binary(&text).expect("valid bit string");
                assert_eq!(v.width() as usize, w, "{text}");
                assert_eq!(Some(v.clone()), parse_binary_oracle(&text), "{text}");
                // MSB first: the first character is the top bit.
                let top = Logic::from_char(text.chars().next().expect("non-empty"));
                assert_eq!(v.get(w as u32 - 1), top.expect("valid"), "{text}");
            }
        }
        // Inline up to 64 bits, spilled beyond: the decoder writes the
        // canonical representation directly.
        assert!(!LogicVec::parse_binary(&"1".repeat(64))
            .expect("valid")
            .is_spilled());
        assert!(LogicVec::parse_binary(&"1".repeat(65))
            .expect("valid")
            .is_spilled());
        for bad in ["", "2", "1_0", "10 ", "1\u{e9}"] {
            assert_eq!(LogicVec::parse_binary(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn radix_digits_pad_and_truncate() {
        let bits = |s: &str| LogicVec::parse_binary(s).expect("test vector");
        let hex = |d: &str, w| LogicVec::from_radix_digits(d.bytes(), 4, w);
        // Left truncation, across the word boundary.
        assert_eq!(hex("1F", 4), Some(bits("1111")));
        assert_eq!(hex("3FFFFFFFFFFFFFFFF", 65), Some(bits(&"1".repeat(65))));
        // Zero, X and Z extension after a known, x or z leftmost digit.
        assert_eq!(hex("8", 65), Some(bits(&format!("{}1000", "0".repeat(61)))));
        assert_eq!(
            hex("x1", 129),
            Some(bits(&format!("{}0001", "x".repeat(125))))
        );
        assert_eq!(hex("?", 63), Some(bits(&"z".repeat(63))));
        // An octal digit straddling bits 63..65.
        assert_eq!(
            LogicVec::from_radix_digits(format!("7{}", "0".repeat(21)).bytes(), 3, 66),
            Some(bits(&format!("111{}", "0".repeat(63))))
        );
        // Out-of-radix digits and empty input are rejected.
        assert_eq!(LogicVec::from_radix_digits("12".bytes(), 1, 8), None);
        assert_eq!(LogicVec::from_radix_digits("8".bytes(), 3, 8), None);
        assert_eq!(hex("g", 8), None);
        assert_eq!(hex("", 8), None);
    }

    #[test]
    fn decimal_digits_wrap_modulo_the_width() {
        let dec = |d: &str, w| LogicVec::from_decimal_digits(d.bytes(), w);
        assert_eq!(dec("300", 8), Some(LogicVec::from_u64(8, 44)));
        assert_eq!(
            dec("18446744073709551615", 64),
            Some(LogicVec::from_u64(64, u64::MAX))
        );
        // 2^64 in 65 and 129 bits, and 2^129 wrapping to zero.
        let mut two_pow_64 = LogicVec::zeros(129);
        two_pow_64.set(64, Logic::One);
        assert_eq!(dec("18446744073709551616", 129), Some(two_pow_64.clone()));
        assert_eq!(
            dec("18446744073709551616", 65),
            Some(two_pow_64.slice(64, 0))
        );
        assert_eq!(dec("18446744073709551616", 63), Some(LogicVec::zeros(63)));
        assert_eq!(
            dec("680564733841876926926749214863536422912", 129),
            Some(LogicVec::zeros(129))
        );
        assert_eq!(dec("", 8), None);
        assert_eq!(dec("1x", 8), None);
    }

    proptest::proptest! {
        /// `parse_binary` writes the planes directly and agrees with the
        /// per-bit oracle on every input.
        #[test]
        fn parse_binary_matches_per_bit_oracle(s in "[01xXzZ?_2 \u{e9}]{0,140}") {
            proptest::prop_assert_eq!(LogicVec::parse_binary(&s), parse_binary_oracle(&s));
        }

        /// Hex digits of any count agree with the plane-by-plane value.
        #[test]
        fn hex_digits_match_u64(v in 0u64..u64::MAX, w in 1u32..=64) {
            let digits = format!("{v:x}");
            let want = LogicVec::from_u64(w, v);
            proptest::prop_assert_eq!(LogicVec::from_radix_digits(digits.bytes(), 4, w), Some(want));
        }
    }
}
