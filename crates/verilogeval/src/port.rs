//! Port descriptions and HDL literal formatting shared by the
//! testbench/DUT generators.

/// One DUT port (direction is implied by which list it sits in).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Bit width.
    pub width: u32,
}

impl Port {
    /// Creates a port.
    #[must_use]
    pub fn new(name: impl Into<String>, width: u32) -> Port {
        Port {
            name: name.into(),
            width,
        }
    }

    /// Verilog range prefix: `[3:0] ` or the empty string for 1 bit.
    #[must_use]
    pub fn vlog_range(&self) -> String {
        let mut s = String::new();
        self.push_vlog_range(&mut s);
        s
    }

    /// VHDL subtype: `std_logic` or `std_logic_vector(3 downto 0)`.
    #[must_use]
    pub fn vhdl_type(&self) -> String {
        let mut s = String::new();
        self.push_vhdl_type(&mut s);
        s
    }

    /// Appends [`Port::vlog_range`] to `out`.
    pub(crate) fn push_vlog_range(&self, out: &mut String) {
        if self.width != 1 {
            out.push('[');
            push_u32(out, self.width - 1);
            out.push_str(":0] ");
        }
    }

    /// Appends [`Port::vhdl_type`] to `out`.
    pub(crate) fn push_vhdl_type(&self, out: &mut String) {
        if self.width == 1 {
            out.push_str("std_logic");
        } else {
            out.push_str("std_logic_vector(");
            push_u32(out, self.width - 1);
            out.push_str(" downto 0)");
        }
    }
}

/// Writes `n` in decimal into the tail of `buf`, returning the digits.
fn decimal(buf: &mut [u8; 10], mut n: u32) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

/// Appends `n` in decimal.
pub(crate) fn push_u32(out: &mut String, n: u32) {
    out.push_str(decimal(&mut [0; 10], n));
}

/// An HDL literal formatted on the stack, so a generator can write the
/// same literal twice without allocating it.
pub(crate) struct Lit {
    buf: [u8; 72],
    len: usize,
}

impl Lit {
    const EMPTY: Lit = Lit {
        buf: [0; 72],
        len: 0,
    };

    fn push(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn push_bin(&mut self, width: u32, value: u64) {
        assert!(width <= 64, "literals are at most 64 bits wide");
        for i in (0..width).rev() {
            self.buf[self.len] = b'0' + (value >> i & 1) as u8;
            self.len += 1;
        }
    }

    /// A Verilog sized binary literal, e.g. `4'b0101`.
    pub(crate) fn vlog(width: u32, value: u64) -> Lit {
        let mut lit = Lit::EMPTY;
        lit.push(decimal(&mut [0; 10], width).as_bytes());
        lit.push(b"'b");
        lit.push_bin(width, value);
        lit
    }

    /// A VHDL literal: `'0'` for 1 bit, `"0101"` otherwise.
    pub(crate) fn vhdl(width: u32, value: u64) -> Lit {
        let mut lit = Lit::EMPTY;
        let quote = if width == 1 { b"'" } else { b"\"" };
        lit.push(quote);
        lit.push_bin(width, value);
        lit.push(quote);
        lit
    }

    /// The literal's text.
    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("ASCII literal")
    }
}

/// Formats a Verilog sized binary literal, e.g. `4'b0101`.
#[must_use]
pub fn vlog_lit(width: u32, value: u64) -> String {
    Lit::vlog(width, value).as_str().to_owned()
}

/// Formats a VHDL literal: `'0'` for 1 bit, `"0101"` otherwise.
#[must_use]
pub fn vhdl_lit(width: u32, value: u64) -> String {
    Lit::vhdl(width, value).as_str().to_owned()
}

/// Deterministic pseudo-random stream (splitmix64) used to pick test
/// vectors when exhaustive enumeration would be too large. Lives here —
/// not on `rand` — so the suite is byte-stable regardless of dependency
/// versions.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix {
    state: u64,
}

impl SplitMix {
    pub(crate) fn new(seed: u64) -> SplitMix {
        SplitMix { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..=mask` for a `width`-bit field.
    pub(crate) fn bits(&mut self, width: u32) -> u64 {
        if width >= 64 {
            self.next_u64()
        } else {
            self.next_u64() & ((1u64 << width) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vlog_range_formatting() {
        assert_eq!(Port::new("a", 1).vlog_range(), "");
        assert_eq!(Port::new("a", 8).vlog_range(), "[7:0] ");
    }

    #[test]
    fn vhdl_types() {
        assert_eq!(Port::new("a", 1).vhdl_type(), "std_logic");
        assert_eq!(
            Port::new("a", 4).vhdl_type(),
            "std_logic_vector(3 downto 0)"
        );
    }

    #[test]
    fn literals() {
        assert_eq!(vlog_lit(4, 0b0101), "4'b0101");
        assert_eq!(vhdl_lit(1, 1), "'1'");
        assert_eq!(vhdl_lit(4, 0b1010), "\"1010\"");
    }

    #[test]
    fn splitmix_is_deterministic_and_masked() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitMix::new(3);
        for _ in 0..100 {
            assert!(r.bits(5) < 32);
        }
    }
}
