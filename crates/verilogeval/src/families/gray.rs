//! Gray-code converters (8 problems).

use crate::builders::{push_comb, CombSpec};
use crate::port::Port;
use crate::{Difficulty, Family, Problem};

fn bin2gray(width: u32) -> CombSpec {
    let hi = width - 1;
    // g = b ^ (b >> 1); spelled per bit in VHDL.
    let mut hbits: Vec<String> = vec![format!("b({hi})")];
    for i in (0..hi).rev() {
        hbits.push(format!("(b({}) xor b({i}))", i + 1));
    }
    CombSpec {
        name: format!("bin2gray_w{width}"),
        family: Family::GrayCode,
        difficulty: Difficulty::Medium,
        description: format!(
            "g is the reflected binary (Gray) code of the {width}-bit binary input b: g = b XOR (b >> 1)."
        ),
        inputs: vec![Port::new("b", width)],
        outputs: vec![Port::new("g", width)],
        vlog_body: "  assign g = b ^ (b >> 1);\n".into(),
        vlog_out_reg: false,
        vhdl_body: format!("  g <= {};\n", hbits.join(" & ")),
        vhdl_decls: String::new(),
        eval: Box::new(|v, out| out.copy_from_slice(&[v[0] ^ (v[0] >> 1)])),
    }
}

fn gray2bin(width: u32) -> CombSpec {
    let hi = width - 1;
    // b[i] = XOR of g[hi..=i]; explicit chains in both languages.
    let mut vlines = String::new();
    let mut hbits = Vec::new();
    for i in (0..width).rev() {
        let terms_v: Vec<String> = (i..width).rev().map(|k| format!("g[{k}]")).collect();
        let terms_h: Vec<String> = (i..width).rev().map(|k| format!("g({k})")).collect();
        vlines.push_str(&format!("  assign b[{i}] = {};\n", terms_v.join(" ^ ")));
        hbits.push(format!("({})", terms_h.join(" xor ")));
    }
    let _ = hi;
    CombSpec {
        name: format!("gray2bin_w{width}"),
        family: Family::GrayCode,
        difficulty: Difficulty::Medium,
        description: format!(
            "b is the binary value of the {width}-bit Gray-code input g: b[i] is the XOR of g's bits from the MSB down to bit i."
        ),
        inputs: vec![Port::new("g", width)],
        outputs: vec![Port::new("b", width)],
        vlog_body: vlines,
        vlog_out_reg: false,
        vhdl_body: format!("  b <= {};\n", hbits.join(" & ")),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            let mut b = 0u64;
            let mut acc = 0u64;
            for i in (0..width).rev() {
                acc ^= v[0] >> i & 1;
                b |= acc << i;
            }
            out.copy_from_slice(&[b])
        }),
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    for w in [3, 4, 5, 8] {
        push_comb(problems, bin2gray(w));
    }
    for w in [3, 4, 5, 8] {
        push_comb(problems, gray2bin(w));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contributes_8_problems() {
        let mut v = Vec::new();
        extend(&mut v);
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn gray_roundtrip() {
        let to = bin2gray(4);
        let from = gray2bin(4);
        for b in 0..16u64 {
            let g = to.golden(&[b])[0];
            assert_eq!(from.golden(&[g]), vec![b], "roundtrip of {b}");
        }
    }

    #[test]
    fn adjacent_codes_differ_in_one_bit() {
        let to = bin2gray(4);
        for b in 0..15u64 {
            let g1 = to.golden(&[b])[0];
            let g2 = to.golden(&[b + 1])[0];
            assert_eq!((g1 ^ g2).count_ones(), 1);
        }
    }
}
