//! Population counters (8 problems).

use crate::builders::{push_comb, CombSpec};
use crate::port::Port;
use crate::{Difficulty, Family, Problem};

fn out_width(width: u32) -> u32 {
    // Enough bits to hold `width` itself.
    32 - width.leading_zeros()
}

/// Sum of bits, expressed as an explicit adder tree in both languages.
fn bit_sum_vlog(width: u32) -> String {
    let terms: Vec<String> = (0..width).map(|i| format!("d[{i}]")).collect();
    format!("  assign count = {};\n", terms.join(" + "))
}

fn bit_sum_vhdl(width: u32, out_w: u32) -> String {
    // Each 1-bit slice is zero-extended to the output width before the
    // additions so the sum cannot overflow.
    let pad = "0".repeat((out_w - 1) as usize);
    let terms: Vec<String> = (0..width)
        .map(|i| format!("(\"{pad}\" & d({i} downto {i}))"))
        .collect();
    format!("  count <= {};\n", terms.join(" + "))
}

fn popcount(width: u32) -> CombSpec {
    let ow = out_width(width);
    CombSpec {
        name: format!("popcount_w{width}"),
        family: Family::Popcount,
        difficulty: if width >= 8 {
            Difficulty::Medium
        } else {
            Difficulty::Easy
        },
        description: format!(
            "count is the number of 1 bits in the {width}-bit input d (population count)."
        ),
        inputs: vec![Port::new("d", width)],
        outputs: vec![Port::new("count", ow)],
        vlog_body: bit_sum_vlog(width),
        vlog_out_reg: false,
        vhdl_body: bit_sum_vhdl(width, ow),
        vhdl_decls: String::new(),
        eval: Box::new(|v, out| out.copy_from_slice(&[u64::from(v[0].count_ones())])),
    }
}

fn count_zeros(width: u32) -> CombSpec {
    let ow = out_width(width);
    let pad = "0".repeat((ow - 1) as usize);
    let terms_v: Vec<String> = (0..width).map(|i| format!("~d[{i}]")).collect();
    let terms_h: Vec<String> = (0..width)
        .map(|i| format!("(\"{pad}\" & (not d({i} downto {i})))"))
        .collect();
    CombSpec {
        name: format!("count_zeros_w{width}"),
        family: Family::Popcount,
        difficulty: Difficulty::Medium,
        description: format!("count is the number of 0 bits in the {width}-bit input d."),
        inputs: vec![Port::new("d", width)],
        outputs: vec![Port::new("count", ow)],
        vlog_body: format!("  assign count = {};\n", terms_v.join(" + ")),
        vlog_out_reg: false,
        vhdl_body: format!("  count <= {};\n", terms_h.join(" + ")),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| out.copy_from_slice(&[u64::from(width - v[0].count_ones())])),
    }
}

fn majority_bits(width: u32) -> CombSpec {
    let ow = out_width(width);
    let half = width / 2;
    let pad = "0".repeat((ow - 1) as usize);
    let terms_h: Vec<String> = (0..width)
        .map(|i| format!("(\"{pad}\" & d({i} downto {i}))"))
        .collect();
    CombSpec {
        name: format!("ones_majority_w{width}"),
        family: Family::Popcount,
        difficulty: Difficulty::Medium,
        description: format!("y is 1 when strictly more than half of the {width} bits of d are 1."),
        inputs: vec![Port::new("d", width)],
        outputs: vec![Port::new("y", 1)],
        vlog_body: format!(
            "  wire [{}:0] total;\n  assign total = {};\n  assign y = (total > {half});\n",
            ow - 1,
            (0..width)
                .map(|i| format!("d[{i}]"))
                .collect::<Vec<_>>()
                .join(" + ")
        ),
        vlog_out_reg: false,
        vhdl_body: format!(
            "  total <= {};\n  y <= '1' when unsigned(total) > {half} else '0';\n",
            terms_h.join(" + ")
        ),
        vhdl_decls: format!("  signal total : std_logic_vector({} downto 0);\n", ow - 1),
        eval: Box::new(move |v, out| out.copy_from_slice(&[u64::from(v[0].count_ones() > half)])),
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    for w in [3, 4, 8, 16] {
        push_comb(problems, popcount(w));
    }
    for w in [4, 8] {
        push_comb(problems, count_zeros(w));
    }
    for w in [4, 8] {
        push_comb(problems, majority_bits(w));
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
    fn output_widths() {
        assert_eq!(out_width(3), 2);
        assert_eq!(out_width(4), 3);
        assert_eq!(out_width(8), 4);
        assert_eq!(out_width(16), 5);
    }

    #[test]
    fn popcount_golden() {
        let s = popcount(8);
        assert_eq!(s.golden(&[0xFF]), vec![8]);
        assert_eq!(s.golden(&[0b0101_0001]), vec![3]);
    }

    #[test]
    fn majority_strict() {
        let s = majority_bits(4);
        assert_eq!(s.golden(&[0b0011]), vec![0], "half is not a majority");
        assert_eq!(s.golden(&[0b0111]), vec![1]);
    }
}
