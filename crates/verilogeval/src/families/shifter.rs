//! Shifters and rotators (10 problems).

use crate::builders::{push_comb, CombSpec};
use crate::port::Port;
use crate::{Difficulty, Family, Problem};

fn const_shift(width: u32, amount: u32, left: bool) -> CombSpec {
    let m = (1u64 << width) - 1;
    let dir = if left { "shl" } else { "shr" };
    let vop = if left { "<<" } else { ">>" };
    let hi = width - 1;
    // VHDL without shift operators on slv: slice + zero concat.
    let zeros = "0".repeat(amount as usize);
    let vhdl_body = if left {
        format!("  y <= a({} downto 0) & \"{zeros}\";\n", hi - amount)
    } else {
        format!("  y <= \"{zeros}\" & a({hi} downto {amount});\n")
    };
    CombSpec {
        name: format!("{dir}{amount}_w{width}"),
        family: Family::Shifter,
        difficulty: Difficulty::Easy,
        description: format!(
            "y is the {width}-bit input a logically shifted {} by {amount} bit{} (zero fill).",
            if left { "left" } else { "right" },
            if amount == 1 { "" } else { "s" }
        ),
        inputs: vec![Port::new("a", width)],
        outputs: vec![Port::new("y", width)],
        vlog_body: format!("  assign y = a {vop} {amount};\n"),
        vlog_out_reg: false,
        vhdl_body,
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            out.copy_from_slice(&[if left {
                v[0] << amount & m
            } else {
                v[0] >> amount
            }])
        }),
    }
}

fn var_shift(width: u32, left: bool) -> CombSpec {
    let m = (1u64 << width) - 1;
    let amt_w = 3u32;
    let dir = if left { "shl" } else { "shr" };
    let vop = if left { "<<" } else { ">>" };
    // VHDL: case over the shift amount with explicit slices.
    let hi = width - 1;
    let mut harms = String::new();
    for s in 0..(1u32 << amt_w) {
        let body = if s == 0 {
            "y <= a;".to_string()
        } else if s >= width {
            format!("y <= \"{}\";", "0".repeat(width as usize))
        } else if left {
            format!(
                "y <= a({} downto 0) & \"{}\";",
                hi - s,
                "0".repeat(s as usize)
            )
        } else {
            format!("y <= \"{}\" & a({hi} downto {s});", "0".repeat(s as usize))
        };
        harms.push_str(&format!("      when \"{:03b}\" => {body}\n", s));
    }
    let vhdl_body = format!(
        "  process (a, s)\n  begin\n    case s is\n{harms}      when others => y <= a;\n    end case;\n  end process;\n"
    );
    CombSpec {
        name: format!("{dir}_var_w{width}"),
        family: Family::Shifter,
        difficulty: Difficulty::Medium,
        description: format!(
            "y is the {width}-bit input a logically shifted {} by the 3-bit amount s (zero fill; shifting by {width} or more yields all zeros).",
            if left { "left" } else { "right" }
        ),
        inputs: vec![Port::new("a", width), Port::new("s", amt_w)],
        outputs: vec![Port::new("y", width)],
        vlog_body: format!("  assign y = a {vop} s;\n"),
        vlog_out_reg: false,
        vhdl_body,
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            let s = v[1] as u32;
            out.copy_from_slice(&[if s >= width {
                0
            } else if left {
                v[0] << s & m
            } else {
                v[0] >> s
            }])
        }),
    }
}

fn rotate1(width: u32, left: bool) -> CombSpec {
    let m = (1u64 << width) - 1;
    let hi = width - 1;
    let dir = if left { "rol" } else { "ror" };
    let (vlog, vhdl) = if left {
        (
            format!("  assign y = {{a[{}:0], a[{hi}]}};\n", hi - 1),
            format!("  y <= a({} downto 0) & a({hi});\n", hi - 1),
        )
    } else {
        (
            format!("  assign y = {{a[0], a[{hi}:1]}};\n"),
            format!("  y <= a(0) & a({hi} downto 1);\n"),
        )
    };
    CombSpec {
        name: format!("{dir}1_w{width}"),
        family: Family::Shifter,
        difficulty: Difficulty::Medium,
        description: format!(
            "y is the {width}-bit input a rotated {} by one position (the bit shifted out re-enters on the other side).",
            if left { "left" } else { "right" }
        ),
        inputs: vec![Port::new("a", width)],
        outputs: vec![Port::new("y", width)],
        vlog_body: vlog,
        vlog_out_reg: false,
        vhdl_body: vhdl,
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            out.copy_from_slice(&[if left {
                (v[0] << 1 | v[0] >> hi) & m
            } else {
                (v[0] >> 1 | (v[0] & 1) << hi) & m
            }])
        }),
    }
}

fn swap_nibbles() -> CombSpec {
    CombSpec {
        name: "swap_nibbles_w8".into(),
        family: Family::Shifter,
        difficulty: Difficulty::Easy,
        description: "y swaps the two nibbles of the 8-bit input: y = {a[3:0], a[7:4]}.".into(),
        inputs: vec![Port::new("a", 8)],
        outputs: vec![Port::new("y", 8)],
        vlog_body: "  assign y = {a[3:0], a[7:4]};\n".into(),
        vlog_out_reg: false,
        vhdl_body: "  y <= a(3 downto 0) & a(7 downto 4);\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(|v, out| out.copy_from_slice(&[(v[0] & 0xF) << 4 | v[0] >> 4])),
    }
}

fn reverse(width: u32) -> CombSpec {
    let bits_v: Vec<String> = (0..width).map(|i| format!("a[{i}]")).collect();
    let bits_h: Vec<String> = (0..width).map(|i| format!("a({i})")).collect();
    CombSpec {
        name: format!("reverse_w{width}"),
        family: Family::Shifter,
        difficulty: Difficulty::Medium,
        description: format!(
            "y is the {width}-bit input a with its bit order reversed (y[i] = a[{}-i]).",
            width - 1
        ),
        inputs: vec![Port::new("a", width)],
        outputs: vec![Port::new("y", width)],
        vlog_body: format!("  assign y = {{{}}};\n", bits_v.join(", ")),
        vlog_out_reg: false,
        vhdl_body: format!("  y <= {};\n", bits_h.join(" & ")),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, outs| {
            let mut out = 0u64;
            for i in 0..width {
                out |= (v[0] >> i & 1) << (width - 1 - i);
            }
            outs.copy_from_slice(&[out])
        }),
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    push_comb(problems, const_shift(8, 1, true));
    push_comb(problems, const_shift(8, 2, true));
    push_comb(problems, const_shift(8, 1, false));
    push_comb(problems, const_shift(8, 2, false));
    push_comb(problems, var_shift(8, true));
    push_comb(problems, var_shift(8, false));
    push_comb(problems, rotate1(8, true));
    push_comb(problems, rotate1(8, false));
    push_comb(problems, swap_nibbles());
    push_comb(problems, reverse(4));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contributes_10_problems() {
        let mut v = Vec::new();
        extend(&mut v);
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn rotate_golden() {
        let rol = rotate1(8, true);
        assert_eq!(rol.golden(&[0b1000_0001]), vec![0b0000_0011]);
        let ror = rotate1(8, false);
        assert_eq!(ror.golden(&[0b1000_0001]), vec![0b1100_0000]);
    }

    #[test]
    fn var_shift_saturates() {
        let s = var_shift(8, true);
        assert_eq!(s.golden(&[0xFF, 7]), vec![0x80]);
        assert_eq!(s.golden(&[0x01, 0]), vec![0x01]);
    }

    #[test]
    fn reverse_golden() {
        let s = reverse(4);
        assert_eq!(s.golden(&[0b0001]), vec![0b1000]);
        assert_eq!(s.golden(&[0b0110]), vec![0b0110]);
    }
}
