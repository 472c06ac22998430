//! Seven-segment and character decoders (6 problems).

use crate::builders::{push_comb, CombSpec};
use crate::port::Port;
use crate::{Difficulty, Family, Problem};

/// Segment patterns for hex digits 0-F, active-high, bit order gfedcba.
const SEGMENTS: [u64; 16] = [
    0x3F, 0x06, 0x5B, 0x4F, 0x66, 0x6D, 0x7D, 0x07, 0x7F, 0x6F, 0x77, 0x7C, 0x39, 0x5E, 0x79, 0x71,
];

fn table_case(values: &[(u64, u64)], in_w: u32, out_w: u32) -> (String, String) {
    let mut varms = String::new();
    let mut harms = String::new();
    for (k, v) in values {
        varms.push_str(&format!(
            "      {in_w}'b{:0iw$b}: seg = {out_w}'b{:0ow$b};\n",
            k,
            v,
            iw = in_w as usize,
            ow = out_w as usize
        ));
        harms.push_str(&format!(
            "      when \"{:0iw$b}\" => seg <= \"{:0ow$b}\";\n",
            k,
            v,
            iw = in_w as usize,
            ow = out_w as usize
        ));
    }
    let zero_v = format!("{out_w}'b{}", "0".repeat(out_w as usize));
    let zero_h = format!("\"{}\"", "0".repeat(out_w as usize));
    (
        format!(
            "  always @* begin\n    case (digit)\n{varms}      default: seg = {zero_v};\n    endcase\n  end\n"
        ),
        format!(
            "  process (digit)\n  begin\n    case digit is\n{harms}      when others => seg <= {zero_h};\n    end case;\n  end process;\n"
        ),
    )
}

fn hex7seg(active_low: bool) -> CombSpec {
    let name = if active_low { "hex7seg_low" } else { "hex7seg" };
    let values: Vec<(u64, u64)> = (0..16)
        .map(|d| {
            let seg = SEGMENTS[d as usize];
            (d, if active_low { !seg & 0x7F } else { seg })
        })
        .collect();
    let (vlog_body, vhdl_body) = table_case(&values, 4, 7);
    let pol = if active_low {
        "active-low (common anode)"
    } else {
        "active-high (common cathode)"
    };
    CombSpec {
        name: name.into(),
        family: Family::SevenSegment,
        difficulty: Difficulty::Medium,
        description: format!(
            "A hexadecimal seven-segment decoder: seg drives segments gfedcba (bit 6 = g .. bit 0 = a), {pol}, for the 4-bit digit 0-F."
        ),
        inputs: vec![Port::new("digit", 4)],
        outputs: vec![Port::new("seg", 7)],
        vlog_body,
        vlog_out_reg: true,
        vhdl_body,
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            let seg = SEGMENTS[v[0] as usize];
            out.copy_from_slice(&[if active_low { !seg & 0x7F } else { seg }])
        }),
    }
}

fn bcd7seg() -> CombSpec {
    let values: Vec<(u64, u64)> = (0..10).map(|d| (d, SEGMENTS[d as usize])).collect();
    let (vlog_body, vhdl_body) = table_case(&values, 4, 7);
    CombSpec {
        name: "bcd7seg".into(),
        family: Family::SevenSegment,
        difficulty: Difficulty::Medium,
        description: "A BCD seven-segment decoder (segments gfedcba, active-high): digits 0-9 light the usual patterns; inputs 10-15 blank the display (all segments 0).".into(),
        inputs: vec![Port::new("digit", 4)],
        outputs: vec![Port::new("seg", 7)],
        vlog_body,
        vlog_out_reg: true,
        vhdl_body,
        vhdl_decls: String::new(),
        eval: Box::new(|v, out| {
            out.copy_from_slice(&[if v[0] < 10 { SEGMENTS[v[0] as usize] } else { 0 }])
        }),
    }
}

fn bcd_valid() -> CombSpec {
    CombSpec {
        name: "bcd_valid".into(),
        family: Family::SevenSegment,
        difficulty: Difficulty::Easy,
        description: "valid is 1 when the 4-bit input digit is a legal BCD digit (0-9).".into(),
        inputs: vec![Port::new("digit", 4)],
        outputs: vec![Port::new("valid", 1)],
        vlog_body: "  assign valid = (digit < 4'b1010);\n".into(),
        vlog_out_reg: false,
        vhdl_body: "  valid <= '1' when unsigned(digit) < 10 else '0';\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(|v, out| out.copy_from_slice(&[u64::from(v[0] < 10)])),
    }
}

fn nibble_to_ascii(uppercase: bool) -> CombSpec {
    let name = if uppercase {
        "hex_ascii_upper"
    } else {
        "hex_ascii_lower"
    };
    let letter_base = if uppercase { b'A' } else { b'a' } as u64;
    let values: Vec<(u64, u64)> = (0..16)
        .map(|d| {
            (
                d,
                if d < 10 {
                    b'0' as u64 + d
                } else {
                    letter_base + d - 10
                },
            )
        })
        .collect();
    let mut varms = String::new();
    let mut harms = String::new();
    for (k, v) in &values {
        varms.push_str(&format!("      4'b{:04b}: ch = 8'b{:08b};\n", k, v));
        harms.push_str(&format!(
            "      when \"{:04b}\" => ch <= \"{:08b}\";\n",
            k, v
        ));
    }
    CombSpec {
        name: name.into(),
        family: Family::SevenSegment,
        difficulty: Difficulty::Medium,
        description: format!(
            "ch is the 8-bit ASCII code of the hex digit in the 4-bit input nibble, using {} letters for A-F.",
            if uppercase { "uppercase" } else { "lowercase" }
        ),
        inputs: vec![Port::new("nibble", 4)],
        outputs: vec![Port::new("ch", 8)],
        vlog_body: format!(
            "  always @* begin\n    case (nibble)\n{varms}      default: ch = 8'b00000000;\n    endcase\n  end\n"
        ),
        vhdl_body: format!(
            "  process (nibble)\n  begin\n    case nibble is\n{harms}      when others => ch <= \"00000000\";\n    end case;\n  end process;\n"
        ),
        vlog_out_reg: true,
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            let d = v[0];
            out.copy_from_slice(&[if d < 10 { b'0' as u64 + d } else { letter_base + d - 10 }])
        }),
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    push_comb(problems, hex7seg(false));
    push_comb(problems, hex7seg(true));
    push_comb(problems, bcd7seg());
    push_comb(problems, bcd_valid());
    push_comb(problems, nibble_to_ascii(true));
    push_comb(problems, nibble_to_ascii(false));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contributes_6_problems() {
        let mut v = Vec::new();
        extend(&mut v);
        assert_eq!(v.len(), 6);
    }

    #[test]
    fn zero_digit_pattern() {
        let s = hex7seg(false);
        assert_eq!(s.golden(&[0]), vec![0x3F]);
        let low = hex7seg(true);
        assert_eq!(low.golden(&[0]), vec![0x40]);
    }

    #[test]
    fn ascii_codes() {
        let up = nibble_to_ascii(true);
        assert_eq!(up.golden(&[9]), vec![b'9' as u64]);
        assert_eq!(up.golden(&[0xA]), vec![b'A' as u64]);
        let lo = nibble_to_ascii(false);
        assert_eq!(lo.golden(&[0xF]), vec![b'f' as u64]);
    }
}
