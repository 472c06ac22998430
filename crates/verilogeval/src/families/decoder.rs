//! Binary decoders with one-hot outputs (10 problems).

use crate::builders::{push_comb, CombSpec};
use crate::port::Port;
use crate::{Difficulty, Family, Problem};

/// n-to-2^n decoder; optional enable; optional active-low outputs.
fn decoder(sel_bits: u32, enable: bool, active_low: bool) -> CombSpec {
    let out_w = 1u32 << sel_bits;
    let out_mask = (1u64 << out_w) - 1;
    let mut name = format!("dec{}to{}", sel_bits, out_w);
    if enable {
        name.push_str("_en");
    }
    if active_low {
        name.push_str("_low");
    }
    let mut varms = String::new();
    let mut harms = String::new();
    for i in 0..out_w {
        let mut pat = 1u64 << i;
        if active_low {
            pat = !pat & out_mask;
        }
        let label_v = format!("{sel_bits}'b{:0w$b}", i, w = sel_bits as usize);
        let lit_v = format!("{out_w}'b{:0w$b}", pat, w = out_w as usize);
        varms.push_str(&format!("      {label_v}: y = {lit_v};\n"));
        harms.push_str(&format!(
            "      when \"{:0sw$b}\" => y <= \"{:0ow$b}\";\n",
            i,
            pat,
            sw = sel_bits as usize,
            ow = out_w as usize
        ));
    }
    let idle = if active_low { out_mask } else { 0 };
    let idle_v = format!("{out_w}'b{:0w$b}", idle, w = out_w as usize);
    let idle_h = format!("\"{:0w$b}\"", idle, w = out_w as usize);
    let (vlog_body, vhdl_body) = if enable {
        (
            format!(
                "  always @* begin\n    if (en) begin\n      case (a)\n{varms}      default: y = {idle_v};\n      endcase\n    end else begin\n      y = {idle_v};\n    end\n  end\n"
            ),
            format!(
                "  process (a, en)\n  begin\n    if en = '1' then\n      case a is\n{harms}      when others => y <= {idle_h};\n      end case;\n    else\n      y <= {idle_h};\n    end if;\n  end process;\n"
            ),
        )
    } else {
        (
            format!(
                "  always @* begin\n    case (a)\n{varms}      default: y = {idle_v};\n    endcase\n  end\n"
            ),
            format!(
                "  process (a)\n  begin\n    case a is\n{harms}      when others => y <= {idle_h};\n    end case;\n  end process;\n"
            ),
        )
    };
    let mut inputs = vec![Port::new("a", sel_bits)];
    if enable {
        inputs.push(Port::new("en", 1));
    }
    let polarity = if active_low {
        "active-low (exactly one 0)"
    } else {
        "one-hot (exactly one 1)"
    };
    let en_text = if enable {
        if active_low {
            " When en is 0 every output bit is 1."
        } else {
            " When en is 0 all outputs are 0."
        }
    } else {
        ""
    };
    CombSpec {
        name,
        family: Family::Decoder,
        difficulty: if sel_bits >= 3 { Difficulty::Medium } else { Difficulty::Easy },
        description: format!(
            "A {sel_bits}-to-{out_w} binary decoder: output bit a of y is asserted, with {polarity} encoding.{en_text}"
        ),
        inputs,
        outputs: vec![Port::new("y", out_w)],
        vlog_body,
        vlog_out_reg: true,
        vhdl_body,
        vhdl_decls: String::new(),
        eval: Box::new(move |v, outs| {
            let mut out = 1u64 << v[0];
            if enable && v[1] == 0 {
                out = 0;
            }
            if active_low {
                out = !out & out_mask;
                if enable && v[1] == 0 {
                    out = out_mask;
                }
            }
            outs.copy_from_slice(&[out])
        }),
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    push_comb(problems, decoder(1, false, false));
    push_comb(problems, decoder(1, true, false));
    push_comb(problems, decoder(2, false, false));
    push_comb(problems, decoder(2, true, false));
    push_comb(problems, decoder(2, true, true));
    push_comb(problems, decoder(3, false, false));
    push_comb(problems, decoder(3, true, false));
    push_comb(problems, decoder(3, true, true));
    push_comb(problems, decoder(4, false, false));
    push_comb(problems, decoder(4, true, false));
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
    fn active_low_inverts() {
        let spec = decoder(2, true, true);
        assert_eq!(spec.golden(&[1, 1]), vec![0b1101]);
        assert_eq!(spec.golden(&[1, 0]), vec![0b1111]);
    }

    #[test]
    fn plain_decoder_one_hot() {
        let spec = decoder(3, false, false);
        assert_eq!(spec.golden(&[5]), vec![1 << 5]);
    }
}
