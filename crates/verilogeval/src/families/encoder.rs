//! Priority encoders and detectors (8 problems).

use crate::builders::{push_comb, CombSpec};
use crate::port::Port;
use crate::{Difficulty, Family, Problem};

/// Priority encoder: index of the highest (or lowest) set bit of `r`,
/// plus a `valid` flag. Output is 0 when no bit is set.
fn priority(width: u32, msb_first: bool) -> CombSpec {
    let out_w = width.next_power_of_two().trailing_zeros().max(1);
    let dir = if msb_first { "msb" } else { "lsb" };
    let name = format!("prio{width}_{dir}");
    // Verilog: casez with don't-cares expresses the priority chain.
    let mut varms = String::new();
    let mut helifs = String::new();
    let order: Vec<u32> = if msb_first {
        (0..width).rev().collect()
    } else {
        (0..width).collect()
    };
    for (k, i) in order.iter().enumerate() {
        let mut pat: Vec<char> = vec!['?'; width as usize];
        pat[(width - 1 - i) as usize] = '1';
        // Bits with higher priority than i must be 0 for lsb-first
        // ordering; casez arms are evaluated in order so earlier arms
        // win — the don't-cares are safe as long as arm order matches
        // the priority.
        let _ = k;
        varms.push_str(&format!(
            "      {width}'b{}: begin idx = {out_w}'d{i}; valid = 1'b1; end\n",
            pat.iter().collect::<String>()
        ));
        let kw = if helifs.is_empty() { "if" } else { "elsif" };
        helifs.push_str(&format!(
            "    {kw} r({i}) = '1' then\n      idx <= {};\n      valid <= '1';\n",
            crate::port::vhdl_lit(out_w, u64::from(*i))
        ));
    }
    let zeros_v = format!("{out_w}'b{}", "0".repeat(out_w as usize));
    let vlog_body = format!(
        "  always @* begin\n    casez (r)\n{varms}      default: begin idx = {zeros_v}; valid = 1'b0; end\n    endcase\n  end\n"
    );
    let zeros_h = crate::port::vhdl_lit(out_w, 0);
    let vhdl_body = format!(
        "  process (r)\n  begin\n{helifs}    else\n      idx <= {zeros_h};\n      valid <= '0';\n    end if;\n  end process;\n"
    );
    CombSpec {
        name,
        family: Family::Encoder,
        difficulty: Difficulty::Medium,
        description: format!(
            "A {width}-bit priority encoder: idx is the index of the {} set bit of r and valid is 1 when any bit of r is set; both are 0 otherwise.",
            if msb_first { "most significant" } else { "least significant" }
        ),
        inputs: vec![Port::new("r", width)],
        outputs: vec![Port::new("idx", out_w), Port::new("valid", 1)],
        vlog_body,
        vlog_out_reg: true,
        vhdl_body,
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            let r = v[0];
            if r == 0 {
                return out.copy_from_slice(&[0, 0]);
            }
            let idx = if msb_first {
                63 - u64::from(r.leading_zeros())
            } else {
                u64::from(r.trailing_zeros())
            };
            out.copy_from_slice(&[idx, 1])
        }),
    }
}

fn reduction(
    name: &str,
    width: u32,
    desc: &str,
    vexpr: String,
    hexpr: String,
    f: fn(u64, u32) -> u64,
) -> CombSpec {
    CombSpec {
        name: format!("{name}{width}"),
        family: Family::Encoder,
        difficulty: Difficulty::Easy,
        description: desc.to_string(),
        inputs: vec![Port::new("r", width)],
        outputs: vec![Port::new("y", 1)],
        vlog_body: format!("  assign y = {vexpr};\n"),
        vlog_out_reg: false,
        vhdl_body: format!("  y <= {hexpr};\n"),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| out.copy_from_slice(&[f(v[0], width)])),
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    push_comb(problems, priority(4, true));
    push_comb(problems, priority(4, false));
    push_comb(problems, priority(8, true));
    push_comb(problems, priority(8, false));
    push_comb(problems, priority(2, true));
    push_comb(problems, priority(6, false));

    // any8: reduction OR.
    let all_zero_cmp = |w: u32| format!("'1' when r = \"{}\" else '0'", "0".repeat(w as usize));
    let any_cmp = |w: u32| format!("'0' when r = \"{}\" else '1'", "0".repeat(w as usize));
    push_comb(
        problems,
        reduction(
            "any",
            8,
            "y is 1 when any bit of the 8-bit input r is set (reduction OR).",
            "|r".into(),
            any_cmp(8),
            |r, _| u64::from(r != 0),
        ),
    );
    push_comb(
        problems,
        reduction(
            "none",
            8,
            "y is 1 when no bit of the 8-bit input r is set (NOR reduction).",
            "~|r".into(),
            all_zero_cmp(8),
            |r, _| u64::from(r == 0),
        ),
    );
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
    fn priority_msb_golden() {
        let s = priority(8, true);
        assert_eq!(s.golden(&[0b0110_0000]), vec![6, 1]);
        assert_eq!(s.golden(&[0]), vec![0, 0]);
    }

    #[test]
    fn priority_lsb_golden() {
        let s = priority(8, false);
        assert_eq!(s.golden(&[0b0110_0000]), vec![5, 1]);
    }
}
