//! Parity generators and checkers (8 problems).

use crate::builders::{push_comb, CombSpec};
use crate::port::Port;
use crate::{Difficulty, Family, Problem};

fn xor_chain_vhdl(sig: &str, width: u32) -> String {
    (0..width)
        .map(|i| format!("{sig}({i})"))
        .collect::<Vec<_>>()
        .join(" xor ")
}

fn generator(width: u32, even: bool) -> CombSpec {
    let kind = if even { "even" } else { "odd" };
    let vexpr = if even {
        "^d".to_string()
    } else {
        "~^d".to_string()
    };
    let chain = xor_chain_vhdl("d", width);
    let hexpr = if even {
        chain
    } else {
        format!("not ({chain})")
    };
    CombSpec {
        name: format!("parity_{kind}_w{width}"),
        family: Family::Parity,
        difficulty: Difficulty::Easy,
        description: format!(
            "p is the {kind}-parity bit of the {width}-bit input d: with {kind} parity, the XOR of all data bits{} equals p.",
            if even { "" } else { ", inverted," }
        ),
        inputs: vec![Port::new("d", width)],
        outputs: vec![Port::new("p", 1)],
        vlog_body: format!("  assign p = {vexpr};\n"),
        vlog_out_reg: false,
        vhdl_body: format!("  p <= {hexpr};\n"),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            let ones = v[0].count_ones() as u64 & 1;
            out.copy_from_slice(&[if even { ones } else { ones ^ 1 }])
        }),
    }
}

fn checker(width: u32) -> CombSpec {
    let chain = xor_chain_vhdl("d", width);
    CombSpec {
        name: format!("parity_check_w{width}"),
        family: Family::Parity,
        difficulty: Difficulty::Medium,
        description: format!(
            "An even-parity checker: error is 1 when the XOR of the {width}-bit data d together with the parity bit p is 1 (i.e. the codeword has odd weight)."
        ),
        inputs: vec![Port::new("d", width), Port::new("p", 1)],
        outputs: vec![Port::new("error", 1)],
        vlog_body: "  assign error = (^d) ^ p;\n".into(),
        vlog_out_reg: false,
        vhdl_body: format!("  error <= ({chain}) xor p;\n"),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| out.copy_from_slice(&[(u64::from(v[0].count_ones()) & 1) ^ v[1]])),
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    for w in [4, 8, 16] {
        push_comb(problems, generator(w, true));
        push_comb(problems, generator(w, false));
    }
    for w in [4, 8] {
        push_comb(problems, checker(w));
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
    fn parity_golden() {
        let even = generator(8, true);
        assert_eq!(even.golden(&[0b1011_0000]), vec![1]);
        assert_eq!(even.golden(&[0b1010_0101]), vec![0]);
        let odd = generator(8, false);
        assert_eq!(odd.golden(&[0]), vec![1]);
    }

    #[test]
    fn checker_flags_bad_codewords() {
        let c = checker(4);
        assert_eq!(c.golden(&[0b0011, 0]), vec![0], "even weight, p=0: ok");
        assert_eq!(c.golden(&[0b0111, 0]), vec![1], "odd weight, p=0: error");
        assert_eq!(c.golden(&[0b0111, 1]), vec![0], "odd weight, p=1: ok");
    }
}
