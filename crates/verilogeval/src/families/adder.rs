//! Adders, subtractors and incrementers (12 problems).

use crate::builders::{push_comb, CombSpec};
use crate::port::Port;
use crate::{Difficulty, Family, Problem};

fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1 << w) - 1
    }
}

fn adder_cout(width: u32) -> CombSpec {
    let m = mask(width);
    CombSpec {
        name: format!("adder_cout_w{width}"),
        family: Family::Adder,
        difficulty: if width > 8 { Difficulty::Hard } else { Difficulty::Medium },
        description: format!(
            "A {width}-bit unsigned adder: {{cout, sum}} = a + b, where cout is the carry out of the most significant bit."
        ),
        inputs: vec![Port::new("a", width), Port::new("b", width)],
        outputs: vec![Port::new("sum", width), Port::new("cout", 1)],
        vlog_body: "  assign {cout, sum} = a + b;\n".into(),
        vlog_out_reg: false,
        vhdl_body: format!(
            "  t <= ('0' & a) + ('0' & b);\n  sum <= t({} downto 0);\n  cout <= t({});\n",
            width - 1,
            width
        ),
        vhdl_decls: format!("  signal t : std_logic_vector({} downto 0);\n", width),
        eval: Box::new(move |v, out| {
            let s = v[0] + v[1];
            out.copy_from_slice(&[s & m, s >> width & 1])
        }),
    }
}

fn adder_plain(width: u32) -> CombSpec {
    let m = mask(width);
    CombSpec {
        name: format!("adder_w{width}"),
        family: Family::Adder,
        difficulty: Difficulty::Easy,
        description: format!(
            "A {width}-bit unsigned adder with wraparound: sum = (a + b) modulo 2^{width}."
        ),
        inputs: vec![Port::new("a", width), Port::new("b", width)],
        outputs: vec![Port::new("sum", width)],
        vlog_body: "  assign sum = a + b;\n".into(),
        vlog_out_reg: false,
        vhdl_body: "  sum <= std_logic_vector(unsigned(a) + unsigned(b));\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| out.copy_from_slice(&[(v[0] + v[1]) & m])),
    }
}

fn subtractor(width: u32) -> CombSpec {
    let m = mask(width);
    CombSpec {
        name: format!("subtractor_w{width}"),
        family: Family::Adder,
        difficulty: Difficulty::Medium,
        description: format!(
            "A {width}-bit unsigned subtractor with two's-complement wraparound: diff = (a - b) modulo 2^{width}."
        ),
        inputs: vec![Port::new("a", width), Port::new("b", width)],
        outputs: vec![Port::new("diff", width)],
        vlog_body: "  assign diff = a - b;\n".into(),
        vlog_out_reg: false,
        vhdl_body: "  diff <= std_logic_vector(unsigned(a) - unsigned(b));\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| out.copy_from_slice(&[v[0].wrapping_sub(v[1]) & m])),
    }
}

fn addsub(width: u32) -> CombSpec {
    let m = mask(width);
    CombSpec {
        name: format!("addsub_w{width}"),
        family: Family::Adder,
        difficulty: Difficulty::Medium,
        description: format!(
            "A {width}-bit adder/subtractor: result = a + b when mode is 0, and a - b (wraparound) when mode is 1."
        ),
        inputs: vec![Port::new("a", width), Port::new("b", width), Port::new("mode", 1)],
        outputs: vec![Port::new("result", width)],
        vlog_body: "  assign result = mode ? (a - b) : (a + b);\n".into(),
        vlog_out_reg: false,
        vhdl_body: "  result <= std_logic_vector(unsigned(a) - unsigned(b)) when mode = '1' else std_logic_vector(unsigned(a) + unsigned(b));\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            out.copy_from_slice(&[if v[2] == 1 {
                v[0].wrapping_sub(v[1]) & m
            } else {
                (v[0] + v[1]) & m
            }])
        }),
    }
}

fn incrementer(width: u32) -> CombSpec {
    let m = mask(width);
    CombSpec {
        name: format!("incrementer_w{width}"),
        family: Family::Adder,
        difficulty: Difficulty::Easy,
        description: format!("y = a + 1 with wraparound at 2^{width}."),
        inputs: vec![Port::new("a", width)],
        outputs: vec![Port::new("y", width)],
        vlog_body: "  assign y = a + 1;\n".into(),
        vlog_out_reg: false,
        vhdl_body: "  y <= std_logic_vector(unsigned(a) + 1);\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| out.copy_from_slice(&[(v[0] + 1) & m])),
    }
}

fn half_adder() -> CombSpec {
    CombSpec {
        name: "half_adder".into(),
        family: Family::Adder,
        difficulty: Difficulty::Easy,
        description: "A half adder: sum = a XOR b, carry = a AND b.".into(),
        inputs: vec![Port::new("a", 1), Port::new("b", 1)],
        outputs: vec![Port::new("sum", 1), Port::new("carry", 1)],
        vlog_body: "  assign sum = a ^ b;\n  assign carry = a & b;\n".into(),
        vlog_out_reg: false,
        vhdl_body: "  sum <= a xor b;\n  carry <= a and b;\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(|v, out| out.copy_from_slice(&[v[0] ^ v[1], v[0] & v[1]])),
    }
}

fn full_adder() -> CombSpec {
    CombSpec {
        name: "full_adder".into(),
        family: Family::Adder,
        difficulty: Difficulty::Easy,
        description: "A full adder over a, b and carry-in cin: sum and carry-out cout.".into(),
        inputs: vec![Port::new("a", 1), Port::new("b", 1), Port::new("cin", 1)],
        outputs: vec![Port::new("sum", 1), Port::new("cout", 1)],
        vlog_body:
            "  assign sum = a ^ b ^ cin;\n  assign cout = (a & b) | (a & cin) | (b & cin);\n".into(),
        vlog_out_reg: false,
        vhdl_body:
            "  sum <= a xor b xor cin;\n  cout <= (a and b) or (a and cin) or (b and cin);\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(|v, out| {
            let s = v[0] + v[1] + v[2];
            out.copy_from_slice(&[s & 1, s >> 1])
        }),
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    for w in [4, 8, 16] {
        push_comb(problems, adder_cout(w));
    }
    for w in [4, 8] {
        push_comb(problems, adder_plain(w));
    }
    for w in [4, 8] {
        push_comb(problems, subtractor(w));
    }
    push_comb(problems, addsub(4));
    for w in [4, 8] {
        push_comb(problems, incrementer(w));
    }
    push_comb(problems, half_adder());
    push_comb(problems, full_adder());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contributes_12_problems() {
        let mut v = Vec::new();
        extend(&mut v);
        assert_eq!(v.len(), 12);
    }

    #[test]
    fn adder_cout_golden() {
        let s = adder_cout(8);
        assert_eq!(s.golden(&[200, 100]), vec![44, 1]);
        assert_eq!(s.golden(&[1, 2]), vec![3, 0]);
    }

    #[test]
    fn subtractor_wraps() {
        let s = subtractor(4);
        assert_eq!(s.golden(&[3, 5]), vec![0xE]);
    }
}
