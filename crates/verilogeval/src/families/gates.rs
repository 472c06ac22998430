//! Basic logic gates and small gate networks (12 problems).

use crate::builders::{push_comb, CombSpec};
use crate::port::Port;
use crate::{Difficulty, Family, Problem};

fn gate2(name: &str, vop: &str, hop: &str, f: fn(u64, u64) -> u64, invert: bool) -> CombSpec {
    let vexpr = if invert {
        format!("~(a {vop} b)")
    } else {
        format!("a {vop} b")
    };
    let hexpr = if invert {
        format!("not (a {hop} b)")
    } else {
        format!("a {hop} b")
    };
    CombSpec {
        name: name.to_string(),
        family: Family::Gates,
        difficulty: Difficulty::Easy,
        description: format!("y is `{vexpr}` — the bitwise {name} of the two inputs."),
        inputs: vec![Port::new("a", 1), Port::new("b", 1)],
        outputs: vec![Port::new("y", 1)],
        vlog_body: format!("  assign y = {vexpr};\n"),
        vlog_out_reg: false,
        vhdl_body: format!("  y <= {hexpr};\n"),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            out.copy_from_slice(&[(if invert {
                !f(v[0], v[1])
            } else {
                f(v[0], v[1])
            }) & 1])
        }),
    }
}

fn bus_gate(name: &str, width: u32, vop: &str, hop: &str, f: fn(u64, u64) -> u64) -> CombSpec {
    let mask = (1u64 << width) - 1;
    CombSpec {
        name: format!("{name}_w{width}"),
        family: Family::Gates,
        difficulty: Difficulty::Easy,
        description: format!(
            "y is the bitwise `{vop}` of the two {width}-bit input buses a and b."
        ),
        inputs: vec![Port::new("a", width), Port::new("b", width)],
        outputs: vec![Port::new("y", width)],
        vlog_body: format!("  assign y = a {vop} b;\n"),
        vlog_out_reg: false,
        vhdl_body: format!("  y <= a {hop} b;\n"),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| out.copy_from_slice(&[f(v[0], v[1]) & mask])),
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    push_comb(problems, gate2("and2", "&", "and", |a, b| a & b, false));
    push_comb(problems, gate2("or2", "|", "or", |a, b| a | b, false));
    push_comb(problems, gate2("xor2", "^", "xor", |a, b| a ^ b, false));
    push_comb(problems, gate2("nand2", "&", "and", |a, b| a & b, true));

    push_comb(problems, bus_gate("bus_and", 4, "&", "and", |a, b| a & b));
    push_comb(problems, bus_gate("bus_or", 8, "|", "or", |a, b| a | b));
    push_comb(problems, bus_gate("bus_xor", 4, "^", "xor", |a, b| a ^ b));
    push_comb(
        problems,
        bus_gate("bus_xnor", 8, "~^", "xnor", |a, b| !(a ^ b)),
    );

    // AND-OR-invert: y = ~((a & b) | c)
    push_comb(
        problems,
        CombSpec {
            name: "aoi21".into(),
            family: Family::Gates,
            difficulty: Difficulty::Easy,
            description: "y is `~((a & b) | c)` — an AND-OR-invert gate.".into(),
            inputs: vec![Port::new("a", 1), Port::new("b", 1), Port::new("c", 1)],
            outputs: vec![Port::new("y", 1)],
            vlog_body: "  assign y = ~((a & b) | c);\n".into(),
            vlog_out_reg: false,
            vhdl_body: "  y <= not ((a and b) or c);\n".into(),
            vhdl_decls: String::new(),
            eval: Box::new(|v, out| out.copy_from_slice(&[!((v[0] & v[1]) | v[2]) & 1])),
        },
    );

    // 3-input majority vote.
    push_comb(
        problems,
        CombSpec {
            name: "majority3".into(),
            family: Family::Gates,
            difficulty: Difficulty::Easy,
            description:
                "y is 1 when at least two of the three inputs a, b, c are 1 (majority vote).".into(),
            inputs: vec![Port::new("a", 1), Port::new("b", 1), Port::new("c", 1)],
            outputs: vec![Port::new("y", 1)],
            vlog_body: "  assign y = (a & b) | (a & c) | (b & c);\n".into(),
            vlog_out_reg: false,
            vhdl_body: "  y <= (a and b) or (a and c) or (b and c);\n".into(),
            vhdl_decls: String::new(),
            eval: Box::new(|v, out| {
                out.copy_from_slice(&[((v[0] & v[1]) | (v[0] & v[2]) | (v[1] & v[2])) & 1])
            }),
        },
    );

    // 3-input XOR.
    push_comb(
        problems,
        CombSpec {
            name: "xor3".into(),
            family: Family::Gates,
            difficulty: Difficulty::Easy,
            description: "y is the exclusive-OR of the three inputs a, b, c.".into(),
            inputs: vec![Port::new("a", 1), Port::new("b", 1), Port::new("c", 1)],
            outputs: vec![Port::new("y", 1)],
            vlog_body: "  assign y = a ^ b ^ c;\n".into(),
            vlog_out_reg: false,
            vhdl_body: "  y <= a xor b xor c;\n".into(),
            vhdl_decls: String::new(),
            eval: Box::new(|v, out| out.copy_from_slice(&[(v[0] ^ v[1] ^ v[2]) & 1])),
        },
    );

    // Bus inverter.
    push_comb(
        problems,
        CombSpec {
            name: "bus_not_w8".into(),
            family: Family::Gates,
            difficulty: Difficulty::Easy,
            description: "y is the bitwise complement of the 8-bit input bus a.".into(),
            inputs: vec![Port::new("a", 8)],
            outputs: vec![Port::new("y", 8)],
            vlog_body: "  assign y = ~a;\n".into(),
            vlog_out_reg: false,
            vhdl_body: "  y <= not a;\n".into(),
            vhdl_decls: String::new(),
            eval: Box::new(|v, out| out.copy_from_slice(&[!v[0] & 0xFF])),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contributes_12_problems() {
        let mut v = Vec::new();
        extend(&mut v);
        assert_eq!(v.len(), 12);
        assert!(v.iter().all(|p| p.family == Family::Gates));
    }

    #[test]
    fn majority_golden_model() {
        let mut v = Vec::new();
        extend(&mut v);
        let p = v
            .iter()
            .find(|p| p.module_name == "majority3")
            .expect("present");
        // Exhaustive TB: 8 vectors × 1 output.
        assert_eq!(p.verilog.tb.matches("Test Case").count(), 8);
    }
}
