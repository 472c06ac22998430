//! Multiplexers (10 problems).

use crate::builders::{push_comb, CombSpec};
use crate::port::Port;
use crate::{Difficulty, Family, Problem};

fn mux2(width: u32) -> CombSpec {
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };
    CombSpec {
        name: format!("mux2to1_w{width}"),
        family: Family::Mux,
        difficulty: Difficulty::Easy,
        description: format!(
            "y selects between the two {width}-bit data inputs: y = b when sel is 1, else a."
        ),
        inputs: vec![
            Port::new("a", width),
            Port::new("b", width),
            Port::new("sel", 1),
        ],
        outputs: vec![Port::new("y", width)],
        vlog_body: "  assign y = sel ? b : a;\n".into(),
        vlog_out_reg: false,
        vhdl_body: "  y <= b when sel = '1' else a;\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            out.copy_from_slice(&[if v[2] == 1 { v[1] } else { v[0] } & mask])
        }),
    }
}

fn mux4(width: u32) -> CombSpec {
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };
    let vlog_body = "  always @* begin\n    case (sel)\n      2'b00: y = d0;\n      2'b01: y = d1;\n      2'b10: y = d2;\n      default: y = d3;\n    endcase\n  end\n".to_string();
    let vhdl_body = "  process (sel, d0, d1, d2, d3)\n  begin\n    case sel is\n      when \"00\" => y <= d0;\n      when \"01\" => y <= d1;\n      when \"10\" => y <= d2;\n      when others => y <= d3;\n    end case;\n  end process;\n".to_string();
    CombSpec {
        name: format!("mux4to1_w{width}"),
        family: Family::Mux,
        difficulty: Difficulty::Medium,
        description: format!(
            "y is a 4-to-1 multiplexer over the {width}-bit inputs d0..d3, selected by the 2-bit sel (00 picks d0, 11 picks d3)."
        ),
        inputs: vec![
            Port::new("d0", width),
            Port::new("d1", width),
            Port::new("d2", width),
            Port::new("d3", width),
            Port::new("sel", 2),
        ],
        outputs: vec![Port::new("y", width)],
        vlog_body,
        vlog_out_reg: true,
        vhdl_body,
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| out.copy_from_slice(&[v[v[4] as usize] & mask])),
    }
}

fn mux8(width: u32) -> CombSpec {
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };
    let mut varms = String::new();
    let mut harms = String::new();
    for i in 0..8 {
        varms.push_str(&format!("      3'b{:03b}: y = d{i};\n", i));
        harms.push_str(&format!("      when \"{:03b}\" => y <= d{i};\n", i));
    }
    let vlog_body = format!(
        "  always @* begin\n    case (sel)\n{varms}      default: y = d0;\n    endcase\n  end\n"
    );
    let sens = (0..8)
        .map(|i| format!("d{i}"))
        .collect::<Vec<_>>()
        .join(", ");
    let vhdl_body = format!(
        "  process (sel, {sens})\n  begin\n    case sel is\n{harms}      when others => y <= d0;\n    end case;\n  end process;\n"
    );
    let mut inputs: Vec<Port> = (0..8).map(|i| Port::new(format!("d{i}"), width)).collect();
    inputs.push(Port::new("sel", 3));
    CombSpec {
        name: format!("mux8to1_w{width}"),
        family: Family::Mux,
        difficulty: Difficulty::Medium,
        description: format!(
            "y is an 8-to-1 multiplexer over the {width}-bit inputs d0..d7, selected by the 3-bit sel."
        ),
        inputs,
        outputs: vec![Port::new("y", width)],
        vlog_body,
        vlog_out_reg: true,
        vhdl_body,
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| out.copy_from_slice(&[v[v[8] as usize] & mask])),
    }
}

fn mux2_en(width: u32) -> CombSpec {
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };
    CombSpec {
        name: format!("mux2to1_en_w{width}"),
        family: Family::Mux,
        difficulty: Difficulty::Medium,
        description: format!(
            "A gated 2-to-1 mux over {width}-bit data: when en is 0 the output is all zeros; otherwise y = b if sel is 1, else a."
        ),
        inputs: vec![
            Port::new("a", width),
            Port::new("b", width),
            Port::new("sel", 1),
            Port::new("en", 1),
        ],
        outputs: vec![Port::new("y", width)],
        vlog_body: format!(
            "  assign y = en ? (sel ? b : a) : {width}'b{};\n",
            "0".repeat(width as usize)
        ),
        vlog_out_reg: false,
        vhdl_body: "  y <= (others => '0') when en = '0' else b when sel = '1' else a;\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            out.copy_from_slice(&[if v[3] == 0 {
                0
            } else if v[2] == 1 {
                v[1] & mask
            } else {
                v[0] & mask
            }])
        }),
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    for w in [1, 4, 8] {
        push_comb(problems, mux2(w));
    }
    for w in [1, 4, 8] {
        push_comb(problems, mux4(w));
    }
    for w in [1, 2] {
        push_comb(problems, mux8(w));
    }
    for w in [2, 4] {
        push_comb(problems, mux2_en(w));
    }
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
    fn mux4_uses_case_statements() {
        let mut v = Vec::new();
        extend(&mut v);
        let p = v
            .iter()
            .find(|p| p.module_name == "mux4to1_w4")
            .expect("present");
        assert!(p.verilog.dut.contains("case (sel)"));
        assert!(p.vhdl.dut.contains("case sel is"));
    }
}
