//! Small arithmetic-logic units (10 problems).

use crate::builders::{push_comb, CombSpec};
use crate::port::Port;
use crate::{Difficulty, Family, Problem};

fn mask(w: u32) -> u64 {
    (1u64 << w) - 1
}

/// 4-operation ALU: 00 add, 01 sub, 10 and, 11 or.
fn alu4op(width: u32) -> CombSpec {
    let m = mask(width);
    let vlog_body = "  always @* begin\n    case (op)\n      2'b00: y = a + b;\n      2'b01: y = a - b;\n      2'b10: y = a & b;\n      default: y = a | b;\n    endcase\n  end\n".to_string();
    let vhdl_body = "  process (a, b, op)\n  begin\n    case op is\n      when \"00\" => y <= std_logic_vector(unsigned(a) + unsigned(b));\n      when \"01\" => y <= std_logic_vector(unsigned(a) - unsigned(b));\n      when \"10\" => y <= a and b;\n      when others => y <= a or b;\n    end case;\n  end process;\n".to_string();
    CombSpec {
        name: format!("alu4op_w{width}"),
        family: Family::Alu,
        difficulty: Difficulty::Hard,
        description: format!(
            "A {width}-bit ALU selected by the 2-bit opcode op: 00 → a + b (wraparound), 01 → a - b (wraparound), 10 → a AND b, 11 → a OR b."
        ),
        inputs: vec![Port::new("a", width), Port::new("b", width), Port::new("op", 2)],
        outputs: vec![Port::new("y", width)],
        vlog_body,
        vlog_out_reg: true,
        vhdl_body,
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            let (a, b) = (v[0], v[1]);
            out.copy_from_slice(&[match v[2] {
                0 => (a + b) & m,
                1 => a.wrapping_sub(b) & m,
                2 => a & b,
                _ => a | b,
            }])
        }),
    }
}

/// 8-operation ALU with a 3-bit opcode.
fn alu8op(width: u32) -> CombSpec {
    let m = mask(width);
    let vlog_body = "  always @* begin\n    case (op)\n      3'b000: y = a + b;\n      3'b001: y = a - b;\n      3'b010: y = a & b;\n      3'b011: y = a | b;\n      3'b100: y = a ^ b;\n      3'b101: y = ~a;\n      3'b110: y = a << 1;\n      default: y = a >> 1;\n    endcase\n  end\n".to_string();
    let hi = width - 1;
    let vhdl_body = format!(
        "  process (a, b, op)\n  begin\n    case op is\n      when \"000\" => y <= std_logic_vector(unsigned(a) + unsigned(b));\n      when \"001\" => y <= std_logic_vector(unsigned(a) - unsigned(b));\n      when \"010\" => y <= a and b;\n      when \"011\" => y <= a or b;\n      when \"100\" => y <= a xor b;\n      when \"101\" => y <= not a;\n      when \"110\" => y <= a({} downto 0) & '0';\n      when others => y <= '0' & a({hi} downto 1);\n    end case;\n  end process;\n",
        hi - 1
    );
    CombSpec {
        name: format!("alu8op_w{width}"),
        family: Family::Alu,
        difficulty: Difficulty::Hard,
        description: format!(
            "A {width}-bit ALU with a 3-bit opcode: 000 add, 001 sub, 010 and, 011 or, 100 xor, 101 not-a, 110 shift a left by 1, 111 shift a right by 1."
        ),
        inputs: vec![Port::new("a", width), Port::new("b", width), Port::new("op", 3)],
        outputs: vec![Port::new("y", width)],
        vlog_body,
        vlog_out_reg: true,
        vhdl_body,
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            let (a, b) = (v[0], v[1]);
            out.copy_from_slice(&[match v[2] {
                0 => (a + b) & m,
                1 => a.wrapping_sub(b) & m,
                2 => a & b,
                3 => a | b,
                4 => a ^ b,
                5 => !a & m,
                6 => a << 1 & m,
                _ => a >> 1,
            }])
        }),
    }
}

/// Logic-only unit: 00 and, 01 or, 10 xor, 11 nor.
fn logic_unit(width: u32) -> CombSpec {
    let m = mask(width);
    CombSpec {
        name: format!("logic_unit_w{width}"),
        family: Family::Alu,
        difficulty: Difficulty::Medium,
        description: format!(
            "A {width}-bit logic unit: op 00 → a AND b, 01 → a OR b, 10 → a XOR b, 11 → a NOR b."
        ),
        inputs: vec![Port::new("a", width), Port::new("b", width), Port::new("op", 2)],
        outputs: vec![Port::new("y", width)],
        vlog_body: "  always @* begin\n    case (op)\n      2'b00: y = a & b;\n      2'b01: y = a | b;\n      2'b10: y = a ^ b;\n      default: y = ~(a | b);\n    endcase\n  end\n".into(),
        vlog_out_reg: true,
        vhdl_body: "  process (a, b, op)\n  begin\n    case op is\n      when \"00\" => y <= a and b;\n      when \"01\" => y <= a or b;\n      when \"10\" => y <= a xor b;\n      when others => y <= a nor b;\n    end case;\n  end process;\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            let (a, b) = (v[0], v[1]);
            out.copy_from_slice(&[match v[2] {
                0 => a & b,
                1 => a | b,
                2 => a ^ b,
                _ => !(a | b) & m,
            }])
        }),
    }
}

/// Add/sub with carry-out and zero flag.
fn arith_flags(width: u32) -> CombSpec {
    let m = mask(width);
    CombSpec {
        name: format!("arith_flags_w{width}"),
        family: Family::Alu,
        difficulty: Difficulty::Hard,
        description: format!(
            "A {width}-bit adder/subtractor with flags: when sub is 0, {{cout, y}} = a + b; when sub is 1, {{cout, y}} = a + ~b + 1 (so cout is the no-borrow flag). zero is 1 when y is all zeros."
        ),
        inputs: vec![Port::new("a", width), Port::new("b", width), Port::new("sub", 1)],
        outputs: vec![Port::new("y", width), Port::new("cout", 1), Port::new("zero", 1)],
        vlog_body: "  assign {cout, y} = sub ? ({1'b0, a} + {1'b0, ~b} + 1'b1) : ({1'b0, a} + {1'b0, b});\n  assign zero = ~|y;\n".into(),
        vlog_out_reg: false,
        vhdl_body: format!(
            "  t <= (('0' & a) + ('0' & (not b)) + 1) when sub = '1' else (('0' & a) + ('0' & b));\n  y <= t({} downto 0);\n  cout <= t({width});\n  zero <= '1' when t({} downto 0) = \"{}\" else '0';\n",
            width - 1,
            width - 1,
            "0".repeat(width as usize)
        ),
        vhdl_decls: format!("  signal t : std_logic_vector({width} downto 0);\n"),
        eval: Box::new(move |v, out| {
            let (a, b, sub) = (v[0], v[1], v[2]);
            let t = if sub == 1 { a + (!b & m) + 1 } else { a + b };
            let y = t & m;
            out.copy_from_slice(&[y, t >> width & 1, u64::from(y == 0)])
        }),
    }
}

/// Absolute difference.
fn absdiff(width: u32) -> CombSpec {
    CombSpec {
        name: format!("absdiff_w{width}"),
        family: Family::Alu,
        difficulty: Difficulty::Medium,
        description: format!(
            "y is the absolute difference |a - b| of the two unsigned {width}-bit inputs."
        ),
        inputs: vec![Port::new("a", width), Port::new("b", width)],
        outputs: vec![Port::new("y", width)],
        vlog_body: "  assign y = (a > b) ? (a - b) : (b - a);\n".into(),
        vlog_out_reg: false,
        vhdl_body: "  y <= std_logic_vector(unsigned(a) - unsigned(b)) when unsigned(a) > unsigned(b) else std_logic_vector(unsigned(b) - unsigned(a));\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(|v, out| out.copy_from_slice(&[v[0].abs_diff(v[1])])),
    }
}

/// Saturating unsigned addition.
fn sat_add(width: u32) -> CombSpec {
    let m = mask(width);
    let ones_v = format!("{width}'b{}", "1".repeat(width as usize));
    let ones_h = format!("\"{}\"", "1".repeat(width as usize));
    CombSpec {
        name: format!("sat_add_w{width}"),
        family: Family::Alu,
        difficulty: Difficulty::Hard,
        description: format!(
            "A {width}-bit saturating unsigned adder: y = a + b, clamped to the maximum value 2^{width}-1 on overflow."
        ),
        inputs: vec![Port::new("a", width), Port::new("b", width)],
        outputs: vec![Port::new("y", width)],
        vlog_body: format!(
            "  wire [{width}:0] t;\n  assign t = a + b;\n  assign y = t[{width}] ? {ones_v} : t[{}:0];\n",
            width - 1
        ),
        vlog_out_reg: false,
        vhdl_body: format!(
            "  t <= ('0' & a) + ('0' & b);\n  y <= {ones_h} when t({width}) = '1' else t({} downto 0);\n",
            width - 1
        ),
        vhdl_decls: format!("  signal t : std_logic_vector({width} downto 0);\n"),
        eval: Box::new(move |v, out| out.copy_from_slice(&[(v[0] + v[1]).min(m)])),
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    push_comb(problems, alu4op(4));
    push_comb(problems, alu4op(8));
    push_comb(problems, alu8op(4));
    push_comb(problems, logic_unit(4));
    push_comb(problems, logic_unit(8));
    push_comb(problems, arith_flags(4));
    push_comb(problems, arith_flags(8));
    push_comb(problems, absdiff(4));
    push_comb(problems, absdiff(8));
    push_comb(problems, sat_add(4));
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
    fn alu_ops() {
        let s = alu4op(4);
        assert_eq!(s.golden(&[9, 8, 0]), vec![1], "add wraps");
        assert_eq!(s.golden(&[3, 5, 1]), vec![0xE], "sub wraps");
        assert_eq!(s.golden(&[0b1100, 0b1010, 2]), vec![0b1000]);
        assert_eq!(s.golden(&[0b1100, 0b1010, 3]), vec![0b1110]);
    }

    #[test]
    fn arith_flags_borrow_semantics() {
        let s = arith_flags(4);
        // 5 - 3: no borrow → cout 1.
        assert_eq!(s.golden(&[5, 3, 1]), vec![2, 1, 0]);
        // 3 - 5: borrow → cout 0, wraparound value.
        assert_eq!(s.golden(&[3, 5, 1]), vec![0xE, 0, 0]);
        // 3 - 3: zero flag.
        assert_eq!(s.golden(&[3, 3, 1]), vec![0, 1, 1]);
    }

    #[test]
    fn saturation() {
        let s = sat_add(4);
        assert_eq!(s.golden(&[12, 9]), vec![15]);
        assert_eq!(s.golden(&[3, 4]), vec![7]);
    }
}
