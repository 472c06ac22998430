//! Flip-flops and shift registers (10 problems).

use crate::builders::{push_seq, SeqSpec};
use crate::port::{Port, SplitMix};
use crate::{Difficulty, Family, Problem};

fn mask(w: u32) -> u64 {
    (1u64 << w) - 1
}

fn bit_stim(extra_bits: usize, cycles: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = SplitMix::new(seed);
    (0..cycles)
        .map(|c| {
            let mut v = vec![u64::from(c < 2)];
            for _ in 0..extra_bits {
                v.push(rng.next_u64() & 1);
            }
            v
        })
        .collect()
}

fn dff(with_enable: bool) -> SeqSpec {
    let name = if with_enable { "dff_en" } else { "dff" };
    let mut inputs = vec![Port::new("rst", 1), Port::new("d", 1)];
    if with_enable {
        inputs.push(Port::new("en", 1));
    }
    let stim = bit_stim(inputs.len() - 1, 20, 5);
    let mut q = 0u64;
    let expected = stim
        .iter()
        .map(|v| {
            q = if v[0] == 1 {
                0
            } else if !with_enable || v[2] == 1 {
                v[1]
            } else {
                q
            };
            Some(vec![q])
        })
        .collect();
    let (vlog_body, vhdl_body) = if with_enable {
        (
            "  always @(posedge clk) begin\n    if (rst) q <= 0;\n    else if (en) q <= d;\n  end\n".to_string(),
            "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        q <= '0';\n      elsif en = '1' then\n        q <= d;\n      end if;\n    end if;\n  end process;\n".to_string(),
        )
    } else {
        (
            "  always @(posedge clk) begin\n    if (rst) q <= 0;\n    else q <= d;\n  end\n".to_string(),
            "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        q <= '0';\n      else\n        q <= d;\n      end if;\n    end if;\n  end process;\n".to_string(),
        )
    };
    SeqSpec {
        name: name.into(),
        family: Family::ShiftRegister,
        difficulty: Difficulty::Easy,
        description: if with_enable {
            "A D flip-flop with synchronous reset and clock enable: q captures d on rising clock edges where en is 1; rst clears q.".into()
        } else {
            "A D flip-flop with synchronous reset: q captures d on every rising clock edge; rst clears q.".into()
        },
        inputs,
        outputs: vec![Port::new("q", 1)],
        vlog_body,
        vhdl_body,
        vhdl_decls: String::new(),
        stimulus: stim,
        expected,
    }
}

/// Serial-in serial-out: `dout` is `din` delayed by `width` cycles.
fn siso(width: u32) -> SeqSpec {
    let stim = bit_stim(1, 30, u64::from(width) * 3 + 1);
    let mut sr = 0u64;
    let expected = stim
        .iter()
        .map(|v| {
            sr = if v[0] == 1 {
                0
            } else {
                (sr << 1 | v[1]) & mask(width)
            };
            Some(vec![sr >> (width - 1) & 1])
        })
        .collect();
    let hi = width - 1;
    SeqSpec {
        name: format!("siso_w{width}"),
        family: Family::ShiftRegister,
        difficulty: Difficulty::Medium,
        description: format!(
            "A {width}-stage serial-in serial-out shift register: dout equals din delayed by {width} clock cycles (rst synchronously clears the pipeline)."
        ),
        inputs: vec![Port::new("rst", 1), Port::new("din", 1)],
        outputs: vec![Port::new("dout", 1)],
        vlog_body: format!(
            "  reg [{hi}:0] sr;\n  always @(posedge clk) begin\n    if (rst) sr <= 0;\n    else sr <= {{sr[{}:0], din}};\n  end\n  always @(posedge clk) begin\n    if (rst) dout <= 0;\n    else dout <= sr[{}];\n  end\n",
            hi - 1,
            hi - 1
        ),
        vhdl_body: format!(
            "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        sr <= (others => '0');\n        dout <= '0';\n      else\n        sr <= sr({} downto 0) & din;\n        dout <= sr({});\n      end if;\n    end if;\n  end process;\n",
            hi - 1,
            hi - 1
        ),
        vhdl_decls: format!("  signal sr : std_logic_vector({hi} downto 0) := (others => '0');\n"),
        stimulus: stim,
        expected,
    }
}

/// Serial-in parallel-out, MSB-first (new bit enters at the LSB).
fn sipo(width: u32, lsb_first: bool) -> SeqSpec {
    let dir = if lsb_first { "_lsb" } else { "" };
    let stim = bit_stim(1, 28, u64::from(width) * 5 + 2);
    let mut q = 0u64;
    let m = mask(width);
    let expected = stim
        .iter()
        .map(|v| {
            q = if v[0] == 1 {
                0
            } else if lsb_first {
                (q >> 1 | v[1] << (width - 1)) & m
            } else {
                (q << 1 | v[1]) & m
            };
            Some(vec![q])
        })
        .collect();
    let hi = width - 1;
    let (vupd, hupd) = if lsb_first {
        (
            format!("q <= {{din, q[{hi}:1]}};"),
            format!("r <= din & r({hi} downto 1);"),
        )
    } else {
        (
            format!("q <= {{q[{}:0], din}};", hi - 1),
            format!("r <= r({} downto 0) & din;", hi - 1),
        )
    };
    SeqSpec {
        name: format!("sipo{dir}_w{width}"),
        family: Family::ShiftRegister,
        difficulty: Difficulty::Medium,
        description: format!(
            "A {width}-bit serial-in parallel-out shift register: each cycle din shifts in at the {}; rst synchronously clears q.",
            if lsb_first { "MSB end (contents move toward the LSB)" } else { "LSB end (contents move toward the MSB)" }
        ),
        inputs: vec![Port::new("rst", 1), Port::new("din", 1)],
        outputs: vec![Port::new("q", width)],
        vlog_body: format!(
            "  always @(posedge clk) begin\n    if (rst) q <= 0;\n    else {vupd}\n  end\n"
        ),
        vhdl_body: format!(
            "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        r <= (others => '0');\n      else\n        {hupd}\n      end if;\n    end if;\n  end process;\n  q <= r;\n"
        ),
        vhdl_decls: format!("  signal r : std_logic_vector({hi} downto 0) := (others => '0');\n"),
        stimulus: stim,
        expected,
    }
}

/// Parallel load + shift-left with serial input.
fn load_shift() -> SeqSpec {
    let mut rng = SplitMix::new(41);
    let stim: Vec<Vec<u64>> = (0..26)
        .map(|c| {
            vec![
                u64::from(c < 2 || c == 13),
                u64::from(c % 6 == 2),
                rng.bits(4),
                rng.next_u64() & 1,
            ]
        })
        .collect();
    let mut q = 0u64;
    let expected = stim
        .iter()
        .map(|v| {
            q = if v[0] == 1 {
                0
            } else if v[1] == 1 {
                v[2]
            } else {
                (q << 1 | v[3]) & 0xF
            };
            Some(vec![q])
        })
        .collect();
    SeqSpec {
        name: "load_shift_w4".into(),
        family: Family::ShiftRegister,
        difficulty: Difficulty::Hard,
        description: "A 4-bit load/shift register: when load is 1, q takes d; otherwise q shifts left one position with din entering at the LSB. rst is a synchronous reset with priority over load.".into(),
        inputs: vec![
            Port::new("rst", 1),
            Port::new("load", 1),
            Port::new("d", 4),
            Port::new("din", 1),
        ],
        outputs: vec![Port::new("q", 4)],
        vlog_body: "  always @(posedge clk) begin\n    if (rst) q <= 0;\n    else if (load) q <= d;\n    else q <= {q[2:0], din};\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        r <= (others => '0');\n      elsif load = '1' then\n        r <= d;\n      else\n        r <= r(2 downto 0) & din;\n      end if;\n    end if;\n  end process;\n  q <= r;\n".into(),
        vhdl_decls: "  signal r : std_logic_vector(3 downto 0) := (others => '0');\n".into(),
        stimulus: stim,
        expected,
    }
}

/// Shift with enable.
fn shift_en() -> SeqSpec {
    let stim = bit_stim(2, 24, 9);
    let mut q = 0u64;
    let expected = stim
        .iter()
        .map(|v| {
            q = if v[0] == 1 {
                0
            } else if v[2] == 1 {
                (q << 1 | v[1]) & 0xF
            } else {
                q
            };
            Some(vec![q])
        })
        .collect();
    SeqSpec {
        name: "shift_en_w4".into(),
        family: Family::ShiftRegister,
        difficulty: Difficulty::Medium,
        description: "A 4-bit shift register with enable: on cycles where en is 1, q shifts left with din entering at the LSB; otherwise q holds. rst synchronously clears q.".into(),
        inputs: vec![Port::new("rst", 1), Port::new("din", 1), Port::new("en", 1)],
        outputs: vec![Port::new("q", 4)],
        vlog_body: "  always @(posedge clk) begin\n    if (rst) q <= 0;\n    else if (en) q <= {q[2:0], din};\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        r <= (others => '0');\n      elsif en = '1' then\n        r <= r(2 downto 0) & din;\n      end if;\n    end if;\n  end process;\n  q <= r;\n".into(),
        vhdl_decls: "  signal r : std_logic_vector(3 downto 0) := (others => '0');\n".into(),
        stimulus: stim,
        expected,
    }
}

/// Bidirectional shift.
fn bidir() -> SeqSpec {
    let stim = bit_stim(2, 24, 13);
    let mut q = 0u64;
    let expected = stim
        .iter()
        .map(|v| {
            q = if v[0] == 1 {
                0
            } else if v[2] == 1 {
                (q << 1 | v[1]) & 0xF
            } else {
                q >> 1 | v[1] << 3
            };
            Some(vec![q])
        })
        .collect();
    SeqSpec {
        name: "bidir_shift_w4".into(),
        family: Family::ShiftRegister,
        difficulty: Difficulty::Hard,
        description: "A 4-bit bidirectional shift register: when dir is 1, q shifts left (din enters at the LSB); when dir is 0, q shifts right (din enters at the MSB). rst is a synchronous reset.".into(),
        inputs: vec![Port::new("rst", 1), Port::new("din", 1), Port::new("dir", 1)],
        outputs: vec![Port::new("q", 4)],
        vlog_body: "  always @(posedge clk) begin\n    if (rst) q <= 0;\n    else if (dir) q <= {q[2:0], din};\n    else q <= {din, q[3:1]};\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        r <= (others => '0');\n      elsif dir = '1' then\n        r <= r(2 downto 0) & din;\n      else\n        r <= din & r(3 downto 1);\n      end if;\n    end if;\n  end process;\n  q <= r;\n".into(),
        vhdl_decls: "  signal r : std_logic_vector(3 downto 0) := (others => '0');\n".into(),
        stimulus: stim,
        expected,
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    push_seq(problems, dff(false));
    push_seq(problems, dff(true));
    push_seq(problems, siso(4));
    push_seq(problems, siso(8));
    push_seq(problems, sipo(4, false));
    push_seq(problems, sipo(8, false));
    push_seq(problems, sipo(4, true));
    push_seq(problems, load_shift());
    push_seq(problems, shift_en());
    push_seq(problems, bidir());
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
    fn siso_delays_by_width() {
        // Feed 1 once after reset; it must surface `width` cycles later.
        let s = siso(4);
        // Golden is embedded in `expected`; sanity-check the testbench
        // mentions the serial ports.
        assert!(s.vlog_body.contains("sr"));
        assert_eq!(s.stimulus.len(), s.expected.len());
    }
}
