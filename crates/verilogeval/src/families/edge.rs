//! Edge detectors and pulse logic (8 problems).

use crate::builders::{push_seq, SeqSpec};
use crate::port::{Port, SplitMix};
use crate::{Difficulty, Family, Problem};

fn bit_stim(cycles: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = SplitMix::new(seed);
    (0..cycles)
        .map(|c| vec![u64::from(c < 2), rng.next_u64() & 1])
        .collect()
}

/// Registered edge detector: `p` pulses one cycle after the selected
/// transition of `d`.
fn detector(kind: &str, f: fn(u64, u64) -> u64, vexpr: &str, hexpr: &str, desc: &str) -> SeqSpec {
    let stim = bit_stim(30, kind.len() as u64 * 7 + 3);
    let mut prev = 0u64;
    let mut p = 0u64;
    let expected = stim
        .iter()
        .map(|v| {
            if v[0] == 1 {
                prev = 0;
                p = 0;
            } else {
                p = f(prev, v[1]);
                prev = v[1];
            }
            Some(vec![p])
        })
        .collect();
    SeqSpec {
        name: format!("edge_{kind}_det"),
        family: Family::EdgeDetector,
        difficulty: Difficulty::Medium,
        description: desc.to_string(),
        inputs: vec![Port::new("rst", 1), Port::new("d", 1)],
        outputs: vec![Port::new("p", 1)],
        vlog_body: format!(
            "  reg prev;\n  always @(posedge clk) begin\n    if (rst) begin prev <= 0; p <= 0; end\n    else begin\n      p <= {vexpr};\n      prev <= d;\n    end\n  end\n"
        ),
        vhdl_body: format!(
            "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        prev <= '0';\n        p <= '0';\n      else\n        p <= {hexpr};\n        prev <= d;\n      end if;\n    end if;\n  end process;\n"
        ),
        vhdl_decls: "  signal prev : std_logic := '0';\n".into(),
        stimulus: stim,
        expected,
    }
}

fn bus_change(width: u32) -> SeqSpec {
    let mut rng = SplitMix::new(29);
    let stim: Vec<Vec<u64>> = (0..26)
        .map(|c| vec![u64::from(c < 2), rng.bits(width)])
        .collect();
    let m = (1u64 << width) - 1;
    let mut prev = 0u64;
    let mut p = 0u64;
    let expected = stim
        .iter()
        .map(|v| {
            if v[0] == 1 {
                prev = 0;
                p = 0;
            } else {
                p = (prev ^ v[1]) & m;
                prev = v[1];
            }
            Some(vec![p])
        })
        .collect();
    let hi = width - 1;
    SeqSpec {
        name: format!("bus_change_w{width}"),
        family: Family::EdgeDetector,
        difficulty: Difficulty::Medium,
        description: format!(
            "A per-bit change detector over a {width}-bit bus: each bit of p is 1 for one cycle after the corresponding bit of d changed. rst synchronously clears the detector."
        ),
        inputs: vec![Port::new("rst", 1), Port::new("d", width)],
        outputs: vec![Port::new("p", width)],
        vlog_body: format!(
            "  reg [{hi}:0] prev;\n  always @(posedge clk) begin\n    if (rst) begin prev <= 0; p <= 0; end\n    else begin\n      p <= prev ^ d;\n      prev <= d;\n    end\n  end\n"
        ),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        prev <= (others => '0');\n        p <= (others => '0');\n      else\n        p <= prev xor d;\n        prev <= d;\n      end if;\n    end if;\n  end process;\n".into(),
        vhdl_decls: format!("  signal prev : std_logic_vector({hi} downto 0) := (others => '0');\n"),
        stimulus: stim,
        expected,
    }
}

fn stable2() -> SeqSpec {
    let stim = bit_stim(30, 17);
    let (mut prev, mut out) = (0u64, 0u64);
    let expected = stim
        .iter()
        .map(|v| {
            if v[0] == 1 {
                prev = 0;
                out = 0;
            } else {
                out = u64::from(prev == v[1]);
                prev = v[1];
            }
            Some(vec![out])
        })
        .collect();
    SeqSpec {
        name: "stable2".into(),
        family: Family::EdgeDetector,
        difficulty: Difficulty::Medium,
        description: "s is 1 when the input d held the same value across the last two rising clock edges (a 2-sample stability/debounce flag). rst synchronously clears the history.".into(),
        inputs: vec![Port::new("rst", 1), Port::new("d", 1)],
        outputs: vec![Port::new("s", 1)],
        vlog_body: "  reg prev;\n  always @(posedge clk) begin\n    if (rst) begin prev <= 0; s <= 0; end\n    else begin\n      s <= ~(prev ^ d);\n      prev <= d;\n    end\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        prev <= '0';\n        s <= '0';\n      else\n        s <= prev xnor d;\n        prev <= d;\n      end if;\n    end if;\n  end process;\n".into(),
        vhdl_decls: "  signal prev : std_logic := '0';\n".into(),
        stimulus: stim,
        expected,
    }
}

fn toggle_on_rise() -> SeqSpec {
    let stim = bit_stim(30, 23);
    let (mut prev, mut t) = (0u64, 0u64);
    let expected = stim
        .iter()
        .map(|v| {
            if v[0] == 1 {
                prev = 0;
                t = 0;
            } else {
                if prev == 0 && v[1] == 1 {
                    t ^= 1;
                }
                prev = v[1];
            }
            Some(vec![t])
        })
        .collect();
    SeqSpec {
        name: "toggle_on_rise".into(),
        family: Family::EdgeDetector,
        difficulty: Difficulty::Hard,
        description: "t flips its value on every rising edge of the input d (a toggle flip-flop driven by an edge detector). rst synchronously clears t and the edge history.".into(),
        inputs: vec![Port::new("rst", 1), Port::new("d", 1)],
        outputs: vec![Port::new("t", 1)],
        vlog_body: "  reg prev;\n  always @(posedge clk) begin\n    if (rst) begin prev <= 0; t <= 0; end\n    else begin\n      if (~prev & d) t <= ~t;\n      prev <= d;\n    end\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        prev <= '0';\n        t <= '0';\n      else\n        if (not prev and d) = '1' then\n          t <= not t;\n        end if;\n        prev <= d;\n      end if;\n    end if;\n  end process;\n".into(),
        vhdl_decls: "  signal prev : std_logic := '0';\n".into(),
        stimulus: stim,
        expected,
    }
}

fn sticky() -> SeqSpec {
    let stim = bit_stim(26, 31);
    let mut flag = 0u64;
    let expected = stim
        .iter()
        .map(|v| {
            flag = if v[0] == 1 { 0 } else { flag | v[1] };
            Some(vec![flag])
        })
        .collect();
    SeqSpec {
        name: "sticky_flag".into(),
        family: Family::EdgeDetector,
        difficulty: Difficulty::Easy,
        description: "f is a sticky flag: once the input d has been 1 at any rising edge, f stays 1 until the synchronous reset rst clears it.".into(),
        inputs: vec![Port::new("rst", 1), Port::new("d", 1)],
        outputs: vec![Port::new("f", 1)],
        vlog_body: "  always @(posedge clk) begin\n    if (rst) f <= 0;\n    else f <= f | d;\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        r <= '0';\n      else\n        r <= r or d;\n      end if;\n    end if;\n  end process;\n  f <= r;\n".into(),
        vhdl_decls: "  signal r : std_logic := '0';\n".into(),
        stimulus: stim,
        expected,
    }
}

fn delay2() -> SeqSpec {
    let stim = bit_stim(26, 37);
    let (mut d1, mut d2) = (0u64, 0u64);
    let expected = stim
        .iter()
        .map(|v| {
            if v[0] == 1 {
                d1 = 0;
                d2 = 0;
            } else {
                d2 = d1;
                d1 = v[1];
            }
            Some(vec![d2])
        })
        .collect();
    SeqSpec {
        name: "delay2".into(),
        family: Family::EdgeDetector,
        difficulty: Difficulty::Easy,
        description: "q is the input d delayed by exactly two clock cycles (a two-stage synchroniser). rst synchronously clears both stages.".into(),
        inputs: vec![Port::new("rst", 1), Port::new("d", 1)],
        outputs: vec![Port::new("q", 1)],
        vlog_body: "  reg s1;\n  always @(posedge clk) begin\n    if (rst) begin s1 <= 0; q <= 0; end\n    else begin\n      q <= s1;\n      s1 <= d;\n    end\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        s1 <= '0';\n        q <= '0';\n      else\n        q <= s1;\n        s1 <= d;\n      end if;\n    end if;\n  end process;\n".into(),
        vhdl_decls: "  signal s1 : std_logic := '0';\n".into(),
        stimulus: stim,
        expected,
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    push_seq(problems, detector(
        "rising",
        |prev, d| u64::from(prev == 0 && d == 1),
        "~prev & d",
        "(not prev) and d",
        "p pulses high for one cycle after each rising edge (0→1 transition) of the input d, observed across consecutive rising clock edges. rst synchronously clears the detector.",
    ));
    push_seq(problems, detector(
        "falling",
        |prev, d| u64::from(prev == 1 && d == 0),
        "prev & ~d",
        "prev and (not d)",
        "p pulses high for one cycle after each falling edge (1→0 transition) of the input d, observed across consecutive rising clock edges. rst synchronously clears the detector.",
    ));
    push_seq(problems, detector(
        "any",
        |prev, d| u64::from(prev != d),
        "prev ^ d",
        "prev xor d",
        "p pulses high for one cycle after every transition (either direction) of the input d, observed across consecutive rising clock edges. rst synchronously clears the detector.",
    ));
    push_seq(problems, bus_change(4));
    push_seq(problems, bus_change(8));
    push_seq(problems, stable2());
    push_seq(problems, toggle_on_rise());
    push_seq(problems, sticky());
    push_seq(problems, delay2());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contributes_9_problems() {
        let mut v = Vec::new();
        extend(&mut v);
        assert_eq!(v.len(), 9);
    }
}
