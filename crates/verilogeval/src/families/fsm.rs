//! Finite-state machines: sequence detectors and small controllers
//! (13 problems).

use crate::builders::{push_seq, SeqSpec};
use crate::port::{Port, SplitMix};
use crate::{Difficulty, Family, Problem};

fn bit_stim(cycles: usize, seed: u64, extra: usize) -> Vec<Vec<u64>> {
    let mut rng = SplitMix::new(seed);
    (0..cycles)
        .map(|c| {
            let mut v = vec![u64::from(c < 2)];
            for _ in 0..extra {
                v.push(rng.next_u64() & 1);
            }
            v
        })
        .collect()
}

/// Serial sequence detector over `din`, built as a history register plus
/// comparator — the canonical RTL for overlapping detection; the
/// non-overlapping variant clears its history after each match.
fn detector(pattern: &str, overlapping: bool) -> SeqSpec {
    let k = pattern.len() as u32;
    let pat_val = u64::from_str_radix(pattern, 2).expect("binary pattern");
    let mode = if overlapping { "" } else { "_no" };
    let name = format!("seq{pattern}{mode}");
    let stim = bit_stim(40, pat_val * 31 + k as u64 * 7 + u64::from(overlapping), 1);
    let m_hist = (1u64 << (k - 1)) - 1;
    let (mut hist, mut det) = (0u64, 0u64);
    let expected = stim
        .iter()
        .map(|v| {
            if v[0] == 1 {
                hist = 0;
                det = 0;
            } else {
                let next = (hist << 1 | v[1]) & ((1 << k) - 1);
                if next == pat_val {
                    det = 1;
                    hist = if overlapping { next & m_hist } else { 0 };
                } else {
                    det = 0;
                    hist = next & m_hist;
                }
            }
            Some(vec![det])
        })
        .collect();
    let hk = k - 1; // history register width
    let on_match_v = if overlapping {
        format!("hist <= next[{}:0];", hk - 1)
    } else {
        "hist <= 0;".to_string()
    };
    let on_match_h = if overlapping {
        format!("hist <= nxt({} downto 0);", hk - 1)
    } else {
        "hist <= (others => '0');".to_string()
    };
    let vlog_body = format!(
        "  reg [{}:0] hist;\n  wire [{}:0] next;\n  assign next = {{hist, din}};\n\
         \x20 always @(posedge clk) begin\n    if (rst) begin hist <= 0; det <= 0; end\n\
         \x20   else if (next == {k}'b{pattern}) begin det <= 1; {on_match_v} end\n\
         \x20   else begin det <= 0; hist <= next[{}:0]; end\n  end\n",
        hk - 1,
        k - 1,
        hk - 1
    );
    let vhdl_body = format!(
        "  nxt <= hist & din;\n  process (clk)\n  begin\n    if rising_edge(clk) then\n\
         \x20     if rst = '1' then\n        hist <= (others => '0');\n        det <= '0';\n\
         \x20     elsif nxt = \"{pattern}\" then\n        det <= '1';\n        {on_match_h}\n\
         \x20     else\n        det <= '0';\n        hist <= nxt({} downto 0);\n      end if;\n\
         \x20   end if;\n  end process;\n",
        hk - 1
    );
    SeqSpec {
        name,
        family: Family::Fsm,
        difficulty: Difficulty::Hard,
        description: format!(
            "A serial sequence detector: det pulses high for one clock cycle each time the last {k} values of din (newest bit last) match the pattern {pattern}. Matches are {}. rst synchronously clears the detector.",
            if overlapping { "allowed to overlap (the matched suffix is kept)" } else { "non-overlapping (history restarts after each match)" }
        ),
        inputs: vec![Port::new("rst", 1), Port::new("din", 1)],
        outputs: vec![Port::new("det", 1)],
        vlog_body,
        vhdl_body,
        vhdl_decls: format!(
            "  signal hist : std_logic_vector({} downto 0) := (others => '0');\n  signal nxt : std_logic_vector({} downto 0);\n",
            hk - 1,
            k - 1
        ),
        stimulus: stim,
        expected,
    }
}

fn parity_fsm() -> SeqSpec {
    let stim = bit_stim(30, 57, 1);
    let mut odd = 0u64;
    let expected = stim
        .iter()
        .map(|v| {
            odd = if v[0] == 1 { 0 } else { odd ^ v[1] };
            Some(vec![odd])
        })
        .collect();
    SeqSpec {
        name: "parity_fsm".into(),
        family: Family::Fsm,
        difficulty: Difficulty::Medium,
        description: "A two-state parity tracker: odd is 1 when an odd number of 1s has arrived on din since the last synchronous reset.".into(),
        inputs: vec![Port::new("rst", 1), Port::new("din", 1)],
        outputs: vec![Port::new("odd", 1)],
        vlog_body: "  always @(posedge clk) begin\n    if (rst) odd <= 0;\n    else odd <= odd ^ din;\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        s <= '0';\n      else\n        s <= s xor din;\n      end if;\n    end if;\n  end process;\n  odd <= s;\n".into(),
        vhdl_decls: "  signal s : std_logic := '0';\n".into(),
        stimulus: stim,
        expected,
    }
}

fn turnstile() -> SeqSpec {
    let stim = bit_stim(34, 61, 2);
    let mut unlocked = 0u64;
    let expected = stim
        .iter()
        .map(|v| {
            // inputs: rst, coin, push. coin unlocks; push re-locks (coin
            // wins when both).
            unlocked = if v[0] == 1 {
                0
            } else if v[1] == 1 {
                1
            } else if v[2] == 1 {
                0
            } else {
                unlocked
            };
            Some(vec![unlocked])
        })
        .collect();
    SeqSpec {
        name: "turnstile".into(),
        family: Family::Fsm,
        difficulty: Difficulty::Hard,
        description: "A turnstile controller with two states: inserting a coin (coin=1) unlocks it; pushing through (push=1) locks it again. When both happen in the same cycle the coin wins. unlocked reports the state; rst synchronously locks the turnstile.".into(),
        inputs: vec![Port::new("rst", 1), Port::new("coin", 1), Port::new("push", 1)],
        outputs: vec![Port::new("unlocked", 1)],
        vlog_body: "  always @(posedge clk) begin\n    if (rst) unlocked <= 0;\n    else if (coin) unlocked <= 1;\n    else if (push) unlocked <= 0;\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        s <= '0';\n      elsif coin = '1' then\n        s <= '1';\n      elsif push = '1' then\n        s <= '0';\n      end if;\n    end if;\n  end process;\n  unlocked <= s;\n".into(),
        vhdl_decls: "  signal s : std_logic := '0';\n".into(),
        stimulus: stim,
        expected,
    }
}

fn pattern_gen() -> SeqSpec {
    let stim = bit_stim(28, 67, 1);
    // 2-bit Gray sequence 00 -> 01 -> 11 -> 10, advancing when en=1.
    const NEXT: [u64; 4] = [0b01, 0b11, 0b00, 0b10];
    let mut s = 0u64;
    let expected = stim
        .iter()
        .map(|v| {
            s = if v[0] == 1 {
                0
            } else if v[1] == 1 {
                NEXT[s as usize]
            } else {
                s
            };
            Some(vec![s])
        })
        .collect();
    SeqSpec {
        name: "gray_pattern_gen".into(),
        family: Family::Fsm,
        difficulty: Difficulty::Medium,
        description: "A 2-bit Gray-code pattern generator: q steps through 00, 01, 11, 10 (then wraps) on cycles where en is 1, and holds otherwise. rst synchronously returns q to 00.".into(),
        inputs: vec![Port::new("rst", 1), Port::new("en", 1)],
        outputs: vec![Port::new("q", 2)],
        vlog_body: "  always @(posedge clk) begin\n    if (rst) q <= 2'b00;\n    else if (en) begin\n      case (q)\n        2'b00: q <= 2'b01;\n        2'b01: q <= 2'b11;\n        2'b11: q <= 2'b10;\n        default: q <= 2'b00;\n      endcase\n    end\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        s <= \"00\";\n      elsif en = '1' then\n        case s is\n          when \"00\" => s <= \"01\";\n          when \"01\" => s <= \"11\";\n          when \"11\" => s <= \"10\";\n          when others => s <= \"00\";\n        end case;\n      end if;\n    end if;\n  end process;\n  q <= s;\n".into(),
        vhdl_decls: "  signal s : std_logic_vector(1 downto 0) := \"00\";\n".into(),
        stimulus: stim,
        expected,
    }
}

fn vending() -> SeqSpec {
    let stim = bit_stim(36, 71, 2);
    // inputs: rst, nickel (worth 1), dime (worth 2); dispense at >= 3,
    // then restart from the excess discarded (credit clears).
    let (mut credit, mut dispense) = (0u64, 0u64);
    let expected = stim
        .iter()
        .map(|v| {
            if v[0] == 1 {
                credit = 0;
                dispense = 0;
            } else {
                let add = v[1] + 2 * v[2];
                let total = credit + add;
                if total >= 3 {
                    dispense = 1;
                    credit = 0;
                } else {
                    dispense = 0;
                    credit = total;
                }
            }
            Some(vec![dispense])
        })
        .collect();
    SeqSpec {
        name: "vending".into(),
        family: Family::Fsm,
        difficulty: Difficulty::Hard,
        description: "A vending-machine controller: nickel adds 1 credit, dime adds 2 (both may be 1 in the same cycle, adding 3). When accumulated credit reaches 3 or more, dispense pulses for one cycle and the credit clears. rst synchronously clears everything.".into(),
        inputs: vec![Port::new("rst", 1), Port::new("nickel", 1), Port::new("dime", 1)],
        outputs: vec![Port::new("dispense", 1)],
        vlog_body: "  reg [2:0] credit;\n  wire [2:0] total;\n  assign total = credit + nickel + (dime << 1);\n  always @(posedge clk) begin\n    if (rst) begin credit <= 0; dispense <= 0; end\n    else if (total >= 3'd3) begin dispense <= 1; credit <= 0; end\n    else begin dispense <= 0; credit <= total; end\n  end\n".into(),
        vhdl_body: "  total <= credit + (\"00\" & nickel) + (\"0\" & dime & \"0\");\n  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        credit <= (others => '0');\n        d <= '0';\n      elsif unsigned(total) >= 3 then\n        d <= '1';\n        credit <= (others => '0');\n      else\n        d <= '0';\n        credit <= total;\n      end if;\n    end if;\n  end process;\n  dispense <= d;\n".into(),
        vhdl_decls: "  signal credit : std_logic_vector(2 downto 0) := (others => '0');\n  signal total : std_logic_vector(2 downto 0);\n  signal d : std_logic := '0';\n".into(),
        stimulus: stim,
        expected,
    }
}

fn serial_eq() -> SeqSpec {
    let stim = bit_stim(30, 79, 2);
    let mut equal = 1u64;
    let expected = stim
        .iter()
        .map(|v| {
            equal = if v[0] == 1 {
                1
            } else if v[1] != v[2] {
                0
            } else {
                equal
            };
            Some(vec![equal])
        })
        .collect();
    SeqSpec {
        name: "serial_eq".into(),
        family: Family::Fsm,
        difficulty: Difficulty::Medium,
        description: "A serial word comparator: eq starts at 1 after a synchronous reset and falls to 0 permanently as soon as the bit streams a and b disagree in any cycle.".into(),
        inputs: vec![Port::new("rst", 1), Port::new("a", 1), Port::new("b", 1)],
        outputs: vec![Port::new("eq", 1)],
        vlog_body: "  always @(posedge clk) begin\n    if (rst) eq <= 1;\n    else if (a != b) eq <= 0;\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        s <= '1';\n      elsif a /= b then\n        s <= '0';\n      end if;\n    end if;\n  end process;\n  eq <= s;\n".into(),
        vhdl_decls: "  signal s : std_logic := '1';\n".into(),
        stimulus: stim,
        expected,
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    for pat in ["101", "110", "111", "010", "1001"] {
        push_seq(problems, detector(pat, true));
    }
    push_seq(problems, detector("101", false));
    push_seq(problems, detector("11", false));
    push_seq(problems, parity_fsm());
    push_seq(problems, turnstile());
    push_seq(problems, pattern_gen());
    push_seq(problems, vending());
    push_seq(problems, serial_eq());
    push_seq(problems, detector("0110", true));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contributes_13_problems() {
        let mut v = Vec::new();
        extend(&mut v);
        assert_eq!(v.len(), 13);
        assert!(v.iter().all(|p| p.family == Family::Fsm));
    }

    #[test]
    fn overlap_vs_non_overlap_differ() {
        // For pattern "11" and input 111: overlapping detects at cycles
        // 2 and 3; non-overlapping only at 2 (history restarts).
        let make = |overlap: bool| {
            let k = 2u32;
            let pat = 0b11u64;
            let mut hist = 0u64;
            let mut dets = Vec::new();
            for bit in [1u64, 1, 1] {
                let next = (hist << 1 | bit) & ((1 << k) - 1);
                if next == pat {
                    dets.push(1);
                    hist = if overlap { next & 1 } else { 0 };
                } else {
                    dets.push(0);
                    hist = next & 1;
                }
            }
            dets
        };
        assert_eq!(make(true), vec![0, 1, 1]);
        assert_eq!(make(false), vec![0, 1, 0]);
    }
}
