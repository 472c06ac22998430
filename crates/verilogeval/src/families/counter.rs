//! Clocked counters with synchronous reset (12 problems).

use crate::builders::{push_seq, SeqSpec};
use crate::port::{Port, SplitMix};
use crate::{Difficulty, Family, Problem};

fn mask(w: u32) -> u64 {
    (1u64 << w) - 1
}

/// Standard stimulus: reset for 2 cycles, free-run, a mid-run reset
/// pulse, then more free-running with seeded extra inputs.
fn stimulus(extra_inputs: usize, cycles: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = SplitMix::new(seed);
    (0..cycles)
        .map(|c| {
            let rst = u64::from(c < 2 || c == cycles / 2);
            let mut v = vec![rst];
            for _ in 0..extra_inputs {
                v.push(rng.next_u64() & 1);
            }
            v
        })
        .collect()
}

/// Builds a counter problem from a golden step function over `(state,
/// inputs) -> state` and an output projection.
#[allow(clippy::too_many_arguments)] // a named-spec struct would be pure ceremony here
fn counter(
    name: &str,
    difficulty: Difficulty,
    description: &str,
    width: u32,
    extra_inputs: Vec<Port>,
    vlog_update: &str,
    vhdl_update: &str,
    step: impl Fn(u64, &[u64]) -> u64 + 'static,
) -> SeqSpec {
    let n_extra = extra_inputs.len();
    let mut inputs = vec![Port::new("rst", 1)];
    inputs.extend(extra_inputs);
    let stim = stimulus(n_extra, 24, name.bytes().map(u64::from).sum::<u64>() + 11);
    let mut state = 0u64;
    let expected: Vec<Option<Vec<u64>>> = stim
        .iter()
        .map(|v| {
            state = if v[0] == 1 { 0 } else { step(state, &v[1..]) };
            Some(vec![state & mask(width)])
        })
        .collect();
    let zeros_h = "0".repeat(width as usize);
    let vlog_body = format!(
        "  always @(posedge clk) begin\n    if (rst) q <= 0;\n    else begin\n{vlog_update}    end\n  end\n"
    );
    let vhdl_body = format!(
        "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        count <= (others => '0');\n      else\n{vhdl_update}      end if;\n    end if;\n  end process;\n  q <= std_logic_vector(count);\n"
    );
    let _ = zeros_h;
    SeqSpec {
        name: name.to_string(),
        family: Family::Counter,
        difficulty,
        description: format!(
            "{description} rst is a synchronous active-high reset clearing the counter to 0."
        ),
        inputs,
        outputs: vec![Port::new("q", width)],
        vlog_body,
        vhdl_body,
        vhdl_decls: format!(
            "  signal count : unsigned({} downto 0) := (others => '0');\n",
            width - 1
        ),
        stimulus: stim,
        expected,
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    for w in [4, 8] {
        let m = mask(w);
        push_seq(
            problems,
            counter(
                &format!("count_up_w{w}"),
                Difficulty::Medium,
                &format!(
                "A {w}-bit up counter: q increments by 1 every clock cycle, wrapping at 2^{w}-1."
            ),
                w,
                vec![],
                "      q <= q + 1;\n",
                "        count <= count + 1;\n",
                move |s, _| (s + 1) & m,
            ),
        );
    }
    let m4 = mask(4);
    push_seq(
        problems,
        counter(
            "count_up_en_w4",
            Difficulty::Medium,
            "A 4-bit up counter with enable: q increments only on cycles where en is 1.",
            4,
            vec![Port::new("en", 1)],
            "      if (en) q <= q + 1;\n",
            "        if en = '1' then\n          count <= count + 1;\n        end if;\n",
            move |s, v| if v[0] == 1 { (s + 1) & m4 } else { s },
        ),
    );
    push_seq(
        problems,
        counter(
            "count_down_w4",
            Difficulty::Medium,
            "A 4-bit down counter: q decrements by 1 every clock cycle, wrapping from 0 to 15.",
            4,
            vec![],
            "      q <= q - 1;\n",
            "        count <= count - 1;\n",
            move |s, _| s.wrapping_sub(1) & m4,
        ),
    );
    push_seq(problems, counter(
        "count_updown_w4",
        Difficulty::Medium,
        "A 4-bit up/down counter: q increments when dir is 1 and decrements when dir is 0, with wraparound.",
        4,
        vec![Port::new("dir", 1)],
        "      if (dir) q <= q + 1;\n      else q <= q - 1;\n",
        "        if dir = '1' then\n          count <= count + 1;\n        else\n          count <= count - 1;\n        end if;\n",
        move |s, v| {
            if v[0] == 1 {
                (s + 1) & m4
            } else {
                s.wrapping_sub(1) & m4
            }
        },
    ));
    for n in [10u64, 12] {
        push_seq(problems, counter(
            &format!("count_mod{n}_w4"),
            Difficulty::Medium,
            &format!("A modulo-{n} counter: q counts 0,1,...,{} and then wraps to 0.", n - 1),
            4,
            vec![],
            &format!("      if (q == 4'd{}) q <= 0;\n      else q <= q + 1;\n", n - 1),
            &format!("        if count = {} then\n          count <= (others => '0');\n        else\n          count <= count + 1;\n        end if;\n", n - 1),
            move |s, _| if s == n - 1 { 0 } else { s + 1 },
        ));
    }
    push_seq(problems, counter(
        "count_sat_w4",
        Difficulty::Medium,
        "A saturating 4-bit counter: q increments each cycle but stops at 15 instead of wrapping.",
        4,
        vec![],
        "      if (q != 4'b1111) q <= q + 1;\n",
        "        if count = \"1111\" then\n          count <= count;\n        else\n          count <= count + 1;\n        end if;\n",
        move |s, _| (s + 1).min(15),
    ));

    // Load counter needs a wide data input; built directly.
    push_seq(problems, load_counter());
    push_seq(problems, ring_counter());
    push_seq(problems, johnson_counter());
    push_seq(problems, terminal_count());
}

fn load_counter() -> SeqSpec {
    let m = mask(4);
    let mut rng = SplitMix::new(77);
    let stim: Vec<Vec<u64>> = (0..24)
        .map(|c| {
            let rst = u64::from(c < 2 || c == 12);
            let load = u64::from(c % 7 == 3);
            vec![rst, load, rng.bits(4)]
        })
        .collect();
    let mut state = 0u64;
    let expected = stim
        .iter()
        .map(|v| {
            state = if v[0] == 1 {
                0
            } else if v[1] == 1 {
                v[2]
            } else {
                (state + 1) & m
            };
            Some(vec![state])
        })
        .collect();
    SeqSpec {
        name: "count_load_w4".into(),
        family: Family::Counter,
        difficulty: Difficulty::Hard,
        description: "A 4-bit loadable counter: on load, q takes the value of d; otherwise q increments with wraparound. rst is a synchronous reset to 0 and has priority over load.".into(),
        inputs: vec![Port::new("rst", 1), Port::new("load", 1), Port::new("d", 4)],
        outputs: vec![Port::new("q", 4)],
        vlog_body: "  always @(posedge clk) begin\n    if (rst) q <= 0;\n    else if (load) q <= d;\n    else q <= q + 1;\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        count <= (others => '0');\n      elsif load = '1' then\n        count <= unsigned(d);\n      else\n        count <= count + 1;\n      end if;\n    end if;\n  end process;\n  q <= std_logic_vector(count);\n".into(),
        vhdl_decls: "  signal count : unsigned(3 downto 0) := (others => '0');\n".into(),
        stimulus: stim,
        expected,
    }
}

fn ring_counter() -> SeqSpec {
    let stim: Vec<Vec<u64>> = (0..20).map(|c| vec![u64::from(c < 2 || c == 11)]).collect();
    let mut state = 1u64;
    let expected = stim
        .iter()
        .map(|v| {
            state = if v[0] == 1 {
                1
            } else {
                (state << 1 | state >> 3) & 0xF
            };
            Some(vec![state])
        })
        .collect();
    SeqSpec {
        name: "ring_counter_w4".into(),
        family: Family::Counter,
        difficulty: Difficulty::Medium,
        description: "A 4-bit one-hot ring counter: rst (synchronous) sets q to 0001; each cycle the single 1 rotates one position toward the MSB and wraps around.".into(),
        inputs: vec![Port::new("rst", 1)],
        outputs: vec![Port::new("q", 4)],
        vlog_body: "  always @(posedge clk) begin\n    if (rst) q <= 4'b0001;\n    else q <= {q[2:0], q[3]};\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        r <= \"0001\";\n      else\n        r <= r(2 downto 0) & r(3);\n      end if;\n    end if;\n  end process;\n  q <= r;\n".into(),
        vhdl_decls: "  signal r : std_logic_vector(3 downto 0) := \"0001\";\n".into(),
        stimulus: stim,
        expected,
    }
}

fn johnson_counter() -> SeqSpec {
    let stim: Vec<Vec<u64>> = (0..20).map(|c| vec![u64::from(c < 2 || c == 11)]).collect();
    let mut state = 0u64;
    let expected = stim
        .iter()
        .map(|v| {
            state = if v[0] == 1 {
                0
            } else {
                (state << 1 | (!(state >> 3) & 1)) & 0xF
            };
            Some(vec![state])
        })
        .collect();
    SeqSpec {
        name: "johnson_w4".into(),
        family: Family::Counter,
        difficulty: Difficulty::Hard,
        description: "A 4-bit Johnson (twisted-ring) counter: each cycle q shifts left by one and the complement of the old MSB enters at the LSB; rst (synchronous) clears q.".into(),
        inputs: vec![Port::new("rst", 1)],
        outputs: vec![Port::new("q", 4)],
        vlog_body: "  always @(posedge clk) begin\n    if (rst) q <= 4'b0000;\n    else q <= {q[2:0], ~q[3]};\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        r <= \"0000\";\n      else\n        r <= r(2 downto 0) & (not r(3));\n      end if;\n    end if;\n  end process;\n  q <= r;\n".into(),
        vhdl_decls: "  signal r : std_logic_vector(3 downto 0) := \"0000\";\n".into(),
        stimulus: stim,
        expected,
    }
}

fn terminal_count() -> SeqSpec {
    let stim: Vec<Vec<u64>> = (0..26).map(|c| vec![u64::from(c < 2)]).collect();
    let mut state = 0u64;
    let expected = stim
        .iter()
        .map(|v| {
            state = if v[0] == 1 || state == 9 {
                0
            } else {
                state + 1
            };
            Some(vec![state, u64::from(state == 9)])
        })
        .collect();
    SeqSpec {
        name: "count_mod10_tc".into(),
        family: Family::Counter,
        difficulty: Difficulty::Hard,
        description: "A modulo-10 counter with terminal count: q counts 0..9 and wraps; tc is 1 exactly while q equals 9. Both outputs are registered; rst is a synchronous reset.".into(),
        inputs: vec![Port::new("rst", 1)],
        outputs: vec![Port::new("q", 4), Port::new("tc", 1)],
        vlog_body: "  always @(posedge clk) begin\n    if (rst) begin q <= 0; tc <= 0; end\n    else if (q == 4'd9) begin q <= 0; tc <= 0; end\n    else begin q <= q + 1; tc <= (q == 4'd8);\n    end\n  end\n".into(),
        vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        count <= (others => '0');\n        t <= '0';\n      elsif count = 9 then\n        count <= (others => '0');\n        t <= '0';\n      else\n        count <= count + 1;\n        if count = 8 then\n          t <= '1';\n        else\n          t <= '0';\n        end if;\n      end if;\n    end if;\n  end process;\n  q <= std_logic_vector(count);\n  tc <= t;\n".into(),
        vhdl_decls: "  signal count : unsigned(3 downto 0) := (others => '0');\n  signal t : std_logic := '0';\n".into(),
        stimulus: stim,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contributes_12_problems() {
        let mut v = Vec::new();
        extend(&mut v);
        assert_eq!(v.len(), 12);
        assert!(v.iter().all(|p| p.family == Family::Counter));
    }

    #[test]
    fn mid_run_reset_present_in_stimulus() {
        let s = stimulus(0, 24, 1);
        assert_eq!(s[0][0], 1);
        assert_eq!(s[1][0], 1);
        assert_eq!(s[12][0], 1);
        assert_eq!(s[3][0], 0);
    }
}
