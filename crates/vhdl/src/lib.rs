//! VHDL-93 subset frontend: lexer, parser, AST and elaborator.
//!
//! The `xvhdl` analog in the AIVRIL2 reproduction. Both this crate and
//! `aivril-verilog` lower to the same [`aivril_hdl::ir::Design`], which
//! is what makes the toolchain — like the Vivado flow the paper uses —
//! language-agnostic: the agent loops never care which frontend produced
//! the design they compile and simulate.
//!
//! Supported subset: entities with generics/ports over `std_logic`,
//! `std_logic_vector`/`unsigned`/`signed`, `integer` and `boolean`;
//! architectures with signal/constant declarations; processes
//! (sensitivity lists, `if`/`elsif`, `case`, `for`/`while` loops, `wait
//! for`/`wait until`/`wait`, `assert`/`report`); concurrent and
//! conditional assignments; direct entity instantiation with generic and
//! port maps; `rising_edge`/`falling_edge` and the common numeric_std
//! conversions.
//!
//! # Example
//!
//! ```
//! use aivril_hdl::source::SourceMap;
//! use aivril_vhdl::compile;
//!
//! let mut sources = SourceMap::new();
//! sources.add_file(
//!     "inv.vhd",
//!     "entity inv is port (a : in std_logic; y : out std_logic); end entity;\n\
//!      architecture rtl of inv is begin y <= not a; end architecture;\n",
//! );
//! let design = compile(&sources, "inv").map_err(|d| d.render(&sources))?;
//! assert_eq!(design.nets.len(), 2);
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
mod elab;
mod lexer;
mod parser;

pub use elab::elaborate;
pub use lexer::{lex, Token, TokenKind};
pub use parser::parse;

use aivril_hdl::diag::Diagnostics;
use aivril_hdl::ir::Design;
use aivril_hdl::source::{FileId, SourceMap};

/// Lexes and parses a single source file.
///
/// The per-file granularity exists so callers (the EDA layer's
/// incremental compile path) can memoize parse results keyed by file
/// content; [`analyze`] is a loop over this function.
#[must_use]
pub fn analyze_file(file: FileId, text: &str) -> (ast::DesignFile, Diagnostics) {
    let mut diags = Diagnostics::new();
    let tokens = lexer::lex(file, text, &mut diags);
    let unit = parser::parse(tokens, &mut diags);
    (unit, diags)
}

/// Lexes and parses every file in `sources` (the `xvhdl` analysis step).
#[must_use]
pub fn analyze(sources: &SourceMap) -> (ast::DesignFile, Diagnostics) {
    let mut diags = Diagnostics::new();
    let mut file = ast::DesignFile::default();
    for (id, source) in sources.iter() {
        let (mut part, part_diags) = analyze_file(id, source.text());
        file.entities.append(&mut part.entities);
        file.architectures.append(&mut part.architectures);
        diags.extend(part_diags);
    }
    (file, diags)
}

/// Compiles `sources` and elaborates entity `top` into a simulatable
/// design.
///
/// # Errors
///
/// Returns the accumulated diagnostics when any syntax or semantic error
/// occurs.
pub fn compile(sources: &SourceMap, top: &str) -> Result<Design, Diagnostics> {
    let (file, mut diags) = analyze(sources);
    if diags.has_errors() {
        return Err(diags);
    }
    match elab::elaborate(&file, top, &mut diags) {
        Some(design) if !diags.has_errors() => Ok(design),
        _ => Err(diags),
    }
}

/// Picks a plausible top entity: one never instantiated by another
/// architecture, preferring later definitions (testbench convention).
#[must_use]
pub fn find_top(file: &ast::DesignFile) -> Option<String> {
    let mut instantiated = std::collections::HashSet::new();
    for a in &file.architectures {
        for s in &a.stmts {
            if let ast::ConcurrentStmt::Instance { entity, .. } = s {
                instantiated.insert(entity.to_ascii_lowercase());
            }
        }
    }
    file.entities
        .iter()
        .rev()
        .find(|e| !instantiated.contains(&e.name))
        .map(|e| e.name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivril_sim::{SimConfig, Simulator};

    fn sim(src: &str, top: &str) -> (aivril_sim::SimResult, Design) {
        let mut sources = SourceMap::new();
        sources.add_file("t.vhd", src);
        let design = match compile(&sources, top) {
            Ok(d) => d,
            Err(diags) => panic!("compile failed:\n{}", diags.render(&sources)),
        };
        let result = Simulator::new(&design, SimConfig::default()).run();
        (result, design)
    }

    #[test]
    fn wide_and_separated_hex_strings_elaborate() {
        // A 72-bit hex string and one with `_` separators (IEEE 1076-1993
        // §13.7), as initialiser (resized to the signal) and as value.
        let src = "entity tb is end entity;\n\
             architecture sim of tb is\n\
             signal w : std_logic_vector(71 downto 0) := x\"FF0000000000000001\";\n\
             signal t : std_logic_vector(64 downto 0) := x\"F_0000_0000_0000_0001\";\n\
             signal h : std_logic_vector(15 downto 0);\n\
             signal c : std_logic_vector(71 downto 0);\n\
             begin\n  process\n  begin\n\
             h <= x\"FF_00\";\n    c <= x\"FF0000000000000001\";\n    wait for 1 ns;\n\
             assert h = x\"ff00\" report \"Test Case 1 Failed\" severity error;\n\
             assert c = w report \"Test Case 2 Failed\" severity error;\n\
             report \"All tests passed successfully!\" severity note;\n    wait;\n\
             end process;\nend architecture;\n";
        let mut sources = SourceMap::new();
        sources.add_file("t.vhd", src);
        let design = match compile(&sources, "tb") {
            Ok(d) => d,
            Err(diags) => panic!("compile failed:\n{}", diags.render(&sources)),
        };
        let mut sim = Simulator::new(&design, SimConfig::default());
        let r = sim.run();
        assert_eq!(r.error_count, 0, "log: {}", r.log_text());
        let bits = |s: &str| aivril_hdl::LogicVec::parse_binary(s).expect("test vector");
        let wide = bits(&format!("11111111{}1", "0".repeat(63)));
        assert_eq!(sim.net_value("c"), Some(&wide));
        assert_eq!(sim.net_value("w"), Some(&wide));
        // 68 digit bits truncated from the left to 65.
        assert_eq!(
            sim.net_value("t"),
            Some(&bits(&format!("1{}1", "0".repeat(63))))
        );
        assert_eq!(sim.net_value("h"), Some(&bits("1111111100000000")));
    }

    #[test]
    fn end_to_end_combinational() {
        let (r, _) = sim(
            "entity andgate is port (a, b : in std_logic; y : out std_logic); end entity;\n\
             architecture rtl of andgate is begin y <= a and b; end architecture;\n\
             entity tb is end entity;\n\
             architecture sim of tb is\n  signal a, b, y : std_logic;\nbegin\n\
             dut: entity work.andgate port map (a => a, b => b, y => y);\n\
             process\nbegin\n  a <= '1'; b <= '1';\n  wait for 1 ns;\n\
             assert y = '1' report \"Test Case 1 Failed: y should be 1\" severity error;\n\
             a <= '0';\n  wait for 1 ns;\n\
             assert y = '0' report \"Test Case 2 Failed: y should be 0\" severity error;\n\
             report \"All tests passed successfully!\" severity note;\n  wait;\nend process;\n\
             end architecture;\n",
            "tb",
        );
        assert_eq!(r.error_count, 0, "log: {}", r.log_text());
        assert!(r.log_text().contains("All tests passed successfully!"));
    }

    #[test]
    fn end_to_end_counter_with_async_reset() {
        let (r, _) = sim(
            "entity counter is\n  generic (width : integer := 4);\n\
             port (clk, rst : in std_logic; q : out std_logic_vector(width-1 downto 0));\n\
             end entity;\n\
             architecture rtl of counter is\n\
             signal count : unsigned(width-1 downto 0) := (others => '0');\nbegin\n\
             process (clk, rst)\n  begin\n    if rst = '1' then\n\
             count <= (others => '0');\n    elsif rising_edge(clk) then\n\
             count <= count + 1;\n    end if;\n  end process;\n\
             q <= std_logic_vector(count);\nend architecture;\n\
             entity tb is end entity;\n\
             architecture sim of tb is\n\
             signal clk : std_logic := '0';\n  signal rst : std_logic := '1';\n\
             signal q : std_logic_vector(3 downto 0);\n  signal done : std_logic := '0';\nbegin\n\
             dut: entity work.counter port map (clk => clk, rst => rst, q => q);\n\
             clkgen: process\nbegin\n  while done = '0' loop\n    clk <= '0';\n\
             wait for 5 ns;\n    clk <= '1';\n    wait for 5 ns;\n  end loop;\n  wait;\n\
             end process;\n\
             stim: process\nbegin\n  wait for 12 ns;\n  rst <= '0';\n  wait for 100 ns;\n\
             assert q = \"1010\" report \"Test Case 1 Failed: q should be 10\" severity error;\n\
             report \"All tests passed successfully!\" severity note;\n  done <= '1';\n  wait;\n\
             end process;\nend architecture;\n",
            "tb",
        );
        assert_eq!(r.error_count, 0, "log: {}", r.log_text());
        assert!(r.log_text().contains("All tests passed"));
    }

    #[test]
    fn async_reset_fires_between_edges() {
        // Reset asserted away from any clock edge must clear the counter,
        // and releasing it must not count as a clock.
        let (r, _) = sim(
            "entity c is port (clk, rst : in std_logic; q : out std_logic_vector(3 downto 0));\n\
             end entity;\n\
             architecture rtl of c is\n  signal n : unsigned(3 downto 0) := (others => '0');\n\
             begin\n  process (clk, rst)\n  begin\n    if rst = '1' then\n      n <= (others => '0');\n\
             elsif rising_edge(clk) then\n      n <= n + 1;\n    end if;\n  end process;\n\
             q <= std_logic_vector(n);\nend architecture;\n\
             entity tb is end entity;\narchitecture sim of tb is\n\
             signal clk, rst : std_logic := '0';\n  signal q : std_logic_vector(3 downto 0);\n\
             begin\n  dut: entity work.c port map (clk => clk, rst => rst, q => q);\n\
             process\nbegin\n\
             clk <= '1'; wait for 1 ns; clk <= '0'; wait for 1 ns;\n\
             clk <= '1'; wait for 1 ns; clk <= '0'; wait for 1 ns;\n\
             assert q = \"0010\" report \"Test Case 1 Failed\" severity error;\n\
             rst <= '1'; wait for 1 ns;\n\
             assert q = \"0000\" report \"Test Case 2 Failed: async reset\" severity error;\n\
             rst <= '0'; wait for 1 ns;\n\
             assert q = \"0000\" report \"Test Case 3 Failed: reset release must not clock\" severity error;\n\
             report \"ok\"; wait;\nend process;\nend architecture;\n",
            "tb",
        );
        assert_eq!(r.error_count, 0, "log: {}", r.log_text());
    }

    #[test]
    fn case_statement_mux() {
        let (r, _) = sim(
            "entity mux is port (s : in std_logic_vector(1 downto 0);\n\
             d : in std_logic_vector(3 downto 0); y : out std_logic); end entity;\n\
             architecture rtl of mux is begin\n\
             process (s, d)\n  begin\n    case s is\n\
             when \"00\" => y <= d(0);\n      when \"01\" => y <= d(1);\n\
             when \"10\" => y <= d(2);\n      when others => y <= d(3);\n\
             end case;\n  end process;\nend architecture;\n\
             entity tb is end entity;\narchitecture sim of tb is\n\
             signal s : std_logic_vector(1 downto 0);\n\
             signal d : std_logic_vector(3 downto 0) := \"1010\";\n  signal y : std_logic;\n\
             begin\n  dut: entity work.mux port map (s => s, d => d, y => y);\n\
             process\nbegin\n  s <= \"00\"; wait for 1 ns;\n\
             assert y = '0' report \"tc0\" severity error;\n\
             s <= \"01\"; wait for 1 ns;\n  assert y = '1' report \"tc1\" severity error;\n\
             s <= \"10\"; wait for 1 ns;\n  assert y = '0' report \"tc2\" severity error;\n\
             s <= \"11\"; wait for 1 ns;\n  assert y = '1' report \"tc3\" severity error;\n\
             wait;\nend process;\nend architecture;\n",
            "tb",
        );
        assert_eq!(r.error_count, 0, "log: {}", r.log_text());
    }

    #[test]
    fn failing_assert_counts_errors() {
        let (r, _) = sim(
            "entity tb is end entity;\narchitecture sim of tb is\n\
             signal x : std_logic := '0';\nbegin\n  process\nbegin\n  wait for 1 ns;\n\
             assert x = '1' report \"Test Case 1 Failed: x should be 1\" severity error;\n\
             wait;\nend process;\nend architecture;\n",
            "tb",
        );
        assert_eq!(r.error_count, 1);
        assert!(r.log_text().contains("Test Case 1 Failed"));
    }

    #[test]
    fn severity_failure_stops_simulation() {
        let (r, _) = sim(
            "entity tb is end entity;\narchitecture sim of tb is\nbegin\n  process\nbegin\n\
             report \"fatal condition\" severity failure;\n  wait for 100 ns;\n\
             report \"unreachable\";\n  wait;\nend process;\nend architecture;\n",
            "tb",
        );
        assert!(r.finished);
        assert_eq!(r.error_count, 1);
        assert!(!r.log_text().contains("unreachable"));
    }

    #[test]
    fn undeclared_signal_is_error() {
        let mut sources = SourceMap::new();
        sources.add_file(
            "t.vhd",
            "entity e is port (y : out std_logic); end entity;\n\
             architecture a of e is begin y <= ghost; end architecture;\n",
        );
        let err = compile(&sources, "e").expect_err("must fail");
        let log = err.render(&sources);
        assert!(log.contains("ghost"), "{log}");
        assert!(log.contains("[t.vhd:2]"), "{log}");
    }

    #[test]
    fn missing_semicolon_reports_line() {
        let mut sources = SourceMap::new();
        sources.add_file(
            "c.vhd",
            "entity e is\n  port (a : in std_logic)\nend entity;\n",
        );
        let err = compile(&sources, "e").expect_err("must fail");
        let log = err.render(&sources);
        assert!(log.contains("ERROR: [VRFC"), "{log}");
        assert!(log.contains("c.vhd"), "{log}");
    }

    #[test]
    fn wait_until_rising_edge() {
        let (r, _) = sim(
            "entity tb is end entity;\narchitecture sim of tb is\n\
             signal clk : std_logic := '0';\n  signal hits : integer := 0;\nbegin\n\
             clkgen: process\nbegin\n  wait for 5 ns;\n  clk <= not clk;\n\
             wait for 5 ns;\n  clk <= not clk;\n  wait for 5 ns;\n  clk <= not clk;\n  wait;\n\
             end process;\n\
             watcher: process\nbegin\n  wait until rising_edge(clk);\n  hits <= hits + 1;\n\
             wait until rising_edge(clk);\n  hits <= hits + 1;\n\
             wait for 1 ns;\n\
             assert hits = 2 report \"Test Case 1 Failed: expected 2 rising edges\" severity error;\n\
             report \"done\";\n  wait;\nend process;\nend architecture;\n",
            "tb",
        );
        assert_eq!(r.error_count, 0, "log: {}", r.log_text());
        assert!(r.log_text().contains("done"));
    }

    #[test]
    fn generics_and_maps_apply() {
        let (r, design) = sim(
            "entity wideand is\n  generic (w : integer := 2);\n\
             port (a : in std_logic_vector(w-1 downto 0); y : out std_logic);\nend entity;\n\
             architecture rtl of wideand is\nbegin\n\
             y <= '1' when a = \"11111111\" else '0';\nend architecture;\n\
             entity tb is end entity;\narchitecture sim of tb is\n\
             signal a : std_logic_vector(7 downto 0);\n  signal y : std_logic;\nbegin\n\
             dut: entity work.wideand generic map (w => 8) port map (a => a, y => y);\n\
             process\nbegin\n  a <= x\"FF\";\n  wait for 1 ns;\n\
             assert y = '1' report \"tc1\" severity error;\n\
             a <= x\"7F\";\n  wait for 1 ns;\n  assert y = '0' report \"tc2\" severity error;\n\
             wait;\nend process;\nend architecture;\n",
            "tb",
        );
        assert_eq!(r.error_count, 0, "log: {}", r.log_text());
        assert!(design.find_net("dut.a").is_some());
    }

    #[test]
    fn find_top_prefers_testbench() {
        let mut sources = SourceMap::new();
        sources.add_file(
            "t.vhd",
            "entity leaf is end entity;\narchitecture a of leaf is begin end architecture;\n\
             entity tb is end entity;\narchitecture s of tb is begin\n\
             u: entity work.leaf port map (x => '0');\nend architecture;\n",
        );
        let (file, _) = analyze(&sources);
        assert_eq!(find_top(&file).as_deref(), Some("tb"));
    }

    #[test]
    fn for_loop_accumulates() {
        let (r, _) = sim(
            "entity tb is end entity;\narchitecture sim of tb is\n\
             signal acc : integer := 0;\nbegin\n  process\n  begin\n\
             for i in 1 to 4 loop\n      acc <= acc + i;\n      wait for 1 ns;\n\
             end loop;\n\
             assert acc = 10 report \"Test Case 1 Failed: sum 1..4\" severity error;\n\
             wait;\n  end process;\nend architecture;\n",
            "tb",
        );
        assert_eq!(r.error_count, 0, "log: {}", r.log_text());
    }
}

#[cfg(test)]
mod variable_tests {
    use super::*;
    use aivril_sim::{SimConfig, Simulator};

    #[test]
    fn process_variables_have_immediate_semantics() {
        // A variable updates immediately within the activation; a signal
        // would not. The classic popcount-with-variable idiom.
        let src = "\
entity ones is
  port (d : in std_logic_vector(3 downto 0); n : out std_logic_vector(2 downto 0));
end entity;
architecture rtl of ones is
begin
  process (d)
    variable acc : std_logic_vector(2 downto 0);
  begin
    acc := \"000\";
    for i in 0 to 3 loop
      if d(i) = '1' then
        acc := acc + 1;
      end if;
    end loop;
    n <= acc;
  end process;
end architecture;
entity tb is end entity;
architecture sim of tb is
  signal d : std_logic_vector(3 downto 0);
  signal n : std_logic_vector(2 downto 0);
begin
  dut: entity work.ones port map (d => d, n => n);
  process
  begin
    d <= \"1011\"; wait for 1 ns;
    assert n = \"011\" report \"Test Case 1 Failed: expected 3\" severity error;
    d <= \"0000\"; wait for 1 ns;
    assert n = \"000\" report \"Test Case 2 Failed: expected 0\" severity error;
    d <= \"1111\"; wait for 1 ns;
    assert n = \"100\" report \"Test Case 3 Failed: expected 4\" severity error;
    report \"All tests passed successfully!\";
    wait;
  end process;
end architecture;
";
        let mut sources = SourceMap::new();
        sources.add_file("t.vhd", src);
        let design = match compile(&sources, "tb") {
            Ok(d) => d,
            Err(e) => panic!("{}", e.render(&sources)),
        };
        let r = Simulator::new(&design, SimConfig::default()).run();
        assert_eq!(r.error_count, 0, "log: {}", r.log_text());
        assert!(r.log_text().contains("All tests passed"));
    }

    #[test]
    fn variables_persist_across_activations() {
        // A variable keeps its value between process runs (LRM 10.x):
        // count rising edges into a variable, expose via a signal.
        let src = "\
entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
  signal total : std_logic_vector(3 downto 0);
begin
  counterp: process (clk)
    variable seen : std_logic_vector(3 downto 0) := \"0000\";
  begin
    if rising_edge(clk) then
      seen := seen + 1;
    end if;
    total <= seen;
  end process;
  stim: process
  begin
    clk <= '1'; wait for 1 ns; clk <= '0'; wait for 1 ns;
    clk <= '1'; wait for 1 ns; clk <= '0'; wait for 1 ns;
    clk <= '1'; wait for 1 ns;
    assert total = \"0011\" report \"Test Case 1 Failed: three rising edges seen\" severity error;
    wait for 1 ns;
    assert total = \"0011\" report \"Test Case 2 Failed: count must hold\" severity error;
    report \"All tests passed successfully!\";
    wait;
  end process;
end architecture;
";
        let mut sources = SourceMap::new();
        sources.add_file("t.vhd", src);
        let design = match compile(&sources, "tb") {
            Ok(d) => d,
            Err(e) => panic!("{}", e.render(&sources)),
        };
        let r = Simulator::new(&design, SimConfig::default()).run();
        assert_eq!(r.error_count, 0, "log: {}", r.log_text());
    }
}
