//! Problem construction: DUT codegen + self-checking testbench
//! generation for both languages, from a family-provided spec and a
//! Rust golden model.

use crate::port::{push_u32, Lit, Port, SplitMix};
use crate::{Difficulty, Family, GoldenPair, Problem};

/// Description of a combinational problem, provided by a family module.
pub struct CombSpec {
    /// Short name, e.g. `mux4to1_w8` (the builder prefixes the id).
    pub name: String,
    /// Family tag.
    pub family: Family,
    /// Difficulty bucket.
    pub difficulty: Difficulty,
    /// Behavioural description used in the prompt.
    pub description: String,
    /// Input ports.
    pub inputs: Vec<Port>,
    /// Output ports.
    pub outputs: Vec<Port>,
    /// Verilog module body (between header and `endmodule`).
    pub vlog_body: String,
    /// `true` when the body drives outputs procedurally (`always @*`),
    /// so the ports must be declared `reg`.
    pub vlog_out_reg: bool,
    /// VHDL architecture body.
    pub vhdl_body: String,
    /// Extra VHDL declarations (signals) for the architecture.
    pub vhdl_decls: String,
    /// Golden model: input values → output values.
    pub eval: GoldenEval,
}

/// A boxed golden-model function: writes the output values for one
/// input vector into a caller's slice, one value per output port.
pub type GoldenEval = Box<dyn Fn(&[u64], &mut [u64])>;

#[cfg(test)]
impl CombSpec {
    /// The golden model's outputs for one input vector.
    pub(crate) fn golden(&self, inputs: &[u64]) -> Vec<u64> {
        let mut outputs = vec![0; self.outputs.len()];
        (self.eval)(inputs, &mut outputs);
        outputs
    }
}

/// Description of a sequential (posedge-clocked, Moore-style) problem.
pub struct SeqSpec {
    /// Short name.
    pub name: String,
    /// Family tag.
    pub family: Family,
    /// Difficulty bucket.
    pub difficulty: Difficulty,
    /// Behavioural description used in the prompt.
    pub description: String,
    /// Input ports, excluding the implicit `clk`.
    pub inputs: Vec<Port>,
    /// Output ports (registered).
    pub outputs: Vec<Port>,
    /// Verilog module body.
    pub vlog_body: String,
    /// VHDL architecture body.
    pub vhdl_body: String,
    /// Extra VHDL declarations.
    pub vhdl_decls: String,
    /// Per-cycle input values (sampled at each rising edge).
    pub stimulus: Vec<Vec<u64>>,
    /// Per-cycle expected outputs *after* the rising edge; `None` skips
    /// the check for that cycle.
    pub expected: Vec<Option<Vec<u64>>>,
}

/// Appends the combinational problem `spec` to `problems`, at the next
/// suite index.
pub fn push_comb(problems: &mut Vec<Problem>, spec: CombSpec) {
    problems.push(comb_problem(problems.len(), spec));
}

/// Appends the sequential problem `spec` to `problems`, at the next
/// suite index.
pub fn push_seq(problems: &mut Vec<Problem>, spec: SeqSpec) {
    problems.push(seq_problem(problems.len(), spec));
}

/// Builds a combinational [`Problem`] with suite index `id`.
fn comb_problem(id: usize, spec: CombSpec) -> Problem {
    let width = spec.inputs.len();
    let vectors = choose_vectors(&spec.inputs, &spec.name);
    let outputs = spec.outputs.len();
    let mut expected = vec![0; vectors.len() / width.max(1) * outputs];
    for (v, out) in vectors
        .chunks_exact(width.max(1))
        .zip(expected.chunks_exact_mut(outputs.max(1)))
    {
        (spec.eval)(&v[..width], out);
    }
    let steps = || {
        vectors
            .chunks_exact(width.max(1))
            .map(|v| &v[..width])
            .zip(expected.chunks_exact(spec.outputs.len().max(1)).map(Some))
    };
    Description {
        name: &spec.name,
        family: spec.family,
        difficulty: spec.difficulty,
        description: &spec.description,
        inputs: &spec.inputs,
        outputs: &spec.outputs,
        vlog_body: &spec.vlog_body,
        vlog_out_reg: spec.vlog_out_reg,
        vhdl_decls: &spec.vhdl_decls,
        vhdl_body: &spec.vhdl_body,
        seq: false,
    }
    .problem(id, steps)
}

/// Builds a sequential [`Problem`] with suite index `id`.
fn seq_problem(id: usize, spec: SeqSpec) -> Problem {
    assert_eq!(
        spec.stimulus.len(),
        spec.expected.len(),
        "stimulus and expected timelines must align"
    );
    let steps = || {
        spec.stimulus
            .iter()
            .map(Vec::as_slice)
            .zip(spec.expected.iter().map(Option::as_deref))
    };
    Description {
        name: &spec.name,
        family: spec.family,
        difficulty: spec.difficulty,
        description: &spec.description,
        inputs: &spec.inputs,
        outputs: &spec.outputs,
        vlog_body: &spec.vlog_body,
        vlog_out_reg: true,
        vhdl_decls: &spec.vhdl_decls,
        vhdl_body: &spec.vhdl_body,
        seq: true,
    }
    .problem(id, steps)
}

/// One testbench step: input values, and the expected outputs (`None`
/// skips the checks of that step).
type Step<'a> = (&'a [u64], Option<&'a [u64]>);

/// A problem description as the text generators read it, borrowed from
/// a [`CombSpec`] or a [`SeqSpec`]. Every text is written straight into
/// one buffer sized up front: no `format!` per line and no `String` per
/// literal, range or connection list.
struct Description<'a> {
    name: &'a str,
    family: Family,
    difficulty: Difficulty,
    description: &'a str,
    inputs: &'a [Port],
    outputs: &'a [Port],
    vlog_body: &'a str,
    /// Outputs are declared `reg` (driven procedurally).
    vlog_out_reg: bool,
    vhdl_decls: &'a str,
    vhdl_body: &'a str,
    /// Clocked: a `clk` input, and a testbench that drives the clock.
    seq: bool,
}

impl Description<'_> {
    /// The problem with suite index `id`; `steps` yields the testbench
    /// steps, once per language.
    fn problem<'s, I>(&self, id: usize, steps: impl Fn() -> I) -> Problem
    where
        I: ExactSizeIterator<Item = Step<'s>>,
    {
        let mut name = String::with_capacity(8 + self.name.len());
        push_problem_name(&mut name, id, self.name);
        Problem {
            id,
            name,
            family: self.family,
            difficulty: self.difficulty,
            spec: self.prompt(id),
            module_name: self.name.to_owned(),
            verilog: GoldenPair {
                dut: self.vlog_dut().into(),
                tb: self.vlog_tb(steps()).into(),
            },
            vhdl: GoldenPair {
                dut: self.vhdl_dut().into(),
                tb: self.vhdl_tb(steps()).into(),
            },
        }
    }

    /// An upper bound on the bytes of the port lists, `per_port` bytes
    /// of fixed text and three copies of the name each.
    fn ports_len(&self, per_port: usize) -> usize {
        self.inputs
            .iter()
            .chain(self.outputs)
            .map(|p| 3 * p.name.len() + per_port)
            .sum()
    }

    // ------------------------------------------------------- prompt

    fn prompt(&self, id: usize) -> String {
        let mut s = String::with_capacity(
            256 + 2 * self.name.len() + self.description.len() + self.ports_len(32),
        );
        s.push_str("Design task: ");
        push_problem_name(&mut s, id, self.name);
        s.push_str(".\nImplement a hardware module named `");
        s.push_str(self.name);
        s.push_str("` with the following interface:\n");
        if self.seq {
            s.push_str("  - input clk (1 bit): clock\n");
        }
        for (dir, ports) in [("input", self.inputs), ("output", self.outputs)] {
            for p in ports {
                s.push_str("  - ");
                s.push_str(dir);
                s.push(' ');
                s.push_str(&p.name);
                s.push_str(" (");
                push_u32(&mut s, p.width);
                s.push_str(if p.width == 1 { " bit)\n" } else { " bits)\n" });
            }
        }
        s.push_str("Behaviour: ");
        s.push_str(self.description);
        s.push('\n');
        if self.seq {
            s.push_str(
                "All state updates occur on the rising edge of `clk`; outputs are registered.\n",
            );
        }
        s
    }

    // ---------------------------------------------------------- DUTs

    fn vlog_dut(&self) -> String {
        let mut s =
            String::with_capacity(64 + self.name.len() + self.vlog_body.len() + self.ports_len(40));
        s.push_str("module ");
        s.push_str(self.name);
        s.push_str("(\n");
        let mut sep = "";
        if self.seq {
            s.push_str("  input wire clk");
            sep = ",\n";
        }
        let out_kind = if self.vlog_out_reg {
            "  output reg "
        } else {
            "  output wire "
        };
        for (kind, ports) in [("  input wire ", self.inputs), (out_kind, self.outputs)] {
            for p in ports {
                s.push_str(sep);
                s.push_str(kind);
                p.push_vlog_range(&mut s);
                s.push_str(&p.name);
                sep = ",\n";
            }
        }
        s.push_str("\n);\n");
        s.push_str(self.vlog_body);
        s.push_str("endmodule\n");
        s
    }

    fn vhdl_dut(&self) -> String {
        let mut s = String::with_capacity(
            VHDL_LIBS.len()
                + 128
                + 2 * self.name.len()
                + self.vhdl_decls.len()
                + self.vhdl_body.len()
                + self.ports_len(64),
        );
        s.push_str(VHDL_LIBS);
        s.push_str("entity ");
        s.push_str(self.name);
        s.push_str(" is\n  port (\n");
        let mut sep = "";
        if self.seq {
            s.push_str("    clk : in std_logic");
            sep = ";\n";
        }
        for (dir, ports) in [(" : in ", self.inputs), (" : out ", self.outputs)] {
            for p in ports {
                s.push_str(sep);
                s.push_str("    ");
                s.push_str(&p.name);
                s.push_str(dir);
                p.push_vhdl_type(&mut s);
                sep = ";\n";
            }
        }
        s.push_str("\n  );\nend entity;\n\narchitecture rtl of ");
        s.push_str(self.name);
        s.push_str(" is\n");
        s.push_str(self.vhdl_decls);
        s.push_str("begin\n");
        s.push_str(self.vhdl_body);
        s.push_str("end architecture;\n");
        s
    }

    // --------------------------------------------------- testbenches
    //
    // A combinational testbench applies each vector and checks the
    // outputs 10 time units later; a sequential one drives a clock,
    // applies each cycle's inputs before the rising edge and checks the
    // registered outputs after it.

    /// An upper bound on the bytes of a testbench over `steps` steps, so
    /// the text is written into one allocation. `check` and `step` are
    /// the language's fixed bytes per output check (case number
    /// included) and per step (timing and clock lines).
    fn tb_capacity(&self, steps: usize, check: usize, step: usize) -> usize {
        let inputs: usize = self
            .inputs
            .iter()
            .map(|p| p.name.len() + p.width as usize + 16)
            .sum();
        let checks: usize = self
            .outputs
            .iter()
            .map(|p| 3 * p.name.len() + 2 * p.width as usize + check)
            .sum();
        512 + self.name.len() + self.ports_len(48) + steps * (inputs + checks + step)
    }

    fn vlog_tb<'s>(&self, steps: impl ExactSizeIterator<Item = Step<'s>>) -> String {
        let mut s = String::with_capacity(self.tb_capacity(steps.len(), 112, 48));
        s.push_str(if self.seq {
            "module tb;\n  reg clk;\n"
        } else {
            "module tb;\n"
        });
        for (kind, ports) in [("  reg ", self.inputs), ("  wire ", self.outputs)] {
            for p in ports {
                s.push_str(kind);
                p.push_vlog_range(&mut s);
                s.push_str(&p.name);
                s.push_str(";\n");
            }
        }
        s.push_str("  ");
        s.push_str(self.name);
        s.push_str(if self.seq {
            " dut(.clk(clk), "
        } else {
            " dut("
        });
        let mut sep = "";
        for p in self.inputs.iter().chain(self.outputs) {
            s.push_str(sep);
            s.push('.');
            s.push_str(&p.name);
            s.push('(');
            s.push_str(&p.name);
            s.push(')');
            sep = ", ";
        }
        s.push_str(");\n  integer errors;\n  initial begin\n    errors = 0;\n");
        if self.seq {
            s.push_str("    clk = 0;\n");
        }
        let mut case_no = 1u32;
        for (vec, exp) in steps {
            for (p, &v) in self.inputs.iter().zip(vec) {
                s.push_str("    ");
                s.push_str(&p.name);
                s.push_str(" = ");
                s.push_str(Lit::vlog(p.width, v).as_str());
                s.push_str(";\n");
            }
            s.push_str(if self.seq {
                "    #4; clk = 1;\n    #2;\n"
            } else {
                "    #10;\n"
            });
            for (p, &e) in self.outputs.iter().zip(exp.unwrap_or_default()) {
                let lit = Lit::vlog(p.width, e);
                s.push_str("    if (");
                s.push_str(&p.name);
                s.push_str(" !== ");
                s.push_str(lit.as_str());
                s.push_str(") begin $error(\"Test Case ");
                push_u32(&mut s, case_no);
                s.push_str(" Failed: ");
                s.push_str(&p.name);
                s.push_str(" should be ");
                s.push_str(lit.as_str());
                s.push_str(", got %b\", ");
                s.push_str(&p.name);
                s.push_str("); errors = errors + 1; end\n");
                case_no += 1;
            }
            if self.seq {
                // The extra #1 separates next-cycle input changes from
                // the falling edge, so a wrong-clock-edge fault samples
                // stale inputs and is caught by the checks.
                s.push_str("    #3; clk = 0;\n    #1;\n");
            }
        }
        s.push_str(
            "    if (errors == 0) $display(\"All tests passed successfully!\");\n\
             \x20   else $display(\"%0d test case(s) failed.\", errors);\n\
             \x20   $finish;\n  end\nendmodule\n",
        );
        s
    }

    fn vhdl_tb<'s>(&self, steps: impl ExactSizeIterator<Item = Step<'s>>) -> String {
        let mut s = String::with_capacity(self.tb_capacity(steps.len(), 84, 102));
        s.push_str(VHDL_LIBS);
        s.push_str("entity tb is\nend entity;\n\narchitecture sim of tb is\n");
        if self.seq {
            s.push_str("  signal clk : std_logic := '0';\n");
        }
        for p in self.inputs.iter().chain(self.outputs) {
            s.push_str("  signal ");
            s.push_str(&p.name);
            s.push_str(" : ");
            p.push_vhdl_type(&mut s);
            s.push_str(";\n");
        }
        s.push_str("begin\n  dut: entity work.");
        s.push_str(self.name);
        s.push_str(if self.seq {
            " port map (clk => clk, "
        } else {
            " port map ("
        });
        let mut sep = "";
        for p in self.inputs.iter().chain(self.outputs) {
            s.push_str(sep);
            s.push_str(&p.name);
            s.push_str(" => ");
            s.push_str(&p.name);
            sep = ", ";
        }
        s.push_str(");\n\n  stim: process\n  begin\n");
        let mut case_no = 1u32;
        for (vec, exp) in steps {
            for (p, &v) in self.inputs.iter().zip(vec) {
                s.push_str("    ");
                s.push_str(&p.name);
                s.push_str(" <= ");
                s.push_str(Lit::vhdl(p.width, v).as_str());
                s.push_str(";\n");
            }
            s.push_str(if self.seq {
                "    wait for 4 ns;\n    clk <= '1';\n    wait for 2 ns;\n"
            } else {
                "    wait for 10 ns;\n"
            });
            for (p, &e) in self.outputs.iter().zip(exp.unwrap_or_default()) {
                let lit = Lit::vhdl(p.width, e);
                s.push_str("    assert ");
                s.push_str(&p.name);
                s.push_str(" = ");
                s.push_str(lit.as_str());
                s.push_str(" report \"Test Case ");
                push_u32(&mut s, case_no);
                s.push_str(" Failed: ");
                s.push_str(&p.name);
                s.push_str(" should be ");
                // Without its double quotes, so the literal can sit
                // inside the report string.
                s.push_str(lit.as_str().trim_matches('"'));
                s.push_str("\" severity error;\n");
                case_no += 1;
            }
            if self.seq {
                s.push_str("    wait for 3 ns;\n    clk <= '0';\n    wait for 1 ns;\n");
            }
        }
        s.push_str(
            "    report \"All tests passed successfully!\" severity note;\n    wait;\n\
             \x20 end process;\nend architecture;\n",
        );
        s
    }
}

const VHDL_LIBS: &str =
    "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n";

/// Appends the unique suite name, `prob{id:03}_{module}`.
fn push_problem_name(s: &mut String, id: usize, module: &str) {
    let id = u32::try_from(id).expect("suite index fits in u32");
    s.push_str("prob");
    s.push_str(&"00"[..usize::from(id < 10) + usize::from(id < 100)]);
    push_u32(s, id);
    s.push('_');
    s.push_str(module);
}

// ------------------------------------------------------ vector choice

/// Exhaustive when the input space is at most 2^10, otherwise 64 seeded
/// pseudo-random vectors with the all-zeros / all-ones corners pinned.
/// Vectors are stored flat, `inputs.len()` values each (one placeholder
/// value for a problem without inputs).
fn choose_vectors(inputs: &[Port], name: &str) -> Vec<u64> {
    let total_bits: u32 = inputs.iter().map(|p| p.width).sum();
    if total_bits <= 10 {
        let count = 1u64 << total_bits;
        let mut vectors = Vec::with_capacity(count as usize * inputs.len().max(1));
        for n in 0..count {
            let mut shift = 0;
            for p in inputs {
                vectors.push((n >> shift) & mask(p.width));
                shift += p.width;
            }
            if inputs.is_empty() {
                vectors.push(0);
            }
        }
        vectors
    } else {
        let seed = name.bytes().fold(0xA5A5u64, |h, b| {
            h.wrapping_mul(0x100000001B3).wrapping_add(u64::from(b))
        });
        let mut rng = SplitMix::new(seed);
        let mut vectors = Vec::with_capacity(64 * inputs.len());
        vectors.extend(inputs.iter().map(|_| 0u64));
        vectors.extend(inputs.iter().map(|p| mask(p.width)));
        for _ in 0..62 {
            vectors.extend(inputs.iter().map(|p| rng.bits(p.width)));
        }
        vectors
    }
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_comb() -> CombSpec {
        CombSpec {
            name: "andgate".into(),
            family: Family::Gates,
            difficulty: Difficulty::Easy,
            description: "y is the logical AND of a and b.".into(),
            inputs: vec![Port::new("a", 1), Port::new("b", 1)],
            outputs: vec![Port::new("y", 1)],
            vlog_body: "  assign y = a & b;\n".into(),
            vlog_out_reg: false,
            vhdl_body: "  y <= a and b;\n".into(),
            vhdl_decls: String::new(),
            eval: Box::new(|v, out| out.copy_from_slice(&[v[0] & v[1]])),
        }
    }

    #[test]
    fn comb_problem_generates_exhaustive_tb() {
        let p = comb_problem(0, tiny_comb());
        // 2 inputs → 4 vectors → 4 checks in each testbench.
        assert_eq!(p.verilog.tb.matches("Test Case").count(), 4);
        assert_eq!(p.vhdl.tb.matches("Test Case").count(), 4);
        assert!(p.verilog.dut.contains("module andgate("));
        assert!(p.vhdl.dut.contains("entity andgate is"));
        assert!(p.spec.contains("input a (1 bit)"));
    }

    #[test]
    fn wide_inputs_use_sampled_vectors() {
        let spec = CombSpec {
            name: "wide".into(),
            family: Family::Adder,
            difficulty: Difficulty::Medium,
            description: "sum".into(),
            inputs: vec![Port::new("a", 8), Port::new("b", 8)],
            outputs: vec![Port::new("y", 8)],
            vlog_body: "  assign y = a + b;\n".into(),
            vlog_out_reg: false,
            vhdl_body: "  y <= std_logic_vector(unsigned(a) + unsigned(b));\n".into(),
            vhdl_decls: String::new(),
            eval: Box::new(|v, out| out.copy_from_slice(&[(v[0] + v[1]) & 0xFF])),
        };
        let p = comb_problem(0, spec);
        assert_eq!(p.verilog.tb.matches("Test Case").count(), 64);
    }

    #[test]
    fn seq_problem_timeline_checks() {
        let spec = SeqSpec {
            name: "dff".into(),
            family: Family::ShiftRegister,
            difficulty: Difficulty::Medium,
            description: "q follows d one cycle later.".into(),
            inputs: vec![Port::new("d", 1)],
            outputs: vec![Port::new("q", 1)],
            vlog_body: "  always @(posedge clk) q <= d;\n".into(),
            vhdl_body: "  process (clk)\n  begin\n    if rising_edge(clk) then\n      q <= d;\n    end if;\n  end process;\n".into(),
            vhdl_decls: String::new(),
            stimulus: vec![vec![1], vec![0], vec![1]],
            expected: vec![Some(vec![1]), Some(vec![0]), Some(vec![1])],
        };
        let p = seq_problem(0, spec);
        assert_eq!(p.verilog.tb.matches("Test Case").count(), 3);
        assert!(p.verilog.dut.contains("input wire clk"));
        assert!(p.vhdl.tb.contains("clk <= '1';"));
        assert!(p.spec.contains("rising edge"));
    }

    #[test]
    #[should_panic(expected = "timelines must align")]
    fn seq_timeline_mismatch_panics() {
        let spec = SeqSpec {
            name: "bad".into(),
            family: Family::Counter,
            difficulty: Difficulty::Easy,
            description: String::new(),
            inputs: vec![],
            outputs: vec![Port::new("q", 1)],
            vlog_body: String::new(),
            vhdl_body: String::new(),
            vhdl_decls: String::new(),
            stimulus: vec![vec![]],
            expected: vec![],
        };
        let _ = seq_problem(0, spec);
    }
}
