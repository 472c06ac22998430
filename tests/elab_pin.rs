//! Elaboration pin: digests of what the two HDL frontends produce for a
//! fixed set of sources, compared against committed constants.
//!
//! Each source set is compiled through `XsimToolSuite::compile_to_design`
//! (no cache), and the digest takes the compile log the Review Agent
//! reads, the success flag and the `Debug` rendering of the elaborated
//! design: every net, process name and instruction. A refactor of the
//! elaborators must leave every constant unchanged; a change that moves
//! one on purpose states why in its commit.

use aivril_eda::{HdlFile, XsimToolSuite};
use aivril_llm::mutate::{
    apply_fault, count_occurrences, functional_templates, syntax_templates, AppliedFault, Dialect,
    FaultKind, FaultTemplate,
};
use aivril_obs::siphash::SipHasher13;
use aivril_verilogeval::{suite, Problem};
use std::hash::Hasher;
use std::sync::Arc;

/// Running digest over compiles, with counts for the coverage checks.
struct Pin {
    tools: XsimToolSuite,
    hash: SipHasher13,
    compiles: usize,
    elaborated: usize,
}

impl Pin {
    fn new() -> Pin {
        Pin {
            tools: XsimToolSuite::new(),
            hash: SipHasher13::new(),
            compiles: 0,
            elaborated: 0,
        }
    }

    /// Compiles `files` (top found by the suite) into the digest and
    /// returns the log.
    fn compile(&mut self, files: &[HdlFile]) -> String {
        let (report, design) = self.tools.compile_to_design(files, None);
        let h = &mut self.hash;
        h.write_str_pinned(&report.log);
        h.write_u8(u8::from(report.success));
        match &design {
            Some(d) => h.write_str_pinned(&format!("{d:?}")),
            None => h.write_str_pinned("no design"),
        }
        self.compiles += 1;
        self.elaborated += usize::from(design.is_some());
        report.log
    }

    fn finish(self) -> u64 {
        self.hash.finish()
    }
}

fn ext(verilog: bool) -> &'static str {
    if verilog {
        "v"
    } else {
        "vhd"
    }
}

/// The DUT and testbench of `p`'s golden pair, either replaced.
fn pair(p: &Problem, verilog: bool, dut: Arc<str>, tb: Arc<str>) -> [HdlFile; 2] {
    let ext = ext(verilog);
    [
        HdlFile::new(format!("{}.{ext}", p.name), dut),
        HdlFile::new(format!("{}_tb.{ext}", p.name), tb),
    ]
}

fn assert_pinned(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: elaboration digest moved ({got:#018x}, pinned {want:#018x})"
    );
}

fn golden_pairs(verilog: bool) -> u64 {
    let mut pin = Pin::new();
    for p in suite() {
        let g = p.golden(verilog);
        pin.compile(&pair(&p, verilog, g.dut.clone(), g.tb.clone()));
    }
    assert_eq!(pin.compiles, 156);
    assert_eq!(pin.elaborated, 156, "every golden pair elaborates");
    pin.finish()
}

#[test]
fn verilog_golden_pairs_are_pinned() {
    assert_pinned("verilog golden", golden_pairs(true), 0xedf6_d84d_ffc6_703d);
}

#[test]
fn vhdl_golden_pairs_are_pinned() {
    assert_pinned("vhdl golden", golden_pairs(false), 0xeba7_8fff_d1d9_f128);
}

/// Every catalogue template that applies to the DUT or testbench of
/// every 6th problem, at its first and last occurrence: syntax
/// mutants exercise the error paths, functional ones the elaborated
/// designs of wrong logic.
fn mutants(verilog: bool) -> (u64, usize, usize) {
    let dialect = if verilog {
        Dialect::Verilog
    } else {
        Dialect::Vhdl
    };
    let catalogue: Vec<(&FaultTemplate, FaultKind)> = syntax_templates(dialect)
        .iter()
        .map(|t| (t, FaultKind::Syntax))
        .chain(
            functional_templates(dialect)
                .iter()
                .map(|t| (t, FaultKind::Functional)),
        )
        .collect();
    let mut pin = Pin::new();
    for p in suite().iter().filter(|p| p.id % 6 == 1) {
        let g = p.golden(verilog);
        for mutate_tb in [false, true] {
            let golden = if mutate_tb { &g.tb } else { &g.dut };
            for &(template, kind) in &catalogue {
                let n = count_occurrences(golden, template.pattern);
                let mut occurrences = vec![0, n.saturating_sub(1)];
                occurrences.dedup();
                for occurrence in occurrences.into_iter().filter(|_| n > 0) {
                    let fault = AppliedFault {
                        template: template.clone(),
                        occurrence,
                        kind,
                    };
                    let text: Arc<str> = apply_fault(golden, &fault).into();
                    let (dut, tb) = if mutate_tb {
                        (g.dut.clone(), text)
                    } else {
                        (text, g.tb.clone())
                    };
                    pin.compile(&pair(p, verilog, dut, tb));
                }
            }
        }
    }
    let (compiles, elaborated) = (pin.compiles, pin.elaborated);
    (pin.finish(), compiles, elaborated)
}

#[test]
fn verilog_mutants_are_pinned() {
    let (got, compiles, elaborated) = mutants(true);
    println!("verilog: {elaborated} of {compiles} mutants elaborate");
    assert!(compiles > 200, "{compiles} mutants");
    assert!(
        elaborated > 0 && elaborated < compiles,
        "{elaborated}/{compiles} elaborate"
    );
    assert_pinned("verilog mutants", got, 0x26e7_0b24_d368_ed9c);
}

#[test]
fn vhdl_mutants_are_pinned() {
    let (got, compiles, elaborated) = mutants(false);
    println!("vhdl: {elaborated} of {compiles} mutants elaborate");
    assert!(compiles > 200, "{compiles} mutants");
    assert!(
        elaborated > 0 && elaborated < compiles,
        "{elaborated}/{compiles} elaborate"
    );
    assert_pinned("vhdl mutants", got, 0x2d9c_7be3_7871_511b);
}

/// A testbench around `body` that declares the functions every case
/// below calls.
fn calls_tb(body: &str) -> String {
    format!(
        "module tb;\n\
         function [7:0] double;\n    input [7:0] v;\n    double = v * 2;\n  endfunction\n\
         function [7:0] quad;\n    input [7:0] v;\n    quad = double(double(v));\n  endfunction\n\
         function [3:0] low;\n    input [7:0] v;\n    input [1:0] s;\n\
         begin\n      if (s == 2'd0) low = v[3:0];\n      else low = v[7:4];\n    end\n  endfunction\n\
         function [7:0] rec;\n    input [7:0] v;\n    rec = rec(v) + 1;\n  endfunction\n\
         reg [7:0] a, y;\n  reg [3:0] n;\n  reg [7:0] mem [0:3];\n  integer i;\n\
         wire [7:0] w;\n\
         {body}\
         endmodule\n"
    )
}

/// Hand-written Verilog whose expressions call functions in every
/// context the elaborator tells apart: procedural statements, continuous
/// assignments, port connections, the contexts that forbid calls, and
/// the operators a call cannot feed.
const CALL_BODIES: &[&str] = &[
    // Nested calls in procedural code, one call feeding another's argument.
    "initial begin\n    a = 8'd3;\n    y = quad(double(a)) + double(a);\n    $display(\"%0d\", y);\n  end\n",
    // Calls under every expression form in a statement context.
    "initial begin\n    a = 8'd5;\n\
     y = ~double(a) ^ {double(a), low(a, 2'd1)};\n\
     y = a[0] ? low(a, 2'd0) : {2{low(a, 2'd1)}};\n\
     y = -quad(a) & {4{n[0]}};\n\
     if (double(a) > 8'd4) y = 8'd1;\n\
     for (i = 0; i < low(a, 2'd0); i = i + 1) n = n + 1;\n\
     while (double(n) < 8'd2) n = n + 1;\n\
     mem[low(a, 2'd0)] = quad(a);\n\
     mem[low(a, 2'd0)] <= double(a);\n\
     y = mem[double(a)];\n\
     $display(\"%d %h\", double(a), low(a, 2'd1));\n  end\n",
    // A call in a continuous assignment becomes an inferred process.
    "assign w = double(a) + low(a, 2'd1);\n  initial begin\n    a = 8'd9;\n    #1 $display(\"%0d\", w);\n  end\n",
    // A continuous assignment whose call truncates.
    "wire [3:0] narrow;\n  assign narrow = quad(a);\n",
    // Always blocks: sensitivity list and @*.
    "always @(a) y = double(a);\n  always @* n = low(y, 2'd0);\n",
    // Recursion.
    "initial y = rec(8'd1);\n",
    // `**`: constant, non-constant, and with call operands.
    "initial begin\n    y = 2 ** 3;\n    y = a ** 2;\n    y = double(a) ** 2;\n    y = 2 ** quad(a);\n  end\n",
    "assign w = double(a) ** 2;\n",
    // Contexts that do not take calls.
    "initial begin\n    case (double(a))\n      8'd0: y = 1;\n      quad(a): y = 2;\n    endcase\n  end\n",
    "initial begin\n    #(double(8'd2)) y = 1;\n  end\n",
    "initial begin\n    repeat (low(a, 2'd0)) y = y + 1;\n  end\n",
    "initial begin\n    wait (double(a) == 8'd4) y = 1;\n  end\n",
    "initial begin\n    y[low(a, 2'd0)] = 1'b1;\n  end\n",
    "initial begin\n    y = a[double(1):0];\n    y = {double(1){a[0]}};\n  end\n",
    // Misused calls.
    "initial begin\n    y = double(a, a);\n    y = ghost(a);\n  end\n",
];

#[test]
fn verilog_function_calls_are_pinned() {
    let mut pin = Pin::new();
    let mut logs = String::new();
    for body in CALL_BODIES {
        let log = pin.compile(&[HdlFile::new("calls_tb.v", calls_tb(body))]);
        if body.contains("rec(") {
            // The nesting error is the last word on a recursion: the
            // unwound levels add no warning of their own.
            let reported: Vec<&str> = log.lines().filter(|l| l.contains("[VRFC")).collect();
            assert_eq!(reported.len(), 1, "{log}");
            assert!(reported[0].contains("call nesting exceeds 16"), "{log}");
        }
        logs += &log;
    }
    // A call in a port connection lowers in the parent's scope.
    pin.compile(&[HdlFile::new(
        "port_tb.v",
        "module inc(input [7:0] x, output [7:0] z);\n  assign z = x + 1;\nendmodule\n\
         module tb;\n\
         function [7:0] double;\n    input [7:0] v;\n    double = v * 2;\n  endfunction\n\
         reg [7:0] a;\n  wire [7:0] z;\n  inc u(.x(double(a)), .z(z));\nendmodule\n",
    )]);
    assert_eq!(pin.compiles, CALL_BODIES.len() + 1);
    assert_eq!(pin.elaborated, 5);
    for reached in [
        "call nesting exceeds 16",
        "'**' requires constant operands",
        "'**' cannot take function-call operands",
        "function call 'double(...)' is not allowed in this context",
        "function call 'low(...)' is not allowed in this context",
        "expected a constant expression",
        "takes 1 argument(s), 2 given",
        "'ghost' is not a declared function",
    ] {
        assert!(logs.contains(reached), "no source reaches {reached:?}");
    }
    assert_pinned(
        "verilog function calls",
        pin.finish(),
        0x7827_9cb5_2c57_0189,
    );
}
