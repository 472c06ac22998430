//! The paper's published numbers, each written once.
//!
//! Table 1's twelve cells, Table 2's literature rows, the 3.4× claim
//! over ChipNemo-13B and Fig. 3's reference points live here and
//! nowhere else. The figure binaries render their "paper reference"
//! text from this module, and the tests read their targets from it.
//! Values are stored as printed in the paper, including Δ_F, which the
//! paper truncates to two decimals where rounding the ratio of its rows
//! would give 45.77/41.24/116.33.

use std::fmt::Write as _;

/// One Table 1 cell: a configuration on one language (percentages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// pass@1_S.
    pub pass1_s: f64,
    /// pass@1_F.
    pub pass1_f: f64,
    /// Δ_F as printed; `None` on baseline rows and where the paper
    /// prints N/A (a zero baseline).
    pub delta_f: Option<f64>,
}

/// One Table 1 row: a configuration on Verilog and on VHDL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// The Verilog cell.
    pub verilog: Cell,
    /// The VHDL cell.
    pub vhdl: Cell,
}

impl Row {
    /// The cell for `verilog`-or-VHDL.
    #[must_use]
    pub fn lang(&self, verilog: bool) -> &Cell {
        if verilog {
            &self.verilog
        } else {
            &self.vhdl
        }
    }
}

/// One of the study's three models: its two Table 1 rows and how the
/// paper names it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Model {
    /// The name in Table 1, also the model profile's name.
    pub name: &'static str,
    /// The short name of the reference lines (`Llama3`, `Claude`).
    pub short: &'static str,
    /// Model license regime, as in Table 2.
    pub license: &'static str,
    /// The zero-shot row.
    pub baseline: Row,
    /// The AIVRIL2 row.
    pub aivril2: Row,
}

const fn row(verilog: Cell, vhdl: Cell) -> Row {
    Row { verilog, vhdl }
}

const fn cell(pass1_s: f64, pass1_f: f64, delta_f: Option<f64>) -> Cell {
    Cell {
        pass1_s,
        pass1_f,
        delta_f,
    }
}

/// Llama3-70B's Table 1 rows.
pub const LLAMA3_70B: Model = Model {
    name: "Llama3-70B",
    short: "Llama3",
    license: "Open Source",
    baseline: row(cell(71.15, 37.82, None), cell(1.28, 0.0, None)),
    aivril2: row(cell(100.0, 55.13, Some(45.76)), cell(58.87, 32.69, None)),
};

/// GPT-4o's Table 1 rows.
pub const GPT4O: Model = Model {
    name: "GPT-4o",
    short: "GPT-4o",
    license: "Closed Source",
    baseline: row(cell(71.79, 51.29, None), cell(39.1, 27.56, None)),
    aivril2: row(
        cell(100.0, 72.44, Some(41.23)),
        cell(100.0, 59.62, Some(116.32)),
    ),
};

/// Claude 3.5 Sonnet's Table 1 rows.
pub const CLAUDE35_SONNET: Model = Model {
    name: "Claude 3.5 Sonnet",
    short: "Claude",
    license: "Closed Source",
    baseline: row(cell(91.03, 60.23, None), cell(88.46, 53.85, None)),
    aivril2: row(
        cell(100.0, 77.0, Some(27.84)),
        cell(100.0, 66.0, Some(22.56)),
    ),
};

/// The three models in Table 1 order.
pub static MODELS: [Model; 3] = [LLAMA3_70B, GPT4O, CLAUDE35_SONNET];

/// The model Table 1 calls `name`.
#[must_use]
pub fn model(name: &str) -> Option<&'static Model> {
    MODELS.iter().find(|m| m.name == name)
}

/// One row of Table 2's literature block (Verilog pass@1_F, %).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiteratureEntry {
    /// System name as cited.
    pub name: &'static str,
    /// Model license regime.
    pub license: &'static str,
    /// Verilog pass@1_F (%) as published.
    pub pass1_f: f64,
}

/// ChipNemo-13B's Verilog pass@1_F, the base of the 3.4× claim.
pub const CHIPNEMO_13B_F: f64 = 22.4;

/// The paper's best case over ChipNemo-13B: AIVRIL2 (Claude) is 3.4×
/// its pass@1_F.
pub const BEST_OVER_CHIPNEMO_13B: f64 = 3.4;

const fn lit(name: &'static str, license: &'static str, pass1_f: f64) -> LiteratureEntry {
    LiteratureEntry {
        name,
        license,
        pass1_f,
    }
}

/// Table 2's literature rows in the paper's order. The three zero-shot
/// rows of the study's own models read Table 1's baseline Verilog
/// pass@1_F.
pub static TABLE2_LITERATURE: [LiteratureEntry; 11] = [
    lit(
        "Llama3-70B [17]",
        LLAMA3_70B.license,
        LLAMA3_70B.baseline.verilog.pass1_f,
    ),
    lit("CodeGen-16B [18]", "Open Source", 41.9),
    lit("CodeV-CodeQwen [6]", "Open Source", 53.2),
    lit("ChipNemo-13B [1]", "Closed Source", CHIPNEMO_13B_F),
    lit("ChipNemo-70B [1]", "Closed Source", 27.6),
    lit("CodeGen-16B-Verilog-SFT [5]", "Closed Source", 28.8),
    lit("RTLFixer [3]", "Closed Source", 36.8),
    lit("VeriAssist [4]", "Closed Source", 50.5),
    lit("GPT-4o [16]", GPT4O.license, GPT4O.baseline.verilog.pass1_f),
    lit(
        "Claude 3.5 Sonnet [15]",
        CLAUDE35_SONNET.license,
        CLAUDE35_SONNET.baseline.verilog.pass1_f,
    ),
    lit("AIVRIL [7]", "Closed Source", 67.3),
];

/// One reference point of Fig. 3 and Sec. 4.2: the latency ratio and
/// convergence cycles of one model × language.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure3Point {
    /// The model.
    pub model: &'static Model,
    /// Verilog (`true`) or VHDL.
    pub verilog: bool,
    /// AIVRIL2 latency over the baseline's (approximate, as stated).
    pub ratio: f64,
    /// Average syntax-loop cycles.
    pub syntax_cycles: f64,
    /// Average functional-loop cycles.
    pub functional_cycles: f64,
}

/// The largest gap: Llama3-70B on VHDL.
pub const FIGURE3_SLOWEST: Figure3Point = Figure3Point {
    model: &LLAMA3_70B,
    verilog: false,
    ratio: 6.0,
    syntax_cycles: 3.95,
    functional_cycles: 4.7,
};

/// The slowest configuration's average baseline and AIVRIL2 seconds.
pub const FIGURE3_SLOWEST_SECONDS: (f64, f64) = (6.68, 39.29);

/// The smallest gap: Claude 3.5 Sonnet on Verilog.
pub const FIGURE3_FASTEST: Figure3Point = Figure3Point {
    model: &CLAUDE35_SONNET,
    verilog: true,
    ratio: 2.0,
    syntax_cycles: 2.0,
    functional_cycles: 3.0,
};

/// The bound the paper states for the worst-case average AIVRIL2
/// latency, in seconds.
pub const FIGURE3_MAX_LATENCY_S: f64 = 42.0;

/// Formats a pass rate the way the reference lines print it: `100`
/// when exact, otherwise two decimals in five columns.
fn rate(v: f64) -> String {
    if v == 100.0 {
        "100".to_string()
    } else {
        format!("{v:5.2}")
    }
}

/// The "Paper reference (Table 1)" block the `table1` binary prints.
#[must_use]
pub fn table1_reference() -> String {
    let mut out = String::from("Paper reference (Table 1):\n");
    let rows = MODELS
        .iter()
        .map(|m| (m.name.to_string(), &m.baseline, false));
    let aivril2 = MODELS
        .iter()
        .map(|m| (format!("AIVRIL2({})", m.short), &m.aivril2, true));
    for (label, row, delta) in rows.chain(aivril2) {
        let lang = |c: &Cell| {
            let d = match (delta, c.delta_f) {
                (false, _) => String::new(),
                (true, Some(d)) => format!(" d{d:.2}"),
                (true, None) => " dN/A".to_string(),
            };
            format!("{}/{:5.2}{d}", rate(c.pass1_s), c.pass1_f)
        };
        let _ = writeln!(
            out,
            "  {label:<20} V {:<17}H {}",
            lang(&row.verilog),
            lang(&row.vhdl)
        );
    }
    out
}

/// The reference footer the `table2` binary prints under the table.
#[must_use]
pub fn table2_reference() -> String {
    let rows: Vec<String> = MODELS
        .iter()
        .map(|m| format!("{} ({})", m.aivril2.verilog.pass1_f, m.name))
        .collect();
    format!(
        "Paper reference: AIVRIL2 rows are {};\n\
         best case is {BEST_OVER_CHIPNEMO_13B}x ChipNemo-13B's {CHIPNEMO_13B_F}.\n",
        rows.join(", ")
    )
}

/// The reference lines the `figure3` binary prints after the chart,
/// given the measured worst-case average AIVRIL2 latency.
#[must_use]
pub fn figure3_reference(worst_s: f64) -> String {
    let (slow, fast) = (FIGURE3_SLOWEST, FIGURE3_FASTEST);
    let (base_s, aivril2_s) = FIGURE3_SLOWEST_SECONDS;
    let label = |p: Figure3Point| format!("{}/{}", p.model.short, crate::language_name(p.verilog));
    format!(
        "Worst-case average AIVRIL2 latency: {worst_s:.2}s \
         (paper: did not exceed {FIGURE3_MAX_LATENCY_S}s).\n\
         Paper reference points: {s} baseline {base_s}s vs ~{aivril2_s}s AIVRIL2 (~{}x);\n\
         {f} ~{}x; {s} cycles ~{} syntax + {} functional;\n\
         {f} cycles ~{} syntax + {} functional.\n",
        slow.ratio,
        fast.ratio,
        slow.syntax_cycles,
        slow.functional_cycles,
        fast.syntax_cycles,
        fast.functional_cycles,
        s = label(slow),
        f = label(fast),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta_f;

    #[test]
    fn printed_delta_f_truncates_the_ratio_of_the_rows() {
        // Recomputing Δ_F and rounding gives 45.77/41.24/116.33 where
        // the paper prints 45.76/41.23/116.32: it truncates.
        for m in &MODELS {
            for verilog in [true, false] {
                let (base, full) = (m.baseline.lang(verilog), m.aivril2.lang(verilog));
                let recomputed = delta_f(full.pass1_f, base.pass1_f);
                match (full.delta_f, recomputed) {
                    (Some(printed), Some(r)) => {
                        let truncated = (r * 100.0).floor() / 100.0;
                        assert!(
                            (truncated - printed).abs() < 1e-9,
                            "{}: {printed} vs {r}",
                            m.name
                        );
                    }
                    (None, None) => {}
                    other => panic!("{} {verilog}: {other:?}", m.name),
                }
            }
        }
    }

    #[test]
    fn models_resolve_by_table1_name() {
        assert_eq!(model("GPT-4o").map(|m| m.short), Some("GPT-4o"));
        assert!(model("GPT-5").is_none());
    }

    #[test]
    fn best_case_claim_rounds_from_the_rows() {
        let best = MODELS
            .iter()
            .map(|m| m.aivril2.verilog.pass1_f)
            .fold(0.0, f64::max);
        assert_eq!(
            format!("{:.1}", best / CHIPNEMO_13B_F),
            BEST_OVER_CHIPNEMO_13B.to_string()
        );
    }
}
