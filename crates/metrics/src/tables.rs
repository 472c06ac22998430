//! Result aggregation and ASCII rendering of Table 1, Table 2 and
//! Figure 3.

use crate::passk::suite_pass_at_k;

/// One evaluated sample of one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleOutcome {
    /// Final code compiled cleanly (scored against the benchmark's
    /// compiler, i.e. pass@1_S material).
    pub syntax: bool,
    /// Final code passed the benchmark's *reference* testbench
    /// (pass@1_F material).
    pub functional: bool,
    /// Modeled end-to-end seconds for the whole pipeline run.
    pub total_latency: f64,
    /// Seconds in generation + syntax loops.
    pub syntax_phase_latency: f64,
    /// Seconds in the functional loop.
    pub functional_phase_latency: f64,
    /// Corrective iterations taken by the syntax loops.
    pub syntax_iters: u32,
    /// Corrective iterations taken by the functional loop.
    pub functional_iters: u32,
    /// The pipeline panicked on this sample and was isolated by the
    /// harness; the run is scored as a failure on both axes.
    pub crashed: bool,
}

/// All samples of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    /// Task name.
    pub task: String,
    /// Per-sample results.
    pub samples: Vec<SampleOutcome>,
}

impl EvalOutcome {
    fn counts(&self, f: impl Fn(&SampleOutcome) -> bool) -> (u64, u64) {
        let n = self.samples.len() as u64;
        let c = self.samples.iter().filter(|s| f(s)).count() as u64;
        (n, c)
    }
}

/// Suite-level pass@k over a predicate (syntax or functional).
#[must_use]
pub fn suite_metric(
    outcomes: &[EvalOutcome],
    k: u64,
    f: impl Fn(&SampleOutcome) -> bool + Copy,
) -> f64 {
    let per_task: Vec<(u64, u64)> = outcomes.iter().map(|o| o.counts(f)).collect();
    suite_pass_at_k(&per_task, k)
}

/// Suite-level pass@k plus its standard error across tasks (the suite
/// metric is a mean of per-task estimates; tasks are the independent
/// units).
#[must_use]
pub fn suite_metric_with_se(
    outcomes: &[EvalOutcome],
    k: u64,
    f: impl Fn(&SampleOutcome) -> bool + Copy,
) -> (f64, f64) {
    let per_task: Vec<f64> = outcomes
        .iter()
        .map(|o| {
            let (n, c) = o.counts(f);
            crate::passk::pass_at_k(n, c, k)
        })
        .collect();
    let t = per_task.len() as f64;
    let mean = per_task.iter().sum::<f64>() / t;
    let var = per_task.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (t - 1.0).max(1.0);
    let se = (var / t).sqrt();
    (mean, se)
}

/// The display name of an HDL in tables and labels: `Verilog` or `VHDL`.
#[must_use]
pub fn language_name(verilog: bool) -> &'static str {
    if verilog {
        "Verilog"
    } else {
        "VHDL"
    }
}

/// One row of Table 1 (percentages).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Configuration label, e.g. `AIVRIL2 (GPT-4o)`.
    pub config: String,
    /// Verilog pass@1_S (%).
    pub verilog_s: f64,
    /// Verilog pass@1_F (%).
    pub verilog_f: f64,
    /// VHDL pass@1_S (%).
    pub vhdl_s: f64,
    /// VHDL pass@1_F (%).
    pub vhdl_f: f64,
    /// Δ_F vs the matching baseline, Verilog (%); `None` for baselines
    /// or undefined ratios.
    pub delta_verilog: Option<f64>,
    /// Δ_F vs the matching baseline, VHDL (%).
    pub delta_vhdl: Option<f64>,
}

/// Computes Δ_F (% improvement) between an AIVRIL2 row and its
/// baseline; `None` when the baseline is (near) zero — the paper prints
/// `N/A` for Llama3-70B on VHDL, whose baseline rounds to 0.
#[must_use]
pub fn delta_f(aivril2_f: f64, baseline_f: f64) -> Option<f64> {
    if baseline_f < 0.5 {
        None
    } else {
        Some((aivril2_f - baseline_f) / baseline_f * 100.0)
    }
}

/// Renders Table 1 in the paper's layout.
#[must_use]
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Table 1: pass-rate summary (all values %)\n\
         ---------------------------------------------------------------------------------------\n\
         Technology                  | Verilog                    | VHDL\n\
         ---------------------------------------------------------------------------------------\n\
         ",
    );
    out.push_str(&format!(
        "{:<28}| {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}\n",
        "", "pass@1_S", "pass@1_F", "dF", "pass@1_S", "pass@1_F", "dF"
    ));
    for r in rows {
        let dv = r
            .delta_verilog
            .map_or("-".to_string(), |d| format!("{d:.2}"));
        let dh = r.delta_vhdl.map_or_else(
            || {
                if r.config.starts_with("AIVRIL2") {
                    "N/A".to_string()
                } else {
                    "-".to_string()
                }
            },
            |d| format!("{d:.2}"),
        );
        out.push_str(&format!(
            "{:<28}| {:>8.2} {:>8.2} {:>8} | {:>8.2} {:>8.2} {:>8}\n",
            r.config, r.verilog_s, r.verilog_f, dv, r.vhdl_s, r.vhdl_f, dh
        ));
    }
    out
}

/// Renders Table 2: literature rows plus our measured AIVRIL2 rows.
#[must_use]
pub fn render_table2(measured: &[(String, String, f64)]) -> String {
    let mut out = String::new();
    out.push_str(
        "Table 2: state-of-the-art comparison (Verilog pass@1_F, %)\n\
         ------------------------------------------------------------\n",
    );
    out.push_str(&format!(
        "{:<30}{:<16}{:>10}\n",
        "Technology", "Model License", "pass@1_F"
    ));
    out.push_str("------------------------------------------------------------\n");
    for e in &crate::paper::TABLE2_LITERATURE {
        out.push_str(&format!(
            "{:<30}{:<16}{:>10.2}\n",
            e.name, e.license, e.pass1_f
        ));
    }
    out.push_str("---- this work (measured on the synthetic suite) ----------\n");
    for (name, license, value) in measured {
        out.push_str(&format!("{name:<30}{license:<16}{value:>10.2}\n"));
    }
    out
}

/// One bar group of Figure 3: latency breakdown for one model × language.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure3Row {
    /// Configuration label, e.g. `Llama3-70B / VHDL`.
    pub config: String,
    /// Average baseline (single-shot) seconds.
    pub baseline_s: f64,
    /// Average AIVRIL2 seconds in generation + syntax loops.
    pub syntax_phase_s: f64,
    /// Average AIVRIL2 seconds in the functional loop.
    pub functional_phase_s: f64,
    /// Average syntax-loop corrective cycles.
    pub syntax_cycles: f64,
    /// Average functional-loop corrective cycles.
    pub functional_cycles: f64,
}

impl Figure3Row {
    /// Total AIVRIL2 latency.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.syntax_phase_s + self.functional_phase_s
    }

    /// Slowdown vs the baseline.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.baseline_s <= f64::EPSILON {
            f64::NAN
        } else {
            self.total() / self.baseline_s
        }
    }
}

/// Assembles a Figure 3 row from evaluation outcomes.
#[must_use]
pub fn figure3(
    config: impl Into<String>,
    baseline: &[EvalOutcome],
    aivril2: &[EvalOutcome],
) -> Figure3Row {
    Figure3Row {
        config: config.into(),
        baseline_s: sample_mean(baseline, |s| s.total_latency),
        syntax_phase_s: sample_mean(aivril2, |s| s.syntax_phase_latency),
        functional_phase_s: sample_mean(aivril2, |s| s.functional_phase_latency),
        syntax_cycles: sample_mean(aivril2, |s| f64::from(s.syntax_iters)),
        functional_cycles: sample_mean(aivril2, |s| f64::from(s.functional_iters)),
    }
}

/// The mean of `f` over every sample of every task; `0` when there are
/// none.
#[must_use]
pub fn sample_mean(outcomes: &[EvalOutcome], f: impl Fn(&SampleOutcome) -> f64) -> f64 {
    let samples = outcomes.iter().flat_map(|o| &o.samples);
    let (sum, n) = samples.fold((0.0, 0u32), |(sum, n), s| (sum + f(s), n + 1));
    sum / f64::from(n.max(1))
}

/// Renders Figure 3 as an ASCII bar chart plus the numeric breakdown.
#[must_use]
pub fn render_figure3(rows: &[Figure3Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 3: average latency breakdown (modeled seconds)\n\
         #### baseline   ==== syntax loop   ~~~~ functional loop\n\n",
    );
    let max = rows
        .iter()
        .map(|r| r.total().max(r.baseline_s))
        .fold(1.0f64, f64::max);
    let scale = 48.0 / max;
    for r in rows {
        let b = (r.baseline_s * scale).round() as usize;
        let s = (r.syntax_phase_s * scale).round() as usize;
        let f = (r.functional_phase_s * scale).round() as usize;
        out.push_str(&format!(
            "{:<26} |{}  {:.2}s\n",
            r.config,
            "#".repeat(b),
            r.baseline_s
        ));
        out.push_str(&format!(
            "{:<26} |{}{}  {:.2}s ({:.1}x)\n",
            "  + AIVRIL2",
            "=".repeat(s),
            "~".repeat(f),
            r.total(),
            r.ratio()
        ));
        out.push_str(&format!(
            "{:<26} |  cycles: {:.2} syntax, {:.2} functional\n\n",
            "", r.syntax_cycles, r.functional_cycles
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::LLAMA3_70B;

    #[test]
    fn se_is_zero_for_unanimous_tasks_and_positive_otherwise() {
        let unanimous = vec![
            EvalOutcome {
                task: "a".into(),
                samples: vec![sample(true, true, 1.0)],
            },
            EvalOutcome {
                task: "b".into(),
                samples: vec![sample(true, true, 1.0)],
            },
        ];
        let (m, se) = suite_metric_with_se(&unanimous, 1, |s| s.functional);
        assert!((m - 1.0).abs() < 1e-12);
        assert!(se.abs() < 1e-12);
        let split = vec![
            EvalOutcome {
                task: "a".into(),
                samples: vec![sample(true, true, 1.0)],
            },
            EvalOutcome {
                task: "b".into(),
                samples: vec![sample(true, false, 1.0)],
            },
        ];
        let (m, se) = suite_metric_with_se(&split, 1, |s| s.functional);
        assert!((m - 0.5).abs() < 1e-12);
        assert!(se > 0.2);
    }

    fn sample(syntax: bool, functional: bool, lat: f64) -> SampleOutcome {
        SampleOutcome {
            syntax,
            functional,
            total_latency: lat,
            syntax_phase_latency: lat * 0.7,
            functional_phase_latency: lat * 0.3,
            syntax_iters: 1,
            functional_iters: 2,
            crashed: false,
        }
    }

    fn outcomes() -> Vec<EvalOutcome> {
        vec![
            EvalOutcome {
                task: "a".into(),
                samples: vec![sample(true, true, 10.0), sample(true, false, 12.0)],
            },
            EvalOutcome {
                task: "b".into(),
                samples: vec![sample(false, false, 8.0), sample(true, true, 9.0)],
            },
        ]
    }

    #[test]
    fn suite_metric_averages_tasks() {
        let o = outcomes();
        let s = suite_metric(&o, 1, |s| s.syntax);
        assert!((s - 0.75).abs() < 1e-12);
        let f = suite_metric(&o, 1, |s| s.functional);
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn delta_f_handles_zero_baseline() {
        let (base, full) = (&LLAMA3_70B.baseline, &LLAMA3_70B.aivril2);
        assert_eq!(delta_f(full.vhdl.pass1_f, base.vhdl.pass1_f), None);
        let d = delta_f(full.verilog.pass1_f, base.verilog.pass1_f).expect("defined");
        assert!((d - full.verilog.delta_f.expect("printed")).abs() < 0.05);
    }

    #[test]
    fn table1_renders_all_rows() {
        let row = |config: &str, r: &crate::paper::Row| Table1Row {
            config: config.into(),
            verilog_s: r.verilog.pass1_s,
            verilog_f: r.verilog.pass1_f,
            vhdl_s: r.vhdl.pass1_s,
            vhdl_f: r.vhdl.pass1_f,
            delta_verilog: r.verilog.delta_f,
            delta_vhdl: r.vhdl.delta_f,
        };
        let rows = vec![
            row("Llama3-70B", &LLAMA3_70B.baseline),
            row("AIVRIL2 (Llama3-70B)", &LLAMA3_70B.aivril2),
        ];
        let t = render_table1(&rows);
        assert!(t.contains("AIVRIL2 (Llama3-70B)"));
        assert!(t.contains(&format!(
            "{:.2}",
            LLAMA3_70B.aivril2.verilog.delta_f.unwrap()
        )));
        assert!(t.contains("N/A"), "{t}");
    }

    #[test]
    fn table2_includes_literature_and_measured() {
        let t = render_table2(&[("AIVRIL2 (GPT-4o)".into(), "Closed Source".into(), 70.5)]);
        assert!(t.contains("RTLFixer"));
        assert!(t.contains("ChipNemo-13B"));
        assert!(t.contains("70.50"));
        let literature = t.lines().skip(4).take_while(|l| !l.starts_with("----"));
        assert_eq!(literature.count(), 11);
    }

    #[test]
    fn figure3_row_aggregation() {
        let o = outcomes();
        let row = figure3("X / Verilog", &o, &o);
        assert!((row.baseline_s - 9.75).abs() < 1e-9);
        assert!((row.total() - 9.75).abs() < 1e-9);
        assert!((row.syntax_cycles - 1.0).abs() < 1e-9);
        let txt = render_figure3(&[row]);
        assert!(txt.contains("cycles"));
        assert!(txt.contains("AIVRIL2"));
    }
}
