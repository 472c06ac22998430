//! The reproduction contract, as a test: the qualitative claims of the
//! paper's evaluation must hold on a mid-size run, the committed
//! `results/*.txt` must show every shape EXPERIMENTS.md claims for
//! them, and the baseline profiles must be the paper's baseline rows.
//! This is the guard that keeps future changes from silently bending
//! the results.

use aivril_bench::{Flow, Harness, HarnessConfig};
use aivril_llm::profiles;
use aivril_metrics::paper::{self, Cell, Model, Row, MODELS};
use aivril_metrics::{suite_metric, EvalOutcome};

fn harness() -> Harness {
    Harness::new(HarnessConfig {
        samples: 3,
        task_limit: 36,
        threads: 0,
        ..HarnessConfig::default()
    })
}

fn avg_latency(outcomes: &[EvalOutcome]) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for o in outcomes {
        for s in &o.samples {
            sum += s.total_latency;
            n += 1;
        }
    }
    sum / f64::from(n.max(1))
}

#[test]
fn table1_shape_holds() {
    let h = harness();

    // Claude / Verilog: strong baseline, near-perfect syntax recovery,
    // functional gain.
    let claude = profiles::claude35_sonnet();
    let base = h.evaluate(&claude, true, Flow::Baseline);
    let full = h.evaluate(&claude, true, Flow::Aivril2);
    let base_s = suite_metric(&base, 1, |s| s.syntax);
    let full_s = suite_metric(&full, 1, |s| s.syntax);
    let base_f = suite_metric(&base, 1, |s| s.functional);
    let full_f = suite_metric(&full, 1, |s| s.functional);
    assert!(
        base_s > 0.8 && base_s < 1.0,
        "claude V baseline syntax {base_s}"
    );
    assert!(full_s > 0.98, "claude V aivril2 syntax {full_s}");
    assert!(
        full_f > base_f + 0.03,
        "claude V functional {base_f} -> {full_f}"
    );

    // Llama3 / VHDL: the stress case — near-zero baseline, partial but
    // dramatic syntax recovery.
    let (paper_base, paper_full) = (
        paper::LLAMA3_70B.baseline.vhdl.pass1_s,
        paper::LLAMA3_70B.aivril2.vhdl.pass1_s,
    );
    let llama = profiles::llama3_70b();
    let base_h = h.evaluate(&llama, false, Flow::Baseline);
    let full_h = h.evaluate(&llama, false, Flow::Aivril2);
    let base_hs = suite_metric(&base_h, 1, |s| s.syntax);
    let full_hs = suite_metric(&full_h, 1, |s| s.syntax);
    assert!(base_hs < 0.1, "llama VHDL baseline syntax {base_hs}");
    assert!(
        full_hs > 0.25 && full_hs < 0.95,
        "llama VHDL aivril2 syntax {full_hs} (paper: {paper_full}%)"
    );
    assert!(
        full_hs > base_hs * 5.0,
        "syntax recovery factor {base_hs} -> {full_hs} (paper: ~{:.0}x)",
        paper_full / paper_base
    );
}

#[test]
fn figure3_shape_holds() {
    let h = harness();
    let claude = profiles::claude35_sonnet();
    let llama = profiles::llama3_70b();

    let claude_base = avg_latency(&h.evaluate(&claude, true, Flow::Baseline));
    let claude_full = avg_latency(&h.evaluate(&claude, true, Flow::Aivril2));
    let llama_base = avg_latency(&h.evaluate(&llama, false, Flow::Baseline));
    let llama_full = avg_latency(&h.evaluate(&llama, false, Flow::Aivril2));

    // AIVRIL2 costs real latency, bounded by the paper's worst case
    // neighbourhood; Llama/VHDL is the most expensive configuration.
    assert!(
        claude_full > claude_base * 1.5,
        "claude ratio {}",
        claude_full / claude_base
    );
    assert!(
        llama_full > llama_base * 2.0,
        "llama ratio {}",
        llama_full / llama_base
    );
    assert!(
        llama_full > claude_full,
        "llama VHDL must be the slowest configuration"
    );
    assert!(
        llama_full < 90.0,
        "worst-case average {llama_full}s (paper: at most {}s)",
        paper::FIGURE3_MAX_LATENCY_S
    );
}

#[test]
fn model_ordering_holds_everywhere() {
    // The GPT-4o / Claude gap is only ~5 points in the paper's AIVRIL2
    // Verilog column, inside sampling noise on the 36-task slice the
    // other shape tests use — this one needs a bigger sample to make
    // the ordering claim meaningful. Cheap now that evaluate() is
    // parallel.
    let h = Harness::new(HarnessConfig {
        samples: 5,
        task_limit: 96,
        threads: 0,
        ..HarnessConfig::default()
    });
    let mut f_rates = Vec::new();
    for profile in profiles::all() {
        let full = h.evaluate(&profile, true, Flow::Aivril2);
        f_rates.push((
            profile.name.clone(),
            suite_metric(&full, 1, |s| s.functional),
        ));
    }
    // Table 1/2 ordering: Claude > GPT-4o > Llama3 after AIVRIL2.
    assert!(
        f_rates[2].1 >= f_rates[1].1 && f_rates[1].1 >= f_rates[0].1,
        "ordering violated: {f_rates:?} (paper: {:?})",
        MODELS.map(|m| m.aivril2.verilog.pass1_f)
    );
}

// ---------------------------------------------------------------------
// The committed figures against EXPERIMENTS.md. Nothing is simulated
// here: the CI drift gate keeps `results/*.txt` equal to the binaries'
// output, and these tests keep the claims equal to `results/*.txt`.

fn committed(name: &str) -> String {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `results/table1.txt`'s rows, by configuration label.
fn table1() -> Vec<(String, Row)> {
    let cell = |part: &str| {
        let v: Vec<&str> = part.split_whitespace().collect();
        Cell {
            pass1_s: v[0].parse().expect("pass@1_S"),
            pass1_f: v[1].parse().expect("pass@1_F"),
            delta_f: v[2].parse().ok(),
        }
    };
    committed("table1.txt")
        .lines()
        .filter_map(|line| {
            let parts: Vec<&str> = line.split('|').collect();
            // Data rows only: their Verilog column opens with a number.
            parts
                .get(1)?
                .split_whitespace()
                .next()?
                .parse::<f64>()
                .ok()?;
            Some((
                parts[0].trim().to_string(),
                Row {
                    verilog: cell(parts[1]),
                    vhdl: cell(parts[2]),
                },
            ))
        })
        .collect()
}

/// The measured row of `model` (`aivril2` or baseline).
fn measured<'a>(rows: &'a [(String, Row)], model: &Model, aivril2: bool) -> &'a Row {
    let label = if aivril2 {
        format!("AIVRIL2 ({})", model.name)
    } else {
        model.name.to_string()
    };
    let found = rows.iter().find(|(l, _)| *l == label);
    &found.unwrap_or_else(|| panic!("no row {label}")).1
}

/// Every (model, aivril2, verilog) cell, paper beside measured.
fn table1_cells() -> Vec<(String, Cell, Cell)> {
    let rows = table1();
    let mut cells = Vec::new();
    for m in &MODELS {
        for aivril2 in [false, true] {
            let paper_row = if aivril2 { m.aivril2 } else { m.baseline };
            for verilog in [true, false] {
                let name = format!(
                    "{} {} {}",
                    m.name,
                    if aivril2 { "aivril2" } else { "baseline" },
                    aivril_metrics::language_name(verilog)
                );
                let got = *measured(&rows, m, aivril2).lang(verilog);
                cells.push((name, *paper_row.lang(verilog), got));
            }
        }
    }
    cells
}

#[test]
fn committed_table1_cells_are_within_3_2_points_of_the_paper() {
    let cells = table1_cells();
    assert_eq!(cells.len(), 12);
    let mut largest = (0.0, String::new());
    for (name, want, got) in &cells {
        for (what, w, g) in [
            ("S", want.pass1_s, got.pass1_s),
            ("F", want.pass1_f, got.pass1_f),
        ] {
            let gap = (g - w).abs();
            assert!(gap <= 3.2 + 1e-9, "{name} pass@1_{what}: {g} vs paper {w}");
            if gap > largest.0 {
                largest = (gap, format!("{name} {what}"));
            }
        }
    }
    // "The largest gap is Claude's baseline VHDL pass@1_F."
    assert_eq!(largest.1, "Claude 3.5 Sonnet baseline VHDL F");
    // "Δ_F ... GPT-4o VHDL reads 101.13 against the paper's 116.32":
    // the largest Δ_F sits in the same cell as the paper's.
    let argmax = |pick: fn(&(String, Cell, Cell)) -> Option<f64>| {
        let best = cells.iter().filter_map(|c| Some((pick(c)?, &c.0)));
        best.fold(
            (f64::MIN, ""),
            |a, (d, n)| if d > a.0 { (d, n.as_str()) } else { a },
        )
        .1
    };
    assert_eq!(argmax(|c| c.1.delta_f), "GPT-4o aivril2 VHDL");
    assert_eq!(argmax(|c| c.2.delta_f), "GPT-4o aivril2 VHDL");
}

#[test]
fn committed_table1_keeps_the_model_ordering_with_its_one_exception() {
    let rows = table1();
    for aivril2 in [false, true] {
        for verilog in [true, false] {
            let col: Vec<&Cell> = MODELS
                .iter()
                .map(|m| measured(&rows, m, aivril2).lang(verilog))
                .collect();
            let [llama, gpt, claude] = [col[0], col[1], col[2]];
            let at = format!("aivril2={aivril2} verilog={verilog}");
            // Claude ≥ GPT-4o ≥ Llama3; AIVRIL2 GPT-4o and Claude tie
            // at 100.00 on VHDL pass@1_S.
            assert!(
                claude.pass1_f > gpt.pass1_f && gpt.pass1_f > llama.pass1_f,
                "F {at}"
            );
            assert!(claude.pass1_s >= gpt.pass1_s, "S {at}");
            if !aivril2 && verilog {
                // The exception: Llama3 edges GPT-4o on baseline
                // Verilog pass@1_S (the paper has GPT-4o ahead).
                assert!(llama.pass1_s > gpt.pass1_s, "S {at}");
            } else {
                assert!(gpt.pass1_s > llama.pass1_s, "S {at}");
            }
        }
    }
    for m in &MODELS {
        let (base, full) = (measured(&rows, m, false), measured(&rows, m, true));
        // Verilog > VHDL for every pass@1_F cell and every baseline
        // pass@1_S cell.
        assert!(base.verilog.pass1_f > base.vhdl.pass1_f, "{}", m.name);
        assert!(full.verilog.pass1_f > full.vhdl.pass1_f, "{}", m.name);
        assert!(base.verilog.pass1_s > base.vhdl.pass1_s, "{}", m.name);
    }
}

#[test]
fn committed_table1_syntax_recovery_matches_its_write_up() {
    let text = committed("table1.txt");
    let rows = table1();
    // AIVRIL2 reaches 100.00 pass@1_S on VHDL with GPT-4o and Claude.
    for m in [paper::GPT4O, paper::CLAUDE35_SONNET] {
        assert_eq!(measured(&rows, &m, true).vhdl.pass1_s, 100.0, "{}", m.name);
    }
    // Six Verilog runs out of 4,680 end with a syntax error: each
    // cell's pass@1_S is a whole number of its 1,560 runs.
    let runs_per_cell: f64 = {
        let header = text.lines().next().expect("header");
        let n = |unit: &str| -> f64 {
            let before = header.split(unit).next().expect(unit);
            before
                .split_whitespace()
                .last()
                .expect(unit)
                .parse()
                .expect(unit)
        };
        n(" tasks") * n(" samples")
    };
    assert_eq!(runs_per_cell, 1560.0);
    let failed: f64 = MODELS
        .iter()
        .map(|m| {
            ((100.0 - measured(&rows, m, true).verilog.pass1_s) / 100.0 * runs_per_cell).round()
        })
        .sum();
    assert_eq!(failed, 6.0);
    // Llama3-70B VHDL: ≈47× syntax recovery.
    let llama = (
        measured(&rows, &paper::LLAMA3_70B, false),
        measured(&rows, &paper::LLAMA3_70B, true),
    );
    assert_eq!((llama.1.vhdl.pass1_s / llama.0.vhdl.pass1_s).round(), 47.0);
    // Maximum per-cell standard error ±1.3 points.
    let se = text
        .split('±')
        .nth(1)
        .and_then(|t| t.split_whitespace().next());
    let se: f64 = se
        .and_then(|v| v.parse().ok())
        .expect("standard error line");
    assert_eq!(format!("{se:.1}"), "1.3");
}

/// One row of `results/table2.txt`.
struct Table2Row {
    name: String,
    license: String,
    pass1_f: f64,
    /// Measured here (below the "this work" rule), not cited.
    ours: bool,
}

fn table2() -> Vec<Table2Row> {
    let mut rows = Vec::new();
    let mut ours = false;
    for line in committed("table2.txt").lines() {
        ours |= line.starts_with("---- this work");
        let value = line.split_whitespace().last().and_then(|v| v.parse().ok());
        let (Some(pass1_f), true) = (value, line.len() > 46) else {
            continue;
        };
        rows.push(Table2Row {
            name: line[..30].trim().to_string(),
            license: line[30..46].trim().to_string(),
            pass1_f,
            ours,
        });
    }
    rows
}

#[test]
fn committed_table2_is_the_papers_literature_and_its_ordering() {
    let rows = table2();
    let literature: Vec<_> = rows.iter().filter(|r| !r.ours).collect();
    assert_eq!(literature.len(), paper::TABLE2_LITERATURE.len());
    for (row, want) in literature.iter().zip(&paper::TABLE2_LITERATURE) {
        assert_eq!((&*row.name, &*row.license), (want.name, want.license));
        assert!((row.pass1_f - want.pass1_f).abs() < 1e-9, "{}", want.name);
    }
    // Best case vs ChipNemo-13B: measured 3.32×.
    let ours: Vec<_> = rows.iter().filter(|r| r.ours).collect();
    assert_eq!(ours.len(), 3);
    let best = ours.iter().map(|r| r.pass1_f).fold(0.0, f64::max);
    assert_eq!(format!("{:.2}", best / paper::CHIPNEMO_13B_F), "3.32");
    // The full table's ordering is the paper's, with the AIVRIL2 rows
    // at the paper's values.
    let paper_value = |r: &Table2Row| -> f64 {
        if !r.ours {
            return r.pass1_f;
        }
        let m = MODELS
            .iter()
            .find(|m| r.name == format!("AIVRIL2 ({})", m.name));
        m.expect("an AIVRIL2 row").aivril2.verilog.pass1_f
    };
    let order = |key: &dyn Fn(&Table2Row) -> f64| {
        let mut sorted: Vec<_> = rows.iter().collect();
        sorted.sort_by(|a, b| key(b).total_cmp(&key(a)));
        sorted.iter().map(|r| r.name.clone()).collect::<Vec<_>>()
    };
    assert_eq!(order(&|r| r.pass1_f), order(&paper_value));
}

/// One bar group of `results/figure3.txt`.
struct Bars {
    config: String,
    baseline_s: f64,
    aivril2_s: f64,
    /// Lengths of the AIVRIL2 bar's syntax (`=`) and functional (`~`)
    /// segments.
    phase_bars: (usize, usize),
    syntax_cycles: f64,
    functional_cycles: f64,
}

fn figure3() -> Vec<Bars> {
    let text = committed("figure3.txt");
    let lines: Vec<&str> = text.lines().collect();
    let secs = |line: &str| -> f64 {
        let mut words = line.split('|').nth(1).expect("bar").split_whitespace();
        let v = words.rfind(|w| w.ends_with('s')).expect("seconds");
        v.trim_end_matches('s').parse().expect("seconds")
    };
    let mut groups = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with(' ') || !line.contains(" / ") || !line.contains('|') {
            continue;
        }
        let cycles: Vec<f64> = lines[i + 2]
            .split([':', ','])
            .skip(1)
            .map(|p| p.split_whitespace().next().expect("cycles"))
            .map(|v| v.parse().expect("cycles"))
            .collect();
        groups.push(Bars {
            config: line.split('|').next().expect("label").trim().to_string(),
            baseline_s: secs(line),
            aivril2_s: secs(lines[i + 1]),
            phase_bars: (
                lines[i + 1].matches('=').count(),
                lines[i + 1].matches('~').count(),
            ),
            syntax_cycles: cycles[0],
            functional_cycles: cycles[1],
        });
    }
    groups
}

#[test]
fn committed_figure3_has_the_papers_extremes() {
    let groups = figure3();
    assert_eq!(groups.len(), 6);
    let label = |model: &Model, verilog: bool| {
        format!(
            "{} / {}",
            model.name,
            aivril_metrics::language_name(verilog)
        )
    };
    let (slow, fast) = (paper::FIGURE3_SLOWEST, paper::FIGURE3_FASTEST);
    let by = |key: fn(&Bars) -> f64, max: bool| -> &str {
        let mut sorted: Vec<_> = groups.iter().collect();
        sorted.sort_by(|a, b| key(a).total_cmp(&key(b)));
        let g = if max { sorted.last() } else { sorted.first() };
        &g.expect("a group").config
    };
    // Largest ratio = Llama3/VHDL, smallest = Claude/Verilog.
    let ratio = |g: &Bars| g.aivril2_s / g.baseline_s;
    assert_eq!(by(ratio, true), label(slow.model, slow.verilog));
    assert_eq!(by(ratio, false), label(fast.model, fast.verilog));
    // Llama3/VHDL also takes the most syntax cycles.
    assert_eq!(
        by(|g| g.syntax_cycles, true),
        label(slow.model, slow.verilog)
    );
    // The worst-case average exceeds the paper's bound by less than 10%.
    let worst = groups.iter().map(|g| g.aivril2_s).fold(0.0, f64::max);
    let bound = paper::FIGURE3_MAX_LATENCY_S;
    assert!(worst > bound && worst < bound * 1.1, "{worst}");
    // Claude's VHDL functional loop costs about as much as its syntax
    // phase and takes more cycles than its Verilog one.
    let claude = |verilog| {
        let name = label(&paper::CLAUDE35_SONNET, verilog);
        groups.iter().find(|g| g.config == name).expect("Claude")
    };
    let (syntax, functional) = claude(false).phase_bars;
    assert!(syntax.abs_diff(functional) <= 1, "{syntax} vs {functional}");
    assert!(claude(false).functional_cycles > claude(true).functional_cycles);
}

/// `results/ablation.txt`'s rows of experiment `n` (1-based): each
/// row's label and numbers.
fn ablation(n: usize) -> Vec<(String, Vec<f64>)> {
    let text = committed("ablation.txt");
    let mut section = 0;
    let mut rows = Vec::new();
    for line in text.lines() {
        if line
            .split_once(". ")
            .is_some_and(|(d, _)| d.parse::<usize>().is_ok())
        {
            section += 1;
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let numbers: Vec<f64> = words.iter().filter_map(|w| w.parse().ok()).collect();
        if section == n && numbers.len() >= 2 {
            let label = words[..words.len() - numbers.len()].join(" ");
            rows.push((label, numbers));
        }
    }
    rows
}

#[test]
fn committed_ablations_match_their_write_up() {
    // 1. Testbench-first beats simultaneous on both languages, S and F.
    let tb = ablation(1);
    assert_eq!(tb.len(), 4);
    for pair in tb.chunks(2) {
        assert!(pair[0].0.ends_with("testbench-first"), "{}", pair[0].0);
        assert!(pair[0].1[0] > pair[1].1[0] && pair[0].1[1] > pair[1].1[1]);
    }
    // 2. pass@1_F climbs from budget 1 to 4, holds at 5 and rises at 6.
    let f: Vec<f64> = ablation(2).iter().map(|r| r.1[2]).collect();
    assert_eq!(f.len(), 6);
    assert!(f.windows(2).all(|w| w[1] >= w[0]), "{f:?}");
    assert!(f[3] > f[0] && f[4] == f[3] && f[5] > f[4], "{f:?}");
    // 3. Errors-only prompts lose on both rates at more cycles.
    let detail = ablation(3);
    let (detailed, brief) = (&detail[0].1, &detail[1].1);
    assert_eq!((&*detail[0].0, &*detail[1].0), ("detailed", "errors-only"));
    assert!(detailed[0] > brief[0] && detailed[1] > brief[1]);
    assert!(detailed[2] < brief[2]);
}

#[test]
fn baseline_profiles_are_the_papers_baseline_rows() {
    let mut off_by_rounding = Vec::new();
    for profile in profiles::all() {
        let m = paper::model(&profile.name).expect("a model of the paper");
        for verilog in [true, false] {
            let (lang, cell) = (profile.lang(verilog), m.baseline.lang(verilog));
            let s = lang.syntax_ok * 100.0;
            assert!((s - cell.pass1_s).abs() < 1e-9, "{} {verilog}: {s}", m.name);
            let f = lang.syntax_ok * lang.func_ok_given_syntax_ok * 100.0;
            if ((f * 100.0).round() / 100.0 - cell.pass1_f).abs() > 1e-9 {
                off_by_rounding.push(format!(
                    "{} {}: {f:.2}",
                    m.name,
                    aivril_metrics::language_name(verilog)
                ));
            }
        }
    }
    // Claude's Verilog functional rate is set to its measured
    // behaviour, not to the paper's product: 0.9103 × 0.65 = 59.17.
    assert_eq!(off_by_rounding, ["Claude 3.5 Sonnet Verilog: 59.17"]);
}
