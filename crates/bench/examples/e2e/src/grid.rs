//! The grid workloads: the full Table-1 grid through
//! `Harness::evaluate_with_stats`, exactly as the `table1` binary calls
//! it, checked against the Table-1 rows and results hash recorded in
//! `expected/table1_s5.txt`.

use crate::stats::{self, RunReport, WorkDir};
use crate::trace;
use aivril_bench::{results_json, Flow, Harness, HarnessConfig, ResultSection};
use aivril_eda::{CacheStats, DiskStats};
use aivril_llm::profiles;
use aivril_metrics::{delta_f, render_table1, suite_metric, suite_metric_with_se, Table1Row};
use aivril_obs::codec;
use aivril_sim::KernelPerf;
use std::io::{BufRead, BufReader};
use std::ops::Range;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Table-1 rows at 5 samples and the fnv64 of the canonical results
/// JSON, captured from the `table1` binary before this benchmark
/// existed. A regression oracle: it proves the output did not change,
/// not that it is right.
const EXPECTED: &str = include_str!("../expected/table1_s5.txt");

/// Worker threads of the grid (sized for a two-core machine).
pub const THREADS: usize = 2;

/// The harness configuration of a grid workload: the `table1` defaults
/// (5 samples, 156 tasks) on [`THREADS`] threads, with the memory
/// cache, the incremental memos and a disk tier in `cache_dir` when
/// one is given.
pub fn config(cache_dir: Option<&Path>) -> HarnessConfig {
    HarnessConfig {
        threads: THREADS,
        eda_cache: cache_dir.is_some(),
        eda_cache_dir: cache_dir.map(|d| d.display().to_string()),
        ..HarnessConfig::default()
    }
}

/// The 12 Table-1 cells in `table1`'s order: profile, then language,
/// then baseline before AIVRIL2.
pub fn sections() -> Vec<(aivril_llm::ModelProfile, bool, Flow)> {
    let mut out = Vec::new();
    for profile in profiles::all() {
        for verilog in [true, false] {
            for flow in [Flow::Baseline, Flow::Aivril2] {
                out.push((profile.clone(), verilog, flow));
            }
        }
    }
    out
}

fn section_label(profile: &aivril_llm::ModelProfile, verilog: bool, flow: Flow) -> String {
    let lang = if verilog { "Verilog" } else { "VHDL" };
    let flow = match flow {
        Flow::Baseline => "baseline",
        Flow::Aivril2 => "aivril2",
    };
    format!("{} {lang} {flow}", profile.name)
}

/// One evaluation of the whole grid.
struct Pass {
    /// Wall seconds of the 12 `evaluate_with_stats` calls.
    wall_s: f64,
    sections: Vec<ResultSection>,
    runs: u64,
    crashed: u64,
    /// Cache counters over the pass (`None` with the cache off).
    cache: Option<CacheStats>,
    disk: Option<DiskStats>,
    /// Seconds spent rendering Table 1 and the results JSON.
    render_s: f64,
    /// `None` when the rendered output matches [`EXPECTED`].
    mismatch: Option<String>,
}

/// Evaluates the 12 Table-1 cells on `harness` and checks the output.
fn run_pass(harness: &Harness) -> Pass {
    let start = Instant::now();
    let mut results = Vec::new();
    for (profile, verilog, flow) in sections() {
        let (outcomes, stats) = harness.evaluate_with_stats(&profile, verilog, flow);
        results.push(ResultSection {
            label: section_label(&profile, verilog, flow),
            outcomes,
            stats,
        });
    }
    let wall_s = stats::secs(start);
    let render = Instant::now();
    let rendered = render_expected(&results);
    let render_s = stats::secs(render);
    let mismatch = (rendered != EXPECTED)
        .then(|| format!("grid output differs from expected/table1_s5.txt:\n{rendered}"));
    Pass {
        wall_s,
        runs: results.iter().map(|s| s.stats.runs as u64).sum(),
        crashed: results.iter().map(|s| s.stats.crashed).sum(),
        cache: harness.cache_stats(),
        disk: harness.disk_cache_stats(),
        sections: results,
        render_s,
        mismatch,
    }
}

/// Table 1 as `table1` renders it, plus the fnv64 of the results JSON
/// with the volatile stats fields masked the way `AIVRIL_CANONICAL`
/// masks them.
fn render_expected(sections: &[ResultSection]) -> String {
    let canonical: Vec<ResultSection> = sections
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.stats.wall_seconds = 0.0;
            s.stats.threads = 0;
            s.stats.eda_cache = None;
            s.stats.kernel = KernelPerf::default();
            s
        })
        .collect();
    let fnv = codec::fnv64(results_json(&canonical).as_bytes());
    format!(
        "{}results_fnv64 0x{fnv:016x}\n",
        render_table1(&table1_rows(sections))
    )
}

/// The `table1` binary's row arithmetic over its section order.
fn table1_rows(sections: &[ResultSection]) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for (profile, chunk) in profiles::all().iter().zip(sections.chunks(4)) {
        // [base_s, base_f, a2_s, a2_f] x [verilog, vhdl]
        let mut cells = [[0.0f64; 2]; 4];
        for (li, pair) in chunk.chunks(2).enumerate() {
            let (base, full) = (&pair[0].outcomes, &pair[1].outcomes);
            cells[0][li] = suite_metric(base, 1, |s| s.syntax) * 100.0;
            cells[1][li] = suite_metric(base, 1, |s| s.functional) * 100.0;
            cells[2][li] = suite_metric(full, 1, |s| s.syntax) * 100.0;
            cells[3][li] = suite_metric_with_se(full, 1, |s| s.functional).0 * 100.0;
        }
        rows.push(Table1Row {
            config: profile.name.clone(),
            verilog_s: cells[0][0],
            verilog_f: cells[1][0],
            vhdl_s: cells[0][1],
            vhdl_f: cells[1][1],
            delta_verilog: None,
            delta_vhdl: None,
        });
        rows.push(Table1Row {
            config: format!("AIVRIL2 ({})", profile.name),
            verilog_s: cells[2][0],
            verilog_f: cells[3][0],
            vhdl_s: cells[2][1],
            vhdl_f: cells[3][1],
            delta_verilog: delta_f(cells[3][0], cells[1][0]),
            delta_vhdl: delta_f(cells[3][1], cells[1][1]),
        });
    }
    rows
}

/// The `--setup-probe` child: builds the harness, prints `ready`, exits.
pub fn setup_probe(cache_dir: Option<&Path>) {
    let harness = Harness::new(config(cache_dir));
    let _ = harness.library();
    println!("ready");
}

/// Times set-ups `ids`, each in a fresh child process: spawn until the
/// child has built the harness and its task library.
fn time_setups(work: &WorkDir, cached: bool, ids: Range<usize>) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut times = Vec::new();
    for i in ids {
        let mut cmd = Command::new(&exe);
        cmd.arg("--setup-probe");
        if cached {
            cmd.arg(work.sub(&format!("setup-{i}")));
        }
        let start = Instant::now();
        let mut child = cmd
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn set-up probe: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let ready = BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .any(|l| l == "ready");
        times.push(stats::secs(start));
        let status = child.wait().map_err(|e| e.to_string())?;
        if !ready || !status.success() {
            return Err(format!("set-up probe failed ({status})"));
        }
    }
    Ok(times)
}

/// The `--grid-pass` child: one pass in a fresh process, so caches
/// start cold and the peak RSS is this pass's alone. Prints one line:
/// `pass <wall_s> <runs> <crashed> <render_s> <rss_mb> <matches>
/// <hit_ratio> <disk_writes> <outcome_digest>`.
pub fn pass_child(cache_dir: Option<&Path>) {
    let harness = Harness::new(config(cache_dir));
    let _ = harness.library();
    let pass = run_pass(&harness);
    if let Some(why) = &pass.mismatch {
        eprintln!("{why}");
    }
    let outcomes = pass
        .sections
        .iter()
        .flat_map(|s| s.outcomes.iter().flat_map(|o| o.samples.iter()));
    println!(
        "pass {} {} {} {} {} {} {} {} {}",
        pass.wall_s,
        pass.runs,
        pass.crashed,
        pass.render_s,
        stats::peak_rss_mb(None),
        u8::from(pass.mismatch.is_none()),
        pass.cache.unwrap_or_default().hit_rate(),
        pass.disk.map_or(0, |d| d.writes),
        trace::digest(outcomes),
    );
}

/// A `--grid-pass` child's summary line.
pub struct PassLine {
    pub wall_s: f64,
    pub runs: u64,
    pub crashed: u64,
    pub render_s: f64,
    pub rss_mb: f64,
    pub matches: bool,
    pub hit_ratio: f64,
    pub disk_writes: f64,
    pub digest: u64,
}

impl PassLine {
    fn parse(line: &str) -> Option<PassLine> {
        let f: Vec<&str> = line.strip_prefix("pass ")?.split(' ').collect();
        let num = |i: usize| f.get(i)?.parse::<f64>().ok();
        Some(PassLine {
            wall_s: num(0)?,
            runs: f.get(1)?.parse().ok()?,
            crashed: f.get(2)?.parse().ok()?,
            render_s: num(3)?,
            rss_mb: num(4)?,
            matches: *f.get(5)? == "1",
            hit_ratio: num(6)?,
            disk_writes: num(7)?,
            digest: f.get(8)?.parse().ok()?,
        })
    }
}

/// Runs one untraced pass in a fresh `--grid-pass` child.
pub fn spawn_pass(cache_dir: Option<&Path>) -> Result<PassLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--grid-pass");
    if let Some(dir) = cache_dir {
        cmd.arg(dir);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn grid pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().find_map(PassLine::parse) {
        Some(pass) if out.status.success() => Ok(pass),
        _ => Err(format!("grid pass failed ({}): {stdout}", out.status)),
    }
}

/// Runs a grid workload for about `seconds` and reports its metrics.
pub fn run(cached: bool, seconds: f64, traced: bool) -> Result<RunReport, String> {
    let work = WorkDir::create().map_err(|e| format!("cannot create work dir: {e}"))?;
    let mut report = RunReport {
        correct: true,
        ..RunReport::default()
    };
    if traced {
        return trace::run_grid(cached, &work, report);
    }
    // Set-ups are timed before and after the passes, so slow drifts in
    // machine speed reach both halves of the sample alike.
    let half = stats::SETUPS / 2;
    let mut setups = time_setups(&work, cached, 0..half)?;
    // Whole passes only: another pass starts when it should end within
    // the budget, judged by the last pass's length.
    let start = Instant::now();
    let mut passes: Vec<PassLine> = Vec::new();
    loop {
        let dir = cached.then(|| work.sub(&format!("cache-{}", passes.len())));
        passes.push(spawn_pass(dir.as_deref())?);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let last = passes.last().expect("one pass ran").wall_s;
        if stats::secs(start) + last > seconds {
            break;
        }
    }
    setups.extend(time_setups(&work, cached, half..stats::SETUPS)?);
    for (i, pass) in passes.iter().enumerate() {
        report.attempted += pass.runs;
        report.failed += pass.crashed;
        if !pass.matches {
            report.failed += pass.runs - pass.crashed;
            report.fail_check(format!(
                "pass {i}: output differs from expected/table1_s5.txt (printed on stderr)"
            ));
        }
    }
    // A grid's user waits for the whole table, so its latency sample is
    // one pass.
    let median = |f: fn(&PassLine) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s * 1000.0).collect();
    report.metric("setup_s", stats::median(&setups));
    report.metric("ops_per_s", median(|p| p.runs as f64 / p.wall_s));
    report.metric("p50_ms", stats::percentile(&walls, 0.5));
    report.metric("p99_ms", stats::percentile(&walls, 0.99));
    report.metric("peak_rss_mb", median(|p| p.rss_mb));
    report.extra("passes", passes.len() as f64, "count");
    report.extra("bench.render_s", median(|p| p.render_s), "s");
    if cached {
        report.extra("eda.cache.hit_ratio", median(|p| p.hit_ratio), "ratio");
        report.extra("eda.disk.writes", median(|p| p.disk_writes), "count");
    }
    report.note(format!(
        "{} pass(es) of {} runs on {THREADS} threads, each in a fresh process; \
         latency sample = one pass",
        passes.len(),
        passes[0].runs
    ));
    if report.correct {
        report.note("output matches expected/table1_s5.txt on every pass");
    }
    Ok(report)
}
