//! Order statistics, the metric record every workload returns, and the
//! benchmark's output: human-readable report lines followed by one JSON
//! result line.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every workload with `--trace 0`:
/// `(name, unit)`. Order is output order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
/// `p99_ms` is end-to-end by nature but too noisy to gate on a small
/// shared machine (see README.md), so it is reported here.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("p99_ms", "ms"),
    ("verilog.parse_s", "s"),
    ("verilog.elab_s", "s"),
    ("vhdl.parse_s", "s"),
    ("vhdl.elab_s", "s"),
    ("sim.lower_s", "s"),
    ("sim.run_s", "s"),
    ("eda.glue_s", "s"),
    ("eda.analyze.calls", "count"),
    ("eda.analyze.busy_s", "s"),
    ("eda.compile.calls", "count"),
    ("eda.compile.busy_s", "s"),
    ("eda.simulate.calls", "count"),
    ("eda.simulate.busy_s", "s"),
    ("eda.cache.hit_ratio", "ratio"),
    ("eda.parse_memo.hit_ratio", "ratio"),
    ("eda.elab_memo.hit_ratio", "ratio"),
    ("eda.disk.writes", "count"),
    ("llm.calls", "count"),
    ("llm.busy_s", "s"),
    ("core.flow_self_s", "s"),
    ("bench.score.calls", "count"),
    ("bench.score.busy_s", "s"),
    ("sim.instructions", "count"),
    ("sim.eval_allocs", "count"),
    ("verilogeval.suite_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 11;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (see the README for what counts).
    pub failed: u64,
    /// The metrics of the selected set ([`END_TO_END`] or [`PER_LAYER`]).
    pub metrics: Vec<Metric>,
    /// Workload-specific numbers reported beside the gated set.
    pub extra: Vec<Metric>,
    /// Free-form report lines (check verdicts, layer table).
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn metric(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"));
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Marks the run incorrect, explaining why in the report.
    pub fn fail_check(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", why.into()));
    }

    /// The result line: exactly the declared metrics of `set`, in
    /// declaration order.
    ///
    /// # Panics
    ///
    /// Panics when a declared metric is missing or not finite — a bug
    /// in the workload, never a measurement outcome.
    pub fn result_line(&self, set: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = set
            .iter()
            .map(|(name, unit)| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(m.value.is_finite(), "metric {name} = {}", m.value);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    m.value
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The whole report as one JSON document (`--json`).
    pub fn document(&self, header: &[(&str, String)]) -> String {
        use aivril_obs::json;
        let list = |ms: &[Metric]| {
            let items: Vec<String> = ms
                .iter()
                .map(|m| {
                    json::object(&[
                        ("name", json::string(&m.name)),
                        ("value", format!("{}", finite(m.value))),
                        ("unit", json::string(m.unit)),
                    ])
                })
                .collect();
            format!("[{}]", items.join(","))
        };
        let notes: Vec<String> = self.notes.iter().map(|n| json::string(n)).collect();
        let mut fields: Vec<(&str, String)> = header.to_vec();
        fields.extend([
            ("correct", self.correct.to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", list(&self.metrics)),
            ("extra", list(&self.extra)),
            ("notes", format!("[{}]", notes.join(","))),
        ]);
        format!("{}\n", json::object(&fields))
    }
}

/// JSON has no NaN or infinity; such a value is reported as 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0
/// for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads `--repeat` prints are the ones an outside check computes.
/// Fewer than two values return that value (or 0) three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (d[0], d[0], d[0]),
        _ => {}
    }
    let n = d.len();
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Sleeps until `deadline` (no-op when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// `d` in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// A scratch directory under `.e2e/` in the working directory, removed on drop,
/// so every run starts from empty caches and leaves nothing behind.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.e2e/work-<pid>` in the current directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created.
    pub fn create() -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".e2e").join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A fresh, not yet existing subdirectory path.
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.e2e/` itself only when something else is in it.
        let _ = std::fs::remove_dir(".e2e");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
