//! Simulation results, logs and run limits.

use std::fmt;

/// Resource limits protecting the kernel against runaway designs.
///
/// The defaults are generous for the benchmark-suite designs (a few
/// hundred clock cycles each) while still terminating promptly when an
/// LLM-injected fault produces an infinite loop or a zero-delay
/// oscillation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Simulation stops (without error) once time exceeds this value.
    pub max_time: u64,
    /// Maximum delta cycles within a single time step before the run is
    /// aborted with [`LimitKind::DeltaCycles`] (zero-delay oscillation).
    pub max_deltas_per_step: u32,
    /// Maximum instructions a single process may execute without
    /// suspending before [`LimitKind::ProcessInstructions`] fires
    /// (procedural infinite loop).
    pub max_instrs_per_activation: u64,
    /// Total instruction budget for the whole run
    /// ([`LimitKind::TotalInstructions`]).
    pub max_total_instrs: u64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            max_time: 1_000_000,
            max_deltas_per_step: 10_000,
            max_instrs_per_activation: 200_000,
            max_total_instrs: 50_000_000,
        }
    }
}

/// Which resource limit aborted a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitKind {
    /// Too many delta cycles in one time step (combinational loop or
    /// zero-delay oscillation).
    DeltaCycles,
    /// One process ran too long without suspending (infinite `while`).
    ProcessInstructions,
    /// The whole run exceeded its instruction budget.
    TotalInstructions,
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LimitKind::DeltaCycles => "delta-cycle limit exceeded (possible combinational loop)",
            LimitKind::ProcessInstructions => {
                "process iteration limit exceeded (possible infinite loop)"
            }
            LimitKind::TotalInstructions => "total simulation instruction budget exceeded",
        };
        f.write_str(s)
    }
}

/// One line of simulator output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLine {
    /// Simulation time at which the line was emitted.
    pub time: u64,
    /// Rendered text (no trailing newline).
    pub text: String,
    /// `true` for `$error` / `$fatal` / failing `assert` output.
    pub is_error: bool,
}

/// Outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Final simulation time.
    pub end_time: u64,
    /// Emitted log lines in order.
    pub lines: Vec<LogLine>,
    /// Count of `$error`/`$fatal`/assertion-failure events.
    pub error_count: u32,
    /// `true` when the run ended via `$finish` (or `$fatal`).
    pub finished: bool,
    /// `true` when the event queue drained with no `$finish` (event
    /// starvation — the normal end for designs without testbenches).
    pub starved: bool,
    /// Set when a resource limit aborted the run.
    pub limit_hit: Option<LimitKind>,
    /// Total instructions executed — the workload measure used by the
    /// EDA latency model.
    pub instructions_executed: u64,
}

impl SimResult {
    /// `true` when the run completed without errors, limits or fatal
    /// aborts.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count == 0 && self.limit_hit.is_none()
    }

    /// The full log as one newline-separated string.
    #[must_use]
    pub fn log_text(&self) -> String {
        let mut out = String::new();
        self.write_log(&mut out);
        out
    }

    /// Appends the full log to `out`, each line ended by a newline:
    /// [`SimResult::log_text`] without the intermediate `String`.
    pub fn write_log(&self, out: &mut String) {
        for line in &self.lines {
            out.push_str(&line.text);
            out.push('\n');
        }
    }

    /// Iterates over error lines only.
    pub fn error_lines(&self) -> impl Iterator<Item = &LogLine> {
        self.lines.iter().filter(|l| l.is_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_bounded() {
        let c = SimConfig::default();
        assert!(c.max_time > 0);
        assert!(c.max_deltas_per_step > 0);
        assert!(c.max_instrs_per_activation > 0);
        assert!(c.max_total_instrs > c.max_instrs_per_activation);
    }

    #[test]
    fn clean_result_detection() {
        let mut r = SimResult {
            end_time: 10,
            lines: vec![],
            error_count: 0,
            finished: true,
            starved: false,
            limit_hit: None,
            instructions_executed: 5,
        };
        assert!(r.is_clean());
        r.error_count = 1;
        assert!(!r.is_clean());
        r.error_count = 0;
        r.limit_hit = Some(LimitKind::DeltaCycles);
        assert!(!r.is_clean());
    }

    #[test]
    fn log_text_joins_lines() {
        let r = SimResult {
            end_time: 0,
            lines: vec![
                LogLine {
                    time: 0,
                    text: "a".into(),
                    is_error: false,
                },
                LogLine {
                    time: 1,
                    text: "b".into(),
                    is_error: true,
                },
            ],
            error_count: 1,
            finished: false,
            starved: true,
            limit_hit: None,
            instructions_executed: 0,
        };
        assert_eq!(r.log_text(), "a\nb\n");
        let mut log = String::from("head\n");
        r.write_log(&mut log);
        assert_eq!(log, "head\na\nb\n");
        assert_eq!(r.error_lines().count(), 1);
    }

    #[test]
    fn limit_kind_messages() {
        assert!(LimitKind::DeltaCycles.to_string().contains("delta"));
        assert!(LimitKind::ProcessInstructions
            .to_string()
            .contains("infinite loop"));
        assert!(LimitKind::TotalInstructions.to_string().contains("budget"));
    }
}
