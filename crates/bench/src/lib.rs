//! Benchmark harness: runs the AIVRIL2 pipeline and the zero-shot
//! baseline over the 156-problem suite and scores them exactly as the
//! paper does — pass@1_S from the compiler, pass@1_F from the
//! benchmark's *reference* testbenches (not the self-generated ones).
//!
//! # Parallel, deterministic evaluation
//!
//! The problem × sample grid is embarrassingly parallel: each pipeline
//! run touches only its own model conversation and tool invocations
//! (the framework is LLM-agnostic and the simulated models are pure
//! functions of `(model, task, seed)`). [`Harness::evaluate`] therefore
//! shards the grid across a worker pool (`AIVRIL_THREADS`, default: all
//! cores); each worker owns its own [`SimLlm`] clone, pipeline and
//! [`XsimToolSuite`] instance. Because every run's seed is derived
//! explicitly from its grid coordinates ([`run_seed`]) and results are
//! merged back in problem/sample order, parallel and serial runs
//! produce **bit-identical** [`EvalOutcome`]s — `tests/determinism.rs`
//! enforces this.
//!
//! The binaries in `src/bin` regenerate each table/figure:
//!
//! * `table1` — pass-rate summary (paper Table 1)
//! * `table2` — state-of-the-art comparison (paper Table 2)
//! * `figure3` — latency breakdown (paper Figure 3)
//! * `ablation` — extension experiments DESIGN.md calls out
//! * `quicklook` — tiny smoke run for CI-speed sanity checks

#![warn(missing_docs)]

pub mod checkpoint;

use aivril_core::{
    dut_file_name, tb_file_name, Aivril2, Aivril2Config, BaselineFlow, ResilienceCounters,
    RunResult, Stage, TaskInput,
};
use aivril_eda::{
    CacheStats, DiskStats, EdaCache, EdaFaultPlan, HdlFile, ToolSuite, XsimToolSuite,
};
use aivril_llm::{FaultConfig, ModelProfile, SimLlm, TaskLibrary};
use aivril_metrics::{language_name, EvalOutcome, SampleOutcome};
use aivril_obs::{codec, json, Recorder};
use aivril_sim::{KernelPerf, SimConfig};
use aivril_verilogeval::{suite, Problem};
use std::fmt;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Which pipeline to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Zero-shot single generation.
    Baseline,
    /// The full AIVRIL2 loop architecture.
    Aivril2,
}

impl Flow {
    /// The flow's stable lower-case name (`baseline`, `aivril2`), as
    /// written in checkpoint fingerprints, journal context, result
    /// labels and serve frames.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Flow::Baseline => "baseline",
            Flow::Aivril2 => "aivril2",
        }
    }

    /// The flow named `label`, the inverse of [`Flow::label`]; `None`
    /// for any other text.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Flow> {
        [Flow::Baseline, Flow::Aivril2]
            .into_iter()
            .find(|flow| flow.label() == label)
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Samples per task (n of the pass@k estimator).
    pub samples: u32,
    /// Cap on the number of tasks (156 = full suite); useful for quick
    /// runs.
    pub task_limit: usize,
    /// Worker threads for [`Harness::evaluate`]; `0` (the default)
    /// auto-detects the machine's parallelism. Results are
    /// bit-identical for every thread count.
    pub threads: usize,
    /// Enables the content-addressed EDA result cache
    /// ([`EdaCache`]), shared across the worker pool. Off by default;
    /// results are bit-identical either way, only wall-clock changes.
    pub eda_cache: bool,
    /// Enables the sub-compile incremental memos (per-file parse +
    /// closure-keyed elaboration) inside the EDA cache
    /// (`AIVRIL_INCREMENTAL`; on by default, `0` disables). Inert
    /// unless [`HarnessConfig::eda_cache`] is on; results are
    /// bit-identical either way, only wall-clock changes.
    pub incremental: bool,
    /// Deterministic LLM fault plan ([`FaultConfig`]) injected into
    /// every worker's model. Off by default; fault decisions are pure
    /// functions of request content, so faulted runs are bit-identical
    /// for every thread count too.
    pub faults: FaultConfig,
    /// Deterministic EDA/storage fault plan ([`EdaFaultPlan`],
    /// `AIVRIL_EDA_FAULTS`): tool crashes/hangs/log corruption, disk
    /// cache chaos and checkpoint torn writes. Off by default; every
    /// decision is a pure hash of the invocation's content key, so
    /// faulted runs stay bit-identical across thread counts and cache
    /// modes.
    pub eda_faults: EdaFaultPlan,
    /// Override for the simulator's delta-cycle watchdog
    /// (`max_deltas_per_step`); `None` keeps [`SimConfig::default`].
    pub sim_max_deltas: Option<u32>,
    /// Pipeline budgets.
    pub pipeline: Aivril2Config,
    /// Evaluate only shard `index` of `count` ([`plan_shards`]
    /// partition) instead of the full grid — the `AIVRIL_SHARD=i/n`
    /// distributed mode. `None` evaluates everything.
    pub shard: Option<(usize, usize)>,
    /// Directory for shard checkpoint logs (`AIVRIL_CHECKPOINT_DIR`).
    /// Completed cells are appended as they finish and replayed on
    /// restart, bit-identically; a full-range run over a directory
    /// other shards filled *is* the merge pass.
    pub checkpoint_dir: Option<String>,
    /// Directory for the persistent on-disk EDA cache tier
    /// (`AIVRIL_EDA_CACHE_DIR`); implies [`HarnessConfig::eda_cache`].
    pub eda_cache_dir: Option<String>,
    /// Canonical-output mode (`AIVRIL_CANONICAL`): zero the volatile
    /// `wall_seconds` and schedule-recording `threads` stats fields
    /// and drop the diagnostic `eda_cache`/`kernel` blocks, so
    /// results JSON from different processes, machines, thread counts
    /// or cache modes can be compared byte-for-byte.
    pub canonical: bool,
}

impl Default for HarnessConfig {
    fn default() -> HarnessConfig {
        HarnessConfig {
            samples: 5,
            task_limit: usize::MAX,
            threads: 0,
            eda_cache: false,
            incremental: true,
            faults: FaultConfig::off(),
            eda_faults: EdaFaultPlan::off(),
            sim_max_deltas: None,
            pipeline: Aivril2Config::default(),
            shard: None,
            checkpoint_dir: None,
            eda_cache_dir: None,
            canonical: false,
        }
    }
}

impl HarnessConfig {
    /// Reads `AIVRIL_SAMPLES` / `AIVRIL_TASKS` / `AIVRIL_THREADS` /
    /// `AIVRIL_EDA_CACHE` / `AIVRIL_INCREMENTAL` from the environment
    /// so the table binaries
    /// can be scaled without recompiling, plus the resilience knobs:
    /// `AIVRIL_FAULTS` (fault plan, see [`FaultConfig::parse`]),
    /// `AIVRIL_RETRY_MAX`, `AIVRIL_BACKOFF_BASE_MS`,
    /// `AIVRIL_BREAKER_THRESHOLD` and `AIVRIL_SIM_MAX_DELTAS`, plus
    /// the distributed-evaluation knobs: `AIVRIL_SHARD=i/n` (evaluate
    /// shard *i* of *n*), `AIVRIL_CHECKPOINT_DIR` (crash-safe resume
    /// and cross-process merge), `AIVRIL_EDA_CACHE_DIR` (persistent
    /// cache tier; implies `AIVRIL_EDA_CACHE=1`) and
    /// `AIVRIL_CANONICAL` (byte-comparable artifacts).
    #[must_use]
    pub fn from_env() -> HarnessConfig {
        Self::from_vars(|key| std::env::var(key).ok())
    }

    /// Like [`HarnessConfig::from_env`], but with an injectable
    /// variable lookup — tests pass a closure over a local map instead
    /// of mutating the process-global environment (which races against
    /// other tests running in the same process). Warnings about
    /// malformed values are printed to stderr; use
    /// [`HarnessConfig::from_vars_checked`] to inspect them instead.
    #[must_use]
    pub fn from_vars(get: impl Fn(&str) -> Option<String>) -> HarnessConfig {
        let (c, warnings) = Self::from_vars_checked(get);
        for w in warnings {
            eprintln!("[config] {w}");
        }
        c
    }

    /// The parse behind [`HarnessConfig::from_vars`], returning the
    /// warnings instead of printing them. A malformed numeric knob is
    /// *warned about and ignored* (the `AIVRIL_SHARD` discipline),
    /// never silently dropped: `AIVRIL_SAMPLES`, `AIVRIL_TASKS`,
    /// `AIVRIL_THREADS`, `AIVRIL_RETRY_MAX`,
    /// `AIVRIL_BREAKER_THRESHOLD` and `AIVRIL_SIM_MAX_DELTAS` must be
    /// non-negative integers, and `AIVRIL_BACKOFF_BASE_MS` must be a
    /// finite, non-negative number — a NaN or negative base would
    /// corrupt every modeled backoff wait downstream.
    #[must_use]
    pub fn from_vars_checked(get: impl Fn(&str) -> Option<String>) -> (HarnessConfig, Vec<String>) {
        let mut c = HarnessConfig::default();
        let mut warnings = Vec::new();
        if let Some(v) = get("AIVRIL_EDA_CACHE") {
            c.eda_cache = !v.is_empty() && v != "0";
        }
        if let Some(v) = get("AIVRIL_INCREMENTAL") {
            c.incremental = !v.is_empty() && v != "0";
        }
        if let Some(v) = get("AIVRIL_FAULTS") {
            match FaultConfig::parse(&v) {
                Ok(f) => c.faults = f,
                Err(e) => warnings.push(format!("ignoring AIVRIL_FAULTS: {e}")),
            }
        }
        if let Some(v) = get("AIVRIL_EDA_FAULTS") {
            match EdaFaultPlan::parse(&v) {
                Ok(f) => c.eda_faults = f,
                Err(e) => warnings.push(format!("ignoring AIVRIL_EDA_FAULTS: {e}")),
            }
        }
        let mut parse_u32 = |key: &'static str| -> Option<u32> {
            match get(key)?.parse() {
                Ok(n) => Some(n),
                Err(_) => {
                    warnings.push(format!(
                        "ignoring {key} (want a non-negative integer): {}",
                        get(key).unwrap_or_default()
                    ));
                    None
                }
            }
        };
        if let Some(n) = parse_u32("AIVRIL_SAMPLES") {
            c.samples = n;
        }
        if let Some(n) = parse_u32("AIVRIL_TASKS") {
            c.task_limit = n as usize;
        }
        if let Some(n) = parse_u32("AIVRIL_THREADS") {
            c.threads = n as usize;
        }
        if let Some(n) = parse_u32("AIVRIL_RETRY_MAX") {
            c.pipeline.resilience.retry_max = n;
        }
        if let Some(n) = parse_u32("AIVRIL_BREAKER_THRESHOLD") {
            c.pipeline.resilience.breaker_threshold = n;
        }
        if let Some(n) = parse_u32("AIVRIL_SIM_MAX_DELTAS") {
            c.sim_max_deltas = Some(n);
        }
        if let Some(v) = get("AIVRIL_BACKOFF_BASE_MS") {
            match v.parse::<f64>() {
                Ok(ms) if ms.is_finite() && ms >= 0.0 => {
                    c.pipeline.resilience.backoff_base_s = ms / 1000.0;
                }
                _ => warnings.push(format!(
                    "ignoring AIVRIL_BACKOFF_BASE_MS (want a finite, non-negative number): {v}"
                )),
            }
        }
        if let Some(v) = get("AIVRIL_SHARD") {
            match parse_shard(&v) {
                Some(shard) => c.shard = Some(shard),
                None => {
                    warnings.push(format!(
                        "ignoring AIVRIL_SHARD (want index/count, e.g. 0/3): {v}"
                    ));
                }
            }
        }
        if let Some(dir) = get("AIVRIL_CHECKPOINT_DIR").filter(|v| !v.is_empty()) {
            c.checkpoint_dir = Some(dir);
        }
        if let Some(dir) = get("AIVRIL_EDA_CACHE_DIR").filter(|v| !v.is_empty()) {
            c.eda_cache = true;
            c.eda_cache_dir = Some(dir);
        }
        if let Some(v) = get("AIVRIL_CANONICAL") {
            c.canonical = !v.is_empty() && v != "0";
        }
        (c, warnings)
    }

    /// The worker count [`Harness::evaluate`] will actually use:
    /// `threads`, or the machine's available parallelism when `0`.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }
}

/// Parses `AIVRIL_SHARD`'s `index/count` syntax; `None` on anything
/// malformed (including `index >= count` or `count == 0`).
fn parse_shard(v: &str) -> Option<(usize, usize)> {
    let (index, count) = v.split_once('/')?;
    let (index, count) = (index.trim().parse().ok()?, count.trim().parse().ok()?);
    (count > 0 && index < count).then_some((index, count))
}

/// A contiguous range of evaluation-grid cells, `start..end`, where a
/// cell's index is `problem_index * samples + sample`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// First cell (inclusive).
    pub start: usize,
    /// One past the last cell.
    pub end: usize,
}

impl ShardRange {
    /// Number of cells in the range.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the range covers no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Partitions a grid of `cells` cells into `count` contiguous,
/// balanced [`ShardRange`]s: sizes differ by at most one, with earlier
/// shards taking the remainder. Pure — every process that plans the
/// same `(cells, count)` agrees on the boundaries, which is what lets
/// independently spawned shard processes tile the grid exactly.
#[must_use]
pub fn plan_shards(cells: usize, count: usize) -> Vec<ShardRange> {
    let count = count.max(1);
    let (base, rem) = (cells / count, cells % count);
    let mut start = 0;
    (0..count)
        .map(|i| {
            let end = start + base + usize::from(i < rem);
            let range = ShardRange { start, end };
            start = end;
            range
        })
        .collect()
}

/// The seed of one evaluation run, derived purely from its grid
/// coordinates:
///
/// ```text
/// seed(problem_index, sample) = problem_index * 1_000_003 + sample * 7_919 + 17
/// ```
///
/// Every run is therefore independent of execution order — the
/// foundation of the parallel harness's bit-for-bit determinism. The
/// multipliers keep `(problem, sample)` pairs collision-free for any
/// sample count below 127 (the full suite uses 5), and [`SimLlm`]
/// additionally hashes the task *name* into its streams, so equal seeds
/// on different problems would not correlate anyway.
#[must_use]
pub fn run_seed(problem_index: usize, sample: u32) -> u64 {
    problem_index as u64 * 1_000_003 + u64::from(sample) * 7_919 + 17
}

/// Aggregate statistics of one [`Harness::evaluate_with_stats`] call:
/// the progress/throughput layer the table binaries surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalStats {
    /// Pipeline runs completed (problems × samples).
    pub runs: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Real elapsed seconds of the evaluation.
    pub wall_seconds: f64,
    /// Modeled end-to-end seconds (what Figure 3 reports): LLM + tools.
    pub modeled_seconds: f64,
    /// Modeled seconds attributable to the language model.
    pub modeled_llm_seconds: f64,
    /// Modeled seconds attributable to the EDA tools.
    pub modeled_tool_seconds: f64,
    /// Total corrective iterations of the syntax loops.
    pub syntax_iters: u64,
    /// Total corrective iterations of the functional loop.
    pub functional_iters: u64,
    /// EDA-cache counters scoped to this evaluation (hits/misses are
    /// deltas; entries is the store size afterwards). `None` when the
    /// cache is disabled. The deltas are deterministic — independent of
    /// `AIVRIL_THREADS` — because a key is missed exactly once however
    /// workers race (see `aivril_eda::EdaCache`).
    pub eda_cache: Option<CacheStats>,
    /// Resilience counters summed over every run: injected faults,
    /// retries, backoff seconds, breaker opens, degraded finishes and
    /// watchdog aborts. All-zero without fault injection.
    pub resilience: ResilienceCounters,
    /// Runs that panicked and were isolated by the harness; each is
    /// scored as a failed sample.
    pub crashed: u64,
    /// Simulation-kernel performance counters scoped to this evaluation
    /// (delta of the suite's lifetime totals). Diagnostic only — like
    /// `eda_cache`, excluded from canonical comparisons; deterministic
    /// across `AIVRIL_THREADS` and cache modes because cache hits fold
    /// the stored run's counters.
    pub kernel: KernelPerf,
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let per_run = |v: u64| v as f64 / self.runs.max(1) as f64;
        write!(
            f,
            "[stats] {} runs on {} thread(s) in {:.2}s wall | modeled {:.1}s \
             (llm {:.1}s + tools {:.1}s) | iters/run: {:.2} syntax, {:.2} functional",
            self.runs,
            self.threads,
            self.wall_seconds,
            self.modeled_seconds,
            self.modeled_llm_seconds,
            self.modeled_tool_seconds,
            per_run(self.syntax_iters),
            per_run(self.functional_iters),
        )?;
        if let Some(cache) = &self.eda_cache {
            write!(f, " | cache: {cache}")?;
        }
        if self.kernel.instructions > 0 {
            write!(
                f,
                " | kernel: {} instrs @ {:.0} instrs/sim-s, {} spilled evals, \
                 {} compactions, {} arena words",
                self.kernel.instructions,
                self.kernel.instrs_per_sim_sec(),
                self.kernel.eval_allocs,
                self.kernel.compactions,
                self.kernel.arena_words,
            )?;
        }
        // Only printed when something actually went wrong, so fault-free
        // output stays byte-identical to pre-resilience builds.
        if self.resilience.any() || self.crashed > 0 {
            let r = &self.resilience;
            write!(
                f,
                " | resilience: {} faults, {} retries ({:.1}s backoff), \
                 {} breaker opens, {} degraded, {} sim-diverged, {} crashed",
                r.llm_faults,
                r.retries,
                r.backoff_s,
                r.breaker_opens,
                r.degraded,
                r.sim_diverged,
                self.crashed,
            )?;
        }
        Ok(())
    }
}

/// Builds the simulated models' task knowledge from the benchmark
/// suite's golden solutions. The library shares the suite's texts: it
/// clones their `Arc`s and copies no text.
#[must_use]
pub fn build_library(problems: &[Problem]) -> TaskLibrary {
    let mut lib = TaskLibrary::new();
    for p in problems {
        lib.add_task(
            &p.name,
            p.verilog.dut.clone(),
            p.verilog.tb.clone(),
            p.vhdl.dut.clone(),
            p.vhdl.tb.clone(),
        );
    }
    lib
}

/// The scoring file of `problem`'s reference testbench, named as the
/// pipeline names a testbench ([`tb_file_name`]) and sharing the
/// suite's text.
fn golden_tb_file(problem: &Problem, verilog: bool) -> HdlFile {
    HdlFile::new(
        tb_file_name(&problem.module_name, verilog),
        problem.golden(verilog).tb.clone(),
    )
}

/// One completed run, as stored by the worker pool (and, through the
/// [`checkpoint`] codec, on disk — which is why it is public: the
/// read-only checkpoint scanners hand these back to `aivril-inspect
/// tail`).
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The scored outcome of the run.
    pub outcome: SampleOutcome,
    /// Modeled seconds attributable to the language model.
    pub llm_seconds: f64,
    /// Modeled seconds attributable to the EDA tools.
    pub tool_seconds: f64,
    /// Resilience counters accumulated by the run.
    pub resilience: ResilienceCounters,
}

/// One executed run with its final sources: the [`RunRecord`] the grid
/// aggregates plus the RTL/testbench the pipeline settled on — what a
/// job *service* must hand back to the caller (the grid harness scores
/// and discards the sources; a submitted job exists to produce them).
#[derive(Debug, Clone)]
pub struct JobRun {
    /// The scored record, as stored by the worker pool.
    pub record: RunRecord,
    /// Final RTL source (empty for crashed runs).
    pub rtl: String,
    /// Final self-generated testbench (empty for the baseline flow and
    /// crashed runs).
    pub tb: String,
}

/// The record of a run that panicked: scored as a failure on both
/// axes, zero modeled time, flagged `crashed`.
fn crashed_record() -> RunRecord {
    RunRecord {
        outcome: SampleOutcome {
            syntax: false,
            functional: false,
            total_latency: 0.0,
            syntax_phase_latency: 0.0,
            functional_phase_latency: 0.0,
            syntax_iters: 0,
            functional_iters: 0,
            crashed: true,
        },
        llm_seconds: 0.0,
        tool_seconds: 0.0,
        resilience: ResilienceCounters::default(),
    }
}

/// Runs one grid cell with panic isolation: a poisoned input that
/// panics the pipeline yields a counted [`crashed_record`] instead of
/// tearing down the whole worker pool. The recorder survives (its lock
/// recovers from poisoning); the caller must rebuild the worker, whose
/// conversation state may be half-written.
fn run_isolated(f: impl FnOnce() -> JobRun) -> JobRun {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| JobRun {
        record: crashed_record(),
        rtl: String::new(),
        tb: String::new(),
    })
}

/// Where a run sits: its problem and sample (a submitted job is sample
/// 0) and the seed it runs with.
#[derive(Debug, Clone, Copy)]
struct Cell {
    problem: usize,
    sample: u32,
    seed: u64,
}

/// The evaluation harness: tools + suite + model knowledge.
pub struct Harness {
    tools: XsimToolSuite,
    problems: Vec<Problem>,
    config: HarnessConfig,
    recorder: Recorder,
    // Built once per harness on first use; shared by every shard run
    // and every submitted job (the model clones share it by `Arc`).
    library: OnceLock<std::sync::Arc<TaskLibrary>>,
    // Each problem's reference testbench files, `[Verilog, VHDL]`, by
    // problem id: built once, so scoring neither copies a testbench nor
    // re-hashes it (a file memoises its content digest).
    golden_tbs: Vec<[HdlFile; 2]>,
}

impl Harness {
    /// Creates a harness over the full 156-problem suite. When
    /// [`HarnessConfig::eda_cache`] is set, one [`EdaCache`] is
    /// installed in the tool suite; worker clones share it, so the
    /// whole evaluation grid (pipeline *and* scoring invocations)
    /// deduplicates through a single store.
    #[must_use]
    pub fn new(config: HarnessConfig) -> Harness {
        let mut tools = XsimToolSuite::new();
        if let Some(max_deltas) = config.sim_max_deltas {
            tools = tools.with_sim_config(SimConfig {
                max_deltas_per_step: max_deltas,
                ..SimConfig::default()
            });
        }
        if !config.eda_faults.is_off() {
            tools = tools.with_eda_faults(config.eda_faults);
        }
        if let Some(dir) = &config.eda_cache_dir {
            tools = tools.with_cache(if config.eda_faults.is_off() {
                EdaCache::persistent(dir)
            } else {
                EdaCache::persistent_with_faults(dir, config.eda_faults)
            });
        } else if config.eda_cache {
            tools = tools.with_cache(EdaCache::new());
        }
        tools = tools.with_incremental(config.incremental);
        let problems = suite();
        let golden_tbs = problems
            .iter()
            .map(|p| [true, false].map(|verilog| golden_tb_file(p, verilog)))
            .collect();
        Harness {
            tools,
            problems,
            config,
            recorder: Recorder::disabled(),
            library: OnceLock::new(),
            golden_tbs,
        }
    }

    /// The simulated models' task knowledge over [`Harness::problems`],
    /// built lazily on first use and shared from then on.
    #[must_use]
    pub fn library(&self) -> std::sync::Arc<TaskLibrary> {
        self.library
            .get_or_init(|| std::sync::Arc::new(build_library(self.problems())))
            .clone()
    }

    /// Attaches an observability recorder. Each worker gets a fork
    /// wired into its model, pipeline and tool suite; forks are folded
    /// back and sorted by grid coordinates, so journals and metrics are
    /// bit-identical for every thread count. Disabled by default.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Harness {
        self.recorder = recorder;
        self
    }

    /// The benchmark problems in use (after the task cap).
    #[must_use]
    pub fn problems(&self) -> &[Problem] {
        &self.problems[..self.problems.len().min(self.config.task_limit)]
    }

    /// Lifetime counters of the shared EDA result cache; `None` when
    /// [`HarnessConfig::eda_cache`] is off. Binaries print this after
    /// their evaluations as the `[cache]` summary line.
    #[must_use]
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.tools.cache().map(EdaCache::stats)
    }

    /// Counters of the persistent on-disk cache tier; `None` unless
    /// [`HarnessConfig::eda_cache_dir`] is set.
    #[must_use]
    pub fn disk_cache_stats(&self) -> Option<DiskStats> {
        self.tools.cache().and_then(EdaCache::disk_stats)
    }

    /// Scores a final RTL source: compiles it alone for pass@1_S, then
    /// simulates it against the *reference* testbench for pass@1_F —
    /// the paper's methodology ("executing the testbenches provided in
    /// the benchmark suite").
    ///
    /// The files carry the names the pipeline gives a run's DUT and
    /// testbench ([`dut_file_name`], [`tb_file_name`]). Names are part of
    /// the EDA cache's keys, so when a run ends on the reference
    /// testbench, the scoring simulate is the pipeline's last simulate
    /// and a shared [`EdaCache`] answers it. Only the verdict and the
    /// modeled latency are read, and neither depends on file names.
    #[must_use]
    pub fn score(&self, problem: &Problem, rtl: &str, verilog: bool) -> (bool, bool) {
        self.score_with_latency(problem, rtl, verilog).0
    }

    /// Like [`Harness::score`], also returning the modeled EDA seconds
    /// of the evaluation run (baseline latency accounting: the paper's
    /// Figure 3 "accounts for the execution times of EDA tools").
    #[must_use]
    pub fn score_with_latency(
        &self,
        problem: &Problem,
        rtl: &str,
        verilog: bool,
    ) -> ((bool, bool), f64) {
        let files = self.scoring_files(problem, rtl, verilog);
        // Only the verdict is read: a cache hit must not elaborate again.
        let compile = self
            .tools
            .compile_with_top(&files[..1], Some(&problem.module_name));
        if !compile.success {
            return ((false, false), compile.modeled_latency);
        }
        let report = self.tools.simulate(&files, Some("tb"));
        (
            (true, report.passed),
            compile.modeled_latency + report.modeled_latency,
        )
    }

    /// The `[dut, reference testbench]` pair that scores `rtl`, under the
    /// pipeline's file names. The testbench is the file built at set-up,
    /// whose digest is hashed once per process; a problem from outside
    /// this harness's suite gets a fresh one.
    fn scoring_files(&self, problem: &Problem, rtl: &str, verilog: bool) -> [HdlFile; 2] {
        let dut = HdlFile::new(dut_file_name(&problem.module_name, verilog), rtl);
        let tb = self
            .golden_tbs
            .get(problem.id)
            .map(|files| &files[usize::from(!verilog)])
            .filter(|f| std::sync::Arc::ptr_eq(&f.text, &problem.golden(verilog).tb))
            .cloned()
            .unwrap_or_else(|| golden_tb_file(problem, verilog));
        [dut, tb]
    }

    /// Executes one run in a fresh worker — tool suite, model and
    /// pipeline shared with no other run — whose telemetry goes to
    /// `recorder`. Self-contained: everything a run needs, including
    /// its seed, arrives through its arguments, so calls are
    /// order-independent and trivially parallel. The grid path passes
    /// [`run_seed`] of the cell coordinates; the serve layer passes its
    /// own `(tenant, job)`-derived seed.
    ///
    /// A run that panics is isolated into a crashed record
    /// ([`run_isolated`]) and its journal scope closed here; the
    /// half-written worker dies with it.
    fn run_cell(
        &self,
        profile: &ModelProfile,
        verilog: bool,
        flow: Flow,
        cell: Cell,
        recorder: &Recorder,
    ) -> JobRun {
        let problem = &self.problems[cell.problem];
        let tools = self.tools.clone().with_recorder(recorder.clone());
        let mut model = SimLlm::new(profile.clone(), self.library())
            .with_faults(self.config.faults)
            .with_recorder(recorder.clone());
        let pipeline = Aivril2::new(&tools, self.config.pipeline).with_recorder(recorder.clone());
        let task = TaskInput {
            name: problem.name.clone(),
            module_name: problem.module_name.clone(),
            spec: problem.spec.clone(),
            verilog,
            seed: cell.seed,
        };
        let job = run_isolated(|| {
            // Journal events of this run are grouped under its grid
            // coordinates; the external scoring below stays untraced
            // (it uses the harness's shared, recorder-free tool suite
            // and is not part of the pipeline the paper's figures
            // describe).
            recorder.begin_run(cell.problem as u32, cell.sample);
            let result: RunResult = match flow {
                Flow::Baseline => BaselineFlow::new().run(&mut model, &task, &self.config.pipeline),
                Flow::Aivril2 => pipeline.run(&mut model, &task),
            };
            recorder.end_run();
            let ((syntax, functional), score_latency) =
                self.score_with_latency(problem, &result.final_rtl, verilog);
            // Baseline latency includes its single EDA evaluation pass
            // (the paper's baseline bars include EDA tool time);
            // AIVRIL2's tool time is already inside its trace.
            let extra = if flow == Flow::Baseline {
                score_latency
            } else {
                0.0
            };
            let outcome = SampleOutcome {
                syntax,
                functional,
                total_latency: result.trace.total_latency() + extra,
                syntax_phase_latency: result.trace.syntax_phase_latency(),
                functional_phase_latency: result.trace.functional_phase_latency(),
                syntax_iters: result.trace.iterations(Stage::TbSyntaxLoop)
                    + result.trace.iterations(Stage::RtlSyntaxLoop),
                functional_iters: result.trace.iterations(Stage::FunctionalLoop),
                crashed: false,
            };
            JobRun {
                record: RunRecord {
                    outcome,
                    llm_seconds: result.trace.llm_latency(),
                    tool_seconds: result.trace.tool_latency() + extra,
                    resilience: result.resilience,
                },
                rtl: result.final_rtl,
                tb: result.final_tb,
            }
        });
        if job.record.outcome.crashed {
            // Close the interrupted run's journal scope.
            recorder.end_run();
        }
        job
    }

    /// Executes one *submitted job* outside the evaluation grid: the
    /// serve layer's entry point. `seed` is the job's identity-derived
    /// seed (the [`run_seed`] discipline applied to `(tenant, job)`
    /// instead of grid coordinates) and `recorder` receives the job's
    /// journal run — one `begin_run(problem_index, 0)` scope holding
    /// every pipeline span, which the service streams back as progress
    /// frames. Panics inside the pipeline are isolated into a crashed
    /// record exactly like a grid cell.
    ///
    /// Determinism: the result is a pure function of `(profile,
    /// problem, seed, verilog, flow, faults, pipeline config)` — the
    /// worker is built fresh here and shares only the immutable task
    /// library and the schedule-invariant [`EdaCache`] with concurrent
    /// jobs, so replaying a job yields bit-identical output however
    /// other jobs interleave.
    ///
    /// # Panics
    ///
    /// Panics when `problem_index` is outside [`Harness::problems`].
    #[must_use]
    pub fn run_job(
        &self,
        profile: &ModelProfile,
        problem_index: usize,
        seed: u64,
        verilog: bool,
        flow: Flow,
        recorder: &Recorder,
    ) -> JobRun {
        let problems = self.problems();
        assert!(
            problem_index < problems.len(),
            "problem index {problem_index} outside the {}-problem suite",
            problems.len()
        );
        let cell = Cell {
            problem: problem_index,
            sample: 0,
            seed,
        };
        self.run_cell(profile, verilog, flow, cell, recorder)
    }

    /// Runs one flow over the suite for one model × language, returning
    /// per-task outcomes ready for the metrics crate.
    ///
    /// Work is sharded across [`HarnessConfig::effective_threads`]
    /// workers; results are merged back in problem/sample order and are
    /// bit-identical for every thread count (see the crate docs).
    pub fn evaluate(&self, profile: &ModelProfile, verilog: bool, flow: Flow) -> Vec<EvalOutcome> {
        self.evaluate_with_stats(profile, verilog, flow).0
    }

    /// Like [`Harness::evaluate`], also returning wall-clock and
    /// iteration statistics ([`EvalStats`]). Internally this is
    /// [`Harness::run_shard`] over the configured cell range (the full
    /// grid, or the [`HarnessConfig::shard`] slice) followed by
    /// [`Harness::merge_shards`] — a single-process evaluation is just
    /// the one-shard special case of the distributed protocol, so both
    /// paths share every byte of the rendering pipeline.
    pub fn evaluate_with_stats(
        &self,
        profile: &ModelProfile,
        verilog: bool,
        flow: Flow,
    ) -> (Vec<EvalOutcome>, EvalStats) {
        let total = self.problems().len() * self.config.samples as usize;
        let range = match self.config.shard {
            // An out-of-range index (impossible via `AIVRIL_SHARD`
            // parsing) degrades to an empty slice, not a panic.
            Some((index, count)) => {
                plan_shards(total, count)
                    .get(index)
                    .copied()
                    .unwrap_or(ShardRange {
                        start: total,
                        end: total,
                    })
            }
            None => ShardRange {
                start: 0,
                end: total,
            },
        };
        let shard = self.run_shard(profile, verilog, flow, range);
        self.merge_shards(vec![shard])
    }

    /// Fingerprint of everything that determines a cell's result and
    /// telemetry: model, language, flow, grid shape, fault plan,
    /// pipeline budgets, watchdog override and whether a recorder is
    /// attached. Checkpoint logs carrying a different fingerprint are
    /// ignored. Shard topology is deliberately *excluded* so any
    /// process can replay any shard's cells — that is exactly what the
    /// `aivril-shard` merge pass does.
    fn fingerprint(&self, profile: &ModelProfile, verilog: bool, flow: Flow) -> u64 {
        let mut w = codec::Writer::new();
        w.str(&format!("{profile:?}"));
        w.bool(verilog);
        w.str(flow.label());
        w.u64(u64::from(self.config.samples));
        w.u64(self.problems().len() as u64);
        w.bool(self.recorder.is_enabled());
        w.str(&format!(
            "{:?}{:?}{:?}",
            self.config.faults, self.config.pipeline, self.config.sim_max_deltas
        ));
        // Folded in only when live so every all-off artifact (checkpoint
        // file names included) is byte-identical to a plan-unaware build.
        if !self.config.eda_faults.is_off() {
            w.str(&format!("{:?}", self.config.eda_faults));
        }
        codec::fnv64(w.payload().as_bytes())
    }

    /// Evaluates one contiguous slice of the problem × sample grid —
    /// the distributed-evaluation building block. Seeds are derived
    /// from grid coordinates ([`run_seed`]), so any partition of the
    /// grid computes exactly the cells a full run would.
    ///
    /// With [`HarnessConfig::checkpoint_dir`] set, cells already
    /// present in the checkpoint directory are *replayed* (records,
    /// journal runs and metrics restored bit-identically) and each
    /// freshly computed cell is appended as it finishes, so a killed
    /// process resumes where it stopped.
    ///
    /// # Panics
    ///
    /// Panics when `range` does not fit the grid.
    pub fn run_shard(
        &self,
        profile: &ModelProfile,
        verilog: bool,
        flow: Flow,
        range: ShardRange,
    ) -> ShardRun {
        let start = Instant::now();
        let cache_before = self.cache_stats();
        let kernel_before = self.tools.kernel_stats();
        let problems = self.problems();
        let samples = self.config.samples as usize;
        let total = problems.len() * samples;
        assert!(
            range.start <= range.end && range.end <= total,
            "shard range {range:?} outside the {total}-cell grid"
        );

        // Telemetry: one fork per shard run (carrying the context
        // pairs), one sub-fork per cell. All of this is a no-op when
        // the harness recorder is disabled.
        let eval_rec = self.recorder.fork();
        eval_rec.set_context(&[
            ("model", &profile.name),
            ("lang", if verilog { "verilog" } else { "vhdl" }),
            ("flow", flow.label()),
        ]);

        // Checkpoint replay: restore finished cells in grid order (so
        // their journals and metrics fold in exactly as a live run
        // would emit them), queue the rest for the worker pool.
        let ckpt = self.config.checkpoint_dir.as_ref().map(|dir| {
            checkpoint::ShardCheckpoint::open(
                Path::new(dir),
                self.fingerprint(profile, verilog, flow),
                range,
            )
            .with_faults(self.config.eda_faults)
        });
        let slots: Vec<OnceLock<RunRecord>> = (0..range.len()).map(|_| OnceLock::new()).collect();
        let mut pending = Vec::new();
        for cell in range.start..range.end {
            match ckpt.as_ref().and_then(|c| c.restored(cell)) {
                Some(done) => {
                    for run in &done.runs {
                        eval_rec.push_run(run.clone());
                    }
                    eval_rec.merge_metrics(&done.metrics);
                    let _ = slots[cell - range.start].set(done.record.clone());
                }
                None => pending.push(cell),
            }
        }

        // One write-once slot per grid cell: workers claim pending
        // cells through the atomic cursor and publish results
        // lock-free; the merge reads them back in grid order, making
        // the output independent of scheduling.
        let threads = self
            .config
            .effective_threads()
            .clamp(1, pending.len().max(1));
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                // Shadow the shared state as references so the `move`
                // closure copies pointers, not the values themselves.
                let (slots, cursor) = (&slots, &cursor);
                let (pending, eval_rec, ckpt) = (&pending, &eval_rec, &ckpt);
                scope.spawn(move || {
                    loop {
                        let next = cursor.fetch_add(1, Ordering::Relaxed);
                        if next >= pending.len() {
                            break;
                        }
                        let cell = pending[next];
                        let (pi, si) = (cell / samples, (cell % samples) as u32);
                        // One recorder fork and one worker per *cell*:
                        // the fork captures exactly this cell's journal
                        // runs and metrics delta, which is what the
                        // checkpoint line must carry for replay to be
                        // bit-identical. Rebuilding the worker is cheap
                        // (the model clone shares the task library) and
                        // keeps cells fully independent.
                        let cell_rec = eval_rec.fork();
                        let coords = Cell {
                            problem: pi,
                            sample: si,
                            seed: run_seed(pi, si),
                        };
                        let record = self
                            .run_cell(profile, verilog, flow, coords, &cell_rec)
                            .record;
                        if let Some(ckpt) = ckpt {
                            ckpt.append(
                                cell,
                                &checkpoint::CellRecord {
                                    record: record.clone(),
                                    runs: cell_rec.runs(),
                                    metrics: cell_rec.metrics(),
                                },
                            );
                        }
                        eval_rec.absorb(&cell_rec);
                        let won = slots[cell - range.start].set(record).is_ok();
                        debug_assert!(won, "grid cell {cell} computed twice");
                    }
                });
            }
        });

        // The absorb order above is completion order; sorting by grid
        // coordinates restores one canonical journal for every thread
        // count and every replayed/computed split. The metrics merge
        // is order-independent by construction.
        eval_rec.sort_runs();

        // Cache accounting for this shard: the delta between the
        // shared cache's counters before and after. Emitted as
        // *diagnostic* metric series (`eda_cache_*`), which the
        // canonical metrics view excludes — they exist only with the
        // cache on, while every canonical series must be bit-identical
        // across cache modes.
        let eda_cache = self.cache_stats().zip(cache_before).map(|(now, before)| {
            let delta = now.since(&before);
            eval_rec.counter_add("eda_cache_hits_total", &[], delta.hits);
            eval_rec.counter_add("eda_cache_misses_total", &[], delta.misses);
            eval_rec.gauge_set("eda_cache_entries_total", &[], now.entries as f64);
            delta
        });
        self.recorder.absorb(&eval_rec);

        ShardRun {
            range,
            records: slots
                .into_iter()
                .map(|s| s.into_inner().expect("every cell computed or replayed"))
                .collect(),
            wall_seconds: start.elapsed().as_secs_f64(),
            eda_cache,
            kernel: self.tools.kernel_stats().since(&kernel_before),
        }
    }

    /// Merges shard outputs back into the single-evaluation shape:
    /// per-task outcomes in grid order plus aggregate [`EvalStats`].
    /// The shards may arrive in any order but must tile one contiguous
    /// cell range. Stats accumulate in grid order over the
    /// concatenated records — the same float-summation order a
    /// single-process run uses — so a sharded evaluation is
    /// bit-identical to an unsharded one.
    ///
    /// # Panics
    ///
    /// Panics when the shard ranges overlap or leave gaps.
    pub fn merge_shards(&self, mut shards: Vec<ShardRun>) -> (Vec<EvalOutcome>, EvalStats) {
        shards.sort_by_key(|s| s.range.start);
        for pair in shards.windows(2) {
            assert_eq!(
                pair[0].range.end, pair[1].range.start,
                "shards must tile a contiguous cell range"
            );
        }
        let problems = self.problems();
        let samples = self.config.samples as usize;
        let lo = shards.first().map_or(0, |s| s.range.start);
        let hi = shards.last().map_or(0, |s| s.range.end);

        // Diagnostic counters: deltas add across shards (they are
        // disjoint slices of one monotone counter stream); the entries
        // gauge takes the latest (= largest) store size.
        let eda_cache = shards
            .iter()
            .filter_map(|s| s.eda_cache)
            .reduce(|mut total, d| {
                total.merge(&d);
                total
            });
        let mut kernel = KernelPerf::default();
        for s in &shards {
            kernel.merge(&s.kernel);
        }
        let mut stats = EvalStats {
            runs: hi - lo,
            threads: self.config.effective_threads().clamp(1, (hi - lo).max(1)),
            wall_seconds: shards.iter().map(|s| s.wall_seconds).sum(),
            modeled_seconds: 0.0,
            modeled_llm_seconds: 0.0,
            modeled_tool_seconds: 0.0,
            syntax_iters: 0,
            functional_iters: 0,
            eda_cache,
            resilience: ResilienceCounters::default(),
            crashed: 0,
            kernel,
        };

        let mut records = shards
            .into_iter()
            .flat_map(|s| s.records)
            .collect::<Vec<_>>()
            .into_iter();
        let (first_problem, last_problem) = if hi == lo {
            (0, 0)
        } else {
            (lo / samples, (hi - 1) / samples + 1)
        };
        let mut outcomes = Vec::with_capacity(last_problem - first_problem);
        for (pi, problem) in problems
            .iter()
            .enumerate()
            .take(last_problem)
            .skip(first_problem)
        {
            let cells = (pi * samples).max(lo)..((pi + 1) * samples).min(hi);
            let mut task_samples = Vec::with_capacity(cells.len());
            for _ in cells {
                let record = records.next().expect("one record per covered cell");
                stats.modeled_seconds += record.outcome.total_latency;
                stats.modeled_llm_seconds += record.llm_seconds;
                stats.modeled_tool_seconds += record.tool_seconds;
                stats.syntax_iters += u64::from(record.outcome.syntax_iters);
                stats.functional_iters += u64::from(record.outcome.functional_iters);
                stats.resilience.merge(&record.resilience);
                stats.crashed += u64::from(record.outcome.crashed);
                task_samples.push(record.outcome);
            }
            outcomes.push(EvalOutcome {
                task: problem.name.clone(),
                samples: task_samples,
            });
        }
        if self.config.canonical {
            // Mask the documented volatile/diagnostic stats fields so
            // artifacts from different processes, machines, schedules
            // and cache modes compare byte-for-byte
            // (`AIVRIL_CANONICAL`). `threads` records the schedule
            // itself — the one thing cross-schedule comparisons must
            // not see.
            stats.wall_seconds = 0.0;
            stats.threads = 0;
            stats.eda_cache = None;
            stats.kernel = KernelPerf::default();
        }
        (outcomes, stats)
    }
}

/// One shard's evaluation output: the computed (or replayed) records
/// of its cell range plus its share of the diagnostic counters.
/// Opaque — produced by [`Harness::run_shard`], consumed by
/// [`Harness::merge_shards`].
#[derive(Debug)]
pub struct ShardRun {
    range: ShardRange,
    records: Vec<RunRecord>,
    wall_seconds: f64,
    eda_cache: Option<CacheStats>,
    kernel: KernelPerf,
}

/// Telemetry switches shared by every table/figure binary, read from
/// the environment:
///
/// * `AIVRIL_TRACE_JSON=<path>` — write the JSONL run journal there.
/// * `AIVRIL_TRACE_CHROME=<path>` — write a Chrome `trace_event` JSON
///   (Perfetto-viewable) there.
/// * `AIVRIL_METRICS=1` — print the rendered metrics registry after
///   the run's `EvalStats`.
///
/// When none is set the recorder is disabled and instrumentation costs
/// a branch per call site.
#[derive(Debug, Clone)]
pub struct Telemetry {
    recorder: Recorder,
    trace_path: Option<String>,
    chrome_path: Option<String>,
    metrics: bool,
}

impl Telemetry {
    /// Reads the telemetry switches from the process environment.
    #[must_use]
    pub fn from_env() -> Telemetry {
        Self::from_vars(|key| std::env::var(key).ok())
    }

    /// Like [`Telemetry::from_env`] with an injectable lookup (tests
    /// pass a closure instead of mutating the process environment).
    #[must_use]
    pub fn from_vars(get: impl Fn(&str) -> Option<String>) -> Telemetry {
        let trace_path = get("AIVRIL_TRACE_JSON").filter(|v| !v.is_empty());
        let chrome_path = get("AIVRIL_TRACE_CHROME").filter(|v| !v.is_empty());
        let metrics = get("AIVRIL_METRICS").is_some_and(|v| !v.is_empty() && v != "0");
        let enabled = trace_path.is_some() || chrome_path.is_some() || metrics;
        Telemetry {
            recorder: if enabled {
                Recorder::new()
            } else {
                Recorder::disabled()
            },
            trace_path,
            chrome_path,
            metrics,
        }
    }

    /// The recorder handle to install via [`Harness::with_recorder`].
    #[must_use]
    pub fn recorder(&self) -> Recorder {
        self.recorder.clone()
    }

    /// `true` when any telemetry output was requested.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// Writes the requested exports and returns the rendered metrics
    /// summary (empty unless `AIVRIL_METRICS` is on) so binaries can
    /// append it to their `EvalStats` output.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when a journal/trace file cannot be
    /// written.
    pub fn finish(&self) -> std::io::Result<String> {
        if let Some(path) = &self.trace_path {
            write_json(path, &aivril_obs::render_journal(&self.recorder))?;
            eprintln!("[obs] run journal written to {path}");
        }
        if let Some(path) = &self.chrome_path {
            write_json(path, &aivril_obs::chrome_trace(&self.recorder))?;
            eprintln!("[obs] chrome trace written to {path}");
        }
        if self.metrics {
            let dump = self.recorder.metrics().render();
            return Ok(format!("[metrics]\n{dump}"));
        }
        Ok(String::new())
    }
}

/// What the figure binaries share: a [`Harness`] with [`Telemetry`]
/// from the environment attached, and the [`ResultSection`] of every
/// evaluation it ran, for `--json`.
pub struct Driver {
    harness: Harness,
    telemetry: Telemetry,
    sections: Vec<ResultSection>,
}

impl Driver {
    /// A driver over the environment's configuration.
    #[must_use]
    pub fn from_env() -> Driver {
        Driver::new(HarnessConfig::from_env())
    }

    /// A driver over `config`, with telemetry from the environment.
    #[must_use]
    pub fn new(config: HarnessConfig) -> Driver {
        let telemetry = Telemetry::from_env();
        let harness = Harness::new(config).with_recorder(telemetry.recorder());
        Driver {
            harness,
            telemetry,
            sections: Vec::new(),
        }
    }

    /// Writes `Running {title}: {n} tasks x {s} samples{dims} on {t}
    /// thread(s)` and a blank line.
    ///
    /// # Errors
    ///
    /// Returns the write error.
    pub fn header(&self, out: &mut impl Write, title: &str, dims: &str) -> std::io::Result<()> {
        writeln!(
            out,
            "Running {title}: {} tasks x {} samples{dims} on {} thread(s)\n",
            self.harness.problems().len(),
            self.harness.config.samples,
            self.threads()
        )
    }

    /// The worker count the evaluations run on.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.harness.config.effective_threads()
    }

    /// Evaluates `profile` on one language and flow, logs the stats to
    /// stderr and records the outcomes as the section `"{model}
    /// {Verilog|VHDL} {flow}"`.
    pub fn evaluate(
        &mut self,
        profile: &ModelProfile,
        verilog: bool,
        flow: Flow,
    ) -> Vec<EvalOutcome> {
        let (lang, flow_name) = (language_name(verilog), flow.label());
        let label = format!("{} {lang} {flow_name}", profile.name);
        eprintln!("== {label} ==");
        let (outcomes, stats) = self.harness.evaluate_with_stats(profile, verilog, flow);
        eprintln!("   {stats}");
        self.sections.push(ResultSection {
            label,
            outcomes: outcomes.clone(),
            stats,
        });
        outcomes
    }

    /// Writes the `[cache]` line, the `--json` results and the telemetry
    /// exports, and the metrics summary when one was asked for.
    ///
    /// # Errors
    ///
    /// Returns the write error.
    ///
    /// # Panics
    ///
    /// Panics when the `--json` file cannot be written.
    pub fn finish(self, out: &mut impl Write) -> std::io::Result<()> {
        if let Some(stats) = self.harness.cache_stats() {
            writeln!(out, "[cache] {stats}\n")?;
        }
        if let Some(path) = arg_value("--json") {
            write_json(&path, &results_json(&self.sections)).expect("write --json output");
            writeln!(out, "results written to {path}\n")?;
        }
        match self.telemetry.finish() {
            Ok(summary) if !summary.is_empty() => writeln!(out, "{summary}")?,
            Ok(_) => {}
            Err(e) => eprintln!("[obs] export failed: {e}"),
        }
        Ok(())
    }
}

/// One labelled evaluation's results, as serialised by
/// [`results_json`]: the section label (e.g. `Claude 3.5 Sonnet
/// Verilog aivril2`), the per-task outcomes and the aggregate stats.
#[derive(Debug, Clone)]
pub struct ResultSection {
    /// Human-readable section label.
    pub label: String,
    /// Per-task outcomes in suite order.
    pub outcomes: Vec<EvalOutcome>,
    /// Aggregate statistics of the evaluation.
    pub stats: EvalStats,
}

/// Serialises evaluation results as schema-versioned JSON
/// (`aivril.results` version 5; v2 added the per-section
/// `stats.eda_cache` block, v3 the per-section `stats.resilience`
/// block and the per-sample `crashed` flag, v5 the `arena_words`
/// kernel gauge and the incremental parse/elab counters in the
/// `eda_cache` block, v4 the diagnostic
/// `stats.kernel` performance block) — the `--json <path>` payload of
/// the table/figure binaries. Hand-rolled (the build has no registry
/// access) but deterministic: fixed field order, fixed float format.
#[must_use]
pub fn results_json(sections: &[ResultSection]) -> String {
    let sample_json = |s: &SampleOutcome| {
        json::object(&[
            ("syntax", s.syntax.to_string()),
            ("functional", s.functional.to_string()),
            ("total_latency_s", json::number(s.total_latency)),
            (
                "syntax_phase_latency_s",
                json::number(s.syntax_phase_latency),
            ),
            (
                "functional_phase_latency_s",
                json::number(s.functional_phase_latency),
            ),
            ("syntax_iters", s.syntax_iters.to_string()),
            ("functional_iters", s.functional_iters.to_string()),
            ("crashed", s.crashed.to_string()),
        ])
    };
    let task_json = |o: &EvalOutcome| {
        let samples: Vec<String> = o.samples.iter().map(sample_json).collect();
        json::object(&[
            ("task", json::string(&o.task)),
            ("samples", format!("[{}]", samples.join(","))),
        ])
    };
    let stats_json = |s: &EvalStats| {
        // `wall_seconds` and `eda_cache` are the two *volatile* fields:
        // wall clock varies per run, and the cache block depends on
        // AIVRIL_EDA_CACHE. Consumers comparing results across machines
        // or cache modes (the CI divergence gate) normalise both away;
        // everything else is bit-deterministic.
        let cache = match &s.eda_cache {
            None => "null".to_string(),
            Some(c) => json::object(&[
                ("hits", c.hits.to_string()),
                ("misses", c.misses.to_string()),
                ("entries", c.entries.to_string()),
                ("hit_rate", json::number(c.hit_rate())),
                ("parse_hits", c.parse_hits.to_string()),
                ("parse_misses", c.parse_misses.to_string()),
                ("elab_hits", c.elab_hits.to_string()),
                ("elab_misses", c.elab_misses.to_string()),
            ]),
        };
        let resilience = json::object(&[
            ("llm_faults", s.resilience.llm_faults.to_string()),
            ("retries", s.resilience.retries.to_string()),
            ("backoff_s", json::number(s.resilience.backoff_s)),
            ("breaker_opens", s.resilience.breaker_opens.to_string()),
            ("degraded", s.resilience.degraded.to_string()),
            ("sim_diverged", s.resilience.sim_diverged.to_string()),
            ("crashed", s.crashed.to_string()),
        ]);
        // Diagnostic kernel performance block: every field is derived
        // from thread- and cache-mode-invariant integer counters, so it
        // is as deterministic as the canonical fields around it.
        let kernel = json::object(&[
            ("instructions", s.kernel.instructions.to_string()),
            ("sim_time_ns", s.kernel.sim_time_ns.to_string()),
            (
                "instrs_per_sim_sec",
                json::number(s.kernel.instrs_per_sim_sec()),
            ),
            ("eval_allocs", s.kernel.eval_allocs.to_string()),
            ("compactions", s.kernel.compactions.to_string()),
            ("arena_words", s.kernel.arena_words.to_string()),
        ]);
        json::object(&[
            ("runs", s.runs.to_string()),
            ("threads", s.threads.to_string()),
            ("wall_seconds", json::number(s.wall_seconds)),
            ("modeled_seconds", json::number(s.modeled_seconds)),
            ("modeled_llm_seconds", json::number(s.modeled_llm_seconds)),
            ("modeled_tool_seconds", json::number(s.modeled_tool_seconds)),
            ("syntax_iters", s.syntax_iters.to_string()),
            ("functional_iters", s.functional_iters.to_string()),
            ("eda_cache", cache),
            ("resilience", resilience),
            ("kernel", kernel),
        ])
    };
    let sections: Vec<String> = sections
        .iter()
        .map(|sec| {
            let tasks: Vec<String> = sec.outcomes.iter().map(task_json).collect();
            json::object(&[
                ("label", json::string(&sec.label)),
                ("stats", stats_json(&sec.stats)),
                ("tasks", format!("[{}]", tasks.join(","))),
            ])
        })
        .collect();
    format!(
        "{}\n",
        json::object(&[
            ("schema", json::string("aivril.results")),
            ("version", "5".to_string()),
            ("sections", format!("[{}]", sections.join(","))),
        ])
    )
}

/// Writes a text artifact to `path`, creating parent directories
/// first — `--json runs/today/out.json` must not fail just because
/// `runs/today/` does not exist yet.
///
/// # Errors
///
/// Returns the underlying I/O error when the directory or file cannot
/// be created.
pub fn write_json(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

/// Returns the value following `flag` in the process arguments
/// (`--json out.json` style); `None` when absent.
#[must_use]
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Runs a binary's `body` against the locked stdout and returns its
/// exit code. A reader that closes the pipe early (`aivril suite list |
/// head -1`) ends the run quietly: the failed write returns
/// `BrokenPipe` out of `body`, and the process exits successfully with
/// nothing on stderr. Any other write error is reported and fails.
pub fn with_stdout(
    body: impl FnOnce(&mut std::io::StdoutLock<'static>) -> std::io::Result<ExitCode>,
) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match body(&mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

// The parallel harness hands `&XsimToolSuite`, `&ModelProfile` and
// `&TaskLibrary` to scoped workers; keep the shared surfaces
// thread-clean by contract, not by accident.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<XsimToolSuite>();
    assert_send_sync::<SimLlm>();
    assert_send_sync::<ModelProfile>();
    assert_send_sync::<TaskLibrary>();
    assert_send_sync::<Harness>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use aivril_core::ResiliencePolicy;
    use aivril_llm::profiles;
    use aivril_metrics::suite_metric;

    fn small() -> Harness {
        Harness::new(HarnessConfig {
            samples: 3,
            task_limit: 6,
            ..HarnessConfig::default()
        })
    }

    #[test]
    fn scoring_accepts_golden_and_rejects_garbage() {
        let h = small();
        let p = &h.problems()[0];
        let (s, f) = h.score(p, &p.verilog.dut, true);
        assert!(s && f, "golden must score clean");
        let (s, f) = h.score(p, "module broken(", true);
        assert!(!s && !f);
        let (s, f) = h.score(p, &p.vhdl.dut, false);
        assert!(s && f, "golden VHDL must score clean");
    }

    #[test]
    fn flow_labels_round_trip() {
        for flow in [Flow::Baseline, Flow::Aivril2] {
            assert_eq!(Flow::from_label(flow.label()), Some(flow));
        }
        assert_eq!(Flow::from_label("Aivril2"), None, "labels are exact");
        assert_eq!(Flow::from_label("pipeline"), None);
        assert_eq!(Flow::from_label(""), None);
    }

    fn task_of(problem: &Problem, verilog: bool, seed: u64) -> TaskInput {
        TaskInput {
            name: problem.name.clone(),
            module_name: problem.module_name.clone(),
            spec: problem.spec.clone(),
            verilog,
            seed,
        }
    }

    #[test]
    fn scoring_uses_the_pipelines_file_names() {
        let h = small();
        for p in h.problems() {
            for verilog in [true, false] {
                let task = task_of(p, verilog, 0);
                let [dut, tb] = h.scoring_files(p, &p.golden(verilog).dut, verilog);
                assert_eq!(dut.name, task.dut_file_name());
                assert_eq!(tb.name, task.tb_file_name());
            }
        }
    }

    #[test]
    fn scoring_a_run_that_passed_on_the_reference_testbench_hits_the_cache() {
        // A run whose functional loop passed with the reference
        // testbench last simulated exactly the scoring pair, so the
        // scoring simulate must be answered by the shared cache.
        let h = Harness::new(HarnessConfig {
            task_limit: 6,
            eda_cache: true,
            ..HarnessConfig::default()
        });
        let profile = profiles::claude35_sonnet();
        let pipeline = Aivril2::new(&h.tools, h.config.pipeline);
        for verilog in [true, false] {
            let run = h
                .problems()
                .iter()
                .enumerate()
                .flat_map(|(i, p)| (0..8).map(move |sample| (p, run_seed(i, sample))))
                .find_map(|(p, seed)| {
                    let task = task_of(p, verilog, seed);
                    let mut model = SimLlm::new(profile.clone(), h.library());
                    let run = pipeline.run(&mut model, &task);
                    let golden_tb = run.final_tb.as_str() == &*p.golden(verilog).tb;
                    (run.functional_pass && golden_tb).then_some((p, task, run))
                });
            let (p, task, run) = run.expect("some run passes on the reference testbench");
            // The scoring compile (the DUT alone) is a call the pipeline
            // never makes; make it first so only the simulate is left.
            let dut = HdlFile::new(task.dut_file_name(), run.final_rtl.as_str());
            let compile = h
                .tools
                .compile_with_top(std::slice::from_ref(&dut), Some(&p.module_name));
            assert!(compile.success);
            let before = h.cache_stats().expect("cache on");
            assert_eq!(h.score(p, &run.final_rtl, verilog), (true, true));
            let delta = h.cache_stats().expect("cache on").since(&before);
            assert!(
                delta.misses == 0 && delta.hits > 0,
                "verilog={verilog}: scoring re-ran a tool: {delta}"
            );
        }
    }

    #[test]
    fn aivril2_beats_baseline_on_small_slice() {
        let h = small();
        let profile = profiles::claude35_sonnet();
        let base = h.evaluate(&profile, true, Flow::Baseline);
        let full = h.evaluate(&profile, true, Flow::Aivril2);
        let base_f = suite_metric(&base, 1, |s| s.functional);
        let full_f = suite_metric(&full, 1, |s| s.functional);
        let full_s = suite_metric(&full, 1, |s| s.syntax);
        assert!(full_s > 0.9, "syntax loop should converge: {full_s}");
        assert!(full_f >= base_f, "aivril2 {full_f} vs baseline {base_f}");
    }

    #[test]
    fn latencies_accumulate_in_aivril2() {
        let h = small();
        let profile = profiles::gpt4o();
        let base = h.evaluate(&profile, true, Flow::Baseline);
        let full = h.evaluate(&profile, true, Flow::Aivril2);
        let avg = |o: &[EvalOutcome]| {
            let (mut t, mut n) = (0.0, 0);
            for e in o {
                for s in &e.samples {
                    t += s.total_latency;
                    n += 1;
                }
            }
            t / f64::from(n)
        };
        assert!(avg(&full) > avg(&base));
    }

    #[test]
    fn env_config_parsing_is_injectable() {
        // No process-global environment mutation: `cargo test` runs
        // tests concurrently in one process, so `set_var` here would
        // race against every other test.
        let c = HarnessConfig::from_vars(|key| match key {
            "AIVRIL_SAMPLES" => Some("2".into()),
            "AIVRIL_TASKS" => Some("4".into()),
            "AIVRIL_THREADS" => Some("3".into()),
            _ => None,
        });
        assert_eq!(c.samples, 2);
        assert_eq!(c.task_limit, 4);
        assert_eq!(c.threads, 3);
        assert_eq!(c.effective_threads(), 3);

        let defaults = HarnessConfig::from_vars(|_| None);
        assert_eq!(defaults.samples, 5);
        assert_eq!(defaults.task_limit, usize::MAX);
        assert_eq!(defaults.threads, 0, "unset threads means auto-detect");
        assert!(defaults.effective_threads() >= 1);

        let garbage = HarnessConfig::from_vars(|_| Some("not a number".into()));
        assert_eq!(
            garbage.samples, 5,
            "unparsable values fall back to defaults"
        );
    }

    #[test]
    fn resilience_env_vars_are_parsed() {
        let c = HarnessConfig::from_vars(|key| match key {
            "AIVRIL_FAULTS" => Some("timeout=0.2,rate_limit=0.1".into()),
            "AIVRIL_RETRY_MAX" => Some("5".into()),
            "AIVRIL_BACKOFF_BASE_MS" => Some("250".into()),
            "AIVRIL_BREAKER_THRESHOLD" => Some("7".into()),
            "AIVRIL_SIM_MAX_DELTAS" => Some("512".into()),
            _ => None,
        });
        assert!(!c.faults.is_off());
        assert_eq!(c.pipeline.resilience.retry_max, 5);
        assert!((c.pipeline.resilience.backoff_base_s - 0.25).abs() < 1e-12);
        assert_eq!(c.pipeline.resilience.breaker_threshold, 7);
        assert_eq!(c.sim_max_deltas, Some(512));

        let defaults = HarnessConfig::from_vars(|_| None);
        assert!(defaults.faults.is_off(), "faults are off by default");
        assert_eq!(defaults.sim_max_deltas, None);

        let bad =
            HarnessConfig::from_vars(|k| (k == "AIVRIL_FAULTS").then(|| "nonsense=xyz".into()));
        assert!(bad.faults.is_off(), "unparsable fault plans are ignored");
    }

    #[test]
    fn eda_fault_env_var_is_parsed_or_ignored() {
        let c = HarnessConfig::from_vars(|k| {
            (k == "AIVRIL_EDA_FAULTS").then(|| "crash=0.2,disk_probe_eio=0.1".into())
        });
        assert!(!c.eda_faults.is_off());

        let defaults = HarnessConfig::from_vars(|_| None);
        assert!(
            defaults.eda_faults.is_off(),
            "EDA faults are off by default"
        );

        let (bad, warnings) = HarnessConfig::from_vars_checked(|k| {
            (k == "AIVRIL_EDA_FAULTS").then(|| "crash=2.0".into())
        });
        assert!(
            bad.eda_faults.is_off(),
            "unparsable EDA fault plans are ignored"
        );
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("AIVRIL_EDA_FAULTS"), "{warnings:?}");
    }

    #[test]
    fn malformed_resilience_knobs_warn_and_fall_back() {
        // Each malformed knob must produce a warning *and* leave the
        // default in place — the AIVRIL_SHARD discipline, not a silent
        // drop: `AIVRIL_SAMPLES=1O` (a letter O) must not quietly run
        // the default 5 samples.
        let knobs = [
            ("AIVRIL_SAMPLES", "1O"),
            ("AIVRIL_TASKS", "-4"),
            ("AIVRIL_THREADS", "two"),
            ("AIVRIL_RETRY_MAX", "many"),
            ("AIVRIL_BREAKER_THRESHOLD", "-2"),
            ("AIVRIL_SIM_MAX_DELTAS", "1e4"),
            ("AIVRIL_BACKOFF_BASE_MS", "fast"),
        ];
        for (key, value) in knobs {
            let (c, warnings) =
                HarnessConfig::from_vars_checked(|k| (k == key).then(|| value.into()));
            assert_eq!(warnings.len(), 1, "{key}={value}: {warnings:?}");
            assert!(warnings[0].contains(key), "{warnings:?}");
            assert!(warnings[0].contains(value), "{warnings:?}");
            let d = ResiliencePolicy::default();
            assert_eq!(c.pipeline.resilience.retry_max, d.retry_max);
            assert_eq!(c.pipeline.resilience.breaker_threshold, d.breaker_threshold);
            assert_eq!(c.pipeline.resilience.backoff_base_s, d.backoff_base_s);
            assert_eq!(c.sim_max_deltas, None);
            let grid = HarnessConfig::default();
            assert_eq!(
                (c.samples, c.task_limit, c.threads),
                (grid.samples, grid.task_limit, grid.threads)
            );
        }
    }

    #[test]
    fn backoff_base_rejects_non_finite_and_negative() {
        for bad in ["NaN", "inf", "-inf", "-250"] {
            let (c, warnings) = HarnessConfig::from_vars_checked(|k| {
                (k == "AIVRIL_BACKOFF_BASE_MS").then(|| bad.into())
            });
            assert_eq!(
                c.pipeline.resilience.backoff_base_s,
                ResiliencePolicy::default().backoff_base_s,
                "{bad} must not reach the modeled clock"
            );
            assert_eq!(warnings.len(), 1, "{bad}: {warnings:?}");
            assert!(
                warnings[0].contains("AIVRIL_BACKOFF_BASE_MS"),
                "{warnings:?}"
            );
        }
        // Zero is a legal base (no backoff), not an error.
        let (c, warnings) = HarnessConfig::from_vars_checked(|k| {
            (k == "AIVRIL_BACKOFF_BASE_MS").then(|| "0".into())
        });
        assert_eq!(c.pipeline.resilience.backoff_base_s, 0.0);
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn well_formed_knobs_produce_no_warnings() {
        let (_, warnings) = HarnessConfig::from_vars_checked(|key| match key {
            "AIVRIL_RETRY_MAX" => Some("5".into()),
            "AIVRIL_BACKOFF_BASE_MS" => Some("250".into()),
            "AIVRIL_BREAKER_THRESHOLD" => Some("7".into()),
            "AIVRIL_SIM_MAX_DELTAS" => Some("512".into()),
            "AIVRIL_SHARD" => Some("0/3".into()),
            _ => None,
        });
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn faulted_evaluation_completes_and_reports_resilience() {
        let h = Harness::new(HarnessConfig {
            samples: 2,
            task_limit: 4,
            faults: FaultConfig::uniform(0.25),
            ..HarnessConfig::default()
        });
        let profile = profiles::claude35_sonnet();
        let (outcomes, stats) = h.evaluate_with_stats(&profile, true, Flow::Aivril2);
        assert_eq!(outcomes.len(), 4);
        assert!(
            stats.resilience.llm_faults > 0,
            "a 25% fault rate must surface over 8 runs: {stats}"
        );
        assert_eq!(stats.crashed, 0, "faults are handled, not crashes");
        let display = stats.to_string();
        assert!(display.contains("resilience:"), "{display}");
    }

    #[test]
    fn fault_free_stats_have_empty_resilience_block() {
        let h = small();
        let profile = profiles::claude35_sonnet();
        let (_, stats) = h.evaluate_with_stats(&profile, true, Flow::Aivril2);
        assert_eq!(stats.resilience, ResilienceCounters::default());
        assert_eq!(stats.crashed, 0);
        assert!(
            !stats.to_string().contains("resilience:"),
            "fault-free display must match pre-resilience output"
        );
    }

    #[test]
    fn panicking_runs_are_isolated_as_crashes() {
        let ok = run_isolated(|| {
            let mut r = crashed_record();
            r.outcome.crashed = false;
            r.outcome.syntax = true;
            JobRun {
                record: r,
                rtl: "module ok;endmodule".into(),
                tb: String::new(),
            }
        });
        assert!(
            !ok.record.outcome.crashed && ok.record.outcome.syntax,
            "non-panicking closures pass their record through"
        );
        assert!(!ok.rtl.is_empty());
        let rec = run_isolated(|| panic!("poisoned input")).record;
        assert!(rec.outcome.crashed);
        assert!(!rec.outcome.syntax && !rec.outcome.functional);
        assert_eq!(rec.resilience, ResilienceCounters::default());
    }

    #[test]
    fn eda_cache_env_switch() {
        let get = |v: &'static str| move |k: &str| (k == "AIVRIL_EDA_CACHE").then(|| v.into());
        assert!(
            !HarnessConfig::from_vars(|_| None).eda_cache,
            "off by default"
        );
        assert!(HarnessConfig::from_vars(get("1")).eda_cache);
        assert!(!HarnessConfig::from_vars(get("0")).eda_cache);
        assert!(!HarnessConfig::from_vars(get("")).eda_cache);
    }

    #[test]
    fn cached_harness_reports_stats_and_identical_outcomes() {
        let cached = Harness::new(HarnessConfig {
            samples: 3,
            task_limit: 6,
            eda_cache: true,
            ..HarnessConfig::default()
        });
        let plain = small();
        assert!(plain.cache_stats().is_none(), "cache off => no stats");
        let profile = profiles::claude35_sonnet();
        let (a, sa) = cached.evaluate_with_stats(&profile, true, Flow::Aivril2);
        let (b, sb) = plain.evaluate_with_stats(&profile, true, Flow::Aivril2);
        assert!(sb.eda_cache.is_none());
        let cache = sa.eda_cache.expect("cache on => per-eval stats");
        assert!(cache.hits > 0, "grid reuse must produce hits: {cache}");
        assert_eq!(
            cache.lookups(),
            cached.cache_stats().expect("stats").lookups(),
            "first evaluation accounts for every lookup"
        );
        // Same outcomes, to the bit.
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.task, y.task);
            for (s, t) in x.samples.iter().zip(&y.samples) {
                assert_eq!(s.syntax, t.syntax);
                assert_eq!(s.functional, t.functional);
                assert_eq!(s.total_latency.to_bits(), t.total_latency.to_bits());
            }
        }
    }

    #[test]
    fn run_job_with_grid_seed_matches_the_grid_cell() {
        // `run_job` is the same execution path as a grid cell modulo
        // the seed's origin; feeding it a grid seed must reproduce the
        // grid result to the bit.
        let h = small();
        let profile = profiles::claude35_sonnet();
        let outcomes = h.evaluate(&profile, true, Flow::Aivril2);
        let job = h.run_job(
            &profile,
            2,
            run_seed(2, 0),
            true,
            Flow::Aivril2,
            &Recorder::disabled(),
        );
        let cell = &outcomes[2].samples[0];
        assert_eq!(job.record.outcome.syntax, cell.syntax);
        assert_eq!(job.record.outcome.functional, cell.functional);
        assert_eq!(
            job.record.outcome.total_latency.to_bits(),
            cell.total_latency.to_bits()
        );
        assert!(!job.rtl.is_empty(), "a job must return its final RTL");
    }

    #[test]
    fn run_seeds_are_unique_across_the_grid() {
        let mut seen = std::collections::HashSet::new();
        for problem in 0..156 {
            for sample in 0..5 {
                assert!(
                    seen.insert(run_seed(problem, sample)),
                    "seed collision at problem {problem} sample {sample}"
                );
            }
        }
    }

    #[test]
    fn stats_account_for_every_run() {
        let h = small();
        let profile = profiles::claude35_sonnet();
        let (outcomes, stats) = h.evaluate_with_stats(&profile, true, Flow::Aivril2);
        assert_eq!(stats.runs, 6 * 3);
        assert_eq!(
            outcomes.iter().map(|o| o.samples.len()).sum::<usize>(),
            stats.runs
        );
        assert!(stats.threads >= 1);
        assert!(stats.wall_seconds > 0.0);
        let modeled: f64 = outcomes
            .iter()
            .flat_map(|o| o.samples.iter().map(|s| s.total_latency))
            .sum();
        assert!((stats.modeled_seconds - modeled).abs() < 1e-9);
        assert!(
            (stats.modeled_llm_seconds + stats.modeled_tool_seconds - stats.modeled_seconds).abs()
                < 1e-9,
            "llm + tool split must cover the total"
        );
        let display = stats.to_string();
        assert!(display.contains("18 runs"), "{display}");
        assert!(
            stats.kernel.instructions > 0,
            "every evaluation simulates something"
        );
        assert!(stats.kernel.sim_time_ns > 0);
        assert!(display.contains("kernel:"), "{display}");
    }

    #[test]
    fn kernel_stats_are_identical_across_cache_modes() {
        let profile = profiles::claude35_sonnet();
        let cached = Harness::new(HarnessConfig {
            samples: 2,
            task_limit: 3,
            eda_cache: true,
            ..HarnessConfig::default()
        });
        let plain = Harness::new(HarnessConfig {
            samples: 2,
            task_limit: 3,
            ..HarnessConfig::default()
        });
        let (_, sc) = cached.evaluate_with_stats(&profile, true, Flow::Aivril2);
        let (_, sp) = plain.evaluate_with_stats(&profile, true, Flow::Aivril2);
        assert_eq!(
            sc.kernel, sp.kernel,
            "cache hits must fold the stored run's counters"
        );
    }
}
