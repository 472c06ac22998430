//! The traced run: per-layer numbers measured from outside the program.
//!
//! The cell is composed here from public calls — an `XsimToolSuite`
//! built as `Harness::new` builds it, `Aivril2::run` /
//! `BaselineFlow::run`, and scoring through `compile_to_design` +
//! `simulate` — with wrappers implementing `ToolSuite` and
//! `LanguageModel` that time every call. Cells are claimed from an
//! atomic cursor, as `Harness::run_shard` claims them.
//!
//! Inside an EDA call the time is split by replay: the inputs of the
//! captured calls are run again, single-threaded, through
//! `aivril_{verilog,vhdl}::{analyze, elaborate}`, `Simulator::new` and
//! `Simulator::run`. Each phase's share of the captured calls' time is
//! scaled to all calls; what the phases do not cover is `eda.glue`.
//! With the cache on, only calls whose cache key was new to the run are
//! replayed (whole-call misses); the per-file parse and elaboration
//! memos are not modelled, so the frontend times there are an upper
//! bound.

use crate::grid;
use crate::stats::{self, RunReport, WorkDir};
use aivril_bench::{build_library, Flow};
use aivril_core::{Aivril2, Aivril2Config, BaselineFlow, Stage, TaskInput};
use aivril_eda::{CompileReport, EdaCache, HdlFile, Language, SimReport, ToolSuite, XsimToolSuite};
use aivril_hdl::diag::Diagnostics;
use aivril_hdl::source::SourceMap;
use aivril_llm::{
    ChatRequest, ChatResponse, FaultConfig, LanguageModel, LlmError, ModelProfile, SimLlm,
    TaskLibrary,
};
use aivril_metrics::SampleOutcome;
use aivril_sim::{SimConfig, Simulator};
use aivril_verilogeval::{suite, Problem};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Calls into one layer and the seconds they took.
#[derive(Debug, Default, Clone, Copy)]
pub struct Busy {
    pub calls: u64,
    pub secs: f64,
}

impl Busy {
    fn add(&mut self, secs: f64) {
        self.calls += 1;
        self.secs += secs;
    }

    fn merge(&mut self, other: Busy) {
        self.calls += other.calls;
        self.secs += other.secs;
    }
}

/// The EDA entry points a cell calls. The first three are the
/// pipeline's `ToolSuite` calls; the scoring pair is the harness's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Analyze,
    Compile,
    Simulate,
    ScoreCompile,
    ScoreSimulate,
}

/// Names of the four timed EDA layers, indexed by [`Op::slot`].
const OP_LAYERS: [&str; 4] = ["eda.analyze", "eda.compile", "eda.simulate", "bench.score"];

/// Names of the replayed phases, indexed like [`Phases`].
const PHASES: [&str; 6] = [
    "verilog.parse",
    "verilog.elab",
    "vhdl.parse",
    "vhdl.elab",
    "sim.lower",
    "sim.run",
];

/// Seconds per replayed phase, in [`PHASES`] order.
type Phases = [f64; 6];

impl Op {
    fn slot(self) -> usize {
        match self {
            Op::Analyze => 0,
            Op::Compile => 1,
            Op::Simulate => 2,
            Op::ScoreCompile | Op::ScoreSimulate => 3,
        }
    }

    fn simulates(self) -> bool {
        matches!(self, Op::Simulate | Op::ScoreSimulate)
    }
}

/// Timed layers summed over cells.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub llm: Busy,
    /// Indexed by [`Op::slot`].
    pub eda: [Busy; 4],
    /// Flow run time minus the LLM and EDA calls nested in it.
    pub flow_self: f64,
    /// Cell time outside the flow and scoring: worker set-up and
    /// outcome assembly.
    pub cell_self: f64,
    /// Time the probe spent recording calls (in no layer).
    pub bookkeeping: f64,
}

impl Layers {
    fn merge(&mut self, other: &Layers) {
        self.llm.merge(other.llm);
        for (a, b) in self.eda.iter_mut().zip(other.eda) {
            a.merge(b);
        }
        self.flow_self += other.flow_self;
        self.cell_self += other.cell_self;
        self.bookkeeping += other.bookkeeping;
    }

    /// Seconds inside a flow not spent in the flow itself: nested LLM
    /// and pipeline EDA calls, and the probe's bookkeeping.
    fn nested(&self) -> f64 {
        self.llm.secs + self.eda[..3].iter().map(|b| b.secs).sum::<f64>() + self.bookkeeping
    }

    /// Σ self time of every layer.
    pub fn total(&self) -> f64 {
        self.cell_self
            + self.flow_self
            + self.llm.secs
            + self.eda.iter().map(|b| b.secs).sum::<f64>()
    }
}

/// A captured EDA call, kept for replay.
struct Call {
    op: Op,
    files: Vec<HdlFile>,
    top: Option<String>,
    secs: f64,
}

/// The cache lookups one call makes, as content hashes (cached runs
/// only): the whole-call key; on a whole-call miss, the per-file parse
/// memo keys and the elaboration memo key; and the simulation key.
/// The elaboration key covers every file, where the real memo keys on
/// the top's instantiation closure, so elaboration misses are slightly
/// over-counted.
struct Lookup {
    at: Instant,
    call: u64,
    parse: Vec<u64>,
    elab: Option<u64>,
    sim: Option<u64>,
    captured: Option<usize>,
}

impl Lookup {
    fn new(
        at: Instant,
        op: Op,
        files: &[HdlFile],
        top: Option<&str>,
        captured: Option<usize>,
    ) -> Lookup {
        let hash = |fill: &dyn Fn(&mut DefaultHasher)| {
            let mut h = DefaultHasher::new();
            fill(&mut h);
            h.finish()
        };
        let file_keys: Vec<u64> = files
            .iter()
            .map(|f| hash(&|h| (&f.name, &f.text).hash(h)))
            .collect();
        let key = |tag: u8| hash(&|h| (tag, &file_keys, top).hash(h));
        let analyze = op == Op::Analyze;
        Lookup {
            at,
            call: key(u8::from(!analyze)),
            parse: file_keys
                .iter()
                .enumerate()
                .map(|(i, f)| hash(&|h| (4u8, i, f).hash(h)))
                .collect(),
            elab: (!analyze).then(|| key(2)),
            sim: op.simulates().then(|| key(3)),
            captured,
        }
    }
}

/// Which cached work a replayed call has to redo.
struct Misses {
    call: bool,
    parse: Vec<bool>,
    elab: bool,
    sim: bool,
}

/// Per-thread recorder the wrappers write into.
struct Probe {
    layers: RefCell<Layers>,
    capture: Cell<bool>,
    calls: RefCell<Vec<Call>>,
    lookups: Option<RefCell<Vec<Lookup>>>,
}

impl Probe {
    fn new(cached: bool) -> Probe {
        Probe {
            layers: RefCell::new(Layers::default()),
            capture: Cell::new(false),
            calls: RefCell::new(Vec::new()),
            lookups: cached.then(|| RefCell::new(Vec::new())),
        }
    }

    /// Runs one EDA call, timing it and recording its inputs. The
    /// recording is bookkeeping, kept out of every layer's time.
    fn eda<R>(&self, op: Op, files: &[HdlFile], top: Option<&str>, f: impl FnOnce() -> R) -> R {
        let at = Instant::now();
        let out = f();
        let book = Instant::now();
        let secs = (book - at).as_secs_f64();
        let captured = self.capture.get().then(|| {
            let mut calls = self.calls.borrow_mut();
            calls.push(Call {
                op,
                files: files.to_vec(),
                top: top.map(String::from),
                secs,
            });
            calls.len() - 1
        });
        if let Some(lookups) = &self.lookups {
            lookups
                .borrow_mut()
                .push(Lookup::new(at, op, files, top, captured));
        }
        let mut layers = self.layers.borrow_mut();
        layers.eda[op.slot()].add(secs);
        layers.bookkeeping += stats::secs(book);
        out
    }
}

struct TimedTools<'a> {
    inner: &'a XsimToolSuite,
    probe: &'a Probe,
}

impl ToolSuite for TimedTools<'_> {
    fn analyze(&self, files: &[HdlFile]) -> CompileReport {
        self.probe
            .eda(Op::Analyze, files, None, || self.inner.analyze(files))
    }

    fn compile(&self, files: &[HdlFile]) -> CompileReport {
        self.probe
            .eda(Op::Compile, files, None, || self.inner.compile(files))
    }

    fn simulate(&self, files: &[HdlFile], top: Option<&str>) -> SimReport {
        self.probe
            .eda(Op::Simulate, files, top, || self.inner.simulate(files, top))
    }
}

struct TimedModel<'a> {
    inner: SimLlm,
    probe: &'a Probe,
}

impl LanguageModel for TimedModel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn chat(&mut self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let at = Instant::now();
        let out = self.inner.chat(request);
        self.probe.layers.borrow_mut().llm.add(stats::secs(at));
        out
    }
}

/// One cell to run: a grid coordinate or a served job.
pub struct CellSpec<'p> {
    pub profile: &'p ModelProfile,
    pub problem: usize,
    pub seed: u64,
    pub verilog: bool,
    pub flow: Flow,
    /// Keep this cell's EDA inputs for replay.
    pub capture: bool,
}

/// A cell's scored outcome plus the fnv64 of its final RTL.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    pub outcome: SampleOutcome,
    pub rtl_fnv: u64,
}

/// Everything a cell needs, built as `Harness::new` builds it.
pub struct Composition {
    tools: XsimToolSuite,
    problems: Vec<Problem>,
    library: Arc<TaskLibrary>,
    pipeline: Aivril2Config,
    faults: FaultConfig,
}

impl Composition {
    /// Mirrors `Harness::new` for a configuration without EDA faults or
    /// a delta-cycle override (the benchmark uses neither).
    pub fn new(config: &aivril_bench::HarnessConfig) -> Composition {
        let mut tools = XsimToolSuite::new();
        if let Some(dir) = &config.eda_cache_dir {
            tools = tools.with_cache(EdaCache::persistent(dir));
        } else if config.eda_cache {
            tools = tools.with_cache(EdaCache::new());
        }
        let problems = suite();
        Composition {
            tools: tools.with_incremental(config.incremental),
            library: Arc::new(build_library(&problems)),
            problems,
            pipeline: config.pipeline,
            faults: config.faults,
        }
    }

    pub fn problems(&self) -> &[Problem] {
        &self.problems
    }

    /// The cache, memo and kernel counters over everything the
    /// composition ran (all deterministic, like the harness's own).
    pub fn report_caches(&self, report: &mut RunReport) {
        let cache = self.tools.cache();
        let c = cache.map(EdaCache::stats).unwrap_or_default();
        let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        report.metric("eda.cache.hit_ratio", c.hit_rate());
        report.metric(
            "eda.parse_memo.hit_ratio",
            ratio(c.parse_hits, c.parse_misses),
        );
        report.metric("eda.elab_memo.hit_ratio", ratio(c.elab_hits, c.elab_misses));
        let writes = cache.and_then(EdaCache::disk_stats).map_or(0, |d| d.writes);
        report.metric("eda.disk.writes", writes as f64);
        let kernel = self.tools.kernel_stats();
        report.metric("sim.instructions", kernel.instructions as f64);
        report.metric("sim.eval_allocs", kernel.eval_allocs as f64);
    }

    /// `Harness::run_one` plus its panic isolation, with every layer
    /// boundary timed.
    fn run_cell(&self, probe: &Probe, spec: &CellSpec<'_>) -> CellOutcome {
        let cell_start = Instant::now();
        probe.capture.set(spec.capture);
        let problem = &self.problems[spec.problem];
        let tools = TimedTools {
            inner: &self.tools,
            probe,
        };
        let mut model = TimedModel {
            inner: SimLlm::new(spec.profile.clone(), self.library.clone()).with_faults(self.faults),
            probe,
        };
        let pipeline = Aivril2::new(&tools, self.pipeline);
        let task = TaskInput {
            name: problem.name.clone(),
            module_name: problem.module_name.clone(),
            spec: problem.spec.clone(),
            verilog: spec.verilog,
            seed: spec.seed,
        };
        let (mut flow_s, mut score_s) = (0.0, 0.0);
        let run = catch_unwind(AssertUnwindSafe(|| {
            let nested = probe.layers.borrow().nested();
            let t = Instant::now();
            let result = match spec.flow {
                Flow::Baseline => BaselineFlow::new().run(&mut model, &task, &self.pipeline),
                Flow::Aivril2 => pipeline.run(&mut model, &task),
            };
            flow_s = stats::secs(t);
            let nested = probe.layers.borrow().nested() - nested;
            probe.layers.borrow_mut().flow_self += flow_s - nested;
            let t = Instant::now();
            let ((syntax, functional), score_latency) =
                self.score(probe, problem, &result.final_rtl, spec.verilog);
            score_s = stats::secs(t);
            let extra = if spec.flow == Flow::Baseline {
                score_latency
            } else {
                0.0
            };
            CellOutcome {
                outcome: SampleOutcome {
                    syntax,
                    functional,
                    total_latency: result.trace.total_latency() + extra,
                    syntax_phase_latency: result.trace.syntax_phase_latency(),
                    functional_phase_latency: result.trace.functional_phase_latency(),
                    syntax_iters: result.trace.iterations(Stage::TbSyntaxLoop)
                        + result.trace.iterations(Stage::RtlSyntaxLoop),
                    functional_iters: result.trace.iterations(Stage::FunctionalLoop),
                    crashed: false,
                },
                rtl_fnv: aivril_obs::codec::fnv64(result.final_rtl.as_bytes()),
            }
        }))
        .unwrap_or_else(|_| CellOutcome {
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
            rtl_fnv: aivril_obs::codec::fnv64(b""),
        });
        probe.layers.borrow_mut().cell_self += stats::secs(cell_start) - flow_s - score_s;
        run
    }

    /// `Harness::score_with_latency`, timed per call.
    fn score(
        &self,
        probe: &Probe,
        problem: &Problem,
        rtl: &str,
        verilog: bool,
    ) -> ((bool, bool), f64) {
        let ext = if verilog { "v" } else { "vhd" };
        let dut = HdlFile::new(format!("{}.{ext}", problem.module_name), rtl.to_string());
        let top = Some(problem.module_name.as_str());
        let dut_only = std::slice::from_ref(&dut);
        let compile = probe.eda(Op::ScoreCompile, dut_only, top, || {
            self.tools.compile_to_design(dut_only, top)
        });
        if !compile.0.success {
            return ((false, false), compile.0.modeled_latency);
        }
        let files = [
            dut.clone(),
            HdlFile::new(format!("tb.{ext}"), problem.golden(verilog).tb.clone()),
        ];
        let report = probe.eda(Op::ScoreSimulate, &files, Some("tb"), || {
            self.tools.simulate(&files, Some("tb"))
        });
        (
            (true, report.passed),
            compile.0.modeled_latency + report.modeled_latency,
        )
    }

    /// Runs `cells` on `threads` workers claiming from one cursor.
    pub fn run(&self, cells: &[CellSpec<'_>], threads: usize, cached: bool) -> Traced {
        let slots: Vec<OnceLock<CellOutcome>> = cells.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let start = Instant::now();
        let probes: Vec<Probe> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let probe = Probe::new(cached);
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(spec) = cells.get(i) else { break };
                            let _ = slots[i].set(self.run_cell(&probe, spec));
                        }
                        probe
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("traced worker panicked outside a cell"))
                .collect()
        });
        let mut traced = Traced {
            wall_s: stats::secs(start),
            threads,
            outcomes: slots
                .into_iter()
                .map(|s| s.into_inner().expect("every cell ran"))
                .collect(),
            ..Traced::default()
        };
        for probe in probes {
            traced.absorb(Traced {
                layers: probe.layers.into_inner(),
                calls: probe.calls.into_inner(),
                lookups: probe.lookups.map(RefCell::into_inner).unwrap_or_default(),
                ..Traced::default()
            });
        }
        traced
    }
}

/// The result of traced runs: outcomes in cell order, layer times, and
/// the captured calls with their cache-key history.
#[derive(Default)]
pub struct Traced {
    pub wall_s: f64,
    pub threads: usize,
    pub outcomes: Vec<CellOutcome>,
    pub layers: Layers,
    calls: Vec<Call>,
    lookups: Vec<Lookup>,
}

impl Traced {
    /// Appends another run's (or one worker's) records.
    pub fn absorb(&mut self, other: Traced) {
        let offset = self.calls.len();
        self.wall_s += other.wall_s;
        self.threads = self.threads.max(other.threads);
        self.outcomes.extend(other.outcomes);
        self.layers.merge(&other.layers);
        self.calls.extend(other.calls);
        self.lookups.extend(other.lookups.into_iter().map(|mut l| {
            l.captured = l.captured.map(|c| c + offset);
            l
        }));
    }

    /// Σ layer self time ÷ (threads × wall).
    pub fn coverage(&self) -> f64 {
        self.layers.total() / (self.threads as f64 * self.wall_s)
    }

    /// Replays the captured calls and splits each EDA layer's time into
    /// phases and glue. In a cached run a captured call redoes only the
    /// work whose cache or memo key the run had not seen before it.
    pub fn attribute(&self) -> Attribution {
        let cached = !self.lookups.is_empty();
        let mut misses: Vec<Misses> = self
            .calls
            .iter()
            .map(|c| Misses {
                call: !cached,
                parse: vec![!cached; c.files.len()],
                elab: !cached,
                sim: !cached,
            })
            .collect();
        let mut order: Vec<&Lookup> = self.lookups.iter().collect();
        order.sort_by_key(|l| l.at);
        let mut seen = HashSet::new();
        for l in order {
            let call = seen.insert(l.call);
            let m = Misses {
                call,
                parse: l.parse.iter().map(|k| call && seen.insert(*k)).collect(),
                elab: call && l.elab.is_some_and(|k| seen.insert(k)),
                sim: l.sim.is_some_and(|k| seen.insert(k)),
            };
            if let Some(c) = l.captured {
                misses[c] = m;
            }
        }
        let mut captured = [0.0f64; 4];
        let mut phases = [[0.0f64; 6]; 4];
        let mut replayed = 0;
        for (call, m) in self.calls.iter().zip(&misses) {
            let slot = call.op.slot();
            captured[slot] += call.secs;
            if m.call || m.sim {
                replayed += 1;
                let p = replay(call, m);
                for (acc, v) in phases[slot].iter_mut().zip(p) {
                    *acc += v;
                }
            }
        }
        let mut attribution = Attribution {
            replayed,
            captured: self.calls.len(),
            ..Attribution::default()
        };
        for slot in 0..4 {
            if captured[slot] <= 0.0 {
                continue;
            }
            let scale = self.layers.eda[slot].secs / captured[slot];
            let covered: f64 = phases[slot].iter().sum();
            attribution.glue[slot] = (captured[slot] - covered) * scale;
            for (a, p) in attribution.phases[slot].iter_mut().zip(phases[slot]) {
                *a = p * scale;
            }
        }
        attribution
    }

    /// The layer table: calls, self seconds and share of threads × wall.
    pub fn table(&self, attribution: &Attribution) -> Vec<String> {
        let denom = self.threads as f64 * self.wall_s;
        let mut rows: Vec<(String, Option<u64>, f64)> = vec![
            ("bench.cell".into(), None, self.layers.cell_self),
            ("core.flow".into(), None, self.layers.flow_self),
            (
                "llm.chat".into(),
                Some(self.layers.llm.calls),
                self.layers.llm.secs,
            ),
        ];
        for (slot, name) in OP_LAYERS.iter().enumerate() {
            rows.push((
                format!("{name} (glue)"),
                Some(self.layers.eda[slot].calls),
                attribution.glue[slot],
            ));
        }
        for (i, name) in PHASES.iter().enumerate() {
            rows.push((name.to_string(), None, attribution.phase(i)));
        }
        let mut out = vec![format!(
            "{:<22} {:>9} {:>10} {:>7}",
            "layer", "calls", "self_s", "share"
        )];
        for (name, calls, secs) in rows {
            out.push(format!(
                "{name:<22} {:>9} {secs:>10.3} {:>6.1}%",
                calls.map_or("-".to_string(), |c| c.to_string()),
                100.0 * secs / denom
            ));
        }
        out.push(format!(
            "{:<22} {:>9} {:>10.3} {:>6.1}%  ({} threads x {:.3} s wall)",
            "total",
            "",
            self.layers.total(),
            100.0 * self.coverage(),
            self.threads,
            self.wall_s
        ));
        out
    }

    /// Collapsed stacks (`path;to;span <self-µs>`, sorted), the format
    /// `aivril-inspect flame` writes.
    pub fn folded(&self, attribution: &Attribution) -> String {
        let mut stacks: BTreeMap<String, f64> = BTreeMap::new();
        stacks.insert("cell".into(), self.layers.cell_self);
        stacks.insert("cell;flow".into(), self.layers.flow_self);
        stacks.insert("cell;flow;llm.chat".into(), self.layers.llm.secs);
        for (slot, name) in OP_LAYERS.iter().enumerate() {
            let path = if slot == 3 {
                "cell;score".to_string()
            } else {
                format!("cell;flow;{name}")
            };
            for (i, phase) in PHASES.iter().enumerate() {
                stacks.insert(format!("{path};{phase}"), attribution.phases[slot][i]);
            }
            stacks.insert(path, attribution.glue[slot]);
        }
        stacks
            .into_iter()
            .map(|(stack, s)| (stack, (s * 1e6).round()))
            .filter(|(_, us)| *us > 0.0)
            .map(|(stack, us)| format!("{stack} {us}\n"))
            .collect()
    }

    /// The per-layer metrics the trace measures directly.
    pub fn report_layers(&self, report: &mut RunReport, attribution: &Attribution) {
        for (i, name) in PHASES.iter().enumerate() {
            report.metric(&format!("{name}_s"), attribution.phase(i));
        }
        report.metric("eda.glue_s", attribution.glue.iter().sum());
        for (slot, op) in ["analyze", "compile", "simulate"].iter().enumerate() {
            report.metric(
                &format!("eda.{op}.calls"),
                self.layers.eda[slot].calls as f64,
            );
            report.metric(&format!("eda.{op}.busy_s"), self.layers.eda[slot].secs);
        }
        report.metric("llm.calls", self.layers.llm.calls as f64);
        report.metric("llm.busy_s", self.layers.llm.secs);
        report.metric("core.flow_self_s", self.layers.flow_self);
        report.metric("bench.score.calls", self.layers.eda[3].calls as f64);
        report.metric("bench.score.busy_s", self.layers.eda[3].secs);
        report.metric("trace.coverage", self.coverage());
        report.extra("bench.cell_self_s", self.layers.cell_self, "s");
        report.extra("trace.bookkeeping_s", self.layers.bookkeeping, "s");
        report.extra("trace.replayed_calls", attribution.replayed as f64, "count");
        report.extra("trace.captured_calls", attribution.captured as f64, "count");
        for line in self.table(attribution) {
            report.note(line);
        }
    }
}

/// Replay-attributed seconds, per EDA layer slot.
#[derive(Debug, Default)]
pub struct Attribution {
    pub phases: [Phases; 4],
    pub glue: [f64; 4],
    pub replayed: usize,
    pub captured: usize,
}

impl Attribution {
    /// Phase `i` summed over the EDA layers.
    pub fn phase(&self, i: usize) -> f64 {
        self.phases.iter().map(|p| p[i]).sum()
    }
}

/// Replays one captured call through the public frontend and kernel
/// entry points, timing the phases `m` says the call had to run: the
/// parse of each memo-missing file, elaboration, lowering and the
/// kernel run.
fn replay(call: &Call, m: &Misses) -> Phases {
    let mut p = [0.0; 6];
    let mut sources = SourceMap::new();
    for f in &call.files {
        sources.add_file(f.name.clone(), f.text.clone());
    }
    if call.op == Op::Analyze {
        for (i, (id, source)) in sources.iter().enumerate() {
            let name = source.name().to_ascii_lowercase();
            let vhdl = name.ends_with(".vhd") || name.ends_with(".vhdl");
            let t = Instant::now();
            if vhdl {
                black_box(aivril_vhdl::analyze_file(id, source.text()));
            } else {
                black_box(aivril_verilog::analyze_file(id, source.text()));
            }
            if m.parse[i] {
                p[if vhdl { 2 } else { 0 }] += stats::secs(t);
            }
        }
        return p;
    }
    let language = call.files.first().map_or(Language::Verilog, |f| f.language);
    if call.files.iter().any(|f| f.language != language) {
        return p; // rejected before any frontend runs
    }
    let base = if language == Language::Verilog { 0 } else { 2 };
    let mut diags = Diagnostics::new();
    let mut timed_parse = |i: usize, parse: &mut dyn FnMut()| {
        let t = Instant::now();
        parse();
        if m.parse[i] {
            p[base] += stats::secs(t);
        }
    };
    let top = call.top.clone();
    let (design, elab_s) = match language {
        Language::Verilog => {
            let mut unit = aivril_verilog::ast::SourceUnit::default();
            for (i, (id, source)) in sources.iter().enumerate() {
                timed_parse(i, &mut || {
                    let (part, d) = aivril_verilog::analyze_file(id, source.text());
                    unit.modules.extend(part.modules);
                    diags.extend(d);
                });
            }
            match top.or_else(|| aivril_verilog::find_top(&unit)) {
                Some(top) if !diags.has_errors() => {
                    let t = Instant::now();
                    let design = aivril_verilog::elaborate(&unit, &top, &mut diags);
                    (design, stats::secs(t))
                }
                _ => (None, 0.0),
            }
        }
        Language::Vhdl => {
            let mut file = aivril_vhdl::ast::DesignFile::default();
            for (i, (id, source)) in sources.iter().enumerate() {
                timed_parse(i, &mut || {
                    let (part, d) = aivril_vhdl::analyze_file(id, source.text());
                    file.entities.extend(part.entities);
                    file.architectures.extend(part.architectures);
                    diags.extend(d);
                });
            }
            match top.or_else(|| aivril_vhdl::find_top(&file)) {
                Some(top) if !diags.has_errors() => {
                    let t = Instant::now();
                    let design = aivril_vhdl::elaborate(&file, &top, &mut diags);
                    (design, stats::secs(t))
                }
                _ => (None, 0.0),
            }
        }
    };
    if m.elab {
        p[base + 1] += elab_s;
    }
    let design = design.filter(|_| !diags.has_errors());
    if let (true, Some(design)) = (call.op.simulates() && m.sim, design) {
        let t = Instant::now();
        let mut sim = Simulator::new(&design, SimConfig::default());
        p[4] += stats::secs(t);
        let t = Instant::now();
        black_box(sim.run());
        p[5] += stats::secs(t);
    }
    p
}

/// Median seconds of building the benchmark suite (`verilogeval`).
pub fn suite_seconds() -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(suite());
            stats::secs(t)
        })
        .collect();
    stats::median(&times)
}

/// fnv64 over every field of `outcomes`, floats by their bits: equal
/// digests mean the outcome sequences are equal bit for bit.
pub fn digest<'a>(outcomes: impl IntoIterator<Item = &'a SampleOutcome>) -> u64 {
    let mut w = aivril_obs::codec::Writer::new();
    for o in outcomes {
        w.bool(o.syntax);
        w.bool(o.functional);
        w.u64(o.total_latency.to_bits());
        w.u64(o.syntax_phase_latency.to_bits());
        w.u64(o.functional_phase_latency.to_bits());
        w.u64(u64::from(o.syntax_iters));
        w.u64(u64::from(o.functional_iters));
        w.bool(o.crashed);
    }
    aivril_obs::codec::fnv64(w.payload().as_bytes())
}

/// Writes the collapsed stacks to `.e2e/<name>.folded`.
pub fn write_folded(name: &str, folded: &str) -> String {
    let path = Path::new(".e2e").join(format!("{name}.folded"));
    let _ = std::fs::create_dir_all(".e2e");
    match std::fs::write(&path, folded) {
        Ok(()) => format!("collapsed stacks written to {}", path.display()),
        Err(e) => format!("collapsed stacks not written ({}): {e}", path.display()),
    }
}

/// The traced grid: the traced pass over the whole grid, then an
/// untraced reference pass in a fresh child process (both start from a
/// fresh heap, so the overhead compares like with like), then the
/// replay.
pub fn run_grid(cached: bool, work: &WorkDir, mut report: RunReport) -> Result<RunReport, String> {
    let name = if cached { "grid_cached" } else { "grid_cold" };
    let dir = cached.then(|| work.sub("cache-traced"));
    let composition = Composition::new(&grid::config(dir.as_deref()));
    let samples = grid::config(None).samples;
    let mut traced = Traced::default();
    for (profile, verilog, flow) in grid::sections() {
        let cells: Vec<CellSpec<'_>> = (0..composition.problems().len())
            .flat_map(|problem| (0..samples).map(move |sample| (problem, sample)))
            .map(|(problem, sample)| CellSpec {
                profile: &profile,
                problem,
                seed: aivril_bench::run_seed(problem, sample),
                verilog,
                flow,
                capture: sample == 0,
            })
            .collect();
        traced.absorb(composition.run(&cells, grid::THREADS, cached));
    }

    let pass = grid::spawn_pass(cached.then(|| work.sub("cache-untraced")).as_deref())?;
    if !pass.matches {
        report
            .fail_check("untraced output differs from expected/table1_s5.txt (printed on stderr)");
    }
    let crashed = traced.outcomes.iter().filter(|c| c.outcome.crashed).count() as u64;
    report.attempted = pass.runs + traced.outcomes.len() as u64;
    report.failed = pass.crashed + crashed;
    if digest(traced.outcomes.iter().map(|c| &c.outcome)) == pass.digest {
        report.note("traced per-cell outcomes equal the untraced run bit for bit");
    } else {
        report.failed += traced.outcomes.len() as u64;
        report.fail_check("traced cell outcomes differ from the untraced run; trace rejected");
    }

    let attribution = traced.attribute();
    traced.report_layers(&mut report, &attribution);
    composition.report_caches(&mut report);
    report.metric("verilogeval.suite_s", suite_seconds());
    report.metric("trace.overhead", traced.wall_s / pass.wall_s - 1.0);
    report.metric("p99_ms", pass.wall_s * 1000.0);
    report.extra("bench.render_s", pass.render_s, "s");
    report.extra("untraced_wall_s", pass.wall_s, "s");
    report.extra("traced_wall_s", traced.wall_s, "s");
    report.note(write_folded(name, &traced.folded(&attribution)));
    Ok(report)
}
