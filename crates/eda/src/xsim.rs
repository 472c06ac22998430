//! The Vivado-like tool suite implementation.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError, Weak};

use crate::cache::{self, CompileEntry, EdaCache, ElabEntry, ParsedFile, SimEntry};
use crate::faults::{EdaFaultPlan, ToolFault};
use crate::latency::ToolLatencyModel;
use crate::report::{extract_failures, CompileReport, SimReport, ToolMessage};
use crate::source::{HdlFile, Language};
use crate::ToolSuite;
use aivril_hdl::diag::{Diagnostics, Severity};
use aivril_hdl::ir::Design;
use aivril_hdl::source::{FileId, SourceMap};
use aivril_obs::Recorder;
use aivril_sim::{KernelPerf, SimConfig, Simulator};
use aivril_verilog::ast::SourceUnit;
use aivril_vhdl::ast::DesignFile;

/// The testbench completion marker AIVRIL2's agents look for — the same
/// phrase the paper's Fig. 2 example prints on success.
pub const PASS_MARKER: &str = "All tests passed successfully!";

/// In-process tool suite with Vivado-style logs and modeled latency.
///
/// `compile` corresponds to `xvlog`/`xvhdl` + `xelab` (syntax, semantic
/// and elaboration checks); `simulate` additionally runs the event
/// kernel like `xsim -runall`.
#[derive(Debug, Clone)]
pub struct XsimToolSuite {
    latency: ToolLatencyModel,
    sim_config: SimConfig,
    recorder: Recorder,
    cache: Option<EdaCache>,
    faults: EdaFaultPlan,
    /// Incremental compile: memoize per-file parses and closure-keyed
    /// elaborations in the attached cache. On by default, but only
    /// active when a cache is attached; artifacts are byte-identical
    /// either way.
    incremental: bool,
    /// Kernel performance counters, folded by [`KernelPerf::merge`] over
    /// every simulation this suite (and its clones — the worker pool)
    /// executes or replays from cache. Per-run values are integers and
    /// the merge commutes, so the totals are independent of worker
    /// count, scheduling order and cache mode. Diagnostic only; never
    /// feeds canonical artifacts.
    kernel: Arc<Mutex<KernelPerf>>,
}

impl Default for XsimToolSuite {
    fn default() -> XsimToolSuite {
        XsimToolSuite {
            latency: ToolLatencyModel::default(),
            sim_config: SimConfig::default(),
            recorder: Recorder::default(),
            cache: None,
            faults: EdaFaultPlan::default(),
            incremental: true,
            kernel: Arc::default(),
        }
    }
}

/// The incremental-compile memo of one tool call: the cache and the
/// call's per-file content digests. `None` parses and elaborates fresh.
type Memo<'a> = Option<(&'a EdaCache, &'a [u128])>;

impl XsimToolSuite {
    /// Creates a suite with default limits and latency constants.
    #[must_use]
    pub fn new() -> XsimToolSuite {
        XsimToolSuite::default()
    }

    /// Overrides the simulation limits.
    #[must_use]
    pub fn with_sim_config(mut self, config: SimConfig) -> XsimToolSuite {
        self.sim_config = config;
        self
    }

    /// Attaches an observability recorder: every analyze/compile/
    /// simulate call emits an `eda.*` span (phase, diagnostics, modeled
    /// seconds), advances the modeled clock, and feeds the
    /// `eda_*`/`sim_*` metric series. Disabled by default; the
    /// simulator kernel inherits the same recorder.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> XsimToolSuite {
        self.recorder = recorder;
        self
    }

    /// Attaches a content-addressed result cache (see [`EdaCache`]).
    /// Clones of this suite share the cache, so one cache serves the
    /// whole `AIVRIL_THREADS` worker pool. Results are bit-identical
    /// with the cache on or off; only wall-clock time changes.
    #[must_use]
    pub fn with_cache(mut self, cache: EdaCache) -> XsimToolSuite {
        self.cache = Some(cache);
        self
    }

    /// The attached result cache, when one was installed.
    #[must_use]
    pub fn cache(&self) -> Option<&EdaCache> {
        self.cache.as_ref()
    }

    /// Toggles the incremental compile path: per-file parse results and
    /// closure-keyed elaborations are memoized in the attached cache,
    /// so editing one file of an N-file design re-parses one file and
    /// re-elaborates only when the edit is inside the top's
    /// instantiation closure. On by default; inert without a cache.
    /// Reports and designs are byte-identical with it on or off — the
    /// memo keys cover everything the phases read, and ambiguous inputs
    /// (duplicate design-unit names) bypass the memo entirely.
    #[must_use]
    pub fn with_incremental(mut self, on: bool) -> XsimToolSuite {
        self.incremental = on;
        self
    }

    /// The incremental-compile memo, when a cache is attached, the
    /// incremental path is on and the call hashed its files.
    fn memo<'a>(&'a self, digests: Option<&'a [u128]>) -> Memo<'a> {
        self.cache
            .as_ref()
            .filter(|_| self.incremental)
            .zip(digests)
    }

    /// Each file's content digest ([`cache::file_digests`]), hashed once
    /// per tool call and only when something keys on it: the cache or
    /// the tool-fault plan. Everything else runs without hashing a byte.
    fn digests(&self, files: &[HdlFile]) -> Option<Vec<u128>> {
        (self.cache.is_some() || self.faults.tools_on()).then(|| cache::file_digests(files))
    }

    /// Installs a deterministic fault plan (`AIVRIL_EDA_FAULTS`). Every
    /// injected decision is a pure hash of the invocation's content key
    /// and attempt number, so faulted runs stay bit-identical across
    /// worker counts and cache modes; the all-off plan (the default) is
    /// byte-for-byte the unfaulted code path.
    #[must_use]
    pub fn with_eda_faults(mut self, plan: EdaFaultPlan) -> XsimToolSuite {
        self.faults = plan;
        self
    }

    /// Snapshot of the kernel performance counters accumulated across
    /// every simulation this suite and its clones ran (or replayed from
    /// cache — hits fold the stored run's counters, keeping cache-on
    /// and cache-off totals identical). Purely diagnostic.
    #[must_use]
    pub fn kernel_stats(&self) -> KernelPerf {
        *self.kernel.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Folds one run's counters into [`Self::kernel_stats`]. A poisoned
    /// lock is taken over: the guarded value is plain diagnostic
    /// counters, valid after any partial merge.
    fn fold_kernel(&self, perf: &KernelPerf) {
        self.kernel
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(perf);
    }

    /// Counters + histogram for one compile-like tool invocation (only
    /// called when recording).
    fn record_compile_metrics(&self, phase: &str, report: &CompileReport) {
        self.recorder
            .counter_add("eda_invocations_total", &[("phase", phase)], 1);
        for m in &report.messages {
            self.recorder.counter_add(
                "eda_diagnostics_total",
                &[("severity", severity_label(m.severity))],
                1,
            );
        }
        self.recorder.observe(
            "eda_compile_seconds",
            &[("phase", phase)],
            &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
            report.modeled_latency,
        );
    }

    /// Rolls the tool-plane fault plan for one invocation, retrying
    /// transient faults (crash / hang / spurious exit) up to
    /// `retry_max` times. Each faulted attempt costs `attempt_cost`
    /// modeled seconds (the hang class costs `watchdog_s` instead);
    /// the accumulated penalty lands on the final report's latency.
    /// Only called when the plan has live tool rates.
    fn tool_fault_gate(&self, op: &'static str, key: u128, attempt_cost: f64) -> FaultVerdict {
        let plan = &self.faults;
        let mut penalty = 0.0;
        let mut attempt = 0u32;
        loop {
            let Some(fault) = plan.roll_tool(op, key, attempt) else {
                return FaultVerdict {
                    outcome: FaultOutcome::Clean,
                    penalty_s: penalty,
                    key,
                    attempt,
                };
            };
            self.recorder.counter_add(
                "eda_fault_injected_total",
                &[("class", fault.label()), ("op", op)],
                1,
            );
            if !fault.is_transient() {
                // Garbled/truncated logs are completed invocations —
                // the runner saw a zero exit and has no reason to retry.
                return FaultVerdict {
                    outcome: FaultOutcome::Mutate(fault),
                    penalty_s: penalty,
                    key,
                    attempt,
                };
            }
            penalty += if fault == ToolFault::Hang {
                plan.watchdog_s
            } else {
                attempt_cost
            };
            if attempt >= plan.retry_max {
                self.recorder
                    .counter_add("resilience_eda_exhausted_total", &[("op", op)], 1);
                return FaultVerdict {
                    outcome: FaultOutcome::Fail,
                    penalty_s: penalty,
                    key,
                    attempt,
                };
            }
            self.recorder
                .counter_add("resilience_eda_retries_total", &[("op", op)], 1);
            attempt += 1;
        }
    }

    /// [`Self::tool_fault_gate`] for an invocation whose content key was
    /// derived, when the plan has live tool rates; `None` otherwise.
    fn fault_verdict(
        &self,
        op: &'static str,
        key: Option<u128>,
        attempt_cost: f64,
    ) -> Option<FaultVerdict> {
        key.filter(|_| self.faults.tools_on())
            .map(|key| self.tool_fault_gate(op, key, attempt_cost))
    }

    /// Builds the failed report for a retries-exhausted tool fault: one
    /// log line per faulted attempt (re-rolled — the rolls are pure, so
    /// this reconstructs exactly what the gate saw) plus a structured
    /// error message. The modeled latency is the accumulated penalty.
    fn faulted_compile_report(&self, op: &'static str, v: &FaultVerdict) -> CompileReport {
        let mut log = String::new();
        let mut last = ToolFault::Crash;
        for i in 0..=v.attempt {
            if let Some(fault) = self.faults.roll_tool(op, v.key, i) {
                last = fault;
                log.push_str(&fault_line(op, fault, i, self.faults.watchdog_s));
            }
        }
        log.push_str(&format!(
            "ERROR: [aivril] {op} abandoned after {} attempt(s)\n",
            v.attempt + 1
        ));
        CompileReport {
            success: false,
            log,
            messages: vec![ToolMessage {
                severity: Severity::Error,
                code: fault_code(last).into(),
                message: format!("{op} failed: injected {} fault", last.label()),
                file: None,
                line: None,
            }],
            modeled_latency: v.penalty_s,
        }
    }
}

/// Outcome of rolling the tool-plane fault plan for one invocation.
#[derive(Debug, Clone, Copy)]
struct FaultVerdict {
    outcome: FaultOutcome,
    /// Modeled seconds consumed by faulted attempts.
    penalty_s: f64,
    /// The invocation's content key (fault identity).
    key: u128,
    /// The attempt index of the final roll.
    attempt: u32,
}

#[derive(Debug, Clone, Copy)]
enum FaultOutcome {
    /// No fault (possibly after retries); run the real invocation.
    Clean,
    /// Retries exhausted on a transient fault; the invocation failed.
    /// (The failing class is reconstructed by re-rolling — the rolls
    /// are pure — so the report builder shows every attempt, not just
    /// the last.)
    Fail,
    /// The invocation completed but its log must be corrupted.
    Mutate(ToolFault),
}

impl FaultVerdict {
    fn failed(&self) -> bool {
        matches!(self.outcome, FaultOutcome::Fail)
    }

    /// Applies a log-mutation fault to a completed invocation's `log`;
    /// true when the verdict was one. The mutation point is itself a
    /// pure hash of the invocation identity.
    fn mutate_log(&self, op: &'static str, log: &mut String) -> bool {
        let FaultOutcome::Mutate(fault) = self.outcome else {
            return false;
        };
        let shape = |what| EdaFaultPlan::shape(what, op, self.key, self.attempt);
        match fault {
            ToolFault::Garbled => *log = garble_log(log, shape("garble")),
            ToolFault::Truncate => *log = truncate_log(log, shape("truncate")),
            _ => {}
        }
        true
    }

    /// Applies a log-mutation fault (and any retry penalty) to a
    /// completed compile-like report. The structured verdict is the
    /// tool's exit protocol and stays intact; only the textual log is
    /// corrupted.
    fn shape_compile(&self, op: &'static str, mut report: CompileReport) -> CompileReport {
        self.mutate_log(op, &mut report.log);
        report.modeled_latency += self.penalty_s;
        report
    }

    /// Applies a log-mutation fault (and any retry penalty) to a
    /// completed sim report. Unlike compiles, a testbench verdict *is*
    /// read from the log (the pass marker, the failure lines), so the
    /// pass/failure fields are re-derived from the corrupted text: a
    /// truncated log that lost the marker reads as a failing run. The
    /// re-derivation only ANDs into `passed`, so corruption can hide a
    /// pass but never fabricate one.
    fn shape_sim(&self, mut report: SimReport) -> SimReport {
        if self.mutate_log("simulate", &mut report.log) {
            report.failures = extract_failures(&report.log);
            report.passed =
                report.passed && report.failures.is_empty() && report.log.contains(PASS_MARKER);
        }
        report.modeled_latency += self.penalty_s;
        report
    }
}

/// One Vivado-style log line for one faulted attempt.
fn fault_line(op: &str, fault: ToolFault, attempt: u32, watchdog_s: f64) -> String {
    match fault {
        ToolFault::Crash => format!(
            "FATAL: [{}] tool process terminated unexpectedly during {op} (attempt {attempt})\n",
            fault_code(fault)
        ),
        ToolFault::Hang => format!(
            "ERROR: [{}] {op} watchdog expired after {watchdog_s} s; process killed (attempt {attempt})\n",
            fault_code(fault)
        ),
        ToolFault::SpuriousExit => format!(
            "ERROR: [{}] {op} exited with nonzero status but produced no diagnostics (attempt {attempt})\n",
            fault_code(fault)
        ),
        // Log-mutation faults never produce attempt lines.
        ToolFault::Garbled | ToolFault::Truncate => String::new(),
    }
}

fn fault_code(fault: ToolFault) -> &'static str {
    match fault {
        ToolFault::Crash => "XSIM 43-3915",
        ToolFault::Hang => "XSIM 43-3601",
        ToolFault::SpuriousExit => "XSIM 43-3999",
        ToolFault::Garbled | ToolFault::Truncate => "XSIM 43-0000",
    }
}

/// Inserts a corruption banner at a deterministic char boundary chosen
/// by `u` (a pure identity hash mapped to `[0, 1)`).
fn garble_log(log: &str, u: f64) -> String {
    let cut = mutation_point(log, u);
    format!(
        "{}\n<<<garbled: tool output corrupted by injected fault>>>\n{}",
        &log[..cut],
        &log[cut..]
    )
}

/// Cuts the log at a deterministic char boundary chosen by `u`.
fn truncate_log(log: &str, u: f64) -> String {
    log[..mutation_point(log, u)].to_string()
}

/// A char boundary between 20 % and 80 % of the log.
fn mutation_point(log: &str, u: f64) -> usize {
    let mut cut = (log.len() as f64 * (0.2 + 0.6 * u)) as usize;
    cut = cut.min(log.len());
    while cut > 0 && !log.is_char_boundary(cut) {
        cut -= 1;
    }
    cut
}

/// A successful compile's design, as the compile step left it.
enum Elaborated {
    /// Elaborated by this call.
    Built(Arc<Design>),
    /// A compile-cache hit: the entry's top name and its weak handle on
    /// the design, which [`XsimToolSuite::design`] upgrades or, once
    /// nothing holds the design any more, elaborates again.
    Cached { top: String, design: Weak<Design> },
}

impl Elaborated {
    /// The elaborated top's name, as the simulator's log head prints it.
    fn top(&self) -> &str {
        match self {
            Elaborated::Built(design) => &design.top,
            Elaborated::Cached { top, .. } => top,
        }
    }
}

impl XsimToolSuite {
    /// Compiles `files` into a design, returning the elaborated design
    /// alongside the report so callers don't repeat the work
    /// ([C-INTERMEDIATE]). On a compile-cache hit the design comes from
    /// the elaboration memo, or is elaborated again when the memo no
    /// longer holds it; callers that need only the verdict use
    /// [`Self::compile_with_top`], which never elaborates on a hit.
    ///
    /// [C-INTERMEDIATE]: https://rust-lang.github.io/api-guidelines/flexibility.html
    #[must_use]
    pub fn compile_to_design(
        &self,
        files: &[HdlFile],
        top: Option<&str>,
    ) -> (CompileReport, Option<Arc<Design>>) {
        let digests = self.digests(files);
        let digests = digests.as_deref();
        let (report, _clean, elaborated) = self.compile_to_design_recorded(files, top, digests);
        let design = elaborated.map(|e| self.design(e, files, top, digests));
        (report, design)
    }

    /// [`ToolSuite::compile`] with an explicit `top`: the report of
    /// [`Self::compile_to_design`], without obtaining the design.
    #[must_use]
    pub fn compile_with_top(&self, files: &[HdlFile], top: Option<&str>) -> CompileReport {
        let digests = self.digests(files);
        self.compile_to_design_recorded(files, top, digests.as_deref())
            .0
    }

    /// The design behind a successful compile of `(files, top)`: this
    /// call's own, the one the compile entry's handle still reaches
    /// (the elaboration memo holds it), or a fresh elaboration through
    /// the parse memo.
    fn design(
        &self,
        elaborated: Elaborated,
        files: &[HdlFile],
        top: Option<&str>,
        digests: Option<&[u128]>,
    ) -> Arc<Design> {
        match elaborated {
            Elaborated::Built(design) => design,
            Elaborated::Cached { design, .. } => design.upgrade().unwrap_or_else(|| {
                self.compile_to_design_inner(files, top, digests)
                    .1
                    .expect("a compile that succeeded once elaborates again")
            }),
        }
    }

    /// [`Self::compile_to_design`] plus the *unshaped* report: the fault
    /// gate rolls here, around the cache, so cached entries (and the
    /// compile log `simulate` embeds in sim cache entries) stay clean —
    /// a fault plan must never leak plan-dependent bytes into
    /// content-addressed storage. The second element is the clean report
    /// when a log-mutation fault shaped the first, `None` otherwise.
    fn compile_to_design_recorded(
        &self,
        files: &[HdlFile],
        top: Option<&str>,
        digests: Option<&[u128]>,
    ) -> (CompileReport, Option<CompileReport>, Option<Elaborated>) {
        let span = self.recorder.span("eda.compile");
        let key = digests.map(|d| cache::compile_key(d, top, &self.latency));
        let verdict = self.fault_verdict(
            "compile",
            key,
            self.latency.compile_seconds(total_bytes(files)),
        );
        let (report, clean, design, cache_hit) = match &verdict {
            Some(v) if v.failed() => (self.faulted_compile_report("compile", v), None, None, None),
            _ => {
                let (clean, design, hit) = self.compile_to_design_cached(files, top, key, digests);
                match &verdict {
                    Some(v) => (
                        v.shape_compile("compile", clean.clone()),
                        Some(clean),
                        design,
                        hit,
                    ),
                    None => (clean, None, design, hit),
                }
            }
        };
        if span.is_recording() {
            // Everything emitted here is a pure function of the report,
            // so the hit and miss paths are indistinguishable in the
            // journal and metrics. `cache_hit` itself is a diagnostic
            // attribute, excluded from the canonical journal.
            self.recorder.advance(report.modeled_latency);
            span.attr_bool("success", report.success);
            span.attr_int("errors", report.error_count() as i64);
            span.attr_f64("tool_s", report.modeled_latency);
            if let Some(hit) = cache_hit {
                span.attr_bool("cache_hit", hit);
            }
            self.record_compile_metrics("compile", &report);
        }
        (report, clean, design)
    }

    /// Cache layer around [`Self::compile_to_design_inner`]. The third
    /// element reports the cache verdict (`None` = caching disabled).
    /// The thread that fills the entry keeps the design it elaborated;
    /// every other reader gets the entry's handle.
    fn compile_to_design_cached(
        &self,
        files: &[HdlFile],
        top: Option<&str>,
        key: Option<u128>,
        digests: Option<&[u128]>,
    ) -> (CompileReport, Option<Elaborated>, Option<bool>) {
        let (Some(cache), Some(key)) = (&self.cache, key) else {
            let (report, design) = self.compile_to_design_inner(files, top, digests);
            return (report, design.map(Elaborated::Built), None);
        };
        let (slot, hit) = cache.compile_slot(key);
        let mut built = None;
        let entry = slot.get_or_init(|| {
            let (report, design) = self.compile_to_design_inner(files, top, digests);
            let entry = CompileEntry {
                report,
                top: design.as_ref().map(|d| d.top.clone()),
                design: design.as_ref().map_or_else(Weak::new, Arc::downgrade),
            };
            built = design;
            entry
        });
        let elaborated = match built {
            Some(design) => Some(Elaborated::Built(design)),
            None => entry.top.as_ref().map(|top| Elaborated::Cached {
                top: top.clone(),
                design: Weak::clone(&entry.design),
            }),
        };
        (entry.report.clone(), elaborated, Some(hit))
    }

    fn compile_to_design_inner(
        &self,
        files: &[HdlFile],
        top: Option<&str>,
        digests: Option<&[u128]>,
    ) -> (CompileReport, Option<Arc<Design>>) {
        let (sources, mut log) = analysis_start(files);
        let language = files.first().map_or(Language::Verilog, |f| f.language);
        if files.iter().any(|f| f.language != language) {
            log.push_str(
                "ERROR: [XSIM 43-4100] mixed-language compilation units must be elaborated per language\n",
            );
            let report = CompileReport {
                success: false,
                log,
                messages: vec![ToolMessage {
                    severity: aivril_hdl::diag::Severity::Error,
                    code: "XSIM 43-4100".into(),
                    message: "mixed-language compilation units must be elaborated per language"
                        .into(),
                    file: None,
                    line: None,
                }],
                modeled_latency: self.latency.compile_seconds(total_bytes(files)),
            };
            return (report, None);
        }

        // `no_top` marks the case where analysis was clean but the
        // source set declares nothing elaboratable — previously this
        // fell through to `elaborate(.., "")`, whose "unknown unit ''"
        // diagnostic was useless to the Review Agent.
        let memo = self.memo(digests);
        let ((design, diags, no_top), what) = match language {
            Language::Verilog => (front::<SourceUnit>(memo, &sources, top), "module"),
            Language::Vhdl => (front::<DesignFile>(memo, &sources, top), "entity"),
        };
        log.push_str(&diags.render(&sources));
        let success = design.is_some();
        let mut messages = to_messages(&diags, &sources);
        if no_top {
            let _ = writeln!(
                log,
                "ERROR: [xelab 43-3316] no top module found: the source set declares no {what} to elaborate"
            );
            messages.push(ToolMessage {
                severity: Severity::Error,
                code: "xelab 43-3316".into(),
                message: format!(
                    "no top module found: the source set declares no {what} to elaborate"
                ),
                file: None,
                line: None,
            });
        }
        if success {
            log.push_str("INFO: [xelab] Elaboration completed successfully\n");
        } else {
            let _ = writeln!(
                log,
                "ERROR: [xelab] {} error(s) during analysis/elaboration",
                diags.error_count().max(1)
            );
        }
        let report = CompileReport {
            success,
            log,
            messages,
            modeled_latency: self.latency.compile_seconds(total_bytes(files)),
        };
        (report, design)
    }
}

/// One HDL frontend's design container — a Verilog [`SourceUnit`] or a
/// VHDL [`DesignFile`] — so parsing, elaboration and the memos around
/// them are written once for both languages.
trait Frontend: Default + Clone {
    const LANGUAGE: Language;
    /// Lexes and parses one file (`xvlog`/`xvhdl` on one file).
    fn analyze_file(file: FileId, text: &str) -> (Self, Diagnostics);
    /// Appends `part`'s design units (shared, not copied) after ours.
    fn append(&mut self, part: &Self);
    /// The top-level unit to elaborate when the caller names none.
    fn find_top(&self) -> Option<String>;
    fn elaborate(&self, top: &str, diags: &mut Diagnostics) -> Option<Design>;
    /// `top` as the elaborator resolves it, for the memo key.
    fn memo_top(top: &str) -> Cow<'_, str>;
    /// The file indices contributing units to `top`'s instantiation
    /// closure (`top` already through [`Frontend::memo_top`]), or `None`
    /// when the elaborator's output depends on more than the closure.
    /// Unknown instantiated names contribute nothing: elaboration
    /// diagnoses them, and the files defining nothing reachable can't
    /// influence that verdict.
    fn closure(parts: &[Self], top: &str) -> Option<BTreeSet<usize>>;
    fn into_parsed(self, diags: Diagnostics) -> ParsedFile;
    fn from_parsed(entry: &ParsedFile) -> Option<(&Self, &Diagnostics)>;
}

impl Frontend for SourceUnit {
    const LANGUAGE: Language = Language::Verilog;

    fn analyze_file(file: FileId, text: &str) -> (SourceUnit, Diagnostics) {
        aivril_verilog::analyze_file(file, text)
    }

    fn append(&mut self, part: &SourceUnit) {
        self.modules.extend(part.modules.iter().cloned());
    }

    fn find_top(&self) -> Option<String> {
        aivril_verilog::find_top(self)
    }

    fn elaborate(&self, top: &str, diags: &mut Diagnostics) -> Option<Design> {
        aivril_verilog::elaborate(self, top, diags)
    }

    fn memo_top(top: &str) -> Cow<'_, str> {
        Cow::Borrowed(top)
    }

    /// `None` when any module name is declared twice — the elaborator
    /// diagnoses redeclarations *globally*.
    fn closure(parts: &[SourceUnit], top: &str) -> Option<BTreeSet<usize>> {
        let mut def_file: HashMap<&str, usize> = HashMap::new();
        let mut modules = HashMap::new();
        for (index, part) in parts.iter().enumerate() {
            for m in &part.modules {
                if def_file.insert(m.name.as_str(), index).is_some() {
                    return None;
                }
                modules.insert(m.name.as_str(), m);
            }
        }
        let mut files = BTreeSet::new();
        let mut seen = HashSet::new();
        let mut stack = vec![top];
        while let Some(name) = stack.pop() {
            if !seen.insert(name) {
                continue;
            }
            let Some(m) = modules.get(name) else {
                continue;
            };
            files.insert(def_file[name]);
            for item in &m.items {
                if let aivril_verilog::ast::Item::Instance { module, .. } = item {
                    stack.push(module.as_str());
                }
            }
        }
        Some(files)
    }

    fn into_parsed(self, diags: Diagnostics) -> ParsedFile {
        ParsedFile::Verilog(self, diags)
    }

    fn from_parsed(entry: &ParsedFile) -> Option<(&SourceUnit, &Diagnostics)> {
        match entry {
            ParsedFile::Verilog(part, diags) => Some((part, diags)),
            ParsedFile::Vhdl(..) => None,
        }
    }
}

impl Frontend for DesignFile {
    const LANGUAGE: Language = Language::Vhdl;

    fn analyze_file(file: FileId, text: &str) -> (DesignFile, Diagnostics) {
        aivril_vhdl::analyze_file(file, text)
    }

    fn append(&mut self, part: &DesignFile) {
        self.entities.extend(part.entities.iter().cloned());
        self.architectures
            .extend(part.architectures.iter().cloned());
    }

    fn find_top(&self) -> Option<String> {
        aivril_vhdl::find_top(self)
    }

    fn elaborate(&self, top: &str, diags: &mut Diagnostics) -> Option<Design> {
        aivril_vhdl::elaborate(self, top, diags)
    }

    /// VHDL names are case-insensitive; the elaborator folds to lower.
    fn memo_top(top: &str) -> Cow<'_, str> {
        Cow::Owned(top.to_ascii_lowercase())
    }

    /// Walks entities plus their architectures. `None` on any duplicated
    /// entity name or second architecture for one entity — the
    /// elaborator resolves those last-wins, a dependency on file *order*
    /// the closure key doesn't express.
    fn closure(parts: &[DesignFile], top: &str) -> Option<BTreeSet<usize>> {
        let mut ent_file: HashMap<&str, usize> = HashMap::new();
        let mut arch_file: HashMap<&str, usize> = HashMap::new();
        let mut archs = HashMap::new();
        for (index, part) in parts.iter().enumerate() {
            for e in &part.entities {
                if ent_file.insert(e.name.as_str(), index).is_some() {
                    return None;
                }
            }
            for a in &part.architectures {
                if arch_file.insert(a.entity.as_str(), index).is_some() {
                    return None;
                }
                archs.insert(a.entity.as_str(), a);
            }
        }
        let mut files = BTreeSet::new();
        let mut seen = HashSet::new();
        let mut stack = vec![top.to_string()];
        while let Some(name) = stack.pop() {
            if !seen.insert(name.clone()) {
                continue;
            }
            if let Some(&index) = ent_file.get(name.as_str()) {
                files.insert(index);
            }
            if let Some(&index) = arch_file.get(name.as_str()) {
                files.insert(index);
            }
            if let Some(a) = archs.get(name.as_str()) {
                for s in &a.stmts {
                    if let aivril_vhdl::ast::ConcurrentStmt::Instance { entity, .. } = s {
                        stack.push(entity.to_ascii_lowercase());
                    }
                }
            }
        }
        Some(files)
    }

    fn into_parsed(self, diags: Diagnostics) -> ParsedFile {
        ParsedFile::Vhdl(self, diags)
    }

    fn from_parsed(entry: &ParsedFile) -> Option<(&DesignFile, &Diagnostics)> {
        match entry {
            ParsedFile::Vhdl(part, diags) => Some((part, diags)),
            ParsedFile::Verilog(..) => None,
        }
    }
}

/// Analysis + elaboration of one language's sources. Returns
/// `(design, diagnostics, no_top)`.
fn front<F: Frontend>(
    memo: Memo<'_>,
    sources: &SourceMap,
    top: Option<&str>,
) -> (Option<Arc<Design>>, Diagnostics, bool) {
    let (unit, parts, mut diags) = parse::<F>(memo, sources);
    if diags.has_errors() {
        return (None, diags, false);
    }
    let Some(top) = top.map(String::from).or_else(|| unit.find_top()) else {
        return (None, diags, true);
    };
    let design = elaborate(memo, &unit, &parts, &top, &mut diags);
    (design.filter(|_| !diags.has_errors()), diags, false)
}

/// Parses every file into one container. With a memo, the per-file
/// parts come back too (the elaboration closure needs to know which
/// file defines which unit); without one, that list stays empty.
fn parse<F: Frontend>(memo: Memo<'_>, sources: &SourceMap) -> (F, Vec<F>, Diagnostics) {
    let mut unit = F::default();
    let mut parts = Vec::new();
    let mut diags = Diagnostics::new();
    for (index, (id, source)) in sources.iter().enumerate() {
        let (part, part_diags) = parse_file::<F>(memo, index, id, source.text());
        unit.append(&part);
        diags.extend(part_diags);
        if memo.is_some() {
            parts.push(part);
        }
    }
    (unit, parts, diags)
}

/// Parses file `index`, through the per-file parse memo when there is
/// one.
fn parse_file<F: Frontend>(
    memo: Memo<'_>,
    index: usize,
    id: FileId,
    text: &str,
) -> (F, Diagnostics) {
    let Some((cache, digests)) = memo else {
        return F::analyze_file(id, text);
    };
    let (slot, _) = cache.parse_slot(cache::parse_key(index, digests[index]));
    let entry = slot.get_or_init(|| {
        let (part, diags) = F::analyze_file(id, text);
        part.into_parsed(diags)
    });
    // The language in the file digest makes an entry of the other
    // language unreachable; parse fresh rather than panic if it ever
    // isn't.
    match F::from_parsed(entry) {
        Some((part, diags)) => (part.clone(), diags.clone()),
        None => F::analyze_file(id, text),
    }
}

/// Elaborates `top`, through the closure-keyed memo when there is one
/// and the closure can be trusted. The memo stores elaboration's *own*
/// diagnostics (callers only reach this point with error-free parse
/// diags, so elaboration against a fresh `Diagnostics` behaves
/// identically) and replays them on a hit.
fn elaborate<F: Frontend>(
    memo: Memo<'_>,
    unit: &F,
    parts: &[F],
    top: &str,
    diags: &mut Diagnostics,
) -> Option<Arc<Design>> {
    let memo = memo.and_then(|(cache, digests)| {
        let top_key = F::memo_top(top);
        let closure = F::closure(parts, &top_key)?;
        let files: Vec<_> = closure.iter().map(|&i| (i, digests[i])).collect();
        Some((cache, cache::elab_key(F::LANGUAGE, &top_key, &files)))
    });
    let Some((cache, key)) = memo else {
        return unit.elaborate(top, diags).map(Arc::new);
    };
    let (slot, _) = cache.elab_slot(key);
    let entry = slot.get_or_init(|| {
        let mut fresh = Diagnostics::new();
        let design = unit.elaborate(top, &mut fresh).map(Arc::new);
        ElabEntry {
            design,
            diags: fresh,
        }
    });
    diags.extend(entry.diags.clone());
    entry.design.clone()
}

/// The source map of `files`, and the log header naming each file, that
/// analysis and compilation both start from.
fn analysis_start(files: &[HdlFile]) -> (SourceMap, String) {
    let mut sources = SourceMap::new();
    let mut log = String::new();
    for f in files {
        sources.add_file(f.name.clone(), f.text.clone());
        let tool = match f.language {
            Language::Verilog => "xvlog",
            Language::Vhdl => "xvhdl",
        };
        let _ = writeln!(
            log,
            "INFO: [{tool}] Analyzing {} file \"{}\" into library work",
            f.language, f.name
        );
    }
    (sources, log)
}

fn total_bytes(files: &[HdlFile]) -> usize {
    files.iter().map(HdlFile::byte_len).sum()
}

fn severity_label(severity: Severity) -> &'static str {
    match severity {
        Severity::Note => "note",
        Severity::Warning => "warning",
        Severity::Error => "error",
        Severity::Fatal => "fatal",
    }
}

fn to_messages(diags: &Diagnostics, sources: &SourceMap) -> Vec<ToolMessage> {
    diags
        .all()
        .iter()
        .map(|d| {
            let (file, line) = match d.span {
                Some(span) => {
                    let f = sources.file(span.file);
                    (Some(f.name().to_string()), Some(f.line_of(span.start)))
                }
                None => (None, None),
            };
            ToolMessage {
                severity: d.severity,
                code: d.code.clone(),
                message: d.message.clone(),
                file,
                line,
            }
        })
        .collect()
}

/// Maps a kernel watchdog abort into the structured report diagnostic.
fn diverged_from(result: &aivril_sim::SimResult) -> Option<crate::report::SimDiverged> {
    result.limit_hit.map(|limit| crate::report::SimDiverged {
        limit,
        at_time: result.end_time,
        instructions: result.instructions_executed,
    })
}

/// A sim report for a run that never reached, or never left, the
/// kernel: no failures, no simulated time.
fn unrun_report(
    compiled: bool,
    log: String,
    compile_messages: Vec<ToolMessage>,
    modeled_latency: f64,
) -> SimReport {
    SimReport {
        compiled,
        passed: false,
        log,
        failures: Vec::new(),
        compile_messages,
        end_time: 0,
        finished: false,
        diverged: None,
        modeled_latency,
    }
}

impl XsimToolSuite {
    /// Like [`ToolSuite::simulate`], additionally returning a VCD
    /// waveform dump of the whole run (when compilation succeeded) —
    /// the `xsim` `--wdb`-style debug artefact. It is the same run
    /// `simulate` makes, except that it bypasses the sim-result cache,
    /// whose entries hold no waveform.
    #[must_use]
    pub fn simulate_with_waves(
        &self,
        files: &[HdlFile],
        top: Option<&str>,
    ) -> (SimReport, Option<String>) {
        self.simulate_run(files, top, true)
    }

    /// [`ToolSuite::simulate`], and the run's waveform when `waves`.
    fn simulate_run(
        &self,
        files: &[HdlFile],
        top: Option<&str>,
        waves: bool,
    ) -> (SimReport, Option<String>) {
        let span = self.recorder.span("eda.simulate");
        let digests = self.digests(files);
        let digests = digests.as_deref();
        let (compile_report, clean_compile, elaborated) =
            self.compile_to_design_recorded(files, top, digests);
        let Some(elaborated) = elaborated else {
            span.attr_bool("passed", false);
            let report = unrun_report(
                false,
                compile_report.log,
                compile_report.messages,
                compile_report.modeled_latency,
            );
            return (report, None);
        };
        // The sim phase (and anything it caches) builds on the *clean*
        // compile report; compile-level log corruption belongs to the
        // compile invocation alone.
        let compile = clean_compile.as_ref().unwrap_or(&compile_report);
        let key = digests.map(|d| cache::sim_key(d, top, &self.latency, &self.sim_config));
        // A crashed simulator never reaches the event kernel; the
        // attempt's cost is the tool's startup share.
        let verdict = self.fault_verdict("simulate", key, self.latency.sim_seconds(0));
        let (report, sim_latency, cache_hit, vcd) = match &verdict {
            Some(v) if v.failed() => {
                let mut log = sim_log_head(compile, elaborated.top());
                log.push_str(&self.faulted_compile_report("simulate", v).log);
                let latency = compile.modeled_latency + v.penalty_s;
                let report = unrun_report(true, log, compile.messages.clone(), latency);
                (report, v.penalty_s, None, None)
            }
            _ => {
                // Cached entries hold no waveform, so a waveform
                // request runs the kernel live. The design is obtained
                // only when the kernel runs: a sim hit needs none.
                let key = key.filter(|_| !waves);
                let design = || self.design(elaborated, files, top, digests);
                let (report, sim_latency, hit, vcd) =
                    self.run_sim_cached(key, compile, design, waves);
                match &verdict {
                    Some(v) => (v.shape_sim(report), sim_latency + v.penalty_s, hit, vcd),
                    None => (report, sim_latency, hit, vcd),
                }
            }
        };
        if span.is_recording() {
            // Pure functions of the (possibly cached) report — the hit
            // and miss paths emit identical telemetry (the kernel's own
            // series are replayed from the cache entry inside
            // `run_sim_cached`).
            self.recorder.advance(sim_latency);
            span.attr_bool("passed", report.passed);
            span.attr_int("failures", report.failures.len() as i64);
            span.attr_f64("sim_s", sim_latency);
            if let Some(hit) = cache_hit {
                span.attr_bool("cache_hit", hit);
            }
            self.recorder
                .counter_add("eda_invocations_total", &[("phase", "simulate")], 1);
            self.recorder.observe(
                "eda_sim_seconds",
                &[],
                &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
                sim_latency,
            );
        }
        (report, vcd)
    }

    /// Runs the simulation phase on an already-elaborated design: the
    /// one place the kernel runs, behind the live, cache-miss and
    /// waveform paths alike, so they cannot diverge. The entry carries
    /// the kernel series for cache replay when `collect_telemetry`; the
    /// VCD dump comes back when `waves`.
    fn run_sim(
        &self,
        compile_report: &CompileReport,
        design: &Design,
        collect_telemetry: bool,
        waves: bool,
    ) -> (SimEntry, Option<String>) {
        let mut log = sim_log_head(compile_report, &design.top);
        let mut sim = Simulator::new(design, self.sim_config).with_recorder(self.recorder.clone());
        if collect_telemetry {
            sim.collect_telemetry();
        }
        if waves {
            sim.record_waves();
        }
        let result = sim.run();
        self.fold_kernel(&sim.perf());
        log.push_str(&result.log_text());
        if result.finished {
            let _ = writeln!(
                log,
                "INFO: [xsim] $finish called at time : {} ns",
                result.end_time
            );
        } else if result.starved {
            let _ = writeln!(
                log,
                "INFO: [xsim] simulation stopped (event starvation) at time : {} ns",
                result.end_time
            );
        }
        let failures = extract_failures(&log);
        // A run passes when it is error-free, produced no test failures,
        // ended of its own accord (no resource limit), and printed the
        // completion marker the paper's workflow relies on (Fig. 2 ⑧).
        let passed = result.is_clean()
            && failures.is_empty()
            && (result.finished || result.starved)
            && log.contains(PASS_MARKER);
        let sim_latency = self.latency.sim_seconds(result.instructions_executed);
        let report = SimReport {
            compiled: true,
            passed,
            log,
            failures,
            compile_messages: compile_report.messages.clone(),
            end_time: result.end_time,
            finished: result.finished,
            diverged: diverged_from(&result),
            modeled_latency: compile_report.modeled_latency + sim_latency,
        };
        let vcd = sim.vcd();
        let entry = SimEntry {
            report,
            sim_latency,
            kernel: sim.take_telemetry(),
        };
        (entry, vcd)
    }

    /// Cache layer around [`Self::run_sim`], below the fault gate;
    /// `key` is `None` when the result must not be cached. `design` is
    /// called only when the kernel runs. On a miss
    /// the kernel runs live (recording into this suite's recorder as
    /// usual) and its telemetry is stored in the entry; on a hit the
    /// stored telemetry is replayed into this suite's recorder, so the
    /// metrics registry ends up byte-identical to a cache-off run. The
    /// replay decision follows *who executed the initializer*, not the
    /// hit accounting: a thread can be accounted a hit yet win the
    /// `get_or_init` race, in which case it already recorded live and
    /// must not replay.
    fn run_sim_cached(
        &self,
        key: Option<u128>,
        compile_report: &CompileReport,
        design: impl FnOnce() -> Arc<Design>,
        waves: bool,
    ) -> (SimReport, f64, Option<bool>, Option<String>) {
        let (Some(cache), Some(key)) = (&self.cache, key) else {
            let (entry, vcd) = self.run_sim(compile_report, &design(), false, waves);
            return (entry.report, entry.sim_latency, None, vcd);
        };
        let (slot, hit) = cache.sim_slot(key);
        let mut computed_here = false;
        let entry = slot.get_or_init(|| {
            // Values that come from disk never reach the closure, so
            // each result is persisted once, by the process that
            // computed it, and a disk-loaded entry replays below.
            cache.load_or_compute(key, || {
                computed_here = true;
                // Telemetry is collected even when this suite's recorder
                // is disabled: the recorder-free scoring suite may
                // populate an entry a traced worker hits later.
                self.run_sim(compile_report, &design(), true, false).0
            })
        });
        if !computed_here {
            if let Some(kernel) = &entry.kernel {
                kernel.record_to(&self.recorder);
                // Fold the stored run's counters so the suite totals are
                // the same whether the kernel executed or was replayed.
                self.fold_kernel(&kernel.perf());
            }
        }
        (entry.report.clone(), entry.sim_latency, Some(hit), None)
    }

    fn analyze_inner(&self, files: &[HdlFile]) -> CompileReport {
        let (sources, mut log) = analysis_start(files);
        let mut diags = Diagnostics::new();
        for ((id, source), f) in sources.iter().zip(files) {
            // The file's own language picks the frontend, as it does
            // for compile and simulate. Analysis parses without the
            // per-file memo: the whole-call analyze cache answers its
            // repeats, and the flow analyzes a testbench alone (file
            // index 0) but compiles it after the DUT (index 1), so an
            // AST stored under the analysis index would never be read.
            diags.extend(match f.language {
                Language::Verilog => SourceUnit::analyze_file(id, source.text()).1,
                Language::Vhdl => DesignFile::analyze_file(id, source.text()).1,
            });
        }
        log.push_str(&diags.render(&sources));
        let success = !diags.has_errors();
        if success {
            log.push_str("INFO: [xvlog] Analysis completed successfully\n");
        } else {
            let _ = writeln!(
                log,
                "ERROR: [xvlog] {} error(s) during analysis",
                diags.error_count()
            );
        }
        CompileReport {
            success,
            log,
            messages: to_messages(&diags, &sources),
            modeled_latency: self.latency.compile_seconds(total_bytes(files)),
        }
    }
}

/// The compile log followed by the line `xsim` opens a run of `top`
/// with.
fn sim_log_head(compile_report: &CompileReport, top: &str) -> String {
    let mut log = compile_report.log.clone();
    let _ = writeln!(log, "INFO: [xsim] Running simulation of '{top}'");
    log
}

impl ToolSuite for XsimToolSuite {
    fn analyze(&self, files: &[HdlFile]) -> CompileReport {
        let span = self.recorder.span("eda.analyze");
        let digests = self.digests(files);
        let digests = digests.as_deref();
        let key = digests.map(|d| cache::analyze_key(d, &self.latency));
        let verdict = self.fault_verdict(
            "analyze",
            key,
            self.latency.compile_seconds(total_bytes(files)),
        );
        let (report, cache_hit) = match &verdict {
            Some(v) if v.failed() => (self.faulted_compile_report("analyze", v), None),
            _ => {
                let (report, hit) = match (&self.cache, key) {
                    (Some(cache), Some(key)) => {
                        let (slot, hit) = cache.analyze_slot(key);
                        let report = slot
                            .get_or_init(|| {
                                cache.load_or_compute(key, || self.analyze_inner(files))
                            })
                            .clone();
                        (report, Some(hit))
                    }
                    _ => (self.analyze_inner(files), None),
                };
                match &verdict {
                    Some(v) => (v.shape_compile("analyze", report), hit),
                    None => (report, hit),
                }
            }
        };
        if span.is_recording() {
            self.recorder.advance(report.modeled_latency);
            span.attr_bool("success", report.success);
            span.attr_int("errors", report.error_count() as i64);
            span.attr_f64("tool_s", report.modeled_latency);
            if let Some(hit) = cache_hit {
                span.attr_bool("cache_hit", hit);
            }
            self.record_compile_metrics("analyze", &report);
        }
        report
    }

    fn compile(&self, files: &[HdlFile]) -> CompileReport {
        self.compile_with_top(files, None)
    }

    fn simulate(&self, files: &[HdlFile], top: Option<&str>) -> SimReport {
        self.simulate_run(files, top, false).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_V: &str = "module inv(input a, output y);\n  assign y = ~a;\nendmodule\n";
    const GOOD_TB: &str = "module tb;\n  reg a; wire y;\n  inv dut(.a(a), .y(y));\n\
        initial begin\n    a = 0; #1;\n    if (y !== 1'b1) $error(\"Test Case 1 Failed: y should be 1\");\n\
        else $display(\"All tests passed successfully!\");\n    $finish;\n  end\nendmodule\n";
    const BAD_V: &str = "module inv(input a, output y)\n  assign y = ~a;\nendmodule\n";
    const GOOD_VHD: &str =
        "entity inv is port (a : in std_logic; y : out std_logic); end entity;\n\
        architecture rtl of inv is begin y <= not a; end architecture;\n";
    const GOOD_VHD_TB: &str = "entity tb is end entity;\narchitecture sim of tb is\n\
        signal a, y : std_logic;\nbegin\n\
        dut: entity work.inv port map (a => a, y => y);\n\
        process begin\n  a <= '0'; wait for 1 ns;\n\
        assert y = '1' report \"Test Case 1 Failed\" severity error;\n\
        report \"All tests passed successfully!\";\n  wait;\nend process;\n\
        end architecture;\n";

    #[test]
    fn clean_compile_logs_success() {
        let tools = XsimToolSuite::new();
        let report = tools.compile(&[HdlFile::new("inv.v", GOOD_V)]);
        assert!(report.success);
        assert!(report.log.contains("Analyzing Verilog file \"inv.v\""));
        assert!(report.log.contains("Elaboration completed successfully"));
        assert!(report.modeled_latency > 0.0);
    }

    #[test]
    fn syntax_error_produces_located_log() {
        let tools = XsimToolSuite::new();
        let report = tools.compile(&[HdlFile::new("inv.v", BAD_V)]);
        assert!(!report.success);
        assert!(report.log.contains("ERROR: [VRFC"), "log: {}", report.log);
        assert!(report.log.contains("[inv.v:"), "log: {}", report.log);
        assert!(report.error_count() >= 1);
        let m = report.messages.iter().find(|m| m.is_error()).expect("msg");
        assert_eq!(m.file.as_deref(), Some("inv.v"));
        assert!(m.line.is_some());
    }

    #[test]
    fn passing_simulation() {
        let tools = XsimToolSuite::new();
        let report = tools.simulate(
            &[HdlFile::new("inv.v", GOOD_V), HdlFile::new("tb.v", GOOD_TB)],
            Some("tb"),
        );
        assert!(report.compiled);
        assert!(report.passed, "log: {}", report.log);
        assert!(report.failures.is_empty());
        assert!(report.log.contains("All tests passed successfully!"));
        assert!(report.log.contains("$finish called"));
    }

    #[test]
    fn functional_failure_extracted() {
        // DUT mutated: ~a became a (a classic functional fault).
        let broken = "module inv(input a, output y);\n  assign y = a;\nendmodule\n";
        let tools = XsimToolSuite::new();
        let report = tools.simulate(
            &[HdlFile::new("inv.v", broken), HdlFile::new("tb.v", GOOD_TB)],
            Some("tb"),
        );
        assert!(report.compiled);
        assert!(!report.passed);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].case, Some(1));
    }

    #[test]
    fn simulate_with_compile_errors_skips_sim() {
        let tools = XsimToolSuite::new();
        let report = tools.simulate(&[HdlFile::new("inv.v", BAD_V)], None);
        assert!(!report.compiled);
        assert!(!report.passed);
        assert_eq!(report.end_time, 0);
    }

    #[test]
    fn vhdl_flow_works() {
        let tools = XsimToolSuite::new();
        let report = tools.simulate(
            &[
                HdlFile::new("inv.vhd", GOOD_VHD),
                HdlFile::new("tb.vhd", GOOD_VHD_TB),
            ],
            Some("tb"),
        );
        assert!(report.compiled, "log: {}", report.log);
        assert!(report.log.contains("Analyzing VHDL file"));
        // VHDL testbenches end by event starvation; the completion
        // marker makes the run count as a pass anyway.
        assert!(!report.finished);
        assert!(report.passed, "log: {}", report.log);
    }

    /// A file whose `language` disagrees with its name's extension is
    /// analyzed by the same frontend that compiles it: its language's.
    #[test]
    fn analyze_uses_the_file_language_not_its_name() {
        let mut as_v = HdlFile::new("inv.v", GOOD_VHD);
        as_v.language = Language::Vhdl;
        let mut as_vhd = HdlFile::new("inv.vhd", GOOD_V);
        as_vhd.language = Language::Verilog;
        let suites = [
            XsimToolSuite::new(),
            XsimToolSuite::new().with_cache(EdaCache::new()),
        ];
        for suite in &suites {
            for file in [&as_v, &as_vhd] {
                let files = [file.clone()];
                let analyzed = suite.analyze(&files);
                assert!(analyzed.success, "{}: {}", file.name, analyzed.log);
                let compiled = suite.compile(&files);
                assert!(compiled.success, "{}: {}", file.name, compiled.log);
                assert_eq!(analyzed.messages, compiled.messages, "{}", file.name);
            }
        }
    }

    #[test]
    fn mixed_language_rejected() {
        let tools = XsimToolSuite::new();
        let report = tools.compile(&[
            HdlFile::new("a.v", GOOD_V),
            HdlFile::new("b.vhd", "entity e is end;"),
        ]);
        assert!(!report.success);
        assert!(report.log.contains("mixed-language"));
    }

    /// The waveform path is `simulate`'s run plus a VCD: the same
    /// report on every outcome, cache or no cache.
    #[test]
    fn waveform_dump_covers_the_run() {
        let tools = XsimToolSuite::new();
        let (report, vcd) = tools.simulate_with_waves(
            &[HdlFile::new("inv.v", GOOD_V), HdlFile::new("tb.v", GOOD_TB)],
            Some("tb"),
        );
        assert!(report.passed);
        let vcd = vcd.expect("compiled run yields waves");
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("$dumpvars"));
        assert!(vcd.contains(" a $end"), "tb signals declared: {vcd}");
        let (_, vcd) = tools.simulate_with_waves(&[HdlFile::new("inv.v", BAD_V)], None);
        assert!(vcd.is_none(), "no waves when compilation fails");

        let broken = "module inv(input a, output y);\n  assign y = a;\nendmodule\n";
        let starved_tb = GOOD_TB.replace("    $finish;\n", "");
        let cases = [
            (
                "passing Verilog",
                vec![("inv.v", GOOD_V), ("tb.v", GOOD_TB)],
            ),
            (
                "passing VHDL",
                vec![("inv.vhd", GOOD_VHD), ("tb.vhd", GOOD_VHD_TB)],
            ),
            (
                "failing testbench",
                vec![("inv.v", broken), ("tb.v", GOOD_TB)],
            ),
            (
                "event-starved",
                vec![("inv.v", GOOD_V), ("tb.v", &starved_tb)],
            ),
            ("compile error", vec![("inv.v", BAD_V), ("tb.v", GOOD_TB)]),
        ];
        // The cached suite runs `simulate` first, so a waveform request
        // that read the sim-result cache would come back without waves.
        for suite in [
            XsimToolSuite::new(),
            XsimToolSuite::new().with_cache(EdaCache::new()),
        ] {
            for (case, sources) in &cases {
                let files: Vec<_> = sources.iter().map(|&(n, t)| HdlFile::new(n, t)).collect();
                let plain = suite.simulate(&files, Some("tb"));
                let (waved, vcd) = suite.simulate_with_waves(&files, Some("tb"));
                assert_eq!(waved.log, plain.log, "{case}");
                assert_eq!(waved.passed, plain.passed, "{case}");
                assert_eq!(waved.failures, plain.failures, "{case}");
                assert_eq!(waved.end_time, plain.end_time, "{case}");
                assert_eq!(waved.finished, plain.finished, "{case}");
                assert_eq!(waved.diverged, plain.diverged, "{case}");
                assert_eq!(
                    waved.modeled_latency.to_bits(),
                    plain.modeled_latency.to_bits(),
                    "{case}"
                );
                assert_eq!(vcd.is_some(), plain.compiled, "{case}");
            }
        }
        let files = [
            HdlFile::new("inv.v", GOOD_V),
            HdlFile::new("tb.v", starved_tb.as_str()),
        ];
        let (starved, _) = tools.simulate_with_waves(&files, Some("tb"));
        assert!(starved.passed, "log: {}", starved.log);
        assert!(
            starved.log.contains("(event starvation)"),
            "{}",
            starved.log
        );
    }

    #[test]
    fn no_elaboratable_unit_is_a_proper_error() {
        // Regression: a source set with no module declaration used to
        // fall through to `elaborate(.., "")` and report a baffling
        // "unknown unit ''"-style diagnostic.
        let tools = XsimToolSuite::new();
        let report = tools.compile(&[HdlFile::new("empty.v", "// placeholder, no RTL yet\n")]);
        assert!(!report.success);
        assert!(
            report.log.contains("no top module found"),
            "log: {}",
            report.log
        );
        assert!(report.error_count() >= 1);
        let m = report.messages.iter().find(|m| m.is_error()).expect("msg");
        assert_eq!(m.code, "xelab 43-3316");

        // Same for VHDL (comment-only source, no entity).
        let report = tools.compile(&[HdlFile::new("empty.vhd", "-- placeholder\n")]);
        assert!(!report.success);
        assert!(
            report.log.contains("no top module found"),
            "log: {}",
            report.log
        );
    }

    #[test]
    fn cache_returns_identical_reports_and_counts_hits() {
        let cached = XsimToolSuite::new().with_cache(EdaCache::new());
        let plain = XsimToolSuite::new();
        let files = [HdlFile::new("inv.v", GOOD_V), HdlFile::new("tb.v", GOOD_TB)];

        let baseline = plain.simulate(&files, Some("tb"));
        let first = cached.simulate(&files, Some("tb"));
        let second = cached.simulate(&files, Some("tb"));
        for r in [&first, &second] {
            assert_eq!(r.passed, baseline.passed);
            assert_eq!(r.log, baseline.log);
            assert_eq!(r.end_time, baseline.end_time);
            assert_eq!(
                r.modeled_latency.to_bits(),
                baseline.modeled_latency.to_bits(),
                "modeled latency must be stored, not recomputed"
            );
        }
        let stats = cached.cache().expect("cache attached").stats();
        // Each simulate = one compile lookup + one sim lookup.
        assert_eq!(stats.misses, 2, "first call misses compile + sim");
        assert_eq!(stats.hits, 2, "second call hits both");
        assert_eq!(stats.entries, 2);

        // analyze has its own shard.
        let a1 = cached.analyze(&files);
        let a2 = cached.analyze(&files);
        assert_eq!(a1.log, a2.log);
        let stats = cached.cache().expect("cache").stats();
        assert_eq!((stats.misses, stats.hits), (3, 3));
    }

    #[test]
    fn kernel_stats_are_cache_mode_invariant_and_shared_by_clones() {
        let files = [HdlFile::new("inv.v", GOOD_V), HdlFile::new("tb.v", GOOD_TB)];
        let plain = XsimToolSuite::new();
        plain.simulate(&files, Some("tb"));
        let once = plain.kernel_stats();
        assert!(once.instructions > 0, "the kernel executed something");
        assert!(once.sim_time_ns > 0);

        // Two simulates with the cache on: the second is a replay, but
        // its stored counters must fold in as if it had run.
        let cached = XsimToolSuite::new().with_cache(EdaCache::new());
        cached.simulate(&files, Some("tb"));
        let clone = cached.clone();
        clone.simulate(&files, Some("tb"));
        let twice = cached.kernel_stats();
        assert_eq!(twice.instructions, 2 * once.instructions);
        assert_eq!(twice.sim_time_ns, 2 * once.sim_time_ns);
        assert_eq!(twice.eval_allocs, 2 * once.eval_allocs);
        assert_eq!(
            twice.scratch_slots, once.scratch_slots,
            "arena high-water is a max, not a sum"
        );
    }

    #[test]
    fn suite_clones_share_the_cache() {
        let a = XsimToolSuite::new().with_cache(EdaCache::new());
        let b = a.clone();
        let files = [HdlFile::new("inv.v", GOOD_V)];
        let ra = a.compile(&files);
        let rb = b.compile(&files);
        assert_eq!(ra.log, rb.log);
        let stats = a.cache().expect("cache").stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "clone hit a's entry");
    }

    #[test]
    fn cached_failure_reports_are_replayed_too() {
        // Negative results are as cacheable as positive ones: the
        // compile is a pure function either way.
        let tools = XsimToolSuite::new().with_cache(EdaCache::new());
        let r1 = tools.compile(&[HdlFile::new("inv.v", BAD_V)]);
        let r2 = tools.compile(&[HdlFile::new("inv.v", BAD_V)]);
        assert!(!r1.success && !r2.success);
        assert_eq!(r1.log, r2.log);
        assert_eq!(r1.messages, r2.messages);
    }

    #[test]
    fn oscillating_design_reports_structured_divergence() {
        // A self-triggering continuous assign that genuinely oscillates
        // (the `===` makes every re-evaluation flip the value, unlike
        // `~a` whose X fixed point is stable). The watchdog must convert
        // it into a structured `SimDiverged`, not a hang or a silently
        // wrong settle.
        let osc = "module osc(output y);\n  reg unused;\n  wire a;\n\
                   assign a = (a === 1'b0) ? 1'b1 : 1'b0;\n  assign y = a;\nendmodule\n\
                   module tb;\n  wire y;\n  osc dut(.y(y));\n\
                   initial begin #10; $display(\"y=%b\", y); $finish; end\nendmodule\n";
        let tools = XsimToolSuite::new();
        let report = tools.simulate(&[HdlFile::new("osc.v", osc)], Some("tb"));
        assert!(report.compiled, "log: {}", report.log);
        assert!(!report.passed);
        let diverged = report.diverged.as_ref().expect("watchdog must fire");
        assert_eq!(diverged.limit, aivril_sim::LimitKind::DeltaCycles);
        assert!(report.log.contains("XSIM 43-3225"), "log: {}", report.log);
        assert!(diverged.describe().contains("did not settle"));
        // A healthy run reports no divergence.
        let ok = tools.simulate(
            &[HdlFile::new("inv.v", GOOD_V), HdlFile::new("tb.v", GOOD_TB)],
            Some("tb"),
        );
        assert!(ok.diverged.is_none());
    }

    #[test]
    fn tight_delta_budget_is_configurable() {
        // Lowering `max_deltas_per_step` (the `AIVRIL_SIM_MAX_DELTAS`
        // knob) trips the watchdog sooner on the same design.
        let osc = "module tb;\n  wire a;\n\
                   assign a = (a === 1'b0) ? 1'b1 : 1'b0;\n\
                   initial begin #1; $finish; end\nendmodule\n";
        let tight = XsimToolSuite::new().with_sim_config(SimConfig {
            max_deltas_per_step: 16,
            ..SimConfig::default()
        });
        let report = tight.simulate(&[HdlFile::new("tb.v", osc)], Some("tb"));
        let diverged = report.diverged.expect("tiny budget must trip");
        assert_eq!(diverged.limit, aivril_sim::LimitKind::DeltaCycles);
    }

    #[test]
    fn injected_crash_fails_identically_across_cache_modes() {
        let plan = EdaFaultPlan::parse("crash=1.0").expect("plan");
        let plain = XsimToolSuite::new().with_eda_faults(plan);
        let cached = XsimToolSuite::new()
            .with_eda_faults(plan)
            .with_cache(EdaCache::new());
        let files = [HdlFile::new("inv.v", GOOD_V)];
        let a = plain.compile(&files);
        let b = cached.compile(&files);
        let c = cached.compile(&files);
        assert!(!a.success);
        assert!(a.log.contains("terminated unexpectedly"), "log: {}", a.log);
        assert!(a.error_count() >= 1);
        assert_eq!(a.log, b.log);
        assert_eq!(b.log, c.log);
        assert_eq!(a.modeled_latency.to_bits(), b.modeled_latency.to_bits());
        // retry_max=2 default: three attempts, each costing the compile share.
        let base = XsimToolSuite::new().compile(&files).modeled_latency;
        assert_eq!(a.modeled_latency.to_bits(), (3.0 * base).to_bits());
    }

    #[test]
    fn hang_costs_the_watchdog_per_attempt() {
        let plan = EdaFaultPlan::parse("hang=1.0,retry_max=1,watchdog_s=5").expect("plan");
        let tools = XsimToolSuite::new().with_eda_faults(plan);
        let report = tools.compile(&[HdlFile::new("inv.v", GOOD_V)]);
        assert!(!report.success);
        assert!(
            report.log.contains("watchdog expired"),
            "log: {}",
            report.log
        );
        assert_eq!(report.modeled_latency.to_bits(), 10.0f64.to_bits());
    }

    #[test]
    fn off_plan_is_bit_identical_to_no_plan() {
        let off = XsimToolSuite::new().with_eda_faults(EdaFaultPlan::off());
        let plain = XsimToolSuite::new();
        let files = [HdlFile::new("inv.v", GOOD_V), HdlFile::new("tb.v", GOOD_TB)];
        let a = off.simulate(&files, Some("tb"));
        let b = plain.simulate(&files, Some("tb"));
        assert_eq!(a.log, b.log);
        assert_eq!(a.passed, b.passed);
        assert_eq!(a.modeled_latency.to_bits(), b.modeled_latency.to_bits());
    }

    #[test]
    fn log_mutations_are_deterministic_and_never_fabricate_a_pass() {
        let files = [HdlFile::new("inv.v", GOOD_V), HdlFile::new("tb.v", GOOD_TB)];
        for spec in ["truncate=1.0", "garbled=1.0"] {
            let plan = EdaFaultPlan::parse(spec).expect("plan");
            let tools = XsimToolSuite::new().with_eda_faults(plan);
            let cached = XsimToolSuite::new()
                .with_eda_faults(plan)
                .with_cache(EdaCache::new());
            let r1 = tools.simulate(&files, Some("tb"));
            let r2 = cached.simulate(&files, Some("tb"));
            let r3 = cached.simulate(&files, Some("tb"));
            assert_eq!(r1.log, r2.log, "{spec}: cache modes must agree");
            assert_eq!(r2.log, r3.log, "{spec}: replays must agree");
            assert_eq!(r1.passed, r2.passed);
            // Corruption may hide the pass marker but never invent it.
            assert!(r1.log.contains(PASS_MARKER) || !r1.passed, "{spec}");
        }
        // The cache itself stays clean: dropping the plan from a suite
        // sharing the same cache yields the uncorrupted report.
        let plan = EdaFaultPlan::parse("truncate=1.0").expect("plan");
        let cache = EdaCache::new();
        let faulted = XsimToolSuite::new()
            .with_eda_faults(plan)
            .with_cache(cache.clone());
        faulted.simulate(&files, Some("tb"));
        let clean = XsimToolSuite::new().with_cache(cache);
        let baseline = XsimToolSuite::new().simulate(&files, Some("tb"));
        assert_eq!(clean.simulate(&files, Some("tb")).log, baseline.log);
    }

    /// Compiles `n` single-module designs no earlier call elaborated:
    /// `n` fresh elaboration-memo insertions.
    fn elaborate_others(suite: &XsimToolSuite, tag: &str, n: usize) {
        for i in 0..n {
            let text = format!("module {tag}{i}(input a, output y);\n  assign y = a;\nendmodule\n");
            let report = suite.compile(&[HdlFile::new(format!("{tag}{i}.v"), text)]);
            assert!(report.success, "{}", report.log);
        }
    }

    fn elab_counts(suite: &XsimToolSuite) -> (u64, u64) {
        let stats = suite.cache().expect("cache attached").stats();
        (stats.elab_hits, stats.elab_misses)
    }

    /// Neither a compile entry nor anything else outside the bounded
    /// elaboration memo keeps a design alive.
    #[test]
    fn the_elaboration_memo_is_the_only_owner_of_a_design() {
        let suite = XsimToolSuite::new().with_cache(EdaCache::new());
        let files = [HdlFile::new("inv.v", GOOD_V), HdlFile::new("tb.v", GOOD_TB)];
        let (report, design) = suite.compile_to_design(&files, Some("tb"));
        assert!(report.success, "{}", report.log);
        let weak = Arc::downgrade(&design.expect("compiled"));
        elaborate_others(&suite, "early", cache::ELAB_MEMO_CAPACITY - 1);
        assert!(weak.upgrade().is_some(), "the memo still holds the design");
        elaborate_others(&suite, "late", 2);
        assert!(
            weak.upgrade().is_none(),
            "{} further elaborations must free the design",
            cache::ELAB_MEMO_CAPACITY + 1
        );
        // The compile entry survives its design: the same call is still
        // a whole-call hit.
        let before = suite.cache().expect("cache").stats();
        let again = suite.compile_with_top(&files, Some("tb"));
        assert_eq!(again.log, report.log);
        let delta = suite.cache().expect("cache").stats().since(&before);
        assert_eq!((delta.hits, delta.misses), (1, 0));
    }

    /// A design pushed out of the memo is elaborated again on demand,
    /// and every report built on it is byte-identical to one from a
    /// suite without a cache. Reading only the verdict of a cached
    /// compile never elaborates.
    #[test]
    fn an_evicted_elaboration_reelaborates_byte_identically() {
        let plain = XsimToolSuite::new();
        let suite = XsimToolSuite::new().with_cache(EdaCache::new());
        let files = [HdlFile::new("inv.v", GOOD_V), HdlFile::new("tb.v", GOOD_TB)];
        let first = suite.compile_with_top(&files, Some("tb"));
        elaborate_others(&suite, "other", cache::ELAB_MEMO_CAPACITY + 1);

        // A whole-call hit reads the report alone: no elaboration.
        let counts = elab_counts(&suite);
        assert_eq!(suite.compile_with_top(&files, Some("tb")).log, first.log);
        assert_eq!(
            elab_counts(&suite),
            counts,
            "a verdict read must not elaborate"
        );

        // Another top spelling misses the whole-call cache and the
        // evicted memo entry: one fresh elaboration, same report.
        let (report, design) = suite.compile_to_design(&files, None);
        assert_eq!(elab_counts(&suite), (counts.0, counts.1 + 1));
        assert_eq!(report.log, first.log);
        assert_eq!(report.log, plain.compile(&files).log);
        assert_eq!(design.map(|d| d.top.clone()).as_deref(), Some("tb"));

        // A compile hit whose design is gone, then a sim miss: the
        // kernel runs on a design elaborated again.
        elaborate_others(&suite, "more", cache::ELAB_MEMO_CAPACITY + 1);
        let counts = elab_counts(&suite);
        let simulated = suite.simulate(&files, Some("tb"));
        assert_eq!(elab_counts(&suite), (counts.0, counts.1 + 1));
        let fresh = plain.simulate(&files, Some("tb"));
        assert!(simulated.passed, "{}", simulated.log);
        assert_eq!(simulated.log, fresh.log);
        assert_eq!(simulated.failures, fresh.failures);
        assert_eq!(simulated.end_time, fresh.end_time);
        assert_eq!(
            simulated.modeled_latency.to_bits(),
            fresh.modeled_latency.to_bits()
        );
        // The sim entry answers the repeat: no design needed at all.
        elaborate_others(&suite, "last", cache::ELAB_MEMO_CAPACITY + 1);
        let counts = elab_counts(&suite);
        assert_eq!(suite.simulate(&files, Some("tb")).log, fresh.log);
        assert_eq!(elab_counts(&suite), counts);
    }

    /// A simulator crash after a compile-cache hit opens its log with
    /// the top the compile entry recorded, though no design is held.
    #[test]
    fn a_crashed_simulate_after_a_compile_hit_names_its_top() {
        let plan = EdaFaultPlan::parse("crash=0.5,retry_max=0").expect("plan");
        let m = ToolLatencyModel::default();
        let c = SimConfig::default();
        // A testbench variant whose compile rolls clean and whose
        // simulate crashes (the rolls are pure functions of the keys).
        let files = (0..64)
            .map(|n| {
                let tb = format!("{GOOD_TB}// variant {n}\n");
                [HdlFile::new("inv.v", GOOD_V), HdlFile::new("tb.v", tb)]
            })
            .find(|files| {
                let d = cache::file_digests(files);
                plan.roll_tool("compile", cache::compile_key(&d, Some("tb"), &m), 0)
                    .is_none()
                    && plan
                        .roll_tool("simulate", cache::sim_key(&d, Some("tb"), &m, &c), 0)
                        .is_some()
            })
            .expect("some variant compiles clean and crashes in simulation");
        let cache = EdaCache::new();
        let clean = XsimToolSuite::new().with_cache(cache.clone());
        assert!(clean.compile_with_top(&files, Some("tb")).success);
        elaborate_others(&clean, "evict", cache::ELAB_MEMO_CAPACITY + 1);

        let faulted = XsimToolSuite::new()
            .with_eda_faults(plan)
            .with_cache(cache.clone());
        let before = cache.stats();
        let report = faulted.simulate(&files, Some("tb"));
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.misses), (1, 0), "the compile hit");
        assert_eq!(
            (delta.elab_hits, delta.elab_misses),
            (0, 0),
            "a crashed simulator needs no design"
        );
        assert!(report.compiled && !report.passed);
        assert!(
            report
                .log
                .contains("INFO: [xsim] Running simulation of 'tb'"),
            "{}",
            report.log
        );
        assert!(
            report.log.contains("terminated unexpectedly"),
            "{}",
            report.log
        );
        let uncached = XsimToolSuite::new().with_eda_faults(plan);
        assert_eq!(report.log, uncached.simulate(&files, Some("tb")).log);
    }

    /// Analysis parses without the per-file memo: its ASTs would sit
    /// where no compile looks them up.
    #[test]
    fn analyze_leaves_the_parse_memo_alone() {
        let suite = XsimToolSuite::new().with_cache(EdaCache::new());
        let files = [HdlFile::new("inv.v", GOOD_V), HdlFile::new("tb.v", GOOD_TB)];
        assert!(suite.analyze(&files).success);
        assert!(suite.analyze(&files).success);
        let stats = suite.cache().expect("cache").stats();
        assert_eq!((stats.parse_hits, stats.parse_misses), (0, 0));
        assert_eq!((stats.hits, stats.misses), (1, 1), "the whole-call cache");
        assert!(suite.compile(&files).success);
        let stats = suite.cache().expect("cache").stats();
        assert_eq!((stats.parse_hits, stats.parse_misses), (0, 2));
    }

    #[test]
    fn latency_accumulates_compile_plus_sim() {
        let tools = XsimToolSuite::new();
        let c = tools.compile(&[HdlFile::new("inv.v", GOOD_V)]);
        let s = tools.simulate(
            &[HdlFile::new("inv.v", GOOD_V), HdlFile::new("tb.v", GOOD_TB)],
            Some("tb"),
        );
        assert!(s.modeled_latency > c.modeled_latency);
    }
}
