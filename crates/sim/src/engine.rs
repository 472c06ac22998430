//! The event-driven simulation kernel.

use crate::bytecode::{self, ProgramStore, ScratchArena};
use crate::format::render_args;
use crate::result::{LimitKind, LogLine, SimConfig, SimResult};
use crate::sched::FutureQueue;
use crate::vcd;
use aivril_hdl::bits::BitsRef;
use aivril_hdl::ir::{Design, Expr, Instr, LValue, NetId, SysTaskKind, Trigger};
use aivril_hdl::logic::Logic;
use aivril_hdl::vec::LogicVec;
use std::collections::VecDeque;

/// One resolved l-value target: `net[msb:lsb]` takes the assigned
/// value's bits from `src_lsb` up.
#[derive(Debug, Clone, Copy)]
struct Window {
    net: NetId,
    msb: u32,
    lsb: u32,
    src_lsb: u32,
}

/// One pending nonblocking commit: a window over a value staged in the
/// [`NbaStore`] until the NBA region flushes.
#[derive(Debug, Clone, Copy)]
struct NbaEntry {
    target: Window,
    /// Word offset of the staged value in the store.
    at: u32,
    /// Width of the staged value (the whole l-value's width).
    width: u32,
}

/// The NBA staging store: the value and unknown planes of every value
/// staged since the last flush, word-aligned per value.
#[derive(Debug, Default)]
struct NbaStore {
    aval: Vec<u64>,
    bval: Vec<u64>,
}

impl NbaStore {
    /// Appends `value` resized to `width` bits; returns its word offset.
    fn push(&mut self, value: BitsRef<'_>, width: u32) -> u32 {
        let at = self.aval.len() as u32;
        for i in 0..width.div_ceil(64) {
            // The top word keeps only the bits below `width`.
            let keep = u64::MAX >> (64 * (i + 1)).saturating_sub(width);
            let (a, b) = value.word(i as usize);
            self.aval.push(a & keep);
            self.bval.push(b & keep);
        }
        at
    }

    /// The `width`-bit value staged at word offset `at`.
    fn get(&self, at: u32, width: u32) -> BitsRef<'_> {
        let words = at as usize..(at + width.div_ceil(64)) as usize;
        BitsRef::new(width, &self.aval[words.clone()], &self.bval[words])
    }
}

/// Floor for the per-net watcher compaction threshold: lists shorter
/// than this are never compacted (the scan would cost more than the
/// memory it reclaims).
const WATCHER_COMPACT_MIN: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Suspended at a `WaitEvent`; the instruction's pc is kept in
    /// `ProcState::wait_pc`.
    Waiting,
    /// Suspended at a `Delay`; wake-up queued in `Simulator::sched`.
    Sleeping,
    Halted,
}

#[derive(Debug)]
struct ProcState {
    pc: usize,
    status: Status,
    /// Bumped on every wake/suspend so stale watcher and timer entries
    /// can be skipped lazily instead of being unlinked eagerly.
    generation: u64,
    /// While `Waiting`: the pc of the `WaitEvent` that suspended the
    /// process. The triggers are read back from the (immutable) process
    /// body instead of being cloned into the state on every suspend.
    wait_pc: usize,
    /// The net whose change last resumed this process (drives
    /// [`aivril_hdl::ir::Expr::EdgeFlag`] evaluation).
    last_wake: Option<NetId>,
}

/// The simulator instance for one elaborated design.
///
/// Construct with [`Simulator::new`], execute with [`Simulator::run`],
/// then optionally inspect final net values with
/// [`Simulator::net_value`].
#[derive(Debug)]
pub struct Simulator<'d> {
    design: &'d Design,
    config: SimConfig,
    values: Vec<LogicVec>,
    procs: Vec<ProcState>,
    /// Every expression of the design, lowered once at
    /// [`Simulator::new`] into one store (see [`crate::bytecode`]). An
    /// instruction's programs are contiguous: an assignment's value,
    /// then its l-value indices in resolution order; a delay amount; a
    /// branch condition; a system task's arguments.
    programs: ProgramStore,
    /// Index of the first program of the instruction at `(pid, pc)`,
    /// found at `first_program[proc_base[pid] + pc]`.
    first_program: Vec<u32>,
    /// Offset of each process's instructions in `first_program`.
    proc_base: Vec<u32>,
    /// The shared evaluation arena: one pre-sized wide buffer per
    /// scratch slot, sized at lowering from the static width bounds of
    /// every compiled program. Allocated once; every compiled
    /// evaluation runs in place against it.
    arena: ScratchArena,
    runnable: VecDeque<usize>,
    /// `#0`-delayed processes (inactive region of the current step).
    inactive: Vec<usize>,
    /// Pending timed wake-ups, one heap ordered by `(time, seq)`.
    sched: FutureQueue,
    /// Pending nonblocking commits, in program order.
    nba: Vec<NbaEntry>,
    /// Values staged by nonblocking assignments, cleared by the flush.
    /// Pre-sized to the summed word widths of the design's nonblocking
    /// targets, so staging each assignment once per flush never
    /// allocates.
    nba_store: NbaStore,
    /// Reused window buffer for l-value resolution.
    windows: Vec<Window>,
    /// Per-net list of (process, generation) waiting on that net.
    watchers: Vec<Vec<(usize, u64)>>,
    /// Per-net length at which the watcher list is next compacted.
    /// Stale entries (process moved on) are dropped lazily when the net
    /// changes; a never-changing net would otherwise accumulate one
    /// stale entry per wait cycle, unboundedly.
    watcher_threshold: Vec<usize>,
    /// NBA staging-store growth events beyond its static sizing (one
    /// assignment staged several times before a flush). [`Simulator::perf`]
    /// adds the arena's growth events on top.
    eval_allocs: u64,
    /// Watcher-list compactions performed.
    compactions: u64,
    time: u64,
    /// Net changes made by the currently-running process activation, as
    /// `(net, old first bit, new first bit)`. A process that writes one
    /// of its own trigger nets *before* reaching its `WaitEvent` would
    /// otherwise lose that notification (the watcher is not registered
    /// yet) and settle silently instead of re-evaluating — the classic
    /// self-triggering `assign a = ~a` bug.
    activation_changes: Vec<(NetId, Logic, Logic)>,
    lines: Vec<LogLine>,
    partial_line: String,
    error_count: u32,
    finished: bool,
    starved: bool,
    limit_hit: Option<LimitKind>,
    total_instrs: u64,
    activations_this_step: u64,
    /// When recording, the initial values and every subsequent change.
    waves: Option<(Vec<LogicVec>, Vec<vcd::Change>)>,
    /// The active `$monitor`: the `(pid, pc)` of its `SysCall`, whose
    /// argument programs it replays, and the values last printed (None =
    /// not yet printed).
    monitor: Option<(usize, usize, Option<Vec<LogicVec>>)>,
    /// Telemetry sink for the kernel histograms; disabled by default.
    recorder: aivril_obs::Recorder,
    /// Locally-accumulated kernel statistics, only allocated when the
    /// recorder is enabled so the hot loop pays a single `Option` check
    /// per region when telemetry is off.
    kstats: Option<KernelStats>,
    /// Finished-run telemetry, available via [`Simulator::take_telemetry`]
    /// after [`Simulator::run`] when collection was enabled.
    telemetry: Option<KernelTelemetry>,
}

/// Event-kernel distributions gathered during [`Simulator::run`] and
/// folded into the recorder once at the end of the run.
#[derive(Debug)]
struct KernelStats {
    /// Delta cycles (process activations) per quiescent time step.
    delta: aivril_obs::Histogram,
    /// Scheduled-event-queue depth at each quiescent point.
    queue: aivril_obs::Histogram,
    /// Nonblocking-assignment batch size at each flush.
    nba: aivril_obs::Histogram,
}

impl KernelStats {
    fn new() -> KernelStats {
        KernelStats {
            delta: aivril_obs::Histogram::new(&[1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0]),
            queue: aivril_obs::Histogram::new(&[1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0]),
            nba: aivril_obs::Histogram::new(&[1.0, 2.0, 4.0, 8.0, 16.0, 64.0]),
        }
    }
}

/// The complete telemetry a finished run feeds into a recorder: the
/// three kernel histograms plus the instruction count. A run is a pure
/// function of `(design, config)`, so this value is too — callers that
/// memoize simulation results (the EDA result cache) store it alongside
/// the [`SimResult`](crate::SimResult) and [`replay`](KernelTelemetry::record_to)
/// it on a cache hit, keeping the metrics registry byte-identical
/// whether the kernel actually ran or not.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTelemetry {
    delta: aivril_obs::Histogram,
    queue: aivril_obs::Histogram,
    nba: aivril_obs::Histogram,
    instructions: u64,
    perf: KernelPerf,
}

impl KernelTelemetry {
    /// Feeds this run's kernel series into `recorder` — the single
    /// emission path shared by live runs and cache-hit replays, so the
    /// two are indistinguishable in the metrics registry. No-op on a
    /// disabled recorder.
    ///
    /// The attached [`KernelPerf`] counters are deliberately *not*
    /// emitted here: they are performance-model diagnostics, surfaced
    /// through the harness's `[stats]` segment and the `aivril.results`
    /// `kernel` block instead, so the metrics registry stays
    /// byte-identical to pre-optimisation builds. (The `sim_kernel_`
    /// prefix is reserved as diagnostic in
    /// `aivril_obs::DIAGNOSTIC_METRIC_PREFIXES` should a future series
    /// need the registry.)
    pub fn record_to(&self, recorder: &aivril_obs::Recorder) {
        recorder.record_histogram("sim_delta_cycles_per_step", &[], &self.delta);
        recorder.record_histogram("sim_event_queue_depth", &[], &self.queue);
        recorder.record_histogram("sim_nba_flush_size", &[], &self.nba);
        recorder.counter_add("sim_instructions_total", &[], self.instructions);
        recorder.counter_add("sim_runs_total", &[], 1);
    }

    /// The run's flat performance counters (for cache-hit accounting).
    #[must_use]
    pub fn perf(&self) -> KernelPerf {
        self.perf
    }

    /// Serialises the telemetry into a durable-artifact payload (the
    /// on-disk EDA cache). Inverse of [`KernelTelemetry::decode`].
    pub fn encode(&self, w: &mut aivril_obs::codec::Writer) {
        for hist in [&self.delta, &self.queue, &self.nba] {
            aivril_obs::codec::encode_histogram(w, hist);
        }
        w.u64(self.instructions);
        w.u64(self.perf.instructions);
        w.u64(self.perf.sim_time_ns);
        w.u64(self.perf.eval_allocs);
        w.u64(self.perf.compactions);
        w.u64(self.perf.scratch_slots);
        w.u64(self.perf.arena_words);
    }

    /// Rebuilds telemetry from a durable-artifact payload; `None` on
    /// any malformation (the caller treats that as a cache miss).
    #[must_use]
    pub fn decode(r: &mut aivril_obs::codec::Reader<'_>) -> Option<KernelTelemetry> {
        let delta = aivril_obs::codec::decode_histogram(r)?;
        let queue = aivril_obs::codec::decode_histogram(r)?;
        let nba = aivril_obs::codec::decode_histogram(r)?;
        let instructions = r.u64()?;
        let perf = KernelPerf {
            instructions: r.u64()?,
            sim_time_ns: r.u64()?,
            eval_allocs: r.u64()?,
            compactions: r.u64()?,
            scratch_slots: r.u64()?,
            arena_words: r.u64()?,
        };
        Some(KernelTelemetry {
            delta,
            queue,
            nba,
            instructions,
            perf,
        })
    }
}

/// Flat performance counters of one finished run — the raw integers
/// behind the diagnostic `sim_kernel_*` series and the harness's
/// `kernel:` stats segment. Like [`KernelTelemetry`], a pure function
/// of `(design, config)`, so sums over runs are independent of thread
/// count and cache mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelPerf {
    /// Kernel instructions executed.
    pub instructions: u64,
    /// Final simulation time (the modeled clock, in ns).
    pub sim_time_ns: u64,
    /// Heap events attributable to compiled evaluation: arena and NBA
    /// staging-store growth beyond their static sizing. Zero in steady
    /// state for every l-value shape *at any width* — the
    /// zero-allocation claim, as a measurable counter.
    pub eval_allocs: u64,
    /// Watcher-list compactions performed (stale-entry reclamation).
    pub compactions: u64,
    /// Evaluation-arena high-water mark, in slots (static per design:
    /// the deepest compiled expression).
    pub scratch_slots: u64,
    /// Evaluation-arena high-water footprint: per-plane capacity words
    /// across all scratch slots and the NBA staging store. Static per
    /// design unless a slot outgrows its bound (which `eval_allocs`
    /// counts).
    pub arena_words: u64,
}

impl KernelPerf {
    /// Kernel instructions per second of *simulated* time — the
    /// throughput measure on the modeled clock (wall-clock-free, hence
    /// deterministic). Zero when no simulated time elapsed.
    #[must_use]
    pub fn instrs_per_sim_sec(&self) -> f64 {
        if self.sim_time_ns == 0 {
            0.0
        } else {
            self.instructions as f64 / (self.sim_time_ns as f64 * 1e-9)
        }
    }

    /// Counter delta since `before` (sums subtract; the arena
    /// high-water mark takes the max).
    #[must_use]
    pub fn since(&self, before: &KernelPerf) -> KernelPerf {
        KernelPerf {
            instructions: self.instructions - before.instructions,
            sim_time_ns: self.sim_time_ns - before.sim_time_ns,
            eval_allocs: self.eval_allocs - before.eval_allocs,
            compactions: self.compactions - before.compactions,
            scratch_slots: self.scratch_slots.max(before.scratch_slots),
            arena_words: self.arena_words.max(before.arena_words),
        }
    }

    /// Accumulates another run's counters (sums add; the arena
    /// high-water mark takes the max).
    pub fn merge(&mut self, other: &KernelPerf) {
        self.instructions += other.instructions;
        self.sim_time_ns += other.sim_time_ns;
        self.eval_allocs += other.eval_allocs;
        self.compactions += other.compactions;
        self.scratch_slots = self.scratch_slots.max(other.scratch_slots);
        self.arena_words = self.arena_words.max(other.arena_words);
    }
}

impl<'d> Simulator<'d> {
    /// Prepares a simulation of `design` under the given limits.
    ///
    /// All nets start at their declared initial value, or all-`X` when
    /// none was declared (matching `reg`/`signal` power-on semantics).
    #[must_use]
    pub fn new(design: &'d Design, config: SimConfig) -> Simulator<'d> {
        let values = design
            .nets
            .iter()
            .map(|n| n.init.clone().unwrap_or_else(|| LogicVec::xes(n.width)))
            .collect();
        let procs: Vec<ProcState> = design
            .processes
            .iter()
            .map(|_| ProcState {
                pc: 0,
                status: Status::Runnable,
                generation: 0,
                wait_pc: 0,
                last_wake: None,
            })
            .collect();
        let runnable = (0..design.processes.len()).collect();
        // Lower every expression to bytecode once, up front. Net widths
        // are static, so compilation records per-slot width bounds and
        // the shared arena is sized once, here, for every program's
        // every slot — steady-state evaluation then never touches the
        // heap, regardless of datapath width.
        let net_widths: Vec<u32> = design.nets.iter().map(|n| n.width).collect();
        let mut programs = ProgramStore::default();
        let mut nba_words = 0;
        let mut proc_base = Vec::with_capacity(design.processes.len());
        let mut first_program =
            Vec::with_capacity(design.processes.iter().map(|p| p.body.len()).sum());
        for p in &design.processes {
            proc_base.push(first_program.len() as u32);
            for instr in &p.body {
                // The index the instruction's first program will get.
                first_program.push(programs.len() as u32);
                let mut lower = |e: &Expr| {
                    programs.compile(e, &net_widths);
                };
                match instr {
                    Instr::BlockingAssign { lvalue, expr }
                    | Instr::NonblockingAssign { lvalue, expr } => {
                        lower(expr);
                        for_each_leaf(lvalue, 0, design, &mut |leaf, _| {
                            if let LValue::Index(_, index) = leaf {
                                lower(index);
                            }
                        });
                    }
                    Instr::Delay { amount } => lower(amount),
                    Instr::BranchIfFalse { cond, .. } => lower(cond),
                    Instr::SysCall { args, .. } => args.iter().for_each(lower),
                    Instr::WaitEvent { .. } | Instr::Jump(_) | Instr::Halt => {}
                }
                if let Instr::NonblockingAssign { lvalue, .. } = instr {
                    nba_words += lvalue.width(design).div_ceil(64) as usize;
                }
            }
        }
        let arena = ScratchArena::for_programs(&programs);
        Simulator {
            design,
            config,
            values,
            procs,
            programs,
            first_program,
            proc_base,
            arena,
            runnable,
            inactive: Vec::new(),
            sched: FutureQueue::default(),
            nba: Vec::new(),
            nba_store: NbaStore {
                aval: Vec::with_capacity(nba_words),
                bval: Vec::with_capacity(nba_words),
            },
            windows: Vec::new(),
            watchers: vec![Vec::new(); design.nets.len()],
            watcher_threshold: vec![WATCHER_COMPACT_MIN; design.nets.len()],
            eval_allocs: 0,
            compactions: 0,
            time: 0,
            activation_changes: Vec::new(),
            lines: Vec::new(),
            partial_line: String::new(),
            error_count: 0,
            finished: false,
            starved: false,
            limit_hit: None,
            total_instrs: 0,
            activations_this_step: 0,
            waves: None,
            monitor: None,
            recorder: aivril_obs::Recorder::disabled(),
            kstats: None,
            telemetry: None,
        }
    }

    /// Attaches an observability recorder: the run accumulates kernel
    /// histograms (delta cycles per timestep, event-queue depth, NBA
    /// flush sizes) locally and folds them into the recorder when
    /// [`Simulator::run`] returns. Disabled by default (no-op path).
    #[must_use]
    pub fn with_recorder(mut self, recorder: aivril_obs::Recorder) -> Simulator<'d> {
        if recorder.is_enabled() && self.kstats.is_none() {
            self.kstats = Some(KernelStats::new());
        }
        self.recorder = recorder;
        self
    }

    /// Forces kernel-statistics collection even when no (enabled)
    /// recorder is attached, so [`Simulator::take_telemetry`] returns
    /// the run's [`KernelTelemetry`]. The EDA result cache needs this:
    /// an untraced worker may be the one that populates a cache entry,
    /// and a traced worker hitting that entry later must still be able
    /// to replay the kernel series.
    pub fn collect_telemetry(&mut self) {
        if self.kstats.is_none() {
            self.kstats = Some(KernelStats::new());
        }
    }

    /// Returns the finished run's kernel telemetry, when collection was
    /// enabled (via [`Simulator::with_recorder`] with an enabled
    /// recorder, or [`Simulator::collect_telemetry`]). `None` before
    /// [`Simulator::run`] or when collection was off; consumes the
    /// value.
    #[must_use]
    pub fn take_telemetry(&mut self) -> Option<KernelTelemetry> {
        self.telemetry.take()
    }

    /// Enables waveform recording; [`Simulator::vcd`] renders the dump
    /// after [`Simulator::run`] returns.
    pub fn record_waves(&mut self) {
        if self.waves.is_none() {
            self.waves = Some((self.values.clone(), Vec::new()));
        }
    }

    /// Renders the recorded waveform as a standard VCD document.
    /// Returns `None` unless [`Simulator::record_waves`] was called
    /// before the run.
    #[must_use]
    pub fn vcd(&self) -> Option<String> {
        self.waves
            .as_ref()
            .map(|(initial, changes)| vcd::render(self.design, initial, changes, self.time))
    }

    /// Runs the simulation to completion (`$finish`, event starvation,
    /// the time horizon, or a resource limit) and returns the outcome.
    /// The log lines move into the result.
    pub fn run(&mut self) -> SimResult {
        while !self.finished && self.limit_hit.is_none() {
            if let Some(pid) = self.runnable.pop_front() {
                self.activations_this_step += 1;
                if self.activations_this_step > u64::from(self.config.max_deltas_per_step) {
                    self.hit_limit(LimitKind::DeltaCycles);
                    break;
                }
                self.run_process(pid);
                continue;
            }
            if !self.inactive.is_empty() {
                for pid in self.inactive.drain(..) {
                    self.procs[pid].status = Status::Runnable;
                    self.runnable.push_back(pid);
                }
                continue;
            }
            if !self.nba.is_empty() {
                if let Some(ks) = &mut self.kstats {
                    ks.nba.observe(self.nba.len() as f64);
                }
                // The batch and the store come out of `self` for the
                // duration of the flush, so a staged value can be
                // committed while `self` is mutably borrowed by the
                // write; both go back emptied, keeping their capacity.
                // A write only wakes processes, so no commit is staged
                // meanwhile.
                let mut batch = std::mem::take(&mut self.nba);
                let mut store = std::mem::take(&mut self.nba_store);
                for e in batch.drain(..) {
                    self.write_window(e.target, store.get(e.at, e.width));
                }
                store.aval.clear();
                store.bval.clear();
                self.nba_store = store;
                self.nba = batch;
                continue;
            }
            // Time step is quiescent: the $monitor observes it, then time
            // advances to the next scheduled event.
            self.fire_monitor();
            if let Some(ks) = &mut self.kstats {
                ks.delta.observe(self.activations_this_step as f64);
                ks.queue.observe(self.sched.distinct_times() as f64);
            }
            match self.sched.next_time() {
                Some(t) if t <= self.config.max_time => {
                    self.activations_this_step = 0;
                    self.time = t;
                    while let Some((pid, generation)) = self.sched.pop_due(t) {
                        let p = &mut self.procs[pid];
                        if p.generation == generation && p.status == Status::Sleeping {
                            p.status = Status::Runnable;
                            p.generation += 1;
                            p.last_wake = None;
                            self.runnable.push_back(pid);
                        }
                    }
                }
                Some(_) => break, // beyond the time horizon
                None => {
                    self.starved = true;
                    break;
                }
            }
        }
        self.flush_partial();
        if let Some(ks) = self.kstats.take() {
            // `take()` so a (hypothetical) second `run` call cannot
            // double-count the same distributions.
            let telemetry = KernelTelemetry {
                delta: ks.delta,
                queue: ks.queue,
                nba: ks.nba,
                instructions: self.total_instrs,
                perf: self.perf(),
            };
            telemetry.record_to(&self.recorder);
            self.telemetry = Some(telemetry);
        }
        SimResult {
            end_time: self.time,
            lines: std::mem::take(&mut self.lines),
            error_count: self.error_count,
            finished: self.finished,
            starved: self.starved,
            limit_hit: self.limit_hit,
            instructions_executed: self.total_instrs,
        }
    }

    /// Looks up a net's final value by hierarchical name after [`run`]
    /// returned. Returns `None` for unknown names.
    ///
    /// [`run`]: Simulator::run
    #[must_use]
    pub fn net_value(&self, name: &str) -> Option<&LogicVec> {
        self.design
            .find_net(name)
            .map(|id| &self.values[id.0 as usize])
    }

    fn hit_limit(&mut self, kind: LimitKind) {
        self.limit_hit = Some(kind);
        self.error_count += 1;
        self.lines.push(LogLine {
            time: self.time,
            text: format!("ERROR: [XSIM 43-3225] {kind}"),
            is_error: true,
        });
    }

    /// Index of the first compiled program of the instruction at
    /// `(pid, pc)`.
    fn first_program(&self, pid: usize, pc: usize) -> usize {
        self.first_program[self.proc_base[pid] as usize + pc] as usize
    }

    /// Executes compiled program `prog` into the shared arena (result
    /// readable at `self.arena.result()` afterwards).
    fn exec_program(&mut self, prog: usize, wake: Option<NetId>) {
        bytecode::exec(
            &self.programs,
            prog,
            &self.values,
            self.time,
            wake,
            &mut self.arena,
        );
    }

    /// Executes an assignment whose value is program `prog` and whose
    /// l-value indices are the programs after it: resolves the target
    /// windows, evaluates the value, then writes the windows in place
    /// (blocking) or stages the value for the NBA region.
    fn assign(&mut self, lvalue: &LValue, prog: usize, wake: Option<NetId>, nonblocking: bool) {
        let mut windows = std::mem::take(&mut self.windows);
        self.resolve_lvalue(lvalue, prog + 1, wake, &mut windows);
        self.exec_program(prog, wake);
        let arena = std::mem::take(&mut self.arena);
        if nonblocking {
            self.stage_nba(&windows, arena.result(), lvalue.width(self.design));
        } else {
            for &window in &windows {
                self.write_window(window, arena.result());
            }
        }
        self.arena = arena;
        windows.clear();
        self.windows = windows;
    }

    /// Copies `value`, resized to the `width`-bit target, into the NBA
    /// store once and queues one entry per window over it.
    fn stage_nba(&mut self, windows: &[Window], value: BitsRef<'_>, width: u32) {
        if windows.is_empty() {
            return;
        }
        let capacity = self.nba_store.aval.capacity();
        let at = self.nba_store.push(value, width);
        self.eval_allocs += u64::from(self.nba_store.aval.capacity() != capacity);
        self.nba
            .extend(windows.iter().map(|&target| NbaEntry { target, at, width }));
    }

    /// The run's flat performance counters so far (final after
    /// [`Simulator::run`] returns).
    #[must_use]
    pub fn perf(&self) -> KernelPerf {
        KernelPerf {
            instructions: self.total_instrs,
            sim_time_ns: self.time,
            eval_allocs: self.eval_allocs + self.arena.allocs(),
            compactions: self.compactions,
            scratch_slots: self.arena.slot_count() as u64,
            arena_words: self.arena.total_words() + self.nba_store.aval.capacity() as u64,
        }
    }

    /// Drops every stale entry from one watcher list and re-arms its
    /// threshold at twice the live population. Amortised O(1) per push:
    /// a net whose watchers never wake (it never changes) triggers a
    /// compaction only after the list doubles, so the list length stays
    /// within a constant factor of the processes genuinely waiting.
    fn compact_watchers(&mut self, net: usize) {
        let procs = &self.procs;
        let list = &mut self.watchers[net];
        list.retain(|&(pid, generation)| {
            let p = &procs[pid];
            p.generation == generation && p.status == Status::Waiting
        });
        self.compactions += 1;
        self.watcher_threshold[net] = (list.len() * 2).max(WATCHER_COMPACT_MIN);
    }

    fn run_process(&mut self, pid: usize) {
        let body = &self.design.processes[pid].body;
        let wake = self.procs[pid].last_wake;
        self.activation_changes.clear();
        let mut instrs_this_activation = 0u64;
        loop {
            let pc = self.procs[pid].pc;
            if pc >= body.len() {
                self.procs[pid].status = Status::Halted;
                return;
            }
            instrs_this_activation += 1;
            self.total_instrs += 1;
            if instrs_this_activation > self.config.max_instrs_per_activation {
                self.hit_limit(LimitKind::ProcessInstructions);
                self.procs[pid].status = Status::Halted;
                return;
            }
            if self.total_instrs > self.config.max_total_instrs {
                self.hit_limit(LimitKind::TotalInstructions);
                self.procs[pid].status = Status::Halted;
                return;
            }
            match &body[pc] {
                Instr::BlockingAssign { lvalue, .. } | Instr::NonblockingAssign { lvalue, .. } => {
                    let nonblocking = matches!(body[pc], Instr::NonblockingAssign { .. });
                    self.assign(lvalue, self.first_program(pid, pc), wake, nonblocking);
                    self.procs[pid].pc = pc + 1;
                }
                Instr::Delay { .. } => {
                    self.exec_program(self.first_program(pid, pc), None);
                    let amt = self.arena.result().to_u64().unwrap_or(0);
                    self.procs[pid].pc = pc + 1;
                    self.procs[pid].generation += 1;
                    if amt == 0 {
                        self.procs[pid].status = Status::Runnable;
                        self.inactive.push(pid);
                    } else {
                        self.procs[pid].status = Status::Sleeping;
                        let generation = self.procs[pid].generation;
                        self.sched.schedule(self.time + amt, pid, generation);
                    }
                    return;
                }
                Instr::WaitEvent { triggers } => {
                    self.procs[pid].pc = pc + 1;
                    self.procs[pid].generation += 1;
                    // If this activation already changed one of the nets
                    // it is about to wait on (continuous assigns write
                    // before re-arming), the notification fired while no
                    // watcher was registered. Re-arm the process as a
                    // fresh delta instead of suspending; a genuinely
                    // oscillating design then runs into the
                    // `max_deltas_per_step` ceiling and gets a clear
                    // [`LimitKind::DeltaCycles`] diagnostic rather than
                    // silently settling at a wrong value.
                    let self_wake = self.activation_changes.iter().find_map(|(net, old, new)| {
                        let woken = triggers.iter().any(|t| match t {
                            Trigger::AnyChange(n) => n == net,
                            Trigger::Posedge(n) => {
                                n == net && *new == Logic::One && *old != Logic::One
                            }
                            Trigger::Negedge(n) => {
                                n == net && *new == Logic::Zero && *old != Logic::Zero
                            }
                        });
                        woken.then_some(*net)
                    });
                    if let Some(net) = self_wake {
                        self.procs[pid].status = Status::Runnable;
                        self.procs[pid].last_wake = Some(net);
                        self.runnable.push_back(pid);
                        return;
                    }
                    self.procs[pid].status = Status::Waiting;
                    self.procs[pid].wait_pc = pc;
                    let generation = self.procs[pid].generation;
                    for t in triggers {
                        let ni = t.net().0 as usize;
                        self.watchers[ni].push((pid, generation));
                        if self.watchers[ni].len() >= self.watcher_threshold[ni] {
                            self.compact_watchers(ni);
                        }
                    }
                    return;
                }
                Instr::Jump(target) => {
                    self.procs[pid].pc = *target;
                }
                Instr::BranchIfFalse { target, .. } => {
                    self.exec_program(self.first_program(pid, pc), wake);
                    let taken = self.arena.result().to_bool() != Some(true);
                    self.procs[pid].pc = if taken { *target } else { pc + 1 };
                }
                Instr::SysCall {
                    kind: SysTaskKind::Monitor,
                    ..
                } => {
                    self.monitor = Some((pid, pc, None));
                    self.procs[pid].pc = pc + 1;
                }
                Instr::SysCall { kind, format, .. } => {
                    let kind = *kind;
                    let values = self.syscall_args(pid, pc, wake);
                    let rendered = render_args(format.as_deref(), &values);
                    self.procs[pid].pc = pc + 1;
                    match kind {
                        SysTaskKind::Display => self.emit_line(rendered, false),
                        SysTaskKind::Write => self.partial_line.push_str(&rendered),
                        SysTaskKind::Error => {
                            self.error_count += 1;
                            let text = format!("ERROR: {rendered} (at time {})", self.time);
                            self.emit_line(text, true);
                        }
                        SysTaskKind::Fatal => {
                            self.error_count += 1;
                            let text = format!("FATAL: {rendered} (at time {})", self.time);
                            self.emit_line(text, true);
                            self.finished = true;
                            return;
                        }
                        SysTaskKind::Finish => {
                            self.finished = true;
                            return;
                        }
                        SysTaskKind::Monitor => unreachable!("registered above"),
                    }
                }
                Instr::Halt => {
                    self.procs[pid].status = Status::Halted;
                    return;
                }
            }
        }
    }

    /// Evaluates the argument programs of the system task at `(pid, pc)`.
    fn syscall_args(&mut self, pid: usize, pc: usize, wake: Option<NetId>) -> Vec<LogicVec> {
        let Instr::SysCall { args, .. } = &self.design.processes[pid].body[pc] else {
            unreachable!("only a SysCall has argument programs");
        };
        let first = self.first_program(pid, pc);
        (first..first + args.len())
            .map(|prog| {
                self.exec_program(prog, wake);
                LogicVec::from_bits(self.arena.result())
            })
            .collect()
    }

    /// Prints the active `$monitor` line when any argument changed since
    /// the last print (and always on its first quiescent step). `$time`
    /// arguments are excluded from change detection, per IEEE 1364 §17.1.
    fn fire_monitor(&mut self) {
        let Some((pid, pc, last)) = self.monitor.take() else {
            return;
        };
        let Instr::SysCall { format, args, .. } = &self.design.processes[pid].body[pc] else {
            unreachable!("the monitor records its SysCall");
        };
        let values = self.syscall_args(pid, pc, None);
        let watched: Vec<LogicVec> = args
            .iter()
            .zip(&values)
            .filter(|(a, _)| !matches!(a, Expr::Time))
            .map(|(_, v)| v.clone())
            .collect();
        if last.as_ref() != Some(&watched) {
            self.emit_line(render_args(format.as_deref(), &values), false);
        }
        self.monitor = Some((pid, pc, Some(watched)));
    }

    fn emit_line(&mut self, text: String, is_error: bool) {
        let full = if self.partial_line.is_empty() {
            text
        } else {
            let mut s = std::mem::take(&mut self.partial_line);
            s.push_str(&text);
            s
        };
        self.lines.push(LogLine {
            time: self.time,
            text: full,
            is_error,
        });
    }

    fn flush_partial(&mut self) {
        if !self.partial_line.is_empty() {
            let text = std::mem::take(&mut self.partial_line);
            self.lines.push(LogLine {
                time: self.time,
                text,
                is_error: false,
            });
        }
    }

    /// Resolves `lvalue` into in-range windows. Index programs run in
    /// order from `next`; an unknown or out-of-range index drops its
    /// window (the write vanishes).
    fn resolve_lvalue(
        &mut self,
        lvalue: &LValue,
        mut next: usize,
        wake: Option<NetId>,
        out: &mut Vec<Window>,
    ) {
        let design = self.design;
        for_each_leaf(lvalue, 0, design, &mut |leaf, src_lsb| {
            let window = |net, msb, lsb| Window {
                net,
                msb,
                lsb,
                src_lsb,
            };
            match *leaf {
                LValue::Net(id) => out.push(window(id, design.net(id).width - 1, 0)),
                LValue::Range(id, msb, lsb) => out.push(window(id, msb, lsb)),
                LValue::Index(id, _) => {
                    self.exec_program(next, wake);
                    next += 1;
                    let width = u64::from(design.net(id).width);
                    if let Some(i) = self.arena.result().to_u64().filter(|&i| i < width) {
                        out.push(window(id, i as u32, i as u32));
                    }
                }
                LValue::Concat(_) => unreachable!("for_each_leaf yields no concatenation"),
            }
        });
    }

    /// Writes one window of `value` into its net in place. A window
    /// covering the whole net from bit 0 of `value` is a plain
    /// [`commit_net`](Self::commit_net).
    fn write_window(&mut self, w: Window, value: BitsRef<'_>) {
        let idx = w.net.0 as usize;
        if w.lsb == 0 && w.src_lsb == 0 && w.msb + 1 == self.values[idx].width() {
            return self.commit_net(w.net, value);
        }
        let old_bit = self.values[idx].get(0);
        if self.values[idx].set_slice_bits(w.msb, w.lsb, value, w.src_lsb) {
            self.net_changed(w.net, old_bit);
        }
    }

    /// Overwrites `net`'s full value from a borrowed bit view — the
    /// zero-copy commit of every whole-net window, blocking or
    /// nonblocking. The net's existing planes are reused (no
    /// allocation); resize semantics apply when `bits` is narrower or
    /// wider than the net.
    fn commit_net(&mut self, net: NetId, bits: BitsRef<'_>) {
        let idx = net.0 as usize;
        if self.values[idx].equals_bits(bits) {
            return;
        }
        let old_bit = self.values[idx].get(0);
        self.values[idx].assign_bits(bits);
        self.net_changed(net, old_bit);
    }

    /// Publishes a change of `net`, whose bit 0 was `old_bit`, to the
    /// activation's self-wake record, the waveform and the watchers.
    fn net_changed(&mut self, net: NetId, old_bit: Logic) {
        let idx = net.0 as usize;
        let new_bit = self.values[idx].get(0);
        self.activation_changes.push((net, old_bit, new_bit));
        if let Some((_, changes)) = &mut self.waves {
            changes.push(vcd::Change {
                time: self.time,
                net: idx,
                value: self.values[idx].clone(),
            });
        }
        self.notify_watchers(net, old_bit, new_bit);
    }

    fn notify_watchers(&mut self, net: NetId, old_bit: Logic, new_bit: Logic) {
        let idx = net.0 as usize;
        if self.watchers[idx].is_empty() {
            return;
        }
        // In-place retain: stale and woken entries drop out, pending
        // ones stay, with no transfer buffer. The triggers are read back
        // from the (immutable) process body at the recorded wait pc.
        let design = self.design;
        let procs = &mut self.procs;
        let runnable = &mut self.runnable;
        self.watchers[idx].retain(|&(pid, generation)| {
            let p = &procs[pid];
            if p.generation != generation || p.status != Status::Waiting {
                return false; // stale
            }
            let Instr::WaitEvent { triggers } = &design.processes[pid].body[p.wait_pc] else {
                unreachable!("wait_pc always records a WaitEvent");
            };
            let woken = triggers.iter().any(|t| match t {
                Trigger::AnyChange(n) => *n == net,
                Trigger::Posedge(n) => *n == net && new_bit == Logic::One && old_bit != Logic::One,
                Trigger::Negedge(n) => {
                    *n == net && new_bit == Logic::Zero && old_bit != Logic::Zero
                }
            });
            if woken {
                let p = &mut procs[pid];
                p.status = Status::Runnable;
                p.generation += 1;
                p.last_wake = Some(net);
                runnable.push_back(pid);
                return false;
            }
            true
        });
    }
}

/// Calls `f` on every `Net`, `Range` and `Index` leaf of `lvalue` with
/// the bit of the assigned value that feeds the leaf's lsb (`src_lsb`
/// feeds the whole l-value's). Concatenations split MSB-first, per
/// IEEE 1364. Lowering and [`Simulator::resolve_lvalue`] both walk
/// l-values through this one traversal, so index programs run in the
/// order they were compiled.
fn for_each_leaf<'e>(
    lvalue: &'e LValue,
    src_lsb: u32,
    design: &Design,
    f: &mut impl FnMut(&'e LValue, u32),
) {
    match lvalue {
        LValue::Concat(parts) => {
            let mut hi = src_lsb + lvalue.width(design);
            for part in parts {
                hi -= part.width(design);
                for_each_leaf(part, hi, design, f);
            }
        }
        leaf => f(leaf, src_lsb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivril_hdl::ir::{
        BinaryOp, Expr, Net, NetKind, Process, ProcessKind, SysTaskKind, UnaryOp,
    };

    fn reg(name: &str, width: u32, init: Option<u64>) -> Net {
        Net {
            name: name.into(),
            width,
            kind: NetKind::Reg,
            init: init.map(|v| LogicVec::from_u64(width, v)),
        }
    }

    /// Builds a clock + posedge-triggered counter + finishing testbench.
    fn counter_design(cycles: u64) -> Design {
        let mut d = Design::new("tb");
        let clk = d.add_net(reg("clk", 1, Some(0)));
        let count = d.add_net(reg("count", 8, Some(0)));
        // initial forever #5 clk = ~clk;
        d.add_process(Process {
            name: "clkgen".into(),
            kind: ProcessKind::Always,
            body: vec![
                Instr::Delay {
                    amount: Expr::constant(32, 5),
                },
                Instr::BlockingAssign {
                    lvalue: LValue::Net(clk),
                    expr: Expr::Unary {
                        op: UnaryOp::Not,
                        operand: Box::new(Expr::Net(clk)),
                    },
                },
                Instr::Jump(0),
            ],
        });
        // always @(posedge clk) count <= count + 1;
        d.add_process(Process {
            name: "count".into(),
            kind: ProcessKind::Always,
            body: vec![
                Instr::WaitEvent {
                    triggers: vec![Trigger::Posedge(clk)],
                },
                Instr::NonblockingAssign {
                    lvalue: LValue::Net(count),
                    expr: Expr::Binary {
                        op: BinaryOp::Add,
                        lhs: Box::new(Expr::Net(count)),
                        rhs: Box::new(Expr::constant(8, 1)),
                    },
                },
                Instr::Jump(0),
            ],
        });
        // initial begin #(10*cycles); $display("count=%0d", count); $finish; end
        d.add_process(Process {
            name: "tb".into(),
            kind: ProcessKind::Initial,
            body: vec![
                Instr::Delay {
                    amount: Expr::constant(32, 10 * cycles + 2),
                },
                Instr::SysCall {
                    kind: SysTaskKind::Display,
                    format: Some("count=%0d".into()),
                    args: vec![Expr::Net(count)],
                },
                Instr::SysCall {
                    kind: SysTaskKind::Finish,
                    format: None,
                    args: vec![],
                },
                Instr::Halt,
            ],
        });
        d
    }

    #[test]
    fn counter_counts_posedges() {
        let d = counter_design(7);
        let mut sim = Simulator::new(&d, SimConfig::default());
        let r = sim.run();
        assert!(r.finished);
        assert!(r.is_clean());
        assert_eq!(r.lines[0].text, "count=7");
        assert_eq!(sim.net_value("count").and_then(LogicVec::to_u64), Some(7));
    }

    #[test]
    fn nba_reads_old_values_register_swap() {
        // a <= b; b <= a; at a posedge must swap, not duplicate.
        let mut d = Design::new("swap");
        let clk = d.add_net(reg("clk", 1, Some(0)));
        let a = d.add_net(reg("a", 4, Some(3)));
        let b = d.add_net(reg("b", 4, Some(9)));
        d.add_process(Process {
            name: "swap".into(),
            kind: ProcessKind::Always,
            body: vec![
                Instr::WaitEvent {
                    triggers: vec![Trigger::Posedge(clk)],
                },
                Instr::NonblockingAssign {
                    lvalue: LValue::Net(a),
                    expr: Expr::Net(b),
                },
                Instr::NonblockingAssign {
                    lvalue: LValue::Net(b),
                    expr: Expr::Net(a),
                },
                Instr::Jump(0),
            ],
        });
        d.add_process(Process {
            name: "stim".into(),
            kind: ProcessKind::Initial,
            body: vec![
                Instr::Delay {
                    amount: Expr::constant(32, 5),
                },
                Instr::BlockingAssign {
                    lvalue: LValue::Net(clk),
                    expr: Expr::constant(1, 1),
                },
                Instr::Delay {
                    amount: Expr::constant(32, 5),
                },
                Instr::SysCall {
                    kind: SysTaskKind::Finish,
                    format: None,
                    args: vec![],
                },
                Instr::Halt,
            ],
        });
        let mut sim = Simulator::new(&d, SimConfig::default());
        sim.run();
        assert_eq!(sim.net_value("a").and_then(LogicVec::to_u64), Some(9));
        assert_eq!(sim.net_value("b").and_then(LogicVec::to_u64), Some(3));
    }

    #[test]
    fn continuous_assign_tracks_inputs() {
        let mut d = Design::new("comb");
        let a = d.add_net(reg("a", 4, Some(0)));
        let y = d.add_net(Net {
            name: "y".into(),
            width: 4,
            kind: NetKind::Wire,
            init: None,
        });
        d.add_continuous_assign(
            LValue::Net(y),
            Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(Expr::Net(a)),
            },
        );
        d.add_process(Process {
            name: "stim".into(),
            kind: ProcessKind::Initial,
            body: vec![
                Instr::Delay {
                    amount: Expr::constant(32, 1),
                },
                Instr::BlockingAssign {
                    lvalue: LValue::Net(a),
                    expr: Expr::constant(4, 0b0101),
                },
                Instr::Delay {
                    amount: Expr::constant(32, 1),
                },
                Instr::SysCall {
                    kind: SysTaskKind::Finish,
                    format: None,
                    args: vec![],
                },
                Instr::Halt,
            ],
        });
        let mut sim = Simulator::new(&d, SimConfig::default());
        sim.run();
        assert_eq!(sim.net_value("y").and_then(LogicVec::to_u64), Some(0b1010));
    }

    #[test]
    fn error_and_fatal_counting() {
        let mut d = Design::new("t");
        d.add_process(Process {
            name: "p".into(),
            kind: ProcessKind::Initial,
            body: vec![
                Instr::SysCall {
                    kind: SysTaskKind::Error,
                    format: Some("Test Case 2 Failed".into()),
                    args: vec![],
                },
                Instr::SysCall {
                    kind: SysTaskKind::Fatal,
                    format: Some("giving up".into()),
                    args: vec![],
                },
                Instr::Halt,
            ],
        });
        let r = Simulator::new(&d, SimConfig::default()).run();
        assert_eq!(r.error_count, 2);
        assert!(r.finished, "$fatal ends the run");
        assert!(r.lines[0].text.contains("Test Case 2 Failed"));
        assert!(r.lines[0].is_error);
    }

    #[test]
    fn infinite_procedural_loop_hits_limit() {
        let mut d = Design::new("t");
        d.add_process(Process {
            name: "spin".into(),
            kind: ProcessKind::Initial,
            body: vec![Instr::Jump(0)],
        });
        let r = Simulator::new(&d, SimConfig::default()).run();
        assert_eq!(r.limit_hit, Some(LimitKind::ProcessInstructions));
        assert!(!r.is_clean());
    }

    #[test]
    fn zero_delay_oscillation_hits_delta_limit() {
        // A zero-delay ping-pong: each process toggles its own net and
        // waits on the other's, re-waking each other forever at time 0.
        let mut d = Design::new("t");
        let a = d.add_net(reg("a", 1, Some(0)));
        let b = d.add_net(reg("b", 1, Some(0)));
        let toggler =
            |own: aivril_hdl::ir::NetId, other: aivril_hdl::ir::NetId, name: &str| Process {
                name: name.into(),
                kind: ProcessKind::Always,
                body: vec![
                    Instr::BlockingAssign {
                        lvalue: LValue::Net(own),
                        expr: Expr::Unary {
                            op: UnaryOp::Not,
                            operand: Box::new(Expr::Net(own)),
                        },
                    },
                    Instr::WaitEvent {
                        triggers: vec![Trigger::AnyChange(other)],
                    },
                    Instr::Jump(0),
                ],
            };
        d.add_process(toggler(a, b, "p1"));
        d.add_process(toggler(b, a, "p2"));
        let r = Simulator::new(&d, SimConfig::default()).run();
        assert_eq!(r.limit_hit, Some(LimitKind::DeltaCycles));
    }

    #[test]
    fn self_triggering_assign_hits_delta_limit() {
        // `assign a = ~a` with a driven initial value: the process
        // changes its own trigger net before re-arming. It used to lose
        // the self-notification and settle silently at a wrong value;
        // now it must oscillate into the delta-cycle ceiling with a
        // clear diagnostic.
        let mut d = Design::new("t");
        let a = d.add_net(reg("a", 1, Some(0)));
        d.add_continuous_assign(
            LValue::Net(a),
            Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(Expr::Net(a)),
            },
        );
        let r = Simulator::new(&d, SimConfig::default()).run();
        assert_eq!(r.limit_hit, Some(LimitKind::DeltaCycles));
        assert!(!r.is_clean());
        assert!(
            r.lines.iter().any(|l| l.text.contains("delta-cycle limit")),
            "log: {}",
            r.log_text()
        );
    }

    #[test]
    fn self_write_without_change_still_settles() {
        // Writing one's own trigger net with an *unchanged* value is not
        // a self-notification (no event fires); the process must suspend
        // normally and the run must starve cleanly.
        let mut d = Design::new("t");
        let a = d.add_net(reg("a", 1, Some(1)));
        // assign a = a & a; -- identity, value never changes.
        d.add_continuous_assign(
            LValue::Net(a),
            Expr::Binary {
                op: BinaryOp::And,
                lhs: Box::new(Expr::Net(a)),
                rhs: Box::new(Expr::Net(a)),
            },
        );
        let r = Simulator::new(&d, SimConfig::default()).run();
        assert!(r.starved, "no events left after the identity write");
        assert!(r.is_clean());
    }

    #[test]
    fn self_posedge_rearms_with_edge_semantics() {
        // A process waiting on posedge of a net it drives 0→1 during its
        // own activation must re-arm (the edge really happened); the
        // second pass writes 1→1 (no change) and suspends for good.
        let mut d = Design::new("t");
        let a = d.add_net(reg("a", 1, Some(0)));
        let hits = d.add_net(reg("hits", 4, Some(0)));
        d.add_process(Process {
            name: "p".into(),
            kind: ProcessKind::Always,
            body: vec![
                Instr::BlockingAssign {
                    lvalue: LValue::Net(a),
                    expr: Expr::constant(1, 1),
                },
                Instr::BlockingAssign {
                    lvalue: LValue::Net(hits),
                    expr: Expr::Binary {
                        op: BinaryOp::Add,
                        lhs: Box::new(Expr::Net(hits)),
                        rhs: Box::new(Expr::constant(4, 1)),
                    },
                },
                Instr::WaitEvent {
                    triggers: vec![Trigger::Posedge(a)],
                },
                Instr::Jump(0),
            ],
        });
        let mut sim = Simulator::new(&d, SimConfig::default());
        let r = sim.run();
        assert!(r.starved, "second pass sees no edge and suspends");
        assert_eq!(
            sim.net_value("hits").and_then(LogicVec::to_u64),
            Some(2),
            "exactly one self-wake: initial pass + edge-triggered pass"
        );
    }

    #[test]
    fn watcher_lists_stay_bounded_on_never_changing_nets() {
        // A process that waits on (posedge clk, anychange dead) re-arms
        // every clock edge; `dead` never changes, so its watcher list
        // used to gain one stale entry per cycle — unbounded growth on
        // long runs. With amortised compaction the list must stay within
        // a small constant of the single live waiter.
        let mut d = Design::new("t");
        let clk = d.add_net(reg("clk", 1, Some(0)));
        let dead = d.add_net(reg("dead", 1, Some(0)));
        d.add_process(Process {
            name: "clkgen".into(),
            kind: ProcessKind::Always,
            body: vec![
                Instr::Delay {
                    amount: Expr::constant(32, 5),
                },
                Instr::BlockingAssign {
                    lvalue: LValue::Net(clk),
                    expr: Expr::Unary {
                        op: UnaryOp::Not,
                        operand: Box::new(Expr::Net(clk)),
                    },
                },
                Instr::Jump(0),
            ],
        });
        d.add_process(Process {
            name: "waiter".into(),
            kind: ProcessKind::Always,
            body: vec![
                Instr::WaitEvent {
                    triggers: vec![Trigger::Posedge(clk), Trigger::AnyChange(dead)],
                },
                Instr::Jump(0),
            ],
        });
        d.add_process(Process {
            name: "stop".into(),
            kind: ProcessKind::Initial,
            body: vec![
                Instr::Delay {
                    amount: Expr::constant(32, 10_000),
                },
                Instr::SysCall {
                    kind: SysTaskKind::Finish,
                    format: None,
                    args: vec![],
                },
                Instr::Halt,
            ],
        });
        let mut sim = Simulator::new(&d, SimConfig::default());
        let r = sim.run();
        assert!(r.finished);
        let dead_watchers = sim.watchers[dead.0 as usize].len();
        assert!(
            dead_watchers <= 16,
            "stale watcher entries must be compacted; found {dead_watchers} after \
             ~1000 wait cycles"
        );
        assert!(
            sim.perf().compactions > 50,
            "the long run must have compacted repeatedly, got {}",
            sim.perf().compactions
        );
    }

    #[test]
    fn starvation_without_finish() {
        let mut d = Design::new("t");
        let a = d.add_net(reg("a", 1, Some(0)));
        d.add_process(Process {
            name: "once".into(),
            kind: ProcessKind::Initial,
            body: vec![
                Instr::BlockingAssign {
                    lvalue: LValue::Net(a),
                    expr: Expr::constant(1, 1),
                },
                Instr::Halt,
            ],
        });
        let r = Simulator::new(&d, SimConfig::default()).run();
        assert!(r.starved);
        assert!(!r.finished);
        assert!(r.is_clean());
    }

    #[test]
    fn zero_delay_orders_after_active() {
        // #0 lets another same-time process run first.
        let mut d = Design::new("t");
        let a = d.add_net(reg("a", 4, Some(0)));
        let seen = d.add_net(reg("seen", 4, Some(0)));
        d.add_process(Process {
            name: "reader".into(),
            kind: ProcessKind::Initial,
            body: vec![
                Instr::Delay {
                    amount: Expr::constant(32, 0),
                },
                Instr::BlockingAssign {
                    lvalue: LValue::Net(seen),
                    expr: Expr::Net(a),
                },
                Instr::Halt,
            ],
        });
        d.add_process(Process {
            name: "writer".into(),
            kind: ProcessKind::Initial,
            body: vec![
                Instr::BlockingAssign {
                    lvalue: LValue::Net(a),
                    expr: Expr::constant(4, 7),
                },
                Instr::Halt,
            ],
        });
        let mut sim = Simulator::new(&d, SimConfig::default());
        sim.run();
        assert_eq!(sim.net_value("seen").and_then(LogicVec::to_u64), Some(7));
    }

    #[test]
    fn concat_lvalue_splits_msb_first() {
        let mut d = Design::new("t");
        let hi = d.add_net(reg("hi", 4, Some(0)));
        let lo = d.add_net(reg("lo", 4, Some(0)));
        d.add_process(Process {
            name: "p".into(),
            kind: ProcessKind::Initial,
            body: vec![
                Instr::BlockingAssign {
                    lvalue: LValue::Concat(vec![LValue::Net(hi), LValue::Net(lo)]),
                    expr: Expr::constant(8, 0xA5),
                },
                Instr::Halt,
            ],
        });
        let mut sim = Simulator::new(&d, SimConfig::default());
        sim.run();
        assert_eq!(sim.net_value("hi").and_then(LogicVec::to_u64), Some(0xA));
        assert_eq!(sim.net_value("lo").and_then(LogicVec::to_u64), Some(0x5));
    }

    #[test]
    fn write_then_display_concatenates() {
        let mut d = Design::new("t");
        d.add_process(Process {
            name: "p".into(),
            kind: ProcessKind::Initial,
            body: vec![
                Instr::SysCall {
                    kind: SysTaskKind::Write,
                    format: Some("part1 ".into()),
                    args: vec![],
                },
                Instr::SysCall {
                    kind: SysTaskKind::Display,
                    format: Some("part2".into()),
                    args: vec![],
                },
                Instr::Halt,
            ],
        });
        let r = Simulator::new(&d, SimConfig::default()).run();
        assert_eq!(r.lines[0].text, "part1 part2");
    }

    #[test]
    fn negedge_trigger() {
        let mut d = Design::new("t");
        let clk = d.add_net(reg("clk", 1, Some(1)));
        let hits = d.add_net(reg("hits", 4, Some(0)));
        d.add_process(Process {
            name: "neg".into(),
            kind: ProcessKind::Always,
            body: vec![
                Instr::WaitEvent {
                    triggers: vec![Trigger::Negedge(clk)],
                },
                Instr::BlockingAssign {
                    lvalue: LValue::Net(hits),
                    expr: Expr::Binary {
                        op: BinaryOp::Add,
                        lhs: Box::new(Expr::Net(hits)),
                        rhs: Box::new(Expr::constant(4, 1)),
                    },
                },
                Instr::Jump(0),
            ],
        });
        d.add_process(Process {
            name: "stim".into(),
            kind: ProcessKind::Initial,
            body: vec![
                Instr::Delay {
                    amount: Expr::constant(32, 5),
                },
                Instr::BlockingAssign {
                    lvalue: LValue::Net(clk),
                    expr: Expr::constant(1, 0),
                },
                Instr::Delay {
                    amount: Expr::constant(32, 5),
                },
                Instr::BlockingAssign {
                    lvalue: LValue::Net(clk),
                    expr: Expr::constant(1, 1),
                },
                Instr::Delay {
                    amount: Expr::constant(32, 5),
                },
                Instr::BlockingAssign {
                    lvalue: LValue::Net(clk),
                    expr: Expr::constant(1, 0),
                },
                Instr::Delay {
                    amount: Expr::constant(32, 1),
                },
                Instr::SysCall {
                    kind: SysTaskKind::Finish,
                    format: None,
                    args: vec![],
                },
                Instr::Halt,
            ],
        });
        let mut sim = Simulator::new(&d, SimConfig::default());
        sim.run();
        assert_eq!(sim.net_value("hits").and_then(LogicVec::to_u64), Some(2));
    }
}

#[cfg(test)]
mod vcd_tests {
    use super::*;
    use aivril_hdl::ir::{Expr, Net, NetKind, Process, ProcessKind, SysTaskKind, UnaryOp};

    #[test]
    fn vcd_records_clock_toggles() {
        let mut d = Design::new("tb");
        let clk = d.add_net(Net {
            name: "tb.clk".into(),
            width: 1,
            kind: NetKind::Reg,
            init: Some(LogicVec::zeros(1)),
        });
        d.add_process(Process {
            name: "clkgen".into(),
            kind: ProcessKind::Always,
            body: vec![
                Instr::Delay {
                    amount: Expr::constant(32, 5),
                },
                Instr::BlockingAssign {
                    lvalue: LValue::Net(clk),
                    expr: Expr::Unary {
                        op: UnaryOp::Not,
                        operand: Box::new(Expr::Net(clk)),
                    },
                },
                Instr::Jump(0),
            ],
        });
        d.add_process(Process {
            name: "stop".into(),
            kind: ProcessKind::Initial,
            body: vec![
                Instr::Delay {
                    amount: Expr::constant(32, 22),
                },
                Instr::SysCall {
                    kind: SysTaskKind::Finish,
                    format: None,
                    args: vec![],
                },
                Instr::Halt,
            ],
        });
        let mut sim = Simulator::new(&d, SimConfig::default());
        assert!(sim.vcd().is_none(), "no dump without recording");
        sim.record_waves();
        sim.run();
        let vcd = sim.vcd().expect("recorded");
        assert!(vcd.contains("$var wire 1 ! tb.clk $end"));
        assert!(vcd.contains("#0\n$dumpvars\n0!\n$end\n"));
        assert!(vcd.contains("#5\n1!\n"));
        assert!(vcd.contains("#10\n0!\n"));
        assert!(vcd.contains("#15\n1!\n"));
        assert!(vcd.contains("#20\n0!\n"));
    }
}

#[cfg(test)]
mod monitor_tests {
    use super::*;
    use aivril_hdl::ir::{BinaryOp, Expr, Net, NetKind, Process, ProcessKind, SysTaskKind};

    #[test]
    fn monitor_prints_only_on_change() {
        // A counter that increments at t=10,20 and holds at t=30; the
        // monitor must print at t=0 (first observation), 10 and 20 only.
        let mut d = Design::new("tb");
        let n = d.add_net(Net {
            name: "n".into(),
            width: 4,
            kind: NetKind::Reg,
            init: Some(LogicVec::zeros(4)),
        });
        let bump = |d: &mut Design, delay: u64, inc: u64| {
            d.add_process(Process {
                name: format!("bump{delay}"),
                kind: ProcessKind::Initial,
                body: vec![
                    Instr::Delay {
                        amount: Expr::constant(32, delay),
                    },
                    Instr::BlockingAssign {
                        lvalue: LValue::Net(n),
                        expr: Expr::Binary {
                            op: BinaryOp::Add,
                            lhs: Box::new(Expr::Net(n)),
                            rhs: Box::new(Expr::constant(4, inc)),
                        },
                    },
                    Instr::Halt,
                ],
            });
        };
        bump(&mut d, 10, 1);
        bump(&mut d, 20, 1);
        bump(&mut d, 30, 0); // same value: no print expected
        d.add_process(Process {
            name: "mon".into(),
            kind: ProcessKind::Initial,
            body: vec![
                Instr::SysCall {
                    kind: SysTaskKind::Monitor,
                    format: Some("t=%t n=%0d".into()),
                    args: vec![Expr::Time, Expr::Net(n)],
                },
                Instr::Delay {
                    amount: Expr::constant(32, 40),
                },
                Instr::SysCall {
                    kind: SysTaskKind::Finish,
                    format: None,
                    args: vec![],
                },
                Instr::Halt,
            ],
        });
        let r = Simulator::new(&d, SimConfig::default()).run();
        let texts: Vec<&str> = r.lines.iter().map(|l| l.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["t=0 n=0", "t=10 n=1", "t=20 n=2"],
            "log: {texts:?}"
        );
    }
}

#[cfg(test)]
mod lvalue_tests {
    use super::*;
    use aivril_hdl::ir::{BinaryOp, Expr, Net, NetKind, Process, ProcessKind, SysTaskKind};

    fn reg(d: &mut Design, name: &str, width: u32, init: Option<LogicVec>) -> NetId {
        d.add_net(Net {
            name: name.into(),
            width,
            kind: NetKind::Reg,
            init,
        })
    }

    fn zero_reg(d: &mut Design, name: &str, width: u32) -> NetId {
        reg(d, name, width, Some(LogicVec::zeros(width)))
    }

    fn assign(nonblocking: bool, lvalue: LValue, expr: Expr) -> Instr {
        if nonblocking {
            Instr::NonblockingAssign { lvalue, expr }
        } else {
            Instr::BlockingAssign { lvalue, expr }
        }
    }

    fn delay(amount: u64) -> Instr {
        Instr::Delay {
            amount: Expr::constant(32, amount),
        }
    }

    fn finish() -> Instr {
        Instr::SysCall {
            kind: SysTaskKind::Finish,
            format: None,
            args: vec![],
        }
    }

    fn initial(d: &mut Design, name: &str, body: Vec<Instr>) {
        d.add_process(Process {
            name: name.into(),
            kind: ProcessKind::Initial,
            body,
        });
    }

    fn value(sim: &Simulator<'_>, name: &str) -> Option<u64> {
        sim.net_value(name).and_then(LogicVec::to_u64)
    }

    #[test]
    fn nba_to_part_select_and_concat() {
        let mut d = Design::new("t");
        let r = zero_reg(&mut d, "r", 8);
        let hi = reg(&mut d, "hi", 4, Some(LogicVec::from_u64(4, 0x3)));
        let lo = reg(&mut d, "lo", 4, Some(LogicVec::from_u64(4, 0xC)));
        initial(
            &mut d,
            "p",
            vec![
                assign(true, LValue::Range(r, 5, 2), Expr::constant(4, 0b1011)),
                // {hi, lo} <= {lo, hi}: both halves read before either commits.
                assign(
                    true,
                    LValue::Concat(vec![LValue::Net(hi), LValue::Net(lo)]),
                    Expr::Concat(vec![Expr::Net(lo), Expr::Net(hi)]),
                ),
                delay(1),
                Instr::Halt,
            ],
        );
        let mut sim = Simulator::new(&d, SimConfig::default());
        sim.run();
        assert_eq!(value(&sim, "r"), Some(0b0010_1100));
        assert_eq!(value(&sim, "hi"), Some(0xC));
        assert_eq!(value(&sim, "lo"), Some(0x3));
    }

    #[test]
    fn one_nba_executed_in_a_loop_commits_every_write() {
        // for (i = 0; i < 4; i++) begin r[i] <= 1; last <= i; flag[0] <= i[0]; end
        let mut d = Design::new("t");
        let i = zero_reg(&mut d, "i", 8);
        let r = zero_reg(&mut d, "r", 8);
        let last = zero_reg(&mut d, "last", 8);
        let flag = zero_reg(&mut d, "flag", 1);
        let bit0 = |net| Expr::Index {
            net,
            index: Box::new(Expr::constant(1, 0)),
        };
        initial(
            &mut d,
            "p",
            vec![
                Instr::BranchIfFalse {
                    cond: Expr::Binary {
                        op: BinaryOp::Lt,
                        lhs: Box::new(Expr::Net(i)),
                        rhs: Box::new(Expr::constant(8, 4)),
                    },
                    target: 6,
                },
                assign(true, LValue::Index(r, Expr::Net(i)), Expr::constant(1, 1)),
                assign(true, LValue::Net(last), Expr::Net(i)),
                assign(true, LValue::Index(flag, Expr::constant(1, 0)), bit0(i)),
                assign(
                    false,
                    LValue::Net(i),
                    Expr::Binary {
                        op: BinaryOp::Add,
                        lhs: Box::new(Expr::Net(i)),
                        rhs: Box::new(Expr::constant(8, 1)),
                    },
                ),
                Instr::Jump(0),
                delay(1),
                Instr::Halt,
            ],
        );
        let mut sim = Simulator::new(&d, SimConfig::default());
        sim.run();
        assert_eq!(value(&sim, "r"), Some(0b1111), "every index commits");
        assert_eq!(
            value(&sim, "last"),
            Some(3),
            "the last whole-net write wins"
        );
        assert_eq!(value(&sim, "flag"), Some(1), "the last same-bit write wins");
        // The NBA store is pre-sized for one write per target (3 words);
        // 12 staged words grow it twice, and each growth is counted.
        assert_eq!(sim.perf().eval_allocs, 2);
    }

    /// Runs `r[index] = 1` (blocking) and `q[index] <= 1` into 8-bit
    /// zeroed registers and returns their final values.
    fn indexed_writes(index: Expr) -> (Option<u64>, Option<u64>) {
        let mut d = Design::new("t");
        let r = zero_reg(&mut d, "r", 8);
        let q = zero_reg(&mut d, "q", 8);
        initial(
            &mut d,
            "p",
            vec![
                assign(false, LValue::Index(r, index.clone()), Expr::constant(1, 1)),
                assign(true, LValue::Index(q, index), Expr::constant(1, 1)),
                delay(1),
                Instr::Halt,
            ],
        );
        let mut sim = Simulator::new(&d, SimConfig::default());
        sim.run();
        (value(&sim, "r"), value(&sim, "q"))
    }

    #[test]
    fn x_index_write_vanishes() {
        assert_eq!(
            indexed_writes(Expr::Const(LogicVec::xes(4))),
            (Some(0), Some(0))
        );
        assert_eq!(indexed_writes(Expr::constant(4, 3)), (Some(8), Some(8)));
    }

    #[test]
    fn wide_known_index_write_vanishes_instead_of_wrapping() {
        // r[40'h1_0000_0001] is out of range for an 8-bit r (IEEE 1364):
        // the write must not land on bit 1.
        let index = Expr::Const(LogicVec::from_u64(40, 0x1_0000_0001));
        assert_eq!(indexed_writes(index), (Some(0), Some(0)));
    }

    fn wide_value() -> LogicVec {
        let mut v = LogicVec::from_u64(100, 0xabcd);
        v.set(99, Logic::One);
        v
    }

    #[test]
    fn display_renders_wide_arguments_and_time() {
        let mut d = Design::new("t");
        let w = reg(&mut d, "w", 100, Some(wide_value()));
        initial(
            &mut d,
            "p",
            vec![
                delay(7),
                Instr::SysCall {
                    kind: SysTaskKind::Display,
                    format: Some("w=%h t=%t".into()),
                    args: vec![Expr::Net(w), Expr::Time],
                },
                Instr::SysCall {
                    kind: SysTaskKind::Display,
                    format: None,
                    args: vec![
                        Expr::Range {
                            net: w,
                            msb: 15,
                            lsb: 0,
                        },
                        Expr::Time,
                    ],
                },
                Instr::Halt,
            ],
        );
        let r = Simulator::new(&d, SimConfig::default()).run();
        let texts: Vec<&str> = r.lines.iter().map(|l| l.text.as_str()).collect();
        let hex = format!("8{}abcd", "0".repeat(20));
        assert_eq!(texts, vec![format!("w={hex} t=7"), "43981 7".to_string()]);
    }

    #[test]
    fn monitor_tracks_a_wide_argument() {
        let mut d = Design::new("t");
        let w = zero_reg(&mut d, "w", 100);
        initial(
            &mut d,
            "mon",
            vec![
                Instr::SysCall {
                    kind: SysTaskKind::Monitor,
                    format: Some("%t %h".into()),
                    args: vec![Expr::Time, Expr::Net(w)],
                },
                delay(10),
                assign(false, LValue::Net(w), Expr::Const(wide_value())),
                delay(10),
                finish(),
                Instr::Halt,
            ],
        );
        let r = Simulator::new(&d, SimConfig::default()).run();
        let texts: Vec<&str> = r.lines.iter().map(|l| l.text.as_str()).collect();
        let zeros = "0".repeat(25);
        let wide = format!("8{}abcd", "0".repeat(20));
        assert_eq!(texts, vec![format!("0 {zeros}"), format!("10 {wide}")]);
    }

    #[test]
    fn wide_concat_lvalues_run_without_allocation() {
        // {hi, lo} = {hi, lo} + 1 and {h2, l2} <= {h2, l2} + 1 on 100-bit
        // concatenations, every 2 ns for 50 steps.
        let mut d = Design::new("t");
        let nets: Vec<NetId> = ["hi", "lo", "h2", "l2"]
            .iter()
            .map(|n| zero_reg(&mut d, n, 50))
            .collect();
        for (k, pair) in nets.chunks(2).enumerate() {
            let target = LValue::Concat(vec![LValue::Net(pair[0]), LValue::Net(pair[1])]);
            let sum = Expr::Binary {
                op: BinaryOp::Add,
                lhs: Box::new(Expr::Concat(vec![Expr::Net(pair[0]), Expr::Net(pair[1])])),
                rhs: Box::new(Expr::constant(100, 1)),
            };
            d.add_process(Process {
                name: format!("count{k}"),
                kind: ProcessKind::Always,
                body: vec![delay(2), assign(k == 1, target, sum), Instr::Jump(0)],
            });
        }
        initial(&mut d, "stop", vec![delay(101), finish(), Instr::Halt]);
        let mut sim = Simulator::new(&d, SimConfig::default());
        sim.run();
        assert_eq!(value(&sim, "lo"), Some(50));
        assert_eq!(value(&sim, "l2"), Some(50));
        assert_eq!(sim.perf().eval_allocs, 0, "steady state must not allocate");
    }
}
