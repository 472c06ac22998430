//! Content-addressed result cache for EDA invocations.
//!
//! AIVRIL2's corrective loops re-invoke the tools on near-duplicate
//! inputs constantly: the testbench is recompiled unchanged on every
//! iteration, `SimLlm` derives candidates by fault-injecting golden RTL
//! (so distinct grid runs converge to identical text), and the scoring
//! pass simulates sources the pipeline already simulated. Scoring names
//! its files as the pipeline does (`aivril_core::{dut_file_name,
//! tb_file_name}`), so when a run ends on the reference testbench, its
//! scoring simulate has the whole-call key of the pipeline's last
//! simulate and reads that entry. Every tool invocation here is a pure
//! function of its inputs, so memoization is sound with **no
//! invalidation logic at all** — a key can never go stale because
//! nothing outside the key influences the result.
//!
//! # Key derivation
//!
//! Keys are 128-bit SipHash-1-3 values under a fixed key, each over an
//! unambiguous, length-prefixed serialisation of everything the
//! invocation reads. A tool call (`analyze`, `compile_to_design`,
//! `simulate`) reads one digest per file, over the file's `(name,
//! language, text)` (`file_digests`); every key the call needs is then
//! built from those digests. A file memoises its digest, so a text that
//! many calls share (a frozen testbench, a golden reference) is hashed
//! once per run, not once per call:
//!
//! - the whole-call keys, shared by the cache and the tool-fault gate:
//!   an operation tag (`analyze` / `compile` / `simulate`, so the three
//!   shards can never alias), the ordered file digests (file order
//!   matters to the tools: the first file's language selects the
//!   frontend, and logs list files in order), the `top` override
//!   (tagged, so `None` differs from `Some("")`), the
//!   [`ToolLatencyModel`] constants as IEEE-754 bit patterns (reports
//!   embed `modeled_latency`) and, for simulation, the [`SimConfig`]
//!   limits (they shape truncation and therefore logs, pass/fail, and
//!   instruction counts);
//! - the incremental memos' keys: a file's digest and index for its
//!   parse, the closure's `(index, digest)` pairs for an elaboration.
//!
//! Keys are derived only when the cache or the tool-fault plan is on.
//! Disk-tier records are found by key, so key values are pinned by a
//! golden test: changing the derivation means bumping the disk format.
//!
//! # What each tier keeps
//!
//! Every tier holds only what a later lookup reads. The analyze, sim
//! and parse tiers keep their entries for the cache's lifetime. A
//! compile entry keeps its report and the elaborated top's name, not
//! the design: the simulate that follows a compile-cache hit needs a
//! design only when its own sim entry misses too, and then finds it in
//! the elaboration memo or elaborates again through the parse memo.
//! The elaboration memo is a FIFO of [`ELAB_MEMO_CAPACITY`] designs:
//! nearly every reuse of one comes within a few insertions (a compile
//! handing its design to the simulate right after it), and a design is
//! the largest entry any tier holds.
//!
//! # Deterministic hit accounting
//!
//! Hit/miss totals must not depend on `AIVRIL_THREADS` or scheduling,
//! or they would perturb the canonical metrics artifact. Each key maps
//! to an [`OnceLock`] slot; a thread counts a **miss** iff it is the
//! one that *inserts* the slot (decided under the write lock), and a
//! **hit** otherwise — even when the value is still being computed by
//! the inserting thread. Consequently `misses == #distinct keys` and
//! `hits == #lookups − #distinct keys`, both schedule-independent.
//! `OnceLock::get_or_init` deduplicates the computation itself.
//!
//! The bounded elaboration memo is the exception: an evicted key that
//! comes back is a second miss, and whether it was evicted first
//! depends on how the workers' insertions interleaved. Its counters
//! are diagnostic only, like every phase counter.
//!
//! # Why modeled latency is stored, not recomputed
//!
//! The latency model is part of the *result* (`modeled_latency` drives
//! Figure 3), and recomputing it on a hit would need the instruction
//! count — which only the kernel run produces. Storing the full report
//! makes a hit byte-identical to a live run by construction rather than
//! by reimplementation.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, Weak};
use std::thread::ThreadId;

use crate::disk::{DiskStats, DiskStore, Persisted};
use crate::latency::ToolLatencyModel;
use crate::report::{CompileReport, SimReport};
use crate::source::{HdlFile, Language};
use aivril_hdl::diag::Diagnostics;
use aivril_hdl::ir::Design;
use aivril_obs::siphash::Sip13;
use aivril_sim::{KernelTelemetry, SimConfig};

/// A compile shard entry: the report, and the elaborated top's name
/// (`Some` exactly when elaboration produced a design), which is all a
/// simulate's log head reads. The design itself is held only weakly:
/// the handle upgrades while the elaboration memo (or any caller)
/// still holds the design, so a hit never keeps a design alive.
#[derive(Debug, Clone)]
pub(crate) struct CompileEntry {
    pub(crate) report: CompileReport,
    pub(crate) top: Option<String>,
    pub(crate) design: Weak<Design>,
}

/// A simulate shard entry: the full report, the sim-phase share of the
/// modeled latency (the span needs it separately from the report's
/// compile+sim total), and the kernel telemetry to replay on a hit.
#[derive(Debug, Clone)]
pub(crate) struct SimEntry {
    pub(crate) report: SimReport,
    pub(crate) sim_latency: f64,
    pub(crate) kernel: Option<KernelTelemetry>,
}

/// A parse shard entry: one file's AST together with its syntax
/// diagnostics, replayed verbatim on a hit. The AST nodes are
/// `Arc`-shared by construction (see the frontends' `ast` modules), so
/// cloning a unit to stitch it into a compile is pointer-cheap.
#[derive(Debug, Clone)]
pub(crate) enum ParsedFile {
    /// A Verilog file's modules.
    Verilog(aivril_verilog::ast::SourceUnit, Diagnostics),
    /// A VHDL file's entities and architectures.
    Vhdl(aivril_vhdl::ast::DesignFile, Diagnostics),
}

/// An elaboration shard entry: the elaborated design (when elaboration
/// produced one) plus the elab-phase diagnostics to replay.
#[derive(Debug, Clone)]
pub(crate) struct ElabEntry {
    pub(crate) design: Option<Arc<Design>>,
    pub(crate) diags: Diagnostics,
}

/// A cache slot: present in the map from the moment some thread claims
/// the key, initialised once the computation finishes.
pub(crate) type Slot<V> = Arc<OnceLock<V>>;

/// How many designs the elaboration memo keeps. A design is the largest
/// entry of any tier (about 126 KB), and nearly every reuse comes
/// within a few insertions: a compile hands its design to the simulate
/// right after it, and a repair loop recompiles the design it just
/// elaborated. Over a `grid_cached` pass with an unbounded memo, 1,180
/// of the 1,193 memo hits reuse a design at most 16 insertions old,
/// and the other 13 a design more than 32 insertions old.
pub(crate) const ELAB_MEMO_CAPACITY: usize = 32;

/// One keyed shard with insert-counts-as-miss accounting. A shard with
/// a finite `CAP` evicts its oldest key once it holds more than `CAP`;
/// a thread still holding an evicted slot reads it as usual.
#[derive(Debug)]
struct Shard<V, const CAP: usize = { usize::MAX }> {
    table: RwLock<Table<V>>,
}

#[derive(Debug)]
struct Table<V> {
    slots: HashMap<u128, Slot<V>>,
    /// Keys in insertion order, each with the thread that inserted it
    /// (and so, nearly always, computed its value); kept only by a
    /// bounded shard.
    order: VecDeque<(u128, ThreadId)>,
    /// Evicted slots waiting for the thread that inserted them.
    evicted: VecDeque<(ThreadId, Slot<V>)>,
}

impl<V, const CAP: usize> Default for Shard<V, CAP> {
    // Manual impl: the derive would demand `V: Default`, which the
    // entry types have no reason to satisfy.
    fn default() -> Shard<V, CAP> {
        Shard {
            table: RwLock::new(Table {
                slots: HashMap::new(),
                order: VecDeque::new(),
                evicted: VecDeque::new(),
            }),
        }
    }
}

impl<V, const CAP: usize> Shard<V, CAP> {
    /// Returns the slot for `key` and whether this lookup was a hit,
    /// bumping the shared counters. See the module docs for why the
    /// accounting is schedule-independent.
    fn slot(&self, key: u128, hits: &AtomicU64, misses: &AtomicU64) -> (Slot<V>, bool) {
        if let Some(slot) = self.table.read().expect("cache lock").slots.get(&key) {
            hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(slot), true);
        }
        let mut table = self.table.write().expect("cache lock");
        if let Some(slot) = table.slots.get(&key) {
            hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(slot), true);
        }
        misses.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(OnceLock::new());
        table.slots.insert(key, Arc::clone(&slot));
        if CAP < usize::MAX {
            let mine = table.evict(key, CAP);
            // Torn down after the lock is released, so other lookups
            // don't wait for it.
            drop(table);
            drop(mine);
        }
        (slot, false)
    }

    fn len(&self) -> usize {
        self.table.read().expect("cache lock").slots.len()
    }
}

impl<V> Table<V> {
    /// Queues `key`, just inserted by this thread, evicts the oldest key
    /// past the capacity `cap`, and returns the evicted slots this
    /// thread should drop. Each evicted slot goes back to the thread
    /// that inserted it: the allocator frees a block far more cheaply
    /// in the thread that allocated it (on a two-vCPU host, dropping
    /// each evicted design wherever it was evicted made a `grid_cached`
    /// pass 6–8% slower). A thread that inserts nothing more, such as
    /// a finished worker, leaves its slots to whoever evicts once more
    /// than `cap` are waiting.
    fn evict(&mut self, key: u128, cap: usize) -> Vec<Slot<V>> {
        let me = std::thread::current().id();
        self.order.push_back((key, me));
        if self.order.len() > cap {
            let (oldest, owner) = self.order.pop_front().expect("a key was just queued");
            if let Some(slot) = self.slots.remove(&oldest) {
                self.evicted.push_back((owner, slot));
            }
        }
        // This thread's own evicted slots, and past `cap` waiting, the
        // oldest of anyone's.
        let mut mine = Vec::new();
        let mut i = 0;
        while i < self.evicted.len() {
            if self.evicted[i].0 == me {
                mine.extend(self.evicted.remove(i).map(|(_, slot)| slot));
            } else {
                i += 1;
            }
        }
        while self.evicted.len() > cap {
            mine.extend(self.evicted.pop_front().map(|(_, slot)| slot));
        }
        mine
    }
}

#[derive(Debug, Default)]
struct Inner {
    analyze: Shard<CompileReport>,
    compile: Shard<CompileEntry>,
    sim: Shard<SimEntry>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Incremental-compile shards. These memoize *phases* of the whole
    /// invocations above, so their counters are kept separate: the
    /// `hits`/`misses` pair must keep meaning "whole tool invocations"
    /// for the canonical metrics artifact.
    parse: Shard<ParsedFile>,
    elab: Shard<ElabEntry, ELAB_MEMO_CAPACITY>,
    parse_hits: AtomicU64,
    parse_misses: AtomicU64,
    elab_hits: AtomicU64,
    elab_misses: AtomicU64,
    /// Optional persistent tier (`AIVRIL_EDA_CACHE_DIR`), probed only
    /// by a slot's initialiser, after the memory miss is counted, so
    /// the hit/miss accounting above stays schedule-independent with
    /// or without it.
    disk: Option<DiskStore>,
}

/// Shared content-addressed cache of EDA invocation results.
///
/// Cloning is cheap and shares the underlying store — the bench harness
/// clones one cache into every `AIVRIL_THREADS` worker's tool suite.
/// Enable it per suite with [`XsimToolSuite::with_cache`]; results are
/// bit-identical with the cache on or off (only wall-clock changes),
/// which `tests/eda_cache.rs` enforces.
///
/// [`XsimToolSuite::with_cache`]: crate::XsimToolSuite::with_cache
#[derive(Debug, Clone, Default)]
pub struct EdaCache {
    inner: Arc<Inner>,
}

impl EdaCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> EdaCache {
        EdaCache::default()
    }

    /// Creates a cache backed by a persistent on-disk store at `dir`
    /// (created lazily on first write, as is this cache's pack in it).
    /// The disk tier is shared across processes, shards and runs: a
    /// memory miss also finds what other caches have written to the
    /// directory since this one was opened. Damaged or alien records
    /// degrade to misses. See `crate::disk` for the format and
    /// robustness contract.
    #[must_use]
    pub fn persistent(dir: impl AsRef<std::path::Path>) -> EdaCache {
        EdaCache {
            inner: Arc::new(Inner {
                disk: Some(DiskStore::new(dir.as_ref())),
                ..Inner::default()
            }),
        }
    }

    /// [`EdaCache::persistent`] with a deterministic fault plan on the
    /// disk tier (`AIVRIL_EDA_FAULTS` disk classes). The disk tier is
    /// an accelerator, so injected storage chaos perturbs only its
    /// diagnostic counters — results still degrade to recomputation.
    #[must_use]
    pub fn persistent_with_faults(
        dir: impl AsRef<std::path::Path>,
        plan: crate::faults::EdaFaultPlan,
    ) -> EdaCache {
        EdaCache {
            inner: Arc::new(Inner {
                disk: Some(DiskStore::new(dir.as_ref()).with_faults(plan)),
                ..Inner::default()
            }),
        }
    }

    /// Diagnostic counters of the disk tier; `None` for a memory-only
    /// cache. Unlike [`EdaCache::stats`] these depend on what earlier
    /// runs left on disk, so they never enter canonical artifacts.
    #[must_use]
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.inner.disk.as_ref().map(DiskStore::stats)
    }

    /// Snapshot of the lifetime hit/miss/entry counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            entries: (self.inner.analyze.len() + self.inner.compile.len() + self.inner.sim.len())
                as u64,
            parse_hits: self.inner.parse_hits.load(Ordering::Relaxed),
            parse_misses: self.inner.parse_misses.load(Ordering::Relaxed),
            elab_hits: self.inner.elab_hits.load(Ordering::Relaxed),
            elab_misses: self.inner.elab_misses.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn analyze_slot(&self, key: u128) -> (Slot<CompileReport>, bool) {
        self.inner
            .analyze
            .slot(key, &self.inner.hits, &self.inner.misses)
    }

    pub(crate) fn compile_slot(&self, key: u128) -> (Slot<CompileEntry>, bool) {
        // Memory-only: the entry's design handle is process-local IR
        // with no serial form (see `crate::disk`).
        self.inner
            .compile
            .slot(key, &self.inner.hits, &self.inner.misses)
    }

    /// Per-file parse memo (memory-only: ASTs have no serial form).
    /// Counted separately from whole-invocation hits/misses.
    pub(crate) fn parse_slot(&self, key: u128) -> (Slot<ParsedFile>, bool) {
        self.inner
            .parse
            .slot(key, &self.inner.parse_hits, &self.inner.parse_misses)
    }

    /// Elaboration memo keyed by the top's instantiation-closure source
    /// (memory-only), holding the last [`ELAB_MEMO_CAPACITY`] designs.
    /// Counted separately from whole-invocation hits/misses.
    pub(crate) fn elab_slot(&self, key: u128) -> (Slot<ElabEntry>, bool) {
        self.inner
            .elab
            .slot(key, &self.inner.elab_hits, &self.inner.elab_misses)
    }

    pub(crate) fn sim_slot(&self, key: u128) -> (Slot<SimEntry>, bool) {
        self.inner
            .sim
            .slot(key, &self.inner.hits, &self.inner.misses)
    }

    /// The one initialiser of a disk-backed slot: the disk tier's
    /// entry when it holds one, else `compute`'s value, persisted. Run
    /// it inside `get_or_init`, so a thread that finds the slot claimed
    /// waits for this load instead of recomputing and rewriting it.
    /// `compute` runs only when the disk tier misses, so it can flag
    /// that the work ran here.
    pub(crate) fn load_or_compute<V: Persisted>(
        &self,
        key: u128,
        compute: impl FnOnce() -> V,
    ) -> V {
        let Some(disk) = &self.inner.disk else {
            return compute();
        };
        disk.load(key).unwrap_or_else(|| {
            let value = compute();
            disk.store(key, &value);
            value
        })
    }
}

/// Point-in-time cache counters; subtract two snapshots (via
/// [`CacheStats::since`]) to scope them to one evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (including lookups that waited
    /// on a concurrently-computing entry).
    pub hits: u64,
    /// Lookups that claimed a fresh key and ran the tools.
    pub misses: u64,
    /// Distinct keys stored across all shards.
    pub entries: u64,
    /// Per-file parse lookups served from the incremental-compile memo.
    pub parse_hits: u64,
    /// Per-file parse lookups that ran the frontend parser.
    pub parse_misses: u64,
    /// Elaboration lookups served from the incremental-compile memo.
    pub elab_hits: u64,
    /// Elaboration lookups that re-ran the elaborator.
    pub elab_misses: u64,
}

impl CacheStats {
    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache, in `[0, 1]`; `0` when
    /// there were no lookups.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Counter deltas relative to an `earlier` snapshot of the same
    /// cache (entries stay absolute: they describe the store, not the
    /// interval).
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries,
            parse_hits: self.parse_hits - earlier.parse_hits,
            parse_misses: self.parse_misses - earlier.parse_misses,
            elab_hits: self.elab_hits - earlier.elab_hits,
            elab_misses: self.elab_misses - earlier.elab_misses,
        }
    }

    /// Accumulates the counters of a disjoint interval (a shard's
    /// [`CacheStats::since`] delta): counts add, and the entries gauge
    /// takes the larger store size.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries = self.entries.max(other.entries);
        self.parse_hits += other.parse_hits;
        self.parse_misses += other.parse_misses;
        self.elab_hits += other.elab_hits;
        self.elab_misses += other.elab_misses;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate, {} entries; \
             incremental: parse {}/{}, elab {}/{})",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.parse_hits,
            self.parse_misses,
            self.elab_hits,
            self.elab_misses
        )
    }
}

/// The fixed SipHash key of every content key ("aivril.e", "dakey128"
/// as little-endian words). Keys are content addresses, not a defence
/// against chosen inputs, so the key is a constant: it must never
/// change between builds, or every disk-tier entry goes dark.
const SIP_KEY: (u64, u64) = (0x652e_6c69_7276_6961, 0x3832_3179_656b_6164);

/// Builds a content key from an explicit, length-prefixed serialisation
/// (so adjacent fields can never alias), hashed with SipHash-1-3-128
/// under [`SIP_KEY`]. The first field is a kind tag, so keys of
/// different kinds never collide structurally.
struct KeyHasher(Sip13);

impl KeyHasher {
    fn new(kind: &str) -> KeyHasher {
        let mut h = KeyHasher(Sip13::keyed(SIP_KEY.0, SIP_KEY.1));
        h.write_str(kind);
        h
    }

    fn write_u64(&mut self, v: u64) {
        self.0.write(&v.to_le_bytes());
    }

    fn write_u128(&mut self, v: u128) {
        self.0.write(&v.to_le_bytes());
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.0.write(s.as_bytes());
    }

    fn write_digests(&mut self, files: &[u128]) {
        self.write_u64(files.len() as u64);
        for &d in files {
            self.write_u128(d);
        }
    }

    fn write_top(&mut self, top: Option<&str>) {
        match top {
            None => self.write_u64(0),
            Some(t) => {
                self.write_u64(1);
                self.write_str(t);
            }
        }
    }

    fn write_latency(&mut self, m: &ToolLatencyModel) {
        self.write_u64(m.compile_base.to_bits());
        self.write_u64(m.compile_per_kb.to_bits());
        self.write_u64(m.sim_base.to_bits());
        self.write_u64(m.sim_per_minstr.to_bits());
    }

    fn finish(self) -> u128 {
        self.0.finish128()
    }
}

fn language_tag(language: Language) -> u64 {
    match language {
        Language::Verilog => 0,
        Language::Vhdl => 1,
    }
}

/// One digest per file, over its `(name, language, text)`. Every key a
/// tool call derives (the whole-call key the fault gate and the cache
/// share, the per-file parse keys, the elaboration key) is built from
/// these digests. Each file memoises its own ([`HdlFile`]'s digest
/// memo), so a file handed to many calls is hashed once.
pub(crate) fn file_digests(files: &[HdlFile]) -> Vec<u128> {
    files.iter().map(|f| f.digest(file_digest)).collect()
}

/// Hashes one file's `(name, language, text)`.
fn file_digest(f: &HdlFile) -> u128 {
    let mut h = KeyHasher::new("file");
    h.write_str(&f.name);
    h.write_u64(language_tag(f.language));
    h.write_str(&f.text);
    h.finish()
}

/// Key for `ToolSuite::analyze`, over the ordered file digests (file
/// order matters to the tools: logs list files in order).
pub(crate) fn analyze_key(files: &[u128], latency: &ToolLatencyModel) -> u128 {
    let mut h = KeyHasher::new("analyze");
    h.write_digests(files);
    h.write_latency(latency);
    h.finish()
}

/// Key for `compile_to_design` (and `ToolSuite::compile`).
pub(crate) fn compile_key(files: &[u128], top: Option<&str>, latency: &ToolLatencyModel) -> u128 {
    let mut h = KeyHasher::new("compile");
    h.write_digests(files);
    h.write_top(top);
    h.write_latency(latency);
    h.finish()
}

/// Key for the simulation phase of `ToolSuite::simulate` (the compile
/// phase goes through [`compile_key`]).
pub(crate) fn sim_key(
    files: &[u128],
    top: Option<&str>,
    latency: &ToolLatencyModel,
    config: &SimConfig,
) -> u128 {
    let mut h = KeyHasher::new("simulate");
    h.write_digests(files);
    h.write_top(top);
    h.write_latency(latency);
    h.write_u64(config.max_time);
    h.write_u64(u64::from(config.max_deltas_per_step));
    h.write_u64(config.max_instrs_per_activation);
    h.write_u64(config.max_total_instrs);
    h.finish()
}

/// Key for one file's parse in the incremental-compile path: the
/// file's digest (which carries the language that picks the frontend)
/// and its *index* in the call's file list. Spans embed the `FileId`
/// the file was parsed under, and diagnostics rendered from a replayed
/// AST must point at the same position in the source map. Same text at
/// a different index is therefore a different key — correctness over
/// hit rate.
pub(crate) fn parse_key(index: usize, file: u128) -> u128 {
    let mut h = KeyHasher::new("parse");
    h.write_u64(index as u64);
    h.write_u128(file);
    h.finish()
}

/// Key for one elaboration in the incremental-compile path: the
/// resolved top plus the ordered `(index, digest)` set of files that
/// contribute at least one design unit to the top's instantiation
/// closure. Files outside the closure don't influence elaboration, so
/// editing them must (and does) leave this key unchanged.
pub(crate) fn elab_key(language: Language, top: &str, closure: &[(usize, u128)]) -> u128 {
    let mut h = KeyHasher::new("elab");
    h.write_u64(language_tag(language));
    h.write_str(top);
    h.write_u64(closure.len() as u64);
    for &(index, file) in closure {
        h.write_u64(index as u64);
        h.write_u128(file);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> Vec<HdlFile> {
        vec![
            HdlFile::new(
                "inv.v",
                "module inv(input a, output y); assign y = ~a; endmodule\n",
            ),
            HdlFile::new("tb.v", "module tb; endmodule\n"),
        ]
    }

    fn digests() -> Vec<u128> {
        file_digests(&files())
    }

    fn file(name: &str, text: &str) -> u128 {
        file_digests(&[HdlFile::new(name, text)])[0]
    }

    #[test]
    fn keys_are_stable_and_input_sensitive() {
        let m = ToolLatencyModel::default();
        let c = SimConfig::default();
        // Every key kind over the same inputs, as one tuple, so each
        // perturbation below is checked against all five at once.
        let all = |files: &[HdlFile], top: Option<&str>| {
            let d = file_digests(files);
            let closure: Vec<(usize, u128)> = d.iter().copied().enumerate().collect();
            [
                analyze_key(&d, &m),
                compile_key(&d, top, &m),
                sim_key(&d, top, &m, &c),
                parse_key(0, d[0]),
                elab_key(Language::Verilog, top.unwrap_or(""), &closure),
            ]
        };
        let base = all(&files(), Some("tb"));
        assert_eq!(base, all(&files(), Some("tb")), "deterministic");
        let kinds = ["analyze", "compile", "simulate", "parse", "elab"];
        let differs = |other: [u128; 5], what: &str, which: &[&str]| {
            for (k, kind) in kinds.iter().enumerate() {
                if which.contains(kind) {
                    assert_ne!(base[k], other[k], "{kind} key ignores {what}");
                }
            }
        };

        let mut renamed = files();
        renamed[0].name = "other.v".into();
        differs(all(&renamed, Some("tb")), "the file name", &kinds);

        let mut edited = files();
        edited[0].text = format!("{}\n", edited[0].text).into();
        differs(all(&edited, Some("tb")), "the file text", &kinds);

        let mut relang = files();
        relang[0].language = Language::Vhdl;
        differs(all(&relang, Some("tb")), "the language", &kinds);

        // Reordering moves a different file to index 0; the parse key
        // of the file itself is checked at another index below.
        let mut reordered = files();
        reordered.swap(0, 1);
        differs(all(&reordered, Some("tb")), "the file order", &kinds);

        let tops = ["compile", "simulate", "elab"];
        differs(all(&files(), Some("dut")), "the top", &tops);
        differs(
            all(&files(), None),
            "None vs Some(\"tb\")",
            &["compile", "simulate"],
        );
        let d = digests();
        assert_ne!(
            compile_key(&d, None, &m),
            compile_key(&d, Some(""), &m),
            "None vs Some(\"\")"
        );

        let slower = ToolLatencyModel {
            compile_base: 1.0,
            ..m
        };
        assert_ne!(base[0], analyze_key(&d, &slower), "analyze latency");
        assert_ne!(
            base[1],
            compile_key(&d, Some("tb"), &slower),
            "compile latency"
        );
        assert_ne!(
            base[2],
            sim_key(&d, Some("tb"), &slower, &c),
            "simulate latency"
        );
        let tighter = SimConfig { max_time: 10, ..c };
        assert_ne!(base[2], sim_key(&d, Some("tb"), &m, &tighter), "sim config");
    }

    /// A file's memoised digest is read back only while its name,
    /// language and text are the ones it was computed from: after any
    /// change the file digests exactly like a freshly built one.
    #[test]
    fn digest_memo_never_outlives_a_field_change() {
        let fresh = |f: &HdlFile| {
            let mut g = HdlFile::new(f.name.clone(), &*f.text);
            g.language = f.language;
            file_digest(&g)
        };
        let digest = |f: &HdlFile| file_digests(std::slice::from_ref(f))[0];
        let mut f = files().remove(0);
        let original = digest(&f);
        assert_eq!(original, fresh(&f));
        assert_eq!(digest(&f.clone()), original, "a clone shares the memo");

        f.name = "other.v".into();
        assert_eq!(digest(&f), fresh(&f), "renamed");
        f.language = Language::Vhdl;
        assert_eq!(digest(&f), fresh(&f), "language changed");
        f.text = format!("{}// edited\n", f.text).into();
        assert_eq!(digest(&f), fresh(&f), "text replaced");
        let all_changed = digest(&f);
        assert_ne!(all_changed, original);

        // The same text in a new allocation digests the same.
        let mut copy = files().remove(0);
        copy.text = Arc::from(&*copy.text);
        assert_eq!(digest(&copy), original);
    }

    #[test]
    fn incremental_keys_are_position_and_closure_sensitive() {
        let d = digests();
        // The file index: the same file parsed at another position, and
        // a closure listing the same files under other indices.
        assert_ne!(parse_key(0, d[0]), parse_key(1, d[0]), "parse index");
        assert_ne!(parse_key(0, d[0]), parse_key(0, d[1]), "parse file");
        assert_ne!(
            elab_key(Language::Verilog, "tb", &[(0, d[0])]),
            elab_key(Language::Verilog, "tb", &[(1, d[0])]),
            "closure index"
        );
        assert_ne!(
            elab_key(Language::Verilog, "tb", &[(0, d[0])]),
            elab_key(Language::Vhdl, "tb", &[(0, d[0])]),
            "elab language"
        );
        assert_ne!(
            elab_key(Language::Verilog, "tb", &[(0, d[0]), (1, d[1])]),
            elab_key(Language::Verilog, "tb", &[(0, d[0])]),
            "closure size"
        );
    }

    #[test]
    fn length_prefixing_prevents_field_aliasing() {
        let m = ToolLatencyModel::default();
        // The name/text boundary: same concatenated bytes, different
        // split (extensions kept equal so the language is too).
        assert_ne!(file("ab.v", "cd"), file("a.v", "bcd"));
        assert_ne!(file("a.v", ""), file("", "a.v"));
        // Concatenation across files: one file vs the same bytes split
        // over two files, and the same texts with the boundary moved.
        let one = file_digests(&[HdlFile::new(
            "x.v",
            "module a; endmodule module b; endmodule",
        )]);
        let two = file_digests(&[
            HdlFile::new("x.v", "module a; endmodule"),
            HdlFile::new("x.v", " module b; endmodule"),
        ]);
        assert_ne!(analyze_key(&one, &m), analyze_key(&two, &m));
        let moved = file_digests(&[
            HdlFile::new("x.v", "module a; endmodule "),
            HdlFile::new("x.v", "module b; endmodule"),
        ]);
        assert_ne!(analyze_key(&two, &m), analyze_key(&moved, &m));
        // A top whose bytes could pass for the latency words.
        let d = digests();
        assert_ne!(
            compile_key(&d, Some(""), &m),
            compile_key(&d, Some("\0\0\0\0\0\0\0\0"), &m)
        );
        // An empty file list is its own key, distinct from one empty file.
        assert_ne!(
            analyze_key(&[], &m),
            analyze_key(&file_digests(&[HdlFile::new("", "")]), &m)
        );
    }

    /// Pinned values: disk-tier entries of one build must be found by
    /// the next, so a key may only change with a deliberate format
    /// bump (`VERSION` in `crate::disk`). Update these only together
    /// with that bump.
    #[test]
    fn golden_key_values() {
        let m = ToolLatencyModel::default();
        let c = SimConfig::default();
        let d = digests();
        let got = [
            d[0],
            d[1],
            analyze_key(&d, &m),
            compile_key(&d, Some("tb"), &m),
            compile_key(&d, None, &m),
            sim_key(&d, Some("tb"), &m, &c),
            parse_key(1, d[1]),
            elab_key(Language::Vhdl, "tb", &[(0, d[0]), (1, d[1])]),
        ];
        let want: [u128; 8] = [
            0xf2b4_32fd_85f3_950d_9c54_2f2b_7197_2f63,
            0xcc96_7df0_7bc5_6335_b845_8772_0d00_6f10,
            0xedc6_d7a8_d555_c5ea_c88b_8078_03e7_e52b,
            0x4d6a_eadd_b50a_be02_7ff3_3776_d524_df9b,
            0xc72e_96bc_4720_f2b7_f795_3330_4b77_eac1,
            0xd16b_9dd8_6ef9_0698_e79d_b5b2_8076_c296,
            0x9ac2_02cd_b0df_657b_1ffb_5921_b4d8_30ab,
            0x2b18_7056_5bf3_2aea_72a3_475e_f240_046e,
        ];
        for (i, (got, want)) in got.iter().zip(want).enumerate() {
            assert_eq!(format!("{got:032x}"), format!("{want:032x}"), "key #{i}");
        }
    }

    #[test]
    fn op_tags_and_sim_config_separate_shards() {
        let m = ToolLatencyModel::default();
        let c = SimConfig::default();
        let d = digests();
        let compile = compile_key(&d, None, &m);
        let analyze = analyze_key(&d, &m);
        let sim = sim_key(&d, None, &m, &c);
        assert_ne!(compile, analyze);
        assert_ne!(compile, sim);
        assert_ne!(analyze, sim);
    }

    #[test]
    fn miss_then_hit_accounting() {
        let cache = EdaCache::new();
        let key = analyze_key(&digests(), &ToolLatencyModel::default());
        let (slot, hit) = cache.analyze_slot(key);
        assert!(!hit, "first lookup claims the key");
        let report = CompileReport {
            success: true,
            log: String::new(),
            messages: Vec::new(),
            modeled_latency: 1.0,
        };
        let _ = slot.set(report);
        let (slot2, hit2) = cache.analyze_slot(key);
        assert!(hit2, "second lookup is a hit");
        assert!(slot2.get().is_some_and(|r| r.success));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.lookups(), 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clones_share_state() {
        let cache = EdaCache::new();
        let clone = cache.clone();
        let key = analyze_key(&digests(), &ToolLatencyModel::default());
        let _ = cache.analyze_slot(key);
        let (_, hit) = clone.analyze_slot(key);
        assert!(hit, "clone sees entries inserted through the original");
    }

    #[test]
    fn concurrent_lookups_count_one_miss_per_key() {
        // Whatever the interleaving, a key is missed exactly once.
        let cache = EdaCache::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..32u64 {
                        let mut h = KeyHasher::new("test");
                        h.write_u64(i);
                        let (slot, _) = cache.sim_slot(h.finish());
                        let _ = slot.get_or_init(|| SimEntry {
                            report: SimReport {
                                compiled: true,
                                passed: true,
                                log: String::new(),
                                failures: Vec::new(),
                                compile_messages: Vec::new(),
                                end_time: i,
                                finished: true,
                                diverged: None,
                                modeled_latency: 0.0,
                            },
                            sim_latency: 0.0,
                            kernel: None,
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 32, "one miss per distinct key");
        assert_eq!(stats.hits, 8 * 32 - 32);
        assert_eq!(stats.entries, 32);
    }

    #[test]
    fn stats_since_scopes_an_interval() {
        let cache = EdaCache::new();
        let key = analyze_key(&digests(), &ToolLatencyModel::default());
        let _ = cache.analyze_slot(key);
        let before = cache.stats();
        let _ = cache.analyze_slot(key);
        let _ = cache.analyze_slot(key);
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.misses), (2, 0));
        assert_eq!(delta.entries, 1, "entries stay absolute");
    }

    #[test]
    fn display_is_humane() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
            parse_hits: 4,
            parse_misses: 2,
            elab_hits: 1,
            elab_misses: 1,
        };
        assert_eq!(
            s.to_string(),
            "3 hits / 1 misses (75.0% hit rate, 1 entries; \
             incremental: parse 4/2, elab 1/1)"
        );
    }

    #[test]
    fn parse_and_elab_counters_are_separate_from_invocation_counters() {
        let cache = EdaCache::new();
        let a = file("a.v", "module a; endmodule\n");
        let pk = parse_key(0, a);
        let (slot, hit) = cache.parse_slot(pk);
        assert!(!hit);
        let _ = slot.set(ParsedFile::Verilog(
            aivril_verilog::ast::SourceUnit::default(),
            Diagnostics::new(),
        ));
        let (_, hit) = cache.parse_slot(pk);
        assert!(hit);

        let ek = elab_key(Language::Verilog, "a", &[(0, a)]);
        let (slot, hit) = cache.elab_slot(ek);
        assert!(!hit);
        let _ = slot.set(ElabEntry {
            design: None,
            diags: Diagnostics::new(),
        });
        let (_, hit) = cache.elab_slot(ek);
        assert!(hit);

        let stats = cache.stats();
        // Whole-invocation counters (and the entries gauge the exact
        // count tests pin) must be untouched by phase-level lookups.
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        assert_eq!((stats.parse_hits, stats.parse_misses), (1, 1));
        assert_eq!((stats.elab_hits, stats.elab_misses), (1, 1));
    }
}
