//! Content-addressed result cache for EDA invocations.
//!
//! AIVRIL2's corrective loops re-invoke the tools on near-duplicate
//! inputs constantly: the testbench is recompiled unchanged on every
//! iteration, `SimLlm` derives candidates by fault-injecting golden RTL
//! (so distinct grid runs converge to identical text), and the scoring
//! pass recompiles sources the pipeline already compiled. Every tool
//! invocation here is a pure function of its inputs, so memoization is
//! sound with **no invalidation logic at all** — a key can never go
//! stale because nothing outside the key influences the result.
//!
//! # Key derivation
//!
//! A key is a 128-bit FNV-1a hash over an unambiguous serialisation of
//! everything the invocation reads:
//!
//! - an operation tag (`analyze` / `compile` / `simulate`), so the
//!   three shards can never alias;
//! - the ordered `(name, language, text)` file set, each string
//!   length-prefixed (file order matters to the tools: the first file's
//!   language selects the frontend, and logs list files in order);
//! - the `top` override (tagged, so `None` differs from `Some("")`);
//! - the [`ToolLatencyModel`] constants as IEEE-754 bit patterns
//!   (reports embed `modeled_latency`);
//! - for simulation, the [`SimConfig`] limits (they shape truncation
//!   and therefore logs, pass/fail, and instruction counts).
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
//! # Why modeled latency is stored, not recomputed
//!
//! The latency model is part of the *result* (`modeled_latency` drives
//! Figure 3), and recomputing it on a hit would need the instruction
//! count — which only the kernel run produces. Storing the full report
//! makes a hit byte-identical to a live run by construction rather than
//! by reimplementation.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::disk::{DiskStats, DiskStore, Persisted};
use crate::latency::ToolLatencyModel;
use crate::report::{CompileReport, SimReport};
use crate::source::{HdlFile, Language};
use aivril_hdl::diag::Diagnostics;
use aivril_hdl::ir::Design;
use aivril_sim::{KernelTelemetry, SimConfig};

/// A compile shard entry: the report plus the elaborated design, so a
/// hit also skips re-elaboration for `simulate`'s compile phase.
#[derive(Debug, Clone)]
pub(crate) struct CompileEntry {
    pub(crate) report: CompileReport,
    pub(crate) design: Option<Arc<Design>>,
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

/// One keyed shard with insert-counts-as-miss accounting.
#[derive(Debug)]
struct Shard<V> {
    map: RwLock<HashMap<u128, Slot<V>>>,
}

impl<V> Default for Shard<V> {
    // Manual impl: the derive would demand `V: Default`, which the
    // entry types have no reason to satisfy.
    fn default() -> Shard<V> {
        Shard {
            map: RwLock::new(HashMap::new()),
        }
    }
}

impl<V> Shard<V> {
    /// Returns the slot for `key` and whether this lookup was a hit,
    /// bumping the shared counters. See the module docs for why the
    /// accounting is schedule-independent.
    fn slot(&self, key: u128, hits: &AtomicU64, misses: &AtomicU64) -> (Slot<V>, bool) {
        if let Some(slot) = self.map.read().expect("cache lock").get(&key) {
            hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(slot), true);
        }
        let mut map = self.map.write().expect("cache lock");
        match map.entry(key) {
            Entry::Occupied(e) => {
                hits.fetch_add(1, Ordering::Relaxed);
                (Arc::clone(e.get()), true)
            }
            Entry::Vacant(e) => {
                misses.fetch_add(1, Ordering::Relaxed);
                (Arc::clone(e.insert(Arc::new(OnceLock::new()))), false)
            }
        }
    }

    fn len(&self) -> usize {
        self.map.read().expect("cache lock").len()
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
    elab: Shard<ElabEntry>,
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
    /// (created lazily on first write). The disk tier is shared across
    /// processes, shards and runs; corrupt or alien entries degrade to
    /// misses. See `crate::disk` for the format and robustness
    /// contract.
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
        // Memory-only: the entry's `Arc<Design>` is process-local IR
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
    /// (memory-only). Counted separately from whole-invocation
    /// hits/misses.
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

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental 128-bit FNV-1a over an explicit, length-prefixed
/// serialisation (so adjacent fields can never alias).
struct KeyHasher(u128);

impl KeyHasher {
    fn new(op: &str) -> KeyHasher {
        let mut h = KeyHasher(FNV128_OFFSET);
        h.write_str(op);
        h
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    fn write_files(&mut self, files: &[HdlFile]) {
        self.write_u64(files.len() as u64);
        for f in files {
            self.write_str(&f.name);
            self.write_u64(match f.language {
                Language::Verilog => 0,
                Language::Vhdl => 1,
            });
            self.write_str(&f.text);
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
        self.0
    }
}

/// Key for `ToolSuite::analyze`.
pub(crate) fn analyze_key(files: &[HdlFile], latency: &ToolLatencyModel) -> u128 {
    let mut h = KeyHasher::new("analyze");
    h.write_files(files);
    h.write_latency(latency);
    h.finish()
}

/// Key for `compile_to_design` (and `ToolSuite::compile`).
pub(crate) fn compile_key(
    files: &[HdlFile],
    top: Option<&str>,
    latency: &ToolLatencyModel,
) -> u128 {
    let mut h = KeyHasher::new("compile");
    h.write_files(files);
    h.write_top(top);
    h.write_latency(latency);
    h.finish()
}

/// Key for the simulation phase of `ToolSuite::simulate` (the compile
/// phase goes through [`compile_key`]).
pub(crate) fn sim_key(
    files: &[HdlFile],
    top: Option<&str>,
    latency: &ToolLatencyModel,
    config: &SimConfig,
) -> u128 {
    let mut h = KeyHasher::new("simulate");
    h.write_files(files);
    h.write_top(top);
    h.write_latency(latency);
    h.write_u64(config.max_time);
    h.write_u64(u64::from(config.max_deltas_per_step));
    h.write_u64(config.max_instrs_per_activation);
    h.write_u64(config.max_total_instrs);
    h.finish()
}

fn language_tag(language: Language) -> u64 {
    match language {
        Language::Verilog => 0,
        Language::Vhdl => 1,
    }
}

/// Key for one file's parse in the incremental-compile path.
///
/// The file's *index* in the compile file list is part of the key:
/// spans embed the `FileId` the file was parsed under, and diagnostics
/// rendered from a replayed AST must point at the same position in the
/// source map. Same text at a different index is therefore a different
/// key — correctness over hit rate.
pub(crate) fn parse_key(language: Language, index: usize, name: &str, text: &str) -> u128 {
    let mut h = KeyHasher::new("parse");
    h.write_u64(language_tag(language));
    h.write_u64(index as u64);
    h.write_str(name);
    h.write_str(text);
    h.finish()
}

/// Key for one elaboration in the incremental-compile path: the
/// resolved top plus the ordered `(index, name, text)` set of files
/// that contribute at least one design unit to the top's instantiation
/// closure. Files outside the closure don't influence elaboration, so
/// editing them must (and does) leave this key unchanged.
pub(crate) fn elab_key(language: Language, top: &str, closure: &[(usize, &str, &str)]) -> u128 {
    let mut h = KeyHasher::new("elab");
    h.write_u64(language_tag(language));
    h.write_str(top);
    h.write_u64(closure.len() as u64);
    for &(index, name, text) in closure {
        h.write_u64(index as u64);
        h.write_str(name);
        h.write_str(text);
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

    #[test]
    fn keys_are_stable_and_input_sensitive() {
        let m = ToolLatencyModel::default();
        let base = compile_key(&files(), Some("tb"), &m);
        assert_eq!(base, compile_key(&files(), Some("tb"), &m), "deterministic");

        let mut renamed = files();
        renamed[0].name = "other.v".into();
        assert_ne!(base, compile_key(&renamed, Some("tb"), &m), "file name");

        let mut edited = files();
        edited[1].text.push('\n');
        assert_ne!(base, compile_key(&edited, Some("tb"), &m), "file text");

        let mut relang = files();
        relang[1].language = Language::Vhdl;
        assert_ne!(base, compile_key(&relang, Some("tb"), &m), "language");

        let mut reordered = files();
        reordered.swap(0, 1);
        assert_ne!(base, compile_key(&reordered, Some("tb"), &m), "file order");

        assert_ne!(base, compile_key(&files(), None, &m), "top override");
        assert_ne!(
            base,
            compile_key(&files(), Some(""), &m),
            "None vs Some(\"\")"
        );

        let slower = ToolLatencyModel {
            compile_base: 1.0,
            ..m
        };
        assert_ne!(base, compile_key(&files(), Some("tb"), &slower), "latency");
    }

    #[test]
    fn op_tags_and_sim_config_separate_shards() {
        let m = ToolLatencyModel::default();
        let c = SimConfig::default();
        let compile = compile_key(&files(), None, &m);
        let analyze = analyze_key(&files(), &m);
        let sim = sim_key(&files(), None, &m, &c);
        assert_ne!(compile, analyze);
        assert_ne!(compile, sim);
        assert_ne!(analyze, sim);

        let tighter = SimConfig {
            max_time: 10,
            ..SimConfig::default()
        };
        assert_ne!(sim, sim_key(&files(), None, &m, &tighter), "sim config");
    }

    #[test]
    fn length_prefixing_prevents_field_aliasing() {
        let m = ToolLatencyModel::default();
        // Same concatenated bytes, different (name, text) split.
        let a = vec![HdlFile::new("ab.v", "cd")];
        let b = vec![HdlFile::new("a.v", "bcd")];
        assert_ne!(compile_key(&a, None, &m), compile_key(&b, None, &m));
    }

    #[test]
    fn miss_then_hit_accounting() {
        let cache = EdaCache::new();
        let key = analyze_key(&files(), &ToolLatencyModel::default());
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
        let key = analyze_key(&files(), &ToolLatencyModel::default());
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
        let key = analyze_key(&files(), &ToolLatencyModel::default());
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
        let pk = parse_key(Language::Verilog, 0, "a.v", "module a; endmodule\n");
        let (slot, hit) = cache.parse_slot(pk);
        assert!(!hit);
        let _ = slot.set(ParsedFile::Verilog(
            aivril_verilog::ast::SourceUnit::default(),
            Diagnostics::new(),
        ));
        let (_, hit) = cache.parse_slot(pk);
        assert!(hit);

        let ek = elab_key(
            Language::Verilog,
            "a",
            &[(0, "a.v", "module a; endmodule\n")],
        );
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

    #[test]
    fn incremental_keys_are_position_and_closure_sensitive() {
        let base = parse_key(Language::Verilog, 0, "a.v", "text");
        assert_eq!(base, parse_key(Language::Verilog, 0, "a.v", "text"));
        assert_ne!(
            base,
            parse_key(Language::Verilog, 1, "a.v", "text"),
            "index"
        );
        assert_ne!(
            base,
            parse_key(Language::Vhdl, 0, "a.v", "text"),
            "language"
        );
        assert_ne!(base, parse_key(Language::Verilog, 0, "b.v", "text"), "name");
        assert_ne!(
            base,
            parse_key(Language::Verilog, 0, "a.v", "other"),
            "text"
        );

        let closure = [(0usize, "a.v", "ta"), (2usize, "c.v", "tc")];
        let e = elab_key(Language::Verilog, "top", &closure);
        assert_eq!(e, elab_key(Language::Verilog, "top", &closure));
        assert_ne!(e, elab_key(Language::Verilog, "other", &closure), "top");
        let edited = [(0usize, "a.v", "ta"), (2usize, "c.v", "TC")];
        assert_ne!(
            e,
            elab_key(Language::Verilog, "top", &edited),
            "closure text"
        );
        let shrunk = [(0usize, "a.v", "ta")];
        assert_ne!(
            e,
            elab_key(Language::Verilog, "top", &shrunk),
            "closure size"
        );
    }
}
