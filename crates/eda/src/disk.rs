//! The persistent tier of the EDA result cache: one file per
//! content-addressed key under `AIVRIL_EDA_CACHE_DIR`, shared across
//! processes, shards and runs.
//!
//! # Entry format
//!
//! Every entry is a single line of [`aivril_obs::codec`] tokens:
//!
//! ```text
//! aivril.edacache <version> <op> <fnv64-of-payload:016x> <payload ...>
//! ```
//!
//! The checksum and payload are one [`seal`]ed record.
//!
//! The payload serialises the complete report — including the modeled
//! latency and, for simulation entries, the kernel telemetry — with
//! floats as exact bit patterns, so a disk hit is byte-identical to a
//! live run, exactly like a memory hit.
//!
//! # Robustness contract
//!
//! A disk entry can be truncated (killed writer), garbage (corrupted
//! storage), or from a different format version. All such entries must
//! **degrade to a miss**: the magic/version/op header, the checksum,
//! and the total decoding of the codec each independently reject bad
//! bytes, and every I/O error is swallowed (and counted) rather than
//! propagated. The cache never panics on disk content and never
//! returns a wrong report — `tests/disk_cache.rs` enforces this.
//!
//! # Concurrency
//!
//! Writers stage the entry in a process-unique tempfile and `rename`
//! it into place — atomic on POSIX — so readers only ever observe
//! absent or complete files. Two processes racing on the same key both
//! write the same content (results are pure functions of the key), so
//! whichever rename lands last is a no-op in value terms.
//!
//! # What is persisted
//!
//! Only the `analyze` and `simulate` shards. A `compile` entry carries
//! the elaborated `Arc<Design>` — process-local IR that is cheap to
//! rebuild and has no serial form — so compile results stay
//! memory-only (see DESIGN.md §9).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::SimEntry;
use crate::faults::{DiskWriteFault, EdaFaultPlan};
use crate::report::{CompileReport, SimDiverged, SimReport, TestFailure, ToolMessage};
use aivril_hdl::diag::Severity;
use aivril_obs::codec::{seal, unseal, Reader, Writer};
use aivril_sim::{KernelTelemetry, LimitKind};

const MAGIC: &str = "aivril.edacache";
/// Bump on any change to the payload layout below.
const VERSION: u64 = 1;

/// Diagnostic counters for the disk tier. Like the in-memory
/// [`CacheStats`](crate::CacheStats) they are monotone, but unlike them
/// they are *not* schedule-independent across process topologies (a
/// shard that starts later finds more entries on disk), so they are
/// surfaced for operators and never folded into canonical artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Memory misses answered from the disk store.
    pub hits: u64,
    /// Memory misses that also missed on disk (and ran the tools).
    pub misses: u64,
    /// Entries written (one per computed analyze/simulate result).
    pub writes: u64,
    /// I/O or decode failures swallowed as misses.
    pub errors: u64,
}

#[derive(Debug, Default)]
pub(crate) struct DiskStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    errors: AtomicU64,
    faults: EdaFaultPlan,
}

impl DiskStore {
    pub(crate) fn new(dir: &Path) -> DiskStore {
        // A writer killed between staging and rename leaves a `.tmp-*`
        // file behind. Sweep them on open: the rename never happened,
        // so no reader can be holding one, and a live writer that loses
        // its tempfile merely counts an error and recomputes.
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if name.to_string_lossy().starts_with(".tmp-") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        DiskStore {
            dir: dir.to_path_buf(),
            ..DiskStore::default()
        }
    }

    /// Installs the deterministic fault plan for this store's disk
    /// classes (short writes, probe EIO, stale tempfiles).
    pub(crate) fn with_faults(mut self, plan: EdaFaultPlan) -> DiskStore {
        self.faults = plan;
        self
    }

    pub(crate) fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, op: &str, key: u128) -> PathBuf {
        self.dir.join(format!("{op}-{key:032x}.entry"))
    }

    /// Loads and decodes one entry; any failure is a miss.
    pub(crate) fn load<V: Persisted>(&self, key: u128) -> Option<V> {
        let op = V::OP;
        if self.faults.roll_disk_probe(op, key) {
            // Injected EIO on the probe: exactly the I/O-error path
            // below — counted, degraded to a miss, never propagated.
            self.errors.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let text = match fs::read_to_string(self.entry_path(op, key)) {
            Ok(text) => text,
            Err(e) => {
                if e.kind() != std::io::ErrorKind::NotFound {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let Some(payload) = decode_header(&text, op) else {
            self.errors.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let mut r = Reader::new(payload);
        let value = V::decode(&mut r).filter(|_| r.at_end());
        // Sealed but undecodable: a version-1 writer never produces
        // this, but the contract is miss, not panic.
        let counter = if value.is_some() {
            &self.hits
        } else {
            &self.errors
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Atomically writes one entry; failures are counted and ignored
    /// (the disk tier is an accelerator, never a correctness
    /// dependency).
    pub(crate) fn store<V: Persisted>(&self, key: u128, value: &V) {
        let op = V::OP;
        let mut w = Writer::new();
        value.encode(&mut w);
        let mut line = format!("{MAGIC} {VERSION} {op} {}\n", seal(w.payload()));
        let fault = self.faults.roll_disk_store(op, key);
        if fault == Some(DiskWriteFault::ShortWrite) {
            // A writer killed mid-`write` that still got renamed into
            // place by a wrapper: the entry is committed but truncated,
            // and every later load must reject it on the checksum.
            line.truncate(line.len() / 2);
        }
        // Process-unique staging name: within one process, slot
        // insertion already guarantees at most one writer per key.
        let tmp = self
            .dir
            .join(format!(".tmp-{op}-{key:032x}.{}", std::process::id()));
        if fault == Some(DiskWriteFault::StaleTmp) {
            // The writer dies between staging and rename: the tempfile
            // stays behind (the next store open sweeps it) and the
            // entry never lands.
            let _ = fs::create_dir_all(&self.dir);
            let _ = fs::File::create(&tmp).and_then(|mut f| f.write_all(line.as_bytes()));
            self.errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let committed = fs::create_dir_all(&self.dir).is_ok()
            && fs::File::create(&tmp)
                .and_then(|mut f| f.write_all(line.as_bytes()))
                .is_ok()
            && fs::rename(&tmp, self.entry_path(op, key)).is_ok();
        if committed {
            self.writes.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = fs::remove_file(&tmp);
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A result the disk tier persists: the value of one cache shard.
pub(crate) trait Persisted: Sized {
    /// The shard's op tag, in the entry's file name and header.
    const OP: &'static str;
    /// Appends the value's payload tokens.
    fn encode(&self, w: &mut Writer);
    /// Reads the value back; `None` on any malformation.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
}

/// Validates `MAGIC version op` and the seal, and returns the payload.
fn decode_header<'a>(text: &'a str, op: &str) -> Option<&'a str> {
    let rest = text.strip_prefix(MAGIC)?.strip_prefix(' ')?;
    let (version, rest) = rest.split_once(' ')?;
    if version.parse::<u64>().ok()? != VERSION {
        return None;
    }
    let sealed = rest.strip_prefix(op)?.strip_prefix(' ')?;
    unseal(sealed.strip_suffix('\n').unwrap_or(sealed))
}

fn encode_severity(w: &mut Writer, s: Severity) {
    w.u64(match s {
        Severity::Note => 0,
        Severity::Warning => 1,
        Severity::Error => 2,
        Severity::Fatal => 3,
    });
}

fn decode_severity(r: &mut Reader<'_>) -> Option<Severity> {
    Some(match r.u64()? {
        0 => Severity::Note,
        1 => Severity::Warning,
        2 => Severity::Error,
        3 => Severity::Fatal,
        _ => return None,
    })
}

fn encode_messages(w: &mut Writer, messages: &[ToolMessage]) {
    w.u64(messages.len() as u64);
    for m in messages {
        encode_severity(w, m.severity);
        w.str(&m.code);
        w.str(&m.message);
        match &m.file {
            None => w.bool(false),
            Some(f) => {
                w.bool(true);
                w.str(f);
            }
        }
        match m.line {
            None => w.bool(false),
            Some(l) => {
                w.bool(true);
                w.u32(l);
            }
        }
    }
}

fn decode_messages(r: &mut Reader<'_>) -> Option<Vec<ToolMessage>> {
    let n = r.u64()?;
    if n > 1 << 20 {
        return None;
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(ToolMessage {
            severity: decode_severity(r)?,
            code: r.str()?,
            message: r.str()?,
            file: if r.bool()? { Some(r.str()?) } else { None },
            line: if r.bool()? { Some(r.u32()?) } else { None },
        });
    }
    Some(out)
}

impl Persisted for CompileReport {
    const OP: &'static str = "analyze";

    fn encode(&self, w: &mut Writer) {
        w.bool(self.success);
        w.str(&self.log);
        encode_messages(w, &self.messages);
        w.f64(self.modeled_latency);
    }

    fn decode(r: &mut Reader<'_>) -> Option<CompileReport> {
        Some(CompileReport {
            success: r.bool()?,
            log: r.str()?,
            messages: decode_messages(r)?,
            modeled_latency: r.f64()?,
        })
    }
}

impl Persisted for SimEntry {
    const OP: &'static str = "simulate";

    fn encode(&self, w: &mut Writer) {
        let report = &self.report;
        w.bool(report.compiled);
        w.bool(report.passed);
        w.str(&report.log);
        w.u64(report.failures.len() as u64);
        for f in &report.failures {
            match f.case {
                None => w.bool(false),
                Some(c) => {
                    w.bool(true);
                    w.u32(c);
                }
            }
            w.str(&f.message);
        }
        encode_messages(w, &report.compile_messages);
        w.u64(report.end_time);
        w.bool(report.finished);
        match &report.diverged {
            None => w.bool(false),
            Some(d) => {
                w.bool(true);
                w.u64(match d.limit {
                    LimitKind::DeltaCycles => 0,
                    LimitKind::ProcessInstructions => 1,
                    LimitKind::TotalInstructions => 2,
                });
                w.u64(d.at_time);
                w.u64(d.instructions);
            }
        }
        w.f64(report.modeled_latency);
        w.f64(self.sim_latency);
        match &self.kernel {
            None => w.bool(false),
            Some(k) => {
                w.bool(true);
                k.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<SimEntry> {
        let compiled = r.bool()?;
        let passed = r.bool()?;
        let log = r.str()?;
        let nfails = r.u64()?;
        if nfails > 1 << 20 {
            return None;
        }
        let mut failures = Vec::with_capacity(nfails as usize);
        for _ in 0..nfails {
            failures.push(TestFailure {
                case: if r.bool()? { Some(r.u32()?) } else { None },
                message: r.str()?,
            });
        }
        let compile_messages = decode_messages(r)?;
        let end_time = r.u64()?;
        let finished = r.bool()?;
        let diverged = if r.bool()? {
            Some(SimDiverged {
                limit: match r.u64()? {
                    0 => LimitKind::DeltaCycles,
                    1 => LimitKind::ProcessInstructions,
                    2 => LimitKind::TotalInstructions,
                    _ => return None,
                },
                at_time: r.u64()?,
                instructions: r.u64()?,
            })
        } else {
            None
        };
        let modeled_latency = r.f64()?;
        let sim_latency = r.f64()?;
        let kernel = if r.bool()? {
            Some(KernelTelemetry::decode(r)?)
        } else {
            None
        };
        Some(SimEntry {
            report: SimReport {
                compiled,
                passed,
                log,
                failures,
                compile_messages,
                end_time,
                finished,
                diverged,
                modeled_latency,
            },
            sim_latency,
            kernel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("aivril-disk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn report() -> CompileReport {
        CompileReport {
            success: false,
            log: "ERROR: [VRFC 10-91] syntax error\nsecond line\n".into(),
            messages: vec![ToolMessage {
                severity: Severity::Error,
                code: "VRFC 10-91".into(),
                message: "syntax error near 'endmodule'".into(),
                file: Some("adder.v".into()),
                line: Some(7),
            }],
            modeled_latency: 0.1 + 0.2,
        }
    }

    #[test]
    fn analyze_round_trip_is_exact() {
        let store = DiskStore::new(&dir("ana"));
        store.store(42, &report());
        let back = store.load::<CompileReport>(42).expect("disk hit");
        let want = report();
        assert_eq!(back.success, want.success);
        assert_eq!(back.log, want.log);
        assert_eq!(back.messages, want.messages);
        assert_eq!(
            back.modeled_latency.to_bits(),
            want.modeled_latency.to_bits()
        );
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes, s.errors), (1, 0, 1, 0));
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn absent_wrong_version_and_corrupt_entries_miss() {
        let store = DiskStore::new(&dir("bad"));
        assert!(store.load::<CompileReport>(7).is_none(), "absent file");
        store.store(7, &report());
        let path = store.entry_path("analyze", 7);

        let good = fs::read_to_string(&path).expect("entry");
        fs::write(
            &path,
            good.replace("aivril.edacache 1 ", "aivril.edacache 999 "),
        )
        .unwrap();
        assert!(store.load::<CompileReport>(7).is_none(), "wrong version");

        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(store.load::<CompileReport>(7).is_none(), "truncated entry");

        fs::write(&path, b"total garbage\0\xff bytes").unwrap();
        assert!(store.load::<CompileReport>(7).is_none(), "garbage bytes");

        // Valid checksum over a tampered payload is still rejected by
        // the checksum (sum was computed over the original payload).
        fs::write(&path, good.replace("$adder.v", "$evil.v")).unwrap();
        assert!(
            store.load::<CompileReport>(7).is_none(),
            "checksum mismatch"
        );
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn every_truncation_and_bit_flip_of_an_entry_misses_or_is_exact() {
        let d = dir("flips");
        let store = DiskStore::new(&d);
        store.store(5, &report());
        let path = store.entry_path("analyze", 5);
        let good = fs::read(&path).unwrap();
        let want = format!("{:?}", report());
        // Every truncation misses, except the one that drops only the
        // optional trailing newline.
        for cut in 0..good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            let back = store.load::<CompileReport>(5).map(|r| format!("{r:?}"));
            let expect = (cut == good.len() - 1).then(|| want.clone());
            assert_eq!(back, expect, "cut at {cut}");
        }
        let mut served = 0;
        for at in 0..good.len() {
            for bit in 0..8 {
                let mut flipped = good.clone();
                flipped[at] ^= 1 << bit;
                fs::write(&path, &flipped).unwrap();
                if let Some(back) = store.load::<CompileReport>(5) {
                    // Only a flip the seal cannot see may be served: the
                    // case of a checksum hex letter.
                    assert_eq!(format!("{back:?}"), want, "byte {at} bit {bit}");
                    served += 1;
                }
            }
        }
        assert!(served <= 16, "{served} damaged entries were served");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn stale_tempfiles_are_swept_on_open_and_never_decoded() {
        let d = dir("tmp");
        fs::create_dir_all(&d).unwrap();
        // A dead writer's staging file with a fully valid entry line in
        // it: it must be removed on open, and until then it must never
        // be served as an entry (loads go through `entry_path` only).
        let mut w = Writer::new();
        report().encode(&mut w);
        let line = format!("{MAGIC} {VERSION} analyze {}\n", seal(w.payload()));
        let stale = d.join(".tmp-analyze-00000000000000000000000000000007.99999");
        fs::write(&stale, line).unwrap();
        let store = DiskStore::new(&d);
        assert!(!stale.exists(), "open sweeps dead writers' tempfiles");
        assert!(
            store.load::<CompileReport>(7).is_none(),
            "a tempfile is not an entry"
        );
        // Real entries survive the sweep.
        store.store(7, &report());
        let store2 = DiskStore::new(&d);
        assert!(store2.load::<CompileReport>(7).is_some());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn injected_disk_faults_degrade_to_misses() {
        // Probe EIO: the entry is on disk and intact, but the faulted
        // store cannot read it; a clean store can.
        let d = dir("eio");
        let clean = DiskStore::new(&d);
        clean.store(3, &report());
        let faulted =
            DiskStore::new(&d).with_faults(EdaFaultPlan::parse("disk_probe_eio=1.0").unwrap());
        assert!(faulted.load::<CompileReport>(3).is_none());
        let s = faulted.stats();
        assert_eq!((s.misses, s.errors), (1, 1));
        assert!(clean.load::<CompileReport>(3).is_some());
        let _ = fs::remove_dir_all(&d);

        // Short write: the entry lands truncated; loads reject it on
        // the checksum and degrade to a miss.
        let d = dir("short");
        let short =
            DiskStore::new(&d).with_faults(EdaFaultPlan::parse("disk_short_write=1.0").unwrap());
        short.store(3, &report());
        assert!(short.entry_path("analyze", 3).exists());
        assert!(DiskStore::new(&d).load::<CompileReport>(3).is_none());
        let _ = fs::remove_dir_all(&d);

        // Stale tmp: the entry never lands, the tempfile stays behind,
        // and the next open sweeps it.
        let d = dir("stale");
        let stale =
            DiskStore::new(&d).with_faults(EdaFaultPlan::parse("disk_stale_tmp=1.0").unwrap());
        stale.store(3, &report());
        assert!(!stale.entry_path("analyze", 3).exists());
        let tmps = fs::read_dir(&d)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .count();
        assert_eq!(tmps, 1, "the dead writer's tempfile is left behind");
        let _ = DiskStore::new(&d);
        let tmps = fs::read_dir(&d)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .count();
        assert_eq!(tmps, 0, "reopening sweeps it");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn sim_entry_round_trip_with_divergence() {
        let store = DiskStore::new(&dir("sim"));
        let entry = SimEntry {
            report: SimReport {
                compiled: true,
                passed: false,
                log: "Test Case 2 Failed: q stuck (at time 52)\n".into(),
                failures: vec![TestFailure {
                    case: Some(2),
                    message: "Test Case 2 Failed: q stuck (at time 52)".into(),
                }],
                compile_messages: Vec::new(),
                end_time: 52,
                finished: false,
                diverged: Some(SimDiverged {
                    limit: LimitKind::DeltaCycles,
                    at_time: 52,
                    instructions: 1234,
                }),
                modeled_latency: 1.5,
            },
            sim_latency: 0.75,
            kernel: None,
        };
        store.store(9, &entry);
        let back = store.load::<SimEntry>(9).expect("disk hit");
        assert_eq!(back.report.failures, entry.report.failures);
        assert_eq!(back.report.diverged, entry.report.diverged);
        assert_eq!(back.sim_latency.to_bits(), entry.sim_latency.to_bits());
        assert!(back.kernel.is_none());
        // An analyze lookup on a simulate key's file name misses (op
        // tag mismatch can't alias shards even on disk).
        assert!(store.load::<CompileReport>(9).is_none());
        let _ = fs::remove_dir_all(&store.dir);
    }
}
