//! The persistent tier of the EDA result cache: append-only packs under
//! `AIVRIL_EDA_CACHE_DIR`, shared across processes, shards and runs.
//!
//! # Pack format
//!
//! Each [`DiskStore`] appends to a pack of its own, `{pid}-{n}.pack`,
//! claimed with `create_new` so no two stores ever write one file. A
//! pack is an [`AppendLog`]: the header line `aivril.edacache 2`, then
//! one record per line,
//!
//! ```text
//! <fnv64:016x> <op> <key:032x> <payload ...>
//! ```
//!
//! where everything after the checksum is one [`seal`]ed body, so the
//! seal covers the op and the key as well as the payload. The payload
//! serialises the complete report, including the modeled latency and,
//! for simulation entries, the kernel telemetry, with floats as exact
//! bit patterns, so a disk hit is byte-identical to a live run, exactly
//! like a memory hit.
//!
//! # Finding entries
//!
//! A store keeps an in-process index from `(op, key)` to a record's
//! pack, offset and length. Its own appends are indexed as they are
//! written. A load whose key is absent first indexes what other packs
//! have appended since the store last looked: every newline-terminated
//! line past the offset it reached, whose seal holds. So a store sees
//! entries that concurrent shards write after it opened, and an
//! unterminated tail (a writer killed mid-append) is never indexed.
//!
//! Each record stands alone: its seal binds payload to key. Unlike the
//! checkpoint log, a damaged line therefore says nothing about the
//! lines after it, and indexing skips it and goes on.
//!
//! # Robustness contract
//!
//! A record can be truncated (a killed writer), garbage (corrupted
//! storage), in a file of another format version, or in a file that is
//! no pack at all. All of these **degrade to a miss**: indexing skips
//! lines whose seal fails and files whose header is not this version's,
//! every load re-reads the record and re-verifies its seal, op and key
//! before the codec decodes it, and the decode is total. Every I/O
//! error and every damaged line is swallowed and counted in `errors`,
//! never propagated. The cache never panics on disk content and never
//! returns a wrong report; `tests/disk_cache.rs` enforces this.
//!
//! Version 1 wrote one `{op}-{key:032x}.entry` file per entry, staged
//! through `.tmp-*` files. This version ignores those files and never
//! deletes them.
//!
//! # What is persisted
//!
//! Only the `analyze` and `simulate` shards. A `compile` entry carries
//! a handle on the elaborated design — process-local IR that is cheap
//! to rebuild and has no serial form — so compile results stay
//! memory-only (see DESIGN.md §9).

use std::collections::HashMap;
use std::ffi::{OsStr, OsString};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::cache::SimEntry;
use crate::faults::{DiskWriteFault, EdaFaultPlan};
use crate::report::{CompileReport, SimDiverged, SimReport, TestFailure, ToolMessage};
use aivril_hdl::diag::Severity;
use aivril_obs::applog::{AppendLog, HeaderPolicy};
use aivril_obs::codec::{seal, unseal, Reader, Writer};
use aivril_sim::{KernelTelemetry, LimitKind};

/// The first line of every pack. Bump the version on any change to the
/// record or payload layout below, or to the content keys (see
/// `cache::tests::golden_key_values`).
const HEADER: &str = "aivril.edacache 2";

/// File extension that marks a pack.
const PACK_EXT: &str = "pack";

/// Numbers this process's packs, so stores in one process never pick
/// the same name.
static NEXT_PACK: AtomicU64 = AtomicU64::new(0);

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
    /// I/O failures and damaged records met, each swallowed: whatever
    /// they held is recomputed.
    pub errors: u64,
}

/// Where one record lives: its pack (an index into `Index::paths`),
/// byte offset and length without the newline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    pack: usize,
    offset: u64,
    len: usize,
}

/// How far a store has read one file of the directory.
#[derive(Debug, Clone, Copy)]
enum Seen {
    /// Another store's pack, indexed up to byte `upto`.
    Pack { id: usize, upto: u64 },
    /// This store's own pack (indexed as written) or a file that is not
    /// a pack of this version: never read again.
    Skip,
}

#[derive(Debug, Default)]
struct Index {
    entries: HashMap<(&'static str, u128), Loc>,
    /// Pack paths, by the `pack` id of a [`Loc`].
    paths: Vec<PathBuf>,
    /// Every `*.pack` file name this store has looked at.
    seen: HashMap<OsString, Seen>,
}

/// The pack this store appends to.
#[derive(Debug)]
struct Pack {
    log: AppendLog,
    id: usize,
    /// Bytes in the file: the offset of the next record.
    len: u64,
}

#[derive(Debug, Default)]
pub(crate) struct DiskStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    errors: AtomicU64,
    faults: EdaFaultPlan,
    index: Mutex<Index>,
    /// `None` until the first store, and again after a torn append.
    pack: Mutex<Option<Pack>>,
}

/// Locks `m`, recovering it from a holder that panicked: each update
/// of the index or the pack handle is one insert or assignment, and a
/// stale offset is caught by the load that re-verifies the record.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl DiskStore {
    /// A store over `dir`. Opening does no I/O: the directory and the
    /// store's pack are created on the first store, and other packs are
    /// indexed on the first miss.
    pub(crate) fn new(dir: &Path) -> DiskStore {
        DiskStore {
            dir: dir.to_path_buf(),
            ..DiskStore::default()
        }
    }

    /// Installs the deterministic fault plan for this store's disk
    /// classes (short writes, probe EIO, torn appends).
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

    fn count(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Loads and decodes one entry; any failure is a miss.
    pub(crate) fn load<V: Persisted>(&self, key: u128) -> Option<V> {
        let op = V::OP;
        if self.faults.roll_disk_probe(op, key) {
            // Injected EIO on the probe: exactly the I/O-error path
            // below — counted, degraded to a miss, never propagated.
            Self::count(&self.errors);
            Self::count(&self.misses);
            return None;
        }
        let found = {
            let mut index = lock(&self.index);
            if !index.entries.contains_key(&(op, key)) {
                self.refresh(&mut index);
            }
            let loc = index.entries.get(&(op, key)).copied();
            loc.map(|loc| (index.paths[loc.pack].clone(), loc))
        };
        let Some((path, loc)) = found else {
            Self::count(&self.misses);
            return None;
        };
        let value = read_record(&path, loc).ok().and_then(|line| {
            let (record_op, record_key, payload) = open_record(&line)?;
            if record_op != op || record_key != key {
                return None;
            }
            let mut r = Reader::new(payload);
            V::decode(&mut r).filter(|_| r.at_end())
        });
        if value.is_some() {
            Self::count(&self.hits);
        } else {
            // A damaged record: this store's own short write, or a file
            // changed after it was indexed. Forget it, so the recomputed
            // value's record takes its place.
            let mut index = lock(&self.index);
            if index.entries.get(&(op, key)) == Some(&loc) {
                index.entries.remove(&(op, key));
            }
            Self::count(&self.errors);
            Self::count(&self.misses);
        }
        value
    }

    /// Indexes what the directory's other packs appended since the last
    /// look. Called with the index locked, so one refresh runs at a time.
    fn refresh(&self, index: &mut Index) {
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in dir.flatten() {
            let name = entry.file_name();
            if Path::new(&name).extension() != Some(OsStr::new(PACK_EXT)) {
                continue;
            }
            let (id, upto) = match index.seen.get(&name) {
                Some(Seen::Skip) => continue,
                Some(&Seen::Pack { id, upto }) => (id, upto),
                None => {
                    index.paths.push(entry.path());
                    let id = index.paths.len() - 1;
                    index.seen.insert(name.clone(), Seen::Pack { id, upto: 0 });
                    (id, 0)
                }
            };
            let mut bytes = Vec::new();
            let read = File::open(&index.paths[id]).and_then(|mut f| {
                f.seek(SeekFrom::Start(upto))?;
                f.read_to_end(&mut bytes)
            });
            if read.is_err() {
                Self::count(&self.errors);
                continue;
            }
            let scan = scan_pack(&bytes, upto == 0);
            if scan.foreign {
                index.seen.insert(name, Seen::Skip);
                continue;
            }
            for record in scan.records {
                let loc = Loc {
                    pack: id,
                    offset: upto + record.offset as u64,
                    len: record.len,
                };
                // First wins: every intact record of a key holds the
                // same value, since results are pure functions of it.
                index.entries.entry((record.op, record.key)).or_insert(loc);
            }
            self.errors.fetch_add(scan.damaged, Ordering::Relaxed);
            let upto = upto + scan.consumed as u64;
            index.seen.insert(name, Seen::Pack { id, upto });
        }
    }

    /// Appends one record to this store's pack; failures are counted
    /// and ignored (the disk tier is an accelerator, never a
    /// correctness dependency).
    pub(crate) fn store<V: Persisted>(&self, key: u128, value: &V) {
        let op = V::OP;
        let mut w = Writer::new();
        value.encode(&mut w);
        let line = seal(&format!("{op} {key:032x} {}", w.payload()));
        let mut pack = lock(&self.pack);
        if pack.is_none() {
            *pack = self.open_pack();
        }
        let Some(p) = pack.as_mut() else {
            Self::count(&self.errors);
            return;
        };
        let record = match self.faults.roll_disk_store(op, key) {
            Some(DiskWriteFault::StaleTmp) => {
                // The writer dies mid-append: an unterminated prefix
                // that no scan indexes. The store abandons the pack,
                // so nothing is ever appended after the torn bytes,
                // and opens a fresh one on its next store.
                let _ = p.log.append_torn(&line, line.len() / 2);
                *pack = None;
                Self::count(&self.errors);
                return;
            }
            // A writer that lost the end of the record but still wrote
            // its newline: the line lands with its sealed body cut, and
            // every load rejects it on the seal. (Records are ASCII, so
            // any cut is a character boundary.)
            Some(DiskWriteFault::ShortWrite) => &line[..line.len() / 2],
            None => &line[..],
        };
        let loc = Loc {
            pack: p.id,
            offset: p.len,
            len: record.len(),
        };
        if p.log.append(record).is_err() {
            // The file's length is unknown now; start a fresh pack.
            *pack = None;
            Self::count(&self.errors);
            return;
        }
        p.len += record.len() as u64 + 1;
        lock(&self.index).entries.insert((op, key), loc);
        Self::count(&self.writes);
    }

    /// Claims a fresh pack name and opens it; `None` (counted by the
    /// caller) when the directory cannot be written.
    fn open_pack(&self) -> Option<Pack> {
        fs::create_dir_all(&self.dir).ok()?;
        let (name, path) = loop {
            let n = NEXT_PACK.fetch_add(1, Ordering::Relaxed);
            let name = format!("{}-{n}.{PACK_EXT}", std::process::id());
            let path = self.dir.join(&name);
            // `create_new` makes the claim atomic: a name a dead
            // process with a recycled pid left behind is skipped, so
            // no store ever appends to another writer's pack.
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(_) => break (name, path),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(_) => return None,
            }
        };
        let (log, _) = AppendLog::open(&path, HEADER, HeaderPolicy::Recreate, |_| Some(())).ok()?;
        let mut index = lock(&self.index);
        index.paths.push(path);
        index.seen.insert(name.into(), Seen::Skip);
        Some(Pack {
            log,
            id: index.paths.len() - 1,
            len: HEADER.len() as u64 + 1,
        })
    }
}

/// Reads the record line at `loc`.
fn read_record(path: &Path, loc: Loc) -> io::Result<String> {
    let mut f = File::open(path)?;
    f.seek(SeekFrom::Start(loc.offset))?;
    let mut line = vec![0; loc.len];
    f.read_exact(&mut line)?;
    String::from_utf8(line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The op, key and payload of a record line whose seal holds; `None`
/// for anything else.
fn open_record(line: &str) -> Option<(&str, u128, &str)> {
    let body = unseal(line)?;
    let (op, rest) = body.split_once(' ')?;
    let (key, payload) = rest.split_once(' ')?;
    if key.len() != 32 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    Some((op, u128::from_str_radix(key, 16).ok()?, payload))
}

/// One intact record found by [`scan_pack`], at `offset` bytes into the
/// scanned slice.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScannedRecord {
    op: &'static str,
    key: u128,
    offset: usize,
    len: usize,
}

#[derive(Debug, Default, PartialEq, Eq)]
struct PackScan {
    records: Vec<ScannedRecord>,
    /// Newline-terminated lines that are not intact records.
    damaged: u64,
    /// Bytes up to and including the last newline: where the next scan
    /// resumes. An unterminated tail is left for it.
    consumed: usize,
    /// The file does not start with this version's header.
    foreign: bool,
}

/// Scans pack bytes, starting at the header when `at_start`, else at a
/// record boundary. Never panics, whatever `bytes` holds.
fn scan_pack(bytes: &[u8], at_start: bool) -> PackScan {
    let mut scan = PackScan::default();
    let mut lines = bytes.split_inclusive(|&b| b == b'\n');
    if at_start {
        match lines.next() {
            None => return scan,
            Some(first) => match first.strip_suffix(b"\n") {
                Some(header) if header == HEADER.as_bytes() => scan.consumed = first.len(),
                Some(_) => {
                    scan.foreign = true;
                    return scan;
                }
                // The header is still being written, or the file is
                // something else: wait for a newline to tell.
                None => {
                    scan.foreign = !HEADER.as_bytes().starts_with(first);
                    return scan;
                }
            },
        }
    }
    for line in lines {
        let Some(text) = line.strip_suffix(b"\n") else {
            break;
        };
        let record = std::str::from_utf8(text)
            .ok()
            .and_then(open_record)
            .and_then(|(op, key, _)| Some((persisted_op(op)?, key)));
        match record {
            Some((op, key)) => scan.records.push(ScannedRecord {
                op,
                key,
                offset: scan.consumed,
                len: text.len(),
            }),
            None => scan.damaged += 1,
        }
        scan.consumed += line.len();
    }
    scan
}

/// The static op tag of a persisted shard.
fn persisted_op(op: &str) -> Option<&'static str> {
    [CompileReport::OP, SimEntry::OP]
        .into_iter()
        .find(|&known| known == op)
}

/// A result the disk tier persists: the value of one cache shard.
pub(crate) trait Persisted: Sized {
    /// The shard's op tag, in every record of it.
    const OP: &'static str;
    /// Appends the value's payload tokens.
    fn encode(&self, w: &mut Writer);
    /// Reads the value back; `None` on any malformation.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
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

    /// The pack files in `d`, sorted by name.
    fn packs(d: &Path) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = fs::read_dir(d)
            .map(|it| {
                it.flatten()
                    .map(|e| e.path())
                    .filter(|p| p.extension() == Some(OsStr::new(PACK_EXT)))
                    .collect()
            })
            .unwrap_or_default();
        out.sort();
        out
    }

    /// The record line `store` writes for `(key, report())`.
    fn record_line(key: u128) -> String {
        let mut w = Writer::new();
        report().encode(&mut w);
        seal(&format!("analyze {key:032x} {}", w.payload()))
    }

    fn stats(s: &DiskStore) -> (u64, u64, u64, u64) {
        let s = s.stats();
        (s.hits, s.misses, s.writes, s.errors)
    }

    #[test]
    fn analyze_round_trip_is_exact() {
        let d = dir("ana");
        let store = DiskStore::new(&d);
        assert!(packs(&d).is_empty(), "opening writes nothing");
        store.store(42, &report());
        let want = format!("{:?}", report());
        let back = store.load::<CompileReport>(42).expect("own record");
        assert_eq!(format!("{back:?}"), want);
        assert_eq!(stats(&store), (1, 0, 1, 0));
        let other = DiskStore::new(&d);
        let back = other
            .load::<CompileReport>(42)
            .expect("another store's record");
        assert_eq!(format!("{back:?}"), want);
        assert_eq!(
            back.modeled_latency.to_bits(),
            report().modeled_latency.to_bits()
        );
        assert_eq!(stats(&other), (1, 0, 0, 0));
        let bytes = fs::read(&packs(&d)[0]).unwrap();
        assert_eq!(bytes, format!("{HEADER}\n{}\n", record_line(42)).as_bytes());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn a_store_sees_records_appended_after_its_first_look() {
        let d = dir("late");
        let reader = DiskStore::new(&d);
        assert!(reader.load::<CompileReport>(1).is_none(), "empty directory");
        let writer = DiskStore::new(&d);
        writer.store(1, &report());
        assert!(reader.load::<CompileReport>(1).is_some(), "new pack");
        writer.store(2, &report());
        assert!(reader.load::<CompileReport>(2).is_some(), "appended record");
        assert_eq!(stats(&reader), (2, 1, 0, 0));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn absent_wrong_version_and_corrupt_entries_miss() {
        let d = dir("bad");
        assert!(
            DiskStore::new(&d).load::<CompileReport>(7).is_none(),
            "no directory"
        );
        fs::create_dir_all(&d).unwrap();
        assert!(
            DiskStore::new(&d).load::<CompileReport>(7).is_none(),
            "no pack"
        );
        let good = record_line(7);
        let mut w = Writer::new();
        report().encode(&mut w);
        let resealed = |op: &str, key: u128| seal(&format!("{op} {key:032x} {}", w.payload()));
        let files: [(&str, String); 8] = [
            ("version.pack", format!("aivril.edacache 1\n{good}\n")),
            ("headless.pack", format!("{good}\n{good}\n")),
            (
                "torn.pack",
                format!("{HEADER}\n{}", &good[..good.len() - 1]),
            ),
            (
                "cut.pack",
                format!("{HEADER}\n{}\n", &good[..good.len() / 2]),
            ),
            ("garbage.pack", format!("{HEADER}\n\u{0}\u{ff}garbage\n")),
            (
                "flipped.pack",
                format!("{HEADER}\n{}\n", good.replace("$adder.v", "$evil.v")),
            ),
            // Intact seals over the wrong op, and over another key.
            (
                "op.pack",
                format!("{HEADER}\n{}\n", resealed("simulate", 7)),
            ),
            (
                "key.pack",
                format!("{HEADER}\n{}\n", resealed("analyze", 8)),
            ),
        ];
        for (name, text) in &files {
            fs::write(d.join(name), text).unwrap();
        }
        // Version 1's files, intact: ignored, and never deleted.
        let v1 = format!("aivril.edacache 1 analyze {}\n", seal(w.payload()));
        let entry = d.join(format!("analyze-{:032x}.entry", 7));
        let tmp = d.join(format!(".tmp-analyze-{:032x}.99", 7));
        fs::write(&entry, &v1).unwrap();
        fs::write(&tmp, &v1).unwrap();
        let store = DiskStore::new(&d);
        assert!(store.load::<CompileReport>(7).is_none());
        // The cut, garbage and flipped lines are counted; the torn tail
        // is not a line yet, and the foreign files are skipped whole.
        assert_eq!(stats(&store), (0, 1, 0, 3));
        assert!(
            store.load::<SimEntry>(7).is_none(),
            "wrong op: a different shard"
        );
        assert!(
            store.load::<CompileReport>(8).is_some(),
            "the resealed key is its own entry"
        );
        assert!(entry.exists() && tmp.exists());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn every_truncation_and_bit_flip_of_an_entry_misses_or_is_exact() {
        let d = dir("flips");
        DiskStore::new(&d).store(5, &report());
        let path = packs(&d)[0].clone();
        let good = fs::read(&path).unwrap();
        let want = format!("{:?}", report());
        let check = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            DiskStore::new(&d)
                .load::<CompileReport>(5)
                .map(|r| format!("{r:?}"))
        };
        // Every cut misses, unterminated or newline-terminated, except
        // the one that ends just before the record's own newline.
        for cut in 0..good.len() {
            assert_eq!(check(&good[..cut]), None, "unterminated cut at {cut}");
            let mut short = good[..cut].to_vec();
            short.push(b'\n');
            let expect = (cut == good.len() - 1).then(|| want.clone());
            assert_eq!(check(&short), expect, "record cut at {cut}");
        }
        let mut served = 0;
        for at in 0..good.len() {
            for bit in 0..8 {
                let mut flipped = good.clone();
                flipped[at] ^= 1 << bit;
                if let Some(back) = check(&flipped) {
                    // Only a flip the seal cannot see may be served: the
                    // case of a checksum hex letter.
                    assert_eq!(back, want, "byte {at} bit {bit}");
                    served += 1;
                }
            }
        }
        assert!(served <= 16, "{served} damaged records were served");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn injected_disk_faults_degrade_to_misses() {
        // Probe EIO: the record is on disk and intact, but the faulted
        // store cannot read it; a clean store can.
        let d = dir("eio");
        DiskStore::new(&d).store(3, &report());
        let faulted =
            DiskStore::new(&d).with_faults(EdaFaultPlan::parse("disk_probe_eio=1.0").unwrap());
        assert!(faulted.load::<CompileReport>(3).is_none());
        assert_eq!(stats(&faulted), (0, 1, 0, 1));
        assert!(DiskStore::new(&d).load::<CompileReport>(3).is_some());
        let _ = fs::remove_dir_all(&d);

        // Short write: a newline-terminated record with its body cut.
        // The writing store itself and every other store reject it.
        let d = dir("short");
        let short =
            DiskStore::new(&d).with_faults(EdaFaultPlan::parse("disk_short_write=1.0").unwrap());
        short.store(3, &report());
        short.store(4, &report());
        assert!(short.load::<CompileReport>(3).is_none());
        assert_eq!(stats(&short), (0, 1, 2, 1));
        let other = DiskStore::new(&d);
        assert!(other.load::<CompileReport>(3).is_none());
        assert_eq!(stats(&other), (0, 1, 0, 2), "both cut lines counted");
        let bytes = fs::read(&packs(&d)[0]).unwrap();
        assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 3);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_appends_are_never_indexed_or_appended_to() {
        let d = dir("torn");
        let torn =
            DiskStore::new(&d).with_faults(EdaFaultPlan::parse("disk_stale_tmp=1.0").unwrap());
        torn.store(3, &report());
        torn.store(4, &report());
        assert_eq!(stats(&torn), (0, 0, 0, 2));
        // Each torn append abandons its pack: two packs, each a header
        // and an unterminated prefix of one record.
        let before: Vec<Vec<u8>> = packs(&d).iter().map(|p| fs::read(p).unwrap()).collect();
        assert_eq!(before.len(), 2);
        for bytes in &before {
            assert!(bytes.starts_with(format!("{HEADER}\n").as_bytes()));
            assert_ne!(bytes.last(), Some(&b'\n'), "torn");
        }
        // A clean store indexes neither prefix, writes to a pack of its
        // own, and leaves the torn packs as they were.
        let clean = DiskStore::new(&d);
        assert!(clean.load::<CompileReport>(3).is_none());
        clean.store(3, &report());
        assert_eq!(stats(&clean), (0, 1, 1, 0));
        let after = packs(&d);
        assert_eq!(after.len(), 3);
        let kept: Vec<Vec<u8>> = after
            .iter()
            .map(|p| fs::read(p).unwrap())
            .filter(|b| b.last() != Some(&b'\n'))
            .collect();
        assert_eq!(kept, before);
        assert!(DiskStore::new(&d).load::<CompileReport>(3).is_some());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn sim_entry_round_trip_with_divergence() {
        let d = dir("sim");
        let store = DiskStore::new(&d);
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
        let back = DiskStore::new(&d).load::<SimEntry>(9).expect("disk hit");
        assert_eq!(back.report.failures, entry.report.failures);
        assert_eq!(back.report.diverged, entry.report.diverged);
        assert_eq!(back.sim_latency.to_bits(), entry.sim_latency.to_bits());
        assert!(back.kernel.is_none());
        // An analyze lookup of a simulate key misses: the op is part
        // of the index key and of the sealed record.
        assert!(store.load::<CompileReport>(9).is_none());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn scan_resumes_at_record_boundaries() {
        let a = record_line(1);
        let b = record_line(2);
        let bytes = format!("{HEADER}\n{a}\n{b}\n{}", &a[..10]);
        let scan = scan_pack(bytes.as_bytes(), true);
        assert!(!scan.foreign);
        assert_eq!(scan.damaged, 0);
        assert_eq!(scan.consumed, bytes.len() - 10, "the torn tail is left");
        let keys: Vec<u128> = scan.records.iter().map(|r| r.key).collect();
        assert_eq!(keys, [1, 2]);
        let second = &scan.records[1];
        assert_eq!(&bytes[second.offset..second.offset + second.len], b);
        // Resuming mid-file reads records without a header.
        let rest = scan_pack(&bytes.as_bytes()[HEADER.len() + 1..], false);
        assert_eq!(rest.records.len(), 2);
        // A header still being written is neither foreign nor consumed.
        let partial = scan_pack(&HEADER.as_bytes()[..5], true);
        assert_eq!(partial, PackScan::default());
        assert!(scan_pack(b"aivril.edacache 3", true).foreign);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 512,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// Arbitrary bytes, bare or behind a valid header and record:
        /// the scanner never panics, and everything it reports lies on
        /// line boundaries inside the input.
        #[test]
        fn scan_pack_never_panics(
            raw in proptest::collection::vec(0u8..=255, 0..300),
            newlines in proptest::collection::vec(0usize..300, 0..6),
            prefixed in 0u8..3,
        ) {
            let mut bytes = raw;
            for at in newlines {
                if at < bytes.len() {
                    bytes[at] = b'\n';
                }
            }
            if prefixed > 0 {
                let mut head = format!("{HEADER}\n{}\n", record_line(9)).into_bytes();
                if prefixed == 2 {
                    // Splice the noise into the record itself.
                    head.truncate(head.len() - 20);
                }
                head.extend_from_slice(&bytes);
                bytes = head;
            }
            for at_start in [true, false] {
                let scan = scan_pack(&bytes, at_start);
                proptest::prop_assert!(scan.consumed <= bytes.len());
                proptest::prop_assert!(scan.consumed == 0 || bytes[scan.consumed - 1] == b'\n');
                for r in &scan.records {
                    proptest::prop_assert!(r.offset + r.len < scan.consumed);
                    proptest::prop_assert_eq!(bytes[r.offset + r.len], b'\n');
                }
            }
        }
    }
}
