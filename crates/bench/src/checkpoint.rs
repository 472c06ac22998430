//! Shard checkpoint store: crash-safe, append-only logs of completed
//! grid cells.
//!
//! Every shard of an evaluation writes one log file into the shared
//! checkpoint directory (`AIVRIL_CHECKPOINT_DIR`); each line is one
//! finished cell — its [`RunRecord`] (floats as bit patterns), the
//! cell's journal runs and its metrics delta, all in the `aivril_obs`
//! codec and sealed together with the cell index (`cell <seal>`, the
//! index being the payload's first token). On startup a shard replays
//! every cell it finds (from *any* shard's file with a matching
//! evaluation fingerprint) and computes only the rest, so:
//!
//! * a killed shard resumes where it stopped, bit-identically;
//! * the multi-process merge pass (`aivril-shard`) is simply a
//!   full-range run over a directory the shards already filled — it
//!   replays everything and renders through the normal single-process
//!   path, which is what makes merged artifacts byte-identical.
//!
//! Torn tails (a line cut mid-write by `kill -9`) and damaged lines end
//! the valid prefix of an [`AppendLog`]; on reopen the file is
//! truncated back to it so subsequent appends stay parseable. A file
//! whose header names a different version or fingerprint (other
//! config, suite size, telemetry mode…) is ignored entirely, and the
//! shard's own log is recreated ([`HeaderPolicy::Recreate`]). See
//! DESIGN.md §9.

use crate::{RunRecord, ShardRange};
use aivril_core::ResilienceCounters;
use aivril_eda::faults::{CkptFault, EdaFaultPlan};
use aivril_metrics::SampleOutcome;
use aivril_obs::applog::{self, AppendLog, HeaderPolicy};
use aivril_obs::codec::{self, Reader, Writer};
use aivril_obs::{MetricsRegistry, RunJournal};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// The first line of a log: magic, format version, fingerprint.
fn header(fingerprint: u64) -> String {
    format!("aivril.ckpt 2 {fingerprint:016x}")
}

/// Everything the harness must persist to replay one finished cell:
/// the scored record plus the telemetry (journal runs, metrics) the
/// cell produced.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// The scored run record.
    pub record: RunRecord,
    /// The cell's journal runs, replayed into the recorder on resume.
    pub runs: Vec<RunJournal>,
    /// The cell's metrics delta.
    pub metrics: MetricsRegistry,
}

/// One shard's view of the checkpoint directory: the cells restored
/// from disk plus this shard's own append log.
pub(crate) struct ShardCheckpoint {
    restored: HashMap<usize, CellRecord>,
    writer: Option<AppendLog>,
    fingerprint: u64,
    faults: EdaFaultPlan,
}

impl ShardCheckpoint {
    /// Scans `dir` for checkpoint logs carrying `fingerprint`, restores
    /// their cells, and opens this shard's own log (named by its cell
    /// range, so concurrent shards never share a file) for appending.
    /// All I/O failures degrade to "nothing restored / nothing
    /// persisted" — checkpointing is an accelerator, never a gate.
    pub fn open(dir: &Path, fingerprint: u64, range: ShardRange) -> ShardCheckpoint {
        let _ = fs::create_dir_all(dir);
        let own_name = format!("ckpt-{fingerprint:016x}-{}-{}.log", range.start, range.end);
        let header = header(fingerprint);
        let mut cells = Vec::new();
        for (name, fp, _) in log_files(dir) {
            if fp == fingerprint && name != own_name {
                if let Ok(bytes) = fs::read(dir.join(&name)) {
                    cells.extend(applog::scan(&bytes, &header, decode_line).records);
                }
            }
        }
        let own_path = dir.join(&own_name);
        let own = AppendLog::open(&own_path, &header, HeaderPolicy::Recreate, decode_line);
        let writer = own.ok().map(|(log, own_cells)| {
            cells.extend(own_cells);
            log
        });
        let mut restored = HashMap::new();
        for (idx, cell) in cells {
            // Duplicate cells across files are identical by construction
            // (same fingerprint, coordinate-derived seeds), so first-wins
            // is safe.
            restored.entry(idx).or_insert(cell);
        }
        ShardCheckpoint {
            restored,
            writer,
            fingerprint,
            faults: EdaFaultPlan::off(),
        }
    }

    /// Installs the deterministic fault plan for the checkpoint plane
    /// (`AIVRIL_EDA_FAULTS` `ckpt_*` classes): torn tails and checksum
    /// flips on append. An injected fault loses only durability — the
    /// loader rejects the damaged line and the cell recomputes
    /// bit-identically on resume.
    pub fn with_faults(mut self, plan: EdaFaultPlan) -> ShardCheckpoint {
        self.faults = plan;
        self
    }

    /// The restored record of `cell`, if a checkpoint covered it.
    pub fn restored(&self, cell: usize) -> Option<&CellRecord> {
        self.restored.get(&cell)
    }

    /// Appends one freshly computed cell. Flushes per line: a killed
    /// shard loses at most the line being written, and the loader drops
    /// any torn tail.
    pub fn append(&self, cell: usize, rec: &CellRecord) {
        let Some(log) = &self.writer else { return };
        let mut sealed = codec::seal(&encode_cell(cell, rec));
        let fault = self.faults.roll_ckpt(self.fingerprint, cell);
        if fault == Some(CkptFault::ChecksumFlip) {
            // Bit-rot on the checksum: the loader must reject the line.
            let digit = if sealed.starts_with('0') { "1" } else { "0" };
            sealed.replace_range(..1, digit);
        }
        let line = format!("cell {sealed}");
        let mut keep = line.len() + 1;
        if fault == Some(CkptFault::TornTail) {
            // A writer killed mid-append: only a prefix lands. The cut
            // point is a pure hash of the same identity as the roll.
            let id = u128::from(self.fingerprint);
            let frac = EdaFaultPlan::shape("ckpt.tear", "append", id, cell as u32);
            keep = (keep as f64 * (0.2 + 0.6 * frac)) as usize;
        }
        let _ = log.append_torn(&line, keep);
    }
}

/// Decodes one `cell <seal>` line: the cell index (the sealed payload's
/// first token) and its record. `None` ends the log's valid prefix.
fn decode_line(line: &str) -> Option<(usize, CellRecord)> {
    let mut r = Reader::new(codec::unseal(line.strip_prefix("cell ")?)?);
    let idx = usize::try_from(r.u64()?).ok()?;
    let cell = decode_cell(&mut r)?;
    r.at_end().then_some((idx, cell))
}

fn encode_cell(cell: usize, rec: &CellRecord) -> String {
    let mut w = Writer::new();
    w.u64(cell as u64);
    let o = &rec.record.outcome;
    w.bool(o.syntax);
    w.bool(o.functional);
    w.f64(o.total_latency);
    w.f64(o.syntax_phase_latency);
    w.f64(o.functional_phase_latency);
    w.u32(o.syntax_iters);
    w.u32(o.functional_iters);
    w.bool(o.crashed);
    w.f64(rec.record.llm_seconds);
    w.f64(rec.record.tool_seconds);
    let res = &rec.record.resilience;
    w.u32(res.llm_faults);
    w.u32(res.retries);
    w.f64(res.backoff_s);
    w.u32(res.breaker_opens);
    w.u32(res.degraded);
    w.u32(res.sim_diverged);
    codec::encode_runs(&mut w, &rec.runs);
    codec::encode_metrics(&mut w, &rec.metrics);
    w.finish()
}

fn decode_cell(r: &mut Reader<'_>) -> Option<CellRecord> {
    let outcome = SampleOutcome {
        syntax: r.bool()?,
        functional: r.bool()?,
        total_latency: r.f64()?,
        syntax_phase_latency: r.f64()?,
        functional_phase_latency: r.f64()?,
        syntax_iters: r.u32()?,
        functional_iters: r.u32()?,
        crashed: r.bool()?,
    };
    let llm_seconds = r.f64()?;
    let tool_seconds = r.f64()?;
    let resilience = ResilienceCounters {
        llm_faults: r.u32()?,
        retries: r.u32()?,
        backoff_s: r.f64()?,
        breaker_opens: r.u32()?,
        degraded: r.u32()?,
        sim_diverged: r.u32()?,
    };
    let runs = codec::decode_runs(r)?;
    let metrics = codec::decode_metrics(r)?;
    Some(CellRecord {
        record: RunRecord {
            outcome,
            llm_seconds,
            tool_seconds,
            resilience,
        },
        runs,
        metrics,
    })
}

// ---------------------------------------------------------------------
// Read-only progress scanning (`aivril-inspect tail`)
// ---------------------------------------------------------------------

/// One shard log file, as seen by a read-only scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogInfo {
    /// File name within the checkpoint directory.
    pub name: String,
    /// The cell range encoded in the file name.
    pub range: ShardRange,
    /// Cells decoded from the file's valid prefix.
    pub cells: usize,
    /// `true` when the file ends in a torn tail (a line cut mid-write);
    /// the bytes past the valid prefix were ignored, exactly as resume
    /// would drop them.
    pub torn: bool,
}

/// Progress snapshot of one evaluation (one fingerprint) in a
/// checkpoint directory, assembled by [`scan_dir`].
#[derive(Debug)]
pub struct EvalProgress {
    /// The evaluation fingerprint the logs carry.
    pub fingerprint: u64,
    /// Grid size, inferred as the largest range end among the shard
    /// log names — exact once every planned shard has opened its log.
    pub total_cells: usize,
    /// Restored cells keyed by grid index (duplicates across files are
    /// identical by construction; first wins).
    pub cells: BTreeMap<usize, CellRecord>,
    /// The shard log files scanned, sorted by name.
    pub logs: Vec<LogInfo>,
}

impl EvalProgress {
    /// True when this snapshot proves the evaluation finished: every
    /// cell of the grid has been restored.
    ///
    /// With `expected` (the planned grid size, problems × samples —
    /// `aivril-inspect tail --expect-cells`) the check is exact.
    /// Without it the grid size must be inferred from the shard log
    /// names, and `total_cells` is only a lower bound until every
    /// planned shard has opened its log — so the inferred size is
    /// trusted only when the discovered ranges tile `0..total_cells`
    /// with no gap, and a gap keeps the caller polling.
    #[must_use]
    pub fn complete(&self, expected: Option<usize>) -> bool {
        let total = match expected {
            Some(n) => n,
            None if self.coverage_is_contiguous() => self.total_cells,
            None => return false,
        };
        total > 0 && (0..total).all(|i| self.cells.contains_key(&i))
    }

    /// Whether the shard log ranges cover `0..total_cells` gap-free.
    fn coverage_is_contiguous(&self) -> bool {
        let mut ranges: Vec<ShardRange> = self.logs.iter().map(|l| l.range).collect();
        ranges.sort_by_key(|r| (r.start, r.end));
        let mut covered = 0;
        for r in ranges {
            if r.start > covered {
                return false;
            }
            covered = covered.max(r.end);
        }
        covered == self.total_cells
    }
}

/// Parses a shard log file name, `ckpt-{fingerprint:016x}-{start}-{end}.log`.
fn parse_log_name(name: &str) -> Option<(u64, ShardRange)> {
    let rest = name.strip_prefix("ckpt-")?.strip_suffix(".log")?;
    let mut parts = rest.splitn(3, '-');
    let fingerprint = u64::from_str_radix(parts.next()?, 16).ok()?;
    let start = parts.next()?.parse().ok()?;
    let end = parts.next()?.parse().ok()?;
    (start <= end).then_some((fingerprint, ShardRange { start, end }))
}

/// The shard logs in `dir` with their parsed names, sorted by name.
fn log_files(dir: &Path) -> Vec<(String, u64, ShardRange)> {
    let mut logs: Vec<_> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let (fingerprint, range) = parse_log_name(&name)?;
            Some((name, fingerprint, range))
        })
        .collect();
    logs.sort_by(|a, b| a.0.cmp(&b.0));
    logs
}

/// Scans a checkpoint directory **read-only** — the running shards own
/// the files, so unlike resume this never truncates a torn tail, it
/// just skips it. Returns one [`EvalProgress`] per fingerprint found,
/// sorted by fingerprint; within a group, logs are sorted by name. The
/// snapshot is a pure function of the directory contents.
#[must_use]
pub fn scan_dir(dir: &Path) -> Vec<EvalProgress> {
    let mut groups: BTreeMap<u64, EvalProgress> = BTreeMap::new();
    for (name, fingerprint, range) in log_files(dir) {
        let Ok(bytes) = fs::read(dir.join(&name)) else {
            continue;
        };
        // A header naming a different fingerprint than the file name
        // yields an empty valid prefix, so the file contributes nothing
        // but is still listed (torn from byte 0).
        let scan = applog::scan(&bytes, &header(fingerprint), decode_line);
        let group = groups.entry(fingerprint).or_insert(EvalProgress {
            fingerprint,
            total_cells: 0,
            cells: BTreeMap::new(),
            logs: Vec::new(),
        });
        group.total_cells = group.total_cells.max(range.end);
        group.logs.push(LogInfo {
            name,
            range,
            cells: scan.records.len(),
            torn: scan.valid_len < bytes.len(),
        });
        for (idx, cell) in scan.records {
            group.cells.entry(idx).or_insert(cell);
        }
    }
    groups.into_values().collect()
}

/// Renders the `aivril-inspect tail` progress report for a checkpoint
/// directory: per evaluation, cells done/remaining, rolling pass
/// rates, corrective-iteration pressure and resilience counters, with
/// torn tails tolerated exactly like resume tolerates them. Read-only
/// and a pure function of the directory contents.
#[must_use]
pub fn tail_report(dir: &Path) -> String {
    render_progress(dir, &scan_dir(dir))
}

/// Renders the progress report for an already-scanned snapshot, so a
/// polling caller can print and judge completion from the *same*
/// directory state (see [`scan_dir`]; `dir` only labels the
/// nothing-found message).
#[must_use]
pub fn render_progress(dir: &Path, groups: &[EvalProgress]) -> String {
    if groups.is_empty() {
        return format!("[tail] no checkpoint logs in {} (yet?)\n", dir.display());
    }
    let mut out = String::new();
    for g in groups {
        let done = g.cells.len();
        let total = g.total_cells.max(done);
        let remaining = total - done;
        let pct = 100.0 * done as f64 / total.max(1) as f64;
        let _ = writeln!(
            out,
            "[tail] evaluation {:016x}: {done}/{total} cell(s) done ({pct:.1}%), \
             {remaining} remaining",
            g.fingerprint
        );
        let torn = g.logs.iter().filter(|l| l.torn).count();
        let _ = writeln!(
            out,
            "  shard logs: {}{}",
            g.logs.len(),
            if torn > 0 {
                format!(" ({torn} with a torn tail dropped)")
            } else {
                String::new()
            }
        );
        for log in &g.logs {
            let _ = writeln!(
                out,
                "    {} cells {}..{}: {} restored{}",
                log.name,
                log.range.start,
                log.range.end,
                log.cells,
                if log.torn { ", torn tail" } else { "" }
            );
        }
        let (mut functional, mut syntax, mut crashed) = (0usize, 0usize, 0usize);
        let (mut syn_iters, mut fun_iters) = (0u64, 0u64);
        let mut resilience = ResilienceCounters::default();
        for cell in g.cells.values() {
            let o = &cell.record.outcome;
            functional += usize::from(o.functional);
            syntax += usize::from(o.syntax);
            crashed += usize::from(o.crashed);
            syn_iters += u64::from(o.syntax_iters);
            fun_iters += u64::from(o.functional_iters);
            resilience.merge(&cell.record.resilience);
        }
        if done > 0 {
            let rate = |k: usize| 100.0 * k as f64 / done as f64;
            let _ = writeln!(
                out,
                "  rolling pass rate: functional {functional}/{done} ({:.1}%), \
                 syntax {syntax}/{done} ({:.1}%), {crashed} crashed",
                rate(functional),
                rate(syntax)
            );
            let _ = writeln!(
                out,
                "  iterations so far: {syn_iters} syntax, {fun_iters} functional"
            );
            if resilience.any() {
                let _ = writeln!(
                    out,
                    "  resilience: {} fault(s), {} retrie(s) ({:.1}s backoff), \
                     {} breaker open(s), {} degraded, {} sim-diverged",
                    resilience.llm_faults,
                    resilience.retries,
                    resilience.backoff_s,
                    resilience.breaker_opens,
                    resilience.degraded,
                    resilience.sim_diverged
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crashed_record;
    use std::fs::OpenOptions;
    use std::io::Write as _;

    fn cell() -> CellRecord {
        let mut record = crashed_record();
        record.outcome.crashed = false;
        record.outcome.syntax = true;
        record.outcome.total_latency = 12.75;
        // An awkward, bit-pattern-sensitive float for round-trip tests.
        record.llm_seconds = std::f64::consts::PI / 3.0;
        record.resilience.retries = 3;
        record.resilience.backoff_s = 0.125;
        let mut metrics = MetricsRegistry::new();
        metrics.counter_add("pipeline_runs_total", &[("flow", "aivril2")], 1);
        CellRecord {
            record,
            runs: Vec::new(),
            metrics,
        }
    }

    #[test]
    fn cell_lines_round_trip() {
        let c = cell();
        let line = format!("cell {}", codec::seal(&encode_cell(7, &c)));
        let (idx, back) = decode_line(&line).expect("round trip");
        assert_eq!(idx, 7);
        assert_eq!(
            back.record.llm_seconds.to_bits(),
            c.record.llm_seconds.to_bits()
        );
        assert_eq!(back.record.outcome, c.record.outcome);
        assert_eq!(back.record.resilience, c.record.resilience);
        assert_eq!(back.metrics, c.metrics);
    }

    #[test]
    fn tampered_or_torn_lines_are_rejected() {
        let line = format!("cell {}", codec::seal(&encode_cell(7, &cell())));
        assert!(decode_line(&line).is_some());
        // The index is sealed with the record: retargeting it breaks
        // the checksum.
        assert!(decode_line(&line.replacen(" 7 ", " 3 ", 1)).is_none());
        assert!(decode_line(&line[..line.len() - 4]).is_none());
        assert!(decode_line(&format!("{line} trailing")).is_none());
        assert!(decode_line("not a cell line").is_none());
        // A version-1 line (index before the checksum) is not a cell.
        let payload = encode_cell(7, &cell());
        let v1 = format!("cell 7 {}", codec::seal(&payload[2..]));
        assert!(decode_line(&v1).is_none());
    }

    /// Two cells written by a shard, and the path of its log.
    fn two_cell_log(dir: &Path, fingerprint: u64, range: ShardRange) -> std::path::PathBuf {
        let _ = fs::remove_dir_all(dir);
        let ckpt = ShardCheckpoint::open(dir, fingerprint, range);
        ckpt.append(0, &cell());
        let mut second = cell();
        second.record.outcome.functional = true;
        ckpt.append(1, &second);
        dir.join(format!(
            "ckpt-{fingerprint:016x}-{}-{}.log",
            range.start, range.end
        ))
    }

    #[test]
    fn a_flipped_index_bit_restores_no_cell_under_another_index() {
        let dir = std::env::temp_dir().join(format!("aivril-ckpt-index-{}", std::process::id()));
        let range = ShardRange { start: 0, end: 4 };
        let path = two_cell_log(&dir, 0xabcd, range);
        // Cell 1's line is the third; its index is the first token that
        // reads `1`. Flipping bit 1 of that digit turns it into `3`.
        let text = fs::read_to_string(&path).unwrap();
        let line_start: usize = text.split_inclusive('\n').take(2).map(str::len).sum();
        let line = text[line_start..].lines().next().unwrap();
        let mut offset = 0;
        let token = line
            .split(' ')
            .find(|tok| {
                offset += tok.len() + 1;
                *tok == "1"
            })
            .expect("an index token");
        let at = line_start + offset - token.len() - 1;
        let mut bytes = text.into_bytes();
        assert_eq!(bytes[at], b'1');
        bytes[at] ^= 0b10;
        fs::write(&path, &bytes).unwrap();

        let back = ShardCheckpoint::open(&dir, 0xabcd, range);
        assert!(
            back.restored(3).is_none(),
            "cell 1's record came back as cell 3"
        );
        assert!(back.restored(1).is_none(), "the damaged line is dropped");
        assert!(back.restored(0).is_some(), "the line before it survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_non_utf8_tail_keeps_the_valid_prefix() {
        let dir = std::env::temp_dir().join(format!("aivril-ckpt-utf8-{}", std::process::id()));
        let range = ShardRange { start: 0, end: 4 };
        let path = two_cell_log(&dir, 0xabcd, range);
        let valid = fs::read(&path).unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"cell 2 de\xffad").unwrap();
        drop(f);

        let back = ShardCheckpoint::open(&dir, 0xabcd, range);
        assert!(back.restored(0).is_some() && back.restored(1).is_some());
        assert!(back.restored(1).unwrap().record.outcome.functional);
        assert_eq!(
            fs::read(&path).unwrap(),
            valid,
            "truncated to the end of the valid prefix, no further"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn logs_restore_resume_and_drop_torn_tails() {
        let dir = std::env::temp_dir().join(format!("aivril-ckpt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let range = ShardRange { start: 0, end: 4 };

        let ckpt = ShardCheckpoint::open(&dir, 0xabcd, range);
        assert!(ckpt.restored(0).is_none());
        ckpt.append(0, &cell());
        ckpt.append(1, &cell());
        drop(ckpt);

        // Simulate a kill mid-write: append garbage with no newline.
        let path = dir.join("ckpt-000000000000abcd-0-4.log");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"cell 2 deadbeef torn").unwrap();
        drop(f);

        let ckpt = ShardCheckpoint::open(&dir, 0xabcd, range);
        assert!(ckpt.restored(0).is_some() && ckpt.restored(1).is_some());
        assert!(ckpt.restored(2).is_none(), "torn tail must be dropped");
        ckpt.append(2, &cell());
        drop(ckpt);

        // The torn bytes were truncated away, so the resumed file is
        // fully parseable again.
        let ckpt = ShardCheckpoint::open(&dir, 0xabcd, range);
        assert!(ckpt.restored(2).is_some());
        // A different fingerprint sees none of it.
        let other = ShardCheckpoint::open(&dir, 0x1234, range);
        assert!(other.restored(0).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_append_faults_lose_durability_not_correctness() {
        let dir = std::env::temp_dir().join(format!("aivril-ckpt-faults-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let range = ShardRange { start: 0, end: 8 };

        // A checksum flip on every append: nothing it writes survives
        // replay, and the loader never panics on the damage.
        let flip = ShardCheckpoint::open(&dir, 0xfeed, range)
            .with_faults(EdaFaultPlan::parse("ckpt_checksum_flip=1.0").unwrap());
        flip.append(0, &cell());
        flip.append(1, &cell());
        drop(flip);
        let back = ShardCheckpoint::open(&dir, 0xfeed, range);
        assert!(back.restored(0).is_none() && back.restored(1).is_none());
        // The reopened (fault-free) writer truncated the damage away and
        // can append cells that do survive.
        back.append(2, &cell());
        drop(back);
        let back = ShardCheckpoint::open(&dir, 0xfeed, range);
        assert!(back.restored(2).is_some());
        drop(back);
        let _ = fs::remove_dir_all(&dir);

        // A torn tail: the damaged line (and anything after it in that
        // log) is dropped; reopening truncates back to the valid prefix.
        let _ = fs::remove_dir_all(&dir);
        let torn = ShardCheckpoint::open(&dir, 0xfeed, range)
            .with_faults(EdaFaultPlan::parse("ckpt_torn_tail=1.0").unwrap());
        torn.append(0, &cell());
        drop(torn);
        let back = ShardCheckpoint::open(&dir, 0xfeed, range);
        assert!(back.restored(0).is_none(), "torn cell is not restored");
        back.append(0, &cell());
        drop(back);
        let back = ShardCheckpoint::open(&dir, 0xfeed, range);
        assert!(back.restored(0).is_some(), "recomputed cell lands cleanly");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_names_parse_and_reject_garbage() {
        let (fp, range) = parse_log_name("ckpt-000000000000abcd-0-4.log").expect("parses");
        assert_eq!(fp, 0xabcd);
        assert_eq!(range, ShardRange { start: 0, end: 4 });
        for bad in [
            "ckpt-zz-0-4.log",
            "ckpt-000000000000abcd-0-4",
            "other-000000000000abcd-0-4.log",
            "ckpt-000000000000abcd-4-0.log",
            "ckpt-000000000000abcd-0.log",
        ] {
            assert!(parse_log_name(bad).is_none(), "{bad} must not parse");
        }
    }

    #[test]
    fn completion_needs_expected_size_or_gap_free_coverage() {
        let log = |start: usize, end: usize| LogInfo {
            name: format!("ckpt-0000000000000001-{start}-{end}.log"),
            range: ShardRange { start, end },
            cells: 0,
            torn: false,
        };
        let progress = |logs: Vec<LogInfo>, done: usize| EvalProgress {
            fingerprint: 1,
            total_cells: logs.iter().map(|l| l.range.end).max().unwrap_or(0),
            cells: (0..done).map(|i| (i, cell())).collect(),
            logs,
        };
        // A planned shard that has not opened its log yet leaves a gap:
        // keep polling even though every restored cell is in.
        let gap = progress(vec![log(0, 2), log(4, 6)], 2);
        assert!(!gap.complete(None));
        assert!(!gap.complete(Some(6)));
        // Gap-free tiling with every cell restored: complete.
        let full = progress(vec![log(0, 2), log(2, 4)], 4);
        assert!(full.complete(None));
        assert!(full.complete(Some(4)));
        // The planned size overrides the inferred one: a finished first
        // shard alone is not a finished 6-cell grid.
        let first = progress(vec![log(0, 2)], 2);
        assert!(!first.complete(Some(6)));
        // Covered ranges with missing cells: not complete.
        let partial = progress(vec![log(0, 2), log(2, 4)], 3);
        assert!(!partial.complete(None));
        assert!(!partial.complete(Some(4)));
        // Nothing discovered yet is never "complete".
        assert!(!progress(Vec::new(), 0).complete(None));
    }

    #[test]
    fn scan_is_read_only_and_tolerates_torn_tails() {
        let dir = std::env::temp_dir().join(format!("aivril-tail-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let range = ShardRange { start: 0, end: 6 };

        // Nothing yet: the report says so instead of erroring.
        assert!(tail_report(&dir).contains("no checkpoint logs"));

        // A half-finished shard: two cells done, one passing, then a
        // torn tail from a kill mid-write.
        let ckpt = ShardCheckpoint::open(&dir, 0xfeed, range);
        let mut pass = cell();
        pass.record.outcome.functional = true;
        pass.record.resilience.llm_faults = 2;
        ckpt.append(0, &pass);
        ckpt.append(1, &cell());
        drop(ckpt);
        let path = dir.join("ckpt-000000000000feed-0-6.log");
        let before = fs::read(&path).unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"cell 2 0123 torn-mid-wri").unwrap();
        drop(f);
        let torn_bytes = fs::read(&path).unwrap();

        let groups = scan_dir(&dir);
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!(g.fingerprint, 0xfeed);
        assert_eq!(g.total_cells, 6);
        assert_eq!(g.cells.len(), 2, "torn cell 2 must be dropped");
        assert!(g.logs[0].torn);
        assert!(g.cells[&0].record.outcome.functional && !g.cells[&1].record.outcome.functional);

        let report = tail_report(&dir);
        assert!(
            report.contains("2/6 cell(s) done (33.3%), 4 remaining"),
            "{report}"
        );
        assert!(report.contains("torn tail"), "{report}");
        assert!(report.contains("functional 1/2 (50.0%)"), "{report}");
        assert!(report.contains("2 fault(s)"), "{report}");
        // Deterministic: same directory state, same bytes.
        assert_eq!(report, tail_report(&dir));
        // Read-only: the torn bytes are still there, untruncated —
        // scanning a live run must never race its writers.
        assert_eq!(fs::read(&path).unwrap(), torn_bytes);
        assert_ne!(torn_bytes, before);
        let _ = fs::remove_dir_all(&dir);
    }
}
