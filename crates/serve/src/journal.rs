//! The crash-safe job journal: a write-ahead log of admissions.
//!
//! Every accepted submission appends one `admit` record *under the
//! queue lock, before the job becomes claimable*; every terminal
//! outcome (result streamed, or deadline expiry) appends one `done`
//! record. A server restarted over the same journal directory replays
//! the log and re-admits every job with more `admit`s than `done`s —
//! and because a job's seed is a pure function of `(tenant, job)`
//! ([`crate::job_seed`]), the recovered run is byte-identical to the
//! one the crash interrupted.
//!
//! ## Format
//!
//! `journal.log` is an [`aivril_obs::applog`] log, like the bench
//! checkpoint logs, whose records are [`codec::seal`]ed payloads:
//!
//! ```text
//! aivril.journal 1
//! admit {fnv64(payload):016x} {payload}
//! done {fnv64(payload):016x} {payload}
//! ```
//!
//! where `payload` is an [`aivril_obs::codec`] token run —
//! `(tenant, job, task, verilog, flow)` for `admit`, `(tenant, job)`
//! for `done`. The codec percent-escapes whitespace, so one record is
//! always one line.
//!
//! ## Crash discipline
//!
//! A crash can leave at most a torn tail: an unterminated or
//! checksum-failing final region. [`JobJournal::open`] keeps the
//! longest valid prefix, truncates the rest away, and replays only
//! records from that prefix — corruption costs durability of the torn
//! records, never a panic and never a phantom job. A file whose first
//! line is not the journal header is refused, never wiped
//! ([`HeaderPolicy::Refuse`]). Records are counted,
//! not keyed: a job resubmitted after completion gets a fresh
//! `admit`/`done` pair, and a job is pending exactly when its `admit`s
//! outnumber its `done`s (the latest `admit`'s spec wins).

use crate::protocol::SubmitRequest;
use aivril_bench::Flow;
use aivril_obs::applog::{AppendLog, HeaderPolicy};
use aivril_obs::codec;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// First line of every journal file.
const HEADER: &str = "aivril.journal 1";

/// The write-ahead admission journal. All methods are safe to call
/// from any thread; appends are serialized by an internal lock.
pub struct JobJournal {
    path: PathBuf,
    log: AppendLog,
    pending: Vec<SubmitRequest>,
}

impl std::fmt::Debug for JobJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobJournal")
            .field("path", &self.path)
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

/// Encodes an `admit` payload.
fn admit_payload(spec: &SubmitRequest) -> String {
    let mut w = codec::Writer::new();
    w.str(&spec.tenant);
    w.str(&spec.job);
    w.str(&spec.task);
    w.bool(spec.verilog);
    w.str(spec.flow.label());
    w.finish()
}

/// Encodes a `done` payload.
fn done_payload(tenant: &str, job: &str) -> String {
    let mut w = codec::Writer::new();
    w.str(tenant);
    w.str(job);
    w.finish()
}

/// Formats one sealed record line (without the newline).
fn record_line(kind: &str, payload: &str) -> String {
    format!("{kind} {}", codec::seal(payload))
}

/// One replayed record.
enum Record {
    Admit(SubmitRequest),
    Done { tenant: String, job: String },
}

/// Decodes one journal line; `None` marks corruption (the caller
/// truncates from here).
fn decode_line(line: &str) -> Option<Record> {
    let (kind, sealed) = line.split_once(' ')?;
    let mut r = codec::Reader::new(codec::unseal(sealed)?);
    match kind {
        "admit" => {
            let (tenant, job, task) = (r.str()?, r.str()?, r.str()?);
            let verilog = r.bool()?;
            let flow = Flow::from_label(&r.str()?)?;
            r.at_end().then_some(Record::Admit(SubmitRequest {
                tenant,
                job,
                task,
                verilog,
                flow,
            }))
        }
        "done" => {
            let (tenant, job) = (r.str()?, r.str()?);
            r.at_end().then_some(Record::Done { tenant, job })
        }
        _ => None,
    }
}

impl JobJournal {
    /// Opens (creating if necessary) the journal in `dir`, replays the
    /// valid prefix, truncates any torn tail away, and remembers which
    /// jobs were admitted but never finished — [`JobJournal::pending`].
    ///
    /// # Errors
    ///
    /// I/O errors creating or reading the file, or a first line that is
    /// neither the journal header nor a torn prefix of it (the file
    /// belongs to something else; refusing beats destroying it).
    pub fn open(dir: impl AsRef<Path>) -> io::Result<JobJournal> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join("journal.log");
        let (log, records) = AppendLog::open(&path, HEADER, HeaderPolicy::Refuse, decode_line)?;

        // Pending = admits minus dones per (tenant, job), replayed in
        // first-admission order so recovery re-admits deterministically;
        // the latest admit's spec wins.
        let mut order: Vec<(String, String)> = Vec::new();
        let mut net: HashMap<(String, String), (i64, Option<SubmitRequest>)> = HashMap::new();
        for rec in records {
            let (key, delta, spec) = match rec {
                Record::Admit(spec) => ((spec.tenant.clone(), spec.job.clone()), 1, Some(spec)),
                Record::Done { tenant, job } => ((tenant, job), -1, None),
            };
            let slot = net.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                (0, None)
            });
            slot.0 += delta;
            if spec.is_some() {
                slot.1 = spec;
            }
        }
        let pending = order
            .into_iter()
            .filter_map(|key| match net.remove(&key)? {
                (count, spec) if count > 0 => spec,
                _ => None,
            })
            .collect();

        Ok(JobJournal { path, log, pending })
    }

    /// Jobs admitted by a previous process over this journal that never
    /// reached a terminal record, in original admission order.
    #[must_use]
    pub fn pending(&self) -> &[SubmitRequest] {
        &self.pending
    }

    /// The journal file's path (diagnostics).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records an accepted admission. Call under the queue lock, before
    /// the job becomes claimable — a crash after this point re-admits
    /// the job on restart.
    ///
    /// # Errors
    ///
    /// I/O errors from the append; the job still runs (the journal
    /// degrades to best-effort durability, never blocks admission).
    pub fn record_admit(&self, spec: &SubmitRequest) -> io::Result<()> {
        self.log.append(&record_line("admit", &admit_payload(spec)))
    }

    /// Records a terminal outcome (result streamed or deadline expiry).
    ///
    /// # Errors
    ///
    /// I/O errors from the append.
    pub fn record_done(&self, tenant: &str, job: &str) -> io::Result<()> {
        self.log
            .append(&record_line("done", &done_payload(tenant, job)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(tenant: &str, job: &str) -> SubmitRequest {
        SubmitRequest {
            tenant: tenant.to_string(),
            job: job.to_string(),
            task: "prob000_and2".to_string(),
            verilog: true,
            flow: Flow::Aivril2,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aivril-journal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn admits_without_dones_are_pending_after_reopen() {
        let dir = tmp("pending");
        let j = JobJournal::open(&dir).unwrap();
        assert!(j.pending().is_empty(), "fresh journal has no pending jobs");
        j.record_admit(&spec("acme", "a")).unwrap();
        j.record_admit(&spec("acme", "b")).unwrap();
        j.record_admit(&spec("globex", "a")).unwrap();
        j.record_done("acme", "a").unwrap();
        drop(j);
        let j = JobJournal::open(&dir).unwrap();
        let pending: Vec<(&str, &str)> = j
            .pending()
            .iter()
            .map(|s| (s.tenant.as_str(), s.job.as_str()))
            .collect();
        assert_eq!(pending, [("acme", "b"), ("globex", "a")]);
        // Finishing them empties the journal for the next restart.
        j.record_done("acme", "b").unwrap();
        j.record_done("globex", "a").unwrap();
        drop(j);
        let j = JobJournal::open(&dir).unwrap();
        assert!(j.pending().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resubmission_counts_as_a_fresh_pair_and_latest_spec_wins() {
        let dir = tmp("counts");
        let j = JobJournal::open(&dir).unwrap();
        j.record_admit(&spec("acme", "a")).unwrap();
        j.record_done("acme", "a").unwrap();
        let mut second = spec("acme", "a");
        second.task = "prob001_or2".to_string();
        j.record_admit(&second).unwrap();
        drop(j);
        let j = JobJournal::open(&dir).unwrap();
        assert_eq!(j.pending().len(), 1);
        assert_eq!(j.pending()[0].task, "prob001_or2", "latest admit wins");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tails_and_tampered_lines_are_truncated_not_replayed() {
        let dir = tmp("torn");
        let j = JobJournal::open(&dir).unwrap();
        j.record_admit(&spec("acme", "a")).unwrap();
        j.record_admit(&spec("acme", "b")).unwrap();
        drop(j);
        let path = dir.join("journal.log");

        // A torn (unterminated) tail: the partial record is dropped,
        // the valid prefix survives.
        let mut bytes = fs::read(&path).unwrap();
        let full = bytes.clone();
        bytes.extend_from_slice(b"admit 00ff");
        fs::write(&path, &bytes).unwrap();
        let j = JobJournal::open(&dir).unwrap();
        assert_eq!(j.pending().len(), 2, "valid prefix replays");
        drop(j);
        assert_eq!(fs::read(&path).unwrap(), full, "tail truncated away");

        // A checksum-failing line mid-file cuts replay there: the
        // record after it is *also* dropped (append-only discipline —
        // nothing after damage is trusted).
        let text = String::from_utf8(full).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let tampered = lines[1].replacen('a', "b", 1);
        lines[1] = &tampered;
        fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let j = JobJournal::open(&dir).unwrap();
        assert!(j.pending().is_empty(), "nothing after damage replays");
        // And the journal is usable again after the truncation.
        j.record_admit(&spec("acme", "c")).unwrap();
        drop(j);
        let j = JobJournal::open(&dir).unwrap();
        assert_eq!(j.pending().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_files_are_refused_not_wiped() {
        let dir = tmp("foreign");
        fs::create_dir_all(&dir).unwrap();
        // An unterminated first line is foreign too, unless it is a
        // torn prefix of the header.
        for foreign in ["important data\nmore\n", "important data"] {
            fs::write(dir.join("journal.log"), foreign).unwrap();
            let err = JobJournal::open(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                fs::read(dir.join("journal.log")).unwrap(),
                foreign.as_bytes(),
                "the foreign file is untouched"
            );
        }
        fs::write(dir.join("journal.log"), "aivril.jour").unwrap();
        assert!(JobJournal::open(&dir).unwrap().pending().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn names_with_escapes_round_trip() {
        // Codec escaping keeps one record on one line even for names at
        // the edge of the allowed alphabet.
        let dir = tmp("escape");
        let j = JobJournal::open(&dir).unwrap();
        let s = spec("t.en-ant_0", "job.9-x_");
        j.record_admit(&s).unwrap();
        drop(j);
        let j = JobJournal::open(&dir).unwrap();
        assert_eq!(j.pending(), [s]);
        let _ = fs::remove_dir_all(&dir);
    }
}
