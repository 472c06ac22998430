//! Append-only, line-oriented logs that survive a kill mid-write: the
//! shard checkpoints and the serve journal.
//!
//! # Format
//!
//! A log is a header line followed by one record per line. Each record
//! is usually a [`seal`](crate::codec::seal)ed codec payload behind a
//! short kind tag, but this module only sees lines: the caller's
//! `decode` decides which lines are records.
//!
//! # Valid prefix
//!
//! Scanning is byte-level. The valid prefix is the header line plus
//! every newline-terminated record line up to the first one that is not
//! UTF-8 or that `decode` refuses. Everything after it is a torn tail
//! (a writer killed mid-append) or damage, and is never trusted — not
//! even records that would decode on their own, because an append-only
//! log has no way to tell where damage ends.
//!
//! # Header policy
//!
//! A first line that is the header or a torn prefix of it is the log's
//! own. Anything else is another file's content, and the two callers
//! need different answers to it, named by [`HeaderPolicy`].

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// What [`AppendLog::open`] does with a file whose first line is
/// neither the header nor a torn prefix of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderPolicy {
    /// Start the file over. For logs that only speed things up, like
    /// the shard checkpoints, where a log of another version or
    /// evaluation is worth nothing.
    Recreate,
    /// Fail with [`io::ErrorKind::InvalidData`] and leave the file
    /// untouched. For logs whose path a user chooses, like the serve
    /// journal: never wipe a stranger's file.
    Refuse,
}

/// The result of a read-only [`scan`].
#[derive(Debug)]
pub struct Scan<T> {
    /// The records of the valid prefix, in file order.
    pub records: Vec<T>,
    /// Byte length of the valid prefix; 0 when the header is missing,
    /// torn or foreign.
    pub valid_len: usize,
    /// `true` when the first line is another file's content.
    foreign: bool,
}

/// Scans log bytes **read-only**: the records of the valid prefix and
/// its length. Never fails and never panics, whatever `bytes` holds.
pub fn scan<T>(bytes: &[u8], header: &str, mut decode: impl FnMut(&str) -> Option<T>) -> Scan<T> {
    let mut scan = Scan {
        records: Vec::new(),
        valid_len: 0,
        foreign: false,
    };
    let mut lines = bytes.split_inclusive(|&b| b == b'\n');
    match lines.next() {
        None => return scan,
        Some(first) if first.strip_suffix(b"\n") == Some(header.as_bytes()) => {
            scan.valid_len = first.len();
        }
        Some(first) => {
            scan.foreign = !header.as_bytes().starts_with(first);
            return scan;
        }
    }
    for line in lines {
        let text = line.strip_suffix(b"\n").map(std::str::from_utf8);
        let Some(record) = text.and_then(Result::ok).and_then(&mut decode) else {
            break;
        };
        scan.records.push(record);
        scan.valid_len += line.len();
    }
    scan
}

/// An open log, positioned to append after its valid prefix. Appends
/// from any thread are serialized by an internal lock.
#[derive(Debug)]
pub struct AppendLog {
    file: Mutex<File>,
}

impl AppendLog {
    /// Opens (creating if needed) the log at `path` for appending and
    /// returns it with the records of its valid prefix. The torn tail
    /// is truncated away; a fresh, empty or torn-header file gets
    /// `header` written; a foreign one is handled by `policy`.
    ///
    /// # Errors
    ///
    /// I/O errors reading, truncating or writing the file, and
    /// [`io::ErrorKind::InvalidData`] for a foreign file under
    /// [`HeaderPolicy::Refuse`].
    pub fn open<T>(
        path: &Path,
        header: &str,
        policy: HeaderPolicy,
        decode: impl FnMut(&str) -> Option<T>,
    ) -> io::Result<(AppendLog, Vec<T>)> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let scan = scan(&bytes, header, decode);
        if scan.foreign && policy == HeaderPolicy::Refuse {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: first line is not {header:?}", path.display()),
            ));
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if scan.valid_len < bytes.len() {
            file.set_len(scan.valid_len as u64)?;
        }
        if scan.valid_len == 0 {
            file.write_all(format!("{header}\n").as_bytes())?;
            file.flush()?;
        }
        let log = AppendLog {
            file: Mutex::new(file),
        };
        Ok((log, scan.records))
    }

    /// Appends `line` and its newline with one write, then flushes: a
    /// killed writer leaves at most this line torn.
    ///
    /// # Errors
    ///
    /// I/O errors from the write or the flush.
    pub fn append(&self, line: &str) -> io::Result<()> {
        self.append_torn(line, line.len() + 1)
    }

    /// Appends only the first `keep` bytes of `line` and its newline:
    /// what a writer killed mid-append leaves behind. Fault injection
    /// uses it; [`AppendLog::append`] is the whole-line case.
    ///
    /// # Errors
    ///
    /// I/O errors from the write or the flush.
    pub fn append_torn(&self, line: &str, keep: usize) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        bytes.truncate(keep);
        // A writer that panicked mid-append left at most a torn line,
        // which the next open drops, so the file is still usable.
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(&bytes)?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{seal, unseal};
    use std::path::PathBuf;

    const HEADER: &str = "aivril.test 1";

    fn decode(line: &str) -> Option<String> {
        unseal(line.strip_prefix("rec ")?).map(str::to_string)
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aivril-applog-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A three-record log and the byte offset at which each record's
    /// line ends.
    fn written(path: &Path, policy: HeaderPolicy) -> (Vec<u8>, Vec<String>, Vec<usize>) {
        let _ = fs::remove_file(path);
        let (log, back) = AppendLog::open(path, HEADER, policy, decode).unwrap();
        assert!(back.is_empty());
        let payloads: Vec<String> = (0..3).map(|i| format!("{i} $rec%20{i}")).collect();
        for p in &payloads {
            log.append(&format!("rec {}", seal(p))).unwrap();
        }
        let bytes = fs::read(path).unwrap();
        let mut ends = Vec::new();
        let mut end = HEADER.len() + 1;
        for p in &payloads {
            end += "rec ".len() + seal(p).len() + 1;
            ends.push(end);
        }
        assert_eq!(end, bytes.len());
        (bytes, payloads, ends)
    }

    /// Opens `damaged` (the log with its first bad byte at `bad`) and
    /// checks the recovery contract: a prefix of what was written, with
    /// every record that ended before the damage, the file cut back to
    /// exactly that prefix — or, under `Refuse`, an error that leaves
    /// the file as it was.
    fn check_recovery(
        path: &Path,
        policy: HeaderPolicy,
        damaged: &[u8],
        bad: usize,
        payloads: &[String],
        ends: &[usize],
    ) {
        fs::write(path, damaged).unwrap();
        let what = format!("{policy:?}, first bad byte {bad}");
        let records = match AppendLog::open(path, HEADER, policy, decode) {
            Ok((_, records)) => records,
            Err(e) => {
                assert_eq!(policy, HeaderPolicy::Refuse, "{what}: {e}");
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}");
                assert!(bad < HEADER.len() + 1, "{what}: refused a damaged record");
                assert_eq!(
                    fs::read(path).unwrap(),
                    damaged,
                    "{what}: refused file kept"
                );
                return;
            }
        };
        assert!(records.len() <= payloads.len(), "{what}");
        assert_eq!(records, payloads[..records.len()], "{what}");
        let intact = ends.iter().filter(|&&end| end <= bad).count();
        assert!(records.len() >= intact, "{what}: lost an intact record");
        let kept = records
            .len()
            .checked_sub(1)
            .map_or(HEADER.len() + 1, |last| ends[last]);
        let after = fs::read(path).unwrap();
        assert_eq!(after.len(), kept, "{what}: truncated to the valid prefix");
        // The reopened log is whole again: what was recovered, recovered
        // again, and a new record lands after it.
        let (log, again) = AppendLog::open(path, HEADER, policy, decode).unwrap();
        assert_eq!(again, records, "{what}");
        log.append(&format!("rec {}", seal("new"))).unwrap();
        drop(log);
        let (_, last) = AppendLog::open(path, HEADER, policy, decode).unwrap();
        assert_eq!(last.last().map(String::as_str), Some("new"), "{what}");
    }

    #[test]
    fn every_truncation_and_bit_flip_recovers_a_valid_prefix() {
        let dir = tmp("sweep");
        let path = dir.join("log");
        for policy in [HeaderPolicy::Recreate, HeaderPolicy::Refuse] {
            let (bytes, payloads, ends) = written(&path, policy);
            for cut in 0..bytes.len() {
                check_recovery(&path, policy, &bytes[..cut], cut, &payloads, &ends);
            }
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= 1 << bit;
                    check_recovery(&path, policy, &flipped, at, &payloads, &ends);
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_files_follow_the_policy() {
        let dir = tmp("foreign");
        let path = dir.join("log");
        for first in [
            "important data\nmore\n",
            "important data",
            "aivril.test 2\n",
        ] {
            fs::write(&path, first).unwrap();
            let err = AppendLog::open(&path, HEADER, HeaderPolicy::Refuse, decode).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{first:?}");
            assert_eq!(fs::read(&path).unwrap(), first.as_bytes(), "{first:?}");
            let (_, records) =
                AppendLog::open(&path, HEADER, HeaderPolicy::Recreate, decode).unwrap();
            assert!(records.is_empty());
            assert_eq!(fs::read(&path).unwrap(), format!("{HEADER}\n").as_bytes());
        }
        // A torn header is the log's own under either policy.
        fs::write(&path, &HEADER[..5]).unwrap();
        AppendLog::open(&path, HEADER, HeaderPolicy::Refuse, decode).unwrap();
        assert_eq!(fs::read(&path).unwrap(), format!("{HEADER}\n").as_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_stops_at_a_non_utf8_line() {
        let mut bytes = format!("{HEADER}\nrec {}\n", seal("a")).into_bytes();
        let valid = bytes.len();
        bytes.extend_from_slice(b"rec de\xffad\n");
        let s = scan(&bytes, HEADER, decode);
        assert_eq!(s.records, ["a"]);
        assert_eq!(s.valid_len, valid);
        assert!(!s.foreign);
        assert!(scan(b"other\n", HEADER, decode).foreign);
        assert_eq!(scan(b"", HEADER, decode).valid_len, 0);
    }
}
