//! Crash-safe checkpoint journal for exploration runs.
//!
//! A full campaign is hours of independent tasks — 33 multi-start
//! anneals, hundreds of cross-matrix cells, replacement-pass
//! re-measurements. The journal is a write-ahead record of every
//! *completed* task result: as each task finishes, its result is
//! serialized, checksummed, and appended, so an interrupt (SIGKILL,
//! OOM, power loss) costs at most the tasks that were in flight.
//! Because the engine is deterministic, replaying the journal and
//! re-running only the missing tasks reproduces the uninterrupted run
//! byte for byte.
//!
//! Two properties make it crash-safe rather than merely convenient:
//!
//! * **Append-only lines** — each record is one line, appended with a
//!   single write; `record` returns only once its newline is written.
//!   A crash mid-append can therefore leave only a final segment with
//!   no newline, which [`Journal::open`] drops (truncating the file
//!   back to the last newline, so the next append starts on a clean
//!   line). After a failed append the journal refuses all later ones,
//!   so torn bytes can only ever be the tail.
//! * **Per-record checksums** — each line carries an FNV-1a checksum
//!   of its task key and payload; a flipped bit or hand-edited record
//!   on any complete line surfaces as a typed
//!   [`JournalError::Checksum`] instead of silently steering a resumed
//!   run.
//!
//! The format is JSON lines (one record per line, in completion
//! order; a later line for a task replaces an earlier one),
//! human-inspectable with standard tools. [`parse_journal`] is the one
//! reader of that format: `open` and the offline artifact checker both
//! call it, so they accept exactly the same files.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Ways the journal can fail. Distinct from task failures: these are
/// about the checkpoint file itself.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O operation on the journal file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// What was being attempted (`read`, `write`, `rename`, …).
        op: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// A line is not a valid journal record.
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// Parser detail.
        detail: String,
    },
    /// A record parsed but its checksum does not match its payload.
    Checksum {
        /// The task key of the offending record.
        task: String,
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, op, source } => {
                write!(f, "{op} {}: {source}", path.display())
            }
            JournalError::Corrupt { path, line, detail } => {
                write!(f, "{}:{line}: corrupt record: {detail}", path.display())
            }
            JournalError::Checksum { task, line } => {
                write!(f, "line {line}: checksum mismatch on task `{task}`")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// FNV-1a over `bytes`, folded in after `seed`. Used for journal
/// record checksums, checksummed documents and deterministic fault
/// selection.
pub fn fnv64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Write `contents` to `path` atomically: the bytes go to a temp file
/// in the same directory (so the rename cannot cross filesystems),
/// which is then renamed over `path`. Readers observe either the old
/// complete file or the new complete file, never a prefix.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    // xps-allow(no-raw-fs-write): this IS the atomic helper — the raw write goes to the temp sibling, never the data path
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// One journal line: a task key, its serialized result, and a
/// checksum over both. The checksum is stored as fixed-width hex so
/// records remain valid JSON for any value.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Record {
    task: String,
    crc: String,
    value: String,
}

fn record_crc(task: &str, value: &str) -> String {
    format!(
        "{:016x}",
        fnv64(fnv64(0, task.as_bytes()), value.as_bytes())
    )
}

/// The contents of a journal file, as [`parse_journal`] reads them.
#[derive(Debug)]
pub struct ParsedJournal {
    /// Each task's serialized result; a later line for a task replaces
    /// an earlier one.
    pub records: BTreeMap<String, String>,
    /// Bytes up to and including the last newline. Anything past it is
    /// a torn final append, which is dropped.
    pub clean_len: usize,
}

/// Read journal bytes: every complete (newline-terminated) line must
/// be a checksummed record or blank; a final segment with no newline
/// is a torn append and is ignored. Pure — `path` only labels errors.
///
/// # Errors
///
/// [`JournalError::Corrupt`] for a complete line that is not UTF-8 or
/// not a record, [`JournalError::Checksum`] for one whose checksum does
/// not match; both name the 1-based line.
pub fn parse_journal(path: &Path, bytes: &[u8]) -> Result<ParsedJournal, JournalError> {
    let clean_len = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let mut records = BTreeMap::new();
    for (i, line) in bytes[..clean_len].split(|&b| b == b'\n').enumerate() {
        let corrupt = |detail: String| JournalError::Corrupt {
            path: path.to_path_buf(),
            line: i + 1,
            detail,
        };
        let line = std::str::from_utf8(line).map_err(|e| corrupt(e.to_string()))?;
        if line.trim().is_empty() {
            continue;
        }
        let rec: Record = serde_json::from_str(line).map_err(|e| corrupt(e.to_string()))?;
        if rec.crc != record_crc(&rec.task, &rec.value) {
            return Err(JournalError::Checksum {
                task: rec.task,
                line: i + 1,
            });
        }
        records.insert(rec.task, rec.value);
    }
    Ok(ParsedJournal { records, clean_len })
}

/// The write-ahead journal of one exploration run.
///
/// Thread-safe: workers record completed tasks concurrently; each
/// record's line is appended before `record` returns, so a crash
/// immediately afterwards still finds it on resume.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    inner: Mutex<Appender>,
    loaded: usize,
}

/// The journal's mutable state, behind its one mutex.
#[derive(Debug)]
struct Appender {
    records: BTreeMap<String, String>,
    file: File,
    /// Set by a failed append: a later line could follow torn bytes, so
    /// no more are written.
    failed: bool,
}

impl Journal {
    /// Open `path` for appending, cut to its first `len` bytes, with
    /// `records` already in memory.
    fn at(
        path: PathBuf,
        records: BTreeMap<String, String>,
        len: u64,
    ) -> Result<Journal, JournalError> {
        let io_err = |op, source| JournalError::Io {
            path: path.clone(),
            op,
            source,
        };
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", e))?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open", e))?;
        file.set_len(len).map_err(|e| io_err("truncate", e))?;
        let loaded = records.len();
        Ok(Journal {
            path,
            inner: Mutex::new(Appender {
                records,
                file,
                failed: false,
            }),
            loaded,
        })
    }

    /// Start a fresh journal at `path`, discarding any existing
    /// contents.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the file cannot be opened or
    /// emptied.
    pub fn create(path: impl Into<PathBuf>) -> Result<Journal, JournalError> {
        Journal::at(path.into(), BTreeMap::new(), 0)
    }

    /// Open the journal at `path` for a resumed run, replaying every
    /// record already on disk. A missing file is an empty journal, not
    /// an error (resume of a run that died before its first record).
    /// A torn final append is dropped and cut from the file.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Corrupt`] / [`JournalError::Checksum`]
    /// when a complete record cannot be trusted — resuming from a
    /// damaged journal would silently diverge, so this is fatal by
    /// design.
    pub fn open(path: impl Into<PathBuf>) -> Result<Journal, JournalError> {
        let path = path.into();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(source) => {
                return Err(JournalError::Io {
                    path,
                    op: "read",
                    source,
                })
            }
        };
        let parsed = parse_journal(&path, &bytes)?;
        Journal::at(path, parsed.records, parsed.clean_len as u64)
    }

    /// The serialized result of `task`, when a previous (or the
    /// current) run completed it.
    pub fn get(&self, task: &str) -> Option<String> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .records
            .get(task)
            .cloned()
    }

    /// Record a completed task: append its checksummed line before
    /// returning.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the append fails, and for
    /// every record after a failed append (the file may end in a torn
    /// line). The in-memory record is kept either way.
    pub fn record(&self, task: &str, value: String) -> Result<(), JournalError> {
        let rec = Record {
            task: task.to_string(),
            crc: record_crc(task, &value),
            value,
        };
        // xps-allow(no-unwrap-in-lib): a Record is three plain strings; serializing it cannot fail
        let mut line = serde_json::to_string(&rec).expect("journal records serialize");
        line.push('\n');
        let mut appender = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let written = if appender.failed {
            Err(io::Error::other("an earlier append failed"))
        } else {
            appender.file.write_all(line.as_bytes())
        };
        appender.failed |= written.is_err();
        appender.records.insert(rec.task, rec.value);
        written.map_err(|source| JournalError::Io {
            path: self.path.clone(),
            op: "append",
            source,
        })
    }

    /// Number of records currently held (loaded + recorded).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .records
            .len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records replayed from disk when this journal was
    /// opened (0 for a fresh journal).
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Delete the journal file (the run completed; the checkpoint has
    /// served its purpose). A missing file is fine.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] for any other removal failure.
    pub fn discard(self) -> Result<(), JournalError> {
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(source) => Err(JournalError::Io {
                path: self.path,
                op: "remove",
                source,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("xps-journal-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn record_and_reopen_roundtrip() {
        let path = tmp("roundtrip");
        let j = Journal::create(&path).expect("create");
        j.record("a#0/0", "[1.5,2.5]".into()).expect("record");
        j.record("a#0/1", "\"text\"".into()).expect("record");
        assert_eq!(j.len(), 2);
        assert_eq!(j.loaded(), 0);
        let j2 = Journal::open(&path).expect("open");
        assert_eq!(j2.loaded(), 2);
        assert_eq!(j2.get("a#0/0").as_deref(), Some("[1.5,2.5]"));
        assert_eq!(j2.get("a#0/1").as_deref(), Some("\"text\""));
        assert_eq!(j2.get("missing"), None);
        j2.discard().expect("discard");
        assert!(!path.exists());
    }

    #[test]
    fn writes_are_atomic_no_temp_residue() {
        let path = tmp("atomic");
        write_atomic(&path, "first\n").expect("write");
        write_atomic(&path, "second\n").expect("overwrite");
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        assert!(
            !PathBuf::from(tmp_name).exists(),
            "temp file must be renamed away"
        );
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "second\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_append_refuses_every_later_one() {
        let path = tmp("refuse");
        let j = Journal::create(&path).expect("create");
        j.record("t#0/0", "1".into()).expect("record");
        let swap = |file: File| j.inner.lock().expect("unpoisoned").file = file;
        // A read-only handle on the same regular file: the append fails.
        swap(File::open(&path).expect("read-only handle"));
        assert!(matches!(
            j.record("t#0/1", "2".into()),
            Err(JournalError::Io { op: "append", .. })
        ));
        // Writable again, but the failed append may have left a torn
        // line, so nothing more is written.
        swap(
            OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("append handle"),
        );
        assert!(j.record("t#0/2", "3".into()).is_err());
        assert_eq!(j.get("t#0/2").as_deref(), Some("3"), "kept in memory");
        assert_eq!(Journal::open(&path).expect("reopen").loaded(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_truncates_previous_run() {
        let path = tmp("truncate");
        let j = Journal::create(&path).expect("create");
        j.record("old#0/0", "1".into()).expect("record");
        let j = Journal::create(&path).expect("recreate");
        assert!(j.is_empty());
        assert_eq!(Journal::open(&path).expect("open").loaded(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_line_is_a_typed_error() {
        let path = tmp("corrupt");
        std::fs::write(&path, "{not json\n").expect("write");
        match Journal::open(&path) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let path = tmp("checksum");
        let j = Journal::create(&path).expect("create");
        j.record("t#0/0", "3.25".into()).expect("record");
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, text.replace("3.25", "4.25")).expect("tamper");
        match Journal::open(&path) {
            Err(JournalError::Checksum { task, line }) => {
                assert_eq!(task, "t#0/0");
                assert_eq!(line, 1);
            }
            other => panic!("expected Checksum, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_opens_empty() {
        let path = tmp("missing-nonexistent");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).expect("open");
        assert!(j.is_empty());
        assert_eq!(j.loaded(), 0);
    }

    #[test]
    fn fnv64_distinguishes_seed_and_bytes() {
        assert_ne!(fnv64(0, b"abc"), fnv64(1, b"abc"));
        assert_ne!(fnv64(0, b"abc"), fnv64(0, b"abd"));
        assert_eq!(fnv64(7, b"abc"), fnv64(7, b"abc"));
    }
}
