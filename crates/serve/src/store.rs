//! The content-addressed result store.
//!
//! A finished task's result body is immutable: it is a pure function
//! of the canonical task spec (workload profile, configurations,
//! budgets), so the store addresses records by the FNV-64 fingerprint
//! of that canonical spec. A repeated task — a retried dispatch, a
//! second campaign, a restarted worker — is answered byte-identically
//! from disk without re-running a single simulation.
//!
//! Records are one file per id under `store/` in the data directory:
//! a header line carrying the id and a checksum of the body, then the
//! body verbatim. Writes go through a temp file + rename
//! ([`write_atomic`]), so a crash mid-write leaves either the old
//! record or none — never a torn one. Reads verify the checksum and
//! reject tampered or truncated records with an error that names the
//! file.

use crate::error::ServeError;
use std::path::{Path, PathBuf};
use xps_core::explore::{fnv64, write_atomic};

/// Fingerprint seed for store ids (distinct from the journal's record
/// seed so the two keyspaces never collide).
const ID_SEED: u64 = 0x5345_5256_4549_4453; // "SERVEIDS"
/// Fingerprint seed for body checksums.
const SUM_SEED: u64 = 0x5345_5256_4553_554d; // "SERVESUM"

/// Fingerprint a canonical request into its 16-hex-digit store id.
pub fn content_id(canonical: &str) -> String {
    format!("{:016x}", fnv64(ID_SEED, canonical.as_bytes()))
}

/// Checksum a record body the way [`ResultStore::put`] does, as
/// 16-hex digits. Exported so offline validators (`xps-analyze data`)
/// can verify store records without knowing the private seed.
pub fn body_checksum(body: &str) -> String {
    format!("{:016x}", fnv64(SUM_SEED, body.as_bytes()))
}

/// A directory of checksummed, content-addressed result records.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Open (creating if needed) the store under `dir`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the directory cannot be created.
    pub fn open(dir: &Path) -> Result<ResultStore, ServeError> {
        std::fs::create_dir_all(dir)?;
        Ok(ResultStore {
            dir: dir.to_path_buf(),
        })
    }

    fn path_of(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.json"))
    }

    /// Persist `body` under `id` (atomic temp + rename; overwrites an
    /// existing record, which by construction holds the same bytes).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the write fails.
    pub fn put(&self, id: &str, body: &str) -> Result<(), ServeError> {
        let sum = fnv64(SUM_SEED, body.as_bytes());
        let record = format!("{id} {sum:016x}\n{body}");
        write_atomic(&self.path_of(id), &record)?;
        Ok(())
    }

    /// Fetch the body stored under `id`, verifying the checksum.
    /// `Ok(None)` when no record exists.
    ///
    /// # Errors
    ///
    /// [`ServeError::StoreCorrupt`] (naming the file) when the record
    /// is malformed, mislabeled, or fails its checksum;
    /// [`ServeError::Io`] on read failure.
    pub fn get(&self, id: &str) -> Result<Option<String>, ServeError> {
        let path = self.path_of(id);
        let raw = match std::fs::read_to_string(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let corrupt = |detail: String| ServeError::StoreCorrupt {
            path: path.clone(),
            detail,
        };
        let (header, body) = raw
            .split_once('\n')
            .ok_or_else(|| corrupt("missing header line".into()))?;
        let (stored_id, stored_sum) = header
            .split_once(' ')
            .ok_or_else(|| corrupt(format!("malformed header `{header}`")))?;
        if stored_id != id {
            return Err(corrupt(format!(
                "record is addressed `{stored_id}`, expected `{id}`"
            )));
        }
        let sum = fnv64(SUM_SEED, body.as_bytes());
        if format!("{sum:016x}") != stored_sum {
            return Err(corrupt(format!(
                "checksum mismatch: header says {stored_sum}, body hashes to {sum:016x}"
            )));
        }
        Ok(Some(body.to_string()))
    }

    /// Number of records on disk.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the directory cannot be listed.
    pub fn len(&self) -> Result<usize, ServeError> {
        Ok(std::fs::read_dir(&self.dir)?.count())
    }

    /// Whether the store holds no records.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the directory cannot be listed.
    pub fn is_empty(&self) -> Result<bool, ServeError> {
        Ok(self.len()? == 0)
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total bytes the store occupies on disk (reported by
    /// `/healthz`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the directory cannot be listed.
    pub fn usage(&self) -> Result<u64, ServeError> {
        let mut total = 0u64;
        for entry in std::fs::read_dir(&self.dir)? {
            total = total.saturating_add(entry?.metadata()?.len());
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xps-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ids_are_stable_and_distinct() {
        let a = content_id("{\"kind\":\"explore\"}");
        assert_eq!(a, content_id("{\"kind\":\"explore\"}"));
        assert_eq!(a.len(), 16);
        assert_ne!(a, content_id("{\"kind\":\"evaluate\"}"));
    }

    #[test]
    fn put_get_round_trips() {
        let store = ResultStore::open(&tmp("roundtrip")).expect("open");
        let id = content_id("req");
        assert_eq!(store.get(&id).expect("clean miss"), None);
        store.put(&id, "{\"ok\":true}\n").expect("put");
        assert_eq!(
            store.get(&id).expect("hit").as_deref(),
            Some("{\"ok\":true}\n")
        );
        assert_eq!(store.len().expect("len"), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_record_is_an_actionable_error() {
        let store = ResultStore::open(&tmp("corrupt")).expect("open");
        let id = content_id("req");
        store.put(&id, "payload").expect("put");
        let path = store.dir().join(format!("{id}.json"));
        let mut raw = std::fs::read_to_string(&path).expect("read");
        raw.push_str("tampered");
        std::fs::write(&path, raw).expect("tamper");
        let e = store.get(&id).expect_err("detected");
        let msg = e.to_string();
        assert!(msg.contains("checksum mismatch"), "{msg}");
        assert!(msg.contains(&format!("{id}.json")), "names the file: {msg}");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn mislabeled_record_is_rejected() {
        let store = ResultStore::open(&tmp("mislabel")).expect("open");
        store.put(&content_id("a"), "body-a").expect("put");
        // Copy a's record over b's address: the id check must fire.
        let a_path = store.dir().join(format!("{}.json", content_id("a")));
        let b_path = store.dir().join(format!("{}.json", content_id("b")));
        std::fs::copy(&a_path, &b_path).expect("copy");
        let e = store.get(&content_id("b")).expect_err("mislabeled");
        assert!(e.to_string().contains("addressed"));
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
