//! Checksummed JSON documents: `{"crc": "<16 hex>", "<key>": payload}`,
//! where `crc` is FNV-1a ([`fnv64`]) over the compact serialization of
//! the payload. The campaign results file (`measured.json`) is one.
//!
//! [`open_checksummed`] is the one reader of the format: the results
//! loader and the offline artifact checker both call it, so they agree
//! on which files are torn or edited. The vendored `serde_json` prints
//! floats shortest-round-trip, so the compact bytes recompute exactly
//! from the parsed tree.

use crate::journal::fnv64;
use serde::Value;

/// Why [`open_checksummed`] refused a document.
#[derive(Debug)]
pub enum EnvelopeError {
    /// The bytes are not UTF-8 JSON: the file is torn.
    Torn(String),
    /// The stored checksum does not match the payload: the file was
    /// edited after it was written.
    Checksum {
        /// The `crc` member as stored (empty when not a string).
        stored: String,
        /// The checksum the payload recomputes to.
        computed: String,
    },
}

fn checksum(payload: &Value) -> Result<String, String> {
    let canonical = serde_json::to_string(payload).map_err(|e| e.to_string())?;
    Ok(format!("{:016x}", fnv64(0, canonical.as_bytes())))
}

/// Seal `payload` under `key` with its checksum, pretty-printed.
///
/// # Errors
///
/// Returns the serializer's message for a payload JSON cannot hold.
pub fn seal_checksummed(key: &str, payload: Value) -> Result<String, String> {
    let crc = checksum(&payload)?;
    let doc = Value::Obj(vec![
        ("crc".to_string(), Value::Str(crc)),
        (key.to_string(), payload),
    ]);
    serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())
}

/// Open a document sealed by [`seal_checksummed`] and return its
/// payload. A JSON document without both `crc` and `key` members
/// predates the envelope and is returned whole, unchecked.
///
/// # Errors
///
/// [`EnvelopeError::Torn`] when `raw` is not UTF-8 JSON,
/// [`EnvelopeError::Checksum`] when the payload does not match `crc`.
pub fn open_checksummed(key: &str, raw: &[u8]) -> Result<Value, EnvelopeError> {
    let text = std::str::from_utf8(raw).map_err(|e| EnvelopeError::Torn(e.to_string()))?;
    let doc: Value = serde_json::from_str(text).map_err(|e| EnvelopeError::Torn(e.to_string()))?;
    let (Ok(crc), Ok(payload)) = (doc.member("crc"), doc.member(key)) else {
        return Ok(doc);
    };
    let stored = crc.as_str().unwrap_or_default().to_string();
    let computed = checksum(payload).unwrap_or_else(|e| format!("unserializable: {e}"));
    if stored != computed {
        return Err(EnvelopeError::Checksum { stored, computed });
    }
    Ok(payload.clone())
}
