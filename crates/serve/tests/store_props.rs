//! Property tests of the content-addressed result store: any body put
//! under any id reads back byte-identical (including JSON-hostile
//! characters, embedded newlines, and bit-exact floats), content ids
//! are a pure function of the canonical request, and any tampering
//! with a stored record — flipped bytes, truncation, relabeling — is
//! rejected with an error naming the file, never served as a result.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use xps_serve::{content_id, ResultStore};

static SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xps-store-props-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Body fragments exercising the record format's separators (the
/// header's space and newline, JSON quoting) and non-ASCII content.
fn arb_fragment() -> impl Strategy<Value = &'static str> {
    select(vec![
        "{\"cores\":[]}",
        "line\nbreak",
        "sp ace",
        "q\"uote",
        "back\\slash",
        "émigré",
        "",
        "0123456789abcdef 0123456789abcdef",
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn put_get_round_trips_byte_identically(
        fragments in vec(arb_fragment(), 4),
        x in -1.0e300f64..1.0e300,
        n in 0u64..u64::MAX,
    ) {
        let dir = tmp("roundtrip");
        let store = ResultStore::open(&dir).expect("open");
        let body = format!(
            "{}|{}|{n}",
            fragments.join("|"),
            serde_json::to_string(&x).expect("finite")
        );
        let id = content_id(&body);
        prop_assert_eq!(store.get(&id).expect("clean miss"), None);
        store.put(&id, &body).expect("put");
        prop_assert_eq!(store.get(&id).expect("hit").as_deref(), Some(body.as_str()));
        // Overwriting with the same bytes is idempotent.
        store.put(&id, &body).expect("re-put");
        prop_assert_eq!(store.get(&id).expect("hit").as_deref(), Some(body.as_str()));
        prop_assert_eq!(store.len().expect("len"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn content_ids_are_stable_16_hex(fragments in vec(arb_fragment(), 3)) {
        let canonical = fragments.join("+");
        let id = content_id(&canonical);
        prop_assert_eq!(&id, &content_id(&canonical));
        prop_assert_eq!(id.len(), 16);
        prop_assert!(id.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn any_tampering_is_rejected_with_the_file_named(
        fragments in vec(arb_fragment(), 3),
        flip_pos in 0usize..200,
        mode in 0u8..3,
    ) {
        let dir = tmp("tamper");
        let store = ResultStore::open(&dir).expect("open");
        let body = fragments.join("|");
        let id = content_id(&body);
        store.put(&id, &body).expect("put");
        let path = dir.join(format!("{id}.json"));
        let mut raw = std::fs::read(&path).expect("read record");
        let tampered = match mode {
            // Flip one body byte (skip the header line: relabeling is
            // its own mode below).
            0 => {
                let body_start = raw.iter().position(|&b| b == b'\n').expect("header") + 1;
                if body_start >= raw.len() {
                    false // empty body: nothing to flip
                } else {
                    let pos = body_start + flip_pos % (raw.len() - body_start);
                    raw[pos] ^= 0x20;
                    true
                }
            }
            // Truncate the body.
            1 => {
                let body_start = raw.iter().position(|&b| b == b'\n').expect("header") + 1;
                if body_start >= raw.len() {
                    false
                } else {
                    raw.truncate(body_start + flip_pos % (raw.len() - body_start));
                    true
                }
            }
            // Append garbage.
            _ => {
                raw.extend_from_slice(b"tampered");
                true
            }
        };
        if tampered {
            std::fs::write(&path, &raw).expect("tamper");
            let e = store.get(&id).expect_err("tampering detected");
            let msg = e.to_string();
            prop_assert!(
                msg.contains("checksum mismatch") || msg.contains("addressed"),
                "unexpected error: {}", msg
            );
            prop_assert!(msg.contains(&format!("{id}.json")), "names the file: {}", msg);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
