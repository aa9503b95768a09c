//! Property tests of the checkpoint journal: records survive a
//! write → reopen cycle byte-for-byte for arbitrary keys and payloads,
//! f64 payloads round-trip bit-exactly through the JSON encoding (the
//! invariant that makes resumed runs byte-identical), and truncating
//! the file never yields garbage — only a detected error or a clean
//! prefix of the records.

#![allow(
    clippy::disallowed_methods,
    reason = "writes damaged and truncated journals on purpose"
)]

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use xps_explore::{fnv64, parse_journal, Journal, JournalError};

static SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("xps-journal-props");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!(
        "{tag}-{}-{}.jsonl",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Task labels exercising the separator characters of the keyspace
/// plus JSON-hostile content (quotes, backslashes, non-ASCII).
fn arb_label() -> impl Strategy<Value = &'static str> {
    select(vec![
        "anneal",
        "seed",
        "rematrix",
        "a#b/c",
        "with space",
        "q\"uote",
        "back\\slash",
        "émigré",
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn records_survive_reopen_byte_for_byte(
        labels in vec(arb_label(), 5),
        fans in vec(0u64..1_000_000, 5),
        values in vec(-1.0e300f64..1.0e300, 5),
    ) {
        let path = tmp("roundtrip");
        let journal = Journal::create(&path).expect("create");
        let mut expect = Vec::new();
        for (i, ((label, fan), v)) in labels.iter().zip(&fans).zip(&values).enumerate() {
            let task = format!("{label}#{fan}/{i}");
            let value = serde_json::to_string(v).expect("serialize");
            journal.record(&task, value.clone()).expect("record");
            expect.push((task, value));
        }
        let back = Journal::open(&path).expect("reopen");
        prop_assert_eq!(back.loaded(), expect.len());
        for (task, value) in &expect {
            prop_assert_eq!(back.get(task).as_deref(), Some(value.as_str()));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn f64_payloads_roundtrip_bit_exactly(x in -1.0e300f64..1.0e300) {
        let json = serde_json::to_string(&x).expect("serialize");
        let back: f64 = serde_json::from_str(&json).expect("parse");
        prop_assert_eq!(back.to_bits(), x.to_bits(), "payload {} drifted", x);
    }

    #[test]
    fn truncation_yields_a_clean_prefix_or_a_detected_error(
        values in vec(-1.0e6f64..1.0e6, 3),
        cut in 1usize..120,
    ) {
        let path = tmp("truncate");
        let journal = Journal::create(&path).expect("create");
        let mut expect = Vec::new();
        for (i, v) in values.iter().enumerate() {
            let task = format!("cell#0/{i}");
            let value = serde_json::to_string(v).expect("serialize");
            journal.record(&task, value.clone()).expect("record");
            expect.push((task, value));
        }
        let bytes = std::fs::read(&path).expect("read");
        if cut < bytes.len() {
            std::fs::write(&path, &bytes[..bytes.len() - cut]).expect("truncate");
            match Journal::open(&path) {
                // A cut landing on a record boundary just loses the
                // tail: every record that does load must be
                // byte-identical.
                Ok(j) => {
                    prop_assert!(j.loaded() < expect.len());
                    for (task, value) in &expect {
                        if let Some(got) = j.get(task) {
                            prop_assert_eq!(&got, value);
                        }
                    }
                }
                // Mid-record cuts must be *detected*, never
                // half-parsed.
                Err(e) => {
                    let msg = e.to_string();
                    prop_assert!(!msg.is_empty());
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------------
// Direct corruption cases. The properties above sweep random cut
// points; these pin the two failure shapes a crashed run actually
// leaves behind — a half-written final record and a task recorded
// twice — to their exact recovery semantics.

/// A valid on-disk record line for `task`/`value`, checksummed the
/// same way the journal does (FNV over task then value).
fn record_line(task: &str, value: &str) -> String {
    let crc = format!(
        "{:016x}",
        fnv64(fnv64(0, task.as_bytes()), value.as_bytes())
    );
    format!(r#"{{"task":"{task}","crc":"{crc}","value":"{value}"}}"#)
}

/// The journal is append-only, so a crash mid-append leaves a final
/// line with no newline. Reopening drops it, cuts it from the file,
/// and the next append starts on a clean line.
#[test]
fn truncated_final_record_is_dropped_and_the_next_append_is_clean() {
    let path = tmp("cut-final");
    let journal = Journal::create(&path).expect("create");
    for i in 0..3 {
        journal
            .record(&format!("cell#0/{i}"), format!("{}.5", i))
            .expect("record");
    }
    drop(journal);
    let bytes = std::fs::read(&path).expect("read");
    // Chop into the middle of the last record (newline plus a few
    // payload bytes), as an interrupted append would.
    std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");
    let back = Journal::open(&path).expect("a torn tail reopens");
    assert_eq!(back.loaded(), 2, "the clean prefix loads");
    assert_eq!(back.get("cell#0/2"), None, "the torn record re-executes");
    back.record("cell#0/2", "2.5".into()).expect("append");
    drop(back);
    let again = Journal::open(&path).expect("reopen after the append");
    assert_eq!(again.loaded(), 3, "every record loads");
    for i in 0..3 {
        let value = format!("{i}.5");
        assert_eq!(again.get(&format!("cell#0/{i}")), Some(value));
    }
    assert_eq!(
        std::fs::read(&path).expect("read"),
        bytes,
        "no torn bytes remain"
    );
    let _ = std::fs::remove_file(&path);
}

/// Only a segment with no newline is torn: a complete last line with a
/// bad checksum is still an error, while the same bytes cut before
/// their newline are a dropped tail.
#[test]
fn bad_checksum_on_a_complete_last_line_is_still_an_error() {
    let path = tmp("bad-crc-last");
    let good = record_line("anneal#0/0", "1.25");
    let tampered = record_line("anneal#0/1", "2.5").replace("2.5", "2.6");
    std::fs::write(&path, format!("{good}\n{tampered}\n")).expect("write");
    match Journal::open(&path) {
        Err(JournalError::Checksum { task, line }) => {
            assert_eq!(task, "anneal#0/1");
            assert_eq!(line, 2);
        }
        other => panic!("expected Checksum at line 2, got {other:?}"),
    }
    std::fs::write(&path, format!("{good}\n{tampered}")).expect("write");
    assert_eq!(Journal::open(&path).expect("torn tail").loaded(), 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncation_on_a_record_boundary_loads_the_clean_prefix() {
    let path = tmp("cut-boundary");
    let journal = Journal::create(&path).expect("create");
    for i in 0..3 {
        journal
            .record(&format!("cell#0/{i}"), format!("{}.5", i))
            .expect("record");
    }
    drop(journal);
    let text = std::fs::read_to_string(&path).expect("read");
    let lines: Vec<&str> = text.lines().collect();
    std::fs::write(&path, format!("{}\n{}\n", lines[0], lines[1])).expect("truncate");
    let back = Journal::open(&path).expect("a clean prefix reopens");
    assert_eq!(back.loaded(), 2);
    assert_eq!(back.get("cell#0/0").as_deref(), Some("0.5"));
    assert_eq!(back.get("cell#0/1").as_deref(), Some("1.5"));
    assert_eq!(back.get("cell#0/2"), None, "the lost tail re-executes");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn duplicate_task_on_disk_keeps_the_last_record() {
    // Two records for the same task (e.g. the file of a run that was
    // resumed with an older journal appended): the later line wins,
    // and the journal counts one record, not two.
    let path = tmp("dup-disk");
    let text = format!(
        "{}\n{}\n{}\n",
        record_line("anneal#0/0", "1.25"),
        record_line("anneal#0/1", "2.5"),
        record_line("anneal#0/0", "9.75"),
    );
    std::fs::write(&path, &text).expect("write");
    let journal = Journal::open(&path).expect("open");
    assert_eq!(journal.loaded(), 2, "duplicates collapse");
    assert_eq!(journal.get("anneal#0/0").as_deref(), Some("9.75"));
    assert_eq!(journal.get("anneal#0/1").as_deref(), Some("2.5"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn re_recording_a_task_overwrites_in_memory_and_on_disk() {
    let path = tmp("dup-record");
    let journal = Journal::create(&path).expect("create");
    journal.record("anneal#0/0", "1.0".into()).expect("record");
    journal
        .record("anneal#0/0", "2.0".into())
        .expect("re-record");
    assert_eq!(journal.get("anneal#0/0").as_deref(), Some("2.0"));
    drop(journal);
    let back = Journal::open(&path).expect("reopen");
    assert_eq!(back.loaded(), 1, "one task, one record");
    assert_eq!(back.get("anneal#0/0").as_deref(), Some("2.0"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_checksum_is_rejected_by_task_and_line() {
    let path = tmp("bad-crc");
    let good = record_line("anneal#0/0", "1.25");
    let tampered = good.replace("1.25", "1.26"); // payload changed, crc not
    std::fs::write(&path, format!("{good}\n{tampered}\n")).expect("write");
    match Journal::open(&path) {
        Err(JournalError::Checksum { task, line }) => {
            assert_eq!(task, "anneal#0/0");
            assert_eq!(line, 2);
        }
        other => panic!("expected Checksum at line 2, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Hostile input. `parse_journal` is the one reader of the format (the
// journal's `open` and the artifact checker both call it), so it must
// turn any bytes into records or a typed error, never a panic.

/// Bytes the format is built from, so random draws reach the parser's
/// deeper branches (braces, quotes, keys, hex, newlines, a stray
/// non-UTF-8 byte).
const ALPHABET: &[u8] = b"{}[]\":,\\\n task crc value 0123456789abcdef.#/-\xff\xc3";

/// Arbitrary bytes: each drawn from the whole byte range or the
/// format's alphabet.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    (0usize..200).prop_flat_map(|n| {
        vec(
            (any::<u8>(), select(ALPHABET.to_vec()), any::<bool>()).prop_map(|(b, a, wide)| {
                if wide {
                    b
                } else {
                    a
                }
            }),
            n,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_journal_never_panics_on_arbitrary_bytes(bytes in arb_bytes()) {
        let path = PathBuf::from("fuzz.jsonl");
        match parse_journal(&path, &bytes) {
            Ok(parsed) => {
                prop_assert!(parsed.clean_len <= bytes.len());
                prop_assert!(parsed.clean_len == 0 || bytes[parsed.clean_len - 1] == b'\n');
            }
            Err(e) => prop_assert!(!matches!(e, JournalError::Io { .. }), "{}", e),
        }
    }

    #[test]
    fn parse_journal_never_panics_on_a_mutated_journal(
        at in 0usize..1_000,
        byte in any::<u8>(),
        cut in 0usize..1_000,
    ) {
        let mut bytes = format!(
            "{}\n{}\n{}\n",
            record_line("anneal#0/0", "1.25"),
            record_line("seed#1/3", "[0.5,2.0]"),
            record_line("matrix#2/0", "3.75"),
        )
        .into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        bytes.truncate(bytes.len() - cut % bytes.len());
        let path = PathBuf::from("fuzz.jsonl");
        if let Ok(parsed) = parse_journal(&path, &bytes) {
            prop_assert!(parsed.records.len() <= 3);
        }
    }
}
