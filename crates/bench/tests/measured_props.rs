//! Hostile input for `load_measured`, the reader of `measured.json`:
//! on any file contents it returns the results or a typed
//! `MeasuredError`, never a panic.

#![allow(
    clippy::disallowed_methods,
    reason = "writes hostile measured.json files on purpose"
)]

use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use xps_analyze::artifact;
use xps_bench::{load_measured, save_measured, MeasuredError};
use xps_core::explore::seal_checksummed;

static SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join("xps-measured-props");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!(
        "measured-{}-{}.json",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Load `bytes` as a `measured.json` file.
fn load(bytes: &[u8]) -> Result<(), MeasuredError> {
    let path = tmp();
    std::fs::write(&path, bytes).expect("write");
    let result = load_measured(&path).map(|_| ());
    let _ = std::fs::remove_file(&path);
    result
}

/// The tracked quick-campaign results: a real envelope to mutate.
fn quick() -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/measured-quick.json");
    std::fs::read(path).expect("tracked quick results")
}

/// Bytes the envelope is built from, so random draws reach the
/// parser's deeper branches.
const ALPHABET: &[u8] = b"{}[]\":,. crc measured cores matrix 0123456789abcdef-e\n\xff";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn load_measured_never_panics_on_arbitrary_contents(
        picks in vec((any::<u8>(), 0usize..ALPHABET.len(), any::<bool>()), 120),
    ) {
        let bytes: Vec<u8> = picks
            .into_iter()
            .map(|(b, a, wide)| if wide { b } else { ALPHABET[a] })
            .collect();
        if let Err(e) = load(&bytes) {
            prop_assert!(!e.is_not_found(), "{}", e);
        }
    }

    #[test]
    fn load_measured_never_panics_on_a_mutated_envelope(
        at in 0usize..1_000_000,
        byte in any::<u8>(),
        cut in 0usize..1_000_000,
    ) {
        let mut bytes = quick();
        let at = at % bytes.len();
        bytes[at] = byte;
        bytes.truncate(bytes.len() - cut % bytes.len());
        if let Err(e) = load(&bytes) {
            prop_assert!(!e.is_not_found(), "{}", e);
        }
    }
}

#[test]
fn the_tracked_envelope_loads() {
    load(&quick()).expect("the tracked quick results load");
}

#[test]
fn a_resave_reproduces_the_tracked_file() {
    let path = tmp();
    std::fs::write(&path, quick()).expect("write");
    let m = load_measured(&path).expect("the tracked quick results load");
    save_measured(&m, &path).expect("save");
    let again = std::fs::read(&path).expect("read");
    let _ = std::fs::remove_file(&path);
    assert!(again == quick(), "a re-save must reproduce the file");
}

/// JSON that is not a measured campaign — bare or in a valid envelope
/// — is refused by the loader and by the artifact checker alike.
#[test]
fn the_loader_and_the_checker_refuse_payloads_that_are_not_campaigns() {
    let matrix = r#"{"names":["gcc"],"ipt":[[0.5]],"weights":[1.0]}"#;
    let no_cores = format!(r#"{{"matrix":{matrix},"quick":true}}"#);
    for payload in ["{}", no_cores.as_str()] {
        let value: serde::Value = serde_json::from_str(payload).expect("payload is JSON");
        let sealed = seal_checksummed("measured", value).expect("seal");
        for file in [payload, sealed.as_str()] {
            let err = load(file.as_bytes()).expect_err("load_measured refuses it");
            assert!(err.to_string().contains("cores"), "{err}");
            let dir = tmp().with_extension("d");
            std::fs::create_dir_all(&dir).expect("mkdir");
            std::fs::write(dir.join("measured.json"), file).expect("write");
            let report = artifact::check_dir(&dir).expect("walk");
            let _ = std::fs::remove_dir_all(&dir);
            let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
            assert_eq!(rules, vec!["measured-envelope"], "{file}");
            assert!(report.findings[0].message.contains("cores"), "{file}");
        }
    }
}
