//! # xps-bench — the reproduction harness
//!
//! Support library for the `repro` binary (one subcommand per table and
//! figure of the paper) and the Criterion microbenchmarks. The pieces
//! here are plain helpers: fixed-width table rendering, persistence of
//! measured exploration results (`results/measured.json`), and the
//! source-selection logic (published paper data vs. this repository's
//! measured pipeline).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Deserialize;
use std::fmt;
use std::path::{Path, PathBuf};
use xps_core::explore::{write_atomic, EnvelopeError};
use xps_core::open_measured;
pub use xps_core::Measured;

/// Default location of persisted measured results, relative to the
/// working directory.
pub const MEASURED_PATH: &str = "results/measured.json";

/// Why persisted measured results could not be loaded (or saved).
///
/// [`MeasuredError::is_not_found`] distinguishes "no campaign has run
/// yet" (fine — run one) from a corrupt or unreadable file, which is
/// surfaced instead of silently re-exploring over it.
#[derive(Debug)]
pub enum MeasuredError {
    /// Reading or writing the file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file exists but is not valid measured-results JSON.
    Format {
        /// The file involved.
        path: PathBuf,
        /// What the parser objected to.
        detail: String,
    },
    /// The file parsed but its checksum does not match its payload —
    /// it was truncated or edited.
    Integrity {
        /// The file involved.
        path: PathBuf,
    },
}

impl MeasuredError {
    /// True when the error is simply "the file does not exist".
    pub fn is_not_found(&self) -> bool {
        matches!(self, MeasuredError::Io { source, .. }
            if source.kind() == std::io::ErrorKind::NotFound)
    }
}

impl fmt::Display for MeasuredError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasuredError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            MeasuredError::Format { path, detail } => {
                write!(
                    f,
                    "{}: not valid measured results: {detail}",
                    path.display()
                )
            }
            MeasuredError::Integrity { path } => {
                write!(
                    f,
                    "{}: checksum mismatch (file truncated or edited)",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for MeasuredError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MeasuredError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Save measured results as checksummed JSON, atomically: the file is
/// written to a temporary sibling and renamed into place, so a crash
/// mid-save leaves the previous results intact rather than a
/// half-written file.
///
/// # Errors
///
/// Returns [`MeasuredError`] on I/O or serialization failure.
pub fn save_measured(m: &Measured, path: &Path) -> Result<(), MeasuredError> {
    let json = m.encode().map_err(|detail| MeasuredError::Format {
        path: path.to_path_buf(),
        detail,
    })?;
    write_atomic(path, &json).map_err(|source| MeasuredError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Load measured results saved by [`save_measured`]. Files from
/// before the checksummed envelope (a bare `Measured` object) still
/// load.
///
/// # Errors
///
/// Returns [`MeasuredError`]: `Io` when the file cannot be read (use
/// [`MeasuredError::is_not_found`] to treat a missing file as "no
/// campaign yet"), `Format` when it is not measured-results JSON, and
/// `Integrity` when the checksum does not match the payload.
pub fn load_measured(path: &Path) -> Result<Measured, MeasuredError> {
    let raw = std::fs::read(path).map_err(|source| MeasuredError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let format = |detail: String| MeasuredError::Format {
        path: path.to_path_buf(),
        detail,
    };
    let payload = open_measured(&raw).map_err(|e| match e {
        EnvelopeError::Torn(detail) => format(detail),
        EnvelopeError::Checksum { .. } => MeasuredError::Integrity {
            path: path.to_path_buf(),
        },
    })?;
    Measured::from_value(&payload).map_err(format)
}

/// The default measured-results path.
pub fn measured_path() -> PathBuf {
    PathBuf::from(MEASURED_PATH)
}

/// Render a fixed-width table: a header row plus data rows, columns
/// padded to their widest cell, separated by two spaces.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Render one row of Kiviat axis values as a crude ASCII bar chart
/// (the Figure 1 presentation).
pub fn render_kiviat(axes: &[&str], values: &[f64]) -> String {
    assert_eq!(axes.len(), values.len(), "axis/value mismatch");
    let mut out = String::new();
    for (axis, v) in axes.iter().zip(values) {
        let filled = (v.clamp(0.0, 10.0).round()) as usize;
        out.push_str(&format!("  {axis:<26} {:<10} {v:.1}\n", "#".repeat(filled)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_alignment() {
        let t = render_table(
            &["a".into(), "bb".into()],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("  1"));
        assert!(lines[3].starts_with("333"));
    }

    #[test]
    fn kiviat_render_scales() {
        let s = render_kiviat(&["x", "y"], &[0.0, 10.0]);
        assert!(s.contains("##########"));
    }

    fn sample_measured() -> Measured {
        Measured {
            cores: vec![],
            matrix: xps_core::paper::table5_matrix(),
            quick: true,
        }
    }

    #[test]
    fn measured_roundtrip() {
        let dir = std::env::temp_dir().join("xps-bench-test");
        let path = dir.join("m.json");
        let m = sample_measured();
        save_measured(&m, &path).expect("save");
        let back = load_measured(&path).expect("load");
        assert_eq!(back.matrix, m.matrix);
        assert!(back.quick);
        assert!(
            !path.with_extension("json.tmp").exists(),
            "atomic save must clean up its temporary file"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn measured_missing_file_is_not_found() {
        let path = std::env::temp_dir().join("xps-bench-test-nonexistent/m.json");
        let err = load_measured(&path).expect_err("missing file");
        assert!(err.is_not_found(), "unexpected error: {err}");
    }

    #[test]
    fn measured_tampering_is_an_integrity_error() {
        let dir = std::env::temp_dir().join("xps-bench-test-tamper");
        let path = dir.join("m.json");
        let m = sample_measured();
        save_measured(&m, &path).expect("save");
        let tampered = std::fs::read_to_string(&path)
            .expect("read")
            .replacen("true", "false", 1);
        std::fs::write(&path, tampered).expect("write");
        let err = load_measured(&path).expect_err("tampered file");
        assert!(
            matches!(err, MeasuredError::Integrity { .. }),
            "unexpected error: {err}"
        );
        assert!(!err.is_not_found());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn measured_garbage_is_a_format_error() {
        let dir = std::env::temp_dir().join("xps-bench-test-garbage");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("m.json");
        std::fs::write(&path, "not json at all").expect("write");
        let err = load_measured(&path).expect_err("garbage file");
        assert!(
            matches!(err, MeasuredError::Format { .. }),
            "unexpected error: {err}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn measured_legacy_bare_format_still_loads() {
        let dir = std::env::temp_dir().join("xps-bench-test-legacy");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("m.json");
        let bare = serde_json::to_string_pretty(&sample_measured()).expect("serialize");
        std::fs::write(&path, bare).expect("write");
        let back = load_measured(&path).expect("legacy load");
        assert!(back.quick);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        render_table(&["a".into()], &[vec!["1".into(), "2".into()]]);
    }
}
