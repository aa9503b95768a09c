//! A measured campaign as `repro explore` persists it
//! (`results/measured.json`): the customized cores and the
//! cross-configuration matrix, sealed in a checksummed envelope
//! ([`xps_explore::seal_checksummed`]) under the `measured` key.
//!
//! [`open_measured`] is the one decoder of the file. The harness's
//! loader and the artifact checker both call it, so a file one of them
//! calls torn or edited, the other does too.

use crate::pipeline::PipelineResult;
use serde::{Deserialize, Serialize, Value};
use xps_communal::CrossPerfMatrix;
use xps_explore::{open_checksummed, seal_checksummed, CustomizedCore, EnvelopeError};

/// The envelope member that holds the payload.
const KEY: &str = "measured";

/// A measured exploration campaign, as persisted by `repro explore`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measured {
    /// Customized cores, one per benchmark.
    pub cores: Vec<CustomizedCore>,
    /// Measured cross-configuration matrix.
    pub matrix: CrossPerfMatrix,
    /// Whether the campaign used the quick (reduced-budget) settings.
    pub quick: bool,
}

impl From<(PipelineResult, bool)> for Measured {
    fn from((r, quick): (PipelineResult, bool)) -> Measured {
        Measured {
            cores: r.cores,
            matrix: r.matrix,
            quick,
        }
    }
}

impl Measured {
    /// The file contents: the payload sealed with its checksum,
    /// pretty-printed.
    ///
    /// # Errors
    ///
    /// Returns the serializer's message for a payload JSON cannot hold.
    pub fn encode(&self) -> Result<String, String> {
        seal_checksummed(KEY, self.to_value())
    }
}

/// Open a measured-results file and return its payload tree, checked
/// against its checksum. A file from before the envelope (a bare
/// payload object) is returned whole.
///
/// # Errors
///
/// [`EnvelopeError::Torn`] when `raw` is not UTF-8 JSON,
/// [`EnvelopeError::Checksum`] when the payload does not match.
pub fn open_measured(raw: &[u8]) -> Result<Value, EnvelopeError> {
    open_checksummed(KEY, raw)
}
