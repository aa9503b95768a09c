//! The benchmark's one wall-clock read.

use std::time::Instant;

/// Now, on the monotonic clock.
pub fn now() -> Instant {
    // xps-allow(determinism-provenance): a benchmark's output is wall time; the program's own outputs are hashed and checked separately
    Instant::now()
}
