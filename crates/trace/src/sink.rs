//! The collection point of a traced run.
//!
//! A [`TraceSink`] owns one event buffer per *track*, keyed by the
//! deterministic task key the worker pool already uses for journaling
//! (`anneal#0/1`, `matrix#0/17`, or `main` for the caller thread).
//! Workers record into private [`SpanRecorder`]s and attach them under
//! their task key when the task succeeds; because keys are
//! deterministic and the map is ordered, the serialized journal is
//! byte-identical no matter how many workers ran or how their
//! schedules interleaved.
//!
//! The sink is also where wall time enters — and only here, at the
//! process edge. [`TraceSink::with_wall_clock`] wires a monotonic
//! nanosecond clock into every recorder the sink hands out; the stamps
//! feed the self-profile but are never serialized, which is how the
//! trace journal stays deterministic while `repro profile` can still
//! print milliseconds.

use crate::event::Event;
use crate::profile::Profile;
use crate::recorder::{SpanRecorder, WallClock};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Shared, thread-safe collector of per-track event buffers.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    tracks: Arc<Mutex<BTreeMap<String, Vec<Event>>>>,
    wall: Option<WallClock>,
}

impl TraceSink {
    /// A sink with no wall clock: fully deterministic, usable anywhere
    /// (tests, library callers).
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// A sink whose recorders stamp events with monotonic wall-clock
    /// nanoseconds for the self-profile. This is the *edge*
    /// constructor: only the CLI and the benchmark harness call it;
    /// deterministic code receives the sink ready-made and cannot
    /// observe the clock.
    pub fn with_wall_clock() -> TraceSink {
        // This is the one edge where wall time may enter a trace;
        // stamps feed only the human-facing profile and are never
        // serialized into measured output (`to_ndjson` drops them),
        // so determinism is preserved.
        // xps-allow(determinism-provenance): edge-only wall clock, see above
        let epoch = std::time::Instant::now();
        TraceSink {
            tracks: Arc::default(),
            wall: Some(WallClock::new(move || {
                u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
            })),
        }
    }

    /// A fresh recorder wired to this sink's clock (if any). The
    /// caller records into it and hands it back via
    /// [`TraceSink::attach`].
    pub fn recorder(&self) -> SpanRecorder {
        match &self.wall {
            Some(clock) => SpanRecorder::with_wall(clock.clone()),
            None => SpanRecorder::new(),
        }
    }

    /// File a finished recorder under its track key. Attaching twice
    /// to one key appends, preserving order of attachment.
    pub fn attach(&self, key: &str, rec: SpanRecorder) {
        let events = rec.finish();
        if events.is_empty() {
            return;
        }
        self.tracks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key.to_string())
            .or_default()
            .extend(events);
    }

    /// Track keys currently filed, in order.
    pub fn track_keys(&self) -> Vec<String> {
        self.tracks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }

    /// Serialize the deterministic trace journal: one NDJSON line per
    /// non-volatile event, tracks in key order. Byte-identical across
    /// worker counts — volatile events and wall-clock stamps never
    /// appear.
    pub fn to_ndjson(&self) -> String {
        let tracks = self.tracks.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for (key, events) in tracks.iter() {
            for ev in events.iter().filter(|e| !e.volatile) {
                ev.write_json(key, &mut out);
                out.push('\n');
            }
        }
        out
    }

    /// Aggregate the whole trace — volatile events included — into a
    /// per-phase profile.
    pub fn profile(&self) -> Profile {
        let tracks = self.tracks.lock().unwrap_or_else(PoisonError::into_inner);
        let mut profile = Profile::default();
        for (key, events) in tracks.iter() {
            profile.absorb_track(key, events);
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Attrs;
    use crate::recorder::attr;

    #[test]
    fn journal_is_track_ordered_and_drops_volatile() {
        let sink = TraceSink::new();
        let mut b = sink.recorder();
        b.instant("second", Attrs::new());
        sink.attach("b#0/1", b);
        let mut a = sink.recorder();
        a.begin("first");
        a.instant_volatile("cache.hit", Attrs::new());
        a.end(attr("ops", 3u64));
        sink.attach("a#0/0", a);
        let journal = sink.to_ndjson();
        let lines: Vec<&str> = journal.lines().collect();
        assert_eq!(lines.len(), 3, "{journal}");
        assert!(lines[0].contains("\"track\":\"a#0/0\"") && lines[0].contains("begin"));
        assert!(lines[1].contains("\"ev\":\"end\""));
        assert!(lines[2].contains("\"track\":\"b#0/1\""));
        assert!(!journal.contains("cache.hit"));
        // The profile still sees the volatile event.
        assert_eq!(sink.profile().row("cache.hit").expect("row").count, 1);
    }

    #[test]
    fn wall_clock_stamps_profile_but_not_journal() {
        let sink = TraceSink::with_wall_clock();
        let mut rec = sink.recorder();
        rec.begin("phase");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end(Attrs::new());
        sink.attach("main", rec);
        assert!(sink.profile().row("phase").expect("row").wall_ns > 0);
        assert!(!sink.to_ndjson().contains("wall"));
    }

    #[test]
    fn empty_recorders_leave_no_track() {
        let sink = TraceSink::new();
        sink.attach("idle", sink.recorder());
        assert!(sink.track_keys().is_empty());
        assert!(sink.to_ndjson().is_empty());
    }
}
