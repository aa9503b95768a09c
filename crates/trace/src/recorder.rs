//! Per-task span recorders and the thread-local recording surface.
//!
//! A [`SpanRecorder`] buffers the events of one *track* — one pool
//! task, or the caller thread's root track — with its own logical
//! clock starting at zero. Because the clock is per-track and every
//! deterministic event a task records depends only on the task's own
//! computation, a track's event list is identical no matter which
//! worker thread ran it or how many workers existed; the sink merges
//! tracks by their deterministic task key, which is what makes the
//! whole journal bit-identical across `--jobs N`.
//!
//! Instrumented code never threads a recorder through its signatures.
//! It calls the free functions ([`span`], [`instant`],
//! [`instant_volatile`]), which record into whichever recorder is
//! installed on the current thread — and are no-ops when none is.
//! [`with_recorder`] installs one for the duration of a closure,
//! nesting correctly (the worker pool's serial fast path runs tasks on
//! the caller thread, inside the caller's own recording scope) and
//! restoring the previous recorder even on panic, so a task that
//! unwinds into the pool's `catch_unwind` boundary cannot corrupt the
//! caller's track.

use crate::event::{AttrValue, Attrs, Event, EventKind};
use std::cell::RefCell;
use std::sync::Arc;

/// A nanosecond clock injected at the process edge (CLI, benchmark).
///
/// Deterministic code never constructs one; see
/// [`TraceSink::with_wall_clock`](crate::TraceSink::with_wall_clock).
#[derive(Clone)]
pub struct WallClock(Arc<dyn Fn() -> u64 + Send + Sync>);

impl WallClock {
    /// Wrap a nanosecond-reading closure.
    pub fn new(f: impl Fn() -> u64 + Send + Sync + 'static) -> WallClock {
        WallClock(Arc::new(f))
    }

    /// Read the clock.
    pub fn now_ns(&self) -> u64 {
        (self.0)()
    }
}

impl std::fmt::Debug for WallClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WallClock(..)")
    }
}

/// The event buffer of one track.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    events: Vec<Event>,
    clock: u64,
    open: Vec<&'static str>,
    wall: Option<WallClock>,
}

impl SpanRecorder {
    /// A recorder with no wall clock: every event is purely logical.
    pub fn new() -> SpanRecorder {
        SpanRecorder::default()
    }

    /// A recorder that additionally stamps events with wall-clock
    /// nanoseconds for the self-profile. The stamps never reach the
    /// serialized journal.
    pub fn with_wall(clock: WallClock) -> SpanRecorder {
        SpanRecorder {
            wall: Some(clock),
            ..SpanRecorder::default()
        }
    }

    fn stamp(&self) -> Option<u64> {
        self.wall.as_ref().map(WallClock::now_ns)
    }

    /// Open a span. Pair with [`SpanRecorder::end`].
    pub fn begin(&mut self, name: &'static str) {
        let ev = Event {
            tick: self.clock,
            kind: EventKind::Begin,
            name,
            attrs: Attrs::new(),
            volatile: false,
            wall_ns: self.stamp(),
        };
        self.clock += 1;
        self.open.push(name);
        self.events.push(ev);
    }

    /// Close the innermost open span, attaching closing attributes.
    /// Ignored when no span is open (a guard outliving its recorder).
    pub fn end(&mut self, attrs: Attrs) {
        let Some(name) = self.open.pop() else {
            return;
        };
        let ev = Event {
            tick: self.clock,
            kind: EventKind::End,
            name,
            attrs,
            volatile: false,
            wall_ns: self.stamp(),
        };
        self.clock += 1;
        self.events.push(ev);
    }

    /// Record a deterministic point event; advances the logical clock.
    pub fn instant(&mut self, name: &'static str, attrs: Attrs) {
        let ev = Event {
            tick: self.clock,
            kind: EventKind::Instant,
            name,
            attrs,
            volatile: false,
            wall_ns: self.stamp(),
        };
        self.clock += 1;
        self.events.push(ev);
    }

    /// Record a scheduling-dependent point event (a shared-cache hit,
    /// a simulator run behind a racing miss). Kept for the profile,
    /// excluded from the journal, and — crucially — does *not* advance
    /// the logical clock, so its occurrence cannot shift the ticks of
    /// deterministic neighbours.
    pub fn instant_volatile(&mut self, name: &'static str, attrs: Attrs) {
        self.events.push(Event {
            tick: self.clock,
            kind: EventKind::Instant,
            name,
            attrs,
            volatile: true,
            wall_ns: self.stamp(),
        });
    }

    /// How many spans are currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close any spans still open and return the event buffer.
    pub fn finish(mut self) -> Vec<Event> {
        while !self.open.is_empty() {
            self.end(Attrs::new());
        }
        self.events
    }
}

thread_local! {
    static CURRENT: RefCell<Option<SpanRecorder>> = const { RefCell::new(None) };
}

/// Restores the previously installed recorder when dropped, unless
/// the normal path already did; this is what keeps a panicking task
/// from leaving its recorder installed on the caller thread.
struct Restore {
    prev: Option<SpanRecorder>,
    done: bool,
}

impl Drop for Restore {
    fn drop(&mut self) {
        if !self.done {
            let prev = self.prev.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Install `rec` as the current thread's recorder for the duration of
/// `f`, then hand it back along with `f`'s result. Nests: the
/// recorder previously installed (if any) is saved and restored, even
/// if `f` panics.
pub fn with_recorder<R>(rec: SpanRecorder, f: impl FnOnce() -> R) -> (SpanRecorder, R) {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(rec));
    let mut restore = Restore { prev, done: false };
    let out = f();
    let rec = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), restore.prev.take()));
    restore.done = true;
    // `rec` is always `Some`: nested `with_recorder` calls restore our
    // recorder on their way out, and nothing else takes it.
    (rec.unwrap_or_default(), out)
}

/// Whether a recorder is installed on this thread (instrumentation is
/// live).
pub fn recording() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

fn with_current(f: impl FnOnce(&mut SpanRecorder)) {
    CURRENT.with(|c| {
        if let Some(rec) = c.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// An RAII span on the current thread's recorder: opened at
/// construction, closed (with no attributes) on drop, or closed with
/// attributes via [`Span::end_with`].
#[must_use = "a span closes when dropped; bind it to a variable for the intended extent"]
#[derive(Debug)]
pub struct Span {
    done: bool,
}

impl Span {
    /// Close the span now, attaching closing attributes.
    pub fn end_with(mut self, attrs: impl FnOnce() -> Attrs) {
        self.done = true;
        with_current(|rec| rec.end(attrs()));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.done {
            with_current(|rec| rec.end(Attrs::new()));
        }
    }
}

/// Open a span named `name` on the current thread's recorder. A no-op
/// guard when no recorder is installed.
pub fn span(name: &'static str) -> Span {
    with_current(|rec| rec.begin(name));
    Span { done: false }
}

/// Record a deterministic instant. The attribute closure only runs
/// when a recorder is installed.
pub fn instant(name: &'static str, attrs: impl FnOnce() -> Attrs) {
    with_current(|rec| rec.instant(name, attrs()));
}

/// Record a volatile (scheduling-dependent) instant; see
/// [`SpanRecorder::instant_volatile`].
pub fn instant_volatile(name: &'static str, attrs: impl FnOnce() -> Attrs) {
    with_current(|rec| rec.instant_volatile(name, attrs()));
}

/// Convenience: an attribute list with a single entry. Does not
/// allocate.
pub fn attr(key: &'static str, value: impl Into<AttrValue>) -> Attrs {
    let mut attrs = Attrs::new();
    attrs.push(key, value);
    attrs
}

/// Convenience: an attribute list from a fixed-size array. Does not
/// allocate for up to four entries — the right constructor on hot
/// paths.
pub fn attrs<const N: usize>(items: [(&'static str, AttrValue); N]) -> Attrs {
    Attrs::from(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_functions_are_noops_without_a_recorder() {
        assert!(!recording());
        let g = span("orphan");
        instant("i", || attr("k", 1u64));
        drop(g);
        // Nothing to observe — the test passes by not panicking.
    }

    #[test]
    fn spans_nest_and_volatile_events_do_not_advance_the_clock() {
        let (rec, ()) = with_recorder(SpanRecorder::new(), || {
            let outer = span("outer");
            instant_volatile("cache.hit", Attrs::new);
            let inner = span("inner");
            instant("move", || attr("ops", 7u64));
            inner.end_with(|| attr("accepted", true));
            outer.end_with(Attrs::new);
        });
        let events = rec.finish();
        let ticks: Vec<(u64, bool)> = events.iter().map(|e| (e.tick, e.volatile)).collect();
        assert_eq!(
            ticks,
            vec![
                (0, false), // begin outer
                (1, true),  // volatile borrows tick 1, does not consume it
                (1, false), // begin inner
                (2, false), // move
                (3, false), // end inner
                (4, false), // end outer
            ]
        );
        assert_eq!(events[4].attrs, attr("accepted", true));
    }

    #[test]
    fn with_recorder_nests_and_restores_on_panic() {
        let (outer_rec, ()) = with_recorder(SpanRecorder::new(), || {
            instant("before", Attrs::new);
            let task = SpanRecorder::new();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_recorder(task, || {
                    let _g = span("doomed");
                    panic!("boom");
                })
            }));
            assert!(result.is_err());
            // The outer recorder is current again after the unwind.
            instant("after", Attrs::new);
        });
        let names: Vec<&str> = outer_rec.finish().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["before", "after"]);
    }

    #[test]
    fn finish_closes_dangling_spans() {
        let mut rec = SpanRecorder::new();
        rec.begin("a");
        rec.begin("b");
        let events = rec.finish();
        assert_eq!(events.len(), 4);
        assert_eq!(events[2].name, "b");
        assert_eq!(events[3].name, "a");
        assert!(matches!(events[3].kind, EventKind::End));
    }
}
