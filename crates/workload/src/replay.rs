//! The process-wide trace replay cache.
//!
//! A profile's op stream is a pure function of the profile, so every
//! evaluation of a different core configuration on the same workload
//! replays the identical trace. Materializing it once turns the
//! generator's per-op sampling work into a linear read for every later
//! evaluation. This is classic trace-driven simulation, and it is what
//! the exploration loop does: dozens to thousands of configurations, a
//! handful of workload profiles. The trace is held as [`PackedOp`]s,
//! the 16 bytes of each op a timing core reads, not as 40-byte
//! [`MicroOp`](crate::MicroOp)s.
//!
//! One cache serves the whole process — every fan-out thread and every
//! daemon connection handler — so a trace is materialized once per
//! process, not once per short-lived thread. Its rules:
//!
//! * a trace is materialized at most once while it is resident: a
//!   caller that finds another caller's trace still being generated
//!   waits for it instead of generating a second copy;
//! * generation runs outside the cache lock, so callers of other
//!   traces never wait on it;
//! * the cache holds at most [`REPLAY_CACHE_TOTAL_OPS`] ops and evicts
//!   the least recently used trace first;
//! * a caller holds its trace by reference count, so a trace evicted
//!   while in use stays valid until its last reader is done.

use crate::gen::with_generator;
use crate::op::PackedOp;
use crate::profile::WorkloadProfile;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Largest single trace (in ops) the replay cache will materialize.
/// Bigger requests stream through [`with_generator`] instead — a
/// million-op campaign trace would hold 16 MB even packed.
pub const REPLAY_CACHE_MAX_OPS: u64 = 65_536;

/// Total ops the replay cache holds across traces: room for two
/// maximal traces, so the longest trace of one workload never evicts
/// the other workload of a pair evaluated against each other. At 16
/// bytes per packed op that is 2 MiB.
const REPLAY_CACHE_TOTAL_OPS: u64 = 2 * REPLAY_CACHE_MAX_OPS;

/// One materialized trace: filled once, by whichever caller gets to it
/// first, and shared by reference count with every reader.
type SharedTrace = Arc<OnceLock<Vec<PackedOp>>>;

struct Entry {
    profile: WorkloadProfile,
    ops: u64,
    trace: SharedTrace,
    last_use: u64,
}

struct ReplayCache {
    entries: Vec<Entry>,
    /// Logical clock of lookups, for least-recently-used eviction.
    clock: u64,
}

static CACHE: Mutex<ReplayCache> = Mutex::new(ReplayCache {
    entries: Vec::new(),
    clock: 0,
});

impl ReplayCache {
    fn held_ops(&self) -> u64 {
        self.entries.iter().map(|e| e.ops).sum()
    }

    /// The entry that serves `ops` ops of `profile`, with its length:
    /// a resident (or in-flight) trace at least that long, or a new,
    /// still empty entry of exactly `ops` ops for the caller to fill.
    fn claim(&mut self, profile: &WorkloadProfile, ops: u64) -> (SharedTrace, u64) {
        self.clock += 1;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.ops >= ops && e.profile == *profile)
        {
            e.last_use = self.clock;
            return (Arc::clone(&e.trace), e.ops);
        }
        // The new trace subsumes any shorter one of this profile; then
        // evict least recently used traces until it fits.
        self.entries.retain(|e| e.profile != *profile);
        while self.held_ops() + ops > REPLAY_CACHE_TOTAL_OPS {
            let Some(lru) = (0..self.entries.len()).min_by_key(|&i| self.entries[i].last_use)
            else {
                break;
            };
            self.entries.swap_remove(lru);
        }
        let trace = SharedTrace::default();
        self.entries.push(Entry {
            profile: profile.clone(),
            ops,
            trace: Arc::clone(&trace),
            last_use: self.clock,
        });
        (trace, ops)
    }
}

/// Run `f` over the first `ops` micro-ops of `profile`'s trace as a
/// slice of packed ops, served from the process-wide replay cache (see
/// the module documentation for its rules).
///
/// Returns `None` (without running `f`) when `ops` exceeds
/// [`REPLAY_CACHE_MAX_OPS`]; callers fall back to streaming via
/// [`with_generator`]. The cached trace is exactly the stream
/// `TraceGenerator::new(profile)` yields, packed op by op, so results
/// are bit-identical to streaming.
///
/// Each materialization records a volatile `workload.materialize`
/// instant carrying its `ops`: which of several racing callers
/// materializes a trace depends on scheduling.
pub fn with_cached_trace<R>(
    profile: &WorkloadProfile,
    ops: u64,
    f: impl FnOnce(&[PackedOp]) -> R,
) -> Option<R> {
    if ops > REPLAY_CACHE_MAX_OPS {
        return None;
    }
    let (trace, len) = CACHE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .claim(profile, ops);
    // Outside the lock: the first caller generates, concurrent callers
    // of the same entry block here until it is filled.
    let held = trace.get_or_init(|| {
        xps_trace::instant_volatile("workload.materialize", || xps_trace::attr("ops", len));
        // Grown by doubling, not preallocated at `len`: on glibc the
        // exact-size buffers of traces outliving their threads
        // fragmented the per-thread arenas, +15% peak RSS on the
        // two-worker fleet; capacity past `len` is never written.
        with_generator(profile, |g| {
            g.take(len as usize).map(|op| PackedOp::from(&op)).collect()
        })
    });
    Some(f(&held[..ops as usize]))
}

/// Ops the replay cache holds right now, in-flight traces included.
/// Exposed for the bound regression test; not a stable API.
#[doc(hidden)]
pub fn replay_cache_footprint() -> u64 {
    CACHE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .held_ops()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenerator;
    use crate::spec;

    /// The first `ops` ops of a fresh generator for `p`, packed: what
    /// the cache must hand out.
    fn fresh(p: &WorkloadProfile, ops: usize) -> Vec<PackedOp> {
        TraceGenerator::new(p.clone())
            .take(ops)
            .map(|op| PackedOp::from(&op))
            .collect()
    }
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    /// Taken by every test here: they assert residency and eviction of
    /// the one process-wide cache, which the others' floods disturb.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A profile no other test asks the shared cache for.
    fn private_profile(base: &str) -> WorkloadProfile {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let mut p = spec::profile(base).expect("known benchmark");
        p.seed = 0x5eed_0000_0000 + NEXT.fetch_add(1, Ordering::Relaxed);
        p
    }

    /// Run `f` with a trace recorder installed and return its result
    /// with the number of materializations it caused on this thread.
    fn counting<R>(f: impl FnOnce() -> R) -> (R, usize) {
        let (rec, out) = xps_trace::with_recorder(xps_trace::SpanRecorder::new(), f);
        let events = rec.finish();
        let n = events
            .iter()
            .filter(|e| e.name == "workload.materialize")
            .inspect(|e| assert!(e.volatile, "which racer materializes is scheduling"))
            .count();
        (out, n)
    }

    #[test]
    fn cached_trace_replays_fresh_stream() {
        let _serial = serial();
        let p = private_profile("gcc");
        let fresh = fresh(&p, 1000);
        // First call materializes, second replays from cache; both see
        // the exact fresh stream.
        let (first, made) = counting(|| with_cached_trace(&p, 1000, |t| t.to_vec()));
        assert_eq!((first.expect("within bound"), made), (fresh.clone(), 1));
        let (again, made) = counting(|| with_cached_trace(&p, 1000, |t| t.to_vec()));
        assert_eq!((again.expect("within bound"), made), (fresh.clone(), 0));
        // A shorter request is served from the longer cached trace.
        let short = with_cached_trace(&p, 10, |t| t.to_vec()).expect("within cache bound");
        assert_eq!(short, fresh[..10]);
        // Budgets beyond the bound refuse (callers stream instead).
        assert_eq!(
            with_cached_trace(&p, REPLAY_CACHE_MAX_OPS + 1, |t| t.len()),
            None
        );
    }

    #[test]
    fn concurrent_requests_materialize_a_trace_once() {
        let _serial = serial();
        const THREADS: usize = 8;
        let p = private_profile("mcf");
        let ops = 20_000;
        let fresh = fresh(&p, ops);
        let start = Barrier::new(THREADS);
        let runs: Vec<(Vec<PackedOp>, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        counting(|| {
                            with_cached_trace(&p, ops as u64, |t| t.to_vec()).expect("in bound")
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect()
        });
        assert!(
            runs.iter().all(|(t, _)| *t == fresh),
            "a reader saw another stream"
        );
        let made: usize = runs.iter().map(|(_, n)| n).sum();
        assert_eq!(made, 1, "{THREADS} concurrent readers, one materialization");
    }

    #[test]
    fn a_trace_evicted_in_use_stays_readable() {
        let _serial = serial();
        let p = private_profile("gzip");
        let fresh = fresh(&p, 5_000);
        with_cached_trace(&p, 5_000, |held| {
            // Two maximal traces of other workloads fill the whole
            // bound, evicting `p`'s trace while this reader holds it.
            for _ in 0..2 {
                let q = private_profile("twolf");
                with_cached_trace(&q, REPLAY_CACHE_MAX_OPS, |_| ()).expect("in bound");
            }
            assert_eq!(held, &fresh[..], "the held slice changed under eviction");
        })
        .expect("in bound");
        // It was evicted: asking again materializes it afresh.
        let (again, made) = counting(|| with_cached_trace(&p, 5_000, |t| t.to_vec()));
        assert_eq!((again.expect("in bound"), made), (fresh, 1));
    }

    #[test]
    fn held_ops_never_exceed_the_bound() {
        let _serial = serial();
        let lengths = [
            1_000,
            REPLAY_CACHE_MAX_OPS,
            30_000,
            REPLAY_CACHE_MAX_OPS / 2,
        ];
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for (k, &ops) in lengths.iter().cycle().skip(t as usize).take(6).enumerate() {
                        let p = private_profile(if k % 2 == 0 { "vpr" } else { "parser" });
                        with_cached_trace(&p, ops, |trace| {
                            assert_eq!(trace.len() as u64, ops);
                            let held = replay_cache_footprint();
                            assert!(held <= REPLAY_CACHE_TOTAL_OPS, "held {held} ops");
                        })
                        .expect("in bound");
                    }
                });
            }
        });
        assert!(replay_cache_footprint() <= REPLAY_CACHE_TOTAL_OPS);
    }
}
