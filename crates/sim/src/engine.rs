//! The out-of-order timing engine.
//!
//! A constraint-based trace-timing model: each micro-op's pipeline
//! events are computed in program order from the machine's structural
//! limits, while issue itself is out of order (a younger ready op may
//! claim an earlier issue slot than an older stalled one). This is the
//! standard dependency-driven formulation of an OoO timing simulator —
//! it reproduces the first-order behaviours the paper's exploration
//! depends on (window-size vs. memory-latency tolerance, clock vs.
//! structure sizing, misprediction vs. pipeline depth) at a cost of
//! O(1) amortized work per op.
//!
//! # Hot-path layout
//!
//! Every campaign in the workspace bottoms out in [`Simulator::step`],
//! so its bookkeeping is organized around three invariants (proved in
//! DESIGN.md "Simulator hot path", enforced by
//! `tests/engine_equivalence.rs` against
//! [`crate::ReferenceSimulator`], which keeps the pre-overhaul
//! bookkeeping and the frozen rank-LRU caches of
//! [`crate::reference::cache`]):
//!
//! * **Issue-slot frontier.** Every slot request is at least
//!   `cur_fetch + frontend_depth + sched_depth`, and `cur_fetch` never
//!   decreases — so per-cycle slot counters live in a sliding
//!   [`SlotWindow`]: a dense ring indexed `cycle & (SLOT_WINDOW-1)`
//!   for the cycles near the frontier, and a small sorted spill list
//!   for far-future claims. O(1) amortized (each cycle's counter is
//!   zeroed once, as the floor passes it), no hashing, no allocation
//!   in the common case, and auxiliary state is O(window) instead of
//!   the old `HashMap`'s O(ops-between-prunes).
//! * **Store-ring recency.** The 64-entry forwarding ring holds the
//!   last [`STORE_RING`] stores, so a load can only forward if some
//!   store to its (8-byte-aligned) address happened in the last 64
//!   stores. A per-address-hash table of last-store sequence numbers
//!   proves most loads *cannot* match, skipping the linear scan; the
//!   scan itself is unchanged when a match is possible, so forwarding
//!   semantics (max data-ready among matching ring entries) are
//!   untouched.
//! * **Per-op state stays in registers and in place.** The structural
//!   parameters are hoisted out of [`CoreConfig`] into scalar fields
//!   at construction, and ring indices are carried incrementally
//!   instead of recomputed with `%` (a division) per op. The engine
//!   steps [`PackedOp`]s: 16 bytes holding only what it reads, with an
//!   absent register on a sentinel slot of `regs_avail` (one always
//!   ready, one write-only), so operand reads compile to branchless max
//!   chains and the destination write is unconditional. Ops are read
//!   where they already are: a replayed trace is stepped as 256-op
//!   slices of the packed cached trace, and only a streamed trace is
//!   packed, once per chunk for the whole group, into a buffer
//!   ([`step_chunk`] is the one stepping loop).
//!
//! The data caches behind `step` are constant-time per way as well:
//! last-use stamps instead of a rank array, zeroed arrays as the empty
//! state, and a filtered one-pass probe of the pending fills (see
//! [`crate::cache`]).

use crate::cache::{DataCache, Hierarchy, PrefetchKind};
use crate::config::CoreConfig;
use crate::predictor::{Predictor, PredictorKind};
use crate::stats::SimStats;
use std::ops::Range;
use xps_workload::{MicroOp, OpClass, PackedOp, REG_COUNT};

/// Execution latencies (cycles) by op class.
const LAT_ALU: u64 = 1;
const LAT_MUL: u64 = 3;
const LAT_DIV: u64 = 20;
const LAT_BRANCH: u64 = 1;
/// Address-generation latency before a memory access starts.
const LAT_AGEN: u64 = 1;
/// Store-to-load forwarding latency.
const LAT_FORWARD: u64 = 1;
/// Entries in the store ring searched for forwarding.
const STORE_RING: usize = 64;
/// Buckets in the store-forwarding filter (power of two). Collisions
/// only cost a wasted ring scan, never a wrong result.
const STORE_FILTER: usize = 256;
/// Dense slot-counter window in cycles (power of two). Claims beyond
/// the window spill to a sorted list; see [`SlotWindow`].
const SLOT_WINDOW: usize = 4096;
/// Per-cycle issue-slot usage over a sliding window of cycles.
///
/// The window floor (`base`) only moves forward, and only to cycles no
/// future request can precede; counters for cycles below the floor are
/// dead and their ring entries are reused. Claims landing at or beyond
/// `base + SLOT_WINDOW` go to `spill`, kept sorted by cycle and
/// migrated into the ring as the floor advances. ROB back-pressure
/// bounds the live span, so the spill list stays O(rob), not O(ops).
#[derive(Debug, Clone)]
struct SlotWindow {
    /// Issue width: max claims per cycle.
    width: u32,
    /// Counter for in-window cycle `c` lives at `ring[c & MASK]`.
    ring: Vec<u32>,
    /// First cycle of the dense window.
    base: u64,
    /// Far-future claims, ascending by cycle; live from `head` on.
    spill: Vec<(u64, u32)>,
    head: usize,
}

impl SlotWindow {
    const MASK: usize = SLOT_WINDOW - 1;

    fn new(width: u32) -> SlotWindow {
        SlotWindow {
            width,
            ring: vec![0; SLOT_WINDOW],
            base: 0,
            spill: Vec::new(),
            head: 0,
        }
    }

    /// Raise the window floor to `frontier`: no request at a cycle
    /// below it will ever be made again (callers derive it from the
    /// monotone fetch frontier). Vacated ring entries are zeroed for
    /// the cycles that slide into view; spill entries now inside the
    /// window move into the ring.
    fn advance(&mut self, frontier: u64) {
        if frontier <= self.base {
            return;
        }
        if frontier - self.base >= SLOT_WINDOW as u64 {
            self.ring.fill(0);
        } else {
            for c in self.base..frontier {
                self.ring[c as usize & Self::MASK] = 0;
            }
        }
        self.base = frontier;
        if self.head < self.spill.len() {
            self.migrate();
        }
    }

    /// Move spill entries that fell inside (or behind) the window.
    #[cold]
    fn migrate(&mut self) {
        let limit = self.base + SLOT_WINDOW as u64;
        while let Some(&(c, n)) = self.spill.get(self.head) {
            if c >= limit {
                break;
            }
            self.head += 1;
            // Entries behind the floor are dead; in-window entries
            // take over their (just-vacated) ring slot.
            if c >= self.base {
                self.ring[c as usize & Self::MASK] = n;
            }
        }
        // Compact once the dead prefix dominates, so the list's memory
        // tracks the live span instead of growing with the trace.
        if self.head > 64 && self.head * 2 >= self.spill.len() {
            self.spill.drain(..self.head);
            self.head = 0;
        }
    }

    /// Claim the earliest cycle at or after `desired` with a free
    /// slot. `desired` must be at or above the window floor.
    fn alloc(&mut self, desired: u64) -> u64 {
        debug_assert!(
            desired >= self.base,
            "slot request {desired} below window floor {}",
            self.base
        );
        let limit = self.base + SLOT_WINDOW as u64;
        let mut c = desired;
        while c < limit {
            let used = &mut self.ring[c as usize & Self::MASK];
            if *used < self.width {
                *used += 1;
                return c;
            }
            c += 1;
        }
        self.alloc_spill(c)
    }

    /// Slow path: claim at or after `c`, which is beyond the dense
    /// window.
    #[cold]
    fn alloc_spill(&mut self, mut c: u64) -> u64 {
        loop {
            match self.spill[self.head..].binary_search_by_key(&c, |&(cycle, _)| cycle) {
                Ok(i) => {
                    let used = &mut self.spill[self.head + i];
                    if used.1 < self.width {
                        used.1 += 1;
                        return c;
                    }
                    c += 1;
                }
                Err(i) => {
                    self.spill.insert(self.head + i, (c, 1));
                    return c;
                }
            }
        }
    }

    /// Live auxiliary entries (dense window plus live spill), for the
    /// O(window) regression test.
    fn footprint_entries(&self) -> usize {
        SLOT_WINDOW + (self.spill.len() - self.head)
    }
}

/// The simulator: construct per [`CoreConfig`], then [`Simulator::run`]
/// a trace through it.
///
/// A `Simulator` is single-use state for one run; build a fresh one (or
/// call `run` once) per (workload, configuration) measurement.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: CoreConfig,
    dcache: Hierarchy,
    predictor: Predictor,
    // Structural parameters, hoisted to scalars so `step` never chases
    // the config behind a pointer or re-widens per op.
    width: u32,
    fe: u64,
    sched: u64,
    lsqd: u64,
    wakeup: u64,
    penalty: u64,
    /// Cycle at which a dependent of each register may issue, then
    /// the two sentinel slots: [`PackedOp::NO_SRC`] (never written, so
    /// always ready) and [`PackedOp::NO_DEST`] (written, never read).
    regs_avail: [u64; REG_COUNT + 2],
    /// Commit cycle of op `i`, indexed `i % rob_size`.
    commit_ring: Vec<u64>,
    /// Issue cycle of op `i`, indexed `i % iq_size`.
    issue_ring: Vec<u64>,
    /// Commit cycle of the `j`-th memory op, indexed `j % lsq_size`.
    mem_ring: Vec<u64>,
    // Ring cursors carried incrementally (i % rob, i % iq,
    // mem_ops % lsq) so the hot loop performs no integer division.
    rob_idx: usize,
    iq_idx: usize,
    lsq_idx: usize,
    /// Recent stores for forwarding: (8-byte-aligned addr, data ready).
    stores: [(u64, u64); STORE_RING],
    store_head: usize,
    /// Stores processed so far (sequence numbers are 1-based).
    store_seq: u64,
    /// Last store sequence number per address-hash bucket; 0 = never.
    /// A load scans the ring only if its bucket is recent enough that
    /// a matching store could still be resident.
    store_filter: [u64; STORE_FILTER],
    /// Address-ready cycle of the most recent older store (conservative
    /// memory disambiguation: loads wait for older store addresses).
    store_addr_barrier: u64,
    /// Per-cycle issue-slot usage.
    issue_slots: SlotWindow,
    cur_fetch: u64,
    fetched_this_cycle: u32,
    redirect_barrier: u64,
    cur_commit: u64,
    commits_this_cycle: u32,
    ops: u64,
    mem_ops: u64,
    branches: u64,
    mispredicts: u64,
    last_commit: u64,
}

impl Simulator {
    /// Build a simulator for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`].
    pub fn new(cfg: &CoreConfig) -> Simulator {
        Simulator::with_predictor(cfg, PredictorKind::Gshare)
    }

    /// Build a simulator with a non-default branch predictor (for the
    /// predictor ablation; the paper's explored design space keeps the
    /// predictor fixed).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`].
    pub fn with_predictor(cfg: &CoreConfig, predictor: PredictorKind) -> Simulator {
        Simulator::with_options(cfg, predictor, PrefetchKind::None)
    }

    /// Build a simulator with explicit predictor and prefetcher
    /// choices (both held fixed by the paper; both ablatable here).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`].
    pub fn with_options(
        cfg: &CoreConfig,
        predictor: PredictorKind,
        prefetch: PrefetchKind,
    ) -> Simulator {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid core config `{}`: {e}", cfg.name));
        Simulator {
            dcache: Hierarchy::with_prefetcher(&cfg.l1, &cfg.l2, cfg.mem_cycles(), prefetch),
            predictor: Predictor::of_kind(predictor),
            width: cfg.width,
            fe: u64::from(cfg.frontend_depth),
            sched: u64::from(cfg.sched_depth),
            lsqd: u64::from(cfg.lsq_depth),
            wakeup: u64::from(cfg.wakeup_extra),
            penalty: u64::from(cfg.mispredict_penalty()),
            regs_avail: [0; REG_COUNT + 2],
            commit_ring: vec![0; cfg.rob_size as usize],
            issue_ring: vec![0; cfg.iq_size as usize],
            mem_ring: vec![0; cfg.lsq_size as usize],
            rob_idx: 0,
            iq_idx: 0,
            lsq_idx: 0,
            stores: [(u64::MAX, 0); STORE_RING],
            store_head: 0,
            store_seq: 0,
            store_filter: [0; STORE_FILTER],
            store_addr_barrier: 0,
            issue_slots: SlotWindow::new(cfg.width),
            cur_fetch: 0,
            fetched_this_cycle: 0,
            redirect_barrier: 0,
            cur_commit: 0,
            commits_this_cycle: 0,
            ops: 0,
            mem_ops: 0,
            branches: 0,
            mispredicts: 0,
            last_commit: 0,
            cfg: cfg.clone(),
        }
    }

    /// Run up to `max_ops` micro-ops of `trace` through the machine and
    /// return the measurements.
    pub fn run(mut self, trace: impl IntoIterator<Item = MicroOp>, max_ops: u64) -> SimStats {
        step_streamed(std::slice::from_mut(&mut self), trace, max_ops);
        self.finish()
    }

    /// The measurements of a finished run. Volatile: whether a
    /// simulation *happened* depends on which racing worker lost the
    /// shared-cache race, so the `sim.run` event is profile-only and
    /// never journaled. The attribute list is inline (no heap
    /// allocation) — this closure runs once per simulation during
    /// traced campaigns.
    fn finish(self) -> SimStats {
        xps_trace::instant_volatile("sim.run", || {
            xps_trace::attrs([
                ("ops", self.ops.into()),
                ("cycles", self.last_commit.into()),
            ])
        });
        SimStats {
            instructions: self.ops,
            cycles: self.last_commit,
            clock_ns: self.cfg.clock_ns,
            branches: self.branches,
            mispredicts: self.mispredicts,
            l1: self.dcache.l1_stats(),
            l2: self.dcache.l2_stats(),
        }
    }

    /// Live auxiliary bookkeeping entries of the issue-slot structure.
    /// Exposed for the O(window) regression test; not a stable API.
    #[doc(hidden)]
    pub fn issue_slot_footprint(&self) -> usize {
        self.issue_slots.footprint_entries()
    }

    /// Step a single micro-op. Exposed so tests can sample auxiliary
    /// state mid-run (e.g. [`Simulator::issue_slot_footprint`]); not a
    /// stable API — use [`Simulator::run`] for simulation.
    #[doc(hidden)]
    pub fn step_op(&mut self, op: &MicroOp) {
        self.step(&PackedOp::from(op));
    }

    fn step(&mut self, op: &PackedOp) {
        let i = self.ops;
        self.ops += 1;
        let fe = self.fe;
        let rob = self.commit_ring.len() as u64;
        let iq = self.issue_ring.len() as u64;
        let lsq = self.mem_ring.len() as u64;

        // --- Fetch: bandwidth, redirects, and window back-pressure.
        let mut fetch = self.cur_fetch.max(self.redirect_barrier);
        if i >= rob {
            fetch = fetch.max(self.commit_ring[self.rob_idx].saturating_sub(fe));
        }
        if i >= iq {
            fetch = fetch.max(self.issue_ring[self.iq_idx].saturating_sub(fe));
        }
        let class = op.class();
        let is_mem = class.is_mem();
        if is_mem && self.mem_ops >= lsq {
            fetch = fetch.max(self.mem_ring[self.lsq_idx].saturating_sub(fe));
        }
        if fetch > self.cur_fetch {
            self.cur_fetch = fetch;
            self.fetched_this_cycle = 0;
        }
        if self.fetched_this_cycle >= self.width {
            self.cur_fetch += 1;
            self.fetched_this_cycle = 0;
            fetch = self.cur_fetch;
        }
        self.fetched_this_cycle += 1;

        // --- Dispatch and operand readiness.
        let dispatch = fetch + fe;
        // Every slot request — this op's and every later op's — is at
        // least `cur_fetch + fe + sched` from here on (`cur_fetch`
        // never decreases), so cycles below that are dead: slide the
        // slot window floor up to them.
        self.issue_slots.advance(self.cur_fetch + fe + self.sched);
        let mut ready = (dispatch + self.sched)
            .max(self.regs_avail[op.src0()])
            .max(self.regs_avail[op.src1()]);
        if class == OpClass::Load {
            // Conservative disambiguation: wait for older store
            // addresses to be known.
            ready = ready.max(self.store_addr_barrier);
        }

        // --- Issue (out of order, width per cycle).
        let issue = self.issue_slots.alloc(ready);
        self.issue_ring[self.iq_idx] = issue;

        // --- Execute.
        let lsqd = self.lsqd;
        let complete = match class {
            OpClass::IntAlu => issue + LAT_ALU,
            OpClass::IntMul => issue + LAT_MUL,
            OpClass::IntDiv => issue + LAT_DIV,
            OpClass::Branch => issue + LAT_BRANCH,
            OpClass::Load => {
                let agen_done = issue + LAT_AGEN;
                let addr = op.word();
                let addr8 = addr & !7;
                // Store-to-load forwarding from the youngest matching
                // older store; the LSQ search costs its pipeline depth.
                let search_done = agen_done + lsqd;
                // The ring holds the last STORE_RING stores. If the
                // last store to this address hash is older than that
                // (or absent), no entry can match: skip the scan.
                let last = self.store_filter[Self::store_bucket(addr8)];
                let forwarded = if last + STORE_RING as u64 > self.store_seq && last > 0 {
                    self.stores
                        .iter()
                        .filter(|&&(a, _)| a == addr8)
                        .map(|&(_, data_ready)| data_ready)
                        .max()
                } else {
                    None
                };
                match forwarded {
                    Some(data_ready) => search_done.max(data_ready) + LAT_FORWARD,
                    None => self.dcache.access(addr, search_done),
                }
            }
            OpClass::Store => {
                // The store's *address* depends only on its address-base
                // operand (src 1), not on the data it writes (src 0), so
                // disambiguation does not serialize loads behind the
                // store's data chain.
                let addr_ready = (dispatch + self.sched).max(self.regs_avail[op.src1()]);
                let agen_done = addr_ready + LAT_AGEN;
                let addr = op.word();
                let addr8 = addr & !7;
                // Data readiness is bounded by operand availability
                // (already folded into `issue`).
                let data_ready = issue + LAT_AGEN + lsqd;
                self.stores[self.store_head] = (addr8, data_ready);
                self.store_head = (self.store_head + 1) % STORE_RING;
                self.store_seq += 1;
                self.store_filter[Self::store_bucket(addr8)] = self.store_seq;
                self.store_addr_barrier = self.store_addr_barrier.max(agen_done);
                // The cache write happens at commit in a real machine;
                // for content tracking we touch it now.
                self.dcache.access(addr, agen_done);
                data_ready
            }
        };

        self.regs_avail[op.dest()] = complete + self.wakeup;

        // --- Branch resolution.
        if class == OpClass::Branch {
            self.branches += 1;
            let taken = op.taken();
            let correct = self.predictor.predict_and_update(op.word(), taken);
            if !correct {
                self.mispredicts += 1;
                self.redirect_barrier = self.redirect_barrier.max(complete + self.penalty);
            }
            if taken {
                // A taken branch ends the fetch group: the front end
                // cannot fetch past a taken branch in the same cycle,
                // which is what keeps very wide machines from being
                // free on branch-dense code.
                self.cur_fetch = self.cur_fetch.max(fetch) + 1;
                self.fetched_this_cycle = 0;
            }
        }

        // --- Commit: in order, width per cycle.
        let mut c = (complete + 1).max(self.cur_commit);
        if c == self.cur_commit {
            if self.commits_this_cycle >= self.width {
                c += 1;
                self.cur_commit = c;
                self.commits_this_cycle = 1;
            } else {
                self.commits_this_cycle += 1;
            }
        } else {
            self.cur_commit = c;
            self.commits_this_cycle = 1;
        }
        self.commit_ring[self.rob_idx] = c;
        self.rob_idx += 1;
        if self.rob_idx == self.commit_ring.len() {
            self.rob_idx = 0;
        }
        self.iq_idx += 1;
        if self.iq_idx == self.issue_ring.len() {
            self.iq_idx = 0;
        }
        if is_mem {
            self.mem_ring[self.lsq_idx] = c;
            self.mem_ops += 1;
            self.lsq_idx += 1;
            if self.lsq_idx == self.mem_ring.len() {
                self.lsq_idx = 0;
            }
        }
        self.last_commit = c;
    }

    /// Filter bucket for an 8-byte-aligned store/load address.
    #[inline]
    fn store_bucket(addr8: u64) -> usize {
        (addr8 >> 3) as usize & (STORE_FILTER - 1)
    }
}

/// Ops per chunk of the group kernel: every simulator of a group steps
/// one chunk before the next one starts.
const CHUNK: usize = 256;

/// Step every simulator of `sims` over `chunk`: the one stepping loop
/// behind [`Simulator::run`], [`evaluate`] and [`evaluate_group`].
///
/// Each simulator steps the whole chunk before the next one starts.
/// Stepping a buffer of ops keeps the engine's code and branch-history
/// footprint resident instead of alternating op source and engine
/// every op (~5% on the simulator bench), and one chunk per group
/// means each op is produced once however many simulators consume it.
/// Simulators share nothing, so each sees exactly the op sequence a
/// lone run would: a group is bit-identical to separate runs.
fn step_chunk(sims: &mut [Simulator], chunk: &[PackedOp]) {
    for sim in sims.iter_mut() {
        for op in chunk {
            sim.step(op);
        }
    }
}

/// Step every simulator of `sims` over up to `max_ops` micro-ops of a
/// streamed `trace`, [`CHUNK`] ops at a time through one buffer (no
/// per-op allocation): each op is packed once, for the whole group.
/// The count is carried in u64 — `take(max_ops as usize)` would
/// silently truncate a >4G-op budget on 32-bit targets.
fn step_streamed(sims: &mut [Simulator], trace: impl IntoIterator<Item = MicroOp>, max_ops: u64) {
    let mut it = trace.into_iter();
    let mut buf: Vec<PackedOp> = Vec::with_capacity(CHUNK);
    let mut taken = 0u64;
    while taken < max_ops {
        buf.clear();
        let want = (max_ops - taken).min(CHUNK as u64) as usize;
        buf.extend(it.by_ref().take(want).map(|op| PackedOp::from(&op)));
        if buf.is_empty() {
            break;
        }
        taken += buf.len() as u64;
        step_chunk(sims, &buf);
    }
}

/// Build one simulator per configuration, then hand them to `step`.
fn build_and_step(configs: &[CoreConfig], step: impl FnOnce(&mut [Simulator])) -> Vec<Simulator> {
    let mut sims: Vec<Simulator> = configs.iter().map(Simulator::new).collect();
    step(&mut sims);
    sims
}

/// Simulate `ops` micro-ops of `profile` on every configuration of
/// `configs` in lock step over one produced trace; item `k` of the
/// result is bit-identical to `Simulator::new(&configs[k])` run over
/// that trace alone.
///
/// The trace is produced once for the whole group: small budgets
/// replay a trace memoized once per process
/// ([`xps_workload::with_cached_trace`]) — the trace of a profile is
/// identical for every configuration evaluated against it, so the
/// generator's sampling work is paid once, not per design point —
/// while budgets past the cache bound stream from one pooled
/// generator. Both sources yield the identical op sequence. The
/// simulators are built only once the source exists, so a trace the
/// replay cache materializes is allocated before them: built first,
/// their arrays fragment the heap under the growing trace and raise
/// peak memory.
///
/// A group of K configurations produces its trace once instead of K
/// times, which is what a cross-configuration matrix row needs when
/// its cells stream from the generator. It holds K simulators at once,
/// so callers bound the group's size with [`lockstep_groups`].
///
/// # Panics
///
/// Panics if any configuration fails [`CoreConfig::validate`].
pub fn evaluate_group(
    profile: &xps_workload::WorkloadProfile,
    configs: &[CoreConfig],
    ops: u64,
) -> Vec<SimStats> {
    xps_workload::with_cached_trace(profile, ops, |trace| {
        build_and_step(configs, |sims| {
            for chunk in trace.chunks(CHUNK) {
                step_chunk(sims, chunk);
            }
        })
    })
    .unwrap_or_else(|| {
        xps_workload::with_generator(profile, |g| {
            build_and_step(configs, |sims| step_streamed(sims, &mut *g, ops))
        })
    })
    .into_iter()
    .map(Simulator::finish)
    .collect()
}

/// Simulate `ops` micro-ops of `profile` on `cfg`: the standard
/// evaluation entry point for exploration code, and the one-config
/// case of [`evaluate_group`].
pub fn evaluate(profile: &xps_workload::WorkloadProfile, cfg: &CoreConfig, ops: u64) -> SimStats {
    evaluate_group(profile, std::slice::from_ref(cfg), ops).swap_remove(0)
}

/// Bytes of a simulator's cache contents for `cfg`: one tag and one
/// last-use stamp per line of L1 and L2. These arrays dominate a
/// [`Simulator`]'s memory (a Table 4 core holds up to 40,960 lines;
/// every other structure is at most a few thousand entries).
pub fn cache_state_bytes(cfg: &CoreConfig) -> u64 {
    let lines =
        |c: &crate::config::CacheConfig| u64::from(c.geometry.sets) * u64::from(c.geometry.assoc);
    (lines(&cfg.l1) + lines(&cfg.l2)) * DataCache::LINE_BYTES
}

/// The most [`cache_state_bytes`] one configuration that passes
/// [`CoreConfig::validate`] can hold: both levels at the largest
/// explored sets × associativity. Every [`lockstep_groups`] run holds
/// at most this much, so a group above it was formed by no caller here.
pub fn max_cache_state_bytes() -> u64 {
    let max = |xs: &[u32]| u64::from(xs.iter().copied().max().unwrap_or(0));
    2 * max(&xps_cacti::fit::CACHE_SETS) * max(&xps_cacti::fit::CACHE_ASSOC) * DataCache::LINE_BYTES
}

/// Split `configs` into runs of consecutive configurations to
/// evaluate with [`evaluate_group`], covering every index exactly
/// once and in order.
///
/// The group size is derived from the input, not tuned: a group grows
/// greedily while its total [`cache_state_bytes`] stays within that
/// of the largest single configuration. The live simulator state of
/// one group is therefore never more than that of one lone simulator
/// of the same set, and a configuration at the maximum forms a group
/// of its own.
pub fn lockstep_groups(configs: &[CoreConfig]) -> Vec<Range<usize>> {
    let bound = configs.iter().map(cache_state_bytes).max().unwrap_or(0);
    let mut groups = Vec::new();
    let mut start = 0;
    let mut held = 0u64;
    for (i, cfg) in configs.iter().enumerate() {
        let bytes = cache_state_bytes(cfg);
        if i > start && held + bytes > bound {
            groups.push(start..i);
            start = i;
            held = 0;
        }
        held += bytes;
    }
    if start < configs.len() {
        groups.push(start..configs.len());
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use xps_workload::{spec, TraceGenerator};

    fn cfg() -> CoreConfig {
        CoreConfig::initial()
    }

    /// A stream of independent ALU ops sustains an IPC close to the
    /// machine width.
    #[test]
    fn independent_alu_saturates_width() {
        let c = cfg();
        let ops = (0..30_000u64)
            .map(|i| MicroOp::alu(0x40_0000 + 4 * i, (8 + (i % 16)) as u8, [None, None]));
        // Destinations recycle every 16 ops, far enough apart not to
        // serialize at width 3.
        let stats = Simulator::new(&c).run(ops, 30_000);
        let ipc = stats.ipc();
        assert!(
            ipc > 0.9 * c.width as f64,
            "independent ALU IPC {ipc} should approach width {}",
            c.width
        );
    }

    /// A single dependence chain of 1-cycle ops commits ~1 op per
    /// (1 + wakeup_extra) cycles regardless of width.
    #[test]
    fn dependent_chain_serializes() {
        let mut c = cfg();
        c.wakeup_extra = 0;
        let ops = (0..20_000u64).map(|_| MicroOp::alu(0x40_0000, 8, [Some(8), None]));
        let stats = Simulator::new(&c).run(ops, 20_000);
        let ipc = stats.ipc();
        assert!(
            (0.85..=1.05).contains(&ipc),
            "chain IPC must be ~1 with zero wakeup latency, got {ipc}"
        );

        let mut c1 = cfg();
        c1.wakeup_extra = 1;
        let ops = (0..20_000u64).map(|_| MicroOp::alu(0x40_0000, 8, [Some(8), None]));
        let stats1 = Simulator::new(&c1).run(ops, 20_000);
        let ipc1 = stats1.ipc();
        assert!(
            (0.42..=0.55).contains(&ipc1),
            "chain IPC must be ~1/2 with wakeup latency 1, got {ipc1}"
        );
    }

    /// Loads hitting a tiny region stay L1-resident; loads striding a
    /// huge region miss.
    #[test]
    fn cache_behaviour_shows_in_stats() {
        let c = cfg();
        let hits = (0..20_000u64)
            .map(|i| MicroOp::load(0x40_0000, (8 + i % 32) as u8, None, 0x1000 + (i % 64) * 8));
        let s_hit = Simulator::new(&c).run(hits, 20_000);
        assert!(s_hit.l1.miss_ratio() < 0.01, "resident set must hit");

        let misses = (0..20_000u64)
            .map(|i| MicroOp::load(0x40_0000, (8 + i % 32) as u8, None, 0x10_0000 + i * 4096));
        let s_miss = Simulator::new(&c).run(misses, 20_000);
        assert!(s_miss.l1.miss_ratio() > 0.9, "striding set must miss");
        assert!(s_miss.ipc() < s_hit.ipc());
    }

    /// Random branches cost pipeline refills; biased branches do not.
    #[test]
    fn mispredictions_cost_cycles() {
        let c = cfg();
        let biased = (0..40_000u64)
            .map(|i| MicroOp::branch(0x40_0000 + 64 * (i % 16), None, true, 0x41_0000));
        let s_good = Simulator::new(&c).run(biased, 40_000);
        assert!(s_good.mispredict_rate() < 0.05);

        // Genuinely random (but seeded) outcomes defeat the predictor.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        let hard: Vec<_> = (0..40_000u64)
            .map(|_| MicroOp::branch(0x40_0000, None, rng.gen::<bool>(), 0x41_0000))
            .collect();
        let s_bad = Simulator::new(&c).run(hard, 40_000);
        assert!(s_bad.mispredict_rate() > 0.3);
        assert!(s_bad.ipc() < s_good.ipc());
    }

    /// Store-to-load forwarding beats going to memory.
    #[test]
    fn forwarding_hides_latency() {
        let c = cfg();
        // Alternate store/load to the same far-away address: the load
        // forwards instead of missing.
        let ops = (0..10_000u64).flat_map(|i| {
            let addr = 0x7000_0000;
            [
                MicroOp::store(0x40_0000, 2, addr),
                MicroOp::load(0x40_0004, (8 + i % 32) as u8, None, addr),
            ]
        });
        let s = Simulator::new(&c).run(ops, 20_000);
        // One memory miss at most (the store's allocation); loads all
        // forward, so IPC stays near 1 rather than collapsing to
        // memory latency.
        assert!(
            s.ipc() > 0.5,
            "forwarded loads keep the pipe busy: {}",
            s.ipc()
        );
    }

    /// A bigger ROB tolerates memory latency better on a
    /// pointer-chasing workload (the mcf effect).
    #[test]
    fn window_size_buys_latency_tolerance() {
        let profile = spec::profile("mcf").expect("mcf exists");
        let mut small = cfg();
        small.rob_size = 32;
        small.iq_size = 16;
        let mut large = cfg();
        large.rob_size = 1024;
        large.iq_size = 64;
        let n = 60_000;
        let s_small = Simulator::new(&small).run(TraceGenerator::new(profile.clone()), n);
        let s_large = Simulator::new(&large).run(TraceGenerator::new(profile), n);
        assert!(
            s_large.ipc() > s_small.ipc() * 1.15,
            "large window {} must beat small {} on mcf",
            s_large.ipc(),
            s_small.ipc()
        );
    }

    /// Determinism: identical runs, identical stats.
    #[test]
    fn runs_are_deterministic() {
        let c = cfg();
        let p = spec::profile("gcc").expect("gcc exists");
        let a = Simulator::new(&c).run(TraceGenerator::new(p.clone()), 30_000);
        let b = Simulator::new(&c).run(TraceGenerator::new(p), 30_000);
        assert_eq!(a, b);
    }

    /// IPC can never exceed the machine width.
    #[test]
    fn ipc_bounded_by_width() {
        for name in ["gzip", "mcf", "vortex"] {
            let c = cfg();
            let p = spec::profile(name).unwrap_or_else(|| panic!("{name} exists"));
            let s = Simulator::new(&c).run(TraceGenerator::new(p), 20_000);
            assert!(
                s.ipc() <= c.width as f64 + 1e-9,
                "{name} IPC {} > width",
                s.ipc()
            );
        }
    }

    /// Commit bandwidth caps throughput even when issue could go
    /// faster: a width-1 machine commits at most one op per cycle.
    #[test]
    fn commit_bandwidth_binds() {
        let mut c = cfg();
        c.width = 1;
        let ops = (0..20_000u64)
            .map(|i| MicroOp::alu(0x40_0000 + 4 * i, (8 + (i % 16)) as u8, [None, None]));
        let stats = Simulator::new(&c).run(ops, 20_000);
        assert!(stats.cycles >= 20_000, "width 1 needs >= 1 cycle/op");
        assert!(stats.ipc() <= 1.0 + 1e-9);
    }

    /// A tiny LSQ throttles memory-heavy code relative to a large one.
    #[test]
    fn lsq_capacity_throttles() {
        let mem_ops = |n: u64| {
            (0..n).map(|i| {
                // All loads, far apart, so LSQ entries live until
                // commit while misses resolve.
                MicroOp::load(0x40_0000, (8 + i % 32) as u8, None, 0x1000_0000 + i * 4096)
            })
        };
        let mut small = cfg();
        small.lsq_size = 16;
        let mut large = cfg();
        large.lsq_size = 256; // paper's LSQ candidate maximum
        let s_small = Simulator::new(&small).run(mem_ops(20_000), 20_000);
        let s_large = Simulator::new(&large).run(mem_ops(20_000), 20_000);
        assert!(
            s_small.cycles > s_large.cycles,
            "LSQ 16 ({}) must be slower than LSQ 256 ({})",
            s_small.cycles,
            s_large.cycles
        );
    }

    /// Deeper front ends cost more per misprediction: the same
    /// hard-branch stream loses more IPC at front-end depth 12 than 4.
    #[test]
    fn deeper_frontend_pays_more_per_mispredict() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let hard: Vec<_> = (0..40_000u64)
            .map(|_| MicroOp::branch(0x40_0000, None, rng.gen::<bool>(), 0x41_0000))
            .collect();
        let mut shallow = cfg();
        shallow.frontend_depth = 4;
        let mut deep = cfg();
        deep.frontend_depth = 12;
        let s_shallow = Simulator::new(&shallow).run(hard.clone(), 40_000);
        let s_deep = Simulator::new(&deep).run(hard, 40_000);
        assert!(s_deep.cycles > s_shallow.cycles);
    }

    #[test]
    #[should_panic(expected = "invalid core config")]
    fn invalid_config_panics() {
        let mut c = cfg();
        c.width = 0;
        let _ = Simulator::new(&c);
    }

    /// The slot window hands out exactly `width` claims per cycle and
    /// spills far-future claims without losing them.
    #[test]
    fn slot_window_width_and_spill() {
        let mut w = SlotWindow::new(2);
        assert_eq!(w.alloc(10), 10);
        assert_eq!(w.alloc(10), 10);
        assert_eq!(w.alloc(10), 11, "cycle 10 is full at width 2");
        // A far-future claim lands in the spill list...
        let far = SLOT_WINDOW as u64 + 100;
        assert_eq!(w.alloc(far), far);
        assert_eq!(w.alloc(far), far);
        assert_eq!(w.alloc(far), far + 1, "spill respects width too");
        // ...and survives the floor advancing past the window edge.
        w.advance(200);
        assert_eq!(w.base, 200);
        w.advance(far - 10);
        assert_eq!(w.alloc(far), far + 1, "migrated count is preserved");
    }

    /// Advancing the floor reclaims dead cycles so their slots can be
    /// reused by the cycles that slide into view.
    #[test]
    fn slot_window_reuses_vacated_slots() {
        let mut w = SlotWindow::new(1);
        assert_eq!(w.alloc(0), 0);
        assert_eq!(w.alloc(0), 1);
        w.advance(SLOT_WINDOW as u64);
        // The ring slot that held cycle 0 now represents SLOT_WINDOW.
        assert_eq!(w.alloc(SLOT_WINDOW as u64), SLOT_WINDOW as u64);
    }
}
