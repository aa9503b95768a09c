//! The pre-optimization timing engine, kept as a reference oracle.
//!
//! This is the cycle engine exactly as it stood before the hot-loop
//! overhaul in [`crate::engine`]: per-cycle issue-slot usage in a
//! `HashMap` with periodic `retain` sweeps, and an unconditional
//! 64-entry linear scan of the store ring on every load. Its data
//! caches are the rank-LRU hierarchy of [`cache`], frozen before the
//! constant-time [`crate::DataCache`] and [`crate::Hierarchy`]. It is
//! kept — compiled into the library, not just test builds — for two
//! jobs:
//!
//! 1. **Equivalence oracle.** The optimized engine must produce
//!    bit-identical [`SimStats`] for every trace and configuration;
//!    `tests/engine_equivalence.rs` drives both engines over the SPEC
//!    profiles, randomized configurations, and adversarial aliasing
//!    streams and asserts equality.
//! 2. **Perf baseline.** `repro bench` measures this engine and the
//!    optimized one in the same process and build, so the before/after
//!    ratio in `BENCH_*.json` reflects the code change, not
//!    environment drift.
//!
//! Do not optimize this module; its value is that it does not change.

pub mod cache;

use crate::cache::PrefetchKind;
use crate::config::CoreConfig;
use crate::predictor::{Predictor, PredictorKind};
use crate::stats::SimStats;
use cache::Hierarchy;
use std::collections::HashMap;
use xps_workload::{MicroOp, OpClass, REG_COUNT};

const LAT_ALU: u64 = 1;
const LAT_MUL: u64 = 3;
const LAT_DIV: u64 = 20;
const LAT_BRANCH: u64 = 1;
const LAT_AGEN: u64 = 1;
const LAT_FORWARD: u64 = 1;
const STORE_RING: usize = 64;

/// The pre-overhaul simulator. Same modeling semantics as
/// [`crate::Simulator`], different (slower) bookkeeping.
#[derive(Debug, Clone)]
pub struct ReferenceSimulator {
    cfg: CoreConfig,
    dcache: Hierarchy,
    predictor: Predictor,
    regs_avail: [u64; REG_COUNT],
    commit_ring: Vec<u64>,
    issue_ring: Vec<u64>,
    mem_ring: Vec<u64>,
    stores: [(u64, u64); STORE_RING],
    store_head: usize,
    store_addr_barrier: u64,
    issue_slots: HashMap<u64, u32>,
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

impl ReferenceSimulator {
    /// Build a reference simulator for `cfg` (gshare predictor, no
    /// prefetch — the same defaults as [`crate::Simulator::new`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`].
    pub fn new(cfg: &CoreConfig) -> ReferenceSimulator {
        ReferenceSimulator::with_options(cfg, PredictorKind::Gshare, PrefetchKind::None)
    }

    /// Build with explicit predictor and prefetcher choices, mirroring
    /// [`crate::Simulator::with_options`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`].
    pub fn with_options(
        cfg: &CoreConfig,
        predictor: PredictorKind,
        prefetch: PrefetchKind,
    ) -> ReferenceSimulator {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid core config `{}`: {e}", cfg.name));
        ReferenceSimulator {
            dcache: Hierarchy::with_prefetcher(&cfg.l1, &cfg.l2, cfg.mem_cycles(), prefetch),
            predictor: Predictor::of_kind(predictor),
            regs_avail: [0; REG_COUNT],
            commit_ring: vec![0; cfg.rob_size as usize],
            issue_ring: vec![0; cfg.iq_size as usize],
            mem_ring: vec![0; cfg.lsq_size as usize],
            stores: [(u64::MAX, 0); STORE_RING],
            store_head: 0,
            store_addr_barrier: 0,
            issue_slots: HashMap::with_capacity(1024),
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

    /// Run up to `max_ops` micro-ops of `trace` and return the
    /// measurements. Semantically identical to
    /// [`crate::Simulator::run`]; no trace events are emitted (the
    /// oracle is never part of an instrumented campaign).
    // The counter is u64 on purpose (a `take(max_ops as usize)` would
    // truncate on 32-bit targets), which clippy's enumerate suggestion
    // would reintroduce via usize.
    #[allow(clippy::explicit_counter_loop)]
    pub fn run(mut self, trace: impl IntoIterator<Item = MicroOp>, max_ops: u64) -> SimStats {
        let mut taken = 0u64;
        for op in trace {
            if taken >= max_ops {
                break;
            }
            taken += 1;
            self.step(&op);
        }
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

    fn alloc_issue_slot(&mut self, desired: u64) -> u64 {
        let width = self.cfg.width;
        let mut c = desired;
        loop {
            let used = self.issue_slots.entry(c).or_insert(0);
            if *used < width {
                *used += 1;
                return c;
            }
            c += 1;
        }
    }

    fn step(&mut self, op: &MicroOp) {
        let i = self.ops;
        self.ops += 1;
        let fe = u64::from(self.cfg.frontend_depth);
        let rob = self.commit_ring.len() as u64;
        let iq = self.issue_ring.len() as u64;
        let lsq = self.mem_ring.len() as u64;

        // --- Fetch: bandwidth, redirects, and window back-pressure.
        let mut fetch = self.cur_fetch.max(self.redirect_barrier);
        if i >= rob {
            fetch = fetch.max(self.commit_ring[(i % rob) as usize].saturating_sub(fe));
        }
        if i >= iq {
            fetch = fetch.max(self.issue_ring[(i % iq) as usize].saturating_sub(fe));
        }
        if op.class.is_mem() && self.mem_ops >= lsq {
            fetch = fetch.max(self.mem_ring[(self.mem_ops % lsq) as usize].saturating_sub(fe));
        }
        if fetch > self.cur_fetch {
            self.cur_fetch = fetch;
            self.fetched_this_cycle = 0;
        }
        if self.fetched_this_cycle >= self.cfg.width {
            self.cur_fetch += 1;
            self.fetched_this_cycle = 0;
            fetch = self.cur_fetch;
        }
        self.fetched_this_cycle += 1;

        // --- Dispatch and operand readiness.
        let dispatch = fetch + fe;
        let mut ready = dispatch + u64::from(self.cfg.sched_depth);
        for src in op.srcs.iter().flatten() {
            ready = ready.max(self.regs_avail[*src as usize]);
        }
        if op.class == OpClass::Load {
            ready = ready.max(self.store_addr_barrier);
        }

        // --- Issue (out of order, width per cycle).
        let issue = self.alloc_issue_slot(ready);
        self.issue_ring[(i % iq) as usize] = issue;

        // --- Execute.
        let lsqd = u64::from(self.cfg.lsq_depth);
        let complete = match op.class {
            OpClass::IntAlu => issue + LAT_ALU,
            OpClass::IntMul => issue + LAT_MUL,
            OpClass::IntDiv => issue + LAT_DIV,
            OpClass::Branch => issue + LAT_BRANCH,
            OpClass::Load => {
                let agen_done = issue + LAT_AGEN;
                let addr8 = op.addr & !7;
                let search_done = agen_done + lsqd;
                let forwarded = self
                    .stores
                    .iter()
                    .filter(|&&(a, _)| a == addr8)
                    .map(|&(_, data_ready)| data_ready)
                    .max();
                match forwarded {
                    Some(data_ready) => search_done.max(data_ready) + LAT_FORWARD,
                    None => self.dcache.access(op.addr, search_done),
                }
            }
            OpClass::Store => {
                let mut addr_ready = dispatch + u64::from(self.cfg.sched_depth);
                if let Some(s) = op.srcs[1] {
                    addr_ready = addr_ready.max(self.regs_avail[s as usize]);
                }
                let agen_done = addr_ready + LAT_AGEN;
                let addr8 = op.addr & !7;
                let data_ready = issue + LAT_AGEN + lsqd;
                self.stores[self.store_head] = (addr8, data_ready);
                self.store_head = (self.store_head + 1) % STORE_RING;
                self.store_addr_barrier = self.store_addr_barrier.max(agen_done);
                self.dcache.access(op.addr, agen_done);
                data_ready
            }
        };

        if let Some(d) = op.dest {
            self.regs_avail[d as usize] = complete + u64::from(self.cfg.wakeup_extra);
        }

        // --- Branch resolution.
        if let Some(b) = op.branch {
            self.branches += 1;
            let correct = self.predictor.predict_and_update(op.pc, b.taken);
            if !correct {
                self.mispredicts += 1;
                self.redirect_barrier = self
                    .redirect_barrier
                    .max(complete + u64::from(self.cfg.mispredict_penalty()));
            }
            if b.taken {
                self.cur_fetch = self.cur_fetch.max(fetch) + 1;
                self.fetched_this_cycle = 0;
            }
        }

        // --- Commit: in order, width per cycle.
        let mut c = (complete + 1).max(self.cur_commit);
        if c == self.cur_commit {
            if self.commits_this_cycle >= self.cfg.width {
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
        self.commit_ring[(i % rob) as usize] = c;
        if op.class.is_mem() {
            self.mem_ring[(self.mem_ops % lsq) as usize] = c;
            self.mem_ops += 1;
        }
        self.last_commit = c;

        // --- Housekeeping: prune stale issue-slot entries.
        if i.is_multiple_of(65_536) && self.issue_slots.len() > 65_536 {
            let frontier = dispatch;
            self.issue_slots.retain(|&cyc, _| cyc >= frontier);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xps_workload::{spec, TraceGenerator};

    /// The oracle itself is deterministic — a prerequisite for using
    /// it to judge the optimized engine.
    #[test]
    fn reference_runs_are_deterministic() {
        let c = CoreConfig::initial();
        let p = spec::profile("gcc").expect("gcc exists");
        let a = ReferenceSimulator::new(&c).run(TraceGenerator::new(p.clone()), 20_000);
        let b = ReferenceSimulator::new(&c).run(TraceGenerator::new(p), 20_000);
        assert_eq!(a, b);
    }
}
