//! The rank-LRU data-cache hierarchy, frozen as the reference oracle's
//! cache.
//!
//! This is the module behind [`crate::DataCache`] and
//! [`crate::Hierarchy`] exactly as it stood before the constant-time
//! kernel: an LRU rank array that every hit shifts, tags and ranks
//! written for every line at construction, and an early-exit scan of
//! the pending fills. [`super::ReferenceSimulator`] runs on it, so
//! `tests/engine_equivalence.rs` compares the production cache kernel
//! with an independent implementation instead of with itself, and
//! `tests/cache_oracle.rs` compares the two cache kernels access by
//! access. It is a test oracle, not a second production path; do not
//! optimize it.

use crate::cache::{CacheStats, PrefetchKind};
use crate::config::CacheConfig;

/// One level of set-associative, true-LRU data cache.
///
/// Timing is handled by [`Hierarchy`]; this type tracks only contents.
#[derive(Debug, Clone)]
pub struct DataCache {
    /// Tag per way per set; `u64::MAX` marks an empty way.
    tags: Vec<u64>,
    /// LRU ordering per set: smaller = more recently used.
    lru: Vec<u32>,
    sets: u32,
    assoc: u32,
    offset_bits: u32,
    /// Set-index bits when `sets` is a power of two (the common case
    /// for every explored geometry); the set/tag split is then a
    /// mask/shift instead of two integer divisions per access.
    set_bits: Option<u32>,
    stats: CacheStats,
}

impl DataCache {
    /// Build a cache from its configuration.
    pub fn new(cfg: &CacheConfig) -> DataCache {
        let sets = cfg.geometry.sets;
        let assoc = cfg.geometry.assoc;
        DataCache {
            tags: vec![u64::MAX; (sets * assoc) as usize],
            lru: (0..sets * assoc).map(|i| i % assoc).collect(),
            sets,
            assoc,
            offset_bits: cfg.geometry.offset_bits(),
            set_bits: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            stats: CacheStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.offset_bits;
        match self.set_bits {
            // Identical split to the modulo/divide below, minus the
            // divisions.
            Some(bits) => ((block & u64::from(self.sets - 1)) as usize, block >> bits),
            None => (
                (block % u64::from(self.sets)) as usize,
                block / u64::from(self.sets),
            ),
        }
    }

    /// Access `addr`; returns `true` on hit. On miss the block is
    /// allocated, evicting the LRU way.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.assoc as usize;
        let ways = &mut self.tags[base..base + self.assoc as usize];
        if let Some(hit_way) = ways.iter().position(|&t| t == tag) {
            self.touch(set, hit_way);
            return true;
        }
        self.stats.misses += 1;
        // Evict the LRU way (largest recency value).
        let lru_slice = &self.lru[base..base + self.assoc as usize];
        let victim = lru_slice
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.tags[base + victim] = tag;
        self.touch(set, victim);
        false
    }

    /// Allocate `addr`'s block without touching the statistics (used
    /// for prefetch installs). The LRU state is updated as for an
    /// ordinary fill.
    pub fn install(&mut self, addr: u64) {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.assoc as usize;
        if self.tags[base..base + self.assoc as usize].contains(&tag) {
            return;
        }
        let victim = self.lru[base..base + self.assoc as usize]
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.tags[base + victim] = tag;
        self.touch(set, victim);
    }

    /// Probe without modifying contents or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.assoc as usize;
        self.tags[base..base + self.assoc as usize].contains(&tag)
    }

    fn touch(&mut self, set: usize, way: usize) {
        let base = set * self.assoc as usize;
        let old = self.lru[base + way];
        if old == 0 {
            // Already most-recently-used; nothing would shift.
            return;
        }
        for v in &mut self.lru[base..base + self.assoc as usize] {
            if *v < old {
                *v += 1;
            }
        }
        self.lru[base + way] = 0;
    }
}

/// A two-level hierarchy with access timing: returns, for each access,
/// the cycle at which the data is available, merging concurrent misses
/// to the same block (MSHR behaviour).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: DataCache,
    l2: DataCache,
    l1_lat: u64,
    l2_lat: u64,
    mem_lat: u64,
    /// Small ring of outstanding L2/memory fills, split into parallel
    /// fixed arrays (block, ready cycle) so the merge scan runs over
    /// dense in-struct data — the scan is on the path of every memory
    /// access while any fill is in flight.
    fill_block: [u64; MSHRS],
    fill_ready: [u64; MSHRS],
    /// Slots of the fill ring in use (grows to [`MSHRS`], then the ring
    /// recycles via `next_slot`).
    fill_len: usize,
    next_slot: usize,
    /// Latest ready cycle ever recorded in `outstanding`: once `now`
    /// passes it, no fill can still be in flight and the merge scan is
    /// skipped entirely.
    latest_fill: u64,
    offset_bits: u32,
    prefetch: PrefetchKind,
    last_miss_block: u64,
    prefetches: u64,
}

/// Number of in-flight fills tracked for miss merging.
const MSHRS: usize = 16;

impl Hierarchy {
    /// Build the hierarchy from the two cache configurations and the
    /// memory latency in cycles.
    pub fn new(l1: &CacheConfig, l2: &CacheConfig, mem_cycles: u32) -> Hierarchy {
        Hierarchy::with_prefetcher(l1, l2, mem_cycles, PrefetchKind::None)
    }

    /// Build a hierarchy with a hardware prefetcher (ablation use).
    pub fn with_prefetcher(
        l1: &CacheConfig,
        l2: &CacheConfig,
        mem_cycles: u32,
        prefetch: PrefetchKind,
    ) -> Hierarchy {
        Hierarchy {
            l1: DataCache::new(l1),
            l2: DataCache::new(l2),
            l1_lat: u64::from(l1.latency),
            l2_lat: u64::from(l2.latency),
            mem_lat: u64::from(mem_cycles),
            fill_block: [0; MSHRS],
            fill_ready: [0; MSHRS],
            fill_len: 0,
            next_slot: 0,
            latest_fill: 0,
            offset_bits: l1.geometry.offset_bits(),
            prefetch,
            last_miss_block: u64::MAX,
            prefetches: 0,
        }
    }

    /// Number of blocks installed by the prefetcher.
    pub fn prefetch_installs(&self) -> u64 {
        self.prefetches
    }

    /// Install prefetched blocks after a demand miss to `block`.
    /// Prefetches are modeled as timely (no extra latency charged):
    /// the ablation measures the upper bound of what prefetching could
    /// absorb of the capacity story.
    fn issue_prefetches(&mut self, block: u64) {
        let ahead: u64 = match self.prefetch {
            PrefetchKind::None => 0,
            PrefetchKind::NextLine => 1,
            PrefetchKind::Stream => {
                if block == self.last_miss_block.wrapping_add(1) {
                    2
                } else {
                    0
                }
            }
        };
        for k in 1..=ahead {
            let addr = (block + k) << self.offset_bits;
            if !self.l1.probe(addr) {
                self.l1.install(addr);
                self.l2.install(addr);
                self.prefetches += 1;
            }
        }
        self.last_miss_block = block;
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Access `addr` at cycle `now`; returns the cycle at which the
    /// data is ready (≥ `now + l1 latency`).
    ///
    /// An access to a block whose fill is still in flight (whether it
    /// now hits the already-allocated tag or misses) completes when the
    /// fill arrives, never earlier — the MSHR merge.
    pub fn access(&mut self, addr: u64, now: u64) -> u64 {
        let after_l1 = now + self.l1_lat;
        let block = addr >> self.offset_bits;
        // Every recorded fill is ready by `latest_fill`; once `now` is
        // past it the scan cannot find a live entry.
        let pending = if now < self.latest_fill {
            // Two fills of one block can be pending at once: access
            // times are not monotone under out-of-order issue, so a
            // block can re-miss at a cycle past its first fill's
            // arrival and later be accessed at a cycle before it. The
            // merge takes the first recorded matching fill, not the
            // latest-ready one; that rule is part of the model (it
            // moves the Table 4 cores' stats), pinned by
            // `merge_takes_the_first_recorded_of_two_pending_fills`.
            (0..self.fill_len)
                .find(|&s| self.fill_block[s] == block && self.fill_ready[s] > now)
                .map(|s| self.fill_ready[s])
        } else {
            None
        };
        if self.l1.access(addr) {
            return match pending {
                Some(ready) => ready.max(after_l1),
                None => after_l1,
            };
        }
        if let Some(ready) = pending {
            return ready.max(after_l1);
        }
        let ready = if self.l2.access(addr) {
            after_l1 + self.l2_lat
        } else {
            after_l1 + self.l2_lat + self.mem_lat
        };
        self.issue_prefetches(block);
        if self.fill_len < MSHRS {
            self.fill_block[self.fill_len] = block;
            self.fill_ready[self.fill_len] = ready;
            self.fill_len += 1;
        } else {
            self.fill_block[self.next_slot] = block;
            self.fill_ready[self.next_slot] = ready;
            self.next_slot = (self.next_slot + 1) % MSHRS;
        }
        self.latest_fill = self.latest_fill.max(ready);
        ready
    }
}
