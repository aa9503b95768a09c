//! Data-cache hierarchy: set-associative LRU caches with write-back,
//! write-allocate policy and outstanding-miss merging.

use crate::config::CacheConfig;
use serde::{Deserialize, Serialize};

/// Hit/miss counters of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of accesses.
    pub accesses: u64,
    /// Number of misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio (0 if the cache was never accessed).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

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
    /// Bytes of contents per line: its tag and its LRU rank.
    pub(crate) const LINE_BYTES: u64 =
        (std::mem::size_of::<u64>() + std::mem::size_of::<u32>()) as u64;

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

/// Hardware prefetcher organizations for the data-cache hierarchy.
///
/// Prefetching is not part of the paper's explored design space (like
/// the branch predictor, it is held fixed — at "none"); these exist
/// for the prefetch ablation, which asks how much of the cache-capacity
/// customization story a prefetcher would have absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrefetchKind {
    /// No prefetching (the paper's configuration).
    None,
    /// On every L1 miss, install the next sequential block.
    NextLine,
    /// Detect sequential miss streams and run two blocks ahead.
    Stream,
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

#[cfg(test)]
mod tests {
    use super::*;
    use xps_cacti::CacheGeometry;

    fn small_cfg() -> CacheConfig {
        CacheConfig {
            geometry: CacheGeometry::new(4, 2, 64),
            latency: 2,
        }
    }

    fn l2_cfg() -> CacheConfig {
        CacheConfig {
            geometry: CacheGeometry::new(64, 4, 64),
            latency: 8,
        }
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = DataCache::new(&small_cfg());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1008), "same block, different word");
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 3);
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way set: fill both ways, touch the first, then insert a
        // third conflicting block; the untouched way is evicted.
        let mut c = DataCache::new(&small_cfg());
        // Set index = (addr >> 6) % 4; use addrs mapping to set 0.
        let a = 0u64; // block 0, set 0
        let b = 4 * 64; // block 4, set 0
        let d = 8 * 64; // block 8, set 0
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // a is now MRU
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a), "a must survive");
        assert!(!c.access(b), "b was evicted");
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = DataCache::new(&small_cfg());
        c.access(0x40);
        let stats = c.stats();
        assert!(c.probe(0x40));
        assert!(!c.probe(0x4000));
        assert_eq!(c.stats(), stats, "probe must not count");
    }

    #[test]
    fn hierarchy_latencies_ordered() {
        let mut h = Hierarchy::new(&small_cfg(), &l2_cfg(), 100);
        let t_miss = h.access(0x10_000, 0);
        assert_eq!(t_miss, 2 + 8 + 100, "cold miss goes to memory");
        let t_hit = h.access(0x10_000, 200);
        assert_eq!(t_hit, 202, "L1 hit after fill");
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = Hierarchy::new(&small_cfg(), &l2_cfg(), 100);
        // Fill enough conflicting blocks to evict the first from the
        // tiny L1 while it remains in the larger L2.
        h.access(0, 0);
        h.access(4 * 64, 0);
        h.access(8 * 64, 0);
        let t = h.access(0, 1000);
        assert_eq!(t, 1000 + 2 + 8, "should be an L2 hit");
    }

    #[test]
    fn concurrent_misses_to_same_block_merge() {
        let mut h = Hierarchy::new(&small_cfg(), &l2_cfg(), 100);
        let t1 = h.access(0x20_000, 0);
        let t2 = h.access(0x20_008, 1); // same block, one cycle later
        assert_eq!(t2, t1, "second request rides the outstanding fill");
    }

    #[test]
    fn merge_takes_the_first_recorded_of_two_pending_fills() {
        let mut h = Hierarchy::new(&small_cfg(), &l2_cfg(), 100);
        // Block 0 misses to memory: fill A, ready at 110.
        let ready_a = h.access(0, 0);
        assert_eq!(ready_a, 2 + 8 + 100);
        // Two conflicting blocks evict it from the 2-way L1 set.
        h.access(4 * 64, 200);
        h.access(8 * 64, 200);
        // An access issued at 120 (after A arrived) re-misses block 0
        // and hits L2: fill B, ready at 130.
        let ready_b = h.access(0, 120);
        assert_eq!(ready_b, 120 + 2 + 8);
        // An older access at cycle 50 now finds both fills of block 0
        // pending (110 > 50 and 130 > 50) and rides the first recorded.
        assert_eq!(
            h.access(0, 50),
            ready_a,
            "not the latest-ready fill {ready_b}"
        );
    }

    #[test]
    fn next_line_prefetch_hits_sequential_stream() {
        let mut plain = Hierarchy::new(&small_cfg(), &l2_cfg(), 100);
        let mut pf =
            Hierarchy::with_prefetcher(&small_cfg(), &l2_cfg(), 100, PrefetchKind::NextLine);
        // Sequential blocks: with next-line prefetch, every other block
        // is already resident.
        for i in 0..64u64 {
            plain.access(i * 64, i * 300);
            pf.access(i * 64, i * 300);
        }
        assert!(pf.l1_stats().misses < plain.l1_stats().misses);
        assert!(pf.prefetch_installs() > 0);
        assert_eq!(plain.prefetch_installs(), 0);
    }

    #[test]
    fn stream_prefetch_needs_a_stream() {
        let mut pf = Hierarchy::with_prefetcher(&small_cfg(), &l2_cfg(), 100, PrefetchKind::Stream);
        // Two random, non-adjacent misses: no stream, no prefetch.
        pf.access(0x10_000, 0);
        pf.access(0x90_000, 10);
        assert_eq!(pf.prefetch_installs(), 0);
        // An ascending run triggers it.
        pf.access(0x20_000, 20);
        pf.access(0x20_040, 400);
        assert!(pf.prefetch_installs() > 0);
    }

    #[test]
    fn install_does_not_count() {
        let mut c = DataCache::new(&small_cfg());
        c.install(0x40);
        assert_eq!(c.stats().accesses, 0);
        assert!(c.probe(0x40));
    }

    #[test]
    fn miss_ratio_math() {
        let s = CacheStats {
            accesses: 8,
            misses: 2,
        };
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
