//! Data-cache hierarchy: set-associative LRU caches with write-back,
//! write-allocate policy and outstanding-miss merging.
//!
//! The kernel does constant work per way on every access: a hit is one
//! stamp store ([`DataCache`] documents the last-use stamp and
//! zero-means-empty encodings), and the pending-fill probe runs only
//! when a per-bucket filter says a fill of the block may be in flight,
//! as one pass over every MSHR slot into a match mask
//! ([`Hierarchy::access`]). The rank-LRU kernel it replaced is frozen
//! in [`crate::reference::cache`] as the oracle that
//! `tests/cache_oracle.rs` compares it with, access by access.

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
///
/// Two encodings keep every operation constant-time per way and let
/// construction skip writing the arrays:
///
/// * **Zero means empty.** A way stores its block's tag plus one, so
///   an all-zero tag array is an empty cache (tags are at most 2⁶¹,
///   since every block offset is at least 3 bits, so the `+ 1` cannot
///   wrap) and `new` gets it from a zeroed allocation.
/// * **Last-use stamps.** Each way holds the value of a per-cache
///   clock at its last use instead of an LRU rank: a hit or a fill is
///   one store, and the victim is the way with the smallest stamp.
///   Used ways carry distinct non-zero stamps, so only never-used ways
///   tie, at 0; a tie goes to the highest way, which fills an empty set
///   from way `assoc - 1` down to way 0, the order of a rank array
///   initialized to `way index`. When the `u32` clock would wrap, every
///   set's stamps are renumbered `1..` in their order, which preserves
///   every victim choice.
#[derive(Debug, Clone)]
pub struct DataCache {
    /// Tag plus one per way per set; 0 marks an empty way.
    tags: Vec<u64>,
    /// Last-use stamp per way per set; 0 = never used.
    stamps: Vec<u32>,
    /// Stamp of the latest use in any set.
    clock: u32,
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
    /// Bytes of contents per line: its tag and its last-use stamp.
    pub(crate) const LINE_BYTES: u64 =
        (std::mem::size_of::<u64>() + std::mem::size_of::<u32>()) as u64;

    /// Build a cache from its configuration.
    pub fn new(cfg: &CacheConfig) -> DataCache {
        let sets = cfg.geometry.sets;
        let assoc = cfg.geometry.assoc;
        DataCache {
            tags: vec![0; (sets * assoc) as usize],
            stamps: vec![0; (sets * assoc) as usize],
            clock: 0,
            sets,
            assoc,
            offset_bits: cfg.geometry.offset_bits(),
            set_bits: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            stats: CacheStats::default(),
        }
    }

    /// A cache whose stamp clock starts at `clock`, so a test can
    /// drive it through the wrap.
    #[cfg(test)]
    fn with_clock(cfg: &CacheConfig, clock: u32) -> DataCache {
        DataCache {
            clock,
            ..DataCache::new(cfg)
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The set of `addr` and its block's stored tag (tag plus one).
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.offset_bits;
        let (set, tag) = match self.set_bits {
            // Identical split to the modulo/divide below, minus the
            // divisions.
            Some(bits) => ((block & u64::from(self.sets - 1)) as usize, block >> bits),
            None => (
                (block % u64::from(self.sets)) as usize,
                block / u64::from(self.sets),
            ),
        };
        (set, tag + 1)
    }

    /// Access `addr`; returns `true` on hit. On miss the block is
    /// allocated, evicting the LRU way.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.assoc as usize;
        let ways = &self.tags[base..base + self.assoc as usize];
        if let Some(hit_way) = ways.iter().position(|&t| t == tag) {
            let stamp = self.tick();
            self.stamps[base + hit_way] = stamp;
            return true;
        }
        self.stats.misses += 1;
        self.fill(base, tag);
        false
    }

    /// Allocate `addr`'s block without touching the statistics (used
    /// for prefetch installs). The LRU state is updated as for an
    /// ordinary fill.
    pub fn install(&mut self, addr: u64) {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.assoc as usize;
        if !self.tags[base..base + self.assoc as usize].contains(&tag) {
            self.fill(base, tag);
        }
    }

    /// Probe without modifying contents or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.assoc as usize;
        self.tags[base..base + self.assoc as usize].contains(&tag)
    }

    /// Put `tag` in the way of the set at `base` with the smallest
    /// stamp, ties to the highest way, and stamp it.
    fn fill(&mut self, base: usize, tag: u64) {
        let mut victim = 0;
        let mut oldest = u32::MAX;
        for (way, &s) in self.stamps[base..base + self.assoc as usize]
            .iter()
            .enumerate()
        {
            if s <= oldest {
                oldest = s;
                victim = way;
            }
        }
        let stamp = self.tick();
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = stamp;
    }

    /// Advance the clock and return the new stamp.
    fn tick(&mut self) -> u32 {
        if self.clock == u32::MAX {
            self.renumber();
        }
        self.clock += 1;
        self.clock
    }

    /// Renumber every set's used stamps `1..` in their current order
    /// and restart the clock above them: victims compare stamps only
    /// within a set, so every future choice is unchanged.
    #[cold]
    fn renumber(&mut self) {
        let assoc = self.assoc as usize;
        for set in self.stamps.chunks_exact_mut(assoc) {
            let mut order: Vec<usize> = (0..assoc).filter(|&w| set[w] > 0).collect();
            order.sort_unstable_by_key(|&w| set[w]);
            for (rank, w) in order.into_iter().enumerate() {
                set[w] = rank as u32 + 1;
            }
        }
        self.clock = self.assoc;
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
    /// Ring of the last [`MSHRS`] L2/memory fills as parallel fixed
    /// arrays (block, ready cycle). A slot never written holds
    /// [`NO_BLOCK`], which no access matches, so the merge probe can
    /// compare every slot without a length.
    fill_block: [u64; MSHRS],
    fill_ready: [u64; MSHRS],
    /// Slot the next fill overwrites: 0, 1, …, `MSHRS - 1`, 0, ….
    next_slot: usize,
    /// Latest ready cycle ever recorded for a block of each bucket
    /// (`block % FILL_FILTER`): once `now` passes its bucket's value,
    /// no fill of the block can still be in flight and the merge probe
    /// is skipped.
    fill_filter: [u64; FILL_FILTER],
    offset_bits: u32,
    prefetch: PrefetchKind,
    last_miss_block: u64,
    prefetches: u64,
}

/// Number of in-flight fills tracked for miss merging (at most 16:
/// the merge probe's match mask is a `u16`).
const MSHRS: usize = 16;

/// Fill-ring block of a slot never written: blocks are addresses
/// shifted right by at least 3 bits, so none is `u64::MAX`.
const NO_BLOCK: u64 = u64::MAX;

/// Buckets of the pending-fill filter (power of two). Collisions only
/// cost a wasted probe, never a wrong result.
const FILL_FILTER: usize = 64;

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
            fill_block: [NO_BLOCK; MSHRS],
            fill_ready: [0; MSHRS],
            next_slot: 0,
            fill_filter: [0; FILL_FILTER],
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
        // Every recorded fill of this block is ready by its bucket's
        // filter value; once `now` is past it the probe cannot find a
        // live entry.
        let bucket = block as usize & (FILL_FILTER - 1);
        let pending = if now < self.fill_filter[bucket] {
            // Two fills of one block can be pending at once: access
            // times are not monotone under out-of-order issue, so a
            // block can re-miss at a cycle past its first fill's
            // arrival and later be accessed at a cycle before it. The
            // merge takes the first recorded matching fill, not the
            // latest-ready one; that rule is part of the model (it
            // moves the Table 4 cores' stats), pinned by
            // `merge_takes_the_first_recorded_of_two_pending_fills`.
            // One branch-free pass over every slot builds the mask of
            // the slots holding this block (usually none); its set bits,
            // lowest first, are the matches in slot order, of which the
            // first still in flight merges — as an early-exit scan in
            // slot order would find.
            let mut same = 0u16;
            for s in 0..MSHRS {
                same |= u16::from(self.fill_block[s] == block) << s;
            }
            let mut first = None;
            while same != 0 {
                let s = same.trailing_zeros() as usize;
                if self.fill_ready[s] > now {
                    first = Some(self.fill_ready[s]);
                    break;
                }
                same &= same - 1;
            }
            first
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
        self.fill_block[self.next_slot] = block;
        self.fill_ready[self.next_slot] = ready;
        self.next_slot = (self.next_slot + 1) % MSHRS;
        self.fill_filter[bucket] = self.fill_filter[bucket].max(ready);
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

    /// An empty set fills from its highest way down, as the rank array
    /// it replaced did. Which way holds a block is invisible to hits
    /// and misses, so only the layout shows it.
    #[test]
    fn empty_set_fills_from_the_highest_way() {
        let cfg = CacheConfig {
            geometry: CacheGeometry::new(1, 4, 64),
            latency: 2,
        };
        let mut c = DataCache::new(&cfg);
        for block in 0..4u64 {
            assert!(!c.access(block * 64));
        }
        assert_eq!(c.tags, [4, 3, 2, 1], "block b stored as b + 1");
    }

    /// Stamps renumbered at the clock's wrap keep every victim choice:
    /// a cache whose clock starts just short of the wrap hits and
    /// misses exactly as the frozen rank-LRU cache does, across the
    /// wrap and after it.
    #[test]
    fn stamp_clock_wrap_keeps_lru_order() {
        use crate::reference::cache::DataCache as RankLru;
        use rand::{Rng, SeedableRng};
        for assoc in [1, 2, 4, 16] {
            let cfg = CacheConfig {
                geometry: CacheGeometry::new(4, assoc, 64),
                latency: 2,
            };
            let mut c = DataCache::with_clock(&cfg, u32::MAX - 100);
            let mut r = RankLru::new(&cfg);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(u64::from(assoc));
            for i in 0..5_000 {
                // 8 × assoc blocks over 4 sets: constant conflict misses.
                let addr = rng.gen_range(0..32 * u64::from(assoc)) * 64;
                if i % 7 == 0 {
                    c.install(addr);
                    r.install(addr);
                } else {
                    assert_eq!(c.access(addr), r.access(addr), "assoc {assoc}, access {i}");
                }
            }
            assert!(c.clock < 5_000, "the clock wrapped");
            assert_eq!(c.stats(), r.stats());
        }
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
