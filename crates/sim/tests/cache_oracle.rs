//! The production cache kernel ([`DataCache`]/[`Hierarchy`]: last-use
//! stamps, zero-means-empty tags, a one-pass MSHR probe) against the
//! rank-LRU hierarchy frozen in [`xps_sim::reference::cache`], access
//! by access.
//!
//! `engine_equivalence.rs` compares whole simulations, where a cache
//! divergence can hide behind forwarding or a stat that happens to
//! agree. Here every access is compared directly: hit or miss for a
//! lone cache, ready cycle for a hierarchy, and the statistics after
//! each one. Geometries cover every associativity and block size of
//! the design space, power-of-two and other set counts, and all three
//! prefetchers (a prefetch install shares the victim rule).

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use xps_cacti::{fit, CacheGeometry};
use xps_sim::reference::cache as frozen;
use xps_sim::{CacheConfig, DataCache, Hierarchy, PrefetchKind};

/// Set counts: powers of two (mask/shift split) and others (divide
/// split), which `CoreConfig::validate` accepts alike.
const SETS: [u32; 8] = [1, 2, 3, 7, 32, 100, 256, 1000];

fn arb_geometry() -> impl Strategy<Value = CacheGeometry> {
    (
        prop::sample::select(SETS.to_vec()),
        prop::sample::select(fit::CACHE_ASSOC.to_vec()),
        prop::sample::select(fit::CACHE_BLOCKS.to_vec()),
    )
        .prop_map(|(sets, assoc, block_bytes)| {
            // `new` insists on a power-of-two set count; the simulator
            // does not.
            let mut g = CacheGeometry::new(1, assoc, block_bytes);
            g.sets = sets;
            g
        })
}

fn arb_prefetch() -> impl Strategy<Value = PrefetchKind> {
    prop::sample::select(vec![
        PrefetchKind::None,
        PrefetchKind::NextLine,
        PrefetchKind::Stream,
    ])
}

/// An address stream over about three times the cache's lines, so
/// sets overflow and evict, with runs of ascending blocks (the stream
/// prefetcher's trigger) and re-touches of recent blocks (hits).
fn addresses(g: &CacheGeometry, seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let block = u64::from(g.block_bytes);
    let span = 3 * u64::from(g.sets) * u64::from(g.assoc) + 8;
    let mut out: Vec<u64> = Vec::with_capacity(n);
    while out.len() < n {
        let addr = match rng.gen_range(0..4) {
            0 if !out.is_empty() => out[out.len() - 1 - rng.gen_range(0..out.len().min(8))],
            1 if !out.is_empty() => out[out.len() - 1] + block,
            _ => rng.gen_range(0..span) * block,
        };
        out.push(addr + rng.gen_range(0..block));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One cache level: hit or miss and statistics after every access,
    /// with prefetch-style installs mixed in.
    #[test]
    fn data_cache_matches_frozen_rank_lru(g in arb_geometry(), seed in any::<u64>()) {
        let cfg = CacheConfig { geometry: g, latency: 1 };
        let mut cache = DataCache::new(&cfg);
        let mut oracle = frozen::DataCache::new(&cfg);
        for (i, addr) in addresses(&g, seed, 4_000).into_iter().enumerate() {
            if i % 5 == 4 {
                cache.install(addr);
                oracle.install(addr);
            } else {
                prop_assert_eq!(cache.access(addr), oracle.access(addr), "access {}", i);
            }
            prop_assert_eq!(cache.probe(addr), oracle.probe(addr));
            prop_assert_eq!(cache.stats(), oracle.stats());
        }
    }

    /// The two-level hierarchy under every prefetcher: ready cycle,
    /// both levels' statistics and the prefetch count after every
    /// access. Access times jitter backwards as well as forwards, as
    /// out-of-order issue makes them, so fills merge, overlap and
    /// recycle the MSHR ring.
    #[test]
    fn hierarchy_matches_frozen_rank_lru(
        l1 in arb_geometry(),
        l2 in arb_geometry(),
        prefetch in arb_prefetch(),
        mem in 1u32..300,
        seed in any::<u64>(),
    ) {
        let l1 = CacheConfig { geometry: l1, latency: 3 };
        let l2 = CacheConfig { geometry: l2, latency: 12 };
        let mut h = Hierarchy::with_prefetcher(&l1, &l2, mem, prefetch);
        let mut oracle = frozen::Hierarchy::with_prefetcher(&l1, &l2, mem, prefetch);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37);
        let mut t = 1_000u64;
        for (i, addr) in addresses(&l1.geometry, seed, 3_000).into_iter().enumerate() {
            t += rng.gen_range(0..4);
            let now = t - rng.gen_range(0..300);
            prop_assert_eq!(h.access(addr, now), oracle.access(addr, now), "access {}", i);
            prop_assert_eq!(h.l1_stats(), oracle.l1_stats());
            prop_assert_eq!(h.l2_stats(), oracle.l2_stats());
            prop_assert_eq!(h.prefetch_installs(), oracle.prefetch_installs());
        }
    }
}
