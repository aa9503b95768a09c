//! Memoized design-point evaluation.
//!
//! Annealing walks revisit configurations constantly — rollbacks return
//! to the best-so-far, cross-configuration seeding re-evaluates foreign
//! winners, the grid baseline shares lattice points across workloads,
//! and the communal replacement passes re-measure rows and columns that
//! mostly did not change. Because the simulator is a pure function of
//! (workload profile, configuration, op budget), all of those repeats
//! can be served from a cache with results **bit-identical** to fresh
//! simulation.
//!
//! The cache is sharded (64 ways) so parallel workers rarely contend,
//! and the simulation itself always runs outside any lock.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};
use xps_sim::{ConfigKey, CoreConfig, SimStats};
use xps_workload::WorkloadProfile;

const SHARDS: usize = 64;

/// The identity of one evaluation: which workload, which design (by its
/// name-independent canonical key), and how many ops were simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EvalKey {
    profile_fp: u64,
    cfg: ConfigKey,
    ops: u64,
}

impl EvalKey {
    fn new(profile_fp: u64, cfg: &CoreConfig, ops: u64) -> EvalKey {
        EvalKey {
            profile_fp,
            cfg: cfg.canonical_key(),
            ops,
        }
    }
}

/// Hit/miss counters of an [`EvalCache`], cheap to copy into summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheCounters {
    /// Evaluations served from the cache without simulating.
    pub hits: u64,
    /// Evaluations that had to run the simulator.
    pub misses: u64,
}

impl CacheCounters {
    /// Fraction of lookups served from the cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, thread-safe memoization cache mapping
/// (workload, configuration, op budget) to the resulting [`SimStats`].
///
/// Simulation is deterministic, so a hit returns exactly the stats a
/// fresh run would produce. Shared by reference across the worker pool;
/// one instance typically spans a whole pipeline run so the exploration
/// phase warms the cache for the communal cross-evaluation phase.
#[derive(Debug)]
pub struct EvalCache {
    shards: Vec<Mutex<HashMap<EvalKey, SimStats>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for EvalCache {
    fn default() -> EvalCache {
        EvalCache::new()
    }
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> EvalCache {
        EvalCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &EvalKey) -> &Mutex<HashMap<EvalKey, SimStats>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// One lookup of `key`: the memoized stats on a hit, `None` on a
    /// miss (which the caller simulates and [`store`](Self::store)s).
    fn probe(&self, key: &EvalKey) -> Option<SimStats> {
        let hit = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned();
        self.note_lookup(key, hit.is_some());
        hit
    }

    /// Count and trace one lookup of `key` and its outcome.
    fn note_lookup(&self, key: &EvalKey, hit: bool) {
        // The *lookup* is deterministic per task (how many evaluations
        // a walk asks for never depends on scheduling), so it may live
        // in the trace journal; whether it *hits* depends on which
        // racing worker populated the shared cache first, so the
        // outcome below is recorded volatile-only.
        xps_trace::instant("cache.lookup", || xps_trace::attr("ops", key.ops));
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            xps_trace::instant_volatile("cache.hit", xps_trace::Attrs::new);
        } else {
            xps_trace::instant_volatile("cache.miss", xps_trace::Attrs::new);
        }
    }

    /// Record a miss's fresh simulation. If two workers raced on the
    /// same key they both computed the same value and one insert wins.
    fn store(&self, key: EvalKey, stats: &SimStats) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.shard(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert_with(|| stats.clone());
    }

    /// Simulate `profile` on `cfg` for `ops` micro-ops, or return the
    /// memoized result of an identical earlier evaluation.
    /// The one-configuration case of [`stats_group`](Self::stats_group).
    pub fn stats(&self, profile: &WorkloadProfile, cfg: &CoreConfig, ops: u64) -> SimStats {
        self.stats_group(profile, std::slice::from_ref(cfg), ops)
            .swap_remove(0)
    }

    /// Memoized stats of each of `configs` on one workload, in order:
    /// one lookup per configuration, and every miss of the group
    /// simulated together (outside any lock) by one
    /// [`xps_sim::evaluate_group`] call, so the group's trace is
    /// produced once. Item `k` is bit-identical to a fresh
    /// simulation of `configs[k]`.
    pub fn stats_group(
        &self,
        profile: &WorkloadProfile,
        configs: &[CoreConfig],
        ops: u64,
    ) -> Vec<SimStats> {
        let fp = profile.fingerprint();
        let keys: Vec<EvalKey> = configs.iter().map(|c| EvalKey::new(fp, c, ops)).collect();
        // A key repeated within the group is served by its first
        // occurrence, as the cache serves it to a serial sweep: a hit,
        // never a second simulation.
        let first = |k: usize| keys.iter().position(|j| *j == keys[k]).unwrap_or(k);
        let mut out: Vec<Option<SimStats>> = Vec::with_capacity(keys.len());
        for (k, key) in keys.iter().enumerate() {
            if first(k) == k {
                out.push(self.probe(key));
            } else {
                self.note_lookup(key, true);
                out.push(None);
            }
        }
        let missed: Vec<usize> = (0..keys.len())
            .filter(|&k| first(k) == k && out[k].is_none())
            .collect();
        if !missed.is_empty() {
            let group: Vec<CoreConfig> = missed.iter().map(|&k| configs[k].clone()).collect();
            let fresh = xps_sim::evaluate_group(profile, &group, ops);
            for (k, stats) in missed.into_iter().zip(fresh) {
                self.store(keys[k], &stats);
                out[k] = Some(stats);
            }
        }
        (0..keys.len())
            .map(|k| {
                #[expect(
                    clippy::expect_used,
                    reason = "every first occurrence was a hit or one of the misses just simulated"
                )]
                out[first(k)]
                    .clone()
                    .expect("every first occurrence filled")
            })
            .collect()
    }

    /// Memoized IPT (instructions per nanosecond) of `cfg` on `profile`.
    pub fn ipt(&self, profile: &WorkloadProfile, cfg: &CoreConfig, ops: u64) -> f64 {
        self.stats(profile, cfg, ops).ipt()
    }

    /// Memoized IPTs of each of `configs` on `profile`, in order (see
    /// [`stats_group`](Self::stats_group)).
    pub fn ipt_group(
        &self,
        profile: &WorkloadProfile,
        configs: &[CoreConfig],
        ops: u64,
    ) -> Vec<f64> {
        self.stats_group(profile, configs, ops)
            .iter()
            .map(SimStats::ipt)
            .collect()
    }

    /// Snapshot of the hit/miss counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct evaluations stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether the cache holds no evaluations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xps_sim::Simulator;
    use xps_workload::{spec, TraceGenerator};

    const OPS: u64 = 4000;

    #[test]
    fn hit_returns_bit_identical_stats() {
        let cache = EvalCache::new();
        let p = spec::profile("gzip").expect("gzip exists");
        let cfg = CoreConfig::initial();
        let fresh = Simulator::new(&cfg).run(TraceGenerator::new(p.clone()), OPS);
        let miss = cache.stats(&p, &cfg, OPS);
        let hit = cache.stats(&p, &cfg, OPS);
        assert_eq!(miss, fresh);
        assert_eq!(hit, fresh);
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn rename_hits_but_any_parameter_change_misses() {
        let cache = EvalCache::new();
        let p = spec::profile("mcf").expect("mcf exists");
        let cfg = CoreConfig::initial();
        cache.stats(&p, &cfg, OPS);
        let mut renamed = cfg.clone();
        renamed.name = "mcf-custom".to_string();
        cache.stats(&p, &renamed, OPS);
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 1 });
        let mut widened = cfg.clone();
        widened.width += 1;
        cache.stats(&p, &widened, OPS);
        cache.stats(&p, &cfg, OPS * 2);
        let other = spec::profile("gcc").expect("gcc exists");
        cache.stats(&other, &cfg, OPS);
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 4 });
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn shared_across_threads() {
        let cache = EvalCache::new();
        let p = spec::profile("twolf").expect("twolf exists");
        let cfg = CoreConfig::initial();
        let serial = cache.stats(&p, &cfg, OPS);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    assert_eq!(cache.stats(&p, &cfg, OPS), serial);
                });
            }
        });
        let c = cache.counters();
        assert_eq!(c.hits + c.misses, 5);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn group_lookups_match_scalar_lookups() {
        let cache = EvalCache::new();
        let p = spec::profile("gzip").expect("gzip exists");
        let initial = CoreConfig::initial();
        let mut renamed = initial.clone();
        renamed.name = "same-design".to_string();
        let mut narrow = initial.clone();
        narrow.width = 1;
        cache.stats(&p, &narrow, OPS);
        // One lookup per member; the renamed repeat is served by its
        // first occurrence, and only `initial` is simulated.
        let group = cache.stats_group(&p, &[initial.clone(), narrow.clone(), renamed], OPS);
        assert_eq!(cache.counters(), CacheCounters { hits: 2, misses: 2 });
        let fresh = EvalCache::new();
        assert_eq!(group[0], fresh.stats(&p, &initial, OPS));
        assert_eq!(group[1], fresh.stats(&p, &narrow, OPS));
        assert_eq!(group[2], group[0]);
    }

    #[test]
    fn hit_rate_arithmetic() {
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
        let c = CacheCounters { hits: 3, misses: 1 };
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
    }
}
