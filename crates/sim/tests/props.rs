//! Property-based tests of the timing simulator's invariants.

use proptest::prelude::*;
use xps_cacti::CacheGeometry;
use xps_sim::{
    cache_state_bytes, lockstep_groups, CacheConfig, CoreConfig, DataCache, ReferenceSimulator,
    Simulator,
};
use xps_workload::{spec, BranchInfo, MicroOp, OpClass, TraceGenerator, REG_COUNT};

fn arb_config() -> impl Strategy<Value = CoreConfig> {
    (
        0.15f64..0.6,
        1u32..9,
        prop::sample::select(vec![32u32, 64, 128, 256, 512, 1024]),
        prop::sample::select(vec![8u32, 16, 32, 64]),
        prop::sample::select(vec![16u32, 32, 64, 128, 256]),
        0u32..4,
        1u32..5,
        (
            1u32..6,
            prop::sample::select(vec![64u32, 128, 256, 512]),
            prop::sample::select(vec![1u32, 2, 4]),
        ),
        (
            4u32..25,
            prop::sample::select(vec![1024u32, 2048, 4096]),
            prop::sample::select(vec![4u32, 8]),
        ),
    )
        .prop_map(|(clock, width, rob, iq, lsq, wakeup, sched, l1, l2)| {
            let (l1_lat, l1_sets, l1_assoc) = l1;
            let (l2_lat, l2_sets, l2_assoc) = l2;
            CoreConfig {
                name: "prop".to_string(),
                clock_ns: clock,
                width,
                frontend_depth: CoreConfig::derived_frontend_depth(clock, 0.03),
                rob_size: rob,
                iq_size: iq.min(rob),
                lsq_size: lsq,
                wakeup_extra: wakeup,
                sched_depth: sched,
                lsq_depth: 2,
                l1: CacheConfig {
                    geometry: CacheGeometry::new(l1_sets, l1_assoc, 64),
                    latency: l1_lat,
                },
                l2: CacheConfig {
                    geometry: CacheGeometry::new(l2_sets, l2_assoc, 128),
                    latency: l2_lat,
                },
            }
        })
}

/// One hand-built micro-op of any class, with any mix of absent and
/// present registers (absent about one time in three), an arbitrary
/// PC, branch target and outcome, and an address that is arbitrary or
/// drawn from a few shared blocks (so loads meet stores to forward
/// from). Branch information is present exactly on branches, the
/// `MicroOp` invariant.
fn arb_micro_op() -> impl Strategy<Value = MicroOp> {
    const CLASSES: [OpClass; 6] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
    ];
    const BLOCKS: [u64; 6] = [0, 4, 8, 4096, 4100, 1 << 20];
    let reg = REG_COUNT as u8;
    let operand = move |r: u8| (r < reg).then_some(r);
    (
        prop::sample::select(CLASSES.to_vec()),
        any::<u64>(),
        (0u8..reg + reg / 2, 0u8..reg + reg / 2, 0u8..reg + reg / 2),
        (any::<u64>(), 0usize..2 * BLOCKS.len()),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(
            move |(class, pc, (dest, s0, s1), (addr, block), taken, target)| MicroOp {
                pc,
                class,
                dest: operand(dest),
                srcs: [operand(s0), operand(s1)],
                addr: BLOCKS.get(block).copied().unwrap_or(addr),
                branch: (class == OpClass::Branch).then_some(BranchInfo { taken, target }),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine steps packed ops; the reference steps `MicroOp`s.
    /// Equal stats on hand-built streams of every class show the
    /// packing keeps everything the timing depends on.
    #[test]
    fn packed_engine_matches_reference_on_hand_built_ops(
        cfg in arb_config(),
        ops in (1usize..1_500).prop_flat_map(|n| prop::collection::vec(arb_micro_op(), n)),
    ) {
        let n = ops.len() as u64;
        let packed = Simulator::new(&cfg).run(ops.iter().copied(), n);
        let reference = ReferenceSimulator::new(&cfg).run(ops, n);
        prop_assert_eq!(packed, reference);
    }

    /// Any generated configuration validates and simulates every
    /// benchmark to a positive, width-bounded IPC.
    #[test]
    fn ipc_positive_and_bounded(cfg in arb_config(),
                                name in prop::sample::select(spec::BENCHMARKS.to_vec())) {
        prop_assert!(cfg.validate().is_ok(), "{:?}", cfg.validate());
        let p = spec::profile(name).expect("known benchmark");
        let s = Simulator::new(&cfg).run(TraceGenerator::new(p), 8_000);
        prop_assert!(s.ipc() > 0.0);
        prop_assert!(s.ipc() <= cfg.width as f64 + 1e-9, "IPC {} > width {}", s.ipc(), cfg.width);
        prop_assert_eq!(s.instructions, 8_000);
        prop_assert!(s.cycles > 0);
    }

    /// Simulation is deterministic for a fixed (config, workload).
    #[test]
    fn simulation_deterministic(cfg in arb_config()) {
        let p = spec::profile("parser").expect("known benchmark");
        let a = Simulator::new(&cfg).run(TraceGenerator::new(p.clone()), 6_000);
        let b = Simulator::new(&cfg).run(TraceGenerator::new(p), 6_000);
        prop_assert_eq!(a, b);
    }

    /// Statistics are internally consistent: mispredicts never exceed
    /// branches, L2 accesses never exceed L1 misses.
    #[test]
    fn stats_consistent(cfg in arb_config(),
                        name in prop::sample::select(spec::BENCHMARKS.to_vec())) {
        let p = spec::profile(name).expect("known benchmark");
        let s = Simulator::new(&cfg).run(TraceGenerator::new(p), 10_000);
        prop_assert!(s.mispredicts <= s.branches);
        prop_assert!(s.l2.accesses <= s.l1.misses,
            "L2 accesses {} > L1 misses {}", s.l2.accesses, s.l1.misses);
        prop_assert!(s.l2.misses <= s.l2.accesses);
    }

    /// Raising the wakeup latency never increases IPC (weak
    /// monotonicity of the scheduling loop).
    #[test]
    fn wakeup_latency_hurts(mut cfg in arb_config(),
                            name in prop::sample::select(spec::BENCHMARKS.to_vec())) {
        cfg.wakeup_extra = 0;
        let p = spec::profile(name).expect("known benchmark");
        let fast = Simulator::new(&cfg).run(TraceGenerator::new(p.clone()), 10_000);
        cfg.wakeup_extra = 3;
        let slow = Simulator::new(&cfg).run(TraceGenerator::new(p), 10_000);
        prop_assert!(slow.cycles >= fast.cycles,
            "wakeup 3 finished earlier: {} vs {}", slow.cycles, fast.cycles);
    }

    /// A strictly longer memory pipe (same everything else, slower L2)
    /// never lowers the cycle count.
    #[test]
    fn slower_l2_never_faster(mut cfg in arb_config()) {
        let p = spec::profile("mcf").expect("known benchmark");
        cfg.l2.latency = 4;
        let fast = Simulator::new(&cfg).run(TraceGenerator::new(p.clone()), 10_000);
        cfg.l2.latency = 30;
        let slow = Simulator::new(&cfg).run(TraceGenerator::new(p), 10_000);
        prop_assert!(slow.cycles >= fast.cycles);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lock-step partition covers every column exactly once and in
    /// order; no group holds more cache state than the largest single
    /// configuration; a configuration at that maximum is alone; and no
    /// group could have taken its successor's first member (greedy, so
    /// no fewer groups fit the bound).
    #[test]
    fn lockstep_groups_partition_within_the_state_bound(
        configs in (0usize..16).prop_flat_map(|n| prop::collection::vec(arb_config(), n)),
    ) {
        let groups = lockstep_groups(&configs);
        let covered: Vec<usize> = groups.iter().flat_map(|g| g.clone()).collect();
        prop_assert_eq!(covered, (0..configs.len()).collect::<Vec<_>>());
        let bytes: Vec<u64> = configs.iter().map(cache_state_bytes).collect();
        let max = bytes.iter().copied().max().unwrap_or(0);
        for g in &groups {
            prop_assert!(!g.is_empty());
            prop_assert!(bytes[g.clone()].iter().sum::<u64>() <= max);
            if g.len() > 1 {
                prop_assert!(bytes[g.clone()].iter().all(|&b| b < max));
            }
        }
        for pair in groups.windows(2) {
            let grown: u64 = bytes[pair[0].start..=pair[1].start].iter().sum();
            prop_assert!(grown > max, "group {:?} could hold {}", pair[0], pair[1].start);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// LRU stack inclusion (Mattson et al., IBM Sys. J. 1970): at a
    /// fixed set count and block size, after any access stream every
    /// block an a-way cache holds is also held by a b-way cache with
    /// b >= a. So a hit in the smaller cache is a hit in the larger,
    /// and more ways never add a miss.
    #[test]
    fn more_ways_never_add_a_miss(
        sets in prop::sample::select(vec![1u32, 2, 4, 8]),
        block in prop::sample::select(vec![8u32, 64]),
        a in 1u32..5,
        extra in 0u32..5,
        stream in (0usize..1_500)
            .prop_flat_map(|n| prop::collection::vec((0u64..64, any::<u32>()), n)),
    ) {
        let cache = |assoc| {
            DataCache::new(&CacheConfig {
                geometry: CacheGeometry::new(sets, assoc, block),
                latency: 1,
            })
        };
        let (mut small, mut large) = (cache(a), cache(a + extra));
        // Block `b`, at any byte offset inside it.
        let addr = |b: u64, offset: u32| b * u64::from(block) + u64::from(offset % block);
        for &(b, offset) in &stream {
            let small_hit = small.access(addr(b, offset));
            let large_hit = large.access(addr(b, offset));
            prop_assert!(large_hit || !small_hit, "block {} hit only with {} ways", b, a);
        }
        prop_assert!(large.stats().misses <= small.stats().misses);
        for b in 0..64 {
            prop_assert!(large.probe(addr(b, 0)) || !small.probe(addr(b, 0)),
                "block {} resident with {} ways, not {}", b, a, a + extra);
        }
    }
}
