//! The optimized cycle engine must be a drop-in replacement for the
//! pre-overhaul [`ReferenceSimulator`]: bit-identical [`SimStats`] on
//! every trace and configuration. The reference runs on the frozen
//! rank-LRU caches of `xps_sim::reference::cache`, so the comparison
//! covers the cache kernel too. These tests drive both engines over
//! the full SPEC profile set, proptest-randomized configurations
//! (every associativity and block size of the design space), and
//! adversarial store/load aliasing streams built to stress exactly the
//! bookkeeping the overhaul replaced (issue-slot ring vs `HashMap`,
//! filtered store-forwarding lookup vs unconditional 64-entry scan).
//!
//! The lock-step group kernel ([`evaluate_group`]) is held to the same
//! oracle: a group of K configurations must equal K scalar
//! [`evaluate`] calls and K reference runs, on both sides of the
//! replay-cache bound and of the 256-op chunk, and for a budget that
//! replays a prefix of a longer cached trace.
//!
//! A final regression test pins the memory story: the optimized
//! engine's auxiliary issue-slot state must stay O(window), not grow
//! with the number of ops simulated.

use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};
use xps_cacti::{fit, CacheGeometry};
use xps_core::explore::{mutate, DesignPoint};
use xps_core::{cacti::Technology, paper};
use xps_sim::{
    evaluate, evaluate_group, CacheConfig, CoreConfig, ReferenceSimulator, SimStats, Simulator,
};
use xps_workload::{spec, MicroOp, TraceGenerator, REG_COUNT};

fn reference_stats(cfg: &CoreConfig, trace: &[MicroOp]) -> SimStats {
    ReferenceSimulator::new(cfg).run(trace.iter().copied(), trace.len() as u64)
}

fn optimized_stats(cfg: &CoreConfig, trace: &[MicroOp]) -> SimStats {
    Simulator::new(cfg).run(trace.iter().copied(), trace.len() as u64)
}

/// Every SPEC profile, both the initial design point and a stressed
/// narrow/shallow one, through both engines.
#[test]
fn spec_profiles_match_reference() {
    let mut narrow = CoreConfig::initial();
    narrow.name = "narrow".to_string();
    narrow.width = 1;
    narrow.rob_size = 32;
    narrow.iq_size = 8;
    narrow.lsq_size = 16;
    for p in spec::all_profiles() {
        let trace: Vec<MicroOp> = TraceGenerator::new(p.clone()).take(30_000).collect();
        for cfg in [&CoreConfig::initial(), &narrow] {
            assert_eq!(
                optimized_stats(cfg, &trace),
                reference_stats(cfg, &trace),
                "engines diverge on {} with config {}",
                p.name,
                cfg.name
            );
        }
    }
}

/// An (associativity, block size) pair from the full design space.
fn arb_ways() -> impl Strategy<Value = (u32, u32)> {
    (
        prop::sample::select(fit::CACHE_ASSOC.to_vec()),
        prop::sample::select(fit::CACHE_BLOCKS.to_vec()),
    )
}

fn arb_config() -> impl Strategy<Value = CoreConfig> {
    (
        0.15f64..0.6,
        1u32..9,
        prop::sample::select(vec![32u32, 64, 128, 256, 512]),
        prop::sample::select(vec![8u32, 16, 32, 64]),
        prop::sample::select(vec![16u32, 32, 64, 128]),
        0u32..4,
        1u32..5,
        (
            1u32..6,
            prop::sample::select(vec![64u32, 128, 256]),
            arb_ways(),
        ),
        (
            4u32..25,
            prop::sample::select(vec![1024u32, 2048]),
            arb_ways(),
        ),
    )
        .prop_map(|(clock, width, rob, iq, lsq, wakeup, sched, l1, l2)| {
            let (l1_lat, l1_sets, a) = l1;
            let (l2_lat, l2_sets, b) = l2;
            // L2 has more sets than L1, so giving it the pair with the
            // larger line bytes per set keeps it at least as large.
            let bytes = |(assoc, block): (u32, u32)| assoc * block;
            let ((l1_assoc, l1_block), (l2_assoc, l2_block)) =
                if bytes(a) <= bytes(b) { (a, b) } else { (b, a) };
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
                    geometry: CacheGeometry::new(l1_sets, l1_assoc, l1_block),
                    latency: l1_lat,
                },
                l2: CacheConfig {
                    geometry: CacheGeometry::new(l2_sets, l2_assoc, l2_block),
                    latency: l2_lat,
                },
            }
        })
}

/// One micro-op of an adversarial aliasing stream. The generator keeps
/// every address inside a handful of 8-byte blocks so loads constantly
/// hit (and miss) the store-forwarding window, and register indices
/// stay dense so dependency chains cross op classes. Stores land at
/// sub-block offsets too, so forwarding has to match on the aligned
/// block, not the raw address.
fn arb_aliasing_op() -> impl Strategy<Value = MicroOp> {
    const BLOCKS: [u64; 7] = [0, 8, 16, 24, 4096, 4104, 1 << 20];
    let reg = REG_COUNT as u8;
    (
        0u8..4,               // op class selector
        0u64..64,             // pc (dense: predictor aliasing)
        0u8..reg,             // dest / data register
        0u8..(2 * reg),       // optional source (>= reg means None)
        0usize..BLOCKS.len(), // which aliasing block
        0u64..8,              // sub-block offset for stores
        0u8..2,               // branch outcome
    )
        .prop_map(move |(kind, pc, r1, r2, bi, off, flag)| {
            let block = BLOCKS[bi];
            let src = (r2 < reg).then_some(r2);
            match kind {
                0 => MicroOp::store(pc, r1, block + off),
                1 => MicroOp::load(pc, r1, src, block),
                2 => MicroOp::alu(pc, r1, [src, None]),
                _ => MicroOp::branch(pc, src, flag == 1, pc ^ 0x40),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized configurations on generated SPEC traces produce
    /// bit-identical stats from both engines.
    #[test]
    fn random_configs_match_reference(
        cfg in arb_config(),
        which in 0usize..spec::BENCHMARKS.len(),
    ) {
        let p = spec::profile(spec::BENCHMARKS[which]).expect("known benchmark");
        let trace: Vec<MicroOp> = TraceGenerator::new(p).take(8_000).collect();
        prop_assert_eq!(optimized_stats(&cfg, &trace), reference_stats(&cfg, &trace));
    }

    /// Adversarial store/load aliasing streams — the worst case for
    /// the filtered forwarding lookup — still match the reference's
    /// unconditional linear scan exactly.
    #[test]
    fn aliasing_streams_match_reference(
        trace in (1usize..2_000)
            .prop_flat_map(|n| prop::collection::vec(arb_aliasing_op(), n)),
        cfg in arb_config(),
    ) {
        prop_assert_eq!(optimized_stats(&cfg, &trace), reference_stats(&cfg, &trace));
    }
}

/// The issue-slot structure must stay bounded by the scheduling window,
/// not the op count: simulating 16x more ops of a stall-heavy stream
/// may not grow the auxiliary footprint. (The pre-overhaul `HashMap`
/// grew one entry per distinct issue cycle between periodic sweeps —
/// O(ops) between sweeps and O(total cycles / sweeps) after.)
#[test]
fn issue_slot_state_is_o_window_not_o_ops() {
    // Long-latency divides spread issue cycles far apart (every op
    // lands in a fresh cycle), which is the access pattern that made
    // the HashMap grow without bound.
    let stall_op = |i: u64| {
        let mut op = MicroOp::alu(
            i % 64,
            (8 + i % 8) as u8,
            [Some((8 + (i + 1) % 8) as u8), None],
        );
        op.class = xps_workload::OpClass::IntDiv;
        op
    };
    let cfg = CoreConfig::initial();
    let mut sim = Simulator::new(&cfg);
    let mut peak_short = 0usize;
    for i in 0..10_000u64 {
        sim.step_op(&stall_op(i));
        peak_short = peak_short.max(sim.issue_slot_footprint());
    }
    let mut sim = Simulator::new(&cfg);
    let mut peak_long = 0usize;
    for i in 0..160_000u64 {
        sim.step_op(&stall_op(i));
        peak_long = peak_long.max(sim.issue_slot_footprint());
    }
    assert!(
        peak_long <= peak_short.max(1) * 2,
        "auxiliary state grew with op count: {peak_short} entries at 10k ops, \
         {peak_long} at 160k"
    );
}

/// Op budgets around every boundary of the group kernel: one op, one
/// short of, at and past the 256-op chunk, at and past the replay
/// cache's bound (cached slice versus one streaming generator), and a
/// long streamed run.
const GROUP_OPS: [u64; 7] = [1, 255, 256, 257, 65_536, 65_537, 200_000];

/// Assert that the group result on `configs` equals one scalar
/// `evaluate` and one reference run per configuration.
fn assert_group_matches(profile: &xps_workload::WorkloadProfile, configs: &[CoreConfig], ops: u64) {
    let group = evaluate_group(profile, configs, ops);
    assert_eq!(group.len(), configs.len());
    let trace: Vec<MicroOp> = TraceGenerator::new(profile.clone())
        .take(ops as usize)
        .collect();
    for (k, (stats, cfg)) in group.iter().zip(configs).enumerate() {
        let what = format!(
            "{} on member {k} ({}) of {} at {ops} ops",
            profile.name,
            cfg.name,
            configs.len()
        );
        assert_eq!(
            stats,
            &evaluate(profile, cfg, ops),
            "group vs scalar: {what}"
        );
        assert_eq!(
            stats,
            &reference_stats(cfg, &trace),
            "group vs reference: {what}"
        );
    }
}

/// Groups of the Table 4 cores for K = 1..=11, each K at one of the
/// boundary budgets in turn, so every budget meets several group
/// sizes and the long budgets meet groups of four to eleven.
#[test]
fn table4_groups_match_scalar_and_reference() {
    let cores = paper::table4_configs();
    for k in 1..=cores.len() {
        let ops = GROUP_OPS[k % GROUP_OPS.len()];
        let profile = spec::profile(spec::BENCHMARKS[k - 1]).expect("known benchmark");
        assert_group_matches(&profile, &cores[..k], ops);
    }
}

/// A budget that is not a multiple of the 256-op chunk, replayed as a
/// prefix of a longer trace the replay cache already holds: the cached
/// slice ends mid-chunk and short of the trace, and the group kernel
/// must step exactly the budget.
#[test]
fn replayed_prefix_ending_mid_chunk_matches_reference() {
    let cores = paper::table4_configs();
    let profile = spec::profile("twolf").expect("known benchmark");
    evaluate_group(&profile, &cores[..1], 40_000);
    for ops in [12_345, 257, 39_999] {
        assert_group_matches(&profile, &cores[..3], ops);
    }
}

/// Seeded random design points, realized at the default technology:
/// a chain of move-kernel mutations from the Table 3 start.
fn random_cores(seed: u64, n: usize) -> Vec<CoreConfig> {
    let tech = Technology::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut point = DesignPoint::initial();
    let mut cores = Vec::with_capacity(n);
    while cores.len() < n {
        point = mutate(&mut rng, &point);
        if let Some(cfg) = point.realize(&tech, &format!("random-{}", cores.len())) {
            cores.push(cfg);
        }
    }
    cores
}

/// Random design points at every boundary budget, in groups whose
/// size cycles through 1..=11; every group repeats its first
/// configuration at the end, so one group holds one configuration
/// twice (two simulators stepping identical state side by side).
#[test]
fn random_design_point_groups_match_scalar_and_reference() {
    let cores = random_cores(0x5eed, 10);
    for (i, &ops) in GROUP_OPS.iter().enumerate() {
        let k = 1 + (3 * i + 1) % cores.len();
        let mut group = cores[..k].to_vec();
        group.push(cores[0].clone());
        let profile = spec::profile(spec::BENCHMARKS[i]).expect("known benchmark");
        assert_group_matches(&profile, &group, ops);
    }
}

/// Every simulator of a traced group emits its own `sim.run` instant,
/// so the ledger's simulated-op count is unchanged by grouping.
#[test]
fn traced_group_records_one_sim_run_per_member() {
    let cores = paper::table4_configs();
    let profile = spec::profile("vpr").expect("known benchmark");
    for (k, ops) in [(1usize, 300u64), (5, 70_000)] {
        let (rec, _) = xps_trace::with_recorder(xps_trace::SpanRecorder::new(), || {
            evaluate_group(&profile, &cores[..k], ops)
        });
        let runs: Vec<_> = rec
            .finish()
            .into_iter()
            .filter(|e| e.name == "sim.run")
            .collect();
        assert_eq!(runs.len(), k, "one sim.run per member");
        assert_eq!(runs.iter().map(|e| e.ops()).sum::<u64>(), k as u64 * ops);
    }
}
