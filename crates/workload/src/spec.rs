//! The eleven C-language SPEC2000 integer benchmark models.
//!
//! The paper evaluates the C integer benchmarks of SPEC2000: bzip,
//! crafty, gap, gcc, gzip, mcf, parser, perl, twolf, vortex, and vpr.
//! Each function below builds the statistical model of one benchmark.
//! The parameter values are derived from the published characterization
//! literature the paper itself cites (instruction mixes and footprints
//! from SPEC CPU2000 characterization studies; branch behaviour and
//! pointer-chasing degree from the standard lore: mcf memory-bound with
//! dependent loads, crafty/perl small-footprint and branchy, twolf/vpr
//! cache-sensitive placement-and-route codes, bzip/gzip compression
//! kernels with similar *raw* behaviour).
//!
//! The values are **not** fitted to the paper's result tables; they are
//! inputs chosen once from the benchmark personalities. Whatever
//! configurations the explorer then finds are the reproduction's
//! "measured" results.

use crate::profile::{ControlBehavior, DependenceBehavior, MemoryBehavior, OpMix, WorkloadProfile};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// Names of the eleven benchmarks, in the paper's table order.
pub const BENCHMARKS: [&str; 11] = [
    "bzip", "crafty", "gap", "gcc", "gzip", "mcf", "parser", "perl", "twolf", "vortex", "vpr",
];

/// All eleven profiles, in the paper's table order.
pub fn all_profiles() -> Vec<WorkloadProfile> {
    #[expect(
        clippy::expect_used,
        reason = "BENCHMARKS and profile() are defined from the same static table; covered by tests"
    )]
    BENCHMARKS
        .iter()
        .map(|n| profile(n).expect("BENCHMARKS entries are all known"))
        .collect()
}

/// The profile of one benchmark by name, or `None` for an unknown name.
pub fn profile(name: &str) -> Option<WorkloadProfile> {
    let p = match name {
        "bzip" => bzip(),
        "crafty" => crafty(),
        "gap" => gap(),
        "gcc" => gcc(),
        "gzip" => gzip(),
        "mcf" => mcf(),
        "parser" => parser(),
        "perl" => perl(),
        "twolf" => twolf(),
        "vortex" => vortex(),
        "vpr" => vpr(),
        _ => return None,
    };
    Some(p)
}

fn base(name: &str, seed: u64) -> WorkloadProfile {
    WorkloadProfile {
        name: name.to_string(),
        seed,
        mix: OpMix {
            load: 0.25,
            store: 0.10,
            branch: 0.12,
            mul: 0.01,
            div: 0.001,
        },
        mem: MemoryBehavior {
            hot_bytes: 32 * KB,
            warm_bytes: 512 * KB,
            cold_bytes: 16 * MB,
            hot_frac: 0.70,
            warm_frac: 0.22,
            spatial: 0.6,
            pointer_chase_frac: 0.02,
            stride: 8,
        },
        ctrl: ControlBehavior {
            static_branches: 512,
            loop_frac: 0.30,
            loop_period: 16,
            hard_frac: 0.10,
            bias: 0.85,
        },
        deps: DependenceBehavior {
            short_frac: 0.55,
            mean_dist: 6.0,
            second_src_frac: 0.4,
        },
        weight: 1.0,
    }
}

/// bzip2: block-sorting compressor. Dense dependence chains and a hot
/// set that outgrows small L1s; benefits from a large window — the
/// paper customizes it to a slow clock, width 5, ROB 512, 64 KB L1.
fn bzip() -> WorkloadProfile {
    let mut p = base("bzip", 0xB21F_0001);
    p.mix = OpMix {
        load: 0.26,
        store: 0.09,
        branch: 0.11,
        mul: 0.004,
        div: 0.0005,
    };
    p.mem.hot_bytes = 48 * KB;
    p.mem.warm_bytes = MB;
    p.mem.cold_bytes = 8 * MB;
    p.mem.hot_frac = 0.62;
    p.mem.warm_frac = 0.30;
    p.mem.spatial = 0.75;
    p.mem.stride = 8;
    p.ctrl.loop_frac = 0.40;
    p.ctrl.hard_frac = 0.05;
    p.ctrl.bias = 0.90;
    p.deps.short_frac = 0.68;
    p.deps.mean_dist = 4.0;
    p
}

/// crafty: chess engine. Tiny data footprint, branch-rich but
/// predictable, locally dense dependencies — thrives on a fast clock
/// and deep pipeline with small structures.
fn crafty() -> WorkloadProfile {
    let mut p = base("crafty", 0xC4AF_0002);
    p.mix = OpMix {
        load: 0.29,
        store: 0.10,
        branch: 0.11,
        mul: 0.002,
        div: 0.0002,
    };
    p.mem.hot_bytes = 12 * KB;
    p.mem.warm_bytes = 96 * KB;
    p.mem.cold_bytes = 256 * KB;
    p.mem.hot_frac = 0.85;
    p.mem.warm_frac = 0.12;
    p.mem.spatial = 0.45;
    p.ctrl.loop_frac = 0.25;
    p.ctrl.hard_frac = 0.02;
    p.ctrl.bias = 0.97;
    p.deps.short_frac = 0.45;
    p.deps.mean_dist = 8.0;
    p
}

/// gap: group-theory interpreter. Moderate footprint, few branches,
/// good predictability.
fn gap() -> WorkloadProfile {
    let mut p = base("gap", 0x6A50_0003);
    p.mix = OpMix {
        load: 0.23,
        store: 0.08,
        branch: 0.07,
        mul: 0.015,
        div: 0.001,
    };
    p.mem.hot_bytes = 24 * KB;
    p.mem.warm_bytes = 256 * KB;
    p.mem.cold_bytes = 768 * KB;
    p.mem.hot_frac = 0.78;
    p.mem.warm_frac = 0.17;
    p.mem.spatial = 0.55;
    p.ctrl.loop_frac = 0.35;
    p.ctrl.hard_frac = 0.04;
    p.ctrl.bias = 0.94;
    p.deps.short_frac = 0.50;
    p.deps.mean_dist = 7.0;
    p
}

/// gcc: compiler. Large, irregular footprint and the highest branch
/// frequency of the suite; the paper finds its customized core the best
/// *single* configuration — a generalist.
fn gcc() -> WorkloadProfile {
    let mut p = base("gcc", 0x6CC0_0004);
    p.mix = OpMix {
        load: 0.24,
        store: 0.12,
        branch: 0.15,
        mul: 0.003,
        div: 0.0003,
    };
    p.mem.hot_bytes = 32 * KB;
    p.mem.warm_bytes = MB;
    p.mem.cold_bytes = 6 * MB;
    p.mem.hot_frac = 0.68;
    p.mem.warm_frac = 0.24;
    p.mem.spatial = 0.55;
    p.ctrl.static_branches = 2048;
    p.ctrl.loop_frac = 0.22;
    p.ctrl.hard_frac = 0.03;
    p.ctrl.bias = 0.95;
    p.deps.short_frac = 0.55;
    p.deps.mean_dist = 6.0;
    p
}

/// gzip: LZ77 compressor. Raw characteristics close to bzip (similar
/// mix, similar measured working set, similar dependence density — the
/// widely documented similarity the paper's §5.3 exploits), but a hot
/// set that fits a 32 KB L1 and very streaming-friendly access, so its
/// *customized* configuration diverges sharply from bzip's.
fn gzip() -> WorkloadProfile {
    let mut p = base("gzip", 0x671F_0005);
    p.mix = OpMix {
        load: 0.25,
        store: 0.08,
        branch: 0.11,
        mul: 0.003,
        div: 0.0003,
    };
    p.mem.hot_bytes = 20 * KB;
    p.mem.warm_bytes = 448 * KB;
    p.mem.cold_bytes = 1536 * KB;
    p.mem.hot_frac = 0.72;
    p.mem.warm_frac = 0.22;
    p.mem.spatial = 0.88;
    p.mem.stride = 8;
    p.ctrl.loop_frac = 0.42;
    p.ctrl.hard_frac = 0.05;
    p.ctrl.bias = 0.91;
    p.deps.short_frac = 0.62;
    p.deps.mean_dist = 5.0;
    p
}

/// mcf: single-depot vehicle scheduling via network simplex. The
/// suite's memory monster: dependent pointer chases over a footprint
/// far beyond any cache, with highly biased branches. Tolerating misses
/// needs an enormous window — the paper customizes a 1024-entry ROB at
/// a slow clock with maximal caches.
fn mcf() -> WorkloadProfile {
    let mut p = base("mcf", 0x3CF0_0006);
    p.mix = OpMix {
        load: 0.30,
        store: 0.08,
        branch: 0.19,
        mul: 0.001,
        div: 0.0001,
    };
    p.mem.hot_bytes = 8 * KB;
    p.mem.warm_bytes = 1536 * KB;
    p.mem.cold_bytes = 64 * MB;
    p.mem.hot_frac = 0.30;
    p.mem.warm_frac = 0.35;
    p.mem.spatial = 0.30;
    p.mem.pointer_chase_frac = 0.40;
    p.ctrl.loop_frac = 0.30;
    p.ctrl.hard_frac = 0.02;
    p.ctrl.bias = 0.96;
    p.deps.short_frac = 0.35;
    p.deps.mean_dist = 10.0;
    p
}

/// parser: natural-language parser. Dictionary walks over a mid-sized
/// footprint, frequent moderately-predictable branches.
fn parser() -> WorkloadProfile {
    let mut p = base("parser", 0xFA45_0007);
    p.mix = OpMix {
        load: 0.24,
        store: 0.08,
        branch: 0.16,
        mul: 0.002,
        div: 0.0002,
    };
    p.mem.hot_bytes = 24 * KB;
    p.mem.warm_bytes = MB;
    p.mem.cold_bytes = 3 * MB;
    p.mem.hot_frac = 0.70;
    p.mem.warm_frac = 0.22;
    p.mem.spatial = 0.60;
    p.mem.pointer_chase_frac = 0.08;
    p.ctrl.static_branches = 1024;
    p.ctrl.loop_frac = 0.28;
    p.ctrl.hard_frac = 0.06;
    p.ctrl.bias = 0.91;
    p.deps.short_frac = 0.58;
    p.deps.mean_dist = 5.0;
    p
}

/// perl: interpreter. Small data footprint, dense dependence chains in
/// the dispatch loop; customized (like crafty) to a fast, deep design.
fn perl() -> WorkloadProfile {
    let mut p = base("perl", 0x9E41_0008);
    p.mix = OpMix {
        load: 0.30,
        store: 0.15,
        branch: 0.14,
        mul: 0.002,
        div: 0.0002,
    };
    p.mem.hot_bytes = 12 * KB;
    p.mem.warm_bytes = 128 * KB;
    p.mem.cold_bytes = 384 * KB;
    p.mem.hot_frac = 0.82;
    p.mem.warm_frac = 0.14;
    p.mem.spatial = 0.50;
    p.ctrl.static_branches = 1024;
    p.ctrl.loop_frac = 0.20;
    p.ctrl.hard_frac = 0.03;
    p.ctrl.bias = 0.95;
    p.deps.short_frac = 0.60;
    p.deps.mean_dist = 4.5;
    p
}

/// twolf: standard-cell place-and-route. Cache-sensitive with a
/// mid-size working set, hard branches, dense chains.
fn twolf() -> WorkloadProfile {
    let mut p = base("twolf", 0x7301_0009);
    p.mix = OpMix {
        load: 0.25,
        store: 0.07,
        branch: 0.12,
        mul: 0.01,
        div: 0.002,
    };
    p.mem.hot_bytes = 56 * KB;
    p.mem.warm_bytes = 768 * KB;
    p.mem.cold_bytes = 3 * MB;
    p.mem.hot_frac = 0.60;
    p.mem.warm_frac = 0.33;
    p.mem.spatial = 0.40;
    p.ctrl.loop_frac = 0.22;
    p.ctrl.hard_frac = 0.10;
    p.ctrl.bias = 0.85;
    p.deps.short_frac = 0.62;
    p.deps.mean_dist = 4.5;
    p
}

/// vortex: object-oriented database. Wide ILP, very predictable
/// branches, store-heavy; the paper customizes a wide (7), deep design.
fn vortex() -> WorkloadProfile {
    let mut p = base("vortex", 0x404E_000A);
    p.mix = OpMix {
        load: 0.28,
        store: 0.17,
        branch: 0.16,
        mul: 0.001,
        div: 0.0001,
    };
    p.mem.hot_bytes = 32 * KB;
    p.mem.warm_bytes = 512 * KB;
    p.mem.cold_bytes = 1536 * KB;
    p.mem.hot_frac = 0.72;
    p.mem.warm_frac = 0.22;
    p.mem.spatial = 0.65;
    p.ctrl.static_branches = 1024;
    p.ctrl.loop_frac = 0.28;
    p.ctrl.hard_frac = 0.02;
    p.ctrl.bias = 0.97;
    p.deps.short_frac = 0.40;
    p.deps.mean_dist = 9.0;
    p
}

/// vpr: FPGA place-and-route. twolf's sibling: similar footprint and
/// hard branches, load-heavy, dense chains.
fn vpr() -> WorkloadProfile {
    let mut p = base("vpr", 0x09F4_000B);
    p.mix = OpMix {
        load: 0.30,
        store: 0.10,
        branch: 0.11,
        mul: 0.012,
        div: 0.003,
    };
    p.mem.hot_bytes = 72 * KB;
    p.mem.warm_bytes = 640 * KB;
    p.mem.cold_bytes = 2 * MB;
    p.mem.hot_frac = 0.62;
    p.mem.warm_frac = 0.31;
    p.mem.spatial = 0.42;
    p.ctrl.loop_frac = 0.24;
    p.ctrl.hard_frac = 0.10;
    p.ctrl.bias = 0.84;
    p.deps.short_frac = 0.60;
    p.deps.mean_dist = 4.8;
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn eleven_benchmarks() {
        assert_eq!(BENCHMARKS.len(), 11);
        assert_eq!(all_profiles().len(), 11);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(profile("eon").is_none(), "eon is C++, not in the C set");
        assert!(profile("").is_none());
    }

    #[test]
    fn names_match_lookup() {
        for p in all_profiles() {
            let again = profile(&p.name).expect("round-trip");
            assert_eq!(again, p);
        }
    }

    #[test]
    fn seeds_are_distinct() {
        let seeds: HashSet<u64> = all_profiles().iter().map(|p| p.seed).collect();
        assert_eq!(seeds.len(), 11, "distinct seeds keep traces independent");
    }

    #[test]
    fn mcf_is_the_memory_monster() {
        let m = profile("mcf").expect("mcf exists");
        for p in all_profiles() {
            if p.name != "mcf" {
                assert!(m.mem.cold_bytes >= p.mem.cold_bytes);
                assert!(m.mem.pointer_chase_frac >= p.mem.pointer_chase_frac);
            }
        }
    }

    #[test]
    fn equal_default_weights() {
        for p in all_profiles() {
            assert!((p.weight - 1.0).abs() < 1e-12);
        }
    }
}
