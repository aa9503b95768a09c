//! Deterministic synthetic trace generation from a statistical profile.

use crate::op::{MicroOp, OpClass};
use crate::profile::WorkloadProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng, Uniform};

/// Base virtual address of the code region (branch PCs and sequential
/// fetch PCs live here).
const CODE_BASE: u64 = 0x0040_0000;
/// Base of the hot data region.
const HOT_BASE: u64 = 0x1000_0000;
/// Base of the warm data region.
const WARM_BASE: u64 = 0x4000_0000;
/// Base of the cold data region.
const COLD_BASE: u64 = 0x8000_0000;
/// First allocatable destination register (below this are long-lived
/// values that are always ready).
const FIRST_DEST: u8 = 8;
/// Registers at and above this index are reserved for pointer-chase
/// chains and never allocated to ordinary destinations, so a chain's
/// dependence is not broken by register recycling.
const FIRST_CHASE: u8 = 56;
/// Number of concurrent pointer-chase chains. Real pointer-chasing
/// codes (mcf's network simplex) walk several independent lists, which
/// is exactly what lets a larger instruction window extract memory-level
/// parallelism from them.
const CHASE_CHAINS: usize = 6;
/// How many recent destination registers are remembered for dependence
/// sampling.
const RECENT: usize = 32;
/// Probability a non-chase load writes a long-lived (base-pointer)
/// register instead of an allocated one: pointer updates make the
/// "always ready" pool periodically depend on memory, as in real code.
const LOAD_RENEW_FRAC: f64 = 0.10;
/// Probability a compute op renews a long-lived register (induction
/// variables, accumulated flags).
const ALU_RENEW_FRAC: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BranchKind {
    /// Loop back-edge: taken `period - 1` times, then not taken.
    Loop { period: u32 },
    /// Biased branch with a fixed taken-probability.
    Biased,
    /// Unbiased (hard) branch.
    Hard,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StaticBranch {
    pc: u64,
    target: u64,
    kind: BranchKind,
    /// Loop iteration counter (meaningful only for `Loop`).
    count: u32,
}

/// Infinite, deterministic micro-op stream synthesized from a
/// [`WorkloadProfile`].
///
/// The generator is an [`Iterator`] over [`MicroOp`]s and never ends; the
/// consumer decides the trace length. Two generators constructed from
/// equal profiles produce identical streams (the profile carries the
/// seed), which is what makes every experiment in the repository
/// reproducible.
///
/// # Example
///
/// ```
/// use xps_workload::{spec, TraceGenerator};
///
/// let p = spec::profile("gcc").expect("gcc is a known benchmark");
/// let a: Vec<_> = TraceGenerator::new(p.clone()).take(64).collect();
/// let b: Vec<_> = TraceGenerator::new(p).take(64).collect();
/// assert_eq!(a, b, "same profile, same stream");
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: SmallRng,
    branches: Vec<StaticBranch>,
    /// Indices into `branches` per kind, for dynamic-kind selection.
    loop_pool: Vec<usize>,
    biased_pool: Vec<usize>,
    hard_pool: Vec<usize>,
    /// Sequential-access cursors per region (hot, warm, cold).
    cursors: [u64; 3],
    /// Ring of recently written destination registers.
    recent: [u8; RECENT],
    recent_len: usize,
    recent_head: usize,
    next_dest: u8,
    /// Round-robin index of the next pointer-chase chain to extend.
    chase_chain: usize,
    /// Whether each chase chain has been started (its register holds a
    /// pointer).
    chase_live: [bool; CHASE_CHAINS],
    pc: u64,
    /// The branch table exactly as `build_branches` produced it, before
    /// any loop counter advanced, plus the RNG state right after the
    /// build. [`TraceGenerator::reset`] restores from these instead of
    /// re-drawing the whole construction sequence.
    pristine_branches: Vec<StaticBranch>,
    pristine_rng: SmallRng,
    /// Integer thresholds for every per-op probability compare; see
    /// [`Thresholds`].
    thr: Thresholds,
    /// Offset distributions per region (hot, warm, cold); spans are
    /// `bytes.max(8)`, matching `sample_addr`'s guard.
    d_region: [Uniform; 3],
    /// Index distributions per branch pool (loop, hard, biased); empty
    /// pools get a placeholder that is never drawn from (`gen_branch`
    /// only selects non-empty pools).
    d_pool: [Uniform; 3],
}

/// 2^53, the scale of the `f64` sampler's mantissa.
const TWO53: f64 = 9_007_199_254_740_992.0;

/// Exact integer forms of the generator's probability compares.
///
/// `Rng::gen::<f64>()` is `(next_u64() >> 11) as f64 * 2^-53`. For the
/// 53-bit draw `k` and a constant `p`, `k < ceil(p * 2^53)` decides
/// `gen::<f64>() < p` and `k > floor(p * 2^53)` decides
/// `gen::<f64>() > p`, with bit-for-bit the same outcome: scaling by a
/// power of two is exact in `f64`, and `k` is an integer. Comparing the
/// raw bits skips an int-to-float conversion and a float compare on
/// every draw of the generator's hot loop, where several probability
/// checks run per op. Cumulative mix thresholds also fold the
/// fraction sums, so op-kind dispatch is one compare per arm.
#[derive(Debug, Clone, Copy)]
struct Thresholds {
    /// Cumulative op-mix bounds: load, +store, +branch, +mul, +div.
    mix_load: u64,
    mix_ls: u64,
    mix_lsb: u64,
    mix_lsbm: u64,
    mix_total: u64,
    /// Region bounds (hot, hot+warm) and the spatial-locality check.
    hot: u64,
    hot_warm: u64,
    spatial: u64,
    /// Load shaping: pointer-chase, has-source (0.5), renew fractions.
    chase: u64,
    half: u64,
    load_renew: u64,
    alu_renew: u64,
    second_src: u64,
    /// Dependence sampling: short-distance fraction and the geometric
    /// stop bound (`> 1/mean_dist`).
    short: u64,
    geo_stop: u64,
    /// Branch-kind bounds (loop, loop+hard) and the biased-taken check.
    kf_loop: u64,
    kf_loop_hard: u64,
    bias: u64,
}

/// `k < lt_bits(p)` ⟺ `(k as f64) * 2^-53 < p`, for any 53-bit `k`.
fn lt_bits(p: f64) -> u64 {
    (p * TWO53).ceil().clamp(0.0, u64::MAX as f64) as u64
}

/// `k > gt_bits(p)` ⟺ `(k as f64) * 2^-53 > p`, for any 53-bit `k`.
fn gt_bits(p: f64) -> u64 {
    (p * TWO53).floor().clamp(0.0, u64::MAX as f64) as u64
}

impl Thresholds {
    fn for_profile(p: &WorkloadProfile) -> Thresholds {
        let mix = p.mix;
        Thresholds {
            mix_load: lt_bits(mix.load),
            mix_ls: lt_bits(mix.load + mix.store),
            mix_lsb: lt_bits(mix.load + mix.store + mix.branch),
            mix_lsbm: lt_bits(mix.load + mix.store + mix.branch + mix.mul),
            mix_total: lt_bits(mix.total()),
            hot: lt_bits(p.mem.hot_frac),
            hot_warm: lt_bits(p.mem.hot_frac + p.mem.warm_frac),
            spatial: lt_bits(p.mem.spatial),
            chase: lt_bits(p.mem.pointer_chase_frac),
            half: lt_bits(0.5),
            load_renew: lt_bits(LOAD_RENEW_FRAC),
            alu_renew: lt_bits(ALU_RENEW_FRAC),
            second_src: lt_bits(p.deps.second_src_frac),
            short: lt_bits(p.deps.short_frac),
            geo_stop: gt_bits(1.0 / p.deps.mean_dist),
            kf_loop: lt_bits(p.ctrl.loop_frac),
            kf_loop_hard: lt_bits(p.ctrl.loop_frac + p.ctrl.hard_frac),
            bias: lt_bits(p.ctrl.bias),
        }
    }
}

impl TraceGenerator {
    /// Build a generator for `profile`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation; construct profiles via
    /// [`crate::spec`] or validate before use.
    pub fn new(profile: WorkloadProfile) -> TraceGenerator {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid profile `{}`: {e}", profile.name));
        let mem = profile.mem;
        let mut g = TraceGenerator {
            rng: SmallRng::seed_from_u64(profile.seed),
            thr: Thresholds::for_profile(&profile),
            d_region: [
                Uniform::new(0, mem.hot_bytes.max(8)),
                Uniform::new(0, mem.warm_bytes.max(8)),
                Uniform::new(0, mem.cold_bytes.max(8)),
            ],
            d_pool: [Uniform::new(0, 1); 3],
            profile,
            branches: Vec::new(),
            loop_pool: Vec::new(),
            biased_pool: Vec::new(),
            hard_pool: Vec::new(),
            cursors: [0; 3],
            recent: [FIRST_DEST; RECENT],
            recent_len: 0,
            recent_head: 0,
            next_dest: FIRST_DEST,
            chase_chain: 0,
            chase_live: [false; CHASE_CHAINS],
            pc: CODE_BASE,
            pristine_branches: Vec::new(),
            pristine_rng: SmallRng::seed_from_u64(0),
        };
        g.build_branches();
        g.d_pool = [&g.loop_pool, &g.hard_pool, &g.biased_pool]
            .map(|p| Uniform::new(0, p.len().max(1) as u64));
        g.pristine_branches = g.branches.clone();
        g.pristine_rng = g.rng.clone();
        g
    }

    /// Rewind to the exact state of a freshly constructed generator for
    /// the same profile, reusing the branch-table allocations. After a
    /// reset the op stream restarts bit-identically from the first op,
    /// which is what lets a per-thread generator pool recycle buffers
    /// without perturbing any result.
    pub fn reset(&mut self) {
        // Construction is memoized: iterating only ever mutates loop
        // counters in `branches` and the RNG, so restoring both from
        // the post-build snapshot replays construction exactly without
        // re-drawing it. The kind pools are build-time constants and
        // need no touch-up.
        self.rng.clone_from(&self.pristine_rng);
        self.branches.clone_from(&self.pristine_branches);
        self.cursors = [0; 3];
        self.recent = [FIRST_DEST; RECENT];
        self.recent_len = 0;
        self.recent_head = 0;
        self.next_dest = FIRST_DEST;
        self.chase_chain = 0;
        self.chase_live = [false; CHASE_CHAINS];
        self.pc = CODE_BASE;
    }

    /// Build the static branch tables. Must consume RNG draws in a
    /// fixed order: the post-init `self.rng` state feeds the op
    /// stream. Runs once at construction; [`reset`] restores the
    /// snapshot taken right after this returns.
    ///
    /// [`reset`]: TraceGenerator::reset
    fn build_branches(&mut self) {
        let n = self.profile.ctrl.static_branches as usize;
        self.branches.reserve(n);
        // Split the static pool in proportion to the dynamic kind
        // fractions so each static branch keeps one personality.
        for i in 0..n {
            let f = i as f64 / n as f64;
            let kind = if f < self.profile.ctrl.loop_frac {
                self.loop_pool.push(i);
                BranchKind::Loop {
                    // Cap periods at 10 so patterns stay within the
                    // reach of a 12-bit-history predictor, as inner
                    // loops are for real loop/history predictors.
                    period: 2 + (self.rng.gen::<u32>() % self.profile.ctrl.loop_period.clamp(2, 9)),
                }
            } else if f < self.profile.ctrl.loop_frac + self.profile.ctrl.hard_frac {
                self.hard_pool.push(i);
                BranchKind::Hard
            } else {
                self.biased_pool.push(i);
                BranchKind::Biased
            };
            let pc = CODE_BASE + 4 * self.rng.gen_range(0..65536) as u64;
            self.branches.push(StaticBranch {
                pc,
                target: pc.wrapping_add(4 * self.rng.gen_range(2..64) as u64),
                kind,
                count: self.rng.gen::<u32>() % self.profile.ctrl.loop_period.max(2),
            });
        }
        // Guarantee non-empty fallback pools.
        if self.biased_pool.is_empty() {
            self.biased_pool.push(0);
        }
    }

    /// The profile this generator was built from.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// The 53 bits behind one `gen::<f64>()` draw, for integer-
    /// threshold compares (see [`Thresholds`]). Consumes exactly one
    /// `next_u64`, like the float form.
    #[inline]
    fn draw53(&mut self) -> u64 {
        use rand::RngCore;
        self.rng.next_u64() >> 11
    }

    fn alloc_dest(&mut self) -> u8 {
        let d = self.next_dest;
        self.next_dest += 1;
        if self.next_dest >= FIRST_CHASE {
            self.next_dest = FIRST_DEST;
        }
        self.recent[self.recent_head] = d;
        self.recent_head = (self.recent_head + 1) % RECENT;
        self.recent_len = (self.recent_len + 1).min(RECENT);
        d
    }

    /// Sample a source register: with probability `short_frac` a recent
    /// producer at a geometric backward distance, otherwise a long-lived
    /// always-ready register.
    fn sample_src(&mut self) -> u8 {
        if self.recent_len > 0 && self.draw53() < self.thr.short {
            let mut dist = 1usize;
            while self.draw53() > self.thr.geo_stop && dist < self.recent_len {
                dist += 1;
            }
            let idx = (self.recent_head + RECENT - dist.min(self.recent_len)) % RECENT;
            self.recent[idx]
        } else {
            self.rng.gen_range(0..FIRST_DEST)
        }
    }

    /// Generate a data address according to the region model.
    fn sample_addr(&mut self) -> u64 {
        let m = self.profile.mem;
        let r = self.draw53();
        let (region, base, size) = if r < self.thr.hot {
            (0usize, HOT_BASE, m.hot_bytes)
        } else if r < self.thr.hot_warm {
            (1, WARM_BASE, m.warm_bytes)
        } else {
            (2, COLD_BASE, m.cold_bytes)
        };
        let off = if self.draw53() < self.thr.spatial {
            // `cursor < size` always holds, so the wrap `% size` is a
            // (rarely taken) subtract, not a division.
            let mut c = self.cursors[region] + m.stride;
            while c >= size {
                c -= size;
            }
            self.cursors[region] = c;
            c
        } else {
            let c = self.d_region[region].sample(&mut self.rng) & !7;
            self.cursors[region] = c;
            c
        };
        base + off
    }

    fn next_pc(&mut self) -> u64 {
        self.pc = self.pc.wrapping_add(4);
        if self.pc >= CODE_BASE + 0x10_0000 {
            self.pc = CODE_BASE;
        }
        self.pc
    }

    fn gen_branch(&mut self) -> MicroOp {
        let kf = self.draw53();
        let (pool, d_pool) = if kf < self.thr.kf_loop && !self.loop_pool.is_empty() {
            (&self.loop_pool, &self.d_pool[0])
        } else if kf < self.thr.kf_loop_hard && !self.hard_pool.is_empty() {
            (&self.hard_pool, &self.d_pool[1])
        } else {
            (&self.biased_pool, &self.d_pool[2])
        };
        let bi = pool[d_pool.sample(&mut self.rng) as usize];
        let b = self.branches[bi];
        let taken = match b.kind {
            BranchKind::Loop { period } => {
                let c = self.branches[bi].count;
                self.branches[bi].count = (c + 1) % period.max(2);
                c + 1 != period.max(2)
            }
            BranchKind::Biased => self.draw53() < self.thr.bias,
            BranchKind::Hard => self.draw53() < self.thr.half,
        };
        let cond = self.sample_src();
        MicroOp::branch(b.pc, Some(cond), taken, b.target)
    }

    fn gen_load(&mut self) -> MicroOp {
        let pc = self.next_pc();
        let chase = self.draw53() < self.thr.chase;
        if chase {
            // Extend the next chain round-robin: the load's address
            // depends on the chain register, and its result becomes the
            // next pointer of that chain. Chains are serial internally
            // but independent of each other, so a larger window can
            // overlap them (memory-level parallelism).
            let chain = self.chase_chain;
            self.chase_chain = (self.chase_chain + 1) % CHASE_CHAINS;
            let reg = FIRST_CHASE + chain as u8;
            let src = if self.chase_live[chain] {
                Some(reg)
            } else {
                None
            };
            self.chase_live[chain] = true;
            // Chains walk the *warm* arena: pointer structures have a
            // bounded footprint, so a sufficiently large L2 can capture
            // a chase (the paper's mcf gets exactly this from its 4 MB
            // L2), while small caches send every hop to memory.
            let off = self.d_region[1].sample(&mut self.rng) & !7;
            MicroOp::load(pc, reg, src, WARM_BASE + off)
        } else {
            let src = if self.draw53() < self.thr.half {
                Some(self.sample_src())
            } else {
                None
            };
            let dest = if self.draw53() < self.thr.load_renew {
                // A pointer/base-register update: the long-lived pool
                // now depends on this load's latency.
                self.rng.gen_range(0..FIRST_DEST)
            } else {
                self.alloc_dest()
            };
            let addr = self.sample_addr();
            MicroOp::load(pc, dest, src, addr)
        }
    }

    fn gen_store(&mut self) -> MicroOp {
        let pc = self.next_pc();
        let data = self.sample_src();
        let addr = self.sample_addr();
        let mut op = MicroOp::store(pc, data, addr);
        // Half of stores also carry an address-base dependence.
        if self.draw53() < self.thr.half {
            op.srcs[1] = Some(self.sample_src());
        }
        op
    }

    fn gen_compute(&mut self, class: OpClass) -> MicroOp {
        let pc = self.next_pc();
        let s0 = self.sample_src();
        let s1 = if self.draw53() < self.thr.second_src {
            Some(self.sample_src())
        } else {
            None
        };
        let dest = if self.draw53() < self.thr.alu_renew {
            self.rng.gen_range(0..FIRST_DEST)
        } else {
            self.alloc_dest()
        };
        MicroOp {
            pc,
            class,
            dest: Some(dest),
            srcs: [Some(s0), s1],
            addr: 0,
            branch: None,
        }
    }
}

/// Most generators a single thread keeps pooled; beyond this the extra
/// ones are dropped rather than hoarded.
const POOL_CAP: usize = 16;

thread_local! {
    static GENERATOR_POOL: std::cell::RefCell<Vec<TraceGenerator>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` with a trace generator for `profile`, recycling a per-thread
/// pool of generators so repeated evaluations on one worker reuse the
/// branch-table allocations instead of reallocating them.
///
/// The generator handed to `f` is always in the freshly-constructed
/// state ([`TraceGenerator::reset`] replays construction exactly), so
/// the op stream is bit-identical to `TraceGenerator::new(profile)`.
pub fn with_generator<R>(profile: &WorkloadProfile, f: impl FnOnce(&mut TraceGenerator) -> R) -> R {
    let pooled = GENERATOR_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        pool.iter()
            .position(|g| g.profile() == profile)
            .map(|i| pool.swap_remove(i))
    });
    let mut g = match pooled {
        Some(mut g) => {
            g.reset();
            g
        }
        None => TraceGenerator::new(profile.clone()),
    };
    let out = f(&mut g);
    GENERATOR_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < POOL_CAP {
            pool.push(g);
        }
    });
    out
}

impl Iterator for TraceGenerator {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        let r = self.draw53();
        let op = if r < self.thr.mix_load {
            self.gen_load()
        } else if r < self.thr.mix_ls {
            self.gen_store()
        } else if r < self.thr.mix_lsb {
            self.gen_branch()
        } else if r < self.thr.mix_lsbm {
            self.gen_compute(OpClass::IntMul)
        } else if r < self.thr.mix_total {
            self.gen_compute(OpClass::IntDiv)
        } else {
            self.gen_compute(OpClass::IntAlu)
        };
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::REG_COUNT;
    use crate::spec;

    #[test]
    fn integer_thresholds_match_float_compares() {
        // The exactness claim behind `Thresholds`: for every 53-bit
        // draw k, the integer compare decides identically to the float
        // compare it replaces — including at the representability
        // boundaries (p exactly k/2^53).
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..20_000 {
            let k: u64 = rng.gen::<u64>() >> 11;
            let p = if rng.gen::<bool>() {
                rng.gen::<f64>()
            } else {
                // Exactly representable boundary values.
                (rng.gen::<u64>() >> 11) as f64 / TWO53
            };
            let v = k as f64 * (1.0 / TWO53);
            assert_eq!(k < lt_bits(p), v < p, "lt k={k} p={p}");
            assert_eq!(k > gt_bits(p), v > p, "gt k={k} p={p}");
        }
        // Degenerate probabilities.
        for p in [0.0, 1.0] {
            for k in [0u64, 1, (1 << 53) - 1] {
                let v = k as f64 * (1.0 / TWO53);
                assert_eq!(k < lt_bits(p), v < p);
                assert_eq!(k > gt_bits(p), v > p);
            }
        }
    }

    fn count_class(ops: &[MicroOp], class: OpClass) -> usize {
        ops.iter().filter(|o| o.class == class).count()
    }

    #[test]
    fn deterministic_across_clones() {
        let p = spec::profile("twolf").expect("twolf exists");
        let a: Vec<_> = TraceGenerator::new(p.clone()).take(5000).collect();
        let b: Vec<_> = TraceGenerator::new(p).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn reset_replays_identical_stream() {
        let p = spec::profile("mcf").expect("mcf exists");
        let mut g = TraceGenerator::new(p.clone());
        let first: Vec<_> = (&mut g).take(4000).collect();
        g.reset();
        // Right after reset the branch table matches a fresh build
        // (iterating mutates loop counters, so compare before replay).
        let fresh = TraceGenerator::new(p);
        assert_eq!(g.branches, fresh.branches);
        assert_eq!(g.loop_pool, fresh.loop_pool);
        assert_eq!(g.biased_pool, fresh.biased_pool);
        assert_eq!(g.hard_pool, fresh.hard_pool);
        let replay: Vec<_> = (&mut g).take(4000).collect();
        assert_eq!(first, replay);
    }

    #[test]
    fn pooled_generator_matches_fresh() {
        let gzip = spec::profile("gzip").expect("gzip exists");
        let vpr = spec::profile("vpr").expect("vpr exists");
        let fresh: Vec<_> = TraceGenerator::new(gzip.clone()).take(3000).collect();
        // Interleave profiles so the second gzip call exercises the
        // reset-and-reuse path, not just first construction.
        let a = with_generator(&gzip, |g| g.take(3000).collect::<Vec<_>>());
        let _ = with_generator(&vpr, |g| g.take(100).collect::<Vec<_>>());
        let b = with_generator(&gzip, |g| g.take(3000).collect::<Vec<_>>());
        assert_eq!(a, fresh);
        assert_eq!(b, fresh);
    }

    #[test]
    fn mix_fractions_approximately_respected() {
        let p = spec::profile("gcc").expect("gcc exists");
        let n = 200_000;
        let ops: Vec<_> = TraceGenerator::new(p.clone()).take(n).collect();
        let loads = count_class(&ops, OpClass::Load) as f64 / n as f64;
        let branches = count_class(&ops, OpClass::Branch) as f64 / n as f64;
        assert!((loads - p.mix.load).abs() < 0.01, "load freq {loads}");
        assert!(
            (branches - p.mix.branch).abs() < 0.01,
            "branch freq {branches}"
        );
    }

    #[test]
    fn memory_ops_have_addresses_in_regions() {
        let p = spec::profile("mcf").expect("mcf exists");
        for op in TraceGenerator::new(p).take(20_000) {
            if op.class.is_mem() {
                assert!(op.addr >= HOT_BASE, "data addresses live in data regions");
            } else if op.class != OpClass::Branch {
                assert_eq!(op.addr, 0);
            }
        }
    }

    #[test]
    fn pointer_chases_are_dependent() {
        let p = spec::profile("mcf").expect("mcf exists");
        let ops: Vec<_> = TraceGenerator::new(p).take(50_000).collect();
        // Chase loads read and write the same dedicated chain register.
        let chained = ops
            .iter()
            .filter(|o| {
                o.class == OpClass::Load
                    && o.dest.map(|d| d >= FIRST_CHASE).unwrap_or(false)
                    && o.srcs[0] == o.dest
            })
            .count();
        assert!(
            chained > 1000,
            "mcf must exhibit pointer chasing, saw {chained}"
        );
    }

    #[test]
    fn loop_branches_follow_period() {
        let p = spec::profile("bzip").expect("bzip exists");
        let ops: Vec<_> = TraceGenerator::new(p).take(100_000).collect();
        // A loop branch should be mostly taken.
        let branches: Vec<_> = ops.iter().filter(|o| o.class == OpClass::Branch).collect();
        assert!(!branches.is_empty());
        let taken = branches
            .iter()
            .filter(|o| o.branch.expect("branch op").taken)
            .count() as f64
            / branches.len() as f64;
        assert!(taken > 0.6, "bzip branches are mostly taken: {taken}");
    }

    #[test]
    fn dest_register_ranges() {
        let p = spec::profile("perl").expect("perl exists");
        let mut renewals = 0;
        for op in TraceGenerator::new(p).take(10_000) {
            if let Some(d) = op.dest {
                assert!((d as usize) < REG_COUNT);
                if op.class != OpClass::Load {
                    assert!(d < FIRST_CHASE, "only chase loads use chain registers");
                }
                if d < FIRST_DEST {
                    renewals += 1;
                }
            }
        }
        // Long-lived registers are periodically renewed (base-pointer
        // and induction-variable updates), but only occasionally.
        assert!(renewals > 50, "some renewals expected, saw {renewals}");
        assert!(renewals < 2000, "renewals stay rare, saw {renewals}");
    }
}
