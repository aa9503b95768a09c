//! The explorer behavioral battery: every strategy in the portfolio
//! must (1) converge on a known-optimum toy grid, (2) spend exactly
//! its evaluation budget — counted at the cache seam, the only place
//! simulations happen, (3) be a pure function of its seed, and
//! (4) produce byte-identical results through the remote task
//! dispatcher. These are the contracts the equal-budget bake-off
//! stands on; an explorer that cheats any of them makes the
//! comparison meaningless.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xps_cacti::Technology;
use xps_explore::{
    explorer_by_name, search, EvalCache, RunContext, SearchOptions, SearchOutcome, TaskDispatcher,
    TaskSpec, EXPLORER_NAMES,
};
use xps_workload::{spec, WorkloadProfile};

fn gzip() -> WorkloadProfile {
    spec::profile("gzip").expect("gzip exists")
}

fn opts(budget: u64, seed: u64) -> SearchOptions {
    SearchOptions {
        budget,
        eval_ops: 4_000,
        seed,
    }
}

/// The toy grid: the coarse exploration lattice, small enough to
/// enumerate exhaustively. Its optimum is *known* — computed by brute
/// force — and every explorer, given a budget comparable to the
/// lattice size, must find a design at least as good as 95% of it.
/// (The explorers search the continuous neighbourhood space, so they
/// may legitimately beat the lattice.)
#[test]
fn every_explorer_converges_near_the_known_grid_optimum() {
    let tech = Technology::default();
    let profile = gzip();
    let cache = EvalCache::new();
    let grid_best = xps_explore::GridSpec::default()
        .points()
        .iter()
        .filter_map(|p| p.realize(&tech, &profile.name))
        .map(|cfg| cache.ipt(&profile, &cfg, 4_000))
        .fold(f64::MIN, f64::max);
    assert!(
        grid_best > 0.0,
        "the lattice must contain realizable points"
    );
    for name in EXPLORER_NAMES {
        let e = explorer_by_name(name).expect("registered");
        let r = search(&*e, &profile, &tech, &opts(120, 0x5EED), &cache).expect("searches");
        assert!(
            r.ipt >= 0.95 * grid_best,
            "{name} found {:.4} IPT, below 95% of the known grid optimum {:.4}",
            r.ipt,
            grid_best
        );
    }
}

/// Budget-exhaustion exactness, counted at the cache seam. A fresh
/// cache sees exactly one `stats` call per billed evaluation — no
/// explorer can simulate off the books, and none may stop early.
#[test]
fn budget_is_exact_at_the_cache_seam() {
    let tech = Technology::default();
    for name in EXPLORER_NAMES {
        for budget in [1, 7, 40] {
            let e = explorer_by_name(name).expect("registered");
            let cache = EvalCache::new();
            let r = search(&*e, &gzip(), &tech, &opts(budget, 3), &cache).expect("searches");
            assert_eq!(r.evals, budget, "{name} must spend exactly {budget}");
            let c = cache.counters();
            assert_eq!(
                c.hits + c.misses,
                budget,
                "{name}: the cache seam must see exactly one lookup per evaluation"
            );
        }
    }
}

/// Same seed, same everything; a different seed takes a visibly
/// different walk. The comparison is on the full serialized outcome —
/// point, config, curve, front — not just the headline IPT.
#[test]
fn outcomes_are_pure_functions_of_the_seed() {
    let tech = Technology::default();
    for name in EXPLORER_NAMES {
        let e = explorer_by_name(name).expect("registered");
        let run = |seed: u64| {
            let r =
                search(&*e, &gzip(), &tech, &opts(30, seed), &EvalCache::new()).expect("searches");
            serde_json::to_string(&r).expect("serializes")
        };
        assert_eq!(run(11), run(11), "{name} must be seed-deterministic");
        assert_ne!(
            run(11),
            run(12),
            "{name} ignored its seed — every walk would be identical"
        );
    }
}

/// The degenerate remote worker: executes search specs in-process via
/// the same wire path a fleet worker uses.
#[derive(Debug, Default)]
struct InProcessDispatcher {
    cache: EvalCache,
    served: AtomicU64,
}

impl TaskDispatcher for InProcessDispatcher {
    fn dispatch(&self, _key: &str, spec: &TaskSpec) -> Option<String> {
        self.served.fetch_add(1, Ordering::Relaxed);
        spec.validate()
            .and_then(|()| spec.run(Some(&self.cache)))
            .ok()
    }
}

/// A fan of searches through the dispatcher seam returns the same
/// bytes as a local fan and as direct searches — the property that
/// lets `repro bakeoff --workers ..` scale over a fleet without
/// changing the report.
#[test]
fn dispatched_searches_match_local_searches_byte_for_byte() {
    let tech = Technology::default();
    let profile = gzip();
    let o = opts(8, 5);
    let specs: Vec<TaskSpec> = EXPLORER_NAMES
        .iter()
        .map(|name| TaskSpec::search(&profile, name, &o, &tech))
        .collect();
    let run = |dispatcher: Option<Arc<dyn TaskDispatcher>>| {
        let cache = EvalCache::new();
        let mut ctx = RunContext::new();
        if let Some(d) = dispatcher {
            ctx = ctx.with_dispatcher(d);
        }
        let fan = ctx
            .run_fan_tasks::<SearchOutcome>(2, "battery", &specs, Some(&cache))
            .expect("fan");
        let items: Vec<String> = fan
            .items
            .into_iter()
            .map(|r| serde_json::to_string(&r.expect("ok")).expect("serializes"))
            .collect();
        (items, ctx.remote_dispatched())
    };
    let direct: Vec<String> = EXPLORER_NAMES
        .iter()
        .map(|name| {
            let e = explorer_by_name(name).expect("registered");
            let r = search(&*e, &profile, &tech, &o, &EvalCache::new()).expect("searches");
            serde_json::to_string(&r).expect("serializes")
        })
        .collect();
    let dispatcher = Arc::new(InProcessDispatcher::default());
    let (local, r0) = run(None);
    let (remote, r1) = run(Some(dispatcher.clone()));
    assert_eq!(r0, 0);
    assert_eq!(r1, EXPLORER_NAMES.len() as u64, "every search went remote");
    assert_eq!(
        dispatcher.served.load(Ordering::Relaxed),
        EXPLORER_NAMES.len() as u64
    );
    assert_eq!(local, direct, "a local fan runs each search as given");
    assert_eq!(local, remote, "the wire round trip must not move a byte");
}
