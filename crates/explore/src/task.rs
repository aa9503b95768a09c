//! Wire-format task descriptions: the exploration DAG, exported.
//!
//! Every expensive unit of work the pipeline fans out — an annealing
//! walk from one start, one cross-seeding evaluation, one matrix row
//! on a lock-step group of cores, one budgeted search — is a pure
//! function of a small, serializable description. A [`TaskSpec`] is
//! that description, and the only one: [`RunContext`] runs each fan
//! item by handing its spec to a fleet worker or, failing that, to
//! [`TaskSpec::run`] on this machine — the same code the worker runs.
//! Both sides produce the same result string from the same inputs,
//! which is what lets a coordinator scatter tasks over the wire and
//! still gather a byte-identical result for any worker count,
//! topology, or failure schedule: a task that cannot be dispatched (no
//! healthy worker, exhausted retries, garbage response) simply runs
//! locally, and nobody downstream can tell the difference.
//!
//! A spec off the network is untrusted: a worker passes it through
//! [`TaskSpec::validate`] (shape and size bounds) before it runs. The
//! coordinator runs its own specs directly, so a campaign configured
//! past a bound still runs — locally.
//!
//! A [`TaskDispatcher`] is the seam between the recovery layer and
//! whatever remote execution exists: [`RunContext`] offers it each
//! spec, and treats `None` — for any reason — as "run it here". The
//! dispatcher owns every networking concern (deadlines, retries,
//! backoff, quarantine); this crate never opens a socket.
//!
//! [`RunContext`]: crate::recovery::RunContext

use crate::anneal::{anneal_with, AnnealOptions};
use crate::cache::EvalCache;
use crate::point::DesignPoint;
use crate::search::{explorer_by_name, SearchOptions};
use serde::{Deserialize, Serialize};
use xps_cacti::Technology;
use xps_sim::CoreConfig;
use xps_workload::WorkloadProfile;

/// Largest trace length, in micro-ops, one evaluation of a task may
/// ask for: an eval spec's `ops`, an anneal's early and late
/// evaluation lengths, a search's `eval_ops`. Four times the longest
/// any in-repo driver sends (the full pipeline's 1,000,000-op matrix
/// cells), so no real campaign meets it, while a spec off the network
/// cannot pin a worker with an unbounded budget.
pub const MAX_TASK_OPS: u64 = 4_000_000;

/// Most evaluations one task may make: an anneal spec's `iterations`,
/// a search spec's `budget`. Four times the most any in-repo driver
/// sends (the default search budget of 400; the full campaign anneals
/// for 260 iterations), so no real campaign meets it, while a spec off
/// the network cannot pin a worker for good. A coordinator whose
/// spec is refused runs that task itself.
pub const MAX_TASK_EVALS: u64 = 1_600;

/// Which pipeline task a [`TaskSpec`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    /// A full annealing walk from one start point (`anneal` and
    /// `reanneal` fan items).
    Anneal,
    /// IPT evaluations of a workload on a group of configurations,
    /// stepped in lock step over one trace (`seed`, `matrix`, and
    /// `rematrix` fan items; `seed` and the `rematrix` column half send
    /// groups of one).
    Eval,
    /// One budgeted portfolio search — one explorer against one
    /// workload (`bakeoff` fan items).
    Search,
}

/// A self-contained, serializable description of one pipeline task.
///
/// The vendored serde derive handles unit enum variants only, so this
/// is a struct tagged by [`TaskKind`] with the variant payloads as
/// optional fields; the constructors keep the combinations coherent
/// and [`validate`](TaskSpec::validate) checks them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskSpec {
    /// What to run.
    pub kind: TaskKind,
    /// The workload, inline (not by name) so a worker needs no shared
    /// registry to reproduce the exact model.
    pub profile: WorkloadProfile,
    /// Annealing start point ([`TaskKind::Anneal`] only).
    pub start: Option<DesignPoint>,
    /// Annealing options, with the multi-start seed already mixed in
    /// ([`TaskKind::Anneal`] only).
    pub opts: Option<AnnealOptions>,
    /// Technology point the anneal realizes against
    /// ([`TaskKind::Anneal`] only).
    pub tech: Option<Technology>,
    /// The group of configurations to evaluate on, in result order
    /// ([`TaskKind::Eval`] only; empty for the other kinds).
    pub configs: Vec<CoreConfig>,
    /// Registry name of the search strategy ([`TaskKind::Search`]
    /// only).
    pub explorer: Option<String>,
    /// Budgeted-search options ([`TaskKind::Search`] only; `tech`
    /// carries the technology, as for anneals).
    pub search: Option<SearchOptions>,
    /// Trace length in micro-ops ([`TaskKind::Eval`] only; 0 for
    /// anneals and searches, which carry their own trace lengths via
    /// `opts` / `search`).
    pub ops: u64,
}

impl TaskSpec {
    /// Describe one annealing walk.
    pub fn anneal(
        profile: &WorkloadProfile,
        start: &DesignPoint,
        opts: &AnnealOptions,
        tech: &Technology,
    ) -> TaskSpec {
        TaskSpec {
            kind: TaskKind::Anneal,
            profile: profile.clone(),
            start: Some(start.clone()),
            opts: Some(opts.clone()),
            tech: Some(tech.clone()),
            configs: Vec::new(),
            explorer: None,
            search: None,
            ops: 0,
        }
    }

    /// Describe the IPT evaluations of `profile` on each of `configs`;
    /// the result is one IPT per configuration, in order.
    pub fn eval(profile: &WorkloadProfile, configs: &[CoreConfig], ops: u64) -> TaskSpec {
        TaskSpec {
            kind: TaskKind::Eval,
            profile: profile.clone(),
            start: None,
            opts: None,
            tech: None,
            configs: configs.to_vec(),
            explorer: None,
            search: None,
            ops,
        }
    }

    /// Describe one budgeted portfolio search.
    pub fn search(
        profile: &WorkloadProfile,
        explorer: &str,
        opts: &SearchOptions,
        tech: &Technology,
    ) -> TaskSpec {
        TaskSpec {
            kind: TaskKind::Search,
            profile: profile.clone(),
            start: None,
            opts: None,
            tech: Some(tech.clone()),
            configs: Vec::new(),
            explorer: Some(explorer.to_string()),
            search: Some(opts.clone()),
            ops: 0,
        }
    }

    /// The canonical JSON of this spec: derived struct serialization
    /// is field-ordered, so equal tasks — built on the coordinator or
    /// re-parsed on a worker — canonicalize to equal bytes. Fleet
    /// content-addressing fingerprints exactly this string.
    pub fn canonical(&self) -> String {
        // xps-allow(no-unwrap-in-lib): task specs are plain data structs built from validated campaign options; serialization cannot fail
        serde_json::to_string(self).expect("task specs serialize to JSON")
    }

    /// Whether `body` has the shape of this task's result: for an eval
    /// group, one IPT per configuration. A worker's answer that fails
    /// this is a bad response, never a result to merge.
    pub fn result_fits(&self, body: &str) -> bool {
        match self.kind {
            TaskKind::Eval => serde_json::from_str::<Vec<f64>>(body)
                .is_ok_and(|ipts| ipts.len() == self.configs.len()),
            TaskKind::Anneal | TaskKind::Search => true,
        }
    }

    /// The network gate: check everything [`run`](TaskSpec::run)
    /// relies on, plus the size bounds a worker enforces, without
    /// running anything or allocating for the task.
    ///
    /// # Errors
    ///
    /// Returns a [`TaskSpecError`] when the spec is incoherent
    /// (missing payload for its kind) or invalid: an empty or invalid
    /// configuration group, an op budget of zero or above
    /// [`MAX_TASK_OPS`], more than [`MAX_TASK_EVALS`] evaluations, bad
    /// options or an unknown explorer. A spec may come off the
    /// network, so nothing in it is trusted before this check.
    pub fn validate(&self) -> Result<(), TaskSpecError> {
        let invalid = |e: crate::ExploreError| TaskSpecError::InvalidOptions(e.to_string());
        match self.kind {
            TaskKind::Anneal => {
                let (_, opts, _) = self.anneal_payload()?;
                opts.validate().map_err(invalid)?;
                within_budget(opts.eval_ops_early.max(opts.eval_ops_late))?;
                within_evals(u64::from(opts.iterations))
            }
            TaskKind::Eval => {
                if self.configs.is_empty() {
                    return Err(TaskSpecError::EmptyGroup);
                }
                if self.ops == 0 {
                    return Err(TaskSpecError::ZeroOps);
                }
                within_budget(self.ops)?;
                for (index, config) in self.configs.iter().enumerate() {
                    config
                        .validate()
                        .map_err(|detail| TaskSpecError::InvalidConfig { index, detail })?;
                }
                Ok(())
            }
            TaskKind::Search => {
                let (name, opts, _) = self.search_payload()?;
                if explorer_by_name(name).is_none() {
                    return Err(TaskSpecError::UnknownExplorer(name.to_string()));
                }
                opts.validate().map_err(invalid)?;
                within_budget(opts.eval_ops)?;
                within_evals(opts.budget)
            }
        }
    }

    /// Run the task and serialize its result: for an eval group one
    /// IPT per configuration, for an anneal its [`AnnealResult`], for
    /// a search its [`SearchOutcome`]. With a `cache`, evaluations are
    /// memoized in it; without one, an eval group is simulated
    /// directly.
    ///
    /// This checks no size bound: the coordinator runs its own specs
    /// through here whatever their lengths, and a worker calls
    /// [`validate`](TaskSpec::validate) first.
    ///
    /// # Errors
    ///
    /// Returns [`TaskSpecError::MissingPayload`] for an incoherent
    /// spec, [`TaskSpecError::UnknownExplorer`] for an unregistered
    /// explorer and [`TaskSpecError::InvalidOptions`] for search
    /// options the search refuses.
    ///
    /// [`AnnealResult`]: crate::AnnealResult
    /// [`SearchOutcome`]: crate::SearchOutcome
    pub fn run(&self, cache: Option<&EvalCache>) -> Result<String, TaskSpecError> {
        let json = match self.kind {
            TaskKind::Anneal => {
                let (start, opts, tech) = self.anneal_payload()?;
                serde_json::to_string(&anneal_with(&self.profile, start, opts, tech, cache))
            }
            TaskKind::Eval => serde_json::to_string(&self.eval_ipts(cache)),
            TaskKind::Search => {
                let (name, opts, tech) = self.search_payload()?;
                let explorer = explorer_by_name(name)
                    .ok_or_else(|| TaskSpecError::UnknownExplorer(name.to_string()))?;
                // A search memoizes its own revisits; without a shared
                // cache it gets a private one.
                let fresh = EvalCache::new();
                let cache = cache.unwrap_or(&fresh);
                let outcome = crate::search::search(&*explorer, &self.profile, tech, opts, cache)
                    .map_err(|e| TaskSpecError::InvalidOptions(e.to_string()))?;
                serde_json::to_string(&outcome)
            }
        };
        // xps-allow(no-unwrap-in-lib): task results are plain data structs and finite f64s; serialization cannot fail
        Ok(json.expect("task results serialize to JSON"))
    }

    /// The IPTs of an eval group, in order. Every group this program
    /// forms (one configuration, or a [`xps_sim::lockstep_groups`] run
    /// of the matrix) holds at most the cache state of the largest
    /// valid core and is stepped in lock step as given. A group off the
    /// network may be of any size: a larger one runs as its own
    /// state-bounded runs, so it never holds more live simulator state
    /// than one lone simulator of its largest member.
    fn eval_ipts(&self, cache: Option<&EvalCache>) -> Vec<f64> {
        let ipts = |group: &[CoreConfig]| -> Vec<f64> {
            match cache {
                Some(cache) => cache.ipt_group(&self.profile, group, self.ops),
                None => xps_sim::evaluate_group(&self.profile, group, self.ops)
                    .iter()
                    .map(xps_sim::SimStats::ipt)
                    .collect(),
            }
        };
        let state = self
            .configs
            .iter()
            .map(xps_sim::cache_state_bytes)
            .fold(0u64, u64::saturating_add);
        if state <= xps_sim::max_cache_state_bytes() {
            return ipts(&self.configs);
        }
        xps_sim::lockstep_groups(&self.configs)
            .into_iter()
            .flat_map(|run| ipts(&self.configs[run]))
            .collect()
    }

    /// The payload of an anneal spec.
    fn anneal_payload(&self) -> Result<(&DesignPoint, &AnnealOptions, &Technology), TaskSpecError> {
        match (&self.start, &self.opts, &self.tech) {
            (Some(start), Some(opts), Some(tech)) => Ok((start, opts, tech)),
            _ => Err(TaskSpecError::MissingPayload("anneal: start/opts/tech")),
        }
    }

    /// The payload of a search spec.
    fn search_payload(&self) -> Result<(&str, &SearchOptions, &Technology), TaskSpecError> {
        match (&self.explorer, &self.search, &self.tech) {
            (Some(name), Some(opts), Some(tech)) => Ok((name, opts, tech)),
            _ => Err(TaskSpecError::MissingPayload(
                "search: explorer/search/tech",
            )),
        }
    }
}

/// Refuse an evaluation length above [`MAX_TASK_OPS`].
fn within_budget(ops: u64) -> Result<(), TaskSpecError> {
    if ops > MAX_TASK_OPS {
        return Err(TaskSpecError::OpsTooLarge(ops));
    }
    Ok(())
}

/// Refuse an evaluation count above [`MAX_TASK_EVALS`].
fn within_evals(evals: u64) -> Result<(), TaskSpecError> {
    if evals > MAX_TASK_EVALS {
        return Err(TaskSpecError::TooManyEvals(evals));
    }
    Ok(())
}

/// Why [`TaskSpec::validate`] or [`TaskSpec::run`] refused a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskSpecError {
    /// The payload its kind needs is missing (names the fields).
    MissingPayload(&'static str),
    /// An eval spec with no configuration to evaluate.
    EmptyGroup,
    /// An eval spec with a zero op budget.
    ZeroOps,
    /// An evaluation length above [`MAX_TASK_OPS`] (carries the
    /// requested length).
    OpsTooLarge(u64),
    /// An anneal's iterations or a search's budget above
    /// [`MAX_TASK_EVALS`] (carries the requested count).
    TooManyEvals(u64),
    /// Configuration `index` of an eval spec fails
    /// [`CoreConfig::validate`].
    InvalidConfig {
        /// Position of the offending configuration in the group.
        index: usize,
        /// The violated constraint.
        detail: String,
    },
    /// Annealing or search options violate an invariant.
    InvalidOptions(String),
    /// A search spec names no registered explorer.
    UnknownExplorer(String),
}

impl std::fmt::Display for TaskSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskSpecError::MissingPayload(fields) => write!(f, "{fields} missing"),
            TaskSpecError::EmptyGroup => write!(f, "eval task has no configs"),
            TaskSpecError::ZeroOps => write!(f, "eval task needs ops >= 1"),
            TaskSpecError::OpsTooLarge(ops) => {
                write!(f, "{ops} ops exceed the task bound of {MAX_TASK_OPS}")
            }
            TaskSpecError::TooManyEvals(evals) => {
                write!(
                    f,
                    "{evals} evaluations exceed the task bound of {MAX_TASK_EVALS}"
                )
            }
            TaskSpecError::InvalidConfig { index, detail } => {
                write!(f, "eval config {index} invalid: {detail}")
            }
            TaskSpecError::InvalidOptions(detail) => write!(f, "invalid options: {detail}"),
            TaskSpecError::UnknownExplorer(name) => write!(f, "unknown explorer {name:?}"),
        }
    }
}

impl std::error::Error for TaskSpecError {}

/// The remote-execution seam of the recovery layer.
///
/// `dispatch` either returns the serialized result of running `spec`
/// somewhere else — the string [`TaskSpec::run`] returns — or `None`
/// to decline, in which case the task runs locally. Declining is always sound: it is the graceful-degradation
/// path down to zero workers. Implementations own their failure
/// handling (deadlines, bounded retries, quarantine) and must never
/// panic or block indefinitely; a worker that hangs past its deadline
/// is a decline, not a hang of the whole fan.
pub trait TaskDispatcher: Send + Sync + std::fmt::Debug {
    /// Try to run `spec` remotely. `key` is the task's deterministic
    /// journal key (`label#fan/item`) — stable across runs, so
    /// dispatchers can use it for deterministic fault injection and
    /// backoff jitter without consulting a clock.
    fn dispatch(&self, key: &str, spec: &TaskSpec) -> Option<String>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use xps_workload::spec;

    fn gzip() -> WorkloadProfile {
        spec::profile("gzip").expect("gzip exists")
    }

    #[test]
    fn canonical_round_trips_and_is_stable() {
        let t = TaskSpec::eval(&gzip(), &[CoreConfig::initial()], 5_000);
        let json = t.canonical();
        let back: TaskSpec = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back.canonical(), json, "canonicalization is a fixpoint");
        assert_eq!(back.kind, TaskKind::Eval);
        assert_eq!(back.ops, 5_000);
    }

    fn narrow() -> CoreConfig {
        let mut c = CoreConfig::initial();
        c.name = "narrow".into();
        c.width = 1;
        c.rob_size = 32;
        c.iq_size = 8;
        c
    }

    #[test]
    fn eval_run_matches_lone_evaluations() {
        let group = [CoreConfig::initial(), narrow(), CoreConfig::initial()];
        let t = TaskSpec::eval(&gzip(), &group, 4_000);
        let fresh = EvalCache::new();
        let lone: Vec<f64> = group.iter().map(|c| fresh.ipt(&gzip(), c, 4_000)).collect();
        for cache in [Some(&EvalCache::new()), None] {
            let body = t.run(cache).expect("runs");
            let back: Vec<f64> = serde_json::from_str(&body).expect("Vec<f64> body");
            assert!(
                back == lone,
                "bit-identical to one evaluation per config: {back:?} vs {lone:?}"
            );
            assert!(t.result_fits(&body));
        }
    }

    /// A group holding more cache state than any one valid core —
    /// only a spec off the network — runs as state-bounded runs, each
    /// member still equal to its lone evaluation.
    #[test]
    fn a_group_past_the_state_bound_runs_split() {
        let mut big = CoreConfig::initial();
        big.l2.geometry.sets = 65_536;
        big.l2.geometry.assoc = 16;
        big.validate().expect("the largest L2 is valid");
        let group = [big.clone(), narrow(), big];
        let state: u64 = group.iter().map(xps_sim::cache_state_bytes).sum();
        assert!(state > xps_sim::max_cache_state_bytes());
        assert!(xps_sim::lockstep_groups(&group).len() > 1);
        let body = TaskSpec::eval(&gzip(), &group, 1_000)
            .run(None)
            .expect("runs");
        let back: Vec<f64> = serde_json::from_str(&body).expect("Vec<f64> body");
        let lone: Vec<f64> = group
            .iter()
            .map(|c| xps_sim::evaluate(&gzip(), c, 1_000).ipt())
            .collect();
        assert!(back == lone, "{back:?} vs {lone:?}");
    }

    #[test]
    fn anneal_run_matches_local_anneal() {
        let cache = EvalCache::new();
        let mut opts = AnnealOptions::quick();
        opts.iterations = 6;
        opts.eval_ops_early = 2_000;
        opts.eval_ops_late = 4_000;
        let tech = Technology::default();
        let start = DesignPoint::initial();
        let t = TaskSpec::anneal(&gzip(), &start, &opts, &tech);
        let remote = t.run(Some(&cache)).expect("runs");
        let local = anneal_with(&gzip(), &start, &opts, &tech, Some(&cache));
        let expected = serde_json::to_string(&local).expect("serializes");
        assert_eq!(remote, expected, "the spec's anneal is byte-identical");
        assert_eq!(
            t.run(None).expect("runs"),
            expected,
            "with or without a cache"
        );
    }

    #[test]
    fn search_run_matches_local_search() {
        use crate::search::{explorer_by_name, search};
        let cache = EvalCache::new();
        let opts = SearchOptions {
            budget: 8,
            eval_ops: 3_000,
            seed: 5,
        };
        let tech = Technology::default();
        let t = TaskSpec::search(&gzip(), "genetic", &opts, &tech);
        let remote = t.run(Some(&cache)).expect("runs");
        let explorer = explorer_by_name("genetic").expect("registered");
        let local = search(&*explorer, &gzip(), &tech, &opts, &cache).expect("searches");
        let expected = serde_json::to_string(&local).expect("serializes");
        assert_eq!(remote, expected, "the spec's search is byte-identical");
        assert_eq!(
            t.run(None).expect("runs"),
            expected,
            "with or without a cache"
        );
    }

    #[test]
    fn search_specs_validate_their_payload() {
        let opts = SearchOptions {
            budget: 4,
            eval_ops: 1_000,
            seed: 1,
        };
        let tech = Technology::default();
        let mut t = TaskSpec::search(&gzip(), "anneal", &opts, &tech);
        t.explorer = Some("bogus".into());
        let unknown = TaskSpecError::UnknownExplorer("bogus".into());
        assert_eq!(t.validate(), Err(unknown.clone()), "unknown explorer");
        assert_eq!(t.run(None), Err(unknown), "run refuses it too");
        let mut t = TaskSpec::search(&gzip(), "anneal", &opts, &tech);
        t.search = None;
        assert!(t.validate().is_err(), "missing options");
        assert!(t.run(None).is_err(), "run refuses it too");
        let mut bad = opts.clone();
        bad.budget = 0;
        let t = TaskSpec::search(&gzip(), "anneal", &bad, &tech);
        assert!(t.validate().is_err(), "invalid options");
        assert!(
            matches!(t.run(None), Err(TaskSpecError::InvalidOptions(_))),
            "the search refuses them when run"
        );
    }

    #[test]
    fn incoherent_specs_are_typed_errors() {
        let t = TaskSpec::eval(&gzip(), &[], 1_000);
        assert_eq!(t.validate(), Err(TaskSpecError::EmptyGroup));
        let mut bad = narrow();
        bad.iq_size = 64;
        let t = TaskSpec::eval(&gzip(), &[CoreConfig::initial(), bad], 1_000);
        assert!(
            matches!(
                t.validate(),
                Err(TaskSpecError::InvalidConfig { index: 1, .. })
            ),
            "the invalid member is named by position"
        );
        let mut a = TaskSpec::anneal(
            &gzip(),
            &DesignPoint::initial(),
            &AnnealOptions::quick(),
            &Technology::default(),
        );
        a.opts = None;
        assert!(a.validate().is_err());
        assert!(a.run(None).is_err(), "run needs the payload too");
        let z = TaskSpec::eval(&gzip(), &[CoreConfig::initial()], 0);
        assert_eq!(z.validate(), Err(TaskSpecError::ZeroOps));
        // Every evaluation length a spec carries is bounded.
        let over = MAX_TASK_OPS + 1;
        let e = TaskSpec::eval(&gzip(), &[CoreConfig::initial()], u64::MAX);
        assert_eq!(e.validate(), Err(TaskSpecError::OpsTooLarge(u64::MAX)));
        let mut opts = AnnealOptions::quick();
        opts.eval_ops_late = over;
        let tech = Technology::default();
        let a = TaskSpec::anneal(&gzip(), &DesignPoint::initial(), &opts, &tech);
        assert_eq!(a.validate(), Err(TaskSpecError::OpsTooLarge(over)));
        let search = SearchOptions {
            budget: 4,
            eval_ops: over,
            seed: 1,
        };
        let s = TaskSpec::search(&gzip(), "anneal", &search, &tech);
        assert_eq!(s.validate(), Err(TaskSpecError::OpsTooLarge(over)));
    }

    /// The evaluation count is checked by validation alone, so these
    /// specs are refused without running (or allocating for) a walk.
    #[test]
    fn evaluation_counts_are_bounded_before_anything_runs() {
        let tech = Technology::default();
        let mut opts = AnnealOptions::quick();
        opts.iterations = u32::MAX;
        let a = TaskSpec::anneal(&gzip(), &DesignPoint::initial(), &opts, &tech);
        assert_eq!(
            a.validate(),
            Err(TaskSpecError::TooManyEvals(u64::from(u32::MAX)))
        );
        let mut search = SearchOptions {
            budget: MAX_TASK_EVALS + 1,
            eval_ops: 1_000,
            seed: 1,
        };
        let s = TaskSpec::search(&gzip(), "anneal", &search, &tech);
        assert_eq!(
            s.validate(),
            Err(TaskSpecError::TooManyEvals(MAX_TASK_EVALS + 1))
        );
        // The bound itself is allowed.
        opts.iterations = MAX_TASK_EVALS as u32;
        let a = TaskSpec::anneal(&gzip(), &DesignPoint::initial(), &opts, &tech);
        assert_eq!(a.validate(), Ok(()));
        search.budget = MAX_TASK_EVALS;
        let s = TaskSpec::search(&gzip(), "anneal", &search, &tech);
        assert_eq!(s.validate(), Ok(()));
    }
}
