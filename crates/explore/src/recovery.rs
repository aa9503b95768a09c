//! Panic-isolated, retrying, journaled task execution.
//!
//! [`RunContext`] runs fans of [`TaskSpec`]s over the raw worker pool
//! of [`run_parallel`]. A spec is the one description of its task:
//! the fan offers it to an attached [`TaskDispatcher`] and otherwise
//! runs it here through [`TaskSpec::run`], the code a fleet worker
//! runs. Whatever answered, the fan checks the one result string
//! ([`TaskSpec::result_fits`]), decodes it into the caller's type and
//! journals it as is. Around that sit the three crash-safety
//! behaviours the long-haul pipeline needs:
//!
//! * **Panic isolation** — every local run is under `catch_unwind`, so
//!   a panicking evaluation becomes a typed [`TaskError`] instead of
//!   tearing down the whole campaign.
//! * **Bounded retries** — a failed attempt (a panic, or a spec that
//!   refuses to run) is retried up to the context's retry budget
//!   before the task is declared failed; the caller then degrades
//!   (skip the start, report the cell) rather than aborting.
//! * **Write-ahead journaling** — each fresh result is persisted
//!   through the [`Journal`] before the fan-out returns it, and
//!   journaled results are replayed instead of re-executed, which is
//!   what makes `--resume` re-run only the missing work.
//!
//! Task identity is `label#fan/item`: the fan sequence number is
//! deterministic because the pipeline's control flow is a pure
//! function of task results, which are themselves deterministic — so
//! a resumed run asks for exactly the same keys in exactly the same
//! order. A fan whose items change meaning takes a new label, so an
//! old journal's records under the old label are re-run, never merged.

use crate::cache::EvalCache;
use crate::error::{ExploreError, TaskError, TaskFailure};
use crate::fault::{FaultKind, FaultPlan};
use crate::journal::{Journal, JournalError};
use crate::parallel::run_parallel;
use crate::task::{TaskDispatcher, TaskSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use xps_trace::{with_recorder, TraceSink};

/// Default retry budget: a task may fail twice and still succeed on
/// its third attempt before being declared failed.
pub const DEFAULT_RETRIES: u32 = 2;

/// A dispatcher's answer to one spec, filled once by the caller that
/// sent it: the response body, or `None` for a decline.
type Answer = Arc<OnceLock<Option<String>>>;

/// Counters of one run's crash-safety machinery. Informational — the
/// explored results never depend on them — except `failed_tasks`,
/// which lists every task that exhausted its retries and was degraded
/// around.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Tasks executed in this process (successful attempts).
    pub executed: u64,
    /// Tasks served from the journal without re-running.
    pub salvaged: u64,
    /// Extra attempts made after a failed first attempt.
    pub retried: u64,
    /// Faults the [`FaultPlan`] injected.
    pub faults_injected: u64,
    /// Journal keys of tasks that failed every attempt.
    pub failed_tasks: Vec<String>,
}

/// The outcome of one journaled fan-out: per-item results in item
/// order (failed tasks carry their [`TaskError`]) plus the pool's
/// per-worker task counts.
#[derive(Debug)]
pub struct FanOutcome<T> {
    /// Item `i` holds task `i`'s result or its terminal error.
    pub items: Vec<Result<T, TaskError>>,
    /// How many items each worker ran (journal-salvaged items are not
    /// counted — they never reached the pool).
    pub per_worker: Vec<u64>,
}

/// Crash-safety context threaded through an exploration run: the
/// optional checkpoint journal, the optional fault plan, the retry
/// budget, and the counters that report what happened.
#[derive(Debug)]
pub struct RunContext {
    journal: Option<Journal>,
    faults: Option<FaultPlan>,
    trace: Option<TraceSink>,
    dispatcher: Option<Arc<dyn TaskDispatcher>>,
    retries: u32,
    fan_seq: AtomicU64,
    executed: AtomicU64,
    salvaged: AtomicU64,
    retried: AtomicU64,
    injected: AtomicU64,
    remote: AtomicU64,
    /// The dispatcher's answer to each spec sent, by canonical spec: a
    /// spec asked again in the run (a cross-seeding round repeating an
    /// evaluation, a `rematrix` fan holding one cell twice) waits for
    /// or reuses that answer instead of being sent again.
    answered: Mutex<HashMap<String, Answer>>,
    failed: Mutex<Vec<String>>,
    journal_error: Mutex<Option<JournalError>>,
}

impl Default for RunContext {
    fn default() -> RunContext {
        RunContext::new()
    }
}

impl RunContext {
    /// A context with no journal, no faults, and the default retry
    /// budget.
    pub fn new() -> RunContext {
        RunContext {
            journal: None,
            faults: None,
            trace: None,
            dispatcher: None,
            retries: DEFAULT_RETRIES,
            fan_seq: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            salvaged: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            remote: AtomicU64::new(0),
            answered: Mutex::new(HashMap::new()),
            failed: Mutex::new(Vec::new()),
            journal_error: Mutex::new(None),
        }
    }

    /// [`RunContext::new`] plus the fault plan configured in the
    /// `XPS_FAULTS` environment variable, when set. This is what the
    /// default pipeline entry points use, so CI can exercise the
    /// isolation and retry paths of the entire test suite by exporting
    /// one variable.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidOptions`] for a malformed
    /// `XPS_FAULTS` value.
    pub fn from_env() -> Result<RunContext, ExploreError> {
        let faults = FaultPlan::from_env().map_err(ExploreError::InvalidOptions)?;
        Ok(RunContext {
            faults,
            ..RunContext::new()
        })
    }

    /// Attach a checkpoint journal: completed tasks are persisted and
    /// already-journaled tasks are replayed instead of re-run.
    pub fn with_journal(mut self, journal: Journal) -> RunContext {
        self.journal = Some(journal);
        self
    }

    /// Attach a fault plan (tests and the `--faults` flag).
    pub fn with_faults(mut self, faults: FaultPlan) -> RunContext {
        self.faults = Some(faults);
        self
    }

    /// Attach a trace sink: every executed task records its spans into
    /// a private per-task recorder, filed under the task's journal key
    /// when the task succeeds. Tracks are keyed deterministically, so
    /// the serialized trace is byte-identical across worker counts.
    /// Caller-thread events (phase spans, salvage instants) land in
    /// whatever recorder the process edge installed.
    pub fn with_trace(mut self, trace: TraceSink) -> RunContext {
        self.trace = Some(trace);
        self
    }

    /// Attach a task dispatcher: every fan item's [`TaskSpec`] is
    /// offered to it before running locally. A declined or undecodable
    /// dispatch falls back to [`TaskSpec::run`], so attaching a
    /// dispatcher never changes results — only where tasks execute.
    /// Remote results skip local span recording (their spans live on
    /// the worker) but journal identically.
    pub fn with_dispatcher(mut self, dispatcher: Arc<dyn TaskDispatcher>) -> RunContext {
        self.dispatcher = Some(dispatcher);
        self
    }

    /// The attached trace sink, if any.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// How many tasks were answered remotely, counting a repeated spec
    /// answered from an earlier response (informational; not part of
    /// [`RecoveryStats`], whose serialized shape is stable).
    pub fn remote_dispatched(&self) -> u64 {
        self.remote.load(Ordering::Relaxed)
    }

    /// Override the retry budget (extra attempts after a failure).
    pub fn with_retries(mut self, retries: u32) -> RunContext {
        self.retries = retries;
        self
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Detach and return the journal (to discard it after a completed
    /// run).
    pub fn take_journal(&mut self) -> Option<Journal> {
        self.journal.take()
    }

    /// Snapshot of the recovery counters.
    pub fn stats(&self) -> RecoveryStats {
        RecoveryStats {
            executed: self.executed.load(Ordering::Relaxed),
            salvaged: self.salvaged.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            faults_injected: self.injected.load(Ordering::Relaxed),
            failed_tasks: self
                .failed
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }

    /// Run the tasks `specs` on `jobs` workers with panic isolation,
    /// retries, and journaling, and decode each result as a `T`.
    /// Results come back in item order; a task that failed every
    /// attempt yields `Err(TaskError)` in its slot (and is listed in
    /// [`RecoveryStats::failed_tasks`]) so the caller can degrade
    /// instead of aborting.
    ///
    /// Each item missing from the journal is first offered to the
    /// attached dispatcher, if any; a decline or a body that is not the
    /// spec's result runs the spec here instead, memoizing evaluations
    /// in `cache` when one is given. Journaling, retries, and result
    /// ordering are identical either way, which is what keeps a
    /// fleet-gathered campaign byte-identical to a single-node run.
    ///
    /// `label` names the fan in the journal keyspace; each call gets a
    /// fresh fan sequence number, so keys are unique and reproducible
    /// across a resumed run.
    ///
    /// # Errors
    ///
    /// Only journal problems (a record that is not its task's result,
    /// a failed append) abort the fan — task failures are per-item by
    /// design.
    pub fn run_fan_tasks<T>(
        &self,
        jobs: usize,
        label: &str,
        specs: &[TaskSpec],
        cache: Option<&EvalCache>,
    ) -> Result<FanOutcome<T>, ExploreError>
    where
        T: Send + Deserialize,
    {
        let fan = self.fan_seq.fetch_add(1, Ordering::Relaxed);
        let key_of = |i: usize| format!("{label}#{fan}/{i}");
        let mut slots: Vec<Option<Result<T, TaskError>>> = Vec::with_capacity(specs.len());
        slots.resize_with(specs.len(), || None);
        let mut missing: Vec<usize> = Vec::with_capacity(specs.len());
        let journal = self.journal.as_ref();
        for (i, slot) in slots.iter_mut().enumerate() {
            let key = key_of(i);
            let Some((journal, json)) = journal.and_then(|j| Some((j, j.get(&key)?))) else {
                missing.push(i);
                continue;
            };
            // The journal carries no run identity: a record from other
            // options or another partition can deserialize yet be the
            // wrong shape (an eval group of another size), which must
            // not merge.
            let value = decode(&specs[i], &json).map_err(|detail| JournalError::Corrupt {
                path: journal.path().to_path_buf(),
                line: 0,
                detail: format!("task `{key}` {detail}"),
            })?;
            self.salvaged.fetch_add(1, Ordering::Relaxed);
            // Salvages happen serially on the caller thread, so this
            // instant lands on the edge recorder in deterministic order.
            xps_trace::instant("journal.salvage", || xps_trace::attr("task", key.as_str()));
            *slot = Some(Ok(value));
        }

        let mut per_worker = vec![0u64];
        if !missing.is_empty() {
            let run = run_parallel(jobs, missing.len(), |k| {
                let (key, spec) = (key_of(missing[k]), &specs[missing[k]]);
                let (value, json) = match self.dispatch_remote(&key, spec) {
                    Some(fresh) => fresh,
                    None => self.run_local(&key, spec, cache)?,
                };
                if let Some(journal) = &self.journal {
                    if let Err(e) = journal.record(&key, json) {
                        // Keep the computed value; surface the persist
                        // failure once the fan completes.
                        let mut slot = self
                            .journal_error
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner);
                        slot.get_or_insert(e);
                    }
                }
                Ok(value)
            });
            per_worker = run.per_worker;
            for (k, result) in run.results.into_iter().enumerate() {
                slots[missing[k]] = Some(result);
            }
        }
        if let Some(e) = self
            .journal_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            return Err(e.into());
        }
        #[expect(
            clippy::expect_used,
            reason = "the fan joins only after every task stored its slot or the run aborted with an error"
        )]
        let items = slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect();
        Ok(FanOutcome { items, per_worker })
    }

    /// Offer one spec to the attached dispatcher: its decoded answer
    /// and the result string, or `None` — no dispatcher, a declined
    /// dispatch, or a body that is not the spec's result — to run it
    /// locally instead. Each distinct spec is sent once per context: a
    /// caller of a spec already sent waits for that answer and decodes
    /// it too, since a task is a pure function of its spec. A decline
    /// or an unusable body is forgotten once its waiters have seen it,
    /// so a later ask sends the spec again.
    fn dispatch_remote<T: Deserialize>(&self, key: &str, spec: &TaskSpec) -> Option<(T, String)> {
        let dispatcher = self.dispatcher.as_ref()?;
        let canonical = spec.canonical();
        let memo = || self.answered.lock().unwrap_or_else(PoisonError::into_inner);
        let answer = Arc::clone(memo().entry(canonical.clone()).or_default());
        // Outside the memo lock: the first caller sends the spec, any
        // concurrent caller of the same spec blocks here until it is
        // answered.
        let fresh = answer
            .get_or_init(|| dispatcher.dispatch(key, spec))
            .as_ref()
            .and_then(|body| Some((decode(spec, body).ok()?, body.clone())));
        match fresh {
            Some(fresh) => {
                self.remote.fetch_add(1, Ordering::Relaxed);
                Some(fresh)
            }
            None => {
                let mut memo = memo();
                if memo
                    .get(&canonical)
                    .is_some_and(|a| Arc::ptr_eq(a, &answer))
                {
                    memo.remove(&canonical);
                }
                None
            }
        }
    }

    /// Run one spec on this machine — the value and its result string
    /// — recording its spans when a trace sink is attached.
    fn run_local<T: Deserialize>(
        &self,
        key: &str,
        spec: &TaskSpec,
        cache: Option<&EvalCache>,
    ) -> Result<(T, String), TaskError> {
        let run = || {
            let json = spec.run(cache).map_err(|e| e.to_string())?;
            Ok((decode(spec, &json)?, json))
        };
        match &self.trace {
            Some(trace) => {
                // Record the task into a private recorder whose
                // logical clock starts at zero; attach it under
                // the deterministic task key only on success,
                // so failed attempts leave no trace events.
                let (rec, result) = with_recorder(trace.recorder(), || self.attempt(key, run));
                if result.is_ok() {
                    trace.attach(key, rec);
                }
                result
            }
            None => self.attempt(key, run),
        }
    }

    /// Run one task with fault injection, panic isolation, and
    /// retries.
    fn attempt<T>(&self, key: &str, f: impl Fn() -> Result<T, String>) -> Result<T, TaskError> {
        let max_attempts = self.retries.saturating_add(1);
        let mut failure = TaskFailure::Failed("no attempts made".into());
        for attempt in 0..max_attempts {
            if attempt > 0 {
                self.retried.fetch_add(1, Ordering::Relaxed);
            }
            let injected = self.faults.as_ref().and_then(|p| p.injects(key, attempt));
            if injected.is_some() {
                self.injected.fetch_add(1, Ordering::Relaxed);
            }
            if injected == Some(FaultKind::Error) {
                failure = TaskFailure::Failed(format!("injected fault (attempt {attempt})"));
                continue;
            }
            // Tasks are pure functions of their spec: nothing observes
            // a half-updated state after an unwind, so AssertUnwindSafe
            // is sound here.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if injected == Some(FaultKind::Panic) {
                    panic!("injected fault in `{key}` (attempt {attempt})");
                }
                f()
            }));
            match outcome {
                Ok(Ok(value)) => {
                    self.executed.fetch_add(1, Ordering::Relaxed);
                    return Ok(value);
                }
                Ok(Err(detail)) => failure = TaskFailure::Failed(detail),
                Err(payload) => failure = TaskFailure::Panicked(panic_message(payload.as_ref())),
            }
        }
        self.failed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(key.to_string());
        Err(TaskError {
            task: key.to_string(),
            attempts: max_attempts,
            failure,
        })
    }
}

/// Decode a task's result string as the fan's item type, after
/// checking it is the spec's result shape. The one check every result
/// passes, whether salvaged from the journal, answered remotely or
/// run here.
fn decode<T: Deserialize>(spec: &TaskSpec, json: &str) -> Result<T, String> {
    if !spec.result_fits(json) {
        return Err("is not its task's result shape".into());
    }
    serde_json::from_str(json).map_err(|e| format!("does not deserialize: {e}"))
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("xps-recovery-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    fn gzip() -> xps_workload::WorkloadProfile {
        xps_workload::spec::profile("gzip").expect("gzip exists")
    }

    /// An eval group of one: gzip on the initial core at `ops` ops.
    fn eval_spec(ops: u64) -> TaskSpec {
        TaskSpec::eval(&gzip(), &[xps_sim::CoreConfig::initial()], ops)
    }

    /// `n` eval specs of distinct lengths; item `i` has
    /// `1_000 + 100 * i` ops.
    fn specs(n: usize) -> Vec<TaskSpec> {
        (0..n).map(|i| eval_spec(1_000 + 100 * i as u64)).collect()
    }

    /// Item `i` of [`specs`], evaluated directly.
    fn lone(i: usize) -> Vec<f64> {
        let ops = 1_000 + 100 * i as u64;
        vec![xps_sim::evaluate(&gzip(), &xps_sim::CoreConfig::initial(), ops).ipt()]
    }

    fn values(fan: FanOutcome<Vec<f64>>) -> Vec<Vec<f64>> {
        fan.items.into_iter().map(|r| r.expect("ok")).collect()
    }

    #[test]
    fn clean_fan_matches_direct_evaluation() {
        let ctx = RunContext::new();
        for cache in [Some(&EvalCache::new()), None] {
            let fan = ctx.run_fan_tasks(3, "sq", &specs(10), cache).expect("fan");
            assert_eq!(values(fan), (0..10).map(lone).collect::<Vec<_>>());
        }
        let s = ctx.stats();
        assert_eq!(s.executed, 20);
        assert_eq!((s.salvaged, s.retried, s.faults_injected), (0, 0, 0));
    }

    #[test]
    fn injected_panics_retry_to_success() {
        let ctx = RunContext::new()
            .with_faults(FaultPlan::rate(100, 0, 2, FaultKind::Panic))
            .with_retries(2);
        let fan = ctx.run_fan_tasks(2, "t", &specs(6), None).expect("fan");
        assert_eq!(values(fan), (0..6).map(lone).collect::<Vec<_>>());
        let s = ctx.stats();
        assert_eq!(s.executed, 6);
        assert_eq!(s.retried, 12, "two retries per task");
        assert_eq!(s.faults_injected, 12);
        assert!(s.failed_tasks.is_empty());
    }

    #[test]
    fn exhausted_retries_isolate_the_failing_task() {
        let ctx = RunContext::new()
            .with_faults(FaultPlan::targets(["t#0/2"], u32::MAX, FaultKind::Panic))
            .with_retries(1);
        let fan = ctx
            .run_fan_tasks::<Vec<f64>>(2, "t", &specs(5), None)
            .expect("fan");
        for (i, r) in fan.items.iter().enumerate() {
            if i == 2 {
                let e = r.as_ref().expect_err("task 2 fails permanently");
                assert_eq!(e.attempts, 2);
                assert!(matches!(e.failure, TaskFailure::Panicked(_)));
            } else {
                assert_eq!(*r.as_ref().expect("others unaffected"), lone(i));
            }
        }
        assert_eq!(ctx.stats().failed_tasks, vec!["t#0/2".to_string()]);
    }

    #[test]
    fn error_faults_fail_without_unwinding() {
        let ctx = RunContext::new()
            .with_faults(FaultPlan::targets(["t#0/0"], u32::MAX, FaultKind::Error))
            .with_retries(0);
        let fan = ctx
            .run_fan_tasks::<Vec<f64>>(1, "t", &specs(1), None)
            .expect("fan");
        let e = fan.items[0].as_ref().expect_err("fails");
        assert!(matches!(e.failure, TaskFailure::Failed(_)));
    }

    /// A spec that refuses to run, or whose result is not the fan's
    /// item type, takes the same retry path as an injected error and
    /// ends as a typed task failure, never a panic.
    #[test]
    fn a_spec_that_cannot_run_is_a_failed_task() {
        let tech = xps_cacti::Technology::default();
        let opts = crate::search::SearchOptions {
            budget: 4,
            eval_ops: 1_000,
            seed: 1,
        };
        let mut unknown = TaskSpec::search(&gzip(), "anneal", &opts, &tech);
        unknown.explorer = Some("bogus".into());
        let ctx = RunContext::new().with_retries(1);
        let fan = ctx
            .run_fan_tasks::<crate::search::SearchOutcome>(1, "s", &[unknown], None)
            .expect("fan");
        let e = fan.items[0].as_ref().expect_err("fails");
        assert_eq!(e.attempts, 2, "retried like any failure");
        assert!(
            matches!(&e.failure, TaskFailure::Failed(d) if d.contains("bogus")),
            "{e:?}"
        );
        // An eval result does not decode as an anneal's.
        let fan = ctx
            .run_fan_tasks::<crate::anneal::AnnealResult>(1, "a", &specs(1), None)
            .expect("fan");
        let e = fan.items[0].as_ref().expect_err("fails");
        assert!(matches!(&e.failure, TaskFailure::Failed(d) if d.contains("deserialize")));
        assert_eq!(ctx.stats().failed_tasks, vec!["s#0/0", "a#1/0"]);
    }

    #[test]
    fn journaled_tasks_are_salvaged_not_rerun() {
        let path = tmp("salvage");
        let all = specs(8);
        {
            let journal = Journal::create(&path).expect("create");
            let ctx = RunContext::new().with_journal(journal);
            let fan = ctx.run_fan_tasks(2, "v", &all, None).expect("fan");
            assert_eq!(values(fan), (0..8).map(lone).collect::<Vec<_>>());
            // The journal holds each result string exactly as run.
            let journal = ctx.journal().expect("journal");
            for (i, spec) in all.iter().enumerate() {
                let json = journal.get(&format!("v#0/{i}")).expect("journaled");
                assert_eq!(json, spec.run(None).expect("runs"));
            }
        }
        // Resume: all eight tasks replay from disk; nothing runs.
        let journal = Journal::open(&path).expect("open");
        assert_eq!(journal.loaded(), 8);
        let ctx = RunContext::new().with_journal(journal);
        let cache = EvalCache::new();
        let fan = ctx.run_fan_tasks(2, "v", &all, Some(&cache)).expect("fan");
        assert_eq!(values(fan), (0..8).map(lone).collect::<Vec<_>>());
        assert_eq!(cache.counters().misses, 0, "no task re-ran");
        let s = ctx.stats();
        assert_eq!((s.executed, s.salvaged), (0, 8));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_tasks_are_not_journaled() {
        let path = tmp("failed-not-journaled");
        let journal = Journal::create(&path).expect("create");
        let ctx = RunContext::new()
            .with_journal(journal)
            .with_faults(FaultPlan::targets(["w#0/1"], u32::MAX, FaultKind::Panic))
            .with_retries(0);
        let fan = ctx
            .run_fan_tasks::<Vec<f64>>(1, "w", &specs(3), None)
            .expect("fan");
        assert!(fan.items[1].is_err());
        let journal = Journal::open(&path).expect("open");
        assert_eq!(journal.loaded(), 2, "only the two successes persist");
        assert!(journal.get("w#0/1").is_none());
        let _ = std::fs::remove_file(&path);
    }

    /// A dispatcher that runs specs in-process, as a worker does —
    /// the degenerate "remote" worker.
    #[derive(Debug, Default)]
    struct InProcessDispatcher {
        cache: EvalCache,
        served: AtomicU64,
        garble: bool,
        decline: bool,
    }

    impl TaskDispatcher for InProcessDispatcher {
        fn dispatch(&self, _key: &str, spec: &TaskSpec) -> Option<String> {
            if self.decline {
                return None;
            }
            self.served.fetch_add(1, Ordering::Relaxed);
            if self.garble {
                return Some("{\"not\":\"a result\"}".to_string());
            }
            spec.validate()
                .and_then(|()| spec.run(Some(&self.cache)))
                .ok()
        }
    }

    #[test]
    fn dispatched_fan_is_byte_identical_to_local_fan() {
        let run = |dispatcher: Option<Arc<dyn TaskDispatcher>>| {
            let cache = EvalCache::new();
            let mut ctx = RunContext::new();
            if let Some(d) = dispatcher {
                ctx = ctx.with_dispatcher(d);
            }
            let fan = ctx
                .run_fan_tasks(2, "cell", &specs(4), Some(&cache))
                .expect("fan");
            (values(fan), ctx.remote_dispatched(), ctx.stats().executed)
        };
        let dispatcher = Arc::new(InProcessDispatcher::default());
        let (local, r0, e0) = run(None);
        let (remote, r1, e1) = run(Some(dispatcher.clone()));
        assert_eq!((r0, e0), (0, 4));
        assert_eq!((r1, e1), (4, 0), "every item went remote");
        assert_eq!(dispatcher.served.load(Ordering::Relaxed), 4);
        // Bit-identical, not approximately equal: the serialized round
        // trip must not perturb a single ULP.
        assert!(local.iter().zip(&remote).all(|(a, b)| a == b));
    }

    #[test]
    fn declined_and_garbled_dispatches_fall_back_to_local() {
        for (garble, decline) in [(false, true), (true, false)] {
            let dispatcher = Arc::new(InProcessDispatcher {
                garble,
                decline,
                ..InProcessDispatcher::default()
            });
            let ctx = RunContext::new().with_dispatcher(dispatcher);
            let same = vec![eval_spec(2_000); 3];
            let fan = ctx
                .run_fan_tasks::<Vec<f64>>(1, "cell", &same, Some(&EvalCache::new()))
                .expect("fan");
            assert!(fan.items.iter().all(|r| r.is_ok()));
            assert_eq!(ctx.remote_dispatched(), 0, "nothing counted as remote");
            assert_eq!(ctx.stats().executed, 3, "all items ran locally");
        }
    }

    #[test]
    fn a_spec_answered_once_is_not_dispatched_again() {
        let dispatcher = Arc::new(InProcessDispatcher::default());
        let ctx = RunContext::new().with_dispatcher(dispatcher.clone());
        let two: Vec<TaskSpec> = (0..3).map(|i| eval_spec(1_000 + 500 * (i % 2))).collect();
        let fan = |label: &str| values(ctx.run_fan_tasks(2, label, &two, None).expect("fan"));
        let first = fan("cell");
        let again = fan("recell");
        assert_eq!(first, again);
        // Items 0 and 2 share a spec and may run at the same time.
        assert_eq!(first[0], first[2]);
        assert_eq!(
            dispatcher.served.load(Ordering::Relaxed),
            2,
            "two distinct specs, each sent once"
        );
        assert_eq!(ctx.remote_dispatched(), 6, "every item answered remotely");
        assert_eq!(ctx.stats().executed, 0, "nothing ran locally");
    }

    #[test]
    fn fan_sequence_distinguishes_same_label() {
        let one = |ctx: &RunContext, ops: u64| {
            ctx.run_fan_tasks::<Vec<f64>>(1, "x", &[eval_spec(ops)], None)
                .expect("fan")
                .items
                .pop()
                .expect("one item")
                .expect("ok")
        };
        let ctx = RunContext::new();
        assert_ne!(one(&ctx, 1_000), one(&ctx, 1_100));
        // With a journal the two calls must land on distinct keys.
        let path = tmp("fan-seq");
        let ctx = RunContext::new().with_journal(Journal::create(&path).expect("create"));
        one(&ctx, 1_000);
        one(&ctx, 1_100);
        assert_eq!(ctx.journal().expect("journal").len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
