//! Deterministic fault injection for the exploration worker pool.
//!
//! A crash-safety layer is only trustworthy if its failure paths run
//! constantly, not just on the day something real breaks. A
//! [`FaultPlan`] makes chosen tasks panic (or return an error) on
//! their first N attempts, selected **deterministically** from the
//! task's journal key and a seed — the same plan injects the same
//! faults on every run, every machine, and every worker count, so
//! tests can assert exact retry counts and byte-identical recovered
//! output.
//!
//! Plans come from three places: tests construct them directly, the
//! `repro` binary accepts `--faults rate=20,seed=7,attempts=1,kind=panic`,
//! and the `XPS_FAULTS` environment variable applies the same spec to
//! any run (CI sets it to exercise isolation and retry paths on every
//! push).

use crate::journal::fnv64;

/// What an injected fault does to the task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The attempt panics (exercises `catch_unwind` isolation).
    Panic,
    /// The attempt reports a typed task error without panicking.
    Error,
}

/// A seeded, deterministic plan of which task attempts fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Percentage of tasks selected for failure (0–100), by hash of
    /// the task key. Ignored when `targets` is non-empty.
    rate_pct: u8,
    /// Seed mixed into the selection hash.
    seed: u64,
    /// Selected tasks fail their first `attempts` attempts and succeed
    /// afterwards; `u32::MAX` means fail forever (a permanent fault).
    attempts: u32,
    /// How the selected attempts fail.
    kind: FaultKind,
    /// Explicit task-key substrings to fail instead of rate-based
    /// selection (for targeted tests).
    targets: Vec<String>,
}

impl FaultPlan {
    /// Fail `rate_pct`% of tasks (selected by hash with `seed`) on
    /// their first `attempts` attempts.
    pub fn rate(rate_pct: u8, seed: u64, attempts: u32, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            rate_pct: rate_pct.min(100),
            seed,
            attempts,
            kind,
            targets: Vec::new(),
        }
    }

    /// Fail exactly the tasks whose key contains one of `targets`, on
    /// their first `attempts` attempts (`u32::MAX` = forever).
    pub fn targets<I, S>(targets: I, attempts: u32, kind: FaultKind) -> FaultPlan
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        FaultPlan {
            rate_pct: 0,
            seed: 0,
            attempts,
            kind,
            targets: targets.into_iter().map(Into::into).collect(),
        }
    }

    /// Parse a `key=value` comma spec: `rate=20,seed=7,attempts=1,kind=panic`
    /// (`kind` is `panic` or `error`; `target=SUBSTR` may repeat and
    /// switches selection from rate to explicit targets). Unset keys
    /// default to `rate=0,seed=0,attempts=1,kind=panic`.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first malformed field.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::rate(0, 0, 1, FaultKind::Panic);
        for field in spec.split(',').filter(|f| !f.trim().is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("fault spec field {field:?} is not key=value"))?;
            match key.trim() {
                "rate" => {
                    let pct: u8 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault rate {value:?} is not a percentage"))?;
                    if pct > 100 {
                        return Err(format!("fault rate {pct} exceeds 100%"));
                    }
                    plan.rate_pct = pct;
                }
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault seed {value:?} is not an integer"))?;
                }
                "attempts" => {
                    plan.attempts = if value.trim() == "forever" {
                        u32::MAX
                    } else {
                        value
                            .trim()
                            .parse()
                            .map_err(|_| format!("fault attempts {value:?} is not an integer"))?
                    };
                }
                "kind" => {
                    plan.kind = match value.trim() {
                        "panic" => FaultKind::Panic,
                        "error" => FaultKind::Error,
                        other => return Err(format!("fault kind {other:?} (use panic|error)")),
                    };
                }
                "target" => plan.targets.push(value.trim().to_string()),
                other => {
                    return Err(format!(
                        "unknown fault field {other:?} (use rate/seed/attempts/kind/target)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// The plan configured in the `XPS_FAULTS` environment variable,
    /// if any.
    ///
    /// # Errors
    ///
    /// Returns the parse failure for a malformed variable — a typo in
    /// CI should fail loudly, not silently disable injection.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("XPS_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec)
                .map(Some)
                .map_err(|e| format!("XPS_FAULTS: {e}")),
            _ => Ok(None),
        }
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.attempts > 0 && (self.rate_pct > 0 || !self.targets.is_empty())
    }

    /// The fault to inject into attempt `attempt` (0-based) of `task`,
    /// if any. Pure function of `(plan, task, attempt)`.
    pub fn injects(&self, task: &str, attempt: u32) -> Option<FaultKind> {
        if attempt >= self.attempts {
            return None;
        }
        let selected = if self.targets.is_empty() {
            self.rate_pct > 0 && fnv64(self.seed, task.as_bytes()) % 100 < u64::from(self.rate_pct)
        } else {
            self.targets.iter().any(|t| task.contains(t))
        };
        selected.then_some(self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_deterministic_and_seeded() {
        let plan = FaultPlan::rate(50, 7, 1, FaultKind::Panic);
        for i in 0..64 {
            let task = format!("anneal#0/{i}");
            assert_eq!(plan.injects(&task, 0), plan.injects(&task, 0));
            assert_eq!(plan.injects(&task, 1), None, "only the first attempt");
        }
        let other_seed = FaultPlan::rate(50, 8, 1, FaultKind::Panic);
        let differs = (0..64).any(|i| {
            let task = format!("anneal#0/{i}");
            plan.injects(&task, 0) != other_seed.injects(&task, 0)
        });
        assert!(differs, "different seeds must select different tasks");
    }

    #[test]
    fn rate_bounds() {
        let never = FaultPlan::rate(0, 1, 1, FaultKind::Panic);
        let always = FaultPlan::rate(100, 1, 1, FaultKind::Error);
        for i in 0..32 {
            let task = format!("cell#{i}/0");
            assert_eq!(never.injects(&task, 0), None);
            assert_eq!(always.injects(&task, 0), Some(FaultKind::Error));
        }
        assert!(!never.is_active());
        assert!(always.is_active());
    }

    #[test]
    fn targeted_plans_hit_only_their_tasks() {
        let plan = FaultPlan::targets(["anneal#0/1"], u32::MAX, FaultKind::Panic);
        assert_eq!(plan.injects("anneal#0/1", 0), Some(FaultKind::Panic));
        assert_eq!(plan.injects("anneal#0/1", 999), Some(FaultKind::Panic));
        assert_eq!(plan.injects("anneal#0/2", 0), None);
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse("rate=20,seed=7,attempts=2,kind=error").expect("parses");
        assert_eq!(plan, FaultPlan::rate(20, 7, 2, FaultKind::Error));
        let t = FaultPlan::parse("target=anneal#0,attempts=forever,kind=panic").expect("parses");
        assert_eq!(t.injects("anneal#0/2", 50), Some(FaultKind::Panic));
    }

    #[test]
    fn parse_rejects_malformed_fields() {
        assert!(FaultPlan::parse("rate=crash").is_err());
        assert!(FaultPlan::parse("rate=150").is_err());
        assert!(FaultPlan::parse("kind=explode").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("noequals").is_err());
    }
}
