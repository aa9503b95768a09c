//! Deterministic network fault injection for the fleet transport.
//!
//! The coordinator's failure handling — retries, backoff, quarantine,
//! local degradation — is only trustworthy if its failure paths run
//! constantly. A [`NetFaultPlan`] makes chosen transport round-trips
//! misbehave (drop the connection, delay it, truncate or garble the
//! response, duplicate the request), selected **deterministically**
//! from a per-attempt fault key and a seed — the same plan injects the
//! same faults on every run and every machine, so tests can assert
//! byte-identical gathered output under a fixed failure schedule.
//!
//! This is the network sibling of the task-level
//! [`FaultPlan`](xps_core::explore::FaultPlan) from the exploration
//! layer: same `key=value` spec idiom, same seeded hash selection,
//! configured through `XPS_NET_FAULTS` instead of `XPS_FAULTS`.

use xps_core::explore::fnv64;

/// What an injected network fault does to one round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The connection is refused/reset before any byte is exchanged.
    Drop,
    /// The round-trip is delayed by the plan's `delay_ms` first.
    Delay,
    /// The response body is cut in half mid-byte.
    Truncate,
    /// The request is sent twice (exercises worker idempotency); the
    /// second response is returned.
    Duplicate,
    /// The response body is replaced with non-JSON garbage.
    Garbage,
}

/// A seeded, deterministic plan of which round-trips misbehave.
///
/// Selection hashes the fault key (`"<task key>@<attempt>"` for task
/// dispatches, `"hb/<addr>/<n>"` for heartbeat probes) with the seed
/// into a percentile; cumulative per-kind percentage bands decide the
/// fault. Pure function of `(plan, key)` — no clock, no RNG state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetFaultPlan {
    drop_pct: u8,
    delay_pct: u8,
    truncate_pct: u8,
    duplicate_pct: u8,
    garbage_pct: u8,
    seed: u64,
    delay_ms: u64,
}

impl NetFaultPlan {
    /// A plan injecting nothing (all rates zero).
    pub fn inert() -> NetFaultPlan {
        NetFaultPlan {
            drop_pct: 0,
            delay_pct: 0,
            truncate_pct: 0,
            duplicate_pct: 0,
            garbage_pct: 0,
            seed: 0,
            delay_ms: 10,
        }
    }

    /// Parse a `key=value` comma spec:
    /// `drop=10,delay=5,truncate=5,duplicate=5,garbage=5,seed=3,delay_ms=25`.
    /// Unset rates default to 0; `seed` to 0; `delay_ms` to 10. The
    /// rates are cumulative bands and must sum to at most 100.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first malformed field, or
    /// of a rate total above 100%.
    pub fn parse(spec: &str) -> Result<NetFaultPlan, String> {
        let mut plan = NetFaultPlan::inert();
        for field in spec.split(',').filter(|f| !f.trim().is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("net fault spec field {field:?} is not key=value"))?;
            let pct = |what: &str| -> Result<u8, String> {
                let pct: u8 = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("net fault {what} {value:?} is not a percentage"))?;
                if pct > 100 {
                    return Err(format!("net fault {what} {pct} exceeds 100%"));
                }
                Ok(pct)
            };
            match key.trim() {
                "drop" => plan.drop_pct = pct("drop")?,
                "delay" => plan.delay_pct = pct("delay")?,
                "truncate" => plan.truncate_pct = pct("truncate")?,
                "duplicate" => plan.duplicate_pct = pct("duplicate")?,
                "garbage" => plan.garbage_pct = pct("garbage")?,
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("net fault seed {value:?} is not an integer"))?;
                }
                "delay_ms" => {
                    plan.delay_ms = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("net fault delay_ms {value:?} is not an integer"))?;
                }
                other => {
                    return Err(format!(
                        "unknown net fault field {other:?} \
                         (use drop/delay/truncate/duplicate/garbage/seed/delay_ms)"
                    ))
                }
            }
        }
        let total = u32::from(plan.drop_pct)
            + u32::from(plan.delay_pct)
            + u32::from(plan.truncate_pct)
            + u32::from(plan.duplicate_pct)
            + u32::from(plan.garbage_pct);
        if total > 100 {
            return Err(format!("net fault rates sum to {total}%, above 100%"));
        }
        Ok(plan)
    }

    /// The plan configured in the `XPS_NET_FAULTS` environment
    /// variable, if any.
    ///
    /// # Errors
    ///
    /// Returns the parse failure for a malformed variable — a typo in
    /// CI should fail loudly, not silently disable injection.
    pub fn from_env() -> Result<Option<NetFaultPlan>, String> {
        match std::env::var("XPS_NET_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => NetFaultPlan::parse(&spec)
                .map(Some)
                .map_err(|e| format!("XPS_NET_FAULTS: {e}")),
            _ => Ok(None),
        }
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.drop_pct > 0
            || self.delay_pct > 0
            || self.truncate_pct > 0
            || self.duplicate_pct > 0
            || self.garbage_pct > 0
    }

    /// How long an injected [`NetFault::Delay`] waits, milliseconds.
    pub fn delay_ms(&self) -> u64 {
        self.delay_ms
    }

    /// The fault injected into the round-trip identified by `key`, if
    /// any. Pure function of `(plan, key)`.
    pub fn injects(&self, key: &str) -> Option<NetFault> {
        if !self.is_active() {
            return None;
        }
        let r = fnv64(self.seed, key.as_bytes()) % 100;
        let mut band = u64::from(self.drop_pct);
        if r < band {
            return Some(NetFault::Drop);
        }
        band += u64::from(self.delay_pct);
        if r < band {
            return Some(NetFault::Delay);
        }
        band += u64::from(self.truncate_pct);
        if r < band {
            return Some(NetFault::Truncate);
        }
        band += u64::from(self.duplicate_pct);
        if r < band {
            return Some(NetFault::Duplicate);
        }
        band += u64::from(self.garbage_pct);
        if r < band {
            return Some(NetFault::Garbage);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_deterministic_and_seeded() {
        let plan = NetFaultPlan::parse("drop=20,garbage=20,seed=7").expect("parses");
        for i in 0..64 {
            let key = format!("matrix#0/{i}@0");
            assert_eq!(plan.injects(&key), plan.injects(&key));
        }
        let other = NetFaultPlan::parse("drop=20,garbage=20,seed=8").expect("parses");
        let differs = (0..64).any(|i| {
            let key = format!("matrix#0/{i}@0");
            plan.injects(&key) != other.injects(&key)
        });
        assert!(differs, "different seeds must select different trips");
    }

    #[test]
    fn bands_are_cumulative_and_exhaustive_at_100() {
        let all = NetFaultPlan::parse("drop=20,delay=20,truncate=20,duplicate=20,garbage=20")
            .expect("parses");
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..256 {
            let fault = all.injects(&format!("k{i}")).expect("100% always injects");
            seen.insert(format!("{fault:?}"));
        }
        assert_eq!(seen.len(), 5, "all five kinds appear: {seen:?}");
        assert_eq!(NetFaultPlan::inert().injects("k"), None);
        assert!(!NetFaultPlan::inert().is_active());
    }

    #[test]
    fn parse_rejects_malformed_and_overfull_specs() {
        assert!(NetFaultPlan::parse("drop=crash").is_err());
        assert!(NetFaultPlan::parse("drop=150").is_err());
        assert!(NetFaultPlan::parse("bogus=1").is_err());
        assert!(NetFaultPlan::parse("noequals").is_err());
        assert!(NetFaultPlan::parse("drop=60,garbage=60").is_err());
        let p = NetFaultPlan::parse("drop=10,delay_ms=250,seed=3").expect("parses");
        assert_eq!(p.delay_ms(), 250);
    }
}
