//! `xps-perf compare`: classify a change against its parent by the
//! paired rule of choosing-metrics §8.
//!
//! Both files hold runs written by `xps-perf run --out`, one per line.
//! Runs pair by workload and seed (the k-th parent run of a seed with
//! the k-th change run of it), so parent and change see the same
//! inputs; alternating which side runs first is the caller's job.

use crate::metrics::{declared, valid_name, Declared, END_TO_END};
use crate::stats::{median, quartiles};
use serde::Value;
use std::fmt::Write as _;

/// Pairs needed before a gain may be claimed.
pub const MIN_PAIRS: usize = 10;

/// One run read back from a ledger file.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// End-to-end metric values by name.
    pub metrics: Vec<(String, f64)>,
}

impl Run {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least 9 of 10 pairs and the medians differ
    /// by more than the parent's IQR.
    Improved,
    /// Neither a gain nor a regression beyond the bound.
    Unchanged,
    /// The change's median is worse than the parent's by more than
    /// the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the data
    /// cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classify paired `(parent, change)` values of one metric.
pub fn classify(pairs: &[(f64, f64)], lower_is_better: bool, bound: f64) -> Verdict {
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (Some(pm), Some(cm), Some((p1, p3)), Some((c1, c3))) = (
        median(&parent),
        median(&change),
        quartiles(&parent),
        quartiles(&change),
    ) else {
        return Verdict::Unresolved;
    };
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    // Positive when the change is worse, as a share of the parent.
    let worse = if lower_is_better { cm - pm } else { pm - cm } / pm;
    let spread = ((p3 - p1) / pm).max((c3 - c1) / cm);
    let every_change_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let wins = pairs.iter().filter(|&&(p, c)| better(c, p)).count();
    let gain = pairs.len() >= MIN_PAIRS
        && wins * 10 >= pairs.len() * 9
        && (cm - pm).abs() > p3 - p1
        && better(cm, pm);
    if spread > bound && !every_change_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if gain {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// Parse the runs of a ledger file (one JSON object per line).
///
/// # Errors
///
/// A message naming the first malformed line.
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", i + 1);
        let v: Value = serde_json::from_str(line).map_err(|e| at(e.to_string()))?;
        let workload = v.member("workload").and_then(Value::as_str).map_err(at)?;
        let seed = v
            .member("seed")
            .ok()
            .and_then(num)
            .ok_or_else(|| at("no seed".into()))?;
        let Value::Obj(metrics) = v
            .member("result")
            .and_then(|r| r.member("metrics"))
            .map_err(at)?
        else {
            return Err(at("`metrics` is not an object".into()));
        };
        if !valid_name(workload) {
            return Err(at(format!("bad workload name {workload:?}")));
        }
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                if !valid_name(name) {
                    return Err(at(format!("bad metric name {name:?}")));
                }
                let value = m.member("value").ok().and_then(num);
                value
                    .map(|x| (name.clone(), x))
                    .ok_or_else(|| at(format!("`{name}` has no value")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        runs.push(Run {
            workload: workload.to_string(),
            seed: seed as u64,
            metrics,
        });
    }
    Ok(runs)
}

/// Pair the runs of one workload by seed, in file order.
fn pair<'a>(parent: &'a [Run], change: &'a [Run], workload: &str) -> Vec<(&'a Run, &'a Run)> {
    let mut used = vec![false; change.len()];
    let mut out = Vec::new();
    for p in parent.iter().filter(|r| r.workload == workload) {
        let hit = change
            .iter()
            .enumerate()
            .find(|(j, c)| !used[*j] && c.workload == workload && c.seed == p.seed);
        if let Some((j, c)) = hit {
            used[j] = true;
            out.push((p, c));
        }
    }
    out
}

fn fmt_side(xs: &[f64]) -> String {
    match (median(xs), quartiles(xs)) {
        (Some(m), Some((q1, q3))) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
        _ => "-".to_string(),
    }
}

/// One row per (end-to-end metric, workload): the report and whether
/// any row regressed.
///
/// # Errors
///
/// A message when the declaration does not parse.
pub fn report(parent: &[Run], change: &[Run]) -> Result<(String, bool), String> {
    let decl: Vec<Declared> = declared()?;
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:>5} {:>30} {:>30} {:>8} {:>6}  verdict",
        "metric",
        "workload",
        "pairs",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "delta",
        "wins"
    );
    let mut regressed = false;
    for name in END_TO_END {
        let d = decl
            .iter()
            .find(|d| d.name == name)
            .ok_or(format!("`{name}` is not declared"))?;
        let bound = d.bound.ok_or(format!("`{name}` has no bound"))?;
        for w in &workloads {
            let pairs: Vec<(f64, f64)> = pair(parent, change, w)
                .into_iter()
                .filter_map(|(p, c)| Some((p.get(name)?, c.get(name)?)))
                .collect();
            if pairs.is_empty() {
                continue;
            }
            let verdict = classify(&pairs, d.lower_is_better, bound);
            regressed |= verdict == Verdict::Regressed;
            let ps: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let cs: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let delta = match (median(&ps), median(&cs)) {
                (Some(p), Some(c)) => format!("{:+.1}%", (c / p - 1.0) * 100.0),
                _ => "-".to_string(),
            };
            let wins = pairs
                .iter()
                .filter(|&&(p, c)| if d.lower_is_better { c < p } else { c > p })
                .count();
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:>5} {:>30} {:>30} {:>8} {:>6}  {} (bound {:.0}%)",
                name,
                w,
                pairs.len(),
                fmt_side(&ps),
                fmt_side(&cs),
                delta,
                format!("{wins}/{}", pairs.len()),
                verdict.label(),
                bound * 100.0
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(parent: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
        parent.iter().copied().zip(change.iter().copied()).collect()
    }

    const STEADY: [f64; 10] = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];

    #[test]
    fn same_distribution_is_unchanged() {
        assert_eq!(
            classify(&pairs(&STEADY, &STEADY), true, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn clear_win_is_improved_and_needs_ten_pairs() {
        let faster: Vec<f64> = STEADY.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            classify(&pairs(&STEADY, &faster), true, 0.1),
            Verdict::Improved
        );
        // The same win on higher-is-better data, mirrored.
        let slower: Vec<f64> = STEADY.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            classify(&pairs(&slower, &STEADY), false, 0.1),
            Verdict::Improved
        );
        // Nine pairs cannot claim a gain.
        assert_eq!(
            classify(&pairs(&STEADY[..9], &faster[..9]), true, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn win_within_the_parent_spread_is_not_a_gain() {
        // Every pair wins, but by less than the parent's IQR.
        let nudged: Vec<f64> = STEADY.iter().map(|x| x - 0.01).collect();
        assert_eq!(
            classify(&pairs(&STEADY, &nudged), true, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_beyond_the_bound_is_regressed() {
        let slower: Vec<f64> = STEADY.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            classify(&pairs(&STEADY, &slower), true, 0.1),
            Verdict::Regressed
        );
        let lower: Vec<f64> = STEADY.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            classify(&pairs(&STEADY, &lower), false, 0.1),
            Verdict::Regressed
        );
        // Inside the bound it stands.
        let slightly: Vec<f64> = STEADY.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            classify(&pairs(&STEADY, &slightly), true, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0];
        assert_eq!(
            classify(&pairs(&noisy, &STEADY), true, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            classify(&pairs(&STEADY, &noisy), true, 0.1),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        let far: Vec<f64> = noisy.iter().map(|x| x / 10.0).collect();
        assert_eq!(classify(&pairs(&noisy, &far), true, 0.1), Verdict::Improved);
        assert_eq!(classify(&[], true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn runs_parse_and_pair_by_seed() {
        let text = "\
{\"workload\":\"campaign\",\"seed\":1,\"result\":{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}}}}
{\"workload\":\"campaign\",\"seed\":2,\"result\":{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":1.51,\"unit\":\"s\"}}}}
";
        let runs = parse_runs(text).expect("parses");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("wall_s"), Some(1.51));
        let swapped: Vec<Run> = runs.iter().rev().cloned().collect();
        let paired = pair(&runs, &swapped, "campaign");
        assert!(paired.iter().all(|(p, c)| p.seed == c.seed));
        assert!(parse_runs("{\"workload\":\"x\"}").is_err());
        let spaced = text.replacen("\"campaign\"", "\"camp aign\"", 1);
        assert!(parse_runs(&spaced).is_err());
        let (table, regressed) = report(&runs, &swapped).expect("report");
        assert!(
            table.contains("wall_s") && table.contains("unchanged"),
            "{table}"
        );
        assert!(!regressed);
    }
}
