//! The metrics the ledger prints.
//!
//! `BENCHMARK.json` at the repository root declares every metric's
//! name, unit, direction and (for end-to-end metrics) regression bound;
//! it is compiled in, so the printed units and the `compare` bounds
//! cannot drift from the declaration. This module lists what the code
//! emits; a test checks both lists agree.

use serde::Value;

const DECLARATION: &str = include_str!("../../../../../../BENCHMARK.json");

/// End-to-end metrics, measured untraced, reported for every workload.
pub const END_TO_END: [&str; 3] = ["wall_s", "setup_s", "peak_rss_mb"];

/// Per-layer metrics from the traced run, each with the end-to-end
/// metric and workload it should move. Every traced run reports all of
/// them; a layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    (
        "workload.gen_mops_per_s",
        "wall_s on matrix-long; barely campaign",
    ),
    (
        "sim.step_mops_per_s",
        "wall_s on matrix-long, then campaign and fleet",
    ),
    (
        "sim.evaluate_40k_mops_per_s",
        "wall_s on campaign; not matrix-long",
    ),
    ("sim.new_us", "wall_s on bakeoff most"),
    (
        "sim.ops_simulated",
        "count behind wall_s; 0 on fleet (workers simulate)",
    ),
    ("cacti.realize_us", "wall_s on bakeoff, then campaign"),
    ("explore.cache_hit_us", "wall_s on campaign and bakeoff"),
    ("explore.cache_lookups", "count: campaign and bakeoff"),
    ("explore.cache_hit_frac", "wall_s on campaign and bakeoff"),
    ("explore.ops_requested", "count: campaign and bakeoff"),
    (
        "explore.journal_record_ms",
        "wall_s on campaign; not matrix-long",
    ),
    (
        "explore.journal_bytes_written",
        "wall_s on campaign; not matrix-long",
    ),
    ("explore.anneal_s", "wall_s on campaign"),
    ("explore.cross_s", "wall_s on campaign"),
    ("explore.fan_util", "wall_s on campaign"),
    ("explore.search_util", "wall_s on bakeoff"),
    ("explore.unrealizable_frac", "wall_s on bakeoff"),
    ("core.matrix_fill_s", "wall_s on matrix-long and campaign"),
    (
        "core.matrix_replace_s",
        "wall_s on campaign and fleet; 0 on matrix-long",
    ),
    (
        "core.table5_err_pct",
        "accuracy on matrix-long; a speed-only change keeps it exact",
    ),
    (
        "communal.queries_ms",
        "control: under 1% of campaign wall_s",
    ),
    ("scenario.population_ms", "wall_s on bakeoff"),
    ("scenario.bakeoff_run_s", "wall_s on bakeoff"),
    (
        "serve.task_rtt_ms_p50",
        "wall_s on fleet; no other workload",
    ),
    (
        "serve.task_rtt_ms_tail",
        "wall_s on fleet; no other workload",
    ),
    ("serve.task_rtt_warm_ms_p50", "serve.warm_wall_s on fleet"),
    ("serve.task_rtt_warm_ms_tail", "serve.warm_wall_s on fleet"),
    ("serve.task_bytes", "wall_s on fleet"),
    (
        "serve.healthz_rtt_ms_p50",
        "HTTP/accept floor under every fleet task",
    ),
    ("serve.retried", "failed on fleet"),
    ("serve.degraded", "failed on fleet"),
    (
        "serve.warm_wall_s",
        "fleet warm pass: the campaign against warm stores",
    ),
    (
        "eval_mops_per_s",
        "end to end on matrix-long and bakeoff: requested ops / wall",
    ),
    (
        "ledger.unattributed_frac",
        "rep time the program's spans cannot explain",
    ),
    (
        "ledger.trace_overhead_frac",
        "cost of tracing: traced rep / untraced median - 1",
    ),
];

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the parent median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn parse() -> Result<Value, String> {
    serde_json::from_str(DECLARATION).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn declared_list(doc: &Value, key: &str) -> Result<Vec<Declared>, String> {
    let Value::Arr(items) = doc.member(key)? else {
        return Err(format!("BENCHMARK.json: `{key}` is not a list"));
    };
    items
        .iter()
        .map(|m| {
            let better = m.member("better")?.as_str()?;
            let bound = match m.member("bound") {
                Ok(Value::F64(b)) => Some(*b),
                Ok(Value::U64(b)) => Some(*b as f64),
                _ => None,
            };
            Ok(Declared {
                name: m.member("name")?.as_str()?.to_string(),
                unit: m.member("unit")?.as_str()?.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// Every declared metric: end-to-end first, then per-layer.
///
/// # Errors
///
/// A message when the compiled-in declaration does not parse.
pub fn declared() -> Result<Vec<Declared>, String> {
    let doc = parse()?;
    let mut all = declared_list(&doc, "end_to_end")?;
    all.extend(declared_list(&doc, "per_layer")?);
    Ok(all)
}

/// The unit a metric is declared with.
///
/// # Errors
///
/// A message naming a metric the declaration lacks.
pub fn unit_of(name: &str) -> Result<String, String> {
    declared()?
        .into_iter()
        .find(|d| d.name == name)
        .map(|d| d.unit)
        .ok_or_else(|| format!("metric `{name}` is not declared in BENCHMARK.json"))
}

/// Whether `s` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn name_rule_accepts_the_alphabet_and_rejects_the_rest() {
        for ok in ["wall_s", "sim.new_us", "matrix-long", "0x", "a.b-c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "a:b",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_printed_name_is_declared_with_a_unit_and_vice_versa() {
        let declared = declared().expect("declaration parses");
        let printed: Vec<&str> = END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .collect();
        for name in &printed {
            assert!(valid_name(name), "{name}");
            let d = declared
                .iter()
                .find(|d| d.name == *name)
                .unwrap_or_else(|| panic!("`{name}` is printed but not declared"));
            assert!(!d.unit.is_empty());
        }
        for d in &declared {
            assert!(
                printed.contains(&d.name.as_str()),
                "`{}` is declared but never printed",
                d.name
            );
        }
        let mut names: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), declared.len(), "names are used once");
        for name in END_TO_END {
            let d = declared.iter().find(|d| d.name == name).expect("declared");
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
        }
        assert!(declared
            .iter()
            .filter(|d| !END_TO_END.contains(&d.name.as_str()))
            .all(|d| d.bound.is_none()));
    }

    #[test]
    fn declared_workloads_are_the_ones_the_ledger_runs() {
        let Value::Arr(items) = parse()
            .expect("parses")
            .member("workloads")
            .expect("listed")
            .clone()
        else {
            panic!("`workloads` is not a list");
        };
        let declared: Vec<String> = items
            .iter()
            .map(|w| {
                w.member("name")
                    .and_then(Value::as_str)
                    .expect("named")
                    .to_string()
            })
            .collect();
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(declared, names);
        assert!(names.iter().all(|n| valid_name(n)));
    }
}
