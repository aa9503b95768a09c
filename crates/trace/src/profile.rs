//! Aggregated self-profile and span-tree reconstruction.
//!
//! The profile answers "where did the run spend itself" from a trace's
//! event buffers: per phase name, how many times it ran, how many
//! simulated ops it covered, how many logical ticks it spanned, and —
//! when an edge clock was injected — how much wall time it took. A
//! collapsed-stack rendering (`track;outer;inner count`) feeds
//! standard flamegraph tooling directly.
//!
//! [`build_tree`] reconstructs the well-nested span tree of one track
//! from its flat event list; the profile uses it internally and the
//! property tests use it to prove every recorder interleaving yields a
//! well-formed tree.

use crate::event::{Event, EventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reconstructed span with its children.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Phase name of the span.
    pub name: &'static str,
    /// Tick of the `Begin` event.
    pub begin_tick: u64,
    /// Tick of the `End` event.
    pub end_tick: u64,
    /// Child spans, in order.
    pub children: Vec<SpanNode>,
    /// Instants recorded directly under this span, in order.
    pub instants: Vec<Event>,
}

/// Why a flat event list is not a well-nested tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// An `End` event arrived with no span open.
    EndWithoutBegin {
        /// Name on the offending `End`.
        name: &'static str,
    },
    /// An `End` event closed a span other than the innermost open one.
    MismatchedEnd {
        /// Name of the innermost open span.
        open: &'static str,
        /// Name on the offending `End`.
        end: &'static str,
    },
    /// The list ended with spans still open.
    UnclosedSpan {
        /// Name of the innermost span left open.
        name: &'static str,
    },
    /// A deterministic event's tick went backwards.
    NonMonotonicTick {
        /// Tick that broke monotonicity.
        tick: u64,
    },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::EndWithoutBegin { name } => {
                write!(f, "end of `{name}` with no span open")
            }
            TreeError::MismatchedEnd { open, end } => {
                write!(f, "end of `{end}` while `{open}` is innermost")
            }
            TreeError::UnclosedSpan { name } => write!(f, "span `{name}` never ended"),
            TreeError::NonMonotonicTick { tick } => {
                write!(f, "tick {tick} is not monotonic")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// Reconstruct the span forest of one track from its flat event list.
///
/// # Errors
///
/// Returns a [`TreeError`] when the list is not well nested — which a
/// [`SpanRecorder`](crate::SpanRecorder) can never produce, making
/// this the oracle for the recorder's structural invariant.
pub fn build_tree(events: &[Event]) -> Result<Vec<SpanNode>, TreeError> {
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<SpanNode> = Vec::new();
    let mut last_tick: Option<u64> = None;
    for ev in events {
        if !ev.volatile {
            if last_tick.is_some_and(|t| ev.tick < t) {
                return Err(TreeError::NonMonotonicTick { tick: ev.tick });
            }
            last_tick = Some(ev.tick);
        }
        match ev.kind {
            EventKind::Begin => stack.push(SpanNode {
                name: ev.name,
                begin_tick: ev.tick,
                end_tick: ev.tick,
                children: Vec::new(),
                instants: Vec::new(),
            }),
            EventKind::End => {
                let Some(mut node) = stack.pop() else {
                    return Err(TreeError::EndWithoutBegin { name: ev.name });
                };
                if node.name != ev.name {
                    return Err(TreeError::MismatchedEnd {
                        open: node.name,
                        end: ev.name,
                    });
                }
                node.end_tick = ev.tick;
                match stack.last_mut() {
                    Some(parent) => parent.children.push(node),
                    None => roots.push(node),
                }
            }
            EventKind::Instant => match stack.last_mut() {
                Some(parent) => parent.instants.push(ev.clone()),
                None => {
                    // Top-level instants are roots of zero extent.
                    roots.push(SpanNode {
                        name: ev.name,
                        begin_tick: ev.tick,
                        end_tick: ev.tick,
                        children: Vec::new(),
                        instants: vec![ev.clone()],
                    });
                }
            },
        }
    }
    if let Some(node) = stack.pop() {
        return Err(TreeError::UnclosedSpan { name: node.name });
    }
    Ok(roots)
}

/// Aggregate row of one phase (or instant) name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseRow {
    /// Completed spans / recorded instants with this name.
    pub count: u64,
    /// Simulated ops attributed to this name (`ops` attrs).
    pub ops: u64,
    /// Logical ticks spanned (zero for instants).
    pub ticks: u64,
    /// Wall-clock nanoseconds spanned, when an edge clock existed.
    pub wall_ns: u64,
}

/// The aggregated self-profile of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Per-name aggregates, name-ordered.
    rows: BTreeMap<&'static str, PhaseRow>,
    /// Collapsed-stack ops counts: `track;outer;inner` → ops.
    collapsed: BTreeMap<String, u64>,
}

impl Profile {
    /// Fold one track's events into the profile. `track` is the task
    /// key (`anneal#0/1`); stacks are prefixed with the key's label up
    /// to `#` so parallel fan-outs of the same label collapse
    /// together.
    pub fn absorb_track(&mut self, track: &str, events: &[Event]) {
        let prefix = track.split('#').next().unwrap_or(track);
        let mut stack: Vec<(&'static str, u64, Option<u64>)> = Vec::new();
        let mut path = String::from(prefix);
        for ev in events {
            match ev.kind {
                EventKind::Begin => {
                    stack.push((ev.name, ev.tick, ev.wall_ns));
                    path.push(';');
                    path.push_str(ev.name);
                }
                EventKind::End => {
                    let row = self.rows.entry(ev.name).or_default();
                    row.count += 1;
                    row.ops += ev.ops();
                    if ev.ops() > 0 {
                        *self.collapsed.entry(path.clone()).or_default() += ev.ops();
                    }
                    if let Some((name, begin_tick, begin_wall)) = stack.pop() {
                        if name == ev.name {
                            row.ticks += ev.tick.saturating_sub(begin_tick);
                            if let (Some(b), Some(e)) = (begin_wall, ev.wall_ns) {
                                row.wall_ns += e.saturating_sub(b);
                            }
                        }
                        path.truncate(path.len().saturating_sub(name.len() + 1));
                    }
                }
                EventKind::Instant => {
                    let row = self.rows.entry(ev.name).or_default();
                    row.count += 1;
                    row.ops += ev.ops();
                    if ev.ops() > 0 {
                        let leaf = format!("{path};{}", ev.name);
                        *self.collapsed.entry(leaf).or_default() += ev.ops();
                    }
                }
            }
        }
    }

    /// The row of one phase name, if it ever occurred.
    pub fn row(&self, name: &str) -> Option<PhaseRow> {
        self.rows.get(name).copied()
    }

    /// All rows, name-ordered.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, PhaseRow)> + '_ {
        self.rows.iter().map(|(n, r)| (*n, *r))
    }

    /// The human-facing per-phase table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>14} {:>10} {:>12}",
            "phase", "count", "ops", "ticks", "wall_ms"
        );
        let _ = writeln!(out, "{}", "-".repeat(28 + 1 + 9 + 1 + 14 + 1 + 10 + 1 + 12));
        for (name, r) in &self.rows {
            let wall = if r.wall_ns > 0 {
                format!("{:.3}", r.wall_ns as f64 / 1e6)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{:<28} {:>9} {:>14} {:>10} {:>12}",
                name, r.count, r.ops, r.ticks, wall
            );
        }
        out
    }

    /// Collapsed-stack lines (`track;outer;inner ops`), sorted, one
    /// per line — the input format of flamegraph tools.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (path, ops) in &self.collapsed {
            let _ = writeln!(out, "{path} {ops}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Attrs;
    use crate::recorder::{attr, SpanRecorder};

    fn sample_events() -> Vec<Event> {
        let mut rec = SpanRecorder::new();
        rec.begin("walk");
        rec.instant("move", attr("ops", 10u64));
        rec.begin("inner");
        rec.instant_volatile("sim.run", attr("ops", 5u64));
        rec.end(attr("ops", 5u64));
        rec.end(Attrs::new());
        rec.finish()
    }

    #[test]
    fn tree_reconstructs_nesting_and_rejects_malformed() {
        let events = sample_events();
        let tree = build_tree(&events).expect("well nested");
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].name, "walk");
        assert_eq!(tree[0].children.len(), 1);
        assert_eq!(tree[0].children[0].name, "inner");
        assert_eq!(tree[0].instants.len(), 1);
        assert_eq!(tree[0].children[0].instants[0].name, "sim.run");

        // Truncate the final End: unclosed span.
        let cut = &events[..events.len() - 1];
        assert_eq!(
            build_tree(cut),
            Err(TreeError::UnclosedSpan { name: "walk" })
        );

        // An End with nothing open.
        let only_end = vec![events.last().expect("nonempty").clone()];
        assert!(matches!(
            build_tree(&only_end),
            Err(TreeError::EndWithoutBegin { .. })
        ));
    }

    #[test]
    fn profile_aggregates_counts_ops_ticks_and_stacks() {
        let mut p = Profile::default();
        p.absorb_track("anneal#0/1", &sample_events());
        p.absorb_track("anneal#0/2", &sample_events());
        let walk = p.row("walk").expect("walk row");
        assert_eq!(walk.count, 2);
        // walk spans ticks 0..4 (volatile sim.run did not widen it).
        assert_eq!(walk.ticks, 8);
        let mv = p.row("move").expect("move row");
        assert_eq!((mv.count, mv.ops, mv.ticks), (2, 20, 0));
        let sim = p.row("sim.run").expect("volatile still profiled");
        assert_eq!(sim.ops, 10);
        let collapsed = p.collapsed();
        assert!(collapsed.contains("anneal;walk;move 20\n"), "{collapsed}");
        assert!(
            collapsed.contains("anneal;walk;inner;sim.run 10\n"),
            "{collapsed}"
        );
        let table = p.render();
        assert!(table.contains("phase") && table.contains("walk"), "{table}");
    }
}
