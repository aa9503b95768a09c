//! The atoms of a trace: events on a logical clock.
//!
//! Every observable step of the engine is one [`Event`]: a span
//! boundary ([`EventKind::Begin`] / [`EventKind::End`]) or a point
//! occurrence ([`EventKind::Instant`]). Events carry a *logical* tick
//! — a per-track monotonic counter — rather than a wall-clock reading,
//! so the serialized trace of a deterministic computation is itself
//! deterministic: byte-identical across worker counts, machines, and
//! reruns.
//!
//! Two refinements keep that promise honest:
//!
//! * **Volatile events** record steps whose *occurrence* depends on
//!   scheduling (a shared-cache hit observed by one of two racing
//!   workers, the simulator run behind a cache miss). They are kept
//!   for profiling but are excluded from the serialized journal and do
//!   not advance the logical clock, so their presence or absence
//!   cannot perturb the ticks of deterministic events around them.
//! * **Wall-clock stamps** (`wall_ns`) exist only when a recorder was
//!   built from a sink with an edge-injected clock (the CLI or
//!   benchmark boundary). They feed the human-facing profile and are never
//!   serialized into the trace journal.

use std::fmt;

/// An attribute value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string, e.g. a workload name.
    Str(String),
    /// An unsigned counter, e.g. simulated ops.
    U64(u64),
    /// A floating-point measurement, e.g. a temperature.
    F64(f64),
    /// A flag, e.g. whether a move was accepted.
    Bool(bool),
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> AttrValue {
        AttrValue::U64(u64::from(v))
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

impl Default for AttrValue {
    fn default() -> AttrValue {
        AttrValue::Bool(false)
    }
}

/// Attribute lists up to this length are stored inline; longer ones
/// spill to the heap.
const ATTRS_INLINE: usize = 4;

/// A list of named attributes.
///
/// Event constructors take closures producing one so the work only
/// happens when a recorder is actually installed — and since every
/// attribute list in the workspace is at most [`ATTRS_INLINE`] entries,
/// building one is allocation-free: the entries live inline in the
/// event. This matters on hot exits like the simulator's `sim.run`
/// instant, recorded once per evaluation during traced campaigns.
///
/// The iteration order (and therefore the serialized journal) is the
/// recording order, exactly as with the former `Vec` representation.
#[derive(Debug, Clone, Default)]
pub struct Attrs {
    len: u8,
    inline: [(&'static str, AttrValue); ATTRS_INLINE],
    spill: Vec<(&'static str, AttrValue)>,
}

impl Attrs {
    /// An empty attribute list. Does not allocate.
    #[must_use]
    pub fn new() -> Attrs {
        Attrs::default()
    }

    /// Append one attribute, spilling to the heap past the inline
    /// capacity.
    pub fn push(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        let slot = usize::from(self.len);
        if slot < ATTRS_INLINE {
            self.inline[slot] = (key, value.into());
            self.len += 1;
        } else {
            self.spill.push((key, value.into()));
        }
    }

    /// Number of attributes.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len) + self.spill.len()
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the attributes in recording order.
    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, AttrValue)> {
        self.inline[..usize::from(self.len)]
            .iter()
            .chain(self.spill.iter())
    }
}

impl PartialEq for Attrs {
    fn eq(&self, other: &Attrs) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<const N: usize> From<[(&'static str, AttrValue); N]> for Attrs {
    fn from(items: [(&'static str, AttrValue); N]) -> Attrs {
        items.into_iter().collect()
    }
}

impl FromIterator<(&'static str, AttrValue)> for Attrs {
    fn from_iter<I: IntoIterator<Item = (&'static str, AttrValue)>>(iter: I) -> Attrs {
        let mut attrs = Attrs::new();
        for (k, v) in iter {
            attrs.push(k, v);
        }
        attrs
    }
}

impl<'a> IntoIterator for &'a Attrs {
    type Item = &'a (&'static str, AttrValue);
    type IntoIter = std::iter::Chain<
        std::slice::Iter<'a, (&'static str, AttrValue)>,
        std::slice::Iter<'a, (&'static str, AttrValue)>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.inline[..usize::from(self.len)]
            .iter()
            .chain(self.spill.iter())
    }
}

/// What kind of step an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// A span closed.
    End,
    /// A point occurrence with no duration.
    Instant,
}

impl EventKind {
    /// The journal spelling of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Instant => "instant",
        }
    }
}

/// One step of a trace, on its track's logical clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Logical tick within the track. Deterministic events advance the
    /// clock; volatile events borrow the current tick without moving
    /// it.
    pub tick: u64,
    /// Span boundary or instant.
    pub kind: EventKind,
    /// Phase / event name, e.g. `anneal.walk` or `cache.lookup`.
    pub name: &'static str,
    /// Attributes, in recording order.
    pub attrs: Attrs,
    /// Whether the event's occurrence is scheduling-dependent and must
    /// stay out of the deterministic journal.
    pub volatile: bool,
    /// Wall-clock nanoseconds since the edge clock's epoch; present
    /// only on recorders wired to an edge-injected clock, and never
    /// serialized.
    pub wall_ns: Option<u64>,
}

impl Event {
    /// The summed value of every `ops` attribute on this event.
    pub fn ops(&self) -> u64 {
        self.attrs
            .iter()
            .filter(|(k, _)| *k == "ops")
            .map(|(_, v)| match v {
                AttrValue::U64(n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// Append this event as one NDJSON journal line (no trailing
    /// newline). Volatile events and wall-clock stamps are the
    /// caller's concern; this renders exactly the deterministic
    /// fields.
    pub fn write_json(&self, track: &str, out: &mut String) {
        out.push_str("{\"track\":\"");
        escape_json(track, out);
        out.push_str("\",\"tick\":");
        let _ = fmt::Write::write_fmt(out, format_args!("{}", self.tick));
        out.push_str(",\"ev\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"name\":\"");
        escape_json(self.name, out);
        out.push('"');
        if !self.attrs.is_empty() {
            out.push_str(",\"attrs\":{");
            for (i, (key, value)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_json(key, out);
                out.push_str("\":");
                value.write_json(out);
            }
            out.push('}');
        }
        out.push('}');
    }
}

impl AttrValue {
    /// Append the JSON rendering of this value.
    pub fn write_json(&self, out: &mut String) {
        match self {
            AttrValue::Str(s) => {
                out.push('"');
                escape_json(s, out);
                out.push('"');
            }
            AttrValue::U64(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            AttrValue::F64(x) if x.is_finite() => {
                let _ = fmt::Write::write_fmt(out, format_args!("{x}"));
            }
            AttrValue::F64(_) => out.push_str("null"),
            AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

/// JSON string escaping (control characters, quote, backslash).
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_compact_deterministic_json() {
        let ev = Event {
            tick: 3,
            kind: EventKind::Instant,
            name: "cache.lookup",
            attrs: Attrs::from([("workload", "gzip".into()), ("ops", 40_000u64.into())]),
            volatile: false,
            wall_ns: Some(99), // never serialized
        };
        let mut out = String::new();
        ev.write_json("anneal#0/1", &mut out);
        assert_eq!(
            out,
            "{\"track\":\"anneal#0/1\",\"tick\":3,\"ev\":\"instant\",\
             \"name\":\"cache.lookup\",\"attrs\":{\"workload\":\"gzip\",\"ops\":40000}}"
        );
    }

    #[test]
    fn attr_values_escape_and_format() {
        let mut out = String::new();
        AttrValue::from("a\"b\\c\nd").write_json(&mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
        out.clear();
        AttrValue::from(0.25f64).write_json(&mut out);
        assert_eq!(out, "0.25");
        out.clear();
        AttrValue::F64(f64::NAN).write_json(&mut out);
        assert_eq!(out, "null");
        out.clear();
        AttrValue::from(true).write_json(&mut out);
        assert_eq!(out, "true");
    }

    #[test]
    fn ops_sums_only_u64_ops_attrs() {
        let ev = Event {
            tick: 0,
            kind: EventKind::End,
            name: "x",
            attrs: Attrs::from([
                ("ops", 3u64.into()),
                ("ops", 4u64.into()),
                ("ops", AttrValue::F64(9.0)),
                ("other", 5u64.into()),
            ]),
            volatile: false,
            wall_ns: None,
        };
        assert_eq!(ev.ops(), 7);
    }

    #[test]
    fn attrs_spill_past_inline_capacity() {
        let mut a = Attrs::new();
        for i in 0..(ATTRS_INLINE as u64 + 3) {
            a.push("k", i);
        }
        assert_eq!(a.len(), ATTRS_INLINE + 3);
        assert!(!a.is_empty());
        let values: Vec<u64> = a
            .iter()
            .map(|(_, v)| match v {
                AttrValue::U64(n) => *n,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(values, (0..ATTRS_INLINE as u64 + 3).collect::<Vec<_>>());
        // Equality is by content, independent of inline/spill split.
        let b: Attrs = (0..ATTRS_INLINE as u64 + 3)
            .map(|i| ("k", i.into()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, Attrs::new());
    }
}
