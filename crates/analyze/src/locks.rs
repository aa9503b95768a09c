//! Lock discipline over the call graph: acquisition-order cycles
//! (potential deadlocks) and blocking operations performed while a
//! guard is live.
//!
//! Lock identity is `crate:receiver` — the receiver name of the
//! acquisition, qualified by the acquiring crate so two crates'
//! unrelated `inner` fields never alias. `.lock()` always acquires;
//! `.read()`/`.write()` only count when the receiver is a declared
//! `RwLock` name somewhere in the workspace (otherwise they are IO
//! methods).
//!
//! Order edges `a → b` arise two ways:
//!
//! * **intraprocedural** — `b` is acquired while `a`'s guard is live
//!   in the same fn;
//! * **interprocedural** — a call made while `a`'s guard is live
//!   reaches a fn whose transitive *lock closure* contains `b`.
//!
//! A cycle in that graph (including a self-edge: re-acquiring a lock
//! already held) is a deny finding citing both witness sites. A
//! blocking operation (`recv`, zero-arg `join`, `sleep`, socket
//! accept/connect, …) inside a live guard range is a deny finding at
//! the blocking site; deliberate exceptions carry
//! `// xps-allow(lock-discipline): reason`.

use crate::diag::{Finding, Severity};
use crate::graph::{qual_of, Graph};
use crate::parse::{FileSummary, LockKind};
use std::collections::{BTreeMap, BTreeSet};

/// One acquisition-order edge witness.
#[derive(Debug, Clone)]
struct EdgeSite {
    file: String,
    line: u32,
    col: u32,
    /// Human description of how the edge arises (nested acquisition
    /// or a call into a locking callee).
    how: String,
}

/// Run the pass. Returns findings plus the `(relpath, allow-line)`
/// suppressions consumed.
pub fn check(files: &[FileSummary], graph: &Graph) -> (Vec<Finding>, BTreeSet<(String, u32)>) {
    let mut findings = Vec::new();
    let mut used: BTreeSet<(String, u32)> = BTreeSet::new();

    // Workspace-wide RwLock receiver names: `.read()`/`.write()` on
    // anything else is IO, not a lock.
    let rwlock_names: BTreeSet<&str> = files
        .iter()
        .flat_map(|f| f.rwlock_names.iter().map(String::as_str))
        .collect();
    let effective = |l: &crate::parse::LockAcq| -> bool {
        match l.kind {
            LockKind::Lock => true,
            LockKind::Read | LockKind::Write => rwlock_names.contains(l.name.as_str()),
        }
    };

    // Per-node direct lock ids, then the transitive closure over
    // callees (fixpoint — the graph may have cycles).
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (q, site) in &graph.nodes {
        let (fi, gi) = site.fn_ref;
        let file = &files[fi];
        let ids: BTreeSet<String> = file.fns[gi]
            .locks
            .iter()
            .filter(|l| effective(l))
            .map(|l| format!("{}:{}", file.crate_name, l.name))
            .collect();
        direct.insert(q.clone(), ids);
    }
    let mut closure = direct.clone();
    loop {
        let mut changed = false;
        for (q, callees) in &graph.edges {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for callee in callees.keys() {
                if let Some(ids) = closure.get(callee) {
                    add.extend(ids.iter().cloned());
                }
            }
            if let Some(own) = closure.get_mut(q) {
                let before = own.len();
                own.extend(add);
                changed |= own.len() != before;
            }
        }
        if !changed {
            break;
        }
    }

    // Build the order graph with one (first) witness per edge, and
    // collect blocking-while-locked findings along the way.
    let mut order: BTreeMap<String, BTreeMap<String, EdgeSite>> = BTreeMap::new();
    for (q, site) in &graph.nodes {
        let (fi, gi) = site.fn_ref;
        let file = &files[fi];
        let f = &file.fns[gi];
        for a in f.locks.iter().filter(|l| effective(l)) {
            let a_id = format!("{}:{}", file.crate_name, a.name);
            let range = (a.tok + 1)..=a.guard_end;
            // Nested acquisitions.
            for b in f.locks.iter().filter(|l| effective(l)) {
                if std::ptr::eq(a, b) || !range.contains(&b.tok) {
                    continue;
                }
                let b_id = format!("{}:{}", file.crate_name, b.name);
                order
                    .entry(a_id.clone())
                    .or_default()
                    .entry(b_id)
                    .or_insert(EdgeSite {
                        file: file.relpath.clone(),
                        line: b.line,
                        col: b.col,
                        how: format!(
                            "`{}` acquired while `{}` guard is live in {q}",
                            b.name, a.name
                        ),
                    });
            }
            // Calls into locking callees.
            for c in &f.calls {
                if !range.contains(&c.tok) {
                    continue;
                }
                let Some(callee) = resolve_call_for_locks(graph, file, f, c) else {
                    continue;
                };
                if let Some(ids) = closure.get(&callee) {
                    // A callee acquiring `a_id` itself records a
                    // self-edge — re-entrant acquisition through a
                    // call, reported as a cycle below.
                    for b_id in ids {
                        order
                            .entry(a_id.clone())
                            .or_default()
                            .entry(b_id.clone())
                            .or_insert(EdgeSite {
                                file: file.relpath.clone(),
                                line: c.line,
                                col: c.col,
                                how: format!(
                                    "call into {callee} (which acquires `{}`) while `{}` \
                                     guard is live in {q}",
                                    b_id, a.name
                                ),
                            });
                    }
                }
            }
            // Blocking ops inside the guard range. A condvar wait
            // that is *handed this guard* atomically releases it for
            // the wait's duration — that is the correct pattern, not
            // a held-lock stall.
            for b in &f.blocking {
                if !range.contains(&b.tok) {
                    continue;
                }
                if b.released.is_some()
                    && (b.released == a.bound || b.released.as_deref() == Some(a.name.as_str()))
                {
                    continue;
                }
                if let Some(s) = file.suppressions.iter().find(|s| {
                    s.rule == "lock-discipline" && (s.line == b.line || s.line + 1 == b.line)
                }) {
                    used.insert((file.relpath.clone(), s.line));
                    continue;
                }
                findings.push(Finding {
                    file: file.relpath.clone(),
                    line: b.line,
                    col: b.col,
                    rule: "lock-discipline",
                    severity: Severity::Deny,
                    message: format!(
                        "blocking `{}` while the `{}` guard is live (acquired {}:{}) — \
                         every other thread needing that lock stalls behind this wait",
                        b.what, a.name, file.relpath, a.line
                    ),
                    suggestion: "shrink the critical section: copy what you need out of the \
                                 guard, drop it, then block; or justify with \
                                 `// xps-allow(lock-discipline): reason`"
                        .to_string(),
                });
            }
        }
    }

    // Cycles: self-edges, then two-way reachability between edge
    // endpoints.
    let reachable = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(cur) = stack.pop() {
            if cur == to {
                return true;
            }
            if let Some(next) = order.get(cur) {
                for n in next.keys() {
                    if seen.insert(n) {
                        stack.push(n);
                    }
                }
            }
        }
        false
    };
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for (a, outs) in &order {
        for (b, site) in outs {
            let is_cycle = if a == b { true } else { reachable(b, a) };
            if !is_cycle {
                continue;
            }
            let key = if a <= b {
                (a.clone(), b.clone())
            } else {
                (b.clone(), a.clone())
            };
            if !reported.insert(key) {
                continue;
            }
            if let Some(s) = files.iter().find(|f| f.relpath == site.file).and_then(|f| {
                f.suppressions.iter().find(|s| {
                    s.rule == "lock-discipline" && (s.line == site.line || s.line + 1 == site.line)
                })
            }) {
                used.insert((site.file.clone(), s.line));
                continue;
            }
            let message = if a == b {
                format!(
                    "lock-order cycle: `{a}` is re-acquired while already held ({}) — \
                     a std Mutex self-deadlocks here",
                    site.how
                )
            } else {
                let back = order
                    .get(b)
                    .and_then(|m| m.get(a))
                    .map(|s| format!("{}:{} ({})", s.file, s.line, s.how))
                    .unwrap_or_else(|| format!("reachable transitively from `{b}`"));
                format!(
                    "lock-order inversion between `{a}` and `{b}`: {} at {}:{}, but the \
                     opposite order holds at {back} — two threads interleaving these paths \
                     deadlock",
                    site.how, site.file, site.line
                )
            };
            findings.push(Finding {
                file: site.file.clone(),
                line: site.line,
                col: site.col,
                rule: "lock-discipline",
                severity: Severity::Deny,
                message,
                suggestion: "impose one global acquisition order (document it at the lock \
                             declarations) or collapse the two locks into one; or justify \
                             with `// xps-allow(lock-discipline): reason`"
                    .to_string(),
            });
        }
    }
    (findings, used)
}

/// Call resolution for the lock pass: reuse the graph's resolved
/// edges (caller → callee), matching this call site by position.
fn resolve_call_for_locks(
    graph: &Graph,
    file: &FileSummary,
    f: &crate::parse::FnSummary,
    c: &crate::parse::Call,
) -> Option<String> {
    let caller = qual_of(file, f);
    let callees = graph.edges.get(&caller)?;
    callees
        .iter()
        .find(|(_, (site_file, site_line))| site_file == &file.relpath && *site_line == c.line)
        .map(|(callee, _)| callee.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build;
    use crate::parse::summarize_file;

    fn run(src: &str) -> Vec<Finding> {
        let files = vec![summarize_file("crates/a/src/lib.rs", "xps_a", src)];
        let g = build(&files);
        check(&files, &g).0
    }

    #[test]
    fn nested_inversion_across_two_fns_is_a_deadlock_finding() {
        let f = run("struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             fn one(s: &S) { let g = s.a.lock(); let h = s.b.lock(); }\n\
             fn two(s: &S) { let g = s.b.lock(); let h = s.a.lock(); }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-discipline");
        assert!(
            f[0].message.contains("lock-order inversion"),
            "{}",
            f[0].message
        );
        assert!(f[0].message.contains("xps_a:a"), "{}", f[0].message);
        assert!(f[0].message.contains("xps_a:b"), "{}", f[0].message);
    }

    #[test]
    fn consistent_order_is_quiet() {
        let f = run("struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             fn one(s: &S) { let g = s.a.lock(); let h = s.b.lock(); }\n\
             fn two(s: &S) { let g = s.a.lock(); let h = s.b.lock(); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn interprocedural_inversion_through_a_callee_is_found() {
        let f = run("struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             fn lock_b(s: &S) { let g = s.b.lock(); }\n\
             fn one(s: &S) { let g = s.a.lock(); lock_b(s); }\n\
             fn lock_a(s: &S) { let g = s.a.lock(); }\n\
             fn two(s: &S) { let g = s.b.lock(); lock_a(s); }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("inversion"), "{}", f[0].message);
    }

    #[test]
    fn blocking_while_guard_live_found_and_dropped_guard_quiet() {
        let f = run("struct S { state: Mutex<u32> }\n\
             fn f(s: &S, rx: &Receiver<u32>) {\n\
                 let g = s.state.lock();\n\
                 let v = rx.recv();\n\
             }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("blocking `recv`"), "{}", f[0].message);
        let quiet = run("struct S { state: Mutex<u32> }\n\
             fn f(s: &S, rx: &Receiver<u32>) {\n\
                 { let g = s.state.lock(); }\n\
                 let v = rx.recv();\n\
             }\n");
        assert!(quiet.is_empty(), "{quiet:?}");
    }

    #[test]
    fn read_write_only_count_for_declared_rwlocks() {
        // `.read()` on a non-RwLock receiver is IO, not a lock.
        let f = run("struct S { state: Mutex<u32> }\n\
             fn f(s: &S, sock: &TcpStream) {\n\
                 let g = s.state.lock();\n\
                 let n = sock.read(&mut buf);\n\
             }\n");
        assert!(f.is_empty(), "{f:?}");
        // Declared RwLock + blocking inside the write guard → finding.
        let f = run("struct S { table: RwLock<u32> }\n\
             fn f(s: &S, rx: &Receiver<u32>) {\n\
                 let g = s.table.write();\n\
                 let v = rx.recv();\n\
             }\n");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn condvar_wait_releasing_the_held_guard_is_quiet() {
        // `cv.wait_timeout(state, …)` hands the guard to the condvar,
        // which unlocks it for the duration of the wait.
        let f = run("struct S { state: Mutex<u32>, wake: Condvar }\n\
             fn f(s: &S) {\n\
                 let mut state = s.state.lock();\n\
                 let (next, _) = s.wake.wait_timeout(state, TICK);\n\
                 state = next;\n\
             }\n");
        assert!(f.is_empty(), "{f:?}");
        // …but waiting on one condvar while a *different* guard is
        // live still stalls that other lock.
        let f = run(
            "struct S { state: Mutex<u32>, other: Mutex<u32>, wake: Condvar }\n\
             fn f(s: &S) {\n\
                 let held = s.other.lock();\n\
                 let mut state = s.state.lock();\n\
                 let (next, _) = s.wake.wait_timeout(state, TICK);\n\
                 state = next;\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`other` guard"), "{}", f[0].message);
    }

    #[test]
    fn lock_discipline_allow_suppresses_blocking_finding() {
        let f = run(
            "struct S { state: Mutex<u32> }\n\
             fn f(s: &S, rx: &Receiver<u32>) {\n\
                 let g = s.state.lock();\n\
                 // xps-allow(lock-discipline): single-consumer channel, send side never locks state\n\
                 let v = rx.recv();\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
