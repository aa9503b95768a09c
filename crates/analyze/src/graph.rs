//! The cross-crate call graph: qualified fn nodes, resolved call
//! edges, and deterministic shortest-path search.
//!
//! Node identity is the fully qualified path
//! `crate::module…::[SelfTy::]name`. Resolution of a call site tries,
//! in order: import-alias expansion (with `crate`/`self`/`super`
//! already resolved by the parser), the caller's own module, the
//! expanded path verbatim, a unique suffix match, and finally a
//! unique bare-name match. Anything still ambiguous or external
//! (std, vendored deps) is dropped — the graph under-approximates,
//! which for both semantic passes means missed edges, never false
//! chains through code that does not exist.
//!
//! All containers are `BTree*` so iteration — and therefore every
//! diagnostic derived from the graph — is deterministic.

use crate::parse::{Call, FileSummary, FnSummary};
use std::collections::{BTreeMap, BTreeSet};

/// Where a node's fn lives (for `file:line` hops in diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSite {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the fn item.
    pub line: u32,
    /// Index into the summaries slice / its fns vec.
    pub fn_ref: (usize, usize),
}

/// The resolved whole-workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// qual → site, for every non-test fn.
    pub nodes: BTreeMap<String, NodeSite>,
    /// caller qual → callee qual → first (by position) call site.
    pub edges: BTreeMap<String, BTreeMap<String, (String, u32)>>,
    /// callee qual → caller set (reverse adjacency).
    pub redges: BTreeMap<String, BTreeSet<String>>,
}

/// The qualified path of one fn.
pub fn qual_of(file: &FileSummary, f: &FnSummary) -> String {
    let mut parts: Vec<&str> = vec![&file.crate_name];
    parts.extend(f.module.iter().map(String::as_str));
    if let Some(ty) = &f.self_ty {
        parts.push(ty);
    }
    parts.push(&f.name);
    parts.join("::")
}

/// Build the graph over every summarized file.
pub fn build(files: &[FileSummary]) -> Graph {
    let mut g = Graph::default();
    // Pass 1: nodes + name/suffix indices.
    let mut by_name: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    let mut by_ty_name: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let q = qual_of(file, f);
            by_name.entry(&f.name).or_default().insert(q.clone());
            if let Some(ty) = &f.self_ty {
                by_ty_name
                    .entry((ty.clone(), f.name.clone()))
                    .or_default()
                    .insert(q.clone());
            }
            g.nodes.insert(
                q,
                NodeSite {
                    file: file.relpath.clone(),
                    line: f.line,
                    fn_ref: (fi, gi),
                },
            );
        }
    }
    // Pass 2: edges.
    for file in files {
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            let caller = qual_of(file, f);
            for c in &f.calls {
                if let Some(callee) = resolve(&g, file, f, c, &by_name, &by_ty_name) {
                    if callee == caller {
                        continue;
                    }
                    g.edges
                        .entry(caller.clone())
                        .or_default()
                        .entry(callee.clone())
                        .or_insert((file.relpath.clone(), c.line));
                    g.redges.entry(callee).or_default().insert(caller.clone());
                }
            }
        }
    }
    g
}

/// Resolve one call site to a node qual, or None for external /
/// ambiguous targets.
fn resolve(
    g: &Graph,
    file: &FileSummary,
    caller: &FnSummary,
    call: &Call,
    by_name: &BTreeMap<&str, BTreeSet<String>>,
    by_ty_name: &BTreeMap<(String, String), BTreeSet<String>>,
) -> Option<String> {
    if let Some(m) = &call.method {
        // `self.m(…)` — the caller's own impl type first.
        if call.recv.as_deref() == Some("self") {
            if let Some(ty) = &caller.self_ty {
                if let Some(set) = by_ty_name.get(&(ty.clone(), m.clone())) {
                    if set.len() == 1 {
                        return set.iter().next().cloned();
                    }
                    // Prefer same crate when several impls share the
                    // (type, name) pair.
                    let same: Vec<&String> = set
                        .iter()
                        .filter(|q| q.starts_with(&format!("{}::", file.crate_name)))
                        .collect();
                    if same.len() == 1 {
                        return Some(same[0].clone());
                    }
                }
            }
        }
        // Otherwise only a workspace-unique method name resolves.
        let set = by_name.get(m.as_str())?;
        if set.len() == 1 {
            return set.iter().next().cloned();
        }
        return None;
    }
    // Path call: expand the head segment.
    let mut segs = call.path.clone();
    if segs.is_empty() {
        return None;
    }
    match segs[0].as_str() {
        "crate" => segs[0] = file.crate_name.clone(),
        "self" => {
            let mut p = vec![file.crate_name.clone()];
            p.extend(caller.module.iter().cloned());
            p.extend(segs.drain(1..));
            segs = p;
        }
        "super" => {
            let mut p = vec![file.crate_name.clone()];
            p.extend(caller.module.iter().cloned());
            p.pop();
            p.extend(segs.drain(1..));
            segs = p;
        }
        "Self" => {
            if let Some(ty) = &caller.self_ty {
                segs[0] = ty.clone();
            }
        }
        head => {
            if let Some(imp) = file.imports.iter().find(|i| !i.glob && i.alias == head) {
                let mut p = imp.path.clone();
                p.extend(segs.drain(1..));
                segs = p;
            }
        }
    }
    let joined = segs.join("::");
    // Exact qual.
    if g.nodes.contains_key(&joined) {
        return Some(joined);
    }
    // Caller's own module.
    {
        let mut p = vec![file.crate_name.clone()];
        p.extend(caller.module.iter().cloned());
        p.extend(segs.iter().cloned());
        let q = p.join("::");
        if g.nodes.contains_key(&q) {
            return Some(q);
        }
    }
    // Crate root (re-exports).
    {
        let mut p = vec![file.crate_name.clone()];
        p.extend(segs.iter().cloned());
        let q = p.join("::");
        if g.nodes.contains_key(&q) {
            return Some(q);
        }
    }
    // Unique suffix.
    let suffix = format!("::{joined}");
    let matches: Vec<&String> = g.nodes.keys().filter(|q| q.ends_with(&suffix)).collect();
    if matches.len() == 1 {
        return Some(matches[0].clone());
    }
    if matches.len() > 1 {
        return None;
    }
    // Unique bare name (single-segment calls only — a wrong multi-
    // segment path should not fuzzy-match).
    if segs.len() == 1 {
        if let Some(set) = by_name.get(segs[0].as_str()) {
            if set.len() == 1 {
                return set.iter().next().cloned();
            }
        }
    }
    None
}

impl Graph {
    /// Deterministic BFS shortest path from `from` to any member of
    /// `targets`, following forward edges. Ties break toward the
    /// lexicographically smallest qual (BTree iteration order).
    pub fn shortest_path_to(&self, from: &str, targets: &BTreeSet<String>) -> Option<Vec<String>> {
        self.bfs(from, targets, false)
    }

    /// Same, following reverse edges: the returned path is in
    /// *forward* call order, ending at `from`.
    pub fn shortest_path_from_any(
        &self,
        from: &str,
        targets: &BTreeSet<String>,
    ) -> Option<Vec<String>> {
        self.bfs(from, targets, true).map(|mut p| {
            p.reverse();
            p
        })
    }

    fn bfs(&self, from: &str, targets: &BTreeSet<String>, reverse: bool) -> Option<Vec<String>> {
        let mut parent: BTreeMap<String, String> = BTreeMap::new();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: std::collections::VecDeque<String> = std::collections::VecDeque::new();
        seen.insert(from.to_string());
        queue.push_back(from.to_string());
        while let Some(cur) = queue.pop_front() {
            if targets.contains(&cur) {
                let mut path = vec![cur.clone()];
                let mut at = cur;
                while let Some(p) = parent.get(&at) {
                    path.push(p.clone());
                    at = p.clone();
                }
                path.reverse();
                return Some(path);
            }
            let next: Vec<String> = if reverse {
                self.redges
                    .get(&cur)
                    .map(|s| s.iter().cloned().collect())
                    .unwrap_or_default()
            } else {
                self.edges
                    .get(&cur)
                    .map(|m| m.keys().cloned().collect())
                    .unwrap_or_default()
            };
            for n in next {
                if seen.insert(n.clone()) {
                    parent.insert(n.clone(), cur.clone());
                    queue.push_back(n);
                }
            }
        }
        None
    }

    /// Render one path as the diagnostic chain
    /// `a::f (file:line) → b::g (file:line) → …`.
    pub fn render_chain(&self, path: &[String]) -> String {
        path.iter()
            .map(|q| match self.nodes.get(q) {
                Some(site) => format!("{q} ({}:{})", site.file, site.line),
                None => q.clone(),
            })
            .collect::<Vec<_>>()
            .join(" \u{2192} ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::summarize_file;

    fn files() -> Vec<FileSummary> {
        vec![
            summarize_file(
                "crates/a/src/lib.rs",
                "xps_a",
                "use xps_b::helper;\n\
                 pub fn top() { helper(); }\n",
            ),
            summarize_file(
                "crates/b/src/lib.rs",
                "xps_b",
                "pub fn helper() { crate::deep::emit(); }\n\
                 pub mod deep { pub fn emit() {} }\n",
            ),
        ]
    }

    #[test]
    fn cross_crate_edges_resolve_through_imports_and_crate_paths() {
        let fs = files();
        let g = build(&fs);
        assert!(g.nodes.contains_key("xps_a::top"));
        assert!(g.nodes.contains_key("xps_b::helper"));
        assert!(g.nodes.contains_key("xps_b::deep::emit"));
        assert!(g.edges["xps_a::top"].contains_key("xps_b::helper"));
        assert!(g.edges["xps_b::helper"].contains_key("xps_b::deep::emit"));
    }

    #[test]
    fn shortest_paths_are_deterministic_and_render_with_sites() {
        let fs = files();
        let g = build(&fs);
        let targets: BTreeSet<String> = ["xps_b::deep::emit".to_string()].into();
        let p = g.shortest_path_to("xps_a::top", &targets).expect("path");
        assert_eq!(p, vec!["xps_a::top", "xps_b::helper", "xps_b::deep::emit"]);
        let chain = g.render_chain(&p);
        assert!(
            chain.contains("xps_a::top (crates/a/src/lib.rs:2)"),
            "{chain}"
        );
        assert!(chain.contains(" \u{2192} "), "{chain}");
        // Reverse search returns the same chain in forward order.
        let sinks: BTreeSet<String> = ["xps_a::top".to_string()].into();
        let rp = g
            .shortest_path_from_any("xps_b::deep::emit", &sinks)
            .expect("reverse path");
        assert_eq!(rp, p);
    }

    #[test]
    fn test_fns_stay_out_of_the_graph() {
        let fs = vec![summarize_file(
            "crates/a/src/lib.rs",
            "xps_a",
            "#[cfg(test)]\nmod tests {\n    fn probe() {}\n}\npub fn real() {}\n",
        )];
        let g = build(&fs);
        assert!(g.nodes.contains_key("xps_a::real"));
        assert!(
            !g.nodes.keys().any(|q| q.contains("probe")),
            "{:?}",
            g.nodes
        );
    }
}
