//! Item-level parsing: one lossless token stream in, one owned
//! [`FileSummary`] out.
//!
//! This is deliberately *not* a Rust grammar. The semantic passes
//! ([`crate::taint`], [`crate::locks`]) need exactly five things per
//! file — module structure, `use` trees, fn signatures with their
//! bodies' call expressions, determinism source/sink marks, and lock
//! acquisitions with guard extents — and all five fall out of a
//! single forward walk over the significant tokens with brace
//! matching. No expression grammar, no types, no macros expanded.
//!
//! Everything produced here is owned (`String`, not `&str`), so a
//! summary outlives the token stream it was built from.

use crate::diag::Finding;
use crate::lexer::lex;
use crate::rules::{self, FileCtx};

/// An `xps-allow` with its textual-pass usage already decided.
/// Whether it is *stale* is decided only after the semantic passes
/// have had their chance to use it.
#[derive(Debug)]
pub struct SuppressionState {
    /// Rule id the allow names.
    pub rule: String,
    /// Line the allow sits on.
    pub line: u32,
    /// Did the per-file textual pass consume it?
    pub used_by_textual: bool,
}

/// One expanded `use` entry: `alias` names `path` in this file.
#[derive(Debug)]
pub struct Import {
    /// Local name the import binds (`as` alias or last segment).
    pub alias: String,
    /// Full path segments, `crate`/`self`/`super` already resolved
    /// against the owning module.
    pub path: Vec<String>,
    /// A `use path::*;` glob (alias is `*`).
    pub glob: bool,
}

/// What kind of guard a lock acquisition produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `.lock()` — always a Mutex acquisition.
    Lock,
    /// `.read()` — an RwLock acquisition *iff* the receiver is a
    /// declared RwLock name (the filter lives in [`crate::locks`]).
    Read,
    /// `.write()` — same filter as [`LockKind::Read`].
    Write,
}

impl LockKind {
    /// The method name that produced this kind.
    pub fn method(self) -> &'static str {
        match self {
            LockKind::Lock => "lock",
            LockKind::Read => "read",
            LockKind::Write => "write",
        }
    }
}

/// One lock acquisition and the extent its guard stays live.
#[derive(Debug)]
pub struct LockAcq {
    /// Receiver name: a field/local ident, or `f()` for a
    /// call-returned lock (`self.campaign_lock(id).lock()`).
    pub name: String,
    /// The local the guard is `let`-bound to, when it is (`let mut
    /// state = self.state.lock()` → `state`). Condvar waits name this
    /// binding to hand the guard back.
    pub bound: Option<String>,
    /// Which method acquired it.
    pub kind: LockKind,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// 1-based column of the acquisition.
    pub col: u32,
    /// Significant-token index of the acquisition site.
    pub tok: u32,
    /// Guard liveness as a half-open significant-token range
    /// `(tok, guard_end]`: bound guards run to the enclosing block
    /// close (or an explicit `drop(name)`), temporaries to the end of
    /// their statement.
    pub guard_end: u32,
}

/// A call expression inside a fn body.
#[derive(Debug)]
pub struct Call {
    /// Path segments for `a::b::f(…)` calls; empty for method calls.
    pub path: Vec<String>,
    /// Method name for `recv.m(…)` calls.
    pub method: Option<String>,
    /// Receiver name for method calls, where recoverable.
    pub recv: Option<String>,
    /// 1-based line of the call.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Significant-token index (for guard-range containment).
    pub tok: u32,
}

/// A determinism source or sink site inside a fn body.
#[derive(Debug)]
pub struct Mark {
    /// Human-readable description of the site (`Instant::now()`,
    /// `unordered iteration over jobs`, `println!`, …).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// A potentially-blocking operation inside a fn body.
#[derive(Debug)]
pub struct Blocking {
    /// The operation (`recv`, `join`, `sleep`, …).
    pub what: String,
    /// For condvar `wait`/`wait_timeout`: the guard ident passed in —
    /// that lock is atomically *released* for the duration of the
    /// wait, so it is exempt from the held-while-blocking check.
    pub released: Option<String>,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Significant-token index (for guard-range containment).
    pub tok: u32,
}

/// Everything the semantic passes need to know about one fn.
#[derive(Debug)]
pub struct FnSummary {
    /// Fn name.
    pub name: String,
    /// `Self` type when the fn sits in an `impl` block.
    pub self_ty: Option<String>,
    /// In-file module path (`mod a { mod b { … } }` → `["a","b"]`),
    /// appended to the file's own module path.
    pub module: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Under `#[test]`/`#[cfg(test)]` — excluded from the graph.
    pub is_test: bool,
    /// Every call expression in the body.
    pub calls: Vec<Call>,
    /// Determinism sources (wall clock, entropy, hash iteration).
    pub sources: Vec<Mark>,
    /// Serialized-output sinks (`println!`, `write_atomic`,
    /// `serde_json::to_string*`, `.to_value()`).
    pub sinks: Vec<Mark>,
    /// Lock acquisitions with guard extents.
    pub locks: Vec<LockAcq>,
    /// Blocking operations.
    pub blocking: Vec<Blocking>,
}

/// The owned analysis summary of one source file.
#[derive(Debug)]
pub struct FileSummary {
    /// Workspace-relative path.
    pub relpath: String,
    /// Lib-ident of the owning crate (`xps_serve`).
    pub crate_name: String,
    /// Module path of the file within its crate.
    pub module: Vec<String>,
    /// Expanded `use` entries.
    pub imports: Vec<Import>,
    /// Every fn item.
    pub fns: Vec<FnSummary>,
    /// Names declared with an `RwLock` type in this file.
    pub rwlock_names: Vec<String>,
    /// Every `xps-allow` with textual usage decided.
    pub suppressions: Vec<SuppressionState>,
    /// Unsuppressed findings of the per-file textual pass.
    pub textual: Vec<Finding>,
}

/// Idents that draw from ambient entropy (taint sources anywhere,
/// not just the generator crates).
const ENTROPY_TOKENS: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Methods that iterate a hash-ordered container in its (unordered)
/// internal order.
const HASH_ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Tokens that make a hash-iteration statement order-independent:
/// explicit sorts, order-erasing reductions, re-keying into ordered
/// containers, and point lookups/mutations that never observe
/// iteration order at all.
const ORDER_EXEMPT_TOKENS: [&str; 29] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sum",
    "product",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "count",
    "fold",
    "len",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "get",
    "get_mut",
    "extend",
    "retain",
    "any",
    "all",
];

/// Methods that block the calling thread (flagged while a guard is
/// live). `write_all`/`flush` are deliberately absent: journal writes
/// under the campaign lock are the serve engine's intended design.
const BLOCKING_METHODS: [&str; 11] = [
    "recv",
    "recv_timeout",
    "accept",
    "connect",
    "connect_timeout",
    "wait",
    "wait_timeout",
    "sleep",
    "park",
    "read_to_end",
    "read_to_string",
];

/// Keywords that can start a statement but never name a call.
const KEYWORDS: [&str; 30] = [
    "if", "else", "while", "for", "loop", "match", "return", "let", "fn", "pub", "mod", "use",
    "impl", "struct", "enum", "trait", "const", "static", "mut", "ref", "move", "in", "as",
    "break", "continue", "where", "unsafe", "dyn", "type", "await",
];

/// Summarize one file: lex, run the textual rule pass, and extract
/// the item/call/lock structure the semantic passes consume.
pub fn summarize_file(relpath: &str, crate_name: &str, src: &str) -> FileSummary {
    let tokens = lex(src);
    let ctx = rules::file_ctx(relpath, &tokens);
    let textual = rules::lint_file_raw(&ctx);
    let suppressions = ctx
        .suppressions
        .iter()
        .map(|s| SuppressionState {
            rule: s.rule.clone(),
            line: s.line,
            used_by_textual: s.used.get(),
        })
        .collect();
    let module = module_path(relpath);
    let mut summary = FileSummary {
        relpath: relpath.to_string(),
        crate_name: crate_name.to_string(),
        module,
        imports: Vec::new(),
        fns: Vec::new(),
        rwlock_names: Vec::new(),
        suppressions,
        textual,
    };
    let hash_names = collect_typed_names(&ctx, &["HashMap", "HashSet"]);
    summary.rwlock_names = collect_typed_names(&ctx, &["RwLock"]);
    parse_items(&ctx, &hash_names, &mut summary);
    summary
}

/// The module path a file occupies within its crate, derived from its
/// workspace-relative path: `crates/serve/src/client.rs` → `[client]`,
/// `src/bin/repro.rs` → `[bin, repro]`, `tests/daemon.rs` →
/// `[tests, daemon]`. Hyphens become underscores (binary names).
pub fn module_path(relpath: &str) -> Vec<String> {
    let comps: Vec<&str> = relpath.split('/').collect();
    // Everything after `src/`, or after the crate dir for tests/
    // benches/examples trees.
    let tail: &[&str] = if let Some(src) = comps.iter().position(|&c| c == "src") {
        &comps[src + 1..]
    } else if let Some(t) = comps
        .iter()
        .position(|&c| matches!(c, "tests" | "benches" | "examples"))
    {
        &comps[t..]
    } else {
        &comps[..]
    };
    let mut out = Vec::new();
    for (i, c) in tail.iter().enumerate() {
        let last = i + 1 == tail.len();
        if last {
            let stem = c.strip_suffix(".rs").unwrap_or(c);
            if stem != "lib" && stem != "mod" && stem != "main" {
                out.push(stem.replace('-', "_"));
            }
        } else {
            out.push(c.replace('-', "_"));
        }
    }
    out
}

/// Names declared anywhere in the file with a type mentioning one of
/// `type_names` — struct fields (`name: Arc<Mutex<…>>`), statics, and
/// annotated lets — plus, for hash containers, `let name =
/// HashMap::new()`-style initializations.
fn collect_typed_names(ctx: &FileCtx<'_>, type_names: &[&str]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for i in 0..ctx.len() {
        // `name :` followed by a type span mentioning the target.
        if ctx.tok(i).is_some_and(|t| is_ident(t.text()))
            && ctx.is(i + 1, ":")
            && !ctx.is(i + 2, ":")
            && !ctx.is(i.wrapping_sub(1), ":")
        {
            let mut depth = 0i32;
            let mut j = i + 2;
            while let Some(t) = ctx.tok(j) {
                match t.text() {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    "," | ";" | "=" | "{" | "}" if depth == 0 => break,
                    text if type_names.contains(&text) => {
                        names.push(ctx.tok(i).map(|t| t.text().to_string()).unwrap_or_default());
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // `let [mut] name = HashMap::new()` / `with_capacity` /
        // `default`.
        if ctx.tok(i).is_some_and(|t| type_names.contains(&t.text()))
            && ctx.is(i + 1, ":")
            && ctx.is(i + 2, ":")
            && ctx
                .tok(i + 3)
                .is_some_and(|t| matches!(t.text(), "new" | "with_capacity" | "default"))
            && ctx.is(i.wrapping_sub(1), "=")
        {
            let mut k = i.wrapping_sub(2);
            // Skip back over a `: Type` annotation if present.
            while k > 0 && !ctx.is(k.wrapping_sub(1), "let") && !ctx.is(k, "let") {
                if ctx.tok(k).is_some_and(|t| is_ident(t.text()))
                    && (ctx.is(k.wrapping_sub(1), "let") || ctx.is(k.wrapping_sub(1), "mut"))
                {
                    break;
                }
                if k == 0 {
                    break;
                }
                k -= 1;
            }
            if let Some(t) = ctx.tok(k) {
                if is_ident(t.text()) {
                    names.push(t.text().to_string());
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        && !KEYWORDS.contains(&s)
        && s != "self"
        && s != "Self"
        && s != "super"
        && s != "crate"
}

/// One item scope on the stack during the walk.
enum Scope {
    Mod(String, usize),
    Impl(Option<String>, usize),
}

impl Scope {
    fn close(&self) -> usize {
        match self {
            Scope::Mod(_, c) | Scope::Impl(_, c) => *c,
        }
    }
}

/// The single forward walk: items (mod/impl/use/fn) at any nesting
/// depth, fn bodies scanned for calls/marks/locks on the spot.
fn parse_items(ctx: &FileCtx<'_>, hash_names: &[String], out: &mut FileSummary) {
    let mut stack: Vec<Scope> = Vec::new();
    let mut i = 0usize;
    while i < ctx.len() {
        while stack.last().is_some_and(|s| i > s.close()) {
            stack.pop();
        }
        if ctx.is(i, "mod") && ctx.tok(i + 1).is_some_and(|t| is_ident(t.text())) {
            if ctx.is(i + 2, "{") {
                let name = ctx
                    .tok(i + 1)
                    .map(|t| t.text().to_string())
                    .unwrap_or_default();
                stack.push(Scope::Mod(name, ctx.matching_close(i + 2)));
                i += 3;
            } else {
                i += 2; // `mod x;` — the target file is walked separately.
            }
            continue;
        }
        if ctx.is(i, "impl") {
            let mut j = i + 1;
            while j < ctx.len() && !ctx.is(j, "{") && !ctx.is(j, ";") {
                j += 1;
            }
            if ctx.is(j, "{") {
                stack.push(Scope::Impl(impl_self_ty(ctx, i, j), ctx.matching_close(j)));
                i = j + 1;
            } else {
                i = j + 1;
            }
            continue;
        }
        if ctx.is(i, "use") && !ctx.is(i.wrapping_sub(1), ":") {
            i = parse_use(ctx, i + 1, &module_of(&stack, out), out);
            continue;
        }
        if ctx.is(i, "fn") && ctx.tok(i + 1).is_some_and(|t| is_ident(t.text())) {
            let Some((name, line, col)) = ctx
                .tok(i + 1)
                .map(|t| (t.text().to_string(), t.line(), t.col()))
            else {
                i += 1;
                continue;
            };
            let mut j = i + 2;
            while j < ctx.len() && !ctx.is(j, "{") && !ctx.is(j, ";") {
                j += 1;
            }
            if ctx.is(j, "{") {
                let close = ctx.matching_close(j);
                let mut f = FnSummary {
                    name,
                    self_ty: stack
                        .iter()
                        .rev()
                        .find_map(|s| match s {
                            Scope::Impl(ty, _) => Some(ty.clone()),
                            Scope::Mod(..) => None,
                        })
                        .flatten(),
                    module: module_of(&stack, out),
                    line,
                    col,
                    is_test: ctx.in_test(i),
                    calls: Vec::new(),
                    sources: Vec::new(),
                    sinks: Vec::new(),
                    locks: Vec::new(),
                    blocking: Vec::new(),
                };
                scan_body(ctx, j, close, hash_names, &mut f);
                out.fns.push(f);
                i = close + 1;
            } else {
                i = j + 1; // trait method declaration
            }
            continue;
        }
        i += 1;
    }
}

fn module_of(stack: &[Scope], file: &FileSummary) -> Vec<String> {
    let mut m = file.module.clone();
    for s in stack {
        if let Scope::Mod(name, _) = s {
            m.push(name.clone());
        }
    }
    m
}

/// The `Self` type of an `impl` header: the first type ident after
/// `for` if present, else the first type ident after the generics.
fn impl_self_ty(ctx: &FileCtx<'_>, start: usize, open: usize) -> Option<String> {
    let range: Vec<usize> = (start + 1..open).collect();
    let mut depth = 0i32;
    let mut after_for: Option<String> = None;
    let mut first: Option<String> = None;
    let mut saw_for = false;
    for &k in &range {
        let Some(t) = ctx.tok(k) else { continue };
        match t.text() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "for" if depth == 0 => saw_for = true,
            "where" if depth == 0 => break,
            text if depth == 0 && is_ident(text) => {
                if saw_for {
                    if after_for.is_none() {
                        after_for = Some(text.to_string());
                    }
                } else if first.is_none() {
                    first = Some(text.to_string());
                }
            }
            _ => {}
        }
    }
    after_for.or(first)
}

/// Parse one `use` tree starting after the `use` keyword; returns the
/// index after the terminating `;`. Prefixes `crate`/`self`/`super`
/// resolve against the owning module.
fn parse_use(ctx: &FileCtx<'_>, start: usize, module: &[String], out: &mut FileSummary) -> usize {
    let mut end = start;
    while end < ctx.len() && !ctx.is(end, ";") {
        end += 1;
    }
    let mut prefix: Vec<String> = Vec::new();
    collect_use_tree(ctx, start, end, &mut prefix, module, out);
    end + 1
}

fn resolve_prefix(seg: &str, module: &[String], out: &FileSummary) -> Vec<String> {
    match seg {
        "crate" => vec![out.crate_name.clone()],
        "self" => {
            let mut p = vec![out.crate_name.clone()];
            p.extend(module.iter().cloned());
            p
        }
        "super" => {
            let mut p = vec![out.crate_name.clone()];
            p.extend(module.iter().cloned());
            p.pop();
            p
        }
        other => vec![other.to_string()],
    }
}

/// Walk the token slice of one use (sub)tree, appending imports.
fn collect_use_tree(
    ctx: &FileCtx<'_>,
    mut i: usize,
    end: usize,
    prefix: &mut Vec<String>,
    module: &[String],
    out: &mut FileSummary,
) {
    let base_len = prefix.len();
    while i < end {
        let Some(t) = ctx.tok(i) else { break };
        match t.text() {
            "{" => {
                // Each comma-separated subtree restarts from the
                // current prefix.
                let close = ctx.matching_close(i).min(end);
                let mut j = i + 1;
                while j < close {
                    let mut depth = 0i32;
                    let mut k = j;
                    while k < close {
                        match ctx.tok(k).map(|t| t.text()) {
                            Some("{") => depth += 1,
                            Some("}") => depth -= 1,
                            Some(",") if depth == 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    let mut sub = prefix.clone();
                    collect_use_tree(ctx, j, k, &mut sub, module, out);
                    j = k + 1;
                }
                prefix.truncate(base_len);
                return;
            }
            "*" => {
                out.imports.push(Import {
                    alias: "*".to_string(),
                    path: prefix.clone(),
                    glob: true,
                });
                prefix.truncate(base_len);
                return;
            }
            ":" => {
                i += 1; // half of `::`
            }
            "as" => {
                if let Some(a) = ctx.tok(i + 1) {
                    out.imports.push(Import {
                        alias: a.text().to_string(),
                        path: prefix.clone(),
                        glob: false,
                    });
                }
                prefix.truncate(base_len);
                return;
            }
            "," | "pub" => {
                i += 1;
            }
            seg => {
                if prefix.len() == base_len && base_len == 0 {
                    prefix.extend(resolve_prefix(seg, module, out));
                } else {
                    prefix.push(seg.to_string());
                }
                i += 1;
            }
        }
    }
    // Tree ended on a plain segment: alias = last segment.
    if prefix.len() > base_len || (base_len > 0 && prefix.len() == base_len) {
        if let Some(last) = prefix.last().cloned() {
            out.imports.push(Import {
                alias: last,
                path: prefix.clone(),
                glob: false,
            });
        }
    }
    prefix.truncate(base_len);
}

/// Scan one fn body `(open, close)` for calls, determinism marks,
/// lock acquisitions, and blocking operations.
fn scan_body(
    ctx: &FileCtx<'_>,
    open: usize,
    close: usize,
    hash_names: &[String],
    f: &mut FnSummary,
) {
    let mut k = open + 1;
    while k < close {
        let Some(t) = ctx.tok(k) else { break };
        let (line, col) = (t.line(), t.col());
        // Macro invocation: `name ! (`.
        if is_ident(t.text()) && ctx.is(k + 1, "!") {
            if matches!(t.text(), "println" | "print") {
                f.sinks.push(Mark {
                    what: format!("{}!", t.text()),
                    line,
                    col,
                });
            }
            k += 2;
            continue;
        }
        // Ambient entropy idents are sources wherever they appear.
        if ENTROPY_TOKENS.contains(&t.text()) {
            f.sources.push(Mark {
                what: format!("`{}` (ambient entropy)", t.text()),
                line,
                col,
            });
            k += 1;
            continue;
        }
        // Path or bare call: IDENT (:: IDENT)* [::<…>] (
        if (is_ident(t.text()) || matches!(t.text(), "self" | "Self" | "crate" | "super"))
            && !ctx.is(k.wrapping_sub(1), ".")
            && !ctx.is(k.wrapping_sub(1), "fn")
            && !(ctx.is(k.wrapping_sub(1), ":") && ctx.is(k.wrapping_sub(2), ":"))
        {
            let mut segs = vec![t.text().to_string()];
            let mut j = k + 1;
            while ctx.is(j, ":") && ctx.is(j + 1, ":") {
                if ctx.is(j + 2, "<") {
                    // turbofish: skip to the matching `>`
                    let mut depth = 0i32;
                    let mut m = j + 2;
                    while m < close {
                        match ctx.tok(m).map(|t| t.text()) {
                            Some("<") => depth += 1,
                            Some(">") => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    j = m + 1;
                    break;
                }
                match ctx.tok(j + 2) {
                    Some(s) if is_ident(s.text()) || matches!(s.text(), "self" | "Self") => {
                        segs.push(s.text().to_string());
                        j += 3;
                    }
                    _ => break,
                }
            }
            if ctx.is(j, "(") {
                if segs.len() > 1 || is_ident(&segs[0]) {
                    record_path_call(ctx, k, &segs, line, col, hash_names, f);
                }
                k = j + 1;
                continue;
            }
        }
        // Method call: `. IDENT (`.
        if t.text() == "."
            && ctx.tok(k + 1).is_some_and(|m| is_ident(m.text()))
            && ctx.is(k + 2, "(")
        {
            let m = ctx
                .tok(k + 1)
                .map(|t| t.text().to_string())
                .unwrap_or_default();
            let (mline, mcol) = ctx
                .tok(k + 1)
                .map(|t| (t.line(), t.col()))
                .unwrap_or((line, col));
            let recv = receiver_name(ctx, k);
            record_method_call(ctx, open, close, k, &m, recv, mline, mcol, hash_names, f);
            k += 3;
            continue;
        }
        // `for PAT in <hash> {` — iteration in hash order.
        if t.text() == "for" {
            let mut j = k + 1;
            while j < close && !ctx.is(j, "in") {
                j += 1;
            }
            let mut h = j + 1;
            while h < close && !ctx.is(h, "{") {
                if let Some(ht) = ctx.tok(h) {
                    // Direct iteration only (`in &s.jobs {`): a
                    // `.iter()`-style header is marked by the
                    // method-call path instead.
                    if hash_names.contains(&ht.text().to_string())
                        && !ctx.is(h + 1, ".")
                        && !span_is_order_exempt(ctx, h)
                    {
                        f.sources.push(Mark {
                            what: format!("iteration over `{}` in hash order", ht.text()),
                            line: ht.line(),
                            col: ht.col(),
                        });
                        break;
                    }
                }
                h += 1;
            }
        }
        k += 1;
    }
}

/// Does the statement around token `i` neutralize iteration order
/// (sort, reduction, re-keying into an ordered container, point
/// lookup)?
fn span_is_order_exempt(ctx: &FileCtx<'_>, i: usize) -> bool {
    let span = rules::statement_span(ctx, i);
    if span.clone().any(|k| {
        ctx.tok(k)
            .is_some_and(|t| ORDER_EXEMPT_TOKENS.contains(&t.text()))
    }) {
        return true;
    }
    // Collect-then-sort: `let NAME = <hash>.iter()….collect(); NAME.sort…();`
    // normalizes the order before anything observes it.
    if ctx.is(span.start, "let") {
        let mut n = span.start + 1;
        if ctx.is(n, "mut") {
            n += 1;
        }
        if let Some(name) = ctx.tok(n).map(|t| t.text().to_string()) {
            if ctx.is(span.end, &name)
                && ctx.is(span.end + 1, ".")
                && ctx
                    .tok(span.end + 2)
                    .is_some_and(|t| t.text().starts_with("sort"))
            {
                return true;
            }
        }
    }
    false
}

/// Record a resolved-path (or bare-ident) call plus any source/sink/
/// blocking classification it implies.
fn record_path_call(
    ctx: &FileCtx<'_>,
    k: usize,
    segs: &[String],
    line: u32,
    col: u32,
    _hash_names: &[String],
    f: &mut FnSummary,
) {
    let n = segs.len();
    let last = segs[n - 1].as_str();
    // Wall-clock sources (outside test regions — test fns are dropped
    // from the graph anyway, but marks inside `#[cfg(test)]` blocks of
    // lib files must not taint the enclosing file).
    if last == "now"
        && n >= 2
        && matches!(segs[n - 2].as_str(), "Instant" | "SystemTime")
        && !ctx.in_test(k)
    {
        f.sources.push(Mark {
            what: format!("`{}::now()` (wall clock)", segs[n - 2]),
            line,
            col,
        });
    }
    // Serialization sinks.
    if n >= 2
        && segs[n - 2] == "serde_json"
        && matches!(last, "to_string" | "to_string_pretty" | "to_writer")
    {
        f.sinks.push(Mark {
            what: format!("serde_json::{last}"),
            line,
            col,
        });
    }
    if last == "write_atomic" {
        f.sinks.push(Mark {
            what: "write_atomic".to_string(),
            line,
            col,
        });
    }
    // Blocking free functions (`thread::sleep`, `park`, …).
    if BLOCKING_METHODS.contains(&last) {
        f.blocking.push(Blocking {
            what: last.to_string(),
            released: None,
            line,
            col,
            tok: k as u32,
        });
    }
    f.calls.push(Call {
        path: segs.to_vec(),
        method: None,
        recv: None,
        line,
        col,
        tok: k as u32,
    });
}

/// Record a `.m(…)` call plus lock/blocking/iteration classification.
#[allow(
    clippy::too_many_arguments,
    reason = "one call site's position, receiver and classification inputs; a struct for them would serve this one caller"
)]
fn record_method_call(
    ctx: &FileCtx<'_>,
    open: usize,
    close: usize,
    k: usize,
    m: &str,
    recv: Option<String>,
    line: u32,
    col: u32,
    hash_names: &[String],
    f: &mut FnSummary,
) {
    // Lock acquisitions.
    let lock_kind = match m {
        "lock" => Some(LockKind::Lock),
        "read" => Some(LockKind::Read),
        "write" => Some(LockKind::Write),
        _ => None,
    };
    if let (Some(kind), Some(name)) = (lock_kind, recv.clone()) {
        let (end, bound) = guard_extent(ctx, open, close, k);
        f.locks.push(LockAcq {
            name,
            bound,
            kind,
            line,
            col,
            tok: k as u32,
            guard_end: end as u32,
        });
    }
    // Blocking methods; `.join()` only with zero args (thread join,
    // not `Path::join(seg)`).
    if BLOCKING_METHODS.contains(&m) || (m == "join" && ctx.is(k + 3, ")")) {
        // `cv.wait_timeout(guard, …)` releases `guard` while waiting.
        let released = if matches!(m, "wait" | "wait_timeout") {
            ctx.tok(k + 3)
                .filter(|t| is_ident(t.text()))
                .map(|t| t.text().to_string())
        } else {
            None
        };
        f.blocking.push(Blocking {
            what: m.to_string(),
            released,
            line,
            col,
            tok: k as u32,
        });
    }
    // Hash-order iteration.
    if HASH_ITER_METHODS.contains(&m) {
        if let Some(name) = &recv {
            if hash_names.contains(name) && !span_is_order_exempt(ctx, k) && !ctx.in_test(k) {
                f.sources.push(Mark {
                    what: format!("iteration over `{name}` in hash order"),
                    line,
                    col,
                });
            }
        }
    }
    // Serialization sinks.
    if matches!(m, "to_value" | "serialize") {
        f.sinks.push(Mark {
            what: format!(".{m}()"),
            line,
            col,
        });
    }
    f.calls.push(Call {
        path: Vec::new(),
        method: Some(m.to_string()),
        recv,
        line,
        col,
        tok: k as u32,
    });
}

/// The receiver name of the method call whose `.` sits at `dot`:
/// the ident before the dot (skipping one level of `self.`), `f()`
/// for a call-returned receiver, or the indexed base for `x[i]`.
fn receiver_name(ctx: &FileCtx<'_>, dot: usize) -> Option<String> {
    let before = dot.checked_sub(1)?;
    let t = ctx.tok(before)?;
    if is_ident(t.text()) {
        return Some(t.text().to_string());
    }
    if t.text() == "self" {
        return Some("self".to_string());
    }
    if t.text() == ")" || t.text() == "]" {
        let (open_s, close_s) = if t.text() == ")" {
            ("(", ")")
        } else {
            ("[", "]")
        };
        let mut depth = 0i32;
        let mut j = before;
        loop {
            let tj = ctx.tok(j)?;
            if tj.text() == close_s {
                depth += 1;
            } else if tj.text() == open_s {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j = j.checked_sub(1)?;
        }
        let base = ctx.tok(j.checked_sub(1)?)?;
        if is_ident(base.text()) {
            return if t.text() == ")" {
                Some(format!("{}()", base.text()))
            } else {
                Some(base.text().to_string())
            };
        }
    }
    None
}

/// Where the guard produced by the acquisition at `dot` dies, plus
/// its `let`-bound name when it has one:
/// * `let NAME = …` — the enclosing block's close, or an explicit
///   `drop(NAME)` before it;
/// * `let _ = …` / no binding — the end of the statement (temporary
///   guards drop at the semicolon).
fn guard_extent(
    ctx: &FileCtx<'_>,
    open: usize,
    close: usize,
    dot: usize,
) -> (usize, Option<String>) {
    let stmt = rules::statement_span(ctx, dot);
    let bound_name: Option<String> = if ctx.is(stmt.start, "let") {
        let mut n = stmt.start + 1;
        if ctx.is(n, "mut") {
            n += 1;
        }
        match ctx.tok(n) {
            Some(t) if is_ident(t.text()) => Some(t.text().to_string()),
            _ => None,
        }
    } else {
        None
    };
    match bound_name.clone() {
        Some(name) => {
            // Innermost block enclosing the acquisition.
            let mut stack: Vec<usize> = Vec::new();
            let mut j = open;
            while j < dot {
                if ctx.is(j, "{") {
                    stack.push(ctx.matching_close(j));
                } else if ctx.is(j, "}") {
                    stack.pop();
                }
                j += 1;
            }
            let block_close = stack.last().copied().unwrap_or(close);
            // An explicit `drop(name)` ends the guard early.
            for d in dot..block_close {
                if ctx.is(d, "drop")
                    && ctx.is(d + 1, "(")
                    && ctx.is(d + 2, &name)
                    && ctx.is(d + 3, ")")
                {
                    return (d + 3, bound_name);
                }
            }
            (block_close, bound_name)
        }
        // Temporary guard: dead at the statement's own terminator
        // (the token *before* `stmt.end`, which is exclusive).
        None => (stmt.end.saturating_sub(1).min(close), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summarize(src: &str) -> FileSummary {
        summarize_file("crates/x/src/lib.rs", "xps_x", src)
    }

    #[test]
    fn fn_items_carry_module_and_impl_context() {
        let s = summarize(
            "mod inner {\n\
                 struct Engine;\n\
                 impl Engine {\n\
                     fn run(&self) { helper(); }\n\
                 }\n\
                 fn helper() {}\n\
             }\n",
        );
        let names: Vec<(String, Option<String>, Vec<String>)> = s
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.self_ty.clone(), f.module.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                (
                    "run".to_string(),
                    Some("Engine".to_string()),
                    vec!["inner".to_string()]
                ),
                ("helper".to_string(), None, vec!["inner".to_string()]),
            ]
        );
        assert_eq!(s.fns[0].calls.len(), 1);
        assert_eq!(s.fns[0].calls[0].path, vec!["helper".to_string()]);
    }

    #[test]
    fn use_trees_expand_groups_aliases_and_globs() {
        let s =
            summarize("use crate::a::{b, c as d, e::f};\nuse std::collections::*;\nfn g() {}\n");
        let have: Vec<(String, Vec<String>, bool)> = s
            .imports
            .iter()
            .map(|i| (i.alias.clone(), i.path.clone(), i.glob))
            .collect();
        assert_eq!(
            have,
            vec![
                (
                    "b".to_string(),
                    vec!["xps_x".into(), "a".into(), "b".into()],
                    false
                ),
                (
                    "d".to_string(),
                    vec!["xps_x".into(), "a".into(), "c".into()],
                    false
                ),
                (
                    "f".to_string(),
                    vec!["xps_x".into(), "a".into(), "e".into(), "f".into()],
                    false
                ),
                (
                    "*".to_string(),
                    vec!["std".into(), "collections".into()],
                    true
                ),
            ]
        );
    }

    #[test]
    fn sources_and_sinks_are_marked() {
        let s = summarize(
            "fn stamp() -> u64 { let t = SystemTime::now(); 0 }\n\
             fn emit(v: &V) { println!(\"{}\", serde_json::to_string(v)); }\n",
        );
        assert_eq!(s.fns[0].sources.len(), 1);
        assert!(s.fns[0].sources[0].what.contains("SystemTime::now"));
        let sinks: Vec<&str> = s.fns[1].sinks.iter().map(|m| m.what.as_str()).collect();
        assert_eq!(sinks, vec!["println!", "serde_json::to_string"]);
    }

    #[test]
    fn wallclock_in_test_region_is_not_a_source() {
        let s = summarize("#[cfg(test)]\nmod tests {\n    fn t() { let x = Instant::now(); }\n}\n");
        assert!(s.fns[0].is_test);
        assert!(s.fns[0].sources.is_empty());
    }

    #[test]
    fn hash_iteration_is_a_source_unless_order_exempt() {
        let s = summarize(
            "struct S { jobs: HashMap<String, u32> }\n\
             fn bad(s: &S) { for (k, v) in s.jobs.iter() { emit(k, v); } }\n\
             fn fine(s: &S) { let n: u32 = s.jobs.values().sum(); }\n\
             fn rekey(s: &S) { let m: BTreeMap<_, _> = s.jobs.iter().collect(); }\n\
             fn norm(s: &S) {\n\
                 let mut ids: Vec<&String> = s.jobs.values().map(|j| &j.id).collect();\n\
                 ids.sort();\n\
             }\n",
        );
        assert_eq!(s.fns[0].sources.len(), 1, "{:?}", s.fns[0].sources);
        assert!(s.fns[0].sources[0].what.contains("jobs"));
        assert!(s.fns[1].sources.is_empty(), "{:?}", s.fns[1].sources);
        assert!(s.fns[2].sources.is_empty(), "{:?}", s.fns[2].sources);
        // Collect-then-sort normalizes the order before use.
        assert!(s.fns[3].sources.is_empty(), "{:?}", s.fns[3].sources);
    }

    #[test]
    fn lock_guard_extends_to_block_close_for_bound_guards() {
        let s = summarize(
            "struct S { state: Mutex<u32> }\n\
             fn f(s: &S) {\n\
                 let g = s.state.lock();\n\
                 work();\n\
             }\n\
             fn h(s: &S) { s.state.lock(); tail(); }\n",
        );
        let bound = &s.fns[0].locks[0];
        assert_eq!(bound.name, "state");
        assert_eq!(bound.kind, LockKind::Lock);
        // `work()` falls inside the bound guard's range…
        let work_tok = s.fns[0]
            .calls
            .iter()
            .find(|c| c.path == ["work"])
            .unwrap()
            .tok;
        assert!((bound.tok..=bound.guard_end).contains(&work_tok));
        // …but `tail()` falls outside the temporary guard's.
        let temp = &s.fns[1].locks[0];
        let tail_tok = s.fns[1]
            .calls
            .iter()
            .find(|c| c.path == ["tail"])
            .unwrap()
            .tok;
        assert!(tail_tok > temp.guard_end);
    }

    #[test]
    fn drop_ends_a_bound_guard_early() {
        let s = summarize(
            "struct S { state: Mutex<u32> }\n\
             fn f(s: &S) {\n\
                 let g = s.state.lock();\n\
                 early();\n\
                 drop(g);\n\
                 late();\n\
             }\n",
        );
        let l = &s.fns[0].locks[0];
        let early = s.fns[0]
            .calls
            .iter()
            .find(|c| c.path == ["early"])
            .unwrap()
            .tok;
        let late = s.fns[0]
            .calls
            .iter()
            .find(|c| c.path == ["late"])
            .unwrap()
            .tok;
        assert!(early <= l.guard_end && late > l.guard_end);
    }

    #[test]
    fn call_returned_receiver_gets_pseudo_name() {
        let s = summarize("fn f(e: &Engine) { let g = e.campaign_lock(id).lock(); }\n");
        assert_eq!(s.fns[0].locks[0].name, "campaign_lock()");
    }

    #[test]
    fn join_is_blocking_only_with_zero_args() {
        let s = summarize("fn f(h: Handle, p: &Path) { h.join(); let q = p.join(\"x\"); }\n");
        let what: Vec<&str> = s.fns[0].blocking.iter().map(|b| b.what.as_str()).collect();
        assert_eq!(what, vec!["join"]);
    }

    #[test]
    fn rwlock_names_are_collected() {
        let s =
            summarize("struct S { table: Arc<RwLock<Vec<u32>>>, plain: Mutex<u32> }\nfn f() {}\n");
        assert_eq!(s.rwlock_names, vec!["table".to_string()]);
    }

    #[test]
    fn module_paths_from_relpaths() {
        assert!(module_path("crates/serve/src/lib.rs").is_empty());
        assert_eq!(module_path("crates/serve/src/client.rs"), vec!["client"]);
        assert_eq!(
            module_path("crates/bench/src/bin/repro.rs"),
            vec!["bin", "repro"]
        );
        assert_eq!(
            module_path("crates/serve/tests/daemon.rs"),
            vec!["tests", "daemon"]
        );
        assert_eq!(module_path("src/lib.rs"), Vec::<String>::new());
    }
}
