//! The lint-rule registry and the rules themselves.
//!
//! Each rule encodes an invariant this repository's guarantees already
//! depend on (bit-identical parallel output, byte-identical resume,
//! checksummed atomic persistence) but which was previously enforced
//! only by convention:
//!
//! | rule id | invariant |
//! |---------|-----------|
//! | `no-panic-in-worker` | worker closures stay inside the `catch_unwind` boundary |
//! | `no-alloc-in-sim-hot-path` | the cycle engine's per-op step stays free of hash lookups and heap allocation |
//! | `net-timeouts-and-bounded-retries` | outbound connections carry deadlines; retry loops are bounded |
//! | `malformed-suppression` | every `xps-allow` carries a rule id and a reason |
//!
//! Every rule reads library and binary code alike; the source walker
//! never hands it test, bench or example files. Rules that only match
//! a name are clippy's (see the crate docs).
//!
//! Two further rules — `determinism-provenance` and `lock-discipline`
//! — are *semantic*: they run over the cross-crate call graph built by
//! [`crate::parse`]/[`crate::graph`] rather than over one file's
//! tokens, and subsume the former textual determinism rules
//! (`no-wallclock-in-deterministic-paths`,
//! `no-unordered-iteration-to-output`). Their metadata lives in
//! [`semantic_rules`] so the catalog and the suppression validator see
//! one registry.
//!
//! Suppression: a finding on line *L* is suppressed by a comment
//! `// xps-allow(rule-id): reason` on line *L* or *L − 1*. The reason
//! is mandatory — an allow without one is itself a (deny) finding, so
//! the tree can never accumulate unexplained exemptions. Unused
//! suppressions are reported at warn severity.

use crate::diag::{Finding, Severity};
use crate::lexer::{Token, TokenKind};

/// One rule of the registry.
pub struct Rule {
    /// Stable id, used in diagnostics and `xps-allow`.
    pub id: &'static str,
    /// Deny fails the run; warn is advisory.
    pub severity: Severity,
    /// One-line description for the rule catalog.
    pub summary: &'static str,
    check: fn(&FileCtx<'_>, &Rule, &mut Vec<Finding>),
}

/// Every registered rule, in catalog order.
pub fn all_rules() -> Vec<Rule> {
    vec![
        Rule {
            id: "no-panic-in-worker",
            severity: Severity::Deny,
            summary: "panicking macros inside thread-spawn closures outside \
                      the catch_unwind boundary",
            check: check_panic_in_worker,
        },
        Rule {
            id: "no-alloc-in-sim-hot-path",
            severity: Severity::Deny,
            summary: "HashMap/HashSet access or heap allocation inside the cycle \
                      engine's per-op `fn step` (crates/sim/src/engine.rs)",
            check: check_sim_hot_path,
        },
        Rule {
            id: "net-timeouts-and-bounded-retries",
            severity: Severity::Deny,
            summary: "TcpStream::connect without a deadline, connections used \
                      without a read timeout, or infinite retry loops around \
                      network I/O",
            check: check_net_timeouts,
        },
    ]
}

/// Metadata of a whole-workspace semantic pass. Unlike a [`Rule`],
/// a semantic rule is not a per-file token check: it runs over the
/// cross-crate call graph ([`crate::taint`], [`crate::locks`]) and its
/// findings may cite chains spanning many files. It still shares the
/// suppression mechanism (an `xps-allow` at the finding's anchor
/// line) and the catalog.
pub struct SemanticRule {
    /// Stable id, used in diagnostics and `xps-allow`.
    pub id: &'static str,
    /// Deny fails the run; warn is advisory.
    pub severity: Severity,
    /// One-line description for the rule catalog.
    pub summary: &'static str,
}

/// The whole-workspace semantic passes, in catalog order.
pub fn semantic_rules() -> Vec<SemanticRule> {
    vec![
        SemanticRule {
            id: "determinism-provenance",
            severity: Severity::Deny,
            summary: "a wall-clock read, ambient entropy draw, or unordered \
                      HashMap/HashSet iteration connected to serialized output \
                      through the cross-crate call graph (diagnostic prints the \
                      full call chain)",
        },
        SemanticRule {
            id: "lock-discipline",
            severity: Severity::Deny,
            summary: "lock-order inversions (potential deadlock cycles) in the \
                      cross-crate lock-acquisition-order graph, and blocking \
                      operations (socket IO, recv, join, sleep) performed while \
                      a Mutex/RwLock guard is live",
        },
    ]
}

/// Rule ids that may appear in an `xps-allow`: the textual rules, the
/// semantic passes, and the artifact checker's ids (an artifact
/// fixture cannot carry Rust comments, but the id must still be
/// recognized as real when mentioned). Anything else in an allow is a
/// deny finding — an unknown id suppresses nothing and must not sit
/// in the tree looking like it does.
pub fn known_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = all_rules().iter().map(|r| r.id).collect();
    ids.extend(semantic_rules().iter().map(|r| r.id));
    ids.extend(crate::artifact::RULE_IDS);
    ids
}

/// The rule catalog as a markdown table: every textual rule, semantic
/// pass, artifact check, and meta rule, with severity and summary.
/// `xps-analyze --catalog` prints exactly this, and the committed
/// README/DESIGN sections are generated from it (CI diffs them).
pub fn catalog_markdown() -> String {
    fn squash(s: &str) -> String {
        s.split_whitespace().collect::<Vec<_>>().join(" ")
    }
    let mut out = String::from("| rule | severity | checks |\n|---|---|---|\n");
    for r in all_rules() {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            r.id,
            r.severity.label(),
            squash(r.summary)
        ));
    }
    for r in semantic_rules() {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            r.id,
            r.severity.label(),
            squash(r.summary)
        ));
    }
    for (id, summary) in crate::artifact::RULE_SUMMARIES {
        out.push_str(&format!("| `{id}` | deny | {} |\n", squash(summary)));
    }
    out.push_str(
        "| `malformed-suppression` | deny | an `xps-allow` without a rule id, naming an \
         unknown rule id, missing its mandatory reason, or hidden in a block comment |\n",
    );
    out.push_str(
        "| `unused-suppression` | warn | an `xps-allow` that no longer suppresses \
         anything on its own or the next line |\n",
    );
    out
}

/// A parsed `// xps-allow(rule-id): reason` comment.
#[derive(Debug, Clone)]
pub(crate) struct Suppression {
    pub(crate) rule: String,
    pub(crate) line: u32,
    pub(crate) used: std::cell::Cell<bool>,
}

/// A significant (non-whitespace, non-comment) token.
#[derive(Debug, Clone)]
pub struct Sig<'a> {
    pub(crate) kind: TokenKind,
    pub(crate) text: &'a str,
    pub(crate) line: u32,
    pub(crate) col: u32,
}

impl Sig<'_> {
    /// Classification of the token.
    pub fn kind(&self) -> TokenKind {
        self.kind
    }

    /// The exact source text of the token.
    pub fn text(&self) -> &str {
        self.text
    }

    /// 1-based line of the first byte.
    pub fn line(&self) -> u32 {
        self.line
    }

    /// 1-based byte column of the first byte.
    pub fn col(&self) -> u32 {
        self.col
    }
}

/// Everything a rule sees about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path used in diagnostics.
    pub relpath: String,
    pub(crate) sig: Vec<Sig<'a>>,
    /// Half-open significant-token ranges under `#[test]` /
    /// `#[cfg(test)]` items.
    pub(crate) test_regions: Vec<(usize, usize)>,
    pub(crate) suppressions: Vec<Suppression>,
    /// Findings produced while building the context (malformed
    /// suppressions).
    pub(crate) preflight: Vec<Finding>,
}

impl<'a> FileCtx<'a> {
    pub(crate) fn tok(&self, i: usize) -> Option<&Sig<'a>> {
        self.sig.get(i)
    }

    pub(crate) fn is(&self, i: usize, text: &str) -> bool {
        self.tok(i).is_some_and(|t| t.text == text)
    }

    /// Does the token sequence starting at `i` spell out `seq`
    /// (ignoring whitespace/comments, which are already stripped)?
    pub(crate) fn matches_seq(&self, i: usize, seq: &[&str]) -> bool {
        seq.iter().enumerate().all(|(k, s)| self.is(i + k, s))
    }

    pub(crate) fn in_test(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| (a..b).contains(&i))
    }

    /// Number of significant tokens.
    pub(crate) fn len(&self) -> usize {
        self.sig.len()
    }

    /// Index of the matching closer for the opener at `i` (which must
    /// be `(`, `[`, or `{`), or the end of the token stream.
    pub(crate) fn matching_close(&self, i: usize) -> usize {
        let (open, close) = match self.tok(i).map(|t| t.text) {
            Some("(") => ("(", ")"),
            Some("[") => ("[", "]"),
            Some("{") => ("{", "}"),
            _ => return i,
        };
        let mut depth = 0usize;
        for j in i..self.sig.len() {
            if self.is(j, open) {
                depth += 1;
            } else if self.is(j, close) {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
        }
        self.sig.len()
    }
}

/// Parse one file into a rule context: lex, strip insignificant
/// tokens, locate test regions, and collect suppressions.
pub fn file_ctx<'a>(relpath: &str, tokens: &[Token<'a>]) -> FileCtx<'a> {
    let mut ctx = FileCtx {
        relpath: relpath.to_string(),
        sig: tokens
            .iter()
            .filter(|t| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|t| Sig {
                kind: t.kind,
                text: t.text,
                line: t.line,
                col: t.col,
            })
            .collect(),
        test_regions: Vec::new(),
        suppressions: Vec::new(),
        preflight: Vec::new(),
    };
    find_test_regions(&mut ctx);
    collect_suppressions(relpath, tokens, &mut ctx);
    ctx
}

/// Mark the body of every item carrying a `test`-mentioning attribute
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`) as a test
/// region: from the attribute to the item's closing brace (or
/// terminating semicolon).
fn find_test_regions(ctx: &mut FileCtx<'_>) {
    let mut i = 0usize;
    while i < ctx.sig.len() {
        // Outer attribute `#[ … ]` (inner `#![ … ]` never guards an
        // item body).
        if !(ctx.is(i, "#") && ctx.is(i + 1, "[")) {
            i += 1;
            continue;
        }
        let close = ctx.matching_close(i + 1);
        let mentions_test = (i + 2..close).any(|k| ctx.is(k, "test"));
        if !mentions_test {
            i = close + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut j = close + 1;
        while ctx.is(j, "#") && ctx.is(j + 1, "[") {
            j = ctx.matching_close(j + 1) + 1;
        }
        // The guarded item runs to its closing brace, or to a `;` for
        // brace-less items (a guarded `use`, a unit struct).
        let mut end = ctx.sig.len();
        for k in j..ctx.sig.len() {
            if ctx.is(k, "{") {
                end = ctx.matching_close(k) + 1;
                break;
            }
            if ctx.is(k, ";") {
                end = k + 1;
                break;
            }
        }
        ctx.test_regions.push((i, end));
        i = end;
    }
}

/// Pull `xps-allow` suppressions out of the comment tokens, reporting
/// malformed ones (no reason, unknown rule) as deny findings.
fn collect_suppressions(relpath: &str, tokens: &[Token<'_>], ctx: &mut FileCtx<'_>) {
    let known = known_rule_ids();
    for t in tokens {
        // A suppression hidden in a block comment silently does
        // nothing (the line-based lookup never sees it) — that is a
        // trap, so writing one is itself a deny finding.
        if t.kind == TokenKind::BlockComment {
            if t.text.contains("xps-allow") && !t.text.starts_with("/**") {
                ctx.preflight.push(Finding {
                    file: relpath.to_string(),
                    line: t.line,
                    col: t.col,
                    rule: "malformed-suppression",
                    severity: Severity::Deny,
                    message: "xps-allow inside a block comment suppresses nothing".to_string(),
                    suggestion: "use a line comment: `// xps-allow(rule-id): reason` on the \
                                 finding's line or the line above"
                        .to_string(),
                });
            }
            continue;
        }
        if t.kind != TokenKind::LineComment {
            continue;
        }
        // Doc comments are documentation *about* the syntax, not
        // directives — only plain `//` comments carry suppressions.
        if t.text.starts_with("///") || t.text.starts_with("//!") {
            continue;
        }
        let Some(at) = t.text.find("xps-allow") else {
            continue;
        };
        let spec = &t.text[at + "xps-allow".len()..];
        let malformed = |message: String| Finding {
            file: relpath.to_string(),
            line: t.line,
            col: t.col,
            rule: "malformed-suppression",
            severity: Severity::Deny,
            message,
            suggestion: "write `// xps-allow(rule-id): reason`, with a real rule id and a \
                         non-empty reason"
                .to_string(),
        };
        let Some(rest) = spec.strip_prefix('(') else {
            ctx.preflight
                .push(malformed("xps-allow without a (rule-id)".to_string()));
            continue;
        };
        let Some((rule, rest)) = rest.split_once(')') else {
            ctx.preflight
                .push(malformed("unclosed xps-allow(rule-id)".to_string()));
            continue;
        };
        let rule = rule.trim();
        if !known.contains(&rule) {
            ctx.preflight.push(malformed(format!(
                "xps-allow names unknown rule `{rule}` (known: {})",
                known.join(", ")
            )));
            continue;
        }
        let reason = rest.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            ctx.preflight.push(malformed(format!(
                "xps-allow({rule}) has no reason — suppressions must say why"
            )));
            continue;
        }
        ctx.suppressions.push(Suppression {
            rule: rule.to_string(),
            line: t.line,
            used: std::cell::Cell::new(false),
        });
    }
}

/// Run every textual rule over one file's context.
/// Suppressed findings are dropped and their suppressions marked used
/// (via the `used` cells in `ctx`); unused suppressions are NOT
/// reported here — the semantic passes may still use them, so the
/// workspace driver decides staleness after every pass has run.
pub fn lint_file_raw(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut findings: Vec<Finding> = ctx.preflight.clone();
    for rule in all_rules() {
        let mut raw = Vec::new();
        (rule.check)(ctx, &rule, &mut raw);
        for f in raw {
            let suppressed = ctx
                .suppressions
                .iter()
                .find(|s| s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line));
            match suppressed {
                Some(s) => s.used.set(true),
                None => findings.push(f),
            }
        }
    }
    findings
}

/// The warn finding for one stale suppression.
pub(crate) fn unused_suppression_finding(file: &str, rule: &str, line: u32) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        col: 1,
        rule: "unused-suppression",
        severity: Severity::Warn,
        message: format!("xps-allow({rule}) suppresses nothing on this or the next line"),
        suggestion: "remove the stale suppression".to_string(),
    }
}

/// [`lint_file_raw`] plus staleness: suppressions used by no textual
/// rule become warn findings. This is the single-file view — the
/// workspace driver uses the raw form so semantic passes get their
/// chance to use a suppression first.
pub fn lint_file(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut findings = lint_file_raw(ctx);
    for s in &ctx.suppressions {
        if !s.used.get() {
            findings.push(unused_suppression_finding(&ctx.relpath, &s.rule, s.line));
        }
    }
    findings
}

fn finding(ctx: &FileCtx<'_>, rule: &Rule, i: usize, message: String, suggestion: &str) -> Finding {
    let (line, col) = ctx.tok(i).map_or((0, 0), |t| (t.line, t.col));
    Finding {
        file: ctx.relpath.clone(),
        line,
        col,
        rule: rule.id,
        severity: rule.severity,
        message,
        suggestion: suggestion.to_string(),
    }
}

/// The statement enclosing token `i`: back to the previous `;`/`{`/`}`
/// and forward to the statement's own `;` (at balanced depth) or the
/// end of the block opened inside it (a `for` body).
pub(crate) fn statement_span(ctx: &FileCtx<'_>, i: usize) -> std::ops::Range<usize> {
    let mut start = i;
    while start > 0 {
        let t = &ctx.sig[start - 1];
        if matches!(t.text, ";" | "{" | "}") {
            break;
        }
        start -= 1;
    }
    let mut depth = 0i32;
    let mut end = ctx.sig.len();
    for k in i..ctx.sig.len() {
        match ctx.sig[k].text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" => {
                // A block opened inside the statement (closure or loop
                // body): include it whole and stop at its close.
                end = ctx.matching_close(k) + 1;
                break;
            }
            ";" if depth <= 0 => {
                end = k + 1;
                break;
            }
            _ => {}
        }
    }
    start..end
}

// ---------------------------------------------------------------------
// no-alloc-in-sim-hot-path

/// Hash-ordered (and hash-costed) container names that have no place
/// in the per-op step: the hot-loop overhaul replaced them with dense
/// rings precisely because a hash probe per op dominated the profile.
const HOT_PATH_HASH_TOKENS: [&str; 4] = ["HashMap", "HashSet", "BTreeMap", "BTreeSet"];

/// Tokens that allocate (or strongly suggest allocating) on the heap.
/// One allocation per simulated micro-op is millions per evaluation.
const HOT_PATH_ALLOC_TOKENS: [&str; 8] = [
    "Vec",
    "vec",
    "Box",
    "String",
    "to_string",
    "to_owned",
    "to_vec",
    "format",
];

/// The optimized engine's throughput contract, enforced structurally:
/// inside `fn step` of `crates/sim/src/engine.rs` (the function every
/// simulated micro-op funnels through), no hash-structure access and
/// no heap allocation. The reference engine (`reference.rs`) is
/// deliberately out of scope — its job is to stay unoptimized — and a
/// reasoned `xps-allow` remains the escape hatch for a future step
/// that can argue its allocation is amortized.
fn check_sim_hot_path(ctx: &FileCtx<'_>, rule: &Rule, out: &mut Vec<Finding>) {
    if !ctx.relpath.ends_with("sim/src/engine.rs") {
        return;
    }
    let mut i = 0usize;
    while i < ctx.sig.len() {
        if !(ctx.is(i, "fn") && ctx.is(i + 1, "step")) || ctx.in_test(i) {
            i += 1;
            continue;
        }
        let mut open = i + 2;
        while open < ctx.sig.len() && !ctx.is(open, "{") {
            open += 1;
        }
        let close = ctx.matching_close(open);
        for k in (open + 1)..close {
            let Some(t) = ctx.tok(k) else { continue };
            if HOT_PATH_HASH_TOKENS.contains(&t.text) {
                out.push(finding(
                    ctx,
                    rule,
                    k,
                    format!(
                        "{} access inside the per-op `fn step` — a hash probe per \
                         micro-op was exactly what the hot-loop overhaul removed",
                        t.text
                    ),
                    "use the dense ring / SoA structures the engine already carries, \
                     or justify with an xps-allow reason",
                ));
            } else if HOT_PATH_ALLOC_TOKENS.contains(&t.text) {
                out.push(finding(
                    ctx,
                    rule,
                    k,
                    format!(
                        "`{}` inside the per-op `fn step` allocates per micro-op — \
                         millions of allocations per evaluation",
                        t.text
                    ),
                    "hoist the allocation to construction time (Simulator::new) or \
                     per-run state, or justify with an xps-allow reason",
                ));
            }
        }
        i = close + 1;
    }
}

// ---------------------------------------------------------------------
// net-timeouts-and-bounded-retries

/// Idents inside a `loop` body that mark it as performing network I/O.
const NET_CALL_TOKENS: [&str; 5] = [
    "connect",
    "connect_timeout",
    "roundtrip",
    "request",
    "request_retrying",
];

/// The fleet's failure model, enforced structurally: every outbound
/// connection carries a connect deadline (`TcpStream::connect_timeout`,
/// never bare `TcpStream::connect`), every connecting function sets a
/// read timeout before I/O (a peer that accepts and then hangs must
/// surface as an error, not wedge the caller), and `loop`s around
/// network calls must be bounded (`break`/`return`/`?` inside) — an
/// unreachable peer costs a typed error after N attempts, never an
/// infinite retry. A reasoned `xps-allow` remains the escape hatch.
fn check_net_timeouts(ctx: &FileCtx<'_>, rule: &Rule, out: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < ctx.sig.len() {
        if !ctx.is(i, "fn") || ctx.in_test(i) {
            i += 1;
            continue;
        }
        // The function body: from the first `{` after the signature
        // (trait-declaration signatures ending in `;` have none).
        let mut open = i + 1;
        while open < ctx.sig.len() && !ctx.is(open, "{") && !ctx.is(open, ";") {
            open += 1;
        }
        if open >= ctx.sig.len() || !ctx.is(open, "{") {
            i = open + 1;
            continue;
        }
        let close = ctx.matching_close(open);
        let body = (open + 1)..close;
        let has_read_timeout = body.clone().any(|k| ctx.is(k, "set_read_timeout"));
        for k in body.clone() {
            if ctx.matches_seq(k, &["TcpStream", ":", ":", "connect"]) && ctx.is(k + 4, "(") {
                out.push(finding(
                    ctx,
                    rule,
                    k,
                    "TcpStream::connect has no connect deadline — a dead or unroutable \
                     peer hangs the caller indefinitely"
                        .to_string(),
                    "resolve the address and use TcpStream::connect_timeout, then set \
                     read/write timeouts on the stream",
                ));
            }
            if ctx.matches_seq(k, &["TcpStream", ":", ":", "connect_timeout"]) && !has_read_timeout
            {
                out.push(finding(
                    ctx,
                    rule,
                    k,
                    "connection opened without a read timeout in this function — a peer \
                     that accepts and then hangs wedges the caller"
                        .to_string(),
                    "call set_read_timeout (and set_write_timeout) on the stream before \
                     any I/O, or justify with an xps-allow reason",
                ));
            }
            if ctx.is(k, "loop") && ctx.is(k + 1, "{") {
                let lclose = ctx.matching_close(k + 1);
                let lbody = (k + 2)..lclose;
                let network = lbody.clone().any(|m| {
                    ctx.tok(m)
                        .is_some_and(|t| NET_CALL_TOKENS.contains(&t.text))
                });
                let bounded = lbody.clone().any(|m| {
                    ctx.tok(m)
                        .is_some_and(|t| matches!(t.text, "break" | "return" | "?"))
                });
                if network && !bounded {
                    out.push(finding(
                        ctx,
                        rule,
                        k,
                        "infinite `loop` around network I/O with no break or return — an \
                         unreachable peer retries forever"
                            .to_string(),
                        "bound the attempts (`for attempt in 0..n`) with deterministic \
                         backoff, or justify with an xps-allow reason",
                    ));
                }
            }
        }
        i = close + 1;
    }
}

// ---------------------------------------------------------------------
// no-panic-in-worker

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn check_panic_in_worker(ctx: &FileCtx<'_>, rule: &Rule, out: &mut Vec<Finding>) {
    for i in 0..ctx.sig.len() {
        if ctx.in_test(i) {
            continue;
        }
        // `spawn(`, `spawn_scoped(`, `execute(` — the thread-pool
        // entry points; the argument span is the closure.
        let spawns = ["spawn", "spawn_scoped", "execute"];
        if !(ctx.tok(i).is_some_and(|t| spawns.contains(&t.text)) && ctx.is(i + 1, "(")) {
            continue;
        }
        let close = ctx.matching_close(i + 1);
        let body = (i + 2)..close;
        if body.clone().any(|k| ctx.is(k, "catch_unwind")) {
            continue;
        }
        for k in body {
            if ctx.tok(k).is_some_and(|t| PANIC_MACROS.contains(&t.text)) && ctx.is(k + 1, "!") {
                out.push(finding(
                    ctx,
                    rule,
                    k,
                    format!(
                        "{}! inside a thread-spawn closure unwinds the worker outside the \
                         catch_unwind boundary, killing the whole fan-out",
                        ctx.sig[k].text
                    ),
                    "return a typed error from the task, or wrap the body in \
                     catch_unwind like crates/explore/src/recovery.rs does",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lint(relpath: &str, src: &str) -> Vec<Finding> {
        let tokens = lex(src);
        lint_file(&file_ctx(relpath, &tokens))
    }

    /// A one-line `net-timeouts-and-bounded-retries` finding, the
    /// example violation of the suppression tests.
    const DIAL: &str = "fn f() { let s = TcpStream::connect(a); }";
    const NET: &str = "net-timeouts-and-bounded-retries";

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn suppression_with_reason_works_same_and_next_line() {
        let same = format!("{DIAL} // xps-allow({NET}): probe socket\n");
        assert!(lint("src/a.rs", &same).is_empty());
        let above = format!("// xps-allow({NET}): probe socket\n{DIAL}\n");
        assert!(lint("src/a.rs", &above).is_empty());
        // Two lines above is out of reach.
        let far = format!("// xps-allow({NET}): probe socket\n\n{DIAL}\n");
        assert_eq!(
            rules_of(&lint("src/a.rs", &far)),
            vec![NET, "unused-suppression"]
        );
    }

    #[test]
    fn suppression_without_reason_is_a_finding() {
        let src = format!("// xps-allow({NET})\n{DIAL}\n");
        let f = lint("src/a.rs", &src);
        assert!(rules_of(&f).contains(&"malformed-suppression"), "{f:?}");
        // And the malformed allow does NOT suppress.
        assert!(rules_of(&f).contains(&NET));
    }

    #[test]
    fn suppression_in_block_comment_is_a_finding() {
        let src = format!("{DIAL} /* xps-allow({NET}): hidden */\n");
        let f = lint("src/a.rs", &src);
        assert!(rules_of(&f).contains(&"malformed-suppression"), "{f:?}");
        // And it does NOT suppress.
        assert!(rules_of(&f).contains(&NET), "{f:?}");
    }

    #[test]
    fn semantic_and_artifact_rule_ids_are_known_to_allows() {
        // An allow naming a semantic pass or an artifact check is a
        // real (if possibly stale) suppression, never "unknown rule".
        for id in [
            "determinism-provenance",
            "lock-discipline",
            "journal-record",
        ] {
            let src = format!("// xps-allow({id}): documented reason\nfn f() {{}}\n");
            let f = lint("src/a.rs", &src);
            assert_eq!(rules_of(&f), vec!["unused-suppression"], "{id}: {f:?}");
        }
    }

    #[test]
    fn suppression_of_unknown_rule_is_a_finding() {
        let f = lint(
            "src/a.rs",
            "// xps-allow(no-such-rule): because\nfn f() {}\n",
        );
        assert_eq!(rules_of(&f), vec!["malformed-suppression"]);
    }

    #[test]
    fn unused_suppression_is_a_warning() {
        let f = lint(
            "src/a.rs",
            &format!("// xps-allow({NET}): never fires here\nfn f() {{}}\n"),
        );
        assert_eq!(rules_of(&f), vec!["unused-suppression"]);
        assert_eq!(f[0].severity, Severity::Warn);
    }

    #[test]
    fn panic_in_worker_found_unless_caught() {
        let src = "fn f(scope: &S) { scope.spawn(|| { panic!(\"boom\"); }); }\n";
        let f = lint("src/a.rs", src);
        assert_eq!(rules_of(&f), vec!["no-panic-in-worker"]);
        let caught = "fn f(scope: &S) { scope.spawn(|| { let r = catch_unwind(|| g()); \
                      if r.is_err() { panic!(\"boom\"); } }); }\n";
        assert!(lint("src/a.rs", caught).is_empty());
    }

    #[test]
    fn hot_path_rule_scoped_to_engine_step() {
        let src = "impl Simulator {\n\
                       fn step(&mut self, op: &MicroOp) {\n\
                           let used = self.issue_slots.entry(c).or_insert(0);\n\
                           let v: Vec<u64> = Vec::new();\n\
                       }\n\
                   }\n\
                   struct S { issue_slots: HashMap<u64, u32> }\n";
        let f = lint("crates/sim/src/engine.rs", src);
        assert_eq!(
            rules_of(&f),
            vec!["no-alloc-in-sim-hot-path", "no-alloc-in-sim-hot-path"],
            "{f:?}"
        );
        // The reference oracle keeps its HashMap on purpose.
        assert!(lint("crates/sim/src/reference.rs", src).is_empty());
        // Outside `fn step`, construction-time allocation is fine.
        let ctor = "impl Simulator {\n\
                        fn new() -> Simulator { Simulator { ring: vec![0; 64] } }\n\
                        fn step(&mut self, op: &MicroOp) { self.ring[0] = 1; }\n\
                    }\n";
        assert!(lint("crates/sim/src/engine.rs", ctor).is_empty());
    }

    #[test]
    fn hot_path_rule_honors_suppression() {
        let src = "impl Simulator {\n\
                       fn step(&mut self, op: &MicroOp) {\n\
                           // xps-allow(no-alloc-in-sim-hot-path): amortized growth, once per 4096 ops\n\
                           self.spill.push(c);\n\
                       }\n\
                   }\n";
        // `push` alone is not flagged (growth is amortized and the
        // target may be a fixed ring) — but a flagged token under an
        // allow stays quiet and the allow counts as used.
        let with_vec = "impl Simulator {\n\
                            fn step(&mut self, op: &MicroOp) {\n\
                                // xps-allow(no-alloc-in-sim-hot-path): scratch buffer reused via capacity\n\
                                let mut scratch: Vec<u64> = Vec::with_capacity(0);\n\
                            }\n\
                        }\n";
        assert!(lint("crates/sim/src/engine.rs", with_vec).is_empty());
        let f = lint("crates/sim/src/engine.rs", src);
        assert_eq!(rules_of(&f), vec!["unused-suppression"], "{f:?}");
    }

    #[test]
    fn bare_tcp_connect_found_in_lib_and_bin_but_not_test() {
        let src = "fn dial(addr: &str) { let s = TcpStream::connect(addr); }\n";
        let f = lint("src/a.rs", src);
        assert_eq!(rules_of(&f), vec!["net-timeouts-and-bounded-retries"]);
        let f = lint("src/bin/a.rs", src);
        assert_eq!(rules_of(&f), vec!["net-timeouts-and-bounded-retries"]);
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n    {src}}}\n");
        assert!(lint("src/a.rs", &in_test_mod).is_empty());
    }

    #[test]
    fn connect_timeout_needs_a_read_timeout_in_the_same_fn() {
        let bare = "fn dial(t: &SocketAddr) -> R {\n\
                        let s = TcpStream::connect_timeout(t, CONNECT)?;\n\
                        Ok(s)\n\
                    }\n";
        let f = lint("src/a.rs", bare);
        assert_eq!(rules_of(&f), vec!["net-timeouts-and-bounded-retries"]);
        assert_eq!(f[0].line, 2);
        let guarded = "fn dial(t: &SocketAddr) -> R {\n\
                           let s = TcpStream::connect_timeout(t, CONNECT)?;\n\
                           s.set_read_timeout(Some(IO))?;\n\
                           s.set_write_timeout(Some(IO))?;\n\
                           Ok(s)\n\
                       }\n";
        assert!(lint("src/a.rs", guarded).is_empty());
    }

    #[test]
    fn unbounded_retry_loop_around_network_io_found() {
        let unbounded = "fn poll(addr: &str) {\n\
                             loop {\n\
                                 let _ = request(addr, \"GET\", \"/healthz\", None);\n\
                             }\n\
                         }\n";
        let f = lint("src/a.rs", unbounded);
        assert_eq!(rules_of(&f), vec!["net-timeouts-and-bounded-retries"]);
        assert_eq!(f[0].line, 2);
        let bounded = "fn poll(addr: &str) -> R {\n\
                           loop {\n\
                               if let Ok(r) = request(addr, \"GET\", \"/healthz\", None) {\n\
                                   return Ok(r);\n\
                               }\n\
                           }\n\
                       }\n";
        assert!(lint("src/a.rs", bounded).is_empty());
        let no_network = "fn spin(rx: &Receiver<u64>) {\n\
                              loop {\n\
                                  let _ = rx.recv();\n\
                              }\n\
                          }\n";
        assert!(lint("src/a.rs", no_network).is_empty());
    }

    #[test]
    fn net_rule_honors_suppression() {
        let src = "fn dial(addr: &str) {\n\
                       // xps-allow(net-timeouts-and-bounded-retries): probe socket closed immediately, cannot hang\n\
                       let s = TcpStream::connect(addr);\n\
                   }\n";
        assert!(lint("src/a.rs", src).is_empty());
    }

    #[test]
    fn rule_catalog_is_stable() {
        let ids: Vec<&str> = all_rules().iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            vec![
                "no-panic-in-worker",
                "no-alloc-in-sim-hot-path",
                "net-timeouts-and-bounded-retries",
            ]
        );
        let semantic: Vec<&str> = semantic_rules().iter().map(|r| r.id).collect();
        assert_eq!(semantic, vec!["determinism-provenance", "lock-discipline"]);
        // The catalog carries every id an allow may name, plus the
        // two meta rules.
        let catalog = catalog_markdown();
        for id in known_rule_ids()
            .into_iter()
            .chain(["malformed-suppression", "unused-suppression"])
        {
            assert!(catalog.contains(&format!("`{id}`")), "{id} not in catalog");
        }
    }
}
