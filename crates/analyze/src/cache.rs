//! The incremental cache: per-file [`FileSummary`] records keyed by
//! content hash, so `repro analyze` and CI re-summarize only changed
//! files and rebuild the graph from cached summaries for the rest.
//!
//! Invalidation is strict: the cache carries a format version and a
//! fingerprint of the rule catalog (any rule change re-analyzes
//! everything), each entry carries an FNV-1a hash over
//! `crate_name \0 relpath \0 source` (moving a file invalidates it),
//! and any parse mismatch on load discards the whole cache — a stale
//! or corrupt cache degrades to a cold run, never to wrong findings.
//!
//! The semantic passes always re-run over the full summary set; only
//! the per-file lex/parse/textual-lint work is cached. That keeps the
//! incremental guarantee trivial: findings are a pure function of the
//! summaries, and the summaries are a pure function of the sources.

use crate::diag::Severity;
use crate::parse::{
    Blocking, Call, FileSummary, FnSummary, Import, LockAcq, LockKind, Mark, OwnedFinding,
    SuppressionState,
};
use crate::rules::FileClass;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use xps_core::explore::fnv64;

/// Bump when the summary schema changes shape.
const VERSION: u64 = 1;

/// FNV-1a over the rule catalog: any rule addition/removal/rewording
/// invalidates every cached summary.
pub fn rules_fingerprint() -> u64 {
    fnv64(0, crate::rules::catalog_markdown().as_bytes())
}

/// FNV-1a content hash for one cache entry.
pub fn content_hash(crate_name: &str, relpath: &str, src: &str) -> u64 {
    fnv64(0, format!("{crate_name}\0{relpath}\0{src}").as_bytes())
}

/// The on-disk cache: relpath → (content hash, summary).
#[derive(Debug, Default)]
pub struct Cache {
    /// Entries by workspace-relative path.
    pub entries: BTreeMap<String, (u64, FileSummary)>,
}

impl Cache {
    /// Load from `path`; `None` when absent, unreadable, version- or
    /// fingerprint-mismatched, or structurally invalid (all of which
    /// mean: run cold).
    pub fn load(path: &Path) -> Option<Cache> {
        let text = std::fs::read_to_string(path).ok()?;
        let v: Value = serde_json::from_str(&text).ok()?;
        if get_u64(&v, "version")? != VERSION || get_u64(&v, "fingerprint")? != rules_fingerprint()
        {
            return None;
        }
        let Value::Arr(files) = v.member("files").ok()? else {
            return None;
        };
        let mut cache = Cache::default();
        for f in files {
            let rel = get_str(f, "path")?;
            let hash = get_u64(f, "hash")?;
            let summary = summary_from_value(f.member("summary").ok()?)?;
            cache.entries.insert(rel, (hash, summary));
        }
        Some(cache)
    }

    /// Persist atomically (temp + rename via the shared helper).
    ///
    /// # Errors
    ///
    /// Propagates the underlying IO failure as a message.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let files: Vec<Value> = self
            .entries
            .iter()
            .map(|(rel, (hash, s))| {
                Value::Obj(vec![
                    ("path".into(), Value::Str(rel.clone())),
                    ("hash".into(), Value::U64(*hash)),
                    ("summary".into(), summary_to_value(s)),
                ])
            })
            .collect();
        let doc = Value::Obj(vec![
            ("version".into(), Value::U64(VERSION)),
            ("fingerprint".into(), Value::U64(rules_fingerprint())),
            ("files".into(), Value::Arr(files)),
        ]);
        let text = serde_json::to_string(&doc).map_err(|e| format!("encode cache: {e}"))?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
        xps_core::explore::write_atomic(path, &text)
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

// ---------------------------------------------------------------------
// Value round-trip helpers

fn get_str(v: &Value, key: &str) -> Option<String> {
    match v.member(key).ok()? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    match v.member(key).ok()? {
        Value::U64(n) => Some(*n),
        Value::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn get_u32(v: &Value, key: &str) -> Option<u32> {
    u32::try_from(get_u64(v, key)?).ok()
}

fn get_bool(v: &Value, key: &str) -> Option<bool> {
    match v.member(key).ok()? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn get_strings(v: &Value, key: &str) -> Option<Vec<String>> {
    let Value::Arr(items) = v.member(key).ok()? else {
        return None;
    };
    items
        .iter()
        .map(|i| match i {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

fn strings(items: &[String]) -> Value {
    Value::Arr(items.iter().map(|s| Value::Str(s.clone())).collect())
}

fn get_arr<'v>(v: &'v Value, key: &str) -> Option<&'v [Value]> {
    match v.member(key).ok()? {
        Value::Arr(items) => Some(items),
        _ => None,
    }
}

fn mark_to_value(m: &Mark) -> Value {
    Value::Obj(vec![
        ("what".into(), Value::Str(m.what.clone())),
        ("line".into(), Value::U64(u64::from(m.line))),
        ("col".into(), Value::U64(u64::from(m.col))),
    ])
}

fn mark_from_value(v: &Value) -> Option<Mark> {
    Some(Mark {
        what: get_str(v, "what")?,
        line: get_u32(v, "line")?,
        col: get_u32(v, "col")?,
    })
}

fn summary_to_value(s: &FileSummary) -> Value {
    let class = match s.class {
        FileClass::Lib => "lib",
        FileClass::Bin => "bin",
        FileClass::Test => "test",
        FileClass::Example => "example",
    };
    Value::Obj(vec![
        ("relpath".into(), Value::Str(s.relpath.clone())),
        ("class".into(), Value::Str(class.to_string())),
        ("crate_name".into(), Value::Str(s.crate_name.clone())),
        ("module".into(), strings(&s.module)),
        (
            "imports".into(),
            Value::Arr(
                s.imports
                    .iter()
                    .map(|i| {
                        Value::Obj(vec![
                            ("alias".into(), Value::Str(i.alias.clone())),
                            ("path".into(), strings(&i.path)),
                            ("glob".into(), Value::Bool(i.glob)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fns".into(),
            Value::Arr(s.fns.iter().map(fn_to_value).collect()),
        ),
        ("rwlock_names".into(), strings(&s.rwlock_names)),
        (
            "suppressions".into(),
            Value::Arr(
                s.suppressions
                    .iter()
                    .map(|sp| {
                        Value::Obj(vec![
                            ("rule".into(), Value::Str(sp.rule.clone())),
                            ("line".into(), Value::U64(u64::from(sp.line))),
                            ("used".into(), Value::Bool(sp.used_by_textual)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "textual".into(),
            Value::Arr(
                s.textual
                    .iter()
                    .map(|f| {
                        Value::Obj(vec![
                            ("rule".into(), Value::Str(f.rule.clone())),
                            ("line".into(), Value::U64(u64::from(f.line))),
                            ("col".into(), Value::U64(u64::from(f.col))),
                            (
                                "severity".into(),
                                Value::Str(f.severity.label().to_string()),
                            ),
                            ("message".into(), Value::Str(f.message.clone())),
                            ("suggestion".into(), Value::Str(f.suggestion.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn fn_to_value(f: &FnSummary) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::Str(f.name.clone())),
        (
            "self_ty".into(),
            match &f.self_ty {
                Some(t) => Value::Str(t.clone()),
                None => Value::Null,
            },
        ),
        ("module".into(), strings(&f.module)),
        ("line".into(), Value::U64(u64::from(f.line))),
        ("col".into(), Value::U64(u64::from(f.col))),
        ("is_test".into(), Value::Bool(f.is_test)),
        (
            "calls".into(),
            Value::Arr(
                f.calls
                    .iter()
                    .map(|c| {
                        Value::Obj(vec![
                            ("path".into(), strings(&c.path)),
                            (
                                "method".into(),
                                match &c.method {
                                    Some(m) => Value::Str(m.clone()),
                                    None => Value::Null,
                                },
                            ),
                            (
                                "recv".into(),
                                match &c.recv {
                                    Some(r) => Value::Str(r.clone()),
                                    None => Value::Null,
                                },
                            ),
                            ("line".into(), Value::U64(u64::from(c.line))),
                            ("col".into(), Value::U64(u64::from(c.col))),
                            ("tok".into(), Value::U64(u64::from(c.tok))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sources".into(),
            Value::Arr(f.sources.iter().map(mark_to_value).collect()),
        ),
        (
            "sinks".into(),
            Value::Arr(f.sinks.iter().map(mark_to_value).collect()),
        ),
        (
            "locks".into(),
            Value::Arr(
                f.locks
                    .iter()
                    .map(|l| {
                        Value::Obj(vec![
                            ("name".into(), Value::Str(l.name.clone())),
                            (
                                "bound".into(),
                                match &l.bound {
                                    Some(b) => Value::Str(b.clone()),
                                    None => Value::Null,
                                },
                            ),
                            ("kind".into(), Value::Str(l.kind.method().to_string())),
                            ("line".into(), Value::U64(u64::from(l.line))),
                            ("col".into(), Value::U64(u64::from(l.col))),
                            ("tok".into(), Value::U64(u64::from(l.tok))),
                            ("guard_end".into(), Value::U64(u64::from(l.guard_end))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "blocking".into(),
            Value::Arr(
                f.blocking
                    .iter()
                    .map(|b| {
                        Value::Obj(vec![
                            ("what".into(), Value::Str(b.what.clone())),
                            (
                                "released".into(),
                                match &b.released {
                                    Some(r) => Value::Str(r.clone()),
                                    None => Value::Null,
                                },
                            ),
                            ("line".into(), Value::U64(u64::from(b.line))),
                            ("col".into(), Value::U64(u64::from(b.col))),
                            ("tok".into(), Value::U64(u64::from(b.tok))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn summary_from_value(v: &Value) -> Option<FileSummary> {
    let class = match get_str(v, "class")?.as_str() {
        "lib" => FileClass::Lib,
        "bin" => FileClass::Bin,
        "test" => FileClass::Test,
        "example" => FileClass::Example,
        _ => return None,
    };
    let imports = get_arr(v, "imports")?
        .iter()
        .map(|i| {
            Some(Import {
                alias: get_str(i, "alias")?,
                path: get_strings(i, "path")?,
                glob: get_bool(i, "glob")?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let fns = get_arr(v, "fns")?
        .iter()
        .map(fn_from_value)
        .collect::<Option<Vec<_>>>()?;
    let suppressions = get_arr(v, "suppressions")?
        .iter()
        .map(|s| {
            Some(SuppressionState {
                rule: get_str(s, "rule")?,
                line: get_u32(s, "line")?,
                used_by_textual: get_bool(s, "used")?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let textual = get_arr(v, "textual")?
        .iter()
        .map(|f| {
            let severity = match get_str(f, "severity")?.as_str() {
                "deny" => Severity::Deny,
                "warn" => Severity::Warn,
                _ => return None,
            };
            Some(OwnedFinding {
                rule: get_str(f, "rule")?,
                line: get_u32(f, "line")?,
                col: get_u32(f, "col")?,
                severity,
                message: get_str(f, "message")?,
                suggestion: get_str(f, "suggestion")?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(FileSummary {
        relpath: get_str(v, "relpath")?,
        class,
        crate_name: get_str(v, "crate_name")?,
        module: get_strings(v, "module")?,
        imports,
        fns,
        rwlock_names: get_strings(v, "rwlock_names")?,
        suppressions,
        textual,
    })
}

fn fn_from_value(v: &Value) -> Option<FnSummary> {
    let self_ty = match v.member("self_ty").ok()? {
        Value::Str(s) => Some(s.clone()),
        Value::Null => None,
        _ => return None,
    };
    let calls = get_arr(v, "calls")?
        .iter()
        .map(|c| {
            let method = match c.member("method").ok()? {
                Value::Str(s) => Some(s.clone()),
                Value::Null => None,
                _ => return None,
            };
            let recv = match c.member("recv").ok()? {
                Value::Str(s) => Some(s.clone()),
                Value::Null => None,
                _ => return None,
            };
            Some(Call {
                path: get_strings(c, "path")?,
                method,
                recv,
                line: get_u32(c, "line")?,
                col: get_u32(c, "col")?,
                tok: get_u32(c, "tok")?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let locks = get_arr(v, "locks")?
        .iter()
        .map(|l| {
            let kind = match get_str(l, "kind")?.as_str() {
                "lock" => LockKind::Lock,
                "read" => LockKind::Read,
                "write" => LockKind::Write,
                _ => return None,
            };
            let bound = match l.member("bound").ok()? {
                Value::Str(s) => Some(s.clone()),
                Value::Null => None,
                _ => return None,
            };
            Some(LockAcq {
                name: get_str(l, "name")?,
                bound,
                kind,
                line: get_u32(l, "line")?,
                col: get_u32(l, "col")?,
                tok: get_u32(l, "tok")?,
                guard_end: get_u32(l, "guard_end")?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let blocking = get_arr(v, "blocking")?
        .iter()
        .map(|b| {
            let released = match b.member("released").ok()? {
                Value::Str(s) => Some(s.clone()),
                Value::Null => None,
                _ => return None,
            };
            Some(Blocking {
                what: get_str(b, "what")?,
                released,
                line: get_u32(b, "line")?,
                col: get_u32(b, "col")?,
                tok: get_u32(b, "tok")?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(FnSummary {
        name: get_str(v, "name")?,
        self_ty,
        module: get_strings(v, "module")?,
        line: get_u32(v, "line")?,
        col: get_u32(v, "col")?,
        is_test: get_bool(v, "is_test")?,
        calls,
        sources: get_arr(v, "sources")?
            .iter()
            .map(mark_from_value)
            .collect::<Option<Vec<_>>>()?,
        sinks: get_arr(v, "sinks")?
            .iter()
            .map(mark_from_value)
            .collect::<Option<Vec<_>>>()?,
        locks,
        blocking,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::summarize_file;

    #[test]
    fn content_hash_keeps_existing_caches_warm() {
        // The FNV-1a value of `xps_core \0 src/lib.rs \0 fn main() {}\n`:
        // a change here would silently cold-start every saved cache.
        assert_eq!(
            content_hash("xps_core", "src/lib.rs", "fn main() {}\n"),
            0x3baf_3d3f_ee52_0c57
        );
    }

    #[test]
    fn summaries_round_trip_through_the_cache_file() {
        let src = "use crate::a::{b, c as d};\n\
                   struct S { state: Mutex<u32>, table: RwLock<u32>, jobs: HashMap<K, V> }\n\
                   // xps-allow(no-unwrap-in-lib): invariant\n\
                   fn f(s: &S) { let g = s.state.lock(); s.x.unwrap(); crate::emit(); }\n\
                   fn emit() { println!(\"x\"); let t = Instant::now(); }\n";
        let summary = summarize_file("crates/a/src/lib.rs", FileClass::Lib, "xps_a", src);
        let mut cache = Cache::default();
        cache.entries.insert(
            summary.relpath.clone(),
            (
                content_hash("xps_a", &summary.relpath, src),
                summary.clone(),
            ),
        );
        let dir = std::env::temp_dir().join(format!("xps-analyze-cache-{}", std::process::id()));
        let path = dir.join("cache.json");
        cache.save(&path).expect("save");
        let loaded = Cache::load(&path).expect("load");
        assert_eq!(loaded.entries.len(), 1);
        let (hash, round) = &loaded.entries["crates/a/src/lib.rs"];
        assert_eq!(*hash, content_hash("xps_a", "crates/a/src/lib.rs", src));
        assert_eq!(*round, summary, "summary must round-trip exactly");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_or_fingerprint_mismatch_discards_the_cache() {
        let dir = std::env::temp_dir().join(format!("xps-analyze-cache-v-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("cache.json");
        let bogus = format!("{{\"version\":{VERSION},\"fingerprint\":1,\"files\":[]}}");
        std::fs::write(&path, bogus).expect("write");
        assert!(Cache::load(&path).is_none(), "wrong fingerprint must miss");
        std::fs::write(&path, "{not json").expect("write");
        assert!(Cache::load(&path).is_none(), "corrupt cache must miss");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn content_hash_covers_crate_name_and_path() {
        let h1 = content_hash("xps_a", "src/lib.rs", "fn f() {}");
        assert_ne!(h1, content_hash("xps_b", "src/lib.rs", "fn f() {}"));
        assert_ne!(h1, content_hash("xps_a", "src/other.rs", "fn f() {}"));
        assert_ne!(h1, content_hash("xps_a", "src/lib.rs", "fn g() {}"));
        assert_eq!(h1, content_hash("xps_a", "src/lib.rs", "fn f() {}"));
    }
}
