//! Standalone entry point for the static analyzer.
//!
//! ```text
//! xps-analyze source [ROOT]   lint workspace sources (default: .)
//! xps-analyze data DIR...     validate on-disk artifacts
//! xps-analyze rules           print the rule catalog (human form)
//! xps-analyze --catalog       print the rule catalog as markdown
//! ```
//!
//! `--json` switches diagnostics to the machine-readable document.
//! Exit code 0 means no deny-severity findings, 1 means at least one,
//! 2 means the analyzer itself could not run (bad usage, unreadable
//! tree).

use std::path::Path;
use std::process::ExitCode;
use xps_analyze::{all_rules, analyze_source, artifact, catalog_markdown, semantic_rules, Report};

const USAGE: &str = "usage: xps-analyze [--json] <source [ROOT] | data DIR... | rules | --catalog>";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    if args.iter().any(|a| a == "--catalog") {
        print!("{}", catalog_markdown());
        return ExitCode::SUCCESS;
    }
    let Some((mode, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match mode.as_str() {
        "source" if rest.len() <= 1 => {
            let root = rest.first().map_or(".", String::as_str);
            match analyze_source(Path::new(root)) {
                Ok(report) => emit(&report, "source", json),
                Err(e) => fail(&e),
            }
        }
        "data" => {
            if rest.is_empty() {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            let mut report = Report::default();
            for dir in rest {
                match artifact::check_dir(Path::new(dir)) {
                    Ok(r) => report.merge(r),
                    Err(e) => return fail(&e),
                }
            }
            report.sort();
            emit(&report, "data", json)
        }
        "rules" => {
            for rule in all_rules() {
                println!("{} [{}]: {}", rule.id, rule.severity.label(), rule.summary);
            }
            for rule in semantic_rules() {
                println!("{} [{}]: {}", rule.id, rule.severity.label(), rule.summary);
            }
            println!(
                "suppress with `// xps-allow(rule-id): reason` on the finding's line or \
                 the line above; the reason is mandatory"
            );
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn emit(report: &Report, label: &str, json: bool) -> ExitCode {
    if json {
        println!("{}", report.render_json(label));
    } else {
        print!("{}", report.render_human(label));
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("xps-analyze: {message}");
    ExitCode::from(2)
}
