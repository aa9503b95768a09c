//! The fleet worker daemon.
//!
//! ```text
//! xps-serve [--addr HOST:PORT] [--data-dir PATH]
//! ```
//!
//! Binds the HTTP endpoint over the result store in the data directory
//! (results a previous process stored are answered again without
//! re-running) and serves `/tasks` until SIGTERM/SIGINT, at which
//! point it drains gracefully: it stops accepting, answers every
//! request already accepted, and exits 0.

use std::io::Write;
use std::process::ExitCode;
use xps_serve::{install_signal_handlers, Server, ServerConfig};

const USAGE: &str = "usage: xps-serve [--addr HOST:PORT] [--data-dir PATH]";

fn parse_config(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::new("xps-serve-data");
    config.addr = "127.0.0.1:7780".to_string();
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        if let Some(v) = args[*i].strip_prefix(&format!("{flag}=")) {
            return Ok(v.to_string());
        }
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} expects a value\n{USAGE}"))
    };
    while i < args.len() {
        let arg = args[i].clone();
        let name = arg.split('=').next().unwrap_or(&arg);
        match name {
            "--addr" => config.addr = value(args, &mut i, "--addr")?,
            "--data-dir" => config.data_dir = value(args, &mut i, "--data-dir")?.into(),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_config(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xps-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xps-serve: local_addr: {e}");
            return ExitCode::FAILURE;
        }
    };
    install_signal_handlers(server.shutdown_handle());
    // Machine-readable first line: tests and scripts scrape the bound
    // (possibly ephemeral) port from it.
    println!(
        "xps-serve listening on {addr} (data dir {})",
        config.data_dir.display()
    );
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => {
            println!("xps-serve drained cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xps-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_flags_in_both_spellings() {
        let c =
            parse_config(&strs(&["--addr", "0.0.0.0:9000", "--data-dir=/tmp/d"])).expect("parses");
        assert_eq!(c.addr, "0.0.0.0:9000");
        assert_eq!(c.data_dir, std::path::PathBuf::from("/tmp/d"));
    }

    #[test]
    fn rejects_bad_flags_with_usage() {
        assert!(parse_config(&strs(&["--workers", "2"]))
            .expect_err("retired flag")
            .contains("unknown flag"));
        assert!(parse_config(&strs(&["--frobnicate"]))
            .expect_err("unknown")
            .contains("unknown flag"));
        assert!(parse_config(&strs(&["--addr"]))
            .expect_err("missing value")
            .contains("expects a value"));
    }
}
