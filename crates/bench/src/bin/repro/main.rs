//! `repro` — regenerate every table and figure of the paper.
//!
//! `repro help` lists the experiments and `repro <experiment> --help`
//! an experiment's flags with their defaults; both come from the
//! tables in [`cli`].

mod ablation;
mod analyze;
mod bench;
mod campaign;
mod cli;
mod paper;
mod serving;
mod studies;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = match cli::parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.help {
        print!("{}", cmd.help());
        return ExitCode::SUCCESS;
    }
    match (cmd.run)(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro {}: {e}", cmd.name);
            ExitCode::FAILURE
        }
    }
}
