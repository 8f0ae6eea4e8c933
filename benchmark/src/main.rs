//! `pico-e2e-bench`: the repo's end-to-end, layer-attributed benchmark.
//!
//! One command runs a named workload from a seed, checks its outputs,
//! and prints every metric by name with its unit; the last line of
//! standard output is the JSON result the driver reads. See
//! `benchmark/README.md`.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod alloc;
mod attribution;
mod cli;
mod host;
mod load;
mod probes;
mod report;
mod run;
mod selfcheck;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::io::Write;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(command) => command,
        Err(problem) => {
            eprintln!("error: {problem}\n{}", cli::USAGE);
            return ExitCode::from(1);
        }
    };
    let outcome = match command {
        cli::Command::List => {
            let listing: String = workloads::Kind::ALL
                .iter()
                .map(|kind| format!("{}\n    {}\n", kind.name(), kind.why()))
                .collect();
            // A closed pipe (`--list | head`) is not worth a panic.
            let _ = std::io::stdout().write_all(listing.as_bytes());
            return ExitCode::SUCCESS;
        }
        cli::Command::Selfcheck { runs, seconds } => {
            return match selfcheck::run(runs, seconds) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(2),
                Err(problem) => {
                    eprintln!("error: {problem}");
                    ExitCode::from(1)
                }
            };
        }
        cli::Command::Run(cfg) if cfg.trace => run::traced(&cfg),
        cli::Command::Run(cfg) => run::untraced(&cfg),
    };
    match outcome {
        Ok(summary) => {
            // The result is the last line of standard output.
            println!("{}", summary.to_json_line());
            ExitCode::SUCCESS
        }
        Err(problem) => {
            eprintln!("error: {problem}");
            ExitCode::from(1)
        }
    }
}
