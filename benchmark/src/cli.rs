//! Command-line parsing. Every malformed invocation is a typed error
//! the caller turns into a message, the usage text and exit code 1.

use crate::workloads::Kind;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures when
/// `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// Usage text printed after any argument error.
pub const USAGE: &str = "\
usage: pico-e2e-bench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
       pico-e2e-bench --selfcheck <runs-per-set> [--seconds <s>]
       pico-e2e-bench --list
workloads: serve_closed_tiny pipeline_closed_alexnet serve_open_tiny replan_churn";

/// One run's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Which workload.
    pub kind: Kind,
    /// Seed for inputs, arrival schedule and churn sequence.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What the command line asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// Run one workload once.
    Run(RunConfig),
    /// Run two interleaved sets of `runs` runs per workload and hold
    /// their agreement against the bounds.
    Selfcheck {
        /// Runs per set and workload.
        runs: usize,
        /// Seconds each run measures for.
        seconds: f64,
    },
    /// List the workloads and why each exists.
    List,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A one-line description of the first problem found.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload: Option<Kind> = None;
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut selfcheck: Option<usize> = None;
    let mut list = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Kind::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = match v.parse::<f64>() {
                    Ok(s) if (1.0..=600.0).contains(&s) => s,
                    _ => return Err(format!("--seconds {v}: need a number from 1 to 600")),
                };
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: need 0 or 1")),
                };
            }
            "--selfcheck" => {
                let v = value()?;
                selfcheck = match v.parse::<usize>() {
                    Ok(n) if n >= 2 => Some(n),
                    _ => return Err(format!("--selfcheck {v}: need at least 2 runs per set")),
                };
            }
            "--list" => list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }

    if list {
        return Ok(Command::List);
    }
    if let Some(runs) = selfcheck {
        if workload.is_some() {
            return Err("--selfcheck runs every workload; drop --workload".to_owned());
        }
        return Ok(Command::Selfcheck { runs, seconds });
    }
    let kind = workload.ok_or_else(|| "--workload is required".to_owned())?;
    Ok(Command::Run(RunConfig {
        kind,
        seed,
        seconds,
        trace,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let cmd = parse(&args(
            "--workload replan_churn --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunConfig {
                kind: Kind::ReplanChurn,
                seed: 7,
                seconds: 10.0,
                trace: true,
            })
        );
        let defaults = parse(&args("--workload serve_closed_tiny")).unwrap();
        assert_eq!(
            defaults,
            Command::Run(RunConfig {
                kind: Kind::ServeClosedTiny,
                seed: 1,
                seconds: DEFAULT_SECONDS,
                trace: false,
            })
        );
        assert_eq!(parse(&args("--list")).unwrap(), Command::List);
        assert_eq!(
            parse(&args("--selfcheck 5 --seconds 12")).unwrap(),
            Command::Selfcheck {
                runs: 5,
                seconds: 12.0
            }
        );
    }

    #[test]
    fn bad_invocations_are_errors_not_panics() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--workload replan_churn --seed x",
            "--workload replan_churn --seed -1",
            "--workload replan_churn --seconds 0",
            "--workload replan_churn --seconds nan",
            "--workload replan_churn --trace 2",
            "--workload replan_churn --bogus 1",
            "--selfcheck 1",
            "--selfcheck 3 --workload replan_churn",
            "--help",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
        assert!(parse(&args("--workload nope"))
            .unwrap_err()
            .contains("unknown workload"));
    }
}
