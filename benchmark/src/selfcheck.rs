//! `--selfcheck <n>`: does the benchmark agree with itself?
//!
//! Runs two interleaved sets (A B A B …) of `n` runs per workload, each
//! run a fresh process of this same binary with its own seed, exactly
//! as the driver runs it. For every workload × end-to-end metric it
//! prints each set's median and quartiles, the spread of each set, and
//! how far the two medians disagree, each against the metric's bound.

use std::process::{Command, Stdio};

use crate::report::parse_summary;
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::{iqr_share, quartiles};
use crate::workloads::Kind;

/// One child run's end-to-end values, in `END_TO_END` order.
fn child_run(kind: Kind, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    // `output` waits for the child, so no process outlives the check.
    let output = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed}: child exited with {}",
            kind.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let summary = parse_summary(line)?;
    if !summary.correct || summary.failed > 0 {
        return Err(format!(
            "{} seed {seed}: {} of {} operations failed",
            kind.name(),
            summary.failed,
            summary.attempted
        ));
    }
    END_TO_END
        .iter()
        .map(|m| {
            summary
                .value(m.name)
                .ok_or_else(|| format!("child did not report {}", m.name))
        })
        .collect()
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative when `b` is better).
fn worse_by(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// How two sets of runs of one workload × metric compare.
struct Verdict {
    /// The wider of the two sets' inter-quartile spreads, as a share of its median.
    spread: f64,
    /// How much worse the worse set's median is than the other's.
    disagreement: f64,
    /// What breaks the metric's bound, if anything does.
    problem: Option<String>,
}

/// Holds two sets of runs against `metric`'s bound. `None` with too
/// few runs for quartiles.
fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Option<Verdict> {
    let (ma, mb) = (quartiles(a)?[1], quartiles(b)?[1]);
    // Either set may be the "second" one: hold the bound both ways.
    let disagreement = worse_by(metric, ma, mb).max(worse_by(metric, mb, ma));
    let spread = iqr_share(a)?.max(iqr_share(b)?);
    let percent = |share: f64| share * 100.0;
    let problem = if disagreement > metric.bound {
        Some(format!(
            "medians disagree by {:.1} % (bound {:.0} %)",
            percent(disagreement),
            percent(metric.bound)
        ))
    // The driver exempts set-up time from the spread rule only.
    } else if metric.name != "setup_s" && spread > metric.bound {
        Some(format!(
            "inter-quartile spread {:.1} % of the median (bound {:.0} %)",
            percent(spread),
            percent(metric.bound)
        ))
    } else {
        None
    };
    Some(Verdict {
        spread,
        disagreement,
        problem,
    })
}

/// Runs the check; `Ok(true)` when every pair holds.
///
/// # Errors
///
/// Errs when a child run fails or reports a failed operation.
pub fn run(runs: usize, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    for kind in Kind::ALL {
        // values[set][metric][run]
        let mut values = vec![vec![Vec::with_capacity(runs); END_TO_END.len()]; 2];
        for i in 0..runs {
            for (set, column) in values.iter_mut().enumerate() {
                // Every run gets its own seed, as the driver's do.
                let seed = (2 * i + set + 1) as u64;
                let got = child_run(kind, seed, seconds)?;
                println!(
                    "{} set {} run {} seed {seed}: {}",
                    kind.name(),
                    ["A", "B"][set],
                    i + 1,
                    got.iter()
                        .map(|v| format!("{v:.4}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                for (m, v) in column.iter_mut().zip(got) {
                    m.push(v);
                }
            }
        }
        println!("{}:", kind.name());
        println!(
            "  {:<16} {:>33}   {:>33}   {:>7} {:>7}",
            "metric", "A  q1 / median / q3", "B  q1 / median / q3", "spread", "A vs B"
        );
        for (mi, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][mi], &values[1][mi]);
            let (Some(qa), Some(qb), Some(v)) = (quartiles(a), quartiles(b), judge(metric, a, b))
            else {
                return Err("too few runs for quartiles".to_owned());
            };
            println!(
                "  {:<16} {:>10.4} {:>10.4} {:>10.4}   {:>10.4} {:>10.4} {:>10.4}   {:>6.2}% {:>6.2}%  {}",
                metric.name,
                qa[0],
                qa[1],
                qa[2],
                qb[0],
                qb[1],
                qb[2],
                v.spread * 100.0,
                v.disagreement * 100.0,
                v.problem.as_deref().unwrap_or("ok")
            );
            ok &= v.problem.is_none();
        }
    }
    println!(
        "selfcheck: {} ({} runs per set, {} s each)",
        if ok {
            "all 24 pairs hold"
        } else {
            "VIOLATIONS"
        },
        runs,
        seconds
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &'static str, better: Better) -> EndToEnd {
        EndToEnd {
            name,
            unit: "x",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn disagreement_is_directional_and_bounded() {
        let rps = metric("throughput_rps", Better::Higher);
        let p50 = metric("latency_p50_ms", Better::Lower);
        assert!((worse_by(&rps, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worse_by(&rps, 100.0, 120.0) < 0.0);
        assert!((worse_by(&p50, 10.0, 12.0) - 0.2).abs() < 1e-12);

        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shifted: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        let problem = |m: &EndToEnd, a: &[f64], b: &[f64]| judge(m, a, b).unwrap().problem;
        assert_eq!(problem(&rps, &steady, &steady), None);
        assert!(problem(&rps, &steady, &shifted)
            .unwrap()
            .contains("medians"));
        // Either set may be the worse one.
        assert!(problem(&rps, &shifted, &steady).is_some());
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert!(problem(&rps, &noisy, &noisy).unwrap().contains("spread"));
        // Set-up time is held to the median rule only.
        let setup = metric("setup_s", Better::Lower);
        assert_eq!(problem(&setup, &noisy, &noisy), None);
        assert!(judge(&rps, &[1.0], &[1.0]).is_none());
    }
}
