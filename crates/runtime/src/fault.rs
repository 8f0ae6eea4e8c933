//! Failure records and the recovery policy.
//!
//! Departures are scripted with a
//! [`ClusterSchedule`](pico_partition::ClusterSchedule); its per-epoch
//! `(device, from_task)` projection
//! ([`ChurnEpoch::leaves`](pico_partition::ChurnEpoch::leaves)) reaches
//! the runtime through [`RuntimeBuilder::leaves`](crate::RuntimeBuilder::leaves),
//! the same slice the discrete-event simulator's `with_failures` takes.
//! Two pieces here cooperate with it:
//!
//! * [`FailureRecord`] — what the runtime observed: which device died,
//!   at which stage and task, and why (populated into
//!   [`RunReport::failures`](crate::RunReport::failures));
//! * [`RecoveryPolicy`] — what the runtime may do about it: retry a
//!   dead worker's shard on a surviving device of the same stage with
//!   capped exponential backoff, and when a stage loses every worker,
//!   re-plan over the surviving cluster and resume the stream.

use std::time::Duration;

use pico_partition::{Cluster, CostParams};

/// What the runtime observed about one device failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// The device classified as dead.
    pub device: usize,
    /// Stage the device was serving.
    pub stage: usize,
    /// Task index being processed when the failure was detected.
    pub task: usize,
    /// Human-readable cause (the worker's error, or a timeout note).
    pub cause: String,
}

/// Retry rounds per task beyond the first attempt.
pub(crate) const MAX_RETRIES: usize = 3;
/// Backoff before the first retry round; each later round doubles it.
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Ceiling on the doubled backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(50);

/// Backoff before retry round `round` (1-based): `BACKOFF_BASE ·
/// 2^(round-1)`, capped at `BACKOFF_CAP`.
pub(crate) fn backoff(round: usize) -> Duration {
    let shift = round.saturating_sub(1).min(16) as u32;
    BACKOFF_BASE.saturating_mul(1 << shift).min(BACKOFF_CAP)
}

/// How the runtime responds to device failures.
///
/// With a policy installed (via
/// [`RuntimeBuilder::recovery`](crate::RuntimeBuilder::recovery)), a
/// worker error or response timeout classifies the device as dead
/// instead of failing the run: its shard is retried on a surviving
/// device of the same stage (up to 3 rounds, backing off 1 ms doubling
/// to 50 ms), and when a stage loses every worker the runtime re-plans
/// with [`PicoPlanner`](pico_partition::PicoPlanner) over the surviving
/// cluster and resumes the task stream.
#[derive(Debug)]
pub struct RecoveryPolicy {
    pub(crate) cluster: Cluster,
    pub(crate) params: CostParams,
    pub(crate) task_timeout: Option<Duration>,
}

impl RecoveryPolicy {
    /// A policy that re-plans over `cluster` / `params` (pass the same
    /// pair the original plan came from), with no response timeout
    /// (failures are detected from explicit worker errors only).
    pub fn new(cluster: Cluster, params: CostParams) -> Self {
        RecoveryPolicy {
            cluster,
            params,
            task_timeout: None,
        }
    }

    /// Classifies a worker as dead when it does not answer within
    /// `timeout` (detects hangs, not just explicit errors). Choose a
    /// timeout above the slowest healthy response — throttled workers
    /// sleep to their cost-model duration and must not be declared
    /// dead for it.
    pub fn with_task_timeout(mut self, timeout: Duration) -> Self {
        self.task_timeout = Some(timeout);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(1), Duration::from_millis(1));
        assert_eq!(backoff(2), Duration::from_millis(2));
        assert_eq!(backoff(6), Duration::from_millis(32));
        assert_eq!(backoff(7), Duration::from_millis(50));
        assert_eq!(backoff(30), Duration::from_millis(50));
    }
}
