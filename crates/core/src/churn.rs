//! Churn-driven execution: running a task stream while the cluster's
//! membership changes underneath it.
//!
//! A [`ClusterSchedule`] (DESIGN.md §17) slices the stream into
//! *epochs* — maximal runs of tasks over one fixed membership. Inside
//! an epoch only departures happen: the epoch's
//! [`leaves`](pico_partition::ChurnEpoch::leaves) go to the runtime
//! as they are, and the in-run
//! [`RecoveryPolicy`](pico_runtime::RecoveryPolicy) absorbs them. At
//! an epoch boundary devices join, rejoin, or change capacity, and the
//! deployment must
//! *re-admit* them: stale plan-cache entries for the old membership are
//! invalidated, a fresh frontier is built (or fetched) for the new
//! membership, and the incoming plan only takes over after the deep
//! audit (PA3xx) and the switch-pair audit (PA305–PA307) both pass —
//! driven through the same [`ReplanKernel`](pico_sim::ReplanKernel)
//! propose → committed/rejected protocol the adaptive serving path
//! uses, so churn-driven swaps cannot bypass the gates λ-driven ones
//! go through.

use pico_audit::Auditor;
use pico_fleet::{CacheKey, ClusterSignature, FleetConfig, FleetFrontier, PlanCache};
use pico_partition::{ChurnError, ClusterSchedule, Plan, Scheme};
use pico_runtime::{RecoveryPolicy, RuntimeError};
use pico_sim::{ReplanPolicy, ReplanVerdict, WorkloadBand};
use pico_telemetry::{names, Ctx};
use pico_tensor::Tensor;

use crate::Pico;

/// Why a churn-driven execution could not complete.
#[derive(Debug)]
#[non_exhaustive]
pub enum ChurnRunError {
    /// The schedule itself is illegal against the deployment's cluster
    /// (unknown device, double leave, duplicate join, …).
    Schedule(ChurnError),
    /// No plan frontier could be built over an epoch's membership.
    Planning {
        /// Index of the epoch whose membership could not be planned.
        epoch: usize,
        /// The underlying planner/frontier error.
        detail: String,
    },
    /// The audit gate rejected the epoch's incoming plan or the
    /// switch pair — the re-admission does not happen.
    AuditRejected {
        /// Index of the epoch whose re-plan was rejected.
        epoch: usize,
        /// The rejecting report, rendered.
        detail: String,
    },
    /// The pipeline failed inside an epoch.
    Runtime(RuntimeError),
}

impl std::fmt::Display for ChurnRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnRunError::Schedule(e) => write!(f, "illegal churn schedule: {e}"),
            ChurnRunError::Planning { epoch, detail } => {
                write!(f, "epoch {epoch}: planning failed: {detail}")
            }
            ChurnRunError::AuditRejected { epoch, detail } => {
                write!(
                    f,
                    "epoch {epoch}: audit gate rejected the re-plan: {detail}"
                )
            }
            ChurnRunError::Runtime(e) => write!(f, "churn execution failed: {e}"),
        }
    }
}

impl std::error::Error for ChurnRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChurnRunError::Schedule(e) => Some(e),
            ChurnRunError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ChurnError> for ChurnRunError {
    fn from(e: ChurnError) -> Self {
        ChurnRunError::Schedule(e)
    }
}

impl From<RuntimeError> for ChurnRunError {
    fn from(e: RuntimeError) -> Self {
        ChurnRunError::Runtime(e)
    }
}

/// What one churn epoch did.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Global task index the epoch starts at.
    pub start_task: usize,
    /// Tasks executed inside the epoch.
    pub tasks: usize,
    /// Live device ids serving the epoch, ascending.
    pub devices: Vec<usize>,
    /// Devices admitted (join or rejoin) at this epoch's boundary.
    pub admitted: Vec<usize>,
    /// Devices re-provisioned at this epoch's boundary.
    pub resized: Vec<usize>,
    /// Scheme of the plan that served the epoch.
    pub scheme: Scheme,
    /// Whether the boundary re-plan was committed through the kernel's
    /// propose → committed protocol (false for the first epoch and for
    /// boundaries where the membership's best plan needed no switch).
    pub switch_committed: bool,
    /// Scripted departures the in-epoch recovery absorbed.
    pub failures: usize,
}

/// The outcome of executing a task stream under membership churn: the
/// full output set (nothing dropped), plus per-epoch accounting.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Final feature maps for every input task, in submission order.
    pub outputs: Vec<Tensor>,
    /// One record per epoch, in stream order.
    pub epochs: Vec<EpochRecord>,
    /// Plan-cache entries invalidated because their cluster signature
    /// went stale during this run.
    pub cache_invalidations: u64,
}

impl Pico {
    /// Executes `inputs` under the membership churn scripted by
    /// `schedule` (see [`ClusterSchedule::parse`] for the on-disk
    /// grammar).
    ///
    /// Departures inside an epoch are absorbed by the in-run recovery
    /// policy; every re-admission boundary re-plans over the new
    /// membership behind the deep-audit and switch-pair gates, and
    /// invalidates plan-cache entries keyed to the membership that no
    /// longer exists. Outputs are bit-exact with clean single-cluster
    /// inference: churn changes *where* work runs, never its result.
    ///
    /// # Errors
    ///
    /// [`ChurnRunError::Schedule`] for an illegal schedule,
    /// [`ChurnRunError::Planning`] / [`ChurnRunError::AuditRejected`]
    /// when a membership cannot be re-planned cleanly, and
    /// [`ChurnRunError::Runtime`] for in-epoch execution failures.
    pub fn execute_churn(
        &self,
        inputs: Vec<Tensor>,
        seed: u64,
        schedule: &ClusterSchedule,
    ) -> Result<ChurnReport, ChurnRunError> {
        let epochs = schedule.epochs(self.cluster())?;
        let cache = self.plan_cache();
        let mut outputs: Vec<Tensor> = Vec::with_capacity(inputs.len());
        let mut records: Vec<EpochRecord> = Vec::with_capacity(epochs.len());
        let mut invalidations = 0u64;
        let mut prev: Option<(Plan, ClusterSignature)> = None;

        for (e_idx, epoch) in epochs.iter().enumerate() {
            let start = epoch.start_task.min(inputs.len());
            let end = epochs
                .get(e_idx + 1)
                .map_or(inputs.len(), |n| n.start_task)
                .min(inputs.len());

            let key = CacheKey::new(
                self.model(),
                &epoch.cluster,
                &self.params(),
                WorkloadBand::point(0.0),
            );
            let frontier = cache
                .get_or_build(key, self.recorder(), || {
                    FleetFrontier::build(
                        self.model(),
                        &epoch.cluster,
                        &self.params(),
                        FleetConfig::default(),
                    )
                })
                .map_err(|e| ChurnRunError::Planning {
                    epoch: e_idx,
                    detail: e.to_string(),
                })?;

            let to = frontier.max_throughput();
            let plan = frontier.entries()[to].plan.clone();
            let auditor = Auditor::new(self.model(), &epoch.cluster).with_params(self.params());
            let deep = auditor.audit_deep(&plan);
            if !deep.is_executable() {
                return Err(ChurnRunError::AuditRejected {
                    epoch: e_idx,
                    detail: deep.to_string(),
                });
            }

            let mut switch_committed = false;
            if let Some((prev_plan, prev_sig)) = &prev {
                if epoch.needs_replan() {
                    // The old membership no longer exists: any frontier
                    // cached for it would route work to hardware that
                    // is not there.
                    if *prev_sig != frontier.signature() {
                        invalidations += cache.invalidate_stale(*prev_sig, self.recorder());
                    }
                    for &d in &epoch.admitted {
                        self.recorder().instant(
                            names::DEVICE_REJOINED,
                            Ctx::default().on_device(d).for_task(epoch.start_task),
                        );
                    }
                    // PA305–PA307 over the actual outgoing/incoming
                    // pair, then the kernel commit protocol so the
                    // swap follows the same path as a λ-driven one.
                    let pair = auditor.audit_switch_pair(prev_plan, &plan);
                    if !pair.is_executable() {
                        return Err(ChurnRunError::AuditRejected {
                            epoch: e_idx,
                            detail: pair.to_string(),
                        });
                    }
                    let from = frontier
                        .entries()
                        .iter()
                        .position(|en| en.plan.scheme == prev_plan.scheme)
                        .unwrap_or(to);
                    if from != to {
                        let mut kernel = frontier.kernel(from, ReplanPolicy::default());
                        if let ReplanVerdict::Switch { .. } =
                            kernel.propose(to, epoch.start_task as f64)
                        {
                            kernel.committed();
                            switch_committed = true;
                            self.recorder().instant(
                                names::REPLAN_TRIGGERED,
                                Ctx::stage(to).for_task(epoch.start_task),
                            );
                        } else {
                            // The frontier's own switch matrix refuses
                            // the hop even though the direct pair audit
                            // passed — stay conservative and keep the
                            // outgoing scheme's successor.
                            kernel.rejected();
                        }
                    }
                }
            }

            let mut record = EpochRecord {
                start_task: epoch.start_task,
                tasks: end.saturating_sub(start),
                devices: epoch.cluster.devices().iter().map(|d| d.id).collect(),
                admitted: epoch.admitted.clone(),
                resized: epoch.resized.clone(),
                scheme: plan.scheme,
                switch_committed,
                failures: 0,
            };

            if start < end {
                let engine = self.engine(seed);
                let report = self
                    .runtime(&plan, &engine)
                    .leaves(&epoch.leaves)
                    .recovery(RecoveryPolicy::new(epoch.cluster.clone(), self.params()))
                    .build()
                    .run(inputs[start..end].to_vec())?;
                record.failures = report.failures.len();
                outputs.extend(report.outputs);
            }
            records.push(record);
            prev = Some((plan, frontier.signature()));
        }

        Ok(ChurnReport {
            outputs,
            epochs: records,
            cache_invalidations: invalidations,
        })
    }

    /// The plan cache churn re-admission works against: the dedicated
    /// cache set by [`Pico::with_plan_cache`], else the process-global
    /// one.
    pub fn plan_cache(&self) -> &PlanCache {
        match self.cache() {
            Some(cache) => cache,
            None => PlanCache::global(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use pico_model::zoo;
    use pico_partition::Cluster;

    fn deployment(cache: &Arc<PlanCache>) -> Pico {
        Pico::new(zoo::mnist_toy(), Cluster::pi_cluster(4, 1.0)).with_plan_cache(cache.clone())
    }

    fn stream(pico: &Pico, n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::random(pico.model().input_shape(), 90 + i as u64))
            .collect()
    }

    #[test]
    fn leave_and_rejoin_is_bit_exact_with_clean_inference() {
        let cache = Arc::new(PlanCache::new(64));
        let pico = deployment(&cache);
        let inputs = stream(&pico, 6);
        let clean = {
            let plan = pico.plan().unwrap();
            pico.execute(&plan, inputs.clone(), 7).unwrap().outputs
        };
        let schedule = ClusterSchedule::new().leave(3, 2).rejoin(3, 4);
        let report = pico.execute_churn(inputs, 7, &schedule).unwrap();
        assert_eq!(report.outputs, clean);
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.epochs[1].admitted, vec![3]);
        // The rejoin epoch carries no failure entries at all.
        assert_eq!(report.epochs[1].failures, 0);
    }

    #[test]
    fn readmission_invalidates_the_stale_membership() {
        let cache = Arc::new(PlanCache::new(64));
        let pico = deployment(&cache);
        let inputs = stream(&pico, 5);
        let schedule = ClusterSchedule::new().leave(2, 1).rejoin(2, 3);
        let report = pico.execute_churn(inputs, 3, &schedule).unwrap();
        // Epoch 0 runs the full 4-device membership, epoch 1 re-admits
        // device 2 and returns to it: the 4-device frontier is shared,
        // and nothing was planned for the 3-device interlude (leaves
        // are absorbed in-run), so no signature ever goes stale here.
        assert_eq!(report.cache_invalidations, 0);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 1, "{stats:?}");
    }

    #[test]
    fn join_changes_membership_and_invalidates() {
        let cache = Arc::new(PlanCache::new(64));
        let pico = deployment(&cache);
        let inputs = stream(&pico, 6);
        let schedule = ClusterSchedule::new().join(4, 3, 1.0);
        let report = pico.execute_churn(inputs, 11, &schedule).unwrap();
        // The 4-device frontier went stale when device 4 joined.
        assert_eq!(report.cache_invalidations, 1);
        assert_eq!(report.epochs[1].devices, vec![0, 1, 2, 3, 4]);
        let clean = {
            let plan = pico.plan().unwrap();
            pico.execute(&plan, stream(&pico, 6), 11).unwrap().outputs
        };
        assert_eq!(report.outputs, clean);
    }

    #[test]
    fn illegal_schedule_is_a_typed_error() {
        let cache = Arc::new(PlanCache::new(64));
        let pico = deployment(&cache);
        let inputs = stream(&pico, 2);
        let schedule = ClusterSchedule::new().rejoin(1, 1); // never left
        let err = pico.execute_churn(inputs, 1, &schedule).unwrap_err();
        assert!(matches!(err, ChurnRunError::Schedule(_)), "{err}");
        assert!(err.to_string().contains("illegal churn schedule"));
    }
}
