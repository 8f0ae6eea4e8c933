use pico_model::{Model, Region2, Rows, Segment};

use crate::{Cluster, PlanError};

/// One device's share of a stage: the region of the stage's *final
/// output* feature map it must produce (the paper's `F_j^k`).
///
/// PICO's plans are row strips (`cols = None`, meaning the full width);
/// the DeepThings-style grid extension restricts columns too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Device id (within the plan's cluster).
    pub device: usize,
    /// Output rows the device produces.
    pub rows: Rows,
    /// Output columns the device produces (`None` = the full width, the
    /// paper's strip partitioning).
    pub cols: Option<Rows>,
}

impl Assignment {
    /// Creates a full-width (strip) assignment.
    pub fn new(device: usize, rows: Rows) -> Self {
        Assignment {
            device,
            rows,
            cols: None,
        }
    }

    /// Creates a rectangular (grid-tile) assignment.
    pub fn tile(device: usize, region: Region2) -> Self {
        Assignment {
            device,
            rows: region.rows,
            cols: Some(region.cols),
        }
    }

    /// Whether the assignment covers no output.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() || self.cols.is_some_and(|c| c.is_empty())
    }

    /// The output region for a map of the given width.
    pub fn region(&self, width: usize) -> Region2 {
        Region2::new(self.rows, self.cols.unwrap_or(Rows::full(width)))
    }
}

/// One pipeline stage `S_{i->j} = (D_{i->j}, F_j)`: a contiguous model
/// segment plus the per-device output partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// The model units this stage executes.
    pub segment: Segment,
    /// Per-device output row shares, in row order.
    pub assignments: Vec<Assignment>,
}

impl Stage {
    /// Creates a stage.
    pub fn new(segment: Segment, assignments: Vec<Assignment>) -> Self {
        Stage {
            segment,
            assignments,
        }
    }

    /// Device ids participating in this stage (with non-empty shares).
    pub fn device_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.assignments
            .iter()
            .filter(|a| !a.is_empty())
            .map(|a| a.device)
    }

    /// Whether any assignment restricts columns (a grid stage).
    pub fn is_grid(&self) -> bool {
        self.assignments.iter().any(|a| a.cols.is_some())
    }

    /// Number of devices with non-empty shares.
    pub fn worker_count(&self) -> usize {
        self.device_ids().count()
    }
}

/// Which parallelization strategy produced a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Layer-wise (MoDNN).
    LayerWise,
    /// Early-fused-layer (DeepThings).
    EarlyFused,
    /// Optimal-fused-layer (AOFL).
    OptimalFused,
    /// PICO pipeline (this paper).
    Pico,
    /// Exhaustive optimal pipeline (BFS baseline).
    BfsOptimal,
    /// Grid-partitioned early fusion (DeepThings' actual 2-D scheme,
    /// implemented here as an extension).
    GridFused,
    /// Interleaved operator partitioning (arXiv 2409.07693): per-unit
    /// stages alternating the split axis between rows and columns.
    Interleaved,
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Scheme::LayerWise => "LW",
            Scheme::EarlyFused => "EFL",
            Scheme::OptimalFused => "OFL",
            Scheme::Pico => "PICO",
            Scheme::BfsOptimal => "BFS",
            Scheme::GridFused => "GRID",
            Scheme::Interleaved => "ILV",
        };
        f.write_str(s)
    }
}

/// How a plan's stages execute over a task stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Stages run concurrently on disjoint device subsets; a new task
    /// enters as soon as the first stage frees up. Period = max stage
    /// cost (Eq. 10); the paper's PICO/BFS plans.
    Pipelined,
    /// Stages run one after another on (possibly) the same devices; the
    /// whole cluster serves one task at a time, so period = latency
    /// ("for those one-stage schemes p is equal to t"): LW/EFL/OFL.
    Sequential,
}

/// A complete parallelization strategy: the stage set `S` of Eq. 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The strategy that produced this plan.
    pub scheme: Scheme,
    /// How stages execute.
    pub mode: ExecutionMode,
    /// The stages, in model order.
    pub stages: Vec<Stage>,
}

impl Plan {
    /// Creates a plan.
    pub fn new(scheme: Scheme, mode: ExecutionMode, stages: Vec<Stage>) -> Self {
        Plan {
            scheme,
            mode,
            stages,
        }
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Ids of all devices that do work somewhere in the plan
    /// (deduplicated, ascending).
    pub fn used_devices(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .stages
            .iter()
            .flat_map(|s| s.device_ids().collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Validates the plan against a model and cluster:
    ///
    /// * stages cover the model's units contiguously, in order, exactly;
    /// * every stage has at least one non-empty assignment;
    /// * every assignment's device exists in the cluster;
    /// * within a stage, shares are disjoint and cover the stage's
    ///   output rows exactly;
    /// * in [`ExecutionMode::Pipelined`] plans, no device serves two
    ///   stages (stages must be able to run concurrently).
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] found. This is a thin wrapper
    /// over [`crate::diag::structural_diagnostics`] — the same passes,
    /// run to completion there, truncated to the first finding here —
    /// so the boolean validator and the diagnostics engine can never
    /// disagree.
    pub fn validate(&self, model: &Model, cluster: &Cluster) -> Result<(), PlanError> {
        match crate::diag::structural_findings(self, model, cluster)
            .into_iter()
            .next()
        {
            Some(f) => Err(f.error),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Device;
    use pico_model::{rows_split_even, zoo};

    fn simple_plan(model: &Model, cluster: &Cluster) -> Plan {
        let h = model.output_shape().height;
        let shares = rows_split_even(Rows::full(h), cluster.len());
        let assignments = cluster
            .devices()
            .iter()
            .zip(shares)
            .map(|(d, r)| Assignment::new(d.id, r))
            .collect();
        Plan::new(
            Scheme::EarlyFused,
            ExecutionMode::Sequential,
            vec![Stage::new(model.full_segment(), assignments)],
        )
    }

    #[test]
    fn valid_single_stage_plan() {
        let m = zoo::toy(4);
        let c = Cluster::pi_cluster(4, 1.0);
        assert!(simple_plan(&m, &c).validate(&m, &c).is_ok());
    }

    #[test]
    fn rejects_gap_in_stages() {
        let m = zoo::toy(4);
        let c = Cluster::pi_cluster(2, 1.0);
        let h = m.output_shape().height;
        let plan = Plan::new(
            Scheme::Pico,
            ExecutionMode::Pipelined,
            vec![
                Stage::new(Segment::new(0, 2), vec![Assignment::new(0, Rows::full(h))]),
                Stage::new(Segment::new(3, 4), vec![Assignment::new(1, Rows::full(h))]),
            ],
        );
        assert!(matches!(
            plan.validate(&m, &c),
            Err(PlanError::NonContiguousStages { .. })
        ));
    }

    #[test]
    fn rejects_incomplete_coverage() {
        let m = zoo::toy(4);
        let c = Cluster::pi_cluster(1, 1.0);
        let h = m.output_shape().height;
        let plan = Plan::new(
            Scheme::Pico,
            ExecutionMode::Pipelined,
            vec![Stage::new(
                Segment::new(0, 2),
                vec![Assignment::new(0, Rows::full(h))],
            )],
        );
        assert!(matches!(
            plan.validate(&m, &c),
            Err(PlanError::IncompleteCoverage { .. })
        ));
    }

    #[test]
    fn rejects_device_reuse_in_pipeline() {
        let m = zoo::toy(4);
        let c = Cluster::pi_cluster(2, 1.0);
        let h = m.output_shape().height;
        let plan = Plan::new(
            Scheme::Pico,
            ExecutionMode::Pipelined,
            vec![
                Stage::new(Segment::new(0, 2), vec![Assignment::new(0, Rows::full(h))]),
                Stage::new(Segment::new(2, 4), vec![Assignment::new(0, Rows::full(h))]),
            ],
        );
        assert!(matches!(
            plan.validate(&m, &c),
            Err(PlanError::DeviceReuse { device: 0, .. })
        ));
    }

    #[test]
    fn allows_device_reuse_in_sequential() {
        let m = zoo::toy(4);
        let c = Cluster::pi_cluster(1, 1.0);
        let h = m.output_shape().height;
        let plan = Plan::new(
            Scheme::OptimalFused,
            ExecutionMode::Sequential,
            vec![
                Stage::new(Segment::new(0, 2), vec![Assignment::new(0, Rows::full(h))]),
                Stage::new(Segment::new(2, 4), vec![Assignment::new(0, Rows::full(h))]),
            ],
        );
        assert!(plan.validate(&m, &c).is_ok());
    }

    #[test]
    fn rejects_partial_row_cover() {
        let m = zoo::toy(2);
        let c = Cluster::pi_cluster(2, 1.0);
        let h = m.output_shape().height;
        let plan = Plan::new(
            Scheme::Pico,
            ExecutionMode::Pipelined,
            vec![Stage::new(
                m.full_segment(),
                vec![
                    Assignment::new(0, Rows::new(0, h / 2)),
                    Assignment::new(1, Rows::new(h / 2, h - 1)),
                ],
            )],
        );
        assert!(matches!(
            plan.validate(&m, &c),
            Err(PlanError::BadRowCover { .. })
        ));
    }

    #[test]
    fn rejects_unknown_device() {
        let m = zoo::toy(2);
        let c = Cluster::pi_cluster(1, 1.0);
        let h = m.output_shape().height;
        let plan = Plan::new(
            Scheme::Pico,
            ExecutionMode::Pipelined,
            vec![Stage::new(
                m.full_segment(),
                vec![Assignment::new(42, Rows::full(h))],
            )],
        );
        assert!(matches!(
            plan.validate(&m, &c),
            Err(PlanError::UnknownDevice { device: 42 })
        ));
    }

    #[test]
    fn used_devices_deduplicates() {
        let m = zoo::toy(4);
        let _c = Cluster::new(vec![
            Device::from_frequency(7, 1.0),
            Device::from_frequency(3, 1.0),
        ]);
        let h = m.output_shape().height;
        let plan = Plan::new(
            Scheme::OptimalFused,
            ExecutionMode::Sequential,
            vec![
                Stage::new(Segment::new(0, 2), vec![Assignment::new(7, Rows::full(h))]),
                Stage::new(Segment::new(2, 4), vec![Assignment::new(7, Rows::full(h))]),
            ],
        );
        assert_eq!(plan.used_devices(), vec![7]);
    }

    #[test]
    fn empty_assignments_are_skipped_in_cover() {
        let m = zoo::toy(2);
        let c = Cluster::pi_cluster(3, 1.0);
        let h = m.output_shape().height;
        let plan = Plan::new(
            Scheme::Pico,
            ExecutionMode::Pipelined,
            vec![Stage::new(
                m.full_segment(),
                vec![
                    Assignment::new(0, Rows::new(0, h)),
                    Assignment::new(1, Rows::empty()),
                ],
            )],
        );
        assert!(plan.validate(&m, &c).is_ok());
    }
}
