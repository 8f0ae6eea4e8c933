use pico_model::{Model, Region2, Rows, Segment};

use crate::{Assignment, Cluster, Device, ExecutionMode, Plan, Stage};

/// Environment parameters of the cost model: the shared WLAN bandwidth
/// `b` (the paper assumes one uniform bandwidth for all device pairs)
/// and an optional pipeline latency limit `T_lim` (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Shared bandwidth in **bits per second**.
    pub bandwidth_bps: f64,
    /// Latency constraint `T_lim` in seconds (`None` = unconstrained).
    pub t_lim: Option<f64>,
    /// Multiplier on every predicted compute time (Eq. 5 becomes
    /// `t = alpha_scale · α · θ / ϑ`). `1.0` keeps the nominal
    /// one-FLOP-per-cycle assumption; [`CostParams::calibrated`]
    /// re-fits it from measured per-layer kernel times so planner
    /// periods track the deployed compute backend. Scaling is uniform,
    /// so share balancing and stage ordering are unaffected — only
    /// absolute period/latency predictions move.
    pub alpha_scale: f64,
    /// Per-backend throughput multiplier on compute times, composing
    /// multiplicatively with `alpha_scale` (Eq. 5 becomes
    /// `t = backend_alpha · alpha_scale · α · θ / ϑ`). `1.0` prices
    /// the engine's default backend (`Simd`: the host's vector kernel,
    /// the scalar one where it has none), the one
    /// `pico_bench::suites::calibration` fits `alpha_scale` on. A
    /// device forced onto another backend runs the same FLOPs in a
    /// different time, so its plans carry that backend's ratio to the
    /// default (`pico_bench::suites::measured_backend_alpha`: above 1
    /// for the scalar `Im2colGemm`, below 1 for a faster kernel;
    /// `pico bench kernels` prints the per-backend medians it is
    /// derived from; see EXPERIMENTS.md).
    pub backend_alpha: f64,
}

impl CostParams {
    /// Creates parameters with the given bandwidth in bits/s.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not strictly positive and finite.
    pub fn new(bandwidth_bps: f64) -> Self {
        assert!(
            bandwidth_bps.is_finite() && bandwidth_bps > 0.0,
            "bandwidth must be positive and finite"
        );
        CostParams {
            bandwidth_bps,
            t_lim: None,
            alpha_scale: 1.0,
            backend_alpha: 1.0,
        }
    }

    /// The paper's testbed network: a WiFi access point with 50 Mbps.
    pub fn wifi_50mbps() -> Self {
        CostParams::new(50e6)
    }

    /// Returns these parameters with a latency limit.
    pub fn with_t_lim(mut self, t_lim: f64) -> Self {
        assert!(t_lim.is_finite() && t_lim > 0.0, "t_lim must be positive");
        self.t_lim = Some(t_lim);
        self
    }

    /// Returns these parameters pricing a compute backend `ratio`×
    /// faster (`ratio > 1`, e.g. the measured `Reference/Simd` median
    /// ratio) — sugar for setting [`CostParams::backend_alpha`] to
    /// `1 / ratio`.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not strictly positive and finite.
    pub fn with_backend_speedup(mut self, ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio > 0.0,
            "backend speedup must be positive and finite"
        );
        self.backend_alpha = 1.0 / ratio;
        self
    }

    /// Re-fits the compute coefficient from measured per-layer kernel
    /// times: a least-squares fit through the origin of
    /// `seconds = alpha_scale · flops / capacity` over `samples` of
    /// `(flops, seconds)` pairs measured on a device of nominal
    /// `capacity` cycles/s (`pico bench planner` prints such a fit for
    /// the active backend).
    ///
    /// Samples with non-positive or non-finite entries are ignored;
    /// with no usable sample the parameters are returned unchanged.
    pub fn calibrated(mut self, capacity: f64, samples: &[(f64, f64)]) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive and finite"
        );
        let mut num = 0.0;
        let mut den = 0.0;
        for &(flops, secs) in samples {
            if flops.is_finite() && secs.is_finite() && flops > 0.0 && secs > 0.0 {
                let x = flops / capacity;
                num += x * secs;
                den += x * x;
            }
        }
        if den > 0.0 {
            self.alpha_scale = num / den;
        }
        self
    }

    /// Builds a [`CostModel`] for a model under these parameters.
    pub fn cost_model<'m>(&self, model: &'m Model) -> CostModel<'m> {
        CostModel {
            model,
            params: *self,
        }
    }
}

impl Default for CostParams {
    /// The paper's 50 Mbps WiFi, no latency limit.
    fn default() -> Self {
        CostParams::wifi_50mbps()
    }
}

/// Computation/communication breakdown of one stage (Eq. 9:
/// `T(S) = T_comp(S) + T_comm(S)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// `T_comp`: the slowest device's compute time (Eq. 6).
    pub comp: f64,
    /// `T_comm`: summed transfer time over the stage's devices (Eq. 8).
    pub comm: f64,
}

impl StageCost {
    /// Total stage time (Eq. 9).
    pub fn total(&self) -> f64 {
        self.comp + self.comm
    }
}

/// Predicted performance of a whole plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanMetrics {
    /// Pipeline period `P` (Eq. 10) — the reciprocal of throughput. For
    /// sequential (one-stage) schemes this equals `latency`.
    pub period: f64,
    /// Pipeline latency `T` (Eq. 11) — time for one task to traverse
    /// all stages.
    pub latency: f64,
    /// Per-stage cost breakdown.
    pub stage_costs: Vec<StageCost>,
}

impl PlanMetrics {
    /// Steady-state throughput in tasks per second (`1 / period`).
    pub fn throughput(&self) -> f64 {
        1.0 / self.period
    }
}

/// The paper's analytic cost model (Sec. III-B) bound to one model.
///
/// All times are seconds, all data volumes are bytes (converted to bits
/// against [`CostParams::bandwidth_bps`]).
#[derive(Debug, Clone)]
pub struct CostModel<'m> {
    model: &'m Model,
    params: CostParams,
}

impl<'m> CostModel<'m> {
    /// The model being costed.
    pub fn model(&self) -> &'m Model {
        self.model
    }

    /// The environment parameters.
    pub fn params(&self) -> CostParams {
        self.params
    }

    /// Eq. 5: time for `device` to compute output rows `rows` of
    /// segment `seg` (including halo redundancy), scaled by the
    /// calibrated compute coefficient.
    pub fn assignment_comp_time(&self, device: &Device, seg: Segment, rows: Rows) -> f64 {
        self.params.backend_alpha
            * self.params.alpha_scale
            * device.compute_time(self.model.segment_flops(seg, rows))
    }

    /// Eq. 7: time to ship one device's input tile in and output tile
    /// back over the shared link.
    pub fn assignment_comm_time(&self, seg: Segment, rows: Rows) -> f64 {
        let bytes = self.assignment_comm_bytes(seg, rows);
        bytes as f64 * 8.0 / self.params.bandwidth_bps
    }

    /// Bytes moved for one assignment: `φ(F_i^k) + φ(F_j^k)`.
    pub fn assignment_comm_bytes(&self, seg: Segment, rows: Rows) -> usize {
        if rows.is_empty() {
            return 0;
        }
        let in_rows = self.model.segment_input_rows(seg, rows);
        let in_bytes = self
            .model
            .unit_input_shape(seg.start)
            .row_bytes(in_rows.len());
        let out_bytes = self
            .model
            .unit_output_shape(seg.end - 1)
            .row_bytes(rows.len());
        in_bytes + out_bytes
    }

    /// Eq. 5 for a rectangular tile (grid partitioning).
    pub fn region_comp_time(&self, device: &Device, seg: Segment, region: Region2) -> f64 {
        self.params.backend_alpha
            * self.params.alpha_scale
            * device.compute_time(self.model.segment_region_flops(seg, region))
    }

    /// Bytes moved for a rectangular tile: input region + output region.
    pub fn region_comm_bytes(&self, seg: Segment, region: Region2) -> usize {
        if region.is_empty() {
            return 0;
        }
        let need = self.model.segment_input_region(seg, region);
        need.bytes(self.model.unit_input_shape(seg.start).channels)
            + region.bytes(self.model.unit_output_shape(seg.end - 1).channels)
    }

    /// Eq. 7 for a rectangular tile.
    pub fn region_comm_time(&self, seg: Segment, region: Region2) -> f64 {
        self.region_comm_bytes(seg, region) as f64 * 8.0 / self.params.bandwidth_bps
    }

    /// Compute time of one assignment (strip or tile).
    pub fn comp_time_of(&self, device: &Device, seg: Segment, a: &Assignment) -> f64 {
        match a.cols {
            None => self.assignment_comp_time(device, seg, a.rows),
            Some(_) => {
                let width = self.model.unit_output_shape(seg.end - 1).width;
                self.region_comp_time(device, seg, a.region(width))
            }
        }
    }

    /// Transfer time of one assignment (strip or tile).
    pub fn comm_time_of(&self, seg: Segment, a: &Assignment) -> f64 {
        match a.cols {
            None => self.assignment_comm_time(seg, a.rows),
            Some(_) => {
                let width = self.model.unit_output_shape(seg.end - 1).width;
                self.region_comm_time(seg, a.region(width))
            }
        }
    }

    /// Eqs. 6 + 8 + 9: a stage's compute (max over devices) and
    /// communication (sum over devices) cost.
    ///
    /// Following Eq. 8 literally, *every* device in the stage — even a
    /// single one — pays for shipping its input tile in and its output
    /// tile out over the shared link: in a pipeline, data always moves
    /// between the coordinator `d_f` and the compute devices, and
    /// between consecutive stages' coordinators.
    ///
    /// # Panics
    ///
    /// Panics if an assignment references a device missing from
    /// `cluster`. Validate plans first ([`Plan::validate`]).
    pub fn stage_cost(&self, stage: &Stage, cluster: &Cluster) -> StageCost {
        let workers: Vec<&Assignment> =
            stage.assignments.iter().filter(|a| !a.is_empty()).collect();
        let comp = workers
            .iter()
            .map(|a| {
                let device = cluster
                    .device(a.device)
                    .expect("plan references device missing from cluster");
                self.comp_time_of(device, stage.segment, a)
            })
            .fold(0.0, f64::max);
        let comm = workers
            .iter()
            .map(|a| self.comm_time_of(stage.segment, a))
            .sum();
        StageCost { comp, comm }
    }

    /// Evaluates a plan: per-stage costs, pipeline period (Eq. 10), and
    /// pipeline latency (Eq. 11).
    ///
    /// # Panics
    ///
    /// Panics if the plan references devices missing from `cluster`.
    pub fn evaluate(&self, plan: &Plan, cluster: &Cluster) -> PlanMetrics {
        let stage_costs: Vec<StageCost> = plan
            .stages
            .iter()
            .map(|s| self.stage_cost(s, cluster))
            .collect();
        let latency: f64 = stage_costs.iter().map(StageCost::total).sum();
        let period = match plan.mode {
            ExecutionMode::Pipelined => {
                stage_costs.iter().map(StageCost::total).fold(0.0, f64::max)
            }
            ExecutionMode::Sequential => latency,
        };
        PlanMetrics {
            period,
            latency,
            stage_costs,
        }
    }

    /// Cost of a hypothetical stage: segment `seg` split evenly over the
    /// first `p` devices of `cluster` (the homogeneous `Ts[i][j][p]` of
    /// Algorithm 1).
    pub fn even_stage_cost(&self, seg: Segment, cluster: &Cluster, p: usize) -> StageCost {
        let stage = Stage::new(seg, self.even_shares(seg.end, cluster, p));
        self.stage_cost(&stage, cluster)
    }

    /// The output rows of unit `end - 1` split evenly into `p` strips
    /// over the first `p` devices of `cluster`.
    fn even_shares(&self, end: usize, cluster: &Cluster, p: usize) -> Vec<Assignment> {
        let h = self.model.unit_output_shape(end - 1).height;
        cluster
            .devices()
            .iter()
            .zip(pico_model::rows_split_even(Rows::full(h), p))
            .map(|(d, r)| Assignment::new(d.id, r))
            .collect()
    }

    /// Prices every segment that ends at unit `end` in one backward
    /// walk: `result[i]` is the cost of the stage covering units
    /// `[i, end)` with the row-strip `shares` of unit `end - 1`'s
    /// output, bit-identical to [`stage_cost`](Self::stage_cost) on
    /// `Stage::new(Segment::new(i, end), shares.to_vec())`.
    ///
    /// The rows a share needs of unit `u` depend on `(end, share)` only,
    /// never on where the segment starts, so each non-empty share is
    /// walked back from unit `end - 1` to `0` once; its running FLOP
    /// total (the order [`Model::segment_flops`] accumulates in) and
    /// input-row extent at unit `i` are exactly those of `[i, end)`.
    /// Pricing all `end` suffixes therefore costs `end` unit evaluations
    /// per share instead of `end² / 2`.
    ///
    /// # Panics
    ///
    /// Panics if `end` is not in `1..=model.len()`, if a share restricts
    /// columns (grid tiles do not share a row walk), or if a non-empty
    /// share references a device missing from `cluster`.
    pub fn suffix_stage_costs(
        &self,
        end: usize,
        shares: &[Assignment],
        cluster: &Cluster,
    ) -> Vec<StageCost> {
        assert!(
            (1..=self.model.len()).contains(&end),
            "segment end {end} out of bounds"
        );
        assert!(
            shares.iter().all(|a| a.cols.is_none()),
            "suffix pricing takes row strips only"
        );
        let out_shape = self.model.unit_output_shape(end - 1);
        let scale = self.params.backend_alpha * self.params.alpha_scale;
        let workers: Vec<&Assignment> = shares.iter().filter(|a| !a.is_empty()).collect();
        // comp[w * end + i] / comm[w * end + i]: worker `w`'s Eq. 5 and
        // Eq. 7 times on segment [i, end).
        let mut comp = vec![0.0; workers.len() * end];
        let mut comm = vec![0.0; workers.len() * end];
        for (w, a) in workers.iter().enumerate() {
            let device = cluster
                .device(a.device)
                .expect("plan references device missing from cluster");
            let out_bytes = out_shape.row_bytes(a.rows.len());
            let mut rows = a.rows.clamp_to(out_shape.height);
            let mut flops = 0.0;
            for i in (0..end).rev() {
                let unit = self.model.unit(i);
                let input = self.model.unit_input_shape(i);
                flops += unit.flops(rows, input, self.model.unit_output_shape(i));
                rows = unit.input_rows(rows, input);
                comp[w * end + i] = scale * device.compute_time(flops);
                let bytes = input.row_bytes(rows.len()) + out_bytes;
                comm[w * end + i] = bytes as f64 * 8.0 / self.params.bandwidth_bps;
            }
        }
        (0..end)
            .map(|i| StageCost {
                comp: (0..workers.len())
                    .map(|w| comp[w * end + i])
                    .fold(0.0, f64::max),
                comm: (0..workers.len()).map(|w| comm[w * end + i]).sum(),
            })
            .collect()
    }

    /// Builds Algorithm 1's whole `Ts[i][j][p]` table over `cluster`:
    /// every cell equals
    /// [`even_stage_cost(Segment::new(i, j), cluster, p).total()`](Self::even_stage_cost)
    /// bit for bit, priced with one
    /// [`suffix_stage_costs`](Self::suffix_stage_costs) walk per
    /// `(j, p)` instead of one segment walk per cell.
    ///
    /// The table depends on the model, the cluster and the parameters
    /// other than `t_lim`, so one table serves a whole `T_lim` sweep.
    pub fn even_stage_table(&self, cluster: &Cluster) -> StageTable {
        let units = self.model.len();
        let devices = cluster.len();
        let mut table = StageTable {
            units,
            devices,
            totals: vec![0.0; units * units * devices],
        };
        for end in 1..=units {
            for p in 1..=devices {
                let shares = self.even_shares(end, cluster, p);
                for (start, cost) in self
                    .suffix_stage_costs(end, &shares, cluster)
                    .iter()
                    .enumerate()
                {
                    let cell = table.index(Segment::new(start, end), p);
                    table.totals[cell] = cost.total();
                }
            }
        }
        table
    }
}

/// Algorithm 1's stage-cost table `Ts[i][j][p]`: the total time
/// (Eq. 9) of one stage covering units `[i, j)` split evenly over the
/// first `p` devices of a cluster, for every segment of the model and
/// every `p` up to the cluster size. Built by
/// [`CostModel::even_stage_table`].
#[derive(Debug, Clone)]
pub struct StageTable {
    units: usize,
    devices: usize,
    totals: Vec<f64>,
}

impl StageTable {
    /// Number of model units `L` the table covers.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Largest worker count `|D|` the table covers.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// `Ts[seg.start][seg.end][p]`.
    ///
    /// # Panics
    ///
    /// Panics if `seg` reaches past the model or `p` is not in
    /// `1..=self.devices()`.
    pub fn total(&self, seg: Segment, p: usize) -> f64 {
        self.totals[self.index(seg, p)]
    }

    fn index(&self, seg: Segment, p: usize) -> usize {
        assert!(seg.end <= self.units, "segment {seg} out of bounds");
        assert!(
            (1..=self.devices).contains(&p),
            "worker count {p} out of bounds"
        );
        (seg.start * self.units + seg.end - 1) * self.devices + p - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assignment, Scheme};
    use pico_model::{rows_split_even, zoo};

    fn toy_setup() -> (Model, Cluster, CostParams) {
        (
            zoo::toy(4),
            Cluster::pi_cluster(4, 1.0),
            CostParams::wifi_50mbps(),
        )
    }

    #[test]
    fn comp_time_scales_with_capacity() {
        let (m, _, p) = toy_setup();
        let cm = p.cost_model(&m);
        let slow = Device::from_frequency(0, 0.6);
        let fast = Device::from_frequency(1, 1.2);
        let seg = m.full_segment();
        let rows = Rows::full(m.output_shape().height);
        let t_slow = cm.assignment_comp_time(&slow, seg, rows);
        let t_fast = cm.assignment_comp_time(&fast, seg, rows);
        assert!((t_slow / t_fast - 2.0).abs() < 1e-9);
    }

    #[test]
    fn comm_bytes_count_input_and_output_tiles() {
        let (m, _, p) = toy_setup();
        let cm = p.cost_model(&m);
        let seg = m.full_segment();
        let h = m.output_shape().height;
        let rows = Rows::new(0, h / 2);
        let in_rows = m.segment_input_rows(seg, rows);
        let expected =
            m.input_shape().row_bytes(in_rows.len()) + m.output_shape().row_bytes(rows.len());
        assert_eq!(cm.assignment_comm_bytes(seg, rows), expected);
    }

    #[test]
    fn empty_assignment_moves_nothing() {
        let (m, _, p) = toy_setup();
        let cm = p.cost_model(&m);
        assert_eq!(cm.assignment_comm_bytes(m.full_segment(), Rows::empty()), 0);
    }

    #[test]
    fn comm_time_uses_bits() {
        let (m, _, _) = toy_setup();
        let p = CostParams::new(8.0); // 8 bits/s = 1 byte/s
        let cm = p.cost_model(&m);
        let seg = m.full_segment();
        let rows = Rows::new(0, 4);
        let bytes = cm.assignment_comm_bytes(seg, rows);
        assert!((cm.assignment_comm_time(seg, rows) - bytes as f64).abs() < 1e-9);
    }

    #[test]
    fn single_worker_stage_pays_its_transfer() {
        // Eq. 8 charges every stage device for its input and output
        // tiles, including a solo device.
        let (m, c, p) = toy_setup();
        let cm = p.cost_model(&m);
        let h = m.output_shape().height;
        let stage = Stage::new(m.full_segment(), vec![Assignment::new(0, Rows::full(h))]);
        let cost = cm.stage_cost(&stage, &c);
        let expected = cm.assignment_comm_time(m.full_segment(), Rows::full(h));
        assert!((cost.comm - expected).abs() < 1e-12);
        assert!(cost.comp > 0.0);
    }

    #[test]
    fn stage_comp_is_max_comm_is_sum() {
        let (m, c, p) = toy_setup();
        let cm = p.cost_model(&m);
        let h = m.output_shape().height;
        let shares = rows_split_even(Rows::full(h), 2);
        let stage = Stage::new(
            m.full_segment(),
            vec![Assignment::new(0, shares[0]), Assignment::new(1, shares[1])],
        );
        let cost = cm.stage_cost(&stage, &c);
        let seg = m.full_segment();
        let d0 = c.device(0).unwrap();
        let t0 = cm.assignment_comp_time(d0, seg, shares[0]);
        let t1 = cm.assignment_comp_time(c.device(1).unwrap(), seg, shares[1]);
        assert!((cost.comp - t0.max(t1)).abs() < 1e-12);
        let comm =
            cm.assignment_comm_time(seg, shares[0]) + cm.assignment_comm_time(seg, shares[1]);
        assert!((cost.comm - comm).abs() < 1e-12);
    }

    #[test]
    fn sequential_period_equals_latency() {
        let (m, c, p) = toy_setup();
        let cm = p.cost_model(&m);
        let h = m.output_shape().height;
        let plan = Plan::new(
            Scheme::OptimalFused,
            ExecutionMode::Sequential,
            vec![
                Stage::new(Segment::new(0, 2), vec![Assignment::new(0, Rows::full(h))]),
                Stage::new(Segment::new(2, 4), vec![Assignment::new(1, Rows::full(h))]),
            ],
        );
        let metrics = cm.evaluate(&plan, &c);
        assert_eq!(metrics.period, metrics.latency);
    }

    #[test]
    fn pipelined_period_is_max_stage() {
        let (m, c, p) = toy_setup();
        let cm = p.cost_model(&m);
        let h = m.output_shape().height;
        let plan = Plan::new(
            Scheme::Pico,
            ExecutionMode::Pipelined,
            vec![
                Stage::new(Segment::new(0, 2), vec![Assignment::new(0, Rows::full(h))]),
                Stage::new(Segment::new(2, 4), vec![Assignment::new(1, Rows::full(h))]),
            ],
        );
        let metrics = cm.evaluate(&plan, &c);
        let max = metrics
            .stage_costs
            .iter()
            .map(StageCost::total)
            .fold(0.0, f64::max);
        assert_eq!(metrics.period, max);
        assert!(metrics.period < metrics.latency);
        assert!((metrics.throughput() - 1.0 / max).abs() < 1e-12);
    }

    #[test]
    fn even_stage_cost_more_devices_less_comp() {
        let (m, c, p) = toy_setup();
        let cm = p.cost_model(&m);
        let seg = m.full_segment();
        let c1 = cm.even_stage_cost(seg, &c, 1);
        let c4 = cm.even_stage_cost(seg, &c, 4);
        assert!(c4.comp < c1.comp);
        // Splitting adds halo rows to the summed transfers.
        assert!(c4.comm > c1.comm);
        assert!(c1.comm > 0.0);
    }

    #[test]
    fn default_params_are_paper_wifi() {
        let p = CostParams::default();
        assert_eq!(p.bandwidth_bps, 50e6);
        assert_eq!(p.t_lim, None);
    }

    #[test]
    fn t_lim_builder() {
        let p = CostParams::wifi_50mbps().with_t_lim(2.5);
        assert_eq!(p.t_lim, Some(2.5));
    }

    #[test]
    fn calibrated_recovers_an_exact_coefficient() {
        // Samples generated with alpha_scale = 0.25 at 1 GHz fit back
        // to exactly 0.25.
        let cap = 1e9;
        let truth = 0.25;
        let samples: Vec<(f64, f64)> = [1e8, 5e8, 2e9]
            .iter()
            .map(|&f| (f, truth * f / cap))
            .collect();
        let p = CostParams::wifi_50mbps().calibrated(cap, &samples);
        assert!((p.alpha_scale - truth).abs() < 1e-12);
    }

    #[test]
    fn calibrated_ignores_degenerate_samples() {
        let p = CostParams::wifi_50mbps().calibrated(1e9, &[(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0)]);
        assert_eq!(p.alpha_scale, 1.0);
        let q = CostParams::wifi_50mbps().calibrated(1e9, &[]);
        assert_eq!(q.alpha_scale, 1.0);
    }

    #[test]
    fn alpha_scale_scales_comp_but_not_comm() {
        let (m, c, p) = toy_setup();
        let mut fast = p;
        fast.alpha_scale = 0.5;
        let seg = m.full_segment();
        let rows = Rows::full(m.output_shape().height);
        let d = c.device(0).unwrap();
        let base = p.cost_model(&m);
        let scaled = fast.cost_model(&m);
        assert!(
            (scaled.assignment_comp_time(d, seg, rows)
                - 0.5 * base.assignment_comp_time(d, seg, rows))
            .abs()
                < 1e-15
        );
        assert_eq!(
            scaled.assignment_comm_time(seg, rows),
            base.assignment_comm_time(seg, rows)
        );
    }

    #[test]
    fn backend_alpha_scales_comp_but_not_comm() {
        let (m, c, p) = toy_setup();
        assert_eq!(p.backend_alpha, 1.0);
        // A 4× faster backend quarters compute times; transfers are
        // untouched (the wire does not care about the micro-kernel).
        let fast = p.with_backend_speedup(4.0);
        assert!((fast.backend_alpha - 0.25).abs() < 1e-15);
        let seg = m.full_segment();
        let rows = Rows::full(m.output_shape().height);
        let d = c.device(0).unwrap();
        let base = p.cost_model(&m);
        let scaled = fast.cost_model(&m);
        assert!(
            (scaled.assignment_comp_time(d, seg, rows)
                - 0.25 * base.assignment_comp_time(d, seg, rows))
            .abs()
                < 1e-15
        );
        assert!(
            (scaled.region_comp_time(
                d,
                seg,
                Region2::new(rows, Rows::full(m.output_shape().width))
            ) - 0.25
                * base.region_comp_time(
                    d,
                    seg,
                    Region2::new(rows, Rows::full(m.output_shape().width))
                ))
            .abs()
                < 1e-15
        );
        assert_eq!(
            scaled.assignment_comm_time(seg, rows),
            base.assignment_comm_time(seg, rows)
        );
    }

    #[test]
    fn backend_alpha_composes_with_alpha_scale() {
        let (m, c, p) = toy_setup();
        let mut both = p.with_backend_speedup(2.0);
        both.alpha_scale = 0.5;
        let seg = m.full_segment();
        let rows = Rows::full(m.output_shape().height);
        let d = c.device(0).unwrap();
        let base = p.cost_model(&m);
        let scaled = both.cost_model(&m);
        assert!(
            (scaled.assignment_comp_time(d, seg, rows)
                - 0.25 * base.assignment_comp_time(d, seg, rows))
            .abs()
                < 1e-15
        );
    }

    #[test]
    fn alpha_scale_moves_plan_periods_uniformly() {
        let (m, c, p) = toy_setup();
        let h = m.output_shape().height;
        let plan = Plan::new(
            Scheme::Pico,
            ExecutionMode::Pipelined,
            vec![
                Stage::new(Segment::new(0, 2), vec![Assignment::new(0, Rows::full(h))]),
                Stage::new(Segment::new(2, 4), vec![Assignment::new(1, Rows::full(h))]),
            ],
        );
        let base = p.cost_model(&m).evaluate(&plan, &c);
        let mut half = p;
        half.alpha_scale = 0.5;
        let scaled = half.cost_model(&m).evaluate(&plan, &c);
        for (a, b) in base.stage_costs.iter().zip(&scaled.stage_costs) {
            assert!((b.comp - 0.5 * a.comp).abs() < 1e-15);
            assert_eq!(a.comm, b.comm);
        }
        assert!(scaled.period < base.period);
    }
}
