//! Building the fleet frontier: every planner the repo knows, swept
//! over one `(model, cluster)` deployment, reduced to the
//! Pareto-optimal set under `(period, latency, resident memory)`.
//!
//! Each surviving entry is audit-validated (`Auditor::audit_deep` over
//! its own sustainable band) and priced as a [`ServiceProfile`], so a
//! frontier is everything a re-planning controller needs: *which* plans
//! exist, *what* each costs, *how much* load each sustains, and —
//! through the precomputed `PA305`–`PA307` switch matrix — which
//! live transitions the audit gate will allow.

use pico_audit::{AuditConfig, Auditor};
use pico_model::Model;
use pico_partition::memory::plan_memory;
use pico_partition::{
    pareto, Cluster, CostParams, EarlyFused, GridFused, Interleaved, LayerWise, OptimalFused,
    PicoPlanner, Plan, PlanRequest, Planner,
};
use pico_sim::serve_policy::ServiceProfile;
use pico_sim::{mdone, ReplanCandidate, ReplanKernel, ReplanPolicy, Simulation, WorkloadBand};

use crate::key::{ClusterSignature, ModelFingerprint};

/// Knobs for frontier construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// `T_lim` sweep steps for the PICO latency/period frontier (≥ 1).
    pub steps: usize,
    /// Fraction of each plan's `λ* = 1/p` admitted into its sustainable
    /// band, in `(0, 1)` — the same saturation margin the deep audit's
    /// `PA304` pass warns at.
    pub saturation_margin: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            steps: 6,
            saturation_margin: 0.9,
        }
    }
}

impl FleetConfig {
    /// Every way this config is malformed (empty when valid).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.steps == 0 {
            v.push("steps must be at least 1".to_owned());
        }
        if !(self.saturation_margin > 0.0 && self.saturation_margin < 1.0) {
            v.push(format!(
                "saturation_margin ({}) must be in (0, 1)",
                self.saturation_margin
            ));
        }
        v
    }
}

/// Why a frontier could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// Every candidate plan failed its deep audit — nothing to serve.
    NoViablePlans,
    /// The [`FleetConfig`] was malformed.
    InvalidConfig(Vec<String>),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoViablePlans => {
                write!(f, "no candidate plan survived the deep audit")
            }
            FleetError::InvalidConfig(v) => {
                write!(f, "invalid fleet config: {}", v.join("; "))
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// One Pareto-optimal, audit-validated plan with its serving price and
/// sustainable workload band.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEntry {
    /// The plan itself.
    pub plan: Plan,
    /// Pipeline period `P` (Eq. 10), seconds.
    pub period: f64,
    /// Pipeline latency `T` (Eq. 11), seconds.
    pub latency: f64,
    /// The Theorem 2 stability limit `λ* = 1/p` at the bottleneck
    /// station, tasks/s.
    pub lambda_star: f64,
    /// The sustainable band `[0, saturation_margin · λ*]` this entry
    /// was audited over.
    pub band: WorkloadBand,
    /// Peak per-device resident bytes (weights + activations) across
    /// the cluster.
    pub resident_bytes: usize,
}

impl FleetEntry {
    /// This entry's batch pricing for the serving layer.
    pub fn profile(&self) -> ServiceProfile {
        ServiceProfile {
            latency: self.latency,
            period: self.period,
        }
    }

    /// The kernel's view of this entry.
    pub fn candidate(&self) -> ReplanCandidate {
        ReplanCandidate {
            profile: self.profile(),
            band: self.band,
        }
    }
}

/// The Pareto-optimal plan set for one deployment, plus the audit-gate
/// verdicts for every ordered plan pair.
#[derive(Debug, Clone)]
pub struct FleetFrontier {
    fingerprint: ModelFingerprint,
    signature: ClusterSignature,
    entries: Vec<FleetEntry>,
    switchable: Vec<Vec<bool>>,
}

impl FleetFrontier {
    /// Builds the frontier for `(model, cluster, params)`.
    ///
    /// Sweeps every planner the repo ships (layer-wise, early-fused,
    /// optimal-fused, grid-fused, PICO, and the PICO `T_lim` frontier),
    /// prices each plan with the paper's cost model and the DES station
    /// profiles, derives its sustainable band from Theorem 2, gates it
    /// on `Auditor::audit_deep` over that band, keeps the
    /// `(period, latency, resident)` Pareto set, and precomputes the
    /// `audit_switch_pair` matrix over the survivors.
    pub fn build(
        model: &Model,
        cluster: &Cluster,
        params: &CostParams,
        config: FleetConfig,
    ) -> Result<Self, FleetError> {
        let violations = config.violations();
        if !violations.is_empty() {
            return Err(FleetError::InvalidConfig(violations));
        }
        let cm = params.cost_model(model);
        let sim = Simulation::new(model, cluster, params);
        let request = PlanRequest::new(model, cluster, params);

        // The T_lim sweep prices PICO's stage table once and hands back
        // the unconstrained plan it starts from; only a request that
        // carries its own T_lim needs a PICO run (and table) of its own.
        let (unconstrained, sweep) = pareto::sweep(model, cluster, params, config.steps);
        let pico = match params.t_lim {
            None => Some(unconstrained),
            Some(_) => PicoPlanner::new().plan(&request).ok(),
        };
        let planners: [&dyn Planner; 5] = [
            &LayerWise,
            &EarlyFused::new(),
            &OptimalFused,
            &GridFused::new(),
            &Interleaved,
        ];
        let plans: Vec<Plan> = planners
            .iter()
            .filter_map(|p| p.plan(&request).ok())
            .chain(pico)
            .chain(sweep.into_iter().map(|point| point.plan))
            .collect();

        let mut entries: Vec<FleetEntry> = Vec::new();
        for plan in plans {
            let metrics = cm.evaluate(&plan, cluster);
            let bottleneck = sim
                .station_profiles(&plan)
                .iter()
                .map(|s| s.service)
                .fold(0.0, f64::max);
            if bottleneck <= 0.0 {
                continue;
            }
            let lambda_star = mdone::max_stable_rate(bottleneck);
            let hi = config.saturation_margin * lambda_star;
            // Audit strictly inside the band edge so the PA303/PA304
            // comparisons cannot trip on the boundary itself.
            let audit_band = WorkloadBand::new(0.0, hi * (1.0 - 1e-6));
            let report = Auditor::new(model, cluster)
                .with_params(*params)
                .with_config(AuditConfig::default().with_workload_band(audit_band))
                .audit_deep(&plan);
            if !report.is_executable() {
                continue;
            }
            let resident_bytes = plan_memory(model, &plan)
                .iter()
                .map(|d| d.total_bytes())
                .max()
                .unwrap_or(0);
            let entry = FleetEntry {
                plan,
                period: metrics.period,
                latency: metrics.latency,
                lambda_star,
                band: WorkloadBand::new(0.0, hi),
                resident_bytes,
            };
            // Exact-duplicate plans (the planner sweep and the T_lim
            // sweep both produce the unconstrained PICO plan).
            let duplicate = entries.iter().any(|e| {
                e.period.to_bits() == entry.period.to_bits()
                    && e.latency.to_bits() == entry.latency.to_bits()
                    && e.resident_bytes == entry.resident_bytes
            });
            if !duplicate {
                entries.push(entry);
            }
        }

        // Pareto filter under (period, latency, resident): drop entries
        // some other entry weakly dominates.
        let dominated = |a: &FleetEntry, b: &FleetEntry| {
            // b dominates a
            b.period <= a.period
                && b.latency <= a.latency
                && b.resident_bytes <= a.resident_bytes
                && (b.period < a.period
                    || b.latency < a.latency
                    || b.resident_bytes < a.resident_bytes)
        };
        let keep: Vec<bool> = entries
            .iter()
            .map(|a| !entries.iter().any(|b| dominated(a, b)))
            .collect();
        let mut entries: Vec<FleetEntry> = entries
            .into_iter()
            .zip(keep)
            .filter_map(|(e, k)| k.then_some(e))
            .collect();
        if entries.is_empty() {
            return Err(FleetError::NoViablePlans);
        }
        // Canonical order: ascending sustainable band, then cheaper
        // latency, then smaller footprint — deterministic for equal
        // inputs, and "cheapest first" within a band.
        entries.sort_by(|a, b| {
            (a.band.hi, a.latency, a.resident_bytes)
                .partial_cmp(&(b.band.hi, b.latency, b.resident_bytes))
                .expect("frontier metrics are finite")
        });

        let auditor = Auditor::new(model, cluster).with_params(*params);
        let switchable: Vec<Vec<bool>> = (0..entries.len())
            .map(|i| {
                (0..entries.len())
                    .map(|j| {
                        i == j
                            || auditor
                                .audit_switch_pair(&entries[i].plan, &entries[j].plan)
                                .is_executable()
                    })
                    .collect()
            })
            .collect();

        Ok(FleetFrontier {
            fingerprint: ModelFingerprint::of(model),
            signature: ClusterSignature::of(cluster),
            entries,
            switchable,
        })
    }

    /// The model fingerprint this frontier was built for.
    pub fn fingerprint(&self) -> ModelFingerprint {
        self.fingerprint
    }

    /// The cluster signature this frontier was built for.
    pub fn signature(&self) -> ClusterSignature {
        self.signature
    }

    /// The Pareto entries, ascending by sustainable band.
    pub fn entries(&self) -> &[FleetEntry] {
        &self.entries
    }

    /// Whether the `PA305`–`PA307` switch audit allows installing entry
    /// `to` while draining entry `from`.
    pub fn switchable(&self, from: usize, to: usize) -> bool {
        self.switchable[from][to]
    }

    /// Index of the cheapest entry: minimum `(latency, period)`.
    pub fn cheapest(&self) -> usize {
        self.min_by_cost(|_| true).expect("frontier is never empty")
    }

    /// Index of the entry sustaining the highest λ (ties: cheaper
    /// first) — the natural initial plan when the workload is unknown.
    pub fn max_throughput(&self) -> usize {
        let mut best = 0;
        for i in 1..self.entries.len() {
            if self.entries[i].band.hi > self.entries[best].band.hi {
                best = i;
            }
        }
        best
    }

    /// Index of the cheapest entry the audit gate allows switching to
    /// from `from` (`None` when `from` is the only reachable plan).
    pub fn swap_target(&self, from: usize) -> Option<usize> {
        self.min_by_cost(|i| i != from && self.switchable[from][i])
    }

    fn min_by_cost(&self, admit: impl Fn(usize) -> bool) -> Option<usize> {
        let mut best: Option<usize> = None;
        for i in 0..self.entries.len() {
            if !admit(i) {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    (self.entries[i].latency, self.entries[i].period)
                        < (self.entries[b].latency, self.entries[b].period)
                }
            };
            if better {
                best = Some(i);
            }
        }
        best
    }

    /// The kernel's candidate table, index-aligned with
    /// [`entries`](Self::entries).
    pub fn candidates(&self) -> Vec<ReplanCandidate> {
        self.entries.iter().map(FleetEntry::candidate).collect()
    }

    /// Builds a [`ReplanKernel`] over this frontier, starting on entry
    /// `initial` — live, replay, and simulated controllers all start
    /// from this same value.
    ///
    /// # Panics
    ///
    /// Panics when `initial` is out of range or `policy` is malformed.
    pub fn kernel(&self, initial: usize, policy: ReplanPolicy) -> ReplanKernel {
        ReplanKernel::new(self.candidates(), self.switchable.clone(), initial, policy)
    }

    /// The frontier as a JSON artifact (schemes, prices, bands,
    /// footprints, and the switch matrix — not the plans themselves).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"model_fingerprint\": \"{:016x}\",\n",
            self.fingerprint.as_u64()
        ));
        out.push_str(&format!(
            "  \"cluster_signature\": \"{:016x}\",\n",
            self.signature.as_u64()
        ));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scheme\": \"{}\", \"stages\": {}, \"period\": {:.9}, \
                 \"latency\": {:.9}, \"lambda_star\": {:.9}, \"band_hi\": {:.9}, \
                 \"resident_bytes\": {}}}{}\n",
                e.plan.scheme,
                e.plan.stage_count(),
                e.period,
                e.latency,
                e.lambda_star,
                e.band.hi,
                e.resident_bytes,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"switchable\": [\n");
        for (i, row) in self.switchable.iter().enumerate() {
            let cells: Vec<&str> = row
                .iter()
                .map(|&b| if b { "true" } else { "false" })
                .collect();
            out.push_str(&format!(
                "    [{}]{}\n",
                cells.join(", "),
                if i + 1 < self.switchable.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_model::zoo;

    fn build() -> FleetFrontier {
        let model = zoo::mnist_toy();
        let cluster = Cluster::pi_cluster(4, 1.0);
        let params = CostParams::wifi_50mbps();
        FleetFrontier::build(&model, &cluster, &params, FleetConfig::default()).expect("frontier")
    }

    #[test]
    fn frontier_is_pareto_and_band_sorted() {
        let f = build();
        assert!(!f.entries().is_empty());
        for w in f.entries().windows(2) {
            assert!(w[0].band.hi <= w[1].band.hi);
        }
        // No entry weakly dominates another.
        for a in f.entries() {
            for b in f.entries() {
                if std::ptr::eq(a, b) {
                    continue;
                }
                let dominates = b.period <= a.period
                    && b.latency <= a.latency
                    && b.resident_bytes <= a.resident_bytes
                    && (b.period < a.period
                        || b.latency < a.latency
                        || b.resident_bytes < a.resident_bytes);
                assert!(
                    !dominates,
                    "{:?} dominates {:?}",
                    b.plan.scheme, a.plan.scheme
                );
            }
        }
    }

    #[test]
    fn bands_are_inside_stability_limits() {
        let f = build();
        for e in f.entries() {
            assert!(e.band.hi < e.lambda_star);
            assert!(e.band.lo == 0.0);
            assert!(e.resident_bytes > 0);
            // Eq. 10/11: a pipeline's period never exceeds its latency.
            assert!(e.period <= e.latency + 1e-12);
        }
    }

    #[test]
    fn trade_off_spans_fused_to_pipelined() {
        let f = build();
        let cheap = &f.entries()[f.cheapest()];
        let fast = &f.entries()[f.max_throughput()];
        // The max-throughput plan sustains strictly more than the
        // cheapest-latency plan, which is the whole point of a fleet.
        assert!(fast.band.hi >= cheap.band.hi);
        assert!(f.cheapest() != f.max_throughput() || f.entries().len() == 1);
    }

    #[test]
    fn switch_matrix_is_reflexive_and_kernel_builds() {
        let f = build();
        let n = f.entries().len();
        for i in 0..n {
            assert!(f.switchable(i, i));
        }
        if let Some(t) = f.swap_target(f.max_throughput()) {
            assert_ne!(t, f.max_throughput());
            assert!(f.switchable(f.max_throughput(), t));
        }
        let kernel = f.kernel(f.max_throughput(), pico_sim::ReplanPolicy::default());
        assert_eq!(kernel.candidates().len(), n);
        assert_eq!(kernel.current(), f.max_throughput());
    }

    #[test]
    fn json_artifact_mentions_every_entry() {
        let f = build();
        let json = f.to_json();
        assert!(json.contains("\"entries\""));
        assert!(json.contains("\"switchable\""));
        assert_eq!(
            json.matches("\"scheme\"").count(),
            f.entries().len(),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let model = zoo::mnist_toy();
        let cluster = Cluster::pi_cluster(4, 1.0);
        let params = CostParams::wifi_50mbps();
        let err = FleetFrontier::build(
            &model,
            &cluster,
            &params,
            FleetConfig {
                steps: 0,
                saturation_margin: 1.5,
            },
        )
        .unwrap_err();
        match err {
            FleetError::InvalidConfig(v) => assert_eq!(v.len(), 2),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
