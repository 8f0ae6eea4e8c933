//! The fleet re-planning policy kernel and its discrete-event mirror.
//!
//! APICO's adaptive claim is that the cluster should *change plans* as
//! the workload λ drifts (Sec. IV-C). The serving layer estimates λ
//! from admitted inter-arrival gaps ([`InterArrivalEstimator`]); this
//! module turns that estimate into switch decisions:
//!
//! * [`ReplanKernel`] — the hysteresis state machine. The *same* kernel
//!   value drives the live `pico-serve` controller, the deterministic
//!   replayer, and [`FleetSim`], so all three produce bit-identical
//!   switch schedules from the same admitted-arrival sequence. It is a
//!   [`SwitchSource`], which is how the shared
//!   [`BatchServer`] loop consults it.
//! * [`FleetSim`] — that loop with price-only execution and the kernel
//!   as its switch source, for exploring controller behavior in virtual
//!   time without touching an engine.
//!
//! The kernel deliberately knows nothing about plans or audits: it sees
//! candidates as `(ServiceProfile, WorkloadBand)` rows plus a
//! precomputed reachability matrix. `pico-fleet` builds those rows from
//! its Pareto frontier and fills the matrix from `PA305`–`PA307`
//! switch-pair audits, which is how the simulator mirror reproduces the
//! audit gate's verdicts without depending on the audit crate.

use pico_telemetry::{names, Ctx, Recorder};

use crate::serve_policy::{
    price_only, BatchPolicy, BatchServer, ServeSim, ServeSimReport, ServiceProfile, SwitchSource,
    TenantPolicy, TraceServer,
};
use crate::{InterArrivalEstimator, WorkloadBand};

/// Knobs for the re-planning hysteresis rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplanPolicy {
    /// EWMA smoothing factor for the inter-arrival gap, in `(0, 1]`.
    pub beta: f64,
    /// Hysteresis margin `m` in `[0, 1)`: a window only counts as a
    /// strike when the preferred plan differs from the current one at
    /// *both* `λ̂·(1 − m)` and `λ̂·(1 + m)` — i.e. λ has left the current
    /// plan's optimality band by at least the margin.
    pub margin: f64,
    /// Consecutive striking windows required before a switch fires
    /// (≥ 1). `K − 1` windows emit [`ReplanVerdict::Suppressed`].
    pub consecutive: usize,
    /// Evaluation window length in seconds (> 0). λ̂ is re-examined at
    /// each window boundary of virtual time.
    pub window: f64,
}

impl Default for ReplanPolicy {
    fn default() -> Self {
        ReplanPolicy {
            beta: 0.4,
            margin: 0.25,
            consecutive: 2,
            window: 1.0,
        }
    }
}

impl ReplanPolicy {
    /// Every way this policy is malformed, as human-readable sentences
    /// (empty when valid).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !(self.beta > 0.0 && self.beta <= 1.0) {
            v.push(format!("beta ({}) must be in (0, 1]", self.beta));
        }
        if !(self.margin >= 0.0 && self.margin < 1.0) {
            v.push(format!("margin ({}) must be in [0, 1)", self.margin));
        }
        if self.consecutive == 0 {
            v.push("consecutive must be at least 1".to_owned());
        }
        if !(self.window > 0.0 && self.window.is_finite()) {
            v.push(format!(
                "window ({}) must be positive and finite",
                self.window
            ));
        }
        v
    }
}

/// One switchable plan as the kernel sees it: its serving price and the
/// λ band it can sustain (`PA303` stability precomputed as `band.hi`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplanCandidate {
    /// Batch pricing for this plan (Eq. 10 period, Eq. 11 latency).
    pub profile: ServiceProfile,
    /// Sustainable workload band `[0, λ*·margin]` for this plan.
    pub band: WorkloadBand,
}

/// What the kernel concluded at the latest evaluated window boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplanVerdict {
    /// λ̂ still prefers the current plan (or no estimate exists yet).
    Hold,
    /// λ̂ has left the current plan's band, but hysteresis is still
    /// counting (`strikes < consecutive`).
    Suppressed {
        /// The λ estimate at the window boundary.
        lambda: f64,
        /// Striking windows so far (`< consecutive`).
        strikes: usize,
    },
    /// Hysteresis expired: the controller should switch plans. The
    /// kernel holds this decision pending until the caller reports
    /// [`committed`](ReplanKernel::committed) or
    /// [`rejected`](ReplanKernel::rejected).
    Switch {
        /// Candidate index being abandoned.
        from: usize,
        /// Candidate index to install.
        to: usize,
        /// The λ estimate that drove the decision.
        lambda: f64,
        /// Virtual time of the deciding window boundary.
        at: f64,
    },
}

/// One committed plan switch, for schedules and reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchRecord {
    /// Virtual time of the deciding window boundary.
    pub at: f64,
    /// Candidate index abandoned.
    pub from: usize,
    /// Candidate index installed.
    pub to: usize,
    /// The λ estimate that drove the decision.
    pub lambda: f64,
}

/// The hysteresis state machine shared by every re-planning controller.
///
/// Feed each *admitted* arrival timestamp through
/// [`observe_arrival`](Self::observe_arrival); at every elapsed window
/// boundary the kernel compares the cheapest stable-and-reachable
/// candidate at `λ̂·(1 ± margin)` against the current plan and counts
/// strikes. After `consecutive` striking windows it emits
/// [`ReplanVerdict::Switch`] and goes *pending*: further windows hold
/// until the caller confirms the swap with
/// [`committed`](Self::committed) (audit passed, plan installed) or
/// [`rejected`](Self::rejected) (audit refused). Timestamps are
/// caller-supplied virtual times, so decisions are bit-reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanKernel {
    policy: ReplanPolicy,
    candidates: Vec<ReplanCandidate>,
    switchable: Vec<Vec<bool>>,
    current: usize,
    estimator: InterArrivalEstimator,
    strikes: usize,
    next_window: f64,
    pending: Option<SwitchRecord>,
}

impl ReplanKernel {
    /// Creates a kernel over `candidates`, starting on plan `initial`.
    ///
    /// `switchable[i][j]` must hold the precomputed verdict of the
    /// `PA305`–`PA307` switch-pair audit from plan `i` to plan `j` —
    /// the kernel never proposes a switch the audit gate would refuse.
    ///
    /// # Panics
    ///
    /// Panics when `candidates` is empty, `switchable` is not an
    /// `N × N` matrix, `initial` is out of range, or `policy` has
    /// [`violations`](ReplanPolicy::violations).
    pub fn new(
        candidates: Vec<ReplanCandidate>,
        switchable: Vec<Vec<bool>>,
        initial: usize,
        policy: ReplanPolicy,
    ) -> Self {
        let violations = policy.violations();
        assert!(
            violations.is_empty(),
            "invalid ReplanPolicy: {violations:?}"
        );
        assert!(!candidates.is_empty(), "need at least one candidate");
        assert!(initial < candidates.len(), "initial plan out of range");
        assert!(
            switchable.len() == candidates.len()
                && switchable.iter().all(|row| row.len() == candidates.len()),
            "switchable must be an N x N matrix"
        );
        ReplanKernel {
            policy,
            candidates,
            switchable,
            current: initial,
            estimator: InterArrivalEstimator::new(policy.beta),
            strikes: 0,
            next_window: policy.window,
            pending: None,
        }
    }

    /// The policy this kernel was built from.
    pub fn policy(&self) -> ReplanPolicy {
        self.policy
    }

    /// The candidate table, indexed by the indices in verdicts.
    pub fn candidates(&self) -> &[ReplanCandidate] {
        &self.candidates
    }

    /// Index of the plan the kernel believes is installed.
    pub fn current(&self) -> usize {
        self.current
    }

    /// The switch decision awaiting [`committed`](Self::committed) /
    /// [`rejected`](Self::rejected), if any.
    pub fn pending(&self) -> Option<usize> {
        self.pending.map(|record| record.to)
    }

    /// The current λ estimate (`None` before two admitted arrivals).
    pub fn lambda(&self) -> Option<f64> {
        self.estimator.lambda()
    }

    /// The cheapest stable plan reachable from the current one at rate
    /// `lambda`: among candidates that are the current plan or pass the
    /// switch audit from it *and* sustain `lambda` (`λ ≤ band.hi`,
    /// PA303), the minimum by `(latency, period, index)`. When nothing
    /// reachable sustains `lambda` (overload), falls back to the
    /// reachable candidate with the largest sustainable band.
    pub fn select(&self, lambda: f64) -> usize {
        let reachable = |i: usize| i == self.current || self.switchable[self.current][i];
        let mut best: Option<usize> = None;
        for i in 0..self.candidates.len() {
            if !reachable(i) || lambda > self.candidates[i].band.hi {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    let (ci, cb) = (self.candidates[i].profile, self.candidates[b].profile);
                    (ci.latency, ci.period) < (cb.latency, cb.period)
                }
            };
            if better {
                best = Some(i);
            }
        }
        if let Some(i) = best {
            return i;
        }
        // Overload: no reachable plan sustains λ — take the widest band.
        let mut widest = self.current;
        for i in 0..self.candidates.len() {
            if reachable(i) && self.candidates[i].band.hi > self.candidates[widest].band.hi {
                widest = i;
            }
        }
        widest
    }

    /// Records an admitted arrival at absolute time `t` (non-decreasing
    /// across calls), evaluates any elapsed window boundaries, and
    /// returns the verdict of the latest one.
    pub fn observe_arrival(&mut self, t: f64) -> ReplanVerdict {
        self.estimator.observe_arrival(t);
        let mut verdict = ReplanVerdict::Hold;
        while t >= self.next_window {
            let at = self.next_window;
            self.next_window += self.policy.window;
            if self.pending.is_some() {
                // A decision is already in flight; hold until the
                // caller commits or rejects it.
                continue;
            }
            let Some(lambda) = self.estimator.lambda() else {
                self.strikes = 0;
                continue;
            };
            let low = self.select(lambda * (1.0 - self.policy.margin));
            let high = self.select(lambda * (1.0 + self.policy.margin));
            if low == self.current || high == self.current {
                self.strikes = 0;
                verdict = ReplanVerdict::Hold;
                continue;
            }
            self.strikes += 1;
            if self.strikes < self.policy.consecutive {
                verdict = ReplanVerdict::Suppressed {
                    lambda,
                    strikes: self.strikes,
                };
                continue;
            }
            self.strikes = 0;
            let to = self.select(lambda);
            if to == self.current {
                verdict = ReplanVerdict::Hold;
                continue;
            }
            verdict = self.stage(to, lambda, at);
            break;
        }
        verdict
    }

    /// Proposes an *event-driven* switch to candidate `to` at virtual
    /// time `at` — the churn re-admission path: membership changed, a
    /// fresh plan was built for the new cluster, and the controller
    /// asks the kernel to stage it through the same
    /// pending → [`committed`](Self::committed) /
    /// [`rejected`](Self::rejected) protocol the λ-driven path uses, so
    /// every install stays behind the `PA305`–`PA307` audit gate.
    ///
    /// Returns [`ReplanVerdict::Hold`] when a decision is already in
    /// flight, `to` is the current plan, or the precomputed switch
    /// audit refuses the pair; otherwise goes pending and returns
    /// [`ReplanVerdict::Switch`].
    ///
    /// # Panics
    ///
    /// Panics when `to` is out of range.
    pub fn propose(&mut self, to: usize, at: f64) -> ReplanVerdict {
        assert!(to < self.candidates.len(), "candidate out of range");
        if self.pending.is_some() || to == self.current || !self.switchable[self.current][to] {
            return ReplanVerdict::Hold;
        }
        self.strikes = 0;
        self.stage(to, self.estimator.lambda().unwrap_or(0.0), at)
    }

    /// Goes pending on a switch to `to` and returns its verdict.
    fn stage(&mut self, to: usize, lambda: f64, at: f64) -> ReplanVerdict {
        let from = self.current;
        self.pending = Some(SwitchRecord {
            at,
            from,
            to,
            lambda,
        });
        ReplanVerdict::Switch {
            from,
            to,
            lambda,
            at,
        }
    }

    /// Reports that the pending switch was audit-approved and the new
    /// plan is installed.
    ///
    /// # Panics
    ///
    /// Panics when no switch is pending.
    pub fn committed(&mut self) -> usize {
        let to = self.pending.take().expect("no switch pending").to;
        self.current = to;
        self.strikes = 0;
        to
    }

    /// Reports that the pending switch was refused (audit gate said
    /// no); the kernel stays on the current plan and restarts its
    /// strike count.
    pub fn rejected(&mut self) {
        self.pending = None;
        self.strikes = 0;
    }
}

/// The kernel as the batch-server loop's switch source: every admitted
/// arrival feeds the hysteresis rule, and a staged decision is due at
/// each batch boundary until the caller reports it
/// [`committed`](ReplanKernel::committed) or
/// [`rejected`](ReplanKernel::rejected) — in virtual time and live
/// alike, for every server runs the same loop.
impl SwitchSource for ReplanKernel {
    type Switch = SwitchRecord;

    fn admitted(&mut self, t: f64, rec: &Recorder) {
        // A switch verdict stays staged in the kernel until it is due.
        if let ReplanVerdict::Suppressed { lambda, .. } = self.observe_arrival(t) {
            rec.instant_at(names::REPLAN_SUPPRESSED, Ctx::default(), t, lambda);
        }
    }

    fn due(&mut self, _start: f64) -> Option<SwitchRecord> {
        self.pending
    }
}

/// Deterministic discrete-event mirror of the *adaptive* serving
/// front-end: the [`BatchServer`] loop with price-only execution and a
/// [`ReplanKernel`] as its switch source, so pricing switches at
/// exactly the checkpoints where the live path drains and warm-swaps.
///
/// Given the same admitted-arrival sequence and the same kernel value,
/// this mirror and the live/replay controllers produce identical
/// [`SwitchRecord`] schedules in virtual time.
#[derive(Debug, Clone)]
pub struct FleetSim(ServeSim);

impl FleetSim {
    /// Creates a mirror over the given serving policies.
    ///
    /// # Panics
    ///
    /// Panics when any policy has violations or `tenants` is empty.
    pub fn new(batch: BatchPolicy, tenants: Vec<TenantPolicy>) -> Self {
        FleetSim(ServeSim::new(batch, tenants))
    }

    /// Runs the mirror over `arrivals` — `(time, tenant)` pairs sorted
    /// by time — starting on `kernel.current()`'s profile. The kernel
    /// observes every admitted arrival; a pending switch is applied
    /// (and committed) when the next batch forms, mirroring the live
    /// drain-then-swap. Returns the serve report and the committed
    /// switch schedule.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is unsorted, holds a non-finite time, or
    /// names an unknown tenant.
    pub fn run(
        &self,
        arrivals: &[(f64, usize)],
        kernel: ReplanKernel,
    ) -> (ServeSimReport, Vec<SwitchRecord>) {
        let mut server = TraceServer::new(self.0.batch, self.0.tenants.clone(), arrivals, kernel);
        let mut switches: Vec<SwitchRecord> = Vec::new();
        loop {
            let active = server.with(|_, kernel| kernel.candidates()[kernel.current()].profile);
            let Ok(Some((record, _))) = server.run_epoch(active, &Recorder::noop(), price_only)
            else {
                break;
            };
            server.with(|_, kernel| kernel.committed());
            switches.push(record);
        }
        (server.into_report(switches.len() as u64), switches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-plan fleet: a fused-style plan (cheap latency, narrow band)
    /// and a pipelined plan (deep latency, wide band), both switchable.
    fn two_plan_kernel(policy: ReplanPolicy) -> ReplanKernel {
        let fused = ReplanCandidate {
            profile: ServiceProfile {
                latency: 0.1,
                period: 0.1,
            },
            band: WorkloadBand::new(0.0, 8.0),
        };
        let pico = ReplanCandidate {
            profile: ServiceProfile {
                latency: 0.3,
                period: 0.02,
            },
            band: WorkloadBand::new(0.0, 45.0),
        };
        ReplanKernel::new(
            vec![fused, pico],
            vec![vec![true, true], vec![true, true]],
            0,
            policy,
        )
    }

    fn policy() -> ReplanPolicy {
        ReplanPolicy {
            beta: 0.5,
            margin: 0.2,
            consecutive: 2,
            window: 1.0,
        }
    }

    #[test]
    fn policy_violations_are_reported() {
        assert!(ReplanPolicy::default().violations().is_empty());
        let bad = ReplanPolicy {
            beta: 0.0,
            margin: 1.0,
            consecutive: 0,
            window: 0.0,
        };
        assert_eq!(bad.violations().len(), 4);
    }

    #[test]
    fn select_prefers_cheapest_stable_and_falls_back_under_overload() {
        let k = two_plan_kernel(policy());
        assert_eq!(k.select(2.0), 0); // both stable, fused is cheaper
        assert_eq!(k.select(20.0), 1); // only pico sustains 20/s
        assert_eq!(k.select(1000.0), 1); // overload: widest band
    }

    #[test]
    fn select_honors_reachability() {
        let mut k = two_plan_kernel(policy());
        k.switchable = vec![vec![true, false], vec![true, true]];
        // Pico is unreachable from fused, so even λ = 20 stays put.
        assert_eq!(k.select(20.0), 0);
    }

    #[test]
    fn steady_in_band_load_holds() {
        let mut k = two_plan_kernel(policy());
        for i in 0..40 {
            // 2 tasks/s: fused (current) remains optimal.
            assert_eq!(k.observe_arrival(i as f64 * 0.5), ReplanVerdict::Hold);
        }
        assert_eq!(k.current(), 0);
        assert_eq!(k.pending(), None);
    }

    #[test]
    fn ramp_is_suppressed_then_switches() {
        let mut k = two_plan_kernel(policy());
        // Settle in band first.
        for i in 0..8 {
            k.observe_arrival(i as f64 * 0.5);
        }
        // Burst at 20 tasks/s: the gap EWMA collapses toward 0.05 s.
        let mut suppressed = 0;
        let mut switch = None;
        let mut t = 4.0;
        for _ in 0..200 {
            t += 0.05;
            match k.observe_arrival(t) {
                ReplanVerdict::Suppressed { strikes, .. } => {
                    suppressed += 1;
                    assert!(strikes < k.policy().consecutive);
                }
                ReplanVerdict::Switch { from, to, at, .. } => {
                    switch = Some((from, to, at));
                    break;
                }
                ReplanVerdict::Hold => {}
            }
        }
        let (from, to, at) = switch.expect("ramp must trigger a switch");
        assert_eq!((from, to), (0, 1));
        assert_eq!(suppressed, 1, "K = 2 means exactly one suppressed window");
        // The decision lands on a window boundary.
        assert!((at / k.policy().window).fract().abs() < 1e-9, "at {at}");
        // Pending until the controller commits.
        assert_eq!(k.current(), 0);
        assert_eq!(k.pending(), Some(1));
        assert_eq!(k.committed(), 1);
        assert_eq!(k.current(), 1);
    }

    #[test]
    fn rejected_switch_restarts_hysteresis() {
        let mut k = two_plan_kernel(ReplanPolicy {
            consecutive: 1,
            ..policy()
        });
        for i in 0..4 {
            k.observe_arrival(i as f64 * 0.5);
        }
        let mut t = 2.0;
        loop {
            t += 0.05;
            if let ReplanVerdict::Switch { .. } = k.observe_arrival(t) {
                break;
            }
            assert!(t < 50.0, "no switch proposed");
        }
        k.rejected();
        assert_eq!(k.pending(), None);
        assert_eq!(k.current(), 0);
        // The kernel proposes again at a later boundary rather than
        // looping forever inside one window.
        let mut again = false;
        for _ in 0..100 {
            t += 0.05;
            if let ReplanVerdict::Switch { .. } = k.observe_arrival(t) {
                again = true;
                break;
            }
        }
        assert!(again, "kernel must re-propose after rejection");
    }

    #[test]
    fn margin_suppresses_boundary_flapping() {
        // λ hovering just above fused's band edge (8/s): with a 20%
        // margin, select(λ·0.8) still lands on fused, so no strike.
        let mut k = two_plan_kernel(policy());
        let mut t = 0.0;
        for _ in 0..300 {
            t += 1.0 / 9.0; // 9 tasks/s, inside 8/0.8 = 10
            assert_eq!(k.observe_arrival(t), ReplanVerdict::Hold);
        }
        assert_eq!(k.current(), 0);
    }

    #[test]
    fn fleet_sim_switches_on_ramp_and_is_deterministic() {
        // Batches must grow deep enough under the burst for the
        // pipelined plan to sustain 20/s: a batch of 10 costs
        // 0.3 + 9·0.02 = 0.48 s → 20.8 tasks/s.
        let batch = BatchPolicy {
            min_batch: 1,
            max_batch: 16,
            target_delay: 0.5,
            beta: 0.5,
        };
        let tenants = vec![TenantPolicy {
            queue_capacity: 64,
            in_flight_budget: 128,
        }];
        // Quiet phase at 2/s, then a sustained 20/s ramp.
        let mut arrivals: Vec<(f64, usize)> = (0..10).map(|k| (k as f64 * 0.5, 0)).collect();
        arrivals.extend((0..200).map(|k| (5.0 + k as f64 * 0.05, 0)));
        let sim = FleetSim::new(batch, tenants);
        let (report, switches) = sim.run(&arrivals, two_plan_kernel(policy()));
        assert_eq!(report.rejected(), 0, "per-tenant {:?}", report.per_tenant);
        assert_eq!(report.completed(), arrivals.len() as u64);
        assert_eq!(switches.len(), 1, "switches {switches:?}");
        assert_eq!((switches[0].from, switches[0].to), (0, 1));
        assert_eq!(report.swaps, 1);
        // Bit-identical on re-run.
        let (report2, switches2) = sim.run(&arrivals, two_plan_kernel(policy()));
        assert_eq!(report, report2);
        assert_eq!(switches, switches2);
    }

    #[test]
    fn propose_stages_an_event_driven_switch_through_the_commit_path() {
        let mut k = two_plan_kernel(policy());
        // A churn boundary asks for plan 1 directly, no λ ramp needed.
        let v = k.propose(1, 3.0);
        assert_eq!(
            v,
            ReplanVerdict::Switch {
                from: 0,
                to: 1,
                lambda: 0.0,
                at: 3.0
            }
        );
        assert_eq!(k.pending(), Some(1));
        assert_eq!(k.current(), 0, "not installed until committed");
        // A second proposal while one is in flight holds.
        assert_eq!(k.propose(1, 3.5), ReplanVerdict::Hold);
        assert_eq!(k.committed(), 1);
        assert_eq!(k.current(), 1);
        // Proposing the current plan is a no-op.
        assert_eq!(k.propose(1, 4.0), ReplanVerdict::Hold);
    }

    #[test]
    fn propose_respects_the_switch_audit_matrix() {
        let mut k = two_plan_kernel(policy());
        k.switchable = vec![vec![true, false], vec![true, true]];
        assert_eq!(k.propose(1, 1.0), ReplanVerdict::Hold);
        assert_eq!(k.pending(), None);
    }

    #[test]
    fn rejected_proposal_leaves_the_kernel_on_the_current_plan() {
        let mut k = two_plan_kernel(policy());
        assert!(matches!(k.propose(1, 2.0), ReplanVerdict::Switch { .. }));
        k.rejected();
        assert_eq!(k.pending(), None);
        assert_eq!(k.current(), 0);
        // The kernel can propose again after a rejection.
        assert!(matches!(k.propose(1, 2.5), ReplanVerdict::Switch { .. }));
    }

    #[test]
    fn fleet_sim_without_pressure_never_switches() {
        let sim = FleetSim::new(BatchPolicy::default(), vec![TenantPolicy::default()]);
        let arrivals: Vec<(f64, usize)> = (0..30).map(|k| (k as f64 * 0.5, 0)).collect();
        let (report, switches) = sim.run(&arrivals, two_plan_kernel(policy()));
        assert!(switches.is_empty());
        assert_eq!(report.swaps, 0);
        assert_eq!(report.completed(), 30);
    }
}
