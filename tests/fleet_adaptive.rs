//! Live workload-adaptive re-planning, end to end and deterministic:
//! the ramp trace accelerates from idle past the cheapest plan's
//! sustainable band, the hysteresis kernel notices through the
//! inter-arrival EWMA, and the replayer performs an audit-gated warm
//! swap to a higher-throughput frontier entry. The contract under test:
//!
//! 1. **The controller actually fires** — at least one switch lands on
//!    the ramp, and none on the steady trace (λ stays in-band).
//! 2. **Zero drops** — every arrival is completed or rejected with a
//!    typed error, switches notwithstanding.
//! 3. **Bit-exactness** — every served output equals clean
//!    single-device inference, across the plan switch.
//! 4. **Seed-invariance** — the input seed perturbs tensor contents
//!    only, so all seeds produce the identical switch schedule.
//! 5. **The DES mirror agrees** — `FleetSim` over the same `(t,
//!    tenant)` arrivals with the same kernel reproduces the replayer's
//!    switch schedule record for record, in virtual time.
//! 6. **So does the scripted path** — `ServeSim` over a scripted-swap
//!    trace's arrivals, priced by the two plans' frontier profiles,
//!    reproduces `Replayer::run`'s batches, counts and makespan.

use pico::prelude::*;
use pico::serve::{build_script, ReplayScript, ScriptSpec, ServeEvent, SwitchRecord};
use pico::sim::{FleetSim, ServeSim};

fn setup() -> (Model, Cluster, CostParams) {
    (
        zoo::mnist_toy(),
        Cluster::pi_cluster(4, 1.0),
        CostParams::wifi_50mbps(),
    )
}

/// The policy the CLI defaults to: hysteresis windows spanning two
/// batch latencies of the starting (cheapest) plan.
fn policy_for(frontier: &FleetFrontier) -> pico::sim::ReplanPolicy {
    pico::sim::ReplanPolicy {
        window: 2.0 * frontier.entries()[frontier.cheapest()].latency,
        ..pico::sim::ReplanPolicy::default()
    }
}

/// Strips a scripted trace down to the `(t, tenant)` pairs the DES
/// mirror consumes.
fn arrival_times(events: &[ServeEvent]) -> Vec<(f64, usize)> {
    events
        .iter()
        .map(|e| match e {
            ServeEvent::Arrival { t, tenant, .. } => (*t, *tenant),
            ServeEvent::Swap { t, .. } => panic!("scripted swap at t={t} in an adaptive trace"),
        })
        .collect()
}

#[test]
fn ramp_replans_identically_across_seeds_with_bit_exact_outputs() {
    let (m, c, p) = setup();
    let mut schedules: Vec<Vec<SwitchRecord>> = Vec::new();
    for seed in [7u64, 11, 23] {
        let spec = ScriptSpec {
            tasks: 96,
            tenants: 2,
            seed,
            swap_at: None,
        };
        let rp = build_script(&m, &c, &p, ReplayScript::Ramp, &spec).unwrap();
        let policy = policy_for(&rp.frontier);
        let engine = Engine::with_seed(&m, seed);
        let (outcome, switches) = Replayer::new(&m, &c, &p, &engine, rp.config.clone())
            .run_adaptive(&rp.frontier, policy, &rp.events)
            .unwrap();
        let label = format!("ramp/seed{seed}");

        // 1. The accelerating ramp must drive at least one audit-gated
        // switch, and every committed switch is counted as a warm swap.
        assert!(!switches.is_empty(), "{label}: controller never fired");
        assert_eq!(outcome.swaps, switches.len() as u64, "{label}");
        assert!(outcome.swap_rejections.is_empty(), "{label}");
        for s in &switches {
            assert!(
                rp.frontier.switchable(s.from, s.to),
                "{label}: switch {} -> {} is not audit-approved",
                s.from,
                s.to
            );
        }

        // 2. Zero drops: all arrivals accounted for, nothing vanished.
        let admitted: u64 = outcome.per_tenant.iter().map(|t| t.admitted).sum();
        let completed: u64 = outcome.per_tenant.iter().map(|t| t.completed).sum();
        assert_eq!(completed, admitted, "{label}: admitted task dropped");
        assert_eq!(
            outcome.completed.len() + outcome.rejections.len(),
            spec.tasks,
            "{label}: arrivals unaccounted for"
        );

        // 3. Bit-exactness across the switch: each served output equals
        // clean single-device inference on the task's own input.
        let inputs: Vec<Tensor> = (0..spec.tasks)
            .map(|k| Tensor::random(m.input_shape(), seed * 1000 + k as u64))
            .collect();
        for done in &outcome.completed {
            let expect = engine.infer(&inputs[done.seq]).unwrap();
            assert_eq!(
                done.output.data(),
                expect.data(),
                "{label}: task {} diverged",
                done.seq
            );
        }

        // 5. The DES mirror: same arrivals, same kernel, same schedule.
        let kernel = rp.frontier.kernel(rp.frontier.cheapest(), policy);
        let mirror = FleetSim::new(rp.config.batch, rp.config.tenants.clone());
        let (report, mirror_switches) = mirror.run(&arrival_times(&rp.events), kernel);
        assert_eq!(
            mirror_switches, switches,
            "{label}: DES mirror diverged from the replayer"
        );
        assert_eq!(report.swaps, outcome.swaps, "{label}");

        schedules.push(switches);
    }

    // 4. Seed-invariance: arrival times come from the script alone, so
    // every seed decides the same switches at the same virtual times.
    assert_eq!(schedules[0], schedules[1], "seeds 7 and 11 disagree");
    assert_eq!(schedules[0], schedules[2], "seeds 7 and 23 disagree");
}

#[test]
fn steady_trace_holds_the_cheapest_plan() {
    let (m, c, p) = setup();
    let spec = ScriptSpec {
        tasks: 48,
        tenants: 2,
        seed: 7,
        swap_at: None,
    };
    let rp = build_script(&m, &c, &p, ReplayScript::Steady, &spec).unwrap();
    let policy = policy_for(&rp.frontier);
    let engine = Engine::with_seed(&m, 7);
    let (outcome, switches) = Replayer::new(&m, &c, &p, &engine, rp.config.clone())
        .run_adaptive(&rp.frontier, policy, &rp.events)
        .unwrap();
    // A steady in-band λ never leaves the hysteresis margin: no switch,
    // no swap, and still zero drops.
    assert!(
        switches.is_empty(),
        "steady trace must not replan, got {switches:?}"
    );
    assert_eq!(outcome.swaps, 0);
    assert_eq!(
        outcome.completed.len() + outcome.rejections.len(),
        spec.tasks
    );
}

#[test]
fn scripted_swap_replay_agrees_with_the_serve_sim_mirror() {
    let (m, c, p) = setup();
    for script in ReplayScript::ALL {
        let spec = ScriptSpec {
            tasks: 96,
            tenants: 2,
            seed: 7,
            swap_at: Some(48),
        };
        let rp = build_script(&m, &c, &p, script, &spec).unwrap();
        let engine = Engine::with_seed(&m, 7);
        let outcome = Replayer::new(&m, &c, &p, &engine, rp.config.clone())
            .run(&rp.initial, &rp.events)
            .unwrap();

        // The script starts on the highest-throughput entry and swaps
        // to the cheapest one the switch audit reaches from it.
        let entries = rp.frontier.entries();
        let from = rp.frontier.max_throughput();
        let to = rp.frontier.swap_target(from).unwrap();
        let mut arrivals = Vec::new();
        let mut swap = None;
        for e in &rp.events {
            match e {
                ServeEvent::Arrival { t, tenant, .. } => arrivals.push((*t, *tenant)),
                ServeEvent::Swap { t, .. } => swap = Some((*t, entries[to].profile())),
            }
        }
        let report = ServeSim::new(rp.config.batch, rp.config.tenants.clone()).run(
            &arrivals,
            entries[from].profile(),
            swap,
        );
        let label = script.name();
        assert_eq!(report.batch_sizes, outcome.batch_sizes, "{label}");
        assert_eq!(report.per_tenant, outcome.per_tenant, "{label}");
        assert_eq!(report.swaps, outcome.swaps, "{label}");
        assert_eq!(report.makespan, outcome.makespan, "{label}");
    }
}
