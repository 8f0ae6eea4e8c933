//! Golden replays: everything the virtual-time serving drivers decide
//! — batch sizes, per-tenant counts, completion times, rejections,
//! switch schedules and the serve events they record — must stay
//! byte-identical to the artifacts under `tests/golden/`, which were
//! captured on the commit before the drivers were collapsed onto one
//! batch-server loop. Floats are dumped as raw bits, so a refactor that
//! moves one ulp of a makespan or one event's timestamp fails here.

use std::fmt::Write as _;

use pico_model::{zoo, Model};
use pico_partition::{Cluster, CostParams};
use pico_serve::{
    build_script, ReplanPolicy, ReplayOutcome, ReplayPlan, ReplayScript, Replayer, ScriptSpec,
    ServeEvent, SwitchRecord,
};
use pico_sim::{FleetSim, ServeSim, ServeSimReport};
use pico_telemetry::{names, Event, Recorder};
use pico_tensor::Engine;

const TASKS: usize = 96;
const SEED: u64 = 7;

/// The virtual-time events the serving layer itself records (runtime
/// spans are wall-clock and excluded).
const SERVE_EVENTS: [&str; 6] = [
    names::TASK_ADMITTED,
    names::TASK_REJECTED,
    names::BATCH_FORMED,
    names::SWAP_DRAINED,
    names::REPLAN_TRIGGERED,
    names::REPLAN_SUPPRESSED,
];

fn setup() -> (Model, Cluster, CostParams) {
    (
        zoo::mnist_toy(),
        Cluster::pi_cluster(4, 1.0),
        CostParams::wifi_50mbps(),
    )
}

fn script(m: &Model, c: &Cluster, p: &CostParams, s: ReplayScript, swap: bool) -> ReplayPlan {
    let spec = ScriptSpec {
        tasks: TASKS,
        tenants: 2,
        seed: SEED,
        swap_at: swap.then_some(TASKS / 2),
    };
    build_script(m, c, p, s, &spec).expect("script builds")
}

fn arrival_times(events: &[ServeEvent]) -> Vec<(f64, usize)> {
    events
        .iter()
        .filter_map(|e| match e {
            ServeEvent::Arrival { t, tenant, .. } => Some((*t, *tenant)),
            ServeEvent::Swap { .. } => None,
        })
        .collect()
}

fn dump_outcome(out: &mut String, outcome: &ReplayOutcome) {
    writeln!(out, "batch_sizes {:?}", outcome.batch_sizes).unwrap();
    for (t, s) in outcome.per_tenant.iter().enumerate() {
        writeln!(
            out,
            "tenant {t} admitted={} rejected={} completed={}",
            s.admitted, s.rejected, s.completed
        )
        .unwrap();
    }
    writeln!(out, "swaps {}", outcome.swaps).unwrap();
    writeln!(out, "swap_rejections {:?}", outcome.swap_rejections).unwrap();
    writeln!(out, "epochs {}", outcome.epochs).unwrap();
    writeln!(out, "makespan {:016x}", outcome.makespan.to_bits()).unwrap();
    for d in &outcome.completed {
        writeln!(
            out,
            "completed {} {} {:016x}",
            d.seq,
            d.tenant,
            d.finished_at.to_bits()
        )
        .unwrap();
    }
    for r in &outcome.rejections {
        writeln!(out, "rejection {} {} {:?}", r.seq, r.tenant, r.error).unwrap();
    }
}

fn dump_switches(out: &mut String, label: &str, switches: &[SwitchRecord]) {
    for s in switches {
        writeln!(
            out,
            "{label} {:016x} {} {} {:016x}",
            s.at.to_bits(),
            s.from,
            s.to,
            s.lambda.to_bits()
        )
        .unwrap();
    }
}

fn dump_events(out: &mut String, events: &[Event]) {
    for e in events.iter().filter(|e| SERVE_EVENTS.contains(&e.name)) {
        writeln!(
            out,
            "event {} {:?} {:016x} {:016x}",
            e.name,
            e.ctx,
            e.ts.to_bits(),
            e.value.to_bits()
        )
        .unwrap();
    }
}

fn dump_sim(out: &mut String, report: &ServeSimReport) {
    writeln!(out, "sim batch_sizes {:?}", report.batch_sizes).unwrap();
    for (t, s) in report.per_tenant.iter().enumerate() {
        writeln!(
            out,
            "sim tenant {t} admitted={} rejected={} completed={}",
            s.admitted, s.rejected, s.completed
        )
        .unwrap();
    }
    writeln!(
        out,
        "sim mean_sojourn {:016x}",
        report.mean_sojourn.to_bits()
    )
    .unwrap();
    writeln!(out, "sim makespan {:016x}", report.makespan.to_bits()).unwrap();
    writeln!(out, "sim swaps {}", report.swaps).unwrap();
}

/// Scripted mid-trace swap through `Replayer::run`, then `ServeSim`
/// over the same arrivals priced by the two plans' frontier profiles.
fn scripted(s: ReplayScript) -> String {
    let (m, c, p) = setup();
    let rp = script(&m, &c, &p, s, true);
    let engine = Engine::with_seed(&m, SEED);
    let rec = Recorder::in_memory();
    let outcome = Replayer::new(&m, &c, &p, &engine, rp.config.clone())
        .with_recorder(rec.clone())
        .run(&rp.initial, &rp.events)
        .expect("replay runs");
    let mut out = String::new();
    dump_outcome(&mut out, &outcome);
    dump_events(&mut out, &rec.snapshot());

    let from = rp.frontier.max_throughput();
    let to = rp.frontier.swap_target(from).expect("swap partner");
    let swap_t = rp
        .events
        .iter()
        .find_map(|e| match e {
            ServeEvent::Swap { t, .. } => Some(*t),
            ServeEvent::Arrival { .. } => None,
        })
        .expect("scripted swap");
    let entries = rp.frontier.entries();
    let report = ServeSim::new(rp.config.batch, rp.config.tenants.clone()).run(
        &arrival_times(&rp.events),
        entries[from].profile(),
        Some((swap_t, entries[to].profile())),
    );
    dump_sim(&mut out, &report);
    out
}

/// The re-planning controller through `Replayer::run_adaptive` under
/// the CLI-default policy, then `FleetSim` over the same arrivals.
fn adaptive(s: ReplayScript) -> String {
    let (m, c, p) = setup();
    let rp = script(&m, &c, &p, s, false);
    let policy = ReplanPolicy {
        window: 2.0 * rp.frontier.entries()[rp.frontier.cheapest()].latency,
        ..ReplanPolicy::default()
    };
    let engine = Engine::with_seed(&m, SEED);
    let rec = Recorder::in_memory();
    let (outcome, switches) = Replayer::new(&m, &c, &p, &engine, rp.config.clone())
        .with_recorder(rec.clone())
        .run_adaptive(&rp.frontier, policy, &rp.events)
        .expect("adaptive replay runs");
    let mut out = String::new();
    dump_outcome(&mut out, &outcome);
    dump_switches(&mut out, "switch", &switches);
    dump_events(&mut out, &rec.snapshot());

    let kernel = rp.frontier.kernel(rp.frontier.cheapest(), policy);
    let (report, sim_switches) = FleetSim::new(rp.config.batch, rp.config.tenants.clone())
        .run(&arrival_times(&rp.events), kernel);
    dump_sim(&mut out, &report);
    dump_switches(&mut out, "sim switch", &sim_switches);
    out
}

fn golden_path(script: ReplayScript, mode: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}__{mode}.txt", script.name()))
}

#[test]
fn replays_match_the_committed_goldens_byte_for_byte() {
    for script in ReplayScript::ALL {
        for (mode, got) in [
            ("scripted", scripted(script)),
            ("adaptive", adaptive(script)),
        ] {
            let path = golden_path(script, mode);
            let want = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            assert_eq!(got, want, "{} x {mode} drifted", script.name());
        }
    }
}
