//! The `pico` command-line tool: plan, predict, simulate, and compare
//! cooperative-inference deployments from the shell.
//!
//! ```console
//! $ pico plan --model vgg16 --devices 8 --ghz 1.0
//! $ pico compare --model yolov2 --cluster paper
//! $ pico simulate --model vgg16 --devices 8 --load 1.2
//! $ pico memory --model vgg16 --cluster paper
//! ```

use std::process::ExitCode;

use pico::model::Model;
use pico::partition::memory::{plan_memory, single_device_memory};
use pico::prelude::*;
use pico::serve::{build_script, fleet_frontier, ReplayScript, ScriptSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: pico <command> [options]
       pico trace <summarize|validate> <file.json>
       pico bench <kernels|planner> [options]
       pico fleet <build|show> [options]

commands:
  plan       plan a deployment and print the stage layout
  audit      multi-pass plan diagnostics (PA*** codes) per scheme
  compare    predict every scheme (LW/EFL/OFL/GRID/ILV/PICO) side by side
  simulate   run a Poisson workload through the queueing simulator
  run        execute a plan on the threaded runtime (optionally traced)
  serve      deterministically replay a scripted multi-tenant serving
             trace through the runtime (admission control, adaptive
             micro-batching, audit-gated mid-trace warm swap)
  trace      summarize or validate a Chrome trace written by `run`
  bench      offline micro-benchmarks (compute kernels under every
             backend, planner wall-time + calibration fit)
  memory     per-device memory footprint of the PICO plan
  fleet      build the audit-certified Pareto plan frontier for a
             deployment through the process-wide plan cache (`build`),
             or inspect the cache (`show`)
  frontier   the period/latency Pareto frontier (T_lim sweep)
  model      per-layer summary of the model (shapes, params, FLOPs)

options:
  --model <vgg16|yolov2|resnet34|inception_v3|mobilenet_v1|mnist_toy>
  --cluster <paper|paper6>   the paper's heterogeneous mixes, or:
  --devices <n> --ghz <f>    a homogeneous cluster (default 8 x 1.0)
  --bandwidth <mbps>         shared link bandwidth (default 50)
  --t-lim <seconds>          pipeline latency limit (PICO plans)
  --scheme <lw|efl|ofl|grid|ilv|pico>  planner for `plan`/`run`
                             (default pico)
                             `audit`: audit one scheme (default: all)
  --memory-budget <MB>       `audit`: warn when a device exceeds this
  --redundancy-limit <f>     `audit`: warn above this redundancy ratio
  --deep                     `audit`: also run the PA3xx deep passes
                             (symbolic dataflow, queue stability, and
                             the pico<->ofl warm-swap pair)
  --lambda <lo:hi[x]>        `audit --deep`: certify stability over the
                             workload band [lo, hi] tasks/s; a trailing
                             `x` reads the bounds as fractions of each
                             plan's critical rate (e.g. 0.3:0.9x)
  --deep-memory-budget <MB>  `audit --deep`: fail when a device's
                             certified bound (weights + activations +
                             im2col scratch) exceeds this
  --swap-budget <MB>         `audit --deep`: per-device budget for both
                             plans of the swap pair held together
  --channel-capacity <n>     `audit --deep`: inter-stage channel bound
                             assumed by the deadlock pass (default:
                             unbounded, which cannot deadlock)
  --load <fraction>          `simulate`: arrival rate as a fraction of
                             EFL capacity (default 1.0)
  --minutes <m>              `simulate`: virtual duration (default 10)
  --steps <n>                `frontier`: T_lim sweep steps (default 10)
  --tasks <n>                `run`: tasks to push through (default 4)
                             `serve`: trace arrivals (default 96)
  --seed <n>                 `run`/`serve`: synthetic weight/input seed
  --replay <steady|bursty|ramp>  `serve`: which scripted trace to replay
  --tenants <n>              `serve`: tenant count (default 2)
  --swap-at <k|none>         `serve`: schedule the frontier warm swap
                             at arrival <k> (default: tasks/2)
  --adaptive                 `serve`: replace the scripted swap with the
                             hysteresis re-planning controller — the
                             arrival-rate EWMA drives audit-gated warm
                             swaps across the cached plan frontier
  --min-replans <n>          `serve --adaptive`: fail unless at least
                             <n> controller switches fired
  --replan-window <s>        `serve --adaptive`: hysteresis evaluation
                             window in virtual seconds (default: twice
                             the starting plan's batch latency)
  --throttle-scale <f>       `run`: stretch stages to cost-model
                             proportions (scaled by <f>)
  --fail-device <id>@<task>  `run`: inject a failure — device <id> dies
                             from task <task> on; repeatable, audited as
                             a leave-only churn script (PA501/PA502).
                             Failures are retried on survivors and the
                             pipeline re-planned when a stage loses
                             every device
  --churn <file.script>      `run`: replay a membership churn script
                             (leave/rejoin/join/recapacity events, see
                             DESIGN.md §17). Departures are absorbed
                             in-run; re-admissions re-plan behind the
                             deep-audit and switch-pair gates and
                             invalidate stale plan-cache entries
  --trace <file.json>        `run`/`serve`: write a Chrome trace-event
                             file
  --backend <reference|im2col|simd|int8>
                             `run`/`serve`: compute backend for every
                             engine (default simd: the host's AVX2
                             kernel, scalar where it has none; im2col
                             forces the scalar kernel; all three f32
                             backends are bit-identical; int8 is
                             tolerance-bounded low-precision)
  --warmup/--iters/--runs <n> `bench`: measurement protocol overrides
  --json <file>              `bench`/`audit`: also write the
                             machine-readable report (round-tripped
                             through the strict parser before the
                             command succeeds)
                             `fleet build`: write the frontier artifact
  --gate-ratio <x>           `bench kernels`: fail unless simd beats
                             the reference conv3x3/64ch case by >= x";

/// Every option the binary reads, as `(name, takes_value)`.
/// [`Opts::parse`] rejects any other `--name`, so a typo or a retired
/// flag is an error instead of being silently ignored.
const OPTIONS: &[(&str, bool)] = &[
    ("model", true),
    ("cluster", true),
    ("devices", true),
    ("ghz", true),
    ("bandwidth", true),
    ("t-lim", true),
    ("scheme", true),
    ("memory-budget", true),
    ("redundancy-limit", true),
    ("deep", false),
    ("lambda", true),
    ("deep-memory-budget", true),
    ("swap-budget", true),
    ("channel-capacity", true),
    ("load", true),
    ("minutes", true),
    ("steps", true),
    ("tasks", true),
    ("seed", true),
    ("replay", true),
    ("tenants", true),
    ("swap-at", true),
    ("adaptive", false),
    ("min-replans", true),
    ("replan-window", true),
    ("throttle-scale", true),
    ("fail-device", true),
    ("churn", true),
    ("trace", true),
    ("backend", true),
    ("warmup", true),
    ("iters", true),
    ("runs", true),
    ("json", true),
    ("gate-ratio", true),
];

/// Tiny hand-rolled `--key value` parser (no CLI dependency).
struct Opts {
    pairs: Vec<(String, String)>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("unexpected argument `{key}`"));
            };
            let Some(&(_, takes_value)) = OPTIONS.iter().find(|(known, _)| *known == name) else {
                return Err(format!("unknown option `--{name}`"));
            };
            if !takes_value {
                pairs.push((name.to_owned(), "true".to_owned()));
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for --{name}"))?;
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Opts { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every occurrence of a repeatable option, in order.
    fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.pairs
            .iter()
            .filter(move |(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad number `{v}`")),
        }
    }

    fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: bad integer `{v}`")),
        }
    }
}

/// Parses a `--lambda` band spec: `<lo:hi>` in tasks/s, or `<lo:hi>x`
/// with the bounds read as fractions of each plan's critical rate λ*.
fn parse_lambda(spec: &str) -> Result<(f64, f64, bool), String> {
    let (body, fractional) = match spec.strip_suffix('x') {
        Some(b) => (b, true),
        None => (spec, false),
    };
    let (lo, hi) = body
        .split_once(':')
        .ok_or_else(|| format!("--lambda: expected `<lo:hi[x]>`, got `{spec}`"))?;
    let lo: f64 = lo
        .parse()
        .map_err(|_| format!("--lambda: bad number `{lo}`"))?;
    let hi: f64 = hi
        .parse()
        .map_err(|_| format!("--lambda: bad number `{hi}`"))?;
    if !lo.is_finite() || !hi.is_finite() || lo < 0.0 || hi < lo {
        return Err(format!("--lambda: need 0 <= lo <= hi in `{spec}`"));
    }
    Ok((lo, hi, fractional))
}

/// The critical arrival rate λ* = 1/p of a plan's bottleneck station —
/// the same profiles the deep stability pass certifies against.
fn max_stable_rate_of(pico: &Pico, plan: &Plan) -> f64 {
    let sim = Simulation::new(pico.model(), pico.cluster(), &pico.params());
    let period = sim
        .station_profiles(plan)
        .iter()
        .map(|s| s.service)
        .fold(0.0, f64::max);
    pico::sim::mdone::max_stable_rate(period)
}

/// Parses a `--fail-device` spec: `<id>@<task>`, or a bare `<id>`
/// meaning "dead from the first task on".
fn parse_failure(spec: &str) -> Result<(usize, usize), String> {
    let (dev, task) = spec.split_once('@').unwrap_or((spec, "0"));
    let device = dev
        .parse()
        .map_err(|_| format!("--fail-device: bad device id in `{spec}`"))?;
    let from_task = task
        .parse()
        .map_err(|_| format!("--fail-device: bad task index in `{spec}`"))?;
    Ok((device, from_task))
}

fn model_by_name(name: &str) -> Result<Model, String> {
    Ok(match name {
        "vgg16" => zoo::vgg16().features(),
        "yolov2" => zoo::yolov2(),
        "resnet34" => zoo::resnet34().features(),
        "inception_v3" => zoo::inception_v3().features(),
        "mobilenet_v1" => zoo::mobilenet_v1().features(),
        "mnist_toy" => zoo::mnist_toy(),
        other => return Err(format!("unknown model `{other}`")),
    })
}

fn cluster_from(opts: &Opts) -> Result<Cluster, String> {
    match opts.get("cluster") {
        Some("paper") => Ok(Cluster::paper_heterogeneous()),
        Some("paper6") => Ok(Cluster::paper_heterogeneous_6()),
        Some(other) => Err(format!("unknown cluster `{other}`")),
        None => {
            let devices = opts.get_usize("devices", 8)?;
            let ghz = opts.get_f64("ghz", 1.0)?;
            if devices == 0 || ghz <= 0.0 {
                return Err("need --devices >= 1 and --ghz > 0".to_owned());
            }
            Ok(Cluster::pi_cluster(devices, ghz))
        }
    }
}

fn deployment_from(opts: &Opts) -> Result<Pico, String> {
    let model = model_by_name(opts.get("model").unwrap_or("vgg16"))?;
    let cluster = cluster_from(opts)?;
    let mut params = CostParams::new(opts.get_f64("bandwidth", 50.0)? * 1e6);
    if let Some(t) = opts.get("t-lim") {
        let secs: f64 = t
            .parse()
            .map_err(|_| format!("--t-lim: bad number `{t}`"))?;
        params = params.with_t_lim(secs);
    }
    let mut pico = Pico::new(model, cluster).with_params(params);
    if let Some(name) = opts.get("backend") {
        let backend = EngineBackend::parse(name).ok_or_else(|| {
            format!("--backend: unknown backend `{name}` (reference|im2col|simd|int8)")
        })?;
        pico = pico.with_backend(backend);
    }
    Ok(pico)
}

fn planner_by_name(name: &str) -> Result<Box<dyn Planner>, String> {
    Ok(match name {
        "lw" => Box::new(LayerWise::new()),
        "efl" => Box::new(EarlyFused::new()),
        "ofl" => Box::new(OptimalFused::new()),
        "grid" => Box::new(GridFused::new()),
        "ilv" => Box::new(Interleaved::new()),
        "pico" => Box::new(PicoPlanner::new()),
        other => return Err(format!("unknown scheme `{other}`")),
    })
}

/// `pico bench <kernels|planner>` — the offline micro-benchmark
/// suites, printed as a table and optionally written as strict JSON.
fn bench_command(rest: &[String]) -> Result<(), String> {
    use pico::bench::harness::BenchConfig;
    use pico::bench::report::BenchReport;
    use pico::bench::suites;

    let Some((suite, flags)) = rest.split_first() else {
        return Err("usage: pico bench <kernels|planner> [options]".to_owned());
    };
    let opts = Opts::parse(flags)?;
    let defaults = BenchConfig::default();
    let warmup = opts.get_usize("warmup", defaults.warmup)?;
    let iters = opts.get_usize("iters", defaults.iters)?;
    let runs = opts.get_usize("runs", defaults.runs)?;
    if iters == 0 || runs == 0 {
        return Err("need --iters >= 1 and --runs >= 1".to_owned());
    }
    let cfg = BenchConfig::new(warmup, iters, runs);
    if suite != "kernels" && opts.get("gate-ratio").is_some() {
        return Err("--gate-ratio applies to `bench kernels` only".to_owned());
    }
    // Without the option every measured speedup clears the gate.
    let gate = opts.get_f64("gate-ratio", 0.0)?;

    let report = match suite.as_str() {
        "kernels" => suites::kernels(cfg),
        "planner" => suites::planner(cfg),
        other => return Err(format!("unknown bench suite `{other}`")),
    };

    println!(
        "suite {} (warmup {}, iters {}, runs {}; compare ratios, not wall-clock)",
        report.suite, cfg.warmup, cfg.iters, cfg.runs
    );
    println!(
        "{:<36} {:>12} {:>12} {:>8}",
        "case", "median(ns)", "min(ns)", "GFLOP/s"
    );
    for r in &report.records {
        println!(
            "{:<36} {:>12} {:>12} {:>8.2}",
            r.name,
            r.median_ns,
            r.min_ns,
            r.gflops()
        );
    }

    if suite == "kernels" {
        let scalar = suites::backend_speedup(&report, suites::GATE_CASE)
            .ok_or_else(|| "gate case missing from kernel report".to_owned())?;
        let simd = suites::simd_speedup(&report, suites::GATE_CASE)
            .ok_or_else(|| "gate case missing from kernel report".to_owned())?;
        println!(
            "speedup {}: {scalar:.2}x im2col, {simd:.2}x simd over reference",
            suites::GATE_CASE
        );
        if simd < gate {
            return Err(format!(
                "speedup gate failed: {simd:.2}x < required {gate:.2}x simd over \
                 reference on {}",
                suites::GATE_CASE
            ));
        }
    }

    if suite == "planner" {
        // The fit `CostParams::calibrated` would adopt from this
        // machine's fast-backend conv kernels (see EXPERIMENTS.md).
        let (params, samples) = suites::calibration(&suites::kernels(cfg));
        println!(
            "calibration fit over {} conv samples at {:.1} GHz nominal: alpha_scale = {:.4}",
            samples.len(),
            suites::CALIBRATION_CAPACITY / 1e9,
            params.alpha_scale
        );
    }

    if let Some(path) = opts.get("json") {
        let text = report.to_json();
        // The document is the interface: prove it parses strictly and
        // round-trips before calling the run a success.
        let parsed =
            BenchReport::from_json(&text).map_err(|e| format!("--json self-check: {e}"))?;
        if parsed != report {
            return Err("--json self-check: round-trip mismatch".to_owned());
        }
        std::fs::write(path, &text).map_err(|e| format!("--json {path}: {e}"))?;
        println!("wrote {} record(s) to {path}", report.records.len());
    }
    Ok(())
}

/// `pico fleet <build|show>` — the audit-certified Pareto plan
/// frontier for a deployment, served through the process-wide plan
/// cache (`build`), or a look at the cache itself (`show`).
fn fleet_command(rest: &[String]) -> Result<(), String> {
    let Some((sub, flags)) = rest.split_first() else {
        return Err("usage: pico fleet <build|show> [options]".to_owned());
    };
    let opts = Opts::parse(flags)?;
    let pico = deployment_from(&opts)?;
    match sub.as_str() {
        "build" => {
            let frontier = fleet_frontier(
                pico.model(),
                pico.cluster(),
                &pico.params(),
                &Recorder::noop(),
            )
            .map_err(|e| e.to_string())?;
            let entries = frontier.entries();
            println!(
                "frontier for model {:016x} on cluster {:016x}: {} plan(s)",
                frontier.fingerprint().as_u64(),
                frontier.signature().as_u64(),
                entries.len()
            );
            println!("entry  scheme  stages  period(s)  latency(s)  resident(MB)  sustains(/s)");
            for (i, e) in entries.iter().enumerate() {
                let mark = if i == frontier.max_throughput() {
                    "  <- max throughput"
                } else if i == frontier.cheapest() {
                    "  <- cheapest"
                } else {
                    ""
                };
                println!(
                    "{i:<6} {:<7} {:>6}  {:>9.4}  {:>10.4}  {:>12.1}  {:>12.3}{mark}",
                    e.plan.scheme.to_string(),
                    e.plan.stage_count(),
                    e.period,
                    e.latency,
                    e.resident_bytes as f64 / 1e6,
                    e.band.hi
                );
            }
            println!("switch matrix (`+` = audit-approved warm swap, row from, column to):");
            for i in 0..entries.len() {
                let row: String = (0..entries.len())
                    .map(|j| if frontier.switchable(i, j) { '+' } else { '.' })
                    .collect();
                println!("  {i}: {row}");
            }
            if let Some(path) = opts.get("json") {
                std::fs::write(path, frontier.to_json())
                    .map_err(|e| format!("--json {path}: {e}"))?;
                println!("wrote {} frontier entri(es) to {path}", entries.len());
            }
            let s = PlanCache::global().stats();
            println!(
                "plan cache: {} hit(s), {} miss(es), {} eviction(s), {} resident",
                s.hits, s.misses, s.evictions, s.entries
            );
            Ok(())
        }
        "show" => {
            let key = CacheKey::new(
                pico.model(),
                pico.cluster(),
                &pico.params(),
                pico::sim::WorkloadBand::point(0.0),
            );
            match PlanCache::global().get(&key, &Recorder::noop()) {
                Some(f) => println!(
                    "deployment {:016x}: cached ({} frontier entri(es))",
                    key.digest(),
                    f.entries().len()
                ),
                None => println!("deployment {:016x}: not cached", key.digest()),
            }
            let s = PlanCache::global().stats();
            println!(
                "plan cache: {} hit(s), {} miss(es), {} eviction(s), {} resident",
                s.hits, s.misses, s.evictions, s.entries
            );
            Ok(())
        }
        other => Err(format!("unknown fleet subcommand `{other}`")),
    }
}

/// `pico trace <summarize|validate> <file.json>` — offline inspection
/// of Chrome trace-event files written by `pico run --trace`.
fn trace_command(rest: &[String]) -> Result<(), String> {
    let [sub, path] = rest else {
        return Err("usage: pico trace <summarize|validate> <file.json>".to_owned());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let parsed =
        pico::telemetry::trace::parse_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    match sub.as_str() {
        "validate" => {
            println!(
                "{path}: valid Chrome trace ({} span(s), {} counter sample(s), {} instant(s))",
                parsed.spans.len(),
                parsed.counters,
                parsed.instants
            );
            Ok(())
        }
        "summarize" => {
            print!("{}", TraceSummary::from_trace(&parsed));
            Ok(())
        }
        other => Err(format!("unknown trace subcommand `{other}`")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("no command given".to_owned());
    };
    if command == "trace" {
        // `trace` takes positional operands, not --key value pairs.
        return trace_command(rest);
    }
    if command == "bench" {
        // `bench` takes a positional suite name before its flags.
        return bench_command(rest);
    }
    if command == "fleet" {
        // `fleet` takes a positional subcommand before its flags.
        return fleet_command(rest);
    }
    let opts = Opts::parse(rest)?;
    let pico = deployment_from(&opts)?;

    match command.as_str() {
        "plan" => {
            let planner = planner_by_name(opts.get("scheme").unwrap_or("pico"))?;
            let plan = pico.plan_with(&planner).map_err(|e| e.to_string())?;
            print!("{}", pico.describe(&plan));
            Ok(())
        }
        "audit" => {
            let mut config = AuditConfig::default();
            if let Some(mb) = opts.get("memory-budget") {
                let mb: f64 = mb
                    .parse()
                    .map_err(|_| format!("--memory-budget: bad number `{mb}`"))?;
                config = config.with_memory_budget((mb * 1e6).max(0.0) as usize);
            }
            if let Some(r) = opts.get("redundancy-limit") {
                let ratio: f64 = r
                    .parse()
                    .map_err(|_| format!("--redundancy-limit: bad number `{r}`"))?;
                config = config.with_redundancy_threshold(ratio);
            }
            let deep = opts.get("deep").is_some();
            let band = opts.get("lambda").map(parse_lambda).transpose()?;
            if band.is_some() && !deep {
                return Err("--lambda requires --deep".to_owned());
            }
            for flag in ["deep-memory-budget", "swap-budget", "channel-capacity"] {
                if opts.get(flag).is_some() && !deep {
                    return Err(format!("--{flag} requires --deep"));
                }
            }
            if let Some(mb) = opts.get("deep-memory-budget") {
                let mb: f64 = mb
                    .parse()
                    .map_err(|_| format!("--deep-memory-budget: bad number `{mb}`"))?;
                config = config.with_deep_memory_budget((mb * 1e6).max(0.0) as usize);
            }
            if let Some(mb) = opts.get("swap-budget") {
                let mb: f64 = mb
                    .parse()
                    .map_err(|_| format!("--swap-budget: bad number `{mb}`"))?;
                config = config.with_swap_budget((mb * 1e6).max(0.0) as usize);
            }
            if let Some(cap) = opts.get("channel-capacity") {
                let cap: usize = cap
                    .parse()
                    .map_err(|_| format!("--channel-capacity: bad integer `{cap}`"))?;
                config = config.with_channel_capacity(cap);
            }
            let schemes: Vec<&str> = match opts.get("scheme") {
                Some(s) => vec![s],
                None => vec!["lw", "efl", "ofl", "grid", "ilv", "pico"],
            };
            let mut errors = 0;
            let mut entries: Vec<(String, AuditReport)> = Vec::new();
            let mut planned: Vec<(&str, Plan)> = Vec::new();
            for name in schemes {
                let planner = planner_by_name(name)?;
                match pico.plan_with(&planner) {
                    Ok(plan) => {
                        let mut cfg = config.clone();
                        if let Some((lo, hi, fractional)) = band {
                            let scale = if fractional {
                                max_stable_rate_of(&pico, &plan)
                            } else {
                                1.0
                            };
                            cfg = cfg.with_workload_band(pico::audit::WorkloadBand::new(
                                lo * scale,
                                hi * scale,
                            ));
                        }
                        let auditor = Auditor::new(pico.model(), pico.cluster())
                            .with_params(pico.params())
                            .with_config(cfg);
                        let report = if deep {
                            auditor.audit_deep(&plan)
                        } else {
                            auditor.audit(&plan)
                        };
                        errors += report.errors().count();
                        println!("{name}: {report}");
                        entries.push((name.to_owned(), report));
                        planned.push((name, plan));
                    }
                    Err(e) => println!("{name}: did not plan ({e})"),
                }
            }
            // The paper's canonical APICO switch set is the PICO
            // pipeline paired with the fused one-stage OFL plan; audit
            // that pair's warm-swap safety whenever both planned.
            if deep {
                let by_name = |n: &str| planned.iter().find(|(name, _)| *name == n).map(|(_, p)| p);
                if let (Some(a), Some(b)) = (by_name("pico"), by_name("ofl")) {
                    let report = Auditor::new(pico.model(), pico.cluster())
                        .with_params(pico.params())
                        .with_config(config.clone())
                        .audit_switch_pair(a, b);
                    errors += report.errors().count();
                    println!("pico+ofl (switch pair): {report}");
                    entries.push(("pico+ofl".to_owned(), report));
                }
            }
            if let Some(path) = opts.get("json") {
                let text = pico::audit::json::reports_to_json(&entries);
                // The document is the interface: prove it parses
                // strictly and round-trips before calling it a success.
                let parsed = pico::audit::json::reports_from_json(&text)
                    .map_err(|e| format!("--json self-check: {e}"))?;
                if parsed != entries {
                    return Err("--json self-check: round-trip mismatch".to_owned());
                }
                std::fs::write(path, &text).map_err(|e| format!("--json {path}: {e}"))?;
                println!("wrote {} audit(s) to {path}", entries.len());
            }
            if errors > 0 {
                Err(format!("{errors} error-level diagnostic(s)"))
            } else {
                Ok(())
            }
        }
        "compare" => {
            println!("scheme  stages  period(s)  latency(s)  tasks/min");
            for name in ["lw", "efl", "ofl", "grid", "ilv", "pico"] {
                let planner = planner_by_name(name)?;
                match pico.plan_with(&planner) {
                    Ok(plan) => {
                        let m = pico.predict(&plan);
                        println!(
                            "{:<7} {:>6}  {:>9.3}  {:>10.3}  {:>9.1}",
                            plan.scheme.to_string(),
                            plan.stage_count(),
                            m.period,
                            m.latency,
                            60.0 * m.throughput()
                        );
                    }
                    Err(e) => println!("{name:<7} failed: {e}"),
                }
            }
            Ok(())
        }
        "simulate" => {
            let load = opts.get_f64("load", 1.0)?;
            let minutes = opts.get_f64("minutes", 10.0)?;
            let efl = pico
                .plan_with(&EarlyFused::new())
                .map_err(|e| e.to_string())?;
            let capacity = 1.0 / pico.predict(&efl).period;
            let arrivals = Arrivals::poisson(load * capacity, minutes * 60.0, 42);
            println!(
                "load = {load} x EFL capacity ({:.3} tasks/s) over {minutes} min",
                capacity
            );
            println!("scheme  completed  avg_lat(s)  p95_lat(s)  util");
            for name in ["efl", "ofl", "grid", "pico"] {
                let planner = planner_by_name(name)?;
                if let Ok(plan) = pico.plan_with(&planner) {
                    let r = pico.simulate(&plan, &arrivals);
                    println!(
                        "{:<7} {:>9}  {:>10.2}  {:>10.2}  {:>4.0}%",
                        plan.scheme.to_string(),
                        r.completed,
                        r.avg_latency,
                        r.p95_latency,
                        100.0 * r.avg_utilization()
                    );
                }
            }
            let (r, decisions) = pico
                .run_adaptive(&arrivals, 30.0, 0.4)
                .map_err(|e| e.to_string())?;
            println!(
                "{:<7} {:>9}  {:>10.2}  {:>10.2}  {:>4.0}%  ({} switches)",
                "APICO",
                r.completed,
                r.avg_latency,
                r.p95_latency,
                100.0 * r.avg_utilization(),
                decisions.len().saturating_sub(1)
            );
            Ok(())
        }
        "run" => {
            let tasks = opts.get_usize("tasks", 4)?;
            let seed = opts.get_usize("seed", 7)? as u64;
            let planner = planner_by_name(opts.get("scheme").unwrap_or("pico"))?;
            let rec = Recorder::in_memory();
            let pico = pico.with_recorder(rec.clone());
            let plan = pico.plan_with(&planner).map_err(|e| e.to_string())?;
            let inputs: Vec<Tensor> = (0..tasks)
                .map(|i| Tensor::random(pico.model().input_shape(), seed ^ (i as u64)))
                .collect();
            // `--churn` replays a script; `--fail-device` flags make a
            // leave-only one. Both pass the same churn audit gate.
            let churn_path = opts.get("churn");
            if churn_path.is_some()
                && (opts.get("throttle-scale").is_some() || opts.get("fail-device").is_some())
            {
                return Err(
                    "--churn cannot be combined with --fail-device or --throttle-scale".to_owned(),
                );
            }
            let (schedule, source) = match churn_path {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("--churn {path}: {e}"))?;
                    let churn = ClusterSchedule::parse(&text)
                        .map_err(|e| format!("--churn {path}: {e}"))?;
                    (churn, format!("--churn {path}"))
                }
                None => {
                    let mut departures = ClusterSchedule::new();
                    for spec in opts.get_all("fail-device") {
                        let (device, from_task) = parse_failure(spec)?;
                        departures = departures.leave(device, from_task);
                    }
                    (departures, "--fail-device".to_owned())
                }
            };
            let gate = Auditor::new(pico.model(), pico.cluster()).audit_churn(&schedule);
            if !gate.is_executable() {
                return Err(format!(
                    "{source}: schedule rejected by the churn audit:\n{gate}"
                ));
            }
            if churn_path.is_some() {
                let report = pico
                    .execute_churn(inputs, seed, &schedule)
                    .map_err(|e| e.to_string())?;
                for (i, ep) in report.epochs.iter().enumerate() {
                    let mut boundary = String::new();
                    if !ep.admitted.is_empty() {
                        boundary.push_str(&format!(" admitted {:?}", ep.admitted));
                    }
                    if !ep.resized.is_empty() {
                        boundary.push_str(&format!(" resized {:?}", ep.resized));
                    }
                    if ep.switch_committed {
                        boundary.push_str(" (switch committed)");
                    }
                    println!(
                        "epoch {i}: {} task(s) from task {} on devices {:?} under {}{boundary}, \
                         {} departure(s) absorbed",
                        ep.tasks, ep.start_task, ep.devices, ep.scheme, ep.failures
                    );
                }
                let stats = pico.plan_cache().stats();
                println!(
                    "plan cache: {} hit(s), {} miss(es), {} invalidation(s)",
                    stats.hits, stats.misses, stats.invalidations
                );
                println!(
                    "{} task(s) completed under churn, 0 dropped",
                    report.outputs.len()
                );
                if let Some(path) = opts.get("trace") {
                    let events = rec.snapshot();
                    std::fs::write(path, pico::telemetry::trace::chrome_trace(&events))
                        .map_err(|e| format!("--trace {path}: {e}"))?;
                    println!("wrote {} event(s) to {path}", events.len());
                }
                return Ok(());
            }
            let engine = pico.engine(seed);
            let mut runtime = pico.runtime(&plan, &engine);
            if let Some(s) = opts.get("throttle-scale") {
                if !schedule.is_empty() {
                    return Err("--fail-device cannot be combined with --throttle-scale".to_owned());
                }
                let scale: f64 = s
                    .parse()
                    .map_err(|_| format!("--throttle-scale: bad number `{s}`"))?;
                runtime =
                    runtime.throttle(Throttle::new(pico.cluster().clone(), pico.params(), scale));
            } else if !schedule.is_empty() {
                let epochs = schedule.epochs(pico.cluster()).map_err(|e| e.to_string())?;
                runtime = runtime
                    .leaves(&epochs[0].leaves)
                    .recovery(RecoveryPolicy::new(pico.cluster().clone(), pico.params()));
            }
            let report = runtime.build().run(inputs).map_err(|e| e.to_string())?;
            for f in &report.failures {
                println!(
                    "device {} failed at stage {} task {}: {}",
                    f.device, f.stage, f.task, f.cause
                );
            }
            if let Some(degraded) = &report.degraded_plan {
                let excluded: Vec<usize> = report.failures.iter().map(|f| f.device).collect();
                println!(
                    "re-planned without {excluded:?}: degraded plan has {} stage(s)",
                    degraded.stage_count()
                );
            }
            println!(
                "{} plan, {} task(s) in {:.3}s: {} tasks/s",
                plan.scheme,
                report.outputs.len(),
                report.elapsed.as_secs_f64(),
                report
                    .throughput()
                    .map_or_else(|| "n/a".to_owned(), |t| format!("{t:.2}"))
            );
            if let (Some(period), Some(stage)) =
                (report.measured_period(), report.bottleneck_stage())
            {
                println!("measured period {period:.4}s, bottleneck stage {stage}");
            }
            let events = rec.snapshot();
            print!("{}", TraceSummary::from_events(&events));
            // PA106: does the measured bottleneck agree with the plan's
            // cost-model claim?
            let observed: Vec<f64> = report.stage_stats.iter().map(|s| s.busy_secs).collect();
            let audit = Auditor::new(pico.model(), pico.cluster())
                .with_params(pico.params())
                .with_config(AuditConfig::default().with_observed_stage_busy(observed))
                .audit(&plan);
            for d in audit
                .warnings()
                .filter(|d| d.code == Code::BottleneckMismatch)
            {
                println!("warning: {d}");
            }
            if let Some(path) = opts.get("trace") {
                std::fs::write(path, pico::telemetry::trace::chrome_trace(&events))
                    .map_err(|e| format!("--trace {path}: {e}"))?;
                println!("wrote {} event(s) to {path}", events.len());
            }
            Ok(())
        }
        "serve" => {
            let spec_name = opts
                .get("replay")
                .ok_or("serve requires --replay <steady|bursty|ramp>")?;
            let script = ReplayScript::parse(spec_name)
                .ok_or_else(|| format!("--replay: unknown script `{spec_name}`"))?;
            let tasks = opts.get_usize("tasks", 96)?;
            let seed = opts.get_usize("seed", 7)? as u64;
            let tenants = opts.get_usize("tenants", 2)?;
            let adaptive = opts.get("adaptive").is_some();
            for flag in ["min-replans", "replan-window"] {
                if opts.get(flag).is_some() && !adaptive {
                    return Err(format!("--{flag} requires --adaptive"));
                }
            }
            let swap_at = if adaptive {
                if opts.get("swap-at").is_some() {
                    return Err(
                        "--swap-at conflicts with --adaptive: the re-planning controller \
                         schedules switches itself"
                            .to_owned(),
                    );
                }
                None
            } else {
                match opts.get("swap-at") {
                    Some("none") => None,
                    Some(v) => Some(
                        v.parse()
                            .map_err(|_| format!("--swap-at: bad index `{v}`"))?,
                    ),
                    None => Some(tasks / 2),
                }
            };
            let spec = ScriptSpec {
                tasks,
                tenants,
                seed,
                swap_at,
            };
            let rp = build_script(pico.model(), pico.cluster(), &pico.params(), script, &spec)
                .map_err(|e| e.to_string())?;
            let rec = Recorder::in_memory();
            let mut engine = Engine::with_seed(pico.model(), seed);
            if let Some(backend) = pico.backend() {
                engine = engine.with_backend(backend);
            }
            let params = pico.params();
            let replayer = Replayer::new(pico.model(), pico.cluster(), &params, &engine, rp.config)
                .with_recorder(rec.clone());
            let (outcome, switches) = if adaptive {
                let start = rp.frontier.cheapest();
                let window =
                    opts.get_f64("replan-window", 2.0 * rp.frontier.entries()[start].latency)?;
                let policy = ReplanPolicy {
                    window,
                    ..ReplanPolicy::default()
                };
                replayer
                    .run_adaptive(&rp.frontier, policy, &rp.events)
                    .map_err(|e| e.to_string())?
            } else {
                let outcome = replayer
                    .run(&rp.initial, &rp.events)
                    .map_err(|e| e.to_string())?;
                (outcome, Vec::new())
            };

            println!(
                "replayed `{}`: {} arrival(s), {} tenant(s), seed {seed}",
                script.name(),
                tasks,
                tenants
            );
            println!("tenant  admitted  rejected  completed");
            for (t, s) in outcome.per_tenant.iter().enumerate() {
                println!(
                    "t{t:<5} {:>9} {:>9} {:>10}",
                    s.admitted, s.rejected, s.completed
                );
            }
            println!(
                "{} batch(es): size min {} / mean {:.2} / max {}",
                outcome.batch_sizes.len(),
                outcome.min_batch(),
                outcome.mean_batch(),
                outcome.max_batch()
            );
            println!(
                "{} warm swap(s) across {} epoch(s); virtual makespan {:.3}s",
                outcome.swaps, outcome.epochs, outcome.makespan
            );
            for msg in &outcome.swap_rejections {
                println!("swap rejected by audit: {msg}");
            }
            for s in &switches {
                println!(
                    "replan at t={:.3}s: frontier entry {} -> {} (lambda-hat {:.2} tasks/s)",
                    s.at, s.from, s.to, s.lambda
                );
            }
            let min_replans = opts.get_usize("min-replans", 0)?;
            if switches.len() < min_replans {
                return Err(format!(
                    "adaptive gate failed: {} replan(s) fired, required at least {min_replans}",
                    switches.len()
                ));
            }
            for r in outcome.rejections.iter().take(5) {
                println!("rejected task {} (tenant {}): {}", r.seq, r.tenant, r.error);
            }
            if outcome.rejections.len() > 5 {
                println!("... and {} more rejection(s)", outcome.rejections.len() - 5);
            }
            let events = rec.snapshot();
            print!("{}", TraceSummary::from_events(&events));
            if let Some(path) = opts.get("trace") {
                std::fs::write(path, pico::telemetry::trace::chrome_trace(&events))
                    .map_err(|e| format!("--trace {path}: {e}"))?;
                println!("wrote {} event(s) to {path}", events.len());
            }

            // The serving contract: every arrival is either completed or
            // rejected with a typed error — an admitted task can never
            // silently vanish, warm swap or not.
            let served = outcome.completed.len() as u64;
            let admitted: u64 = outcome.per_tenant.iter().map(|s| s.admitted).sum();
            let rejected = outcome.rejections.len() as u64;
            if served != admitted || served + rejected != tasks as u64 {
                return Err(format!(
                    "dropped tasks: {admitted} admitted, {served} served, \
                     {rejected} rejected of {tasks} arrivals"
                ));
            }
            println!("zero drops: {served} served + {rejected} rejected = {tasks} arrivals");
            Ok(())
        }
        "model" => {
            print!("{}", pico::model::summary::to_table(pico.model()));
            Ok(())
        }
        "frontier" => {
            let steps = opts.get_usize("steps", 10)?;
            println!("t_lim(s)  period(s)  latency(s)  stages");
            for p in pico.frontier(steps) {
                let lim = p
                    .t_lim
                    .map(|t| format!("{t:.3}"))
                    .unwrap_or_else(|| "none".to_owned());
                println!(
                    "{lim:>8}  {:>9.3}  {:>10.3}  {:>6}",
                    p.period,
                    p.latency,
                    p.plan.stage_count()
                );
            }
            Ok(())
        }
        "memory" => {
            let plan = pico.plan().map_err(|e| e.to_string())?;
            let base = single_device_memory(pico.model());
            println!(
                "single device: {:.1} MB weights + {:.1} MB activations",
                base.weights_bytes as f64 / 1e6,
                base.peak_activation_bytes as f64 / 1e6
            );
            println!("device  weights(MB)  peak_act(MB)  total(MB)");
            for d in plan_memory(pico.model(), &plan) {
                println!(
                    "d{:<5} {:>12.1}  {:>12.1}  {:>9.1}",
                    d.device,
                    d.weights_bytes as f64 / 1e6,
                    d.peak_activation_bytes as f64 / 1e6,
                    d.total_bytes() as f64 / 1e6
                );
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn plan_and_compare_run() {
        run(&sv(&["plan", "--model", "mnist_toy", "--devices", "3"])).unwrap();
        run(&sv(&["compare", "--model", "mnist_toy", "--devices", "3"])).unwrap();
        run(&sv(&[
            "memory",
            "--model",
            "mnist_toy",
            "--cluster",
            "paper6",
        ]))
        .unwrap();
    }

    #[test]
    fn audit_runs_clean_on_every_scheme() {
        run(&sv(&["audit", "--model", "mnist_toy", "--devices", "4"])).unwrap();
        run(&sv(&[
            "audit",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--scheme",
            "pico",
            "--memory-budget",
            "512",
            "--redundancy-limit",
            "0.9",
        ]))
        .unwrap();
        assert!(run(&sv(&[
            "audit",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--memory-budget",
            "abc",
        ]))
        .is_err());
    }

    #[test]
    fn deep_audit_runs_clean_and_writes_json() {
        let path = std::env::temp_dir().join(format!("pico-cli-audit-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path").to_owned();
        // Absolute band, fractional band, and the JSON self-check.
        run(&sv(&[
            "audit",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--deep",
            "--lambda",
            "0.3:0.9x",
            "--json",
            &path,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let reports = pico::audit::json::reports_from_json(&text).unwrap();
        // Six schemes plus the pico+ofl switch pair.
        assert_eq!(reports.len(), 7);
        assert!(reports.iter().any(|(name, _)| name == "pico+ofl"));
        assert!(reports.iter().all(|(_, r)| r.is_executable()));
        std::fs::remove_file(&path).ok();
        run(&sv(&[
            "audit",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--deep",
            "--lambda",
            "0.0:0.1",
            "--channel-capacity",
            "4",
        ]))
        .unwrap();
    }

    #[test]
    fn deep_audit_rejects_bad_flags_and_flags_saturating_bands() {
        let base = ["audit", "--model", "mnist_toy", "--devices", "4"];
        let with = |extra: &[&str]| {
            let mut v = base.to_vec();
            v.extend_from_slice(extra);
            sv(&v)
        };
        assert!(
            run(&with(&["--lambda", "0.3:0.9x"])).is_err(),
            "needs --deep"
        );
        assert!(run(&with(&["--channel-capacity", "4"])).is_err());
        assert!(run(&with(&["--deep", "--lambda", "nope"])).is_err());
        assert!(run(&with(&["--deep", "--lambda", "2.0:1.0"])).is_err());
        assert!(run(&with(&["--deep", "--lambda", "-1.0:0.5"])).is_err());
        // A band reaching λ* is an error-level PA303 verdict.
        assert!(run(&with(&["--deep", "--lambda", "0.5:2.0x"])).is_err());
        // A tiny certified budget is an error-level PA302 verdict.
        assert!(run(&with(&["--deep", "--deep-memory-budget", "0.001"])).is_err());
    }

    #[test]
    fn serve_replays_with_zero_drops_and_rejects_bad_flags() {
        run(&sv(&[
            "serve",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--replay",
            "bursty",
            "--tasks",
            "48",
        ]))
        .unwrap();
        run(&sv(&[
            "serve",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--replay",
            "steady",
            "--tasks",
            "16",
            "--swap-at",
            "none",
        ]))
        .unwrap();
        assert!(
            run(&sv(&["serve", "--model", "mnist_toy"])).is_err(),
            "needs --replay"
        );
        assert!(run(&sv(&["serve", "--model", "mnist_toy", "--replay", "bogus"])).is_err());
        assert!(run(&sv(&[
            "serve",
            "--model",
            "mnist_toy",
            "--replay",
            "ramp",
            "--swap-at",
            "x",
        ]))
        .is_err());
    }

    #[test]
    fn serve_adaptive_replans_with_zero_drops() {
        // The CI smoke contract: the ramp trace must push the EWMA far
        // enough that the controller fires at least one audit-gated
        // switch, and no task may be dropped across it.
        run(&sv(&[
            "serve",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--replay",
            "ramp",
            "--adaptive",
            "--min-replans",
            "1",
        ]))
        .unwrap();
        // Scripted swaps and the controller are mutually exclusive.
        assert!(run(&sv(&[
            "serve",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--replay",
            "ramp",
            "--adaptive",
            "--swap-at",
            "8",
        ]))
        .is_err());
        // The adaptive-only flags demand --adaptive.
        assert!(run(&sv(&[
            "serve",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--replay",
            "ramp",
            "--min-replans",
            "1",
        ]))
        .is_err());
        // A steady trace holds λ in-band: an impossible gate fails.
        assert!(run(&sv(&[
            "serve",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--replay",
            "steady",
            "--tasks",
            "16",
            "--adaptive",
            "--min-replans",
            "64",
        ]))
        .is_err());
    }

    #[test]
    fn fleet_build_writes_artifact_and_show_reports_cache() {
        let path = std::env::temp_dir().join(format!("pico-cli-fleet-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path").to_owned();
        run(&sv(&[
            "fleet",
            "build",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--json",
            &path,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"entries\""));
        std::fs::remove_file(&path).ok();
        // After a build, `show` sees the cached deployment.
        run(&sv(&[
            "fleet",
            "show",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
        ]))
        .unwrap();
        assert!(run(&sv(&["fleet"])).is_err());
        assert!(run(&sv(&["fleet", "frobnicate"])).is_err());
    }

    #[test]
    fn simulate_runs_briefly() {
        run(&sv(&[
            "simulate",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--load",
            "0.8",
            "--minutes",
            "1",
        ]))
        .unwrap();
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&sv(&["plan", "--model", "nope"])).is_err());
        assert!(run(&sv(&["frobnicate"])).is_err());
        assert!(run(&sv(&["plan", "--devices"])).is_err());
        assert!(run(&sv(&["plan", "positional"])).is_err());
        assert!(run(&sv(&["plan", "--ghz", "abc"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn frontier_command_runs() {
        run(&sv(&[
            "frontier",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--steps",
            "4",
        ]))
        .unwrap();
    }

    #[test]
    fn model_summary_runs() {
        run(&sv(&["model", "--model", "mobilenet_v1"])).unwrap();
    }

    #[test]
    fn run_writes_a_trace_the_trace_command_accepts() {
        let path = std::env::temp_dir().join(format!("pico-cli-trace-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path").to_owned();
        run(&sv(&[
            "run",
            "--model",
            "mnist_toy",
            "--devices",
            "3",
            "--tasks",
            "2",
            "--trace",
            &path,
        ]))
        .unwrap();
        run(&sv(&["trace", "validate", &path])).unwrap();
        run(&sv(&["trace", "summarize", &path])).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_accepts_backend_overrides() {
        for backend in ["reference", "im2col", "simd", "int8"] {
            run(&sv(&[
                "run",
                "--model",
                "mnist_toy",
                "--devices",
                "3",
                "--tasks",
                "1",
                "--backend",
                backend,
            ]))
            .unwrap();
        }
        assert!(run(&sv(&[
            "run",
            "--model",
            "mnist_toy",
            "--devices",
            "3",
            "--backend",
            "avx512"
        ]))
        .is_err());
    }

    #[test]
    fn unknown_options_are_rejected_by_name() {
        // A retired flag or a typo must fail loudly, naming itself,
        // instead of being parsed and never read.
        for (args, flag) in [
            (
                &[
                    "run",
                    "--model",
                    "mnist_toy",
                    "--devices",
                    "3",
                    "--threads",
                    "2",
                ][..],
                "--threads",
            ),
            (
                &["bench", "kernels", "--scaling-gate", "2", "--iters", "1"][..],
                "--scaling-gate",
            ),
            (&["plan", "--modle", "vgg16"][..], "--modle"),
        ] {
            let err = run(&sv(args)).unwrap_err();
            assert!(err.contains(flag), "{args:?}: {err}");
        }
    }

    #[test]
    fn every_ci_command_line_parses() {
        // Each `pico` invocation in the CI workflow must name only
        // options the binary reads (shell continuations joined first).
        let ci = include_str!("../../.github/workflows/ci.yml").replace("\\\n", " ");
        let mut checked = 0;
        for line in ci.lines() {
            let Some((_, cmd)) = line.split_once("--bin pico -- ") else {
                continue;
            };
            let args: Vec<String> = cmd
                .split_whitespace()
                .map(|a| a.trim_matches('"').to_owned())
                .collect();
            let flags = match args[0].as_str() {
                // `trace` takes positional operands only.
                "trace" => continue,
                "bench" | "fleet" => &args[2..],
                _ => &args[1..],
            };
            if let Err(e) = Opts::parse(flags) {
                panic!("{line}: {e}");
            }
            checked += 1;
        }
        assert!(checked >= 12, "only {checked} CI command line(s) found");
    }

    #[test]
    fn run_supports_throttle_and_scheme() {
        run(&sv(&[
            "run",
            "--model",
            "mnist_toy",
            "--devices",
            "3",
            "--tasks",
            "2",
            "--scheme",
            "efl",
            "--throttle-scale",
            "0.0001",
        ]))
        .unwrap();
        assert!(run(&sv(&[
            "run",
            "--model",
            "mnist_toy",
            "--devices",
            "3",
            "--throttle-scale",
            "abc",
        ]))
        .is_err());
    }

    #[test]
    fn run_fail_device_injects_and_recovers() {
        // Mid-stream failure: retried on survivors / re-planned.
        run(&sv(&[
            "run",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--tasks",
            "3",
            "--fail-device",
            "1@1",
        ]))
        .unwrap();
        // Bare id: dead from the first task on.
        run(&sv(&[
            "run",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--tasks",
            "2",
            "--fail-device",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn run_churn_replays_a_script_and_reports_epochs() {
        let path =
            std::env::temp_dir().join(format!("pico-cli-churn-{}.script", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path").to_owned();
        std::fs::write(&path, "# flap device 3\nleave 3@1\nrejoin 3@3\n").unwrap();
        run(&sv(&[
            "run",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--tasks",
            "5",
            "--churn",
            &path,
        ]))
        .unwrap();
        // The interleaved planner is a first-class scheme.
        run(&sv(&[
            "run",
            "--model",
            "mnist_toy",
            "--devices",
            "3",
            "--tasks",
            "1",
            "--scheme",
            "ilv",
        ]))
        .unwrap();
        // An illegal schedule is rejected by the churn audit gate.
        std::fs::write(&path, "rejoin 1@2\n").unwrap();
        assert!(run(&sv(&[
            "run",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--churn",
            &path
        ]))
        .is_err());
        // --churn conflicts with the single-run failure injector.
        std::fs::write(&path, "leave 3@1\nrejoin 3@2\n").unwrap();
        assert!(run(&sv(&[
            "run",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--churn",
            &path,
            "--fail-device",
            "1"
        ]))
        .is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fail_device_rejects_bad_specs() {
        let base = ["run", "--model", "mnist_toy", "--devices", "4"];
        let with = |extra: &[&str]| {
            let mut v = base.to_vec();
            v.extend_from_slice(extra);
            sv(&v)
        };
        assert!(run(&with(&["--fail-device", "x@1"])).is_err());
        assert!(run(&with(&["--fail-device", "1@y"])).is_err());
        assert!(run(&with(&["--fail-device", "1", "--throttle-scale", "0.001"])).is_err());
        // The flags form a leave-only churn script and pass its audit:
        // an unknown device is PA501, a second leave of one device PA502.
        let err = run(&with(&["--fail-device", "9@0"])).unwrap_err();
        assert!(err.contains("PA501"), "{err}");
        let err = run(&with(&["--fail-device", "1@0", "--fail-device", "1@2"])).unwrap_err();
        assert!(err.contains("PA502"), "{err}");
    }

    #[test]
    fn bench_kernels_writes_a_valid_report_and_gates_on_ratio() {
        let path = std::env::temp_dir().join(format!("pico-cli-bench-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path").to_owned();
        run(&sv(&[
            "bench",
            "kernels",
            "--warmup",
            "0",
            "--iters",
            "1",
            "--runs",
            "1",
            "--json",
            &path,
            "--gate-ratio",
            "0.0001",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let report = pico::bench::report::BenchReport::from_json(&text).unwrap();
        assert_eq!(report.suite, "kernels");
        for backend in ["reference", "im2col", "simd", "int8"] {
            assert!(report
                .record(&format!("{}/{backend}", pico::bench::suites::GATE_CASE))
                .is_some());
        }
        std::fs::remove_file(&path).ok();
        // An impossible gate fails cleanly.
        assert!(run(&sv(&[
            "bench",
            "kernels",
            "--warmup",
            "0",
            "--iters",
            "1",
            "--runs",
            "1",
            "--gate-ratio",
            "1e12",
        ]))
        .is_err());
    }

    #[test]
    fn bench_bad_invocations_error() {
        assert!(run(&sv(&["bench"])).is_err());
        assert!(run(&sv(&["bench", "frobnicate"])).is_err());
        // The end-to-end suite is retired: `benchmark/` drives the
        // real path.
        assert!(run(&sv(&["bench", "e2e", "--iters", "1"])).is_err());
        assert!(run(&sv(&["bench", "kernels", "--iters", "0"])).is_err());
        assert!(run(&sv(&["bench", "kernels", "--iters", "abc"])).is_err());
        assert!(run(&sv(&[
            "bench",
            "kernels",
            "--gate-ratio",
            "abc",
            "--iters",
            "1",
            "--warmup",
            "0",
            "--runs",
            "1"
        ]))
        .is_err());
        // The speedup gate belongs to the kernel suite; the planner
        // suite refuses it before running anything.
        assert!(run(&sv(&[
            "bench",
            "planner",
            "--gate-ratio",
            "3",
            "--iters",
            "1",
            "--warmup",
            "0",
            "--runs",
            "1",
        ]))
        .is_err());
    }

    #[test]
    fn trace_command_rejects_bad_invocations() {
        assert!(run(&sv(&["trace"])).is_err());
        assert!(run(&sv(&["trace", "summarize"])).is_err());
        assert!(run(&sv(&["trace", "validate", "/nonexistent/pico.json"])).is_err());
        let path = std::env::temp_dir().join(format!("pico-cli-bad-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path").to_owned();
        std::fs::write(&path, "not a trace").unwrap();
        assert!(run(&sv(&["trace", "validate", &path])).is_err());
        std::fs::write(&path, "{\"traceEvents\":[]}").unwrap();
        assert!(run(&sv(&["trace", "frobnicate", &path])).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn t_lim_and_scheme_options() {
        run(&sv(&[
            "plan",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--scheme",
            "grid",
        ]))
        .unwrap();
        // A very tight limit is a planning error, surfaced cleanly.
        assert!(run(&sv(&[
            "plan",
            "--model",
            "mnist_toy",
            "--devices",
            "4",
            "--t-lim",
            "0.000001",
        ]))
        .is_err());
    }
}
