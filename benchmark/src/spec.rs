//! The benchmark's frozen vocabulary: workload names, end-to-end
//! metrics with their bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repo root states the same lists for the driver; a unit test
//! holds the two together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Frozen name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which a change may worsen the
    /// metric before it counts as a regression.
    pub bound: f64,
}

/// A per-layer metric (no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Frozen name, `<crate>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

use Better::{Higher, Lower};

/// The six end-to-end metrics, the same set on every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "heap_peak_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
    },
];

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics of the traced run, grouped by crate.
pub const PER_LAYER: [PerLayer; 59] = [
    // tensor
    pl("tensor.infer_ms.im2col", "ms", Lower),
    pl("tensor.infer_ms.simd", "ms", Lower),
    pl("tensor.infer_ms.int8", "ms", Lower),
    pl("tensor.gflops", "GFLOP/s", Higher),
    pl("tensor.shard_ms", "ms", Lower),
    pl("tensor.redundancy_ratio", "ratio", Lower),
    pl("tensor.shard_imbalance", "ratio", Lower),
    pl("tensor.weights_init_ms", "ms", Lower),
    pl("tensor.allocs_per_infer", "count", Lower),
    // runtime
    pl("runtime.session_open_ms", "ms", Lower),
    pl("runtime.task_ms", "ms", Lower),
    pl("runtime.batch_ms", "ms", Lower),
    pl("runtime.scatter_ms", "ms", Lower),
    pl("runtime.compute_ms", "ms", Lower),
    pl("runtime.halo_ms", "ms", Lower),
    pl("runtime.stitch_ms", "ms", Lower),
    pl("runtime.noncompute_share", "ratio", Lower),
    pl("runtime.stage_busy_share", "ratio", Higher),
    pl("runtime.fill_share", "ratio", Lower),
    pl("runtime.handoff_ms", "ms", Lower),
    pl("runtime.allocs_per_task", "count", Lower),
    pl("runtime.alloc_kb_per_task", "KiB", Lower),
    // serve
    pl("serve.submit_us", "us", Lower),
    pl("serve.added_latency_ms", "ms", Lower),
    pl("serve.mean_batch", "count", Higher),
    pl("serve.rejected_share", "ratio", Lower),
    pl("serve.swap_stall_ms", "ms", Lower),
    pl("serve.shutdown_ms", "ms", Lower),
    // fleet
    pl("fleet.frontier_build_ms", "ms", Lower),
    pl("fleet.key_us", "us", Lower),
    pl("fleet.cache_hit_ns", "ns", Lower),
    pl("fleet.cache_insert_us", "us", Lower),
    pl("fleet.invalidate_us", "us", Lower),
    pl("fleet.hit_ratio", "ratio", Higher),
    // partition, model, audit, sim: the children of a frontier build
    pl("partition.plan_ms.lw", "ms", Lower),
    pl("partition.plan_ms.efl", "ms", Lower),
    pl("partition.plan_ms.ofl", "ms", Lower),
    pl("partition.plan_ms.grid", "ms", Lower),
    pl("partition.plan_ms.ilv", "ms", Lower),
    pl("partition.plan_ms.pico", "ms", Lower),
    pl("partition.pareto_ms", "ms", Lower),
    pl("partition.cost_eval_us", "us", Lower),
    pl("model.segment_flops_ns", "ns", Lower),
    pl("audit.deep_ms", "ms", Lower),
    pl("audit.switch_pair_ms", "ms", Lower),
    pl("sim.station_profiles_us", "us", Lower),
    pl("sim.batcher_ns", "ns", Lower),
    pl("sim.ledger_ns", "ns", Lower),
    pl("sim.des_tasks_per_s", "1/s", Higher),
    // core
    pl("core.plan_ms", "ms", Lower),
    pl("core.serve_ready_ms", "ms", Lower),
    // telemetry
    pl("telemetry.record_ns", "ns", Lower),
    pl("telemetry.noop_ns", "ns", Lower),
    // the harness's own quality
    pl("bench.trace_overhead_pct", "%", Lower),
    pl("bench.reconcile_err_pct", "%", Lower),
    pl("bench.sched_lag_p95_ms", "ms", Lower),
    pl("bench.host_ref_ms", "ms", Lower),
    pl("bench.host_drift_pct", "%", Lower),
    pl("bench.round_spread_pct", "%", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;
    use pico_telemetry::json::{parse, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or("")
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Kind::ALL.iter().map(|k| k.name()));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_states_the_same_lists() {
        let doc = manifest();
        let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
        let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ours);

        let e2e = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (theirs, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(theirs, "name"), ours.name);
            assert_eq!(field(theirs, "unit"), ours.unit);
            assert_eq!(field(theirs, "better"), ours.better.word());
            let bound = theirs.get("bound").and_then(Value::as_f64);
            assert_eq!(bound, Some(ours.bound), "{}", ours.name);
        }

        let layers = doc.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (theirs, ours) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(theirs, "name"), ours.name);
            assert_eq!(field(theirs, "unit"), ours.unit);
            assert_eq!(field(theirs, "better"), ours.better.word());
        }

        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert_eq!(seconds, crate::cli::DEFAULT_SECONDS);
    }
}
