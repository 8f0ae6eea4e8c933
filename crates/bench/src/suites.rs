//! The two offline micro-benchmark suites behind `pico bench`: compute
//! kernels and planners. End-to-end serving and pipeline numbers come
//! from the repo benchmark in `benchmark/`, which drives the real path.
//!
//! Every suite is deterministic in *structure* — same case names, same
//! order, same protocol fields on every rerun — so reports can be
//! diffed and gated on ratios between records. The kernel suite runs
//! each case under **every** [`EngineBackend`]; the
//! `conv3x3_c64/reference` vs `conv3x3_c64/simd` pair is the CI speedup
//! gate.

use pico_fleet::{FleetConfig, FleetFrontier};
use pico_model::{zoo, ConvSpec, Layer, Model, PoolSpec, Region2, Shape};
use pico_partition::{Cluster, CostParams, PlanRequest};
use pico_tensor::{Engine, EngineBackend, Scratch, Tensor};

use crate::harness::{bench, BenchConfig, BenchRecord};
use crate::report::BenchReport;

/// The kernel case the CI speedup gate compares across backends.
pub const GATE_CASE: &str = "conv3x3_c64";

/// The nominal device capacity (cycles/s) calibration fits against — a
/// 1 GHz core, the middle of the paper's Pi frequency range.
pub const CALIBRATION_CAPACITY: f64 = 1e9;

/// One single-layer model per kernel shape the reproduction leans on.
///
/// Input maps are 16×16 — big enough that the GEMM's register tiling
/// engages (n = 256 pixels), small enough that `--iters 3` smoke runs
/// stay fast. Two cases are sized after AlexNet's stage-1 layers
/// instead: a 13×13 conv whose K = 576 spans several K blocks and whose
/// N = 169 is not a multiple of 16, and a 4096×4096 FC whose 64 MiB of
/// weights stream from memory rather than sitting in cache. One is the
/// serving workloads' layer: toy(1)'s 3→16 conv on its 64×64 map.
fn kernel_cases() -> Vec<(&'static str, Model)> {
    let conv = |name, spec: ConvSpec, side| {
        let m = Model::new(
            name,
            Shape::new(spec.in_channels, side, side),
            vec![Layer::conv(name, spec).into()],
        )
        .expect("static bench case is well-formed");
        (name, m)
    };
    let fc = |name, in_features, out_features| {
        let m = Model::new(
            name,
            Shape::new(in_features, 1, 1),
            vec![Layer::fc(name, in_features, out_features).into()],
        )
        .expect("static bench case is well-formed");
        (name, m)
    };
    vec![
        // The gate case: a dense 3×3 convolution at 64 channels, the
        // bread-and-butter layer of VGG-class models.
        conv(GATE_CASE, ConvSpec::square(64, 64, 3, 1, 1), 16),
        conv("conv3x3_c16", ConvSpec::square(16, 16, 3, 1, 1), 16),
        conv("conv1x1_c64", ConvSpec::pointwise(64, 64), 16),
        conv("conv3x3_s2_c32", ConvSpec::square(32, 32, 3, 2, 1), 16),
        conv("dw3x3_c32", ConvSpec::depthwise(32, 3, 1, 1), 16),
        conv("conv3x3_c64_96_13px", ConvSpec::square(64, 96, 3, 1, 1), 13),
        // What the serving workloads run: toy(1)'s conv, 3→16 on 64×64.
        // With K = 27 the im2col fill is a large share of the layer.
        conv("conv3x3_c3_16_64px", ConvSpec::square(3, 16, 3, 1, 1), 64),
        (
            "pool2x2_c32",
            Model::new(
                "pool2x2_c32",
                Shape::new(32, 16, 16),
                vec![Layer::pool("pool2x2_c32", PoolSpec::max(2, 2)).into()],
            )
            .expect("static bench case is well-formed"),
        ),
        fc("fc_2048x256", 32 * 8 * 8, 256),
        fc("fc_4096x4096", 4096, 4096),
    ]
}

/// Measures one engine's full-map inference of `model` under `cfg`,
/// recycling the output buffer so the fast backend is timed at its
/// zero-allocation steady state.
fn bench_model(
    suite: &str,
    name: &str,
    cfg: BenchConfig,
    model: &Model,
    backend: EngineBackend,
) -> BenchRecord {
    let engine = Engine::with_seed(model, 11).with_backend(backend);
    let input = Tensor::random(model.input_shape(), 17);
    let seg = model.full_segment();
    let out = model.output_shape();
    let region = Region2::full(out.height, out.width);
    let mut scratch = Scratch::new();
    bench(suite, name, cfg, model.total_flops(), || {
        let t = engine
            .infer_region2_with(&mut scratch, seg, region, &input)
            .expect("bench case infers");
        scratch.give(t.into_vec());
    })
}

/// The kernel suite: every case in `kernel_cases` under every backend,
/// named `<case>/<backend>`.
pub fn kernels(cfg: BenchConfig) -> BenchReport {
    let mut report = BenchReport::new("kernels");
    for (case, model) in kernel_cases() {
        for backend in EngineBackend::ALL {
            let name = format!("{case}/{backend}");
            report
                .records
                .push(bench_model("kernels", &name, cfg, &model, backend));
        }
    }
    report
}

/// Reference-over-fast median ratio for `case` (how many times faster
/// the scalar `Im2colGemm` backend ran it).
pub fn backend_speedup(report: &BenchReport, case: &str) -> Option<f64> {
    report.ratio(
        &format!("{case}/{}", EngineBackend::Reference),
        &format!("{case}/{}", EngineBackend::Im2colGemm),
    )
}

/// Reference-over-SIMD median ratio for `case` — the CI `--gate-ratio`
/// metric (how many times faster the vectorized backend ran it).
pub fn simd_speedup(report: &BenchReport, case: &str) -> Option<f64> {
    report.ratio(
        &format!("{case}/{}", EngineBackend::Reference),
        &format!("{case}/{}", EngineBackend::Simd),
    )
}

/// Measured `backend_alpha` for `backend` on `case`: its median runtime
/// over the median of the engine's default backend, which `alpha_scale`
/// calibration fits against. Feed the result to
/// [`CostParams::with_backend_speedup`] inverted, or set
/// `params.backend_alpha` directly.
pub fn measured_backend_alpha(
    report: &BenchReport,
    case: &str,
    backend: EngineBackend,
) -> Option<f64> {
    report.ratio(
        &format!("{case}/{backend}"),
        &format!("{case}/{}", EngineBackend::default()),
    )
}

/// The models the planner suite plans, by row label: the toy chain and
/// the feature extractors of one chain and two graph CNNs.
fn planner_models() -> Vec<(&'static str, Model)> {
    vec![
        ("toy8", zoo::toy(8)),
        ("vgg16", zoo::vgg16().features()),
        ("resnet34", zoo::resnet34().features()),
        ("inception_v3", zoo::inception_v3().features()),
    ]
}

/// The deployments whose whole fleet frontier the planner suite builds:
/// the models of the committed golden frontiers on the paper's
/// heterogeneous mix and on a small and a large homogeneous cluster.
fn frontier_cases() -> Vec<(String, Model, Cluster)> {
    let models = [
        ("resnet34", zoo::resnet34()),
        ("vgg16", zoo::vgg16().features()),
        ("inception_v3", zoo::inception_v3().features()),
    ];
    let clusters = [
        ("paper8", Cluster::paper_heterogeneous()),
        ("pi4", Cluster::pi_cluster(4, 1.0)),
        ("pi16", Cluster::pi_cluster(16, 1.0)),
    ];
    let mut cases = Vec::new();
    for (model_name, model) in &models {
        for (cluster_name, cluster) in &clusters {
            cases.push((
                format!("frontier_build/{model_name}/{cluster_name}"),
                model.clone(),
                cluster.clone(),
            ));
        }
    }
    cases
}

/// The planner suite (`flops` 0 — planning does no tensor arithmetic):
/// each paper planner planning every `planner_models` entry on an
/// 8-device Pi cluster (`plan_<model>/<planner>`), then a full
/// [`FleetFrontier::build`] — every planner, the `T_lim` sweep, the deep
/// audits and the switch matrix, i.e. what a plan-cache miss costs —
/// per `frontier_cases` deployment (`frontier_build/<model>/<cluster>`).
pub fn planner(cfg: BenchConfig) -> BenchReport {
    let mut report = BenchReport::new("planner");
    let cluster = Cluster::pi_cluster(8, 1.0);
    let params = CostParams::wifi_50mbps();
    for (model_name, model) in planner_models() {
        for (scheme, planner) in crate::paper_planners() {
            let name = format!("plan_{model_name}/{scheme:?}");
            report.records.push(bench("planner", &name, cfg, 0.0, || {
                planner
                    .plan(&PlanRequest::new(&model, &cluster, &params))
                    .expect("paper planner plans its own benchmark");
            }));
        }
    }
    for (name, model, cluster) in frontier_cases() {
        report.records.push(bench("planner", &name, cfg, 0.0, || {
            FleetFrontier::build(&model, &cluster, &params, FleetConfig::default())
                .expect("benchmark deployment has a viable plan");
        }));
    }
    report
}

/// Fits [`CostParams::calibrated`] from a kernel report's convolution
/// records under the engine's default backend (so `backend_alpha = 1`
/// prices that backend), returning the fitted parameters alongside the
/// `(flops, seconds)` samples used.
///
/// This is how `alpha_scale` values quoted in `EXPERIMENTS.md` are
/// produced: measure, fit, plan with the result.
pub fn calibration(report: &BenchReport) -> (CostParams, Vec<(f64, f64)>) {
    let suffix = format!("/{}", EngineBackend::default());
    let samples: Vec<(f64, f64)> = report
        .records
        .iter()
        .filter(|r| r.flops > 0.0 && r.name.ends_with(&suffix) && r.name.starts_with("conv"))
        .map(|r| (r.flops, r.median_ns as f64 * 1e-9))
        .collect();
    (
        CostParams::wifi_50mbps().calibrated(CALIBRATION_CAPACITY, &samples),
        samples,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_suite_covers_every_case_under_every_backend() {
        let report = kernels(BenchConfig::new(0, 1, 1));
        assert_eq!(report.suite, "kernels");
        // One row per (case, backend) pair.
        assert_eq!(
            report.records.len(),
            kernel_cases().len() * EngineBackend::ALL.len()
        );
        for (case, _) in kernel_cases() {
            for b in EngineBackend::ALL {
                assert!(
                    report.record(&format!("{case}/{b}")).is_some(),
                    "missing {case}/{b}"
                );
            }
        }
        assert!(backend_speedup(&report, GATE_CASE).is_some());
        assert!(simd_speedup(&report, GATE_CASE).is_some());
        let alpha = measured_backend_alpha(&report, GATE_CASE, EngineBackend::Simd);
        assert!(alpha.is_some_and(|a| a > 0.0 && a.is_finite()));
    }

    #[test]
    fn suite_structure_is_deterministic_across_reruns() {
        let cfg = BenchConfig::new(0, 1, 1);
        assert_eq!(kernels(cfg).shape(), kernels(cfg).shape());
    }

    #[test]
    fn planner_suite_times_all_paper_planners_and_frontier_builds() {
        let report = planner(BenchConfig::new(0, 1, 1));
        assert_eq!(
            report.records.len(),
            planner_models().len() * crate::paper_planners().len() + frontier_cases().len()
        );
        assert!(report.records.iter().all(|r| r.flops == 0.0));
        for name in [
            "plan_resnet34/Pico",
            "plan_inception_v3/OptimalFused",
            "frontier_build/resnet34/paper8",
            "frontier_build/vgg16/pi16",
        ] {
            assert!(report.record(name).is_some(), "missing row {name}");
        }
    }

    #[test]
    fn calibration_fits_positive_coefficient_from_conv_records() {
        let report = kernels(BenchConfig::new(1, 2, 3));
        let (params, samples) = calibration(&report);
        assert!(!samples.is_empty());
        assert!(params.alpha_scale > 0.0 && params.alpha_scale.is_finite());
    }
}
