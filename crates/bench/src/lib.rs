//! Benchmark harness regenerating every table and figure of the PICO
//! paper's evaluation (Sec. V).
//!
//! Each experiment lives in its own module with a `run()` returning
//! structured rows and a `print()` writing the same series the paper
//! plots; the `src/bin/` binaries are thin wrappers. Absolute numbers
//! come from the simulated cluster, so they differ from the Raspberry Pi
//! testbed — the *shapes* (who wins, by what factor, where crossovers
//! fall) are the reproduction targets, asserted in this crate's tests
//! and recorded in `EXPERIMENTS.md`.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig02`] | per-layer comm/comp shares (VGG16, YOLOv2) |
//! | [`fig04`] | fused-layer FLOPs vs devices / fused layers |
//! | [`fig08`] | cluster capacity, VGG16 |
//! | [`fig09`] | cluster capacity, YOLOv2 |
//! | [`fig10`] | avg latency vs workload, VGG16 |
//! | [`fig11`] | avg latency vs workload, YOLOv2 |
//! | [`fig12`] | graph-CNN speedups (ResNet34, InceptionV3) |
//! | [`table1`] | per-device utilization/redundancy, heterogeneous mix |
//! | [`table2`] | planner optimization cost, PICO vs BFS |
//! | [`fig13`] | PICO-vs-BFS utilization/redundancy on the toy model |
//!
//! [`ablation`] adds studies beyond the paper: share balancing vs even
//! splits, bandwidth sweeps, the `T_lim` trade-off, strip-vs-grid
//! partitioning, and per-scheme memory footprints.
//!
//! Micro-benchmarks live in [`harness`] (the dependency-free
//! measurement protocol), [`suites`] (the `kernels` / `planner` suites
//! behind `pico bench`), and [`report`] (machine-readable JSON with a
//! strict reader). See `DESIGN.md` §13 for why gates compare ratios,
//! never wall-clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig02;
pub mod fig04;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod harness;
pub mod report;
pub mod suites;
pub mod table1;
pub mod table2;

use pico_partition::{Cluster, EarlyFused, LayerWise, OptimalFused, PicoPlanner, Planner, Scheme};

/// The CPU frequency levels (GHz) the capacity/speedup sweeps use — the
/// paper caps its Pi 4B cores at several frequencies between 600 MHz
/// and 1.5 GHz.
pub const FREQS_GHZ: [f64; 3] = [0.6, 1.0, 1.5];

/// Device counts swept in the capacity experiments (Figs. 8/9).
pub const DEVICE_COUNTS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// The four schemes the paper compares, with planners.
pub fn paper_planners() -> Vec<(Scheme, Box<dyn Planner>)> {
    vec![
        (Scheme::LayerWise, Box::new(LayerWise::new())),
        (Scheme::EarlyFused, Box::new(EarlyFused::new())),
        (Scheme::OptimalFused, Box::new(OptimalFused::new())),
        (Scheme::Pico, Box::new(PicoPlanner::new())),
    ]
}

/// A homogeneous Pi cluster at the given size and frequency.
pub fn cluster(n: usize, ghz: f64) -> Cluster {
    Cluster::pi_cluster(n, ghz)
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}
