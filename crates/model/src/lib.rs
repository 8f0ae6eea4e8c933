//! CNN model representation for PICO cooperative inference.
//!
//! This crate provides the *shape-level* description of convolutional
//! neural networks that the PICO planner, simulator, and runtime operate
//! on: layers (convolution, pooling, fully-connected), graph-structured
//! blocks (residual / inception, treated as "special layers" per
//! Sec. IV-B of the paper), whole models, and the analyses the paper's
//! cost model is built on:
//!
//! * forward **shape inference** ([`Model::unit_output_shape`]),
//! * backward **receptive-field propagation** of row ranges (Eq. 3,
//!   [`Model::segment_input_rows`]),
//! * **FLOPs accounting** (Eq. 2 / Eq. 4, [`Model::segment_flops`]),
//! * per-layer communication/computation **profiles** (Fig. 2,
//!   [`profile::layer_profile`]).
//!
//! It also owns the workspace's one seeded generator ([`rng::SplitMix64`]):
//! every crate that draws weights, inputs or arrivals depends on this one.
//!
//! A [`zoo`] module reproduces the architectures evaluated in the paper:
//! VGG16, YOLOv2, ResNet34, InceptionV3, and the toy models used for the
//! optimal-search comparison (Table II, Fig. 13).
//!
//! # Example
//!
//! ```
//! use pico_model::{zoo, Rows};
//!
//! let vgg = zoo::vgg16();
//! // VGG16: 13 conv + 5 pool + 3 fc = 21 units.
//! assert_eq!(vgg.len(), 21);
//!
//! // Rows 0..8 of the first pooling layer's output require rows 0..18
//! // of the original 224x224 input (receptive-field back-propagation
//! // through two 3x3 convolutions and one 2x2 pool).
//! let seg = pico_model::Segment::new(0, 3); // conv1_1, conv1_2, pool1
//! let input = vgg.segment_input_rows(seg, Rows::new(0, 8));
//! assert_eq!(input, Rows::new(0, 18));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod error;
mod layer;
mod model;
pub mod profile;
mod region;
pub mod rng;
mod rows;
mod shape;
pub mod summary;
pub mod zoo;

pub use block::{Block, Merge, Path};
pub use error::ModelError;
pub use layer::{ConvSpec, FcSpec, Layer, LayerKind, PoolKind, PoolSpec};
pub use model::{Model, Segment, Unit};
pub use region::{grid_split_even, Region2};
pub use rows::{rows_split_even, rows_split_weighted, Rows};
pub use shape::Shape;

/// Bytes used by one feature-map scalar (single-precision float).
pub const BYTES_PER_ELEMENT: usize = 4;
