//! A minimal CHW `f32` inference engine for PICO.
//!
//! The paper executes CNNs with LibTorch + NNPACK; this crate is the
//! from-scratch substitute: direct convolution, pooling, and
//! fully-connected kernels, plus the **halo-aware region execution**
//! that cooperative inference needs — a device can compute any row range
//! of a segment's output from the matching input tile, and stitching the
//! per-device outputs back together reproduces the monolithic result
//! *bit-exactly* (element loops run in the same order either way).
//!
//! Weights are synthetic (seeded random): partitioning never touches
//! accuracy, so only layer shapes matter for the reproduction, but real
//! numerics let the test suite prove the split/stitch machinery correct.
//!
//! Four compute backends share the engine ([`EngineBackend`]): the
//! naive direct loops (`Reference`, the bit-exactness oracle); an
//! im2col + cache-blocked-GEMM path that reuses [`Scratch`] buffers for
//! allocation-free steady-state serving, on the host-probed vectorized
//! micro-kernel (`Simd`, the default) or forced onto the scalar one
//! (`Im2colGemm`), all three bit-exactly identical; and a per-channel
//! symmetric int8 mode (`Int8`) that is deterministic and
//! self-consistent under region splits but only tolerance-close to the
//! f32 oracle. An engine runs on
//! the calling thread: one engine is one device, and a host's extra
//! cores are more devices for the planner, not threads inside a kernel.
//!
//! # Example
//!
//! ```
//! use pico_model::{zoo, Rows};
//! use pico_tensor::{Engine, Tensor};
//!
//! let model = zoo::mnist_toy();
//! let engine = Engine::with_seed(&model, 7);
//! let input = Tensor::random(model.input_shape(), 42);
//!
//! // Whole-model inference...
//! let full = engine.infer(&input)?;
//!
//! // ...equals stitched region-wise inference.
//! let seg = model.full_segment();
//! let h = model.output_shape().height;
//! let top = engine.infer_region(seg, Rows::new(0, h / 2), &input)?;
//! let bottom = engine.infer_region(seg, Rows::new(h / 2, h), &input)?;
//! assert_eq!(Tensor::stitch_rows(&[top, bottom])?, full);
//! # Ok::<(), pico_tensor::TensorError>(())
//! ```

// `deny` instead of `forbid`: the one module that needs `std::arch`
// intrinsics (`simd.rs`) opts back in with a file-level `allow`, and
// xtask lint rule 10 confines unsafe to exactly that file (with
// mandatory SAFETY comments).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod gemm;
mod ops;
mod quant;
mod scratch;
mod simd;
mod tensor;
mod weights;

pub use engine::{Engine, EngineBackend};
pub use error::TensorError;
pub use scratch::Scratch;
pub use tensor::Tensor;
pub use weights::{
    LayerWeights, NetworkWeights, QuantizedLayer, QuantizedNetwork, QuantizedUnit, UnitWeights,
};
