//! Marker-trait stand-in for `serde`.
//!
//! Nothing in the PICO workspace serializes through serde, so the
//! traits carry no methods and the derives (feature `derive`) emit no
//! impls.

/// Marker for `use serde::Serialize`.
pub trait Serialize {}

/// Marker for `use serde::Deserialize`.
pub trait Deserialize<'de> {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
