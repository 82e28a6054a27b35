//! # s2m3-tensor
//!
//! Minimal, dependency-light, fully deterministic `f32` tensor kernels.
//!
//! This crate is the computational substrate for the synthetic functional
//! modules in `s2m3-models`. The S2M3 paper never modifies model weights —
//! its contribution is *where* modules run, not *what* they compute — so the
//! reproduction only needs module computation that is:
//!
//! 1. **Deterministic**: the same module must produce bit-identical outputs
//!    regardless of which device or deployment executes it. This is the
//!    property behind Table VIII ("no accuracy loss from splitting").
//! 2. **Seedable**: module weights are derived from a stable label
//!    (e.g. `"vision/ViT-B-16"`) so every process reconstructs the same
//!    weights without shipping checkpoint files.
//! 3. **Cheap but real**: encoders genuinely compute (projections, layer
//!    norms, attention-shaped mixing), so the runtime's parallel routing is
//!    exercised by real work rather than sleeps.
//!
//! The crate deliberately implements only what the zoo needs: a dense
//! row-major [`Matrix`], the handful of kernels in [`ops`], and stable
//! seeding utilities in [`seed`].
//!
//! ## Example
//!
//! ```
//! use s2m3_tensor::{Matrix, ops};
//!
//! let w = Matrix::seeded_gaussian("demo/weight", 4, 3, 0.5);
//! let x = Matrix::seeded_gaussian("demo/input", 2, 4, 1.0);
//! let y = ops::matmul(&x, &w).unwrap();
//! assert_eq!(y.shape(), (2, 3));
//! // Determinism: rebuilding from the same labels yields identical bits.
//! let y2 = ops::matmul(
//!     &Matrix::seeded_gaussian("demo/input", 2, 4, 1.0),
//!     &Matrix::seeded_gaussian("demo/weight", 4, 3, 0.5),
//! ).unwrap();
//! assert_eq!(y, y2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod matrix;
pub mod ops;
pub mod seed;

pub use matrix::{Matrix, TensorError};

/// Convenience result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod proptests;
