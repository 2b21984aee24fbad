//! The "NEON engine": 4-lane SIMD filter kernels.
//!
//! The paper vectorizes the forward and inverse DT-CWT for the ARM
//! Cortex-A9's NEON unit — 128-bit quad registers holding four `f32` lanes,
//! driven both by manual intrinsics (`float32x4_t`, Fig. 3) and by compiler
//! auto-vectorization (`-mfpu=neon -ftree-vectorize`). This crate reproduces
//! both flavors on a portable 4-lane vector type:
//!
//! * [`F32x4`] — the quad-register model. Elementwise ops over a `[f32; 4]`
//!   newtype with identical semantics everywhere (no FMA contraction). It is
//!   a plain array, not a platform intrinsic, so native SIMD is up to the
//!   compiler; the load contract is what lets it happen: `load` checks the
//!   slice length once and converts a whole sub-slice, which compiles to one
//!   unaligned vector load rather than a bounds check and scalar move per
//!   lane. [`F32x8`] (a quad-register pair) follows the same contract.
//! * [`SimdKernel`] — the *manual* vectorization: reversed, lane-padded taps
//!   as in the paper's Fig. 3 intrinsics listing, with adjacent outputs in
//!   the vector lanes. Rows and columns run on one set of lane bodies (see
//!   [`kernel`]).
//! * [`AutoVecKernel`] — the *auto* vectorization: plain indexed loops, one
//!   dot product per output, shaped so the compiler can vectorize them
//!   (fixed trip counts, no aliasing), mirroring the paper's `__restrict` +
//!   masked-length C code.
//!
//! Both kernels implement [`wavefuse_dtcwt::FilterKernel`] and are verified
//! close to the scalar reference in the tests, and bit-identical to each
//! other: every output folds its four per-lane partial sums as
//! `(p0 + p2) + (p1 + p3)`. Both also override the trait's *column passes*
//! with a transpose-free columnar path ([`F32x8`] / [`F32x4`] lanes each
//! owning one image column) that is bit-identical to the transpose-staged
//! fallback.
//!
//! # Examples
//!
//! ```
//! use wavefuse_dtcwt::{Dtcwt, Image};
//! use wavefuse_simd::SimdKernel;
//!
//! let img = Image::from_fn(40, 40, |x, y| (x * y % 17) as f32);
//! let t = Dtcwt::new(2)?;
//! let pyr = t.forward_with(&mut SimdKernel::new(), &img)?;
//! let back = t.inverse_with(&mut SimdKernel::new(), &pyr)?;
//! assert!(back.max_abs_diff(&img) < 1e-3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuse;
pub mod kernel;
pub mod vector;

pub use fuse::fuse_strip_simd;
pub use kernel::{AutoVecKernel, SimdKernel};
pub use vector::{F32x4, F32x8, Mask8};

/// Number of `f32` lanes in the modeled NEON quad register.
///
/// This stays 4 (the Cortex-A9 quad register) even though the columnar
/// column passes additionally batch two quad registers per iteration via
/// [`F32x8`] — cost-model calibration is keyed to the 4-lane row primitive.
pub const LANES: usize = 4;
