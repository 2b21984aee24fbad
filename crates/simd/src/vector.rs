//! A portable 4-lane `f32` vector modeling a NEON quad register.

use std::ops::{Add, AddAssign, Mul, Sub};

/// Four `f32` lanes with elementwise arithmetic — the software model of a
/// NEON `float32x4_t` quad register.
///
/// All operations are plain IEEE-754 single-precision lane ops (no fused
/// multiply-add), so results are bit-identical to scalar code evaluating the
/// same expression tree, on every target. The type is a plain array, not a
/// platform intrinsic: whether release builds use native SIMD registers
/// depends on the code around it. [`F32x4::load`] is the part of the
/// contract that makes that possible — one length check per load, never one
/// per lane.
///
/// # Examples
///
/// ```
/// use wavefuse_simd::F32x4;
///
/// let a = F32x4::new([1.0, 2.0, 3.0, 4.0]);
/// let b = F32x4::splat(10.0);
/// assert_eq!((a * b).horizontal_sum(), 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct F32x4([f32; 4]);

impl F32x4 {
    /// All-zero vector.
    pub const ZERO: F32x4 = F32x4([0.0; 4]);

    /// Creates a vector from four lanes.
    #[inline(always)]
    pub const fn new(lanes: [f32; 4]) -> Self {
        F32x4(lanes)
    }

    /// Broadcasts one value to all four lanes (`vdupq_n_f32`).
    #[inline(always)]
    pub const fn splat(v: f32) -> Self {
        F32x4([v; 4])
    }

    /// Loads four consecutive values from a slice (`vld1q_f32`).
    ///
    /// The slice is cut to its first four elements once and converted to an
    /// array, so the load costs a single length check and LLVM emits one
    /// unaligned vector load (per-element indexing would instead emit a
    /// bounds check and a scalar move per lane).
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < 4`.
    #[inline(always)]
    pub fn load(src: &[f32]) -> Self {
        F32x4(src[..4].try_into().expect("slice of length 4"))
    }

    /// Stores the four lanes to the head of a slice (`vst1q_f32`).
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < 4`.
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..4].copy_from_slice(&self.0);
    }

    /// Lane-wise multiply-accumulate `self + a * b` (`vmlaq_f32`).
    ///
    /// Evaluated as separate multiply then add (no FMA), matching the
    /// Cortex-A9 NEON behavior and the scalar reference.
    #[inline(always)]
    pub fn mul_add(self, a: F32x4, b: F32x4) -> Self {
        self + a * b
    }

    /// Sum of the four lanes (`vpadd` reduction), folded pairwise the way
    /// the paper's manual code reduces its accumulator register.
    ///
    /// The fold order is part of the numerical contract, not an
    /// implementation detail: for lanes `[a, b, c, d]` the result is exactly
    /// `(a + c) + (b + d)` — lane 0 plus lane 2 first, then lane 1 plus
    /// lane 3, then the two partial sums. The kernels' dot products (the
    /// `AutoVecKernel` per-output fold and the lane bodies' per-lane
    /// partial-accumulator fold) use this exact association instead of a
    /// left-to-right sum, which keeps them bit-identical to each other.
    #[inline(always)]
    pub fn horizontal_sum(self) -> f32 {
        let [a, b, c, d] = self.0;
        (a + c) + (b + d)
    }

    /// Borrows the lanes.
    #[inline(always)]
    pub fn lanes(&self) -> &[f32; 4] {
        &self.0
    }
}

impl From<[f32; 4]> for F32x4 {
    fn from(lanes: [f32; 4]) -> Self {
        F32x4(lanes)
    }
}

impl Add for F32x4 {
    type Output = F32x4;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        F32x4([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
            self.0[3] + rhs.0[3],
        ])
    }
}

impl Sub for F32x4 {
    type Output = F32x4;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        F32x4([
            self.0[0] - rhs.0[0],
            self.0[1] - rhs.0[1],
            self.0[2] - rhs.0[2],
            self.0[3] - rhs.0[3],
        ])
    }
}

impl Mul for F32x4 {
    type Output = F32x4;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        F32x4([
            self.0[0] * rhs.0[0],
            self.0[1] * rhs.0[1],
            self.0[2] * rhs.0[2],
            self.0[3] * rhs.0[3],
        ])
    }
}

impl AddAssign for F32x4 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

/// Eight `f32` lanes — a software model of a NEON quad-register *pair*
/// (`float32x4x2_t`), used by the columnar kernels to filter eight adjacent
/// image columns per accumulator.
///
/// Like [`F32x4`], every operation is a plain IEEE-754 single-precision lane
/// op with no fused multiply-add, so each lane's value is bit-identical to a
/// scalar evaluation of the same expression tree. The columnar path relies on
/// this: widening from 4 to 8 lanes changes only how many columns are batched,
/// never any individual column's arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct F32x8([f32; 8]);

impl F32x8 {
    /// All-zero vector.
    pub const ZERO: F32x8 = F32x8([0.0; 8]);

    /// Creates a vector from eight lanes.
    #[inline(always)]
    pub const fn new(lanes: [f32; 8]) -> Self {
        F32x8(lanes)
    }

    /// Broadcasts one value to all eight lanes.
    #[inline(always)]
    pub const fn splat(v: f32) -> Self {
        F32x8([v; 8])
    }

    /// Loads eight consecutive values from a slice, with the same
    /// one-check contract as [`F32x4::load`].
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < 8`.
    #[inline(always)]
    pub fn load(src: &[f32]) -> Self {
        F32x8(src[..8].try_into().expect("slice of length 8"))
    }

    /// Stores the eight lanes to the head of a slice.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < 8`.
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..8].copy_from_slice(&self.0);
    }

    /// Lane-wise multiply-accumulate `self + a * b` (separate multiply then
    /// add, no FMA — see [`F32x4::mul_add`]).
    #[inline(always)]
    pub fn mul_add(self, a: F32x8, b: F32x8) -> Self {
        self + a * b
    }

    /// Borrows the lanes.
    #[inline(always)]
    pub fn lanes(&self) -> &[f32; 8] {
        &self.0
    }

    /// Lane-wise `self >= rhs`, the NEON `vcgeq_f32` analogue. Combined
    /// with [`Mask8::select`] this models the compare/bit-select pair the
    /// choose-style fusion rules vectorize with; each lane's comparison is
    /// exactly the scalar `>=` on the same two values.
    #[inline(always)]
    pub fn ge(self, rhs: F32x8) -> Mask8 {
        let mut out = [false; 8];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            *o = a >= b;
        }
        Mask8(out)
    }
}

/// Lane-wise boolean mask produced by [`F32x8::ge`], the software analogue
/// of a NEON `uint32x4_t` compare result feeding `vbslq_f32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask8([bool; 8]);

impl Mask8 {
    /// Creates a mask from eight lane booleans.
    #[inline(always)]
    pub const fn new(lanes: [bool; 8]) -> Self {
        Mask8(lanes)
    }

    /// Borrows the lanes.
    #[inline(always)]
    pub fn lanes(&self) -> &[bool; 8] {
        &self.0
    }

    /// Lane-wise select: `t` where the mask is set, `f` elsewhere (the NEON
    /// `vbslq_f32` analogue). Copies one source lane's bits verbatim, so
    /// selection is exact — never an arithmetic approximation.
    #[inline(always)]
    pub fn select(self, t: F32x8, f: F32x8) -> F32x8 {
        let mut out = [0.0f32; 8];
        for (i, o) in out.iter_mut().enumerate() {
            *o = if self.0[i] { t.0[i] } else { f.0[i] };
        }
        F32x8(out)
    }
}

impl From<[f32; 8]> for F32x8 {
    fn from(lanes: [f32; 8]) -> Self {
        F32x8(lanes)
    }
}

impl Add for F32x8 {
    type Output = F32x8;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut out = [0.0f32; 8];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            *o = a + b;
        }
        F32x8(out)
    }
}

impl Sub for F32x8 {
    type Output = F32x8;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        let mut out = [0.0f32; 8];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            *o = a - b;
        }
        F32x8(out)
    }
}

impl Mul for F32x8 {
    type Output = F32x8;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let mut out = [0.0f32; 8];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            *o = a * b;
        }
        F32x8(out)
    }
}

impl AddAssign for F32x8 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_ops() {
        let a = F32x4::new([1.0, 2.0, 3.0, 4.0]);
        let b = F32x4::new([0.5, 0.5, 0.5, 0.5]);
        assert_eq!((a + b).lanes(), &[1.5, 2.5, 3.5, 4.5]);
        assert_eq!((a - b).lanes(), &[0.5, 1.5, 2.5, 3.5]);
        assert_eq!((a * b).lanes(), &[0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn splat_and_zero() {
        assert_eq!(F32x4::splat(2.0).lanes(), &[2.0; 4]);
        assert_eq!(F32x4::ZERO.horizontal_sum(), 0.0);
    }

    #[test]
    fn load_store_round_trip() {
        let src = [9.0f32, 8.0, 7.0, 6.0, 5.0];
        let v = F32x4::load(&src[1..]);
        let mut dst = [0.0f32; 4];
        v.store(&mut dst);
        assert_eq!(dst, [8.0, 7.0, 6.0, 5.0]);
    }

    #[test]
    #[should_panic]
    fn short_load_panics() {
        let _ = F32x4::load(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn mul_add_matches_scalar_expression() {
        let acc = F32x4::new([1.0, -1.0, 0.25, 8.0]);
        let a = F32x4::new([3.0, 5.0, 7.0, 11.0]);
        let b = F32x4::splat(0.1);
        let r = acc.mul_add(a, b);
        for i in 0..4 {
            assert_eq!(r.lanes()[i], acc.lanes()[i] + a.lanes()[i] * 0.1);
        }
    }

    #[test]
    fn horizontal_sum_order_is_pairwise() {
        // (a + c) + (b + d): check against that exact association.
        let v = F32x4::new([1e8, 1.0, -1e8, 1.0]);
        assert_eq!(v.horizontal_sum(), (1e8 + -1e8) + (1.0 + 1.0));
    }

    #[test]
    fn wide_elementwise_ops() {
        let a = F32x8::new([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F32x8::splat(0.5);
        assert_eq!((a + b).lanes()[7], 8.5);
        assert_eq!((a - b).lanes()[0], 0.5);
        assert_eq!((a * b).lanes()[3], 2.0);
        assert_eq!(F32x8::ZERO.lanes(), &[0.0; 8]);
    }

    #[test]
    fn wide_load_store_round_trip() {
        let src: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let v = F32x8::load(&src[1..]);
        let mut dst = [0.0f32; 8];
        v.store(&mut dst);
        assert_eq!(dst, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    #[should_panic]
    fn wide_short_load_panics() {
        let _ = F32x8::load(&[1.0; 7]);
    }

    #[test]
    fn wide_mul_add_matches_lane_arithmetic() {
        let acc = F32x8::splat(1.0);
        let a = F32x8::new([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F32x8::splat(0.25);
        let r = acc.mul_add(a, b);
        for i in 0..8 {
            assert_eq!(r.lanes()[i], 1.0 + a.lanes()[i] * 0.25);
        }
    }

    #[test]
    fn ge_select_is_lane_exact() {
        let a = F32x8::new([1.0, 2.0, 2.0, -1.0, 0.0, -0.0, f32::MIN, 5.0]);
        let b = F32x8::new([2.0, 2.0, 1.0, -2.0, -0.0, 0.0, f32::MAX, 5.0]);
        let m = a.ge(b);
        assert_eq!(
            m.lanes(),
            &[false, true, true, true, true, true, false, true]
        );
        let s = m.select(a, b);
        for i in 0..8 {
            let want = if a.lanes()[i] >= b.lanes()[i] {
                a.lanes()[i]
            } else {
                b.lanes()[i]
            };
            assert_eq!(s.lanes()[i].to_bits(), want.to_bits(), "lane {i}");
        }
    }
}
