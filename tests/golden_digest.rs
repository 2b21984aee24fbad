//! Golden digests of the NEON-model transform.
//!
//! The identity suites compare paths against each other within one build,
//! so a change that shifts every path together (a different fold order in
//! the shared lane body, a slipped extension margin) would pass them. This
//! suite pins absolute output: an FNV-1a 64 digest over the `f32` bit
//! patterns of the `SimdKernel` forward pyramid and of its inverse, at two
//! frame sizes and 3 levels. The constants were recorded before the row
//! passes moved onto the lane-parallel bodies, so any result bit that moves
//! fails here.
//!
//! The input is pure integer arithmetic (no transcendental functions), so
//! the digests do not depend on the platform's libm.

use wavefuse_dtcwt::{CwtPyramid, Dtcwt, Image};
use wavefuse_simd::SimdKernel;

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds every pixel's bit pattern (little-endian bytes) into `hash`.
fn fnv1a(mut hash: u64, img: &Image) -> u64 {
    for &px in img.as_slice() {
        for byte in px.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Digest of a whole pyramid: every level's six subbands (real then
/// imaginary part) from the finest level down, then the four lowpass images.
fn pyramid_digest(pyr: &CwtPyramid) -> u64 {
    let mut hash = FNV_OFFSET;
    for level in 0..pyr.levels() {
        for band in pyr.subbands(level) {
            hash = fnv1a(hash, &band.re);
            hash = fnv1a(hash, &band.im);
        }
    }
    for ll in pyr.lowpass() {
        hash = fnv1a(hash, ll);
    }
    hash
}

/// A textured test frame with edges in every orientation.
fn frame(w: usize, h: usize) -> Image {
    Image::from_fn(w, h, |x, y| {
        let texture = ((x * 7919 + y * 104_729) % 251) as f32 * 0.37;
        let ramp = (x + 2 * y) as f32 * 0.125;
        let block = if (x / 9 + y / 7) % 2 == 0 {
            40.0
        } else {
            -25.0
        };
        texture + ramp + block
    })
}

/// Forward and inverse digests of the NEON-model transform at `w`x`h`.
fn digests(w: usize, h: usize) -> (u64, u64) {
    let t = Dtcwt::new(3).expect("3-level transform");
    let mut k = SimdKernel::new();
    let img = frame(w, h);
    let pyr = t.forward_with(&mut k, &img).expect("forward");
    let back = t.inverse_with(&mut k, &pyr).expect("inverse");
    (pyramid_digest(&pyr), fnv1a(FNV_OFFSET, &back))
}

#[test]
fn neon_transform_digests_at_88x72() {
    let (fwd, inv) = digests(88, 72);
    assert_eq!(fwd, 0x8bd0_9666_6816_45d7, "88x72 forward pyramid digest");
    assert_eq!(inv, 0xde06_db58_2989_e970, "88x72 inverse digest");
}

#[test]
fn neon_transform_digests_at_640x480() {
    let (fwd, inv) = digests(640, 480);
    assert_eq!(fwd, 0x3bb1_a2e6_17e8_c8b1, "640x480 forward pyramid digest");
    assert_eq!(inv, 0xea53_4d7c_6c83_49a5, "640x480 inverse digest");
}
