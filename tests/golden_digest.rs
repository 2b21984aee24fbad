//! Golden digests of the NEON-model transform and of the capture path.
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
//! The capture digests pin both camera models the same way: six
//! consecutive `capture_into` frames per camera at four output sizes, plus
//! the thermal BT.656 wire bytes. Those constants were recorded before the
//! capture loops were rewritten for vector code. The scene render calls
//! libm (`sin`, `cos`, `exp`), so the camera digests assume this platform's
//! libm; the libm-free stages (the bilinear scaler and the YUV pack →
//! BT.656 → luma round trip) are pinned separately on integer-generated
//! inputs.
//!
//! The transform inputs are pure integer arithmetic (no transcendental
//! functions), so those digests do not depend on the platform's libm.

use wavefuse_dtcwt::{CwtPyramid, Dtcwt, Image};
use wavefuse_simd::SimdKernel;
use wavefuse_video::bt656;
use wavefuse_video::camera::{ThermalCamera, WebCamera, THERMAL_FIELD_DIMS, THERMAL_SENSOR_DIMS};
use wavefuse_video::scaler::BilinearPlan;
use wavefuse_video::scene::ScenePair;
use wavefuse_video::Frame;

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds every pixel's bit pattern (little-endian bytes) into `hash`.
fn fnv1a(mut hash: u64, img: &Image) -> u64 {
    for &px in img.as_slice() {
        hash = fnv1a_bytes(hash, &px.to_bits().to_le_bytes());
    }
    hash
}

/// Folds raw bytes into `hash`.
fn fnv1a_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
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

/// Scene seed and frame count of the capture digests.
const CAPTURE_SEED: u64 = 42;
const CAPTURE_FRAMES: usize = 6;

/// Digests of [`CAPTURE_FRAMES`] consecutive `capture_into` frames of the
/// thermal and web cameras at `w`x`h`, each folded over every frame.
fn capture_digests(w: usize, h: usize) -> (u64, u64) {
    let scene = ScenePair::new(CAPTURE_SEED);
    let mut thermal = ThermalCamera::new(scene.clone(), w, h);
    let mut web = WebCamera::new(scene, w, h);
    let mut frame = Frame::new(Image::zeros(0, 0), 0);
    let (mut th, mut vis) = (FNV_OFFSET, FNV_OFFSET);
    for seq in 0..CAPTURE_FRAMES as u64 {
        thermal.capture_into(&mut frame).expect("thermal capture");
        assert_eq!((frame.seq(), frame.image().dims()), (seq, (w, h)));
        th = fnv1a(th, frame.image());
        web.capture_into(&mut frame);
        assert_eq!((frame.seq(), frame.image().dims()), (seq, (w, h)));
        vis = fnv1a(vis, frame.image());
    }
    (th, vis)
}

/// Asserts a digest, printing both values in hex on mismatch.
fn check(what: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{what}: got {got:#018x}, want {want:#018x}");
}

#[test]
fn capture_digests_at_32x24() {
    let (th, vis) = capture_digests(32, 24);
    check("32x24 thermal captures", th, 0x917e_4988_526e_50fb);
    check("32x24 webcam captures", vis, 0xe273_c295_ee10_dca1);
}

#[test]
fn capture_digests_at_35x35() {
    let (th, vis) = capture_digests(35, 35);
    check("35x35 thermal captures", th, 0x1d1c_a8d5_cc5b_22db);
    check("35x35 webcam captures", vis, 0x01b2_ea8c_bb27_971b);
}

#[test]
fn capture_digests_at_88x72() {
    let (th, vis) = capture_digests(88, 72);
    check("88x72 thermal captures", th, 0x6cfb_8157_3ab4_d50a);
    check("88x72 webcam captures", vis, 0x0324_f33d_7290_6ee4);
}

#[test]
fn capture_digests_at_640x480() {
    let (th, vis) = capture_digests(640, 480);
    check("640x480 thermal captures", th, 0xaf58_13f6_d033_e659);
    check("640x480 webcam captures", vis, 0x608c_8489_1f18_e116);
}

#[test]
fn thermal_field_stream_digest() {
    // The BT.656 wire bytes of two consecutive fields; the output size
    // does not enter the stream.
    let mut cam = ThermalCamera::new(ScenePair::new(CAPTURE_SEED), 88, 72);
    let mut hash = FNV_OFFSET;
    for _ in 0..2 {
        hash = fnv1a_bytes(hash, &cam.next_field_stream());
    }
    check("thermal field stream", hash, 0x9f5b_078d_61a2_7104);
}

/// An integer-generated gray ramp with texture, spanning `[-0.25, 1.25]`
/// so the luma clamp engages at both ends, and hitting exact quantizer
/// half-steps. Division by a power of two keeps every value exact.
fn gray_pattern(w: usize, h: usize) -> Image {
    Image::from_fn(w, h, |x, y| {
        ((x * 7919 + y * 104_729) % 1537) as f32 / 1024.0 - 0.25
    })
}

#[test]
fn bilinear_plan_digests() {
    // The sensor-to-field upscale of the thermal path and two downscales,
    // on libm-free inputs.
    let (sw, sh) = THERMAL_SENSOR_DIMS;
    let (fw, fh) = THERMAL_FIELD_DIMS;
    let mut out = Image::zeros(0, 0);
    let mut digest = |src: &Image, dw: usize, dh: usize| {
        let (w, h) = src.dims();
        let mut plan = BilinearPlan::new(w, h, dw, dh).expect("plan");
        plan.apply(src, &mut out).expect("apply");
        fnv1a(FNV_OFFSET, &out)
    };
    let sensor = gray_pattern(sw, sh);
    let field = gray_pattern(fw, fh);
    check(
        "sensor to field",
        digest(&sensor, fw, fh),
        0x5aad_3d8f_209f_33d4,
    );
    check(
        "field to 88x72",
        digest(&field, 88, 72),
        0xd7f9_7d54_6976_56b7,
    );
    check(
        "field to 640x480",
        digest(&field, 640, 480),
        0x50cb_71b2_bcb0_6a5b,
    );
    check(
        "field to 35x35",
        digest(&field, 35, 35),
        0xcf07_01b2_0a53_0b8a,
    );
}

#[test]
fn yuv_bt656_luma_round_trip_digests() {
    let (fw, fh) = THERMAL_FIELD_DIMS;
    let field = gray_pattern(fw, fh);
    let mut stream = Vec::new();
    bt656::encode_gray_into(&field, &mut stream);
    check(
        "packed stream",
        fnv1a_bytes(FNV_OFFSET, &stream),
        0xa340_bd8d_c6cb_65cf,
    );
    let raw = bt656::decode(&stream, fw, fh).expect("decode");
    check(
        "decoded luma",
        fnv1a(FNV_OFFSET, raw.to_gray(0).image()),
        0xde28_b4bd_1729_28e3,
    );
}
