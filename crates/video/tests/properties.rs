//! Seeded property tests for the capture substrate: the BT.656 codec and
//! its behaviour on corrupted streams, the bilinear scaler, and FIFO/gate
//! ordering.
//!
//! Each property runs a fixed number of cases drawn from a small xorshift
//! generator, so every run checks the same inputs and needs no external
//! crate. Case sizes ramp from tiny to the stated maximum. A failing case
//! prints its property name and seed; `Gen::new(seed)` with that seed
//! reproduces its inputs.

use std::panic::{self, AssertUnwindSafe};

use wavefuse_dtcwt::Image;
use wavefuse_video::bt656;
use wavefuse_video::fifo::{Fifo, FrameGate};
use wavefuse_video::scaler::{resize_bilinear, BilinearPlan};
use wavefuse_video::{PixelFormat, RawFrame};

/// A seeded xorshift64* generator with a size ramp.
struct Gen {
    state: u64,
    /// Fraction of each size bound this case may use, in `(0, 1]`.
    ramp: f64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            // Any nonzero state works; mixing spreads nearby seeds apart.
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            ramp: 1.0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// A size in `1..=max`, its upper end ramped with the case index.
    fn size(&mut self, max: usize) -> usize {
        let cap = ((max as f64 * self.ramp).ceil() as usize).clamp(1, max);
        self.range(1, cap)
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn byte(&mut self) -> u8 {
        self.next_u64() as u8
    }

    /// Uniform in `[0, 1)` on a 2^-24 grid.
    fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// Runs `prop` on `cases` seeded cases, naming the seed of a failure.
fn check(name: &str, cases: u64, mut prop: impl FnMut(&mut Gen)) {
    // Distinct properties draw from distinct seed ranges.
    let base = name.bytes().fold(0u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    for case in 0..cases {
        let seed = base.wrapping_add(case);
        let mut gen = Gen::new(seed);
        gen.ramp = (case + 1) as f64 / cases as f64;
        if let Err(cause) = panic::catch_unwind(AssertUnwindSafe(|| prop(&mut gen))) {
            eprintln!("property `{name}` failed at case {case}, seed {seed:#x}");
            panic::resume_unwind(cause);
        }
    }
}

/// A YUV 4:2:2 frame of up to 48x16 with sync-free payload bytes.
fn yuv_frame(g: &mut Gen) -> RawFrame {
    let (w, h) = (g.size(48), g.size(16));
    let bytes = (0..w * h * 2).map(|_| g.range(1, 254) as u8).collect();
    RawFrame::new(PixelFormat::Yuv422, w, h, bytes).expect("sized")
}

/// An image of up to `max_w` x `max_h` with values in `[0, 1)`.
fn image(g: &mut Gen, max_w: usize, max_h: usize) -> Image {
    let (w, h) = (g.size(max_w), g.size(max_h));
    let data = (0..w * h).map(|_| g.unit()).collect();
    Image::from_vec(w, h, data).expect("sized")
}

#[test]
fn bt656_round_trips_any_frame() {
    check("bt656_round_trips_any_frame", 48, |g| {
        let frame = yuv_frame(g);
        let (w, h) = frame.dims();
        let back = bt656::decode(&bt656::encode(&frame), w, h).unwrap();
        assert_eq!(back, frame);
    });
}

#[test]
fn bt656_decode_rejects_flipped_bits() {
    check("bt656_decode_rejects_flipped_bits", 48, |g| {
        // Flipping one byte must not silently corrupt the frame's shape:
        // the decoder errors, or (if the flip landed in payload or
        // blanking) decodes to something of the right geometry.
        let frame = yuv_frame(g);
        let (w, h) = frame.dims();
        let mut stream = bt656::encode(&frame);
        let at = g.range(0, stream.len() - 1);
        stream[at] ^= 0x55;
        if let Ok(decoded) = bt656::decode(&stream, w, h) {
            assert_eq!(decoded.dims(), (w, h));
        }
    });
}

/// One random corruption of `stream`: byte overwrites (sync-code bytes
/// included), a truncation, a splice of a segment of `donor` into it, or a
/// deleted segment.
fn mutate(g: &mut Gen, stream: &mut Vec<u8>, donor: &[u8]) {
    match g.range(0, 3) {
        0 => {
            for _ in 0..g.range(1, 8) {
                let at = g.range(0, stream.len() - 1);
                stream[at] = match g.range(0, 2) {
                    0 => 0xff,
                    1 => 0x00,
                    _ => g.byte(),
                };
            }
        }
        1 => stream.truncate(g.range(0, stream.len())),
        2 => {
            let from = g.range(0, donor.len() - 1);
            let len = g.range(1, donor.len() - from);
            let at = g.range(0, stream.len());
            stream.splice(at..at, donor[from..from + len].iter().copied());
        }
        _ => {
            let from = g.range(0, stream.len() - 1);
            let to = g.range(from, stream.len());
            stream.drain(from..to);
        }
    }
}

#[test]
fn bt656_decoders_survive_mutated_streams() {
    check("bt656_decoders_survive_mutated_streams", 384, |g| {
        let frame = yuv_frame(g);
        let donor = bt656::encode(&yuv_frame(g));
        let mut stream = bt656::encode(&frame);
        for _ in 0..g.range(1, 3) {
            mutate(g, &mut stream, &donor);
            if stream.is_empty() {
                break;
            }
        }
        // Decode at the true geometry or at a random declared one.
        let (w, h) = if g.bool() {
            frame.dims()
        } else {
            (g.size(64), g.size(24))
        };
        let mut out = RawFrame::empty();
        match bt656::decode_into(&stream, w, h, &mut out) {
            Ok(()) => {
                assert_eq!(out.dims(), (w, h));
                assert_eq!(out.bytes().len(), w * h * 2);
            }
            Err(_) => assert_eq!(out.dims(), (0, 0)),
        }
        let (raw, report) = bt656::decode_resilient(&stream, w, h).unwrap();
        assert_eq!(raw.dims(), (w, h));
        assert_eq!(raw.bytes().len(), w * h * 2);
        assert_eq!(report.good_lines + report.concealed_lines, h);
    });
}

#[test]
fn scaler_output_within_input_range() {
    check("scaler_output_within_input_range", 48, |g| {
        let img = image(g, 64, 48);
        let (dw, dh) = (g.size(95), g.size(63));
        let out = resize_bilinear(&img, dw, dh).unwrap();
        assert_eq!(out.dims(), (dw, dh));
        let (lo, hi) = img
            .as_slice()
            .iter()
            .fold((f32::MAX, f32::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        for &v in out.as_slice() {
            assert!(v >= lo - 1e-5 && v <= hi + 1e-5, "{v} outside [{lo}, {hi}]");
        }
    });
}

#[test]
fn scaler_preserves_constants() {
    check("scaler_preserves_constants", 48, |g| {
        let c = g.unit();
        let (w, h) = (g.size(31), g.size(31));
        let out = resize_bilinear(&Image::filled(w, h, c), 2 * w + 1, h.max(3)).unwrap();
        for &v in out.as_slice() {
            assert!((v - c).abs() < 1e-5);
        }
    });
}

/// The bilinear formula evaluated per output pixel, straight from the
/// pixel-center mapping.
fn bilinear_reference(src: &Image, dw: usize, dh: usize) -> Image {
    let (sw, sh) = src.dims();
    let sx = sw as f32 / dw as f32;
    let sy = sh as f32 / dh as f32;
    Image::from_fn(dw, dh, |x, y| {
        let fy = ((y as f32 + 0.5) * sy - 0.5).clamp(0.0, (sh - 1) as f32);
        let y0 = fy.floor() as usize;
        let y1 = (y0 + 1).min(sh - 1);
        let wy = fy - y0 as f32;
        let fx = ((x as f32 + 0.5) * sx - 0.5).clamp(0.0, (sw - 1) as f32);
        let x0 = fx.floor() as usize;
        let x1 = (x0 + 1).min(sw - 1);
        let wx = fx - x0 as f32;
        let top = src.get(x0, y0) * (1.0 - wx) + src.get(x1, y0) * wx;
        let bot = src.get(x0, y1) * (1.0 - wx) + src.get(x1, y1) * wx;
        top * (1.0 - wy) + bot * wy
    })
}

#[test]
fn bilinear_plan_matches_per_pixel_formula_bit_for_bit() {
    check("bilinear_plan_matches_per_pixel_formula", 96, |g| {
        let src = image(g, 64, 48);
        let (sw, sh) = src.dims();
        let (dw, dh) = match g.range(0, 3) {
            0 => (sw + g.size(64), sh + g.size(48)),
            1 => (g.range(1, sw), g.range(1, sh)),
            2 => (sw, sh),
            _ => {
                if g.bool() {
                    (1, g.size(48))
                } else {
                    (g.size(64), 1)
                }
            }
        };
        let mut plan = BilinearPlan::new(sw, sh, dw, dh).unwrap();
        let mut out = Image::zeros(0, 0);
        // The plan's row cache must not leak rows from one call into the
        // next, so resample a second source through the same plan.
        let second = Image::from_fn(sw, sh, |x, y| src.get(sw - 1 - x, y) * 0.5);
        for img in [&src, &second] {
            plan.apply(img, &mut out).unwrap();
            let reference = bilinear_reference(img, dw, dh);
            let same = out
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{sw}x{sh} -> {dw}x{dh} differs from the formula");
        }
    });
}

#[test]
fn fifo_preserves_order_and_counts() {
    check("fifo_preserves_order_and_counts", 48, |g| {
        let mut q: Fifo<u32> = Fifo::new(4);
        let mut model = std::collections::VecDeque::new();
        let mut counter = 0u32;
        let mut drops = 0u64;
        for _ in 0..g.size(80) {
            if g.bool() {
                counter += 1;
                if model.len() == 4 {
                    assert!(q.try_push(counter).is_err());
                    drops += 1;
                } else {
                    q.try_push(counter).unwrap();
                    model.push_back(counter);
                }
            } else {
                assert_eq!(q.pop(), model.pop_front());
            }
        }
        assert_eq!(q.len(), model.len());
        assert_eq!(q.dropped(), drops);
    });
}

#[test]
fn gate_never_reorders() {
    check("gate_never_reorders", 48, |g| {
        let mut gate = FrameGate::new();
        let mut last_taken: Option<u32> = None;
        for next in 0..g.size(60) as u32 {
            gate.offer(next);
            if g.bool() {
                if let Some(v) = gate.take() {
                    if let Some(prev) = last_taken {
                        assert!(v > prev, "gate reordered: {v} after {prev}");
                    }
                    last_taken = Some(v);
                }
            }
        }
    });
}
