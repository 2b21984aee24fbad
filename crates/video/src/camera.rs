//! Camera models: the two capture front-ends of the paper's Fig. 7.
//!
//! * [`WebCamera`] models the Logitech C160 USB webcam: frames are decoded
//!   on the PS side, arriving as 8-bit grayscale (the paper gray-scales the
//!   webcam stream before fusion).
//! * [`ThermalCamera`] models the Thermoteknix MicroCAM 384H XTi: the
//!   sensor's native raster is formatted into a 720x243 YUV 4:2:2 field,
//!   serialized as a BT.656 byte stream (what crosses the FMC connector),
//!   decoded by the [`crate::bt656`] decoder, and resampled by the
//!   [`crate::scaler`] — the full PL-side path of the paper.

use crate::bt656;
use crate::frame::{round_half_up, Frame, PixelFormat, RawFrame};
use crate::scaler::BilinearPlan;
use crate::scene::{RenderScratch, ScenePair};
use crate::VideoError;
use wavefuse_dtcwt::Image;

/// Native raster of the modeled MicroCAM 384H XTi sensor.
pub const THERMAL_SENSOR_DIMS: (usize, usize) = (384, 288);

/// BT.656 field geometry the thermal camera emits (as in the paper's
/// `Video_Scale (720x243 to 640x480, 60Hz)` block).
pub const THERMAL_FIELD_DIMS: (usize, usize) = (720, 243);

/// USB webcam model (PS-side decode).
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct WebCamera {
    scene: ScenePair,
    width: usize,
    height: usize,
    fps: f64,
    seq: u64,
    // Reusable capture-path scratch (render tables, rendered scene and
    // quantized sensor bytes), so steady-state captures via `capture_into`
    // do not allocate.
    scratch: RenderScratch,
    render: Image,
    raw: RawFrame,
}

impl WebCamera {
    /// Creates a webcam delivering `width` x `height` frames at 30 fps.
    pub fn new(scene: ScenePair, width: usize, height: usize) -> Self {
        WebCamera {
            scene,
            width,
            height,
            fps: 30.0,
            seq: 0,
            scratch: RenderScratch::default(),
            render: Image::zeros(0, 0),
            raw: RawFrame::empty(),
        }
    }

    /// Frames per second of the capture clock.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// The raw RGB frame as the USB stack would deliver it (the visible
    /// scene is near-monochrome with a slight warm cast, as cheap webcam
    /// sensors render indoor scenes).
    pub fn next_raw_rgb(&mut self) -> RawFrame {
        let t = self.seq as f64 / self.fps;
        self.seq += 1;
        self.scene.render_visible_scratch(
            self.width,
            self.height,
            t,
            &mut self.scratch,
            &mut self.render,
        );
        let mut bytes = Vec::with_capacity(self.width * self.height * 3);
        quantize_rgb(&self.render, &mut bytes);
        RawFrame::new(PixelFormat::Rgb888, self.width, self.height, bytes)
            .expect("sensor geometry is consistent")
    }

    /// Captures the next frame: render → RGB sensor quantization → USB
    /// decode → grayscale conversion (the paper gray-scales the webcam
    /// stream before fusion).
    pub fn capture(&mut self) -> Frame {
        let mut out = Frame::new(Image::zeros(0, 0), 0);
        self.capture_into(&mut out);
        out
    }

    /// Allocation-free variant of [`WebCamera::capture`]: runs the same
    /// render → quantize → grayscale path through internal scratch buffers
    /// and writes the result into `out` (reshaped, capacity reused).
    pub fn capture_into(&mut self, out: &mut Frame) {
        let seq = self.seq;
        let t = seq as f64 / self.fps;
        self.seq += 1;
        self.scene.render_visible_scratch(
            self.width,
            self.height,
            t,
            &mut self.scratch,
            &mut self.render,
        );
        let mut bytes = self.raw.take_storage();
        bytes.reserve(self.width * self.height * 3);
        quantize_rgb(&self.render, &mut bytes);
        self.raw
            .assign(PixelFormat::Rgb888, self.width, self.height, bytes)
            .expect("sensor geometry is consistent");
        self.raw.to_gray_into(seq, out);
    }
}

/// Quantizes a rendered `[0, 1]` image to packed RGB sensor bytes. Warm
/// cast: slightly boosted red, slightly cut blue, chosen so the BT.601
/// luma recovers the rendered value exactly
/// (0.299*1.04 + 0.587*1.0 + 0.114*0.895 = 1.0). Each channel is rounded
/// with [`round_half_up`], bit-identical to `.round() as u8`.
fn quantize_rgb(img: &Image, bytes: &mut Vec<u8>) {
    bytes.clear();
    bytes.resize(img.as_slice().len() * 3, 0);
    for (rgb, &v) in bytes.chunks_exact_mut(3).zip(img.as_slice()) {
        let v = v.clamp(0.0, 1.0);
        let r = round_half_up((v * 1.04).min(1.0) * 255.0);
        let g = round_half_up(v * 255.0);
        let b = round_half_up(v * 0.895 * 255.0);
        // Assembled as one word: measurably faster than three byte stores.
        let word = u32::from(r) | u32::from(g) << 8 | u32::from(b) << 16;
        rgb.copy_from_slice(&word.to_le_bytes()[..3]);
    }
}

/// Thermal camera model (PL-side BT.656 decode + scaling).
#[derive(Debug, Clone)]
pub struct ThermalCamera {
    scene: ScenePair,
    field_fps: f64,
    seq: u64,
    // Reusable capture-path scratch covering every stage of the pipe
    // (render, BT.656 stream, decoded luma field), so steady-state
    // captures via `capture_into` do not allocate. The resampled field is
    // packed into the stream row by row and the stream is decoded
    // straight to luma, so neither the field image nor the YUV frame is
    // ever held whole.
    scratch: RenderScratch,
    native: Image,
    stream: Vec<u8>,
    gray: Image,
    /// Prepared sensor-to-field resample (fixed geometry).
    up: BilinearPlan,
    /// Prepared field-to-output resample; `None` for zero output dims
    /// (reported as an error at capture time, as the scaler would).
    down: Option<BilinearPlan>,
}

impl ThermalCamera {
    /// Creates a thermal camera delivering `out_width` x `out_height`
    /// frames (after decode and scaling) at 60 fields/s.
    pub fn new(scene: ScenePair, out_width: usize, out_height: usize) -> Self {
        let (sw, sh) = THERMAL_SENSOR_DIMS;
        let (fw, fh) = THERMAL_FIELD_DIMS;
        ThermalCamera {
            scene,
            field_fps: 60.0,
            seq: 0,
            scratch: RenderScratch::default(),
            native: Image::zeros(0, 0),
            stream: Vec::new(),
            gray: Image::zeros(0, 0),
            up: BilinearPlan::new(sw, sh, fw, fh).expect("non-empty field geometry"),
            down: BilinearPlan::new(fw, fh, out_width, out_height).ok(),
        }
    }

    /// Fields per second on the wire.
    pub fn field_rate(&self) -> f64 {
        self.field_fps
    }

    /// The raw BT.656 byte stream of the next field — what the FMC pins
    /// carry. Exposed so tests and examples can exercise the decoder
    /// directly.
    pub fn next_field_stream(&mut self) -> Vec<u8> {
        self.render_field_stream();
        self.stream.clone()
    }

    /// Renders the next field as its BT.656 stream into `self.stream`
    /// (advancing the sequence counter): render at sensor dims → resample
    /// to field geometry → YUV 4:2:2 pack + BT.656 framing. Each resampled
    /// field row is packed into its line payload as soon as it is blended.
    fn render_field_stream(&mut self) {
        let t = self.seq as f64 / self.field_fps;
        self.seq += 1;
        let (sw, sh) = THERMAL_SENSOR_DIMS;
        self.scene
            .render_thermal_scratch(sw, sh, t, &mut self.scratch, &mut self.native);
        let (fw, fh) = THERMAL_FIELD_DIMS;
        let mut payloads = bt656::active_payloads(fw, fh, &mut self.stream);
        self.up
            .apply_rows(&self.native, |row| {
                let payload = payloads.next().expect("one payload line per field row");
                bt656::pack_gray_line(row, payload);
            })
            .expect("planned sensor geometry");
    }

    /// Captures the next frame through the full path:
    /// render → field format → BT.656 encode → decode → luma → scale.
    ///
    /// # Errors
    ///
    /// Propagates BT.656 decode errors (which for this camera's own streams
    /// indicates a model bug) and scaler errors for zero output dimensions.
    pub fn capture(&mut self) -> Result<Frame, VideoError> {
        let mut out = Frame::new(Image::zeros(0, 0), 0);
        self.capture_into(&mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`ThermalCamera::capture`]: runs the same
    /// full capture path through internal scratch buffers and writes the
    /// result into `out` (reshaped, capacity reused).
    ///
    /// # Errors
    ///
    /// As [`ThermalCamera::capture`].
    pub fn capture_into(&mut self, out: &mut Frame) -> Result<(), VideoError> {
        let seq = self.seq;
        self.render_field_stream();
        let (fw, fh) = THERMAL_FIELD_DIMS;
        bt656::decode_gray_into(&self.stream, fw, fh, &mut self.gray)?;
        self.down
            .as_mut()
            .ok_or(VideoError::EmptyImage)?
            .apply(&self.gray, out.image_mut())?;
        out.set_seq(seq);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn webcam_advances_sequence() {
        let mut cam = WebCamera::new(ScenePair::new(1), 32, 24);
        let f0 = cam.capture();
        let f1 = cam.capture();
        assert_eq!(f0.seq(), 0);
        assert_eq!(f1.seq(), 1);
        assert_eq!(f0.image().dims(), (32, 24));
    }

    #[test]
    fn thermal_capture_full_path() {
        let mut cam = ThermalCamera::new(ScenePair::new(2), 88, 72);
        let f = cam.capture().unwrap();
        assert_eq!(f.image().dims(), (88, 72));
        for &v in f.image().as_slice() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn thermal_stream_is_valid_bt656() {
        let mut cam = ThermalCamera::new(ScenePair::new(3), 40, 30);
        let stream = cam.next_field_stream();
        let (fw, fh) = THERMAL_FIELD_DIMS;
        let raw = bt656::decode(&stream, fw, fh).unwrap();
        assert_eq!(raw.dims(), THERMAL_FIELD_DIMS);
        // Luma stays in the legal range.
        for chunk in raw.bytes().chunks_exact(2) {
            assert!(chunk[1] >= 1 && chunk[1] <= 254);
        }
    }

    #[test]
    fn cameras_view_the_same_scene() {
        // The warm body's thermal signature and the visible silhouette sit
        // at the same normalized location: cross-check via the scene.
        let scene = ScenePair::new(4);
        let (bx, by) = scene.body_center(0.0);
        let mut cam = ThermalCamera::new(scene, 96, 96);
        let f = cam.capture().unwrap();
        let px = (bx * 96.0) as usize;
        let py = (by * 96.0) as usize;
        let center = f.image().get(px.min(95), py.min(95));
        let corner = f.image().get(2, 2);
        assert!(center > corner + 0.2, "body {center} vs corner {corner}");
    }

    #[test]
    fn quantization_path_matches_scene_brightness() {
        let scene = ScenePair::new(5);
        let mut cam = WebCamera::new(scene.clone(), 64, 48);
        let f = cam.capture();
        let direct = scene.render_visible(64, 48, 0.0);
        // Per-channel 8-bit quantization bounds the luma error at half an
        // LSB, plus the red-channel headroom clamp for near-white pixels.
        assert!(f.image().max_abs_diff(&direct) <= 0.5 / 255.0 + 0.299 * 0.04 + 1e-6);
    }
}
