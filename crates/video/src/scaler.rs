//! Bilinear video scaler.
//!
//! Models the paper's `Video_Scale` block, which resamples the thermal
//! decoder's 720x243 field into the webcam-matched 640x480 raster before
//! fusion. The implementation is a standard separable bilinear resampler
//! with edge clamping, usable for both the upscale in the capture path and
//! the downscale to the paper's 88x72 evaluation frames.

use crate::VideoError;
use wavefuse_dtcwt::Image;

/// Resamples `src` to `dst_w` x `dst_h` with bilinear interpolation
/// (pixel-center aligned, edges clamped).
///
/// # Errors
///
/// Returns [`VideoError::EmptyImage`] if the source or destination is
/// zero-sized.
///
/// # Examples
///
/// ```
/// use wavefuse_dtcwt::Image;
/// use wavefuse_video::scaler::resize_bilinear;
///
/// let src = Image::from_fn(720, 243, |x, y| (x + y) as f32);
/// let dst = resize_bilinear(&src, 640, 480)?; // the paper's scaling step
/// assert_eq!(dst.dims(), (640, 480));
/// # Ok::<(), wavefuse_video::VideoError>(())
/// ```
pub fn resize_bilinear(src: &Image, dst_w: usize, dst_h: usize) -> Result<Image, VideoError> {
    let mut out = Image::zeros(0, 0);
    resize_bilinear_into(src, dst_w, dst_h, &mut out)?;
    Ok(out)
}

/// Buffer-reusing variant of [`resize_bilinear`]: resamples into `out`
/// (reshaped, capacity reused). The identity geometry degenerates to a
/// plain copy. Identical pixels to the allocating path. Builds a one-shot
/// [`BilinearPlan`]; hold a plan directly to resample repeatedly at a
/// fixed geometry without any allocation.
///
/// # Errors
///
/// As [`resize_bilinear`].
pub fn resize_bilinear_into(
    src: &Image,
    dst_w: usize,
    dst_h: usize,
    out: &mut Image,
) -> Result<(), VideoError> {
    let (sw, sh) = src.dims();
    if sw == 0 || sh == 0 || dst_w == 0 || dst_h == 0 {
        return Err(VideoError::EmptyImage);
    }
    BilinearPlan::new(sw, sh, dst_w, dst_h)?.apply(src, out)
}

/// Source tap pair and interpolation weight for one destination row or
/// column under pixel-center mapping: dst center `(i + 0.5)` maps to
/// clamped src coordinate `i0 + w` with neighbour `i1`.
fn tap(i: usize, scale: f32, src_len: usize) -> (usize, usize, f32) {
    let f = ((i as f32 + 0.5) * scale - 0.5).clamp(0.0, (src_len - 1) as f32);
    let i0 = f.floor() as usize;
    let i1 = (i0 + 1).min(src_len - 1);
    (i0, i1, f - i0 as f32)
}

/// A prepared bilinear resample for one fixed geometry.
///
/// Precomputes the per-column and per-row source taps and weights so
/// repeated resamples (the capture path runs two per thermal frame) skip
/// the per-pixel coordinate math, and holds a rolling cache of two
/// horizontally interpolated source rows, so each source row is
/// interpolated once per resample however many destination rows read it.
/// [`BilinearPlan::apply`] produces bit-identical pixels to the per-pixel
/// bilinear formula and to [`resize_bilinear_into`], and allocates nothing.
#[derive(Debug, Clone)]
pub struct BilinearPlan {
    src: (usize, usize),
    dst: (usize, usize),
    /// `(x0, x1, wx)` per destination column.
    xmap: Vec<(usize, usize, f32)>,
    /// `(y0, y1, wy)` per destination row.
    ymap: Vec<(usize, usize, f32)>,
    /// Two `dst_w`-wide rows of horizontally interpolated source pixels.
    rows: [Vec<f32>; 2],
    /// One destination row, for [`BilinearPlan::apply_rows`].
    line: Vec<f32>,
}

impl BilinearPlan {
    /// Prepares a `src_w` x `src_h` to `dst_w` x `dst_h` resample.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::EmptyImage`] if either geometry is zero-sized.
    pub fn new(src_w: usize, src_h: usize, dst_w: usize, dst_h: usize) -> Result<Self, VideoError> {
        if src_w == 0 || src_h == 0 || dst_w == 0 || dst_h == 0 {
            return Err(VideoError::EmptyImage);
        }
        let sx = src_w as f32 / dst_w as f32;
        let sy = src_h as f32 / dst_h as f32;
        Ok(BilinearPlan {
            src: (src_w, src_h),
            dst: (dst_w, dst_h),
            xmap: (0..dst_w).map(|x| tap(x, sx, src_w)).collect(),
            ymap: (0..dst_h).map(|y| tap(y, sy, src_h)).collect(),
            rows: [vec![0.0; dst_w], vec![0.0; dst_w]],
            line: vec![0.0; dst_w],
        })
    }

    /// The planned source geometry.
    pub fn src_dims(&self) -> (usize, usize) {
        self.src
    }

    /// The planned destination geometry.
    pub fn dst_dims(&self) -> (usize, usize) {
        self.dst
    }

    /// Resamples `src` into `out` (reshaped, capacity reused) using the
    /// prepared taps. The identity geometry degenerates to a plain copy.
    ///
    /// Each output pixel is `top * (1 - wy) + bot * wy`, where `top` and
    /// `bot` are the horizontal interpolations `row[x0] * (1 - wx) +
    /// row[x1] * wx` of source rows `y0` and `y1`: the per-pixel formula's
    /// exact expression tree. Only where each term is computed changes:
    /// the horizontal terms of a source row are computed once into the
    /// row cache and reused by every destination row that reads it, and
    /// the vertical blend runs as one stride-1 pass per destination row.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::EmptyImage`] if `src` does not match the
    /// planned source geometry.
    pub fn apply(&mut self, src: &Image, out: &mut Image) -> Result<(), VideoError> {
        if src.dims() != self.src {
            return Err(VideoError::EmptyImage);
        }
        if self.src == self.dst {
            out.copy_from(src);
            return Ok(());
        }
        let (dst_w, dst_h) = self.dst;
        out.reshape(dst_w, dst_h);
        let data = src.as_slice();
        // Source row held by each cache slot; the cache is refilled per
        // call because `src` changes between calls.
        let mut held = [usize::MAX; 2];
        for (out_row, &(y0, y1, wy)) in out.as_mut_slice().chunks_exact_mut(dst_w).zip(&self.ymap) {
            let [top, bot] = cache_rows(
                &mut self.rows,
                &mut held,
                data,
                self.src.0,
                &self.xmap,
                y0,
                y1,
            );
            blend_rows(&self.rows[top], &self.rows[bot], wy, out_row);
        }
        Ok(())
    }

    /// Resamples `src` one destination row at a time, top to bottom,
    /// handing each finished row to `emit` instead of storing the image,
    /// so a consumer of the rows (the thermal camera's BT.656 packer)
    /// never needs the whole destination in memory. Each row holds the
    /// same pixels as the matching row of [`BilinearPlan::apply`].
    ///
    /// # Errors
    ///
    /// As [`BilinearPlan::apply`].
    pub(crate) fn apply_rows(
        &mut self,
        src: &Image,
        mut emit: impl FnMut(&[f32]),
    ) -> Result<(), VideoError> {
        if src.dims() != self.src {
            return Err(VideoError::EmptyImage);
        }
        let (sw, _) = self.src;
        let data = src.as_slice();
        if self.src == self.dst {
            data.chunks_exact(sw).for_each(emit);
            return Ok(());
        }
        let mut held = [usize::MAX; 2];
        for &(y0, y1, wy) in &self.ymap {
            let [top, bot] = cache_rows(&mut self.rows, &mut held, data, sw, &self.xmap, y0, y1);
            blend_rows(&self.rows[top], &self.rows[bot], wy, &mut self.line);
            emit(&self.line);
        }
        Ok(())
    }
}

/// Makes sure the two cache slots hold the horizontal interpolations of
/// source rows `y0` and `y1` of `data` (row length `sw`), interpolating
/// each missing row once, and returns their slots. `held` records which
/// source row each slot holds.
fn cache_rows(
    rows: &mut [Vec<f32>; 2],
    held: &mut [usize; 2],
    data: &[f32],
    sw: usize,
    xmap: &[(usize, usize, f32)],
    y0: usize,
    y1: usize,
) -> [usize; 2] {
    let top = match held.iter().position(|&r| r == y0) {
        Some(slot) => slot,
        None => {
            // Keep the slot holding `y1` (the rows advance monotonically,
            // so it is the next destination row's `y0`).
            let slot = usize::from(held[0] == y1);
            interp_row(&data[y0 * sw..(y0 + 1) * sw], xmap, &mut rows[slot]);
            held[slot] = y0;
            slot
        }
    };
    let bot = match held.iter().position(|&r| r == y1) {
        Some(slot) => slot,
        None => {
            let slot = 1 - top;
            interp_row(&data[y1 * sw..(y1 + 1) * sw], xmap, &mut rows[slot]);
            held[slot] = y1;
            slot
        }
    };
    [top, bot]
}

/// The vertical blend of two horizontally interpolated rows.
fn blend_rows(top: &[f32], bot: &[f32], wy: f32, out: &mut [f32]) {
    for ((o, &t), &b) in out.iter_mut().zip(top).zip(bot) {
        *o = t * (1.0 - wy) + b * wy;
    }
}

/// Horizontally interpolates one source row at every destination column.
fn interp_row(row: &[f32], xmap: &[(usize, usize, f32)], out: &mut [f32]) {
    for (o, &(x0, x1, wx)) in out.iter_mut().zip(xmap) {
        *o = row[x0] * (1.0 - wx) + row[x1] * wx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_scale_is_clone() {
        let src = Image::from_fn(10, 8, |x, y| (x * y) as f32);
        let out = resize_bilinear(&src, 10, 8).unwrap();
        assert_eq!(out, src);
    }

    #[test]
    fn empty_rejected() {
        let src = Image::zeros(0, 0);
        assert_eq!(resize_bilinear(&src, 4, 4), Err(VideoError::EmptyImage));
        let ok = Image::zeros(4, 4);
        assert_eq!(resize_bilinear(&ok, 0, 4), Err(VideoError::EmptyImage));
    }

    #[test]
    fn constant_image_stays_constant() {
        let src = Image::filled(7, 5, 3.25);
        let out = resize_bilinear(&src, 29, 17).unwrap();
        for &v in out.as_slice() {
            assert!((v - 3.25).abs() < 1e-6);
        }
    }

    #[test]
    fn upscale_by_two_interpolates_midpoints() {
        // A horizontal ramp upscaled 2x must remain a (piecewise) ramp.
        let src = Image::from_fn(4, 1, |x, _| x as f32);
        let out = resize_bilinear(&src, 8, 1).unwrap();
        // Monotone non-decreasing, endpoints clamped.
        for i in 1..8 {
            assert!(out.get(i, 0) >= out.get(i - 1, 0));
        }
        assert_eq!(out.get(0, 0), 0.0);
        assert_eq!(out.get(7, 0), 3.0);
        // Interior midpoints are true averages: dst x=2 maps to src 0.75.
        assert!((out.get(2, 0) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn downscale_averages_locally() {
        // 2x2 checkerboard downscaled to 1x1 lands between the extremes.
        let src = Image::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let out = resize_bilinear(&src, 1, 1).unwrap();
        assert!((out.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn plan_matches_per_pixel_reference_exactly() {
        // The prepared-tap resample must be bit-identical to the direct
        // per-pixel bilinear evaluation.
        let src = Image::from_fn(53, 37, |x, y| ((x * 31 + y * 17) % 101) as f32 * 0.01);
        for (dw, dh) in [(88, 72), (17, 90), (120, 11), (53, 1), (1, 37), (53, 37)] {
            let (sw, sh) = src.dims();
            let sx = sw as f32 / dw as f32;
            let sy = sh as f32 / dh as f32;
            let reference = Image::from_fn(dw, dh, |x, y| {
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
            });
            let mut plan = BilinearPlan::new(sw, sh, dw, dh).unwrap();
            let mut out = Image::zeros(0, 0);
            plan.apply(&src, &mut out).unwrap();
            assert_eq!(out, reference);
            assert_eq!(resize_bilinear(&src, dw, dh).unwrap(), reference);
            let mut streamed = Vec::new();
            plan.apply_rows(&src, |row| streamed.extend_from_slice(row))
                .unwrap();
            assert_eq!(streamed, reference.as_slice());
        }
    }

    #[test]
    fn plan_rejects_mismatched_source() {
        let mut plan = BilinearPlan::new(8, 6, 4, 3).unwrap();
        assert_eq!(plan.src_dims(), (8, 6));
        assert_eq!(plan.dst_dims(), (4, 3));
        let wrong = Image::zeros(9, 6);
        let mut out = Image::zeros(0, 0);
        assert_eq!(plan.apply(&wrong, &mut out), Err(VideoError::EmptyImage));
    }

    #[test]
    fn paper_thermal_scaling_geometry() {
        let src = Image::from_fn(720, 243, |x, y| ((x ^ y) % 97) as f32);
        let out = resize_bilinear(&src, 640, 480).unwrap();
        assert_eq!(out.dims(), (640, 480));
        // Range preserved (bilinear is a convex combination).
        let (lo, hi) = out
            .as_slice()
            .iter()
            .fold((f32::MAX, f32::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        assert!(lo >= 0.0 && hi <= 96.0);
    }
}
