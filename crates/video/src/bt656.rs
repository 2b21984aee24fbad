//! ITU-R BT.656 stream encoder and decoder.
//!
//! The paper's thermal camera delivers its video as a BT.656 byte stream
//! over an FMC connector, decoded by a custom block on the PL (Fig. 7).
//! This module implements the wire format: every line is framed by timing
//! reference codes `FF 00 00 XY`, where the `XY` byte carries the field bit
//! `F`, vertical-blanking bit `V` and horizontal bit `H` (0 = SAV, start of
//! active video; 1 = EAV, end of active video) plus four Hamming protection
//! bits. Active lines carry packed YUV 4:2:2 payload (`Cb Y Cr Y`).
//!
//! The decoder is a small state machine that hunts for sync words, checks
//! the protection bits, skips blanking, and reassembles the active field —
//! faithfully rejecting corrupted streams.

use crate::frame::{luma_from_yuv422, round_half_up};
use crate::{PixelFormat, RawFrame, VideoError};
use wavefuse_dtcwt::Image;

/// Number of vertical-blanking lines the encoder emits before the active
/// field (compact stand-in for the analog blanking interval).
pub const VBLANK_LINES: usize = 20;

/// Horizontal-blanking words between EAV and SAV (`0x80 0x10` pairs).
pub const HBLANK_WORDS: usize = 8;

/// Builds the timing-reference `XY` byte for the given flags, including the
/// standard protection bits.
pub fn xy_byte(f: bool, v: bool, h: bool) -> u8 {
    let (fb, vb, hb) = (f as u8, v as u8, h as u8);
    let p3 = vb ^ hb;
    let p2 = fb ^ hb;
    let p1 = fb ^ vb;
    let p0 = fb ^ vb ^ hb;
    0x80 | (fb << 6) | (vb << 5) | (hb << 4) | (p3 << 3) | (p2 << 2) | (p1 << 1) | p0
}

/// Validates an `XY` byte's protection bits and extracts `(F, V, H)`.
pub fn parse_xy(xy: u8) -> Option<(bool, bool, bool)> {
    if xy & 0x80 == 0 {
        return None;
    }
    let f = xy & 0x40 != 0;
    let v = xy & 0x20 != 0;
    let h = xy & 0x10 != 0;
    if xy == xy_byte(f, v, h) {
        Some((f, v, h))
    } else {
        None
    }
}

/// Encodes a YUV 4:2:2 frame into a BT.656 byte stream (single progressive
/// field, `F = 0`).
///
/// # Panics
///
/// Panics if the frame is not [`PixelFormat::Yuv422`] (encoder contract).
pub fn encode(frame: &RawFrame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(frame, &mut out);
    out
}

/// Allocation-free variant of [`encode`]: serializes into `out` (resized,
/// capacity reused).
///
/// # Panics
///
/// As [`encode`].
pub fn encode_into(frame: &RawFrame, out: &mut Vec<u8>) {
    assert_eq!(
        frame.format(),
        PixelFormat::Yuv422,
        "bt656 payload must be yuv 4:2:2"
    );
    let (w, h) = frame.dims();
    let line_bytes = w * 2;
    for (y, payload) in active_payloads(w, h, out).enumerate() {
        payload.copy_from_slice(&frame.bytes()[y * line_bytes..(y + 1) * line_bytes]);
    }
}

/// Encodes a grayscale image as the BT.656 stream of its YUV 4:2:2 packing
/// — what the thermal camera's formatter puts on the wire: neutral chroma
/// (`Cb = Cr = 0x80`) and luma `1 + round(253 * clamp(v, 0, 1))`, which
/// keeps every payload byte clear of the `0x00`/`0xFF` sync codes. The
/// luma is written straight into the line payloads, with no intermediate
/// YUV frame. Serializes into `out` (resized, capacity reused).
pub fn encode_gray_into(img: &Image, out: &mut Vec<u8>) {
    let (w, h) = img.dims();
    for (y, payload) in active_payloads(w, h, out).enumerate() {
        pack_gray_line(&img.as_slice()[y * w..(y + 1) * w], payload);
    }
}

/// Packs one gray row into `Cb Y Cr Y` payload bytes, one little-endian
/// `Cb | Y << 8` word per pixel.
pub(crate) fn pack_gray_line(row: &[f32], payload: &mut [u8]) {
    for (pair, &v) in payload.chunks_exact_mut(2).zip(row) {
        let luma = round_half_up(v.clamp(0.0, 1.0) * 253.0) + 1;
        pair.copy_from_slice(&(0x80 | u16::from(luma) << 8).to_le_bytes());
    }
}

/// Lays out the stream of a `w` x `h` field in `out` — timing references,
/// horizontal and vertical blanking — and returns the `h` active lines'
/// `2 * w`-byte payload slices, top to bottom, for the caller to fill.
/// Every byte of `out` is overwritten once the payloads are filled, so a
/// steady-state re-encode at the same geometry neither reallocates nor
/// clears.
pub(crate) fn active_payloads(
    w: usize,
    h: usize,
    out: &mut Vec<u8>,
) -> impl Iterator<Item = &mut [u8]> {
    const TIMING: usize = 4;
    const PREAMBLE: usize = TIMING + HBLANK_WORDS * 2 + TIMING;
    let line_len = PREAMBLE + w * 2;
    out.resize((h + VBLANK_LINES) * line_len, 0);
    for (y, line) in out.chunks_exact_mut(line_len).enumerate() {
        let v = y < VBLANK_LINES;
        // EAV of the previous line, horizontal blanking, then SAV.
        let (eav, rest) = line.split_at_mut(TIMING);
        eav.copy_from_slice(&[0xff, 0x00, 0x00, xy_byte(false, v, true)]);
        let (hblank, rest) = rest.split_at_mut(HBLANK_WORDS * 2);
        for word in hblank.chunks_exact_mut(2) {
            word.copy_from_slice(&[0x80, 0x10]);
        }
        let (sav, body) = rest.split_at_mut(TIMING);
        sav.copy_from_slice(&[0xff, 0x00, 0x00, xy_byte(false, v, false)]);
        if v {
            for word in body.chunks_exact_mut(2) {
                word.copy_from_slice(&[0x80, 0x10]);
            }
        }
    }
    out.chunks_exact_mut(line_len)
        .skip(VBLANK_LINES)
        .map(|line| &mut line[PREAMBLE..])
}

/// Decodes a BT.656 byte stream back into a YUV 4:2:2 frame of the given
/// active dimensions.
///
/// # Errors
///
/// * [`VideoError::Bt656Sync`] on malformed sync words, failed protection
///   bits, or truncated lines.
/// * [`VideoError::Bt656LineCount`] if the stream does not contain exactly
///   `height` active lines.
/// * [`VideoError::GeometryOverflow`] if the declared geometry's byte size
///   does not fit in `usize`.
pub fn decode(stream: &[u8], width: usize, height: usize) -> Result<RawFrame, VideoError> {
    let mut out = RawFrame::empty();
    decode_into(stream, width, height, &mut out)?;
    Ok(out)
}

/// Allocation-free variant of [`decode`]: reuses `out`'s byte storage. On
/// error, `out` is left as a valid empty frame (its capacity is kept).
///
/// # Errors
///
/// As [`decode`].
pub fn decode_into(
    stream: &[u8],
    width: usize,
    height: usize,
    out: &mut RawFrame,
) -> Result<(), VideoError> {
    let mut lines = out.take_storage();
    let result = PixelFormat::Yuv422
        .frame_bytes(width, height)
        .and_then(|total| {
            // The payload is a copy of stream bytes, so the stream length
            // bounds it whatever geometry the caller declares.
            lines.reserve(total.min(stream.len()));
            scan_active_lines(stream, width, height, |line| {
                lines.extend_from_slice(line);
            })
        });
    match result {
        Ok(()) => out.assign(PixelFormat::Yuv422, width, height, lines),
        Err(e) => {
            lines.clear();
            out.assign(PixelFormat::Gray8, 0, 0, lines)
                .expect("empty frame is always valid");
            Err(e)
        }
    }
}

/// Decodes a BT.656 stream of the given active geometry straight to luma:
/// `out` (reshaped, capacity reused) receives each active line's `Y`
/// bytes normalized to `[0, 1]`, exactly what [`decode_into`] followed by
/// [`RawFrame::to_gray_into`] produces, without staging the YUV frame.
///
/// # Errors
///
/// As [`decode`]; `out`'s contents are unspecified after an error.
pub(crate) fn decode_gray_into(
    stream: &[u8],
    width: usize,
    height: usize,
    out: &mut Image,
) -> Result<(), VideoError> {
    PixelFormat::Yuv422.frame_bytes(width, height)?;
    out.reshape(width, height);
    let dst = out.as_mut_slice();
    let mut y = 0;
    scan_active_lines(stream, width, height, |line| {
        luma_from_yuv422(line, &mut dst[y * width..(y + 1) * width]);
        y += 1;
    })
}

/// The decoder's sync-hunting state machine. Hands each of the first
/// `height` active lines' payload to `line`, in order, and fails unless
/// the stream holds exactly `height` of them. The caller has checked that
/// `width * 2 * height` fits in `usize`.
fn scan_active_lines(
    stream: &[u8],
    width: usize,
    height: usize,
    mut line: impl FnMut(&[u8]),
) -> Result<(), VideoError> {
    let line_bytes = width * 2;
    let mut active_lines = 0usize;
    let mut i = 0usize;

    while i + 4 <= stream.len() {
        // Hunt for a timing reference code.
        if stream[i] != 0xff {
            i += 1;
            continue;
        }
        if stream[i + 1] != 0x00 || stream[i + 2] != 0x00 {
            return Err(VideoError::Bt656Sync {
                offset: i,
                reason: "sync prefix ff not followed by 00 00",
            });
        }
        let Some((_f, v, h)) = parse_xy(stream[i + 3]) else {
            return Err(VideoError::Bt656Sync {
                offset: i + 3,
                reason: "protection bits failed",
            });
        };
        i += 4;
        if h || v {
            // EAV or blanking SAV: payload until the next sync is blanking.
            continue;
        }
        // SAV of an active line: exactly line_bytes of payload follow.
        if stream.len() - i < line_bytes {
            return Err(VideoError::Bt656Sync {
                offset: i,
                reason: "active line truncated",
            });
        }
        if active_lines < height {
            line(&stream[i..i + line_bytes]);
        }
        active_lines += 1;
        i += line_bytes;
    }

    if active_lines != height {
        return Err(VideoError::Bt656LineCount {
            expected: height,
            actual: active_lines,
        });
    }
    Ok(())
}

/// Statistics of a resilient decode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Active lines recovered intact.
    pub good_lines: usize,
    /// Lines concealed (replaced by the previous good line or mid-gray).
    pub concealed_lines: usize,
    /// Bytes skipped while re-hunting for sync.
    pub resync_bytes: usize,
}

/// Decodes a possibly-corrupted BT.656 stream with error concealment, as a
/// real capture front-end must (glitches on the FMC wires cannot crash the
/// pipeline). Corrupt sync words are skipped until the next valid timing
/// reference; missing or damaged active lines are concealed by repeating
/// the previous good line (or mid-gray for a leading loss).
///
/// Always returns a full-size frame plus a report of what was concealed.
///
/// # Errors
///
/// Returns [`VideoError::EmptyImage`] for zero dimensions and
/// [`VideoError::GeometryOverflow`] if the declared geometry's byte size
/// does not fit in `usize` — stream corruption is *not* an error for this
/// decoder.
pub fn decode_resilient(
    stream: &[u8],
    width: usize,
    height: usize,
) -> Result<(RawFrame, ResilienceReport), VideoError> {
    if width == 0 || height == 0 {
        return Err(VideoError::EmptyImage);
    }
    PixelFormat::Yuv422.frame_bytes(width, height)?;
    let line_bytes = width * 2;
    let mut lines: Vec<Vec<u8>> = Vec::with_capacity(height);
    let mut report = ResilienceReport::default();
    let mut i = 0usize;

    while i + 4 <= stream.len() && lines.len() < height {
        if stream[i] != 0xff {
            i += 1;
            continue;
        }
        if stream[i + 1] != 0x00 || stream[i + 2] != 0x00 {
            report.resync_bytes += 1;
            i += 1;
            continue;
        }
        let Some((_f, v, h)) = parse_xy(stream[i + 3]) else {
            report.resync_bytes += 4;
            i += 4;
            continue;
        };
        i += 4;
        if h || v {
            continue;
        }
        if stream.len() - i < line_bytes {
            break; // truncated final line: concealed below
        }
        let payload = &stream[i..i + line_bytes];
        // A sync pattern inside the payload means the line was cut short by
        // a glitch; drop it and resume at the embedded sync.
        if let Some(pos) = payload.windows(3).position(|w| w == [0xff, 0x00, 0x00]) {
            report.concealed_lines += 1;
            report.resync_bytes += pos;
            lines.push(conceal_line(&lines, line_bytes));
            i += pos;
            continue;
        }
        lines.push(payload.to_vec());
        report.good_lines += 1;
        i += line_bytes;
    }

    while lines.len() < height {
        lines.push(conceal_line(&lines, line_bytes));
        report.concealed_lines += 1;
    }

    let mut bytes = Vec::with_capacity(line_bytes * height);
    for line in &lines {
        bytes.extend_from_slice(line);
    }
    Ok((
        RawFrame::new(PixelFormat::Yuv422, width, height, bytes)?,
        report,
    ))
}

fn conceal_line(lines: &[Vec<u8>], line_bytes: usize) -> Vec<u8> {
    match lines.last() {
        Some(prev) => prev.clone(),
        // Mid-gray YUV: neutral chroma, mid luma.
        None => std::iter::repeat_n([0x80u8, 0x80], line_bytes / 2)
            .flatten()
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_frame(w: usize, h: usize) -> RawFrame {
        let bytes: Vec<u8> = (0..w * h * 2).map(|i| (i * 7 % 251) as u8).collect();
        RawFrame::new(PixelFormat::Yuv422, w, h, bytes).unwrap()
    }

    #[test]
    fn xy_byte_protection_round_trip() {
        for f in [false, true] {
            for v in [false, true] {
                for h in [false, true] {
                    let xy = xy_byte(f, v, h);
                    assert_eq!(parse_xy(xy), Some((f, v, h)));
                }
            }
        }
    }

    #[test]
    fn known_xy_values() {
        // Standard BT.656 codes: SAV active = 0x80, EAV active = 0x9d,
        // SAV blanking = 0xab, EAV blanking = 0xb6 (field 0).
        assert_eq!(xy_byte(false, false, false), 0x80);
        assert_eq!(xy_byte(false, false, true), 0x9d);
        assert_eq!(xy_byte(false, true, false), 0xab);
        assert_eq!(xy_byte(false, true, true), 0xb6);
    }

    #[test]
    fn corrupt_xy_rejected() {
        assert_eq!(parse_xy(0x00), None); // bit 7 clear
        assert_eq!(parse_xy(0x81), None); // wrong protection bits
    }

    #[test]
    fn encode_decode_round_trip() {
        let frame = test_frame(16, 12);
        let stream = encode(&frame);
        let back = decode(&stream, 16, 12).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn round_trip_paper_field_geometry() {
        // The paper's decoder handles 720x243 fields; keep the width real
        // but the height small for test speed.
        let frame = test_frame(720, 9);
        let back = decode(&encode(&frame), 720, 9).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn corrupted_sync_detected() {
        let frame = test_frame(8, 4);
        let mut stream = encode(&frame);
        // Find the first SAV of an active line and corrupt its XY byte to an
        // invalid protection pattern.
        let sav_active = xy_byte(false, false, false);
        let pos = stream
            .windows(4)
            .position(|w| w == [0xff, 0x00, 0x00, sav_active])
            .unwrap();
        stream[pos + 3] = 0x81;
        assert!(matches!(
            decode(&stream, 8, 4),
            Err(VideoError::Bt656Sync {
                reason: "protection bits failed",
                ..
            })
        ));
    }

    #[test]
    fn truncated_stream_detected() {
        let frame = test_frame(8, 4);
        let mut stream = encode(&frame);
        stream.truncate(stream.len() - 3); // cut into the last active line
        assert!(matches!(
            decode(&stream, 8, 4),
            Err(VideoError::Bt656Sync {
                reason: "active line truncated",
                ..
            }) | Err(VideoError::Bt656LineCount { .. })
        ));
    }

    #[test]
    fn wrong_line_count_detected() {
        let frame = test_frame(8, 4);
        let stream = encode(&frame);
        assert!(matches!(
            decode(&stream, 8, 5),
            Err(VideoError::Bt656LineCount {
                expected: 5,
                actual: 4
            })
        ));
    }

    #[test]
    fn resilient_decode_matches_strict_on_clean_streams() {
        let frame = test_frame(16, 8);
        let stream = encode(&frame);
        let (decoded, report) = decode_resilient(&stream, 16, 8).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(report.good_lines, 8);
        assert_eq!(report.concealed_lines, 0);
        assert_eq!(report.resync_bytes, 0);
    }

    #[test]
    fn resilient_decode_conceals_a_corrupt_sync() {
        let frame = test_frame(8, 6);
        let mut stream = encode(&frame);
        // Corrupt the XY byte of the third active line's SAV.
        let sav = xy_byte(false, false, false);
        let pos = stream
            .windows(4)
            .enumerate()
            .filter(|(_, w)| *w == [0xff, 0x00, 0x00, sav])
            .map(|(i, _)| i)
            .nth(2)
            .unwrap();
        stream[pos + 3] = 0x81;
        let (decoded, report) = decode_resilient(&stream, 8, 6).unwrap();
        assert_eq!(decoded.dims(), (8, 6));
        assert_eq!(report.concealed_lines, 1);
        assert_eq!(report.good_lines, 5);
        // BT.656 carries no line numbers, so a dropped line shifts the rest
        // up and concealment lands at the frame bottom: the last line
        // repeats the previous good one.
        let lb = 16;
        assert_eq!(
            &decoded.bytes()[5 * lb..6 * lb],
            &decoded.bytes()[4 * lb..5 * lb],
            "conceal-by-repeat at frame bottom"
        );
        // Surviving lines are intact (line 2 of the output is source line 3).
        assert_eq!(
            &decoded.bytes()[2 * lb..3 * lb],
            &frame.bytes()[3 * lb..4 * lb]
        );
        // The strict decoder would have refused this stream.
        assert!(decode(&stream, 8, 6).is_err());
    }

    #[test]
    fn resilient_decode_fills_truncated_streams() {
        let frame = test_frame(8, 6);
        let mut stream = encode(&frame);
        stream.truncate(stream.len() / 2);
        let (decoded, report) = decode_resilient(&stream, 8, 6).unwrap();
        assert_eq!(decoded.dims(), (8, 6));
        assert!(report.concealed_lines > 0);
        assert_eq!(report.good_lines + report.concealed_lines, 6);
    }

    #[test]
    fn resilient_decode_survives_garbage() {
        // Pure noise: everything concealed, nothing panics.
        let garbage: Vec<u8> = (0..4096).map(|i| (i * 37 % 251) as u8).collect();
        let (decoded, report) = decode_resilient(&garbage, 8, 4).unwrap();
        assert_eq!(decoded.dims(), (8, 4));
        assert_eq!(report.good_lines + report.concealed_lines, 4);
        assert!(decode_resilient(&[], 8, 4).is_ok());
        assert!(decode_resilient(&garbage, 0, 4).is_err());
    }

    #[test]
    fn overflowing_geometry_is_rejected() {
        // width * 2 overflows: both decoders must refuse the geometry
        // rather than wrap it to a zero-byte line.
        let huge = usize::MAX / 2 + 1;
        let overflow = VideoError::GeometryOverflow {
            width: huge,
            height: 1,
        };
        let mut out = RawFrame::empty();
        assert_eq!(
            decode_into(&[0; 16], huge, 1, &mut out),
            Err(overflow.clone())
        );
        assert_eq!(out.dims(), (0, 0));
        assert_eq!(decode_resilient(&[0; 16], huge, 1), Err(overflow));
        // width * 2 fits but the product with the height does not.
        assert!(decode(&[0; 16], usize::MAX / 4, 8).is_err());
        assert!(decode_resilient(&[0; 16], usize::MAX / 4, 8).is_err());
    }

    #[test]
    fn huge_declared_geometry_does_not_reserve_it() {
        // A geometry far larger than the stream decodes to an error
        // without first reserving the declared frame size.
        let stream = encode(&test_frame(8, 2));
        assert!(decode(&stream, 1 << 40, 1 << 10).is_err());
    }

    #[test]
    fn gray_encoder_matches_yuv_pack_then_encode() {
        // Packing by hand and encoding must give the same wire bytes as
        // the fused gray encoder, including the clamped ends.
        let img = Image::from_fn(13, 5, |x, y| (x as f32 - 2.0) * 0.1 + y as f32 * 0.03);
        let mut bytes = Vec::new();
        for &v in img.as_slice() {
            bytes.push(0x80);
            bytes.push((v.clamp(0.0, 1.0) * 253.0).round() as u8 + 1);
        }
        let frame = RawFrame::new(PixelFormat::Yuv422, 13, 5, bytes).unwrap();
        let mut stream = vec![0xaa; 3];
        encode_gray_into(&img, &mut stream);
        assert_eq!(stream, encode(&frame));
        assert_eq!(decode(&stream, 13, 5).unwrap(), frame);
    }

    #[test]
    fn decode_to_luma_matches_decode_then_to_gray() {
        let frame = test_frame(24, 7);
        let stream = encode(&frame);
        let mut gray = Image::zeros(0, 0);
        decode_gray_into(&stream, 24, 7, &mut gray).unwrap();
        assert_eq!(
            gray,
            decode(&stream, 24, 7).unwrap().to_gray(0).into_image()
        );
        // The same stream errors declared one line short or long.
        for h in [6, 8] {
            assert_eq!(
                decode_gray_into(&stream, 24, h, &mut gray),
                decode(&stream, 24, h).map(|_| ())
            );
        }
        assert!(decode_gray_into(&stream, usize::MAX / 2 + 1, 1, &mut gray).is_err());
    }

    #[test]
    fn blanking_lines_are_skipped() {
        // The stream contains VBLANK_LINES of blanking; the decoder must
        // not mistake 0x80 0x10 blanking payload for active video.
        let frame = test_frame(4, 2);
        let stream = encode(&frame);
        let decoded = decode(&stream, 4, 2).unwrap();
        assert_eq!(decoded.bytes(), frame.bytes());
    }
}
