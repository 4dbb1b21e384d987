//! SZ-style error-bounded lossy compression (the paper's "state-of-the-art
//! data compressor" stand-in).
//!
//! Algorithm (the SZ-1.4 core, 1-D):
//!
//! 1. **Predict** each value with the order-1 Lorenzo predictor — the
//!    previous *decompressed* value, so encoder and decoder stay in lockstep.
//! 2. **Quantize** the prediction residual to `q = round(diff / (2*eb))`;
//!    reconstructing `pred + q*2*eb` is then within `eb` of the input.
//! 3. Values whose quantization code falls outside the code range (or whose
//!    reconstruction fails the bound due to floating-point rounding — a
//!    checked guard) are stored verbatim as **outliers**.
//! 4. Quantization codes are **entropy-coded** with canonical Huffman.
//!
//! The decompressed output satisfies `|x - x'| <= eb` pointwise, always —
//! property-tested over arbitrary inputs including NaN/infinity (which take
//! the outlier path and round-trip bit-exactly).

use crate::bitstream::{BitReader, BitWriter};
use crate::huffman::{CanonicalCode, HuffmanError};
use crate::varint::{self, VarintError};

/// Half of the quantization-code alphabet (codes span `-RADIUS+1..RADIUS`).
const RADIUS: i64 = 1 << 15;
/// Symbol 0 marks an outlier; quantized code `q` maps to `q + RADIUS`.
const ESCAPE: u32 = 0;

/// Encodes `data` with absolute error bound `eb`, appending to `out`.
///
/// # Panics
/// Panics if `eb` is not finite and positive.
pub fn encode(data: &[f64], eb: f64, out: &mut Vec<u8>) {
    assert!(eb.is_finite() && eb > 0.0, "error bound must be positive");
    varint::write_u64(out, data.len() as u64);
    out.extend_from_slice(&eb.to_le_bytes());
    if data.is_empty() {
        return;
    }

    let step = 2.0 * eb;
    let mut symbols: Vec<u32> = Vec::with_capacity(data.len());
    let mut outliers: Vec<u8> = Vec::new();
    let mut prev = 0.0f64;
    for &x in data {
        let pred = prev;
        let diff = x - pred;
        let qf = (diff / step).round();
        let mut escaped = true;
        if qf.is_finite() && qf.abs() < (RADIUS - 1) as f64 {
            let q = qf as i64;
            let recon = pred + q as f64 * step;
            if (x - recon).abs() <= eb {
                symbols.push((q + RADIUS) as u32);
                prev = recon;
                escaped = false;
            }
        }
        if escaped {
            symbols.push(ESCAPE);
            outliers.extend_from_slice(&x.to_le_bytes());
            prev = if x.is_finite() { x } else { 0.0 };
        }
    }

    // Entropy-code the symbol stream. A single-symbol alphabet (e.g. an
    // all-zero chunk) needs no payload at all — the count is in the header.
    let lengths = crate::huffman::lengths_from_symbols(&symbols);
    CanonicalCode::serialize_lengths(&lengths, out);
    if lengths.len() == 1 {
        varint::write_u64(out, 0);
    } else {
        let code = CanonicalCode::from_lengths(&lengths).expect("lengths from builder are valid");
        let mut w = BitWriter::new();
        for &s in &symbols {
            code.encode(&mut w, s);
        }
        let payload = w.into_bytes();
        varint::write_u64(out, payload.len() as u64);
        out.extend_from_slice(&payload);
    }
    varint::write_u64(out, (outliers.len() / 8) as u64);
    out.extend_from_slice(&outliers);
}

/// Decode errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SzError {
    /// Varint failure in the container.
    Varint(VarintError),
    /// Output buffer length differs from the encoded count.
    LengthMismatch {
        /// Encoded element count.
        expected: usize,
        /// Supplied buffer length.
        got: usize,
    },
    /// Huffman table or stream failure.
    Huffman(HuffmanError),
    /// Structural corruption (truncated sections, bad bound, ...).
    Corrupt(&'static str),
}

impl std::fmt::Display for SzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SzError::Varint(e) => write!(f, "sz varint error: {e}"),
            SzError::LengthMismatch { expected, got } => {
                write!(f, "sz length mismatch: encoded {expected}, buffer {got}")
            }
            SzError::Huffman(e) => write!(f, "sz huffman error: {e}"),
            SzError::Corrupt(m) => write!(f, "corrupt sz stream: {m}"),
        }
    }
}

impl std::error::Error for SzError {}

impl From<VarintError> for SzError {
    fn from(e: VarintError) -> Self {
        SzError::Varint(e)
    }
}

impl From<HuffmanError> for SzError {
    fn from(e: HuffmanError) -> Self {
        SzError::Huffman(e)
    }
}

/// Decompresses into `out` (length must match). Returns the error bound the
/// stream was encoded with.
pub fn decode(buf: &[u8], out: &mut [f64]) -> Result<f64, SzError> {
    let mut pos = 0usize;
    let n = varint::read_u64(buf, &mut pos)? as usize;
    if n != out.len() {
        return Err(SzError::LengthMismatch {
            expected: n,
            got: out.len(),
        });
    }
    if pos + 8 > buf.len() {
        return Err(SzError::Corrupt("missing error bound"));
    }
    let eb = f64::from_le_bytes(buf[pos..pos + 8].try_into().expect("bounds checked"));
    pos += 8;
    if !(eb.is_finite() && eb > 0.0) {
        return Err(SzError::Corrupt("invalid error bound"));
    }
    if n == 0 {
        return Ok(eb);
    }
    let step = 2.0 * eb;

    let lengths = CanonicalCode::deserialize_lengths(buf, &mut pos)?;
    let code = CanonicalCode::from_lengths(&lengths)?;
    let payload_len = varint::read_u64(buf, &mut pos)? as usize;
    if pos + payload_len > buf.len() {
        return Err(SzError::Corrupt("truncated symbol payload"));
    }
    let payload = &buf[pos..pos + payload_len];
    pos += payload_len;
    let outlier_count = varint::read_u64(buf, &mut pos)? as usize;
    if pos + outlier_count * 8 > buf.len() {
        return Err(SzError::Corrupt("truncated outliers"));
    }
    let outlier_bytes = &buf[pos..pos + outlier_count * 8];

    let mut r = BitReader::new(payload);
    let single = if lengths.len() == 1 {
        Some(lengths[0].0)
    } else {
        None
    };
    let mut oi = 0usize;
    let mut prev = 0.0f64;
    for slot in out.iter_mut() {
        let s = match single {
            Some(sym) => sym,
            None => code.decode(&mut r)?,
        };
        if s == ESCAPE {
            if oi >= outlier_count {
                return Err(SzError::Corrupt("outlier underrun"));
            }
            let x = f64::from_le_bytes(
                outlier_bytes[oi * 8..oi * 8 + 8]
                    .try_into()
                    .expect("bounds checked"),
            );
            oi += 1;
            *slot = x;
            prev = if x.is_finite() { x } else { 0.0 };
        } else {
            let q = s as i64 - RADIUS;
            let recon = prev + q as f64 * step;
            *slot = recon;
            prev = recon;
        }
    }
    if oi != outlier_count {
        return Err(SzError::Corrupt("outlier overrun"));
    }
    Ok(eb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bounded(data: &[f64], eb: f64) -> usize {
        let mut buf = Vec::new();
        encode(data, eb, &mut buf);
        let mut out = vec![0.0f64; data.len()];
        let got_eb = decode(&buf, &mut out).unwrap();
        assert_eq!(got_eb, eb);
        for (i, (a, b)) in data.iter().zip(&out).enumerate() {
            if a.is_finite() {
                assert!(
                    (a - b).abs() <= eb,
                    "idx {i}: |{a} - {b}| = {} > {eb}",
                    (a - b).abs()
                );
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "non-finite must be exact");
            }
        }
        buf.len()
    }

    #[test]
    fn empty_input() {
        assert_bounded(&[], 1e-6);
    }

    #[test]
    fn constant_data_compresses_hard() {
        // One outlier (the jump from 0) + 65535 center codes at ~1 bit each:
        // a ratio around 60x from pure Huffman over the quant codes.
        let data = vec![0.125f64; 65536];
        let size = assert_bounded(&data, 1e-10);
        assert!(size < 10_000, "got {size}");
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data: Vec<f64> = (0..65536).map(|i| (i as f64 * 1e-4).sin() * 0.01).collect();
        let size = assert_bounded(&data, 1e-8);
        let raw = data.len() * 8;
        assert!(size * 4 < raw, "ratio {}", raw as f64 / size as f64);
    }

    #[test]
    fn zeros_compress_like_rle() {
        let mut data = vec![0.0f64; 32768];
        data[5] = 0.73;
        data[17000] = -0.73;
        let size = assert_bounded(&data, 1e-9);
        assert!(size < 8192, "got {size}");
    }

    #[test]
    fn error_bound_is_respected_on_rough_data() {
        let data: Vec<f64> = (0..10_000u64)
            .map(|i| {
                let r = i.wrapping_mul(0x9E3779B97F4A7C15) >> 11;
                (r as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect();
        for eb in [1e-3, 1e-6, 1e-12] {
            assert_bounded(&data, eb);
        }
    }

    #[test]
    fn tighter_bounds_cost_more_bytes() {
        let data: Vec<f64> = (0..20_000).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut loose = Vec::new();
        encode(&data, 1e-3, &mut loose);
        let mut tight = Vec::new();
        encode(&data, 1e-9, &mut tight);
        assert!(loose.len() < tight.len());
    }

    #[test]
    fn huge_values_take_outlier_path() {
        let data = [1e300, -1e300, 1e-300, 0.0, 42.0];
        assert_bounded(&data, 1e-6);
    }

    #[test]
    fn non_finite_values_round_trip_exactly() {
        let data = [
            f64::NAN,
            1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.0,
            2.0 + 1e-7,
        ];
        assert_bounded(&data, 1e-6);
    }

    #[test]
    fn statevector_like_amplitudes() {
        // Amplitudes of a uniform superposition with phase noise.
        let n = 1 << 14;
        let amp = 1.0 / (n as f64).sqrt();
        let data: Vec<f64> = (0..n).map(|i| amp * ((i as f64 * 0.001).cos())).collect();
        let size = assert_bounded(&data, amp * 1e-4);
        let ratio = (n * 8) as f64 / size as f64;
        assert!(ratio > 4.0, "ratio {ratio}");
    }

    #[test]
    fn length_mismatch_detected() {
        let mut buf = Vec::new();
        encode(&[1.0, 2.0], 1e-6, &mut buf);
        let mut out = vec![0.0f64; 3];
        assert!(matches!(
            decode(&buf, &mut out),
            Err(SzError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let mut buf = Vec::new();
        encode(&data, 1e-6, &mut buf);
        for cut in [buf.len() / 4, buf.len() / 2, buf.len() - 1] {
            let mut out = vec![0.0f64; 1000];
            assert!(decode(&buf[..cut], &mut out).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn garbage_header_detected() {
        let mut out = vec![0.0f64; 4];
        assert!(decode(&[0xFF, 0xFF, 0xFF], &mut out).is_err());
        // Valid count but bogus (negative) error bound.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 4);
        buf.extend_from_slice(&(-1.0f64).to_le_bytes());
        assert!(matches!(decode(&buf, &mut out), Err(SzError::Corrupt(_))));
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_bound() {
        let mut buf = Vec::new();
        encode(&[1.0], 0.0, &mut buf);
    }
}
