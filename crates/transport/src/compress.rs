//! Bandwidth-lean payload codec: lossless f64-oriented compression and
//! opt-in reduced-precision transfer for the TCP wire path.
//!
//! In transit processing moves the analysis to the data, but the solver
//! fields still cross the interconnect once — and `BENCH_transport.json`
//! shows the wire, not the statistics kernels, is the bottleneck of the
//! streaming path.  Smooth solver fields (the tube-bundle temperature
//! grids Melissa streams every sweep) are highly structured: neighbouring
//! cells differ in the low mantissa bytes only.  This module exploits
//! that structure with a three-stage **lossless** transform, applied by
//! the TCP writer thread to whole frame payloads and undone by the
//! acceptor before ingest, so everything above the transport — protocol
//! decode, `WorkerState`, statistics — sees bit-identical doubles:
//!
//! 1. **Order-2 integer prediction** over the payload's little-endian
//!    `u64` words: `pred(k) = 2·w(k−1) − w(k−2)` (wrapping), residual
//!    `r(k) = w(k) − pred(k)`.  On a smooth field the linear predictor
//!    cancels both the exponent and the slowly-varying high mantissa
//!    bits, concentrating the signal in the low bytes.  (Melissa's data
//!    frames carry a 35-byte header before the f64 array; `35 % 8 = 3`
//!    head bytes ride raw, so the words from offset 3 are *exactly* the
//!    doubles — alignment is systematic, not accidental.)
//! 2. **Zigzag mapping** folds the sign-extended residuals so small
//!    negative corrections get small unsigned codes (leading-bit
//!    compaction).
//! 3. **Byte-plane transpose + per-plane delta filter + zero-run
//!    coding**: the 8 bytes of each zigzagged residual are split into 8
//!    planes.  Each plane is coded twice — verbatim and after a wrapping
//!    byte-delta — and the smaller wins (one filter-flag byte per
//!    plane).  On smooth fields the high planes are entirely zero, and
//!    the boundary plane just above the entropy floor varies slowly, so
//!    its delta is almost entirely zero too; both run-length-code to
//!    nothing.  Tokens `0x00..=0x7F` introduce a literal run of
//!    `token + 1` bytes; `0x80..=0xFF` encode a run of `token − 0x7F`
//!    zero bytes (1–128).
//!
//! A payload that does not shrink is sent **raw** (the codec returns
//! `None` and the wire frame is marked uncompressed), so adversarial
//! high-entropy data costs only the compression attempt, never wire
//! bytes.
//!
//! # Reduced-precision transfer (`Truncate`) — error bound
//!
//! [`WireCompression::Truncate`] is the *opt-in lossy* third layer: the
//! group client rounds every field value to the top `mantissa_bits` bits
//! of the 52-bit IEEE-754 mantissa **before** encoding (round to
//! nearest, carry into the exponent allowed), which the lossless stages
//! above then compress dramatically.  The documented bound, verified by
//! the tests in this module: for every finite normal `v`,
//!
//! ```text
//! |truncate_f64(v, m) − v| ≤ 2^−(m+1) · |v|      (relative error)
//! ```
//!
//! because keeping `m` mantissa bits quantises the significand in
//! `[1, 2)` to steps of `2^−m` and rounding to nearest halves the step.
//! NaN (any payload), `±inf` and `±0.0` are preserved exactly.
//! Subnormals degrade to an *absolute* bound of `2^(−1074 + 52 − m)`
//! (the quantisation is absolute once the exponent bottoms out).
//! Truncation is rejected by study-config validation for order-exact
//! acceptance runs (`max_concurrent_groups == 1`), whose contract is
//! bit-identical statistics across transports.

use crate::codec::{Buf, BufMut, Wire, WireError, WireResult};

/// Per-link wire compression mode, negotiated at connection handshake
/// and selectable per study ([`TcpTransportConfig`]'s and `StudyConfig`'s
/// `compression`/`wire_compression` fields).
///
/// [`TcpTransportConfig`]: crate::tcp::TcpTransportConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCompression {
    /// Frames cross the wire verbatim (the default).
    #[default]
    Off,
    /// Lossless in-frame compression: order-2 prediction + zigzag +
    /// byte-plane transpose + zero-run coding, raw fallback when a
    /// payload does not shrink.  Bit-identical doubles on ingest.
    Transpose,
    /// Reduced-precision transfer: the *client* rounds every field value
    /// to the top `mantissa_bits` mantissa bits before encoding (see the
    /// module docs for the `2^−(mantissa_bits+1)` relative error bound),
    /// and the wire additionally applies the lossless [`Transpose`]
    /// stages.  Opt-in; rejected for order-exact acceptance runs.
    ///
    /// [`Transpose`]: WireCompression::Transpose
    Truncate {
        /// Mantissa bits kept (1–52; 52 is a lossless no-op).
        mantissa_bits: u8,
    },
}

impl WireCompression {
    /// True when the transport should run the lossless wire codec
    /// (`Truncate` rides the same lossless stages over pre-rounded
    /// values).
    pub fn wire_codec_enabled(&self) -> bool {
        !matches!(self, WireCompression::Off)
    }

    /// True when values are altered in transfer (only `Truncate`).
    pub fn is_lossy(&self) -> bool {
        matches!(self, WireCompression::Truncate { .. })
    }

    /// Short human label for reports and bench ids.
    pub fn label(&self) -> String {
        match self {
            WireCompression::Off => "off".into(),
            WireCompression::Transpose => "transpose".into(),
            WireCompression::Truncate { mantissa_bits } => format!("truncate{mantissa_bits}"),
        }
    }
}

/// Two bytes, `(mode, mantissa_bits)`: the link handshake's proposal and
/// reply, and the `StudyConfig` field.  Unknown or malformed modes decode
/// as `Off` (forward compatibility: an unknown proposal is simply
/// declined).
impl Wire for WireCompression {
    const MIN_SIZE: usize = 2;

    fn encode_into<B: BufMut>(&self, buf: &mut B) {
        let (mode, bits) = match self {
            WireCompression::Off => (0, 0),
            WireCompression::Transpose => (1, 0),
            WireCompression::Truncate { mantissa_bits } => (2, *mantissa_bits),
        };
        buf.put_u8(mode);
        buf.put_u8(bits);
    }

    fn decode_from<B: Buf>(buf: &mut B) -> WireResult<Self> {
        Ok(match <(u8, u8)>::decode_from(buf)? {
            (1, _) => WireCompression::Transpose,
            (2, mantissa_bits @ 1..=52) => WireCompression::Truncate { mantissa_bits },
            _ => WireCompression::Off,
        })
    }
}

impl std::fmt::Display for WireCompression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Zero-run token space: `0x00..=0x7F` literal runs, `0x80..=0xFF` zero
/// runs (see module docs).
const MAX_LITERAL_RUN: usize = 128;
const MAX_ZERO_RUN: usize = 128;

#[inline]
fn zigzag(r: u64) -> u64 {
    let s = r as i64;
    ((s << 1) ^ (s >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> u64 {
    ((z >> 1) as i64 ^ -((z & 1) as i64)) as u64
}

/// Zero-run codes one byte plane into `out`.
fn rle_encode_plane(plane: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < plane.len() {
        if plane[i] == 0 {
            let mut run = 1;
            while run < MAX_ZERO_RUN && i + run < plane.len() && plane[i + run] == 0 {
                run += 1;
            }
            out.push(0x80 + (run as u8 - 1));
            i += run;
        } else {
            // Literal run: stop at the next zero PAIR (a lone zero inside
            // a literal run costs less as a literal than as two tokens).
            let start = i;
            let mut end = i + 1;
            while end < plane.len() && end - start < MAX_LITERAL_RUN {
                if plane[end] == 0 && (end + 1 >= plane.len() || plane[end + 1] == 0) {
                    break;
                }
                end += 1;
            }
            out.push((end - start - 1) as u8);
            out.extend_from_slice(&plane[start..end]);
            i = end;
        }
    }
}

/// Decodes one zero-run-coded plane of exactly `n` bytes.
fn rle_decode_plane(src: &[u8], pos: &mut usize, n: usize) -> WireResult<Vec<u8>> {
    let mut plane = Vec::with_capacity(n);
    while plane.len() < n {
        let token = *src.get(*pos).ok_or(WireError::Truncated {
            what: "compressed plane token",
        })?;
        *pos += 1;
        if token >= 0x80 {
            let run = (token - 0x7F) as usize;
            if plane.len() + run > n {
                return Err(WireError::Invalid {
                    what: "zero run overflows plane",
                });
            }
            plane.resize(plane.len() + run, 0);
        } else {
            let run = token as usize + 1;
            if plane.len() + run > n {
                return Err(WireError::Invalid {
                    what: "literal run overflows plane",
                });
            }
            let lit = src.get(*pos..*pos + run).ok_or(WireError::Truncated {
                what: "compressed plane literals",
            })?;
            plane.extend_from_slice(lit);
            *pos += run;
        }
    }
    Ok(plane)
}

/// Compresses one frame payload with the lossless transform described in
/// the module docs.  Returns `None` unless the result is strictly
/// smaller than the input (the caller then sends the payload raw), so
/// the wire path never regresses on incompressible data.
///
/// Layout of the compressed image:
/// `u32 LE original length · head bytes (len % 8, raw) · 8 × (u32 LE
/// plane length · u8 filter flag (0 = plain, 1 = byte-delta) ·
/// zero-run-coded plane)`.
pub fn compress_payload(payload: &[u8]) -> Option<Vec<u8>> {
    let n_words = payload.len() / 8;
    if n_words < 4 {
        return None; // too small for prediction to pay for the header
    }
    let head = payload.len() - n_words * 8;

    // Predict + zigzag in one pass, scattering into byte planes.
    let mut planes: Vec<Vec<u8>> = (0..8).map(|_| Vec::with_capacity(n_words)).collect();
    let (mut w1, mut w2) = (0u64, 0u64); // w(k−1), w(k−2)
    for chunk in payload[head..].chunks_exact(8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let pred = w1.wrapping_mul(2).wrapping_sub(w2);
        let z = zigzag(w.wrapping_sub(pred));
        let zb = z.to_le_bytes();
        for (plane, &b) in planes.iter_mut().zip(zb.iter()) {
            plane.push(b);
        }
        w2 = w1;
        w1 = w;
    }

    let mut out = Vec::with_capacity(payload.len() / 2);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload[..head]);
    let mut plain = Vec::new();
    let mut deltas = Vec::with_capacity(n_words);
    let mut delta_coded = Vec::new();
    for plane in &planes {
        // Code the plane both verbatim and byte-delta-filtered; the
        // delta turns a slowly-varying plane (the residual bits just
        // above the entropy floor of a smooth field) into zero runs.
        plain.clear();
        rle_encode_plane(plane, &mut plain);
        deltas.clear();
        let mut prev = 0u8;
        for &b in plane {
            deltas.push(b.wrapping_sub(prev));
            prev = b;
        }
        delta_coded.clear();
        rle_encode_plane(&deltas, &mut delta_coded);
        let (flag, coded) = if delta_coded.len() < plain.len() {
            (1u8, &delta_coded)
        } else {
            (0u8, &plain)
        };
        out.extend_from_slice(&(coded.len() as u32).to_le_bytes());
        out.push(flag);
        out.extend_from_slice(coded);
        if out.len() >= payload.len() {
            return None; // not shrinking: send raw
        }
    }
    Some(out)
}

/// Inverts [`compress_payload`], restoring the exact original payload.
pub fn decompress_payload(comp: &[u8]) -> WireResult<Vec<u8>> {
    let orig_len = u32::from_le_bytes(
        comp.get(..4)
            .ok_or(WireError::Truncated {
                what: "compressed payload length",
            })?
            .try_into()
            .expect("4 bytes"),
    ) as usize;
    let n_words = orig_len / 8;
    let head = orig_len - n_words * 8;
    let mut pos = 4;
    let head_bytes = comp.get(pos..pos + head).ok_or(WireError::Truncated {
        what: "compressed payload head",
    })?;
    let mut out = Vec::with_capacity(orig_len);
    out.extend_from_slice(head_bytes);
    pos += head;

    let mut planes = Vec::with_capacity(8);
    for _ in 0..8 {
        let plane_len = u32::from_le_bytes(
            comp.get(pos..pos + 4)
                .ok_or(WireError::Truncated {
                    what: "compressed plane length",
                })?
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        pos += 4;
        let flag = *comp.get(pos).ok_or(WireError::Truncated {
            what: "plane filter flag",
        })?;
        if flag > 1 {
            return Err(WireError::Invalid {
                what: "unknown plane filter flag",
            });
        }
        pos += 1;
        let end = pos + plane_len;
        if end > comp.len() {
            return Err(WireError::Truncated {
                what: "compressed plane body",
            });
        }
        let mut at = pos;
        let mut plane = rle_decode_plane(&comp[..end], &mut at, n_words)?;
        if at != end {
            return Err(WireError::Invalid {
                what: "trailing bytes after plane",
            });
        }
        if flag == 1 {
            // Undo the byte-delta filter with a wrapping prefix sum.
            let mut prev = 0u8;
            for b in plane.iter_mut() {
                prev = prev.wrapping_add(*b);
                *b = prev;
            }
        }
        planes.push(plane);
        pos = end;
    }
    if pos != comp.len() {
        return Err(WireError::Invalid {
            what: "trailing bytes after compressed payload",
        });
    }

    let (mut w1, mut w2) = (0u64, 0u64);
    for k in 0..n_words {
        let mut zb = [0u8; 8];
        for (b, plane) in zb.iter_mut().zip(planes.iter()) {
            *b = plane[k];
        }
        let pred = w1.wrapping_mul(2).wrapping_sub(w2);
        let w = pred.wrapping_add(unzigzag(u64::from_le_bytes(zb)));
        out.extend_from_slice(&w.to_le_bytes());
        w2 = w1;
        w1 = w;
    }
    Ok(out)
}

/// Rounds `v` to the top `mantissa_bits` bits of its 52-bit mantissa
/// (round to nearest on the dropped bits, carry into the exponent
/// allowed — a value may round up into the next binade, or to `±inf`
/// at the very top of the range, which is correct nearest-rounding).
///
/// Relative error for finite normal values: `≤ 2^−(mantissa_bits+1)`
/// (see the module docs for the derivation and the subnormal caveat).
/// NaN (payload preserved), `±inf` and `±0.0` pass through unchanged.
/// `mantissa_bits ≥ 52` is the identity.
pub fn truncate_f64(v: f64, mantissa_bits: u8) -> f64 {
    if mantissa_bits >= 52 || !v.is_finite() {
        return v;
    }
    let drop = 52 - mantissa_bits as u32;
    let half = 1u64 << (drop - 1);
    let mask = !((1u64 << drop) - 1);
    // Adding half-ULP-of-kept-precision then masking rounds to nearest;
    // a mantissa overflow carries into the exponent, which is exactly
    // the next-binade (or infinity) rounding IEEE-754 prescribes.
    f64::from_bits(v.to_bits().wrapping_add(half) & mask)
}

/// Rounds a whole field in place (the group client's pre-encode hook).
pub fn truncate_values(values: &mut [f64], mantissa_bits: u8) {
    for v in values.iter_mut() {
        *v = truncate_f64(*v, mantissa_bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(payload: &[u8]) {
        // `None` is the raw fallback: nothing to invert.
        if let Some(c) = compress_payload(payload) {
            assert!(c.len() < payload.len(), "compressed must be smaller");
            assert_eq!(decompress_payload(&c).unwrap(), payload);
        }
    }

    /// A smooth solver-like field: the fixture the ≥2× acceptance ratio
    /// is measured on (also used by the bench and the wire smoke).
    pub(crate) fn smooth_field(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                let tau = std::f64::consts::TAU;
                300.0 + 40.0 * (tau * x).sin() + 5.0 * (5.0 * tau * x).cos()
            })
            .collect()
    }

    fn as_bytes(values: &[f64]) -> Vec<u8> {
        // 3 head bytes mimic the data-frame header tail (35 % 8).
        let mut payload = vec![0xAB, 0xCD, 0xEF];
        for v in values {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload
    }

    #[test]
    fn smooth_field_compresses_at_least_2x() {
        let payload = as_bytes(&smooth_field(8192));
        let c = compress_payload(&payload).expect("smooth field must compress");
        let ratio = payload.len() as f64 / c.len() as f64;
        assert!(ratio >= 2.0, "ratio {ratio:.2} below the 2× acceptance bar");
        assert_eq!(decompress_payload(&c).unwrap(), payload);
    }

    #[test]
    fn adversarial_f64_fields_roundtrip_bit_exactly() {
        let nan_payload = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let fields: Vec<Vec<f64>> = vec![
            vec![0.0; 64],
            vec![-0.0; 64],
            [f64::NAN, nan_payload, f64::INFINITY, f64::NEG_INFINITY].repeat(16),
            (0..64).map(f64::from_bits).collect(), // subnormals
            [f64::MIN_POSITIVE, -f64::MIN_POSITIVE, f64::MAX, f64::MIN].repeat(16),
            vec![1.0; 64],
        ];
        for field in fields {
            let payload = as_bytes(&field);
            if let Some(c) = compress_payload(&payload) {
                let back = decompress_payload(&c).unwrap();
                assert_eq!(back, payload, "bit-exact roundtrip");
            }
        }
    }

    #[test]
    fn tiny_and_empty_payloads_fall_back_to_raw() {
        assert!(compress_payload(&[]).is_none());
        assert!(compress_payload(&[1, 2, 3]).is_none());
        assert!(compress_payload(&[0; 24]).is_none()); // < 4 words
    }

    #[test]
    fn high_entropy_payload_falls_back_to_raw() {
        // A keyed xorshift stream: incompressible by construction.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut payload = Vec::with_capacity(4096);
        for _ in 0..512 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            payload.extend_from_slice(&x.to_le_bytes());
        }
        assert!(
            compress_payload(&payload).is_none(),
            "high-entropy data must take the raw path, not grow on the wire"
        );
    }

    #[test]
    fn truncated_decode_is_an_error_not_a_panic() {
        let payload = as_bytes(&smooth_field(256));
        let c = compress_payload(&payload).unwrap();
        for cut in [0, 1, 3, 4, 7, c.len() / 2, c.len() - 1] {
            assert!(decompress_payload(&c[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected too.
        let mut long = c.clone();
        long.push(0);
        assert!(decompress_payload(&long).is_err());
    }

    #[test]
    fn truncate_error_bound_holds() {
        for m in [1u8, 8, 16, 24, 32, 44, 51] {
            let bound = 2.0f64.powi(-(m as i32) - 1);
            for &v in &[
                1.0,
                -1.0,
                1.5,
                303.7,
                -1e-8,
                1e17,
                std::f64::consts::PI,
                -std::f64::consts::E * 1e100,
            ] {
                let t = truncate_f64(v, m);
                let rel = ((t - v) / v).abs();
                assert!(
                    rel <= bound,
                    "m={m}: |{t} − {v}|/|{v}| = {rel:e} exceeds 2^−(m+1) = {bound:e}"
                );
            }
        }
    }

    #[test]
    fn truncate_preserves_specials_and_identity_cases() {
        let nan_payload = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        for m in [1u8, 20, 52, 60] {
            assert!(truncate_f64(f64::NAN, m).is_nan());
            assert_eq!(
                truncate_f64(nan_payload, m).to_bits(),
                nan_payload.to_bits(),
                "NaN payload preserved"
            );
            assert_eq!(truncate_f64(f64::INFINITY, m), f64::INFINITY);
            assert_eq!(truncate_f64(f64::NEG_INFINITY, m), f64::NEG_INFINITY);
            assert_eq!(truncate_f64(0.0, m).to_bits(), 0.0f64.to_bits());
            assert_eq!(truncate_f64(-0.0, m).to_bits(), (-0.0f64).to_bits());
        }
        // m ≥ 52 is the identity on everything.
        assert_eq!(truncate_f64(std::f64::consts::PI, 52), std::f64::consts::PI);
    }

    #[test]
    fn truncate_rounds_to_nearest() {
        // 1 + 2^−2 with m = 1: the kept grid is {1.0, 1.5, 2.0}; 1.25 is
        // a tie rounded away from zero by the add-half carry.
        assert_eq!(truncate_f64(1.25, 1), 1.5);
        assert_eq!(truncate_f64(1.2, 1), 1.0);
        assert_eq!(truncate_f64(1.3, 1), 1.5);
        // Carry into the exponent: just-below-2 rounds up to 2.
        assert_eq!(truncate_f64(1.999999, 8), 2.0);
    }

    #[test]
    fn wire_mode_roundtrips() {
        for mode in [
            WireCompression::Off,
            WireCompression::Transpose,
            WireCompression::Truncate { mantissa_bits: 20 },
        ] {
            assert_eq!(
                WireCompression::decode_from(&mut mode.to_bytes()).unwrap(),
                mode
            );
        }
        // Unknown or malformed proposals are declined, not errors.
        let decline = |pair: [u8; 2]| WireCompression::decode_from(&mut &pair[..]).unwrap();
        assert_eq!(decline([9, 0]), WireCompression::Off);
        assert_eq!(decline([2, 0]), WireCompression::Off);
        assert_eq!(decline([2, 53]), WireCompression::Off);
        assert_eq!(
            WireCompression::Truncate { mantissa_bits: 20 }.label(),
            "truncate20"
        );
        assert!(WireCompression::Truncate { mantissa_bits: 20 }.is_lossy());
        assert!(!WireCompression::Transpose.is_lossy());
        assert!(WireCompression::Transpose.wire_codec_enabled());
        assert!(!WireCompression::Off.wire_codec_enabled());
    }

    /// Uniform byte strategy (the vendored shim has no `any::<u8>()`).
    fn any_byte() -> impl Strategy<Value = u8> {
        (0u16..256).prop_map(|b| b as u8)
    }

    proptest! {
        #[test]
        fn arbitrary_payloads_roundtrip(
            payload in prop::collection::vec(any_byte(), 0..2048),
        ) {
            roundtrip(&payload);
        }

        #[test]
        fn arbitrary_f64_fields_roundtrip(
            // Raw bit patterns cover NaN payloads, ±inf, subnormals and
            // ±0.0; the smooth tail exercises the compressible path in
            // the same payload.
            bits in prop::collection::vec(0u64..u64::MAX, 0..512),
            head in prop::collection::vec(any_byte(), 0..8),
            smooth in prop::collection::vec(-1.0e3..1.0e3f64, 0..64),
        ) {
            let mut payload = head;
            for b in &bits {
                payload.extend_from_slice(&f64::from_bits(*b).to_le_bytes());
            }
            for v in &smooth {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            roundtrip(&payload);
        }

        #[test]
        fn truncate_bound_holds_for_arbitrary_normals(
            v in prop::num::f64::NORMAL,
            m in 1u8..53,
        ) {
            let t = truncate_f64(v, m);
            let bound = 2.0f64.powi(-(m as i32) - 1);
            // t can carry up to ±inf only from the very top binade, where
            // the bound still holds measured toward the rounded boundary;
            // for every representable result the relative bound is exact.
            if t.is_finite() {
                prop_assert!(((t - v) / v).abs() <= bound);
            } else {
                prop_assert!(v.abs() >= f64::MAX * (1.0 - bound));
            }
        }

        #[test]
        fn decompress_never_panics_on_garbage(
            junk in prop::collection::vec(any_byte(), 0..512),
        ) {
            let _ = decompress_payload(&junk);
        }
    }
}
