//! Scalar quantization primitives for embedding-table storage.
//!
//! Two lossy encodings back the v2 snapshot container
//! ([`crate::checkpoint`]) and the quantized [`crate::TableStorage`]
//! variants:
//!
//! - **f16** (IEEE 754 binary16): 2 bytes/element, round-to-nearest-even
//!   conversion. Relative error is bounded by `2^-11` for normal values,
//!   which is far below what top-k ranking can resolve.
//! - **int8 with per-row scale**: 1 byte/element plus one `f32` scale per
//!   row. Each row is encoded as `q = round(x / scale)` with
//!   `scale = max_abs(row) / 127`, so the absolute error per element is
//!   bounded by `scale / 2 = max_abs / 254`. Zero rows (and constant-zero
//!   rows) encode with scale 0 and decode exactly.
//!
//! Both directions are deterministic pure functions of their inputs —
//! quantize-then-dequantize is reproducible bit for bit across runs and
//! machines, which the snapshot differential gates rely on.

/// Converts an `f32` to IEEE 754 binary16 bits, rounding to
/// nearest-even. Overflow saturates to infinity; NaN maps to a quiet
/// NaN.
pub(crate) fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN: keep NaN-ness (set a mantissa bit), else infinity.
        return sign | 0x7c00 | if mant != 0 { 0x0200 } else { 0 };
    }
    // Re-bias from f32 (127) to f16 (15).
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow -> +-inf
    }
    if unbiased >= -14 {
        // Normal f16: 10 mantissa bits, round to nearest-even on the 13
        // dropped bits.
        let half_exp = ((unbiased + 15) as u32) << 10;
        let half_mant = mant >> 13;
        let rounded = half_exp + half_mant + round_bit(mant, 13);
        return sign | rounded as u16;
    }
    if unbiased >= -24 {
        // Subnormal f16: shift the implicit leading 1 into the mantissa.
        let shift = (-14 - unbiased) as u32; // 1..=10
        let full = mant | 0x0080_0000;
        let half_mant = full >> (13 + shift);
        let rounded = half_mant + round_bit(full, 13 + shift);
        return sign | rounded as u16;
    }
    sign // underflow to signed zero
}

/// The round-to-nearest-even increment for dropping the low `shift` bits
/// of `mant`.
fn round_bit(mant: u32, shift: u32) -> u32 {
    let halfway = 1u32 << (shift - 1);
    let rem = mant & ((1u32 << shift) - 1);
    let kept_lsb = (mant >> shift) & 1;
    u32::from(rem > halfway || (rem == halfway && kept_lsb == 1))
}

/// Converts IEEE 754 binary16 bits back to `f32` (exact — every f16
/// value is representable in f32).
pub(crate) fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = u32::from(bits & 0x8000) << 16;
    let exp = (bits >> 10) & 0x1f;
    let mant = u32::from(bits & 0x03ff);
    let out = match (exp, mant) {
        (0, 0) => sign, // signed zero
        (0, m) => {
            // Subnormal (value = m * 2^-24): normalize into f32. With p
            // the highest set bit of the 10-bit m, shift = 10 - p moves
            // the leading 1 out of the fraction field and the biased f32
            // exponent is 127 + (p - 24) = 113 - shift.
            let shift = m.leading_zeros() - 21; // 1..=10
            let e = 113 - shift;
            let frac = (m << shift) & 0x03ff;
            sign | (e << 23) | (frac << 13)
        }
        (0x1f, 0) => sign | 0x7f80_0000,             // +-inf
        (0x1f, m) => sign | 0x7f80_0000 | (m << 13), // NaN
        (e, m) => sign | ((u32::from(e) + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(out)
}

/// Encodes `row` into int8 with a shared per-row scale, writing the
/// quantized bytes into `out` and returning the scale.
///
/// `scale = max_abs(row) / 127`; each element becomes
/// `clamp(round(x / scale), -127, 127)`. An all-zero row returns scale
/// `0.0` and zero bytes (decoding is exact). Non-finite inputs are the
/// caller's bug — checkpoints of non-finite weights are rejected
/// upstream.
///
/// # Panics
/// Panics if `out.len() != row.len()`.
pub fn quantize_row_i8(row: &[f32], out: &mut [i8]) -> f32 {
    assert_eq!(row.len(), out.len(), "quantize_row_i8 length mismatch");
    let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    if max_abs == 0.0 {
        out.fill(0);
        return 0.0;
    }
    let scale = max_abs / 127.0;
    let inv = 127.0 / max_abs;
    for (q, &x) in out.iter_mut().zip(row) {
        *q = (x * inv).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// Decodes an int8 row back to `f32`: `x = q * scale`.
///
/// # Panics
/// Panics if `out.len() != q.len()`.
pub fn dequantize_row_i8(q: &[i8], scale: f32, out: &mut [f32]) {
    assert_eq!(q.len(), out.len(), "dequantize_row_i8 length mismatch");
    for (o, &v) in out.iter_mut().zip(q) {
        *o = f32::from(v) * scale;
    }
}

/// The worst-case absolute reconstruction error of
/// [`quantize_row_i8`]-then-[`dequantize_row_i8`] for a row with the
/// given max-abs value: half a quantization step.
pub fn i8_row_error_bound(max_abs: f32) -> f32 {
    // Elements are rounded to the nearest multiple of `scale`, so the
    // reconstruction is off by at most scale/2 (plus one ulp of the
    // scale multiply, absorbed by the callers' tolerance).
    max_abs / 127.0 * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_roundtrip_is_exact_for_representable_values() {
        for &x in &[
            0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25, 1.5, -3.75,
        ] {
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            assert_eq!(back.to_bits(), x.to_bits(), "{x} round-tripped to {back}");
        }
    }

    #[test]
    fn f16_relative_error_is_bounded_for_normals() {
        let mut x = 6.1e-5f32; // just above the f16 normal threshold
        while x < 6.0e4 {
            for v in [x, -x] {
                let back = f16_bits_to_f32(f32_to_f16_bits(v));
                let rel = ((back - v) / v).abs();
                assert!(rel <= 1.0 / 2048.0, "{v} -> {back}: rel err {rel}");
            }
            x *= 1.7;
        }
    }

    #[test]
    fn f16_specials() {
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Overflow saturates to infinity.
        assert_eq!(f32_to_f16_bits(1e10), 0x7c00);
        // Deep underflow flushes to signed zero.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e-20)), 0.0);
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(-1e-20)).to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    fn f16_subnormals_roundtrip() {
        // Smallest positive f16 subnormal is 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(tiny)), tiny);
        let sub = 3.0 * 2.0f32.powi(-24);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(sub)), sub);
    }

    #[test]
    fn i8_roundtrip_error_bound() {
        let row = [0.9f32, -0.3, 0.0001, 0.5, -0.77, 0.123];
        let mut q = [0i8; 6];
        let scale = quantize_row_i8(&row, &mut q);
        let mut back = [0f32; 6];
        dequantize_row_i8(&q, scale, &mut back);
        let bound = i8_row_error_bound(0.9) * 1.0001;
        for (&x, &y) in row.iter().zip(&back) {
            assert!((x - y).abs() <= bound, "{x} -> {y}");
        }
    }

    #[test]
    fn i8_zero_row_is_exact() {
        let row = [0.0f32; 8];
        let mut q = [1i8; 8];
        let scale = quantize_row_i8(&row, &mut q);
        assert_eq!(scale, 0.0);
        assert_eq!(q, [0i8; 8]);
        let mut back = [9f32; 8];
        dequantize_row_i8(&q, scale, &mut back);
        assert_eq!(back, [0.0f32; 8]);
    }

    #[test]
    fn i8_constant_row_is_exact() {
        // A constant row hits the +-127 codes exactly: q = +-127,
        // dequant = 127 * (c/127) which reproduces c up to one ulp.
        let row = [0.42f32; 5];
        let mut q = [0i8; 5];
        let scale = quantize_row_i8(&row, &mut q);
        assert_eq!(q, [127i8; 5]);
        let mut back = [0f32; 5];
        dequantize_row_i8(&q, scale, &mut back);
        for &y in &back {
            assert!((y - 0.42).abs() <= f32::EPSILON * 0.42 * 2.0);
        }
    }
}
