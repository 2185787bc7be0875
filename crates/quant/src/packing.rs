//! Bit-level serialization of MX-OPAL tensors.
//!
//! [`MxOpalTensor::storage_bits`](crate::MxOpalTensor::storage_bits) *counts*
//! the wire size; this module actually produces the wire format — the byte
//! stream the OPAL global buffer and DRAM would hold — and decodes it back.
//! The encoded size is asserted to match the accounting bit-for-bit, which
//! pins the Eq. (1)-style overhead model to a real representation.
//!
//! Layout (all fields little-endian bit order, MSB-first within a field):
//!
//! ```text
//! header:  u8  element bits | u16 block size | u8 outliers per block |
//!          u32 element count | i8 global scale
//! per block:
//!          u4  scale offset
//!          n × (ceil(log2 k) bits index, u16 bfloat16 value)
//!          (len − n) × b-bit two's-complement elements, packed
//! ```

use opal_numerics::Bf16;

use crate::{MxOpalBlock, MxOpalQuantizer, MxOpalTensor, QuantError};

/// Error decoding a packed MX-OPAL stream.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum UnpackError {
    /// The stream ended before the declared payload.
    Truncated,
    /// A header field is inconsistent (e.g. zero block size).
    BadHeader(&'static str),
}

impl std::fmt::Display for UnpackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnpackError::Truncated => write!(f, "packed stream ended early"),
            UnpackError::BadHeader(what) => write!(f, "invalid header field: {what}"),
        }
    }
}

impl std::error::Error for UnpackError {}

/// A bit-granular writer.
#[derive(Debug, Default)]
struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    fn push(&mut self, value: u64, bits: u32) {
        debug_assert!(bits <= 64);
        for i in (0..bits).rev() {
            let bit = (value >> i) & 1;
            let byte_idx = self.bit_len / 8;
            if byte_idx == self.bytes.len() {
                self.bytes.push(0);
            }
            if bit == 1 {
                self.bytes[byte_idx] |= 1 << (7 - (self.bit_len % 8));
            }
            self.bit_len += 1;
        }
    }
}

/// A bit-granular reader.
#[derive(Debug)]
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    fn pull(&mut self, bits: u32) -> Result<u64, UnpackError> {
        let mut out = 0u64;
        for _ in 0..bits {
            let byte_idx = self.pos / 8;
            if byte_idx >= self.bytes.len() {
                return Err(UnpackError::Truncated);
            }
            let bit = (self.bytes[byte_idx] >> (7 - (self.pos % 8))) & 1;
            out = (out << 1) | u64::from(bit);
            self.pos += 1;
        }
        Ok(out)
    }
}

/// Bits in the self-describing stream header.
pub const HEADER_BITS: usize = 8 + 16 + 8 + 32 + 8;

fn idx_bits(block_size: usize) -> u32 {
    usize::BITS - (block_size - 1).leading_zeros()
}

/// Serializes an encoded MX-OPAL tensor to bytes.
///
/// The payload portion (everything after the self-describing header) is
/// exactly [`MxOpalTensor::storage_bits`] bits long, rounded up to whole
/// bytes at the end of the stream.
pub fn pack(tensor: &MxOpalTensor) -> Vec<u8> {
    let bits = tensor.bits();
    let k = tensor.block_size();
    let n_out = tensor.blocks.first().map(|b| b.outliers.len()).unwrap_or(0);
    let ib = idx_bits(k);

    let mut w = BitWriter::default();
    w.push(u64::from(bits), 8);
    w.push(k as u64, 16);
    w.push(n_out as u64, 8);
    w.push(tensor.len() as u64, 32);
    w.push((tensor.global_scale as i8) as u8 as u64, 8);

    for block in &tensor.blocks {
        w.push(u64::from(block.scale_offset), 4);
        // Outlier count can differ only in a short tail block; encode it.
        w.push(block.outliers.len() as u64, 8);
        for &(idx, val) in &block.outliers {
            w.push(u64::from(idx), ib);
            w.push(u64::from(val.to_bits()), 16);
        }
        let outlier_set: Vec<u16> = block.outliers.iter().map(|&(i, _)| i).collect();
        for (i, &q) in block.elements.iter().enumerate() {
            if outlier_set.contains(&(i as u16)) {
                continue;
            }
            let mask = (1u64 << bits) - 1;
            w.push((q as i64 as u64) & mask, bits);
        }
    }
    w.bytes
}

/// Deserializes a packed MX-OPAL stream.
///
/// # Errors
///
/// Returns [`UnpackError`] if the stream is truncated or the header is
/// inconsistent.
pub fn unpack(bytes: &[u8]) -> Result<MxOpalTensor, UnpackError> {
    let mut r = BitReader::new(bytes);
    let bits = r.pull(8)? as u32;
    if !(2..=8).contains(&bits) {
        return Err(UnpackError::BadHeader("element bits"));
    }
    let k = r.pull(16)? as usize;
    if k == 0 {
        return Err(UnpackError::BadHeader("block size"));
    }
    let _n_out = r.pull(8)? as usize;
    let len = r.pull(32)? as usize;
    let global_scale = i32::from(r.pull(8)? as u8 as i8);
    let ib = idx_bits(k);

    let mut blocks = Vec::new();
    let mut remaining = len;
    while remaining > 0 {
        let this_len = remaining.min(k);
        let scale_offset = r.pull(4)? as u8;
        let n = r.pull(8)? as usize;
        if n > this_len.max(1) {
            return Err(UnpackError::BadHeader("outlier count"));
        }
        let mut outliers = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = r.pull(ib)? as u16;
            let val = Bf16::from_bits(r.pull(16)? as u16);
            outliers.push((idx, val));
        }
        let outlier_set: Vec<u16> = outliers.iter().map(|&(i, _)| i).collect();
        let mut elements = vec![0i32; this_len];
        for (i, e) in elements.iter_mut().enumerate() {
            if outlier_set.contains(&(i as u16)) {
                continue;
            }
            let raw = r.pull(bits)?;
            // Sign-extend the b-bit two's-complement field.
            let shift = 64 - bits;
            *e = (((raw << shift) as i64) >> shift) as i32;
        }
        blocks.push(MxOpalBlock { scale_offset, outliers, elements });
        remaining -= this_len;
    }

    Ok(MxOpalTensor::from_parts(global_scale, blocks, bits, k, len))
}

/// Quantizes, packs, unpacks and dequantizes in one call — the full wire
/// round trip.
///
/// # Errors
///
/// Propagates quantizer configuration errors (the pack/unpack round trip
/// itself cannot fail on a freshly encoded tensor).
pub fn roundtrip_through_wire(
    q: &MxOpalQuantizer,
    x: &[f32],
) -> Result<(Vec<u8>, Vec<f32>), QuantError> {
    let t = q.quantize(x);
    let bytes = pack(&t);
    // tidy: allow(panic) -- pack() output always satisfies unpack()'s format checks
    let back = unpack(&bytes).expect("self-produced stream is valid");
    Ok((bytes, back.dequantize()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Quantizer;
    use opal_tensor::rng::TensorRng;

    fn sample(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = TensorRng::seed(seed);
        let ch = rng.distinct_indices(len, (len / 90).max(1));
        rng.outlier_vector(len, 1.0, &ch, 30.0)
    }

    #[test]
    fn roundtrip_is_lossless_over_the_wire() {
        for bits in [3u32, 4, 5, 7] {
            let q = MxOpalQuantizer::new(bits, 128, 4).unwrap();
            let x = sample(512, u64::from(bits));
            let direct = q.quantize_dequantize(&x);
            let (_, wire) = roundtrip_through_wire(&q, &x).unwrap();
            assert_eq!(direct, wire, "bits={bits}");
        }
    }

    #[test]
    fn outlier_indices_past_a_byte_stay_in_place() {
        // A block of 300: the outlier's index, 280, does not fit a byte.
        let q = MxOpalQuantizer::new(4, 300, 4).unwrap();
        let mut x = vec![0.25f32; 300];
        x[280] = 40.0;
        let direct = q.quantize(&x).dequantize();
        assert_eq!((direct[280], direct[24]), (40.0, 0.25));
        let (_, wire) = roundtrip_through_wire(&q, &x).unwrap();
        assert_eq!(wire, direct);
        assert_eq!(q.quantize_dequantize(&x), direct);
    }

    #[test]
    fn packed_size_matches_accounting() {
        let q = MxOpalQuantizer::new(4, 128, 4).unwrap();
        let x = sample(128 * 8, 5);
        let t = q.quantize(&x);
        let bytes = pack(&t);
        // Payload = storage_bits minus the 8-bit global scale (held in the
        // header) plus the per-block 8-bit outlier-count fields, plus the
        // header, rounded up to bytes.
        let payload_bits = t.storage_bits() - 8 + 8 * t.blocks.len();
        let expect_bits = HEADER_BITS + payload_bits;
        assert_eq!(bytes.len(), expect_bits.div_ceil(8));
    }

    #[test]
    fn partial_tail_block_roundtrips() {
        let q = MxOpalQuantizer::new(5, 64, 2).unwrap();
        let x = sample(150, 9); // 2 full blocks + 22-element tail
        let direct = q.quantize_dequantize(&x);
        let (_, wire) = roundtrip_through_wire(&q, &x).unwrap();
        assert_eq!(direct, wire);
    }

    #[test]
    fn negative_elements_sign_extend() {
        let q = MxOpalQuantizer::new(3, 16, 1).unwrap();
        let x: Vec<f32> = (0..16).map(|i| if i % 2 == 0 { -1.0 } else { 1.0 } * i as f32).collect();
        let direct = q.quantize_dequantize(&x);
        let (_, wire) = roundtrip_through_wire(&q, &x).unwrap();
        assert_eq!(direct, wire);
        assert!(wire.iter().any(|&v| v < 0.0), "negatives survive the wire");
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let q = MxOpalQuantizer::new(4, 128, 4).unwrap();
        let t = q.quantize(&sample(256, 2));
        let bytes = pack(&t);
        for cut in [0usize, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(unpack(&bytes[..cut]), Err(UnpackError::Truncated)));
        }
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let q = MxOpalQuantizer::new(4, 128, 4).unwrap();
        let mut bytes = pack(&q.quantize(&sample(128, 3)));
        bytes[0] = 1; // element bits = 1: invalid
        assert!(matches!(unpack(&bytes), Err(UnpackError::BadHeader(_))));
    }

    #[test]
    fn empty_tensor_roundtrips() {
        let q = MxOpalQuantizer::new(4, 128, 4).unwrap();
        let t = q.quantize(&[]);
        let bytes = pack(&t);
        let back = unpack(&bytes).unwrap();
        assert_eq!(back.len(), 0);
        assert!(back.dequantize().is_empty());
    }

    #[test]
    fn compression_ratio_vs_f32() {
        let q = MxOpalQuantizer::new(4, 128, 4).unwrap();
        let x = sample(4096, 7);
        let (bytes, _) = roundtrip_through_wire(&q, &x).unwrap();
        let ratio = (x.len() * 4) as f64 / bytes.len() as f64;
        // ~4.6 effective bits per element -> ~6.9x smaller than f32.
        assert!((6.0..7.5).contains(&ratio), "compression ratio {ratio}");
    }
}
