//! Property-based tests of the quantizer invariants.

use opal_numerics::Rounding;
use opal_quant::{EncodeScratch, MinMaxQuantizer, MxIntQuantizer, MxOpalQuantizer, Quantizer};
use opal_tensor::stats::{min_max, mse};
use proptest::prelude::*;

/// Random activation blocks, optionally with injected outliers.
fn block(len: usize) -> impl Strategy<Value = Vec<f32>> {
    (
        proptest::collection::vec(-4.0f32..4.0, len),
        proptest::collection::vec((0..len, -500.0f32..500.0), 0..4),
    )
        .prop_map(|(mut v, outliers)| {
            for (i, o) in outliers {
                v[i] = o;
            }
            v
        })
}

/// Rows built to make the top-`(n + 1)` selection's tie-breaks decide the
/// encoding: a handful of repeated magnitudes under both signs, signed
/// zeros and subnormals, with a few distinct values between them — and, in
/// a build without debug assertions (`cargo test --release`), NaNs of
/// either sign. The scratch encoders quantize outlier positions before
/// overwriting them, so in a debug build a NaN trips `shift_quantize`'s
/// finite-input assertion; `select_top`'s unit tests rank NaNs in every
/// build.
fn tie_heavy_row(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec((0u32..12, -3.0f32..3.0), len).prop_map(|raw| {
        raw.into_iter()
            .map(|(class, x)| match class {
                0 | 1 => 2.0f32.copysign(x),
                2 => 0.5f32.copysign(x),
                3 => 96.0f32.copysign(x),
                4 | 5 => 0.0f32.copysign(x),
                6 => 1.0e-40f32.copysign(x),
                7 if !cfg!(debug_assertions) => f32::NAN.copysign(x),
                _ => x,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mxopal_scratch_path_is_bit_identical_to_allocating(
        x in block(300),
        bits in 2u32..=8,
        block_size in prop_oneof![1usize..40, 257usize..258, 300usize..301],
        n in 0usize..8,
        truncate in 0u32..2,
    ) {
        // The fused two-pass encoder behind `quantize_dequantize_scratch`
        // is an independent rewrite of the tensor-global spec: same outlier
        // selection under stable tie-breaks, same (n+1)-th-magnitude block
        // scales, same 4-bit global-offset clamp. Compare raw f32 bits so
        // even a -0.0/0.0 divergence would fail. The scratch workspace is
        // deliberately reused across every length and configuration to
        // prove it carries no state between calls.
        let rounding = if truncate == 1 { Rounding::Truncate } else { Rounding::NearestEven };
        let n = n.min(block_size - 1);
        let q = MxOpalQuantizer::with_rounding(bits, block_size, n, rounding).unwrap();
        let mut scratch = EncodeScratch::new();
        for len in [0usize, 1, block_size, block_size + 1, 2 * block_size + 1, 300] {
            let len = len.min(x.len());
            let spec = q.quantize(&x[..len]).dequantize();
            let mut fused = vec![f32::NAN; len];
            q.quantize_dequantize_scratch(&x[..len], &mut fused, &mut scratch);
            let spec_bits: Vec<u32> = spec.iter().map(|v| v.to_bits()).collect();
            let fused_bits: Vec<u32> = fused.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&spec_bits, &fused_bits, "scratch path diverged, len {}", len);
        }
    }

    #[test]
    fn mxopal_keyed_selection_matches_the_allocating_sort(
        x in tie_heavy_row(300),
        bits in 2u32..=8,
        n in 0usize..8,
        size_sel in 0usize..5,
    ) {
        // The scratch encoders pick each block's outliers and scale element
        // by repeated maximum over (magnitude, reversed index) keys; the
        // allocating `quantize` sorts the whole block stably by `abs_cmp`.
        // On rows where most magnitudes repeat, which elements are kept,
        // in which rank order, and which one sets the scale all hang on the
        // tie-break — and the rank order is the slot order of a KV page,
        // which the attention walk sums in. Block sizes cover a block of
        // one element, one with exactly `n + 1`, one past 128, and short
        // final blocks with `outliers >= len - 1`.
        let block_size = [1usize, n + 1, 129, 7, 32][size_sel];
        let n = n.min(block_size - 1);
        let q = MxOpalQuantizer::new(bits, block_size, n).unwrap();
        let mut scratch = EncodeScratch::new();
        for len in [1usize, 2, n + 1, n + 2, block_size + 1, 129, 2 * block_size + n, 300] {
            let mut x = x[..len.min(x.len())].to_vec();
            let len = x.len();
            // A NaN past a block's outlier budget would reach
            // `shift_quantize`, whose contract excludes non-finite input.
            for chunk in x.chunks_mut(block_size) {
                let budget = n.min(chunk.len() - 1);
                for v in chunk.iter_mut().filter(|v| v.is_nan()).skip(budget) {
                    *v = 448.0;
                }
            }
            let qpr = len.div_ceil(block_size);
            let mut codes = vec![0i8; len];
            let mut scales = vec![0i16; qpr];
            let mut out_idx = vec![0u16; qpr * n];
            let mut out_val = vec![opal_numerics::Bf16::ZERO; qpr * n];
            let mut out_len = vec![0u8; qpr];
            q.encode_row_scratch(
                &x, &mut codes, &mut scales, &mut out_idx, &mut out_val, &mut out_len,
                &mut scratch,
            );
            let spec = q.quantize(&x);
            for (b, block) in spec.blocks.iter().enumerate() {
                let start = b * block_size;
                let bf: Vec<opal_numerics::Bf16> = x[start..start + block.elements.len()]
                    .iter()
                    .map(|&v| opal_numerics::Bf16::from_f32(v))
                    .collect();
                let mut order: Vec<usize> = (0..bf.len()).collect();
                order.sort_by(|&a, &b| bf[b].abs_cmp(bf[a]));
                let kept = usize::from(out_len[b]);
                prop_assert_eq!(kept, n.min(bf.len() - 1), "len {} block {}", len, b);
                let slots = b * n..b * n + kept;
                let ranked: Vec<usize> =
                    out_idx[slots.clone()].iter().map(|&i| usize::from(i)).collect();
                prop_assert_eq!(&ranked, &order[..kept], "rank order, len {} block {}", len, b);
                let mut pairs: Vec<(u16, u16)> = out_idx[slots.clone()]
                    .iter()
                    .zip(&out_val[slots])
                    .map(|(&i, v)| (i, v.to_bits()))
                    .collect();
                pairs.sort_unstable();
                let want: Vec<(u16, u16)> =
                    block.outliers.iter().map(|&(i, v)| (i, v.to_bits())).collect();
                prop_assert_eq!(&pairs, &want, "outliers, len {} block {}", len, b);
                prop_assert_eq!(
                    i32::from(scales[b]),
                    spec.global_scale + i32::from(block.scale_offset),
                    "scale, len {} block {}", len, b
                );
                let got: Vec<i32> = codes[start..start + bf.len()].iter().map(|&c| c.into()).collect();
                prop_assert_eq!(&got, &block.elements, "codes, len {} block {}", len, b);
            }
            let mut fused = vec![0.0f32; len];
            q.quantize_dequantize_scratch(&x, &mut fused, &mut scratch);
            let fused_bits: Vec<u32> = fused.iter().map(|v| v.to_bits()).collect();
            let spec_bits: Vec<u32> = spec.dequantize().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&fused_bits, &spec_bits, "round trip, len {}", len);
        }
    }

    #[test]
    fn quantize_dequantize_into_matches_allocating_api(x in block(96), bits in 2u32..=8) {
        // The in-place entry point the decode loop calls must reproduce each
        // format's allocating specification exactly, including the odd-sized
        // final block. MXINT's `encode_block`/`decode_block` composition and
        // MX-OPAL's structured `quantize(..).dequantize()` are independent
        // of the streaming encoders behind the trait; MinMax's allocating
        // convenience delegates, so its comparison only smoke-tests the
        // wrapper.
        let mxint = MxIntQuantizer::new(bits, 32).unwrap();
        let mxopal = MxOpalQuantizer::new(bits.min(6), 32, 2).unwrap();
        let minmax = MinMaxQuantizer::new(bits, 32).unwrap();
        for len in [1usize, 31, 32, 33, 96] {
            let x = &x[..len];
            let into = |q: &dyn Quantizer| {
                let mut out = vec![f32::NAN; len];
                q.quantize_dequantize_scratch(x, &mut out, &mut EncodeScratch::new());
                out
            };
            let mxint_spec: Vec<f32> =
                x.chunks(32).flat_map(|b| mxint.decode_block(&mxint.encode_block(b))).collect();
            prop_assert_eq!(into(&mxint), mxint_spec, "MXINT len {}", len);
            prop_assert_eq!(into(&mxopal), mxopal.quantize(x).dequantize(), "MX-OPAL len {}", len);
            prop_assert_eq!(into(&minmax), minmax.quantize_dequantize(x), "MinMax len {}", len);
        }
    }

    #[test]
    fn scratch_trait_path_matches_allocating_for_all_formats(
        x in block(96),
        bits in 2u32..=8,
    ) {
        // One workspace reused across formats must carry capacity, never
        // state: every implementation must agree with its allocating
        // specification through the scratch entry point the decode loop
        // actually calls (MinMax has no separate spec; its allocating
        // convenience delegates).
        let minmax = MinMaxQuantizer::new(bits, 32).unwrap();
        let mxint = MxIntQuantizer::new(bits, 32).unwrap();
        let mxopal = MxOpalQuantizer::new(bits, 32, 2).unwrap();
        let mxint_spec: Vec<f32> =
            x.chunks(32).flat_map(|b| mxint.decode_block(&mxint.encode_block(b))).collect();
        let cases: [(&dyn Quantizer, Vec<f32>); 3] = [
            (&minmax, minmax.quantize_dequantize(&x)),
            (&mxint, mxint_spec),
            (&mxopal, mxopal.quantize(&x).dequantize()),
        ];
        let mut scratch = EncodeScratch::new();
        for (q, spec) in &cases {
            let mut out = vec![0.0f32; x.len()];
            q.quantize_dequantize_scratch(&x, &mut out, &mut scratch);
            prop_assert_eq!(&out, spec, "{}", q.name());
        }
    }

    #[test]
    fn block_scratch_rows_match_per_row_calls(
        x in block(96),
        bits in 2u32..=8,
        width_sel in 0usize..3,
    ) {
        // Chunked prefill quantizes a whole block of token rows through one
        // shared scratch: that must reproduce a fresh workspace per row
        // bit-for-bit (the workspace carries capacity, never state) for
        // every format family.
        let width = [8usize, 24, 96][width_sel];
        let quantizers: [Box<dyn Quantizer>; 3] = [
            Box::new(MinMaxQuantizer::new(bits, 32).unwrap()),
            Box::new(MxIntQuantizer::new(bits, 32).unwrap()),
            Box::new(MxOpalQuantizer::new(bits, 16, 2).unwrap()),
        ];
        let mut scratch = EncodeScratch::new();
        for q in &quantizers {
            let mut fused = vec![0.0f32; x.len()];
            let mut by_row = vec![0.0f32; x.len()];
            for ((xi, fi), oi) in
                x.chunks_exact(width).zip(fused.chunks_exact_mut(width)).zip(by_row.chunks_exact_mut(width))
            {
                q.quantize_dequantize_scratch(xi, fi, &mut scratch);
                q.quantize_dequantize_scratch(xi, oi, &mut EncodeScratch::new());
            }
            prop_assert_eq!(&fused, &by_row, "{} width {}", q.name(), width);
        }
    }

    #[test]
    fn mxint_streaming_into_matches_block_api(x in block(96), bits in 2u32..=8) {
        // Belt and braces for the streaming MXINT rewrite: compare it
        // directly against the explicit block encode/decode composition.
        let q = MxIntQuantizer::new(bits, 32).unwrap();
        let mut out = vec![0.0f32; x.len()];
        q.quantize_dequantize_scratch(&x, &mut out, &mut EncodeScratch::new());
        let mut reference = Vec::with_capacity(x.len());
        for chunk in x.chunks(32) {
            reference.extend(q.decode_block(&q.encode_block(chunk)));
        }
        prop_assert_eq!(out, reference);
    }

    #[test]
    fn minmax_reconstruction_stays_in_range(x in block(128), bits in 2u32..=8) {
        let q = MinMaxQuantizer::new(bits, 128).unwrap();
        let y = q.quantize_dequantize(&x);
        let (lo, hi) = min_max(&x).unwrap();
        for v in y {
            prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4, "{v} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn minmax_error_bounded_by_half_step(x in block(64), bits in 3u32..=8) {
        let q = MinMaxQuantizer::new(bits, 64).unwrap();
        let y = q.quantize_dequantize(&x);
        let (lo, hi) = min_max(&x).unwrap();
        let step = f64::from(hi - lo) / ((1u32 << bits) - 1) as f64;
        for (a, b) in x.iter().zip(&y) {
            prop_assert!(
                f64::from((a - b).abs()) <= step / 2.0 + 1e-4,
                "err {} > step/2 {}", (a - b).abs(), step / 2.0
            );
        }
    }

    #[test]
    fn mxint_never_increases_magnitude_beyond_max(x in block(128), bits in 2u32..=8) {
        let q = MxIntQuantizer::new(bits, 128).unwrap();
        let y = q.quantize_dequantize(&x);
        let max_in = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for v in y {
            // Reconstructions can round up to at most one step above max.
            prop_assert!(v.abs() <= max_in * 1.26 + 1e-6);
        }
    }

    #[test]
    fn mxopal_preserves_top_outliers_exactly(x in block(128), n in 1usize..8) {
        let q = MxOpalQuantizer::new(4, 128, n).unwrap();
        let y = q.quantize_dequantize(&x);
        // The n largest-|bf16| elements reconstruct to their bf16 value.
        let mut idx: Vec<usize> = (0..x.len()).collect();
        idx.sort_by(|&a, &b| {
            opal_numerics::Bf16::from_f32(x[b]).abs_cmp(opal_numerics::Bf16::from_f32(x[a]))
        });
        for &i in &idx[..n] {
            let expect = opal_numerics::Bf16::from_f32(x[i]).to_f32();
            prop_assert_eq!(y[i], expect, "outlier at {} not preserved", i);
        }
    }

    #[test]
    fn mxopal_never_worse_than_mxint_with_outliers(
        x in block(256),
        bits in 3u32..=8,
    ) {
        let mxint = MxIntQuantizer::new(bits, 128).unwrap();
        let mxopal = MxOpalQuantizer::new(bits, 128, 4).unwrap();
        let e_int = mse(&x, &mxint.quantize_dequantize(&x));
        let e_opal = mse(&x, &mxopal.quantize_dequantize(&x));
        // A small tolerance: on outlier-free blocks the two coincide and
        // float noise can tip either way.
        prop_assert!(e_opal <= e_int * 1.001 + 1e-12, "opal {e_opal} vs mxint {e_int}");
    }

    #[test]
    fn qdq_is_idempotent_for_mxint(x in block(128), bits in 2u32..=8) {
        // Quantizing a reconstruction changes nothing: the output is on the
        // format's grid and the shared scale (max exponent) is stable.
        // (MX-OPAL is deliberately excluded: rounding can reorder the
        // magnitude ranking near the outlier threshold, legitimately
        // changing which elements are preserved on a second pass.)
        let q = MxIntQuantizer::new(bits, 128).unwrap();
        let y1 = q.quantize_dequantize(&x);
        let y2 = q.quantize_dequantize(&y1);
        prop_assert_eq!(y1, y2);
    }

    #[test]
    fn packed_size_matches_a_priori_size(
        x in block(300),
        bits in 2u32..=8,
        n in 0usize..6,
    ) {
        let q = MxOpalQuantizer::new(bits, 128, n).unwrap();
        let t = q.quantize(&x);
        prop_assert_eq!(t.storage_bits(), q.storage_bits(x.len()));
    }

    #[test]
    fn length_preserved_by_every_quantizer(x in block(200), bits in 2u32..=8) {
        let quantizers: Vec<Box<dyn Quantizer>> = vec![
            Box::new(MinMaxQuantizer::new(bits, 128).unwrap()),
            Box::new(MxIntQuantizer::new(bits, 128).unwrap()),
            Box::new(MxOpalQuantizer::new(bits, 128, 4).unwrap()),
        ];
        for q in &quantizers {
            prop_assert_eq!(q.quantize_dequantize(&x).len(), x.len());
        }
    }

    #[test]
    fn mxopal_page_row_codec_round_trips_bit_identically(
        x in block(300),
        bits in 2u32..=8,
        block_size in 1usize..40,
        n in 0usize..8,
    ) {
        // The packed-page row codec behind the quantized KV cache:
        // `encode_row_scratch` → `decode_row` must reconstruct exactly what
        // the allocating spec `quantize(..).dequantize()` produces for the
        // same input — the paged attention walk trusts this to score against
        // packed codes without ever materializing the reference
        // reconstruction. Bit compare so
        // signed zeros count, across block sizes and outlier budgets.
        let n = n.min(block_size - 1);
        let q = MxOpalQuantizer::new(bits, block_size, n).unwrap();
        let mut scratch = EncodeScratch::new();
        for len in [1usize, block_size, block_size + 1, 2 * block_size + 1, 300] {
            let len = len.min(x.len());
            let qpr = len.div_ceil(block_size);
            let mut codes = vec![0i8; len];
            let mut scales = vec![0i16; qpr];
            let mut out_idx = vec![0u16; qpr * n];
            let mut out_val = vec![opal_numerics::Bf16::from_f32(0.0); qpr * n];
            let mut out_len = vec![0u8; qpr];
            q.encode_row_scratch(
                &x[..len], &mut codes, &mut scales, &mut out_idx, &mut out_val, &mut out_len,
                &mut scratch,
            );
            let mut decoded = vec![f32::NAN; len];
            q.decode_row(&codes, &scales, &out_idx, &out_val, &out_len, &mut decoded);
            let reference = q.quantize(&x[..len]).dequantize();
            let dec_bits: Vec<u32> = decoded.iter().map(|v| v.to_bits()).collect();
            let ref_bits: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&dec_bits, &ref_bits, "page codec diverged, len {}", len);
        }
    }

    #[test]
    fn mxint_page_row_codec_round_trips_bit_identically(
        x in block(300),
        bits in 2u32..=8,
        block_size in 1usize..40,
    ) {
        // The outlier-free page codec: `encode_row` → `decode_row` against
        // the streaming `quantize_dequantize_scratch` reference.
        let q = MxIntQuantizer::new(bits, block_size).unwrap();
        for len in [1usize, block_size, block_size + 1, 2 * block_size + 1, 300] {
            let len = len.min(x.len());
            let qpr = len.div_ceil(block_size);
            let mut codes = vec![0i8; len];
            let mut scales = vec![0i16; qpr];
            q.encode_row(&x[..len], &mut codes, &mut scales);
            let mut decoded = vec![f32::NAN; len];
            q.decode_row(&codes, &scales, &mut decoded);
            let mut reference = vec![f32::NAN; len];
            q.quantize_dequantize_scratch(&x[..len], &mut reference, &mut EncodeScratch::new());
            let dec_bits: Vec<u32> = decoded.iter().map(|v| v.to_bits()).collect();
            let ref_bits: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&dec_bits, &ref_bits, "mxint page codec diverged, len {}", len);
        }
    }

    #[test]
    fn mxopal_page_row_error_bounded_by_half_step_or_saturation(
        x in block(256),
        bits in 3u32..=8,
        n in 0usize..6,
    ) {
        // Per-element reconstruction error of a packed page row: against
        // the bf16 input (the format's domain), every non-outlier position
        // is either within half a quantization step of its block's scale,
        // or its code saturated (the clamped block scale cannot represent
        // it — the magnitude shrinks, never grows).
        let block_size = 32usize;
        let q = MxOpalQuantizer::new(bits, block_size, n).unwrap();
        let mut scratch = EncodeScratch::new();
        let qpr = x.len().div_ceil(block_size);
        let mut codes = vec![0i8; x.len()];
        let mut scales = vec![0i16; qpr];
        let mut out_idx = vec![0u16; qpr * n];
        let mut out_val = vec![opal_numerics::Bf16::from_f32(0.0); qpr * n];
        let mut out_len = vec![0u8; qpr];
        q.encode_row_scratch(
            &x, &mut codes, &mut scales, &mut out_idx, &mut out_val, &mut out_len, &mut scratch,
        );
        let mut decoded = vec![f32::NAN; x.len()];
        q.decode_row(&codes, &scales, &out_idx, &out_val, &out_len, &mut decoded);
        let code_max = ((1i32 << (bits - 1)) - 1) as f64;
        for (i, (&v, &d)) in x.iter().zip(&decoded).enumerate() {
            let b = i / block_size;
            // Outlier slots reconstruct their bf16 value exactly and are
            // checked by `mxopal_preserves_top_outliers_exactly`.
            let slot0 = b * n;
            let is_outlier = (0..usize::from(out_len[b]))
                .any(|s| b * block_size + usize::from(out_idx[slot0 + s]) == i);
            if is_outlier {
                continue;
            }
            let target = f64::from(opal_numerics::Bf16::from_f32(v).to_f32());
            let step = f64::from(opal_numerics::shift::step_size(i32::from(scales[b]), bits));
            let err = (f64::from(d) - target).abs();
            let saturated = i64::from(codes[i]).unsigned_abs() as f64 >= code_max;
            prop_assert!(
                err <= step / 2.0 + 1e-12 || (saturated && d.abs() <= v.abs()),
                "row[{}]: err {} > step/2 {} (code {}, scale {})",
                i, err, step / 2.0, codes[i], scales[b]
            );
        }
    }

    #[test]
    fn zero_maps_to_zero(bits in 2u32..=8, len in 1usize..257) {
        let x = vec![0.0f32; len];
        let quantizers: Vec<Box<dyn Quantizer>> = vec![
            Box::new(MinMaxQuantizer::new(bits, 128).unwrap()),
            Box::new(MxIntQuantizer::new(bits, 128).unwrap()),
            Box::new(MxOpalQuantizer::new(bits, 128, 2).unwrap()),
        ];
        for q in &quantizers {
            prop_assert_eq!(q.quantize_dequantize(&x), x.clone());
        }
    }
}
