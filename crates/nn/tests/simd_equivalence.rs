//! The SIMD-dispatch contract: every instruction level the hardware
//! offers — scalar, AVX2 — produces **bit-identical** GEMM results at
//! every shape.
//!
//! For the f32 implicit-GEMM convolutions that holds because every
//! level advances the same per-element accumulation chains in the
//! canonical order (vector width only changes how many independent
//! chains move per instruction, and the kernels keep multiply and add
//! separate, never FMA); the comparisons are on bits, so even the sign
//! of a zero must agree. Over int8 codes, as the int8 engine runs them,
//! it holds twice over: every chain is an exact integer sum.

use codesign_nn::gemm::{correlate, weight_grads, ConvShape};
use codesign_nn::simd::{available_levels, detected_best, SimdLevel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.random_range(-1.0..1.0)).collect()
}

/// Integer-valued codes in `[lo, hi)`, as the int8 engine holds them.
fn rng_codes(len: usize, (lo, hi): (i32, i32), rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.random_range(lo..hi) as f32).collect()
}

/// The int8 engine's convolution: activation codes against weight
/// codes, seeded with zero.
fn int8_conv_at(level: SimdLevel, s: &ConvShape, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let x = rng_codes(s.n * s.cin * s.h * s.w, (-128, 128), &mut rng);
    let wts = rng_codes(s.weights_len(), (-127, 128), &mut rng);
    bits(&correlate(level, s, &x, &wts, None, s.k / 2))
}

#[test]
fn scalar_level_is_always_available() {
    assert!(available_levels().contains(&SimdLevel::Scalar));
    assert!(available_levels().contains(&detected_best()));
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Forward, backward-data (transposed padding) and weight-gradient
/// results of one shape at one level.
fn f32_conv_at(level: SimdLevel, s: &ConvShape, rng: &mut StdRng) -> Vec<Vec<u32>> {
    let x = rng_vec(s.n * s.cin * s.h * s.w, rng);
    let wts = rng_vec(s.weights_len(), rng);
    let bias = rng_vec(s.cout, rng);
    let dy = rng_vec(s.n * s.cout * s.h * s.w, rng);
    vec![
        bits(&correlate(level, s, &x, &wts, Some(&bias), s.k / 2)),
        bits(&correlate(level, s, &x, &wts, None, s.k - 1 - s.k / 2)),
        bits(&weight_grads(level, s, &x, &dy)),
    ]
}

fn conv_shape(
    n: usize,
    cin: usize,
    cout: usize,
    hw: (usize, usize),
    k: usize,
    dw: bool,
) -> ConvShape {
    ConvShape {
        n,
        cin,
        cout: if dw { cin } else { cout },
        h: hw.0,
        w: hw.1,
        k,
        depthwise: dw,
    }
}

#[test]
fn f32_gemm_levels_agree_on_awkward_shapes() {
    // Shapes straddling every remainder case: sub-chunk planes, exact
    // multiples of the lane width, ragged rows, and channel counts off
    // the output-channel blocks.
    for (n, cin, cout, hw, k, dw) in [
        (1, 1, 1, (1, 1), 1, false),
        (2, 3, 5, (3, 7), 3, false),
        (1, 4, 8, (4, 16), 1, false),
        (2, 5, 13, (5, 17), 2, false),
        (1, 3, 3, (24, 48), 3, false),
        (2, 9, 9, (6, 13), 3, true),
        (1, 4, 4, (3, 6), 5, true),
    ] {
        let s = conv_shape(n, cin, cout, hw, k, dw);
        let baseline = f32_conv_at(SimdLevel::Scalar, &s, &mut StdRng::seed_from_u64(41));
        for level in available_levels() {
            let out = f32_conv_at(level, &s, &mut StdRng::seed_from_u64(41));
            assert_eq!(out, baseline, "f32 {level} diverges at {s:?}");
        }
    }
}

#[test]
fn int8_codes_agree_across_levels_on_awkward_shapes() {
    for (n, cin, cout, hw, k, dw) in [
        (1, 1, 1, (1, 1), 1, false),
        (3, 5, 7, (3, 7), 3, false),
        (9, 16, 24, (4, 6), 1, false),
        (2, 27, 17, (5, 9), 2, false),
        (2, 9, 9, (6, 13), 3, true),
    ] {
        let s = conv_shape(n, cin, cout, hw, k, dw);
        let baseline = int8_conv_at(SimdLevel::Scalar, &s, 43);
        for level in available_levels() {
            assert_eq!(
                int8_conv_at(level, &s, 43),
                baseline,
                "int8 {level} diverges at {s:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes and data: all levels, bit-identical.
    #[test]
    fn prop_f32_gemm_is_level_invariant(
        n in 1usize..3,
        cin in 1usize..10,
        cout in 1usize..12,
        h in 1usize..8,
        w in 1usize..20,
        k in 1usize..5,
        dw in 0u8..2,
        seed in 0u64..1024,
    ) {
        let s = conv_shape(n, cin, cout, (h, w), k, dw == 1);
        let baseline = f32_conv_at(SimdLevel::Scalar, &s, &mut StdRng::seed_from_u64(seed));
        for level in available_levels() {
            let out = f32_conv_at(level, &s, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(&out, &baseline);
        }
    }

    /// Convolutions over int8 codes sum exactly: every level returns
    /// the same bytes.
    #[test]
    fn prop_int8_codes_are_level_invariant(
        n in 1usize..10,
        cin in 1usize..12,
        cout in 1usize..12,
        h in 1usize..6,
        w in 1usize..12,
        k in 1usize..5,
        dw in 0u8..2,
        seed in 0u64..1024,
    ) {
        let s = conv_shape(n, cin, cout, (h, w), k, dw == 1);
        let baseline = int8_conv_at(SimdLevel::Scalar, &s, seed);
        for level in available_levels() {
            prop_assert_eq!(&int8_conv_at(level, &s, seed), &baseline);
        }
    }
}
