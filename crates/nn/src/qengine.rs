//! The int8 program: integer inference as the f32 lane kernels over
//! integer-valued codes.
//!
//! [`crate::quantized::QuantizedNetwork::forward_int8`] runs a network
//! as a list of [`QOp`]s over the image-interleaved layout of
//! [`Lanes`], every element an activation *code* (value ≈
//! `code · act_scale`) held as an `f32`. Each step runs one lane kernel
//! of the float engine — a convolution over weight codes seeded with
//! zero, or a pooling — and then one requantization epilogue:
//!
//! `code = clamp(round(v · scale[c] + offset[c]), lo, hi)`
//!
//! A convolution's epilogue is `acc · w_scale + bias / act_scale`
//! (`acc · w_scale · act_scale + bias` is the real-valued output; one
//! division by `act_scale` folds the requantization in). Folded
//! batch-norm is an epilogue alone, and so is a ReLU: its range is
//! `[0, clip_code]`. Max pooling is exact on codes (dequantization is
//! monotone), and averages round once, in the epilogue.
//!
//! # Exactness
//!
//! Activation codes lie in `[-128, 127]` and weight codes in
//! `[-127, 127]`, so one product is at most `128 · 127 = 16,256` in
//! magnitude, and a chain of at most `⌊2^24 / 16,256⌋ = 1,032` taps
//! ([`MAX_EXACT_TAPS`]) never leaves the integers an `f32` holds
//! exactly. (Weights sit on a max-abs grid; only a `-inf` weight takes
//! code `-128`, and `2^24 - 1,032 · 16,256 = 1,024` leaves room for
//! eight of those per chain.) Every f32 chain of a convolution is therefore the exact
//! integer sum. A convolution with more taps splits its reduction into
//! input-channel chunks of at most that many taps, each its own lane
//! call from zero, and adds the chunk sums in `i32` before the
//! epilogue; the `i32` sum takes at most 2^16 taps (`|acc| ≤ 2^30`).
//! Pool windows and GAP planes sum codes alone, exactly for up to
//! `2^24 / 128 = 2^17` of them. Exact sums make the result independent
//! of layout, summation order, worker count and SIMD level.

use crate::gemm::{correlate_lanes, ConvShape};
use crate::lanes::{Lanes, LANES};
use crate::layers::{avgpool_lanes, epilogue_lanes, gap_lanes, Epilogue};
use crate::simd::{self, SimdLevel};

/// Inclusive code range of an epilogue (within `i8` for the int8
/// engine).
pub(crate) type CodeRange = (i32, i32);

/// Most taps one f32 chain sums exactly: `⌊2^24 / (128 · 127)⌋`.
const MAX_EXACT_TAPS: usize = (1 << 24) / (128 * 127);

/// Most taps of one convolution output: the `i32` chunk sum stays
/// within `2^16 · 2^14 = 2^30`.
const MAX_TAPS: usize = 1 << 16;

/// Most codes one pool window or GAP plane sums exactly: `2^24 / 128`.
const MAX_EXACT_CODES: usize = 1 << 17;

/// The lane kernel of one program step.
#[derive(Debug, Clone)]
pub(crate) enum LaneOp {
    /// Standard (`[cout][cin][k][k]`) or depth-wise (`[cout][k][k]`)
    /// "same" convolution over weight codes.
    Conv {
        cout: usize,
        k: usize,
        depthwise: bool,
        weights: Vec<f32>,
    },
    MaxPool(usize),
    AvgPool(usize),
    Gap,
}

/// One step of the int8 program: a lane kernel (none for an epilogue
/// alone), then the requantization epilogue.
#[derive(Debug, Clone)]
pub(crate) struct QOp {
    pub(crate) op: Option<LaneOp>,
    /// Per-channel `(scale, offset)` of the epilogue; `None` is `(1, 0)`.
    pub(crate) affine: Option<(Vec<f32>, Vec<f32>)>,
    pub(crate) range: CodeRange,
}

/// Rounds a real-valued code to the grid: round half away from zero
/// (matching `Quantization::quantize`), clamped to the code range; NaN
/// saturates to code 0, and `-0.0` becomes `0.0`. Float operations
/// only, so the epilogue stays a vector loop.
#[inline(always)]
fn requant(v: f32, (lo, hi): CodeRange) -> f32 {
    let r = v.round();
    let r = if r.is_nan() { 0.0 } else { r };
    r.max(lo as f32).min(hi as f32) + 0.0
}

/// Runs `prog` over a batch of codes at SIMD `level`.
pub(crate) fn run(prog: &[QOp], mut x: Lanes, level: SimdLevel) -> Lanes {
    for step in prog {
        if let Some(op) = &step.op {
            x = op.run(level, &x);
        }
        requantize(level, &mut x, step.affine.as_ref(), step.range);
    }
    x
}

impl LaneOp {
    fn run(&self, level: SimdLevel, x: &Lanes) -> Lanes {
        let (n, cin, h, w) = x.dims();
        match self {
            LaneOp::Conv {
                cout,
                k,
                depthwise,
                weights,
            } => {
                let s = ConvShape {
                    n,
                    cin,
                    cout: *cout,
                    h,
                    w,
                    k: *k,
                    depthwise: *depthwise,
                };
                let y = conv_codes(level, &s, x, weights);
                Lanes::from_data(n, *cout, h, w, y)
            }
            LaneOp::MaxPool(k) => epilogue_lanes(x, &Epilogue::max_pool(*k)),
            LaneOp::AvgPool(k) => {
                assert!(k * k <= MAX_EXACT_CODES, "pool window {k} is not exact");
                avgpool_lanes(x, *k)
            }
            LaneOp::Gap => {
                assert!(h * w <= MAX_EXACT_CODES, "GAP plane {h}x{w} is not exact");
                gap_lanes(x)
            }
        }
    }
}

/// The exact integer convolution of code lanes `x` with weight codes,
/// as `f32` sums (see the module docs): one lane call when the taps fit
/// one exact chain, else one per input-channel chunk of at most
/// [`MAX_EXACT_TAPS`] taps, the chunk sums added in `i32`.
///
/// # Panics
///
/// Panics when one output sums more than 2^16 taps, or one input
/// channel's `k x k` taps exceed one exact chain.
fn conv_codes(level: SimdLevel, s: &ConvShape, x: &Lanes, weights: &[f32]) -> Vec<f32> {
    let kk = s.k * s.k;
    let taps = s.patch_channels() * kk;
    assert!(
        taps <= MAX_TAPS,
        "{taps} taps exceed the i32 accumulator bound"
    );
    assert!(kk <= MAX_EXACT_TAPS, "a {0}x{0} kernel is not exact", s.k);
    if taps <= MAX_EXACT_TAPS {
        return correlate_lanes(level, s, x, weights, None, s.k / 2, None);
    }
    let (plane, chunk) = (s.h * s.w * LANES, MAX_EXACT_TAPS / kk);
    let mut acc = vec![0i32; s.n.div_ceil(LANES) * s.cout * plane];
    for ic0 in (0..s.cin).step_by(chunk) {
        let ics = ic0..(ic0 + chunk).min(s.cin);
        let part = ConvShape {
            cin: ics.len(),
            ..*s
        };
        let xs: Vec<f32> = x
            .data()
            .chunks_exact(s.cin * plane)
            .flat_map(|group| &group[ics.start * plane..ics.end * plane])
            .copied()
            .collect();
        let ws: Vec<f32> = weights
            .chunks_exact(s.cin * kk)
            .flat_map(|row| &row[ics.start * kk..ics.end * kk])
            .copied()
            .collect();
        let xs = Lanes::from_data(s.n, ics.len(), s.h, s.w, xs);
        let y = correlate_lanes(level, &part, &xs, &ws, None, s.k / 2, None);
        for (a, v) in acc.iter_mut().zip(y) {
            *a += v as i32;
        }
    }
    acc.into_iter().map(|a| a as f32).collect()
}

/// The epilogue, in place: every element of channel `c` becomes
/// `requant(v · scale[c] + offset[c], range)`.
fn requantize(
    level: SimdLevel,
    x: &mut Lanes,
    affine: Option<&(Vec<f32>, Vec<f32>)>,
    range: CodeRange,
) {
    let (_, c, h, w) = x.dims();
    let planes = x.data_mut().chunks_exact_mut(h * w * LANES);
    simd::dispatch(
        level,
        #[inline(always)]
        || {
            for (i, plane) in planes.enumerate() {
                let (s, b) = affine.map_or((1.0, 0.0), |(s, b)| (s[i % c], b[i % c]));
                for v in plane {
                    *v = requant(*v * s + b, range);
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::{deinterleave, interleave};
    use crate::simd::available_levels;
    use crate::tensor::Tensor;
    use proptest::prelude::*;

    const FULL: CodeRange = (-128, 127);

    /// Codes cycling through `[lo, hi]`.
    fn codes(len: usize, stride: usize, (lo, hi): CodeRange) -> Vec<f32> {
        let span = (hi - lo + 1) as usize;
        (0..len)
            .map(|i| (lo + (i * stride % span) as i32) as f32)
            .collect()
    }

    fn shape(
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

    /// The textbook "same" convolution of `N x C x H x W` codes, each
    /// sum exact in `i64` and rounded once to `f32` — the value the
    /// epilogue must see.
    fn naive(s: &ConvShape, x: &[f32], wts: &[f32]) -> Vec<f32> {
        let (pc, pad) = (s.patch_channels(), s.k / 2);
        let mut out = Vec::new();
        for img in 0..s.n {
            for oc in 0..s.cout {
                for oy in 0..s.h {
                    for ox in 0..s.w {
                        let mut acc = 0i64;
                        for ci in 0..pc {
                            let ic = if s.depthwise { oc } else { ci };
                            for ky in 0..s.k {
                                for kx in 0..s.k {
                                    let iy = (oy + ky).wrapping_sub(pad);
                                    let ix = (ox + kx).wrapping_sub(pad);
                                    if iy < s.h && ix < s.w {
                                        let xv = x[((img * s.cin + ic) * s.h + iy) * s.w + ix];
                                        let wv = wts[((oc * pc + ci) * s.k + ky) * s.k + kx];
                                        acc += xv as i64 * wv as i64;
                                    }
                                }
                            }
                        }
                        out.push(acc as f32);
                    }
                }
            }
        }
        out
    }

    /// [`conv_codes`] over planar codes.
    fn conv(level: SimdLevel, s: &ConvShape, x: &[f32], wts: &[f32]) -> Vec<f32> {
        let plane = s.h * s.w;
        let x = Lanes::from_data(s.n, s.cin, s.h, s.w, interleave(x, s.n, s.cin * plane));
        let y = conv_codes(level, s, &x, wts);
        deinterleave(&y, s.n, s.cout * plane)
    }

    /// `(n, cin, cout, (h, w), k, depthwise)`.
    type Case = (usize, usize, usize, (usize, usize), usize, bool);

    /// Awkward shapes: single pixels, ragged channel blocks, even
    /// kernels, partial and multiple lane groups, depth-wise layers and
    /// reductions split into chunks (45 x 5 x 5 = 1,125 taps).
    const SHAPES: [Case; 7] = [
        (1, 1, 1, (1, 1), 1, false),
        (3, 3, 5, (3, 7), 3, false),
        (9, 5, 13, (5, 17), 2, false),
        (8, 4, 8, (4, 16), 1, false),
        (2, 9, 9, (6, 13), 3, true),
        (1, 4, 4, (3, 6), 5, true),
        (2, 45, 5, (3, 5), 5, false),
    ];

    #[test]
    fn conv_codes_match_naive_across_levels_and_threads() {
        for (n, cin, cout, hw, k, dw) in SHAPES {
            let s = shape(n, cin, cout, hw, k, dw);
            let x = codes(n * cin * hw.0 * hw.1, 7, FULL);
            let wts = codes(s.weights_len(), 11, (-127, 127));
            let expect = naive(&s, &x, &wts);
            for level in available_levels() {
                assert_eq!(conv(level, &s, &x, &wts), expect, "{level} at {s:?}");
            }
        }
    }

    /// A convolution program step — the lane kernel, then the
    /// epilogue — gives the same bytes at every SIMD level.
    #[test]
    fn int8_conv_programs_agree_across_levels() {
        for (n, cin, cout, hw, k, dw) in SHAPES {
            let s = shape(n, cin, cout, hw, k, dw);
            let step = QOp {
                op: Some(LaneOp::Conv {
                    cout: s.cout,
                    k,
                    depthwise: dw,
                    weights: codes(s.weights_len(), 13, (-127, 127)),
                }),
                affine: Some((
                    (0..s.cout).map(|c| 0.001 + c as f32 * 3e-4).collect(),
                    (0..s.cout).map(|c| c as f32 * 0.7 - 2.1).collect(),
                )),
                range: FULL,
            };
            let x = Tensor::from_vec(&[n, cin, hw.0, hw.1], codes(n * cin * hw.0 * hw.1, 5, FULL));
            let run_at = |level| {
                let y = run(std::slice::from_ref(&step), Lanes::pack(&x), level);
                let y = y.unpack_like(&x);
                y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let expect = run_at(SimdLevel::Scalar);
            for level in available_levels() {
                assert_eq!(run_at(level), expect, "{level} at {s:?}");
            }
        }
    }

    /// Every code at its extreme — activations −128 against weights
    /// 127, and the last input channel 127 against −127 so that the sums
    /// are odd — stays exact at the edge of one f32 chain (1,032 taps),
    /// just past it (1,033) and over two splits (84 x 5 x 5 = 2,100
    /// taps), in a depth-wise 7x7 and in GAP over a 2^17-pixel plane.
    #[test]
    fn extreme_codes_stay_exact_at_the_bound() {
        assert_eq!(MAX_EXACT_TAPS, 1032);
        for (cin, k, dw) in [
            (1032, 1, false),
            (1033, 1, false),
            (84, 5, false),
            (3, 7, true),
        ] {
            let s = shape(2, cin, 3, (k.max(2), k.max(3)), k, dw);
            let plane = s.h * s.w;
            let mut x = vec![-128.0f32; s.n * cin * plane];
            let mut wts = vec![127.0f32; s.weights_len()];
            let (pc, kk) = (s.patch_channels(), k * k);
            for img in x.chunks_exact_mut(cin * plane) {
                img[(cin - 1) * plane..].fill(127.0);
            }
            for row in wts.chunks_exact_mut(pc * kk) {
                row[(pc - 1) * kk..].fill(-127.0);
            }
            if dw {
                x.iter_mut().for_each(|v| *v = 127.0);
                wts.iter_mut().for_each(|v| *v = -127.0);
            }
            let expect = naive(&s, &x, &wts);
            for level in available_levels() {
                assert_eq!(conv(level, &s, &x, &wts), expect, "{level} at {s:?}");
            }
        }
        let (h, w) = (256, 512);
        let x = Lanes::pack(&Tensor::full(&[1, h, w], 127.0));
        let sum = 127i64 * (h * w) as i64;
        let mean = LaneOp::Gap.run(SimdLevel::Scalar, &x);
        assert_eq!(mean.data()[0], sum as f32 / (h * w) as f32);
        assert_eq!(mean.data()[0], 127.0);
    }

    #[test]
    #[should_panic(expected = "exceed the i32 accumulator bound")]
    fn rejects_reductions_past_the_accumulator_bound() {
        let s = shape(1, MAX_TAPS + 1, 1, (1, 1), 1, false);
        let x = Lanes::from_data(1, MAX_TAPS + 1, 1, 1, vec![0.0; (MAX_TAPS + 1) * LANES]);
        let _ = conv_codes(SimdLevel::Scalar, &s, &x, &[]);
    }

    /// One step over a single image's codes.
    fn step(op: Option<LaneOp>, range: CodeRange, shape: &[usize], x: &[f32]) -> Vec<f32> {
        let x = Tensor::from_vec(shape, x.to_vec());
        let prog = [QOp {
            op,
            affine: None,
            range,
        }];
        let y = run(&prog, Lanes::pack(&x), SimdLevel::Scalar);
        y.unpack_like(&x).data().to_vec()
    }

    #[test]
    fn requant_rounds_half_away_and_clamps() {
        let r = (-128, 127);
        assert_eq!(requant(0.5, r), 1.0);
        assert_eq!(requant(-0.5, r), -1.0);
        assert_eq!(requant(0.49, r), 0.0);
        assert_eq!(requant(400.0, r), 127.0);
        assert_eq!(requant(-400.0, r), -128.0);
        assert_eq!(requant(f32::NAN, r), 0.0, "NaN saturates to code 0");
        assert_eq!(requant(-0.3, r).to_bits(), 0.0f32.to_bits());
        assert_eq!(requant(f32::NEG_INFINITY, r), -128.0);
        assert_eq!(requant(3e9, r), 127.0);
    }

    #[test]
    fn maxpool_takes_max_code() {
        let y = step(
            Some(LaneOp::MaxPool(2)),
            FULL,
            &[1, 2, 2],
            &[1.0, 5.0, 3.0, 2.0],
        );
        assert_eq!(y, [5.0]);
    }

    #[test]
    fn avgpool_rounds_window_mean() {
        let y = step(
            Some(LaneOp::AvgPool(2)),
            FULL,
            &[1, 2, 2],
            &[1.0, 2.0, 3.0, 6.0],
        );
        assert_eq!(y, [3.0]);
    }

    #[test]
    fn activation_zeroes_negatives_and_clips() {
        let x = [-5.0, 3.0, 100.0];
        assert_eq!(step(None, (0, 64), &[1, 1, 3], &x), [0.0, 3.0, 64.0]);
        assert_eq!(step(None, (0, 127), &[1, 1, 3], &x), [0.0, 3.0, 100.0]);
    }

    #[test]
    fn gap_means_codes() {
        let y = step(Some(LaneOp::Gap), FULL, &[2, 1, 2], &[1.0, 3.0, 10.0, 20.0]);
        assert_eq!(y, [2.0, 15.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random shapes: exact at every level.
        #[test]
        fn prop_conv_codes_levels_and_threads_agree(
            n in 1usize..10,
            cin in 1usize..6,
            cout in 1usize..10,
            h in 1usize..6,
            w in 1usize..12,
            k in 1usize..5,
            dw in 0u8..2,
            stride in 1usize..50,
        ) {
            let s = shape(n, cin, cout, (h, w), k, dw == 1);
            let x = codes(n * cin * h * w, stride, FULL);
            let wts = codes(s.weights_len(), stride + 3, (-127, 127));
            let expect = naive(&s, &x, &wts);
            for level in available_levels() {
                prop_assert_eq!(&conv(level, &s, &x, &wts), &expect);
            }
        }
    }
}
