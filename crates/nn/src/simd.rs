//! Runtime-dispatched SIMD micro-kernels for the compute hot loops.
//!
//! At process start the best available instruction level is detected
//! once (`is_x86_feature_detected!`, cached in a `OnceLock`) and every
//! kernel call dispatches at that level:
//!
//! `f32_conv_pixels` and `f32_grad_taps`, the micro-kernels of the
//! implicit-GEMM convolutions in [`crate::gemm`], and the layer kernels
//! of [`crate::layers`] and the int8 epilogue (through `dispatch`). They
//! work on the image-interleaved layout, where one pixel of a channel
//! is one 8-lane vector of eight images. One plain Rust body over fixed
//! 8-lane arrays is compiled twice: for the baseline target
//! ([`SimdLevel::Scalar`]; SSE2 is part of the `x86_64` baseline, so
//! the autovectorizer already emits 4-lane ops there) and inside an
//! `#[target_feature(enable = "avx2")]` wrapper ([`SimdLevel::Avx2`],
//! one `__m256` per vector). The convolution kernels read their vectors
//! unchecked, after one bounds assert per call. The int8 engine runs
//! these same kernels over integer-valued codes.
//!
//! On non-x86 targets only the baseline build exists.
//!
//! # Determinism
//!
//! The float kernels keep the repo-wide bit-reproducibility contract:
//! every output element is a strict sequential `f32` chain
//! `((init + a₀·b₀) + a₁·b₁) + …` in the canonical order. Vector width
//! only decides *how many independent chains* advance per instruction,
//! never the order within a chain — and multiply and add stay separate
//! operations (Rust never contracts them into FMA), because a fused
//! multiply-add skips the intermediate rounding step and would produce
//! different bits than the scalar chain. Over int8 codes every chain is
//! an exact integer sum besides. Either way: **every level produces
//! byte-identical results**, which `tests/simd_equivalence.rs` pins.
//!
//! # Overriding detection
//!
//! Set `CODESIGN_SIMD=scalar|avx2` to pin the dispatch level (for
//! determinism debugging or perf triage); `sse2` is an alias of
//! `scalar`, the baseline build. Unknown values are ignored; a requested
//! level the CPU lacks clamps down to the best available one. The
//! variable is read once per process.

use crate::lanes::LANES;

/// Instruction-set tier of the SIMD micro-kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// The baseline build (SSE2 on `x86_64`).
    Scalar,
    /// The AVX2 build.
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name (the `CODESIGN_SIMD` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parses a `CODESIGN_SIMD` value; `sse2` names the baseline build,
    /// [`SimdLevel::Scalar`]. Unknown strings are `None` (the override
    /// is then ignored rather than failing the process).
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" | "sse2" => Some(SimdLevel::Scalar),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }

    /// Whether the running CPU can execute this level.
    pub fn is_available(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// This level if the CPU supports it, otherwise
    /// [`SimdLevel::Scalar`], which every CPU supports.
    pub fn clamp_available(self) -> SimdLevel {
        if self.is_available() {
            self
        } else {
            SimdLevel::Scalar
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The best level the running CPU supports, ignoring the environment
/// override.
pub fn detected_best() -> SimdLevel {
    SimdLevel::Avx2.clamp_available()
}

/// Every level the running CPU can execute, ascending. Tests iterate
/// this to pin cross-level bit-identity on whatever hardware CI has.
pub fn available_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|l| l.is_available())
        .collect()
}

/// The process-wide dispatch level: the `CODESIGN_SIMD` override
/// (clamped to what the CPU supports) or the detected best. Resolved
/// once and cached — the hot path never re-reads the environment.
pub fn active_level() -> SimdLevel {
    static ACTIVE: std::sync::OnceLock<SimdLevel> = std::sync::OnceLock::new();
    *ACTIVE.get_or_init(|| {
        match std::env::var("CODESIGN_SIMD")
            .ok()
            .as_deref()
            .and_then(SimdLevel::parse)
        {
            Some(requested) => requested.clamp_available(),
            None => detected_best(),
        }
    })
}

/// Runs `kernel` at `level`: inside an AVX2 `target_feature` wrapper at
/// [`SimdLevel::Avx2`], else as built for the baseline target. The layer
/// kernels of [`crate::layers`] pass `#[inline(always)]` closures, so
/// one body compiles once per build, like the convolution kernels.
#[inline(always)]
pub(crate) fn dispatch<R>(level: SimdLevel, kernel: impl FnOnce() -> R) -> R {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: same detection invariant as `f32_conv_pixels`.
        SimdLevel::Avx2 => unsafe { run_avx2(kernel) },
        _ => kernel(),
    }
}

/// [`dispatch`]'s AVX2 build.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

// ---------------------------------------------------------------------
// f32 direct-convolution kernels
// ---------------------------------------------------------------------

/// Pixels of the implicit GEMM behind every f32 convolution, over the
/// image-interleaved layout of [`Lanes`](crate::network::Lanes): for `OB` output
/// channels `j`, rows `r < rows`, columns `x < len` and lanes (images)
/// `l`,
/// `dst[(j * plane + r * len + x) * LANES + l] = init[j] + Σ_t wpack[t * OB + j] · src[j * step + taps[t] + (r * stride + x) * LANES + l]`,
/// where `step` is `0` when the channels share one input and a plane
/// when each reads its own (depth-wise), and the tap offsets count
/// floats. Each chain is strictly sequential in ascending `t` (the
/// canonical `(ic, ky, kx)` order of the taps); one output pixel is one
/// vector, with `OB` register-resident accumulators.
///
/// # Panics
///
/// Panics when `wpack` disagrees with `taps`, a tap reaches past `src`,
/// or `dst` is too short.
#[allow(clippy::too_many_arguments)] // raw geometry is the whole API
pub(crate) fn f32_conv_pixels<const OB: usize>(
    level: SimdLevel,
    src: &[f32],
    step: usize,
    taps: &[usize],
    wpack: &[f32],
    init: [f32; OB],
    geometry: (usize, usize, usize),
    dst: &mut [f32],
    plane: usize,
) {
    assert_eq!(wpack.len(), taps.len() * OB, "weights disagree with taps");
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` is only constructed after
        // `is_x86_feature_detected!` confirmed the feature (detection,
        // `clamp_available`, and the test iteration over
        // `available_levels` all gate on it).
        SimdLevel::Avx2 => unsafe {
            conv_pixels_avx2(src, step, taps, wpack, init, geometry, dst, plane)
        },
        _ => conv_pixels(src, step, taps, wpack, init, geometry, dst, plane),
    }
}

/// [`conv_pixels`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn conv_pixels_avx2<const OB: usize>(
    src: &[f32],
    step: usize,
    taps: &[usize],
    wpack: &[f32],
    init: [f32; OB],
    geometry: (usize, usize, usize),
    dst: &mut [f32],
    plane: usize,
) {
    conv_pixels(src, step, taps, wpack, init, geometry, dst, plane);
}

/// The one body behind every level, compiled once for the baseline
/// target and once inside the AVX2 wrapper. Pixels run in pairs along a
/// row, so a tap's weights feed two pixels per load.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn conv_pixels<const OB: usize>(
    src: &[f32],
    step: usize,
    taps: &[usize],
    wpack: &[f32],
    init: [f32; OB],
    (rows, len, stride): (usize, usize, usize),
    dst: &mut [f32],
    plane: usize,
) {
    if rows * len == 0 {
        return;
    }
    let reach = taps.iter().max().map_or(0, |&t| t) + (OB - 1) * step;
    assert!(
        reach + ((rows - 1) * stride + len) * LANES <= src.len(),
        "a tap reaches past the source"
    );
    let mut store = |out: usize, acc: &[[f32; LANES]; OB]| {
        for (j, a) in acc.iter().enumerate() {
            dst[(j * plane + out) * LANES..][..LANES].copy_from_slice(a);
        }
    };
    for r in 0..rows {
        let (base, out) = (r * stride, r * len);
        let mut x = 0;
        while x + 2 <= len {
            // SAFETY: pixels `x` and `x + 1` are in the row, so the
            // assert above bounds every tap of every channel.
            let [a, b] =
                unsafe { conv_block::<OB, 2>(src, step, taps, wpack, init, (base + x) * LANES) };
            store(out + x, &a);
            store(out + x + 1, &b);
            x += 2;
        }
        if x < len {
            // SAFETY: as above, for the one pixel `x`.
            let [a] =
                unsafe { conv_block::<OB, 1>(src, step, taps, wpack, init, (base + x) * LANES) };
            store(out + x, &a);
        }
    }
}

/// `PB` neighbouring pixels of `OB` output channels, the first at float
/// offset `base`.
///
/// # Safety
///
/// `j * step + off + base + (p + 1) * LANES <= src.len()` for every
/// channel `j < OB`, pixel `p < PB` and tap `off` in `taps`.
#[inline(always)]
unsafe fn conv_block<const OB: usize, const PB: usize>(
    src: &[f32],
    step: usize,
    taps: &[usize],
    wpack: &[f32],
    init: [f32; OB],
    base: usize,
) -> [[[f32; LANES]; OB]; PB] {
    let mut acc = [init.map(|b| [b; LANES]); PB];
    for (&off, w) in taps.iter().zip(wpack.chunks_exact(OB)) {
        for (p, acc) in acc.iter_mut().enumerate() {
            for (j, (a, &wj)) in acc.iter_mut().zip(w).enumerate() {
                // SAFETY: the caller's contract bounds this offset.
                let s = unsafe { load(src, j * step + off + base + p * LANES) };
                for (al, &sl) in a.iter_mut().zip(s) {
                    *al += wj * sl;
                }
            }
        }
    }
    acc
}

/// The vector at float offset `at` of `src`, unchecked.
///
/// # Safety
///
/// `at + LANES <= src.len()`.
#[inline(always)]
unsafe fn load(src: &[f32], at: usize) -> &[f32; LANES] {
    debug_assert!(at + LANES <= src.len());
    &*(src.as_ptr().add(at) as *const [f32; LANES])
}

/// `TB` weight-gradient chains per lane (image), the transposed
/// implicit GEMM over the image-interleaved layout: for taps `j < TB`
/// and lanes `l`,
/// `out[j][l] = Σ_(r, x) dy[(r * len + x) * LANES + l] · src[taps[j] + (r * stride + x) * LANES + l]`
/// over output pixels `(r, x)` in row-major ascending order, every chain
/// starting from `0.0`.
///
/// # Panics
///
/// Panics when a tap reaches past `src` or `dy` is too short.
pub(crate) fn f32_grad_taps<const TB: usize>(
    level: SimdLevel,
    src: &[f32],
    taps: &[usize; TB],
    dy: &[f32],
    geometry: (usize, usize, usize),
) -> [[f32; LANES]; TB] {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: same detection invariant as `f32_conv_pixels`.
        SimdLevel::Avx2 => unsafe { grad_taps_avx2::<TB>(src, taps, dy, geometry) },
        _ => grad_taps::<TB>(src, taps, dy, geometry),
    }
}

/// [`grad_taps`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn grad_taps_avx2<const TB: usize>(
    src: &[f32],
    taps: &[usize; TB],
    dy: &[f32],
    geometry: (usize, usize, usize),
) -> [[f32; LANES]; TB] {
    grad_taps::<TB>(src, taps, dy, geometry)
}

#[inline(always)]
fn grad_taps<const TB: usize>(
    src: &[f32],
    taps: &[usize; TB],
    dy: &[f32],
    (rows, len, stride): (usize, usize, usize),
) -> [[f32; LANES]; TB] {
    let mut acc = [[0.0f32; LANES]; TB];
    if rows * len == 0 {
        return acc;
    }
    let reach = taps.iter().max().map_or(0, |&t| t);
    assert!(
        reach + ((rows - 1) * stride + len) * LANES <= src.len(),
        "a tap reaches past the source"
    );
    let span = len * LANES;
    for (r, drow) in dy[..rows * span].chunks_exact(span).enumerate() {
        let base = r * stride * LANES;
        for (x, d) in drow.chunks_exact(LANES).enumerate() {
            let d: &[f32; LANES] = d.try_into().expect("LANES lanes");
            for (a, &off) in acc.iter_mut().zip(taps) {
                // SAFETY: the assert above bounds the farthest tap of
                // the last pixel.
                let s = unsafe { load(src, off + base + x * LANES) };
                for ((al, &dl), &sl) in a.iter_mut().zip(d).zip(s) {
                    *al += dl * sl;
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_vocabulary() {
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse("SSE2"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse(" avx2 "), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("avx512"), None);
        assert_eq!(SimdLevel::parse(""), None);
    }

    #[test]
    fn clamping_never_exceeds_request_or_hardware() {
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            let clamped = level.clamp_available();
            assert!(clamped <= level, "{clamped} exceeds requested {level}");
            assert!(clamped.is_available());
        }
        assert_eq!(SimdLevel::Scalar.clamp_available(), SimdLevel::Scalar);
    }

    #[test]
    fn available_levels_ascend_and_include_scalar() {
        let levels = available_levels();
        assert_eq!(levels.first(), Some(&SimdLevel::Scalar));
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
        assert!(levels.contains(&detected_best()));
    }

    #[test]
    fn active_level_is_stable_and_available() {
        let a = active_level();
        assert!(a.is_available());
        assert_eq!(a, active_level(), "OnceLock must cache the level");
    }

    /// Direct kernel-level cross-check against the scalar chains; the
    /// integration suite pins the same property through the full
    /// convolutions.
    #[test]
    fn f32_tiles_agree_across_available_levels() {
        // 2 rows of 3 pixels over a 4-wide source, 5 taps, 4 channels,
        // every pixel one vector of LANES images.
        let (rows, len, stride, ob) = (2, 3, 4, 4);
        let taps = [0usize, 1, 2, 4, 5].map(|t| t * LANES);
        let src: Vec<f32> = (0..12 * LANES)
            .map(|i| (i % 7) as f32 * 0.25 - 0.5)
            .collect();
        let wpack: Vec<f32> = (0..taps.len() * ob)
            .map(|i| (i % 5) as f32 * 0.5 - 1.0)
            .collect();
        let init = [0.125f32, -0.0, 0.5, -1.0];
        let dy: Vec<f32> = (0..rows * len * LANES)
            .map(|i| (i % 9) as f32 * 0.3 - 1.1)
            .collect();
        let plane = rows * len;
        for level in available_levels() {
            let mut dst = vec![0.0f32; ob * plane * LANES];
            f32_conv_pixels::<4>(
                level,
                &src,
                0,
                &taps,
                &wpack,
                init,
                (rows, len, stride),
                &mut dst,
                plane,
            );
            let grads = f32_grad_taps::<5>(level, &src, &taps, &dy, (rows, len, stride));
            for p in 0..plane {
                let at = ((p / len) * stride + p % len) * LANES;
                for l in 0..LANES {
                    for j in 0..ob {
                        let mut s = init[j];
                        for (t, &off) in taps.iter().enumerate() {
                            s += wpack[t * ob + j] * src[off + at + l];
                        }
                        let got = dst[(j * plane + p) * LANES + l];
                        assert_eq!(
                            got.to_bits(),
                            s.to_bits(),
                            "level {level} conv ({j},{p},{l})"
                        );
                    }
                }
            }
            for (t, &off) in taps.iter().enumerate() {
                for l in 0..LANES {
                    let mut s = 0.0f32;
                    for p in 0..plane {
                        let at = ((p / len) * stride + p % len) * LANES;
                        s += dy[p * LANES + l] * src[off + at + l];
                    }
                    assert_eq!(
                        grads[t][l].to_bits(),
                        s.to_bits(),
                        "level {level} grad ({t},{l})"
                    );
                }
            }
        }
    }
}
