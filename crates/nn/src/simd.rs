//! Runtime-dispatched SIMD micro-kernels for the compute hot loops.
//!
//! At process start the best available instruction level is detected
//! once (`is_x86_feature_detected!`, cached in a `OnceLock`) and every
//! kernel call dispatches at that level:
//!
//! * f32 — `f32_conv_rows` and `f32_grad_taps`, the micro-kernels of
//!   the implicit-GEMM convolutions in [`crate::gemm`]. One plain Rust
//!   body over fixed 8-lane arrays is compiled twice: for
//!   the baseline target ([`SimdLevel::Scalar`] and [`SimdLevel::Sse2`]
//!   — SSE2 is part of the `x86_64` baseline, so the autovectorizer
//!   already emits 4-lane ops there) and inside an
//!   `#[target_feature(enable = "avx2")]` wrapper
//!   ([`SimdLevel::Avx2`], one `__m256` per chunk).
//! * int8 — the crate-private `i8_tile` of the quantized GEMM, with
//!   explicit scalar, SSE2 (`__m128i`, 4 output columns per tile) and
//!   AVX2 (`__m256i`, 8 columns; see [`SimdLevel::nr`]) variants.
//!
//! On non-x86 targets only the scalar builds exist.
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
//! different bits than the scalar chain. The int8 kernels accumulate in
//! exact integer arithmetic, where grouping is immaterial. Either way:
//! **every level produces byte-identical results**, which
//! `tests/simd_equivalence.rs` pins.
//!
//! # Overriding detection
//!
//! Set `CODESIGN_SIMD=scalar|sse2|avx2` to pin the dispatch level (for
//! determinism debugging or perf triage). Unknown values are ignored;
//! a requested level the CPU lacks clamps down to the best available
//! one. The variable is read once per process.

/// Instruction-set tier of the SIMD micro-kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable kernels (baseline f32 build, scalar int8 4x4 tile).
    Scalar,
    /// Baseline f32 build, explicit SSE2 int8 4x4 tile.
    Sse2,
    /// AVX2 f32 build, explicit AVX2 int8 4x8 tile.
    Avx2,
}

/// Rows per int8 micro-tile — fixed across levels; only the column
/// count ([`SimdLevel::nr`]) widens with the vector registers.
pub const MR: usize = 4;

/// Widest tile any level produces (`MR x 8` for AVX2); sizes the
/// stack-allocated accumulator the dispatchers write into.
pub const MAX_NR: usize = 8;

impl SimdLevel {
    /// Output columns per int8 micro-tile at this level. The GEMM packs its
    /// `B` panels `nr` columns wide, so the panel layout follows the
    /// dispatch level while the per-element accumulation order does not.
    pub fn nr(self) -> usize {
        match self {
            SimdLevel::Scalar | SimdLevel::Sse2 => 4,
            SimdLevel::Avx2 => 8,
        }
    }

    /// Stable lowercase name (the `CODESIGN_SIMD` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parses a `CODESIGN_SIMD` value. Unknown strings are `None` (the
    /// override is then ignored rather than failing the process).
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }

    /// Whether the running CPU can execute this level.
    pub fn is_available(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// This level if the CPU supports it, otherwise the next lower
    /// available one (every CPU supports [`SimdLevel::Scalar`]).
    pub fn clamp_available(self) -> SimdLevel {
        [self, SimdLevel::Sse2, SimdLevel::Scalar]
            .into_iter()
            .filter(|l| *l <= self)
            .find(|l| l.is_available())
            .unwrap_or(SimdLevel::Scalar)
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
    [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
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

// ---------------------------------------------------------------------
// f32 direct-convolution kernels
// ---------------------------------------------------------------------

/// Lanes of one f32 chunk in the direct-convolution kernels: one AVX2
/// register, or two SSE2 registers in the baseline build.
pub(crate) const LANES: usize = 8;

/// Rows of the implicit GEMM behind every f32 convolution: for `OB`
/// output channels `j`, rows `r < rows` and columns `x < len`,
/// `dst[j * plane + r * len + x] = init[j] + Σ_t wpack[t * OB + j] · src[j * step + taps[t] + r * stride + x]`,
/// where `step` is `0` when the channels share one input and a plane
/// when each reads its own (depth-wise),
/// each chain strictly sequential in ascending `t` (the canonical
/// `(ic, ky, kx)` order of the tap offsets). Columns advance [`LANES`]
/// at a time with `OB` register-resident accumulators; a tail shorter
/// than a chunk runs full-width where `src` extends far enough (the
/// padded copies are built so) and one column at a time otherwise.
///
/// # Panics
///
/// Panics when `wpack` disagrees with `taps`, a tap reaches past `src`,
/// or `dst` is too short.
#[allow(clippy::too_many_arguments)] // raw geometry is the whole API
pub(crate) fn f32_conv_rows<const OB: usize>(
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
            conv_rows_avx2(src, step, taps, wpack, init, geometry, dst, plane)
        },
        _ => conv_rows(src, step, taps, wpack, init, geometry, dst, plane),
    }
}

/// [`conv_rows`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn conv_rows_avx2<const OB: usize>(
    src: &[f32],
    step: usize,
    taps: &[usize],
    wpack: &[f32],
    init: [f32; OB],
    geometry: (usize, usize, usize),
    dst: &mut [f32],
    plane: usize,
) {
    conv_rows(src, step, taps, wpack, init, geometry, dst, plane);
}

/// The one body behind every level, compiled once for the baseline
/// target and once inside the AVX2 wrapper.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn conv_rows<const OB: usize>(
    src: &[f32],
    step: usize,
    taps: &[usize],
    wpack: &[f32],
    init: [f32; OB],
    (rows, len, stride): (usize, usize, usize),
    dst: &mut [f32],
    plane: usize,
) {
    // How far past a chunk's start the source reaches in every tap of
    // every channel.
    let last = taps.last().map_or(0, |&t| t) + (OB - 1) * step;
    let reach = src.len().saturating_sub(last);
    for r in 0..rows {
        let mut x = 0;
        while x < len {
            let (base, out) = (r * stride + x, r * len + x);
            if x + LANES <= len || base + LANES <= reach {
                let n = LANES.min(len - x);
                let acc = conv_chunk::<OB, LANES>(src, step, taps, wpack, init, base);
                for (j, a) in acc.iter().enumerate() {
                    dst[j * plane + out..j * plane + out + n].copy_from_slice(&a[..n]);
                }
                x += n;
            } else {
                let acc = conv_chunk::<OB, 1>(src, step, taps, wpack, init, base);
                for (j, a) in acc.iter().enumerate() {
                    dst[j * plane + out] = a[0];
                }
                x += 1;
            }
        }
    }
}

#[inline(always)]
fn conv_chunk<const OB: usize, const L: usize>(
    src: &[f32],
    step: usize,
    taps: &[usize],
    wpack: &[f32],
    init: [f32; OB],
    base: usize,
) -> [[f32; L]; OB] {
    let mut acc = init.map(|b| [b; L]);
    let lanes =
        |at: usize| -> &[f32; L] { src[at..at + L].try_into().expect("a slice of L lanes") };
    for (&off, w) in taps.iter().zip(wpack.chunks_exact(OB)) {
        if step == 0 {
            let s = lanes(off + base);
            for (a, &wj) in acc.iter_mut().zip(w) {
                for (al, &sl) in a.iter_mut().zip(s) {
                    *al += wj * sl;
                }
            }
        } else {
            for (j, (a, &wj)) in acc.iter_mut().zip(w).enumerate() {
                for (al, &sl) in a.iter_mut().zip(lanes(j * step + off + base)) {
                    *al += wj * sl;
                }
            }
        }
    }
    acc
}

/// `TB` weight-gradient chains per lane, the transposed implicit GEMM:
/// for taps `j < TB` and lanes `l < L`,
/// `out[j][l] = Σ_(r, x) src(j, r, x, l) · dyt[(r * len + x) * ld + l]`
/// over output pixels `(r, x)` in row-major ascending order, every chain
/// starting from `0.0`. The lanes sit `ld` apart per pixel in the
/// gradient. With `CHANNEL_LAST = false` they are output channels that
/// share one input value, `src(j, r, x, l) = src[taps[j] + r * stride + x]`;
/// with `CHANNEL_LAST = true` they are the channels of a channel-last
/// input (depth-wise layers), `src(j, r, x, l) = src[taps[j] + (r * stride + x) * ld + l]`.
///
/// # Panics
///
/// Panics when a tap reaches past `src` or `dyt` is too short.
pub(crate) fn f32_grad_taps<const TB: usize, const L: usize, const CHANNEL_LAST: bool>(
    level: SimdLevel,
    src: &[f32],
    taps: &[usize; TB],
    dyt: &[f32],
    ld: usize,
    geometry: (usize, usize, usize),
) -> [[f32; L]; TB] {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: same detection invariant as `f32_conv_rows`.
        SimdLevel::Avx2 => unsafe {
            grad_taps_avx2::<TB, L, CHANNEL_LAST>(src, taps, dyt, ld, geometry)
        },
        _ => grad_taps::<TB, L, CHANNEL_LAST>(src, taps, dyt, ld, geometry),
    }
}

/// [`grad_taps`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn grad_taps_avx2<const TB: usize, const L: usize, const CHANNEL_LAST: bool>(
    src: &[f32],
    taps: &[usize; TB],
    dyt: &[f32],
    ld: usize,
    geometry: (usize, usize, usize),
) -> [[f32; L]; TB] {
    grad_taps::<TB, L, CHANNEL_LAST>(src, taps, dyt, ld, geometry)
}

#[inline(always)]
fn grad_taps<const TB: usize, const L: usize, const CHANNEL_LAST: bool>(
    src: &[f32],
    taps: &[usize; TB],
    dyt: &[f32],
    ld: usize,
    (rows, len, stride): (usize, usize, usize),
) -> [[f32; L]; TB] {
    let mut acc = [[0.0f32; L]; TB];
    if len == 0 {
        return acc;
    }
    // Source elements one pixel spans, and the reach of one tap's row.
    let step = if CHANNEL_LAST { ld } else { 1 };
    let span = (len - 1) * step + if CHANNEL_LAST { L } else { 1 };
    for r in 0..rows {
        let srows: [&[f32]; TB] = taps.map(|off| {
            let base = off + r * stride * step;
            &src[base..base + span]
        });
        for x in 0..len {
            let p = (r * len + x) * ld;
            let d: &[f32; L] = dyt[p..p + L].try_into().expect("a slice of L lanes");
            for (a, s) in acc.iter_mut().zip(&srows) {
                if CHANNEL_LAST {
                    let s: &[f32; L] = s[x * ld..x * ld + L]
                        .try_into()
                        .expect("a slice of L lanes");
                    for ((al, &dl), &sl) in a.iter_mut().zip(d).zip(s) {
                        *al += dl * sl;
                    }
                } else {
                    let xv = s[x];
                    for (al, &dl) in a.iter_mut().zip(d) {
                        *al += dl * xv;
                    }
                }
            }
        }
    }
    acc
}

// ---------------------------------------------------------------------
// int8 tiles (i8 x i8 -> i32)
// ---------------------------------------------------------------------

/// One `MR x nr` integer tile over **pair-packed `i16` panels**:
/// `acc[i][j] = Σ_k a[k][i]·b[k][j]` in exact `i32` arithmetic.
///
/// The quantized GEMM widens its `i8` operands to `i16` at pack time
/// and interleaves *pairs* of `k` steps — `apack` is `[k/2][MR][2]`,
/// `panel` is `[k/2][nr][2]` (odd `k` zero-padded) — so the SSE2/AVX2
/// kernels can burn through two `k` steps per `madd_epi16`
/// (`i16·i16 + i16·i16 → i32` per lane, exact because `i8` products
/// fit `i16`). Integer addition is associative, so every level and
/// every grouping produces identical accumulators.
#[inline]
pub(crate) fn i8_tile(
    level: SimdLevel,
    apack: &[i16],
    panel: &[i16],
    acc: &mut [i32; MR * MAX_NR],
) {
    match level {
        SimdLevel::Scalar => i8_tile_scalar(apack, panel, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: same detection invariant as `f32_conv_rows`.
        SimdLevel::Sse2 => unsafe { i8_tile_sse2(apack, panel, acc) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { i8_tile_avx2(apack, panel, acc) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => i8_tile_scalar(apack, panel, acc),
    }
}

fn i8_tile_scalar(apack: &[i16], panel: &[i16], acc: &mut [i32; MR * MAX_NR]) {
    const NR: usize = 4;
    let mut t = [[0i32; NR]; MR];
    for (av, bv) in apack.chunks_exact(MR * 2).zip(panel.chunks_exact(NR * 2)) {
        for (acc_row, ap) in t.iter_mut().zip(av.chunks_exact(2)) {
            let (a0, a1) = (ap[0] as i32, ap[1] as i32);
            for (s, bp) in acc_row.iter_mut().zip(bv.chunks_exact(2)) {
                *s += a0 * bp[0] as i32 + a1 * bp[1] as i32;
            }
        }
    }
    for (i, row) in t.iter().enumerate() {
        acc[i * NR..(i + 1) * NR].copy_from_slice(row);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn i8_tile_sse2(apack: &[i16], panel: &[i16], acc: &mut [i32; MR * MAX_NR]) {
    use std::arch::x86_64::*;
    const NR: usize = 4;
    let kp = apack.len() / (MR * 2);
    debug_assert_eq!(panel.len(), kp * NR * 2);
    let mut t = [_mm_setzero_si128(); MR];
    let a = apack.as_ptr();
    let b = panel.as_ptr();
    for kk in 0..kp {
        // 8 i16 lanes = 4 columns x 2 interleaved k steps.
        let bv = _mm_loadu_si128(b.add(kk * NR * 2) as *const __m128i);
        for (i, acc_row) in t.iter_mut().enumerate() {
            // Unaligned pair read: a `Vec<i16>` only guarantees 2-byte
            // alignment.
            let pair = (a.add((kk * MR + i) * 2) as *const i32).read_unaligned();
            let av = _mm_set1_epi32(pair); // (a_k, a_k+1) in every lane pair
            *acc_row = _mm_add_epi32(*acc_row, _mm_madd_epi16(av, bv));
        }
    }
    for (i, acc_row) in t.iter().enumerate() {
        _mm_storeu_si128(acc.as_mut_ptr().add(i * NR) as *mut __m128i, *acc_row);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn i8_tile_avx2(apack: &[i16], panel: &[i16], acc: &mut [i32; MR * MAX_NR]) {
    use std::arch::x86_64::*;
    const NR: usize = 8;
    let kp = apack.len() / (MR * 2);
    debug_assert_eq!(panel.len(), kp * NR * 2);
    let mut t = [_mm256_setzero_si256(); MR];
    let a = apack.as_ptr();
    let b = panel.as_ptr();
    for kk in 0..kp {
        // 16 i16 lanes = 8 columns x 2 interleaved k steps.
        let bv = _mm256_loadu_si256(b.add(kk * NR * 2) as *const __m256i);
        for (i, acc_row) in t.iter_mut().enumerate() {
            let pair = (a.add((kk * MR + i) * 2) as *const i32).read_unaligned();
            let av = _mm256_set1_epi32(pair);
            *acc_row = _mm256_add_epi32(*acc_row, _mm256_madd_epi16(av, bv));
        }
    }
    for (i, acc_row) in t.iter().enumerate() {
        _mm256_storeu_si256(acc.as_mut_ptr().add(i * NR) as *mut __m256i, *acc_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_vocabulary() {
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse("SSE2"), Some(SimdLevel::Sse2));
        assert_eq!(SimdLevel::parse(" avx2 "), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("avx512"), None);
        assert_eq!(SimdLevel::parse(""), None);
    }

    #[test]
    fn clamping_never_exceeds_request_or_hardware() {
        for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
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

    #[test]
    fn tile_widths_follow_levels() {
        assert_eq!(SimdLevel::Scalar.nr(), 4);
        assert_eq!(SimdLevel::Sse2.nr(), 4);
        assert_eq!(SimdLevel::Avx2.nr(), 8);
        assert!(SimdLevel::Avx2.nr() <= MAX_NR);
    }

    /// Direct kernel-level cross-check against the scalar chains; the
    /// integration suite pins the same property through the full
    /// convolutions.
    #[test]
    fn f32_tiles_agree_across_available_levels() {
        // 2 rows of 11 columns (one full chunk plus a 3-column tail)
        // over a 13-wide source, 5 taps, 4 interleaved channels.
        let (rows, len, stride, ob) = (2, 11, 13, 4);
        let taps = [0usize, 1, 2, 13, 27];
        let src: Vec<f32> = (0..64).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
        let wpack: Vec<f32> = (0..taps.len() * ob)
            .map(|i| (i % 5) as f32 * 0.5 - 1.0)
            .collect();
        let init = [0.125f32, -0.0, 0.5, -1.0];
        let dyt: Vec<f32> = (0..rows * len * LANES)
            .map(|i| (i % 9) as f32 * 0.3 - 1.1)
            .collect();
        for level in available_levels() {
            let mut dst = vec![0.0f32; ob * rows * len];
            f32_conv_rows::<4>(
                level,
                &src,
                0,
                &taps,
                &wpack,
                init,
                (rows, len, stride),
                &mut dst,
                rows * len,
            );
            let grads = f32_grad_taps::<5, LANES, false>(
                level,
                &src,
                &taps,
                &dyt,
                LANES,
                (rows, len, stride),
            );
            for r in 0..rows {
                for x in 0..len {
                    for j in 0..ob {
                        let mut s = init[j];
                        for (t, &off) in taps.iter().enumerate() {
                            s += wpack[t * ob + j] * src[off + r * stride + x];
                        }
                        let got = dst[j * rows * len + r * len + x];
                        assert_eq!(
                            got.to_bits(),
                            s.to_bits(),
                            "level {level} conv ({j},{r},{x})"
                        );
                    }
                }
            }
            for (t, &off) in taps.iter().enumerate() {
                for l in 0..LANES {
                    let mut s = 0.0f32;
                    for p in 0..rows * len {
                        s += dyt[p * LANES + l] * src[off + (p / len) * stride + p % len];
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

    #[test]
    fn i8_tiles_agree_across_available_levels() {
        let kp = 9; // pair count (covers an effective odd k via padding)
        for level in available_levels() {
            let nr = level.nr();
            let apack: Vec<i16> = (0..kp * MR * 2).map(|i| (i % 255) as i16 - 127).collect();
            let panel: Vec<i16> = (0..kp * nr * 2).map(|i| (i % 251) as i16 - 125).collect();
            let mut acc = [0i32; MR * MAX_NR];
            i8_tile(level, &apack, &panel, &mut acc);
            for i in 0..MR {
                for j in 0..nr {
                    let mut s = 0i32;
                    for kk in 0..kp {
                        s += apack[(kk * MR + i) * 2] as i32 * panel[(kk * nr + j) * 2] as i32
                            + apack[(kk * MR + i) * 2 + 1] as i32
                                * panel[(kk * nr + j) * 2 + 1] as i32;
                    }
                    assert_eq!(acc[i * nr + j], s, "level {level} tile ({i},{j})");
                }
            }
        }
    }
}
