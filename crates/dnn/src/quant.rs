//! Quantization schemes and activation functions.
//!
//! The paper couples the activation function with the feature-map data
//! type (Sec. 5.1.2): plain `Relu` keeps 16-bit feature maps, while the
//! clipped variants `Relu4` / `Relu8` bound the dynamic range so feature
//! maps fit in 8 bits. The bit-width decides how many multiplies a
//! Xilinx DSP48 slice can host per cycle (two 8-bit multiplies can share
//! one DSP, a 16-bit multiply needs a full slice), which is how the
//! quantization scheme `Q_j` of Table 1 enters the resource model.

use std::fmt;

/// Activation functions available in the IP pool.
///
/// `Relu4` and `Relu8` clip the output to `[0, 4]` / `[0, 8]`, which
/// bounds the feature-map dynamic range and enables 8-bit feature maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Unbounded rectifier; requires 16-bit feature maps.
    Relu,
    /// Rectifier clipped at 4; enables 8-bit feature maps.
    Relu4,
    /// Rectifier clipped at 8; enables 8-bit feature maps.
    Relu8,
}

impl Activation {
    /// All activation variants evaluated in the paper's fine-grained
    /// Bundle evaluation (Fig. 5).
    pub const ALL: [Activation; 3] = [Activation::Relu, Activation::Relu4, Activation::Relu8];

    /// The clipping ceiling, if any.
    pub fn clip(&self) -> Option<f32> {
        match self {
            Activation::Relu => None,
            Activation::Relu4 => Some(4.0),
            Activation::Relu8 => Some(8.0),
        }
    }

    /// The quantization scheme this activation implies for feature maps.
    pub fn quantization(&self) -> Quantization {
        match self {
            Activation::Relu => Quantization::Int16,
            Activation::Relu4 | Activation::Relu8 => Quantization::Int8,
        }
    }

    /// Applies the activation to a single value.
    ///
    /// # Example
    ///
    /// ```
    /// use codesign_dnn::Activation;
    ///
    /// assert_eq!(Activation::Relu4.apply(-1.0), 0.0);
    /// assert_eq!(Activation::Relu4.apply(9.0), 4.0);
    /// assert_eq!(Activation::Relu.apply(9.0), 9.0);
    /// ```
    pub fn apply(&self, x: f32) -> f32 {
        let y = x.max(0.0);
        match self.clip() {
            Some(c) => y.min(c),
            None => y,
        }
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Activation::Relu => write!(f, "relu"),
            Activation::Relu4 => write!(f, "relu4"),
            Activation::Relu8 => write!(f, "relu8"),
        }
    }
}

/// Fixed-point quantization scheme `Q_j` for weights and feature maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quantization {
    /// 8-bit weights and feature maps (used with `Relu4` / `Relu8`).
    Int8,
    /// 16-bit weights and feature maps (used with plain `Relu`).
    Int16,
}

impl Quantization {
    /// Bit-width of one feature-map element.
    pub fn bits(&self) -> usize {
        match self {
            Quantization::Int8 => 8,
            Quantization::Int16 => 16,
        }
    }

    /// Bytes per feature-map element.
    pub fn bytes(&self) -> usize {
        self.bits() / 8
    }

    /// Multiply-accumulate lanes one DSP48E1 slice can host per cycle
    /// under this scheme. Two 8-bit multiplies can be packed into a
    /// single DSP (the standard `INT8` packing trick); a 16-bit multiply
    /// occupies a full slice.
    pub fn macs_per_dsp(&self) -> usize {
        match self {
            Quantization::Int8 => 2,
            Quantization::Int16 => 1,
        }
    }

    /// Representable range of a signed fixed-point value with this
    /// bit-width, as `(min, max)` integer codes.
    pub fn code_range(&self) -> (i32, i32) {
        let b = self.bits() as u32;
        (-(1i32 << (b - 1)), (1i32 << (b - 1)) - 1)
    }

    /// Quantizes `x` with scale `scale` (value = code * scale), clamping
    /// to the representable range.
    pub fn quantize(&self, x: f32, scale: f32) -> i32 {
        let (lo, hi) = self.code_range();
        let code = (x / scale).round();
        (code as i32).clamp(lo, hi)
    }

    /// Reconstructs a real value from a quantized code.
    pub fn dequantize(&self, code: i32, scale: f32) -> f32 {
        code as f32 * scale
    }
}

impl fmt::Display for Quantization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quantization::Int8 => write!(f, "int8"),
            Quantization::Int16 => write!(f, "int16"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn relu_variants_clip() {
        assert_eq!(Activation::Relu.apply(100.0), 100.0);
        assert_eq!(Activation::Relu4.apply(100.0), 4.0);
        assert_eq!(Activation::Relu8.apply(100.0), 8.0);
        for a in Activation::ALL {
            assert_eq!(a.apply(-3.0), 0.0);
        }
    }

    #[test]
    fn activation_fixes_quantization() {
        assert_eq!(Activation::Relu.quantization(), Quantization::Int16);
        assert_eq!(Activation::Relu4.quantization(), Quantization::Int8);
        assert_eq!(Activation::Relu8.quantization(), Quantization::Int8);
    }

    #[test]
    fn dsp_packing() {
        assert_eq!(Quantization::Int8.macs_per_dsp(), 2);
        assert_eq!(Quantization::Int16.macs_per_dsp(), 1);
    }

    #[test]
    fn code_ranges() {
        assert_eq!(Quantization::Int8.code_range(), (-128, 127));
        assert_eq!(Quantization::Int16.code_range(), (-32768, 32767));
    }

    #[test]
    fn quantize_clamps() {
        let q = Quantization::Int8;
        assert_eq!(q.quantize(1000.0, 0.1), 127);
        assert_eq!(q.quantize(-1000.0, 0.1), -128);
    }

    #[test]
    fn bytes_match_bits() {
        assert_eq!(Quantization::Int8.bytes(), 1);
        assert_eq!(Quantization::Int16.bytes(), 2);
    }

    proptest! {
        #[test]
        fn prop_quantize_round_trip_error_bounded(x in -4.0f32..4.0, scale in 0.01f32..0.1) {
            let q = Quantization::Int8;
            let code = q.quantize(x, scale);
            let back = q.dequantize(code, scale);
            // Quantization error is at most half a step unless clamped.
            let (lo, hi) = q.code_range();
            if code > lo && code < hi {
                prop_assert!((back - x).abs() <= scale * 0.5 + f32::EPSILON);
            }
        }

        #[test]
        fn prop_activation_output_nonnegative(x in -100.0f32..100.0) {
            for a in Activation::ALL {
                prop_assert!(a.apply(x) >= 0.0);
            }
        }

        #[test]
        fn prop_activation_bounded_by_clip(x in -100.0f32..100.0) {
            prop_assert!(Activation::Relu4.apply(x) <= 4.0);
            prop_assert!(Activation::Relu8.apply(x) <= 8.0);
        }

        #[test]
        fn prop_activation_monotone(a in -50.0f32..50.0, b in -50.0f32..50.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            for act in Activation::ALL {
                prop_assert!(act.apply(lo) <= act.apply(hi));
            }
        }
    }
}
