//! Bounding-box geometry and IoU.

use std::fmt;

/// An axis-aligned bounding box in normalized image coordinates:
/// center `(cx, cy)` and size `(w, h)`, all in `[0, 1]`.
///
/// # Example
///
/// ```
/// use codesign_dataset::BoundingBox;
///
/// let a = BoundingBox::new(0.5, 0.5, 0.4, 0.4);
/// let b = BoundingBox::new(0.5, 0.5, 0.2, 0.2);
/// // b sits inside a: IoU = area(b) / area(a) = 0.25.
/// assert!((a.iou(&b) - 0.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Center x in `[0, 1]`.
    pub cx: f64,
    /// Center y in `[0, 1]`.
    pub cy: f64,
    /// Width in `[0, 1]`.
    pub w: f64,
    /// Height in `[0, 1]`.
    pub h: f64,
}

impl BoundingBox {
    /// Creates a box; coordinates are clamped into the unit square and
    /// sizes to non-negative values.
    pub fn new(cx: f64, cy: f64, w: f64, h: f64) -> Self {
        Self {
            cx: cx.clamp(0.0, 1.0),
            cy: cy.clamp(0.0, 1.0),
            w: w.clamp(0.0, 1.0),
            h: h.clamp(0.0, 1.0),
        }
    }

    /// Builds a box from a raw prediction 4-vector (e.g. network
    /// output), clamping into the legal domain.
    pub fn from_prediction(v: &[f32]) -> Self {
        Self::new(
            v.first().copied().unwrap_or(0.0) as f64,
            v.get(1).copied().unwrap_or(0.0) as f64,
            v.get(2).copied().unwrap_or(0.0) as f64,
            v.get(3).copied().unwrap_or(0.0) as f64,
        )
    }

    /// Corner representation `(x0, y0, x1, y1)`.
    pub fn corners(&self) -> (f64, f64, f64, f64) {
        (
            self.cx - self.w / 2.0,
            self.cy - self.h / 2.0,
            self.cx + self.w / 2.0,
            self.cy + self.h / 2.0,
        )
    }

    /// Box area.
    pub fn area(&self) -> f64 {
        self.w * self.h
    }

    /// Intersection area with another box.
    pub fn intersection(&self, other: &BoundingBox) -> f64 {
        let (ax0, ay0, ax1, ay1) = self.corners();
        let (bx0, by0, bx1, by1) = other.corners();
        let iw = (ax1.min(bx1) - ax0.max(bx0)).max(0.0);
        let ih = (ay1.min(by1) - ay0.max(by0)).max(0.0);
        iw * ih
    }

    /// Intersection-over-Union with another box, in `[0, 1]`.
    pub fn iou(&self, other: &BoundingBox) -> f64 {
        let inter = self.intersection(other);
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            (inter / union).clamp(0.0, 1.0)
        }
    }

    /// The box as a `(cx, cy, w, h)` training target.
    pub fn to_target(self) -> [f32; 4] {
        [self.cx as f32, self.cy as f32, self.w as f32, self.h as f32]
    }
}

impl fmt::Display for BoundingBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "box(cx={:.3}, cy={:.3}, w={:.3}, h={:.3})",
            self.cx, self.cy, self.w, self.h
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_iou_is_one() {
        let b = BoundingBox::new(0.3, 0.7, 0.2, 0.1);
        assert!((b.iou(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_iou_is_zero() {
        let a = BoundingBox::new(0.2, 0.2, 0.1, 0.1);
        let b = BoundingBox::new(0.8, 0.8, 0.1, 0.1);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn nested_box_iou_is_area_ratio() {
        let outer = BoundingBox::new(0.5, 0.5, 0.8, 0.5);
        let inner = BoundingBox::new(0.5, 0.5, 0.4, 0.25);
        assert!((outer.iou(&inner) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn zero_area_boxes_score_zero() {
        let degenerate = BoundingBox::new(0.5, 0.5, 0.0, 0.0);
        assert_eq!(degenerate.iou(&degenerate), 0.0);
    }

    #[test]
    fn constructor_clamps() {
        let b = BoundingBox::new(-1.0, 2.0, 5.0, -3.0);
        assert_eq!((b.cx, b.cy, b.w, b.h), (0.0, 1.0, 1.0, 0.0));
    }

    #[test]
    fn from_prediction_handles_short_vectors() {
        let b = BoundingBox::from_prediction(&[0.5, 0.5]);
        assert_eq!(b.w, 0.0);
    }

    proptest! {
        #[test]
        fn prop_iou_symmetric(ax in 0.0f64..1.0, ay in 0.0f64..1.0,
                              bx in 0.0f64..1.0, by in 0.0f64..1.0,
                              w in 0.01f64..0.5, h in 0.01f64..0.5) {
            let a = BoundingBox::new(ax, ay, w, h);
            let b = BoundingBox::new(bx, by, w, h);
            prop_assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-12);
        }

        #[test]
        fn prop_iou_in_unit_interval(ax in 0.0f64..1.0, ay in 0.0f64..1.0,
                                     aw in 0.0f64..1.0, ah in 0.0f64..1.0,
                                     bx in 0.0f64..1.0, by in 0.0f64..1.0,
                                     bw in 0.0f64..1.0, bh in 0.0f64..1.0) {
            let a = BoundingBox::new(ax, ay, aw, ah);
            let b = BoundingBox::new(bx, by, bw, bh);
            let iou = a.iou(&b);
            prop_assert!((0.0..=1.0).contains(&iou));
        }

        #[test]
        fn prop_intersection_bounded_by_smaller_area(
            ax in 0.2f64..0.8, ay in 0.2f64..0.8,
            bx in 0.2f64..0.8, by in 0.2f64..0.8,
            w in 0.05f64..0.4, h in 0.05f64..0.4) {
            let a = BoundingBox::new(ax, ay, w, h);
            let b = BoundingBox::new(bx, by, w, h);
            prop_assert!(a.intersection(&b) <= a.area().min(b.area()) + 1e-12);
        }

        #[test]
        fn prop_target_round_trip(cx in 0.0f64..1.0, cy in 0.0f64..1.0,
                                  w in 0.0f64..1.0, h in 0.0f64..1.0) {
            let b = BoundingBox::new(cx, cy, w, h);
            let t = b.to_target();
            let back = BoundingBox::from_prediction(&t);
            prop_assert!((back.cx - b.cx).abs() < 1e-6);
            prop_assert!((back.h - b.h).abs() < 1e-6);
        }
    }
}
