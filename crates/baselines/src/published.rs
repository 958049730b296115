//! Published DAC-SDC 2018 results (paper Table 2, data from the contest report, arXiv:1809.00110).

use std::fmt;

/// Contest category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// PYNQ-Z1 FPGA category.
    Fpga,
    /// Jetson TX2 GPU category.
    Gpu,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Category::Fpga => write!(f, "FPGA"),
            Category::Gpu => write!(f, "GPU"),
        }
    }
}

/// Resource utilization percentages as published (LUT, DSP, BRAM, FF).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishedUtilization {
    /// LUT utilization in percent.
    pub lut: f64,
    /// DSP utilization in percent.
    pub dsp: f64,
    /// BRAM utilization in percent.
    pub bram: f64,
    /// FF utilization in percent.
    pub ff: f64,
}

/// One leaderboard row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishedResult {
    /// Entry name, e.g. `"1st in FPGA"`.
    pub name: String,
    /// Contest category.
    pub category: Category,
    /// Base model, when published (e.g. `"SSD"`, `"Tiny-Yolo"`).
    pub model: Option<String>,
    /// Accuracy on the official 50 K-image set.
    pub iou: f64,
    /// Single-frame latency in milliseconds.
    pub latency_ms: f64,
    /// Clock in MHz at which the latency was reported.
    pub clock_mhz: f64,
    /// Throughput over the full 50 K-image run.
    pub fps: f64,
    /// Board power in watts.
    pub power_w: f64,
    /// Total energy for the 50 K images in kilojoules.
    pub energy_kj: f64,
    /// Energy per image in joules.
    pub j_per_pic: f64,
    /// Resource utilization (FPGA entries only).
    pub utilization: Option<PublishedUtilization>,
}

/// The six comparison rows of Table 2.
pub fn dac_sdc_2018_results() -> Vec<PublishedResult> {
    let u = |lut, dsp, bram, ff| Some(PublishedUtilization { lut, dsp, bram, ff });
    vec![
        PublishedResult {
            name: "1st in FPGA".into(),
            category: Category::Fpga,
            model: Some("SSD".into()),
            iou: 0.624,
            latency_ms: 84.6,
            clock_mhz: 150.0,
            fps: 11.96,
            power_w: 4.2,
            energy_kj: 17.56,
            j_per_pic: 0.35,
            utilization: u(83.9, 100.0, 78.9, 54.2),
        },
        PublishedResult {
            name: "2nd in FPGA".into(),
            category: Category::Fpga,
            model: None,
            iou: 0.492,
            latency_ms: 38.5,
            clock_mhz: 150.0,
            fps: 25.97,
            power_w: 2.5,
            energy_kj: 4.81,
            j_per_pic: 0.10,
            utilization: u(88.0, 78.0, 77.0, 62.0),
        },
        PublishedResult {
            name: "3rd in FPGA".into(),
            category: Category::Fpga,
            model: None,
            iou: 0.573,
            latency_ms: 136.1,
            clock_mhz: 150.0,
            fps: 7.35,
            power_w: 2.6,
            energy_kj: 17.69,
            j_per_pic: 0.35,
            utilization: u(63.0, 86.0, 95.0, 22.0),
        },
        PublishedResult {
            name: "1st in GPU".into(),
            category: Category::Gpu,
            model: Some("Yolo".into()),
            iou: 0.698,
            latency_ms: 40.7,
            clock_mhz: 854.0,
            fps: 24.55,
            power_w: 12.6,
            energy_kj: 25.66,
            j_per_pic: 0.51,
            utilization: None,
        },
        PublishedResult {
            name: "2nd in GPU".into(),
            category: Category::Gpu,
            model: Some("Tiny-Yolo".into()),
            iou: 0.691,
            latency_ms: 39.5,
            clock_mhz: 854.0,
            fps: 25.3,
            power_w: 13.3,
            energy_kj: 26.28,
            j_per_pic: 0.53,
            utilization: None,
        },
        PublishedResult {
            name: "3rd in GPU".into(),
            category: Category::Gpu,
            model: Some("Tiny-Yolo".into()),
            iou: 0.685,
            latency_ms: 42.3,
            clock_mhz: 854.0,
            fps: 23.64,
            power_w: 10.3,
            energy_kj: 21.79,
            j_per_pic: 0.44,
            utilization: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_rows_three_per_category() {
        let rows = dac_sdc_2018_results();
        assert_eq!(rows.len(), 6);
        assert_eq!(
            rows.iter().filter(|r| r.category == Category::Fpga).count(),
            3
        );
        assert_eq!(
            rows.iter().filter(|r| r.category == Category::Gpu).count(),
            3
        );
    }

    #[test]
    fn fpga_first_place_matches_paper() {
        let rows = dac_sdc_2018_results();
        let first = &rows[0];
        assert_eq!(first.model.as_deref(), Some("SSD"));
        assert!((first.iou - 0.624).abs() < 1e-9);
        assert!((first.latency_ms - 84.6).abs() < 1e-9);
        assert_eq!(first.utilization.unwrap().dsp, 100.0);
    }

    #[test]
    fn energy_columns_are_consistent() {
        // j_per_pic x 50_000 images should approximate energy_kj.
        for r in dac_sdc_2018_results() {
            let implied_kj = r.j_per_pic * 50_000.0 / 1000.0;
            assert!(
                (implied_kj - r.energy_kj).abs() / r.energy_kj < 0.15,
                "{}: {implied_kj} vs {}",
                r.name,
                r.energy_kj
            );
        }
    }

    #[test]
    fn gpu_rows_use_more_power_than_fpga_rows() {
        let rows = dac_sdc_2018_results();
        let max_fpga = rows
            .iter()
            .filter(|r| r.category == Category::Fpga)
            .map(|r| r.power_w)
            .fold(0.0, f64::max);
        let min_gpu = rows
            .iter()
            .filter(|r| r.category == Category::Gpu)
            .map(|r| r.power_w)
            .fold(f64::INFINITY, f64::min);
        assert!(min_gpu > max_fpga);
    }
}
