//! Error type for the accelerator simulator.

use std::fmt;

/// Errors produced while mapping a DNN onto the Tile-Arch template.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The design does not fit the device even before simulation (e.g.
    /// a single IP instance already exceeds the DSP budget).
    ResourceOverflow {
        /// Resource that overflowed (e.g. `"DSP"`).
        resource: &'static str,
        /// Amount requested.
        requested: u64,
        /// Device budget.
        available: u64,
    },
    /// The accelerator configuration is internally inconsistent.
    InvalidConfig {
        /// Explanation.
        reason: String,
    },
    /// The DNN contains an operator the Tile-Arch IP pool cannot map.
    UnsupportedLayer {
        /// Display form of the operator.
        op: String,
    },
    /// The device description is unusable (zero bandwidth or budget).
    InvalidDevice {
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ResourceOverflow {
                resource,
                requested,
                available,
            } => write!(
                f,
                "{resource} overflow: {requested} requested, {available} available"
            ),
            SimError::InvalidConfig { reason } => write!(f, "invalid accelerator config: {reason}"),
            SimError::UnsupportedLayer { op } => write!(f, "unsupported layer {op}"),
            SimError::InvalidDevice { reason } => write!(f, "invalid device: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_resource() {
        let e = SimError::ResourceOverflow {
            resource: "DSP",
            requested: 300,
            available: 220,
        };
        let s = e.to_string();
        assert!(s.contains("DSP") && s.contains("300") && s.contains("220"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
