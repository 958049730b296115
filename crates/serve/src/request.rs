//! Co-design request parsing: wire JSON → validated [`FlowConfig`].
//!
//! Every field is optional — each present field is assigned onto the
//! paper's setup, [`FlowConfig::for_device`]`(pynq_z1())` — but present
//! fields are strictly checked: unknown keys and wrong types are
//! 400-class errors, and the assembled config must pass
//! [`FlowConfig::validate`], whose typed
//! [`ConfigError`](codesign_core::flow::ConfigError) text is the
//! client's error. The server never panics on client input.

use crate::json::Json;
use codesign_core::flow::FlowConfig;
use codesign_core::parallel::Parallelism;
use codesign_sim::device::{pynq_z1, ultra96, zcu104, FpgaDevice};

/// Devices a request may name. The ladder matches `exp_portability`.
pub fn device_by_name(name: &str) -> Option<FpgaDevice> {
    match name.to_lowercase().replace('-', "_").as_str() {
        "pynq_z1" => Some(pynq_z1()),
        "ultra96" => Some(ultra96()),
        "zcu104" => Some(zcu104()),
        _ => None,
    }
}

fn num_field(value: &Json, key: &str) -> Result<f64, String> {
    value
        .as_num()
        .ok_or_else(|| format!("field `{key}` must be a number"))
}

fn uint_field(value: &Json, key: &str) -> Result<u64, String> {
    value
        .as_uint()
        .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
}

fn num_array_field(value: &Json, key: &str) -> Result<Vec<f64>, String> {
    value
        .as_arr()
        .ok_or_else(|| format!("field `{key}` must be an array of numbers"))?
        .iter()
        .map(|v| num_field(v, key))
        .collect()
}

/// A parsed job submission: the flow configuration plus the
/// request-level knobs that are not part of the flow itself.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The validated flow configuration.
    pub config: FlowConfig,
    /// Optional deadline in milliseconds from admission; the job times
    /// out at the next work-item boundary after it passes.
    pub deadline_ms: Option<u64>,
}

/// Parses a job-submission body into a validated [`FlowConfig`],
/// ignoring request-level fields. See [`job_request_from_body`] for the
/// full submission document.
///
/// # Errors
///
/// Returns a client-facing message for malformed JSON, unknown fields,
/// type mismatches, unknown devices, and configurations rejected by
/// [`FlowConfig::validate`].
pub fn flow_config_from_body(body: &str) -> Result<FlowConfig, String> {
    job_request_from_body(body).map(|req| req.config)
}

/// Parses a job-submission body into a [`JobRequest`]: every
/// [`FlowConfig`] field plus `deadline_ms` (positive integer,
/// milliseconds).
///
/// # Errors
///
/// Everything [`flow_config_from_body`] rejects, plus a zero or
/// non-integer `deadline_ms`.
pub fn job_request_from_body(body: &str) -> Result<JobRequest, String> {
    let doc = crate::json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let pairs = doc
        .as_obj()
        .ok_or_else(|| "request body must be a JSON object".to_string())?;
    let mut config = FlowConfig::for_device(pynq_z1());
    let mut deadline_ms = None;
    for (key, value) in pairs {
        match key.as_str() {
            "deadline_ms" => {
                let ms = uint_field(value, key)?;
                if ms == 0 {
                    return Err("field `deadline_ms` must be positive".into());
                }
                deadline_ms = Some(ms);
            }
            "device" => {
                let name = value
                    .as_str()
                    .ok_or_else(|| "field `device` must be a device-name string".to_string())?;
                config.device = device_by_name(name).ok_or_else(|| {
                    format!("unknown device `{name}` (known: pynq_z1, ultra96, zcu104)")
                })?;
            }
            "targets_fps" => config.targets_fps = num_array_field(value, key)?,
            "clock_mhz" => config.clock_mhz = num_field(value, key)?,
            "fps_tolerance" => config.fps_tolerance = num_field(value, key)?,
            "candidates_per_bundle" => {
                config.candidates_per_bundle = uint_field(value, key)? as usize;
            }
            "coarse_pf_sweep" => {
                config.coarse_pf_sweep = value
                    .as_arr()
                    .ok_or_else(|| "field `coarse_pf_sweep` must be an array".to_string())?
                    .iter()
                    .map(|v| uint_field(v, key).map(|n| n as usize))
                    .collect::<Result<_, _>>()?;
            }
            "eval_replications" => config.eval_replications = uint_field(value, key)? as usize,
            "seed" => config.seed = uint_field(value, key)?,
            "parallelism" => {
                config.parallelism = match value {
                    Json::Str(s) if s == "auto" => Parallelism::Auto,
                    _ => match uint_field(value, key)? as usize {
                        0 => return Err("field `parallelism` must be positive or \"auto\"".into()),
                        n => Parallelism::Fixed(n),
                    },
                };
            }
            other => return Err(format!("unknown field `{other}`")),
        }
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(JobRequest {
        config,
        deadline_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_core::flow::{ConfigError, FlowError};

    #[test]
    fn empty_object_is_the_paper_default() {
        let cfg = flow_config_from_body("{}").unwrap();
        assert_eq!(cfg, FlowConfig::for_device(pynq_z1()));
    }

    #[test]
    fn full_request_parses() {
        let cfg = flow_config_from_body(
            r#"{"device":"ultra96","targets_fps":[15.0],"clock_mhz":150,
                "fps_tolerance":2.5,"candidates_per_bundle":2,
                "coarse_pf_sweep":[16],"eval_replications":4,
                "seed":7,"parallelism":2}"#,
        )
        .unwrap();
        assert_eq!(
            cfg,
            FlowConfig {
                device: ultra96(),
                targets_fps: vec![15.0],
                clock_mhz: 150.0,
                fps_tolerance: 2.5,
                candidates_per_bundle: 2,
                coarse_pf_sweep: vec![16],
                eval_replications: 4,
                seed: 7,
                parallelism: Parallelism::Fixed(2),
            }
        );
    }

    #[test]
    fn parallelism_accepts_auto() {
        let cfg = flow_config_from_body(r#"{"parallelism":"auto"}"#).unwrap();
        assert_eq!(cfg.parallelism, Parallelism::Auto);
    }

    #[test]
    fn typed_validation_errors_reach_the_client() {
        for (body, expected) in [
            (r#"{"targets_fps":[]}"#, ConfigError::EmptyTargets),
            (
                r#"{"targets_fps":[15,-1]}"#,
                ConfigError::NonPositiveTarget { fps: -1.0 },
            ),
            (
                r#"{"clock_mhz":0}"#,
                ConfigError::NonPositiveClock { clock_mhz: 0.0 },
            ),
            (
                r#"{"fps_tolerance":-0.5}"#,
                ConfigError::NonPositiveTolerance {
                    fps_tolerance: -0.5,
                },
            ),
            (
                r#"{"candidates_per_bundle":0}"#,
                ConfigError::ZeroCandidates,
            ),
            (r#"{"coarse_pf_sweep":[]}"#, ConfigError::EmptyPfSweep),
            (r#"{"coarse_pf_sweep":[16,0]}"#, ConfigError::ZeroPf),
            (r#"{"eval_replications":0}"#, ConfigError::ZeroReplications),
        ] {
            assert_eq!(
                flow_config_from_body(body).unwrap_err(),
                FlowError::from(expected).to_string(),
                "{body}"
            );
        }
    }

    #[test]
    fn rejects_unknown_fields_devices_and_types() {
        assert!(flow_config_from_body(r#"{"tarlets_fps":[10]}"#)
            .unwrap_err()
            .contains("unknown field"));
        assert!(flow_config_from_body(r#"{"device":"virtex"}"#)
            .unwrap_err()
            .contains("unknown device"));
        assert!(flow_config_from_body(r#"{"seed":-3}"#)
            .unwrap_err()
            .contains("non-negative integer"));
        assert!(flow_config_from_body(r#"{"targets_fps":15}"#)
            .unwrap_err()
            .contains("array"));
        assert!(flow_config_from_body("[1,2]")
            .unwrap_err()
            .contains("JSON object"));
        assert!(flow_config_from_body("{nope")
            .unwrap_err()
            .contains("invalid JSON"));
    }

    #[test]
    fn deadline_ms_parses_and_rejects_zero() {
        let req = job_request_from_body(r#"{"deadline_ms":2500,"seed":3}"#).unwrap();
        assert_eq!(req.deadline_ms, Some(2500));
        assert_eq!(req.config.seed, 3);
        let req = job_request_from_body("{}").unwrap();
        assert_eq!(req.deadline_ms, None);
        assert!(job_request_from_body(r#"{"deadline_ms":0}"#)
            .unwrap_err()
            .contains("positive"));
        assert!(job_request_from_body(r#"{"deadline_ms":"soon"}"#)
            .unwrap_err()
            .contains("non-negative integer"));
    }

    #[test]
    fn device_names_normalize() {
        assert_eq!(device_by_name("PYNQ-Z1").unwrap(), pynq_z1());
        assert_eq!(device_by_name("zcu104").unwrap(), zcu104());
        assert!(device_by_name("unknown").is_none());
    }
}
