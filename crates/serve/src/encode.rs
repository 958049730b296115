//! Byte-stable JSON encodings of flow results and progress events.
//!
//! The result encoder is the *one* presentation path shared by the
//! server and the test suite: the integration tests assert that the
//! body a client downloads is byte-identical to running
//! [`CoDesignFlow::run`](codesign_core::flow::CoDesignFlow::run)
//! directly and encoding its output here. That works because the
//! encoding is built from [`FlowOutput::summary`] rows plus the
//! deterministic candidate list, and deliberately excludes anything
//! scheduling-dependent (cache hit/miss splits, timings).

use crate::json::Json;
use codesign_core::flow::{DesignSummary, FlowOutput};
use codesign_core::observe::FlowEvent;
use codesign_core::search::Candidate;
use codesign_store::fnv1a;

fn candidate_json(target_fps: f64, c: &Candidate) -> Json {
    Json::Obj(vec![
        ("target_fps".into(), Json::num(target_fps)),
        ("point".into(), Json::str(c.point.to_string())),
        ("bundle".into(), Json::num(c.point.bundle.id().0 as f64)),
        (
            "replications".into(),
            Json::num(c.point.n_replications as f64),
        ),
        (
            "max_channels".into(),
            Json::num(c.point.realized_max_channels() as f64),
        ),
        (
            "parallel_factor".into(),
            Json::num(c.point.parallel_factor as f64),
        ),
        (
            "activation".into(),
            Json::str(c.point.activation.to_string()),
        ),
        ("latency_ms".into(), Json::num(c.latency_ms)),
        ("fps".into(), Json::num(1000.0 / c.latency_ms)),
        ("accuracy".into(), Json::num(c.accuracy)),
    ])
}

fn design_summary_json(row: &DesignSummary) -> Json {
    Json::Obj(vec![
        ("target_fps".into(), Json::num(row.target_fps)),
        ("bundle".into(), Json::num(row.bundle as f64)),
        ("replications".into(), Json::num(row.replications as f64)),
        ("max_channels".into(), Json::num(row.max_channels as f64)),
        ("activation".into(), Json::str(row.activation.to_string())),
        ("accuracy".into(), Json::num(row.accuracy)),
        ("latency_ms".into(), Json::num(row.latency_ms)),
        ("fps".into(), Json::num(row.fps)),
    ])
}

/// Encodes a finished flow's result as the response-body JSON value.
///
/// Deterministic and byte-stable for a given search outcome: candidate
/// order is the flow's deterministic merge order, design rows come from
/// [`FlowOutput::summary`], and the generated C is pinned by length and
/// FNV-1a hash instead of being inlined.
pub fn flow_result_json(out: &FlowOutput) -> Json {
    let summary = out.summary();
    let designs: Vec<Json> = out
        .designs
        .iter()
        .map(|d| {
            let mut fields = match design_summary_json(&d.summary()) {
                Json::Obj(fields) => fields,
                _ => unreachable!("design summary encodes as an object"),
            };
            fields.push(("point".into(), Json::str(d.point.to_string())));
            fields.push(("code_len".into(), Json::num(d.code.len() as f64)));
            fields.push((
                "code_fnv1a".into(),
                Json::str(format!("{:016x}", fnv1a(d.code.as_bytes()))),
            ));
            Json::Obj(fields)
        })
        .collect();
    let pareto: Vec<Json> = out
        .candidates
        .iter()
        .map(|(t, c)| candidate_json(*t, c))
        .collect();
    Json::Obj(vec![
        (
            "selected_bundles".into(),
            Json::Arr(
                summary
                    .selected_bundles
                    .iter()
                    .map(|&b| Json::num(b as f64))
                    .collect(),
            ),
        ),
        (
            "candidate_count".into(),
            Json::num(summary.candidates as f64),
        ),
        ("designs".into(), Json::Arr(designs)),
        ("pareto".into(), Json::Arr(pareto)),
    ])
}

/// Encodes a finished flow's result as the exact response-body string.
pub fn flow_result_body(out: &FlowOutput) -> String {
    flow_result_json(out).encode()
}

/// Encodes one progress event as an NDJSON line for the event stream.
///
/// Returns `None` for [`FlowEvent::Cancelled`] and
/// [`FlowEvent::TimedOut`]: the job layer emits its own terminal line
/// so the stream has exactly one terminal event.
pub fn event_json(job_id: u64, event: &FlowEvent) -> Option<Json> {
    let mut fields: Vec<(String, Json)> = vec![("job_id".into(), Json::num(job_id as f64))];
    match event {
        FlowEvent::Started { targets, bundles } => {
            fields.push(("event".into(), Json::str("started")));
            fields.push(("targets".into(), Json::num(*targets as f64)));
            fields.push(("bundles".into(), Json::num(*bundles as f64)));
        }
        FlowEvent::BundlesSelected { selected } => {
            fields.push(("event".into(), Json::str("bundles_selected")));
            fields.push((
                "selected".into(),
                Json::Arr(selected.iter().map(|&b| Json::num(b as f64)).collect()),
            ));
        }
        FlowEvent::BundleCalibrated {
            bundle,
            done,
            total,
        } => {
            fields.push(("event".into(), Json::str("bundle_calibrated")));
            fields.push(("bundle".into(), Json::num(*bundle as f64)));
            fields.push(("done".into(), Json::num(*done as f64)));
            fields.push(("total".into(), Json::num(*total as f64)));
        }
        FlowEvent::ScdSearchFinished {
            target_fps,
            bundle,
            activation,
            found,
            done,
            total,
        } => {
            fields.push(("event".into(), Json::str("scd_search_finished")));
            fields.push(("target_fps".into(), Json::num(*target_fps)));
            fields.push(("bundle".into(), Json::num(*bundle as f64)));
            fields.push(("activation".into(), Json::str(activation.to_string())));
            fields.push(("found".into(), Json::num(*found as f64)));
            fields.push(("done".into(), Json::num(*done as f64)));
            fields.push(("total".into(), Json::num(*total as f64)));
        }
        FlowEvent::DesignFinalized {
            target_fps,
            accuracy,
            latency_ms,
            done,
            total,
        } => {
            fields.push(("event".into(), Json::str("design_finalized")));
            fields.push(("target_fps".into(), Json::num(*target_fps)));
            fields.push(("accuracy".into(), Json::num(*accuracy)));
            fields.push(("latency_ms".into(), Json::num(*latency_ms)));
            fields.push(("done".into(), Json::num(*done as f64)));
            fields.push(("total".into(), Json::num(*total as f64)));
        }
        FlowEvent::Finished {
            candidates,
            designs,
        } => {
            fields.push(("event".into(), Json::str("finished")));
            fields.push(("candidates".into(), Json::num(*candidates as f64)));
            fields.push(("designs".into(), Json::num(*designs as f64)));
        }
        FlowEvent::Cancelled | FlowEvent::TimedOut => return None,
        // FlowEvent is non_exhaustive: encode unknown future variants
        // generically instead of silently dropping them.
        other => {
            fields.push(("event".into(), Json::str("other")));
            fields.push(("detail".into(), Json::str(format!("{other:?}"))));
        }
    }
    Some(Json::Obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_core::flow::{CoDesignFlow, FlowConfig};
    use codesign_sim::device::pynq_z1;

    #[test]
    fn result_encoding_is_byte_stable_across_runs() {
        let config = FlowConfig {
            targets_fps: vec![15.0],
            candidates_per_bundle: 2,
            coarse_pf_sweep: vec![16],
            ..FlowConfig::for_device(pynq_z1())
        };
        let a = flow_result_body(&CoDesignFlow::new(config.clone()).run().unwrap());
        let b = flow_result_body(&CoDesignFlow::new(config).run().unwrap());
        assert_eq!(a, b, "same config must encode byte-identically");
        let doc = crate::json::parse(&a).unwrap();
        assert_eq!(
            doc.get("selected_bundles").unwrap().as_arr().unwrap().len(),
            5
        );
        assert!(doc.get("candidate_count").unwrap().as_uint().unwrap() > 0);
        assert_eq!(doc.get("designs").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn events_encode_as_ndjson_objects() {
        let line = event_json(
            7,
            &FlowEvent::ScdSearchFinished {
                target_fps: 15.0,
                bundle: 13,
                activation: codesign_dnn::quant::Activation::Relu4,
                found: 2,
                done: 3,
                total: 10,
            },
        )
        .unwrap()
        .encode();
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(doc.get("job_id").unwrap().as_uint(), Some(7));
        assert_eq!(
            doc.get("event").unwrap().as_str(),
            Some("scd_search_finished")
        );
        assert_eq!(doc.get("bundle").unwrap().as_uint(), Some(13));
        assert!(event_json(7, &FlowEvent::Cancelled).is_none());
    }
}
