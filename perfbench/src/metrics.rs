//! The metric catalogue and the result line.
//!
//! Both tables mirror `BENCHMARK.json` at the repository root (a test
//! pins that). An untraced run prints every end-to-end metric; a traced
//! run prints every per-layer metric, and a layer the workload does not
//! exercise reads 0.

use crate::reference::{CpuMeter, Setup};
use crate::stats::median;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric. Each workload reports all
/// of them for its own operation (a flow, a served job, a measured
/// flow). Wall-clock latency is a per-layer figure (`core.flow_p50_ms`,
/// `serve.job_p50_ms`): on a shared host it follows the hypervisor's
/// steal time, which no change to this code can move.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_per_op", "ref_passes"),
    ("quality_iou", "IoU"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.flow_p50_ms", "ms"),
    ("core.coarse_ms", "ms"),
    ("core.calibrate_ms", "ms"),
    ("core.scd_ms", "ms"),
    ("core.finalize_ms", "ms"),
    ("core.scd_cells", "count"),
    ("core.candidates", "count"),
    ("core.stage_sum_ratio", "ratio"),
    ("core.trace_overhead", "ratio"),
    ("hls.cache_lookups", "count"),
    ("hls.cache_misses", "count"),
    ("hls.cache_hit_rate", "ratio"),
    ("hls.codegen_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("dnn.build_ms", "ms"),
    ("dataset.gen_ms", "ms"),
    ("nn.train_ms", "ms"),
    ("nn.train_images_per_s", "1/s"),
    ("nn.quantize_ms", "ms"),
    ("nn.int8_forward_ms", "ms"),
    ("nn.proxy_macs", "count"),
    ("serve.job_p50_ms", "ms"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.job_p90_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.first_event_ms", "ms"),
    ("serve.result_fetch_ms", "ms"),
    ("serve.result_bytes", "bytes"),
    ("serve.server_job_p50_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.rejected", "count"),
    ("store.open_ms", "ms"),
    ("store.entries", "count"),
    ("store.persisted", "count"),
    ("store.persist_noop_ms", "ms"),
    ("shard.sweep_ms", "ms"),
    ("shard.inprocess_ms", "ms"),
    ("shard.overhead_ms", "ms"),
    ("shard.spawn_ms", "ms"),
    ("shard.coarse_ms", "ms"),
    ("shard.segment_read_ms", "ms"),
    ("shard.segment_bytes", "bytes"),
    ("shard.workers_spawned", "count"),
    ("shard.retries", "count"),
    ("shard.lease_reclaims", "count"),
];

/// What one run measured: operation counts and named metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Timed operations started.
    pub attempted: usize,
    /// Timed operations that failed, were refused, or produced an output
    /// that did not match its reference.
    pub failed: usize,
    values: BTreeMap<&'static str, f64>,
    /// The raw CPU figures behind `cpu_per_op`, for the host block.
    pub host: Option<HostCpu>,
    /// The workload's set-up, behind `setup_s`.
    pub setup: Option<Setup>,
}

/// Raw CPU figures of a run. They follow the host's speed, so they go
/// to the host block rather than into a metric.
#[derive(Debug, Clone, Copy)]
pub struct HostCpu {
    /// Mean CPU time of one operation.
    pub cpu_ms_per_op: f64,
    /// Mean CPU time of one reference kernel pass.
    pub ref_pass_us: f64,
}

impl Report {
    /// Records `value` under `name`, which must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Records the median latency of the completed operations under
    /// `latency`, and `cpu_per_op` and the host figures from `meter`.
    pub fn record_ops(&mut self, latency: &'static str, latencies_ms: &[f64], meter: &CpuMeter) {
        self.set(latency, median(latencies_ms));
        self.set("cpu_per_op", meter.per_op());
        self.host = Some(HostCpu {
            cpu_ms_per_op: meter.cpu_ms_per_op(),
            ref_pass_us: meter.pass_us(),
        });
    }

    /// The result line: every end-to-end metric (`trace == false`) or
    /// every per-layer metric (`trace == true`).
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric the workload never recorded, or a
    /// value that is not finite.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("workload did not record {name}")),
            };
            if !value.is_finite() {
                return Err(format!("{name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name"` / `"unit"` pair of one top-level array of
    /// `BENCHMARK.json`, read with plain string scanning.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("array present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).expect("field present");
                    entry[at..]
                        .split('"')
                        .nth(3)
                        .expect("string value")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn render_fills_unexercised_layers_with_zero() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.set("core.scd_ms", 1.5);
        let line = report.render(true).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"core.scd_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(line.contains("\"shard.retries\": {\"value\": 0, \"unit\": \"count\"}"));
        assert!(
            report.render(false).is_err(),
            "end-to-end metrics are required"
        );
    }
}
