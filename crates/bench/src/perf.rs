//! The one bench harness: [`measure`] times an arm, [`emit_bench_json`]
//! records it.
//!
//! Every `cargo bench` target is a plain `fn main()` that measures each
//! arm exactly once with [`measure`] — one untimed warm-up, then N
//! timed samples — and writes one [`BenchRecord`] per arm to
//! `BENCH_<name>.json` at the workspace root (or in `$BENCH_JSON_DIR`
//! when set). Those committed files are the repo's perf trajectory.
//!
//! The format is flat and written by hand (the workspace has no JSON
//! dependency). `wall_ms` is the median sample; `speedup` is a ratio of
//! medians; the `host` block says what the numbers depend on besides
//! the code:
//!
//! ```json
//! {
//!   "bench": "scd",
//!   "host": { "cores": 2, "auto_threads": 2, "simd": "avx2", "env": { "CODESIGN_SIMD": null, "CODESIGN_PARALLELISM": null } },
//!   "records": [
//!     { "name": "probe_walk_incremental", "wall_ms": 0.450, "min_ms": 0.441, "p90_ms": 0.480, "samples": 30, "speedup": 4.20 }
//!   ]
//! }
//! ```

use crate::experiments::PARALLELISM_ENV;
use codesign_core::parallel::Parallelism;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fewest timed samples [`measure`] accepts: below this a median and a
/// p90 say nothing about spread.
pub const MIN_SAMPLES: usize = 5;

/// Environment knobs that change what a bench measures, recorded in the
/// `host` block as set (`null` when unset).
const ENV_KNOBS: [&str; 2] = ["CODESIGN_SIMD", PARALLELISM_ENV];

/// Nearest-rank statistics over one arm's timed samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median sample (the lower one for an even count).
    pub median: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// 90th-percentile sample.
    pub p90: Duration,
    /// Number of timed samples.
    pub samples: usize,
}

impl Timing {
    fn of(mut samples: Vec<Duration>) -> Self {
        samples.sort_unstable();
        let rank = |q: f64| samples[((q * samples.len() as f64).ceil() as usize).max(1) - 1];
        Self {
            median: rank(0.5),
            min: samples[0],
            p90: rank(0.9),
            samples: samples.len(),
        }
    }
}

/// What [`measure`] returns: the last sample's output, so a bench can
/// still assert on it, and the timing over all samples.
#[derive(Debug)]
pub struct Measured<T> {
    /// Output of the last timed sample.
    pub output: T,
    /// Statistics over the timed samples.
    pub timing: Timing,
}

/// Runs `setup` then `run` once untimed as a warm-up, then `samples`
/// more times timing only `run`, and returns the last output with the
/// timing. `setup` builds fresh state for each sample (a new cache, an
/// interrupted checkpoint) outside the clock; arms that need none pass
/// `|| ()`. Each output is dropped outside the clock too, before the
/// next sample's `setup`, so no sample's state outlives its sample.
///
/// # Panics
///
/// When `samples` is below [`MIN_SAMPLES`].
pub fn measure<S, T>(
    samples: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> T,
) -> Measured<T> {
    assert!(
        samples >= MIN_SAMPLES,
        "an arm needs at least {MIN_SAMPLES} samples"
    );
    let mut output = run(setup());
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        drop(output);
        let state = setup();
        let t0 = Instant::now();
        // `black_box` keeps the compiler from dropping the work of a
        // sample whose output the next sample overwrites.
        output = black_box(run(black_box(state)));
        times.push(t0.elapsed());
    }
    Measured {
        output,
        timing: Timing::of(times),
    }
}

/// One measured arm of a bench: a name, its timing, and optionally the
/// speedup over the arm it is being compared against.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Arm name (`snake_case`, stable across PRs — it is the trajectory
    /// key).
    pub name: String,
    /// The arm's timing; its median is the record's `wall_ms`.
    pub timing: Timing,
    /// Ratio of the baseline arm's median to this arm's, when the record
    /// is a comparison.
    pub speedup: Option<f64>,
    /// Extra named scalar metrics (throughput, percentiles, …),
    /// serialized as additional keys in emission order.
    pub extras: Vec<(String, f64)>,
}

impl BenchRecord {
    /// A plain timing record.
    pub fn timing(name: &str, timing: Timing) -> Self {
        Self {
            name: name.to_string(),
            timing,
            speedup: None,
            extras: Vec::new(),
        }
    }

    /// A timing record with a speedup over `baseline`.
    pub fn speedup_over(name: &str, timing: Timing, baseline: Timing) -> Self {
        let speedup = baseline.median.as_secs_f64() / timing.median.as_secs_f64().max(1e-12);
        Self {
            speedup: Some(speedup),
            ..Self::timing(name, timing)
        }
    }

    /// Attaches one extra named metric (chainable).
    #[must_use]
    pub fn with_metric(mut self, name: &str, value: f64) -> Self {
        self.extras.push((name.to_string(), value));
        self
    }
}

/// The `host` block: cores, the `Parallelism::Auto` worker count, the
/// active SIMD level, and the environment knobs as set.
fn host_json() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env: Vec<String> = ENV_KNOBS
        .iter()
        .map(|k| {
            let value = std::env::var(k).map_or("null".to_string(), |v| json_string(&v));
            format!("\"{k}\": {value}")
        })
        .collect();
    format!(
        "{{ \"cores\": {cores}, \"auto_threads\": {}, \"simd\": \"{}\", \"env\": {{ {} }} }}",
        Parallelism::Auto.threads(),
        codesign_nn::simd::active_level(),
        env.join(", ")
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes `BENCH_<bench>.json` with the host block and the given
/// records, echoes it to stdout, and returns its path. The target
/// directory is `$BENCH_JSON_DIR` when set, otherwise the workspace
/// root — trajectory artifacts belong next to the repo's other records,
/// not in whatever directory cargo ran the bench from.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn emit_bench_json(bench: &str, records: &[BenchRecord]) -> std::io::Result<PathBuf> {
    let dir = std::env::var("BENCH_JSON_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string());
    let path = PathBuf::from(dir).join(format!("BENCH_{bench}.json"));
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut out = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"host\": {},\n  \"records\": [\n",
        host_json()
    );
    for (i, r) in records.iter().enumerate() {
        let t = &r.timing;
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"wall_ms\": {:.3}, \"min_ms\": {:.3}, \"p90_ms\": {:.3}, \"samples\": {}",
            r.name,
            ms(t.median),
            ms(t.min),
            ms(t.p90),
            t.samples
        ));
        if let Some(s) = r.speedup {
            out.push_str(&format!(", \"speedup\": {s:.2}"));
        }
        for (key, value) in &r.extras {
            out.push_str(&format!(", \"{key}\": {value:.3}"));
        }
        out.push_str(if i + 1 < records.len() {
            " },\n"
        } else {
            " }\n"
        });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, &out)?;
    print!("{out}");
    println!("wrote {}", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(median_ms: u64, min_ms: u64, p90_ms: u64, samples: usize) -> Timing {
        Timing {
            median: Duration::from_millis(median_ms),
            min: Duration::from_millis(min_ms),
            p90: Duration::from_millis(p90_ms),
            samples,
        }
    }

    #[test]
    fn measure_warms_up_once_and_keeps_setup_off_the_clock() {
        const SAMPLES: usize = 5;
        let mut setups = 0usize;
        let mut runs = 0usize;
        let measured = measure(
            SAMPLES,
            || {
                setups += 1;
                std::thread::sleep(Duration::from_millis(50));
                setups
            },
            |setup| {
                runs += 1;
                setup
            },
        );
        assert_eq!((setups, runs), (SAMPLES + 1, SAMPLES + 1));
        assert_eq!(measured.output, SAMPLES + 1, "the last output is returned");
        let t = measured.timing;
        assert_eq!(t.samples, SAMPLES);
        assert!(t.min <= t.median && t.median <= t.p90, "{t:?}");
        assert!(
            t.median < Duration::from_millis(25),
            "the set-up's sleep leaked into the median: {t:?}"
        );
    }

    #[test]
    fn records_render_expected_json() {
        let dir = codesign_store::TempDir::new("codesign_bench_perf").unwrap();
        // Serialize access to the env var with a scoped override.
        std::env::set_var("BENCH_JSON_DIR", dir.path());
        let records = [
            BenchRecord::timing("baseline", timing(10, 10, 10, 5)),
            BenchRecord::speedup_over("fast", timing(2, 2, 2, 5), timing(10, 10, 10, 5)),
            BenchRecord::timing("served", timing(4, 4, 4, 5))
                .with_metric("req_per_s", 250.0)
                .with_metric("p99_ms", 6.5),
            BenchRecord::speedup_over("spread", timing(5, 3, 9, 12), timing(10, 10, 10, 5))
                .with_metric("jobs", 3.0),
        ];
        let path = emit_bench_json("unit_test", &records).unwrap();
        std::env::remove_var("BENCH_JSON_DIR");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"bench\": \"unit_test\""));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(text.contains(&format!(
            "\"host\": {{ \"cores\": {cores}, \"auto_threads\": {}, \"simd\": \"{}\", \"env\": {{ \"CODESIGN_SIMD\": ",
            Parallelism::Auto.threads(),
            codesign_nn::simd::active_level()
        )));
        assert!(text.contains("\"CODESIGN_PARALLELISM\": "));
        assert!(text.contains(
            "\"name\": \"baseline\", \"wall_ms\": 10.000, \"min_ms\": 10.000, \"p90_ms\": 10.000, \"samples\": 5 }"
        ));
        assert!(text.contains(
            "\"name\": \"fast\", \"wall_ms\": 2.000, \"min_ms\": 2.000, \"p90_ms\": 2.000, \"samples\": 5, \"speedup\": 5.00 }"
        ));
        assert!(text.contains(
            "\"name\": \"served\", \"wall_ms\": 4.000, \"min_ms\": 4.000, \"p90_ms\": 4.000, \"samples\": 5, \"req_per_s\": 250.000, \"p99_ms\": 6.500 }"
        ));
        assert!(text.contains(
            "\"name\": \"spread\", \"wall_ms\": 5.000, \"min_ms\": 3.000, \"p90_ms\": 9.000, \"samples\": 12, \"speedup\": 2.00, \"jobs\": 3.000 }"
        ));
    }
}
