//! `codesign-perfbench`: the co-design benchmark.
//!
//! ```text
//! codesign-perfbench --workload NAME --seed N --seconds N --trace 0|1
//! ```
//!
//! Runs one workload (see README.md) for `--seconds` of timed work,
//! checks every output against a reference computed another way, and
//! prints two lines to stdout: a host block, then the result object
//! (`correct`, `attempted`, `failed`, `metrics`). `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer split.
//!
//! `setup_s` is the median of [`SETUP_SAMPLES`] cold set-ups: the
//! run's own and those of child processes that run the same set-up and
//! stop. Each is the set-up's CPU time scaled by the reference kernel
//! (see `reference.rs`). The run refuses to start while `CODESIGN_FAULT_SPEC` is set,
//! and everything it writes lives in one scratch directory under the
//! working directory that is removed before it exits.

mod flow;
mod metrics;
mod reference;
mod scratch;
mod serve;
mod shard;
mod stats;

use codesign_core::parallel::{derive_seed, Parallelism};
use metrics::Report;
use reference::Setup;
use scratch::ScratchDir;
use stats::median;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

const USAGE: &str = "usage: codesign-perfbench --workload flow_paper|serve_tenants|flow_measured \
                     --seed N --seconds N --trace 0|1";

/// First argument that makes the binary exit at once: the worker
/// process `shard.spawn_ms` spawns and reaps.
pub const SPAWN_PROBE: &str = "--spawn-probe";

/// First argument of a child process that runs a workload's set-up
/// only and prints its `setup_s`.
const SETUP_SAMPLE: &str = "--setup-sample";

/// Cold set-ups behind `setup_s`, the run's own included.
const SETUP_SAMPLES: usize = 9;

/// The seed a later performance claim must also hold on. No run made
/// while tuning a change may use it.
pub const HELD_OUT_SEED: u64 = 2019;

/// Knobs recorded in the host block.
const ENV_KNOBS: [&str; 2] = ["CODESIGN_SIMD", "CODESIGN_PARALLELISM"];

/// What every workload receives.
pub struct Run<'a> {
    /// The workload seed.
    pub seed: u64,
    /// Timed work per run.
    pub seconds: Duration,
    /// Report the per-layer split instead of the end-to-end metrics.
    pub trace: bool,
    /// Stop after the set-up, with only `setup_s` recorded.
    pub setup_only: bool,
    /// The run's own directory.
    pub scratch: &'a Path,
}

impl Run<'_> {
    /// The `count` flow seeds this workload seed picks: the inputs a
    /// workload cycles through. They fit in 32 bits so that a JSON
    /// request carries them exactly.
    pub fn flow_seeds(&self, count: usize) -> Vec<u64> {
        (0..count as u64)
            .map(|i| derive_seed(self.seed, i) >> 32)
            .collect()
    }
}

/// The in-process worker count: `CODESIGN_PARALLELISM` when set, one
/// per core otherwise.
pub fn parallelism() -> Parallelism {
    Parallelism::from_env("CODESIGN_PARALLELISM")
}

#[derive(Debug, Clone, Copy)]
enum Workload {
    FlowPaper,
    ServeTenants,
    FlowMeasured,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "flow_paper" => Self::FlowPaper,
            "serve_tenants" => Self::ServeTenants,
            "flow_measured" => Self::FlowMeasured,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::FlowPaper => "flow_paper",
            Self::ServeTenants => "serve_tenants",
            Self::FlowMeasured => "flow_measured",
        }
    }

    fn run(self, run: &Run<'_>) -> Result<Report, String> {
        match self {
            Self::FlowPaper => flow::paper(run),
            Self::ServeTenants => serve::tenants(run),
            Self::FlowMeasured => flow::measured(run),
        }
    }
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} expects a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{USAGE}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |what: &str| format!("{what} is required\n{USAGE}");
    Ok(Options {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn json_str(value: Option<String>) -> String {
    match value {
        Some(v) => format!("{v:?}"),
        None => "null".to_string(),
    }
}

/// The host block: what a result depends on besides the code.
/// `steal_pct` is the share of the machine's CPU time the hypervisor
/// took during the run; a busy host slows every wall-clock metric.
/// `ref_pass_us` is the reference kernel's CPU time per pass, the
/// host's speed that `cpu_per_op` divides out, and `cpu_ms_per_op` the
/// raw CPU time behind it. `setup_wall_s` is the median wall time of
/// the set-ups behind `setup_s`.
fn host_line(options: &Options, steal_pct: Option<f64>, report: Option<&Report>) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let knobs: Vec<String> = ENV_KNOBS
        .iter()
        .map(|k| format!("{k:?}: {}", json_str(std::env::var(k).ok())))
        .collect();
    let field = |value: Option<f64>, digits: usize| {
        value.map_or("null".to_string(), |v| format!("{v:.digits$}"))
    };
    let cpu = report.and_then(|r| r.host);
    format!(
        "{{\"host\": {{\"cores\": {cores}, \"auto_threads\": {}, \"flow_threads\": {}, \
         \"simd\": \"{}\", \"env\": {{{}}}, \"steal_pct\": {}, \"ref_pass_us\": {}, \
         \"cpu_ms_per_op\": {}, \"setup_wall_s\": {}}}, \"workload\": \"{}\", \
         \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"trace\": {}}}",
        Parallelism::Auto.threads(),
        parallelism().threads(),
        codesign_nn::simd::active_level(),
        knobs.join(", "),
        field(steal_pct, 1),
        field(cpu.map(|c| c.ref_pass_us), 1),
        field(cpu.map(|c| c.cpu_ms_per_op), 3),
        field(report.and_then(|r| r.setup).map(|s| s.wall_s), 4),
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
    )
}

/// Runs the workload's set-up in a child process and returns its
/// timing.
fn setup_sample(args: &[String]) -> Result<Setup, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg(SETUP_SAMPLE)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("set-up sample: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<f64> = (stdout.split_whitespace().map(str::parse))
        .collect::<Result<_, _>>()
        .unwrap_or_default();
    match fields[..] {
        [scaled_s, wall_s] if out.status.success() => Ok(Setup { scaled_s, wall_s }),
        _ => Err(format!(
            "set-up sample failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Runs the workload: its set-up only in a [`SETUP_SAMPLE`] child,
/// which prints its timing; otherwise the whole run, with `setup_s` the
/// median over the child samples and its own set-up.
fn measure(options: &Options, args: &[String], setup_only: bool) -> Result<Report, String> {
    let mut setups = Vec::new();
    if !setup_only {
        for _ in 1..SETUP_SAMPLES {
            setups.push(setup_sample(args)?);
        }
    }
    let scratch = ScratchDir::create_in(Path::new("."))
        .map_err(|e| format!("cannot create the scratch directory: {e}"))?;
    let run = Run {
        seed: options.seed,
        seconds: Duration::from_secs(options.seconds),
        trace: options.trace,
        setup_only,
        scratch: scratch.path(),
    };
    let mut report = options.workload.run(&run)?;
    setups.push(report.setup.ok_or("the workload did not time its set-up")?);
    let pick = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let setup = Setup {
        scaled_s: pick(|s| s.scaled_s),
        wall_s: pick(|s| s.wall_s),
    };
    report.set("setup_s", setup.scaled_s);
    report.setup = Some(setup);
    Ok(report)
    // `scratch` is removed here, before anything is printed.
}

fn main() -> ExitCode {
    // Shard workers are re-execs of this binary; they exit in here.
    codesign_shard::maybe_run_worker();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let first = args.first().map(String::as_str);
    if first == Some(SPAWN_PROBE) {
        return ExitCode::SUCCESS;
    }
    let setup_only = first == Some(SETUP_SAMPLE);
    if setup_only {
        args.remove(0);
    }
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if let Some(spec) = std::env::var_os(codesign_faults::SPEC_ENV) {
        eprintln!(
            "refusing to measure with {}={spec:?} set: a fault plan turns the run into a chaos test",
            codesign_faults::SPEC_ENV
        );
        return ExitCode::from(2);
    }
    let ticks_before = stats::host_ticks().ok();
    let report = measure(&options, &args, setup_only);
    if setup_only {
        return match report.and_then(|r| r.setup.ok_or("no set-up".into())) {
            Ok(setup) => {
                println!("{} {}", setup.scaled_s, setup.wall_s);
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    let steal_pct = match (ticks_before, stats::host_ticks().ok()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            Some(100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
        }
        _ => None,
    };
    println!("{}", host_line(&options, steal_pct, report.as_ref().ok()));
    match report.and_then(|r| r.render(options.trace)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{}: {message}", options.workload.name());
            ExitCode::FAILURE
        }
    }
}
