//! The in-process workloads: `flow_paper` and `flow_measured`.

use crate::metrics::Report;
use crate::reference::{time_setup, CpuMeter};
use crate::stats::{mean, median, median_ms, ms, process_cpu, timed, Agreement};
use crate::{parallelism, Run};
use codesign_core::flow::{DesignOutcome, FlowOutput};
use codesign_core::parallel::Parallelism;
use codesign_core::{
    CancelToken, CoDesignFlow, FlowConfig, FlowEvent, FlowObserver, ProxyEvaluator,
};
use codesign_dataset::{mean_iou, BoundingBox, SyntheticDataset};
use codesign_dnn::{DnnBuilder, TensorShape};
use codesign_hls::codegen::CodeGenerator;
use codesign_nn::{Network, QuantizedNetwork, Tensor, Trainer};
use codesign_shard::canonical_output_bytes;
use codesign_sim::device::pynq_z1;
use codesign_sim::pipeline::{simulate, AccelConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long the traced run re-times codegen and simulation.
const PROBE_BUDGET: Duration = Duration::from_millis(300);

/// Flow seeds `flow_paper` cycles through. A flow's search work depends
/// on its seed, so a run averages over many of them.
const PAPER_SEEDS: usize = 32;

/// The paper's Fig. 4/6 configuration: PYNQ-Z1, 10/15/20 FPS, K = 5,
/// PF {4, 8, 16}.
pub fn paper_config(seed: u64, parallelism: Parallelism) -> FlowConfig {
    FlowConfig {
        seed,
        parallelism,
        ..FlowConfig::for_device(pynq_z1())
    }
}

/// Mean analytic IoU of a flow's published designs.
pub fn design_iou(out: &FlowOutput) -> f64 {
    mean(&out.designs.iter().map(|d| d.accuracy).collect::<Vec<_>>())
}

/// One flow's stage split, from [`FlowEvent`] timestamps.
#[derive(Debug, Clone, Copy)]
pub struct Stages {
    /// Call → Bundles selected (validation, coarse evaluation).
    pub coarse_ms: f64,
    /// → last Bundle calibrated.
    pub calibrate_ms: f64,
    /// → last SCD cell finished.
    pub scd_ms: f64,
    /// → `Finished` (simulation, codegen, measured quantization).
    pub finalize_ms: f64,
    /// SCD cells searched.
    pub scd_cells: usize,
    /// Candidates that met a target band.
    pub candidates: usize,
}

impl Stages {
    fn sum_ms(&self) -> f64 {
        self.coarse_ms + self.calibrate_ms + self.scd_ms + self.finalize_ms
    }
}

#[derive(Default)]
struct Marks {
    selected: Option<Instant>,
    calibrated: Option<Instant>,
    searched: Option<Instant>,
    finished: Option<Instant>,
    scd_cells: usize,
    candidates: usize,
}

/// A [`FlowObserver`] that timestamps the events closing each stage.
pub struct StageClock {
    start: Instant,
    marks: Mutex<Marks>,
}

impl StageClock {
    /// A clock whose stage 1 starts now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
            marks: Mutex::new(Marks::default()),
        }
    }

    /// The split, or `None` when a stage never closed.
    pub fn stages(&self) -> Option<Stages> {
        let m = self.marks.lock().expect("no observer panics");
        let (selected, calibrated) = (m.selected?, m.calibrated?);
        let (searched, finished) = (m.searched?, m.finished?);
        Some(Stages {
            coarse_ms: ms(selected - self.start),
            calibrate_ms: ms(calibrated - selected),
            scd_ms: ms(searched - calibrated),
            finalize_ms: ms(finished - searched),
            scd_cells: m.scd_cells,
            candidates: m.candidates,
        })
    }
}

impl FlowObserver for StageClock {
    fn on_event(&self, event: &FlowEvent) {
        let now = Some(Instant::now());
        let mut m = self.marks.lock().expect("no observer panics");
        match event {
            FlowEvent::BundlesSelected { .. } => m.selected = now,
            FlowEvent::BundleCalibrated { .. } => m.calibrated = m.calibrated.max(now),
            FlowEvent::ScdSearchFinished { .. } => {
                m.searched = m.searched.max(now);
                m.scd_cells += 1;
            }
            FlowEvent::Finished { candidates, .. } => {
                m.finished = now;
                m.candidates = *candidates;
            }
            _ => {}
        }
    }
}

/// Medians of traced flows' stage splits, recorded as `core.*`, plus
/// the traced-over-untraced p50 ratio.
fn record_stages(report: &mut Report, traced: &[(Stages, f64)], untraced_ms: &[f64]) {
    let pick =
        |f: fn(&Stages) -> f64| median(&traced.iter().map(|(s, _)| f(s)).collect::<Vec<_>>());
    report.set("core.coarse_ms", pick(|s| s.coarse_ms));
    report.set("core.calibrate_ms", pick(|s| s.calibrate_ms));
    report.set("core.scd_ms", pick(|s| s.scd_ms));
    report.set("core.finalize_ms", pick(|s| s.finalize_ms));
    report.set("core.scd_cells", pick(|s| s.scd_cells as f64));
    report.set("core.candidates", pick(|s| s.candidates as f64));
    let ratios: Vec<f64> = traced.iter().map(|(s, wall)| s.sum_ms() / wall).collect();
    report.set("core.stage_sum_ratio", median(&ratios));
    let traced_ms: Vec<f64> = traced.iter().map(|(_, wall)| *wall).collect();
    report.set(
        "core.trace_overhead",
        median(&traced_ms) / median(untraced_ms),
    );
}

/// Runs `flow`, traced through a [`StageClock`] or not, and returns the
/// output with its wall time (ms) and, when traced, its stage split.
fn run_once(
    flow: &CoDesignFlow,
    traced: bool,
) -> (Result<FlowOutput, String>, f64, Option<Stages>) {
    let clock = StageClock::start();
    let (out, wall) = timed(|| {
        if traced {
            flow.run_observed(&clock, &CancelToken::new())
        } else {
            flow.run()
        }
    });
    let stages = if traced { clock.stages() } else { None };
    (out.map_err(|e| e.to_string()), wall, stages)
}

/// Per-operation samples of a timed loop.
#[derive(Default)]
struct Samples {
    untraced_ms: Vec<f64>,
    traced: Vec<(Stages, f64)>,
    wall: Duration,
    meter: CpuMeter,
}

impl Samples {
    fn record_ops(&self, report: &mut Report) {
        let all_ms: Vec<f64> = (self.untraced_ms.iter().copied())
            .chain(self.traced.iter().map(|(_, wall)| *wall))
            .collect();
        report.record_ops("core.flow_p50_ms", &all_ms, &self.meter);
    }
}

/// Runs flows back to back for `run.seconds` of flow time, with the
/// reference kernel after each. A traced run alternates traced and
/// untraced flows so both see the same machine state. Every output goes
/// to `observe`, outside the timed region.
fn timed_loop(
    run: &Run<'_>,
    report: &mut Report,
    mut flow_for: impl FnMut(usize) -> CoDesignFlow,
    mut observe: impl FnMut(usize, FlowOutput),
) -> Result<Samples, String> {
    let mut s = Samples::default();
    let mut op = 0;
    while s.wall < run.seconds {
        let traced = run.trace && op % 2 == 1;
        let flow = flow_for(op);
        let cpu_start = process_cpu()?;
        let (out, wall, stages) = run_once(&flow, traced);
        s.meter.account(1, process_cpu()? - cpu_start)?;
        s.wall += Duration::from_secs_f64(wall / 1e3);
        report.attempted += 1;
        match (out, stages) {
            (Ok(out), Some(stages)) => {
                s.traced.push((stages, wall));
                observe(op, out);
            }
            (Ok(out), None) if !traced => {
                s.untraced_ms.push(wall);
                observe(op, out);
            }
            _ => report.failed += 1,
        }
        op += 1;
    }
    Ok(s)
}

/// `flow_paper`: the paper's flow, back to back at the configured
/// parallelism, each flow with a fresh estimate cache. The traced run
/// also sends the pool's seeds through the shard supervisor.
pub fn paper(run: &Run<'_>) -> Result<Report, String> {
    let seeds = run.flow_seeds(PAPER_SEEDS);
    let par = parallelism();
    let flow_for = |op: usize| CoDesignFlow::new(paper_config(seeds[op % seeds.len()], par));
    let mut report = Report::default();
    // Set-up: the first flow, which starts the lazy worker pool.
    let (_, setup) = time_setup(|| flow_for(0).run().map_err(|e| e.to_string()))?;
    report.setup = Some(setup);
    if run.setup_only {
        return Ok(report);
    }

    let mut agreement = Agreement::new();
    let mut cache = Vec::new();
    let mut sample_out = None;
    let samples = timed_loop(run, &mut report, flow_for, |op, out| {
        let stats = out.cache_stats;
        cache.push((stats.total() as f64, stats.misses as f64));
        let bytes = canonical_output_bytes(&out);
        agreement.observe(op % seeds.len(), (bytes, design_iou(&out)));
        sample_out.get_or_insert(out);
    })?;
    samples.record_ops(&mut report);
    let ious: Vec<f64> = agreement.outputs().map(|(_, (_, iou))| *iou).collect();
    report.set("quality_iou", mean(&ious));

    if run.trace {
        record_stages(&mut report, &samples.traced, &samples.untraced_ms);
        let lookups = median(&cache.iter().map(|c| c.0).collect::<Vec<_>>());
        let misses = median(&cache.iter().map(|c| c.1).collect::<Vec<_>>());
        report.set("hls.cache_lookups", lookups);
        report.set("hls.cache_misses", misses);
        report.set("hls.cache_hit_rate", 1.0 - misses / lookups.max(1.0));
        if let Some(out) = &sample_out {
            report.failed += probe_finalize(&mut report, &out.designs);
        }
        let inprocess_ms = median(&samples.untraced_ms);
        crate::shard::probe(run, &mut report, &seeds, &mut agreement, inprocess_ms)?;
    }

    // The same seed on one thread must give the same bytes.
    report.failed += agreement.verify(|&i| {
        CoDesignFlow::new(paper_config(seeds[i], Parallelism::Fixed(1)))
            .run()
            .map(|out| (canonical_output_bytes(&out), design_iou(&out)))
    });
    Ok(report)
}

/// Re-times the finalize stage's codegen and simulation on published
/// designs; returns how many designs did not reproduce.
fn probe_finalize(report: &mut Report, designs: &[DesignOutcome]) -> usize {
    let device = pynq_z1();
    let mismatched = designs
        .iter()
        .filter(|d| {
            let accel = AccelConfig::for_point(&d.point);
            CodeGenerator::new(accel).generate(&d.dnn) != d.code
                || simulate(&d.dnn, &accel, &device).ok().as_ref() != Some(&d.report)
        })
        .count();
    let codegen = median_ms(5, PROBE_BUDGET, || {
        for d in designs {
            let code = CodeGenerator::new(AccelConfig::for_point(&d.point)).generate(&d.dnn);
            std::hint::black_box(code);
        }
    });
    let sim = median_ms(5, PROBE_BUDGET, || {
        for d in designs {
            let accel = AccelConfig::for_point(&d.point);
            std::hint::black_box(simulate(&d.dnn, &accel, &device).ok());
        }
    });
    report.set("hls.codegen_ms", codegen);
    report.set("sim.simulate_ms", sim);
    mismatched
}

/// Mean measured IoU over the designs that have one.
fn measured_iou(out: &FlowOutput) -> Option<f64> {
    let ious: Vec<f64> = out.designs.iter().filter_map(|d| d.measured_iou).collect();
    (!ious.is_empty()).then(|| mean(&ious))
}

/// The FPS target of `flow_measured`: the paper's DNN2.
const MEASURED_TARGET_FPS: f64 = 15.0;

/// `flow_measured`: the paper flow for its middle target at its default
/// seed, with the published design proxy-trained and scored through
/// the int8 engine. One target keeps a flow near two seconds, so a run
/// takes enough of them for a steady median.
pub fn measured(run: &Run<'_>) -> Result<Report, String> {
    let par = parallelism();
    let config = FlowConfig {
        targets_fps: vec![MEASURED_TARGET_FPS],
        ..paper_config(FlowConfig::for_device(pynq_z1()).seed, par)
    };
    let mut report = Report::default();
    // Set-up: the same flow unmeasured, which starts the worker pool the
    // trainer shares and runs the search code once.
    let (_, setup) = time_setup(|| {
        CoDesignFlow::new(config.clone())
            .run()
            .map_err(|e| e.to_string())
    })?;
    report.setup = Some(setup);
    if run.setup_only {
        return Ok(report);
    }

    let evaluator = ProxyEvaluator::default();
    let flow = CoDesignFlow::new(config).with_measured_quantization(evaluator.clone());
    let mut agreement = Agreement::new();
    let mut sample_out = None;
    let samples = timed_loop(
        run,
        &mut report,
        |_| flow.clone(),
        |_, out| {
            let iou_bits = measured_iou(&out).map(f64::to_bits);
            agreement.observe((), (canonical_output_bytes(&out), iou_bits));
            sample_out.get_or_insert(out);
        },
    )?;
    samples.record_ops(&mut report);
    let out = sample_out.ok_or("no measured flow succeeded")?;
    report.set("quality_iou", measured_iou(&out).unwrap_or(0.0));
    report.failed += agreement.disagreements();
    if measured_iou(&out).is_none() {
        report.failed = report.attempted;
    }
    if !run.trace {
        return Ok(report);
    }
    record_stages(&mut report, &samples.traced, &samples.untraced_ms);

    // Re-run each winner's proxy evaluation through public calls; its
    // IoU must equal the flow's bit for bit.
    let mut probe = ProxyProbe::default();
    let bits = |iou: Option<f64>| iou.map(f64::to_bits);
    let mismatched = out
        .designs
        .iter()
        .any(|d| bits(probe.evaluate(&evaluator, d)) != bits(d.measured_iou));
    probe.record(&mut report);
    if mismatched {
        report.failed = report.attempted;
    }
    Ok(report)
}

/// Accumulated time of each step of a proxy evaluation.
#[derive(Default)]
struct ProxyProbe {
    build_ms: f64,
    gen_ms: f64,
    train_ms: f64,
    train_images: f64,
    quantize_ms: f64,
    forward_ms: f64,
    macs: f64,
}

impl ProxyProbe {
    /// `ProxyEvaluator::evaluate` for one published design, step by
    /// step, as `finalize` runs it (int8 scheme from the activation).
    fn evaluate(&mut self, eval: &ProxyEvaluator, design: &DesignOutcome) -> Option<f64> {
        let point = &design.point;
        let mut proxy_point = point.clone();
        proxy_point.base_channels = point.base_channels.min(8);
        proxy_point.max_channels = point.max_channels.min(32);
        let (built, build_ms) = timed(|| {
            let dnn = DnnBuilder::new()
                .input(TensorShape::new(3, eval.image_h, eval.image_w))
                .build(&proxy_point)
                .ok()?;
            let net = Network::from_dnn(&dnn, eval.seed)
                .ok()?
                .with_engine(eval.engine);
            Some((dnn, net))
        });
        let (dnn, mut net) = built?;
        self.build_ms += build_ms;
        self.macs += dnn.total_macs() as f64;

        let dataset = SyntheticDataset::new(eval.image_h, eval.image_w, eval.seed);
        let ((images, boxes), gen_ms) =
            timed(|| dataset.training_pairs(eval.train_samples + eval.eval_samples));
        self.gen_ms += gen_ms;
        let (train_imgs, eval_imgs) = images.split_at(eval.train_samples);
        let (train_boxes, eval_boxes) = boxes.split_at(eval.train_samples);

        let (_, train_ms) =
            timed(|| Trainer::new(eval.config).train(&mut net, train_imgs, train_boxes));
        self.train_ms += train_ms;
        self.train_images += (eval.train_samples * eval.config.epochs) as f64;

        let scheme = point.activation.quantization();
        let (qnet, quantize_ms) = timed(|| QuantizedNetwork::quantize(&net, scheme));
        self.quantize_ms += quantize_ms;
        let (predictions, forward_ms) = timed(|| {
            eval_imgs
                .iter()
                .map(|img: &Tensor| BoundingBox::from_prediction(qnet.forward_measured(img).data()))
                .collect::<Vec<_>>()
        });
        self.forward_ms += forward_ms;
        let truth: Vec<BoundingBox> = eval_boxes
            .iter()
            .map(|b| BoundingBox::new(b[0] as f64, b[1] as f64, b[2] as f64, b[3] as f64))
            .collect();
        Some(mean_iou(&predictions, &truth))
    }

    fn record(&self, report: &mut Report) {
        report.set("dnn.build_ms", self.build_ms);
        report.set("dataset.gen_ms", self.gen_ms);
        report.set("nn.train_ms", self.train_ms);
        report.set(
            "nn.train_images_per_s",
            self.train_images / (self.train_ms / 1e3),
        );
        report.set("nn.quantize_ms", self.quantize_ms);
        report.set("nn.int8_forward_ms", self.forward_ms);
        report.set("nn.proxy_macs", self.macs);
    }
}
