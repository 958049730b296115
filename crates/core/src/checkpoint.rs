//! Stage and cell checkpointing for [`CoDesignFlow`](crate::flow::CoDesignFlow).
//!
//! A co-design run has three expensive stages — coarse Bundle
//! evaluation, per-Bundle calibration, and the SCD searches — separated
//! by the same boundaries the [`FlowEvent`](crate::observe::FlowEvent)
//! schedule marks. [`FlowCheckpoint`] appends the coarse and calibration
//! results to a [`RecordLog`] as each stage completes, and one record
//! per SCD cell as each cell finishes. When a run is interrupted
//! (crash, cancellation, process kill), a resumed run replays what is
//! on disk and recomputes only the unfinished stages and the missing
//! cells.
//!
//! # Record layout
//!
//! Every record starts with a tag byte:
//!
//! | tag | record | bytes after the tag |
//! |---|---|---|
//! | 0 | config fingerprint (always first) | `u64` |
//! | 1 | coarse stage | evaluations, then selected Bundle ids |
//! | 2 | calibration stage | `(Bundle id, fitted params)` list |
//! | 4 | one finished SCD cell | [`encode_cell`] |
//!
//! Tag 3 held the whole SCD grid in one record. It is retired and never
//! reused: an old checkpoint's SCD record ends the replay as an unknown
//! tag, and its SCD stage is recomputed. A cell record is the same
//! [`encode_cell`] bytes a shard worker appends to its segment, so one
//! codec persists a cell for both executors.
//!
//! Replay stops at the first record it cannot use: a coarse or
//! calibration record that fails to decode, a calibration record
//! without a coarse one, a cell record before the calibration record,
//! or an unknown tag. A cell record that fails to decode is dropped and
//! that cell recomputed, which is a shard segment's rule too.
//!
//! Cell records are appended without an `fsync` and synced once, when
//! the SCD stage ends (on success and on error), as a shard worker
//! syncs its segment. A cell lost to a crash before that sync is
//! recomputed bit-identically on resume, so an `fsync` per cell would
//! buy nothing but up to 30 disk flushes in a flow of ~8 ms. The
//! coarse and calibration records are synced as they are written.
//!
//! # Bit-identity
//!
//! Resume is safe because the flow is deterministic: each stage's
//! output is a pure function of the [`FlowConfig`]
//! and the previous stages' outputs, and each cell is seeded from what
//! it is, never from when it runs. Replaying recorded outputs
//! therefore yields exactly the state an uninterrupted run would have
//! reached, and the final [`FlowOutput`](crate::flow::FlowOutput) is
//! **bit-identical** — a contract pinned by the `checkpoint_resume`
//! tests. The coarse and calibration stages are checkpointed whole; the
//! SCD stage is checkpointed per cell, keyed by the cell's grid index,
//! so the log never encodes scheduler-dependent state.
//!
//! # The config fingerprint
//!
//! The first record of every checkpoint log is an FNV-1a fingerprint of
//! [`encode_config`], the canonical encoding of everything the search
//! results depend on:
//! device, targets, clock, tolerance, candidate count, PF sweep,
//! replications, seed. `parallelism` is deliberately excluded — results
//! are bit-identical at any worker count, so a checkpoint taken at
//! `Fixed(1)` resumes fine at `Auto`. Opening a checkpoint with a
//! different config is a typed [`CheckpointError::ConfigMismatch`], not
//! a silently wrong resume.
//!
//! The finalize stage (full simulation + codegen of the best candidate
//! per target) is *not* checkpointed: it is cheap relative to the
//! search and deterministic from the SCD results.

use crate::evaluate::BundleEvaluation;
use crate::flow::FlowConfig;
use crate::parallel::Parallelism;
use crate::search::Candidate;
use codesign_dnn::bundle::{bundle_by_id, BundleId};
use codesign_dnn::quant::Activation;
use codesign_dnn::space::DesignPoint;
use codesign_hls::calibrate::CalibratedParams;
use codesign_hls::model::Estimate;
use codesign_sim::device::FpgaDevice;
use codesign_sim::report::ResourceUsage;
use codesign_store::{fnv1a, ByteReader, ByteWriter, CodecError, LogError, RecordLog, StreamKind};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Tags of checkpoint records, in on-disk order. Tag 3 (the retired
/// whole-grid SCD record) is never reused.
const TAG_FINGERPRINT: u8 = 0;
const TAG_COARSE: u8 = 1;
const TAG_CALIBRATION: u8 = 2;
const TAG_CELL: u8 = 4;

/// Failure to open or append to a flow checkpoint.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The underlying record log failed to open.
    Log(LogError),
    /// A stage record failed to decode (schema drift within the same
    /// log version).
    Codec(CodecError),
    /// The checkpoint was taken under a different [`FlowConfig`].
    ConfigMismatch {
        /// Fingerprint of the config now requesting resume.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// Appending a stage record failed.
    Io(io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Log(e) => write!(f, "checkpoint log: {e}"),
            CheckpointError::Codec(e) => write!(f, "checkpoint record: {e}"),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different flow config \
                 (fingerprint {found:#018x}, this config is {expected:#018x})"
            ),
            CheckpointError::Io(e) => write!(f, "checkpoint write: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Log(e) => Some(e),
            CheckpointError::Codec(e) => Some(e),
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LogError> for CheckpointError {
    fn from(e: LogError) -> Self {
        CheckpointError::Log(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Stage results restored from disk when a checkpoint is opened.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Restored {
    /// The coarse evaluations and the selected Bundles.
    pub(crate) coarse: Option<(Vec<BundleEvaluation>, Vec<BundleId>)>,
    /// The fitted parameters of each selected Bundle.
    pub(crate) calibration: Option<Vec<(BundleId, CalibratedParams)>>,
    /// Finished SCD cells by grid index. An index outside the run's
    /// grid is never read.
    pub(crate) cells: BTreeMap<usize, Vec<Candidate>>,
}

#[derive(Debug)]
struct Inner {
    log: RecordLog,
    restored: Restored,
}

/// A checkpoint of one co-design run: its finished stages and cells.
///
/// Open with [`FlowCheckpoint::open`] against the run's config, pass to
/// [`CoDesignFlow::run_checkpointed`](crate::flow::CoDesignFlow::run_checkpointed),
/// and the flow will resume from the last completed stage and search
/// only the cells not yet on disk. On successful completion
/// the flow calls [`finish`](Self::finish), which deletes the file — a
/// leftover checkpoint always means an interrupted run.
#[derive(Debug)]
pub struct FlowCheckpoint {
    inner: Mutex<Inner>,
    path: PathBuf,
}

impl FlowCheckpoint {
    /// Opens (creating if absent) the checkpoint at `path` for a run of
    /// `config`, replaying any completed stage and cell records.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ConfigMismatch`] when the file belongs to a
    /// run with a different config, plus log/decode/I-O failures.
    pub fn open(path: &Path, config: &FlowConfig) -> Result<Self, CheckpointError> {
        let expected = config_fingerprint(config);
        let (mut log, records, _recovery) = RecordLog::open(path, StreamKind::FlowCheckpoint)?;
        let mut restored = Restored::default();
        if records.is_empty() {
            let mut w = ByteWriter::new();
            w.put_u8(TAG_FINGERPRINT);
            w.put_u64(expected);
            log.append(w.as_bytes())?;
        } else {
            let mut r = ByteReader::new(&records[0]);
            let tag = r.read_u8()?;
            if tag != TAG_FINGERPRINT {
                return Err(CodecError::InvalidTag {
                    what: "checkpoint first record",
                    tag: tag as u64,
                }
                .into());
            }
            let found = r.read_u64()?;
            r.finish()?;
            if found != expected {
                return Err(CheckpointError::ConfigMismatch { expected, found });
            }
            // Stage records arrive in order; a record that cannot be
            // used ends the replay (see the module docs) — the flow
            // simply recomputes from that stage on.
            for payload in &records[1..] {
                if !restore_stage(payload, &mut restored) {
                    break;
                }
            }
        }
        Ok(Self {
            inner: Mutex::new(Inner { log, restored }),
            path: path.to_path_buf(),
        })
    }

    /// The file backing this checkpoint.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True when at least one completed stage was restored from disk.
    pub fn has_restored_stages(&self) -> bool {
        let inner = self.inner.lock().expect("checkpoint lock");
        let restored = &inner.restored;
        restored.coarse.is_some() || restored.calibration.is_some() || !restored.cells.is_empty()
    }

    /// Takes everything restored from disk, leaving nothing behind.
    pub(crate) fn take_restored(&self) -> Restored {
        std::mem::take(&mut self.inner.lock().expect("checkpoint lock").restored)
    }

    /// Records the completed coarse stage.
    pub(crate) fn record_coarse(
        &self,
        coarse: &[BundleEvaluation],
        selected: &[BundleId],
    ) -> io::Result<()> {
        let mut w = ByteWriter::new();
        w.put_u8(TAG_COARSE);
        w.put_len(coarse.len());
        for eval in coarse {
            encode_evaluation(&mut w, eval);
        }
        w.put_len(selected.len());
        for id in selected {
            w.put_varint(id.0 as u64);
        }
        self.append_synced(w.as_bytes())
    }

    /// Records the completed calibration stage.
    pub(crate) fn record_calibration(
        &self,
        calibrated: &[(BundleId, CalibratedParams)],
    ) -> io::Result<()> {
        let mut w = ByteWriter::new();
        w.put_u8(TAG_CALIBRATION);
        w.put_len(calibrated.len());
        for (id, params) in calibrated {
            w.put_varint(id.0 as u64);
            w.put_f64(params.alpha);
            w.put_f64(params.beta);
            w.put_f64(params.phi);
            w.put_f64(params.gamma);
            w.put_varint(params.parallel_factor as u64);
        }
        self.append_synced(w.as_bytes())
    }

    /// Records one finished SCD cell, unsynced: the flow calls
    /// [`sync`](Self::sync) once when the SCD stage ends.
    pub(crate) fn record_cell(&self, index: usize, found: &[Candidate]) -> io::Result<()> {
        let mut w = ByteWriter::new();
        w.put_u8(TAG_CELL);
        encode_cell(&mut w, index, found);
        self.inner
            .lock()
            .expect("checkpoint lock")
            .log
            .append(w.as_bytes())
    }

    /// Forces every appended record to stable storage.
    pub(crate) fn sync(&self) -> io::Result<()> {
        self.inner.lock().expect("checkpoint lock").log.sync()
    }

    /// Deletes the checkpoint file — called after the run completes, so
    /// a leftover file always means an interrupted run.
    pub fn finish(&self) -> io::Result<()> {
        std::fs::remove_file(&self.path)
    }

    fn append_synced(&self, payload: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("checkpoint lock");
        inner.log.append(payload)?;
        inner.log.sync()
    }
}

/// Decodes one record into `restored`. Returns `false` when the record
/// ends the replay (see the module docs).
fn restore_stage(payload: &[u8], restored: &mut Restored) -> bool {
    let mut r = ByteReader::new(payload);
    let Ok(tag) = r.read_u8() else { return false };
    match tag {
        TAG_COARSE => {
            let Ok(stage) = decode_coarse(&mut r) else {
                return false;
            };
            restored.coarse = Some(stage);
        }
        TAG_CALIBRATION => {
            if restored.coarse.is_none() {
                return false;
            }
            let Ok(stage) = decode_calibration(&mut r) else {
                return false;
            };
            restored.calibration = Some(stage);
        }
        TAG_CELL => {
            if restored.calibration.is_none() {
                return false;
            }
            // Undecodable: dropped, and the cell recomputed.
            if let Ok((index, found)) = decode_cell(&mut r) {
                restored.cells.insert(index, found);
            }
            return true;
        }
        _ => return false,
    }
    r.finish().is_ok()
}

fn decode_coarse(
    r: &mut ByteReader<'_>,
) -> Result<(Vec<BundleEvaluation>, Vec<BundleId>), CodecError> {
    let n = r.read_len()?;
    let mut coarse = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        coarse.push(decode_evaluation(r)?);
    }
    let n = r.read_len()?;
    let mut selected = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        selected.push(BundleId(r.read_varint()? as usize));
    }
    Ok((coarse, selected))
}

fn decode_calibration(
    r: &mut ByteReader<'_>,
) -> Result<Vec<(BundleId, CalibratedParams)>, CodecError> {
    let n = r.read_len()?;
    let mut calibrated = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let id = BundleId(r.read_varint()? as usize);
        let params = CalibratedParams {
            alpha: r.read_f64()?,
            beta: r.read_f64()?,
            phi: r.read_f64()?,
            gamma: r.read_f64()?,
            parallel_factor: r.read_varint()? as usize,
        };
        calibrated.push((id, params));
    }
    Ok(calibrated)
}

fn encode_resources(w: &mut ByteWriter, res: &ResourceUsage) {
    w.put_varint(res.dsp);
    w.put_varint(res.lut);
    w.put_varint(res.ff);
    w.put_varint(res.bram_18k);
}

fn decode_resources(r: &mut ByteReader<'_>) -> Result<ResourceUsage, CodecError> {
    Ok(ResourceUsage {
        dsp: r.read_varint()?,
        lut: r.read_varint()?,
        ff: r.read_varint()?,
        bram_18k: r.read_varint()?,
    })
}

/// Encodes one coarse [`BundleEvaluation`] field by field. Public
/// because a shard run's canonical output bytes use the same encoding.
pub fn encode_evaluation(w: &mut ByteWriter, eval: &BundleEvaluation) {
    w.put_varint(eval.bundle_id.0 as u64);
    w.put_varint(eval.parallel_factor as u64);
    w.put_f64(eval.latency_ms);
    encode_resources(w, &eval.resources);
    w.put_f64(eval.accuracy);
    w.put_varint(eval.dsp_group as u64);
}

fn decode_evaluation(r: &mut ByteReader<'_>) -> Result<BundleEvaluation, CodecError> {
    Ok(BundleEvaluation {
        bundle_id: BundleId(r.read_varint()? as usize),
        parallel_factor: r.read_varint()? as usize,
        latency_ms: r.read_f64()?,
        resources: decode_resources(r)?,
        accuracy: r.read_f64()?,
        dsp_group: r.read_varint()? as usize,
    })
}

fn activation_tag(a: Activation) -> u8 {
    match a {
        Activation::Relu => 0,
        Activation::Relu4 => 1,
        Activation::Relu8 => 2,
    }
}

fn activation_from_tag(tag: u8) -> Result<Activation, CodecError> {
    match tag {
        0 => Ok(Activation::Relu),
        1 => Ok(Activation::Relu4),
        2 => Ok(Activation::Relu8),
        tag => Err(CodecError::InvalidTag {
            what: "activation",
            tag: tag as u64,
        }),
    }
}

/// Encodes a design point field by field. The Bundle itself is stored
/// as its id — Bundles are a fixed enumeration, so the id round-trips
/// through [`bundle_by_id`] to the identical skeleton.
///
/// Public because shard workers persist per-cell candidates through
/// the same byte-stable encoding the checkpoint log uses.
pub fn encode_point(w: &mut ByteWriter, point: &DesignPoint) {
    w.put_varint(point.bundle.id().0 as u64);
    w.put_varint(point.n_replications as u64);
    w.put_len(point.downsample.len());
    for &x in &point.downsample {
        w.put_bool(x);
    }
    w.put_len(point.expansion.len());
    for &pi in &point.expansion {
        w.put_f64(pi);
    }
    w.put_varint(point.parallel_factor as u64);
    w.put_u8(activation_tag(point.activation));
    w.put_varint(point.base_channels as u64);
    w.put_varint(point.max_channels as u64);
}

/// Decodes a design point written by [`encode_point`].
///
/// # Errors
///
/// [`CodecError`] on truncated input or an unknown bundle id /
/// activation tag.
pub fn decode_point(r: &mut ByteReader<'_>) -> Result<DesignPoint, CodecError> {
    let id = r.read_varint()? as usize;
    let bundle = bundle_by_id(BundleId(id)).ok_or(CodecError::InvalidTag {
        what: "bundle id",
        tag: id as u64,
    })?;
    let n_replications = r.read_varint()? as usize;
    let n = r.read_len()?;
    let mut downsample = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        downsample.push(r.read_bool()?);
    }
    let n = r.read_len()?;
    let mut expansion = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        expansion.push(r.read_f64()?);
    }
    Ok(DesignPoint {
        bundle,
        n_replications,
        downsample,
        expansion,
        parallel_factor: r.read_varint()? as usize,
        activation: activation_from_tag(r.read_u8()?)?,
        base_channels: r.read_varint()? as usize,
        max_channels: r.read_varint()? as usize,
    })
}

/// Encodes one SCD [`Candidate`] (point + estimate + objectives) in
/// the checkpoint log's byte-stable format.
pub fn encode_candidate(w: &mut ByteWriter, c: &Candidate) {
    encode_point(w, &c.point);
    w.put_varint(c.estimate.latency_cycles);
    encode_resources(w, &c.estimate.resources);
    w.put_f64(c.latency_ms);
    w.put_f64(c.accuracy);
}

/// Decodes a candidate written by [`encode_candidate`].
///
/// # Errors
///
/// [`CodecError`] on truncated or schema-drifted input.
pub fn decode_candidate(r: &mut ByteReader<'_>) -> Result<Candidate, CodecError> {
    Ok(Candidate {
        point: decode_point(r)?,
        estimate: Estimate {
            latency_cycles: r.read_varint()?,
            resources: decode_resources(r)?,
        },
        latency_ms: r.read_f64()?,
        accuracy: r.read_f64()?,
    })
}

/// Encodes one finished SCD cell: its grid index as a varint, then the
/// length of its candidate list, then each [`encode_candidate`]. This
/// is a checkpoint cell record after its tag byte, and a shard segment
/// record whole.
pub fn encode_cell(w: &mut ByteWriter, index: usize, found: &[Candidate]) {
    w.put_varint(index as u64);
    w.put_len(found.len());
    for candidate in found {
        encode_candidate(w, candidate);
    }
}

/// Decodes a cell written by [`encode_cell`] into its grid index and
/// candidates.
///
/// # Errors
///
/// [`CodecError`] on truncated or schema-drifted input, and on bytes
/// left over after the cell.
pub fn decode_cell(r: &mut ByteReader<'_>) -> Result<(usize, Vec<Candidate>), CodecError> {
    let index = r.read_varint()? as usize;
    let found = read_list(r, decode_candidate)?;
    r.finish()?;
    Ok((index, found))
}

/// Encodes everything the search results depend on: device, targets,
/// clock, tolerance, candidate count, PF sweep, replications, seed.
/// `parallelism` is left out — results are bit-identical at any worker
/// count. The bytes are part of two on-disk formats (the checkpoint
/// fingerprint and the shard sweep spec), so they must never change.
pub fn encode_config(w: &mut ByteWriter, config: &FlowConfig) {
    let dev = &config.device;
    w.put_str(&dev.name);
    w.put_varint(dev.dsp);
    w.put_varint(dev.lut);
    w.put_varint(dev.ff);
    w.put_varint(dev.bram_18k);
    w.put_f64(dev.dram_bytes_per_cycle);
    w.put_len(dev.clock_mhz.len());
    for &mhz in &dev.clock_mhz {
        w.put_f64(mhz);
    }
    w.put_len(config.targets_fps.len());
    for &fps in &config.targets_fps {
        w.put_f64(fps);
    }
    w.put_f64(config.clock_mhz);
    w.put_f64(config.fps_tolerance);
    w.put_varint(config.candidates_per_bundle as u64);
    w.put_len(config.coarse_pf_sweep.len());
    for &pf in &config.coarse_pf_sweep {
        w.put_varint(pf as u64);
    }
    w.put_varint(config.eval_replications as u64);
    w.put_u64(config.seed);
}

/// Decodes a config written by [`encode_config`]. The encoding carries
/// no `parallelism`, so the decoded config runs sequentially
/// (`Fixed(1)`).
///
/// # Errors
///
/// [`CodecError`] on truncated input.
pub fn decode_config(r: &mut ByteReader<'_>) -> Result<FlowConfig, CodecError> {
    // Struct fields evaluate in source order, which is the wire order.
    Ok(FlowConfig {
        device: FpgaDevice {
            name: r.read_str()?,
            dsp: r.read_varint()?,
            lut: r.read_varint()?,
            ff: r.read_varint()?,
            bram_18k: r.read_varint()?,
            dram_bytes_per_cycle: r.read_f64()?,
            clock_mhz: read_list(r, ByteReader::read_f64)?,
        },
        targets_fps: read_list(r, ByteReader::read_f64)?,
        clock_mhz: r.read_f64()?,
        fps_tolerance: r.read_f64()?,
        candidates_per_bundle: r.read_varint()? as usize,
        coarse_pf_sweep: read_list(r, |r| Ok(r.read_varint()? as usize))?,
        eval_replications: r.read_varint()? as usize,
        seed: r.read_u64()?,
        parallelism: Parallelism::Fixed(1),
    })
}

fn read_list<'a, T>(
    r: &mut ByteReader<'a>,
    mut item: impl FnMut(&mut ByteReader<'a>) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let n = r.read_len()?;
    (0..n).map(|_| item(r)).collect()
}

/// FNV-1a fingerprint of [`encode_config`]: everything the search
/// results depend on, `parallelism` excluded so it never invalidates a
/// resume.
pub fn config_fingerprint(config: &FlowConfig) -> u64 {
    let mut w = ByteWriter::new();
    encode_config(&mut w, config);
    fnv1a(w.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_sim::device::{pynq_z1, ultra96};
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("codesign_core_checkpoint_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!(
            "{name}_{}_{:?}.ckpt",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn config() -> FlowConfig {
        FlowConfig {
            targets_fps: vec![15.0],
            candidates_per_bundle: 2,
            coarse_pf_sweep: vec![16],
            ..FlowConfig::for_device(pynq_z1())
        }
    }

    fn sample_point() -> DesignPoint {
        let bundle = bundle_by_id(BundleId(13)).unwrap();
        let mut point = DesignPoint::initial(bundle, 3);
        point.downsample = vec![true, false, true];
        point.activation = Activation::Relu4;
        point
    }

    /// A fixed cell of two candidates, spelled out field by field.
    fn pinned_cell() -> Vec<Candidate> {
        [0.5, 0.625]
            .map(|accuracy| Candidate {
                point: DesignPoint {
                    bundle: bundle_by_id(BundleId(13)).unwrap(),
                    n_replications: 3,
                    downsample: vec![true, false, true],
                    expansion: vec![1.0, 1.5, 2.0],
                    parallel_factor: 96,
                    activation: Activation::Relu4,
                    base_channels: 24,
                    max_channels: 384,
                },
                estimate: Estimate {
                    latency_cycles: 6_125_000,
                    resources: ResourceUsage {
                        dsp: 170,
                        lut: 39_000,
                        ff: 29_000,
                        bram_18k: 110,
                    },
                },
                latency_ms: 61.25,
                accuracy,
            })
            .to_vec()
    }

    fn cell_bytes(index: usize, found: &[Candidate]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_cell(&mut w, index, found);
        w.into_bytes()
    }

    #[test]
    fn cell_record_bytes_are_pinned() {
        // Shard segments written before the cell codec moved into this
        // module hold exactly these bytes, and must still open.
        let found = pinned_cell();
        let bytes = cell_bytes(7, &found);
        assert_eq!(bytes.len(), 132);
        assert_eq!(fnv1a(&bytes), 0x1093_714d_7295_d9f6);
        assert_eq!(decode_cell(&mut ByteReader::new(&bytes)), Ok((7, found)));

        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(
            decode_cell(&mut ByteReader::new(&trailing)),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn cell_decoder_survives_truncation_and_bit_flips() {
        let bytes = cell_bytes(7, &pinned_cell());
        for cut in 0..bytes.len() {
            assert!(
                decode_cell(&mut ByteReader::new(&bytes[..cut])).is_err(),
                "a cell cut at byte {cut} must not decode"
            );
        }
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            // Any outcome but a panic: a flip may still decode.
            let _ = decode_cell(&mut ByteReader::new(&flipped));
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn fingerprint_ignores_parallelism_but_not_seed() {
        let base = config();
        let mut par = base.clone();
        par.parallelism = Parallelism::Fixed(7);
        assert_eq!(config_fingerprint(&base), config_fingerprint(&par));
        let mut reseeded = base.clone();
        reseeded.seed += 1;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&reseeded));
        let mut other_device = base.clone();
        other_device.device = ultra96();
        assert_ne!(config_fingerprint(&base), config_fingerprint(&other_device));
    }

    #[test]
    fn paper_config_fingerprint_is_pinned() {
        // Checkpoints and shard directories written before the config
        // codec was factored out must still open.
        let paper = FlowConfig::for_device(pynq_z1());
        assert_eq!(config_fingerprint(&paper), 0x22f2_89fc_022c_f444);
    }

    #[test]
    fn config_codec_round_trips() {
        let cfg = FlowConfig {
            device: ultra96(),
            parallelism: Parallelism::Fixed(1),
            ..config()
        };
        let mut w = ByteWriter::new();
        encode_config(&mut w, &cfg);
        let mut r = ByteReader::new(w.as_bytes());
        assert_eq!(decode_config(&mut r).unwrap(), cfg);
        r.finish().unwrap();
    }

    #[test]
    fn design_point_codec_round_trips() {
        let point = sample_point();
        let mut w = ByteWriter::new();
        encode_point(&mut w, &point);
        let mut r = ByteReader::new(w.as_bytes());
        let decoded = decode_point(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, point);
        assert_eq!(decoded.canonical_key(), point.canonical_key());
    }

    #[test]
    fn stages_round_trip_through_a_reopened_checkpoint() {
        let path = temp_path("stages");
        let _ = std::fs::remove_file(&path);
        let cfg = config();

        let coarse = vec![BundleEvaluation {
            bundle_id: BundleId(13),
            parallel_factor: 16,
            latency_ms: 61.25,
            resources: ResourceUsage {
                dsp: 180,
                lut: 40_000,
                ff: 30_000,
                bram_18k: 120,
            },
            accuracy: 0.63,
            dsp_group: 2,
        }];
        let selected = vec![BundleId(13)];
        let calibrated = vec![(
            BundleId(13),
            CalibratedParams {
                alpha: 0.91,
                beta: 1.12,
                phi: 0.33,
                gamma: 0.08,
                parallel_factor: 96,
            },
        )];
        let found = vec![Candidate {
            point: sample_point(),
            estimate: Estimate {
                latency_cycles: 6_125_000,
                resources: ResourceUsage {
                    dsp: 170,
                    lut: 39_000,
                    ff: 29_000,
                    bram_18k: 110,
                },
            },
            latency_ms: 61.25,
            accuracy: 0.64,
        }];

        {
            let ckpt = FlowCheckpoint::open(&path, &cfg).unwrap();
            assert!(!ckpt.has_restored_stages());
            ckpt.record_coarse(&coarse, &selected).unwrap();
            ckpt.record_calibration(&calibrated).unwrap();
            ckpt.record_cell(0, &found).unwrap();
        }

        let ckpt = FlowCheckpoint::open(&path, &cfg).unwrap();
        assert!(ckpt.has_restored_stages());
        let restored = ckpt.take_restored();
        assert_eq!(restored.coarse, Some((coarse, selected)));
        assert_eq!(restored.calibration, Some(calibrated));
        assert_eq!(restored.cells, BTreeMap::from([(0, found)]));

        ckpt.finish().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let path = temp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        let cfg = config();
        drop(FlowCheckpoint::open(&path, &cfg).unwrap());
        let mut other = cfg.clone();
        other.seed ^= 0xdead;
        assert!(matches!(
            FlowCheckpoint::open(&path, &other),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        // The original config still opens.
        drop(FlowCheckpoint::open(&path, &cfg).unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn later_stage_without_earlier_is_ignored() {
        let path = temp_path("order");
        let _ = std::fs::remove_file(&path);
        let cfg = config();
        {
            let ckpt = FlowCheckpoint::open(&path, &cfg).unwrap();
            // SCD recorded without coarse/calibration on disk: replay
            // must not trust it.
            ckpt.record_cell(0, &[]).unwrap();
        }
        let ckpt = FlowCheckpoint::open(&path, &cfg).unwrap();
        assert!(!ckpt.has_restored_stages());
        assert_eq!(ckpt.take_restored(), Restored::default());
        let _ = std::fs::remove_file(&path);
    }
}
