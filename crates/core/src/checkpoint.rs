//! The run directory: where a co-design run keeps its progress on disk.
//!
//! Both durable executors — [`CoDesignFlow::run_checkpointed`] in one
//! process and the `codesign-shard` supervisor over many — keep a run
//! in the same directory, through the same driver
//! ([`CoDesignFlow::run_with`]):
//!
//! ```text
//! run.lock    held while a run owns the directory
//! spec.bin    the plan: config, selected Bundles, shard count (SweepSpec)
//! seg-N.log   shard N's finished SCD cells, one encode_cell record each
//! ```
//!
//! [`FlowCheckpoint`] owns that layout. [`FlowCheckpoint::open`] takes
//! the lock, then checks any spec against the run's config. After the
//! coarse stage the driver calls [`FlowCheckpoint::plan`], which writes
//! the spec or checks the selection against the stored one, and reads
//! every segment the spec names through [`FlowCheckpoint::cells`]; the
//! executor then computes only the missing cells. A checkpointed run
//! plans one shard (or keeps a stored count) and appends its cells to
//! `seg-0.log`; the supervisor asks for its own shard count and its
//! workers write one segment each. So either executor can finish a
//! directory the other started.
//!
//! # What is stored, and what is recomputed
//!
//! Only the SCD cells, the stage a checkpoint exists to save. A resume
//! recomputes the coarse stage (deterministic, and well under a
//! millisecond for the paper's flow) and checks its selection against
//! the spec. Calibration is never stored: a Bundle is calibrated by the
//! first of its cells to be searched, so a resume calibrates only the
//! Bundles that still have cells to search. The finalize stage (full
//! simulation + codegen of the best candidate per target) is
//! deterministic from the cells and always runs.
//!
//! Cell records are appended without an `fsync` and synced once, when
//! the SCD stage ends (on success and on error), as a shard worker
//! syncs its segment. A cell lost to a crash before that sync is
//! recomputed bit-identically on resume, so an `fsync` per cell would
//! buy nothing but up to 30 disk flushes in a flow of a few ms.
//!
//! # Bit-identity
//!
//! Resume is safe because the flow is deterministic: each stage's
//! output is a pure function of the [`FlowConfig`] and the previous
//! stages' outputs, and each cell is seeded from what it is, never from
//! when it runs. The final [`FlowOutput`](crate::flow::FlowOutput) of a
//! resumed run is therefore **bit-identical** to an uninterrupted one —
//! a contract pinned by the `checkpoint_resume` tests. Cells are keyed
//! by grid index, so the directory never encodes scheduler-dependent
//! state.
//!
//! # The config fingerprint
//!
//! `spec.bin` ends with an FNV-1a fingerprint of [`encode_config`], the
//! canonical encoding of everything the search results depend on:
//! device, targets, clock, tolerance, candidate count, PF sweep,
//! replications, seed. `parallelism` is deliberately excluded — results
//! are bit-identical at any worker count, so a run checkpointed at
//! `Fixed(1)` resumes fine at `Auto`. Opening a directory with a
//! different config is a typed [`CheckpointError::ConfigMismatch`], not
//! a silently wrong resume.
//!
//! [`CoDesignFlow::run_checkpointed`]: crate::flow::CoDesignFlow::run_checkpointed
//! [`CoDesignFlow::run_with`]: crate::flow::CoDesignFlow::run_with

use crate::evaluate::BundleEvaluation;
use crate::flow::FlowConfig;
use crate::parallel::Parallelism;
use crate::search::Candidate;
use codesign_dnn::bundle::{bundle_by_id, Bundle, BundleId};
use codesign_dnn::quant::Activation;
use codesign_dnn::space::DesignPoint;
use codesign_hls::model::Estimate;
use codesign_sim::device::FpgaDevice;
use codesign_sim::report::ResourceUsage;
use codesign_store::{
    fnv1a, ByteReader, ByteWriter, CodecError, LockFile, LogError, RecordLog, StreamKind,
};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

mod segment;
mod spec;

pub use segment::{open_segment, read_segment, segment_path};
pub use spec::{shard_range, SweepSpec, SPEC_FILE, SPEC_MAGIC};

/// File name of the lock that keeps a second run out of a directory in
/// use.
pub const LOCK_FILE: &str = "run.lock";

/// Failure to open, read or write a run directory.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// A file of the directory could not be read or written.
    Io(io::Error),
    /// The directory's lock is held by a live run, or a segment log
    /// failed to open.
    Log(LogError),
    /// Stored bytes did not decode.
    Codec(CodecError),
    /// `spec.bin` is not a well-formed spec, or it plans another
    /// selection or shard count than this run's.
    Spec(String),
    /// The directory's spec was written under a different
    /// [`FlowConfig`].
    ConfigMismatch {
        /// Fingerprint of the config now requesting resume.
        expected: u64,
        /// Fingerprint stored in the spec.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "run directory i/o: {e}"),
            CheckpointError::Log(e) => write!(f, "run directory log: {e}"),
            CheckpointError::Codec(e) => write!(f, "run directory record: {e}"),
            CheckpointError::Spec(reason) => f.write_str(reason),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "run directory belongs to a different flow config \
                 (fingerprint {found:#018x}, this config is {expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
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

#[derive(Debug)]
struct State {
    /// Released by [`FlowCheckpoint::finish`], else on drop.
    lock: Option<LockFile>,
    /// The directory's plan, once read or written.
    spec: Option<SweepSpec>,
    /// Segment 0, open for appending once a cell is recorded.
    segment: Option<RecordLog>,
}

/// One run directory, held open by one run.
///
/// Open with [`FlowCheckpoint::open`] against the run's config and pass
/// to [`CoDesignFlow::run_checkpointed`], which searches only the cells
/// not yet on disk. On successful completion the flow calls
/// [`finish`](Self::finish), which deletes the directory's files — a
/// leftover directory always means an interrupted run. The
/// `codesign-shard` supervisor opens its shard directory the same way,
/// and keeps it.
///
/// [`CoDesignFlow::run_checkpointed`]: crate::flow::CoDesignFlow::run_checkpointed
#[derive(Debug)]
pub struct FlowCheckpoint {
    dir: PathBuf,
    config: FlowConfig,
    state: Mutex<State>,
}

impl FlowCheckpoint {
    /// Opens (creating if absent) the run directory `dir` for a run of
    /// `config`: takes its lock, then reads and checks any spec in it.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Log`] when a live run holds the directory,
    /// [`CheckpointError::ConfigMismatch`] when its spec belongs to a
    /// run with a different config, everything
    /// [`SweepSpec::from_bytes`] rejects, and I/O failures (`dir` is a
    /// plain file, for one).
    pub fn open(dir: &Path, config: &FlowConfig) -> Result<Self, CheckpointError> {
        std::fs::create_dir_all(dir)?;
        // Taken before the spec is read, so no other run can write one
        // under this run.
        let lock = LockFile::acquire(&dir.join(LOCK_FILE)).map_err(LogError::from)?;
        let spec = match SweepSpec::read(dir) {
            Err(CheckpointError::Io(e)) if e.kind() == io::ErrorKind::NotFound => None,
            read => Some(read?),
        };
        if let Some(spec) = &spec {
            let expected = config_fingerprint(config);
            let found = config_fingerprint(&spec.config);
            if found != expected {
                return Err(CheckpointError::ConfigMismatch { expected, found });
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            config: config.clone(),
            state: Mutex::new(State {
                lock: Some(lock),
                spec,
                segment: None,
            }),
        })
    }

    /// True when the directory holds a spec: a run got as far as
    /// planning its cells.
    pub fn has_restored_stages(&self) -> bool {
        self.state().spec.is_some()
    }

    /// Pins the run's plan: the Bundles the coarse stage `selected`,
    /// over `shards` shards (`None` keeps the stored count, or plans one
    /// shard). A directory without a spec gets one, after any segment
    /// it would name is removed: cells written under no plan are never
    /// read. A directory with a spec must plan the same selection and,
    /// when `shards` is given, the same shard count.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Spec`] when the stored plan differs, and I/O
    /// failures.
    pub fn plan(
        &self,
        selected: &[BundleId],
        shards: Option<usize>,
    ) -> Result<SweepSpec, CheckpointError> {
        let mut state = self.state();
        if let Some(spec) = &state.spec {
            if spec.selected != selected || shards.is_some_and(|n| n != spec.shards) {
                let reason = "the directory holds another run's spec";
                return Err(CheckpointError::Spec(reason.into()));
            }
            return Ok(spec.clone());
        }
        let spec = SweepSpec {
            config: self.config.clone(),
            selected: selected.to_vec(),
            shards: shards.unwrap_or(1),
        };
        for shard in 0..spec.shards {
            remove_if_present(&segment_path(&self.dir, shard))?;
        }
        spec.write(&self.dir)?;
        state.spec = Some(spec.clone());
        Ok(spec)
    }

    /// Every finished cell the segments of the pinned plan hold, by
    /// grid index; none before [`plan`](Self::plan).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Log`] when a segment fails to open.
    pub fn cells(&self) -> Result<BTreeMap<usize, Vec<Candidate>>, CheckpointError> {
        let shards = self.state().spec.as_ref().map_or(0, |spec| spec.shards);
        let mut cells = BTreeMap::new();
        for shard in 0..shards {
            cells.append(&mut read_segment(&segment_path(&self.dir, shard))?);
        }
        Ok(cells)
    }

    /// Appends one finished SCD cell to segment 0, opening it on first
    /// use, unsynced: the flow calls [`sync`](Self::sync) once when the
    /// SCD stage ends. The open truncates a torn tail but decodes no
    /// cell: [`cells`](Self::cells) already read them.
    pub(crate) fn record_cell(
        &self,
        index: usize,
        found: &[Candidate],
    ) -> Result<(), CheckpointError> {
        let mut w = ByteWriter::new();
        encode_cell(&mut w, index, found);
        let mut state = self.state();
        let log = match &mut state.segment {
            Some(log) => log,
            closed => closed
                .insert(RecordLog::open(&segment_path(&self.dir, 0), StreamKind::ShardSegment)?.0),
        };
        Ok(log.append(w.as_bytes())?)
    }

    /// Forces every appended cell to stable storage.
    pub(crate) fn sync(&self) -> io::Result<()> {
        self.state()
            .segment
            .as_ref()
            .map_or(Ok(()), RecordLog::sync)
    }

    /// Deletes the directory's segments, then its spec and lock, then
    /// the directory itself if nothing else is in it. Called after the
    /// run completes, so a leftover directory always means an
    /// interrupted run.
    ///
    /// # Errors
    ///
    /// Propagates failures to remove a file.
    pub fn finish(&self) -> io::Result<()> {
        let mut state = self.state();
        state.segment = None;
        let shards = state.spec.take().map_or(0, |spec| spec.shards);
        for shard in 0..shards {
            remove_if_present(&segment_path(&self.dir, shard))?;
        }
        remove_if_present(&self.dir.join(SPEC_FILE))?;
        state.lock = None;
        let _ = std::fs::remove_dir(&self.dir);
        Ok(())
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("checkpoint lock")
    }
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        removed => removed,
    }
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
/// Public because a shard run's canonical output bytes use the same
/// encoding.
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
    w.put_u8(match point.activation {
        Activation::Relu => 0,
        Activation::Relu4 => 1,
        Activation::Relu8 => 2,
    });
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
    // Struct fields evaluate in source order, which is the wire order.
    Ok(DesignPoint {
        bundle: read_bundle(r)?,
        n_replications: r.read_varint()? as usize,
        downsample: read_list(r, ByteReader::read_bool)?,
        expansion: read_list(r, ByteReader::read_f64)?,
        parallel_factor: r.read_varint()? as usize,
        activation: activation_from_tag(r.read_u8()?)?,
        base_channels: r.read_varint()? as usize,
        max_channels: r.read_varint()? as usize,
    })
}

/// Encodes one SCD [`Candidate`] (point + estimate + objectives) in
/// the run directory's byte-stable format.
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
/// is one segment record, whichever executor appends it.
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
/// count. The bytes are part of `spec.bin`, payload and fingerprint, so
/// they must never change.
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

/// Reads a Bundle id and resolves it in the paper's enumeration.
fn read_bundle(r: &mut ByteReader<'_>) -> Result<Bundle, CodecError> {
    let id = r.read_varint()?;
    usize::try_from(id)
        .ok()
        .and_then(|id| bundle_by_id(BundleId(id)))
        .ok_or(CodecError::InvalidTag {
            what: "bundle id",
            tag: id,
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
    use codesign_store::TempDir;

    pub(super) fn config() -> FlowConfig {
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
    pub(super) fn pinned_cell() -> Vec<Candidate> {
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

    /// The first pinned candidate, at `accuracy`.
    pub(super) fn candidate(accuracy: f64) -> Candidate {
        Candidate {
            accuracy,
            ..pinned_cell()[0].clone()
        }
    }

    pub(super) fn cell_bytes(index: usize, found: &[Candidate]) -> Vec<u8> {
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
        let tmp = TempDir::new("codesign_core_checkpoint").unwrap();
        let dir = tmp.path();
        let cfg = config();
        let selected = vec![BundleId(13)];
        let found = pinned_cell();

        {
            let ckpt = FlowCheckpoint::open(dir, &cfg).unwrap();
            assert!(!ckpt.has_restored_stages());
            ckpt.plan(&selected, None).unwrap();
            assert!(ckpt.cells().unwrap().is_empty());
            ckpt.record_cell(0, &found).unwrap();
            ckpt.sync().unwrap();
        }

        let ckpt = FlowCheckpoint::open(dir, &cfg).unwrap();
        assert!(ckpt.has_restored_stages());
        ckpt.plan(&selected, None).unwrap();
        assert_eq!(ckpt.cells().unwrap(), BTreeMap::from([(0, found)]));
        // Another selection or shard count is another run's plan.
        assert!(matches!(
            ckpt.plan(&[BundleId(1)], None),
            Err(CheckpointError::Spec(_))
        ));
        assert!(matches!(
            ckpt.plan(&selected, Some(2)),
            Err(CheckpointError::Spec(_))
        ));

        ckpt.finish().unwrap();
        assert!(!dir.exists(), "a finished run leaves nothing behind");
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let tmp = TempDir::new("codesign_core_checkpoint").unwrap();
        let dir = tmp.path();
        let cfg = config();
        FlowCheckpoint::open(dir, &cfg)
            .unwrap()
            .plan(&[BundleId(13)], None)
            .unwrap();
        let mut other = cfg.clone();
        other.seed ^= 0xdead;
        assert!(matches!(
            FlowCheckpoint::open(dir, &other),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        // The original config still opens.
        drop(FlowCheckpoint::open(dir, &cfg).unwrap());
    }

    #[test]
    fn later_stage_without_earlier_is_ignored() {
        let tmp = TempDir::new("codesign_core_checkpoint").unwrap();
        let dir = tmp.path();
        let cfg = config();
        {
            // Cells on disk without a spec: no plan names them, so
            // they must not be trusted.
            let (mut log, _) = open_segment(&segment_path(dir, 0)).unwrap();
            log.append(&cell_bytes(0, &pinned_cell())).unwrap();
        }
        let ckpt = FlowCheckpoint::open(dir, &cfg).unwrap();
        assert!(!ckpt.has_restored_stages());
        ckpt.plan(&[BundleId(13)], None).unwrap();
        assert!(ckpt.cells().unwrap().is_empty());
        ckpt.finish().unwrap();
        assert!(!dir.exists());
    }
}
