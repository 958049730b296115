//! The reference kernel: a fixed piece of single-threaded CPU work that
//! uses no code of the co-design crates, timed between a workload's
//! operations and after its set-up so that the host's speed cancels out
//! of `cpu_per_op` and `setup_s`.
//!
//! On a shared host the CPU time of the same work moves with what the
//! neighbours do (sibling hyper-threads, cache and memory traffic,
//! clock speed). The kernel runs in the same minutes as the
//! operations and feels the same slow-down, so operation CPU time over
//! kernel CPU time measures the code rather than the host.

use crate::stats::{process_cpu, thread_cpu};
use std::time::{Duration, Instant};

/// Words in the kernel's table: 256 KiB of `u32`, so the walk misses
/// the L1 cache as the flows' hash tables do.
const TABLE_WORDS: usize = 1 << 16;

/// Dependent table reads and writes per pass.
const WALK_STEPS: usize = 1 << 14;

/// Side of the `f32` matrices multiplied per pass.
const MAT: usize = 48;

/// Matrix products per pass. With [`WALK_STEPS`] this puts about four
/// fifths of a pass in the products: timed between real flows on a
/// shared 2-vCPU host, that mix followed the flows' CPU time more
/// closely than either part alone.
const PRODUCTS: usize = 56;

/// Kernel CPU time spent after each batch of operations, as a share of
/// the batch's CPU time; each kernel thread runs at least one pass.
const REF_SHARE: f64 = 0.1;

/// SplitMix64 finaliser.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The kernel's buffers, reused by every pass.
struct Kernel {
    table: Vec<u32>,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self {
            table: vec![0; TABLE_WORDS],
            a: vec![0.0; MAT * MAT],
            b: vec![0.0; MAT * MAT],
            c: vec![0.0; MAT * MAT],
        }
    }
}

impl Kernel {
    /// One pass: fill the table, walk it with dependent reads and
    /// writes, then multiply two small matrices [`PRODUCTS`] times.
    /// Every pass does the same work and returns the same checksum.
    fn pass(&mut self) -> u64 {
        for (i, w) in self.table.iter_mut().enumerate() {
            *w = mix(i as u64) as u32;
        }
        let mut x = 1_u64;
        for _ in 0..WALK_STEPS {
            let i = x as usize & (TABLE_WORDS - 1);
            x = mix(x ^ u64::from(self.table[i]));
            self.table[i] = self.table[i].wrapping_add(x as u32);
        }
        for (i, (a, b)) in self.a.iter_mut().zip(&mut self.b).enumerate() {
            *a = (i % 7) as f32 * 0.25 - 0.75;
            *b = (i % 5) as f32 * 0.5 - 1.0;
        }
        let mut sum = 0.0_f32;
        for _ in 0..PRODUCTS {
            let a = std::hint::black_box(&self.a);
            for row in 0..MAT {
                let c = &mut self.c[row * MAT..(row + 1) * MAT];
                c.fill(0.0);
                for k in 0..MAT {
                    let a = a[row * MAT + k];
                    for (c, b) in c.iter_mut().zip(&self.b[k * MAT..(k + 1) * MAT]) {
                        *c += a * b;
                    }
                }
            }
            sum += self.c.iter().sum::<f32>();
        }
        x ^ u64::from(sum.to_bits())
    }
}

/// Runs passes of `kernel` on the calling thread until they have used
/// `target` of its CPU time. Returns the CPU time, the passes, and
/// whether every pass gave `checksum`.
fn run_passes(
    kernel: &mut Kernel,
    target: Duration,
    checksum: u64,
) -> Result<(Duration, usize, bool), String> {
    let start = thread_cpu()?;
    let (mut passes, mut agreed) = (0, true);
    loop {
        agreed &= std::hint::black_box(kernel.pass()) == checksum;
        passes += 1;
        let spent = thread_cpu()? - start;
        if spent >= target {
            return Ok((spent, passes, agreed));
        }
    }
}

/// CPU time of a workload's operations and of the reference passes run
/// between them.
///
/// The passes run on one thread per core at once, as the workloads
/// spread over every core: a kernel on one thread would time only the
/// core it landed on.
#[derive(Default)]
pub struct CpuMeter {
    kernels: Vec<Kernel>,
    checksum: u64,
    work: Duration,
    ops: usize,
    reference: Duration,
    passes: usize,
}

impl CpuMeter {
    /// Accounts `ops` operations that used `cpu` in total, then runs
    /// reference passes while the workload is idle, on one thread per
    /// core, until together they have used [`REF_SHARE`] of `cpu`.
    ///
    /// # Errors
    ///
    /// A pass whose checksum differs from the first pass's, or a CPU
    /// clock that cannot be read.
    pub fn account(&mut self, ops: usize, cpu: Duration) -> Result<(), String> {
        self.work += cpu;
        self.ops += ops;
        self.run_reference(cpu.mul_f64(REF_SHARE))
    }

    /// Runs reference passes on one thread per core until together they
    /// have used `total` CPU time.
    fn run_reference(&mut self, total: Duration) -> Result<(), String> {
        if self.kernels.is_empty() {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            self.kernels = (0..cores).map(|_| Kernel::default()).collect();
            self.checksum = self.kernels[0].pass();
        }
        let target = total / self.kernels.len() as u32;
        let checksum = self.checksum;
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (self.kernels.iter_mut())
                .map(|kernel| scope.spawn(move || run_passes(kernel, target, checksum)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("kernel thread"))
                .collect()
        });
        for result in results {
            let (spent, passes, agreed) = result?;
            if !agreed {
                return Err("the reference kernel gave two different checksums".into());
            }
            self.reference += spent;
            self.passes += passes;
        }
        Ok(())
    }

    /// Mean CPU time of one operation, in milliseconds.
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.work.as_secs_f64() * 1e3 / self.ops.max(1) as f64
    }

    /// Mean CPU time of one reference pass, in microseconds.
    pub fn pass_us(&self) -> f64 {
        self.reference.as_secs_f64() * 1e6 / self.passes.max(1) as f64
    }

    /// Mean CPU time of one operation in reference passes.
    pub fn per_op(&self) -> f64 {
        self.cpu_ms_per_op() * 1e3 / self.pass_us()
    }
}

/// CPU time of one reference pass on the host `setup_s` is scaled to:
/// the 2-vCPU VM the benchmark was sized on, when idle.
pub const NOMINAL_PASS: Duration = Duration::from_micros(1500);

/// Reference CPU time, over all kernel threads, run after a set-up.
const SETUP_REFERENCE: Duration = Duration::from_millis(60);

/// One timed set-up.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// CPU time of every thread of the process during the set-up, in
    /// seconds of a host whose reference pass takes [`NOMINAL_PASS`].
    pub scaled_s: f64,
    /// Wall time of the set-up, in seconds.
    pub wall_s: f64,
}

/// Runs `setup` and times it: wall time, and CPU time scaled by the
/// reference passes that run right after it.
///
/// # Errors
///
/// The set-up's own error, a CPU clock that cannot be read, or a
/// reference pass with the wrong checksum.
pub fn time_setup<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, Setup), String> {
    let (cpu_start, start) = (process_cpu()?, Instant::now());
    let value = setup()?;
    let wall = start.elapsed();
    let cpu = process_cpu()? - cpu_start;
    let mut meter = CpuMeter::default();
    meter.run_reference(SETUP_REFERENCE)?;
    let scale = NOMINAL_PASS.as_secs_f64() * 1e6 / meter.pass_us();
    let setup = Setup {
        scaled_s: cpu.as_secs_f64() * scale,
        wall_s: wall.as_secs_f64(),
    };
    Ok((value, setup))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_gives_the_same_checksum() {
        let mut kernel = Kernel::default();
        let first = kernel.pass();
        assert_eq!(kernel.pass(), first);
        assert_eq!(Kernel::default().pass(), first);
    }

    #[test]
    fn meter_spends_the_reference_share_and_reports_passes_per_op() {
        let mut meter = CpuMeter::default();
        meter.account(2, Duration::from_millis(20)).unwrap();
        assert!(meter.passes >= meter.kernels.len());
        assert!(meter.reference >= Duration::from_millis(2));
        assert!((meter.cpu_ms_per_op() - 10.0).abs() < 1e-9);
        let expected = 10.0 * 1e3 / meter.pass_us();
        assert!((meter.per_op() - expected).abs() < 1e-9 * expected);
    }
}
