//! Order statistics, timing helpers and output agreement checks.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; 0
/// for an empty one.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its value with the wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, ms(start.elapsed()))
}

/// Median milliseconds of `f` over repetitions: at least `min_reps`,
/// and more until `budget` has passed.
pub fn median_ms(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed() < budget {
        samples.push(timed(&mut f).1);
    }
    median(&samples)
}

/// `struct timespec` of the C library.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    /// POSIX `clock_gettime`, from the C library std already links.
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process.
const PROCESS_CPU: i32 = 2;

/// Linux `CLOCK_THREAD_CPUTIME_ID`: CPU time of the calling thread.
const THREAD_CPU: i32 = 3;

fn cpu_clock(clock: i32) -> Result<Duration, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and the
    // call writes nothing else.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(format!("clock_gettime({clock}) failed"));
    }
    let (secs, nanos) = (u64::try_from(ts.tv_sec), u32::try_from(ts.tv_nsec));
    match (secs, nanos) {
        (Ok(secs), Ok(nanos)) => Ok(Duration::new(secs, nanos)),
        _ => Err(format!("clock_gettime({clock}) returned a negative time")),
    }
}

/// CPU time (user + system) all threads of this process have used so
/// far, to the nanosecond. Steal time on a shared host does not count,
/// so it is steadier than wall time.
///
/// # Errors
///
/// When the clock cannot be read.
pub fn process_cpu() -> Result<Duration, String> {
    cpu_clock(PROCESS_CPU)
}

/// CPU time the calling thread has used so far, to the nanosecond.
///
/// # Errors
///
/// When the clock cannot be read.
pub fn thread_cpu() -> Result<Duration, String> {
    cpu_clock(THREAD_CPU)
}

/// Ticks all CPUs of the machine have been stolen by the hypervisor,
/// and ticks in total, from the first line of `/proc/stat`.
///
/// # Errors
///
/// When `/proc/stat` is missing or malformed (not Linux).
pub fn host_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat")
        .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().map_err(|e| format!("bad /proc/stat field: {e}")))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal ...
    let steal = *ticks.get(7).ok_or("short /proc/stat")?;
    Ok((steal, ticks.iter().sum()))
}

/// Checks that every operation on the same input produced the same
/// output, then that this output equals a reference computed another
/// way. Each operation whose output disagrees counts as failed.
#[derive(Debug)]
pub struct Agreement<K, V> {
    first: BTreeMap<K, (V, usize)>,
    failed: usize,
}

impl<K: Ord + Clone, V: PartialEq> Agreement<K, V> {
    /// An empty record.
    pub fn new() -> Self {
        Self {
            first: BTreeMap::new(),
            failed: 0,
        }
    }

    /// Records one operation's output for `key`.
    pub fn observe(&mut self, key: K, value: V) {
        match self.first.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert((value, 1));
            }
            Entry::Occupied(mut slot) if slot.get().0 == value => slot.get_mut().1 += 1,
            Entry::Occupied(_) => self.failed += 1,
        }
    }

    /// The first output recorded for each key, in key order.
    pub fn outputs(&self) -> impl Iterator<Item = (&K, &V)> {
        self.first.iter().map(|(k, (v, _))| (k, v))
    }

    /// Operations whose output differed from the first one for the
    /// same key.
    pub fn disagreements(&self) -> usize {
        self.failed
    }

    /// Compares each key's first output with `reference(key)`; every
    /// operation of a key whose reference differs or fails is failed.
    /// Returns the total failed operations.
    pub fn verify<E>(mut self, mut reference: impl FnMut(&K) -> Result<V, E>) -> usize {
        for (key, (value, count)) in &self.first {
            if reference(key).ok().as_ref() != Some(value) {
                self.failed += count;
            }
        }
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn agreement_counts_every_disagreeing_operation() {
        let mut a = Agreement::new();
        a.observe(1, "x");
        a.observe(1, "x");
        a.observe(1, "y");
        a.observe(2, "z");
        a.observe(2, "z");
        // Key 1: one operation disagreed with the first output.
        // Key 2: both operations disagree with the reference.
        let failed = a.verify(|k| Ok::<_, ()>(if *k == 1 { "x" } else { "w" }));
        assert_eq!(failed, 3);
    }
}
