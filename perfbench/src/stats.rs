//! Small measurement helpers: percentiles, duration distributions, the
//! host's core count and the scratch directory.

use std::path::{Path, PathBuf};
use std::time::Duration;

/// The `q`-th percentile (0..=100) by nearest rank; 0 for no samples.
/// NaN entries (frames without a timing) are skipped.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (50th percentile by nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The arithmetic mean; 0 for no samples. NaN entries are skipped.
pub fn mean(samples: &[f64]) -> f64 {
    let (sum, n) =
        samples.iter().filter(|v| !v.is_nan()).fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    ratio(sum, n as f64)
}

/// `count / total`, or 0 when `total` is 0.
pub fn ratio(count: f64, total: f64) -> f64 {
    if total == 0.0 {
        0.0
    } else {
        count / total
    }
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Worker threads the host offers.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// An exact distribution of durations, in whole nanoseconds, of fixed
/// size: recording a sample allocates nothing (up to a bounded number of
/// samples above [`Durations::DIRECT_NS`]), so the distribution of a
/// whole run can be kept inside a heap measurement.
pub struct Durations {
    /// `counts[ns]`: samples of exactly `ns` nanoseconds.
    counts: Vec<u32>,
    /// Samples of `DIRECT_NS` or more, unsorted.
    long: Vec<u64>,
    samples: u64,
    sum_ns: f64,
}

impl Durations {
    /// Durations below this are counted in place.
    pub const DIRECT_NS: u64 = 1 << 20;
    /// Room reserved for longer samples (host stalls).
    const LONG_ROOM: usize = 1 << 14;

    /// An empty distribution.
    pub fn new() -> Self {
        Self {
            counts: vec![0; Self::DIRECT_NS as usize],
            long: Vec::with_capacity(Self::LONG_ROOM),
            samples: 0,
            sum_ns: 0.0,
        }
    }

    /// Records one sample of `ns` nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(count) => *count += 1,
            None => self.long.push(ns),
        }
        self.samples += 1;
        self.sum_ns += ns as f64;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.samples
    }

    /// Samples recorded and their sum in nanoseconds, so far.
    pub fn totals(&self) -> (u64, f64) {
        (self.samples, self.sum_ns)
    }

    /// The mean in microseconds; 0 for no samples.
    pub fn mean_us(&self) -> f64 {
        ratio(self.sum_ns / 1e3, self.samples as f64)
    }

    /// The `q`-th percentile (0..=100) by nearest rank, in microseconds
    /// (as [`percentile`]); 0 for no samples.
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let rank = (((q / 100.0) * self.samples as f64).ceil() as u64).clamp(1, self.samples);
        let mut seen = 0;
        for (ns, &count) in self.counts.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return ns as f64 / 1e3;
            }
        }
        let mut long = self.long.clone();
        long.sort_unstable();
        long[(rank - seen - 1) as usize] as f64 / 1e3
    }
}

/// A scratch directory under `.bench_work/` in the working directory
/// (the checkout root), removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<name>-<pid>`, emptying a stale one first.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created.
    pub fn new(name: &str) -> Self {
        let dir = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark work directory");
        Self(dir)
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself only when other runs still use it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}
