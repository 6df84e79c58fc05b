//! Host-speed normalisation of single-thread timings.
//!
//! The hosts this benchmark runs on share their cores with other
//! tenants, and how fast a core runs our thread changes from moment to
//! moment: on the 2-vCPU VM the benchmark was built on, a fixed kernel
//! took 5 µs some of the time and 9–10 µs most of the time, with the mix
//! changing over seconds and minutes. So each timed push is paired with
//! a timing of a fixed reference kernel taken just before it, and the
//! push is reported at the host's full speed: its time scaled by
//! [`REFERENCE_NS`] over the kernel's time. The kernel is the
//! benchmark's own code, never the system's, so a slower push still
//! reads slower. One coupling remains: the kernel runs right after the
//! previous push, so a push that leaves more of the caches dirty slows
//! it a little too, and the scaling hides that part; the unscaled wall
//! time is reported beside it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time at full speed on the host the benchmark was built
/// on (a 2.1 GHz Xeon; its fastest runs took 5.0–5.2 µs), so that
/// normalised times read as microseconds on that host at full speed.
pub const REFERENCE_NS: f64 = 5_000.0;

const WIDTH: usize = 240;
const ROWS: usize = 40;

/// The reference kernel: a 3×3 majority filter over a fixed 240×40
/// binary image held as bytes, shaped like the pipeline's median filter.
pub struct Calibrator {
    image: Vec<u8>,
    filtered: Vec<u8>,
}

impl Calibrator {
    /// A calibrator over a fixed pseudo-random image with one pixel in
    /// eight set, the density of a busy event frame.
    pub fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let image = (0..WIDTH * ROWS)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                u8::from(state.is_multiple_of(8))
            })
            .collect();
        Self { image, filtered: vec![0; WIDTH * ROWS] }
    }

    /// Runs the kernel once and returns its wall time.
    pub fn time(&mut self) -> Duration {
        let started = Instant::now();
        black_box(self.kernel());
        started.elapsed()
    }

    /// `took`, measured right after a kernel run that took `kernel`,
    /// scaled to the host's full speed, in nanoseconds.
    pub fn normalise_ns(took: Duration, kernel: Duration) -> u64 {
        (took.as_nanos() as f64 * REFERENCE_NS / kernel.as_nanos().max(1) as f64).round() as u64
    }

    fn kernel(&mut self) -> u64 {
        let image: &[u8] = black_box(&self.image);
        let filtered: &mut [u8] = &mut self.filtered;
        for y in 1..ROWS - 1 {
            for x in 1..WIDTH - 1 {
                let mut set = 0;
                for dy in 0..3 {
                    for dx in 0..3 {
                        set += image[(y + dy - 1) * WIDTH + x + dx - 1];
                    }
                }
                filtered[y * WIDTH + x] = u8::from(set >= 5);
            }
        }
        filtered.iter().map(|&p| u64::from(p)).sum()
    }
}
