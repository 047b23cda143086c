//! Host-speed calibration.
//!
//! The benchmark's host shares its cores with other tenants, and its
//! speed drifts by tens of percent over minutes; that drift moves every
//! wall-time figure alike and swamps the differences the benchmark must
//! resolve. So the untraced runs interleave a fixed kernel of the
//! benchmark's own with the measured work — one sample of a few
//! milliseconds about every 100 ms, while the program is idle — and
//! report times at reference speed: measured × [`REFERENCE_MS`] ÷ the
//! run's median kernel time (rates the other way round). Set-up is
//! normalised by samples taken between its own timings. The program
//! cannot move the kernel, so a change to the program moves the
//! normalised figures exactly as much as it moves its own cost. The
//! report lines also print the raw figures and the run's slowdown.

use std::time::{Duration, Instant};

/// Median kernel time, in milliseconds, at reference speed (a 2-vCPU
/// 2.0 GHz Xeon guest when idle).
pub const REFERENCE_MS: f64 = 4.0;

/// Work between two samples.
pub const EVERY: Duration = Duration::from_millis(100);

/// Pointer-chasing, branching integer work over 512 KiB, the kind of
/// code the compiler and simulator run.
fn kernel(seed: u64) -> u64 {
    const WORDS: usize = 1 << 16;
    let mut v: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed)
        .collect();
    let (mut x, mut acc) = (seed, 0u64);
    for _ in 0..400_000 {
        let i = (x as usize) & (WORDS - 1);
        let y = v[i];
        if y & 1 == 0 {
            acc = acc.wrapping_add(y);
        } else {
            acc ^= y.rotate_left(7);
        }
        v[i] = y ^ acc;
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(y);
    }
    acc
}

/// Kernel samples of one run.
#[derive(Debug)]
pub struct Calibration {
    samples_ms: Vec<f64>,
    last: Instant,
    both_cores: bool,
}

impl Calibration {
    /// No samples yet. A workload that keeps both cores busy samples on
    /// both (`both_cores`); a single-threaded one samples on its own
    /// thread.
    pub fn new(both_cores: bool) -> Calibration {
        Calibration {
            samples_ms: Vec::new(),
            last: Instant::now(),
            both_cores,
        }
    }

    /// Runs the kernel (on two threads, or on the calling one) and
    /// records the mean time.
    pub fn sample(&mut self) {
        let timed = |seed| {
            let t0 = Instant::now();
            std::hint::black_box(kernel(seed));
            t0.elapsed().as_secs_f64() * 1e3
        };
        let ms = if self.both_cores {
            std::thread::scope(|s| {
                let a = s.spawn(|| timed(1));
                let b = timed(2);
                (a.join().expect("calibration thread panicked") + b) / 2.0
            })
        } else {
            timed(1)
        };
        self.samples_ms.push(ms);
        self.last = Instant::now();
    }

    /// Samples if [`EVERY`] has passed since the last sample.
    pub fn maybe_sample(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// The run's median kernel time over [`REFERENCE_MS`]: above 1 the
    /// host ran slower than reference speed.
    pub fn slowdown(&self) -> f64 {
        if self.samples_ms.is_empty() {
            return 1.0;
        }
        crate::stats::median(&self.samples_ms) / REFERENCE_MS
    }

    /// A measured time at reference speed.
    pub fn time(&self, measured: f64) -> f64 {
        measured / self.slowdown()
    }

    /// A measured rate at reference speed.
    pub fn rate(&self, measured: f64) -> f64 {
        measured * self.slowdown()
    }

    /// The report line describing the calibration.
    pub fn describe(&self) -> String {
        format!(
            "host slowdown {} (median kernel {} ms over {} samples, reference {REFERENCE_MS} ms); \
             setup_s, latency and throughput metrics are at reference speed",
            self.slowdown(),
            self.slowdown() * REFERENCE_MS,
            self.samples_ms.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalises_by_the_median_sample() {
        let mut c = Calibration::new(true);
        assert_eq!(c.slowdown(), 1.0);
        c.samples_ms = vec![8.0, 6.0, 100.0];
        assert_eq!(c.slowdown(), 2.0);
        assert_eq!(c.time(10.0), 5.0);
        assert_eq!(c.rate(10.0), 20.0);
        c.sample();
        assert_eq!(c.samples_ms.len(), 4);
        assert!(c.samples_ms[3] > 0.0);
    }
}
