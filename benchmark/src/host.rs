//! The host's speed, measured while a run measures the program.
//!
//! On a shared host the neighbours' load moves the speed of every
//! thread by a quarter or more, in phases that last minutes, so runs of
//! the same code minutes apart differ by more than any bound worth
//! setting. Each thread of a run therefore also times [`kernel`], a
//! fixed loop the benchmark owns, between the units of work it runs
//! (grid jobs, served sessions), and the time of each unit is scaled to
//! the calibration host's speed: multiplied by `NOMINAL_MS` over the
//! kernel's latest time on that thread. Set-ups are scaled by the
//! median of samples taken around them and, by a second thread, while
//! they run. The kernel is not program code, so a change to the
//! program moves the scaled metrics in full, as cycle counts would;
//! runs print the raw numbers beside them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Median kernel time on the calibration host, ms.
pub const NOMINAL_MS: f64 = 0.93;

/// Least time between two samples on one thread, s: keeps the kernel
/// under about 2% of a run.
const SAMPLE_EVERY_S: f64 = 0.05;

/// Seconds at the calibration host's speed per second measured while
/// the kernel took `kernel_ms`.
fn scale_for(kernel_ms: f64) -> f64 {
    NOMINAL_MS / kernel_ms
}

/// Kernel times sampled over one phase of a run.
#[derive(Default)]
pub struct Host {
    samples_ms: Mutex<Vec<f64>>,
}

/// One thread's sampling state.
pub struct Sampler<'a> {
    host: &'a Host,
    last: Option<(Instant, f64)>,
}

impl Host {
    /// Time the kernel now and return its time, ms. Of three
    /// back-to-back calls the fastest counts, so a call the scheduler
    /// preempted does not.
    pub fn sample(&self) -> f64 {
        let best = (0..3)
            .map(|_| {
                let start = Instant::now();
                kernel();
                start.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        self.samples_ms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(best);
        best
    }

    /// A sampler for one thread; it samples at its first call.
    pub fn sampler(&self) -> Sampler<'_> {
        Sampler {
            host: self,
            last: None,
        }
    }

    /// Run `f` while another thread samples every `SAMPLE_EVERY_S`:
    /// a set-up can take seconds on several threads, and samples taken
    /// only before and after it do not tell its speed.
    pub fn sample_during<T>(&self, f: impl FnOnce() -> T) -> T {
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    self.sample();
                    std::thread::park_timeout(Duration::from_secs_f64(SAMPLE_EVERY_S));
                }
            });
            let out = f();
            done.store(true, Ordering::SeqCst);
            sampler.thread().unpark();
            out
        })
    }

    /// Median kernel time over the phase, ms.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples_ms.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Kernel samples taken.
    pub fn samples(&self) -> usize {
        self.samples_ms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// [`scale_for`] the phase's median kernel time.
    pub fn scale(&self) -> f64 {
        scale_for(self.kernel_ms())
    }
}

impl Sampler<'_> {
    /// The scale for the unit of work this thread starts next: sample
    /// if the thread has not for a while, then [`scale_for`] its latest
    /// sample. Call it between units of work, never inside one.
    pub fn scale(&mut self) -> f64 {
        let kernel_ms = match self.last {
            Some((at, ms)) if at.elapsed().as_secs_f64() < SAMPLE_EVERY_S => ms,
            _ => {
                let ms = self.host.sample();
                self.last = Some((Instant::now(), ms));
                ms
            }
        };
        scale_for(kernel_ms)
    }
}

/// About 1 ms of floating-point work over 32 KiB. The data fits in L1,
/// so the program's cache footprint does not change its time; the
/// core's clock and whatever shares the core do, and they slow the
/// program alike.
#[inline(never)]
pub fn kernel() -> f64 {
    let v: Vec<f64> = (0..4096).map(|i| i as f64 * 1e-4).collect();
    let mut acc = 0.0;
    for k in 1..=32 {
        for x in &v {
            acc += (-(x * k as f64)).exp();
        }
    }
    std::hint::black_box(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_the_median_sample() {
        let host = Host::default();
        host.samples_ms
            .lock()
            .unwrap()
            .extend([2.0, 0.5, 4.0, 2.0, 9.0].map(|x| x * NOMINAL_MS));
        assert_eq!(host.kernel_ms(), 2.0 * NOMINAL_MS);
        assert_eq!(host.scale(), 0.5);
    }

    #[test]
    fn a_sampler_reuses_its_sample_within_an_interval() {
        let host = Host::default();
        let mut s = host.sampler();
        let first = s.scale();
        assert_eq!(s.scale(), first);
        assert_eq!(host.samples(), 1);
        assert_eq!(first, host.scale());
    }

    #[test]
    fn sampling_during_work_keeps_sampling_until_it_ends() {
        let host = Host::default();
        // The sampler samples as it starts; the work ends only once a
        // later sample shows the sampler kept going while it ran.
        let out = host.sample_during(|| {
            while host.samples() < 2 {
                std::thread::yield_now();
            }
            7
        });
        assert_eq!(out, 7);
    }
}
