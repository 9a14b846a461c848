//! Host speed, sampled beside the timed trials, and the factor that puts a
//! timing on a common scale.
//!
//! On a shared host the same instructions take 20–40 % longer for seconds to
//! minutes at a time (README, "Measured spread"): the child's CPU time rises
//! with its wall time, steal stays under 1 %, and which of the two vCPUs is
//! the slow one changes by the second.  A *throughput-bound* loop — four
//! independent multiply/shift chains, about three instructions a cycle —
//! slows down with the measured programs when it runs on the same CPU (a
//! single dependent chain or a memory walk does not, and the same loop on
//! the other CPU often does not either).  So the single-worker programs are
//! pinned to one CPU (`child::pin`), a sampler thread pinned to the same CPU
//! times that loop for a millisecond every 20 ms while they run, and every
//! end-to-end timing is multiplied by `(NOMINAL_NS_PER_ITER ÷ median sample
//! during the timing) ^ SLOWDOWN_EXPONENT`: seconds as the host would have
//! taken them at the nominal speed.  The loop lives here, calls nothing of
//! the repository, and later PRs may not edit it, so a change to the measured
//! programs moves the timing and not the scale.

use crate::child;
use crate::stats;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The scale: one loop iteration per nanosecond, which is what the build
/// host (Xeon @ 2.1 GHz) does when nothing disturbs it.  On another CPU the
/// constant rescales every timing alike; comparisons are made on one host.
pub const NOMINAL_NS_PER_ITER: f64 = 1.0;

/// How much more the measured programs lose to a busy host than the loop
/// does: they share the core's caches with the sibling thread as well as its
/// issue ports.  Across eleven sets of ten runs, set medians that the clock
/// read up to 39 % apart came within 1–6 % of each other at 1.5 and stayed
/// 5–15 % apart at 1 (README, "Host speed").
pub const SLOWDOWN_EXPONENT: f64 = 1.5;

/// Iterations per sample (≈1 ms) and the pause between samples: the sampler
/// takes 5 % of the measured CPU, the same share in every run.
const SAMPLE_ITERS: u64 = 1_000_000;
const SAMPLE_PAUSE: Duration = Duration::from_millis(20);

/// A window with fewer samples than this falls back to the whole run's.
const MIN_SAMPLES: usize = 5;

/// Four independent integer chains (LCG, xorshift, add-rotate, multiply-xor)
/// per iteration: enough parallel work to keep the issue ports busy, nothing
/// that leaves the registers.
pub fn reference_loop(iters: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..iters {
        a = a.wrapping_mul(6364136223846793005).wrapping_add(i);
        b = (b ^ (b << 13)) ^ (b >> 7);
        c = c.wrapping_add(a ^ i).rotate_left(5);
        d = d.wrapping_mul(0x9E3779B97F4A7C15) ^ c;
    }
    a ^ b ^ c ^ d
}

/// `(NOMINAL_NS_PER_ITER ÷ median) ^ SLOWDOWN_EXPONENT` over the samples
/// `(taken at, ns per iteration)` that fall into `from..=to`, or over all of
/// them when fewer than [`MIN_SAMPLES`] do; 1 when there is none at all.
///
/// The median, because 3 % of the samples read 4–6 ns: the sampler itself
/// losing the CPU to the program mid-loop.  A mean with those left out did
/// no better on the same trials.
fn factor_of(samples: &[(Instant, f64)], from: Instant, to: Instant) -> f64 {
    let inside: Vec<f64> = samples
        .iter()
        .filter(|(at, _)| (from..=to).contains(at))
        .map(|(_, ns)| *ns)
        .collect();
    let used = if inside.len() >= MIN_SAMPLES {
        inside
    } else {
        samples.iter().map(|(_, ns)| *ns).collect()
    };
    if used.is_empty() {
        1.0
    } else {
        (NOMINAL_NS_PER_ITER / stats::median(&used)).powf(SLOWDOWN_EXPONENT)
    }
}

/// The sampler thread; it stops when dropped.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<(Instant, f64)>>>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let (stopped, sink) = (Arc::clone(&stop), Arc::clone(&samples));
        let thread = std::thread::spawn(move || {
            // Share the measured programs' CPU.
            child::pin_this_thread();
            while !stopped.load(Ordering::Relaxed) {
                let at = Instant::now();
                black_box(reference_loop(black_box(SAMPLE_ITERS)));
                let ns = at.elapsed().as_secs_f64() * 1e9 / SAMPLE_ITERS as f64;
                sink.lock().expect("no panic under the lock").push((at, ns));
                std::thread::sleep(SAMPLE_PAUSE);
            }
        });
        Sampler {
            stop,
            samples,
            thread: Some(thread),
        }
    }

    /// What a timing taken over `from..=to` is multiplied by.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        factor_of(
            &self.samples.lock().expect("no panic under the lock"),
            from,
            to,
        )
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_comes_from_the_windows_median() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut samples: Vec<(Instant, f64)> = (0..10).map(|i| (at(i * 20), 1.0)).collect();
        samples.extend((10..20).map(|i| (at(i * 20), if i == 15 { 9.0 } else { 1.25 })));
        // A quiet window, a slow one (its one sample of a preempted sampler
        // does not move the median), and both together.
        let scaled = |speed: f64| speed.powf(SLOWDOWN_EXPONENT);
        assert_eq!(factor_of(&samples, at(0), at(190)), 1.0);
        assert_eq!(factor_of(&samples, at(200), at(390)), scaled(0.8));
        assert_eq!(factor_of(&samples, at(0), at(390)), scaled(1.0 / 1.125));
        // Too few samples inside: the whole run's median stands in.
        assert_eq!(factor_of(&samples, at(200), at(230)), scaled(1.0 / 1.125));
        assert_eq!(factor_of(&[], at(0), at(10)), 1.0);
    }

    #[test]
    fn the_sampler_samples_until_it_is_dropped() {
        let from = Instant::now();
        let sampler = Sampler::start();
        std::thread::sleep(Duration::from_millis(200));
        let factor = sampler.factor(from, Instant::now());
        assert!(sampler.samples.lock().unwrap().len() >= MIN_SAMPLES);
        // Between a tenth and ten times the nominal speed on any host.
        assert!((0.1..10.0).contains(&factor), "{factor}");
        drop(sampler);
        assert_ne!(reference_loop(10), reference_loop(11));
    }
}
