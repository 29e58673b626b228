//! One-second windows over a measured phase.
//!
//! The main thread samples process and generator CPU once per window while
//! the generator threads run; each frame's completion instant places it in
//! a window. Throughput and CPU per frame are then reported as medians over
//! windows, so a burst of interference from outside the process moves a few
//! windows, not the run's figure.

use crate::procstat::{parse_stat, process_ticks, thread_ticks, Snapshot};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Window length.
pub const PERIOD: Duration = Duration::from_secs(1);

/// A window shorter than this share of [`PERIOD`] (the drain after the
/// deadline) is not reported.
const MIN_SHARE: f64 = 0.5;

/// CPU counters at one instant.
#[derive(Debug, Clone)]
pub struct Sample {
    /// When the counters were read.
    pub at: Instant,
    /// Process CPU ticks (exited threads included).
    pub process: u64,
    /// Summed CPU ticks of the registered generator threads.
    pub generator: u64,
    /// CPU ticks of the sampling (main) thread.
    pub main: u64,
    /// Every live thread, for the per-role split.
    pub threads: Snapshot,
}

/// The generator threads of a phase: thread id, and the final tick count
/// once the thread has finished (its `/proc` entry goes with it).
#[derive(Debug, Default)]
pub struct Generators(Mutex<Vec<(u64, Option<u64>)>>);

/// Keeps a generator thread registered; records its final CPU ticks when
/// dropped at the end of the thread.
pub struct Registration<'a> {
    generators: &'a Generators,
    tid: u64,
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        let ticks = thread_ticks();
        // A poisoned registry means a generator panicked; the phase fails
        // on that panic, so the count is not needed (and Drop must not
        // panic).
        if let Ok(mut threads) = self.generators.0.lock() {
            if let Some(entry) = threads.iter_mut().find(|(tid, _)| *tid == self.tid) {
                entry.1 = Some(ticks);
            }
        }
    }
}

impl Generators {
    /// Registers the calling thread as a generator thread until the
    /// returned guard is dropped.
    pub fn register(&self) -> Registration<'_> {
        let tid = current_tid().expect("linux exposes /proc/thread-self");
        self.0.lock().expect("generator registry").push((tid, None));
        Registration {
            generators: self,
            tid,
        }
    }

    /// Waits until `count` threads have registered.
    pub fn wait_for(&self, count: usize) {
        while self.0.lock().expect("generator registry").len() < count {
            thread::sleep(Duration::from_millis(1));
        }
    }

    fn ticks(&self) -> u64 {
        self.0
            .lock()
            .expect("generator registry")
            .iter()
            .filter_map(|&(tid, last)| {
                last.or_else(|| {
                    let line =
                        std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
                    Some(parse_stat(&line)?.ticks)
                })
            })
            .sum()
    }
}

/// Id of the calling thread, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`).
pub fn current_tid() -> Option<u64> {
    std::fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

/// Reads the counters now.
pub fn sample(generators: &Generators) -> Sample {
    Sample {
        at: Instant::now(),
        threads: Snapshot::take(),
        process: process_ticks(),
        generator: generators.ticks(),
        main: thread_ticks(),
    }
}

/// Samples once per [`PERIOD`] until `finished` holds, calling `between`
/// about every 10 ms in the meantime (the churn workload's checkpoint swaps
/// run there). The first sample is taken immediately.
pub fn monitor(
    generators: &Generators,
    mut finished: impl FnMut() -> bool,
    mut between: impl FnMut(),
) -> Vec<Sample> {
    let mut samples = vec![sample(generators)];
    let mut next = samples[0].at + PERIOD;
    loop {
        let done = finished();
        let now = Instant::now();
        if now >= next || done {
            samples.push(sample(generators));
            next += PERIOD;
        }
        if done {
            return samples;
        }
        between();
        thread::sleep(
            next.saturating_duration_since(Instant::now())
                .min(Duration::from_millis(10)),
        );
    }
}

/// One window's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Window {
    /// Length in seconds.
    pub secs: f64,
    /// Frames completed inside the window.
    pub frames: u64,
    /// Process CPU ticks.
    pub process: u64,
    /// Generator-thread CPU ticks.
    pub generator: u64,
    /// Main-thread CPU ticks.
    pub main: u64,
    /// Transport-thread CPU ticks.
    pub transport: u64,
    /// Shard-worker CPU ticks.
    pub shard: u64,
}

impl Window {
    /// The counters between two samples (no frames counted).
    fn between(a: &Sample, b: &Sample) -> Window {
        let roles = a.threads.roles_until(&b.threads);
        Window {
            secs: (b.at - a.at).as_secs_f64(),
            frames: 0,
            process: b.process.saturating_sub(a.process),
            generator: b.generator.saturating_sub(a.generator),
            main: b.main.saturating_sub(a.main),
            transport: roles.transport,
            shard: roles.shard,
        }
    }

    /// Adds another window's counters.
    pub fn add(&mut self, other: &Window) {
        self.secs += other.secs;
        self.frames += other.frames;
        self.process += other.process;
        self.generator += other.generator;
        self.main += other.main;
        self.transport += other.transport;
        self.shard += other.shard;
    }
}

/// The counters over a whole phase, from its first to its last sample.
pub fn total(samples: &[Sample]) -> Window {
    match (samples.first(), samples.last()) {
        (Some(a), Some(b)) => Window::between(a, b),
        _ => Window::default(),
    }
}

/// Cuts the phase into the windows between consecutive samples and counts
/// each frame completion into its window. Short windows are dropped.
pub fn windows(samples: &[Sample], mut completions: Vec<Instant>) -> Vec<Window> {
    completions.sort_unstable();
    samples
        .windows(2)
        .filter_map(|pair| {
            let (a, b) = (&pair[0], &pair[1]);
            let mut window = Window::between(a, b);
            if window.secs < MIN_SHARE * PERIOD.as_secs_f64() {
                return None;
            }
            let from = completions.partition_point(|&t| t <= a.at);
            let to = completions.partition_point(|&t| t <= b.at);
            window.frames = (to - from) as u64;
            Some(window)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_fall_into_the_window_they_completed_in() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let sample = |ms: u64, process: u64, generator: u64, main: u64| Sample {
            at: at(ms),
            process,
            generator,
            main,
            threads: Snapshot::default(),
        };
        let samples = [
            sample(0, 0, 0, 0),
            sample(1000, 150, 50, 1),
            sample(2000, 310, 100, 1),
            // The drain after the deadline: too short to report.
            sample(2200, 330, 105, 1),
        ];
        let completions = vec![at(999), at(10), at(1000), at(1001), at(1999), at(2100)];
        let w = windows(&samples, completions);
        assert_eq!(w.len(), 2);
        assert_eq!(
            (w[0].frames, w[0].process, w[0].generator, w[0].main),
            (3, 150, 50, 1)
        );
        assert_eq!(
            (w[1].frames, w[1].process, w[1].generator, w[1].main),
            (2, 160, 50, 0)
        );
        assert!((w[1].secs - 1.0).abs() < 1e-9);
        let all = total(&samples);
        assert_eq!((all.process, all.generator, all.main), (330, 105, 1));
        assert!((all.secs - 2.2).abs() < 1e-9);
    }

    #[test]
    fn the_calling_thread_has_an_id() {
        let tid = current_tid().expect("linux exposes /proc/thread-self");
        assert!(tid > 0);
        let generators = Generators::default();
        let finished = thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _registered = generators.register();
                    let mut spin = 0u64;
                    for i in 0..50_000_000u64 {
                        spin = spin.wrapping_add(i * i);
                    }
                    std::hint::black_box(spin);
                })
                .join()
                .unwrap();
            sample(&generators)
        });
        // The thread is gone; its ticks survive in the registration.
        assert_eq!(generators.0.lock().unwrap().len(), 1);
        assert!(generators.0.lock().unwrap()[0].1.is_some());
        assert!(finished.generator <= finished.process + 1);
    }
}
