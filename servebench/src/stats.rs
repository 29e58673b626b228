//! Metric arithmetic: percentiles, open-loop latency and failure accounting.

use std::time::Instant;

/// A percentile is reported only if at least this many samples lie beyond
/// it, so the tail value is not one unlucky sample.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(p * n)`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Nearest rank (1-based) of percentile `p` in a sample of `n >= 1`; the
/// epsilon keeps `0.99 * 1000` at rank 990 despite binary rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly after the nearest-rank position of `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of `ladder` (descending) with at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it in a sample of `n`.
pub fn highest_supported(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Percentiles a latency summary may report as its tail, highest first.
pub const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// Median and tail of one latency sample, with its count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median, in milliseconds.
    pub p50_ms: f64,
    /// The 99th percentile in milliseconds, if at least
    /// [`MIN_SAMPLES_BEYOND`] samples lie beyond it (`n >= 1000`).
    pub p99_ms: Option<f64>,
    /// The highest supported percentile and its value in milliseconds.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises latencies given in milliseconds (any order).
    pub fn of(mut samples_ms: Vec<f64>) -> Self {
        samples_ms.sort_by(f64::total_cmp);
        let n = samples_ms.len();
        let p99_ms = (samples_beyond(n, 0.99) >= MIN_SAMPLES_BEYOND && n > 0)
            .then(|| percentile(&samples_ms, 0.99));
        let tail = highest_supported(n, &TAIL_LADDER).map(|p| (p, percentile(&samples_ms, p)));
        Self {
            count: n,
            p50_ms: percentile(&samples_ms, 0.5),
            p99_ms,
            tail,
        }
    }

    /// One human-readable line: median, tail and the sample count.
    pub fn describe(&self) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "p50 {:.3} ms, p{} {:.3} ms (n={})",
                self.p50_ms,
                p * 100.0,
                v,
                self.count
            ),
            None => format!(
                "p50 {:.3} ms (n={}, too few for a tail)",
                self.p50_ms, self.count
            ),
        }
    }
}

/// Latency of one frame in milliseconds. An open loop passes the instant
/// the frame was *due*, not the instant the generator got round to sending
/// it, so a stall anywhere (server, socket, generator) counts against every
/// frame that was due while it lasted.
pub fn latency_ms(from: Instant, done: Instant) -> f64 {
    done.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// How the frames a generator attempted ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Frames the generator attempted to send.
    pub attempted: u64,
    /// Frames whose verdicts came back and matched the in-process replay.
    pub correct: u64,
    /// Frames the server refused (`backpressure`, `overloaded`).
    pub refused: u64,
    /// Frames with no answer before the deadline.
    pub timed_out: u64,
    /// Frames answered with another error.
    pub errored: u64,
    /// Frames answered with verdicts that differ from the replay.
    pub mismatched: u64,
}

impl Outcomes {
    /// Frames that did not come back correct.
    pub fn failed(&self) -> u64 {
        self.attempted - self.correct
    }

    /// Failed frames over attempted frames.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }

    /// Adds another tally.
    pub fn add(&mut self, other: &Outcomes) {
        self.attempted += other.attempted;
        self.correct += other.correct;
        self.refused += other.refused;
        self.timed_out += other.timed_out;
        self.errored += other.errored;
        self.mismatched += other.mismatched;
    }

    /// Whether every attempt is accounted for exactly once.
    pub fn balanced(&self) -> bool {
        self.correct + self.refused + self.timed_out + self.errored + self.mismatched
            == self.attempted
    }
}

/// Median of a sample (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn p99_needs_a_thousand_samples_so_ten_lie_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        let short = Summary::of((1..=999).map(f64::from).collect());
        assert_eq!(short.p99_ms, None);
        assert_eq!(short.tail, Some((0.95, 950.0)));
        let long = Summary::of((1..=1000).rev().map(f64::from).collect());
        assert_eq!(long.count, 1000);
        assert_eq!(long.p99_ms, Some(990.0));
        assert_eq!(long.p50_ms, 500.0);
        assert_eq!(long.tail, Some((0.99, 990.0)));
        assert!(long.describe().contains("n=1000"), "{}", long.describe());
    }

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_beyond() {
        assert_eq!(highest_supported(10_000, &TAIL_LADDER), Some(0.999));
        assert_eq!(highest_supported(9_999, &TAIL_LADDER), Some(0.99));
        assert_eq!(highest_supported(200, &TAIL_LADDER), Some(0.95));
        assert_eq!(highest_supported(100, &TAIL_LADDER), Some(0.9));
        assert_eq!(highest_supported(20, &TAIL_LADDER), Some(0.5));
        assert_eq!(highest_supported(19, &TAIL_LADDER), None);
        let tiny = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!(tiny.tail, None);
        assert!(tiny.describe().contains("too few"));
    }

    /// A server that answers in 1 ms stalls for 100 ms. A generator that
    /// blocks while the server stalls sends the queued frames late; timing
    /// from the send would hide the stall, timing from the due instant
    /// charges it to every frame that was due during it.
    #[test]
    fn open_loop_latency_charges_a_stall_to_the_frames_queued_behind_it() {
        let t0 = Instant::now();
        let interval = Duration::from_millis(5);
        let service = Duration::from_millis(1);
        let stall_from = t0 + Duration::from_millis(500);
        let stall_until = stall_from + Duration::from_millis(100);
        let mut free_at = t0;
        let (mut from_due, mut from_send) = (Vec::new(), Vec::new());
        for i in 0..2000u32 {
            let due = t0 + interval * i;
            // The generator is blocked until the server takes the frame.
            let send = due.max(free_at);
            let mut start = send;
            if start >= stall_from && start < stall_until {
                start = stall_until;
            }
            let done = start + service;
            free_at = done;
            from_due.push(latency_ms(due, done));
            from_send.push(latency_ms(send, done));
        }
        let due = Summary::of(from_due);
        let send = Summary::of(from_send);
        assert_eq!(due.count, 2000);
        assert!((due.p50_ms - 1.0).abs() < 1e-9);
        // 20 frames were due inside the 100 ms stall and more queued
        // behind them: p99 sees it.
        assert!(due.p99_ms.unwrap() > 10.0, "{}", due.describe());
        // Timed from the send, the same run looks flawless.
        assert!(send.p99_ms.unwrap() < 1.0 + 1e-9, "{}", send.describe());
    }

    #[test]
    fn refused_and_timed_out_frames_fail_against_attempts() {
        let mut tally = Outcomes {
            attempted: 100,
            correct: 90,
            refused: 6,
            timed_out: 3,
            errored: 1,
            mismatched: 0,
        };
        assert!(tally.balanced());
        assert_eq!(tally.failed(), 10);
        assert!((tally.failed_frac() - 0.1).abs() < 1e-12);
        tally.add(&Outcomes {
            attempted: 100,
            correct: 99,
            mismatched: 1,
            ..Outcomes::default()
        });
        assert!(tally.balanced());
        assert_eq!(tally.failed(), 11);
        assert!((tally.failed_frac() - 0.055).abs() < 1e-12);
        assert_eq!(Outcomes::default().failed_frac(), 0.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
