//! The timed window: a plan of steps the load threads follow, and the
//! end-to-end figures computed per step.
//!
//! An untraced run is split over [`INSTANCES`] freshly set-up instances of
//! the system, each measured for its share of the run's one-second
//! slices. Throughput, p50 and p99 are computed for each slice and
//! reported as their median over all slices of all instances: a burst of
//! outside load on the host moves a few slices rather than the run's
//! result, and what one instance happens to get at start-up (hash seeds,
//! memory layout, thread placement) moves a third of them. A traced run
//! measures one instance whose window alternates untraced and traced
//! quarters, so drift over the window affects both sides alike.

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use crate::stats::{self, Samples};

/// Whether a step keeps spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Timed, no spans.
    Untraced,
    /// Timed, spans kept.
    Traced,
}

/// Value of the step flag once the window is over.
const STOP: u8 = u8::MAX;

/// The steps of one window and the flag announcing the current one.
#[derive(Debug)]
pub struct Window {
    steps: Vec<(Phase, Duration)>,
    step: AtomicU8,
}

impl Window {
    /// `seconds` one-second untraced slices, or (`traced`) four alternating
    /// untraced and traced quarters.
    pub fn new(seconds: u64, traced: bool) -> Self {
        let steps = if traced {
            let quarter = Duration::from_secs(seconds) / 4;
            [
                Phase::Untraced,
                Phase::Traced,
                Phase::Untraced,
                Phase::Traced,
            ]
            .map(|p| (p, quarter))
            .to_vec()
        } else {
            vec![(Phase::Untraced, Duration::from_secs(1)); seconds as usize]
        };
        assert!(steps.len() < usize::from(STOP), "window has too many steps");
        Self {
            steps,
            step: AtomicU8::new(0),
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// The current step and its phase, or `None` once the window is over.
    /// The flag publishes no data (results come back through thread
    /// joins), so relaxed loads and stores suffice.
    #[inline]
    pub fn current(&self) -> Option<(usize, Phase)> {
        let s = self.step.load(Ordering::Relaxed);
        (s != STOP).then(|| (usize::from(s), self.steps[usize::from(s)].0))
    }

    /// Runs the steps on the calling thread (which sleeps through them) and
    /// returns each step's wall time in seconds.
    pub fn drive(&self) -> Vec<f64> {
        let mut secs = Vec::with_capacity(self.steps.len());
        let mut t = Instant::now();
        for (i, &(_, len)) in self.steps.iter().enumerate() {
            self.step.store(i as u8, Ordering::Relaxed);
            let end = t + len;
            loop {
                let left = end.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                std::thread::sleep(left);
            }
            let now = Instant::now();
            secs.push((now - t).as_secs_f64());
            t = now;
        }
        self.step.store(STOP, Ordering::Relaxed);
        secs
    }

    /// `1 - traced rate / untraced rate`; `ops[t][s]` counts thread `t`'s
    /// operations in step `s`.
    pub fn overhead(&self, secs: &[f64], ops: &[&[u64]]) -> f64 {
        let rate = |phase: Phase| {
            let (mut n, mut t) = (0, 0.0);
            for (s, &(p, _)) in self.steps.iter().enumerate() {
                if p == phase {
                    n += ops.iter().map(|o| o[s]).sum::<u64>();
                    t += secs[s];
                }
            }
            n as f64 / t
        };
        1.0 - rate(Phase::Traced) / rate(Phase::Untraced)
    }
}

/// Instances an untraced run is split over.
pub const INSTANCES: u64 = 3;

/// The window lengths of a run's instances: one for a traced run, else
/// `seconds` split over up to [`INSTANCES`] instances of at least one
/// second each.
pub fn shares(seconds: u64, traced: bool) -> Vec<u64> {
    let n = if traced { 1 } else { INSTANCES.min(seconds) };
    (0..n)
        .map(|i| seconds / n + u64::from(i < seconds % n))
        .collect()
}

/// Per-slice throughput (1/s), p50 and p99 (ns), pooled over instances.
#[derive(Debug, Default)]
pub struct Slices {
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
}

impl Slices {
    /// Adds one instance's slices. `ops[t][s]` counts thread `t`'s
    /// operations in slice `s`, and thread `t` recorded exactly one sample
    /// per operation, in order, into `samples[t]`. Slices whose samples
    /// were partly overwritten are left out of the latency figures.
    pub fn add(&mut self, secs: &[f64], ops: &[&[u64]], samples: &[&Samples]) {
        let mut starts = vec![0u64; ops.len()];
        for (s, &len) in secs.iter().enumerate() {
            self.rates
                .push(ops.iter().map(|o| o[s]).sum::<u64>() as f64 / len);
            let mut slice = Vec::new();
            let mut whole = true;
            for (t, start) in starts.iter_mut().enumerate() {
                let end = *start + ops[t][s];
                match samples[t].range(*start, end) {
                    Some(kept) => slice.extend(kept),
                    None => whole = false,
                }
                *start = end;
            }
            if whole && !slice.is_empty() {
                slice.sort_unstable();
                self.p50s
                    .extend(stats::nearest_rank(&slice, 5000).map(f64::from));
                self.p99s
                    .extend(stats::nearest_rank(&slice, 9900).map(f64::from));
            }
        }
    }

    /// Medians over all slices added: throughput, p50, p99.
    pub fn medians(&self) -> (f64, f64, f64) {
        (
            stats::median(&self.rates),
            stats::median(&self.p50s),
            stats::median(&self.p99s),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(cap: usize, ns: &[u64]) -> Samples {
        let mut s = Samples::with_capacity(cap);
        for &n in ns {
            s.record(Duration::from_nanos(n));
        }
        s
    }

    #[test]
    fn shares_split_the_run() {
        assert_eq!(shares(20, false), [7, 7, 6]);
        assert_eq!(shares(3, false), [1, 1, 1]);
        assert_eq!(shares(2, false), [1, 1]);
        assert_eq!(shares(20, true), [20]);
    }

    #[test]
    fn plans() {
        let w = Window::new(5, false);
        assert_eq!(w.len(), 5);
        assert_eq!(w.current(), Some((0, Phase::Untraced)));
        let t = Window::new(8, true);
        assert_eq!(t.len(), 4);
        assert_eq!(t.steps[1], (Phase::Traced, Duration::from_secs(2)));
    }

    #[test]
    fn medians_over_slices() {
        // Two threads, three one-second slices; thread 1 is idle in slice 2.
        let a = samples(16, &[10, 20, 30, 100, 200, 1, 2, 3]);
        let b = samples(16, &[40, 300, 400]);
        let ops_a = [3, 2, 3];
        let ops_b = [1, 2, 0];
        let mut slices = Slices::default();
        slices.add(&[1.0, 1.0, 1.0], &[&ops_a, &ops_b], &[&a, &b]);
        let (rate, p50, p99) = slices.medians();
        // Rates 4, 4, 3; per-slice p50 20, 200, 2; p99 40, 400, 3.
        assert_eq!((rate, p50, p99), (4.0, 20.0, 40.0));
    }

    #[test]
    fn overwritten_slices_are_left_out_of_latency() {
        // Capacity 4: slice 0's samples are overwritten by slice 1's.
        let a = samples(4, &[1000, 1000, 1000, 5, 6, 7, 8]);
        let mut slices = Slices::default();
        slices.add(&[1.0, 2.0], &[&[3, 4]], &[&a]);
        assert_eq!(slices.medians(), (2.0, 6.0, 8.0));
        // A second instance's slices pool with the first's.
        slices.add(&[1.0], &[&[4]], &[&a]);
        assert_eq!(slices.medians(), (3.0, 6.0, 8.0));
    }

    #[test]
    fn overhead_compares_traced_with_untraced_steps() {
        let w = Window::new(4, true);
        let ops = [100, 80, 100, 80];
        let o = w.overhead(&[1.0; 4], &[&ops]);
        assert!((o - 0.2).abs() < 1e-12, "{o}");
    }
}
