//! Raw latency samples and exact nearest-rank quantiles.

use std::time::Duration;

/// Per-thread raw nanosecond samples in a buffer sized (and touched)
/// before the timed window. When a run records more samples than the
/// buffer holds, the buffer keeps the most recent ones.
#[derive(Debug)]
pub struct Samples {
    buf: Vec<u32>,
    recorded: u64,
}

impl Samples {
    /// A buffer of `capacity` samples (a power of two), every page written
    /// once so the timed window takes no page faults on it.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two());
        Self {
            buf: vec![u32::MAX; capacity],
            recorded: 0,
        }
    }

    /// Records one latency (saturating at `u32::MAX` ns, about 4.3 s).
    #[inline]
    pub fn record(&mut self, d: Duration) {
        let slot = (self.recorded as usize) & (self.buf.len() - 1);
        self.buf[slot] = u32::try_from(d.as_nanos()).unwrap_or(u32::MAX);
        self.recorded += 1;
    }

    /// Samples `start..end` (by recording order), if none of them has
    /// been overwritten.
    pub fn range(&self, start: u64, end: u64) -> Option<impl Iterator<Item = u32> + '_> {
        let cap = self.buf.len() as u64;
        (end <= self.recorded && start + cap >= self.recorded)
            .then(|| (start..end).map(move |i| self.buf[(i & (cap - 1)) as usize]))
    }
}

/// Nearest-rank quantile of an ascending slice: the value at rank
/// `ceil(q/10000 * n)`, with the rank clamped to `1..=n`. `q` is in
/// hundredths of a percent (5000 = p50, 9900 = p99). `None` when empty.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: u64) -> Option<T> {
    let n = sorted.len() as u64;
    if n == 0 {
        return None;
    }
    let rank = (q * n).div_ceil(10_000).clamp(1, n);
    Some(sorted[(rank - 1) as usize])
}

/// Median of a small set of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 5000).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_at_small_and_large_n() {
        assert_eq!(nearest_rank::<u32>(&[], 5000), None);
        // n = 1: every quantile is the only sample.
        assert_eq!(nearest_rank(&[7], 1), Some(7));
        assert_eq!(nearest_rank(&[7], 5000), Some(7));
        assert_eq!(nearest_rank(&[7], 10_000), Some(7));
        // n = 2: p50 is rank 1, anything above is rank 2.
        assert_eq!(nearest_rank(&[1, 2], 5000), Some(1));
        assert_eq!(nearest_rank(&[1, 2], 5001), Some(2));
        assert_eq!(nearest_rank(&[1, 2], 9900), Some(2));
        // q = 0 clamps to rank 1.
        assert_eq!(nearest_rank(&[1, 2], 0), Some(1));
        // n = 100 and n = 1000 over 1..=n: the quantile is its own rank.
        let v100: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&v100, 5000), Some(50));
        assert_eq!(nearest_rank(&v100, 9900), Some(99));
        assert_eq!(nearest_rank(&v100, 10_000), Some(100));
        let v1000: Vec<u32> = (1..=1000).collect();
        assert_eq!(nearest_rank(&v1000, 5000), Some(500));
        assert_eq!(nearest_rank(&v1000, 9900), Some(990));
        assert_eq!(nearest_rank(&v1000, 9901), Some(991));
    }

    #[test]
    fn known_p50_and_p99() {
        // 1000 samples: 500 at 10 ns, 490 at 20 ns, 10 at 1000 ns.
        let mut v: Vec<u32> = std::iter::repeat_n(10, 500)
            .chain(std::iter::repeat_n(20, 490))
            .chain(std::iter::repeat_n(1000, 10))
            .collect();
        v.sort_unstable();
        assert_eq!(nearest_rank(&v, 5000), Some(10));
        assert_eq!(nearest_rank(&v, 9900), Some(20));
        v.push(1000);
        assert_eq!(nearest_rank(&v, 5000), Some(20));
        assert_eq!(nearest_rank(&v, 9900), Some(1000));
    }

    #[test]
    fn samples_keep_the_most_recent_when_full() {
        let mut s = Samples::with_capacity(4);
        for ns in 1..=6u64 {
            s.record(Duration::from_nanos(ns));
        }
        let kept: Vec<u32> = s.range(2, 6).expect("the last four are kept").collect();
        assert_eq!(kept, [3, 4, 5, 6]);
        assert!(s.range(1, 3).is_none(), "sample 1 was overwritten");
        assert!(s.range(5, 7).is_none(), "sample 6 is not recorded yet");
        s.record(Duration::from_secs(10));
        assert_eq!(
            s.range(6, 7).map(|mut r| r.next()),
            Some(Some(u32::MAX)),
            "saturates"
        );
    }

    #[test]
    fn median_of_measurements() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
