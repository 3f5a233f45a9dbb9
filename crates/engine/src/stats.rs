//! Statistics collected during simulation.
//!
//! The paper reports *average packet latency* with 95% confidence
//! intervals, *accepted throughput* as a fraction of network capacity, and
//! time-based occupancy figures ("the buffer pool is full 40% of the
//! time"). This module provides the corresponding estimators:
//!
//! * [`RunningStats`] — streaming mean/variance (Welford) with a normal
//!   95% confidence interval, used for packet latency.
//! * [`Histogram`] — integer-valued distribution with quantiles, used for
//!   latency distributions and queue lengths.
//! * [`TimeWeighted`] — time-weighted average of a piecewise-constant
//!   signal, used for queue lengths and buffer occupancy.
//! * [`WindowedMean`] — mean over a sliding window of recent samples, used
//!   by warm-up detection.

/// Streaming mean and variance using Welford's algorithm.
///
/// # Examples
///
/// ```
/// use noc_engine::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.variance() - 4.571428571428571).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0.0` when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; `0.0` with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Half-width of the 95% confidence interval of the mean, using the
    /// normal approximation (z = 1.96), which is what large-sample network
    /// simulations conventionally report.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            return f64::INFINITY;
        }
        1.96 * self.std_dev() / (self.count as f64).sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Integer-valued histogram with exact counts per value up to a cap, plus
/// an overflow bucket.
///
/// # Examples
///
/// ```
/// use noc_engine::stats::Histogram;
///
/// let mut h = Histogram::new(100);
/// for v in [1, 2, 2, 3, 200] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.count_at(2), 2);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.quantile(0.5), Some(2));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
}

impl Histogram {
    /// Creates a histogram with exact buckets for values `0..=max_value`.
    pub fn new(max_value: usize) -> Self {
        Histogram {
            buckets: vec![0; max_value + 1],
            overflow: 0,
            count: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as u128;
        match self.buckets.get_mut(value as usize) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    /// Clears all samples while keeping the bucket capacity, so one
    /// allocation serves many recording epochs.
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.overflow = 0;
        self.count = 0;
        self.sum = 0;
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples larger than the largest exact bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Count of samples exactly equal to `value` (0 if beyond the cap).
    pub fn count_at(&self, value: u64) -> u64 {
        self.buckets.get(value as usize).copied().unwrap_or(0)
    }

    /// Mean of all samples (including overflowing ones), `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest value `v` such that at least `q` of the probability mass is
    /// at or below `v`. Returns `None` when empty or when the quantile
    /// falls in the overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (value, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return Some(value as u64);
            }
        }
        None
    }

    /// Iterates over `(value, count)` pairs for non-empty exact buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(v, &n)| (v as u64, n))
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. a queue
/// length that changes at known cycles.
///
/// # Examples
///
/// ```
/// use noc_engine::stats::TimeWeighted;
/// use noc_engine::Cycle;
///
/// let mut tw = TimeWeighted::new(Cycle::ZERO, 0.0);
/// tw.set(Cycle::new(10), 4.0);   // signal was 0.0 during cycles [0, 10)
/// tw.set(Cycle::new(20), 0.0);   // signal was 4.0 during cycles [10, 20)
/// assert!((tw.average(Cycle::new(20)) - 2.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TimeWeighted {
    last_change: super::Cycle,
    current: f64,
    weighted_sum: f64,
    origin: super::Cycle,
}

impl TimeWeighted {
    /// Starts tracking a signal whose value is `initial` at time `start`.
    pub fn new(start: super::Cycle, initial: f64) -> Self {
        TimeWeighted {
            last_change: start,
            current: initial,
            weighted_sum: 0.0,
            origin: start,
        }
    }

    /// Updates the signal to `value` effective at time `now`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` precedes the previous update.
    pub fn set(&mut self, now: super::Cycle, value: f64) {
        debug_assert!(now >= self.last_change, "time went backwards");
        let dt = now - self.last_change;
        self.weighted_sum += self.current * dt as f64;
        self.last_change = now;
        self.current = value;
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Time-weighted average of the signal over `[start, now)`.
    pub fn average(&self, now: super::Cycle) -> f64 {
        let dt_tail = now.checked_since(self.last_change).unwrap_or(0);
        let total = now.checked_since(self.origin).unwrap_or(0);
        if total == 0 {
            return self.current;
        }
        (self.weighted_sum + self.current * dt_tail as f64) / total as f64
    }
}

/// Mean over a sliding window of the most recent `capacity` samples.
///
/// # Examples
///
/// ```
/// use noc_engine::stats::WindowedMean;
///
/// let mut w = WindowedMean::new(2);
/// w.record(1.0);
/// w.record(3.0);
/// w.record(5.0); // evicts 1.0
/// assert_eq!(w.mean(), Some(4.0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct WindowedMean {
    window: std::collections::VecDeque<f64>,
    capacity: usize,
    sum: f64,
}

impl WindowedMean {
    /// Creates a window holding up to `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        WindowedMean {
            window: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            sum: 0.0,
        }
    }

    /// Adds a sample, evicting the oldest if the window is full.
    pub fn record(&mut self, x: f64) {
        if self.window.len() == self.capacity {
            if let Some(old) = self.window.pop_front() {
                self.sum -= old;
            }
        }
        self.window.push_back(x);
        self.sum += x;
    }

    /// Mean of the samples currently in the window; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.window.is_empty() {
            None
        } else {
            Some(self.sum / self.window.len() as f64)
        }
    }

    /// `true` once the window holds `capacity` samples.
    pub fn is_full(&self) -> bool {
        self.window.len() == self.capacity
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// `true` if no samples have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cycle;

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert!(s.ci95_half_width().is_infinite());
    }

    #[test]
    fn running_stats_single_sample() {
        let mut s = RunningStats::new();
        s.record(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn running_stats_matches_naive() {
        let data: Vec<f64> = (0..100).map(|i| ((i * 37) % 13) as f64).collect();
        let mut s = RunningStats::new();
        for &x in &data {
            s.record(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.variance() - var).abs() < 1e-9);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let data: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for (i, &x) in data.iter().enumerate() {
            whole.record(x);
            if i < 20 {
                left.record(x)
            } else {
                right.record(x)
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = RunningStats::new();
        s.record(1.0);
        s.record(2.0);
        let before = s.clone();
        s.merge(&RunningStats::new());
        assert_eq!(s, before);
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let mut small = RunningStats::new();
        let mut large = RunningStats::new();
        for i in 0..10 {
            small.record((i % 5) as f64);
        }
        for i in 0..1000 {
            large.record((i % 5) as f64);
        }
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new(10);
        for v in [0, 1, 1, 5, 10, 11] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.count_at(1), 2);
        assert_eq!(h.count_at(11), 0);
        assert_eq!(h.overflow(), 1);
        assert!((h.mean() - 28.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(100);
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.quantile(0.0), Some(1));
    }

    #[test]
    fn histogram_quantile_overflow_is_none() {
        let mut h = Histogram::new(1);
        h.record(1000);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_quantile_boundaries_with_all_mass_in_overflow() {
        // When every sample overflows, even the extreme quantiles have no
        // in-range answer: q=0 and q=1 must return None, not a bucket edge.
        let mut h = Histogram::new(4);
        for _ in 0..3 {
            h.record(99);
        }
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_quantile_boundaries_single_sample() {
        let mut h = Histogram::new(10);
        h.record(7);
        assert_eq!(h.quantile(0.0), Some(7));
        assert_eq!(h.quantile(1.0), Some(7));
    }

    #[test]
    fn histogram_iter_skips_empty() {
        let mut h = Histogram::new(5);
        h.record(2);
        h.record(2);
        h.record(4);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(2, 2), (4, 1)]);
    }

    #[test]
    fn time_weighted_piecewise() {
        let mut tw = TimeWeighted::new(Cycle::ZERO, 1.0);
        tw.set(Cycle::new(4), 3.0);
        // [0,4): 1.0, [4,8): 3.0 -> average over [0,8) = 2.0
        assert!((tw.average(Cycle::new(8)) - 2.0).abs() < 1e-12);
        assert_eq!(tw.current(), 3.0);

        // 0.0 over [0,10), then 4.0 over [10,20).
        let mut tw = TimeWeighted::new(Cycle::ZERO, 0.0);
        tw.set(Cycle::new(10), 4.0);
        assert!((tw.average(Cycle::new(20)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_zero_duration_returns_current() {
        let tw = TimeWeighted::new(Cycle::new(5), 7.0);
        assert_eq!(tw.average(Cycle::new(5)), 7.0);
    }

    #[test]
    fn windowed_mean_eviction() {
        let mut w = WindowedMean::new(3);
        assert_eq!(w.mean(), None);
        assert!(w.is_empty());
        w.record(1.0);
        w.record(2.0);
        w.record(3.0);
        assert!(w.is_full());
        assert_eq!(w.mean(), Some(2.0));
        w.record(10.0); // evicts 1.0
        assert_eq!(w.mean(), Some(5.0));
        assert_eq!(w.len(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn windowed_mean_zero_capacity_panics() {
        WindowedMean::new(0);
    }
}
