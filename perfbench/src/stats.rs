//! Order statistics for block timings, and the host-speed-normalised
//! block clock every gated timing goes through.

use crate::kernel::{RefKernel, R_NOMINAL};
use std::time::Instant;

/// Percentiles tried for a timing's tail, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the middle pair for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let (len, n) = (v.len() as i64, 4i64);
    assert!(len >= 2, "quartiles need two values");
    let m = len + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m - j * n) as f64;
        *slot = (v[j as usize - 1] * (n as f64 - delta) + v[j as usize] * delta) / n as f64;
    }
    out
}

/// The highest percentile (nearest rank) of a timing that still has at
/// least [`TAIL_MIN_BEYOND`] samples above it, with its value; `None`
/// when there are too few samples for even the median to qualify.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| (p, v[rank - 1]))
    })
}

/// One timed block: its wall time and the host speed around it.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    /// Simulated cycles the block advanced (0 for non-simulation work).
    pub cycles: u64,
    /// Wall-clock seconds.
    pub raw_s: f64,
    /// Reference-kernel rate around the block (mean of the samples taken
    /// right before and right after it).
    pub rate: f64,
}

impl Block {
    /// Reference-host seconds: wall time × rate / [`R_NOMINAL`].
    pub fn norm_s(&self) -> f64 {
        self.raw_s * self.rate / R_NOMINAL
    }
}

/// Times closures as blocks, sampling the reference kernel between them
/// so each block is bracketed by a rate sample on either side.
pub struct Meter {
    kernel: RefKernel,
    last_rate: f64,
    samples: Vec<f64>,
}

impl Meter {
    /// Builds the kernel's table, warms it and takes the first sample.
    pub fn new() -> Self {
        let mut kernel = RefKernel::new();
        kernel.rate();
        let last_rate = kernel.rate();
        Meter {
            kernel,
            last_rate,
            samples: vec![last_rate],
        }
    }

    /// Runs `f` as one block of `cycles` simulated cycles.
    pub fn time<T>(&mut self, cycles: u64, f: impl FnOnce() -> T) -> (T, Block) {
        let before = self.last_rate;
        let start = Instant::now();
        let value = f();
        let raw_s = start.elapsed().as_secs_f64();
        self.last_rate = self.kernel.rate();
        self.samples.push(self.last_rate);
        let block = Block {
            cycles,
            raw_s,
            rate: 0.5 * (before + self.last_rate),
        };
        (value, block)
    }

    /// Every kernel rate sampled so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Totals over a list of blocks.
pub fn norm_total(blocks: &[Block]) -> f64 {
    blocks.iter().map(Block::norm_s).sum()
}

/// Wall-clock total over a list of blocks.
pub fn raw_total(blocks: &[Block]) -> f64 {
    blocks.iter().map(|b| b.raw_s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_percentile() {
        // Under 20 samples not even the median has ten beyond it.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        // 100 samples: p90 is rank 90 with exactly ten beyond; p95 has 5.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        // 1000 samples reach p99 (ten beyond) but not p99.9 (one beyond).
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
    }
}
