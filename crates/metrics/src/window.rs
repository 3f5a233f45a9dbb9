//! Windowed time-series: epoch-bucketed metrics over power-of-two cycle
//! windows.
//!
//! Aggregate counters answer "how many over the whole run"; windows answer
//! "when". A [`WindowSeries`] buckets the cycle axis into epochs of
//! `1 << log2` cycles, so bucketing is a shift (no division on the hot
//! path) and window boundaries line up across every signal recorded with
//! the same `log2`. Two kinds exist:
//!
//! * **Sum** windows accumulate event counts (flits injected, flits
//!   ejected, credit stalls). Summing the values of a Sum window
//!   reproduces the matching aggregate counter exactly — the consistency
//!   contract `telemetry_report --quick` enforces.
//! * **Gauge** windows hold one sampled or derived value per window
//!   (latency quantiles, mean buffer occupancy). They have no aggregate
//!   identity.
//!
//! Windows ride the existing [`crate::Recorder`] indirection, so with the
//! `NullRecorder` every recording site still compiles away to nothing.

use crate::json::Json;

/// How values in a [`WindowSeries`] combine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowKind {
    /// Per-window event counts, summable back into the aggregate counter
    /// of the same name.
    Sum,
    /// One sampled/derived value per window; not additive.
    Gauge,
}

impl WindowKind {
    /// Stable label used in JSON exports.
    pub fn label(self) -> &'static str {
        match self {
            WindowKind::Sum => "sum",
            WindowKind::Gauge => "gauge",
        }
    }
}

/// An epoch-bucketed time series. Window `w` covers cycles
/// `[w << log2, (w + 1) << log2)`; `values[i]` belongs to window
/// `start + i`. Gaps between recordings are zero-filled so the time axis
/// stays dense and exports stay self-describing.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSeries {
    /// Window length exponent: each window spans `1 << log2` cycles.
    pub log2: u32,
    /// Absolute index of the first recorded window.
    pub start: u64,
    /// Whether values add (Sum) or stand alone (Gauge).
    pub kind: WindowKind,
    /// One value per window, dense from `start`.
    pub values: Vec<f64>,
}

impl WindowSeries {
    /// Creates an empty series anchored at window `start`.
    pub fn new(log2: u32, start: u64, kind: WindowKind) -> Self {
        WindowSeries {
            log2,
            start,
            kind,
            values: Vec::new(),
        }
    }

    /// The window length in cycles.
    pub fn window_cycles(&self) -> u64 {
        1u64 << self.log2
    }

    /// Mutable slot for absolute window `w`, zero-filling any gap.
    /// Windows are recorded in nondecreasing order; `w` may not precede
    /// `start`.
    fn slot(&mut self, w: u64) -> &mut f64 {
        assert!(
            w >= self.start,
            "window {w} precedes series start {}",
            self.start
        );
        let idx = (w - self.start) as usize;
        if idx >= self.values.len() {
            self.values.resize(idx + 1, 0.0);
        }
        &mut self.values[idx]
    }

    /// Adds `delta` into absolute window `w` (Sum semantics).
    pub fn add(&mut self, w: u64, delta: f64) {
        *self.slot(w) += delta;
    }

    /// Sets the value of absolute window `w` (Gauge semantics).
    pub fn set(&mut self, w: u64, value: f64) {
        *self.slot(w) = value;
    }

    /// Sum of all recorded values. For Sum windows this equals the
    /// aggregate counter of the same name.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Renders the series as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::str(self.kind.label())),
            ("log2".into(), Json::Num(self.log2 as f64)),
            ("start".into(), Json::Num(self.start as f64)),
            (
                "values".into(),
                Json::Arr(self.values.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_windows_zero_fill_gaps() {
        let mut w = WindowSeries::new(6, 2, WindowKind::Sum);
        w.add(2, 3.0);
        w.add(5, 1.0);
        assert_eq!(w.values, vec![3.0, 0.0, 0.0, 1.0]);
        assert_eq!(w.total(), 4.0);
        assert_eq!(w.window_cycles(), 64);
    }

    #[test]
    #[should_panic(expected = "precedes series start")]
    fn windows_reject_out_of_order_recording() {
        let mut w = WindowSeries::new(4, 8, WindowKind::Sum);
        w.add(7, 1.0);
    }

    #[test]
    fn gauge_windows_overwrite() {
        let mut w = WindowSeries::new(8, 0, WindowKind::Gauge);
        w.set(0, 1.5);
        w.set(0, 2.5);
        w.set(2, 9.0);
        assert_eq!(w.values, vec![2.5, 0.0, 9.0]);
    }

    #[test]
    fn json_shape_is_self_describing() {
        let mut w = WindowSeries::new(7, 1, WindowKind::Sum);
        w.add(1, 4.0);
        let doc = w.to_json();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("sum"));
        assert_eq!(doc.get("log2").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("start").and_then(Json::as_u64), Some(1));
    }
}
