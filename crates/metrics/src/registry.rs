//! The metrics registry: named counters, gauges, time-weighted signals and
//! periodically sampled series, plus the zero-cost [`Recorder`] indirection
//! that lets instrumented code compile down to nothing when metrics are off.

use crate::json::Json;
use crate::manifest::{RunManifest, SCHEMA_VERSION};
use crate::window::{WindowKind, WindowSeries};
use noc_engine::stats::TimeWeighted;
use noc_engine::Cycle;
use std::collections::BTreeMap;

/// A periodically sampled signal. The cycle axis is implicit: sample `i`
/// was taken at cycle `start + i * period`, which keeps exports compact.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Sampling period in cycles.
    pub period: u64,
    /// Cycle of the first sample.
    pub start: u64,
    /// One value per sample, in time order.
    pub values: Vec<f64>,
}

/// A registry of named metrics.
///
/// Keys are dotted paths (`router.12.reservation_hits`,
/// `net.queued_flits`); `BTreeMap` storage makes every export
/// deterministically ordered. Four kinds are kept:
///
/// * **counters** — monotonically accumulated `u64` event counts;
/// * **gauges** — `f64` point-in-time or derived values;
/// * **time-weighted** — [`TimeWeighted`] signals whose average weights each
///   value by how long it was held;
/// * **series** — periodic samples for time-axis plots;
/// * **windows** — epoch-bucketed [`WindowSeries`] over power-of-two cycle
///   windows (the time-resolved telemetry layer).
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    time_weighted: BTreeMap<String, TimeWeighted>,
    series: BTreeMap<String, Series>,
    windows: BTreeMap<String, WindowSeries>,
    /// Latest cycle seen by any update; time-weighted averages are closed
    /// out at this watermark when exporting.
    watermark: Cycle,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.time_weighted.is_empty()
            && self.series.is_empty()
            && self.windows.is_empty()
    }

    /// Adds `delta` to a counter, creating it at zero first if needed.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.entry_counter(name) += delta;
    }

    /// Sets a counter to an absolute value (for copying out cumulative
    /// totals kept elsewhere).
    pub fn counter_set(&mut self, name: &str, value: u64) {
        *self.entry_counter(name) = value;
    }

    fn entry_counter(&mut self, name: &str) -> &mut u64 {
        if !self.counters.contains_key(name) {
            self.counters.insert(name.to_string(), 0);
        }
        self.counters.get_mut(name).expect("just inserted")
    }

    /// Reads a counter; missing counters read as zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Updates a time-weighted signal at `now`, creating it (starting at
    /// `now` with `value`) on first use.
    pub fn time_weighted_set(&mut self, name: &str, now: Cycle, value: f64) {
        self.watermark = self.watermark.max(now);
        match self.time_weighted.get_mut(name) {
            Some(tw) => tw.set(now, value),
            None => {
                self.time_weighted
                    .insert(name.to_string(), TimeWeighted::new(now, value));
            }
        }
    }

    /// Reads a time-weighted signal.
    pub fn time_weighted(&self, name: &str) -> Option<&TimeWeighted> {
        self.time_weighted.get(name)
    }

    /// Appends one sample to a series, creating it with the given `period`
    /// and `start` cycle on first use.
    pub fn series_push(&mut self, name: &str, period: u64, cycle: Cycle, value: f64) {
        self.watermark = self.watermark.max(cycle);
        match self.series.get_mut(name) {
            Some(s) => s.values.push(value),
            None => {
                self.series.insert(
                    name.to_string(),
                    Series {
                        period,
                        start: cycle.raw(),
                        values: vec![value],
                    },
                );
            }
        }
    }

    /// Reads a series.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Adds `delta` into the Sum window covering `cycle`, creating the
    /// series on first use. Windows span `1 << log2` cycles; recording
    /// must move forward in time (window indices nondecreasing).
    ///
    /// # Panics
    ///
    /// Panics if an existing series under `name` has a different `log2`
    /// or is a Gauge window.
    pub fn window_add(&mut self, name: &str, log2: u32, cycle: Cycle, delta: f64) {
        self.watermark = self.watermark.max(cycle);
        let w = cycle.raw() >> log2;
        self.window_entry(name, log2, w, WindowKind::Sum)
            .add(w, delta);
    }

    /// Sets the value of absolute window index `window` in a Gauge window
    /// series, creating the series on first use.
    ///
    /// # Panics
    ///
    /// Panics if an existing series under `name` has a different `log2`
    /// or is a Sum window.
    pub fn window_set(&mut self, name: &str, log2: u32, window: u64, value: f64) {
        self.watermark = self.watermark.max(Cycle::new(window << log2));
        self.window_entry(name, log2, window, WindowKind::Gauge)
            .set(window, value);
    }

    fn window_entry(
        &mut self,
        name: &str,
        log2: u32,
        w: u64,
        kind: WindowKind,
    ) -> &mut WindowSeries {
        if !self.windows.contains_key(name) {
            self.windows
                .insert(name.to_string(), WindowSeries::new(log2, w, kind));
        }
        let s = self.windows.get_mut(name).expect("just inserted");
        assert_eq!(s.log2, log2, "window {name}: log2 mismatch");
        assert_eq!(s.kind, kind, "window {name}: kind mismatch");
        s
    }

    /// Reads a window series.
    pub fn window(&self, name: &str) -> Option<&WindowSeries> {
        self.windows.get(name)
    }

    /// Iterates window series in sorted key order.
    pub fn windows(&self) -> impl Iterator<Item = (&str, &WindowSeries)> {
        self.windows.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sum of a window series' values; 0 when absent. For Sum windows this
    /// equals the aggregate counter of the same name.
    pub fn window_total(&self, name: &str) -> f64 {
        self.windows.get(name).map_or(0.0, WindowSeries::total)
    }

    /// Iterates counters in sorted key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates gauges in sorted key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Exports the registry plus `manifest` as a schema-versioned JSON
    /// document.
    ///
    /// Counters and gauges whose keys start with `profile.` are wall-clock
    /// self-profiling data and land in a separate top-level `profile`
    /// object so that [`crate::json::strip_nondeterministic`] can drop them
    /// before determinism comparisons. Time-weighted signals export their
    /// held value and their average up to the registry's watermark cycle.
    pub fn to_json(&self, manifest: &RunManifest) -> Json {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut profile = Vec::new();
        for (k, v) in &self.counters {
            let entry = (k.clone(), Json::Num(*v as f64));
            if k.starts_with("profile.") {
                profile.push(entry);
            } else {
                counters.push(entry);
            }
        }
        for (k, v) in &self.gauges {
            let entry = (k.clone(), Json::Num(*v));
            if k.starts_with("profile.") {
                profile.push(entry);
            } else {
                gauges.push(entry);
            }
        }
        let time_weighted = self
            .time_weighted
            .iter()
            .map(|(k, tw)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("current".into(), Json::Num(tw.current())),
                        ("average".into(), Json::Num(tw.average(self.watermark))),
                    ]),
                )
            })
            .collect();
        let series = self
            .series
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("period".into(), Json::Num(s.period as f64)),
                        ("start".into(), Json::Num(s.start as f64)),
                        (
                            "values".into(),
                            Json::Arr(s.values.iter().map(|&v| Json::Num(v)).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        let windows = self
            .windows
            .iter()
            .map(|(k, w)| (k.clone(), w.to_json()))
            .collect();
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
            ("manifest".into(), manifest.to_json()),
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("time_weighted".into(), Json::Obj(time_weighted)),
            ("series".into(), Json::Obj(series)),
            ("windows".into(), Json::Obj(windows)),
            ("profile".into(), Json::Obj(profile)),
        ])
    }
}

/// The zero-cost metrics indirection, mirroring `noc_engine::trace::TraceSink`.
///
/// Instrumented code calls [`Recorder::record`] with a closure that updates
/// the registry. For [`NullRecorder`] the associated `ENABLED` constant is
/// `false`, so the closure — including any `format!` key construction inside
/// it — is never built and the whole call folds away at compile time.
pub trait Recorder {
    /// Whether this recorder keeps anything. When `false`, `record` is a
    /// no-op and callers may skip building inputs entirely.
    const ENABLED: bool = true;

    /// Gives the closure access to the underlying registry.
    fn with(&mut self, f: impl FnOnce(&mut MetricsRegistry));

    /// Records via `f` only when enabled; inlined so the disabled path
    /// vanishes.
    #[inline(always)]
    fn record(&mut self, f: impl FnOnce(&mut MetricsRegistry)) {
        if Self::ENABLED {
            self.with(f);
        }
    }
}

/// A recorder that drops everything; the default for every network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn with(&mut self, _f: impl FnOnce(&mut MetricsRegistry)) {}
}

impl Recorder for MetricsRegistry {
    #[inline(always)]
    fn with(&mut self, f: impl FnOnce(&mut MetricsRegistry)) {
        f(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_never_runs_the_closure() {
        const { assert!(!NullRecorder::ENABLED) };
        let mut null = NullRecorder;
        null.record(|_| unreachable!("NullRecorder must not invoke the closure"));
    }

    #[test]
    fn registry_recorder_runs_the_closure() {
        let mut reg = MetricsRegistry::new();
        reg.record(|r| r.counter_add("hits", 3));
        reg.record(|r| r.counter_add("hits", 2));
        assert_eq!(reg.counter("hits"), 5);
        assert_eq!(reg.counter("absent"), 0);
    }

    #[test]
    fn window_add_buckets_by_shift_and_zero_fills() {
        let mut reg = MetricsRegistry::new();
        reg.window_add("inj", 6, Cycle::new(10), 2.0);
        reg.window_add("inj", 6, Cycle::new(63), 1.0);
        reg.window_add("inj", 6, Cycle::new(200), 5.0);
        let w = reg.window("inj").unwrap();
        assert_eq!(w.start, 0);
        assert_eq!(w.values, vec![3.0, 0.0, 0.0, 5.0]);
        assert_eq!(reg.window_total("inj"), 8.0);
        assert_eq!(reg.window_total("absent"), 0.0);
    }

    #[test]
    fn export_includes_windows_section() {
        let mut reg = MetricsRegistry::new();
        reg.window_add("net.offered_flits", 7, Cycle::new(130), 4.0);
        let doc = reg.to_json(&RunManifest::new("t", 1, "tiny", "cfg"));
        let w = doc
            .get("windows")
            .unwrap()
            .get("net.offered_flits")
            .unwrap();
        assert_eq!(w.get("kind").and_then(Json::as_str), Some("sum"));
        assert_eq!(w.get("log2").and_then(Json::as_u64), Some(7));
        assert_eq!(w.get("start").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn export_separates_profile_keys() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("net.cycles", 100);
        reg.gauge_set("profile.step_ms", 12.5);
        reg.time_weighted_set("occ", Cycle::new(0), 1.0);
        reg.time_weighted_set("occ", Cycle::new(10), 3.0);
        let doc = reg.to_json(&RunManifest::new("t", 1, "tiny", "cfg"));
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("net.cycles"))
                .and_then(Json::as_u64),
            Some(100)
        );
        assert!(doc.get("gauges").unwrap().get("profile.step_ms").is_none());
        assert_eq!(
            doc.get("profile")
                .and_then(|p| p.get("profile.step_ms"))
                .and_then(Json::as_f64),
            Some(12.5)
        );
        let occ = doc.get("time_weighted").unwrap().get("occ").unwrap();
        assert_eq!(occ.get("average").and_then(Json::as_f64), Some(1.0));
        assert_eq!(occ.get("current").and_then(Json::as_f64), Some(3.0));
    }
}
