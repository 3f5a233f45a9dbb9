//! # noc-metrics
//!
//! A zero-cost-when-off metrics layer for the flit-reservation simulator.
//!
//! The design mirrors `noc_engine::trace`: instrumented code talks to a
//! [`Recorder`] with a `const ENABLED` flag, and the default
//! [`NullRecorder`] compiles every recording site away — closures passed to
//! [`Recorder::record`] are never even constructed. Turning metrics on means
//! plugging a [`MetricsRegistry`] (which records into itself) into the
//! network in place of the null recorder; nothing else changes, and the
//! trace-equality and determinism suites stay bit-identical with metrics
//! off.
//!
//! What the registry holds:
//!
//! * **counters** — event counts (reservation-table hits, credit stalls,
//!   per-link flits);
//! * **gauges** — derived values (utilizations, occupancy averages);
//! * **time-weighted** — signals averaged over how long each value was held
//!   ([`noc_engine::stats::TimeWeighted`]);
//! * **series** — periodic samples for time-axis plots.
//!
//! Exports are serde-free JSON ([`Json`]) with a [`SCHEMA_VERSION`] and a
//! [`RunManifest`] (seed, scale, config, git revision, toolchain, wall
//! time), so every experiment can write a machine-readable sidecar next to
//! its text output. Wall-clock self-profiling data lives in a separate
//! `profile` section that [`strip_nondeterministic`] removes, making
//! same-seed exports byte-identical.
//!
//! # Example
//!
//! ```
//! use noc_engine::Cycle;
//! use noc_metrics::{MetricsRegistry, NullRecorder, Recorder, RunManifest};
//!
//! fn hot_loop<M: Recorder>(metrics: &mut M) {
//!     for cycle in 0..100u64 {
//!         // With NullRecorder this whole call folds away.
//!         metrics.record(|reg| {
//!             reg.counter_add("net.cycles", 1);
//!             reg.time_weighted_set("net.queued", Cycle::new(cycle), 2.0);
//!         });
//!     }
//! }
//!
//! hot_loop(&mut NullRecorder);
//! let mut reg = MetricsRegistry::new();
//! hot_loop(&mut reg);
//! assert_eq!(reg.counter("net.cycles"), 100);
//! let doc = reg.to_json(&RunManifest::new("demo", 2000, "tiny", "FR6"));
//! assert!(doc.render().contains("schema_version"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod manifest;
pub mod registry;
pub mod snapshot;
pub mod stream;
pub mod window;

pub use json::{strip_nondeterministic, Json, JsonError};
pub use manifest::{host_cpu_count, RunManifest, SCHEMA_VERSION};
pub use registry::{MetricsRegistry, NullRecorder, Recorder, Series};
pub use snapshot::{json_diff, state_digest, Digest, JsonDiff};
pub use stream::JsonWriter;
pub use window::{WindowKind, WindowSeries};

/// Writes a JSON document, a [`Json`] tree or its rendered text, to
/// `path` with a trailing newline, creating parent directories as
/// needed. A tree is rendered straight into a buffered file writer,
/// never whole into memory.
pub fn write_json_file(
    path: &std::path::Path,
    doc: &impl std::fmt::Display,
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(file, "{doc}")?;
    file.flush()
}
