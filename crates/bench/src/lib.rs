//! # noc-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper. Each `[[bin]]` target prints the same rows/series the paper
//! reports; `cargo run -p noc-bench --release --bin fig5` etc.
//!
//! All simulation harnesses honour three environment variables:
//!
//! * `FRFC_SCALE` — `tiny` (seconds, CI), `quick` (default, ~minutes) or
//!   `paper` (the paper's 10k-cycle warm-up / 100k-packet samples; hours
//!   on one core);
//! * `FRFC_SEED` — root seed (default 2000, the publication year);
//! * `FRFC_THREADS` — sweep worker threads (see [`sweep_threads`]).
//!
//! The bins that trace latency provenance also read `FRFC_PROV_SAMPLE`
//! (see [`prov_sample_from_env`]).
//!
//! A bad value makes the bin print one line naming the variable and
//! exit with status 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use noc_network::{Curve, SimConfig};

/// Measurement scale selected by `FRFC_SCALE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Hundreds of packets; shapes only. Seconds per figure.
    Tiny,
    /// Thousands of packets; good curves. Default.
    Quick,
    /// The paper's methodology (10k-cycle warm-up, 100k packets).
    Paper,
}

impl Scale {
    /// Parses a `FRFC_SCALE` value; unset means `quick`.
    fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            Some("tiny") => Ok(Scale::Tiny),
            Some("paper") => Ok(Scale::Paper),
            Some("quick") | None => Ok(Scale::Quick),
            Some(other) => Err(format!(
                "FRFC_SCALE must be tiny|quick|paper, got {other:?}"
            )),
        }
    }

    /// Reads `FRFC_SCALE` (default `quick`), exiting with status 2 on a
    /// bad value.
    pub fn from_env() -> Scale {
        env_or_exit("FRFC_SCALE", Scale::parse)
    }

    /// The scale's name as spelled in `FRFC_SCALE` and run manifests.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    /// The corresponding measurement configuration.
    pub fn sim(self, seed: u64) -> SimConfig {
        match self {
            Scale::Tiny => SimConfig::tiny(seed),
            Scale::Quick => SimConfig::quick(seed),
            Scale::Paper => SimConfig::paper_scale(seed),
        }
    }
}

/// Reads environment variable `name` and parses it with `parse` (which
/// gets `None` when the variable is unset). On a bad value, prints the
/// parser's one-line message and exits with status 2, the status the
/// bins give a bad flag.
fn env_or_exit<T>(name: &str, parse: impl FnOnce(Option<&str>) -> Result<T, String>) -> T {
    let parsed = match std::env::var(name) {
        Ok(value) => parse(Some(&value)),
        Err(std::env::VarError::NotPresent) => parse(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("{name} is not valid UTF-8")),
    };
    parsed.unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

/// Parses a `FRFC_SEED` value; unset means 2000.
fn parse_seed(value: Option<&str>) -> Result<u64, String> {
    match value {
        None => Ok(2000),
        Some(v) => v
            .parse()
            .map_err(|_| format!("FRFC_SEED must be an unsigned integer, got {v:?}")),
    }
}

/// Reads the root seed from `FRFC_SEED` (default 2000), exiting with
/// status 2 on a bad value.
pub fn seed_from_env() -> u64 {
    env_or_exit("FRFC_SEED", parse_seed)
}

/// Parses a `FRFC_THREADS` value: a thread count, clamped to at least
/// 1; `None` when unset.
fn parse_threads(value: Option<&str>) -> Result<Option<usize>, String> {
    value
        .map(|v| {
            v.parse::<usize>()
                .map(|n| n.max(1))
                .map_err(|_| format!("FRFC_THREADS must be a thread count, got {v:?}"))
        })
        .transpose()
}

/// Worker threads the experiment bins fan their load sweeps across:
/// `FRFC_THREADS` when set (clamped to at least 1), otherwise the
/// machine's available parallelism capped at 4. Every sweep point is an
/// isolated simulation with its own forked seed, so results are
/// independent of this count; bins record the value actually used in
/// their `RunManifest` so wall-clock comparisons stay attributable.
/// Exits with status 2 on a bad value.
pub fn sweep_threads() -> usize {
    env_or_exit("FRFC_THREADS", parse_threads).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(1)
    })
}

/// Parses a `FRFC_PROV_SAMPLE` value: a packet sampling divisor of at
/// least 1; unset means 4.
fn parse_prov_sample(value: Option<&str>) -> Result<u64, String> {
    match value {
        None => Ok(4),
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("FRFC_PROV_SAMPLE must be a positive integer, got {v:?}")),
    }
}

/// Reads the provenance packet-sampling divisor from `FRFC_PROV_SAMPLE`
/// (default 4; 1 traces every packet), exiting with status 2 on a bad
/// value.
pub fn prov_sample_from_env() -> u64 {
    env_or_exit("FRFC_PROV_SAMPLE", parse_prov_sample)
}

/// Default offered-load sweep (fractions of capacity) used by the
/// latency-throughput figures.
pub fn default_loads() -> Vec<f64> {
    vec![
        0.1, 0.2, 0.3, 0.4, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9,
    ]
}

/// Formats an optional cycle quantile as a fixed-width cell.
fn quantile_cell(q: Option<u64>) -> String {
    q.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// Prints one curve in the fixed-width format shared by all figures,
/// including the tail-latency percentiles of the sample.
pub fn print_curve(curve: &Curve) {
    println!("\n{}", curve.label);
    println!(
        "{:>10} {:>12} {:>10} {:>6} {:>6} {:>6} {:>10} {:>10}",
        "offered", "latency", "ci95", "p50", "p95", "p99", "accepted", "status"
    );
    for p in &curve.points {
        let status = if p.result.completed {
            "ok"
        } else {
            "saturated"
        };
        let lat = if p.result.completed {
            format!("{:.1}", p.result.mean_latency())
        } else {
            "-".to_string()
        };
        println!(
            "{:>9.0}% {:>12} {:>10.2} {:>6} {:>6} {:>6} {:>9.1}% {:>10}",
            p.offered * 100.0,
            lat,
            p.result.latency.ci95_half_width(),
            quantile_cell(p.result.p50_latency),
            quantile_cell(p.result.p95_latency),
            quantile_cell(p.result.p99_latency),
            p.result.accepted_fraction * 100.0,
            status
        );
    }
}

/// Prints a one-line per-curve summary: base latency, saturation
/// throughput under a `3 × base` latency knee criterion, and the tail
/// latencies (p50/p95/p99) at the highest completed load.
pub fn print_summary(curves: &[Curve]) {
    println!(
        "\n{:>8} {:>14} {:>22} {:>20}",
        "config", "base latency", "saturation throughput", "tail p50/p95/p99"
    );
    for c in curves {
        let base = c.base_latency();
        let sat = c.saturation_throughput(base * 3.0);
        let tail = c
            .points
            .iter()
            .filter(|p| p.result.completed)
            .max_by(|a, b| a.offered.total_cmp(&b.offered))
            .map_or_else(
                || "-".to_string(),
                |p| {
                    format!(
                        "{}/{}/{}",
                        quantile_cell(p.result.p50_latency),
                        quantile_cell(p.result.p95_latency),
                        quantile_cell(p.result.p99_latency)
                    )
                },
            );
        println!(
            "{:>8} {:>13.1}c {:>21.0}% {:>20}",
            c.label,
            base,
            sat * 100.0,
            tail
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_sims_are_ordered() {
        let tiny = Scale::Tiny.sim(1);
        let quick = Scale::Quick.sim(1);
        let paper = Scale::Paper.sim(1);
        assert!(tiny.sample_packets < quick.sample_packets);
        assert!(quick.sample_packets < paper.sample_packets);
        assert_eq!(paper.sample_packets, 100_000);
        assert_eq!(paper.warmup.min_cycles, 10_000);
    }

    #[test]
    fn environment_values_parse_or_name_their_variable() {
        assert_eq!(Scale::parse(None), Ok(Scale::Quick));
        for scale in [Scale::Tiny, Scale::Quick, Scale::Paper] {
            assert_eq!(Scale::parse(Some(scale.name())), Ok(scale));
        }
        assert_eq!(parse_seed(None), Ok(2000));
        assert_eq!(parse_seed(Some("7301")), Ok(7301));
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("4")), Ok(Some(4)));
        assert_eq!(parse_threads(Some("0")), Ok(Some(1)), "clamped to one");
        assert_eq!(parse_prov_sample(None), Ok(4));
        assert_eq!(parse_prov_sample(Some("1")), Ok(1));
        assert_eq!(parse_prov_sample(Some("16")), Ok(16));
        let bad = [
            Scale::parse(Some("huge")).map(|_| ()),
            Scale::parse(Some("")).map(|_| ()),
            parse_seed(Some("x")).map(|_| ()),
            parse_seed(Some("-1")).map(|_| ()),
            parse_seed(Some("")).map(|_| ()),
            parse_threads(Some("x")).map(|_| ()),
            parse_threads(Some("-2")).map(|_| ()),
            parse_threads(Some("1.5")).map(|_| ()),
            parse_prov_sample(Some("x")).map(|_| ()),
            parse_prov_sample(Some("0")).map(|_| ()),
            parse_prov_sample(Some("-4")).map(|_| ()),
            parse_prov_sample(Some("")).map(|_| ()),
        ];
        let names = [
            "FRFC_SCALE",
            "FRFC_SCALE",
            "FRFC_SEED",
            "FRFC_SEED",
            "FRFC_SEED",
        ]
        .into_iter()
        .chain(["FRFC_THREADS"; 3])
        .chain(["FRFC_PROV_SAMPLE"; 4]);
        for (result, name) in bad.into_iter().zip(names) {
            let message = result.expect_err(name);
            assert!(message.starts_with(name), "{message}");
            assert!(!message.contains('\n'), "one line: {message}");
        }
    }

    #[test]
    fn default_loads_cover_both_saturation_points() {
        let loads = default_loads();
        assert!(loads.iter().any(|&l| (l - 0.6).abs() < 0.06));
        assert!(loads.iter().any(|&l| l > 0.8));
        assert!(loads.windows(2).all(|w| w[0] < w[1]));
    }
}
