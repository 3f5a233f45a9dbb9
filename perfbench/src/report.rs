//! Turning blocks into reported figures, and the metric catalogue that
//! `BENCHMARK.json` mirrors.

use crate::stats::{median, norm_total, raw_total, tail, Block};

/// Σ cycles / Σ reference-host seconds over `blocks`.
pub fn aggregate_rate(blocks: &[Block]) -> f64 {
    let cycles: u64 = blocks.iter().map(|b| b.cycles).sum();
    cycles as f64 / norm_total(blocks)
}

/// Throughput of one family's timed blocks.
#[derive(Clone, Debug)]
pub struct Throughput {
    /// Simulated cycles in the blocks.
    pub cycles: u64,
    /// Blocks timed.
    pub blocks: usize,
    /// Σ cycles / Σ reference-host seconds: the gated figure.
    pub rate: f64,
    /// Σ cycles / Σ wall-clock seconds: context, not gated.
    pub raw_rate: f64,
    /// Median of the per-block rates.
    pub median_block_rate: f64,
    /// Highest percentile of per-block time per cycle with at least ten
    /// blocks beyond it, expressed as a rate: `(percentile, rate)`.
    pub tail: Option<(f64, f64)>,
}

/// Summarises one family's blocks.
pub fn throughput(blocks: &[Block]) -> Throughput {
    let rates: Vec<f64> = blocks
        .iter()
        .map(|b| b.cycles as f64 / b.norm_s())
        .collect();
    let secs_per_cycle: Vec<f64> = blocks
        .iter()
        .map(|b| b.norm_s() / b.cycles as f64)
        .collect();
    let cycles: u64 = blocks.iter().map(|b| b.cycles).sum();
    Throughput {
        cycles,
        blocks: blocks.len(),
        rate: aggregate_rate(blocks),
        raw_rate: cycles as f64 / raw_total(blocks),
        median_block_rate: median(&rates),
        tail: tail(&secs_per_cycle).map(|(p, s)| (p, 1.0 / s)),
    }
}

/// One metric's declaration, as `BENCHMARK.json` lists it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDecl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

fn decl(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics every untraced run reports.
pub fn end_to_end() -> Vec<MetricDecl> {
    let bounded = |name: &str, unit, better, bound| MetricDecl {
        bound: Some(bound),
        ..decl(name, unit, better)
    };
    vec![
        bounded("setup_s", "s", "lower", 0.25),
        bounded("host_s", "s", "lower", 0.25),
        bounded("vc8.cycles_per_s", "1/s", "higher", 0.25),
        bounded("fr6.cycles_per_s", "1/s", "higher", 0.25),
        bounded("peak_rss_mb", "MB", "lower", 0.25),
    ]
}

/// The per-layer metrics every traced run reports.
pub fn per_layer() -> Vec<MetricDecl> {
    let mut out = Vec::new();
    for layer in ["vc", "flit-reservation"] {
        for call in ["step", "receive"] {
            out.push(decl(format!("{layer}.{call}_ns_per_call"), "ns", "lower"));
            out.push(decl(
                format!("{layer}.{call}_calls_per_cycle"),
                "calls/cycle",
                "lower",
            ));
        }
        out.push(decl(
            format!("{layer}.inject_accept_ratio"),
            "ratio",
            "higher",
        ));
        out.push(decl(format!("{layer}.busy_frac"), "frac", "higher"));
    }
    for c in ["credit_stalls", "vc_alloc_conflicts", "switch_arb_retries"] {
        out.push(decl(format!("vc.{c}_per_flit"), "count/flit", "lower"));
    }
    out.push(decl(
        "flit-reservation.reservation_hit_ratio",
        "ratio",
        "higher",
    ));
    out.push(decl(
        "flit-reservation.zero_turnaround_frac",
        "frac",
        "higher",
    ));
    out.push(decl(
        "flit-reservation.parked_arrival_frac",
        "frac",
        "lower",
    ));
    out.push(decl(
        "flit-reservation.switch_arb_retries_per_flit",
        "count/flit",
        "lower",
    ));
    out.push(decl(
        "flit-reservation.output_table.ns_per_op",
        "ns",
        "lower",
    ));
    out.push(decl(
        "flit-reservation.output_table.full_scan_ns",
        "ns",
        "lower",
    ));
    out.push(decl(
        "flit-reservation.input_table.ns_per_op",
        "ns",
        "lower",
    ));
    out.push(decl("flow.buffer_pool.ns_per_op", "ns", "lower"));
    out.push(decl("flow.link.ns_per_op", "ns", "lower"));
    for f in ["vc8", "fr6"] {
        out.push(decl(
            format!("network.{f}.self_ns_per_cycle"),
            "ns/cycle",
            "lower",
        ));
        for phase in noc_network::profile::PROFILE_PHASES {
            out.push(decl(
                format!("network.{f}.{phase}_ns_per_cycle"),
                "ns/cycle",
                "lower",
            ));
        }
        out.push(decl(format!("network.{f}.skip_ratio"), "ratio", "higher"));
        out.push(decl(format!("network.{f}.ns_per_flit"), "ns/flit", "lower"));
        out.push(decl(
            format!("network.{f}.warmup_cycles"),
            "cycles",
            "lower",
        ));
        out.push(decl(format!("network.{f}.drain_cycles"), "cycles", "lower"));
        for tail in TAILS {
            out.push(decl(
                format!("network.{f}.tail.{}_ns_per_cycle", tail.1),
                "ns/cycle",
                "lower",
            ));
        }
        out.push(decl(
            format!("network.{f}.lock_ns_per_cycle"),
            "ns/cycle",
            "lower",
        ));
    }
    for f in ["vc8", "fr6"] {
        out.push(decl(
            format!("engine.{f}.barrier_wait_frac"),
            "frac",
            "lower",
        ));
        out.push(decl(
            format!("engine.{f}.worker_idle_frac"),
            "frac",
            "lower",
        ));
        out.push(decl(format!("engine.{f}.shard_speedup"), "x", "higher"));
    }
    out.push(decl("engine.rng.ns_per_op", "ns", "lower"));
    out.push(decl("traffic.generator.ns_per_cycle", "ns/cycle", "lower"));
    for f in ["vc8", "fr6"] {
        out.push(decl(format!("metrics.{f}.flush_ns"), "ns", "lower"));
        out.push(decl(format!("metrics.{f}.export_bytes"), "B", "lower"));
        out.push(decl(
            format!("faults.{f}.retransmits_per_packet"),
            "count/packet",
            "lower",
        ));
        out.push(decl(
            format!("faults.{f}.crc_discards_per_packet"),
            "count/packet",
            "lower",
        ));
    }
    out.push(decl("bench.trace_overhead_frac", "frac", "lower"));
    out
}

/// Sequential tails reported per cycle: `(index into
/// noc_network::profile::PROFILE_TAILS, name)`.
pub const TAILS: [(usize, &str); 4] = [
    (0, "traffic_gen"),
    (2, "eject_commit"),
    (3, "outbox_publish"),
    (4, "ctx_build"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use noc_metrics::Json;

    type Row = (String, String, String, Option<f64>);

    fn listed(doc: &Json, key: &str) -> Vec<Row> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn rows(decls: Vec<MetricDecl>) -> Vec<Row> {
        decls
            .into_iter()
            .map(|m| (m.name, m.unit.to_string(), m.better.to_string(), m.bound))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("valid JSON");
        assert_eq!(listed(&doc, "end_to_end"), rows(end_to_end()));
        assert_eq!(listed(&doc, "per_layer"), rows(per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
