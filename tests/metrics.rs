//! Integration tests for the metrics layer's two core contracts:
//!
//! 1. **Zero perturbation** — running metered must not change the
//!    simulation in any way: a metered run's `RunResult` is identical to
//!    the plain run's at the same seed.
//! 2. **Determinism** — two same-seed metered runs export byte-identical
//!    JSON once the wall-clock (`profile` / `wall_ms`) data is stripped.
//!
//! Plus sanity of the flit-reservation instrumentation: an FR run under
//! load must record reservation-table hits and zero-turnaround
//! departures — the paper's signature behaviours — and a check that the
//! tracked `results/` sidecars carry the manifest a fresh run writes.

mod common;

use common::{families, metered};
use noc_metrics::{strip_nondeterministic, Json, RunManifest};
use noc_network::{FlowControl, SimConfig};
use noc_topology::Mesh;

/// The export's run context matches the run: `run.offered_fraction` is
/// the offered load, and mean data-link utilization stays below twice
/// the offered load plus slack for warm-up and drain traffic.
fn assert_export_matches_offered_load(label: &str, doc: &Json, offered: f64) {
    let gauge = |key: &str| {
        doc.get("gauges")
            .and_then(|g| g.get(key))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{label}: export lacks gauge {key}"))
    };
    let run_offered = gauge("run.offered_fraction");
    assert!(
        (run_offered - offered).abs() < 1e-9,
        "{label}: run.offered_fraction {run_offered} != {offered}"
    );
    let util = gauge("net.mean_data_link_utilization");
    assert!(
        util < offered * 2.0 + 0.05,
        "{label}: data-link utilization {util} inconsistent with offered load {offered}"
    );
}

fn tiny_sim(seed: u64) -> SimConfig {
    let mut sim = SimConfig::quick(seed);
    sim.sample_packets = 300;
    sim.warmup.min_cycles = 500;
    sim.warmup.max_cycles = 4_000;
    sim
}

#[test]
fn metered_run_does_not_perturb_the_simulation() {
    let mesh = Mesh::new(4, 4);
    let sim = tiny_sim(11);
    let load = 0.4;
    for fc in families() {
        let plain = fc.run(mesh, load, 5, &sim);
        let (metered, _) = metered(&fc, load, sim, 1);
        let label = fc.label();
        assert_eq!(plain.delivered, metered.delivered, "{label}");
        assert_eq!(plain.end_cycle, metered.end_cycle, "{label}");
        assert_eq!(plain.measure_start, metered.measure_start, "{label}");
        assert_eq!(plain.completed, metered.completed, "{label}");
        assert_eq!(
            plain.mean_latency().to_bits(),
            metered.mean_latency().to_bits(),
            "{label}"
        );
        assert_eq!(
            plain.accepted_fraction.to_bits(),
            metered.accepted_fraction.to_bits(),
            "{label}"
        );
        assert_eq!(plain.p50_latency, metered.p50_latency, "{label}");
        assert_eq!(plain.p99_latency, metered.p99_latency, "{label}");
    }
}

#[test]
fn same_seed_metered_runs_export_identical_stripped_json() {
    let sim = tiny_sim(17);
    let load = 0.4;
    for fc in families() {
        let label = fc.label();
        let (_, reg1) = metered(&fc, load, sim, 1);
        let (_, reg2) = metered(&fc, load, sim, 1);
        // Same manifest fields on both sides; wall_ms differs on purpose
        // to prove stripping removes it.
        let mut m1 = RunManifest::new("test", 17, "tiny", label.clone());
        let mut m2 = m1.clone();
        m1.wall_ms = 1;
        m2.wall_ms = 99;
        let mut doc1 = reg1.to_json(&m1);
        let mut doc2 = reg2.to_json(&m2);
        assert_ne!(doc1.render(), doc2.render(), "{label}: wall_ms must show");
        strip_nondeterministic(&mut doc1);
        strip_nondeterministic(&mut doc2);
        assert_eq!(doc1.render(), doc2.render(), "{label}");
    }
}

#[test]
fn fr_run_records_reservation_signature() {
    let sim = tiny_sim(23);
    let load = 0.5;
    let fc = FlowControl::fr6();
    let (result, reg) = metered(&fc, load, sim, 1);
    assert!(result.completed, "moderate load must complete");
    assert!(
        reg.counter("total.reservation_hits") > 0,
        "FR under load must schedule flits through the reservation table"
    );
    assert!(
        reg.counter("total.zero_turnaround_departures") > 0,
        "some flits must depart on their arrival cycle (zero turnaround)"
    );
    assert!(
        reg.counter("total.control_flits_sent") > 0,
        "reservations travel in control flits"
    );
    assert!(reg.counter("net.cycles") > 0);
    // Link accounting is consistent: the network moved at least as many
    // data flits as the sample delivered (5 flits per packet, plus
    // warm-up traffic and multi-hop traversals).
    let link_data = reg.counter("total.link_data_flits");
    assert!(
        link_data >= result.delivered * 5,
        "links carried {link_data} data flits for {} delivered packets",
        result.delivered
    );
    // The export parses back to the same document.
    let doc = reg.to_json(&RunManifest::new("test", 23, "tiny", "FR6"));
    let reparsed = Json::parse(&doc.render()).expect("export round-trips");
    assert_eq!(doc.render(), reparsed.render());
    assert_export_matches_offered_load("FR6", &reparsed, load);
}

#[test]
fn vc_run_records_stall_and_utilization_metrics() {
    let sim = tiny_sim(29);
    let load = 0.6;
    let fc = FlowControl::vc8();
    let (result, reg) = metered(&fc, load, sim, 1);
    assert!(result.delivered > 0);
    assert!(reg.counter("total.data_flits_sent") > 0);
    let util = reg
        .gauge("net.mean_data_link_utilization")
        .expect("utilization gauge");
    assert!(
        util > 0.0 && util < 1.0,
        "data-link utilization {util} out of range"
    );
    // Credit flits flow on a credit-based network.
    assert!(reg.counter("total.link_credit_flits") > 0);
    let doc = reg.to_json(&RunManifest::new("test", 29, "tiny", "VC8"));
    assert_export_matches_offered_load("VC8", &doc, load);
}

/// Every `results/*.json` sidecar with a manifest carries exactly the
/// keys `RunManifest::to_json` writes, so a tracked file cannot go stale
/// when the manifest grows.
#[test]
fn results_sidecar_manifests_carry_every_manifest_key() {
    let keys = |doc: &Json| match doc {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    };
    let expected: Vec<String> = keys(&RunManifest::new("x", 0, "quick", "c").to_json());
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("results dir") {
        let path = entry.expect("results entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable sidecar");
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Some(manifest) = doc.get("manifest") {
            assert_eq!(keys(manifest), expected, "{}", path.display());
            checked += 1;
        }
    }
    assert!(checked > 0, "no sidecar manifests under {}", dir.display());
}
