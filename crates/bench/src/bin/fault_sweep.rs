//! Fault-tolerance degradation curves: delivered throughput, mean and
//! tail latency versus fault rate for VC8 and FR6.
//!
//! Sweeps a per-traversal transient fault rate applied equally to data
//! corruption (CRC-caught, NACK + retransmit) and control-flit drops
//! (link-level repair), then adds one scenario per configuration with a
//! permanent link failure on top of a 1e-3 transient rate. Every row
//! records the exact [`FaultPlan`] summary, so any point is reproducible
//! from the sidecar's `RunManifest` alone.
//!
//! `--quick` (or `FRFC_SCALE=tiny`) shrinks the sample for CI.

use noc_bench::report::{manifest, write_rows_json};
use noc_bench::{seed_from_env, Scale};
use noc_faults::FaultPlan;
use noc_metrics::Json;
use noc_network::{FlowControl, RunSpec, SimConfig};
use noc_topology::Mesh;

/// Runs one faulty point and returns the sidecar row for it.
fn point(
    fc: &FlowControl,
    name: String,
    mesh: Mesh,
    offered: f64,
    sim: &SimConfig,
    plan: &FaultPlan,
) -> (String, Vec<(String, Json)>) {
    let out = RunSpec {
        fault: Some(plan.clone()),
        ..RunSpec::new(fc.clone(), mesh, offered, 5, *sim)
    }
    .run()
    .expect("fault sweep specs are valid");
    let r = out.result.expect("methodology run");
    let fs = out.faults.unwrap_or_default();
    let c = fs.counters;
    let lat = if r.completed {
        format!("{:.1}", r.mean_latency())
    } else {
        "-".into()
    };
    let p99 = r
        .p99_latency
        .map_or_else(|| "-".to_string(), |v| v.to_string());
    println!(
        "{:<18} {:>9.0e} {:>10} {:>7} {:>9.1}% {:>9} {:>9} {:>6} {:>10}",
        name,
        plan.data_corrupt_rate,
        lat,
        p99,
        r.accepted_fraction * 100.0,
        c.retransmits,
        c.control_dropped,
        c.links_masked,
        if r.completed { "ok" } else { "saturated" }
    );
    let mut cells = vec![
        ("fault_rate".into(), Json::Num(plan.data_corrupt_rate)),
        ("plan".into(), Json::str(plan.summary())),
        ("completed".into(), Json::Bool(r.completed)),
        ("delivered".into(), Json::Num(r.delivered as f64)),
        ("accepted".into(), Json::Num(r.accepted_fraction)),
        ("data_corrupted".into(), Json::Num(c.data_corrupted as f64)),
        (
            "control_dropped".into(),
            Json::Num(c.control_dropped as f64),
        ),
        ("nacks".into(), Json::Num(c.nacks as f64)),
        ("retransmits".into(), Json::Num(c.retransmits as f64)),
        (
            "timeout_retransmits".into(),
            Json::Num(c.timeout_retransmits as f64),
        ),
        ("links_masked".into(), Json::Num(c.links_masked as f64)),
        (
            "retransmit_peak".into(),
            Json::Num(fs.retransmit_peak as f64),
        ),
    ];
    if r.completed {
        cells.push(("mean_latency".into(), Json::Num(r.mean_latency())));
    }
    if let Some(v) = r.p99_latency {
        cells.push(("p99_latency".into(), Json::Num(v as f64)));
    }
    (name, cells)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if let Some(unknown) = args.iter().find(|a| *a != "--quick") {
        eprintln!("unknown flag {unknown}; usage: fault_sweep [--quick]");
        std::process::exit(2);
    }

    let mesh = Mesh::new(8, 8);
    let scale = if quick {
        Scale::Tiny
    } else {
        Scale::from_env()
    };
    let seed = seed_from_env();
    let mut sim = scale.sim(seed);
    if quick {
        sim.sample_packets = sim.sample_packets.min(500);
    }
    let offered = 0.45;
    let rates: &[f64] = if quick {
        &[0.0, 1e-3, 3e-3]
    } else {
        &[0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
    };

    println!(
        "Fault sweep: VC8 vs FR6 degradation, {:.0}% offered load, 5-flit packets",
        offered * 100.0
    );
    println!("(transient rate hits data corruption and control drops equally; dead-link rows add one permanent failure)");
    println!(
        "{:<18} {:>9} {:>10} {:>7} {:>10} {:>9} {:>9} {:>6} {:>10}",
        "config", "rate", "latency", "p99", "accepted", "retrans", "drops", "dead", "status"
    );

    let mut rows = Vec::new();
    for fc in [FlowControl::vc8(), FlowControl::fr6()] {
        let label = fc.label();
        for &rate in rates {
            let mut plan = FaultPlan::quiet(seed);
            plan.data_corrupt_rate = rate;
            plan.control_drop_rate = rate;
            rows.push(point(
                &fc,
                format!("{label}/r={rate:.0e}"),
                mesh,
                offered,
                &sim,
                &plan,
            ));
        }
        // One permanent link failure on top of a 1e-3 transient rate:
        // the graceful-degradation scenario of the acceptance criteria.
        let mut plan = FaultPlan::randomized(seed, mesh);
        plan.data_corrupt_rate = 1e-3;
        plan.control_drop_rate = 1e-3;
        rows.push(point(
            &fc,
            format!("{label}/dead-link"),
            mesh,
            offered,
            &sim,
            &plan,
        ));
    }

    let m = manifest("fault_sweep", scale, seed, "VC8/FR6 fault-rate sweep");
    write_rows_json(&m, &rows);
}
