//! Regenerates the Section 4.2 buffer-occupancy probe: near saturation
//! with 21-flit packets, the FR6 buffer pool of a mid-mesh router is full
//! ~40% of the time, while the VC baseline saturates with its pool full
//! less than 5% of the time.
//!
//! Runs metered and reads the mid-mesh West-input pool statistics out of
//! the metrics registry (`router.{n}.west.occupancy_avg` /
//! `.full_fraction`), writing one `*.metrics.json` sidecar per
//! configuration plus a row-table sidecar with the printed numbers.

use noc_bench::report::{manifest, write_metrics_json, write_rows_json};
use noc_bench::{seed_from_env, Scale};
use noc_flow::LinkTiming;
use noc_metrics::Json;
use noc_network::{FlowControl, RunSpec};
use noc_topology::Mesh;
use noc_vc::VcConfig;

fn main() {
    let mesh = Mesh::new(8, 8);
    let scale = Scale::from_env();
    let seed = seed_from_env();
    let sim = scale.sim(seed);
    // The network probes the mesh-centre router's West input; query the
    // same pool from the registry.
    let probe_router = (mesh.height() / 2) * mesh.width() + mesh.width() / 2;
    let occ_key = format!("router.{probe_router}.west.occupancy_avg");
    let full_key = format!("router.{probe_router}.west.full_fraction");
    println!("Section 4.2 probe: mid-mesh buffer pool occupancy near saturation (21-flit packets)");
    println!("(paper: FR6 pool full ~40% of the time; VC saturates with pool full <5%)");
    println!(
        "\n{:>8} {:>10} {:>12} {:>12} {:>12}",
        "config", "load", "full%", "mean occ%", "latency"
    );
    // Probe each configuration just below its own saturation point.
    let cases = [
        (FlowControl::fr6(), 0.55),
        (FlowControl::vc8(), 0.5),
        (
            FlowControl::VirtualChannel(VcConfig::vc32(), LinkTiming::fast_control()),
            0.6,
        ),
    ];
    let mut rows = Vec::new();
    for (fc, load) in &cases {
        let out = RunSpec {
            metrics_period: Some(64),
            ..RunSpec::new(fc.clone(), mesh, *load, 21, sim)
        }
        .run()
        .expect("occupancy specs are valid");
        let (r, registry) = (out.result.expect("result"), out.registry.expect("registry"));
        // The registry gauges cover the whole run (warm-up included);
        // the probe counters cover the measurement window only. Both
        // describe the same pool.
        let full_fraction = registry.gauge(&full_key).unwrap_or(0.0);
        let mean_occupancy = registry.gauge(&occ_key).unwrap_or(0.0);
        println!(
            "{:>8} {:>9.0}% {:>11.1}% {:>11.1}% {:>11.0}c",
            fc.label(),
            load * 100.0,
            full_fraction * 100.0,
            mean_occupancy * 100.0,
            r.mean_latency()
        );
        let m = manifest(
            &format!("occupancy_{}", fc.label().to_lowercase()),
            scale,
            seed,
            &fc.label(),
        );
        write_metrics_json(&m, &registry);
        rows.push((
            fc.label(),
            vec![
                ("offered".into(), Json::Num(*load)),
                ("full_fraction".into(), Json::Num(full_fraction)),
                ("mean_occupancy".into(), Json::Num(mean_occupancy)),
                ("mean_latency".into(), Json::Num(r.mean_latency())),
                (
                    "probe_full_fraction".into(),
                    Json::Num(r.probe_full_fraction),
                ),
                (
                    "probe_mean_occupancy".into(),
                    Json::Num(r.probe_mean_occupancy),
                ),
            ],
        ));
    }
    let m = manifest("occupancy", scale, seed, "FR6/VC8/VC32");
    write_rows_json(&m, &rows);
}
