//! Regenerates paper Figure 5: latency versus offered traffic for
//! virtual-channel (VC8, VC16) and flit-reservation (FR6, FR13) flow
//! control with 5-flit packets under fast control.
//!
//! `--trace-out <path>` additionally records an FR6 run at 50% offered
//! load with latency-provenance tracing and writes a Chrome-trace /
//! Perfetto file there (sampling via `FRFC_PROV_SAMPLE`, default 4).

use flit_reservation::FrConfig;
use noc_bench::report::{manifest, write_curves_json};
use noc_bench::{default_loads, print_curve, print_summary, seed_from_env, sweep_threads, Scale};
use noc_flow::LinkTiming;
use noc_metrics::write_json_file;
use noc_network::{sweep_loads, FlowControl, RunSpec};
use noc_provenance::chrome_trace;
use noc_topology::Mesh;
use noc_vc::VcConfig;

fn trace_out_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--trace-out" => Some(path.clone()),
        _ => {
            eprintln!("usage: fig5 [--trace-out <path>]");
            std::process::exit(2)
        }
    }
}

/// Traces `fc` at `offered` load and writes the Perfetto file to `path`.
fn write_trace(fc: &FlowControl, mesh: Mesh, sim: &noc_network::SimConfig, path: &str) {
    let sample = std::env::var("FRFC_PROV_SAMPLE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4);
    let offered = 0.5;
    let report = RunSpec {
        provenance_sample_every: Some(sample),
        ..RunSpec::new(fc.clone(), mesh, offered, 5, *sim)
    }
    .run()
    .expect("valid trace spec")
    .provenance
    .expect("provenance run");
    let doc = chrome_trace(&report, mesh.width());
    match write_json_file(std::path::Path::new(path), &doc) {
        Ok(()) => println!(
            "wrote {path}: {} @ {:.0}% load, {} flit spans (open in ui.perfetto.dev)",
            fc.label(),
            offered * 100.0,
            report.records.len()
        ),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let trace_out = trace_out_arg();
    let mesh = Mesh::new(8, 8);
    let scale = Scale::from_env();
    let seed = seed_from_env();
    let sim = scale.sim(seed);
    let loads = default_loads();
    let t = LinkTiming::fast_control();
    let configs = [
        FlowControl::VirtualChannel(VcConfig::vc8(), t),
        FlowControl::VirtualChannel(VcConfig::vc16(), t),
        FlowControl::fr6(),
        FlowControl::FlitReservation(FrConfig::fr13()),
    ];
    println!("Figure 5: latency vs offered traffic, 5-flit packets, fast control");
    println!("(paper saturation: VC8 63%, VC16 80%, FR6 77%, FR13 85%; base latency VC 32, FR 27)");
    let threads = sweep_threads();
    let mut curves = Vec::new();
    for fc in &configs {
        let curve = sweep_loads(fc, mesh, 5, &loads, &sim, threads);
        print_curve(&curve);
        curves.push(curve);
    }
    print_summary(&curves);
    let mut m = manifest("fig5", scale, seed, "VC8/VC16/FR6/FR13");
    m.threads = threads as u64;
    write_curves_json(&m, &curves);
    if let Some(path) = trace_out {
        write_trace(&FlowControl::fr6(), mesh, &sim, &path);
    }
}
