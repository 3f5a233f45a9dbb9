//! Regenerates paper Figure 9: flit-reservation with a 1-cycle leading
//! control versus virtual-channel flow control, on 1-cycle wires with
//! 5-flit packets.
//!
//! `--trace-out <path>` additionally records an FR6/lead=1 run at 50%
//! offered load with latency-provenance tracing and writes a
//! Chrome-trace / Perfetto file there (sampling via `FRFC_PROV_SAMPLE`,
//! default 4).

use flit_reservation::FrConfig;
use noc_bench::report::{manifest, write_curves_json};
use noc_bench::{
    default_loads, print_curve, print_summary, prov_sample_from_env, seed_from_env, sweep_threads,
    Scale,
};
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
            eprintln!("usage: fig9 [--trace-out <path>]");
            std::process::exit(2)
        }
    }
}

fn main() {
    let trace_out = trace_out_arg().map(|path| (path, prov_sample_from_env()));
    let mesh = Mesh::new(8, 8);
    let scale = Scale::from_env();
    let seed = seed_from_env();
    let sim = scale.sim(seed);
    let loads = default_loads();
    let wires = LinkTiming::leading_control(1);
    let vc_wires = wires.vc_baseline_of();
    let configs = [
        FlowControl::VirtualChannel(VcConfig::vc8(), vc_wires),
        FlowControl::VirtualChannel(VcConfig::vc16(), vc_wires),
        FlowControl::FlitReservation(FrConfig::fr6().with_timing(wires)),
        FlowControl::FlitReservation(FrConfig::fr13().with_timing(wires)),
    ];
    println!("Figure 9: FR (1-cycle leading control) vs VC, 1-cycle wires, 5-flit packets");
    println!("(paper: equal base latency 15; FR6 75% vs VC8 65%; latency 19 vs 21 at 50%)");
    let threads = sweep_threads();
    let mut curves = Vec::new();
    for fc in &configs {
        let mut curve = sweep_loads(fc, mesh, 5, &loads, &sim, threads);
        if matches!(fc, FlowControl::FlitReservation(_)) {
            curve.label = format!("{}/lead=1", curve.label);
        }
        print_curve(&curve);
        curves.push(curve);
    }
    print_summary(&curves);
    let mut m = manifest("fig9", scale, seed, "VC8/VC16/FR6/FR13 lead=1");
    m.threads = threads as u64;
    write_curves_json(&m, &curves);
    if let Some((path, sample)) = trace_out {
        let fc = FlowControl::FlitReservation(FrConfig::fr6().with_timing(wires));
        let report = RunSpec {
            provenance_sample_every: Some(sample),
            ..RunSpec::new(fc, mesh, 0.5, 5, sim)
        }
        .run()
        .expect("valid trace spec")
        .provenance
        .expect("provenance run");
        let doc = chrome_trace(&report, mesh.width());
        match write_json_file(std::path::Path::new(&path), &doc) {
            Ok(()) => println!(
                "wrote {path}: FR6/lead=1 @ 50% load, {} flit spans (open in ui.perfetto.dev)",
                report.records.len()
            ),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            }
        }
    }
}
