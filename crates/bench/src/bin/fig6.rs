//! Regenerates paper Figure 6: latency versus offered traffic with
//! 21-flit packets (fast control) — VC16, VC32, FR6, FR13.

use flit_reservation::FrConfig;
use noc_bench::report::{manifest, write_curves_json};
use noc_bench::{default_loads, print_curve, print_summary, seed_from_env, sweep_threads, Scale};
use noc_flow::LinkTiming;
use noc_network::{sweep_loads, FlowControl};
use noc_topology::Mesh;
use noc_vc::VcConfig;

fn main() {
    let mesh = Mesh::new(8, 8);
    let scale = Scale::from_env();
    let seed = seed_from_env();
    let sim = scale.sim(seed);
    let loads = default_loads();
    let t = LinkTiming::fast_control();
    let configs = [
        FlowControl::VirtualChannel(VcConfig::vc16(), t),
        FlowControl::VirtualChannel(VcConfig::vc32(), t),
        FlowControl::fr6(),
        FlowControl::FlitReservation(FrConfig::fr13()),
    ];
    println!("Figure 6: latency vs offered traffic, 21-flit packets, fast control");
    println!(
        "(paper saturation: VC16 65%, VC32 65%, FR6 60%, FR13 75%; base latency VC 55, FR 46)"
    );
    let threads = sweep_threads();
    let mut curves = Vec::new();
    for fc in &configs {
        let curve = sweep_loads(fc, mesh, 21, &loads, &sim, threads);
        print_curve(&curve);
        curves.push(curve);
    }
    print_summary(&curves);
    let mut m = manifest("fig6", scale, seed, "VC16/VC32/FR6/FR13");
    m.threads = threads as u64;
    write_curves_json(&m, &curves);
}
