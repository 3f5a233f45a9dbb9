//! The paper's Section 2 lineage, measured: store-and-forward →
//! virtual cut-through → wormhole → virtual channels → flit reservation.
//! Each successive scheme allocates buffers and bandwidth at a finer
//! granularity (or, for FR, in advance), buying latency and throughput.
//!
//! Buffer sizing: SAF/VCT need packet-sized buffers (8 flits ≥ L = 5);
//! the flit-granular schemes get the paper's 8-buffer inputs; FR6 is the
//! storage-matched flit-reservation configuration.

use noc_bench::{default_loads, print_curve, print_summary, seed_from_env, sweep_threads, Scale};
use noc_flow::LinkTiming;
use noc_network::{sweep_loads, FlowControl};
use noc_topology::Mesh;
use noc_vc::VcConfig;

fn main() {
    let mesh = Mesh::new(8, 8);
    let sim = Scale::from_env().sim(seed_from_env());
    let loads = default_loads();
    let t = LinkTiming::fast_control();
    let configs = [
        FlowControl::VirtualChannel(VcConfig::store_and_forward(8), t),
        FlowControl::VirtualChannel(VcConfig::virtual_cut_through(8), t),
        FlowControl::VirtualChannel(VcConfig::wormhole(8), t),
        FlowControl::VirtualChannel(VcConfig::vc8(), t),
        FlowControl::fr6(),
    ];
    println!("Related work lineage: SAF → VCT → wormhole → VC → FR (5-flit packets)");
    let mut curves = Vec::new();
    for fc in &configs {
        let curve = sweep_loads(fc, mesh, 5, &loads, &sim, sweep_threads());
        print_curve(&curve);
        curves.push(curve);
    }
    print_summary(&curves);
}
