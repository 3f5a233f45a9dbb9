//! Regenerates paper Table 3: base latency, latency at 50% capacity and
//! saturation throughput for FR6/FR13/VC8/VC16/VC32 under fast control
//! (5- and 21-flit packets) and 1-cycle leading control (5-flit packets).

use flit_reservation::FrConfig;
use noc_bench::{seed_from_env, sweep_threads, Scale};
use noc_flow::LinkTiming;
use noc_network::{sweep_loads, FlowControl};
use noc_topology::Mesh;
use noc_vc::VcConfig;

fn regime(
    title: &str,
    configs: &[FlowControl],
    mesh: Mesh,
    length: u32,
    sim: &noc_network::SimConfig,
) {
    println!("\n== {title} ==");
    println!(
        "{:>8} {:>14} {:>18} {:>12}",
        "config", "base latency", "latency @ 50%", "throughput"
    );
    // Dense sweep around the interesting region plus a low-load point for
    // base latency and a 50% point for the mid-load row.
    let loads = [0.05, 0.3, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9];
    for fc in configs {
        let curve = sweep_loads(fc, mesh, length, &loads, sim, sweep_threads());
        let base = curve.base_latency();
        let mid = curve
            .latency_at(0.5)
            .map(|l| format!("{l:.0}"))
            .unwrap_or_else(|| "-".into());
        let sat = curve.saturation_throughput(base * 3.0);
        println!(
            "{:>8} {:>13.0}c {:>17}c {:>11.0}%",
            curve.label,
            base,
            mid,
            sat * 100.0
        );
    }
}

fn main() {
    let mesh = Mesh::new(8, 8);
    let sim = Scale::from_env().sim(seed_from_env());
    let fast = LinkTiming::fast_control();
    let lead = LinkTiming::leading_control(1);

    println!("Table 3: summary of experimental results");
    println!("(paper, fast control 5-flit:  FR6 27/33/77  FR13 27/33/85  VC8 32/39/63  VC16 32/38/80  VC32 32/38/85)");
    println!("(paper, fast control 21-flit: FR6 46/81/60  FR13 46/75/75  VC8 55/113/55 VC16 55/95/65  VC32 55/97/65)");
    println!("(paper, leading control:      FR6 15/19/75  FR13 15/19/83  VC8 15/21/65  VC16 15/21/80  VC32 15/21/85)");

    let fast_configs = [
        FlowControl::fr6(),
        FlowControl::FlitReservation(FrConfig::fr13()),
        FlowControl::VirtualChannel(VcConfig::vc8(), fast),
        FlowControl::VirtualChannel(VcConfig::vc16(), fast),
        FlowControl::VirtualChannel(VcConfig::vc32(), fast),
    ];
    regime("Fast control, 5-flit packets", &fast_configs, mesh, 5, &sim);
    regime(
        "Fast control, 21-flit packets",
        &fast_configs,
        mesh,
        21,
        &sim,
    );

    let lead_configs = [
        FlowControl::FlitReservation(FrConfig::fr6().with_timing(lead)),
        FlowControl::FlitReservation(FrConfig::fr13().with_timing(lead)),
        FlowControl::VirtualChannel(VcConfig::vc8(), lead.vc_baseline_of()),
        FlowControl::VirtualChannel(VcConfig::vc16(), lead.vc_baseline_of()),
        FlowControl::VirtualChannel(VcConfig::vc32(), lead.vc_baseline_of()),
    ];
    regime(
        "Leading control (1 cycle), 5-flit packets",
        &lead_configs,
        mesh,
        5,
        &sim,
    );
}
