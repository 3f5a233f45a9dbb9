//! Latency-throughput sweep (the shape of the paper's Figure 5) with a
//! configurable packet length and load grid.
//!
//! ```sh
//! cargo run --release --example latency_sweep -- 5          # packet length
//! cargo run --release --example latency_sweep -- 21 0.1 0.9 9
//! ```
//!
//! Arguments: `[packet_length] [lo] [hi] [points]`.

use frfc::engine::sweep::linspace;
use frfc::network::{sweep_loads, FlowControl, SimConfig};
use frfc::topology::Mesh;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let length: u32 = args.first().and_then(|s| s.parse().ok()).unwrap_or(5);
    let lo: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.1);
    let hi: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.9);
    let points: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(7);

    let mesh = Mesh::new(8, 8);
    let sim = SimConfig::quick(2000);
    let loads = linspace(lo, hi, points);

    println!("latency vs offered load, {length}-flit packets, 8x8 mesh\n");
    println!("{:>9} {:>12} {:>12}", "offered", "VC8", "FR6");
    let vc = sweep_loads(&FlowControl::vc8(), mesh, length, &loads, &sim, 1);
    let fr = sweep_loads(&FlowControl::fr6(), mesh, length, &loads, &sim, 1);
    for (a, b) in vc.points.iter().zip(&fr.points) {
        let fmt = |r: &frfc::network::RunResult| {
            if r.completed {
                format!("{:.1}", r.mean_latency())
            } else {
                "saturated".to_string()
            }
        };
        println!(
            "{:>8.0}% {:>12} {:>12}",
            a.offered * 100.0,
            fmt(&a.result),
            fmt(&b.result)
        );
    }
}
