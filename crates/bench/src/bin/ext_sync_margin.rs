//! Extension: Section 5's plesiochronous clocking — buffers held one
//! extra accounting cycle before release. Measures the throughput price
//! of the synchronization margin.

use flit_reservation::FrConfig;
use noc_bench::{seed_from_env, Scale};
use noc_network::FlowControl;
use noc_topology::Mesh;

fn main() {
    let mesh = Mesh::new(8, 8);
    let sim = Scale::from_env().sim(seed_from_env());
    println!("Extension: plesiochronous sync margin (FR6, 5-flit packets)");
    println!(
        "\n{:>8} {:>14} {:>14} {:>14}",
        "load", "margin 0", "margin 1", "margin 2"
    );
    for load in [0.3, 0.5, 0.65, 0.75] {
        let mut row = format!("{:>7.0}%", load * 100.0);
        for margin in [0u64, 1, 2] {
            let fc = FlowControl::FlitReservation(FrConfig::fr6().with_sync_margin(margin));
            let r = fc.run(mesh, load, 5, &sim);
            if r.completed {
                row.push_str(&format!(" {:>13.1}c", r.mean_latency()));
            } else {
                row.push_str(&format!(" {:>14}", "saturated"));
            }
        }
        println!("{row}");
    }
}
