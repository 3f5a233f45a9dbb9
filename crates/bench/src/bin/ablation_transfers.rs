//! Section 5 ablation: buffer binding at reservation time versus just
//! before arrival (Figure 10). Binding early forces buffer-to-buffer
//! transfers; this harness counts them across a loaded network.

use flit_reservation::{BufferAllocPolicy, FrConfig};
use noc_bench::{seed_from_env, Scale};
use noc_engine::trace::NullSink;
use noc_engine::Rng;
use noc_metrics::NullRecorder;
use noc_network::{run_simulation, AnyNetwork, FlowControl, TRAFFIC_STREAM};
use noc_topology::Mesh;
use noc_traffic::{LoadSpec, TrafficGenerator};

fn main() {
    let mesh = Mesh::new(8, 8);
    let sim = Scale::from_env().sim(seed_from_env());
    println!("Ablation: buffer binding at reservation time (Figure 10)");
    println!("(the paper's deferred binding never transfers; early binding must shuffle flits)");
    println!(
        "\n{:>8} {:>12} {:>14} {:>14} {:>10}",
        "load", "residencies", "transfers", "per residency", "latency"
    );
    for load in [0.3, 0.5, 0.7] {
        let cfg = FrConfig {
            buffer_alloc: BufferAllocPolicy::AtReservation,
            ..FrConfig::fr6()
        };
        let root = Rng::from_seed(sim.seed);
        let spec = LoadSpec::fraction_of_capacity(load, 5);
        let generator = TrafficGenerator::uniform(mesh, spec, root.fork(TRAFFIC_STREAM));
        let flow = FlowControl::FlitReservation(cfg);
        let AnyNetwork::Fr(mut network) =
            flow.build(mesh, generator, &root, NullSink, NullSink, NullRecorder)
        else {
            unreachable!("an FR flow builds an FR network")
        };
        let r = run_simulation(&mut network, &sim);
        let mut transfers = 0u64;
        let mut booked = 0u64;
        for router in network.routers() {
            let (t, b) = router.buffer_transfers().expect("ablation policy active");
            transfers += t;
            booked += b;
        }
        println!(
            "{:>7.0}% {:>12} {:>14} {:>14.4} {:>9.0}c",
            load * 100.0,
            booked,
            transfers,
            transfers as f64 / booked.max(1) as f64,
            r.mean_latency()
        );
    }
}
