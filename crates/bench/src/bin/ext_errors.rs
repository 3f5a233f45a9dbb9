//! Extension: Section 5's error recovery. Control flits are corrupted at
//! a configurable rate and retransmitted (link-level, order-preserving);
//! this harness shows latency degrading gracefully while delivery stays
//! exact.

use noc_bench::{seed_from_env, Scale};
use noc_engine::trace::NullSink;
use noc_engine::Rng;
use noc_metrics::NullRecorder;
use noc_network::FlowControl;
use noc_topology::Mesh;
use noc_traffic::{LoadSpec, TrafficGenerator};

fn main() {
    let mesh = Mesh::new(8, 8);
    let sim = Scale::from_env().sim(seed_from_env());
    println!("Extension: control-wire error rate vs latency (FR6, 5-flit, 50% load)");
    println!(
        "\n{:>12} {:>12} {:>12} {:>14} {:>10}",
        "error rate", "latency", "ci95", "retries", "status"
    );
    for rate in [0.0, 0.001, 0.01, 0.05, 0.1] {
        let root = Rng::from_seed(sim.seed);
        let load = LoadSpec::fraction_of_capacity(0.5, 5);
        let generator = TrafficGenerator::uniform(mesh, load, root.fork(1));
        let mut net =
            FlowControl::fr6().build(mesh, generator, &root, NullSink, NullSink, NullRecorder);
        if rate > 0.0 {
            net.set_control_error_rate(rate, 0xEC0DE);
        }
        let r = net.simulate(&sim);
        println!(
            "{:>11.1}% {:>11.1}c {:>12.2} {:>14} {:>10}",
            rate * 100.0,
            r.mean_latency(),
            r.latency.ci95_half_width(),
            net.control_retries(),
            if r.completed { "ok" } else { "saturated" }
        );
    }
}
