//! Flit-reservation flow control under adversarial spatial patterns.
//!
//! The paper evaluates uniform random traffic; this example stresses both
//! flow controls with transpose, tornado and hotspot patterns — the
//! workloads a NoC designer would try next.
//!
//! ```sh
//! cargo run --release --example adversarial_traffic
//! ```

use frfc::engine::trace::NullSink;
use frfc::engine::Rng;
use frfc::metrics::NullRecorder;
use frfc::network::{FlowControl, SimConfig};
use frfc::topology::Mesh;
use frfc::traffic::{
    Hotspot, InjectionKind, LoadSpec, Tornado, TrafficGenerator, TrafficPattern, Transpose,
};

fn mean_latency(
    flow: FlowControl,
    mesh: Mesh,
    pattern: Box<dyn TrafficPattern>,
    load: f64,
    sim: &SimConfig,
) -> f64 {
    let root = Rng::from_seed(sim.seed);
    let spec = LoadSpec::fraction_of_capacity(load, 5);
    let generator = TrafficGenerator::new(
        mesh,
        spec,
        pattern,
        InjectionKind::ConstantRate,
        root.fork(1),
    );
    flow.build(mesh, generator, &root, NullSink, NullSink, NullRecorder)
        .simulate(sim)
        .mean_latency()
}

fn main() {
    let mesh = Mesh::new(8, 8);
    let sim = SimConfig::quick(2000);
    let load = 0.35;
    println!(
        "adversarial traffic at {:.0}% of (uniform) capacity, 5-flit packets\n",
        load * 100.0
    );
    println!("{:<12} {:>10} {:>10}", "pattern", "VC8", "FR6");
    for name in ["transpose", "tornado", "hotspot10%"] {
        let pattern = || -> Box<dyn TrafficPattern> {
            match name {
                "transpose" => Box::new(Transpose),
                "tornado" => Box::new(Tornado),
                // The hotspot is the mesh centre, node (4, 4).
                _ => Box::new(Hotspot::new(mesh.node_at(4, 4), 0.1)),
            }
        };
        let vc = mean_latency(FlowControl::vc8(), mesh, pattern(), load, &sim);
        let fr = mean_latency(FlowControl::fr6(), mesh, pattern(), load, &sim);
        println!("{name:<12} {vc:>9.1}c {fr:>9.1}c");
    }
    println!("\nAdvance reservations help under non-uniform loads too: the");
    println!("control network sees the contention first and schedules around");
    println!("busy cycles instead of stalling data flits in buffers.");
}
