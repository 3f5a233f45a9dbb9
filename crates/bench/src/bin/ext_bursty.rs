//! Extension: bursty (on/off) traffic. Burstiness stresses buffer
//! turnaround — the resource flit-reservation flow control recycles
//! instantly — so the FR advantage should persist or grow relative to
//! smooth constant-rate sources at equal mean load.

use noc_bench::{seed_from_env, Scale};
use noc_engine::trace::NullSink;
use noc_engine::Rng;
use noc_metrics::NullRecorder;
use noc_network::{FlowControl, SimConfig};
use noc_topology::Mesh;
use noc_traffic::{InjectionKind, LoadSpec, TrafficGenerator, Uniform};

fn run(kind: InjectionKind, load: f64, fr: bool, sim: &SimConfig) -> f64 {
    let mesh = Mesh::new(8, 8);
    let root = Rng::from_seed(sim.seed);
    let spec = LoadSpec::fraction_of_capacity(load, 5);
    let generator = TrafficGenerator::new(mesh, spec, Box::new(Uniform), kind, root.fork(1));
    let flow = if fr {
        FlowControl::fr6()
    } else {
        FlowControl::vc8()
    };
    flow.build(mesh, generator, &root, NullSink, NullSink, NullRecorder)
        .simulate(sim)
        .mean_latency()
}

fn main() {
    let sim = Scale::from_env().sim(seed_from_env());
    println!("Extension: smooth vs bursty injection at equal mean load (5-flit packets)");
    println!(
        "\n{:>8} {:>16} {:>16} {:>16} {:>16}",
        "load", "VC8 smooth", "VC8 bursty", "FR6 smooth", "FR6 bursty"
    );
    for load in [0.3, 0.45, 0.6] {
        let bursty = InjectionKind::OnOff {
            peak_rate: 0.5,
            mean_on: 16.0,
        };
        println!(
            "{:>7.0}% {:>15.1}c {:>15.1}c {:>15.1}c {:>15.1}c",
            load * 100.0,
            run(InjectionKind::ConstantRate, load, false, &sim),
            run(bursty, load, false, &sim),
            run(InjectionKind::ConstantRate, load, true, &sim),
            run(bursty, load, true, &sim),
        );
    }
}
