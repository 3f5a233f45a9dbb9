//! Whole-network throughput benchmarks: simulated cycles per second for
//! each flow control at a moderate load — the figure of merit for the
//! simulator itself (how long the paper's figures take to regenerate).
//!
//! Run with `cargo bench -p noc-bench --features bench`.

use noc_bench::harness::Harness;
use noc_engine::trace::{NullSink, SharedSink, TraceSink, VecSink};
use noc_engine::Rng;
use noc_metrics::NullRecorder;
use noc_network::{AnyNetwork, FlowControl};
use noc_topology::Mesh;
use noc_traffic::{LoadSpec, TrafficGenerator};

const CYCLES: u64 = 2_000;

/// `flow` at 50% load on the 8×8 mesh, every router tracing into
/// `sink` alongside the network.
fn network<S: TraceSink + Clone>(flow: &FlowControl, sink: S) -> AnyNetwork<S, S> {
    let mesh = Mesh::new(8, 8);
    let root = Rng::from_seed(1);
    let load = LoadSpec::fraction_of_capacity(0.5, 5);
    let generator = TrafficGenerator::uniform(mesh, load, root.fork(9));
    flow.build(mesh, generator, &root, sink.clone(), sink, NullRecorder)
}

fn bench_networks(h: &mut Harness) {
    let vc8 = FlowControl::vc8();
    let fr6 = FlowControl::fr6();
    for (name, flow) in [
        ("network_cycles/vc8@50%", &vc8),
        ("network_cycles/fr6@50%", &fr6),
    ] {
        h.bench(name, |b| {
            b.iter(|| {
                let mut net = network(flow, NullSink);
                net.run_cycles(CYCLES);
                net.tracker().delivered_flits()
            });
        });
    }

    // Full recording into a shared in-memory sink: the honest price of
    // tracing when it is actually on.
    h.bench("network_cycles/fr6@50%+vecsink", |b| {
        b.iter(|| {
            let sink = SharedSink::new(VecSink::new());
            let mut net = network(&fr6, sink.clone());
            net.run_cycles(CYCLES);
            (
                net.tracker().delivered_flits(),
                sink.with(|s| s.events().len()),
            )
        });
    });
}

fn main() {
    let mut h = Harness::new().samples(9);
    bench_networks(&mut h);
}
