//! Audit a full flit-reservation run with the invariant checker.
//!
//! Attaches a shared [`InvariantChecker`] to every router and the
//! network harness, runs a moderate-load 8×8 simulation to completion,
//! and reports what the checker saw: every buffer allocation paired
//! with a free, every data flit covered by a reservation, every flit
//! delivered exactly once.
//!
//! ```sh
//! cargo run --release --example trace_audit
//! ```

use frfc::engine::trace::{InvariantChecker, SharedSink};
use frfc::engine::Rng;
use frfc::metrics::NullRecorder;
use frfc::network::FlowControl;
use frfc::topology::Mesh;
use frfc::traffic::{LoadSpec, TrafficGenerator};

fn main() {
    let mesh = Mesh::new(8, 8);
    let seed = 42;
    let load = 0.5;
    let root = Rng::from_seed(seed);
    let spec = LoadSpec::fraction_of_capacity(load, 5);
    let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
    let flow = FlowControl::fr6();

    let sink = SharedSink::new(InvariantChecker::new());
    let mut net = flow.build(
        mesh,
        generator,
        &root,
        sink.clone(),
        sink.clone(),
        NullRecorder,
    );

    net.run_cycles(5_000);
    net.stop_injection();
    net.run_cycles(5_000);

    let delivered = net.tracker().delivered_packets();
    let in_flight = net.tracker().in_flight();
    drop(net);
    let checker = sink.into_inner();

    println!("FR6 on 8x8 mesh, {:.0}% load, seed {seed}:", load * 100.0);
    println!("  packets delivered : {delivered}");
    println!("  still in flight   : {in_flight}");
    println!("  events audited    : {}", checker.events_seen());
    println!("  flits injected    : {}", checker.injected_flits());
    println!("  flits ejected     : {}", checker.ejected_flits());
    println!("  unused grants     : {}", checker.unused_grants());
    println!("  violations        : {}", checker.violation_count());
    for v in checker.violations().iter().take(10) {
        println!("    {v}");
    }
    checker.assert_clean();
    checker.assert_drained();
    println!("invariants hold: clean and fully drained");
}
