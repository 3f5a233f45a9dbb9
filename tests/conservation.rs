//! Cross-crate conservation tests: every injected packet is delivered
//! exactly once, at the right node, under both flow controls, all timing
//! regimes and both packet lengths. The `DeliveryTracker` panics on any
//! duplicate, loss-after-delivery or misdelivery, so "the run finishes
//! and drains" is itself a strong end-to-end check.

use frfc::engine::trace::NullSink;
use frfc::engine::Rng;
use frfc::flow::LinkTiming;
use frfc::fr::FrConfig;
use frfc::metrics::NullRecorder;
use frfc::network::{AnyNetwork, FlowControl};
use frfc::topology::Mesh;
use frfc::traffic::{LoadSpec, TrafficGenerator};
use frfc::vc::VcConfig;

fn net(mesh: Mesh, flow: FlowControl, load: f64, length: u32, seed: u64) -> AnyNetwork {
    let root = Rng::from_seed(seed);
    let spec = LoadSpec::fraction_of_capacity(load, length);
    let generator = TrafficGenerator::uniform(mesh, spec, root.fork(1));
    flow.build(mesh, generator, &root, NullSink, NullSink, NullRecorder)
}

fn fr_net(mesh: Mesh, cfg: FrConfig, load: f64, length: u32, seed: u64) -> AnyNetwork {
    net(mesh, FlowControl::FlitReservation(cfg), load, length, seed)
}

/// The VC baseline with fast-control wires.
fn vc_net(mesh: Mesh, cfg: VcConfig, load: f64, length: u32, seed: u64) -> AnyNetwork {
    let flow = FlowControl::VirtualChannel(cfg, LinkTiming::fast_control());
    net(mesh, flow, load, length, seed)
}

/// Overloads `net` for 2,000 cycles, then stops injection: everything
/// that was injected must still drain.
fn drains_after_overload(mut net: AnyNetwork) {
    net.run_cycles(2_000);
    net.stop_injection();
    net.run_cycles(20_000);
    assert_eq!(
        net.tracker().in_flight(),
        0,
        "overloaded network must drain"
    );
}

fn assert_drains(net: &mut AnyNetwork, run: u64, drain: u64, min: u64) {
    net.run_cycles(run);
    net.stop_injection();
    net.run_cycles(drain);
    assert_eq!(
        net.tracker().in_flight(),
        0,
        "packets stuck after {drain}-cycle drain"
    );
    assert!(
        net.tracker().delivered_packets() >= min,
        "expected at least {min} deliveries, got {}",
        net.tracker().delivered_packets()
    );
    assert_eq!(net.mean_queued_flits(), 0.0, "routers must be empty");
}

#[test]
fn fr_fast_control_conserves_short_packets() {
    let mesh = Mesh::new(6, 6);
    let mut net = fr_net(mesh, FrConfig::fr6(), 0.5, 5, 42);
    assert_drains(&mut net, 3_000, 3_000, 150);
}

#[test]
fn fr_fast_control_conserves_long_packets() {
    let mesh = Mesh::new(6, 6);
    let mut net = fr_net(mesh, FrConfig::fr13(), 0.4, 21, 43);
    assert_drains(&mut net, 3_000, 5_000, 30);
}

#[test]
fn fr_leading_control_conserves() {
    for lead in [1, 2, 4] {
        let mesh = Mesh::new(6, 6);
        let cfg = FrConfig::fr6().with_timing(LinkTiming::leading_control(lead));
        let mut net = fr_net(mesh, cfg, 0.5, 5, 44 + lead);
        assert_drains(&mut net, 3_000, 3_000, 150);
    }
}

#[test]
fn fr_wide_control_flits_conserve() {
    let mesh = Mesh::new(6, 6);
    let cfg = FrConfig::fr6().with_flits_per_control(4);
    let mut net = fr_net(mesh, cfg, 0.5, 5, 45);
    assert_drains(&mut net, 3_000, 3_000, 150);
}

#[test]
fn fr_all_or_nothing_conserves() {
    let mesh = Mesh::new(6, 6);
    let cfg = FrConfig::fr6()
        .with_flits_per_control(4)
        .with_policy(frfc::fr::SchedulingPolicy::AllOrNothing);
    let mut net = fr_net(mesh, cfg, 0.4, 5, 46);
    assert_drains(&mut net, 3_000, 4_000, 120);
}

#[test]
fn fr_small_horizon_conserves() {
    let mesh = Mesh::new(6, 6);
    let cfg = FrConfig::fr6().with_horizon(16);
    let mut net = fr_net(mesh, cfg, 0.5, 5, 47);
    assert_drains(&mut net, 3_000, 3_000, 150);
}

#[test]
fn fr_conserves_under_overload() {
    // Offered load beyond capacity: the network must still deliver
    // everything that was injected once injection stops.
    drains_after_overload(fr_net(Mesh::new(4, 4), FrConfig::fr6(), 1.3, 5, 48));
}

#[test]
fn vc_fast_control_conserves() {
    let mesh = Mesh::new(6, 6);
    let mut net = vc_net(mesh, VcConfig::vc8(), 0.5, 5, 49);
    assert_drains(&mut net, 3_000, 3_000, 150);
}

#[test]
fn vc_shared_pool_conserves() {
    let mesh = Mesh::new(6, 6);
    let cfg = VcConfig::vc8().with_shared_pool();
    let mut net = vc_net(mesh, cfg, 0.5, 5, 50);
    assert_drains(&mut net, 3_000, 3_000, 150);
}

#[test]
fn wormhole_conserves() {
    let mesh = Mesh::new(6, 6);
    let cfg = VcConfig::wormhole(8);
    let mut net = vc_net(mesh, cfg, 0.3, 5, 51);
    assert_drains(&mut net, 3_000, 4_000, 90);
}

#[test]
fn vc_conserves_under_overload() {
    drains_after_overload(vc_net(Mesh::new(4, 4), VcConfig::vc8(), 1.3, 5, 52));
}
