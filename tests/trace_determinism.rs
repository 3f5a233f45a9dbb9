//! Determinism and differential tests over the cycle-level trace.
//!
//! The trace turns "the simulation is deterministic" from a claim about
//! two latency numbers into a claim about every microarchitectural event:
//! two runs agree iff their event streams are bit-identical. On top of
//! that, the [`InvariantChecker`] audits whole simulations online — no
//! double-booked buffer, no data flit on an unreserved channel cycle,
//! no flit delivered twice — and the VC baseline and the FR router are
//! compared as black boxes: same offered traffic, same delivered set.

mod common;

use common::mesh4_net;
use frfc::engine::sweep;
use frfc::engine::trace::{
    InvariantChecker, SharedSink, TraceEvent, TraceKind, TraceSink, VecSink,
};
use frfc::flow::LinkTiming;
use frfc::fr::FrConfig;
use frfc::metrics::NullRecorder;
use frfc::network::{AnyNetwork, FlowControl};
use std::collections::BTreeSet;

type Shared<S> = SharedSink<S>;

/// `flow`'s network with every router and the harness feeding one
/// shared sink.
fn traced<S: TraceSink>(
    flow: &FlowControl,
    load: f64,
    seed: u64,
    sink: Shared<S>,
) -> AnyNetwork<Shared<S>, Shared<S>> {
    mesh4_net(flow, load, seed, sink.clone(), sink, NullRecorder)
}

/// Full event stream of one traced run (inject, drain).
fn trace(flow: &FlowControl, load: f64, seed: u64, cycles: u64, drain: u64) -> Vec<TraceEvent> {
    let shared = SharedSink::new(VecSink::new());
    let mut net = traced(flow, load, seed, shared.clone());
    net.run_cycles(cycles);
    net.stop_injection();
    net.run_cycles(drain);
    drop(net);
    shared.into_inner().into_events()
}

fn same_seed_gives_bit_identical_traces(flow: &FlowControl) {
    let a = trace(flow, 0.4, 7, 1_000, 2_000);
    let b = trace(flow, 0.4, 7, 1_000, 2_000);
    assert!(!a.is_empty(), "a moderate-load run must produce events");
    assert_eq!(a, b, "same seed must replay the exact event stream");
}

#[test]
fn same_seed_gives_bit_identical_fr_traces() {
    same_seed_gives_bit_identical_traces(&FlowControl::fr6());
}

#[test]
fn same_seed_gives_bit_identical_vc_traces() {
    same_seed_gives_bit_identical_traces(&FlowControl::vc8());
}

#[test]
fn different_seeds_give_different_traces() {
    let a = trace(&FlowControl::fr6(), 0.4, 7, 1_000, 2_000);
    let b = trace(&FlowControl::fr6(), 0.4, 8, 1_000, 2_000);
    assert_ne!(a, b, "different seeds must diverge somewhere in the stream");
}

/// The sweep harness must not perturb simulations: each point's trace is
/// a pure function of its inputs, whatever the worker count.
#[test]
fn traces_are_identical_across_sweep_thread_counts() {
    let points: Vec<(f64, u64)> = vec![(0.2, 1), (0.3, 2), (0.4, 3), (0.5, 4), (0.3, 5), (0.2, 6)];
    let job =
        |_i: usize, &(load, seed): &(f64, u64)| trace(&FlowControl::fr6(), load, seed, 600, 2_000);
    let serial = sweep::run_parallel(&points, 1, job);
    let threaded = sweep::run_parallel(&points, 8, job);
    assert_eq!(serial.len(), threaded.len());
    for (i, (a, b)) in serial.iter().zip(&threaded).enumerate() {
        assert!(!a.is_empty(), "point {i} produced no events");
        assert_eq!(a, b, "point {i} differs between 1 and 8 sweep threads");
    }
}

/// Extracts `(packet, latency-ignored)` delivery facts from a trace.
fn delivered_set(events: &[TraceEvent]) -> BTreeSet<u64> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::PacketDelivered { packet, .. } => Some(packet),
            _ => None,
        })
        .collect()
}

fn injected_set(events: &[TraceEvent]) -> BTreeSet<u64> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::PacketInjected { packet, .. } => Some(packet),
            _ => None,
        })
        .collect()
}

/// Differential test: the two flow controls are different machines, but
/// offered the same traffic (same generator seed) and fully drained,
/// they must deliver exactly the same set of packets.
#[test]
fn vc_and_fr_deliver_the_same_packet_set() {
    let vc = trace(&FlowControl::vc8(), 0.4, 21, 1_500, 4_000);
    let fr = trace(&FlowControl::fr6(), 0.4, 21, 1_500, 4_000);
    let vc_in = injected_set(&vc);
    let fr_in = injected_set(&fr);
    assert_eq!(
        vc_in, fr_in,
        "same generator seed must offer the same packets"
    );
    let vc_out = delivered_set(&vc);
    let fr_out = delivered_set(&fr);
    assert!(
        vc_out.len() > 50,
        "want a non-trivial sample, got {}",
        vc_out.len()
    );
    assert_eq!(vc_out, vc_in, "VC must drain completely");
    assert_eq!(fr_out, fr_in, "FR must drain completely");
    assert_eq!(vc_out, fr_out);
}

/// Fig. 5-style moderate-load run, audited event by event.
fn moderate_load_run_is_invariant_clean(flow: &FlowControl) {
    let shared = SharedSink::new(InvariantChecker::new());
    let mut net = traced(flow, 0.5, 13, shared.clone());
    net.run_cycles(2_000);
    net.stop_injection();
    net.run_cycles(3_000);
    assert_eq!(net.tracker().in_flight(), 0, "network must drain");
    drop(net);
    let checker = shared.into_inner();
    assert!(
        checker.events_seen() > 10_000,
        "expected a dense event stream"
    );
    checker.assert_clean();
    checker.assert_drained();
}

#[test]
fn invariant_checker_passes_a_moderate_load_fr_run() {
    moderate_load_run_is_invariant_clean(&FlowControl::fr6());
}

/// The same audit for the VC baseline (FIFO + conservation invariants).
#[test]
fn invariant_checker_passes_a_moderate_load_vc_run() {
    moderate_load_run_is_invariant_clean(&FlowControl::vc8());
}

/// FR with leading control / slow data timing, plus the error model off:
/// the reservation discipline must hold in the harder timing regime too.
#[test]
fn invariant_checker_passes_leading_control_fr() {
    let shared = SharedSink::new(InvariantChecker::new());
    let cfg = FrConfig::fr6().with_timing(LinkTiming::leading_control(2));
    let mut net = traced(&FlowControl::FlitReservation(cfg), 0.4, 31, shared.clone());
    net.run_cycles(1_500);
    net.stop_injection();
    net.run_cycles(3_000);
    assert_eq!(net.tracker().in_flight(), 0);
    drop(net);
    let checker = shared.into_inner();
    checker.assert_clean();
    checker.assert_drained();
}

/// The control-wire error model retries are themselves traced, and the
/// run stays invariant-clean while retrying.
#[test]
fn invariant_checker_passes_with_control_errors() {
    let shared = SharedSink::new(InvariantChecker::new());
    let mut net = traced(&FlowControl::fr6(), 0.3, 17, shared.clone());
    net.set_control_error_rate(0.02, 0xBAD5EED);
    net.run_cycles(1_500);
    net.stop_injection();
    net.run_cycles(4_000);
    assert_eq!(net.tracker().in_flight(), 0);
    let retries = net.control_retries();
    assert!(retries > 0, "a 2% error rate must produce some retries");
    drop(net);
    let checker = shared.into_inner();
    checker.assert_clean();
    checker.assert_drained();
}
