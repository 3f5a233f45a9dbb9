//! Chaos suite: whole simulations under active fault plans, audited
//! event by event by the [`InvariantChecker`].
//!
//! Each run injects CRC-caught data corruption, dropped-then-repaired
//! control flits and one permanent link failure, then drains with
//! injection stopped. The checks are the acceptance criteria of the
//! reliability layer: every packet is delivered exactly once (the
//! tracker rejects duplicates, the checker proves per-seq single
//! ejection), every injected flit copy is either ejected or explicitly
//! discarded, retransmission counts are bounded by the NACKs and
//! timeouts that caused them, and dead links are masked while traffic
//! keeps flowing around them.

mod common;

use common::mesh4_net;
use frfc::engine::trace::{InvariantChecker, SharedSink};
use frfc::faults::{DeadLink, FaultPlan};
use frfc::metrics::NullRecorder;
use frfc::network::{AnyNetwork, FaultSummary, FlowControl};
use frfc::topology::{Mesh, Port};

type Checker = SharedSink<InvariantChecker>;

/// `flow`'s network with every router and the harness feeding the
/// checker.
fn traced(flow: &FlowControl, load: f64, seed: u64, sink: Checker) -> AnyNetwork<Checker, Checker> {
    mesh4_net(flow, load, seed, sink.clone(), sink, NullRecorder)
}

/// A transient-plus-permanent plan sized for a short 4x4 test run: rates
/// high enough to fire dozens of times, recovery knobs fast enough that
/// the drain converges in a few thousand cycles.
fn chaos_plan(seed: u64, mesh: Mesh) -> FaultPlan {
    let mut plan = FaultPlan::quiet(seed);
    plan.data_corrupt_rate = 2e-3;
    plan.control_drop_rate = 2e-3;
    plan.repair_delay = 4;
    plan.ack_latency = 8;
    plan.retransmit_timeout = 64;
    plan.max_backoff_exp = 2;
    plan.dead_links.push(DeadLink {
        node: mesh.node_at(1, 1),
        port: Port::East,
        at_cycle: 300,
    });
    plan
}

/// Runs until drained (bounded), then returns the fault summary.
fn run_and_drain(net: &mut AnyNetwork<Checker, Checker>) -> FaultSummary {
    net.run_cycles(2_000);
    net.stop_injection();
    for _ in 0..20 {
        if net.tracker().in_flight() == 0 {
            break;
        }
        net.run_cycles(1_000);
    }
    assert_eq!(
        net.tracker().in_flight(),
        0,
        "packets stuck in flight after a 20k-cycle drain under faults"
    );
    net.fault_summary().expect("fault layer must be armed")
}

fn check_protocol_accounting(label: &str, s: &FaultSummary) {
    let c = s.counters;
    assert!(c.data_corrupted > 0, "{label}: plan never corrupted a flit");
    assert!(
        c.corrupt_discarded <= c.data_corrupted,
        "{label}: more corrupt discards than corruptions"
    );
    assert!(
        c.retransmits <= c.nacks + c.timeout_retransmits,
        "{label}: retransmits unaccounted for by NACKs and timeouts"
    );
    assert_eq!(c.links_masked, 1, "{label}: dead link not applied");
    assert_eq!(
        s.retransmit_buffered, 0,
        "{label}: retransmit buffer not empty after drain"
    );
}

/// Runs `flow` under the chaos plan and audits exactly-once delivery;
/// returns the fault summary for family-specific checks.
fn survives_chaos(flow: &FlowControl, seed: u64, plan_seed: u64) -> FaultSummary {
    let mesh = Mesh::new(4, 4);
    let label = flow.label();
    let shared = SharedSink::new(InvariantChecker::new());
    let mut net = traced(flow, 0.4, seed, shared.clone());
    net.set_fault_plan(chaos_plan(plan_seed, mesh));
    let summary = run_and_drain(&mut net);
    check_protocol_accounting(&label, &summary);
    assert!(
        net.tracker().delivered_packets() > 100,
        "want a non-trivial sample, got {}",
        net.tracker().delivered_packets()
    );
    drop(net);
    let checker = shared.into_inner();
    assert!(
        checker.discarded_flits() > 0,
        "{label}: corrupt copies must be discarded at the NI"
    );
    checker.assert_drained_under_faults();
    summary
}

#[test]
fn vc_survives_chaos_with_exactly_once_delivery() {
    survives_chaos(&FlowControl::vc8(), 101, 0xC0A5);
}

#[test]
fn fr_survives_chaos_with_exactly_once_delivery() {
    let summary = survives_chaos(&FlowControl::fr6(), 102, 0xC0A6);
    assert!(
        summary.counters.control_dropped > 0,
        "FR6: plan never dropped a control flit"
    );
}

/// A permanent failure alone (no transient faults): routing must mask
/// the link, traffic must keep draining, and no retransmission machinery
/// should fire — CRC never fails, so no NACK is ever issued.
#[test]
fn dead_link_alone_degrades_gracefully_without_retransmits() {
    let mesh = Mesh::new(4, 4);
    for (label, chaos) in [("VC8", false), ("FR6", true)] {
        let shared = SharedSink::new(InvariantChecker::new());
        let mut plan = FaultPlan::quiet(7);
        plan.dead_links.push(DeadLink {
            node: mesh.node_at(1, 1),
            port: Port::East,
            at_cycle: 200,
        });
        let flow = if chaos {
            FlowControl::fr6()
        } else {
            FlowControl::vc8()
        };
        let mut net = traced(&flow, 0.35, 103, shared.clone());
        net.set_fault_plan(plan);
        let summary = run_and_drain(&mut net);
        drop(net);
        assert_eq!(summary.counters.links_masked, 1, "{label}");
        assert_eq!(
            summary.counters.retransmits, 0,
            "{label}: masking a link must not trigger retransmission"
        );
        assert_eq!(summary.counters.nacks, 0, "{label}");
        let checker = shared.into_inner();
        assert_eq!(
            checker.discarded_flits(),
            0,
            "{label}: no corruption, so nothing to discard"
        );
        checker.assert_drained_under_faults();
    }
}

/// The same chaos schedule replayed twice must produce the same protocol
/// activity, flit for flit — the fault layer is part of the seed path.
#[test]
fn chaos_runs_replay_deterministically() {
    let mesh = Mesh::new(4, 4);
    let mut summaries = Vec::new();
    let mut delivered = Vec::new();
    for _ in 0..2 {
        let shared = SharedSink::new(InvariantChecker::new());
        let mut net = traced(&FlowControl::fr6(), 0.4, 104, shared.clone());
        net.set_fault_plan(chaos_plan(0xC0A7, mesh));
        summaries.push(run_and_drain(&mut net));
        delivered.push(net.tracker().delivered_packets());
    }
    assert_eq!(summaries[0], summaries[1], "fault activity must replay");
    assert_eq!(delivered[0], delivered[1], "deliveries must replay");
}
