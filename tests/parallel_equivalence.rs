//! The parallel-determinism suite: sharded multi-core stepping is a pure
//! performance feature, bit-identical to the sequential engine.
//!
//! The sharded engine runs deliver/offer/step concurrently on per-shard
//! slabs and hands cross-shard flits over in per-shard outboxes published
//! at the phase barrier, never mid-step. Its contract is equality, not
//! similarity: for every thread count, both router families and loads
//! from light to near-saturation, a sharded run must reproduce the
//! sequential run's **network trace** (every injection, ejection and
//! delivery, in order) and its **metrics export** (every counter, gauge
//! and series, byte-identical after wall-clock stripping).
//!
//! On top of the fixed thread-count matrix, property tests drive the
//! engine with *random* shard partitions — arbitrary cut points, empty
//! shards, single-node shards — and check the physical invariants
//! directly: every injected packet is delivered exactly once
//! (conservation) and the network drains to empty.

mod common;

use common::{families, mesh4_net, metered, thread_matrix, tiny_sim};
use frfc::engine::propcheck::{check, vec_of};
use frfc::engine::trace::{NullSink, TraceEvent, TraceKind, VecSink};
use frfc::metrics::{strip_nondeterministic, MetricsRegistry, NullRecorder, RunManifest};
use frfc::network::{AnyNetwork, FlowControl, ShardPlan};
use std::collections::BTreeSet;

/// The load matrix from the issue: light, moderate, near-saturation.
const LOADS: [f64; 3] = [0.2, 0.55, 0.8];

type TracedNet = AnyNetwork<NullSink, VecSink>;

/// `flow` on the 4×4 mesh, network-level trace only.
fn net(flow: &FlowControl, load: f64, seed: u64, sink: VecSink) -> TracedNet {
    mesh4_net(flow, load, seed, NullSink, sink, NullRecorder)
}

/// Injects, stops, drains; returns the full network-level event stream.
/// `threads == 0` is the sequential baseline ([`Network::cycle`]);
/// anything else steps sharded.
fn run_trace(mut net: TracedNet, threads: usize, cycles: u64, drain: u64) -> Vec<TraceEvent> {
    if threads == 0 {
        net.run_cycles(cycles);
        net.stop_injection();
        net.run_cycles(drain);
    } else {
        net.run_cycles_sharded(cycles, threads);
        net.stop_injection();
        net.run_cycles_sharded(drain, threads);
    }
    assert_eq!(net.tracker().in_flight(), 0, "network must drain");
    net.tracer().events().to_vec()
}

/// Every thread count reproduces the sequential trace at every load.
fn trace_is_identical_across_thread_counts(flow: &FlowControl, seed_base: u64) {
    let label = flow.label();
    for (i, &load) in LOADS.iter().enumerate() {
        let seed = seed_base + i as u64;
        let trace = |threads| run_trace(net(flow, load, seed, VecSink::new()), threads, 500, 6_000);
        let sequential = trace(0);
        assert!(
            !sequential.is_empty(),
            "{label}@{load}: run produced no events"
        );
        for threads in thread_matrix() {
            assert_eq!(
                sequential,
                trace(threads),
                "{label}@{load}: {threads}-thread trace diverged from sequential"
            );
        }
    }
}

#[test]
fn fr_trace_is_identical_across_all_thread_counts_and_loads() {
    trace_is_identical_across_thread_counts(&FlowControl::fr6(), 0xF100);
}

#[test]
fn vc_trace_is_identical_across_all_thread_counts_and_loads() {
    trace_is_identical_across_thread_counts(&FlowControl::vc8(), 0xC100);
}

/// Stripped JSON export of one metered methodology run (series every 32
/// cycles), plus the facts of its `RunResult` that must be thread-count
/// invariant. `threads == 0` steps the sequential engine; any other
/// width the planned engine, inline at 1.
fn metered_export(fc: &FlowControl, load: f64, seed: u64, threads: usize) -> (String, Vec<u64>) {
    let mut net = mesh4_net(fc, load, seed, NullSink, NullSink, MetricsRegistry::new());
    net.set_metrics_period(32);
    let result = net.simulate_on(&tiny_sim(seed), threads);
    let reg = std::mem::take(net.metrics_mut());
    let manifest = RunManifest::new("parallel-equivalence", seed, "tiny", fc.label());
    let mut doc = reg.to_json(&manifest);
    strip_nondeterministic(&mut doc);
    let facts = vec![
        result.delivered,
        result.end_cycle,
        result.measure_start,
        u64::from(result.completed),
        result.mean_latency().to_bits(),
        result.accepted_fraction.to_bits(),
    ];
    (doc.render(), facts)
}

#[test]
fn metrics_export_is_identical_across_all_thread_counts_and_loads() {
    for fc in families() {
        let label = fc.label();
        for (i, &load) in LOADS.iter().enumerate() {
            let seed = 0xE100 + i as u64;
            // The sequential engine is the reference every planned width,
            // the one-thread inline path included, must reproduce.
            let (base_json, base_facts) = metered_export(&fc, load, seed, 0);
            for threads in thread_matrix() {
                let (json, facts) = metered_export(&fc, load, seed, threads);
                assert_eq!(
                    base_facts, facts,
                    "{label}@{load}: {threads}-thread RunResult diverged"
                );
                assert_eq!(
                    base_json, json,
                    "{label}@{load}: {threads}-thread metrics export diverged"
                );
            }
        }
    }
}

/// Anchors the matrix above to the plain sequential harness: the metered
/// run sharded over four threads must equal the sequential one exactly.
#[test]
fn metered_sharded_run_matches_the_sequential_harness() {
    for fc in families() {
        let label = fc.label();
        let (seq_result, seq_reg) = metered(&fc, 0.55, tiny_sim(0xA11), 1);
        let (shr_result, shr_reg) = metered(&fc, 0.55, tiny_sim(0xA11), 4);
        assert_eq!(seq_result.delivered, shr_result.delivered, "{label}");
        assert_eq!(seq_result.end_cycle, shr_result.end_cycle, "{label}");
        assert_eq!(
            seq_result.mean_latency().to_bits(),
            shr_result.mean_latency().to_bits(),
            "{label}"
        );
        let manifest = RunManifest::new("parallel-equivalence", 0xA11, "tiny", label.clone());
        let mut seq_doc = seq_reg.to_json(&manifest);
        let mut shr_doc = shr_reg.to_json(&manifest);
        strip_nondeterministic(&mut seq_doc);
        strip_nondeterministic(&mut shr_doc);
        assert_eq!(
            seq_doc.render(),
            shr_doc.render(),
            "{label}: sharded metered export diverged from the sequential run"
        );
    }
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

fn delivered_set(events: &[TraceEvent]) -> BTreeSet<u64> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::PacketDelivered { packet, .. } => Some(packet),
            _ => None,
        })
        .collect()
}

/// Drives one run under an arbitrary shard partition and checks the
/// physical invariants plus trace equality against `sequential`.
fn check_partition(mut net: TracedNet, cuts: &[usize], sequential: &[TraceEvent]) {
    let nodes = net.mesh().node_count();
    let plan = ShardPlan::from_cuts(nodes, cuts);
    let threads = plan.shards();
    net.set_shard_plan(plan);
    net.run_cycles_sharded(500, threads);
    net.stop_injection();
    net.run_cycles_sharded(6_000, threads);
    // Drained invariant: nothing in flight once injection stops and the
    // drain window passes.
    assert_eq!(
        net.tracker().in_flight(),
        0,
        "partition {cuts:?} left flits in flight"
    );
    let events = net.tracer().events();
    // Conservation: every injected packet is delivered, none invented.
    let injected = injected_set(events);
    let delivered = delivered_set(events);
    assert!(!injected.is_empty(), "partition {cuts:?} injected nothing");
    assert_eq!(
        injected, delivered,
        "partition {cuts:?} broke packet conservation"
    );
    // And the full stream still matches the sequential engine.
    assert_eq!(
        sequential, events,
        "partition {cuts:?} diverged from the sequential trace"
    );
}

#[test]
fn random_shard_partitions_preserve_fr_invariants() {
    let fr6 = FlowControl::fr6();
    let sequential = run_trace(net(&fr6, 0.55, 0x9A9A, VecSink::new()), 0, 500, 6_000);
    // Cuts may exceed the node count (from_cuts clamps), repeat (empty
    // shards) or be absent entirely (one shard).
    check(10, vec_of(0usize..20, 0..6), |cuts| {
        check_partition(net(&fr6, 0.55, 0x9A9A, VecSink::new()), &cuts, &sequential);
    });
}

#[test]
fn random_shard_partitions_preserve_vc_invariants() {
    let vc8 = FlowControl::vc8();
    let sequential = run_trace(net(&vc8, 0.55, 0x9B9B, VecSink::new()), 0, 500, 6_000);
    check(6, vec_of(0usize..20, 0..6), |cuts| {
        check_partition(net(&vc8, 0.55, 0x9B9B, VecSink::new()), &cuts, &sequential);
    });
}
