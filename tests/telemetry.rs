//! The windowed-telemetry acceptance suite.
//!
//! The telemetry layer's contract has two halves:
//!
//! * **Zero perturbation** — arming windows and the runtime profiler
//!   must not change the simulation by a single bit. Proven here by
//!   recomputing the golden network-trace fingerprints of
//!   `tests/golden/staged_traces.txt` with telemetry on: any divergence
//!   from the fixture (captured with telemetry off) fails the suite.
//! * **Shard-merge determinism** — a windowed export is a function of
//!   the simulated history, not of how the stepping was parallelised.
//!   Proven by byte-comparing stripped exports across 1/2/4/8 worker
//!   threads (plus CI's `FRFC_THREADS` pin) and across *random* shard
//!   partitions — arbitrary cut points, empty shards, single-node
//!   shards.
//!
//! On top sit the accounting identities: every Sum window's values must
//! sum exactly to the aggregate counter of the same name, and the
//! profiler must attribute the engine's measured wall-clock to named
//! phases.

mod common;

use common::{
    families, golden_net, golden_net_line, mesh4_net, run_to_drain, thread_matrix, tiny_sim, MESH,
    PACKET_FLITS,
};
use frfc::engine::propcheck::{check, vec_of};
use frfc::engine::trace::{NullSink, VecSink};
use frfc::metrics::{strip_nondeterministic, MetricsRegistry, RunManifest, WindowKind};
use frfc::network::{AnyNetwork, FlowControl, RunOutput, RunSpec, ShardPlan};
use frfc::topology::Mesh;

const LOADS: [f64; 3] = [0.2, 0.55, 0.8];
const WINDOW_LOG2: u32 = 6;

/// A telemetry-armed golden cell: network-level tracer for the
/// fingerprint, metrics registry with windows and the profiler on.
fn net_telemetry(
    family: &str,
    load: f64,
    faults: bool,
) -> AnyNetwork<NullSink, VecSink, MetricsRegistry> {
    let mut net = golden_net(
        family,
        load,
        faults,
        NullSink,
        VecSink::new(),
        MetricsRegistry::new(),
    );
    net.set_telemetry_windows(WINDOW_LOG2);
    net.set_profiling(true);
    net
}

/// Telemetry on, profiler on: the network trace must still match the
/// golden fingerprints captured with both off — on the sequential
/// engine and under concurrent shard rounds.
#[test]
fn telemetry_does_not_perturb_golden_traces() {
    for family in ["vc8", "fr6"] {
        for &load in &LOADS {
            for faults in [false, true] {
                for threads in [0usize, 4] {
                    let mut net = net_telemetry(family, load, faults);
                    run_to_drain(&mut net, threads);
                    let events = net.tracer().events();
                    let (want_events, want_fnv) = golden_net_line(family, load, faults);
                    assert_eq!(
                        (events.len(), common::fingerprint(events)),
                        (want_events, want_fnv),
                        "{family}@{load} faults={faults} threads={threads}: \
                         telemetry-on trace diverged from the golden fixture"
                    );
                }
            }
        }
    }
}

/// One telemetry-armed methodology run on `threads` workers.
fn telemetry_run(fc: &FlowControl, load: f64, seed: u64, threads: usize) -> RunOutput {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let spec = RunSpec {
        threads,
        metrics_period: Some(32),
        telemetry_window_log2: Some(WINDOW_LOG2),
        ..RunSpec::new(fc.clone(), mesh, load, PACKET_FLITS, tiny_sim(seed))
    };
    spec.run().expect("valid spec")
}

/// One telemetry run rendered with a fixed manifest and stripped of
/// wall-clock data, so only the simulated history remains.
fn stripped_export(fc: &FlowControl, load: f64, seed: u64, threads: usize) -> String {
    let registry = telemetry_run(fc, load, seed, threads)
        .registry
        .expect("registry");
    let manifest = RunManifest::new("telemetry", seed, "tiny", fc.label());
    let mut doc = registry.to_json(&manifest);
    strip_nondeterministic(&mut doc);
    doc.render()
}

#[test]
fn windowed_export_is_byte_identical_across_thread_counts() {
    for fc in families() {
        let label = fc.label();
        for (i, &load) in LOADS.iter().enumerate() {
            let seed = 0x7E1E + i as u64;
            let base = stripped_export(&fc, load, seed, 1);
            assert!(
                base.contains("\"windows\""),
                "{label}@{load}: export carries no windows object"
            );
            for &threads in &thread_matrix()[1..] {
                let export = stripped_export(&fc, load, seed, threads);
                assert_eq!(
                    base, export,
                    "{label}@{load}: {threads}-thread windowed export diverged"
                );
            }
        }
    }
}

/// Drives one telemetry run under an arbitrary shard partition and
/// byte-compares the stripped export against the sequential baseline.
fn partition_export(cuts: Option<&[usize]>) -> String {
    let fr6 = FlowControl::fr6();
    let mut net = mesh4_net(
        &fr6,
        0.55,
        0x9A9A,
        NullSink,
        VecSink::new(),
        MetricsRegistry::new(),
    );
    net.set_telemetry_windows(WINDOW_LOG2);
    net.set_profiling(true);
    match cuts {
        None => {
            net.run_cycles(500);
            net.stop_injection();
            net.run_cycles(6_000);
        }
        Some(cuts) => {
            let nodes = net.mesh().node_count();
            net.set_shard_plan(ShardPlan::from_cuts(nodes, cuts));
            net.run_cycles_planned(500);
            net.stop_injection();
            net.run_cycles_planned(6_000);
        }
    }
    assert_eq!(net.tracker().in_flight(), 0, "network must drain");
    net.flush_metrics();
    let registry = std::mem::take(net.metrics_mut());
    let manifest = RunManifest::new("telemetry", 0x9A9A, "tiny", "FR6");
    let mut doc = registry.to_json(&manifest);
    strip_nondeterministic(&mut doc);
    doc.render()
}

#[test]
fn windowed_export_is_byte_identical_across_random_shard_partitions() {
    let sequential = partition_export(None);
    assert!(sequential.contains("\"windows\""));
    // Cuts may exceed the node count (from_cuts clamps), repeat (empty
    // shards) or be absent entirely (one shard).
    check(8, vec_of(0usize..20, 0..6), |cuts| {
        assert_eq!(
            sequential,
            partition_export(Some(&cuts)),
            "partition {cuts:?} changed the windowed export"
        );
    });
}

#[test]
fn window_sums_equal_aggregate_totals_and_profiler_attributes() {
    for fc in families() {
        let label = fc.label();
        for threads in [1usize, 4] {
            let run = telemetry_run(&fc, 0.55, 0xACC7, threads);
            let (result, reg, profile) = (
                run.result.expect("result"),
                run.registry.expect("registry"),
                run.profile.expect("profile"),
            );
            let mut sums = 0;
            for (name, w) in reg.windows() {
                if w.kind == WindowKind::Sum {
                    assert_eq!(
                        reg.window_total(name),
                        reg.counter(name) as f64,
                        "{label} threads={threads}: window {name} does not sum to its aggregate"
                    );
                    sums += 1;
                }
            }
            assert!(
                sums >= 8,
                "{label} threads={threads}: expected >= 8 Sum windows, found {sums}"
            );
            // The delivered-packet windows must also account for every
            // latency sample the run measured plus the warm-up/drain
            // deliveries — i.e. everything the tracker saw.
            assert!(
                reg.counter("net.delivered_packets") >= result.delivered,
                "{label} threads={threads}: fewer deliveries recorded than sampled"
            );
            // Debug builds time the same phases release builds do; the
            // release gate in telemetry_report --quick holds the 95%
            // acceptance line, this guards against gross regressions.
            assert!(
                profile.attributed_fraction() >= 0.90,
                "{label} threads={threads}: profiler attributes only {:.1}%",
                profile.attributed_fraction() * 100.0
            );
            assert_eq!(profile.threads as usize, threads);
        }
    }
}

/// Arming telemetry must not change the measurement record either: the
/// full methodology run (warm-up detection included) lands on the same
/// numbers as the uninstrumented harness.
#[test]
fn telemetry_run_result_matches_uninstrumented_run() {
    let mesh = Mesh::new(MESH.0, MESH.1);
    for fc in families() {
        let label = fc.label();
        let plain = fc.run(mesh, 0.55, PACKET_FLITS, &tiny_sim(0xBEE));
        let telem = telemetry_run(&fc, 0.55, 0xBEE, 1).result.expect("result");
        assert_eq!(plain.delivered, telem.delivered, "{label}");
        assert_eq!(plain.end_cycle, telem.end_cycle, "{label}");
        assert_eq!(plain.measure_start, telem.measure_start, "{label}");
        assert_eq!(
            plain.mean_latency().to_bits(),
            telem.mean_latency().to_bits(),
            "{label}"
        );
        assert_eq!(
            plain.accepted_fraction.to_bits(),
            telem.accepted_fraction.to_bits(),
            "{label}"
        );
    }
}
