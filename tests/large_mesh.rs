//! Large-mesh smoke: the full stack at scale, under heavy load.
//!
//! Every other suite runs on small meshes where a bug that only shows at
//! scale — a buffer pool that leaks one slot per thousand allocations, a
//! shard boundary off-by-one on meshes wider than a shard, a provenance
//! fold that misattributes long multi-hop spans — would never fire. This
//! suite pushes both router families across a large mesh at load 0.8
//! (near saturation) and checks the strongest end-state claims we have:
//! full delivery, a clean invariant audit with every buffer freed
//! ([`InvariantChecker::assert_drained`]), exact per-flit provenance
//! sums, and sharded-equals-sequential at a scale where shards span
//! multiple mesh rows.
//!
//! Two sizes share the test bodies:
//!
//! * the default **quick** variant (16×16) runs in the tier-1 suite and
//!   CI's debug profile;
//! * `FRFC_LARGE=full` switches to the full 32×32 mesh — minutes, not
//!   seconds, meant for release-profile soak runs.

use frfc::engine::trace::{InvariantChecker, NullSink, SharedSink, TraceSink, VecSink};
use frfc::engine::warmup::WarmupConfig;
use frfc::engine::Rng;
use frfc::metrics::NullRecorder;
use frfc::network::{AnyNetwork, FlowControl, RunSpec, SimConfig};
use frfc::topology::Mesh;
use frfc::traffic::{LoadSpec, TrafficGenerator};

const LOAD: f64 = 0.8;
const PACKET_FLITS: u32 = 5;

/// One scale of the smoke run.
struct Scale {
    mesh: Mesh,
    /// Cycles of injection before the drain.
    inject: u64,
    /// Drain budget: cycles allowed for the last flit to land.
    drain_cap: u64,
}

/// `FRFC_LARGE=full` selects the 32×32 mesh; anything else (including
/// unset — the CI quick variant) the 16×16 mesh.
fn scale() -> Scale {
    if std::env::var("FRFC_LARGE").as_deref() == Ok("full") {
        Scale {
            mesh: Mesh::new(32, 32),
            inject: 400,
            drain_cap: 40_000,
        }
    } else {
        Scale {
            mesh: Mesh::new(16, 16),
            inject: 150,
            drain_cap: 16_000,
        }
    }
}

/// `flow` on `mesh` at the heavy load (traffic stream 99).
fn net<RS: TraceSink + Clone, S: TraceSink>(
    flow: &FlowControl,
    mesh: Mesh,
    seed: u64,
    router_sink: RS,
    sink: S,
) -> AnyNetwork<RS, S> {
    let root = Rng::from_seed(seed);
    let spec = LoadSpec::fraction_of_capacity(LOAD, PACKET_FLITS);
    let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
    flow.build(mesh, generator, &root, router_sink, sink, NullRecorder)
}

/// Stops injection and steps until the tracker reports empty, within the
/// scale's drain budget.
fn drain<RS: TraceSink, S: TraceSink>(net: &mut AnyNetwork<RS, S>, cap: u64) {
    net.stop_injection();
    let mut waited = 0;
    while net.tracker().in_flight() > 0 && waited < cap {
        net.run_cycles(200);
        waited += 200;
    }
    assert_eq!(
        net.tracker().in_flight(),
        0,
        "mesh failed to drain within {cap} cycles of stopping injection"
    );
}

/// Full-delivery + drained-audit smoke: every router feeds the
/// invariant checker, so the end state proves every buffer freed and
/// every injected flit ejected exactly once.
fn delivers_everything_and_drains(flow: &FlowControl, seed: u64) {
    let s = scale();
    let shared = SharedSink::new(InvariantChecker::new());
    let mut net = net(flow, s.mesh, seed, shared.clone(), shared.clone());
    net.run_cycles(s.inject);
    drain(&mut net, s.drain_cap);
    let delivered = net.tracker().delivered_packets();
    assert!(
        delivered > s.mesh.node_count() as u64,
        "heavy load must deliver a dense sample, got {delivered} packets"
    );
    drop(net);
    let checker = shared.into_inner();
    assert!(checker.events_seen() > 100_000, "expect a dense audit");
    checker.assert_drained();
}

#[test]
fn fr_large_mesh_at_heavy_load_delivers_everything_and_drains() {
    delivers_everything_and_drains(&FlowControl::fr6(), 0x1A26E);
}

/// The same smoke for the VC baseline.
#[test]
fn vc_large_mesh_at_heavy_load_delivers_everything_and_drains() {
    delivers_everything_and_drains(&FlowControl::vc8(), 0x1A26F);
}

/// Sharded stepping at a scale where a shard owns multiple full mesh
/// rows: the network trace (every injection, ejection, delivery) must
/// match the sequential engine flit for flit.
#[test]
fn large_mesh_sharded_trace_matches_sequential() {
    let s = scale();
    let mesh = s.mesh;
    let run = |threads: usize| {
        let mut net = net(&FlowControl::fr6(), mesh, 0x5CA1E, NullSink, VecSink::new());
        if threads > 1 {
            net.run_cycles_sharded(s.inject, threads);
            net.stop_injection();
            let mut waited = 0;
            while net.tracker().in_flight() > 0 && waited < s.drain_cap {
                net.run_cycles_sharded(200, threads);
                waited += 200;
            }
        } else {
            net.run_cycles(s.inject);
            drain(&mut net, s.drain_cap);
        }
        assert_eq!(net.tracker().in_flight(), 0, "{threads}-thread drain");
        (
            net.tracker().delivered_packets(),
            net.tracer().events().to_vec(),
        )
    };
    let (seq_delivered, seq) = run(1);
    assert!(!seq.is_empty());
    let (par_delivered, par) = run(4);
    assert_eq!(seq_delivered, par_delivered);
    assert_eq!(seq, par, "sharded large-mesh trace diverged");
}

/// Exact provenance sums at scale: on long multi-hop paths every
/// sampled flit's phase attribution must still tile its measured
/// end-to-end latency cycle for cycle, for both families.
#[test]
fn large_mesh_provenance_sums_are_exact() {
    let s = scale();
    let sim = SimConfig {
        seed: 0xB16_F1A7,
        warmup: WarmupConfig {
            min_cycles: 200,
            max_cycles: 1_500,
            window: 4,
            tolerance: 0.1,
        },
        sample_packets: 200,
        drain_cap: s.drain_cap,
        warmup_probe_period: 16,
    };
    for fc in [FlowControl::fr6(), FlowControl::vc8()] {
        let label = fc.label();
        // Sample sparsely: the claim is exactness per record, not volume.
        let spec = RunSpec {
            provenance_sample_every: Some(61),
            ..RunSpec::new(fc, s.mesh, LOAD, PACKET_FLITS, sim)
        };
        let report = spec
            .run()
            .expect("valid spec")
            .provenance
            .expect("provenance run");
        assert_eq!(report.malformed, 0, "{label}: malformed folds");
        assert!(!report.records.is_empty(), "{label}: nothing sampled");
        for r in &report.records {
            let mut prev_depart = 0;
            for hop in &r.hops {
                assert!(hop.arrive >= prev_depart, "{label}: hops out of order");
                prev_depart = hop.depart;
            }
            assert_eq!(
                r.attributed(),
                r.end_to_end(),
                "{label}: flit ({}, {}) attribution != end-to-end latency",
                r.packet,
                r.seq
            );
        }
    }
}
