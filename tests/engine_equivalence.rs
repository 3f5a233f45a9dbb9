//! Differential tests for the phase-separated stepping engine.
//!
//! The engine refactor's contract is *trace equality*: idle-skipping and
//! step-phase sharding are pure performance features, so a run with them
//! on must produce an event stream bit-identical to a run with them off.
//! This suite pins that contract across traffic patterns (uniform,
//! transpose, hotspot), loads (low, moderate, near-saturation) and both
//! router microarchitectures (VC baseline, flit-reservation).
//!
//! Two comparisons per configuration:
//!
//! * **idle-skip on vs. off** — fully traced (every router plus the
//!   harness feed one shared [`VecSink`]), so any divergence down to a
//!   single buffer allocation or switch traversal fails the test;
//! * **sharded vs. sequential step phase** — traced at network level
//!   (injections, ejections, deliveries). [`SharedSink`] is deliberately
//!   not [`Send`], so routers stepped concurrently cannot share a sink;
//!   the per-router stream is instead covered by the sequential
//!   comparison above, and sharding only reorders *stepping*, never the
//!   cross-router effects, which all commit in the sequential apply
//!   phase.

use frfc::engine::trace::{NullSink, SharedSink, TraceEvent, TraceSink, VecSink};
use frfc::engine::Rng;
use frfc::faults::FaultPlan;
use frfc::metrics::NullRecorder;
use frfc::network::{AnyNetwork, FlowControl};
use frfc::topology::Mesh;
use frfc::traffic::{
    Hotspot, InjectionKind, LoadSpec, TrafficGenerator, TrafficPattern, Transpose, Uniform,
};

const MESH: (u16, u16) = (4, 4);
const PACKET_FLITS: u32 = 5;

/// A named factory producing fresh boxed copies of one traffic pattern.
type PatternFactory = (&'static str, Box<dyn Fn() -> Box<dyn TrafficPattern>>);

/// The traffic patterns the suite sweeps.
fn patterns(mesh: Mesh) -> Vec<PatternFactory> {
    let hotspot = mesh.node_at(1, 1);
    vec![
        (
            "uniform",
            Box::new(|| Box::new(Uniform) as Box<dyn TrafficPattern>) as _,
        ),
        (
            "transpose",
            Box::new(|| Box::new(Transpose) as Box<dyn TrafficPattern>) as _,
        ),
        (
            "hotspot",
            Box::new(move || Box::new(Hotspot::new(hotspot, 0.2)) as Box<dyn TrafficPattern>) as _,
        ),
    ]
}

/// `flow` on the 4×4 mesh with `pattern` traffic (stream 99); routers
/// trace into `router_sink`, the harness into `sink`.
fn net<RS: TraceSink + Clone, S: TraceSink>(
    flow: &FlowControl,
    pattern: Box<dyn TrafficPattern>,
    load: f64,
    seed: u64,
    router_sink: RS,
    sink: S,
) -> AnyNetwork<RS, S> {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let root = Rng::from_seed(seed);
    let generator = TrafficGenerator::new(
        mesh,
        LoadSpec::fraction_of_capacity(load, PACKET_FLITS),
        pattern,
        InjectionKind::ConstantRate,
        root.fork(99),
    );
    flow.build(mesh, generator, &root, router_sink, sink, NullRecorder)
}

/// Fully traced sequential run; returns the complete event stream.
fn full_trace(
    flow: &FlowControl,
    pattern: Box<dyn TrafficPattern>,
    load: f64,
    seed: u64,
    idle_skip: bool,
    cycles: u64,
    drain: u64,
) -> Vec<TraceEvent> {
    let shared = SharedSink::new(VecSink::new());
    let mut net = net(flow, pattern, load, seed, shared.clone(), shared.clone());
    net.set_idle_skip(idle_skip);
    net.run_cycles(cycles);
    net.stop_injection();
    net.run_cycles(drain);
    assert_eq!(net.tracker().in_flight(), 0, "network must drain");
    drop(net);
    shared.into_inner().into_events()
}

/// Network-level trace of a run whose step phase is sharded over
/// `threads` worker threads (untraced routers: they must be `Send`).
fn network_trace_sharded(
    make: impl FnOnce(VecSink) -> AnyNetwork<NullSink, VecSink>,
    threads: usize,
    cycles: u64,
    drain: u64,
) -> Vec<TraceEvent> {
    let mut net = make(VecSink::new());
    if threads == 1 {
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

/// The load points swept: low (where idle-skip matters most), moderate,
/// and near saturation (where nearly every router is always awake).
const LOADS: [f64; 3] = [0.1, 0.4, 0.7];

/// Idle-skip on vs off over the pattern × load matrix, fully traced.
fn idle_skip_preserves_full_trace(flow: &FlowControl, seed_base: u64) {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let label = flow.label();
    for (name, make_pattern) in patterns(mesh) {
        for (i, &load) in LOADS.iter().enumerate() {
            let seed = seed_base + i as u64;
            let skip = full_trace(flow, make_pattern(), load, seed, true, 700, 3_000);
            let step = full_trace(flow, make_pattern(), load, seed, false, 700, 3_000);
            assert!(!skip.is_empty(), "{name}@{load}: run produced no events");
            assert_eq!(
                skip, step,
                "{name}@{load}: idle-skip changed the {label} event stream"
            );
        }
    }
}

/// Sequential vs 4-thread sharded stepping over the same matrix, traced
/// at network level.
fn sharded_step_preserves_network_trace(flow: &FlowControl, seed_base: u64) {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let label = flow.label();
    for (name, make_pattern) in patterns(mesh) {
        for (i, &load) in LOADS.iter().enumerate() {
            let seed = seed_base + i as u64;
            let trace = |threads| {
                let make = |s| net(flow, make_pattern(), load, seed, NullSink, s);
                network_trace_sharded(make, threads, 700, 3_000)
            };
            let (seq, par) = (trace(1), trace(4));
            assert!(!seq.is_empty(), "{name}@{load}: run produced no events");
            assert_eq!(
                seq, par,
                "{name}@{load}: sharding changed the {label} network trace"
            );
        }
    }
}

#[test]
fn fr_idle_skip_preserves_full_trace() {
    idle_skip_preserves_full_trace(&FlowControl::fr6(), 0x1000);
}

#[test]
fn vc_idle_skip_preserves_full_trace() {
    idle_skip_preserves_full_trace(&FlowControl::vc8(), 0x2000);
}

#[test]
fn fr_sharded_step_preserves_network_trace() {
    sharded_step_preserves_network_trace(&FlowControl::fr6(), 0x3000);
}

#[test]
fn vc_sharded_step_preserves_network_trace() {
    sharded_step_preserves_network_trace(&FlowControl::vc8(), 0x4000);
}

/// Sharding composes with idle-skipping off too: the skip flag and the
/// thread count are independent axes, and every combination must agree.
#[test]
fn sharding_and_idle_skip_axes_are_independent() {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let hotspot = mesh.node_at(1, 1);
    let make = |skip: bool, sink: VecSink| {
        let mut net = net(
            &FlowControl::fr6(),
            Box::new(Hotspot::new(hotspot, 0.2)),
            0.3,
            0x5005,
            NullSink,
            sink,
        );
        net.set_idle_skip(skip);
        net
    };
    let mut traces = Vec::new();
    for skip in [true, false] {
        for threads in [1, 3] {
            let t = network_trace_sharded(|s| make(skip, s), threads, 700, 3_000);
            assert!(!t.is_empty());
            traces.push(t);
        }
    }
    for t in &traces[1..] {
        assert_eq!(&traces[0], t, "some (skip, threads) combination diverged");
    }
}

/// Faults, sharding and idle-skipping are three independent engine
/// features, and all eight combinations must agree. A corrupt+drop
/// fault plan forces the sharded engine onto its sequential-apply
/// fallback (fault RNG rides on sends) and keeps the fault-event /
/// generation ordering visible; the naive path — idle-skip off, plain
/// `cycle()` — is the reference every combination must replay
/// bit-for-bit.
#[test]
fn faulty_run_composes_with_sharding_and_idle_skip() {
    let mut plan = FaultPlan::quiet(0xFA17);
    plan.data_corrupt_rate = 2e-3;
    plan.control_drop_rate = 2e-3;
    plan.repair_delay = 4;
    plan.ack_latency = 8;
    plan.retransmit_timeout = 64;
    plan.max_backoff_exp = 2;
    let run = |skip: bool, threads: usize| {
        let mut net = net(
            &FlowControl::fr6(),
            Box::new(Uniform),
            0.4,
            0x7007,
            NullSink,
            VecSink::new(),
        );
        net.set_fault_plan(plan.clone());
        net.set_idle_skip(skip);
        if threads == 1 {
            net.run_cycles(800);
            net.stop_injection();
            net.run_cycles(6_000);
        } else {
            net.run_cycles_sharded(800, threads);
            net.stop_injection();
            net.run_cycles_sharded(6_000, threads);
        }
        assert_eq!(net.tracker().in_flight(), 0, "faulty run must drain");
        let summary = net.fault_summary().expect("fault layer armed");
        (summary, net.tracer().events().to_vec())
    };
    let (naive_faults, naive) = run(false, 1);
    assert!(!naive.is_empty());
    // Non-vacuous: the plan actually corrupted and dropped something.
    assert!(
        naive_faults.counters.data_corrupted > 0,
        "corrupt rate must fire in the reference run"
    );
    assert!(
        naive_faults.counters.control_dropped > 0,
        "drop rate must fire in the reference run"
    );
    for skip in [false, true] {
        for threads in [1usize, 2, 4] {
            if !skip && threads == 1 {
                continue; // the reference itself
            }
            let (faults, events) = run(skip, threads);
            assert_eq!(
                faults.counters, naive_faults.counters,
                "skip={skip} threads={threads}: fault schedule diverged"
            );
            assert_eq!(
                naive, events,
                "skip={skip} threads={threads}: event stream diverged from naive path"
            );
        }
    }
}

/// The control-error model draws its RNG in the sequential apply phase,
/// so even a lossy control wire must not break sharded determinism.
#[test]
fn sharded_step_is_deterministic_under_control_errors() {
    let run = |threads: usize| {
        let mut net = net(
            &FlowControl::fr6(),
            Box::new(Uniform),
            0.3,
            0x6006,
            NullSink,
            VecSink::new(),
        );
        net.set_control_error_rate(0.02, 0xBAD5EED);
        if threads == 1 {
            net.run_cycles(700);
            net.stop_injection();
            net.run_cycles(4_000);
        } else {
            net.run_cycles_sharded(700, threads);
            net.stop_injection();
            net.run_cycles_sharded(4_000, threads);
        }
        assert_eq!(net.tracker().in_flight(), 0);
        assert!(net.control_retries() > 0, "2% error rate must retry");
        (net.control_retries(), net.tracer().events().to_vec())
    };
    let (seq_retries, seq) = run(1);
    let (par_retries, par) = run(4);
    assert_eq!(seq_retries, par_retries);
    assert_eq!(seq, par, "error-model RNG must be thread-count invariant");
}
