//! Helpers shared by the integration suites: the two paper flow
//! controls, the tiny methodology config and thread matrix, and the
//! staged-golden recipe of the suites that replay
//! `tests/golden/staged_traces.txt` — one fingerprint, one fault plan,
//! one network builder and one inject-then-drain drive. The fixture was
//! blessed through exactly this recipe (4×4 mesh, 5-flit packets,
//! traffic stream 99, seed `0x601D + load%`).

// Each suite includes this module and uses a different subset of it.
#![allow(dead_code)]

use frfc::engine::trace::{TraceEvent, TraceSink};
use frfc::engine::warmup::WarmupConfig;
use frfc::engine::Rng;
use frfc::faults::{DeadLink, FaultPlan};
use frfc::fr::FrRouter;
use frfc::metrics::MetricsRegistry;
use frfc::metrics::Recorder;
use frfc::network::{AnyNetwork, FlowControl, RunResult, RunSpec, SimConfig};
use frfc::topology::{Mesh, Port};
use frfc::traffic::{LoadSpec, TrafficGenerator};
use frfc::vc::VcRouter;
use std::fmt::Write as _;

pub const MESH: (u16, u16) = (4, 4);
pub const PACKET_FLITS: u32 = 5;

/// VC8 and FR6, the storage-matched pair every claim compares.
pub fn families() -> [FlowControl; 2] {
    [FlowControl::vc8(), FlowControl::fr6()]
}

/// A methodology small enough for the full matrices in the debug
/// profile while still exercising warm-up, measurement and drain.
pub fn tiny_sim(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        warmup: WarmupConfig {
            min_cycles: 400,
            max_cycles: 3_000,
            window: 4,
            tolerance: 0.1,
        },
        sample_packets: 150,
        drain_cap: 6_000,
        warmup_probe_period: 16,
    }
}

/// Thread counts the equivalence suites sweep, with CI's
/// `FRFC_THREADS` pin appended. 1 exercises the planned engine's inline
/// path; 2/4/8 real concurrent shard rounds (8 shards on a 16-node mesh
/// leaves two nodes per shard, maximising hand-off traffic).
pub fn thread_matrix() -> Vec<usize> {
    let mut threads = vec![1, 2, 4, 8];
    if let Ok(v) = std::env::var("FRFC_THREADS") {
        let n: usize = v
            .parse()
            .unwrap_or_else(|_| panic!("FRFC_THREADS must be a positive integer, got {v}"));
        if n > 0 && !threads.contains(&n) {
            threads.push(n);
        }
    }
    threads
}

/// One metered methodology run of `fc` on the 4×4 mesh (5-flit packets,
/// series every 32 cycles) on `threads` workers, sequential at 1.
pub fn metered(
    fc: &FlowControl,
    load: f64,
    sim: SimConfig,
    threads: usize,
) -> (RunResult, MetricsRegistry) {
    let spec = RunSpec {
        threads,
        metrics_period: Some(32),
        ..RunSpec::new(
            fc.clone(),
            Mesh::new(MESH.0, MESH.1),
            load,
            PACKET_FLITS,
            sim,
        )
    };
    let out = spec.run().expect("valid spec");
    (out.result.expect("result"), out.registry.expect("registry"))
}

pub const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/staged_traces.txt"
);

/// FNV-1a over the debug rendering of every event: cheap,
/// dependency-free and sensitive to any reordering, relabeling or drop.
pub fn fingerprint(events: &[TraceEvent]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut line = String::new();
    for event in events {
        line.clear();
        write!(line, "{event:?}").expect("format into string");
        for &b in line.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= 0x0a;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The chaos-suite fault plan scaled for these runs: transient data
/// corruption, control drops and one permanent link failure at cycle 300.
pub fn fault_plan(seed: u64, mesh: Mesh) -> FaultPlan {
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

/// A golden family's flow control and the seed of its fault plan.
pub fn family(name: &str) -> (FlowControl, u64) {
    match name {
        "vc8" => (FlowControl::vc8(), 0xFA_01),
        "fr6" => (FlowControl::fr6(), 0xFA_02),
        other => panic!("unknown family {other}"),
    }
}

/// `flow` on the 4×4 mesh at `load` with 5-flit packets, traffic on
/// stream 99 of the root seed.
pub fn mesh4_net<RS: TraceSink + Clone, S: TraceSink, M: Recorder>(
    flow: &FlowControl,
    load: f64,
    seed: u64,
    router_sink: RS,
    sink: S,
    metrics: M,
) -> AnyNetwork<RS, S, M> {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let root = Rng::from_seed(seed);
    let spec = LoadSpec::fraction_of_capacity(load, PACKET_FLITS);
    let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
    flow.build(mesh, generator, &root, router_sink, sink, metrics)
}

/// One golden cell's network, its fault plan armed when `faults`.
pub fn golden_net<RS: TraceSink + Clone, S: TraceSink, M: Recorder>(
    name: &str,
    load: f64,
    faults: bool,
    router_sink: RS,
    sink: S,
    metrics: M,
) -> AnyNetwork<RS, S, M> {
    let (flow, fault_seed) = family(name);
    let seed = 0x60_1D + (load * 100.0) as u64;
    let mut net = mesh4_net(&flow, load, seed, router_sink, sink, metrics);
    if faults {
        net.set_fault_plan(fault_plan(fault_seed, Mesh::new(MESH.0, MESH.1)));
    }
    net
}

/// Injects for 500 cycles, then drains in bounded chunks (fault plans
/// with retransmission need an open-ended drain), stepping with `run`.
fn drive<RS: TraceSink, S: TraceSink, M: Recorder>(
    net: &mut AnyNetwork<RS, S, M>,
    mut run: impl FnMut(&mut AnyNetwork<RS, S, M>, u64),
) {
    run(net, 500);
    net.stop_injection();
    for _ in 0..20 {
        if net.tracker().in_flight() == 0 {
            break;
        }
        run(net, 1_000);
    }
    assert_eq!(net.tracker().in_flight(), 0, "network failed to drain");
}

/// [`drive`] on the sequential engine (`threads == 0`) or sharded.
pub fn run_to_drain<RS: TraceSink, S: TraceSink, M: Recorder>(
    net: &mut AnyNetwork<RS, S, M>,
    threads: usize,
) where
    VcRouter<RS>: Send,
    FrRouter<RS>: Send,
{
    drive(net, |net, cycles| {
        if threads == 0 {
            net.run_cycles(cycles);
        } else {
            net.run_cycles_sharded(cycles, threads);
        }
    });
}

/// [`drive`] for routers carrying a non-`Send` shared sink.
pub fn run_to_drain_seq<RS: TraceSink, S: TraceSink, M: Recorder>(net: &mut AnyNetwork<RS, S, M>) {
    drive(net, |net, cycles| net.run_cycles(cycles));
}

/// Looks up one `net` line of the golden fixture: (event count, fnv).
pub fn golden_net_line(family: &str, load: f64, faults: bool) -> (usize, u64) {
    let fixture = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden fixture missing; bless it via tests/staged_golden.rs");
    let needle = format!("net {family} load={load:.2} faults={faults} ");
    let line = fixture
        .lines()
        .find(|l| l.starts_with(&needle))
        .unwrap_or_else(|| panic!("fixture has no line starting with `{needle}`"));
    let field = |prefix: &str| -> &str {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("`{line}` lacks a {prefix} field"))
    };
    let count = field("events=").parse().expect("events field parses");
    let hash = u64::from_str_radix(field("fnv="), 16).expect("fnv field parses");
    (count, hash)
}
