//! Golden-trace differential suite for the pipeline-stage refactor.
//!
//! The staged routers must be *bit-identical* to the pre-refactor
//! monolithic step functions. This suite pins the full behavior of both
//! router families with fingerprints captured from the pre-refactor
//! code and committed in `tests/golden/staged_traces.txt`:
//!
//! * **network-level** streams (injections, deliveries, fault events)
//!   for every (family × load × faults) cell, proven equal across the
//!   sequential engine and 1/4-thread sharded stepping before being
//!   compared against the golden fingerprint;
//! * **router-level** streams (every queue enq/deq, VC/data send,
//!   credit, grant, reservation and stall marker) for the same cells on
//!   the sequential engine — the strongest equality the tracing layer
//!   can express.
//!
//! Regenerate the fixture with `FRFC_BLESS=1 cargo test -q --test
//! staged_golden` — but only when a behavior change is *intended*; the
//! whole point of this file is that the stage refactor is not one.

mod common;

use common::{fingerprint, golden_net, run_to_drain, run_to_drain_seq, GOLDEN_PATH};
use frfc::engine::trace::{SharedSink, VecSink};
use frfc::metrics::NullRecorder;

/// The acceptance matrix from the issue: light, moderate, near-saturation.
const LOADS: [f64; 3] = [0.2, 0.55, 0.8];

/// Thread counts the refactor must hold bit-identity under: 0 is the
/// plain sequential engine, 1 the planned engine's inline path, 4 real
/// concurrent shard rounds.
const THREADS: [usize; 3] = [0, 1, 4];

/// One golden cell: the fingerprint and event count of a run.
fn net_cell(family: &str, load: f64, faults: bool, threads: usize) -> (u64, usize) {
    let sink = VecSink::new();
    let mut net = golden_net(family, load, faults, sink.clone(), sink, NullRecorder);
    run_to_drain(&mut net, threads);
    let events = net.tracer().events();
    (fingerprint(events), events.len())
}

/// Router-level cell: full per-router event streams through a shared
/// sink (single-threaded only — the shared sink is deliberately `Rc`).
fn router_cell(family: &str, load: f64, faults: bool) -> (u64, usize) {
    let shared = SharedSink::new(VecSink::new());
    let mut net = golden_net(
        family,
        load,
        faults,
        shared.clone(),
        shared.clone(),
        NullRecorder,
    );
    run_to_drain_seq(&mut net);
    drop(net);
    let events = shared.into_inner().into_events();
    (fingerprint(&events), events.len())
}

fn families() -> [&'static str; 2] {
    ["vc8", "fr6"]
}

/// Computes every golden line in a stable order.
fn compute_goldens() -> Vec<String> {
    let mut lines = Vec::new();
    for family in families() {
        for &load in &LOADS {
            for faults in [false, true] {
                // Network level: all thread counts must agree before the
                // fingerprint is compared against the fixture.
                let (hash, count) = net_cell(family, load, faults, 0);
                for &threads in &THREADS[1..] {
                    let (h, c) = net_cell(family, load, faults, threads);
                    assert_eq!(
                        (h, c),
                        (hash, count),
                        "{family}@{load} faults={faults}: {threads}-thread \
                         trace diverged from sequential"
                    );
                }
                lines.push(format!(
                    "net {family} load={load:.2} faults={faults} events={count} fnv={hash:016x}"
                ));
                let (rhash, rcount) = router_cell(family, load, faults);
                lines.push(format!(
                    "router {family} load={load:.2} faults={faults} events={rcount} fnv={rhash:016x}"
                ));
            }
        }
    }
    lines
}

#[test]
fn staged_routers_match_pre_refactor_golden_traces() {
    let lines = compute_goldens();
    if std::env::var("FRFC_BLESS").is_ok() {
        std::fs::write(GOLDEN_PATH, lines.join("\n") + "\n").expect("write golden fixture");
        eprintln!("blessed {} golden lines to {GOLDEN_PATH}", lines.len());
        return;
    }
    let fixture = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden fixture missing; run with FRFC_BLESS=1 to create it");
    let want: Vec<&str> = fixture.lines().collect();
    let got: Vec<&str> = lines.iter().map(String::as_str).collect();
    assert_eq!(
        want, got,
        "staged routers diverged from the pre-refactor golden traces"
    );
}
