//! Acceptance suite for the blackbox observability layer.
//!
//! Three properties pin the flight recorder, the state-dump/replay
//! substrate and the progress watchdog:
//!
//! * **Zero perturbation** — running with a `RingSink` flight recorder
//!   teed next to a full `VecSink` reproduces the committed golden trace
//!   fingerprints (`tests/golden/staged_traces.txt`) bit for bit, and
//!   the ring holds exactly the tail of the full stream with an exact
//!   dropped count. The recorder observes; it never steers.
//! * **Replay equality** — a state dump captured at a cycle replays to
//!   the identical `state_digest` on 1, 4 and 8 threads, for both
//!   router families, with and without an active fault plan.
//! * **Watchdog** — a constructed dead-link livelock (every eastbound
//!   link out of column 0 cut at cycle 0) trips the progress watchdog,
//!   and the captured crash sidecar round-trips through the text form
//!   and replays cleanly.
//!
//! The networks come from the shared staged-golden recipe
//! (`tests/common`) — the golden fingerprints were blessed through it,
//! and this suite's whole point is to rerun it with the recorder armed.

mod common;

use common::{fault_plan, fingerprint, golden_net, golden_net_line, run_to_drain_seq, MESH};
use frfc::engine::trace::{RingSink, TeeSink, TraceEvent, VecSink};
use frfc::faults::{DeadLink, FaultPlan};
use frfc::metrics::{json_diff, Json, NullRecorder};
use frfc::network::{capture_at_cycle, replay_to_cycle, FlowControl, RunSpec, Schedule, Trigger};
use frfc::topology::{Mesh, Port};
use frfc::vc::VcConfig;

/// Small enough that every golden cell overflows it, so the wraparound
/// path (not just the filling path) is what the proof exercises.
const RING_CAP: usize = 256;

/// `spec` with `inject_cycles` of traffic and a 20k-cycle drain cap.
fn injecting(spec: RunSpec, inject_cycles: u64) -> RunSpec {
    RunSpec {
        schedule: Schedule::InjectThenDrain {
            inject_cycles,
            drain_cap: 20_000,
        },
        ..spec
    }
}

/// The ring must be a pure observer: with a `RingSink` teed next to the
/// full recording, the full stream still matches the golden fingerprint
/// blessed *without* any ring, and the ring holds exactly the stream's
/// tail with an exact eviction count.
#[test]
fn ring_recorder_is_zero_perturbation() {
    let load = 0.55;
    for family in ["vc8", "fr6"] {
        for faults in [false, true] {
            let tee = TeeSink::new(VecSink::new(), RingSink::new(RING_CAP));
            let mut net = golden_net(family, load, faults, tee.clone(), tee, NullRecorder);
            run_to_drain_seq(&mut net);
            let (full, ring) = (net.tracer().a.events().to_vec(), net.tracer().b.clone());
            let cell = format!("{family} load={load:.2} faults={faults}");
            let (want_count, want_hash) = golden_net_line(family, load, faults);
            assert_eq!(full.len(), want_count, "{cell}: event count perturbed");
            assert_eq!(
                fingerprint(&full),
                want_hash,
                "{cell}: ring-armed trace diverged from the golden fingerprint"
            );
            let tail: Vec<TraceEvent> = ring.events().copied().collect();
            assert!(
                full.len() > RING_CAP,
                "{cell}: cell too small to wrap the ring"
            );
            assert_eq!(tail.len(), RING_CAP, "{cell}: ring not full");
            assert_eq!(
                tail.as_slice(),
                &full[full.len() - RING_CAP..],
                "{cell}: ring does not hold the stream's tail"
            );
            assert_eq!(
                ring.dropped() as usize,
                full.len() - RING_CAP,
                "{cell}: eviction count wrong"
            );
        }
    }
}

/// A dump captured at a cycle replays to the identical digest on 1, 4
/// and 8 threads, for both families — and a capture taken *by* a
/// sharded run equals the sequential capture.
#[test]
fn replay_digest_matches_across_thread_counts() {
    for flow in [
        FlowControl::fr6(),
        FlowControl::VirtualChannel(VcConfig::vc8(), frfc::flow::LinkTiming::fast_control()),
    ] {
        let config = flow.label();
        let spec = injecting(
            RunSpec {
                flow,
                ..RunSpec::fr6_small(0xB1_AC)
            },
            150,
        );
        let sidecar = capture_at_cycle(&spec, 220).expect("capture");
        for threads in [1usize, 4, 8] {
            let report = replay_to_cycle(&sidecar, threads).expect("replay");
            assert!(
                report.matches(),
                "{config}: replay at {threads} threads diverged \
                 (expected {} got {}, first diff {:?})",
                report.expected_digest,
                report.live_digest,
                report.diffs.first()
            );
        }
        let sharded =
            capture_at_cycle(&RunSpec { threads: 4, ..spec }, 220).expect("sharded capture");
        assert_eq!(
            sidecar.get("state_digest").and_then(Json::as_str),
            sharded.get("state_digest").and_then(Json::as_str),
            "{config}: sharded capture digest differs from sequential"
        );
    }
}

/// A replay that disagrees with its capture says where: one leaf of the
/// captured state, edited, is the one difference reported, although the
/// recorded digest still equals the live one.
#[test]
fn replay_of_an_edited_state_reports_exactly_the_edited_leaf() {
    let spec = injecting(RunSpec::fr6_small(0xED_17), 150);
    let mut sidecar = capture_at_cycle(&spec, 200).expect("capture");
    let leaf = ["state", "tracker", "delivered_flits"]
        .iter()
        .fold(&mut sidecar, |node, key| match node {
            Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("{key}: not an object"),
        });
    let delivered = leaf.as_f64().expect("a count");
    *leaf = Json::Num(delivered + 1.0);
    let report = replay_to_cycle(&sidecar, 1).expect("replay");
    assert!(!report.matches(), "an edited state must not replay clean");
    assert_eq!(report.expected_digest, report.live_digest);
    let paths: Vec<&str> = report.diffs.iter().map(|d| d.path.as_str()).collect();
    assert_eq!(paths, ["$.tracker.delivered_flits"], "{:?}", report.diffs);
}

/// Replay equality holds with the staged-golden fault plan active —
/// capture lands after the dead link fires, mid-retransmission.
#[test]
fn replay_digest_matches_under_an_active_fault_plan() {
    let mut spec = injecting(RunSpec::fr6_small(0xFA_CE), 350);
    spec.fault = Some(fault_plan(0xFA_02, Mesh::new(MESH.0, MESH.1)));
    let sidecar = capture_at_cycle(&spec, 450).expect("capture");
    for threads in [1usize, 4, 8] {
        let report = replay_to_cycle(&sidecar, threads).expect("replay");
        assert!(
            report.matches(),
            "faulted replay at {threads} threads diverged \
             (expected {} got {}, first diff {:?})",
            report.expected_digest,
            report.live_digest,
            report.diffs.first()
        );
    }
}

/// A constructed livelock: cutting every eastbound link out of column 0
/// strands eastbound traffic injected there, so after the deliverable
/// packets drain the network makes no progress with packets still in
/// flight.
fn livelock_spec() -> RunSpec {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let mut spec = RunSpec::fr6_small(0xDEAD_0001);
    spec.watchdog = Some(500);
    spec.fault = Some(FaultPlan {
        dead_links: (0..MESH.1)
            .map(|y| DeadLink {
                node: mesh.node_at(0, y),
                port: Port::East,
                at_cycle: 0,
            })
            .collect(),
        ..FaultPlan::quiet(0xFA_11)
    });
    spec
}

/// The watchdog catches the constructed livelock at a pinned cycle and
/// state, and the crash sidecar survives a text round trip and replays
/// bit for bit at 1, 4 and 8 threads.
#[test]
fn watchdog_catches_a_dead_link_livelock() {
    let run = livelock_spec()
        .run()
        .expect("run")
        .blackbox
        .expect("blackbox run");
    assert_eq!(
        run.trigger,
        Trigger::Watchdog,
        "expected a watchdog trip, got: {}",
        run.detail
    );
    assert_eq!(run.cycles, 818);
    assert_eq!(
        run.detail,
        "no delivery progress for 500 cycles with 397 packets in flight"
    );
    let sidecar = run.sidecar.expect("watchdog trip captures a sidecar");
    assert_eq!(
        sidecar.get("state_digest").and_then(Json::as_str),
        Some("f2cc1ab9aaa381b6")
    );
    assert_eq!(
        sidecar.get("trigger").and_then(Json::as_str),
        Some("watchdog")
    );
    assert!(
        sidecar.get("in_flight").and_then(Json::as_u64).unwrap_or(0) > 0,
        "a livelock sidecar must show packets still in flight"
    );
    let ring_events = sidecar
        .get("ring")
        .and_then(|r| r.get("events"))
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    assert!(ring_events > 0, "flight recorder captured nothing");

    // The sidecar is a disk artefact: render -> parse must be lossless.
    let reparsed = Json::parse(&sidecar.render()).expect("sidecar reparses");
    assert!(
        json_diff(&sidecar, &reparsed).is_empty(),
        "sidecar changed across the text round trip"
    );

    for threads in [1usize, 4, 8] {
        let report = replay_to_cycle(&reparsed, threads).expect("replay");
        assert!(
            report.matches(),
            "livelock replay at {threads} threads diverged \
             (expected {} got {}, first diff {:?})",
            report.expected_digest,
            report.live_digest,
            report.diffs.first()
        );
    }
}

/// Counts the lanes `doc`'s lane dumps list and the `true` flags of its
/// downstream-VC owner tables.
fn live_lanes_and_owned_vcs(doc: &Json) -> (usize, usize) {
    let sum = |a: (usize, usize), b: (usize, usize)| (a.0 + b.0, a.1 + b.1);
    match doc {
        Json::Obj(pairs) => pairs.iter().fold((0, 0), |acc, (key, v)| {
            let own = match (key.as_str(), v) {
                ("lanes", Json::Arr(lanes)) => (lanes.len(), 0),
                ("owned" | "vc_owner", Json::Arr(flags))
                    if flags.iter().all(|f| f.as_bool().is_some()) =>
                {
                    (0, flags.iter().filter(|&f| *f == Json::Bool(true)).count())
                }
                _ => live_lanes_and_owned_vcs(v),
            };
            sum(acc, own)
        }),
        Json::Arr(items) => items.iter().map(live_lanes_and_owned_vcs).fold((0, 0), sum),
        _ => (0, 0),
    }
}

/// The drained digests pinned by `frfc-sim`'s tests hold no live lane,
/// so these pins capture both families mid-run, with lanes queued and
/// downstream VCs owned: the lane, owner and credit rendering of the
/// shared virtual-channel port is covered bit for bit.
#[test]
fn live_lane_state_digests_are_pinned() {
    let fr6 = RunSpec {
        load: 0.8,
        ..RunSpec::fr6_small(0x5EED)
    };
    let vc8 = RunSpec {
        flow: FlowControl::vc8(),
        ..fr6.clone()
    };
    for (spec, digest, live) in [
        (fr6, "fea8059ff208d0c0", (81, 43)),
        (vc8, "959135db10f136e4", (89, 57)),
    ] {
        let config = spec.flow.label();
        let sidecar = capture_at_cycle(&spec, 250).expect("capture");
        let state = sidecar.get("state").expect("dump has a state");
        assert_eq!(
            live_lanes_and_owned_vcs(state),
            live,
            "{config}: live lanes and owned downstream VCs"
        );
        assert_eq!(
            sidecar.get("state_digest").and_then(Json::as_str),
            Some(digest),
            "{config}: live-lane state digest moved"
        );
    }
}

/// A mid-injection FR dump carries live reservation-table timelines —
/// the `busy` strings `frfc-inspect show` renders must have substance.
#[test]
fn state_dump_carries_reservation_timelines() {
    let mut spec = RunSpec::fr6_small(0x71_3E);
    spec.load = 0.6;
    let sidecar = capture_at_cycle(&spec, 120).expect("capture");
    let routers = sidecar
        .get("state")
        .and_then(|s| s.get("routers"))
        .and_then(Json::as_array)
        .expect("dump has routers");
    let reserved: usize = routers
        .iter()
        .flat_map(|r| {
            r.get("reservation")
                .and_then(|s| s.get("tables"))
                .and_then(Json::as_array)
                .into_iter()
                .flatten()
        })
        .filter_map(|e| {
            e.get("table")
                .and_then(|t| t.get("busy"))
                .and_then(Json::as_str)
        })
        .map(|busy| busy.chars().filter(|&c| c == 'X').count())
        .sum();
    assert!(
        reserved > 0,
        "mid-injection FR dump shows no reserved output slots"
    );
}
