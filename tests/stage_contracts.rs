//! Contract suite for the staged router pipelines.
//!
//! Three layers of checking, weakest to strongest:
//!
//! * **checker-level** — drive [`StageContractChecker`] directly with
//!   well-formed and malformed request/grant streams and pin down
//!   exactly which contract each `code::*` constant enforces;
//! * **whole-router** — run both router families with contract checks
//!   enabled under load (with and without faults) and assert every
//!   router finishes contract-clean *and* the engine's
//!   `InvariantChecker` saw no `StageContractViolation` events;
//! * **arbiter swap** — the switch-allocation stage is the pluggable
//!   one, so the round-robin and age-based variants must pass the same
//!   whole-router gauntlet as the paper's random arbiter, and must stay
//!   trace-identical between the sequential engine and sharded
//!   stepping (they are *not* compared to the golden fixture — only
//!   `ArbiterKind::Random` reproduces the blessed traces).
//!
//! CI's staged-differential job re-runs this file across a
//! `FRFC_THREADS` × `FRFC_ARBITER` matrix; both env vars are honored
//! below.

mod common;

use common::{fault_plan, fingerprint, mesh4_net, run_to_drain, run_to_drain_seq, MESH};
use frfc::engine::trace::{InvariantChecker, SharedSink, TraceSink, VecSink};
use frfc::engine::Cycle;
use frfc::flow::pipeline::{
    code, ReservationGrant, ReservationRequest, StageContractChecker, SwitchBid, SwitchContender,
    VcAllocGrant, VcAllocRequest,
};
use frfc::flow::{ArbiterKind, LinkTiming};
use frfc::metrics::NullRecorder;
use frfc::network::{AnyNetwork, FlowControl};
use frfc::topology::{Mesh, Port};
use frfc::vc::VcConfig;

const LOAD: f64 = 0.55;
const SEED: u64 = 0xC0_47;

// ---------------------------------------------------------------------------
// Harness (the staged-golden recipe of tests/common, own seed and load)
// ---------------------------------------------------------------------------

/// `flow` on the 4×4 mesh (traffic stream 99) with every router and the
/// harness tracing into clones of `sink`, contract checks optional.
fn net<S: TraceSink + Clone>(
    flow: &FlowControl,
    load: f64,
    seed: u64,
    sink: S,
    checks: bool,
) -> AnyNetwork<S, S> {
    let mut net = mesh4_net(flow, load, seed, sink.clone(), sink, NullRecorder);
    if checks {
        match &mut net {
            AnyNetwork::Vc(n) => n.routers_mut().for_each(|r| r.enable_contract_checks()),
            AnyNetwork::Fr(n) => n.routers_mut().for_each(|r| r.enable_contract_checks()),
        }
    }
    net
}

fn vc(cfg: VcConfig) -> FlowControl {
    FlowControl::VirtualChannel(cfg, LinkTiming::fast_control())
}

fn shard_threads() -> usize {
    match std::env::var("FRFC_THREADS") {
        Ok(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&t| t > 0)
            .unwrap_or_else(|| panic!("FRFC_THREADS must be a positive integer, got {v}")),
        Err(_) => 4,
    }
}

/// Arbiter variants under test: `FRFC_ARBITER` pins one (the CI matrix
/// does this), the default exercises both non-random variants — the
/// random arbiter already carries the full golden suite.
fn arbiter_kinds() -> Vec<ArbiterKind> {
    match std::env::var("FRFC_ARBITER") {
        Ok(v) => {
            let kind = ArbiterKind::from_label(&v)
                .unwrap_or_else(|| panic!("FRFC_ARBITER must name an arbiter, got {v}"));
            vec![kind]
        }
        Err(_) => vec![ArbiterKind::RoundRobin, ArbiterKind::AgeBased],
    }
}

// ---------------------------------------------------------------------------
// Checker-level: the contracts themselves
// ---------------------------------------------------------------------------

fn vc_req(in_port: Port, in_vc: usize, out_port: Port) -> VcAllocRequest {
    VcAllocRequest {
        in_port,
        in_vc,
        out_port,
    }
}

#[test]
fn checker_accepts_well_formed_streams() {
    // A multi-cycle stream shaped like a real driver's: requests before
    // grants, nominations before switch grants, grants before
    // traversals, one traversal per output. A cheap LCG varies ports
    // and VCs so the stream is not one fixed pattern.
    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rand = move |m: u64| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((lcg >> 33) % m) as usize
    };
    const PORTS: [Port; 5] = [
        Port::Local,
        Port::North,
        Port::East,
        Port::South,
        Port::West,
    ];

    let mut ck = StageContractChecker::new();
    for cycle in 0..200u64 {
        ck.begin_cycle();
        let now = Cycle::new(cycle);

        // VC allocation: distinct inputs request, grants hand out
        // distinct (out_port, out_vc) pairs.
        let n_req = rand(4);
        for i in 0..n_req {
            let req = vc_req(PORTS[i], i % 2, PORTS[(i + 1 + rand(3)) % 5]);
            ck.note_vc_request(req);
            if rand(2) == 0 {
                ck.note_vc_grant(&req, VcAllocGrant { out_vc: i as u8 });
            }
        }

        // Switch allocation: each input nominates at most once; each
        // output grants one of its bidders; each granted output is
        // traversed at most once.
        let mut granted: Vec<Port> = Vec::new();
        for (i, &in_port) in PORTS.iter().enumerate().take(1 + rand(4)) {
            let out_port = PORTS[(i + 1) % 5];
            let bid = SwitchBid {
                in_vc: rand(4),
                out_port,
                arrived: now,
            };
            ck.note_nomination(in_port, bid);
            if !granted.contains(&out_port) {
                ck.note_switch_grant(
                    out_port,
                    SwitchContender {
                        in_port,
                        in_vc: bid.in_vc,
                        arrived: bid.arrived,
                    },
                );
                granted.push(out_port);
            }
        }
        for &out_port in &granted {
            if rand(4) != 0 {
                ck.note_traversal(out_port);
            }
        }

        // Reservation matching: every grant answers a request and never
        // departs before it arrives.
        for i in 0..rand(3) {
            let req = ReservationRequest {
                in_port: PORTS[i],
                out_port: PORTS[(i + 2) % 5],
                arrival: Cycle::new(cycle + 3),
                min_free: 1,
                allow_bypass: i == 0,
            };
            ck.note_reservation_request(req);
            if rand(2) == 0 {
                let grant = ReservationGrant {
                    departure: Cycle::new(cycle + 3 + rand(5) as u64),
                };
                ck.note_reservation_grant(&req, grant);
            }
        }

        assert!(
            ck.end_cycle().is_empty(),
            "well-formed cycle {cycle} flagged: {:?}",
            ck.violations()
        );
    }
    ck.assert_clean();
    assert_eq!(ck.violation_count(), 0);
}

#[test]
fn checker_flags_each_contract_breach() {
    // One minimal malformed stream per contract code, each in its own
    // cycle so the codes cannot mask each other.
    let mut ck = StageContractChecker::new();
    let req = vc_req(Port::North, 0, Port::East);

    // 1: grant with no matching request.
    ck.begin_cycle();
    ck.note_vc_grant(&req, VcAllocGrant { out_vc: 0 });
    assert_eq!(ck.end_cycle(), &[code::VC_GRANT_WITHOUT_REQUEST]);

    // Requests do not leak across begin_cycle: the same grant is
    // flagged again next cycle even after a cycle that requested it.
    ck.begin_cycle();
    ck.note_vc_request(req);
    ck.note_vc_grant(&req, VcAllocGrant { out_vc: 0 });
    assert!(ck.end_cycle().is_empty());
    ck.begin_cycle();
    ck.note_vc_grant(&req, VcAllocGrant { out_vc: 0 });
    assert_eq!(ck.end_cycle(), &[code::VC_GRANT_WITHOUT_REQUEST]);

    // 2: the same downstream VC granted twice in one cycle.
    ck.begin_cycle();
    ck.note_vc_request(req);
    let rival = vc_req(Port::South, 1, Port::East);
    ck.note_vc_request(rival);
    ck.note_vc_grant(&req, VcAllocGrant { out_vc: 3 });
    ck.note_vc_grant(&rival, VcAllocGrant { out_vc: 3 });
    assert_eq!(ck.end_cycle(), &[code::VC_DOUBLE_GRANT]);

    // 3: one input nominating twice.
    let bid = SwitchBid {
        in_vc: 0,
        out_port: Port::East,
        arrived: Cycle::new(1),
    };
    ck.begin_cycle();
    ck.note_nomination(Port::North, bid);
    ck.note_nomination(Port::North, bid);
    assert_eq!(ck.end_cycle(), &[code::DOUBLE_NOMINATION]);

    // 4: a switch grant to a flit nobody nominated.
    ck.begin_cycle();
    ck.note_switch_grant(
        Port::East,
        SwitchContender {
            in_port: Port::North,
            in_vc: 0,
            arrived: Cycle::new(1),
        },
    );
    assert_eq!(ck.end_cycle(), &[code::GRANT_WITHOUT_BID]);

    // 5: a granted output traversed twice.
    ck.begin_cycle();
    ck.note_nomination(Port::North, bid);
    ck.note_switch_grant(
        Port::East,
        SwitchContender {
            in_port: Port::North,
            in_vc: 0,
            arrived: Cycle::new(1),
        },
    );
    ck.note_traversal(Port::East);
    ck.note_traversal(Port::East);
    assert_eq!(ck.end_cycle(), &[code::DOUBLE_TRAVERSAL]);

    // 6: a traversal with no grant at all.
    ck.begin_cycle();
    ck.note_traversal(Port::West);
    assert_eq!(ck.end_cycle(), &[code::TRAVERSAL_WITHOUT_GRANT]);

    // 5 again, via the FR data path's grant-free variant: two scheduled
    // departures on one output channel in one cycle.
    ck.begin_cycle();
    ck.note_departure(Port::South);
    ck.note_departure(Port::South);
    assert_eq!(ck.end_cycle(), &[code::DOUBLE_TRAVERSAL]);

    // 7: a reservation grant with no matching request.
    let res = ReservationRequest {
        in_port: Port::North,
        out_port: Port::East,
        arrival: Cycle::new(10),
        min_free: 1,
        allow_bypass: false,
    };
    ck.begin_cycle();
    ck.note_reservation_grant(
        &res,
        ReservationGrant {
            departure: Cycle::new(12),
        },
    );
    assert_eq!(ck.end_cycle(), &[code::RESERVATION_GRANT_WITHOUT_REQUEST]);

    // 8: a departure scheduled before the flit arrives.
    ck.begin_cycle();
    ck.note_reservation_request(res);
    ck.note_reservation_grant(
        &res,
        ReservationGrant {
            departure: Cycle::new(9),
        },
    );
    assert_eq!(ck.end_cycle(), &[code::RESERVATION_BEFORE_ARRIVAL]);

    assert!(!ck.is_clean());
    assert_eq!(ck.violation_count(), 10);
    assert_eq!(ck.violations().len(), 10);
}

// ---------------------------------------------------------------------------
// Whole-router: staged drivers keep the contracts under load
// ---------------------------------------------------------------------------

/// Asserts every router's stage-contract checker is enabled and clean.
fn assert_router_contracts<S: TraceSink>(net: &AnyNetwork<S, S>, what: &str) {
    let checkers: Vec<_> = match net {
        AnyNetwork::Vc(n) => n.routers().map(|r| r.contract_checker()).collect(),
        AnyNetwork::Fr(n) => n.routers().map(|r| r.contract_checker()).collect(),
    };
    for ck in checkers {
        let ck = ck.expect("contract checks were enabled");
        assert!(ck.is_clean(), "{what}: {:?}", ck.violations());
    }
}

/// Runs `flow` with contract checks on, with and without the fault plan
/// seeded `fault_seed`: every router must finish contract-clean and the
/// invariant checker must see no violation.
fn contracts_hold_under_load(flow: &FlowControl, fault_seed: u64, what: &str) {
    for faults in [false, true] {
        let shared = SharedSink::new(InvariantChecker::new());
        let mut net = net(flow, LOAD, SEED, shared.clone(), true);
        if faults {
            net.set_fault_plan(fault_plan(fault_seed, Mesh::new(MESH.0, MESH.1)));
        }
        run_to_drain_seq(&mut net);
        assert_router_contracts(&net, what);
        drop(net);
        let checker = shared.into_inner();
        assert!(checker.events_seen() > 0, "tracer saw no events");
        checker.assert_clean();
    }
}

#[test]
fn vc_router_contracts_hold_under_load() {
    let what = "vc8 staged driver broke a stage contract";
    contracts_hold_under_load(&vc(VcConfig::vc8()), 0xFA_01, what);
}

#[test]
fn fr_router_contracts_hold_under_load() {
    let fr6 = FlowControl::fr6();
    contracts_hold_under_load(&fr6, 0xFA_02, "fr6 staged driver broke a stage contract");
}

// ---------------------------------------------------------------------------
// Arbiter swap: the switch-allocation stage is interchangeable
// ---------------------------------------------------------------------------

#[test]
fn swapped_arbiters_pass_invariants_and_contracts() {
    for kind in arbiter_kinds() {
        let flow = vc(VcConfig::vc8().with_switch_arbiter(kind));
        let what = format!("{kind:?} arbiter broke a stage contract");
        contracts_hold_under_load(&flow, 0xFA_01, &what);
    }
}

#[test]
fn swapped_arbiters_are_thread_count_invariant() {
    // Sequential vs sharded stepping must agree bit-for-bit for every
    // arbiter, exactly as the golden suite proves for the random one.
    // The fingerprints are compared across engines, never to the golden
    // fixture: a non-random arbiter is *supposed* to diverge from the
    // blessed traces (that is the point of the knob), just not from
    // itself.
    let threads = shard_threads();
    for kind in arbiter_kinds() {
        let flow = vc(VcConfig::vc8().with_switch_arbiter(kind));
        let mut reference = None;
        for t in [0, 1, threads] {
            let mut net = net(&flow, LOAD, SEED, VecSink::new(), false);
            run_to_drain(&mut net, t);
            let digest = (
                fingerprint(net.tracer().events()),
                net.tracer().events().len(),
            );
            match reference {
                None => reference = Some(digest),
                Some(expected) => assert_eq!(
                    digest, expected,
                    "{kind:?} arbiter diverged between sequential and {t}-thread stepping"
                ),
            }
        }
    }
}

#[test]
fn arbiter_label_round_trips() {
    // The config knob is driven by a string in CI; pin the labels.
    for (label, kind) in [
        ("random", ArbiterKind::Random),
        ("round-robin", ArbiterKind::RoundRobin),
        ("age-based", ArbiterKind::AgeBased),
    ] {
        assert_eq!(ArbiterKind::from_label(label), Some(kind));
    }
    assert_eq!(ArbiterKind::from_label("oracle"), None);
}
