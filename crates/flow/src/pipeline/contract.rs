//! Runtime verification of the inter-stage contracts.
//!
//! The pipeline's correctness argument rests on a handful of per-cycle
//! contracts at the stage boundaries: a grant is only ever an answer to
//! a request, each input nominates at most once, each output is
//! traversed at most once, and a reservation never departs before it
//! arrives. [`StageContractChecker`] records the requests and grants a
//! driver moves between stages and flags any message that breaks a
//! contract; the routers surface each breach as a
//! `StageContractViolation` trace event, which the engine's
//! `InvariantChecker` counts as a violation — so a contract breach
//! fails `assert_clean` exactly like a conservation bug would.

use crate::pipeline::iface::{
    ReservationGrant, ReservationRequest, SwitchBid, SwitchContender, VcAllocGrant, VcAllocRequest,
};
use noc_topology::Port;

/// Dense codes naming each contract, carried by the
/// `StageContractViolation` trace event.
pub mod code {
    /// A VC-allocation grant had no matching request this cycle.
    pub const VC_GRANT_WITHOUT_REQUEST: u8 = 1;
    /// One downstream VC was granted twice in one cycle.
    pub const VC_DOUBLE_GRANT: u8 = 2;
    /// An input port nominated more than one flit in one cycle.
    pub const DOUBLE_NOMINATION: u8 = 3;
    /// A switch grant went to a flit its input never nominated.
    pub const GRANT_WITHOUT_BID: u8 = 4;
    /// An output port was traversed more than once in one cycle.
    pub const DOUBLE_TRAVERSAL: u8 = 5;
    /// A switch traversal happened without a grant for that output.
    pub const TRAVERSAL_WITHOUT_GRANT: u8 = 6;
    /// A reservation grant had no matching request this cycle.
    pub const RESERVATION_GRANT_WITHOUT_REQUEST: u8 = 7;
    /// A granted departure precedes the requested arrival.
    pub const RESERVATION_BEFORE_ARRIVAL: u8 = 8;
}

/// Cap on retained violation messages, mirroring the invariant
/// checker's own bound.
const MAX_KEPT_VIOLATIONS: usize = 32;

/// Per-cycle verifier of the stage contracts.
///
/// The driver calls `begin_cycle` at the top of `step`, `note_*` as it
/// moves each typed message across a stage boundary, and `end_cycle` at
/// the bottom; `end_cycle` returns the codes of contracts broken this
/// cycle so the driver can emit one trace event per breach. All state
/// is reused across cycles — no steady-state allocation.
///
/// # Examples
///
/// ```
/// use noc_flow::pipeline::{code, StageContractChecker, VcAllocGrant, VcAllocRequest};
/// use noc_topology::Port;
///
/// let mut ck = StageContractChecker::new();
/// ck.begin_cycle();
/// // A grant the allocation stage was never asked for:
/// let req = VcAllocRequest { in_port: Port::North, in_vc: 0, out_port: Port::East };
/// ck.note_vc_grant(&req, VcAllocGrant { out_vc: 1 });
/// assert_eq!(ck.end_cycle(), &[code::VC_GRANT_WITHOUT_REQUEST]);
/// assert!(!ck.is_clean());
/// ```
#[derive(Clone, Debug, Default)]
pub struct StageContractChecker {
    vc_requests: Vec<VcAllocRequest>,
    vc_grants: Vec<(Port, u8)>,
    nominations: Vec<(Port, SwitchBid)>,
    switch_grants: Vec<(Port, SwitchContender)>,
    traversals: Vec<Port>,
    res_requests: Vec<ReservationRequest>,
    fresh: Vec<u8>,
    violation_count: u64,
    violations: Vec<String>,
}

impl StageContractChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        StageContractChecker::default()
    }

    /// Resets the per-cycle request/grant ledgers. Call at the top of
    /// every `step`.
    pub fn begin_cycle(&mut self) {
        self.vc_requests.clear();
        self.vc_grants.clear();
        self.nominations.clear();
        self.switch_grants.clear();
        self.traversals.clear();
        self.res_requests.clear();
        self.fresh.clear();
    }

    /// Records a VC-allocation request entering the allocation stage.
    pub fn note_vc_request(&mut self, req: VcAllocRequest) {
        self.vc_requests.push(req);
    }

    /// Checks a VC-allocation grant against this cycle's requests.
    pub fn note_vc_grant(&mut self, req: &VcAllocRequest, grant: VcAllocGrant) {
        if !self.vc_requests.contains(req) {
            self.flag(
                code::VC_GRANT_WITHOUT_REQUEST,
                format!("vc grant for unrequested {req:?}"),
            );
        }
        if self.vc_grants.contains(&(req.out_port, grant.out_vc)) {
            self.flag(
                code::VC_DOUBLE_GRANT,
                format!(
                    "vc {} of output {} granted twice in one cycle",
                    grant.out_vc, req.out_port
                ),
            );
        }
        self.vc_grants.push((req.out_port, grant.out_vc));
    }

    /// Checks input port `in_port`'s switch nomination: at most one per
    /// input per cycle.
    pub fn note_nomination(&mut self, in_port: Port, bid: SwitchBid) {
        if self.nominations.iter().any(|&(p, _)| p == in_port) {
            self.flag(
                code::DOUBLE_NOMINATION,
                format!("input {in_port} nominated twice in one cycle"),
            );
        }
        self.nominations.push((in_port, bid));
    }

    /// Checks a switch grant: the winner must be one of this cycle's
    /// nominations for `out_port`.
    pub fn note_switch_grant(&mut self, out_port: Port, winner: SwitchContender) {
        let nominated = self.nominations.iter().any(|&(p, b)| {
            p == winner.in_port && b.in_vc == winner.in_vc && b.out_port == out_port
        });
        if !nominated {
            self.flag(
                code::GRANT_WITHOUT_BID,
                format!("switch grant on {out_port} to non-bidder {winner:?}"),
            );
        }
        self.switch_grants.push((out_port, winner));
    }

    /// Checks a switch traversal of `out_port`: at most one per output
    /// per cycle, and only after a grant for that output.
    pub fn note_traversal(&mut self, out_port: Port) {
        self.check_single_traversal(out_port);
        if !self.switch_grants.iter().any(|&(o, _)| o == out_port) {
            self.flag(
                code::TRAVERSAL_WITHOUT_GRANT,
                format!("output {out_port} traversed without a switch grant"),
            );
        }
        self.traversals.push(out_port);
    }

    /// Checks a reservation-scheduled data departure on `out_port`: at
    /// most one per output channel per cycle (FR's data path has no
    /// switch grants — the reservation *is* the grant).
    pub fn note_departure(&mut self, out_port: Port) {
        self.check_single_traversal(out_port);
        self.traversals.push(out_port);
    }

    /// Records a reservation request entering the reservation stage.
    pub fn note_reservation_request(&mut self, req: ReservationRequest) {
        self.res_requests.push(req);
    }

    /// Checks a reservation grant against this cycle's requests and the
    /// arrival-before-departure contract.
    pub fn note_reservation_grant(&mut self, req: &ReservationRequest, grant: ReservationGrant) {
        if !self.res_requests.contains(req) {
            self.flag(
                code::RESERVATION_GRANT_WITHOUT_REQUEST,
                format!("reservation grant for unrequested {req:?}"),
            );
        }
        if grant.departure < req.arrival {
            self.flag(
                code::RESERVATION_BEFORE_ARRIVAL,
                format!(
                    "reservation on {} departs at {} before arrival {}",
                    req.out_port, grant.departure, req.arrival
                ),
            );
        }
    }

    /// Codes of the contracts broken since `begin_cycle`. The driver
    /// emits one `StageContractViolation` event per entry.
    pub fn end_cycle(&self) -> &[u8] {
        &self.fresh
    }

    /// Total contract breaches since construction.
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// The first [`MAX_KEPT_VIOLATIONS`] breach messages.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// True if no contract has ever been broken.
    pub fn is_clean(&self) -> bool {
        self.violation_count == 0
    }

    /// Panics with the collected messages if any contract was broken.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "{} stage-contract violation(s); first {}:\n{}",
            self.violation_count,
            self.violations.len(),
            self.violations.join("\n")
        );
    }

    fn check_single_traversal(&mut self, out_port: Port) {
        if self.traversals.contains(&out_port) {
            self.flag(
                code::DOUBLE_TRAVERSAL,
                format!("output {out_port} traversed twice in one cycle"),
            );
        }
    }

    fn flag(&mut self, code: u8, message: String) {
        self.violation_count += 1;
        self.fresh.push(code);
        if self.violations.len() < MAX_KEPT_VIOLATIONS {
            self.violations.push(message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_engine::Cycle;

    fn req(in_port: Port, in_vc: usize, out_port: Port) -> VcAllocRequest {
        VcAllocRequest {
            in_port,
            in_vc,
            out_port,
        }
    }

    fn bid(in_vc: usize, out_port: Port) -> SwitchBid {
        SwitchBid { in_vc, out_port }
    }

    fn winner(in_port: Port, in_vc: usize) -> SwitchContender {
        SwitchContender { in_port, in_vc }
    }

    #[test]
    fn requested_grants_are_clean() {
        let mut ck = StageContractChecker::new();
        ck.begin_cycle();
        let r = req(Port::North, 1, Port::East);
        ck.note_vc_request(r);
        ck.note_vc_grant(&r, VcAllocGrant { out_vc: 3 });
        ck.note_nomination(Port::North, bid(1, Port::East));
        ck.note_switch_grant(Port::East, winner(Port::North, 1));
        ck.note_traversal(Port::East);
        assert!(ck.end_cycle().is_empty());
        ck.assert_clean();
    }

    #[test]
    fn double_vc_grant_is_flagged() {
        let mut ck = StageContractChecker::new();
        ck.begin_cycle();
        let a = req(Port::North, 0, Port::East);
        let b = req(Port::South, 0, Port::East);
        ck.note_vc_request(a);
        ck.note_vc_request(b);
        ck.note_vc_grant(&a, VcAllocGrant { out_vc: 2 });
        ck.note_vc_grant(&b, VcAllocGrant { out_vc: 2 });
        assert_eq!(ck.end_cycle(), &[code::VC_DOUBLE_GRANT]);
    }

    #[test]
    fn double_nomination_and_traversal_are_flagged() {
        let mut ck = StageContractChecker::new();
        ck.begin_cycle();
        ck.note_nomination(Port::West, bid(0, Port::East));
        ck.note_nomination(Port::West, bid(1, Port::East));
        ck.note_switch_grant(Port::East, winner(Port::West, 0));
        ck.note_traversal(Port::East);
        ck.note_traversal(Port::East);
        assert_eq!(
            ck.end_cycle(),
            &[code::DOUBLE_NOMINATION, code::DOUBLE_TRAVERSAL]
        );
        assert_eq!(ck.violation_count(), 2);
    }

    #[test]
    fn grant_to_non_bidder_is_flagged() {
        let mut ck = StageContractChecker::new();
        ck.begin_cycle();
        ck.note_nomination(Port::West, bid(0, Port::East));
        ck.note_switch_grant(Port::North, winner(Port::West, 0));
        assert_eq!(ck.end_cycle(), &[code::GRANT_WITHOUT_BID]);
    }

    #[test]
    fn reservation_contracts() {
        let mut ck = StageContractChecker::new();
        ck.begin_cycle();
        let r = ReservationRequest {
            in_port: Port::North,
            out_port: Port::East,
            arrival: Cycle::new(10),
            min_free: 1,
        };
        ck.note_reservation_request(r);
        ck.note_reservation_grant(
            &r,
            ReservationGrant {
                departure: Cycle::new(12),
            },
        );
        assert!(ck.end_cycle().is_empty());
        ck.note_reservation_grant(
            &r,
            ReservationGrant {
                departure: Cycle::new(4),
            },
        );
        assert_eq!(ck.end_cycle(), &[code::RESERVATION_BEFORE_ARRIVAL]);
        ck.begin_cycle();
        ck.note_departure(Port::East);
        ck.note_departure(Port::East);
        assert_eq!(ck.end_cycle(), &[code::DOUBLE_TRAVERSAL]);
        assert_eq!(ck.violation_count(), 2);
    }

    #[test]
    fn begin_cycle_clears_the_ledger_but_keeps_totals() {
        let mut ck = StageContractChecker::new();
        ck.begin_cycle();
        ck.note_traversal(Port::East);
        assert_eq!(ck.end_cycle(), &[code::TRAVERSAL_WITHOUT_GRANT]);
        ck.begin_cycle();
        assert!(ck.end_cycle().is_empty());
        assert_eq!(ck.violation_count(), 1);
        assert!(!ck.is_clean());
    }
}
