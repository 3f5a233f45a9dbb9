//! Typed messages crossing a stage boundary.
//!
//! Every value here is a plain `Copy` record: a *request* travels
//! forward into a stage, a *grant* travels back. The driver (the
//! router's `step`) moves them between stages; stages never reach into
//! each other's fields.

use noc_engine::Cycle;
use noc_topology::Port;

/// A routed head flit asking the VC-allocation stage for a downstream
/// virtual channel on its output port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VcAllocRequest {
    /// Input port holding the requesting head.
    pub in_port: Port,
    /// Input virtual channel holding the requesting head.
    pub in_vc: usize,
    /// Output port the head was routed to.
    pub out_port: Port,
}

/// The VC-allocation stage's answer to a [`VcAllocRequest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VcAllocGrant {
    /// Downstream virtual channel now owned by the requesting packet.
    pub out_vc: u8,
}

/// One input VC's bid into switch allocation: a front flit that passed
/// every per-lane gate (route and output VC held, credit available).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchBid {
    /// Input virtual channel the ready flit sits in.
    pub in_vc: usize,
    /// Output port the flit will traverse to.
    pub out_port: Port,
}

/// A per-input nomination contending for one output port in the second
/// round of switch allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchContender {
    /// Nominating input port.
    pub in_port: Port,
    /// Input virtual channel of the nominated flit.
    pub in_vc: usize,
}

/// A led flit asking the reservation stage for a departure slot on an
/// output channel (flit-reservation flow control).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReservationRequest {
    /// Input port whose control flit carries the led flit.
    pub in_port: Port,
    /// Output channel the departure is requested on.
    pub out_port: Port,
    /// Cycle the data flit arrives (or already arrived) at this router.
    pub arrival: Cycle,
    /// Downstream buffers that must stay free for the grant to be legal
    /// (all-or-nothing scheduling asks for the packet's whole remainder).
    pub min_free: i64,
}

/// The reservation stage's answer: a booked departure cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReservationGrant {
    /// Cycle the output channel is reserved for this flit.
    pub departure: Cycle,
}
