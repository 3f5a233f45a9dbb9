//! Typed router-pipeline stages and their inter-stage interfaces.
//!
//! The paper describes a router as a four-stage pipeline — route
//! compute, allocation (VC allocation in the baseline, reservation
//! matching in FR), switch allocation, and switch/link traversal. This
//! module is the shared vocabulary that lets `noc-vc` and
//! `flit-reservation` build their routers as *compositions of stage
//! structs* instead of monolithic step functions:
//!
//! * [`iface`] — the typed request/grant messages that cross a stage
//!   boundary ([`VcAllocRequest`]/[`VcAllocGrant`], [`SwitchBid`]/
//!   [`SwitchContender`], [`ReservationRequest`]/[`ReservationGrant`]);
//! * [`RouteCompute`] — the route-compute stage itself, shared by both
//!   router families (XY routing, dead-link masking, detour counting);
//! * [`StageContractChecker`] — runtime verification of the stage
//!   contracts (no grant without a request, at most one traversal per
//!   output per cycle, ...), reporting breaches through the trace
//!   layer as `StageContractViolation` events so the
//!   `InvariantChecker` fails the run;
//! * [`StallScan`] — the shared arrival/departure bracketing rule
//!   behind both routers' stall-provenance hooks;
//! * [`InputLanes`], [`VcOwners`], [`Credits`] and [`LocalVc`] — the
//!   credit-based virtual-channel input port both families run, on
//!   VC's data lanes and on FR's control lanes.
//!
//! # Cross-stage discipline
//!
//! Stages communicate *only* through the typed messages above: a stage
//! owns its state, keeps its fields private, and exposes request/grant
//! methods. The lint gate below makes leaking a private type through a
//! public stage signature a hard error, so the boundary cannot rot
//! silently.

#![deny(private_interfaces, private_bounds)]

mod contract;
mod iface;
mod port;
mod route;
mod stall;

pub use contract::{code, StageContractChecker};
pub use iface::{
    ReservationGrant, ReservationRequest, SwitchBid, SwitchContender, VcAllocGrant, VcAllocRequest,
};
pub use port::{Credits, Front, InputLanes, Lane, LaneFlit, LaneWalk, LocalVc, VcOwners};
pub use route::RouteCompute;
pub use stall::StallScan;
