//! # noc-faults
//!
//! Deterministic fault injection and end-to-end reliability for the
//! flit-reservation stack.
//!
//! The crate is pure protocol and plan state — it owns no wires and no
//! routers. `noc-network` composes it into the simulation:
//!
//! * [`FaultPlan`] describes every fault a run will experience
//!   (transient data-flit corruption, control-flit drops, permanent link
//!   failures), derived entirely from a seed so any run is reproducible
//!   from its `RunManifest`;
//! * [`Reliability`] implements the source-side retransmit buffers with
//!   ACK/NACK and bounded exponential backoff;
//! * [`FaultCounters`] aggregates everything the fault layer did, for
//!   the metrics export.
//!
//! # Examples
//!
//! ```
//! use noc_faults::FaultPlan;
//!
//! let mut plan = FaultPlan::quiet(7);
//! assert!(!plan.is_active());          // installing it changes nothing
//! plan.data_corrupt_rate = 1e-3;
//! assert!(plan.is_active());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod reliability;

pub use plan::{DeadLink, FaultPlan};
pub use reliability::{Reliability, ReliabilityAction, RetransmitCause};

/// Cumulative counts of everything the fault layer did in one run.
///
/// Exported under `fault.*` keys by the network's metrics flush; all
/// zeros when the plan is inactive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Data flits whose CRC was corrupted on a link.
    pub data_corrupted: u64,
    /// Control flits dropped on a link (re-driven by the repair).
    pub control_dropped: u64,
    /// CRC-failed flit copies discarded at destination NIs.
    pub corrupt_discarded: u64,
    /// Duplicate flit copies discarded at destination NIs.
    pub duplicate_discarded: u64,
    /// ACKs that retired a retransmit-buffer entry.
    pub acks: u64,
    /// NACKs issued for corrupted flits.
    pub nacks: u64,
    /// Packet retransmissions (NACK- and timeout-triggered).
    pub retransmits: u64,
    /// The subset of retransmissions triggered by a timeout.
    pub timeout_retransmits: u64,
    /// Permanent link failures activated (ports masked).
    pub links_masked: u64,
}

impl FaultCounters {
    /// Every counter by name, in export order: the one list of the
    /// fields, which the network's metric exports walk.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("data_corrupted", self.data_corrupted),
            ("control_dropped", self.control_dropped),
            ("corrupt_discarded", self.corrupt_discarded),
            ("duplicate_discarded", self.duplicate_discarded),
            ("acks", self.acks),
            ("nacks", self.nacks),
            ("retransmits", self.retransmits),
            ("timeout_retransmits", self.timeout_retransmits),
            ("links_masked", self.links_masked),
        ]
    }
}
