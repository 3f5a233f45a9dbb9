//! # noc-flow
//!
//! Shared flow-control substrate: the wire formats, links, buffers,
//! timing configuration and the [`Router`] trait that both the
//! virtual-channel baseline (`noc-vc`) and flit-reservation flow control
//! (`flit-reservation`) are built on.
//!
//! # Examples
//!
//! ```
//! use noc_engine::Cycle;
//! use noc_flow::{Link, LinkTiming};
//!
//! // The paper's fast-control wires: data 4 cycles, control 1 cycle.
//! let timing = LinkTiming::fast_control();
//! let mut data_link: Link<u32> = Link::new(timing.data_delay, 1);
//! data_link.push(Cycle::ZERO, 7)?;
//! assert_eq!(data_link.take_arrivals(Cycle::new(4)), vec![7]);
//! # Ok::<(), noc_flow::BandwidthExceeded>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod emit;
mod flit;
mod link;
pub mod pipeline;
mod router;
mod timing;

pub use buffer::{BufferId, BufferPool};
pub use emit::TraceEmit;
pub use flit::{ControlFlit, ControlKind, DataFlit, FlitType, LedFlit, VcTag};
pub use link::{BandwidthExceeded, Link};
pub use pipeline::{RouteCompute, StageContractChecker};
pub use router::{Ejection, LinkEvent, Router, RouterCounters, StepOutputs, WireClass};
pub use timing::LinkTiming;
