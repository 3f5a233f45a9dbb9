//! # flit-reservation
//!
//! Flit-reservation flow control (Li-Shiuan Peh and William J. Dally,
//! HPCA 2000): control flits traverse a fast (or leading) control network
//! ahead of the wide data flits, reserving buffers and channel bandwidth
//! cycle by cycle. Buffers are held only while actually occupied — zero
//! turnaround — and data flits cross routers without routing or
//! arbitration latency.
//!
//! The crate provides the two reservation tables ([`OutputReservationTable`],
//! [`InputReservationTable`]), the router ([`FrRouter`]) with its control
//! network and network interface, and the configuration presets matching
//! the paper ([`FrConfig::fr6`], [`FrConfig::fr13`]).
//!
//! # Examples
//!
//! ```
//! use flit_reservation::{FrConfig, FrRouter};
//! use noc_engine::Rng;
//! use noc_topology::{Mesh, NodeId};
//!
//! let mesh = Mesh::new(8, 8);
//! let config = FrConfig::fr6(); // storage-matched to the VC8 baseline
//! let router = FrRouter::new(mesh, NodeId::new(27), config, Rng::from_seed(1));
//! assert_eq!(router.config().horizon, 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod input_table;
mod output_table;
mod router;
mod stages;
pub mod transfers;

pub use config::{BufferAllocPolicy, FrConfig, SchedulingPolicy};
pub use input_table::{ArrivalOutcome, InputReservationTable, Reservation};
pub use output_table::OutputReservationTable;
pub use router::FrRouter;
