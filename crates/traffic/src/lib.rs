//! # noc-traffic
//!
//! Workload substrate for the flit-reservation flow-control reproduction:
//! spatial traffic patterns, temporal injection processes, packet
//! descriptors and capacity-normalised load specification.
//!
//! The paper's workload is [`Uniform`] random traffic from
//! [`ConstantRate`] sources at a configured fraction of network capacity;
//! the other patterns are provided for stress tests and extensions.
//!
//! # Examples
//!
//! ```
//! use noc_engine::{Cycle, Rng};
//! use noc_topology::Mesh;
//! use noc_traffic::{LoadSpec, TrafficGenerator};
//!
//! let mesh = Mesh::new(8, 8);
//! let load = LoadSpec::fraction_of_capacity(0.5, 5);
//! let mut gen = TrafficGenerator::uniform(mesh, load, Rng::from_seed(7));
//! let first_cycle = gen.tick(Cycle::ZERO);
//! assert!(first_cycle.len() <= 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod burst;
mod generator;
mod injection;
mod packet;
mod pattern;

pub use burst::OnOff;
pub use generator::{InjectionKind, LengthDistribution, LoadSpec, TrafficGenerator};
pub use injection::{Bernoulli, ConstantRate, InjectionProcess};
pub use packet::{Packet, PacketId};
pub use pattern::{BitComplement, Hotspot, Tornado, TrafficPattern, Transpose, Uniform};
