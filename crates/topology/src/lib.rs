//! # noc-topology
//!
//! Topology substrate for the flit-reservation flow-control reproduction:
//! the k-ary 2-mesh of the paper's evaluation, node/port naming, and
//! deterministic dimension-ordered routing.
//!
//! # Examples
//!
//! ```
//! use noc_topology::{xy_route, Mesh, Port};
//!
//! let mesh = Mesh::new(8, 8);                 // the paper's network
//! assert_eq!(mesh.capacity_flits_per_node_cycle(), 0.5);
//! let src = mesh.node_at(0, 0);
//! let dst = mesh.node_at(7, 7);
//! assert_eq!(xy_route(mesh, src, dst), Some(Port::East));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coord;
mod direction;
mod mesh;
mod routing;

pub use coord::{Coord, NodeId};
pub use direction::{Port, PortMap};
pub use mesh::Mesh;
pub use routing::{masked_xy_route, xy_route};
