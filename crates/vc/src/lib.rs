//! # noc-vc
//!
//! The virtual-channel flow-control baseline (Dally '92) the paper
//! compares against, plus the wormhole and shared-buffer-pool [TamFra92]
//! variants discussed in its related-work and discussion sections.
//!
//! # Examples
//!
//! ```
//! use noc_engine::Rng;
//! use noc_topology::{Mesh, NodeId};
//! use noc_vc::{VcConfig, VcRouter};
//!
//! // The paper's VC8 configuration: 2 VCs x 4 flit buffers per input.
//! let mesh = Mesh::new(8, 8);
//! let router = VcRouter::new(mesh, NodeId::new(0), VcConfig::vc8(), Rng::from_seed(0));
//! assert_eq!(router.config().buffers_per_input(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod router;
mod stages;

pub use config::{AllocationUnit, CreditMode, VcConfig};
pub use router::VcRouter;
