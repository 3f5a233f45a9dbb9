//! # noc-network
//!
//! Network composition and measurement: wires `noc-vc` or
//! `flit-reservation` routers into the paper's 8×8 mesh, drives the
//! warm-up / measure / drain methodology, and provides the sweep harness
//! every figure and table is built from. A [`RunSpec`] describes one run
//! end to end; [`FlowControl::build`] is the one construction path.
//!
//! # Examples
//!
//! ```no_run
//! use noc_network::{FlowControl, SimConfig, sweep_loads};
//! use noc_flow::LinkTiming;
//! use noc_topology::Mesh;
//! use noc_vc::VcConfig;
//!
//! let mesh = Mesh::new(8, 8);
//! let vc8 = FlowControl::vc8();
//! let curve = sweep_loads(&vc8, mesh, 5, &[0.2, 0.4, 0.6], &SimConfig::quick(1), 1);
//! println!("VC8 base latency ≈ {:.1} cycles", curve.base_latency());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blackbox;
mod experiment;
mod network;
pub mod profile;
mod runner;
mod shard;
mod spec;
mod tracker;

pub use blackbox::{
    capture_at_cycle, replay_to_cycle, BlackboxRun, ReplayReport, Sidecar, Trigger,
};
pub use experiment::{sweep_loads, AnyNetwork, Curve, FlowControl, LoadPoint, TRAFFIC_STREAM};
pub use network::{FaultSummary, Network};
pub use profile::{EngineProfile, ProfileSample};
pub use runner::{run_simulation, RunResult, SimConfig};
pub use shard::ShardPlan;
pub use spec::{injection_label, parse_injection, Pattern, RunOutput, RunSpec, Schedule};
pub use tracker::{DeliveryError, DeliveryTracker};
