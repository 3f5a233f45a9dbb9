//! # frfc — Flit-Reservation Flow Control
//!
//! A complete, self-contained reproduction of *Flit-Reservation Flow
//! Control* (Li-Shiuan Peh and William J. Dally, HPCA 2000): a flit-level
//! network-on-chip simulation stack with the paper's flit-reservation
//! router, the virtual-channel baseline it is compared against, and the
//! measurement harness that regenerates every table and figure of the
//! paper's evaluation.
//!
//! This crate is an umbrella that re-exports the workspace:
//!
//! * [`engine`] — deterministic cycle-driven simulation kernel;
//! * [`topology`] — the k-ary 2-mesh and dimension-ordered routing;
//! * [`traffic`] — traffic patterns and capacity-normalised loads;
//! * [`flow`] — flits, links, buffers and the router interface;
//! * [`vc`] — the virtual-channel / wormhole baselines;
//! * [`fr`] — flit-reservation flow control (the paper's contribution);
//! * [`network`] — network composition, measurement, sweeps;
//! * [`overhead`] — the Table 1/2 storage and bandwidth models;
//! * [`metrics`] — zero-cost-when-off counters and JSON export;
//! * [`provenance`] — per-flit latency attribution and Perfetto export;
//! * [`faults`] — deterministic fault injection and the end-to-end
//!   reliability layer (CRC, ACK/NACK retransmission, link masking).
//!
//! # Quickstart
//!
//! A [`network::RunSpec`] describes one run end to end — flow control,
//! mesh, traffic, seed, schedule and the observers to arm — and
//! [`network::RunSpec::run`] builds and runs it:
//!
//! ```no_run
//! use frfc::fr::FrConfig;
//! use frfc::network::{FlowControl, RunSpec, SimConfig};
//! use frfc::topology::Mesh;
//!
//! // The paper's network: 8x8 mesh, FR6 router, 50% offered load of
//! // 5-flit packets, measured with the quick methodology.
//! let fr6 = FlowControl::fr6();
//! let spec = RunSpec::new(fr6, Mesh::new(8, 8), 0.5, 5, SimConfig::quick(1));
//! let result = spec.run()?.result.expect("methodology run");
//! println!("mean latency: {:.1} cycles", result.mean_latency());
//!
//! // Observers are fields: the same run with a metrics registry.
//! let registry = RunSpec { metrics_period: Some(64), ..spec }.run()?.registry;
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use flit_reservation as fr;
pub use noc_engine as engine;
pub use noc_faults as faults;
pub use noc_flow as flow;
pub use noc_metrics as metrics;
pub use noc_network as network;
pub use noc_overhead as overhead;
pub use noc_provenance as provenance;
pub use noc_topology as topology;
pub use noc_traffic as traffic;
pub use noc_vc as vc;
