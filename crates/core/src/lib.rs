//! # bluedbm-core
//!
//! The BlueDBM appliance itself: 20-node-class clusters of host servers,
//! each with a flash storage device carrying in-store processors and
//! integrated network ports (paper Figure 1/2).
//!
//! This crate composes the substrate crates into
//!
//! * [`config::SystemConfig`] — every calibration constant of the model,
//!   each traced to the paper sentence it comes from;
//! * [`cluster::Cluster`] — a DES world of N nodes: flash cards (each
//!   a controller booking and two event hops, its splitter and its
//!   controller), a node agent (the in-store processing fabric, which
//!   books its node's PCIe link and accelerator units), and the
//!   integrated network, driven by submitting page operations and
//!   driving the simulation to their completions;
//! * [`paths`] — the four remote-access paths of Figure 12 (ISP-F, H-F,
//!   H-RH-F, H-D) with latency breakdowns;
//! * [`baselines`] — the comparison arms: host CPU model, off-the-shelf
//!   SSD, HDD, DRAM store and the RAM-cloud spill model (Figures 16–21);
//! * [`power`] — the Table 3 power model and the RAM-cloud comparison;
//! * [`scheduler`] — the FIFO accelerator scheduler of Section 4: each
//!   node agent books its node's units (`scheduler::AccelUnits`) for
//!   in-store accelerator work;
//! * [`kvstore`] — the concurrent multi-tenant key-value workload
//!   engine: async op submission, per-key FIFO consistency, windowed
//!   injection, extent free-lists with a stranded-page audit;
//! * [`gc`] — the flash lifecycle inside the simulation: each node
//!   agent runs its cards' FTLs, which decide garbage collection and
//!   wear leveling, and executes the migration reads/programs and block
//!   erases as ordinary simulated commands while the collecting card
//!   alone stops, so GC pressure shows up in tenant tail latency and
//!   [`cluster::Cluster::gc_stats`] reports erase counts and write
//!   amplification.
//!
//! ## Example
//!
//! ```rust
//! use bluedbm_core::node::Consume;
//! use bluedbm_core::{Cluster, PageOp, SystemConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SystemConfig::scaled_down();
//! let mut cluster = Cluster::ring(4, &config)?;
//! let page = vec![0xAB; config.flash.geometry.page_bytes];
//! let written = cluster.run_one(0.into(), PageOp::Write(&page))?;
//! let addr = written.addr.expect("a write names its page");
//! // Submit any number of ops, then drive them all to completion.
//! let op = cluster.submit(2.into(), PageOp::Read { addr, consume: Consume::Isp });
//! let done = cluster.drive();
//! assert_eq!((done[0].op_id, done[0].data.as_ref()), (op, Some(&page)));
//! let latency = done[0].end - done[0].start;
//! assert!(latency >= bluedbm_sim::time::SimTime::us(50)); // flash tR dominates
//! # Ok(())
//! # }
//! ```

pub mod baselines;
mod card;
pub mod cluster;
pub mod config;
pub mod gc;
mod keytable;
pub mod kvstore;
mod msg;
pub mod node;
pub mod paths;
pub mod power;
pub mod scheduler;

pub use cluster::{Cluster, GlobalPageAddr, PageOp};
pub use gc::{GcStats, GcTrafficStats, LifecycleOp};

pub use config::{GcConfig, SystemConfig};
pub use kvstore::{KvCompletion, KvOpKind, KvStore, TenantId, TenantStats};
pub use paths::{AccessPath, LatencyBreakdown};
pub use power::PowerModel;
pub use scheduler::SchedStats;

// Re-export the node id type used throughout the public API, and the
// page-store types payload-bearing drivers stage data through.
pub use bluedbm_net::topology::NodeId;
pub use bluedbm_sim::{ExecMode, PageRef, PageStore, ShardLaneStats, ShardStats};
