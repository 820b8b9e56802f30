//! # BlueDBM-RS
//!
//! A full-system, software-simulated reproduction of *"BlueDBM: An Appliance
//! for Big Data Analytics"* (ISCA 2015).
//!
//! This facade crate re-exports every sub-crate of the workspace under one
//! namespace so that examples and downstream users can write
//! `use bluedbm::core::Cluster;` instead of depending on each crate
//! individually.
//!
//! ## Quickstart
//!
//! ```rust
//! use bluedbm::core::node::Consume;
//! use bluedbm::core::{Cluster, PageOp, SystemConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 4-node appliance with the paper's device parameters, scaled-down
//! // flash capacity for test speed.
//! let config = SystemConfig::scaled_down();
//! let mut cluster = Cluster::ring(4, &config)?;
//!
//! // Write a page to node 0, read it back from node 2 over the integrated
//! // storage network (global address space).
//! let page = vec![0xAB; config.flash.geometry.page_bytes];
//! let addr = cluster.run_one(0.into(), PageOp::Write(&page))?.addr.expect("written");
//! let read = cluster.run_one(2.into(), PageOp::Read { addr, consume: Consume::Isp })?;
//! assert_eq!(read.data, Some(page));
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for domain scenarios (LSH image search,
//! distributed graph traversal, in-store grep) and the `exhibit` binary of
//! `bluedbm-workloads`, which regenerates every table and figure of the paper.

pub use bluedbm_core as core;
pub use bluedbm_flash as flash;
pub use bluedbm_ftl as ftl;
pub use bluedbm_host as host;
pub use bluedbm_isp as isp;
pub use bluedbm_net as net;
pub use bluedbm_sim as sim;
pub use bluedbm_trace as trace;
pub use bluedbm_workloads as workloads;
