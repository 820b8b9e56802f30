//! # bluedbm-host
//!
//! The host interface of a BlueDBM node (paper Section 3.3): the PCIe
//! link between the storage device and its Xeon server, the DMA engines
//! behind Connectal's RPC/DMA framework, and the 128 read page buffers.
//!
//! Calibration comes straight from the paper (Section 5): Connectal's
//! PCIe Gen 1 endpoint "caps our performance at 1.6 GB/s reads and
//! 1 GB/s writes". Writes do not cross the modelled link — a cluster
//! injects them at the node — so the link models the device-to-host
//! direction only, with four DMA engines to keep it busy.
//!
//! ## Pieces
//!
//! * [`PcieParams`] — bandwidth cap and latency constants.
//! * [`PcieLink`] — the link's DMA engines and wire, booked by the
//!   node's agent: each device-to-host transfer gets the instant its
//!   completion lands.
//! * [`BufferPool`] — the free-queue discipline of the 128 page
//!   buffers, as a capacity view over the simulator's shared
//!   `PageStore`.

pub mod bufpool;
pub mod pcie;

pub use bufpool::BufferPool;
pub use pcie::{PcieLink, PcieParams};
