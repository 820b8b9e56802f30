//! # bluedbm-host
//!
//! The host interface of a BlueDBM node (paper Section 3.3): the PCIe
//! link between the storage device and its Xeon server, the 4+4 DMA
//! engines behind Connectal's RPC/DMA framework, and the 128+128
//! page-buffer pools.
//!
//! Calibration comes straight from the paper (Section 5): Connectal's
//! PCIe Gen 1 endpoint "caps our performance at 1.6 GB/s reads and
//! 1 GB/s writes", with four read and four write DMA engines to keep the
//! link busy.
//!
//! ## Pieces
//!
//! * [`PcieParams`] — bandwidth caps and latency constants.
//! * [`PcieLink`] — DES component serializing transfers in each
//!   direction; send it [`PcieXfer`]s, receive [`PcieDone`]s.
//! * [`BufferPool`] — the free-queue discipline of the 128 page
//!   buffers, as a capacity view over the simulator's shared
//!   `PageStore`.

pub mod bufpool;
pub mod msg;
pub mod pcie;

pub use bufpool::BufferPool;
pub use msg::{HostMsg, HostProtocol};
pub use pcie::{Direction, PcieDone, PcieLink, PcieParams, PcieXfer};
