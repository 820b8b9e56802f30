//! # bluedbm-net
//!
//! The BlueDBM *integrated storage network* (paper Section 3.2): a
//! packet-switched network of storage devices connected by low-latency
//! serial links, with
//!
//! * **token (credit) flow control** at the link layer — packets are never
//!   dropped; senders block when the receiver's buffer is full
//!   (Section 3.2.2);
//! * **deterministic per-endpoint routing** — all packets from one logical
//!   endpoint to one destination take the same path, so per-endpoint FIFO
//!   order holds end-to-end without completion buffers (Section 3.2.3,
//!   Figure 6);
//! * **configurable topology** — ring, mesh, star, or arbitrary cabling,
//!   limited only by the 8 physical ports per node (Figure 5);
//! * paper-calibrated timing: 10 Gbps per lane, 0.48 µs per hop, and an
//!   18% protocol overhead giving the measured 8.2 Gbps goodput
//!   (Section 6.3, Figure 11).
//!
//! The network is modelled with cut-through switching: a packet's head
//! moves hop to hop at `hop_latency` while each traversed lane is occupied
//! for the packet's full serialization time — which is exactly the
//! behaviour behind Figure 11's flat bandwidth-vs-hops curve.

pub mod msg;
pub mod packet;
pub mod router;
pub mod routing;
pub mod topology;

pub use msg::{NetMsg, NetProtocol};
pub use packet::NetParams;
pub use router::{build_network, NetRecv, NetSend, Router, RouterStats};
pub use routing::RoutingTable;
pub use topology::{NodeId, PortId, Topology};
