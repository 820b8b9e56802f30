//! # bluedbm-flash
//!
//! The BlueDBM flash card: a functional NAND array that stores real bytes
//! with real program/erase semantics, a SECDED ECC codec, and the paper's
//! controller stack — the raw tag-based flash controller (Section 3.1.1)
//! and the Flash Interface Splitter (Section 3.1.2).
//!
//! The paper implements these on an Artix-7 FPGA per flash board; here the
//! same interfaces are modelled as discrete-event components over the
//! [`bluedbm_sim`] kernel, with timing taken from the paper (50 µs reads,
//! 1.2 GB/s per card across 8 buses).
//!
//! ## Layered design
//!
//! * [`array::FlashArray`] — synchronous, functional NAND: what the chips
//!   *store*. Each card's controller owns one; the FTL's tests drive
//!   one directly.
//! * [`controller::FlashController`] — DES component adding *when*: chip
//!   and bus contention, tag-limited parallelism, out-of-order completion.
//! * [`splitter::FlashSplitter`] — the paper's front end, reduced to
//!   one event hop: the node agent is each card's only client and hands
//!   out the controller's tags itself, so nothing is renamed (see the
//!   [module docs](splitter) for why the hop stays).
//!
//! The paper's Flash Server (Section 3.1.2, Figures 3 and 8) is not
//! modelled. Its Address Translation Unit would hold a second copy of
//! each card's logical → physical map, which the card's `Ftl` (run by
//! the node agent in the core crate) keeps alone and rewrites at every
//! collection. Its in-order delivery is done by the consumer instead:
//! the KV driver places each page of a multi-page get by its index.
//!
//! ## Example: functional layer
//!
//! ```rust
//! use bluedbm_flash::array::FlashArray;
//! use bluedbm_flash::geometry::{FlashGeometry, Ppa};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let geom = FlashGeometry::tiny();
//! let mut array = FlashArray::new(geom, 12345);
//! let ppa = Ppa::new(0, 0, 0, 0);
//! let page = vec![7u8; geom.page_bytes];
//! array.program(ppa, &page)?;
//! assert_eq!(array.read(ppa)?.data, page);
//! # Ok(())
//! # }
//! ```

pub mod array;
pub mod controller;
pub mod msg;
pub mod ecc;
pub mod error;
pub mod geometry;
pub mod splitter;
pub mod timing;

pub use array::FlashArray;
pub use controller::{CtrlCmd, CtrlResp, FlashController, Tag};
pub use error::FlashError;
pub use msg::{FlashMsg, FlashProtocol};
pub use geometry::{FlashGeometry, Ppa};
pub use splitter::FlashSplitter;
pub use timing::FlashTiming;
