//! # bluedbm-flash
//!
//! The BlueDBM flash card: a functional NAND array that stores real bytes
//! with real program/erase semantics, a SECDED ECC codec, and the paper's
//! raw tag-based flash controller (Section 3.1.1).
//!
//! The paper implements these on an Artix-7 FPGA per flash board; here the
//! controller is a timing model over the [`bluedbm_sim`] kernel's
//! resources, with timing taken from the paper (50 µs reads, 1.2 GB/s per
//! card across 8 buses). It sends no messages: its client books each
//! command and delivers the response at the instant the booking returns.
//!
//! ## Layered design
//!
//! * [`array::FlashArray`] — synchronous, functional NAND: what the chips
//!   *store*. Each card's controller owns one; the FTL's tests drive
//!   one directly.
//! * [`controller::FlashController`] — the booking model adding *when*:
//!   chip and bus contention and out-of-order completion, counted against
//!   the paper's 128 tags. In a cluster, the core crate's node agent is
//!   each card's only client and hands out the tags; the card's
//!   controller and Flash Interface Splitter (Section 3.1.2) are the two
//!   event hops the core crate wires around this model.
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
pub mod ecc;
pub mod error;
pub mod geometry;
pub mod timing;

pub use array::FlashArray;
pub use controller::{CtrlCmd, CtrlResp, FlashController, Tag};
pub use error::FlashError;
pub use geometry::{FlashGeometry, Ppa};
pub use timing::FlashTiming;
