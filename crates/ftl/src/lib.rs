//! # bluedbm-ftl
//!
//! BlueDBM's flash-management software (paper Section 4). The hardware
//! exposes a *raw* flash interface — no on-device FTL — so management
//! moves up into the driver and file system:
//!
//! * [`ftl::Ftl`] — "a full-fledged FTL implemented in the device driver,
//!   similar to Fusion IO's driver": page-level logical-to-physical
//!   mapping, round-robin write allocation across buses for parallelism,
//!   greedy garbage collection, threshold-based static wear leveling and
//!   TRIM, with write-amplification accounting. It is the policy alone,
//!   over its own per-block books: [`ftl::Ftl::step_write`] /
//!   [`ftl::Ftl::step_trim`] return what to do ([`ftl::StepOutcome`] /
//!   [`ftl::GcRound`]), and [`ftl::StepOutcome::apply`] does it to a
//!   [`bluedbm_flash::FlashArray`]. The event-driven simulation keeps
//!   one `Ftl` per simulated card as its lifecycle policy and executes
//!   the rounds as timed bus/chip commands; the conformance suite
//!   replays the same op log into a fresh twin to pin mappings, victim
//!   order, erase counts and write amplification bit-for-bit. See the
//!   [module docs](ftl) for the contract.
//! * [`rfs::Rfs`] — the RFS-style file namespace: names, sizes and
//!   each file's logical pages, written through one [`ftl::Ftl`] over a
//!   raw array, so the file system's mapping and collection are that
//!   `Ftl`'s. It exposes the API that makes BlueDBM's in-store
//!   processing usable: `physical_addrs(file)` returns the raw flash
//!   addresses of a file so applications can stream them to
//!   accelerators (paper Figure 8).
//!
//! ## Example
//!
//! ```rust
//! use bluedbm_flash::{FlashArray, FlashGeometry};
//! use bluedbm_ftl::ftl::{Ftl, FtlConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut array = FlashArray::new(FlashGeometry::small(), 1);
//! let mut ftl = Ftl::new(&array, FtlConfig::default())?;
//! let page = vec![0x11u8; array.geometry().page_bytes];
//! ftl.step_write(3)?.apply(&mut array, &page)?;
//! let ppa = ftl.physical_of(3).expect("lba 3 is mapped");
//! assert_eq!(array.read(ppa)?.data, page);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod ftl;
pub mod rfs;

pub use error::FtlError;
pub use ftl::{Ftl, FtlConfig, FtlStats, GcRound, StepOutcome};
pub use rfs::Rfs;
