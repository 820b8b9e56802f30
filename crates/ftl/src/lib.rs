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
//!   TRIM, with write-amplification accounting. Beyond the classic
//!   read/write surface it exposes a **twin-replay API**
//!   ([`ftl::Ftl::step_write`] / [`ftl::Ftl::step_trim`], returning
//!   [`ftl::StepOutcome`] / [`ftl::GcRound`]): the event-driven
//!   simulation keeps one `Ftl` per simulated card as its lifecycle
//!   policy oracle, executes the rounds it reports as timed bus/chip
//!   commands, and the conformance suite replays the same op log into a
//!   fresh twin to pin mappings, victim order, erase counts and write
//!   amplification bit-for-bit. See the [module docs](ftl) for the
//!   contract.
//! * [`rfs::Rfs`] — the RFS-style log-structured file system that
//!   performs FTL functions itself (logical-to-physical mapping and
//!   garbage collection in the FS), and exposes the API that makes
//!   BlueDBM's in-store processing usable: `physical_addrs(file)` returns
//!   the raw flash addresses of a file so applications can stream them to
//!   accelerators (paper Figure 8).
//!
//! ## Example
//!
//! ```rust
//! use bluedbm_flash::{FlashArray, FlashGeometry};
//! use bluedbm_ftl::ftl::{Ftl, FtlConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let array = FlashArray::new(FlashGeometry::small(), 1);
//! let mut ftl = Ftl::new(array, FtlConfig::default())?;
//! let page = vec![0x11u8; ftl.page_bytes()];
//! ftl.write(3, &page)?;
//! assert_eq!(ftl.read(3)?, page);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod ftl;
pub mod rfs;

pub use error::FtlError;
pub use ftl::{Ftl, FtlConfig, FtlStats, GcRound, StepOutcome};
pub use rfs::{Rfs, RfsConfig, RfsStats};
