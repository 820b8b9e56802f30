//! Error type for the flash-management layer.

use std::error::Error;
use std::fmt;

use bluedbm_flash::FlashError;

/// Failures surfaced by the FTL.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FtlError {
    /// Logical address beyond the exported capacity.
    LbaOutOfRange {
        /// The offending logical page address.
        lba: u64,
        /// Exported logical pages.
        capacity: u64,
    },
    /// The device is full and garbage collection cannot reclaim space
    /// (all remaining data is valid).
    NoSpace,
    /// A tuning knob is outside its domain (see
    /// [`crate::ftl::FtlConfig`]); the text says which and why.
    InvalidConfig(&'static str),
    /// The array has more pages than the `u32` mapping tables can index
    /// (see [`bluedbm_flash::FlashGeometry::MAX_PAGES`]).
    GeometryTooLarge,
    /// An underlying flash operation failed.
    Flash(FlashError),
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::LbaOutOfRange { lba, capacity } => {
                write!(f, "logical page {lba} beyond exported capacity {capacity}")
            }
            FtlError::NoSpace => write!(f, "device full: garbage collection found no space"),
            FtlError::InvalidConfig(why) => write!(f, "invalid FTL configuration: {why}"),
            FtlError::GeometryTooLarge => {
                write!(f, "geometry exceeds the 2^32 - 3 pages the tables can index")
            }
            FtlError::Flash(e) => write!(f, "flash error: {e}"),
        }
    }
}

impl Error for FtlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FtlError::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for FtlError {
    fn from(e: FlashError) -> Self {
        FtlError::Flash(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedbm_flash::Ppa;

    #[test]
    fn display_and_source() {
        let e = FtlError::Flash(FlashError::BadBlock(Ppa::new(0, 0, 1, 0)));
        assert!(e.to_string().contains("flash error"));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&FtlError::NoSpace).is_none());
    }

    #[test]
    fn from_flash_error() {
        let e: FtlError = FlashError::GeometryTooLarge.into();
        assert!(matches!(e, FtlError::Flash(FlashError::GeometryTooLarge)));
    }
}
