//! Error type for flash operations.

use std::error::Error;
use std::fmt;

use crate::geometry::Ppa;

/// Everything that can go wrong talking to the flash array or controller.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlashError {
    /// The physical address does not exist in this geometry.
    OutOfRange(Ppa),
    /// A program was issued to a page that is already programmed; NAND
    /// requires an erase first.
    AlreadyProgrammed(Ppa),
    /// A read was issued to a page that was never programmed (erased
    /// state).
    NotProgrammed(Ppa),
    /// The block is marked bad (factory or grown) and must not be used.
    BadBlock(Ppa),
    /// ECC detected more errors in a codeword than it can correct.
    Uncorrectable(Ppa),
    /// A page-sized buffer was expected.
    WrongPageSize {
        /// Bytes the caller supplied.
        got: usize,
        /// Bytes one page holds.
        want: usize,
    },
    /// The controller's tag space is exhausted (too many in-flight
    /// commands for the configured tag count).
    TagsExhausted,
    /// A tag was used that has no in-flight command.
    UnknownTag(u16),
    /// The geometry has more pages than the `u32` page tables can index
    /// (see `crate::geometry::FlashGeometry::MAX_PAGES`).
    GeometryTooLarge,
    /// A file handle unknown to the address translation unit.
    UnknownHandle(u64),
    /// A file-relative offset beyond the end of the mapped extent list.
    OffsetOutOfRange {
        /// The offending handle.
        handle: u64,
        /// The page offset requested.
        page_offset: u64,
    },
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::OutOfRange(ppa) => write!(f, "physical address out of range: {ppa}"),
            FlashError::AlreadyProgrammed(ppa) => {
                write!(f, "program to already-programmed page {ppa} (erase required)")
            }
            FlashError::NotProgrammed(ppa) => write!(f, "read of unprogrammed page {ppa}"),
            FlashError::BadBlock(ppa) => write!(f, "operation on bad block at {ppa}"),
            FlashError::Uncorrectable(ppa) => {
                write!(f, "uncorrectable ECC error reading {ppa}")
            }
            FlashError::WrongPageSize { got, want } => {
                write!(f, "buffer of {got} bytes where a {want}-byte page was expected")
            }
            FlashError::TagsExhausted => write!(f, "controller tag space exhausted"),
            FlashError::UnknownTag(tag) => write!(f, "no in-flight command holds tag {tag}"),
            FlashError::GeometryTooLarge => {
                write!(f, "geometry exceeds the 2^32 - 3 pages a card can index")
            }
            FlashError::UnknownHandle(h) => write!(f, "unknown file handle {h}"),
            FlashError::OffsetOutOfRange {
                handle,
                page_offset,
            } => write!(
                f,
                "page offset {page_offset} beyond mapped extent of handle {handle}"
            ),
        }
    }
}

impl Error for FlashError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = FlashError::AlreadyProgrammed(Ppa::new(1, 2, 3, 4));
        let s = e.to_string();
        assert!(s.contains("erase required"));
        assert!(s.starts_with(char::is_lowercase));
        let e = FlashError::WrongPageSize { got: 10, want: 8192 };
        assert!(e.to_string().contains("8192"));
    }

    #[test]
    fn error_trait_object_compatible() {
        fn takes_err(_: &(dyn Error + Send + Sync)) {}
        takes_err(&FlashError::TagsExhausted);
    }
}
