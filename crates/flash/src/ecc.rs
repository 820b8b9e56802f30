//! SECDED error correction: extended Hamming(72,64) over 64-bit words.
//!
//! The paper's Artix-7 flash controller spends most of its LUTs on ECC
//! encoders/decoders (Table 1) and presents the Virtex-7 a "logical
//! error-free access into flash". This module plays the same role in the
//! model: every page is encoded on program and decoded/corrected on read,
//! so the wear-driven bit errors injected by the array are actually
//! exercised and corrected, not just counted.
//!
//! The code is a textbook extended Hamming code: 7 parity bits at
//! power-of-two codeword positions plus one overall-parity bit, per 64-bit
//! data word. Single-bit errors (anywhere in the 72-bit codeword) are
//! corrected; double-bit errors are detected and reported as
//! uncorrectable.

/// Codeword positions 1..=71 that hold data bits (everything that is not a
/// power of two).
const fn data_positions() -> [u8; 64] {
    let mut out = [0u8; 64];
    let mut pos = 1u8;
    let mut i = 0;
    while i < 64 {
        if pos & (pos - 1) != 0 {
            out[i] = pos;
            i += 1;
        }
        pos += 1;
    }
    out
}

#[cfg(test)]
const DATA_POS: [u8; 64] = data_positions();

/// Inverse map: codeword position -> data bit index (or 0xFF for parity
/// positions / unused).
const fn position_to_data() -> [u8; 128] {
    let mut out = [0xFFu8; 128];
    let positions = data_positions();
    let mut i = 0;
    while i < 64 {
        out[positions[i] as usize] = i as u8;
        i += 1;
    }
    out
}

const POS_TO_DATA: [u8; 128] = position_to_data();

/// `SYNDROME_MASK[j]` selects the data bits whose codeword positions
/// have bit `j` set: syndrome bit `j` is the parity of `data & mask`.
/// Turns the per-set-bit encode loop into seven popcounts.
const fn syndrome_masks() -> [u64; 7] {
    let positions = data_positions();
    let mut masks = [0u64; 7];
    let mut j = 0;
    while j < 7 {
        let mut i = 0;
        while i < 64 {
            if positions[i] & (1 << j) != 0 {
                masks[j] |= 1u64 << i;
            }
            i += 1;
        }
        j += 1;
    }
    masks
}

const SYNDROME_MASK: [u64; 7] = syndrome_masks();

/// Reference encoder: seven mask parities plus the overall bit. Used to
/// build the byte table at compile time (and by it alone at runtime).
const fn encode_word(data: u64) -> u8 {
    let mut syndrome = 0u8;
    let mut j = 0;
    while j < 7 {
        syndrome |= (((data & SYNDROME_MASK[j]).count_ones() & 1) as u8) << j;
        j += 1;
    }
    let overall = ((data.count_ones() + (syndrome as u32).count_ones()) & 1) as u8;
    syndrome | (overall << 7)
}

/// The code is linear over GF(2) — every parity bit, including the
/// overall bit, is an XOR of data bits — so the full 8-bit OOB of a
/// word is the XOR of eight per-byte contributions:
/// `OOB_TABLE[k][b] = encode(b << 8k)`. One L1-resident 2 KiB table
/// turns encode into eight byte loads and seven XORs, with no popcounts
/// on the hot path.
const fn oob_table() -> [[u8; 256]; 8] {
    let mut table = [[0u8; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            table[k][b] = encode_word((b as u64) << (8 * k));
            b += 1;
        }
        k += 1;
    }
    table
}

const OOB_TABLE: [[u8; 256]; 8] = oob_table();

/// The 8-bit OOB (7 Hamming parity bits + overall bit) of a data word,
/// via the per-byte linearity table.
#[inline]
fn oob_of(data: u64) -> u8 {
    let b = data.to_le_bytes();
    OOB_TABLE[0][b[0] as usize]
        ^ OOB_TABLE[1][b[1] as usize]
        ^ OOB_TABLE[2][b[2] as usize]
        ^ OOB_TABLE[3][b[3] as usize]
        ^ OOB_TABLE[4][b[4] as usize]
        ^ OOB_TABLE[5][b[5] as usize]
        ^ OOB_TABLE[6][b[6] as usize]
        ^ OOB_TABLE[7][b[7] as usize]
}

/// Outcome of decoding one codeword.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decoded {
    /// Clean word, no errors observed.
    Clean(u64),
    /// A single-bit error was corrected (it may have been in the data, a
    /// parity bit, or the overall-parity bit).
    Corrected(u64),
    /// Two (or an even number > 0 of) bit errors: detected, not
    /// correctable.
    Uncorrectable,
}

impl Decoded {
    /// The recovered data word, if the word was recoverable.
    pub fn data(self) -> Option<u64> {
        match self {
            Decoded::Clean(d) | Decoded::Corrected(d) => Some(d),
            Decoded::Uncorrectable => None,
        }
    }
}

/// Encode a 64-bit word, producing its 8-bit SECDED parity.
///
/// Bits 0..=6 of the result are the Hamming parity bits; bit 7 is the
/// overall parity of the other 71 codeword bits.
///
/// # Examples
///
/// ```rust
/// use bluedbm_flash::ecc::{decode, encode, Decoded};
///
/// let parity = encode(0xDEAD_BEEF_CAFE_F00D);
/// assert_eq!(decode(0xDEAD_BEEF_CAFE_F00D, parity), Decoded::Clean(0xDEAD_BEEF_CAFE_F00D));
/// ```
pub fn encode(data: u64) -> u8 {
    oob_of(data)
}

/// Decode a (data, parity) pair, correcting a single-bit error if present.
pub fn decode(data: u64, parity: u8) -> Decoded {
    // Recompute the word's OOB and diff it against the stored one. A
    // zero diff — the overwhelmingly common case — is a clean word.
    let diff = oob_of(data) ^ parity;
    if diff == 0 {
        return Decoded::Clean(data);
    }

    // Bits 0..=6 of the diff are exactly the classic Hamming syndrome
    // (recomputed parity XOR stored parity). The overall-parity check
    // over all 72 codeword bits folds to `diff`'s bit 7 XOR the
    // syndrome's own parity, by the same GF(2) linearity that powers
    // the table.
    let syndrome = diff & 0x7F;
    let overall_ok = ((u32::from(diff >> 7) + syndrome.count_ones()) & 1) == 0;

    match (syndrome, overall_ok) {
        (0, true) => Decoded::Clean(data), // unreachable: diff == 0 above
        (0, false) => Decoded::Corrected(data), // flip was in the overall bit
        (_, false) => {
            // Single-bit error at codeword position `syndrome`.
            if syndrome & (syndrome - 1) == 0 {
                // Power of two: a parity bit was hit; data is intact.
                Decoded::Corrected(data)
            } else {
                match POS_TO_DATA[syndrome as usize] {
                    // A syndrome outside the 71 used codeword positions can
                    // only arise from >= 3 raw errors: report, don't
                    // miscorrect.
                    0xFF => Decoded::Uncorrectable,
                    bit => Decoded::Corrected(data ^ (1u64 << bit)),
                }
            }
        }
        (_, true) => Decoded::Uncorrectable,
    }
}

/// Result of decoding a page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageDecode {
    /// Corrected page contents.
    pub data: Vec<u8>,
    /// Number of codewords in which a single-bit error was corrected.
    pub corrected_words: u32,
}

/// Encode a page: returns one parity byte per 8-byte word.
///
/// # Panics
///
/// Panics if `page.len()` is not a multiple of 8.
pub fn encode_page(page: &[u8]) -> Vec<u8> {
    assert!(page.len().is_multiple_of(8), "page length must be a multiple of 8");
    let mut oob = vec![0u8; page.len() / 8];
    encode_page_into(page, &mut oob);
    oob
}

/// Encode a page straight into `oob` (one parity byte per 8-byte word) —
/// the in-place program path: the array points `oob` at the tail of the
/// page's codeword slot, so a program allocates nothing.
///
/// # Panics
///
/// Panics if `page.len() != 8 * oob.len()`.
pub fn encode_page_into(page: &[u8], oob: &mut [u8]) {
    assert_eq!(page.len(), oob.len() * 8, "page/oob size mismatch");
    for (word, parity) in page.chunks_exact(8).zip(oob) {
        *parity = encode(u64::from_le_bytes(word.try_into().expect("chunk of 8")));
    }
}

/// Decode a page against its out-of-band parity bytes, writing the
/// corrected contents straight into `out` — the zero-copy decode path:
/// the flash controller points `out` at a [`bluedbm_sim::PageStore`]
/// page, so a read's data is written exactly once, by the decoder.
///
/// Returns the number of corrected codewords, or `None` if any codeword
/// is uncorrectable (in which case `out`'s contents are unspecified).
///
/// # Panics
///
/// Panics if `page.len() != 8 * oob.len()` or `out.len() != page.len()`.
pub fn decode_page_into(page: &[u8], oob: &[u8], out: &mut [u8]) -> Option<u32> {
    assert_eq!(page.len(), oob.len() * 8, "page/oob size mismatch");
    assert_eq!(out.len(), page.len(), "output/page size mismatch");
    let mut corrected = 0u32;
    for ((word, &parity), out_word) in page
        .chunks_exact(8)
        .zip(oob)
        .zip(out.chunks_exact_mut(8))
    {
        let w = u64::from_le_bytes(word.try_into().expect("chunk of 8"));
        match decode(w, parity) {
            Decoded::Clean(d) => out_word.copy_from_slice(&d.to_le_bytes()),
            Decoded::Corrected(d) => {
                corrected += 1;
                out_word.copy_from_slice(&d.to_le_bytes());
            }
            Decoded::Uncorrectable => return None,
        }
    }
    Some(corrected)
}

/// Decode a page against its out-of-band parity bytes, allocating the
/// output. Convenience wrapper over [`decode_page_into`].
///
/// Returns `None` if any codeword is uncorrectable.
///
/// # Panics
///
/// Panics if `page.len() != 8 * oob.len()`.
pub fn decode_page(page: &[u8], oob: &[u8]) -> Option<PageDecode> {
    let mut data = vec![0u8; page.len()];
    let corrected_words = decode_page_into(page, oob, &mut data)?;
    Some(PageDecode {
        data,
        corrected_words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedbm_sim::rng::Rng;

    #[test]
    fn data_positions_are_the_non_powers_of_two() {
        assert_eq!(DATA_POS[0], 3);
        assert_eq!(DATA_POS[1], 5);
        assert_eq!(DATA_POS[63], 71);
        for p in DATA_POS {
            assert_ne!(p & (p - 1), 0, "{p} should not be a power of two");
        }
    }

    #[test]
    fn clean_round_trip() {
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let d = rng.next_u64();
            assert_eq!(decode(d, encode(d)), Decoded::Clean(d));
        }
        assert_eq!(decode(0, encode(0)), Decoded::Clean(0));
        assert_eq!(decode(u64::MAX, encode(u64::MAX)), Decoded::Clean(u64::MAX));
    }

    #[test]
    fn corrects_every_single_data_bit_flip() {
        let mut rng = Rng::new(2);
        for _ in 0..50 {
            let d = rng.next_u64();
            let p = encode(d);
            for bit in 0..64 {
                let corrupted = d ^ (1u64 << bit);
                assert_eq!(decode(corrupted, p), Decoded::Corrected(d), "bit {bit}");
            }
        }
    }

    #[test]
    fn corrects_every_single_parity_bit_flip() {
        let mut rng = Rng::new(3);
        for _ in 0..50 {
            let d = rng.next_u64();
            let p = encode(d);
            for bit in 0..8 {
                let corrupted_parity = p ^ (1u8 << bit);
                assert_eq!(
                    decode(d, corrupted_parity),
                    Decoded::Corrected(d),
                    "parity bit {bit}"
                );
            }
        }
    }

    #[test]
    fn detects_double_bit_flips() {
        let mut rng = Rng::new(4);
        for _ in 0..2000 {
            let d = rng.next_u64();
            let p = encode(d);
            let b1 = rng.below(64) as u32;
            let mut b2 = rng.below(64) as u32;
            while b2 == b1 {
                b2 = rng.below(64) as u32;
            }
            let corrupted = d ^ (1u64 << b1) ^ (1u64 << b2);
            assert_eq!(decode(corrupted, p), Decoded::Uncorrectable);
        }
    }

    #[test]
    fn detects_mixed_data_parity_double_flips() {
        let mut rng = Rng::new(5);
        for _ in 0..2000 {
            let d = rng.next_u64();
            let p = encode(d);
            let db = rng.below(64) as u32;
            let pb = rng.below(7) as u32; // avoid the overall bit for this case
            let res = decode(d ^ (1u64 << db), p ^ (1u8 << pb));
            assert_eq!(res, Decoded::Uncorrectable);
        }
    }

    #[test]
    fn decoded_data_accessor() {
        assert_eq!(Decoded::Clean(5).data(), Some(5));
        assert_eq!(Decoded::Corrected(6).data(), Some(6));
        assert_eq!(Decoded::Uncorrectable.data(), None);
    }

    #[test]
    fn page_round_trip() {
        let mut rng = Rng::new(6);
        let mut page = vec![0u8; 512];
        rng.fill_bytes(&mut page);
        let oob = encode_page(&page);
        assert_eq!(oob.len(), 64);
        let dec = decode_page(&page, &oob).expect("clean page decodes");
        assert_eq!(dec.data, page);
        assert_eq!(dec.corrected_words, 0);
    }

    #[test]
    fn page_corrects_scattered_single_bit_errors() {
        let mut rng = Rng::new(7);
        let mut page = vec![0u8; 512];
        rng.fill_bytes(&mut page);
        let oob = encode_page(&page);
        // Flip one bit in each of 10 different words.
        let mut corrupted = page.clone();
        for w in 0..10 {
            let byte = w * 8 + (rng.below(8) as usize);
            corrupted[byte] ^= 1 << rng.below(8);
        }
        let dec = decode_page(&corrupted, &oob).expect("single-bit errors correct");
        assert_eq!(dec.data, page);
        assert_eq!(dec.corrected_words, 10);
    }

    #[test]
    fn page_reports_uncorrectable() {
        let mut rng = Rng::new(8);
        let mut page = vec![0u8; 64];
        rng.fill_bytes(&mut page);
        let oob = encode_page(&page);
        let mut corrupted = page.clone();
        corrupted[0] ^= 0b11; // two flips in word 0
        assert!(decode_page(&corrupted, &oob).is_none());
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn encode_page_validates_length() {
        let _ = encode_page(&[0u8; 7]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn decode_page_validates_oob() {
        let _ = decode_page(&[0u8; 16], &[0u8; 1]);
    }
}
