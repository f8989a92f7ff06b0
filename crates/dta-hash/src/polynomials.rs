//! The catalogue of 32-bit CRC parameter sets available to DTA components.
//!
//! The paper (§5.2): "Carefully selected CRC polynomials are used to create
//! several independent hash functions using the same underlying CRC engine."
//! We expose the same menu the Tofino extern provides so that hash-family
//! members are genuinely distinct CRCs rather than seed-perturbed copies of
//! one function.

use crate::crc::CrcParams;

/// All parameter sets usable for slot-index hash functions, in the order the
/// [`crate::HashFamily`] consumes them.
pub const INDEX_POLYS: &[CrcParams] = &[
    CrcParams::IEEE,
    CrcParams::CASTAGNOLI,
    CrcParams::KOOPMAN,
    CrcParams::BZIP2,
    CrcParams::BASE91,
    CrcParams::AIXM,
    CrcParams::CDROM_EDC,
    CrcParams::XFER,
];

/// The parameter set reserved for key checksums (`h1` in Algorithm 1). It is
/// deliberately *not* in [`INDEX_POLYS`]: the checksum must be independent of
/// every slot-index function or checksum collisions would correlate with slot
/// collisions and break the Appendix A.5 analysis.
pub const CHECKSUM_PARAMS: CrcParams = CrcParams {
    poly: 0x04C1_1DB7,
    init: 0x5A5A_5A5A,
    reflect_in: false,
    reflect_out: false,
    xor_out: 0xA5A5_A5A5,
};

/// Maximum redundancy level supported by the hash family: the wire
/// decoder's bound, [`dta_core::MAX_REDUNDANCY`], as an index width.
pub const MAX_REDUNDANCY: usize = dta_core::MAX_REDUNDANCY as usize;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_covers_max_redundancy() {
        assert!(INDEX_POLYS.len() >= MAX_REDUNDANCY);
    }

    #[test]
    fn checksum_params_not_in_index_catalogue() {
        assert!(INDEX_POLYS.iter().all(|p| *p != CHECKSUM_PARAMS));
    }

    #[test]
    fn catalogue_entries_are_unique() {
        for (i, a) in INDEX_POLYS.iter().enumerate() {
            for b in &INDEX_POLYS[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
