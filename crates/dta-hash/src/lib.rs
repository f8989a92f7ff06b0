//! CRC engine and hash-function families for DTA.
//!
//! The DTA translator (SIGCOMM 2023, §5.2) uses the Tofino-native CRC engine
//! both for indexing (computing the `N` memory locations of the Key-Write /
//! Key-Increment / Postcarding primitives) and for the key checksums stored
//! alongside telemetry values. "Carefully selected CRC polynomials are used to
//! create several independent hash functions using the same underlying CRC
//! engine."
//!
//! This crate reproduces that machinery in software:
//!
//! * [`Crc32`] — a table-driven 32-bit CRC with an arbitrary polynomial,
//!   reflection and init/xorout configuration, equivalent to the Tofino CRC
//!   extern.
//! * [`polynomials`] — the catalogue of standard 32-bit polynomials that the
//!   hardware exposes.
//! * [`HashFamily`] — `N` independent hash functions built from distinct
//!   polynomials, used for redundancy slot selection.
//! * [`checksum32`] / [`checksum_b`] — the key-checksum functions used for
//!   query validation (Appendix A.5 of the paper).

pub mod crc;
pub mod family;
pub mod polynomials;
pub mod scratch;

pub use crc::{Crc32, CrcParams};
pub use family::{
    checksum32, checksum_b, checksum_b_from, checksum_state, slot_of, Checksummer, HashFamily,
};
pub use scratch::{KeyDigests, KeyScratch, ScratchStats};

/// Hint the CPU to start pulling the cache line holding `*p` toward L1
/// (`prefetcht0`), so that a later access finds the miss already in
/// flight. A hint is not an access: nothing is read or written, no fault is
/// possible, and off x86_64 it compiles to nothing — which is why the batch
/// loops that call it (`Translator::process_batch`,
/// `RdmaNic::ingress_burst`) stay bit-identical to their one-at-a-time
/// twins. Read intent only: `_MM_HINT_ET0` lowers to the same instruction
/// without `+prfchw`.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 never dereferences its operand architecturally —
    // it cannot fault and changes no visible state for any address, valid
    // or not — and SSE is part of the x86_64 baseline.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_ieee_check_value() {
        // The universal CRC "check" input.
        let crc = Crc32::new(CrcParams::IEEE);
        assert_eq!(crc.compute(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32c_check_value() {
        let crc = Crc32::new(CrcParams::CASTAGNOLI);
        assert_eq!(crc.compute(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn crc32_bzip2_check_value() {
        let crc = Crc32::new(CrcParams::BZIP2);
        assert_eq!(crc.compute(b"123456789"), 0xFC89_1918);
    }

    #[test]
    fn crc32_koopman_check_value() {
        let crc = Crc32::new(CrcParams::KOOPMAN);
        assert_eq!(crc.compute(b"123456789"), 0x2D3D_D0AE);
    }

    #[test]
    fn family_members_disagree() {
        let fam = HashFamily::new(4);
        let k = b"\x01\x02\x03\x04flow";
        let outs: Vec<u32> = (0..4).map(|i| fam.hash(i, k)).collect();
        // Distinct polynomials must produce distinct digests for a
        // non-degenerate key with overwhelming probability.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(outs[i], outs[j], "hashes {i} and {j} collided");
            }
        }
    }
}
