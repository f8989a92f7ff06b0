//! Hash-function families for redundancy slot selection and key checksums.

use crate::crc::Crc32;
use crate::polynomials::{CHECKSUM_PARAMS, INDEX_POLYS, MAX_REDUNDANCY};

/// Map a 32-bit digest uniformly onto `0..slots` — the shared reduction
/// used by both the translator's address generation and the collector's
/// query-side recomputation (they must agree bit-for-bit).
///
/// For tables that fit 32 bits this is a multiply-shift (Lemire's
/// fastrange), which the hot path prefers over a 64-bit division; larger
/// tables fall back to modulo.
#[inline]
pub fn slot_of(digest: u32, slots: u64) -> u64 {
    if slots <= u32::MAX as u64 {
        (digest as u64 * slots) >> 32
    } else {
        digest as u64 % slots
    }
}

/// A family of `n` independent hash functions `h_0 .. h_{n-1}`, each a
/// distinct CRC32, as used by the translator to compute the `N` redundancy
/// slots of Key-Write / Key-Increment and the `N` chunks of Postcarding.
#[derive(Debug, Clone)]
pub struct HashFamily {
    members: Vec<Crc32>,
}

impl HashFamily {
    /// Create a family with `n` members (`1 ..= MAX_REDUNDANCY`).
    ///
    /// # Panics
    /// Panics if `n` is zero or exceeds [`MAX_REDUNDANCY`].
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=MAX_REDUNDANCY).contains(&n),
            "hash family size {n} out of range 1..={MAX_REDUNDANCY}"
        );
        HashFamily {
            members: INDEX_POLYS[..n].iter().map(|p| Crc32::new(*p)).collect(),
        }
    }

    /// Number of members in the family.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the family is empty (never true for a constructed family).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Hash `key` with member `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn hash(&self, i: usize, key: &[u8]) -> u32 {
        self.members[i].compute(key)
    }

    /// Slot index for member `i` over a table of `slots` entries
    /// (`h_0(n, K) mod Buf_len` in Algorithm 1; the reduction is
    /// [`slot_of`]).
    ///
    /// # Panics
    /// Panics if `slots` is zero.
    pub fn slot(&self, i: usize, key: &[u8], slots: u64) -> u64 {
        assert!(slots > 0, "slot table must be non-empty");
        slot_of(self.hash(i, key), slots)
    }

    /// All `n` slot indices for `key` (may contain duplicates when two
    /// members collide modulo `slots`, exactly as on the hardware).
    pub fn slots(&self, key: &[u8], slots: u64) -> Vec<u64> {
        (0..self.len()).map(|i| self.slot(i, key, slots)).collect()
    }
}

/// The shared checksum engine. Table construction builds 8KB of slice-by-8
/// tables, so it must happen once per process, not once per call — the
/// Postcarding hot path computes a hop checksum per report.
fn checksum_engine() -> &'static Crc32 {
    static ENGINE: std::sync::OnceLock<Crc32> = std::sync::OnceLock::new();
    ENGINE.get_or_init(|| Crc32::new(CHECKSUM_PARAMS))
}

/// The 32-bit key checksum (`h1` in Algorithm 1) stored alongside telemetry
/// values for query validation.
pub fn checksum32(key: &[u8]) -> u32 {
    checksum_engine().compute(key)
}

/// A `b`-bit checksum (`b <= 32`), used by the Postcarding primitive where
/// slot widths below 32 bits trade memory for collision probability
/// (Appendix A.6).
pub fn checksum_b(key: &[u8], b: u32) -> u32 {
    checksum_b_from(checksum_state(&[]), key, b)
}

/// State of the checksum engine after walking `prefix`: what
/// [`checksum_b_from`] extends. A caller that checksums many inputs sharing
/// a prefix (Postcarding's `key ‖ hop`, one per hop) walks the prefix once.
pub fn checksum_state(prefix: &[u8]) -> u32 {
    let engine = checksum_engine();
    engine.update(engine.start(), prefix)
}

/// [`checksum_b`] of `prefix ‖ tail`, given [`checksum_state`] of `prefix`.
#[inline]
pub fn checksum_b_from(state: u32, tail: &[u8], b: u32) -> u32 {
    assert!((1..=32).contains(&b), "checksum width {b} out of range 1..=32");
    let engine = checksum_engine();
    let full = engine.finish(engine.update(state, tail));
    if b == 32 {
        full
    } else {
        full & ((1u32 << b) - 1)
    }
}

/// A reusable checksum engine for hot paths (query loops, translators).
#[derive(Debug, Clone)]
pub struct Checksummer {
    engine: Crc32,
}

impl Checksummer {
    /// Build the engine once.
    pub fn new() -> Self {
        Checksummer {
            engine: Crc32::new(CHECKSUM_PARAMS),
        }
    }

    /// 32-bit checksum of `key`.
    pub fn checksum32(&self, key: &[u8]) -> u32 {
        self.engine.compute(key)
    }

    /// `b`-bit checksum of `key`.
    pub fn checksum_b(&self, key: &[u8], b: u32) -> u32 {
        assert!((1..=32).contains(&b));
        let full = self.engine.compute(key);
        if b == 32 {
            full
        } else {
            full & ((1u32 << b) - 1)
        }
    }
}

impl Default for Checksummer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_in_range() {
        let fam = HashFamily::new(4);
        for k in 0u32..100 {
            for s in fam.slots(&k.to_be_bytes(), 17) {
                assert!(s < 17);
            }
        }
    }

    #[test]
    fn checksum_independent_of_index_hashes() {
        let fam = HashFamily::new(8);
        let key = b"10.0.0.1:443->10.0.0.2:80/6";
        let cs = checksum32(key);
        for i in 0..8 {
            assert_ne!(cs, fam.hash(i, key));
        }
    }

    #[test]
    fn checksum_b_masks_high_bits() {
        let key = b"some-key";
        assert_eq!(checksum_b(key, 32), checksum32(key));
        assert_eq!(checksum_b(key, 8), checksum32(key) & 0xFF);
        assert_eq!(checksum_b(key, 1) & !1, 0);
    }

    #[test]
    fn checksum_from_a_prefix_state_equals_the_one_shot_walk() {
        let data = b"0123456789abcdef\x04";
        for split in [0, 1, 8, 16, data.len()] {
            let (prefix, tail) = data.split_at(split);
            for b in [32, 16, 5] {
                assert_eq!(checksum_b_from(checksum_state(prefix), tail, b), checksum_b(data, b));
            }
        }
    }

    #[test]
    fn checksummer_matches_free_functions() {
        let cs = Checksummer::new();
        let key = b"flow-42";
        assert_eq!(cs.checksum32(key), checksum32(key));
        assert_eq!(cs.checksum_b(key, 16), checksum_b(key, 16));
    }

    #[test]
    #[should_panic]
    fn zero_sized_family_rejected() {
        let _ = HashFamily::new(0);
    }

    #[test]
    #[should_panic]
    fn oversized_family_rejected() {
        let _ = HashFamily::new(9);
    }

    #[test]
    fn family_is_deterministic() {
        let a = HashFamily::new(3);
        let b = HashFamily::new(3);
        for i in 0..3 {
            assert_eq!(a.hash(i, b"key"), b.hash(i, b"key"));
        }
    }
}
