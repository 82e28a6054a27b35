//! Stable, platform-independent seeding.
//!
//! Every synthetic weight matrix, dataset sample, and randomized trial in the
//! workspace is keyed by a human-readable label (`"vision/ViT-B-16/proj"`,
//! `"bench/food101/sample/42"`, ...). This module turns such labels into
//! 256-bit ChaCha seeds via an FNV-1a / SplitMix64 expansion — no external
//! hashing crates, no reliance on `std::hash` (whose output is not guaranteed
//! stable across Rust releases).

/// FNV-1a 64-bit hash of a byte string. Stable by construction.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// SplitMix64 step: a high-quality 64-bit mixer used to expand one hash
/// word into a full seed.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Expands a label into a 32-byte ChaCha seed.
///
/// Deterministic across platforms, endianness-stable (little-endian byte
/// order is fixed explicitly).
pub fn seed_from_label(label: &str) -> [u8; 32] {
    let mut state = fnv1a(label.as_bytes());
    let mut seed = [0u8; 32];
    for chunk in seed.chunks_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    seed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Reference values for FNV-1a 64-bit.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = seed_from_label("alpha");
        let b = seed_from_label("alpha");
        let c = seed_from_label("beta");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, [0u8; 32]);
    }

    #[test]
    fn splitmix_sequence_is_well_distributed() {
        let mut state = 1u64;
        let mut ones = 0u32;
        for _ in 0..64 {
            ones += splitmix64(&mut state).count_ones();
        }
        // 64 draws x 64 bits: expect ~2048 set bits; allow a wide band.
        assert!((1800..2300).contains(&ones), "ones = {ones}");
    }
}
