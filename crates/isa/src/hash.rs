//! FNV-1a-64, the one content hash: manifest `seed`s, checkpoint keys
//! and integrity hashes, the pin table and the test pins all use it.

/// The FNV-1a-64 offset basis: the hash of no bytes.
pub const FNV1A64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime, 2^40 + 2^8 + 0xb3.
const FNV1A64_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a-64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(FNV1A64_BASIS, bytes)
}

/// Continues the running FNV-1a-64 `hash` over `bytes`: hashing the
/// parts of an input in turn gives [`fnv1a64`] of their concatenation.
pub fn fnv1a64_continue(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV1A64_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b""), FNV1A64_BASIS);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn continuing_hashes_the_concatenation() {
        let whole = fnv1a64(b"foobar");
        for split in 0..=6 {
            let (a, b) = b"foobar".split_at(split);
            assert_eq!(fnv1a64_continue(fnv1a64(a), b), whole, "split at {split}");
        }
        assert_eq!(fnv1a64_continue(FNV1A64_BASIS, b"foobar"), whole);
    }
}
