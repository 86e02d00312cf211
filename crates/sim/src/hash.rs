//! FNV-1a (64-bit): the stable, unkeyed hash behind everything that
//! must come out the same in every process — page checksums, snapshot
//! and chunk ids, home-host assignment, fault-schedule fingerprints.

/// The FNV-1a offset basis: the hash of no input, and the seed a
/// word-wise fold ([`mix`]) starts from.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one word into a running hash in a single FNV-1a step (the
/// whole word is xor-ed in at once, not byte by byte).
#[inline]
pub const fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(PRIME)
}

/// FNV-1a over `bytes`.
#[inline]
pub const fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = OFFSET;
    let mut i = 0;
    while i < bytes.len() {
        h = mix(h, bytes[i] as u64);
        i += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
