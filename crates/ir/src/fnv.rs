//! 64-bit FNV-1a, the one hash behind the repo's pinned digests.
//!
//! Program digests, wake and fleet digests, certificate pins and the
//! fuzz targets' seed streams all hash with this construction, so a
//! pinned value means the same thing wherever it is checked.

/// A streaming 64-bit FNV-1a hasher.
///
/// # Example
///
/// ```
/// use sidewinder_ir::fnv::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.bytes(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(Fnv1a::hash(b"a"), h.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis.
    #[inline]
    pub const fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }

    /// Folds in a byte string.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds in a `u64` as its eight little-endian bytes.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The digest of everything folded in so far.
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }

    /// The digest of one byte string.
    #[inline]
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(bytes);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn words_hash_as_little_endian_bytes() {
        let mut h = Fnv1a::new();
        h.word(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), Fnv1a::hash(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
