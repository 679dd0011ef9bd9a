//! The workspace's one FNV-1a-64 implementation.
//!
//! Flow identity ([`crate::runner::ScenarioConfig::hash_into`]), the
//! campaign cache key and the spec expansion digest all stream through
//! this state, so "same bytes ⇒ same digest" holds across them by
//! construction. FNV-1a is stable across runs, platforms and Rust versions
//! (unlike `DefaultHasher`, which is randomly keyed per process).

/// Incremental FNV-1a-64 state: feed bytes, take the digest at the end.
/// Hashing a stream in pieces yields exactly the digest of the
/// concatenated bytes.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The empty-input state (the FNV offset basis).
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Mixes `bytes` into the state, in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes one byte (an enum-variant tag).
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Mixes `v` as 4 little-endian bytes.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes `v` as 8 little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes the IEEE-754 bit pattern of `v` as 8 little-endian bytes, so
    /// `-0.0`, `0.0` and every NaN payload stay distinct.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a-64 of one byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
