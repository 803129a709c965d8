//! The workspace's fast deterministic hasher for maps and sets keyed by
//! values the program makes itself (DRAM page indices, candidate node
//! masks, mapper memo keys).
//!
//! The default SipHash resists keys crafted to collide, which these
//! internal keys do not need, and costs a measurable share of the
//! simulator's memory path and the compiler's candidate search. Keys
//! from outside the program keep the default hasher.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher: every word written is xored into the state,
/// multiplied by the 64-bit golden-ratio constant and rotated by 32, so
/// the well-mixed high product bits land in the low bits `HashMap`
/// indexes by. A single `u32` write into a fresh hasher is exactly the
/// Fibonacci hash of the `u32`. Deterministic: the same key hashes the
/// same in every process.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(32);
    }
}

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_u128(&mut self, n: u128) {
        self.mix(n as u64);
        self.mix((n >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]: `HashMap<K, V, FastBuildHasher>`.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn a_u32_key_is_its_fibonacci_hash() {
        for n in [0u32, 1, 7, 0x0008_0000, u32::MAX] {
            let want = u64::from(n)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(32);
            assert_eq!(hash_of(n), want);
        }
    }

    #[test]
    fn every_word_of_a_composite_key_counts() {
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 2u32)));
        assert_ne!(hash_of((1u32, 2u32)), hash_of((1u32, 3u32)));
        assert_ne!(hash_of(1u128), hash_of(1u128 << 64));
        assert_ne!(hash_of([1u8; 9].as_slice()), hash_of([1u8; 8].as_slice()));
        assert_eq!(hash_of(vec![3usize, 4]), hash_of(vec![3usize, 4]));
    }
}
