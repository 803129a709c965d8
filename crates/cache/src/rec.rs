//! Little-endian record codec shared by the artifact store's files and
//! the payloads callers keep in it (artifacts and sweep points).
//!
//! Deliberately tiny: fixed-width integers, IEEE-754 bit-pattern floats
//! (so a decoded value is *bit-identical* to the encoded one), and
//! length-prefixed strings/blobs/word-vectors. [`Rec`] writes, the
//! bounds-checked [`RecView`] reads; every accessor returns `None` past
//! the end, so truncated or hostile bytes can never panic a reader.

/// 64-bit FNV-1a, used as the self-checksum of store files (corruption
/// detection only — content *keys* use SHA-256).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Little-endian record writer.
#[derive(Debug, Default, Clone)]
pub struct Rec {
    buf: Vec<u8>,
}

impl Rec {
    /// Empty record.
    #[must_use]
    pub fn new() -> Self {
        Rec::default()
    }

    /// Finished bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes with no length prefix (header use only).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn blob(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed vector of words.
    pub fn words(&mut self, w: &[u32]) {
        self.u32(w.len() as u32);
        for &x in w {
            self.u32(x);
        }
    }
}

/// Bounds-checked reader over [`Rec`]-encoded bytes. Every accessor
/// returns `None` past the end — truncation can never panic.
#[derive(Debug, Clone, Copy)]
pub struct RecView<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RecView<'a> {
    /// Reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        RecView { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Next `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    /// Next `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Next `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Next `f64` (bit pattern).
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Next length-prefixed string.
    pub fn str(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?).ok()
    }

    /// Next length-prefixed blob.
    pub fn blob(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.bytes(len)
    }

    /// Next length-prefixed word vector. The length is validated against
    /// the remaining bytes before allocating.
    pub fn words(&mut self) -> Option<Vec<u32>> {
        let len = self.u32()? as usize;
        if len.checked_mul(4)? > self.buf.len() - self.pos {
            return None;
        }
        (0..len).map(|_| self.u32()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_field_type() {
        let mut r = Rec::new();
        r.u8(7);
        r.u32(0xdead_beef);
        r.u64(u64::MAX - 1);
        r.f64(-0.0);
        r.str("héllo");
        r.blob(&[1, 2, 3]);
        r.words(&[4, 5]);
        let bytes = r.into_bytes();
        let mut v = RecView::new(&bytes);
        assert_eq!(v.u8(), Some(7));
        assert_eq!(v.u32(), Some(0xdead_beef));
        assert_eq!(v.u64(), Some(u64::MAX - 1));
        assert_eq!(v.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(v.str(), Some("héllo"));
        assert_eq!(v.blob(), Some(&[1u8, 2, 3][..]));
        assert_eq!(v.words(), Some(vec![4, 5]));
        assert!(v.at_end());
    }

    #[test]
    fn truncation_reads_as_none_never_panics() {
        let mut r = Rec::new();
        r.words(&[1, 2, 3]);
        r.str("tail");
        let bytes = r.into_bytes();
        for cut in 0..bytes.len() {
            let mut v = RecView::new(&bytes[..cut]);
            // Either accessor may fail; neither may panic.
            let _ = v.words();
            let _ = v.str();
        }
    }

    #[test]
    fn hostile_length_prefix_rejected_before_allocating() {
        // A words() length of u32::MAX over a 4-byte body must not
        // attempt the allocation.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(RecView::new(&bytes).words(), None);
    }
}
