//! Little-endian record codec: the workspace's one binary reader and
//! writer. Artifact-store files, the artifacts and sweep points kept in
//! them, and chip snapshots are all written with [`Rec`] and read back
//! with [`RecView`].
//!
//! Deliberately tiny: fixed-width integers, IEEE-754 bit-pattern floats
//! (so a decoded value is *bit-identical* to the encoded one), and
//! length-prefixed strings/blobs/integer vectors. Reading is total:
//! every [`RecView`] accessor returns a typed [`DecodeError`] instead of
//! panicking, and every collection count is checked against the
//! remaining input ([`RecView::seq_len`]) before anything is allocated
//! for it.

use std::fmt;

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

/// Why a record could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the record was complete.
    Truncated,
    /// A field holds a value outside its domain (bad tag, a count larger
    /// than the remaining input can hold, invalid UTF-8, ...).
    Corrupt {
        /// Which field was malformed.
        what: &'static str,
    },
    /// Bytes remain after the last field.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl DecodeError {
    /// `Corrupt { what }`.
    #[must_use]
    pub const fn corrupt(what: &'static str) -> Self {
        DecodeError::Corrupt { what }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "record truncated"),
            DecodeError::Corrupt { what } => write!(f, "record corrupt: {what}"),
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after record")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Maps a failed domain check (an unknown code, a value its owning
/// type's validator rejects) onto [`DecodeError::Corrupt`].
pub trait OrCorrupt<T> {
    /// The value, or `Corrupt { what }` when `self` holds none.
    fn or_corrupt(self, what: &'static str) -> Result<T, DecodeError>;
}

impl<T> OrCorrupt<T> for Option<T> {
    fn or_corrupt(self, what: &'static str) -> Result<T, DecodeError> {
        self.ok_or(DecodeError::Corrupt { what })
    }
}

impl<T, E> OrCorrupt<T> for Result<T, E> {
    fn or_corrupt(self, what: &'static str) -> Result<T, DecodeError> {
        self.map_err(|_| DecodeError::Corrupt { what })
    }
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

    /// Appends raw bytes with no length prefix (headers and fixed-size
    /// fields only).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
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
        self.blob(s.as_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn blob(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed vector of words.
    pub fn words(&mut self, w: &[u32]) {
        self.u32(w.len() as u32);
        self.buf.reserve(4 * w.len());
        for &x in w {
            self.u32(x);
        }
    }

    /// Appends a length-prefixed vector of `u64`s.
    pub fn u64s(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        self.buf.reserve(8 * v.len());
        for &x in v {
            self.u64(x);
        }
    }
}

/// Bounds-checked reader over [`Rec`]-encoded bytes. Every accessor
/// returns a typed [`DecodeError`] on bad input — it can never panic —
/// and [`DecodeError::Truncated`] when the input ends inside the field.
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

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Requires every byte to have been consumed (`TrailingBytes`
    /// otherwise).
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(DecodeError::TrailingBytes { extra }),
        }
    }

    /// Next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Next `N` raw bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) yields N bytes"))
    }

    /// Next `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    /// Next `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Next `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Next `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Next `f64` (bit pattern).
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.u64().map(f64::from_bits)
    }

    /// Next presence/boolean tag: strictly 0 or 1 (`Corrupt { what }`
    /// for any other byte).
    pub fn tag(&mut self, what: &'static str) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Corrupt { what }),
        }
    }

    /// Next collection count, checked against the remaining input: each
    /// element encodes to at least `min_elem` bytes, so a count the input
    /// cannot hold is `Corrupt { what }` before a caller reserves memory
    /// for it.
    pub fn seq_len(&mut self, min_elem: usize, what: &'static str) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(DecodeError::Corrupt { what });
        }
        Ok(n)
    }

    /// Next length-prefixed string (`Corrupt` when not UTF-8).
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.blob()?).or_corrupt("string is not UTF-8")
    }

    /// Next length-prefixed blob.
    pub fn blob(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.bytes(len)
    }

    /// Next length-prefixed word vector; the count is checked with
    /// [`RecView::seq_len`].
    pub fn words(&mut self) -> Result<Vec<u32>, DecodeError> {
        let n = self.seq_len(4, "word count")?;
        let bytes = self.bytes(4 * n)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Next length-prefixed `u64` vector; as [`RecView::words`].
    pub fn u64s(&mut self) -> Result<Vec<u64>, DecodeError> {
        let n = self.seq_len(8, "u64 count")?;
        let bytes = self.bytes(8 * n)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One field of every fixed-width and byte-string type.
    fn sample() -> Rec {
        let mut r = Rec::new();
        r.u8(7);
        r.u16(0xbeef);
        r.u32(0xdead_beef);
        r.u64(u64::MAX - 1);
        r.f64(-0.0);
        r.u8(1);
        r.str("héllo");
        r.blob(&[1, 2, 3]);
        r
    }

    /// Reads back everything [`sample`] wrote.
    fn read_sample(v: &mut RecView<'_>) -> Result<(), DecodeError> {
        v.u8()?;
        v.u16()?;
        v.u32()?;
        v.u64()?;
        v.f64()?;
        v.tag("flag")?;
        v.str()?;
        v.blob()?;
        v.finish()
    }

    #[test]
    fn round_trip_every_field_type() {
        let mut r = sample();
        r.words(&[4, 5]);
        r.u64s(&[6, u64::MAX]);
        let bytes = r.into_bytes();
        let mut v = RecView::new(&bytes);
        assert_eq!(v.u8(), Ok(7));
        assert_eq!(v.u16(), Ok(0xbeef));
        assert_eq!(v.u32(), Ok(0xdead_beef));
        assert_eq!(v.u64(), Ok(u64::MAX - 1));
        assert_eq!(v.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(v.tag("flag"), Ok(true));
        assert_eq!(v.str(), Ok("héllo"));
        assert_eq!(v.blob(), Ok(&[1u8, 2, 3][..]));
        assert_eq!(v.words(), Ok(vec![4, 5]));
        assert_eq!(v.u64s(), Ok(vec![6, u64::MAX]));
        assert_eq!(v.finish(), Ok(()));
    }

    #[test]
    fn truncation_reads_as_none_never_panics() {
        let mut r = Rec::new();
        r.words(&[1, 2, 3]);
        r.str("tail");
        let bytes = r.into_bytes();
        for cut in 0..bytes.len() {
            let mut v = RecView::new(&bytes[..cut]);
            // A prefix that cuts the word vector's body leaves a count
            // the input cannot hold (`Corrupt`); every other cut is
            // `Truncated`. Nothing may panic or decode.
            let read = v.words().and_then(|_| v.str().map(drop));
            assert!(
                matches!(
                    read,
                    Err(DecodeError::Truncated | DecodeError::Corrupt { .. })
                ),
                "cut {cut}: {read:?}"
            );
        }
    }

    #[test]
    fn every_prefix_is_truncated() {
        let bytes = sample().into_bytes();
        assert_eq!(read_sample(&mut RecView::new(&bytes)), Ok(()));
        for cut in 0..bytes.len() {
            assert_eq!(
                read_sample(&mut RecView::new(&bytes[..cut])),
                Err(DecodeError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn hostile_length_prefix_rejected_before_allocating() {
        // A words() length of u32::MAX over a 4-byte body must not
        // attempt the allocation.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(
            RecView::new(&bytes).words(),
            Err(DecodeError::corrupt("word count"))
        );
    }

    #[test]
    fn hostile_seq_len_is_corrupt() {
        // Four elements of at least 8 bytes cannot fit in 31 bytes, even
        // though the count itself (4) is far below the byte count.
        let mut r = Rec::new();
        r.u32(4);
        r.raw(&[0; 31]);
        let bytes = r.into_bytes();
        assert_eq!(
            RecView::new(&bytes).seq_len(8, "elems"),
            Err(DecodeError::corrupt("elems"))
        );
        assert_eq!(RecView::new(&bytes).seq_len(7, "elems"), Ok(4));
        // A count of u32::MAX with a huge element size saturates instead
        // of overflowing.
        let bytes = u32::MAX.to_le_bytes();
        assert_eq!(
            RecView::new(&bytes).seq_len(usize::MAX, "elems"),
            Err(DecodeError::corrupt("elems"))
        );
    }

    #[test]
    fn tag_outside_zero_one_is_corrupt() {
        for b in 2..=u8::MAX {
            assert_eq!(
                RecView::new(&[b]).tag("presence"),
                Err(DecodeError::corrupt("presence"))
            );
        }
        assert_eq!(
            RecView::new(&[]).tag("presence"),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn trailing_bytes_are_counted() {
        let mut bytes = sample().into_bytes();
        bytes.extend_from_slice(&[9, 9, 9]);
        assert_eq!(
            read_sample(&mut RecView::new(&bytes)),
            Err(DecodeError::TrailingBytes { extra: 3 })
        );
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut r = Rec::new();
        r.blob(&[0xff, 0xfe]);
        let bytes = r.into_bytes();
        assert!(matches!(
            RecView::new(&bytes).str(),
            Err(DecodeError::Corrupt { .. })
        ));
    }
}
