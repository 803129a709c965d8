//! SHA-256, self-contained.
//!
//! The artifact store keys entries by a *strong* content hash so that a
//! cache hit is evidence the inputs are byte-identical across
//! processes. FIPS 180-4, streaming interface, no dependencies.

/// Streaming SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_bytes: u64,
}

const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher (FIPS 180-4 initial state).
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09_e667,
                0xbb67_ae85,
                0x3c6e_f372,
                0xa54f_f53a,
                0x510e_527f,
                0x9b05_688c,
                0x1f83_d9ab,
                0x5be0_cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_bytes: 0,
        }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total_bytes = self.total_bytes.wrapping_add(bytes.len() as u64);
        if self.buf_len > 0 {
            let take = bytes.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&bytes[..take]);
            self.buf_len += take;
            bytes = &bytes[take..];
            if self.buf_len < 64 {
                // `bytes` is exhausted (take == bytes.len()); the tail
                // assignment below must not clobber the partial buffer.
                return;
            }
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        while bytes.len() >= 64 {
            let (block, rest) = bytes.split_at(64);
            self.compress(block.try_into().expect("64-byte block"));
            bytes = rest;
        }
        self.buf[..bytes.len()].copy_from_slice(bytes);
        self.buf_len = bytes.len();
    }

    /// Length-prefixed update: domain-separates adjacent fields so that
    /// `("ab", "c")` and `("a", "bc")` hash differently.
    pub fn field(&mut self, bytes: &[u8]) {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes);
    }

    /// Finishes and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_bytes.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // The length must not count the padding just absorbed.
        let mut block = self.buf;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Finishes and returns the digest as lowercase hex.
    #[must_use]
    pub fn finalize_hex(self) -> String {
        let d = self.finalize();
        let mut s = String::with_capacity(64);
        for b in d {
            use std::fmt::Write as _;
            let _ = write!(s, "{b:02x}");
        }
        s
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
        }
        #[cfg(target_arch = "x86_64")]
        if sha_ni::available() {
            // SAFETY: `available` just confirmed that this CPU has every
            // instruction-set extension `sha_ni::compress` enables.
            unsafe { sha_ni::compress(&mut self.state, &w) };
            return;
        }
        compress_portable(&mut self.state, &w);
    }
}

/// One FIPS 180-4 block compression of the big-endian message words `m`.
fn compress_portable(state: &mut [u32; 8], m: &[u32; 16]) {
    let mut w = [0u32; 64];
    w[..16].copy_from_slice(m);
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The same compression on the x86 SHA extensions, which run two rounds
/// per instruction: content keys hash every program a workbench loads,
/// and this takes that hashing to a fraction of the portable rounds'
/// cost. The lane layout follows Intel's SHA-extensions reference: the
/// state travels as `(a, b, e, f)` and `(c, d, g, h)`.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Whether this CPU has every extension [`compress`] enables.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Four words as one vector, `v[0]` in the lowest lane.
    #[target_feature(enable = "sse2")]
    fn lanes(v: &[u32]) -> __m128i {
        _mm_set_epi32(v[3] as i32, v[2] as i32, v[1] as i32, v[0] as i32)
    }

    /// Compresses one block of big-endian message words `m` into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support SHA, SSE2, SSSE3 and SSE4.1 ([`available`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], m: &[u32; 16]) {
        let dcba = lanes(&state[..4]);
        let hgfe = lanes(&state[4..]);
        let badc = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(badc, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, badc, 0xF0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        let mut w = [
            lanes(&m[0..4]),
            lanes(&m[4..8]),
            lanes(&m[8..12]),
            lanes(&m[12..16]),
        ];
        for i in 0..16 {
            if i >= 4 {
                // W[4i..4i+4] from the four previous quads, kept in a ring.
                let t = _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]);
                let t = _mm_add_epi32(t, _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4));
                w[i % 4] = _mm_sha256msg2_epu32(t, w[(i + 3) % 4]);
            }
            let wk = _mm_add_epi32(w[i % 4], lanes(&K[4 * i..4 * i + 4]));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        *state = [
            _mm_extract_epi32(dcba, 0) as u32,
            _mm_extract_epi32(dcba, 1) as u32,
            _mm_extract_epi32(dcba, 2) as u32,
            _mm_extract_epi32(dcba, 3) as u32,
            _mm_extract_epi32(hgef, 0) as u32,
            _mm_extract_epi32(hgef, 1) as u32,
            _mm_extract_epi32(hgef, 2) as u32,
            _mm_extract_epi32(hgef, 3) as u32,
        ];
    }
}

/// One-shot digest.
#[must_use]
pub fn sha256(bytes: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(bytes);
    h.finalize()
}

/// One-shot hex digest.
#[must_use]
pub fn sha256_hex(bytes: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(bytes);
    h.finalize_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 / NIST CAVP known-answer vectors.
    #[test]
    fn known_answers() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            h.finalize_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..200u16).map(|i| (i * 7 % 251) as u8).collect();
        let want = sha256(&data);
        for cut in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finalize(), want, "split at {cut}");
        }
    }

    /// The SHA-extensions rounds agree with the portable rounds on
    /// arbitrary states and blocks (the known answers above run whichever
    /// path this CPU takes).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sha_extensions_match_the_portable_rounds() {
        if !sha_ni::available() {
            return;
        }
        let mut x = 0x9E37_79B9u32;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        for _ in 0..256 {
            let m: [u32; 16] = std::array::from_fn(|_| next());
            let start: [u32; 8] = std::array::from_fn(|_| next());
            let (mut portable, mut ni) = (start, start);
            compress_portable(&mut portable, &m);
            // SAFETY: `available` confirmed the extensions above.
            unsafe { sha_ni::compress(&mut ni, &m) };
            assert_eq!(portable, ni, "state {start:08x?}, block {m:08x?}");
        }
    }

    #[test]
    fn field_framing_distinguishes_boundaries() {
        let mut a = Sha256::new();
        a.field(b"ab");
        a.field(b"c");
        let mut b = Sha256::new();
        b.field(b"a");
        b.field(b"bc");
        assert_ne!(a.finalize(), b.finalize());
    }
}
