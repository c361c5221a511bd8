//! Content digests for the container substrate.
//!
//! OCI images address every blob (layer, config, manifest) by a SHA-256 digest of its
//! serialized bytes. We implement SHA-256 here directly (FIPS 180-4) so the substrate has
//! no external cryptography dependency; the values are bit-exact with any other SHA-256
//! implementation, which the unit tests verify against published test vectors.

use serde::{Deserialize, Serialize};
use std::fmt;

/// SHA-256 round constants (first 32 bits of the fractional parts of the cube roots of the
/// first 64 prime numbers).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values (first 32 bits of the fractional parts of the square roots of the
/// first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a hasher in the initial state.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// Feed bytes into the hasher.
    ///
    /// The whole 64-byte-aligned middle of `data` goes to the compression kernel in one
    /// call, straight from the input slice — only a trailing partial block is staged in
    /// the internal buffer.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
        let mut input = data;
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (blocks, rest) = input.split_at(input.len() - input.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // The 0x80 terminator, zero padding, and the 64-bit big-endian length closing a
        // block; the length moves to a block of its own when fewer than eight bytes
        // are left after the terminator.
        let end = self.buffered;
        self.buffer[end] = 0x80;
        if end < 56 {
            self.buffer[end + 1..56].fill(0);
        } else {
            self.buffer[end + 1..].fill(0);
            compress_blocks(&mut self.state, &self.buffer);
            self.buffer[..56].fill(0);
        }
        self.buffer[56..].copy_from_slice(&self.length_bits.to_be_bytes());
        compress_blocks(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// `σ0` of the message schedule.
#[inline(always)]
fn small_sigma0(x: u32) -> u32 {
    x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
}

/// `σ1` of the message schedule.
#[inline(always)]
fn small_sigma1(x: u32) -> u32 {
    x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
}

/// The `compress` implementation a CPU gets. Both produce the same state for the same
/// input, bit for bit; the choice is made from what the hardware reports, never from
/// an option.
enum Kernel {
    /// The x86 SHA extensions ([`compress_sha_ni`]).
    #[cfg(target_arch = "x86_64")]
    ShaNi,
    /// Portable rounds ([`compress_scalar`]): older x86 CPUs and every other
    /// architecture.
    Scalar,
}

impl Kernel {
    /// The kernel for the CPU this process runs on. std caches the feature detection in
    /// one atomic, so this is a load and a few bit tests per call.
    #[inline]
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            return Kernel::ShaNi;
        }
        Kernel::Scalar
    }
}

/// Compress a run of whole blocks (`data.len() % 64 == 0`) into `state`. A free function
/// over disjoint `state`/`data` borrows so [`Sha256::update`] can feed blocks straight
/// from the input slice, and partial blocks from the internal buffer, without staging
/// copies; the unit is a run so a kernel sets its registers up once per `update`.
fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0, "whole blocks only");
    match Kernel::detect() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Kernel::detect` returns `ShaNi` only after the CPU reported every
        // feature `compress_sha_ni` is compiled with (`sha`, `sse2`, `ssse3`, `sse4.1`).
        Kernel::ShaNi => unsafe { compress_sha_ni(state, data) },
        Kernel::Scalar => compress_scalar(state, data),
    }
}

/// [`compress_blocks`] on the x86 SHA extensions: two `sha256rnds2` per four rounds, the
/// message schedule advanced by `sha256msg1`/`sha256msg2` in four rolling vectors.
///
/// # Safety
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`
/// (`is_x86_feature_detected!`); executing these instructions without them is undefined
/// behaviour.
// The schedule steps of the last laps sit behind constant-false conditions; the
// liveness lint does not fold them and reports their assignments as dead.
#[allow(unused_assignments)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_sha_ni(state: &mut [u32; 8], data: &[u8]) {
    use std::arch::x86_64::*;

    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: `state` is eight `u32`s, so both 16-byte halves are in bounds;
    // `_mm_loadu_si128` has no alignment requirement.
    let (dcba, hgfe) = unsafe {
        let words = state.as_ptr().cast::<__m128i>();
        (_mm_loadu_si128(words), _mm_loadu_si128(words.add(1)))
    };
    // `sha256rnds2` wants the state as the vectors ABEF and CDGH.
    let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

    // Four rounds fed by schedule vector `$cur` (words 4i..4i+3), then the schedule
    // steps that fall between them: `$next` (words 4i+4..) is finished by `msg2` from
    // `$cur` and `$prev`, and `$prev` starts its next lap with `msg1`.
    macro_rules! four_rounds {
        ($i:expr, $cur:ident, $next:ident, $prev:ident) => {{
            const T: usize = 4 * $i;
            let k = _mm_set_epi32(
                K[T + 3] as i32,
                K[T + 2] as i32,
                K[T + 1] as i32,
                K[T] as i32,
            );
            let wk = _mm_add_epi32($cur, k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            if $i >= 3 && $i < 15 {
                let w = _mm_add_epi32($next, _mm_alignr_epi8::<4>($cur, $prev));
                $next = _mm_sha256msg2_epu32(w, $cur);
            }
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            if $i >= 1 && $i < 13 {
                $prev = _mm_sha256msg1_epu32($prev, $cur);
            }
        }};
    }

    for block in data.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `chunks_exact(64)` yields exactly 64 bytes, four unaligned 16-byte
        // loads.
        let (mut w0, mut w1, mut w2, mut w3) = unsafe {
            let words = block.as_ptr().cast::<__m128i>();
            (
                _mm_shuffle_epi8(_mm_loadu_si128(words), byte_swap),
                _mm_shuffle_epi8(_mm_loadu_si128(words.add(1)), byte_swap),
                _mm_shuffle_epi8(_mm_loadu_si128(words.add(2)), byte_swap),
                _mm_shuffle_epi8(_mm_loadu_si128(words.add(3)), byte_swap),
            )
        };

        four_rounds!(0, w0, w1, w3);
        four_rounds!(1, w1, w2, w0);
        four_rounds!(2, w2, w3, w1);
        four_rounds!(3, w3, w0, w2);
        four_rounds!(4, w0, w1, w3);
        four_rounds!(5, w1, w2, w0);
        four_rounds!(6, w2, w3, w1);
        four_rounds!(7, w3, w0, w2);
        four_rounds!(8, w0, w1, w3);
        four_rounds!(9, w1, w2, w0);
        four_rounds!(10, w2, w3, w1);
        four_rounds!(11, w3, w0, w2);
        four_rounds!(12, w0, w1, w3);
        four_rounds!(13, w1, w2, w0);
        four_rounds!(14, w2, w3, w1);
        four_rounds!(15, w3, w0, w2);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1B>(abef);
    let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
    // SAFETY: as for the loads above — two in-bounds, unaligned 16-byte stores.
    unsafe {
        let words = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(words, _mm_blend_epi16::<0xF0>(feba, dchg));
        _mm_storeu_si128(words.add(1), _mm_alignr_epi8::<8>(dchg, feba));
    }
}

/// [`compress_blocks`] in portable code — what keeps the binary running on x86 CPUs
/// without the SHA extensions and on every other architecture.
///
/// The 64 rounds are fully unrolled as eight 8-round groups whose working variables are
/// rotated in the macro arguments, so the per-round eight-way shuffle of `a…h` costs
/// nothing at runtime; the message schedule lives in a rolling 16-word window updated in
/// place instead of a precomputed 64-word array.
// The ring-buffer writes of rounds 62–63 have no later reader; keeping the round
// macro uniform is worth the two dead stores (the optimizer drops them anyway).
#[allow(unused_assignments)]
fn compress_scalar(state: &mut [u32; 8], data: &[u8]) {
    for block in data.chunks_exact(64) {
        let mut w = [0u32; 16];
        for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $t:expr) => {{
                const T: usize = $t;
                let wt = if T < 16 {
                    w[T & 15]
                } else {
                    let next = w[T & 15]
                        .wrapping_add(small_sigma0(w[(T + 1) & 15]))
                        .wrapping_add(w[(T + 9) & 15])
                        .wrapping_add(small_sigma1(w[(T + 14) & 15]));
                    w[T & 15] = next;
                    next
                };
                let t1 = $h
                    .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                    .wrapping_add(($e & $f) ^ (!$e & $g))
                    .wrapping_add(K[T])
                    .wrapping_add(wt);
                let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                    .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(t2);
            }};
        }

        macro_rules! eight_rounds {
            ($t:expr) => {{
                round!(a, b, c, d, e, f, g, h, $t);
                round!(h, a, b, c, d, e, f, g, $t + 1);
                round!(g, h, a, b, c, d, e, f, $t + 2);
                round!(f, g, h, a, b, c, d, e, $t + 3);
                round!(e, f, g, h, a, b, c, d, $t + 4);
                round!(d, e, f, g, h, a, b, c, $t + 5);
                round!(c, d, e, f, g, h, a, b, $t + 6);
                round!(b, c, d, e, f, g, h, a, $t + 7);
            }};
        }

        eight_rounds!(0);
        eight_rounds!(8);
        eight_rounds!(16);
        eight_rounds!(24);
        eight_rounds!(32);
        eight_rounds!(40);
        eight_rounds!(48);
        eight_rounds!(56);

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// Compute the SHA-256 digest of `data` in one call.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// A content digest in the OCI `algorithm:hex` notation, e.g. `sha256:abcd…`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Digest(String);

impl Digest {
    /// Digest of raw bytes using SHA-256.
    pub fn of_bytes(data: &[u8]) -> Self {
        // Laid out on the stack and copied into one exact-size allocation.
        let mut text = [0u8; 7 + 64];
        text[..7].copy_from_slice(b"sha256:");
        for (pair, byte) in text[7..].chunks_exact_mut(2).zip(sha256(data)) {
            pair[0] = HEX_DIGITS[(byte >> 4) as usize];
            pair[1] = HEX_DIGITS[(byte & 0xf) as usize];
        }
        Digest(String::from_utf8(text.to_vec()).expect("hex digits are ASCII"))
    }

    /// Digest of a UTF-8 string.
    pub fn of_str(data: &str) -> Self {
        Self::of_bytes(data.as_bytes())
    }

    /// Parse a digest from its textual representation, validating the format.
    pub fn parse(text: &str) -> Result<Self, DigestError> {
        let Some((algo, hexpart)) = text.split_once(':') else {
            return Err(DigestError::MissingSeparator);
        };
        if algo != "sha256" {
            return Err(DigestError::UnsupportedAlgorithm(algo.to_string()));
        }
        if hexpart.len() != 64 || !hexpart.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(DigestError::InvalidHex);
        }
        Ok(Digest(format!("sha256:{}", hexpart.to_ascii_lowercase())))
    }

    /// The algorithm prefix (always `sha256` in this substrate).
    pub fn algorithm(&self) -> &str {
        self.0.split(':').next().unwrap_or_default()
    }

    /// The hexadecimal payload of the digest.
    pub fn hex(&self) -> &str {
        self.0.split(':').nth(1).unwrap_or_default()
    }

    /// Full `algorithm:hex` form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// A short (12 hex character) prefix, convenient for image tags and logs.
    pub fn short(&self) -> &str {
        &self.hex()[..12.min(self.hex().len())]
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.0)
    }
}

/// Errors produced when parsing digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DigestError {
    /// The `algorithm:hex` separator is missing.
    MissingSeparator,
    /// Only sha256 is supported by this substrate.
    UnsupportedAlgorithm(String),
    /// The hexadecimal part is malformed.
    InvalidHex,
}

impl fmt::Display for DigestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DigestError::MissingSeparator => write!(f, "digest is missing the ':' separator"),
            DigestError::UnsupportedAlgorithm(a) => write!(f, "unsupported digest algorithm: {a}"),
            DigestError::InvalidHex => write!(f, "digest hex payload is malformed"),
        }
    }
}

impl std::error::Error for DigestError {}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Hex-encode a byte slice (lowercase).
pub fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX_DIGITS[(b >> 4) as usize] as char);
        out.push(HEX_DIGITS[(b & 0xf) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const FIPS_EMPTY: &str = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
    const FIPS_ABC: &str = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
    const FIPS_TWO_BLOCK: &str = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
    const FIPS_MILLION_A: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

    /// Whether the CPU reports what [`compress_sha_ni`] needs — asked of std here, not
    /// of [`Kernel::detect`], so the dispatch test has something to disagree with.
    fn sha_ni_reported() -> bool {
        #[cfg(target_arch = "x86_64")]
        return is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// The shape of [`compress_scalar`] and, behind its guard, [`compress_sha_ni`].
    type KernelFn = fn(&mut [u32; 8], &[u8]);

    /// Every kernel this machine can execute, called directly: the scalar one always,
    /// the SHA-NI one when the CPU reports it.
    fn kernels() -> Vec<(&'static str, KernelFn)> {
        let scalar: (&'static str, KernelFn) = ("scalar", compress_scalar);
        #[cfg(target_arch = "x86_64")]
        if sha_ni_reported() {
            let sha_ni: KernelFn = |state, data| {
                // SAFETY: `sha_ni_reported` just saw `sha`, `sse2`, `ssse3` and `sse4.1`.
                unsafe { compress_sha_ni(state, data) }
            };
            return vec![scalar, ("sha-ni", sha_ni)];
        }
        vec![scalar]
    }

    /// FIPS 180-4 §5.1.1 padding, written out independently of [`Sha256::finalize`].
    fn padded(message: &[u8]) -> Vec<u8> {
        let mut out = message.to_vec();
        out.push(0x80);
        while out.len() % 64 != 56 {
            out.push(0);
        }
        out.extend_from_slice(&(message.len() as u64 * 8).to_be_bytes());
        out
    }

    /// Hash `message` with one kernel, handing it the padded blocks in runs that end at
    /// the block boundaries at or below `cuts`.
    fn hex_through(kernel: KernelFn, message: &[u8], cuts: &[usize]) -> String {
        let blocks = padded(message);
        let mut state = H0;
        let mut done = 0;
        for cut in cuts.iter().map(|cut| cut - cut % 64).chain([blocks.len()]) {
            let cut = cut.clamp(done, blocks.len());
            kernel(&mut state, &blocks[done..cut]);
            done = cut;
        }
        hex(&state.map(u32::to_be_bytes).concat())
    }

    #[test]
    fn fips_vectors_through_each_kernel_called_directly() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (b"", FIPS_EMPTY),
            (b"abc", FIPS_ABC),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                FIPS_TWO_BLOCK,
            ),
            (&million_a, FIPS_MILLION_A),
        ];
        for (name, kernel) in kernels() {
            for (message, expected) in vectors {
                assert_eq!(
                    hex_through(kernel, message, &[]),
                    expected,
                    "{name}, {} bytes",
                    message.len()
                );
            }
        }
    }

    /// The lengths at which [`Sha256::finalize`]'s padding changes shape: the last one
    /// that fits the length in the same block (55, 119), the first that does not (56,
    /// 120), and a full buffer either side of empty (63, 64, 65). Expected values from
    /// an independent implementation (Python's `hashlib`).
    #[test]
    fn padding_boundaries_match_reference_digests() {
        let expected = [
            (
                55,
                "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
            ),
            (
                56,
                "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
            ),
            (
                63,
                "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
            ),
            (
                64,
                "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
            ),
            (
                65,
                "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781",
            ),
            (
                119,
                "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
            ),
            (
                120,
                "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
            ),
        ];
        for (len, expected) in expected {
            let message: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(hex(&sha256(&message)), expected, "one-shot, {len} bytes");
            for (name, kernel) in kernels() {
                assert_eq!(
                    hex_through(kernel, &message, &[]),
                    expected,
                    "{name}, {len} bytes"
                );
            }
        }
    }

    /// A silent fall-back to the scalar rounds on a CPU with the SHA extensions would
    /// only read slow; this makes it fail. Prints the kernel so a CI log says which one
    /// that runner exercised.
    #[test]
    fn dispatch_takes_the_hardware_kernel_whenever_the_cpu_reports_it() {
        let kernel = Kernel::detect();
        let name = match kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => "sha-ni",
            Kernel::Scalar => "scalar",
        };
        println!("sha256 kernel: {name}");
        assert_eq!(name == "sha-ni", sha_ni_reported());
        assert!(kernels().iter().any(|(available, _)| *available == name));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Scalar state == SHA-NI state == streaming hasher == one-shot, for payloads
        /// split at random points into 1–4 `update` calls (the hasher) or runs of
        /// blocks (the kernels).
        #[test]
        fn kernels_and_split_updates_agree_with_oneshot(
            payload in proptest::collection::vec(any::<u8>(), 0..=1024),
            cuts in proptest::collection::vec(0usize..=1024, 0..=3),
        ) {
            let mut cuts = cuts;
            cuts.sort_unstable();
            let oneshot = hex(&sha256(&payload));

            let mut hasher = Sha256::new();
            let mut done = 0;
            for cut in cuts.iter().copied().chain([payload.len()]) {
                let cut = cut.clamp(done, payload.len());
                hasher.update(&payload[done..cut]);
                done = cut;
            }
            prop_assert_eq!(hex(&hasher.finalize()), oneshot.as_str(), "updates cut at {:?}", cuts);

            for (name, kernel) in kernels() {
                prop_assert_eq!(
                    hex_through(kernel, &payload, &cuts),
                    oneshot.as_str(),
                    "{} kernel, {} bytes, runs cut at {:?}",
                    name,
                    payload.len(),
                    cuts
                );
            }
        }
    }

    #[test]
    fn sha256_empty_matches_fips_vector() {
        assert_eq!(hex(&sha256(b"")), FIPS_EMPTY);
    }

    #[test]
    fn sha256_abc_matches_fips_vector() {
        assert_eq!(hex(&sha256(b"abc")), FIPS_ABC);
    }

    #[test]
    fn sha256_two_block_message_matches_fips_vector() {
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        assert_eq!(hex(&sha256(msg)), FIPS_TWO_BLOCK);
    }

    #[test]
    fn sha256_million_a_matches_fips_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(&h.finalize()), FIPS_MILLION_A);
    }

    #[test]
    fn incremental_and_oneshot_agree() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256(&data);
        for split in [0usize, 1, 63, 64, 65, 127, 4096, 9999, 10_000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split} diverged");
        }
    }

    #[test]
    fn unaligned_and_odd_chunked_inputs_hash_identically() {
        // Hash from an offset slice (unaligned start) in odd-sized chunks: the
        // direct-from-input block path must agree with the one-shot result.
        let data: Vec<u8> = (0..8192u32).map(|i| (i as u8).wrapping_mul(31)).collect();
        let oneshot = sha256(&data[3..]);
        let mut h = Sha256::new();
        for chunk in data[3..].chunks(97) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn digest_format_and_parse_roundtrip() {
        let d = Digest::of_str("hello world");
        assert!(d.as_str().starts_with("sha256:"));
        assert_eq!(d.hex().len(), 64);
        let parsed = Digest::parse(d.as_str()).unwrap();
        assert_eq!(parsed, d);
        assert_eq!(d.algorithm(), "sha256");
        assert_eq!(d.short().len(), 12);
    }

    #[test]
    fn digest_parse_rejects_malformed_inputs() {
        assert_eq!(
            Digest::parse("deadbeef"),
            Err(DigestError::MissingSeparator)
        );
        assert_eq!(
            Digest::parse("md5:aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"),
            Err(DigestError::UnsupportedAlgorithm("md5".into()))
        );
        assert_eq!(Digest::parse("sha256:zzzz"), Err(DigestError::InvalidHex));
        assert_eq!(Digest::parse("sha256:abcd"), Err(DigestError::InvalidHex));
    }

    #[test]
    fn different_content_different_digest() {
        assert_ne!(Digest::of_str("a"), Digest::of_str("b"));
        assert_eq!(Digest::of_str("a"), Digest::of_str("a"));
    }

    #[test]
    fn digest_serde_is_transparent_string() {
        let d = Digest::of_str("x");
        let json = serde_json::to_string(&d).unwrap();
        assert_eq!(json, format!("\"{}\"", d.as_str()));
        let back: Digest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
