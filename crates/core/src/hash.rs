//! The workspace's one deterministic byte hash: 64-bit FNV-1a.
//!
//! Two formats need a checksum that is a pure function of its input bytes —
//! identical across runs, processes, machines, and the two sides of a
//! network connection — and both use the word-folded variant,
//! [`fnv1a_words`]:
//!
//! * **wire-frame checksums** (`lmerge-net`): every frame crossing a socket
//!   carries the checksum of its header and payload bytes, verified by the
//!   receiving side before the frame is trusted;
//! * **durable envelopes** (`lmerge-durable`): every checkpoint file ends
//!   in the checksum of its payload.
//!
//! The byte-wise fold ([`fnv1a`], [`Fnv1a`]) digests test records (the
//! golden merge digests). The canonical constants are pinned by the test
//! vectors below, so a file written or a frame sent by one build checks
//! out in the next.
//!
//! FNV-1a is not cryptographic — it detects corruption, nothing more. That
//! is exactly the contract both call sites need, and the word fold costs
//! one multiply per eight bytes on the paths it serves.

/// The FNV-1a 64-bit offset basis (the hash of the empty input).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher: fold byte slices in with
/// [`Fnv1a::update`], read the sum with [`Fnv1a::value`].
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(pub u64);

impl Fnv1a {
    /// A hasher at the canonical offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Fold `bytes` into the running hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// The current hash value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// One-shot FNV-1a of a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.value()
}

/// FNV-1a folded over 8-byte little-endian words, the tail (`len % 8`
/// bytes) folded singly: one multiply per word instead of one per byte.
///
/// This is a *different function* from [`fnv1a`] (they agree only below
/// eight bytes) and serves wire frames and durable file envelopes. Every
/// step is
/// `h -> (h ^ x) * PRIME`, a bijection of the state for fixed `x` and
/// injective in `x` for fixed `h`, so two inputs of equal length that
/// differ in exactly one word (or tail byte) never collide.
#[expect(clippy::expect_used, reason = "chunks_exact(8) yields 8-byte slices")]
pub fn fnv1a_words(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canonical FNV-1a 64-bit test vectors (Noll's reference set). These
    /// pin the exact function: the golden digests break loudly if the
    /// constants or the fold ever change.
    #[test]
    fn pinned_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// The word fold's own pinned vectors over prefixes of one string:
    /// below eight bytes it *is* the byte fold, from eight up it is not.
    /// Frames sent and durable files written by one build must check out
    /// in the next.
    #[test]
    fn word_fold_pinned_vectors() {
        let s = b"0123456789abcdef";
        let expect: [(usize, u64); 6] = [
            (0, 0xcbf2_9ce4_8422_2325),
            (1, 0xaf63_ad4c_8601_9caf),
            (7, 0x8f3c_2860_1af6_03b8),
            (8, 0x923e_a2a7_104e_b9af),
            (9, 0xcf27_f8e0_b5c5_5b95),
            (16, 0x6773_56ce_06b7_8095),
        ];
        for (n, sum) in expect {
            assert_eq!(fnv1a_words(&s[..n]), sum, "length {n}");
            assert_eq!(fnv1a_words(&s[..n]) == fnv1a(&s[..n]), n < 8, "length {n}");
        }
    }

    /// Any single flipped bit changes the sum — in a full word or the tail.
    #[test]
    fn word_fold_detects_every_single_bit_flip() {
        for len in [64usize, 67] {
            let clean: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37)).collect();
            let sum = fnv1a_words(&clean);
            for bit in 0..len * 8 {
                let mut bad = clean.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(fnv1a_words(&bad), sum, "len {len} bit {bit}");
            }
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.value(), fnv1a(b"foobar"));
    }
}
