//! Bit/byte conversions (MSB-first) and the word-packed [`BitBuf`]
//! bitset the coding chain runs on.
//!
//! The transport-block chain historically shuttled bits as one byte per
//! bit (`Vec<u8>`), which made every kernel walk 8× more memory than
//! necessary. [`BitBuf`] packs the same logical stream into u64 limbs:
//! logical bit `i` lives in limb `i / 64` at bit position `i % 64`
//! (LSB-first within a limb), so a Gold-sequence word XOR or a 64-bit
//! copy touches 64 stream bits at once. The *stream* order is unchanged
//! — [`BitBuf::from_bytes_msb`] / [`BitBuf::to_bytes_msb`] keep the
//! MSB-first byte convention of [`bytes_to_bits`] / [`bits_to_bytes`],
//! which remain as the scalar reference implementations.

/// Expand bytes into bits, MSB first (scalar reference form).
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in (0..8).rev() {
            out.push((b >> i) & 1);
        }
    }
    out
}

/// Pack bits (MSB first) into bytes; the bit count must be a multiple
/// of 8.
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    assert!(
        bits.len().is_multiple_of(8),
        "bit count must be a multiple of 8"
    );
    bits.chunks(8)
        .map(|c| c.iter().fold(0u8, |acc, b| (acc << 1) | (b & 1)))
        .collect()
}

/// A growable bitset packed into u64 limbs (logical bit `i` at limb
/// `i / 64`, bit `i % 64`). Invariant: bits at positions `>= len` in
/// the last limb are zero, so whole-limb operations (XOR, copy) can
/// run without per-bit masking except at the tail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitBuf {
    words: Vec<u64>,
    len: usize,
}

impl BitBuf {
    pub fn new() -> BitBuf {
        BitBuf::default()
    }

    pub fn with_capacity(bits: usize) -> BitBuf {
        BitBuf {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reset to empty, keeping the allocation (scratch reuse).
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// The packed limbs (bits `>= len` in the last limb are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable limb access for word-level kernels (scrambling). The
    /// caller must preserve the tail-zero invariant.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Append a single bit (0/1).
    #[inline]
    pub fn push(&mut self, bit: u8) {
        let off = self.len & 63;
        if off == 0 {
            self.words.push((bit & 1) as u64);
        } else {
            *self.words.last_mut().unwrap() |= ((bit & 1) as u64) << off;
        }
        self.len += 1;
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        ((self.words[i >> 6] >> (i & 63)) & 1) as u8
    }

    /// Append the low `n` bits of `w` (LSB-first, `n <= 64`).
    #[inline]
    pub(crate) fn push_word(&mut self, w: u64, n: usize) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let w = if n == 64 { w } else { w & ((1u64 << n) - 1) };
        let off = self.len & 63;
        if off == 0 {
            self.words.push(w);
        } else {
            *self.words.last_mut().unwrap() |= w << off;
            if off + n > 64 {
                self.words.push(w >> (64 - off));
            }
        }
        self.len += n;
    }

    /// Read `n` bits (`n <= 64`) starting at `pos`, LSB-first. Bits
    /// past the end read as zero.
    #[inline]
    pub fn get_bits(&self, pos: usize, n: usize) -> u64 {
        debug_assert!(n <= 64);
        let limb = pos >> 6;
        let off = pos & 63;
        let lo = self.words.get(limb).copied().unwrap_or(0) >> off;
        let v = if off == 0 {
            lo
        } else {
            lo | (self.words.get(limb + 1).copied().unwrap_or(0) << (64 - off))
        };
        if n == 64 {
            v
        } else {
            v & ((1u64 << n) - 1)
        }
    }

    /// Append `n` bits of `other` starting at `start` (word-at-a-time).
    pub fn append_range(&mut self, other: &BitBuf, start: usize, n: usize) {
        debug_assert!(start + n <= other.len);
        let mut pos = start;
        let mut rem = n;
        while rem > 0 {
            let take = rem.min(64);
            self.push_word(other.get_bits(pos, take), take);
            pos += take;
            rem -= take;
        }
    }

    /// Append all of `other`.
    pub fn append(&mut self, other: &BitBuf) {
        self.append_range(other, 0, other.len);
    }

    /// A new buffer holding bits `[start, start + n)`.
    pub fn slice(&self, start: usize, n: usize) -> BitBuf {
        let mut out = BitBuf::with_capacity(n);
        out.append_range(self, start, n);
        out
    }

    /// Pack bytes, MSB-first per byte (stream-order equivalent of
    /// [`bytes_to_bits`]).
    pub fn from_bytes_msb(bytes: &[u8]) -> BitBuf {
        let mut out = BitBuf::with_capacity(bytes.len() * 8);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = 0u64;
            for (j, &b) in c.iter().enumerate() {
                // Reversing the byte puts its MSB at the group's LSB —
                // stream bit 8k+0 is the byte's bit 7.
                w |= (b.reverse_bits() as u64) << (8 * j);
            }
            out.push_word(w, 64);
        }
        for &b in chunks.remainder() {
            out.push_word(b.reverse_bits() as u64, 8);
        }
        out
    }

    /// Unpack to bytes, MSB-first per byte (stream-order equivalent of
    /// [`bits_to_bytes`]). The bit count must be a multiple of 8.
    pub fn to_bytes_msb(&self) -> Vec<u8> {
        assert!(
            self.len.is_multiple_of(8),
            "bit count must be a multiple of 8"
        );
        let mut out = Vec::with_capacity(self.len / 8);
        let mut pos = 0;
        while pos < self.len {
            let take = (self.len - pos).min(64);
            let w = self.get_bits(pos, take);
            for j in 0..take / 8 {
                out.push(((w >> (8 * j)) as u8).reverse_bits());
            }
            pos += take;
        }
        out
    }

    /// Build from a byte-per-bit slice (values 0/1).
    pub fn from_bits(bits: &[u8]) -> BitBuf {
        let mut out = BitBuf::with_capacity(bits.len());
        for c in bits.chunks(64) {
            let mut w = 0u64;
            for (j, &b) in c.iter().enumerate() {
                w |= ((b & 1) as u64) << j;
            }
            out.push_word(w, c.len());
        }
        out
    }

    /// Expand to a byte-per-bit vector (values 0/1).
    pub fn to_bits(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        let mut pos = 0;
        while pos < self.len {
            let take = (self.len - pos).min(64);
            let w = self.get_bits(pos, take);
            for j in 0..take {
                out.push(((w >> j) & 1) as u8);
            }
            pos += take;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn msb_first_order() {
        assert_eq!(bytes_to_bits(&[0b1000_0001]), vec![1, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(bits_to_bytes(&[0, 1, 0, 0, 0, 0, 0, 0]), vec![0x40]);
    }

    #[test]
    #[should_panic]
    fn partial_byte_rejected() {
        bits_to_bytes(&[1, 0, 1]);
    }

    #[test]
    fn bitbuf_matches_scalar_byte_conversion() {
        let data: Vec<u8> = (0..=255).collect();
        let buf = BitBuf::from_bytes_msb(&data);
        assert_eq!(buf.len(), data.len() * 8);
        assert_eq!(buf.to_bits(), bytes_to_bits(&data));
        assert_eq!(buf.to_bytes_msb(), data);
    }

    #[test]
    fn bitbuf_odd_lengths() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 128, 200] {
            let bits: Vec<u8> = (0..n).map(|i| ((i * 7 + 3) % 5 % 2) as u8).collect();
            let buf = BitBuf::from_bits(&bits);
            assert_eq!(buf.len(), n);
            assert_eq!(buf.to_bits(), bits, "n={n}");
            for (i, &b) in bits.iter().enumerate() {
                assert_eq!(buf.get(i), b, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn push_and_push_word_agree() {
        let bits: Vec<u8> = (0..300).map(|i| ((i * 31) % 7 % 2) as u8).collect();
        let mut a = BitBuf::new();
        for &b in &bits {
            a.push(b);
        }
        let b = BitBuf::from_bits(&bits);
        assert_eq!(a, b);
    }

    #[test]
    fn get_bits_crosses_limbs() {
        let bits: Vec<u8> = (0..200).map(|i| ((i / 3) % 2) as u8).collect();
        let buf = BitBuf::from_bits(&bits);
        for pos in [0usize, 1, 60, 63, 64, 100, 190] {
            for n in [1usize, 8, 13, 37, 64] {
                let take = n.min(200 - pos);
                let w = buf.get_bits(pos, take);
                for j in 0..take {
                    assert_eq!(
                        ((w >> j) & 1) as u8,
                        bits[pos + j],
                        "pos={pos} n={take} j={j}"
                    );
                }
            }
        }
    }

    #[test]
    fn append_range_matches_slice_copy() {
        let bits: Vec<u8> = (0..500).map(|i| ((i * 13) % 11 % 2) as u8).collect();
        let buf = BitBuf::from_bits(&bits);
        for (start, n) in [(0usize, 500usize), (37, 100), (64, 64), (3, 1), (499, 1)] {
            let mut out = BitBuf::from_bits(&bits[..17]);
            out.append_range(&buf, start, n);
            let mut expect = bits[..17].to_vec();
            expect.extend_from_slice(&bits[start..start + n]);
            assert_eq!(out.to_bits(), expect, "start={start} n={n}");
        }
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut buf = BitBuf::from_bits(&[1; 1000]);
        let cap = buf.words.capacity();
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.words.capacity(), cap);
    }

    #[test]
    fn tail_zero_invariant_after_push() {
        let mut buf = BitBuf::new();
        buf.push_word(!0u64, 37);
        assert_eq!(buf.words()[0] >> 37, 0);
        buf.push(1);
        assert_eq!(buf.words()[0] >> 38, 0);
    }
}
