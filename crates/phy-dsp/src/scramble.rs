//! Gold-sequence scrambling per 3GPP TS 38.211 §5.2.1.
//!
//! The PHY scrambles coded bits with a length-31 Gold sequence whose
//! initialization mixes the UE's RNTI and the cell identity, so
//! different UEs' transmissions decorrelate. In this reproduction the
//! scrambler sits between rate matching and modulation exactly as in
//! the standard chain, and descrambling on the receive side flips LLR
//! signs rather than bits.
//!
//! The generator is block-stepped: both LFSRs hold state bit `i` =
//! `x(n+i)`, and because the recurrences reach back at most 31
//! positions, the next 28 sequence bits are a pure function of the
//! preceding 31 — so a u128 holds three 28-bit extension rounds and
//! `GoldSequence::next_word64` emits 64 bits of c() per call.
//! [`GoldSequence::skip`] jumps in O(log n) by applying precomputed
//! powers of the 31×31 GF(2) state-transition matrix (the matrices
//! depend only on the fixed polynomials, never on `c_init`, so they are
//! computed once per process). [`cached_sequence`] additionally caches
//! whole post-Nc word sequences per `c_init`, since the data path
//! re-derives the same scrambling sequence for a UE every TTI.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Distance the Gold sequence is fast-forwarded before use (TS 38.211).
pub(crate) const NC: usize = 1600;

const MASK31: u32 = 0x7FFF_FFFF;

/// A length-31 Gold sequence generator producing the pseudo-random bit
/// sequence c(n).
#[derive(Debug, Clone)]
pub struct GoldSequence {
    x1: u32,
    x2: u32,
}

/// One 31×31 GF(2) matrix as row masks: out bit `i` = parity(row[i] & s).
type Lfsr31Matrix = [u32; 31];

fn matmul(a: &Lfsr31Matrix, b: &Lfsr31Matrix) -> Lfsr31Matrix {
    let mut c = [0u32; 31];
    for i in 0..31 {
        let mut row = 0u32;
        let mut m = a[i];
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            row ^= b[k];
            m &= m - 1;
        }
        c[i] = row;
    }
    c
}

#[inline]
fn matvec(m: &Lfsr31Matrix, s: u32) -> u32 {
    let mut out = 0u32;
    for (i, row) in m.iter().enumerate() {
        out |= ((row & s).count_ones() & 1) << i;
    }
    out
}

/// Doubling tables: entry `j` holds (M1, M2)^(2^j), the x1/x2 state
/// transitions for 2^j steps. c_init-independent, built once.
fn skip_tables() -> &'static Vec<(Lfsr31Matrix, Lfsr31Matrix)> {
    static TABLES: OnceLock<Vec<(Lfsr31Matrix, Lfsr31Matrix)>> = OnceLock::new();
    TABLES.get_or_init(|| {
        // Single-step transition: state' bit i = state bit i+1 (shift
        // down), with bit 30 fed by the recurrence taps.
        let mut m1 = [0u32; 31];
        let mut m2 = [0u32; 31];
        for i in 0..30 {
            m1[i] = 1 << (i + 1);
            m2[i] = 1 << (i + 1);
        }
        // x1(n+31) = x1(n+3) + x1(n); x2(n+31) = x2(n+3..n).
        m1[30] = (1 << 3) | 1;
        m2[30] = 0b1111;
        let mut out = Vec::with_capacity(64);
        out.push((m1, m2));
        for j in 1..64 {
            let (p1, p2) = &out[j - 1];
            out.push((matmul(p1, p1), matmul(p2, p2)));
        }
        out
    })
}

/// Extend an x1 state (bits 0..31 = x1(n..n+31)) to 115 known bits via
/// 28-bit rounds of x1(j) = x1(j-28) ^ x1(j-31).
#[inline]
fn extend_x1(state: u32) -> u128 {
    let mut t = state as u128;
    let mut len = 31;
    while len < 95 {
        let add = ((t >> (len - 28)) ^ (t >> (len - 31))) & 0x0FFF_FFFF;
        t |= add << len;
        len += 28;
    }
    t
}

/// Same for x2: x2(j) = x2(j-28) ^ x2(j-29) ^ x2(j-30) ^ x2(j-31).
#[inline]
fn extend_x2(state: u32) -> u128 {
    let mut t = state as u128;
    let mut len = 31;
    while len < 95 {
        let add = ((t >> (len - 28)) ^ (t >> (len - 29)) ^ (t >> (len - 30)) ^ (t >> (len - 31)))
            & 0x0FFF_FFFF;
        t |= add << len;
        len += 28;
    }
    t
}

impl GoldSequence {
    /// Create a generator with the given c_init (31 bits), fast-forwarded
    /// by Nc as the standard requires.
    pub fn new(c_init: u32) -> GoldSequence {
        let mut g = GoldSequence {
            x1: 1,
            x2: c_init & MASK31,
        };
        g.skip(NC);
        g
    }

    /// Standard c_init for PUSCH/PDSCH data scrambling:
    /// rnti * 2^15 + cell_id (data scrambling identity).
    pub fn c_init_data(rnti: u16, cell_id: u16) -> u32 {
        ((rnti as u32) << 15) + (cell_id as u32 & 0x3FF)
    }

    /// Produce the next bit of c().
    pub fn next_bit(&mut self) -> u8 {
        self.step()
    }

    /// Produce the next 64 bits of c() (bit `i` of the result is
    /// c(n+i)) and advance the generator by 64.
    #[inline]
    pub(crate) fn next_word64(&mut self) -> u64 {
        let t1 = extend_x1(self.x1);
        let t2 = extend_x2(self.x2);
        self.x1 = ((t1 >> 64) as u32) & MASK31;
        self.x2 = ((t2 >> 64) as u32) & MASK31;
        (t1 ^ t2) as u64
    }

    /// Advance the generator by `n` positions without producing output
    /// (O(log n): square-and-multiply over the LFSR transition matrix).
    /// Used to position per-code-block generator clones at their
    /// block's offset in the codeword.
    pub fn skip(&mut self, n: usize) {
        let tables = skip_tables();
        let mut n = n;
        let mut j = 0;
        while n != 0 {
            if n & 1 == 1 {
                let (p1, p2) = &tables[j];
                self.x1 = matvec(p1, self.x1);
                self.x2 = matvec(p2, self.x2);
            }
            n >>= 1;
            j += 1;
        }
    }

    fn step(&mut self) -> u8 {
        let out = ((self.x1 ^ self.x2) & 1) as u8;
        // x1(n+31) = (x1(n+3) + x1(n)) mod 2
        let x1_new = ((self.x1 >> 3) ^ self.x1) & 1;
        // x2(n+31) = (x2(n+3) + x2(n+2) + x2(n+1) + x2(n)) mod 2
        let x2_new = ((self.x2 >> 3) ^ (self.x2 >> 2) ^ (self.x2 >> 1) ^ self.x2) & 1;
        self.x1 = (self.x1 >> 1) | (x1_new << 30);
        self.x2 = (self.x2 >> 1) | (x2_new << 30);
        out
    }

    /// Produce the next `n` bits of c().
    pub fn bits(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        while out.len() + 64 <= n {
            let w = self.next_word64();
            for j in 0..64 {
                out.push(((w >> j) & 1) as u8);
            }
        }
        while out.len() < n {
            out.push(self.step());
        }
        out
    }

    /// Fill `out` with the next `ceil(n_bits / 64)` words of c().
    pub fn words(&mut self, n_bits: usize, out: &mut Vec<u64>) {
        out.clear();
        let n_words = n_bits.div_ceil(64);
        out.reserve(n_words);
        for _ in 0..n_words {
            out.push(self.next_word64());
        }
    }
}

thread_local! {
    /// Per-thread cache of post-Nc sequence words keyed by c_init. The
    /// data path regenerates the same per-UE sequence every TTI; one
    /// word vector per active (rnti, cell) pair makes that a lookup.
    static SEQ_CACHE: RefCell<HashMap<u32, Arc<Vec<u64>>>> = RefCell::new(HashMap::new());
}

/// Cap on cached c_init entries per thread (a deployment has a handful
/// of active RNTIs; this only guards pathological churn).
const SEQ_CACHE_MAX: usize = 256;

/// The first `min_bits` bits of c() for `c_init` (post-Nc), packed
/// 64 per word, cached per `(c_init, length)` — an entry is regrown
/// when a longer prefix is requested. One guard word is appended so
/// shifted 64-bit reads at any offset below `min_bits` stay in bounds.
pub fn cached_sequence(c_init: u32, min_bits: usize) -> Arc<Vec<u64>> {
    let need_words = min_bits.div_ceil(64) + 1;
    SEQ_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(seq) = cache.get(&c_init) {
            if seq.len() >= need_words {
                return Arc::clone(seq);
            }
        }
        if cache.len() >= SEQ_CACHE_MAX {
            cache.clear();
        }
        let mut g = GoldSequence::new(c_init);
        let mut words = Vec::with_capacity(need_words);
        for _ in 0..need_words {
            words.push(g.next_word64());
        }
        let seq = Arc::new(words);
        cache.insert(c_init, Arc::clone(&seq));
        seq
    })
}

/// Read 64 sequence bits starting at bit `pos` from packed words (reads
/// past the end are zero).
#[inline]
pub(crate) fn seq_word(seq: &[u64], pos: usize) -> u64 {
    let limb = pos >> 6;
    let off = pos & 63;
    let lo = seq.get(limb).copied().unwrap_or(0) >> off;
    if off == 0 {
        lo
    } else {
        lo | (seq.get(limb + 1).copied().unwrap_or(0) << (64 - off))
    }
}

/// Scramble a packed bit buffer in place with sequence bits starting at
/// `offset` (64 bits per XOR).
pub fn scramble_packed(bits: &mut crate::bits::BitBuf, seq: &[u64], offset: usize) {
    let len = bits.len();
    for (i, w) in bits.words_mut().iter_mut().enumerate() {
        let valid = (len - 64 * i).min(64);
        let mask = if valid == 64 {
            !0u64
        } else {
            (1u64 << valid) - 1
        };
        *w ^= seq_word(seq, offset + 64 * i) & mask;
    }
}

/// Descramble soft LLRs in place against packed sequence words starting
/// at bit `offset`: where c(n)=1 the transmitted bit was flipped, so
/// the LLR sign flips back. Branchless: each sequence bit becomes a
/// sign-bit mask XORed into its LLR, which is exactly Rust's f32
/// negation (a sign-bit flip, NaN and -0.0 included).
pub fn descramble_llrs_packed(llrs: &mut [f32], seq: &[u64], offset: usize) {
    for (i, chunk) in llrs.chunks_mut(64).enumerate() {
        let w = seq_word(seq, offset + 64 * i);
        for (g, lanes) in chunk.chunks_mut(8).enumerate() {
            let masks = &SIGN_MASKS[(w >> (8 * g)) as usize & 0xFF];
            for (l, m) in lanes.iter_mut().zip(masks) {
                *l = f32::from_bits(l.to_bits() ^ m);
            }
        }
    }
}

/// `SIGN_MASKS[b][j]` is the f32 sign bit if bit `j` of sequence byte
/// `b` is set, else 0: one sequence byte expanded to eight lane masks.
static SIGN_MASKS: [[u32; 8]; 256] = {
    let mut table = [[0u32; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut j = 0;
        while j < 8 {
            table[b][j] = ((b as u32 >> j) & 1) << 31;
            j += 1;
        }
        b += 1;
    }
    table
};

/// Scramble a bit vector (values 0/1) in place.
pub fn scramble_bits(bits: &mut [u8], c_init: u32) {
    scramble_bits_with(bits, &mut GoldSequence::new(c_init));
}

/// Scramble with an already-positioned generator (advances it by
/// `bits.len()`). Lets a caller scramble a codeword in segments.
pub fn scramble_bits_with(bits: &mut [u8], g: &mut GoldSequence) {
    for b in bits.iter_mut() {
        *b ^= g.step();
    }
}

/// Descramble soft LLRs in place: where c(n)=1, the transmitted bit was
/// flipped, so the LLR sign flips back.
pub fn descramble_llrs(llrs: &mut [f32], c_init: u32) {
    descramble_llrs_with(llrs, &mut GoldSequence::new(c_init));
}

/// Descramble with an already-positioned generator (advances it by
/// `llrs.len()`). Lets per-code-block jobs each descramble their own
/// slice from a clone positioned at the block boundary.
pub fn descramble_llrs_with(llrs: &mut [f32], g: &mut GoldSequence) {
    for l in llrs.iter_mut() {
        if g.step() == 1 {
            *l = -*l;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitBuf;

    #[test]
    fn scramble_is_involution() {
        let mut bits: Vec<u8> = (0..500).map(|i| ((i * 7) % 2) as u8).collect();
        let orig = bits.clone();
        scramble_bits(&mut bits, GoldSequence::c_init_data(0x4601, 42));
        assert_ne!(bits, orig, "scrambling must change the sequence");
        scramble_bits(&mut bits, GoldSequence::c_init_data(0x4601, 42));
        assert_eq!(bits, orig);
    }

    #[test]
    fn different_inits_differ() {
        let a = GoldSequence::new(1).bits(256);
        let b = GoldSequence::new(2).bits(256);
        assert_ne!(a, b);
        let hamming: usize = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        // Gold sequences are near-balanced relative to each other.
        assert!(hamming > 80 && hamming < 176, "hamming={hamming}");
    }

    #[test]
    fn sequence_is_balanced() {
        let bits = GoldSequence::new(0x1234_5678 & 0x7FFF_FFFF).bits(10_000);
        let ones = bits.iter().filter(|b| **b == 1).count();
        assert!((4_700..5_300).contains(&ones), "ones={ones}");
    }

    #[test]
    fn word_generator_matches_bit_stepping() {
        for c_init in [1u32, 99, 0x4601 << 15, MASK31] {
            let mut by_word = GoldSequence { x1: 1, x2: c_init };
            let mut by_step = GoldSequence { x1: 1, x2: c_init };
            for round in 0..5 {
                let w = by_word.next_word64();
                for j in 0..64 {
                    assert_eq!(
                        ((w >> j) & 1) as u8,
                        by_step.step(),
                        "c_init={c_init:#x} round={round} bit={j}"
                    );
                }
            }
            assert_eq!(by_word.x1, by_step.x1);
            assert_eq!(by_word.x2, by_step.x2);
        }
    }

    #[test]
    fn skip_matches_discarded_bits() {
        let mut a = GoldSequence::new(99);
        let mut b = GoldSequence::new(99);
        let _ = a.bits(173);
        b.skip(173);
        assert_eq!(a.bits(32), b.bits(32));
    }

    #[test]
    fn matrix_skip_matches_stepping_across_sizes() {
        // The satellite regression: O(log n) skip must equal n single
        // steps for distances spanning block sizes and the Nc offset.
        for n in [0usize, 1, 2, 31, 63, 64, 65, 127, 1000, NC, 100_000] {
            let mut stepped = GoldSequence { x1: 1, x2: 0x2345 };
            let mut skipped = stepped.clone();
            for _ in 0..n {
                stepped.step();
            }
            skipped.skip(n);
            assert_eq!(stepped.x1, skipped.x1, "n={n}");
            assert_eq!(stepped.x2, skipped.x2, "n={n}");
        }
    }

    #[test]
    fn llr_descramble_matches_bit_descramble() {
        let c_init = GoldSequence::c_init_data(100, 7);
        let bits: Vec<u8> = (0..64).map(|i| (i % 2) as u8).collect();
        let mut tx = bits.clone();
        scramble_bits(&mut tx, c_init);
        // Perfect channel: LLR = +5 for bit 0, -5 for bit 1 (convention:
        // positive LLR means "likely 0").
        let mut llrs: Vec<f32> = tx
            .iter()
            .map(|b| if *b == 0 { 5.0 } else { -5.0 })
            .collect();
        descramble_llrs(&mut llrs, c_init);
        let rx: Vec<u8> = llrs.iter().map(|l| if *l >= 0.0 { 0 } else { 1 }).collect();
        assert_eq!(rx, bits);
    }

    #[test]
    fn segmented_descramble_matches_whole() {
        let c_init = GoldSequence::c_init_data(0x4601, 42);
        let mut whole: Vec<f32> = (0..300).map(|i| (i as f32) - 150.0).collect();
        let mut segmented = whole.clone();
        descramble_llrs(&mut whole, c_init);
        // Same work split at arbitrary boundaries with positioned clones.
        let bounds = [0usize, 37, 120, 300];
        let mut g = GoldSequence::new(c_init);
        for w in bounds.windows(2) {
            let mut local = g.clone();
            descramble_llrs_with(&mut segmented[w[0]..w[1]], &mut local);
            g.skip(w[1] - w[0]);
        }
        assert_eq!(whole, segmented);
    }

    #[test]
    fn packed_scramble_matches_bitwise() {
        let c_init = GoldSequence::c_init_data(0x4601, 42);
        for (len, offset) in [(1usize, 0usize), (63, 5), (64, 64), (500, 137), (1000, 0)] {
            let bits: Vec<u8> = (0..len).map(|i| ((i * 11) % 3 % 2) as u8).collect();
            let mut reference = bits.clone();
            let mut g = GoldSequence::new(c_init);
            g.skip(offset);
            scramble_bits_with(&mut reference, &mut g);

            let seq = cached_sequence(c_init, offset + len);
            let mut packed = BitBuf::from_bits(&bits);
            scramble_packed(&mut packed, &seq, offset);
            assert_eq!(packed.to_bits(), reference, "len={len} offset={offset}");

            let mut llrs: Vec<f32> = (0..len).map(|i| i as f32 + 1.0).collect();
            let mut llrs_ref = llrs.clone();
            let mut g = GoldSequence::new(c_init);
            g.skip(offset);
            descramble_llrs_with(&mut llrs_ref, &mut g);
            descramble_llrs_packed(&mut llrs, &seq, offset);
            assert_eq!(llrs, llrs_ref, "len={len} offset={offset}");
        }
    }

    #[test]
    fn cached_sequence_grows_and_matches_generator() {
        let c_init = 0x0BAD_CAFE & MASK31;
        let short = cached_sequence(c_init, 64);
        let long = cached_sequence(c_init, 4096);
        assert!(long.len() > 4096 / 64);
        assert_eq!(&long[..short.len() - 1], &short[..short.len() - 1]);
        let mut g = GoldSequence::new(c_init);
        for (i, &w) in long.iter().enumerate() {
            assert_eq!(w, g.next_word64(), "word {i}");
        }
    }

    #[test]
    fn generator_deterministic() {
        let a = GoldSequence::new(777).bits(100);
        let b = GoldSequence::new(777).bits(100);
        assert_eq!(a, b);
    }

    #[test]
    fn c_init_mixes_rnti_and_cell() {
        assert_ne!(
            GoldSequence::c_init_data(1, 5),
            GoldSequence::c_init_data(2, 5)
        );
        assert_ne!(
            GoldSequence::c_init_data(1, 5),
            GoldSequence::c_init_data(1, 6)
        );
    }
}
