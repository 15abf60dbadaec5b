//! Circular-buffer rate matching (TS 38.212-style).
//!
//! The mother LDPC codeword is written into a circular buffer; the rate
//! matcher reads `e` bits starting at an offset determined by the
//! redundancy version (RV). Transmitting different RVs across HARQ
//! retransmissions yields incremental redundancy; re-reading the same RV
//! yields chase combining. On receive, LLRs are accumulated back into
//! mother-codeword positions (soft combining happens naturally when the
//! same position is received more than once).

/// Redundancy-version start offsets as fractions of the buffer, matching
/// the spirit of the 38.212 RV positions {0, 1/4, 1/2, 3/4}.
pub(crate) const RV_COUNT: usize = 4;

/// Starting index in a length-`n` circular buffer for redundancy
/// version `rv`.
pub(crate) fn rv_start(n: usize, rv: u8) -> usize {
    (n * (rv as usize % RV_COUNT)) / RV_COUNT
}

/// Select `e` coded bits from the mother codeword for transmission.
pub fn rate_match(coded: &[u8], e: usize, rv: u8) -> Vec<u8> {
    assert!(!coded.is_empty());
    let n = coded.len();
    let start = rv_start(n, rv);
    (0..e).map(|i| coded[(start + i) % n]).collect()
}

/// Packed rate matching: append `e` bits of the mother codeword to
/// `out`, reading circularly from the RV offset. Word-at-a-time
/// equivalent of [`rate_match`].
pub fn rate_match_packed(
    coded: &crate::bits::BitBuf,
    e: usize,
    rv: u8,
    out: &mut crate::bits::BitBuf,
) {
    assert!(!coded.is_empty());
    let n = coded.len();
    let start = rv_start(n, rv);
    let mut pos = start;
    let mut rem = e;
    // First read runs from the offset to the buffer end, then whole
    // passes wrap from 0.
    while rem > 0 {
        let run = rem.min(n - pos);
        out.append_range(coded, pos, run);
        rem -= run;
        pos = 0;
    }
}

/// Accumulate received LLRs for `e` transmitted bits back into
/// mother-codeword LLR positions. `acc` has length n and may already
/// contain LLRs from earlier (re)transmissions. Adds over contiguous
/// runs of the circular buffer (the RV offset to the end, then whole
/// passes from 0) — the same additions, in the same order, as indexing
/// `(start + i) % n`.
pub fn rate_recover(acc: &mut [f32], rx_llrs: &[f32], rv: u8) {
    let n = acc.len();
    assert!(n > 0);
    let mut pos = rv_start(n, rv);
    let mut rest = rx_llrs;
    while !rest.is_empty() {
        let run = rest.len().min(n - pos);
        for (a, l) in acc[pos..pos + run].iter_mut().zip(&rest[..run]) {
            *a += *l;
        }
        rest = &rest[run..];
        pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rv_starts_are_quarters() {
        assert_eq!(rv_start(100, 0), 0);
        assert_eq!(rv_start(100, 1), 25);
        assert_eq!(rv_start(100, 2), 50);
        assert_eq!(rv_start(100, 3), 75);
        assert_eq!(rv_start(100, 4), 0); // wraps
    }

    #[test]
    fn puncture_selects_prefix_for_rv0() {
        let coded: Vec<u8> = (0..10).map(|i| (i % 2) as u8).collect();
        let tx = rate_match(&coded, 6, 0);
        assert_eq!(tx, coded[..6].to_vec());
    }

    #[test]
    fn repetition_wraps_circularly() {
        let coded = vec![1, 0, 1];
        let tx = rate_match(&coded, 8, 0);
        assert_eq!(tx, vec![1, 0, 1, 1, 0, 1, 1, 0]);
    }

    #[test]
    fn rv_offsets_shift_selection() {
        let coded: Vec<u8> = (0..8).map(|i| (i >= 4) as u8).collect();
        let tx = rate_match(&coded, 4, 2);
        assert_eq!(tx, vec![1, 1, 1, 1]);
    }

    #[test]
    fn recover_accumulates_soft_values() {
        let mut acc = vec![0.0f32; 8];
        rate_recover(&mut acc, &[1.0, 2.0, 3.0], 0);
        rate_recover(&mut acc, &[10.0, 20.0], 2);
        assert_eq!(acc, vec![1.0, 2.0, 3.0, 0.0, 10.0, 20.0, 0.0, 0.0]);
        // Chase combining: same rv adds in place.
        rate_recover(&mut acc, &[1.0, 1.0, 1.0], 0);
        assert_eq!(acc[0], 2.0);
        assert_eq!(acc[1], 3.0);
    }

    #[test]
    fn recover_wraps_like_match() {
        let mut acc = vec![0.0f32; 4];
        rate_recover(&mut acc, &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 3);
        // start = 3; positions 3,0,1,2,3,0 → counts [2,1,1,2].
        assert_eq!(acc, vec![2.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn packed_match_equals_bytewise() {
        use crate::bits::BitBuf;
        for n in [3usize, 12, 96, 200] {
            let coded: Vec<u8> = (0..n).map(|i| ((i * 31) % 7 % 2) as u8).collect();
            let packed = BitBuf::from_bits(&coded);
            for rv in 0..4u8 {
                for e in [1usize, n / 2, n, 2 * n + 5] {
                    let mut out = BitBuf::new();
                    rate_match_packed(&packed, e, rv, &mut out);
                    assert_eq!(
                        out.to_bits(),
                        rate_match(&coded, e, rv),
                        "n={n} rv={rv} e={e}"
                    );
                }
            }
        }
    }

    #[test]
    fn match_recover_roundtrip_positions() {
        // Every transmitted bit must land back on the position it came
        // from, for all rv values and both puncturing and repetition.
        for n in [12usize, 96] {
            let coded: Vec<u8> = (0..n).map(|i| ((i * 31) % 2) as u8).collect();
            for rv in 0..4u8 {
                for e in [n / 2, n, 2 * n] {
                    let tx = rate_match(&coded, e, rv);
                    let llrs: Vec<f32> = tx
                        .iter()
                        .map(|b| if *b == 0 { 1.0 } else { -1.0 })
                        .collect();
                    let mut acc = vec![0.0f32; n];
                    rate_recover(&mut acc, &llrs, rv);
                    for (i, a) in acc.iter().enumerate() {
                        if *a != 0.0 {
                            let bit = if *a > 0.0 { 0 } else { 1 };
                            assert_eq!(bit, coded[i], "n={n} rv={rv} e={e} i={i}");
                        }
                    }
                }
            }
        }
    }
}
