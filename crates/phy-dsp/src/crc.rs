//! CRC codes used by the 5G NR transport-block chain (3GPP TS 38.212):
//! CRC-24A attached to transport blocks and CRC-16 for small blocks.
//! CRC failure at the PHY is the signal that drives HARQ retransmission —
//! the mechanism Slingshot leans on when it discards HARQ buffers during
//! migration ("the PHY's CRC-protected FEC decoding fails, resulting in
//! retransmissions at the RAN's higher layers", §4.2).

/// CRC-24A generator polynomial from TS 38.212 §5.1:
/// x^24 + x^23 + x^18 + x^17 + x^14 + x^11 + x^10 + x^7 + x^6 + x^5 + x^4 + x^3 + x + 1.
pub(crate) const CRC24A_POLY: u32 = 0x864CFB;

/// CRC-16 (CCITT) generator polynomial from TS 38.212:
/// x^16 + x^12 + x^5 + 1.
pub const CRC16_POLY: u16 = 0x1021;

/// Slicing-by-8 tables for CRC-24A, with the 24-bit register kept in
/// the top three bytes of a u32 (so a big-endian word XORs straight
/// in). `[0][b]` is the register after shifting byte `b` through the
/// bit-serial division from zero (the byte-at-a-time table); `[j][b]`
/// is that register after `j` further zero bytes, i.e. byte `b`'s
/// contribution when it sits `j` bytes before the end of an 8-byte
/// group.
const CRC24A_TABLES: [[u32; 256]; 8] = build_crc24a_tables();

const fn build_crc24a_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0usize;
    while b < 256 {
        let mut crc = (b as u32) << 16;
        let mut i = 0;
        while i < 8 {
            crc <<= 1;
            if crc & 0x0100_0000 != 0 {
                crc ^= CRC24A_POLY;
            }
            i += 1;
        }
        t[0][b] = (crc & 0x00FF_FFFF) << 8;
        b += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut b = 0usize;
        while b < 256 {
            let prev = t[j - 1][b];
            t[j][b] = (prev << 8) ^ t[0][(prev >> 24) as usize];
            b += 1;
        }
        j += 1;
    }
    t
}

/// 256-entry table for byte-at-a-time CRC-16.
const CRC16_TABLE: [u16; 256] = build_crc16_table();

const fn build_crc16_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut crc = (b as u16) << 8;
        let mut i = 0;
        while i < 8 {
            let msb = crc & 0x8000 != 0;
            crc <<= 1;
            if msb {
                crc ^= CRC16_POLY;
            }
            i += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
}

/// Compute CRC-24A over a byte slice (bit order MSB-first, zero initial
/// value, no final XOR — matching TS 38.212). Slicing-by-8: eight
/// bytes per step, each through its own table, then byte-at-a-time for
/// the tail; identical values to the bit-serial definition.
pub fn crc24a(data: &[u8]) -> u32 {
    let t = &CRC24A_TABLES;
    // The register sits in the top 24 bits (see `CRC24A_TABLES`).
    let mut reg: u32 = 0;
    let mut groups = data.chunks_exact(8);
    for g in &mut groups {
        let hi = reg ^ u32::from_be_bytes([g[0], g[1], g[2], g[3]]);
        reg = t[7][(hi >> 24) as usize]
            ^ t[6][(hi >> 16) as usize & 0xFF]
            ^ t[5][(hi >> 8) as usize & 0xFF]
            ^ t[4][hi as usize & 0xFF]
            ^ t[3][g[4] as usize]
            ^ t[2][g[5] as usize]
            ^ t[1][g[6] as usize]
            ^ t[0][g[7] as usize];
    }
    for &byte in groups.remainder() {
        reg = (reg << 8) ^ t[0][((reg >> 24) as u8 ^ byte) as usize];
    }
    reg >> 8
}

/// Compute CRC-16 over a byte slice (table-driven, byte-at-a-time).
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0;
    for &byte in data {
        let idx = ((crc >> 8) as u8 ^ byte) as usize;
        crc = (crc << 8) ^ CRC16_TABLE[idx];
    }
    crc
}

/// Append a CRC-24A to a payload, returning payload ‖ crc (3 bytes,
/// big-endian).
pub fn attach_crc24a(payload: &[u8]) -> Vec<u8> {
    let crc = crc24a(payload);
    let mut out = Vec::with_capacity(payload.len() + 3);
    out.extend_from_slice(payload);
    out.extend_from_slice(&[(crc >> 16) as u8, (crc >> 8) as u8, crc as u8]);
    out
}

/// Check and strip a trailing CRC-24A. Returns the payload on success.
pub fn check_crc24a(block: &[u8]) -> Option<&[u8]> {
    if block.len() < 3 {
        return None;
    }
    let (payload, tail) = block.split_at(block.len() - 3);
    let expect = ((tail[0] as u32) << 16) | ((tail[1] as u32) << 8) | tail[2] as u32;
    if crc24a(payload) == expect {
        Some(payload)
    } else {
        None
    }
}

/// Append a CRC-16 to a payload.
pub fn attach_crc16(payload: &[u8]) -> Vec<u8> {
    let crc = crc16(payload);
    let mut out = Vec::with_capacity(payload.len() + 2);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

/// Check and strip a trailing CRC-16.
pub fn check_crc16(block: &[u8]) -> Option<&[u8]> {
    if block.len() < 2 {
        return None;
    }
    let (payload, tail) = block.split_at(block.len() - 2);
    let expect = u16::from_be_bytes([tail[0], tail[1]]);
    if crc16(payload) == expect {
        Some(payload)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-serial reference (the retired scalar implementation).
    fn crc24a_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0;
        for &byte in data {
            crc ^= (byte as u32) << 16;
            for _ in 0..8 {
                crc <<= 1;
                if crc & 0x0100_0000 != 0 {
                    crc ^= CRC24A_POLY;
                }
            }
        }
        crc & 0x00FF_FFFF
    }

    fn crc16_bitwise(data: &[u8]) -> u16 {
        let mut crc: u16 = 0;
        for &byte in data {
            crc ^= (byte as u16) << 8;
            for _ in 0..8 {
                let msb = crc & 0x8000 != 0;
                crc <<= 1;
                if msb {
                    crc ^= CRC16_POLY;
                }
            }
        }
        crc
    }

    #[test]
    fn table_matches_bitwise_reference() {
        let data: Vec<u8> = (0u32..2048).map(|i| (i * 151 + 17) as u8).collect();
        for n in [0usize, 1, 2, 3, 7, 8, 255, 256, 1500, 2048] {
            assert_eq!(crc24a(&data[..n]), crc24a_bitwise(&data[..n]), "n={n}");
            assert_eq!(crc16(&data[..n]), crc16_bitwise(&data[..n]), "n={n}");
        }
    }

    #[test]
    fn known_answer_vectors() {
        // Published check values for the standard "123456789" message:
        // CRC-24/LTE-A (poly 0x864CFB, init 0, no xorout) and
        // CRC-16/XMODEM (poly 0x1021, init 0, no xorout), per the CRC
        // RevEng catalogue.
        assert_eq!(crc24a(b"123456789"), 0xCDE703);
        assert_eq!(crc16(b"123456789"), 0x31C3);
        // CRC-16/XMODEM of "A" is a classic XMODEM test value.
        assert_eq!(crc16(b"A"), 0x58E5);
    }

    #[test]
    fn crc24a_known_properties() {
        // CRC of empty data with zero init is zero.
        assert_eq!(crc24a(&[]), 0);
        // A message followed by its CRC has CRC zero (defining property).
        let data = b"slingshot phy migration";
        let framed = attach_crc24a(data);
        assert_eq!(crc24a(&framed), 0);
    }

    #[test]
    fn crc24a_roundtrip() {
        let data = b"transport block payload";
        let framed = attach_crc24a(data);
        assert_eq!(check_crc24a(&framed), Some(&data[..]));
    }

    #[test]
    fn crc24a_detects_single_bit_errors() {
        let data: Vec<u8> = (0u16..64).map(|i| (i * 7) as u8).collect();
        let framed = attach_crc24a(&data);
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert!(check_crc24a(&bad).is_none(), "missed error at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn crc24a_detects_burst_errors() {
        let data: Vec<u8> = (0u16..256).map(|i| i as u8).collect();
        let framed = attach_crc24a(&data);
        // All burst errors up to 24 bits are detected by a degree-24 CRC.
        for start in (0..framed.len() * 8 - 24).step_by(37) {
            let mut bad = framed.clone();
            for b in start..start + 24 {
                bad[b / 8] ^= 1 << (7 - (b % 8));
            }
            assert!(check_crc24a(&bad).is_none(), "missed burst at {start}");
        }
    }

    #[test]
    fn crc16_roundtrip_and_detection() {
        let data = b"uci payload";
        let framed = attach_crc16(data);
        assert_eq!(check_crc16(&framed), Some(&data[..]));
        let mut bad = framed.clone();
        bad[3] ^= 0x10;
        assert!(check_crc16(&bad).is_none());
    }

    #[test]
    fn short_blocks_rejected() {
        assert!(check_crc24a(&[1, 2]).is_none());
        assert!(check_crc16(&[9]).is_none());
    }

    #[test]
    fn crc_is_linear() {
        // CRC(a ^ b) == CRC(a) ^ CRC(b) for equal-length messages
        // (zero-init CRC is linear over GF(2)).
        let a: Vec<u8> = (0..32).map(|i| (i * 3) as u8).collect();
        let b: Vec<u8> = (0..32).map(|i| (i * 5 + 1) as u8).collect();
        let x: Vec<u8> = a.iter().zip(&b).map(|(p, q)| p ^ q).collect();
        assert_eq!(crc24a(&x), crc24a(&a) ^ crc24a(&b));
        assert_eq!(crc16(&x), crc16(&a) ^ crc16(&b));
    }
}
