//! 48-bit MAC addresses, including the "virtual PHY address" scheme the
//! paper's RUs use so the in-switch middlebox can retarget fronthaul
//! traffic without reconfiguring the RU.

use std::fmt;

/// A 48-bit Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Deterministic address for an RU, derived from its operator-assigned
    /// logical id.
    pub fn for_ru(id: u8) -> MacAddr {
        MacAddr([0x02, 0x52, 0x55, 0x00, 0x00, id])
    }

    /// Deterministic address for a PHY server NIC.
    pub fn for_phy(id: u8) -> MacAddr {
        MacAddr([0x02, 0x50, 0x48, 0x00, 0x00, id])
    }

    /// Deterministic address for an L2 server NIC.
    pub fn for_l2(id: u8) -> MacAddr {
        MacAddr([0x02, 0x4c, 0x32, 0x00, 0x00, id])
    }

    /// The *virtual* PHY address an RU sends fronthaul uplink to. The
    /// in-switch middlebox translates it to the current primary PHY's
    /// physical address (paper §5.1).
    pub fn virtual_phy(ru_id: u8) -> MacAddr {
        MacAddr([0x02, 0x56, 0x50, 0x00, 0x00, ru_id])
    }

    pub fn to_bytes(self) -> [u8; 6] {
        self.0
    }

    pub fn from_bytes(b: [u8; 6]) -> MacAddr {
        MacAddr(b)
    }

    /// Compact u64 form (upper 16 bits zero) — handy as a table key in
    /// the switch model.
    pub fn as_u64(self) -> u64 {
        let mut v = 0u64;
        for b in self.0 {
            v = (v << 8) | b as u64;
        }
        v
    }

    pub fn from_u64(v: u64) -> MacAddr {
        let mut b = [0u8; 6];
        for (i, byte) in b.iter_mut().enumerate() {
            *byte = (v >> (8 * (5 - i))) as u8;
        }
        MacAddr(b)
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        assert_eq!(
            MacAddr([0x02, 0x50, 0x48, 0, 0, 0x1f]).to_string(),
            "02:50:48:00:00:1f"
        );
    }

    #[test]
    fn u64_roundtrip() {
        for mac in [
            MacAddr::ZERO,
            MacAddr([0xff; 6]),
            MacAddr::for_ru(7),
            MacAddr::for_phy(255),
            MacAddr::virtual_phy(0),
        ] {
            assert_eq!(MacAddr::from_u64(mac.as_u64()), mac);
        }
    }

    #[test]
    fn derived_addresses_distinct() {
        let mut all = vec![];
        for id in 0..=255u8 {
            all.push(MacAddr::for_ru(id));
            all.push(MacAddr::for_phy(id));
            all.push(MacAddr::for_l2(id));
            all.push(MacAddr::virtual_phy(id));
        }
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
