//! Slingshot control packets: the `migrate_on_slot` command (Orion →
//! switch, §5.1) and the failure-notification packet the switch
//! reformats a timer packet into when a PHY's heartbeat counter
//! saturates (§5.2.2). Carried in Ethernet frames with the
//! [`slingshot_netsim::EtherType::SlingshotCtl`] type.

use bytes::{Buf, BufMut, Bytes};
use slingshot_netsim::{EtherType, Frame, MacAddr};
use slingshot_ran::Msg;
use slingshot_sim::{Ctx, NodeId};

const TAG_MIGRATE_ON_SLOT: u8 = 1;
const TAG_FAILURE_NOTIFY: u8 = 2;
const TAG_SPARE_REQUEST: u8 = 3;
const TAG_SPARE_GRANT: u8 = 4;
const TAG_INSTALL_STANDBY: u8 = 5;
const TAG_HANDOVER_ON_SLOT: u8 = 6;

/// A Slingshot control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlPacket {
    /// Command the switch to remap `ru_id` to `dest_phy_id` for all
    /// fronthaul packets with slot ≥ `slot_scalar`
    /// ([`slingshot_sim::SlotId::scalar`]).
    MigrateOnSlot {
        ru_id: u8,
        dest_phy_id: u8,
        slot_scalar: u16,
    },
    /// The switch detected that `phy_id` stopped emitting downlink
    /// fronthaul packets.
    FailureNotify { phy_id: u8 },
    /// An L2-side Orion with no local standby left asks the recovery
    /// orchestrator for a spare from the shared pool. `failed_phy_id`
    /// is the drained ex-primary (pool-accounting breadcrumb).
    SpareRequest { ru_id: u8, failed_phy_id: u8 },
    /// The recovery orchestrator assigns pooled spare `phy_id` to
    /// `ru_id`'s cell as its new hot standby.
    SpareGrant { ru_id: u8, phy_id: u8 },
    /// Command the switch to install spare `phy_id`'s virtual-PHY
    /// mapping (PHY/address directories + failure-detector enrollment)
    /// at the slot boundary `slot_scalar` — staged in the standby
    /// request store and executed in the data plane, like
    /// [`CtlPacket::MigrateOnSlot`].
    InstallStandby {
        ru_id: u8,
        phy_id: u8,
        slot_scalar: u16,
    },
    /// Command the switch to re-point UE `rnti`'s serving-cell entry in
    /// the UE directory from `source_ru` to `target_ru` for all slots ≥
    /// `slot_scalar` — the data-plane half of a network-initiated
    /// handover, staged in the handover request store exactly like a
    /// [`CtlPacket::MigrateOnSlot`] entry.
    HandoverOnSlot {
        rnti: u16,
        source_ru: u8,
        target_ru: u8,
        slot_scalar: u16,
    },
}

impl CtlPacket {
    pub fn to_bytes(&self) -> Bytes {
        let mut v = Vec::with_capacity(8);
        match self {
            CtlPacket::MigrateOnSlot {
                ru_id,
                dest_phy_id,
                slot_scalar,
            } => {
                v.put_u8(TAG_MIGRATE_ON_SLOT);
                v.put_u8(*ru_id);
                v.put_u8(*dest_phy_id);
                v.put_u16(*slot_scalar);
            }
            CtlPacket::FailureNotify { phy_id } => {
                v.put_u8(TAG_FAILURE_NOTIFY);
                v.put_u8(*phy_id);
            }
            CtlPacket::SpareRequest {
                ru_id,
                failed_phy_id,
            } => {
                v.put_u8(TAG_SPARE_REQUEST);
                v.put_u8(*ru_id);
                v.put_u8(*failed_phy_id);
            }
            CtlPacket::SpareGrant { ru_id, phy_id } => {
                v.put_u8(TAG_SPARE_GRANT);
                v.put_u8(*ru_id);
                v.put_u8(*phy_id);
            }
            CtlPacket::InstallStandby {
                ru_id,
                phy_id,
                slot_scalar,
            } => {
                v.put_u8(TAG_INSTALL_STANDBY);
                v.put_u8(*ru_id);
                v.put_u8(*phy_id);
                v.put_u16(*slot_scalar);
            }
            CtlPacket::HandoverOnSlot {
                rnti,
                source_ru,
                target_ru,
                slot_scalar,
            } => {
                v.put_u8(TAG_HANDOVER_ON_SLOT);
                v.put_u16(*rnti);
                v.put_u8(*source_ru);
                v.put_u8(*target_ru);
                v.put_u16(*slot_scalar);
            }
        }
        Bytes::from(v)
    }

    /// Frame this packet `src` → `dst` and hand it to `switch`, the
    /// sender's attached switch (nothing is sent before wiring).
    pub fn send(&self, ctx: &mut Ctx<'_, Msg>, switch: Option<NodeId>, dst: MacAddr, src: MacAddr) {
        if let Some(sw) = switch {
            let frame = Frame::new(dst, src, EtherType::SlingshotCtl, self.to_bytes());
            ctx.send(sw, Msg::Eth(frame));
        }
    }

    pub fn from_bytes(payload: &[u8]) -> Option<CtlPacket> {
        let mut buf = payload;
        if buf.remaining() < 1 {
            return None;
        }
        match buf.get_u8() {
            TAG_MIGRATE_ON_SLOT => {
                if buf.remaining() < 4 {
                    return None;
                }
                Some(CtlPacket::MigrateOnSlot {
                    ru_id: buf.get_u8(),
                    dest_phy_id: buf.get_u8(),
                    slot_scalar: buf.get_u16(),
                })
            }
            TAG_FAILURE_NOTIFY => {
                if buf.remaining() < 1 {
                    return None;
                }
                Some(CtlPacket::FailureNotify {
                    phy_id: buf.get_u8(),
                })
            }
            TAG_SPARE_REQUEST => {
                if buf.remaining() < 2 {
                    return None;
                }
                Some(CtlPacket::SpareRequest {
                    ru_id: buf.get_u8(),
                    failed_phy_id: buf.get_u8(),
                })
            }
            TAG_SPARE_GRANT => {
                if buf.remaining() < 2 {
                    return None;
                }
                Some(CtlPacket::SpareGrant {
                    ru_id: buf.get_u8(),
                    phy_id: buf.get_u8(),
                })
            }
            TAG_INSTALL_STANDBY => {
                if buf.remaining() < 4 {
                    return None;
                }
                Some(CtlPacket::InstallStandby {
                    ru_id: buf.get_u8(),
                    phy_id: buf.get_u8(),
                    slot_scalar: buf.get_u16(),
                })
            }
            TAG_HANDOVER_ON_SLOT => {
                if buf.remaining() < 6 {
                    return None;
                }
                Some(CtlPacket::HandoverOnSlot {
                    rnti: buf.get_u16(),
                    source_ru: buf.get_u8(),
                    target_ru: buf.get_u8(),
                    slot_scalar: buf.get_u16(),
                })
            }
            _ => None,
        }
    }
}

/// Valid bit of a migration-request-store register entry.
const MIGRATION_ENTRY_VALID: u64 = 1 << 24;

/// Pack a pending `migrate_on_slot` request into the 32-bit register
/// format the switch data plane matches against (Fig. 5): `(valid <<
/// 24) | (dest_phy << 16) | slot_scalar`. The layout is owned here so
/// the switch program and any inspector (tests, chaos tooling) agree.
pub fn pack_migration_entry(dest_phy_id: u8, slot_scalar: u16) -> u64 {
    MIGRATION_ENTRY_VALID | ((dest_phy_id as u64) << 16) | slot_scalar as u64
}

/// Decode a migration-request-store entry; `None` when the valid bit is
/// clear (no request pending).
pub fn unpack_migration_entry(entry: u64) -> Option<(u8, u16)> {
    if entry & MIGRATION_ENTRY_VALID == 0 {
        return None;
    }
    Some((((entry >> 16) & 0xFF) as u8, (entry & 0xFFFF) as u16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for pkt in [
            CtlPacket::MigrateOnSlot {
                ru_id: 3,
                dest_phy_id: 9,
                slot_scalar: 4777,
            },
            CtlPacket::FailureNotify { phy_id: 17 },
            CtlPacket::SpareRequest {
                ru_id: 2,
                failed_phy_id: 5,
            },
            CtlPacket::SpareGrant {
                ru_id: 2,
                phy_id: 9,
            },
            CtlPacket::InstallStandby {
                ru_id: 3,
                phy_id: 10,
                slot_scalar: 5119,
            },
            CtlPacket::HandoverOnSlot {
                rnti: 0xBEEF,
                source_ru: 0,
                target_ru: 1,
                slot_scalar: 5119,
            },
        ] {
            assert_eq!(CtlPacket::from_bytes(&pkt.to_bytes()), Some(pkt));
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(CtlPacket::from_bytes(&[]).is_none());
        assert!(CtlPacket::from_bytes(&[99]).is_none());
        assert!(CtlPacket::from_bytes(&[1, 2]).is_none());
        assert!(CtlPacket::from_bytes(&[3, 1]).is_none());
        assert!(CtlPacket::from_bytes(&[4]).is_none());
        assert!(CtlPacket::from_bytes(&[5, 1, 2, 3]).is_none());
        assert!(CtlPacket::from_bytes(&[6, 1, 2, 3, 4]).is_none());
    }

    #[test]
    fn migration_entry_roundtrips() {
        let packed = pack_migration_entry(7, 4777);
        assert_eq!(unpack_migration_entry(packed), Some((7, 4777)));
        // Cleared entry (the switch writes 0 after executing) decodes
        // to "nothing pending".
        assert_eq!(unpack_migration_entry(0), None);
        // Stale scalar bits without the valid bit are also nothing.
        assert_eq!(unpack_migration_entry(0x0002_1299), None);
    }

    #[test]
    fn migration_entry_roundtrips_extreme_slots() {
        // Every corner of the scalar space: epoch start, epoch end, the
        // wrap neighbors, and the half-epoch ambiguity points — plus
        // the extreme PHY ids that share bits with the valid flag's
        // neighborhood in the packed word.
        for dest in [0u8, 1, 127, 128, 254, 255] {
            for scalar in [0u16, 1, 2559, 2560, 2561, 5118, 5119] {
                let packed = pack_migration_entry(dest, scalar);
                assert_eq!(
                    unpack_migration_entry(packed),
                    Some((dest, scalar)),
                    "dest={dest} scalar={scalar}"
                );
                // The packed word must fit the 32-bit register cell the
                // switch stores it in.
                assert!(packed <= u32::MAX as u64, "dest={dest} scalar={scalar}");
            }
        }
        // A raw scalar ≥ 5120 is out of the wire epoch; packing is a
        // pure bitfield so it still round-trips verbatim (the caller
        // owns reduction modulo 5120).
        let packed = pack_migration_entry(255, u16::MAX);
        assert_eq!(unpack_migration_entry(packed), Some((255, u16::MAX)));
    }
}
