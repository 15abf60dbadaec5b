//! Shape of the one deployment construction across its parameter
//! space `(cells, cell_groups, spare_pool, handover)`: node count, PHY
//! directories, and which switch every endpoint is cabled to.

use slingshot::DeploymentBuilder;
use slingshot_ran::{CellConfig, Fidelity, UeConfig};

#[test]
fn build_shape_follows_the_parameters() {
    let table = [
        (1, 1, 0, false),
        (1, 1, 1, false),
        (1, 1, 2, false),
        (4, 1, 2, false),
        (2, 1, 1, true),
        (8, 2, 2, false),
        (16, 4, 0, false),
    ];
    for (cells, groups, pool, handover) in table {
        let case = format!("cells={cells} groups={groups} pool={pool} handover={handover}");
        let mut b = DeploymentBuilder::new()
            .cell(CellConfig {
                num_prbs: 24,
                fidelity: Fidelity::Abstract,
                ..CellConfig::default()
            })
            .cells(cells)
            .cell_groups(groups)
            .spare_pool(pool);
        if handover {
            b = b.handover();
        }
        for i in 0..cells {
            b = b.ue(UeConfig::new(
                100 + i as u16,
                i as u8,
                &format!("ue{i}"),
                22.0,
            ));
        }
        let d = b.build();

        // server + core, 7 nodes + 1 UE per cell, [phy, orion] per
        // spare, the two optional services, then the switch(es).
        let switches = if groups == 1 { 1 } else { groups + 1 };
        let nodes =
            2 + 8 * cells + 2 * pool + usize::from(pool > 0) + usize::from(handover) + switches;
        assert_eq!(d.engine.node_names().len(), nodes, "{case}");
        assert_eq!(d.cells.len(), cells, "{case}");
        assert_eq!(d.leaves.len(), switches - 1, "{case}");
        assert_eq!(d.spine.is_some(), groups > 1, "{case}");
        assert_eq!(d.spare_phys.len(), pool, "{case}");
        assert_eq!(d.recovery.is_some(), pool > 0, "{case}");
        assert_eq!(d.handover.is_some(), handover, "{case}");

        // Every PHY id — cell pairs, then spares — is in both directories.
        let phy_ids: Vec<u8> = (1..=(2 * cells + pool) as u8).collect();
        assert_eq!(d.phy_nodes.keys().copied().collect::<Vec<_>>(), phy_ids);
        assert_eq!(d.phy_orions.keys().copied().collect::<Vec<_>>(), phy_ids);

        // A cell's six endpoints share its middlebox switch; spine-side
        // services sit on the service switch.
        for cell in &d.cells {
            let sw = d.switch_for_ru(cell.ru_id);
            if groups == 1 {
                assert_eq!(sw, d.switch, "{case}");
            } else {
                assert!(d.leaves.contains(&sw), "{case}");
            }
            for node in [
                cell.ru,
                cell.primary_phy,
                cell.secondary_phy,
                cell.orion_primary,
                cell.orion_secondary,
                cell.orion_l2,
            ] {
                assert_eq!(d.switch_for_node(node), sw, "{case} cell {}", cell.ru_id);
            }
        }
        let services = d
            .spare_phys
            .iter()
            .flat_map(|(_, phy, orion)| [*phy, *orion])
            .chain(d.recovery)
            .chain(d.handover);
        for node in services {
            assert_eq!(d.switch_for_node(node), d.switch, "{case}");
        }
    }
}

/// PHY ids are `u8`: the 257th PHY would wrap onto cell 0's primary
/// and share its steering-register value, so the build refuses it.
#[test]
#[should_panic(expected = "spare-phy1 wraps to id 1, already held by c0-phy-primary")]
fn colliding_phy_ids_are_rejected_at_build_time() {
    DeploymentBuilder::new()
        .cell(CellConfig {
            num_prbs: 24,
            fidelity: Fidelity::Abstract,
            ..CellConfig::default()
        })
        .cells(128)
        .spare_pool(1)
        .build();
}

/// The switch keys its UE directory by the RNTI's low byte: RNTIs 100
/// and 356 would share entry 100, so installing the second overwrites
/// the first's serving cell and a handover of either re-points both.
#[test]
#[should_panic(expected = "UE directory entry 100 taken twice: RNTI 356 wraps onto RNTI 100")]
fn rntis_sharing_a_ue_directory_entry_are_rejected_at_build_time() {
    DeploymentBuilder::new()
        .cell(CellConfig {
            num_prbs: 24,
            fidelity: Fidelity::Abstract,
            ..CellConfig::default()
        })
        .cells(2)
        .handover()
        .ue(UeConfig::new(100, 0, "ue-a", 22.0))
        .ue(UeConfig::new(356, 1, "ue-b", 22.0))
        .build();
}
