//! Shape of the one deployment construction across its parameter
//! space `(cells, cell_groups, spare_pool, handover, crossed_standbys)`:
//! node count, PHY directories, and which switch every endpoint is
//! cabled to.

use slingshot::{orion_l2_mac, DeploymentBuilder, DeploymentConfig, SwitchNode};
use slingshot_ran::{CellConfig, Fidelity, UeConfig};
use slingshot_sim::{LinkParams, Nanos, SLOT_DURATION};

fn abstract_cell() -> CellConfig {
    CellConfig {
        num_prbs: 24,
        fidelity: Fidelity::Abstract,
        ..CellConfig::default()
    }
}

fn abstract_cells() -> DeploymentBuilder {
    DeploymentBuilder::new().cell(abstract_cell())
}

/// [`abstract_cells`] with a backhaul of `latency`.
fn backhaul(latency: Nanos) -> DeploymentBuilder {
    DeploymentBuilder::new().config(DeploymentConfig {
        cell: abstract_cell(),
        backhaul_link: LinkParams::ideal(latency),
        ..DeploymentConfig::default()
    })
}

#[test]
fn build_shape_follows_the_parameters() {
    let table = [
        (1, 1, 0, false, false),
        (1, 1, 1, false, false),
        (1, 1, 2, false, false),
        (4, 1, 2, false, false),
        (2, 1, 1, true, false),
        (8, 2, 0, false, false),
        (16, 4, 0, false, false),
        (2, 1, 0, false, true),
        (3, 1, 0, false, true),
    ];
    for (cells, groups, pool, handover, crossed) in table {
        let case = format!(
            "cells={cells} groups={groups} pool={pool} handover={handover} crossed={crossed}"
        );
        let mut b = abstract_cells()
            .cells(cells)
            .cell_groups(groups)
            .spare_pool(pool);
        if handover {
            b = b.handover();
        }
        if crossed {
            b = b.crossed_standbys();
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

        // server + core, 7 nodes (5 crossed) + 1 UE per cell, [phy,
        // orion] per spare, the two optional services, then the
        // switch(es): every row with one group is coupled, so it has
        // one switch, and `g ≥ 2` groups have a leaf each.
        let switches = groups;
        let per_cell = if crossed { 6 } else { 8 };
        let nodes = 2
            + per_cell * cells
            + 2 * pool
            + usize::from(pool > 0)
            + usize::from(handover)
            + switches;
        assert_eq!(d.engine.node_names().len(), nodes, "{case}");
        assert_eq!(d.cells.len(), cells, "{case}");
        assert_eq!(d.leaves.len(), if groups == 1 { 0 } else { groups });
        assert_eq!(d.spare_phys.len(), pool, "{case}");
        assert_eq!(d.recovery.is_some(), pool > 0, "{case}");
        assert_eq!(d.handover.is_some(), handover, "{case}");

        // Every PHY id — cell pairs (crossed: primaries only), then
        // spares — is in both directories, and each cell PHY is enrolled
        // in failure detection once.
        let phy_ids: Vec<u8> = if crossed {
            (0..cells).map(|i| (2 * i + 1) as u8).collect()
        } else {
            (1..=(2 * cells + pool) as u8).collect()
        };
        assert_eq!(d.phy_nodes.keys().copied().collect::<Vec<_>>(), phy_ids);
        assert_eq!(d.phy_orions.keys().copied().collect::<Vec<_>>(), phy_ids);
        if groups == 1 {
            let sw = d.engine.node::<SwitchNode>(d.switch).unwrap();
            let enrolled: Vec<u8> = sw.mbox.enrolled_phys().iter().map(|&id| id as u8).collect();
            assert_eq!(enrolled, phy_ids[..phy_ids.len() - pool], "{case}");
        }

        // Crossed: cell i's standby is cell i+1's primary, and every
        // cell starts on its own primary.
        let initial: Vec<(u64, u64)> = (0..cells).map(|i| (i as u64, 2 * i as u64 + 1)).collect();
        assert_eq!(d.initial_active(), initial, "{case}");
        if crossed {
            let names: Vec<String> = (0..cells)
                .flat_map(|i| {
                    [
                        format!("c{i}-l2"),
                        format!("c{i}-phy-primary"),
                        format!("c{i}-orion-phy{}", 2 * i + 1),
                        format!("c{i}-orion-l2"),
                        format!("c{i}-ru"),
                        format!("ue{i}"),
                    ]
                })
                .collect();
            assert_eq!(d.engine.node_names()[2..nodes - 1], names[..], "{case}");
            for (i, cell) in d.cells.iter().enumerate() {
                let next = &d.cells[(i + 1) % cells];
                assert_eq!(cell.secondary_phy_id, next.primary_phy_id, "{case}");
                assert_eq!(cell.secondary_phy, next.primary_phy, "{case}");
                assert_eq!(cell.orion_secondary, next.orion_primary, "{case}");
            }
        }

        // A cell's six endpoints share its middlebox switch; shared
        // services sit on the one switch.
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

/// Four cells that share nothing within a slot get one middlebox
/// partition and one engine lane each: a partition enrolls exactly its
/// cell's two PHYs, notifies exactly its cell's L2-side Orion and
/// shares a lane with every node of its cell; `server` and `core` sit
/// in lane 0.
#[test]
fn uncoupled_cells_get_a_partition_and_a_lane_each() {
    let mut b = abstract_cells().cells(4);
    for i in 0..4u8 {
        b = b.ue(UeConfig::new(100 + i as u16, i, &format!("ue{i}"), 22.0));
    }
    let d = b.build();
    assert_eq!(d.leaves.len(), 4);
    assert_eq!(d.switch, d.leaves[0]);
    assert_eq!(d.engine.lane_loads().len(), 5);
    assert_eq!(d.engine.lane_index(d.server), 0);
    assert_eq!(d.engine.lane_index(d.core), 0);
    for (i, cell) in d.cells.iter().enumerate() {
        let part = d.switch_for_ru(cell.ru_id);
        assert_eq!(part, d.leaves[i]);
        assert_eq!(d.engine.node_name(part), format!("leaf{i}"));
        let mbox = &d.engine.node::<SwitchNode>(part).unwrap().mbox;
        let pair = [cell.primary_phy_id as usize, cell.secondary_phy_id as usize];
        assert_eq!(mbox.enrolled_phys(), pair, "cell {i}");
        assert_eq!(
            mbox.notify_targets(),
            [orion_l2_mac(cell.ru_id)],
            "cell {i}"
        );
        let lane = d.engine.lane_index(part);
        assert_eq!(lane, 1 + i, "cell {i}");
        let nodes = [
            cell.ru,
            cell.l2,
            cell.orion_l2,
            cell.primary_phy,
            cell.secondary_phy,
            cell.orion_primary,
            cell.orion_secondary,
        ];
        for node in nodes.iter().chain(&cell.ues) {
            let name = d.engine.node_name(*node);
            assert_eq!(d.engine.lane_index(*node), lane, "{name}");
        }
    }
}

/// Anything that couples cells within a slot keeps the one switch and
/// the one lane: a spare pool, the handover plane, crossed standbys, or
/// a backhaul shorter than a slot (core ↔ L2 traffic would land inside
/// the slot it was sent in).
#[test]
fn coupled_cells_keep_one_switch_and_one_lane() {
    let cases = [
        ("spare_pool(1)", abstract_cells().spare_pool(1)),
        ("handover()", abstract_cells().handover()),
        ("crossed_standbys()", abstract_cells().crossed_standbys()),
        ("short backhaul", backhaul(SLOT_DURATION - Nanos(1))),
    ];
    for (case, b) in cases {
        let d = b.cells(4).build();
        assert!(d.leaves.is_empty(), "{case}");
        assert_eq!(d.engine.lane_loads().len(), 1, "{case}");
        assert_eq!(d.engine.node_name(d.switch), "switch", "{case}");
        for cell in &d.cells {
            assert_eq!(d.switch_for_ru(cell.ru_id), d.switch, "{case}");
        }
    }
    // A backhaul of exactly one slot is long enough.
    let d = backhaul(SLOT_DURATION).cells(4).build();
    assert_eq!(d.leaves.len(), 4);
}

/// Lanes meet at slot barriers, so cells coupled within a slot cannot
/// be split into cell groups: the build names the coupling it refuses.
#[test]
fn cell_groups_refuse_each_coupling_by_name() {
    let cases = [
        ("spare_pool(m > 0)", abstract_cells().spare_pool(1)),
        ("handover()", abstract_cells().handover()),
        ("crossed_standbys()", abstract_cells().crossed_standbys()),
        (
            "a backhaul shorter than a slot",
            backhaul(SLOT_DURATION - Nanos(1)),
        ),
    ];
    for (coupling, b) in cases {
        let b = b.cells(4).cell_groups(2);
        let Err(refused) = std::panic::catch_unwind(move || b.build()) else {
            panic!("cell_groups(2) built with {coupling}");
        };
        let message = refused.downcast_ref::<String>().expect("a formatted panic");
        let expected = format!("cell_groups(g >= 2) conflicts with {coupling}");
        assert!(message.contains(&expected), "{message}");
    }
}

/// PHY ids are `u8`: the 257th PHY would wrap onto cell 0's primary
/// and share its steering-register value, so the build refuses it.
#[test]
#[should_panic(expected = "spare-phy1 wraps to id 1, already held by c0-phy-primary")]
fn colliding_phy_ids_are_rejected_at_build_time() {
    abstract_cells().cells(128).spare_pool(1).build();
}

/// The switch keys its UE directory by the RNTI's low byte: RNTIs 100
/// and 356 would share entry 100, so installing the second overwrites
/// the first's serving cell and a handover of either re-points both.
#[test]
#[should_panic(expected = "UE directory entry 100 taken twice: RNTI 356 wraps onto RNTI 100")]
fn rntis_sharing_a_ue_directory_entry_are_rejected_at_build_time() {
    abstract_cells()
        .cells(2)
        .handover()
        .ue(UeConfig::new(100, 0, "ue-a", 22.0))
        .ue(UeConfig::new(356, 1, "ue-b", 22.0))
        .build();
}

/// Crossed standbys are built in one shape only, §8's: every cell
/// behind one middlebox, no spare pool. Cell groups are refused ...
#[test]
#[should_panic(expected = "cell_groups(g >= 2) conflicts with crossed_standbys()")]
fn crossed_standbys_across_cell_groups_are_rejected_at_build_time() {
    abstract_cells()
        .cells(4)
        .cell_groups(2)
        .crossed_standbys()
        .build();
}

/// ... and so is a spare pool.
#[test]
#[should_panic(expected = "crossed_standbys() conflicts with spare_pool(m > 0)")]
fn crossed_standbys_with_a_spare_pool_are_rejected_at_build_time() {
    abstract_cells()
        .cells(2)
        .spare_pool(1)
        .crossed_standbys()
        .build();
}
