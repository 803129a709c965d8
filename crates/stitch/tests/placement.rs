//! Placement independence of node profiles: the invariant that lets the
//! workbench profile each node program once and reuse the profile for
//! every re-stitch (`stitch_apps::build_placement_free_program`).
//!
//! For every node of every app, the profile of the placement-free
//! program must equal the profile of the program wired at the app's
//! `Arch::Stitch` plan tiles and at those tiles reversed.

use stitch::{Arch, TileId, Workbench};
use stitch_apps::{build_node_program, build_placement_free_program, App};
use stitch_compiler::{profile_program, MEASURE_BUDGET};

const FRAMES: u32 = 2;

#[test]
fn node_profiles_do_not_depend_on_placement() {
    let mut ws = Workbench::new();
    let mut rewired = 0;
    for app in App::all() {
        let planned = ws
            .run_app(&app, Arch::Stitch, FRAMES)
            .expect("clean Stitch run")
            .plan
            .tiles;
        let reversed: Vec<TileId> = planned.iter().rev().copied().collect();
        for node in 0..app.nodes.len() {
            let name = format!("{}/{}", app.name, app.nodes[node].name);
            let free = build_placement_free_program(&app, node, FRAMES).expect("builds");
            let expected = profile_program(&free, MEASURE_BUDGET).expect("profiles");
            for (placement, tiles) in [("plan", &planned), ("reversed", &reversed)] {
                let wired = build_node_program(&app, node, FRAMES, tiles).expect("wires");
                rewired += usize::from(wired != free);
                let got = profile_program(&wired, MEASURE_BUDGET).expect("profiles");
                assert_eq!(
                    wired.instrs.len(),
                    free.instrs.len(),
                    "{name} at the {placement} placement: instruction count"
                );
                assert_eq!(
                    got.instr_counts, expected.instr_counts,
                    "{name} at the {placement} placement: instruction counts"
                );
                assert_eq!(
                    got.cycles, expected.cycles,
                    "{name} at the {placement} placement: cycles"
                );
            }
        }
    }
    assert!(rewired > 0, "no placement changed any program");
}
