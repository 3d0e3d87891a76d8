//! Every query resolves each decomposed group through
//! `CombinationIndex::for_cell` and, for a multi-grid, the quad-tree's
//! `get_multi_group`; `CombinationIndex::for_multi` answers the same
//! lookup from a cell list. All read the implicitly stored quad-tree
//! from the group's coordinates, so a lookup allocates nothing: this
//! binary counts the allocation events of every lookup an index can
//! answer, and of the multi-grid lookups of decomposed groups, and
//! requires none.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one test.

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_grid::coding::ChildCode;
use o4a_grid::decompose::{decompose, DecomposedGroup};
use o4a_grid::{Hierarchy, LayerCell, Mask};
use o4a_obs::CountingAlloc;

#[global_allocator]
static A: CountingAlloc = CountingAlloc::new();

#[test]
fn cell_and_multi_lookups_allocate_nothing() {
    let hier = Hierarchy::new(16, 16, 2, 5).unwrap();
    let frames: Vec<Vec<Vec<f32>>> = (0..hier.num_layers())
        .map(|l| {
            (0..3)
                .map(|s| {
                    (0..hier.layer_len(l))
                        .map(|i| ((i * 7 + s * 3) % 11) as f32)
                        .collect()
                })
                .collect()
        })
        .collect();
    let index =
        search_optimal_combinations(&hier, &frames, &frames, SearchStrategy::UnionSubtraction);
    let mut cells = Vec::new();
    let mut multis = Vec::new();
    for layer in 0..hier.num_layers() {
        let (rows, cols) = hier.layer_dims(layer);
        for r in 0..rows {
            for c in 0..cols {
                cells.push(LayerCell::new(layer, r, c));
                if layer > 0 {
                    for m in &ChildCode::ALL[4..] {
                        let members: Vec<(usize, usize)> = m
                            .members()
                            .iter()
                            .map(|&(dr, dc)| (2 * r + dr, 2 * c + dc))
                            .collect();
                        multis.push((layer - 1, members));
                    }
                }
            }
        }
    }

    let groups: Vec<DecomposedGroup> = (0..6)
        .flat_map(|i| decompose(&hier, &Mask::rect(16, 16, i, i + 1, 9 + i, 14 - i)))
        .collect();

    let before = A.allocations();
    let mut found = 0usize;
    for &cell in &cells {
        found += index.for_cell(cell).is_some() as usize;
    }
    for (layer, members) in &multis {
        found += index.for_multi(*layer, members).is_some() as usize;
    }
    let mut found_groups = 0usize;
    for group in &groups {
        found_groups += index.tree.get_multi_group(group).is_some() as usize;
    }
    let allocated = A.allocations() - before;

    assert_eq!(found, index.len(), "every entry is reachable");
    assert!(found_groups > 0, "no decomposed group is a multi-grid");
    assert_eq!(
        allocated,
        0,
        "{} lookups allocated {allocated} times",
        found + groups.len()
    );
}
