//! `decompose` against the oracle: Algorithm 1 as the paper states it,
//! rescanning the remaining region cell by cell at every layer.
//!
//! Equal output means equal groups in equal order with equal cells, which
//! is what keeps every answer bit-identical.

use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::{decompose, DecomposedGroup, Mask};
use o4a_tensor::SeededRng;

// ---------------------------------------------------------------------------
// the oracle: Algorithm 1, cell by cell

fn oracle(hier: &Hierarchy, region: &Mask) -> Vec<DecomposedGroup> {
    assert!(
        region.h() == hier.h() && region.w() == hier.w(),
        "region {}x{} does not match raster {}x{}",
        region.h(),
        region.w(),
        hier.h(),
        hier.w()
    );
    let mut remaining = region.clone();
    let mut out = Vec::new();
    for layer in (0..hier.num_layers()).rev() {
        // Match(R, S): cells of this layer fully covered by the remaining
        // region.
        let covered = match_layer(hier, layer, &remaining);
        if covered.is_empty() {
            continue;
        }
        // Connected components among covered cells that share a parent.
        let groups = group_cells(hier, layer, &covered);
        for cells in groups {
            for &(r, c) in &cells {
                let (r0, c0, r1, c1) = hier.atomic_rect(LayerCell::new(layer, r, c));
                remaining.clear_rect(r0, c0, r1, c1);
            }
            out.push(DecomposedGroup { layer, cells });
        }
    }
    debug_assert!(remaining.is_empty(), "decomposition must cover the region");
    out
}

/// The `Match` step: all cells of `layer` fully covered by `remaining`.
fn match_layer(hier: &Hierarchy, layer: usize, remaining: &Mask) -> Vec<(usize, usize)> {
    let (rows, cols) = hier.layer_dims(layer);
    let mut covered = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let (r0, c0, r1, c1) = hier.atomic_rect(LayerCell::new(layer, r, c));
            if remaining.covers_rect(r0, c0, r1, c1) {
                covered.push((r, c));
            }
        }
    }
    covered
}

/// Groups covered cells into connected components where an edge exists
/// between cells that are 4-adjacent *and* share the same parent grid.
/// Cells of the coarsest layer have no parent, so they always form
/// singleton groups.
fn group_cells(
    hier: &Hierarchy,
    layer: usize,
    covered: &[(usize, usize)],
) -> Vec<Vec<(usize, usize)>> {
    use std::collections::HashMap;
    if layer + 1 >= hier.num_layers() {
        return covered.iter().map(|&c| vec![c]).collect();
    }
    let index: HashMap<(usize, usize), usize> =
        covered.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let mut visited = vec![false; covered.len()];
    let mut groups = Vec::new();
    for start in 0..covered.len() {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let mut comp = vec![covered[start]];
        let mut stack = vec![covered[start]];
        while let Some((r, c)) = stack.pop() {
            let cell = LayerCell::new(layer, r, c);
            let neighbours = [
                (r.wrapping_sub(1), c),
                (r + 1, c),
                (r, c.wrapping_sub(1)),
                (r, c + 1),
            ];
            for (nr, nc) in neighbours {
                if let Some(&ni) = index.get(&(nr, nc)) {
                    if !visited[ni] && hier.same_parent(cell, LayerCell::new(layer, nr, nc)) {
                        visited[ni] = true;
                        comp.push((nr, nc));
                        stack.push((nr, nc));
                    }
                }
            }
        }
        comp.sort_unstable();
        groups.push(comp);
    }
    groups
}

// ---------------------------------------------------------------------------
// masks

fn assert_same(hier: &Hierarchy, region: &Mask, what: &str) {
    let got = decompose(hier, region);
    let want = oracle(hier, region);
    assert!(
        got == want,
        "{what}: decompose differs from Algorithm 1 on\n{region}\ngot  {got:?}\nwant {want:?}"
    );
}

/// Each cell set with one density drawn per mask.
fn random_density(h: usize, w: usize, rng: &mut SeededRng) -> Mask {
    let p = rng.uniform(0.0, 1.0) as f64;
    let bits = (0..h * w).map(|_| rng.bernoulli(p)).collect();
    Mask::from_bits(h, w, bits)
}

/// A union of up to eight random rectangles, so coarse cells get covered.
fn random_rects(h: usize, w: usize, rng: &mut SeededRng) -> Mask {
    let mut m = Mask::empty(h, w);
    for _ in 0..1 + rng.index(8) {
        let (r0, c0) = (rng.index(h), rng.index(w));
        let (r1, c1) = (r0 + 1 + rng.index(h - r0), c0 + 1 + rng.index(w - c0));
        m.union_with(&Mask::rect(h, w, r0, c0, r1, c1));
    }
    m
}

fn check_random(hier: &Hierarchy, n: usize, seed: u64) {
    let (h, w) = (hier.h(), hier.w());
    let mut rng = SeededRng::new(seed);
    for i in 0..n {
        let m = if i % 2 == 0 {
            random_density(h, w, &mut rng)
        } else {
            random_rects(h, w, &mut rng)
        };
        assert_same(hier, &m, &format!("random {h}x{w} K={} #{i}", hier.k()));
    }
}

/// Masks any client can send that maximize the output: the checkerboard,
/// three cells of every 2×2 block, column stripes, and the full raster.
fn hostile(h: usize, w: usize) -> Vec<(&'static str, Mask)> {
    let pattern = |f: &dyn Fn(usize, usize) -> bool| {
        let bits = (0..h * w).map(|i| f(i / w, i % w)).collect();
        Mask::from_bits(h, w, bits)
    };
    vec![
        ("checkerboard", pattern(&|r, c| (r + c) % 2 == 0)),
        ("3 of 4", pattern(&|r, c| r % 2 == 0 || c % 2 == 0)),
        ("column stripes", pattern(&|_, c| c % 2 == 0)),
        ("full", Mask::full(h, w)),
        ("empty", Mask::empty(h, w)),
    ]
}

// ---------------------------------------------------------------------------
// K = 2

#[test]
fn random_masks_8x8() {
    check_random(&Hierarchy::new(8, 8, 2, 4).unwrap(), 1000, 1);
}

#[test]
fn random_masks_32x32() {
    check_random(&Hierarchy::new(32, 32, 2, 6).unwrap(), 300, 2);
}

#[test]
fn random_masks_128x128() {
    check_random(&Hierarchy::new(128, 128, 2, 6).unwrap(), 16, 3);
}

#[test]
fn random_masks_non_square() {
    // 80-cell rows straddle words
    check_random(&Hierarchy::new(48, 80, 2, 5).unwrap(), 100, 4);
}

#[test]
fn single_layer_hierarchy_emits_every_cell() {
    check_random(&Hierarchy::new(9, 13, 2, 1).unwrap(), 50, 5);
}

// ---------------------------------------------------------------------------
// K = 3

#[test]
fn random_masks_27x27_k3() {
    check_random(&Hierarchy::new(27, 27, 3, 4).unwrap(), 300, 6);
}

#[test]
fn random_masks_81x81_k3() {
    check_random(&Hierarchy::new(81, 81, 3, 5).unwrap(), 24, 7);
}

// ---------------------------------------------------------------------------
// the paper's task masks and the hostile masks

fn check_tasks(hier: &Hierarchy, seed: u64, hex_task1: bool, every: usize) {
    let mut rng = SeededRng::new(seed);
    let mut n = 0;
    for spec in TaskSpec::standard_tasks(150.0) {
        let masks = task_queries(hier.h(), hier.w(), spec, hex_task1, &mut rng);
        for m in masks.iter().step_by(every) {
            assert_same(hier, m, &format!("task {} seed {seed}", spec.id));
            n += 1;
        }
    }
    assert!(n > 0);
}

#[test]
fn task_masks_32x32() {
    let hier = Hierarchy::new(32, 32, 2, 6).unwrap();
    check_tasks(&hier, 7, false, 1);
    check_tasks(&hier, 11, true, 1);
}

#[test]
fn task_masks_128x128() {
    // every 4th mask keeps the debug build's run short
    let hier = Hierarchy::new(128, 128, 2, 6).unwrap();
    check_tasks(&hier, 7, false, 4);
    check_tasks(&hier, 11, true, 4);
}

#[test]
fn hostile_masks() {
    for hier in [
        Hierarchy::new(128, 128, 2, 6).unwrap(),
        Hierarchy::new(48, 80, 2, 5).unwrap(),
        Hierarchy::new(81, 81, 3, 5).unwrap(),
    ] {
        for (name, m) in hostile(hier.h(), hier.w()) {
            assert_same(&hier, &m, name);
        }
    }
}
