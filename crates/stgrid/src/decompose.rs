//! Algorithm 1: hierarchical decomposition of a rasterized region.
//!
//! A region query is decomposed coarse-to-fine: at every layer (starting
//! from the coarsest) the `Match` step collects all cells fully covered by
//! the remaining region, groups them into connected components whose members
//! share the same upper (parent) grid, appends each component to the result
//! and removes it from the region. Decomposing coarse-to-fine guarantees
//! that no subset of the produced grids can be merged into a coarser grid,
//! which is the precondition of Theorem 4.1 (the optimal combination of the
//! region is the sum of the optimal combinations of the decomposed grids).
//!
//! A cell is fully covered by the *remaining* region at its layer exactly
//! when the region covers it and does not cover its parent: a covered
//! parent, or its covered coarsest ancestor, was matched first and took the
//! cell with it. [`decompose`] therefore never rescans the remaining
//! region. It builds the full-coverage pyramid bottom-up over packed `u64`
//! rows, ANDing the `K` child rows of each parent row word by word, and
//! clears every covered parent's children as it finds it. What stays set
//! is what Algorithm 1 matches; a flood fill inside each `K x K` block then
//! groups it, with the bitmap itself as the visited set. Only the rows
//! between the region's first and last cell are read, so the cost is at
//! most `O(H * W / 64)` words plus the covered cells, where Algorithm 1
//! reads every cell of every layer however small the query.

use crate::hierarchy::{Hierarchy, LayerCell};
use crate::mask::{spans, Mask};

/// One decomposed unit: a set of (connected, same-parent) cells at a single
/// layer. A group with one cell is a *single grid*; larger groups are the
/// paper's *multi-grids* (always at most `K^2 - 1` cells — a full parent
/// would have been matched one layer coarser).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecomposedGroup {
    /// Layer of the cells (0 = atomic).
    pub layer: usize,
    /// Member cells as `(row, col)` in layer coordinates, sorted row-major.
    pub cells: Vec<(usize, usize)>,
}

impl DecomposedGroup {
    /// Whether the group is a single grid.
    pub fn is_single(&self) -> bool {
        self.cells.len() == 1
    }

    /// Renders the group back onto the atomic raster.
    pub fn to_mask(&self, hier: &Hierarchy) -> Mask {
        let mut m = Mask::empty(hier.h(), hier.w());
        for &(r, c) in &self.cells {
            let (r0, c0, r1, c1) = hier.atomic_rect(LayerCell::new(self.layer, r, c));
            for rr in r0..r1 {
                for cc in c0..c1 {
                    m.set(rr, cc, true);
                }
            }
        }
        m
    }

    /// Area of the group in atomic grids.
    pub fn area(&self, hier: &Hierarchy) -> usize {
        let s = hier.scale(self.layer);
        self.cells.len() * s * s
    }
}

/// Decomposes `region` into hierarchical grids (Algorithm 1).
///
/// The returned groups are disjoint, cover the region exactly, and no
/// subset of them merges into a coarser hierarchical grid. Layers run
/// coarse to fine; within a layer, groups run in row-major order of their
/// first cell.
///
/// # Panics
/// Panics if the region's dimensions do not match the hierarchy's raster.
pub fn decompose(hier: &Hierarchy, region: &Mask) -> Vec<DecomposedGroup> {
    assert!(
        region.h() == hier.h() && region.w() == hier.w(),
        "region {}x{} does not match raster {}x{}",
        region.h(),
        region.w(),
        hier.h(),
        hier.w()
    );
    let k = hier.k();
    let top = hier.num_layers() - 1;
    // matched[l]: the cells of layer l that Algorithm 1 matches
    let mut matched = Vec::with_capacity(top + 1);
    matched.push(Rows::atomic(region));
    for layer in 1..=top {
        let children = &mut matched[layer - 1];
        // a covered parent has all K child rows inside the children's span
        let (lo, hi) = (children.lo.div_ceil(k), children.hi / k);
        let mut parents = Rows::empty(lo, hi, hier.layer_dims(layer).1);
        let mut and = vec![0u64; children.stride];
        let mut taken = vec![0u64; children.stride];
        for pr in lo..hi {
            and.copy_from_slice(children.row(pr * k));
            for dr in 1..k {
                for (a, &b) in and.iter_mut().zip(children.row(pr * k + dr)) {
                    *a &= b;
                }
            }
            // a parent is covered iff its K-bit run of the AND is all set
            taken.fill(0);
            let parent_row = parents.row_mut(pr);
            // `pc` is the parent whose run starts at `from`; dividing only
            // after a gap keeps runs of covered parents division-free
            let (mut pc, mut from) = (0, 0);
            while let Some(pos) = next_set(&and, from) {
                if pos >= from + k {
                    pc = pos / k;
                }
                let start = pc * k;
                if spans(start, start + k).all(|(wi, bits)| and[wi] & bits == bits) {
                    parent_row[pc / 64] |= 1 << (pc % 64);
                    for (wi, bits) in spans(start, start + k) {
                        taken[wi] |= bits;
                    }
                }
                pc += 1;
                from = start + k;
            }
            // the covered parent takes its children with it
            for dr in 0..k {
                for (c, &t) in children.row_mut(pr * k + dr).iter_mut().zip(&taken) {
                    *c &= !t;
                }
            }
        }
        matched.push(parents);
    }
    let mut out = Vec::new();
    for (layer, cells) in matched.iter_mut().enumerate().rev() {
        cells.drain_groups(layer, (layer < top).then_some(k), &mut out);
    }
    out
}

/// A bitmap over the rows `[lo, hi)` of one layer, each row padded to
/// whole words; the layer's other rows hold no set cell.
struct Rows {
    lo: usize,
    hi: usize,
    stride: usize,
    words: Vec<u64>,
}

impl Rows {
    fn empty(lo: usize, hi: usize, cols: usize) -> Self {
        let (hi, stride) = (hi.max(lo), cols.div_ceil(64));
        Rows {
            lo,
            hi,
            stride,
            words: vec![0; (hi - lo) * stride],
        }
    }

    /// The mask's rows from its first to its last set cell, re-packed so
    /// every row starts on a word.
    fn atomic(mask: &Mask) -> Self {
        let w = mask.w();
        let packed = mask.words();
        let (Some(first), Some(last)) = (
            packed.iter().position(|&x| x != 0),
            packed.iter().rposition(|&x| x != 0),
        ) else {
            return Rows::empty(0, 0, w);
        };
        let lo = (first * 64 + packed[first].trailing_zeros() as usize) / w;
        let hi = (last * 64 + 63 - packed[last].leading_zeros() as usize) / w + 1;
        let mut out = Rows::empty(lo, hi, w);
        for r in out.lo..out.hi {
            for (j, word) in out.row_mut(r).iter_mut().enumerate() {
                let pos = r * w + 64 * j;
                let (wi, s) = (pos / 64, pos % 64);
                let mut bits = packed[wi] >> s;
                if s > 0 {
                    bits |= packed.get(wi + 1).map_or(0, |&x| x << (64 - s));
                }
                let n = (w - 64 * j).min(64);
                *word = bits & (u64::MAX >> (64 - n));
            }
        }
        out
    }

    fn row(&self, r: usize) -> &[u64] {
        let at = (r - self.lo) * self.stride;
        &self.words[at..at + self.stride]
    }

    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        let at = (r - self.lo) * self.stride;
        &mut self.words[at..at + self.stride]
    }

    /// Clears cell `(r, c)`; returns whether it was set.
    fn take(&mut self, r: usize, c: usize) -> bool {
        if !(self.lo..self.hi).contains(&r) {
            return false;
        }
        let word = &mut self.row_mut(r)[c / 64];
        let bit = 1 << (c % 64);
        let was = *word & bit != 0;
        *word &= !bit;
        was
    }

    /// Appends the set cells as groups in row-major order of their first
    /// cell, clearing them. With `block = Some(K)`, a group is the
    /// 4-connected component of its first cell inside that cell's `K x K`
    /// block (same parent); without, every cell is its own group.
    fn drain_groups(&mut self, layer: usize, block: Option<usize>, out: &mut Vec<DecomposedGroup>) {
        for r in self.lo..self.hi {
            for wi in 0..self.stride {
                loop {
                    let word = self.row(r)[wi];
                    if word == 0 {
                        break;
                    }
                    let c = wi * 64 + word.trailing_zeros() as usize;
                    self.take(r, c);
                    let mut cells = vec![(r, c)];
                    if let Some(k) = block {
                        // the cell list doubles as the flood's queue
                        let mut next = 0;
                        while let Some(&(cr, cc)) = cells.get(next) {
                            next += 1;
                            let (br, bc) = (cr - cr % k, cc - cc % k);
                            if cr > br && self.take(cr - 1, cc) {
                                cells.push((cr - 1, cc));
                            }
                            if cr + 1 < br + k && self.take(cr + 1, cc) {
                                cells.push((cr + 1, cc));
                            }
                            if cc > bc && self.take(cr, cc - 1) {
                                cells.push((cr, cc - 1));
                            }
                            if cc + 1 < bc + k && self.take(cr, cc + 1) {
                                cells.push((cr, cc + 1));
                            }
                        }
                        cells.sort_unstable();
                    }
                    out.push(DecomposedGroup { layer, cells });
                }
            }
        }
    }
}

/// The first set bit at or after `from`.
fn next_set(row: &[u64], from: usize) -> Option<usize> {
    let mut wi = from / 64;
    let mut word = *row.get(wi)? & (u64::MAX << (from % 64));
    loop {
        if word != 0 {
            return Some(wi * 64 + word.trailing_zeros() as usize);
        }
        wi += 1;
        word = *row.get(wi)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier8() -> Hierarchy {
        Hierarchy::new(8, 8, 2, 4).unwrap() // scales {1,2,4,8}
    }

    /// Re-assembles the groups and checks they exactly tile the region.
    fn assert_exact_cover(hier: &Hierarchy, region: &Mask, groups: &[DecomposedGroup]) {
        let mut acc = Mask::empty(hier.h(), hier.w());
        let mut total = 0usize;
        for g in groups {
            let gm = g.to_mask(hier);
            assert!(!acc.intersects(&gm), "groups overlap");
            total += gm.area();
            acc.union_with(&gm);
        }
        assert_eq!(&acc, region, "groups do not cover the region exactly");
        assert_eq!(total, region.area());
    }

    #[test]
    fn full_raster_is_one_coarsest_group_set() {
        let hier = hier8();
        let region = Mask::full(8, 8);
        let groups = decompose(&hier, &region);
        // the whole raster = the single 8x8 cell of the coarsest layer
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].layer, 3);
        assert_exact_cover(&hier, &region, &groups);
    }

    #[test]
    fn single_atomic_cell() {
        let hier = hier8();
        let region = Mask::rect(8, 8, 3, 5, 4, 6);
        let groups = decompose(&hier, &region);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].layer, 0);
        assert_eq!(groups[0].cells, vec![(3, 5)]);
    }

    #[test]
    fn aligned_quarter_uses_coarse_cell() {
        let hier = hier8();
        // top-left 4x4 block = one layer-2 cell
        let region = Mask::rect(8, 8, 0, 0, 4, 4);
        let groups = decompose(&hier, &region);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].layer, 2);
        assert_eq!(groups[0].cells, vec![(0, 0)]);
    }

    #[test]
    fn l_shape_decomposes_hierarchically() {
        let hier = hier8();
        // a 4x4 block plus a 2x2 block to its right
        let mut region = Mask::rect(8, 8, 0, 0, 4, 4);
        region.union_with(&Mask::rect(8, 8, 0, 4, 2, 6));
        let groups = decompose(&hier, &region);
        assert_exact_cover(&hier, &region, &groups);
        // expect one layer-2 cell and one layer-1 cell
        let mut layers: Vec<usize> = groups.iter().map(|g| g.layer).collect();
        layers.sort_unstable();
        assert_eq!(layers, vec![1, 2]);
    }

    #[test]
    fn no_group_can_merge_coarser() {
        // precondition of Theorem 4.1: no produced subset merges into a
        // coarser grid. Verify on a jagged region.
        let hier = hier8();
        let mut region = Mask::rect(8, 8, 0, 0, 6, 6);
        region.set(5, 5, false);
        let groups = decompose(&hier, &region);
        assert_exact_cover(&hier, &region, &groups);
        for g in &groups {
            if g.layer + 1 >= hier.num_layers() {
                continue;
            }
            // for every parent cell, its children within the region must
            // not all be present in this group
            let k = hier.k();
            use std::collections::HashMap;
            let mut by_parent: HashMap<(usize, usize), usize> = HashMap::new();
            for &(r, c) in &g.cells {
                *by_parent.entry((r / k, c / k)).or_insert(0) += 1;
            }
            for (_, count) in by_parent {
                assert!(count < k * k, "a full parent survived decomposition");
            }
        }
    }

    #[test]
    fn multi_grid_groups_share_parent() {
        let hier = hier8();
        // three atomic cells forming an L inside one layer-1 parent
        let mut region = Mask::empty(8, 8);
        region.set(0, 0, true);
        region.set(0, 1, true);
        region.set(1, 0, true);
        let groups = decompose(&hier, &region);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].layer, 0);
        assert_eq!(groups[0].cells.len(), 3);
    }

    #[test]
    fn adjacent_cells_in_different_parents_stay_separate() {
        let hier = hier8();
        // atomic cells (0,1) and (0,2) are adjacent but in different parents
        let mut region = Mask::empty(8, 8);
        region.set(0, 1, true);
        region.set(0, 2, true);
        let groups = decompose(&hier, &region);
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.cells.len() == 1));
    }

    #[test]
    fn empty_region_decomposes_to_nothing() {
        let hier = hier8();
        let groups = decompose(&hier, &Mask::empty(8, 8));
        assert!(groups.is_empty());
    }

    #[test]
    fn disconnected_region_covered() {
        let hier = hier8();
        let mut region = Mask::rect(8, 8, 0, 0, 2, 2);
        region.union_with(&Mask::rect(8, 8, 6, 6, 8, 8));
        let groups = decompose(&hier, &region);
        assert_exact_cover(&hier, &region, &groups);
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.layer == 1));
    }

    #[test]
    fn irregular_region_exact_cover() {
        let hier = Hierarchy::new(16, 16, 2, 5).unwrap();
        // a blobby region built from overlapping rectangles
        let mut region = Mask::rect(16, 16, 2, 2, 10, 9);
        region.union_with(&Mask::rect(16, 16, 5, 7, 13, 14));
        region.set(0, 0, true);
        let groups = decompose(&hier, &region);
        assert_exact_cover(&hier, &region, &groups);
    }

    #[test]
    fn window3_decomposition() {
        let hier = Hierarchy::new(9, 9, 3, 3).unwrap(); // scales {1,3,9}
        let region = Mask::rect(9, 9, 0, 0, 3, 6);
        let groups = decompose(&hier, &region);
        assert_exact_cover(&hier, &region, &groups);
        // two layer-1 cells, grouped: (0,0) and (0,1) share parent (0,0)
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].layer, 1);
        assert_eq!(groups[0].cells.len(), 2);
    }

    #[test]
    fn group_area_matches_mask() {
        let hier = hier8();
        let region = Mask::rect(8, 8, 0, 0, 4, 6);
        for g in decompose(&hier, &region) {
            assert_eq!(g.area(&hier), g.to_mask(&hier).area());
        }
    }
}
