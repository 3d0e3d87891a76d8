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
//! is what Algorithm 1 matches; a flood fill over each `K x K` block's
//! bitmap (one word, since `K <= 8`) then groups it. Only the rows
//! between the region's first and last cell are read, so the cost is at
//! most `O(H * W / 64)` words plus the covered cells, where Algorithm 1
//! reads every cell of every layer however small the query.
//!
//! A [`DecomposedGroup`] is that block bitmap plus the block's position:
//! a `Copy` value with no heap part. The pyramid lives in per-thread
//! scratch that every decomposition on the thread reuses, so [`decompose`]
//! allocates only the `Vec` it returns, and [`decompose_into`] nothing
//! once its buffer has grown.

use crate::hierarchy::{Hierarchy, LayerCell};
use crate::mask::{spans, Mask};
use std::cell::RefCell;

/// One decomposed unit: a set of (connected, same-parent) cells at a single
/// layer. A group with one cell is a *single grid*; larger groups are the
/// paper's *multi-grids* (always at most `K^2 - 1` cells — a full parent
/// would have been matched one layer coarser).
///
/// The cells lie in one `K x K` block of their layer (the children of one
/// parent). The group stores the block's top-left cell `(r0, c0)` and a
/// member bitmap in which bit `(r - r0) * K + (c - c0)` marks cell
/// `(r, c)`, so it is a small `Copy` value. For `K = 2` the bitmap is the
/// quad-tree's 4-bit child-position set.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecomposedGroup {
    bits: u64,
    row: u32,
    col: u32,
    layer: u8,
    k: u8,
}

impl DecomposedGroup {
    /// A group of the cells `bits` marks in the `K x K` block whose
    /// top-left cell is `(row, col)` of `layer`.
    fn new(layer: usize, k: usize, row: usize, col: usize, bits: u64) -> Self {
        let coord = |x: usize| u32::try_from(x).expect("hierarchy rasters fit 32-bit coordinates");
        DecomposedGroup {
            bits,
            row: coord(row),
            col: coord(col),
            layer: layer as u8,
            k: k as u8,
        }
    }

    /// Layer of the cells (0 = atomic).
    #[inline]
    pub fn layer(&self) -> usize {
        self.layer as usize
    }

    /// Member cells as `(row, col)` in layer coordinates, row-major.
    #[inline]
    pub fn cells(&self) -> Cells {
        Cells {
            rest: self.bits,
            row: self.row as usize,
            col: self.col as usize,
            k: self.k as u32,
        }
    }

    /// The top-left cell of the group's `K x K` block, `K`, and the
    /// member bitmap.
    #[inline]
    pub(crate) fn block(&self) -> (usize, usize, usize, u64) {
        (
            self.row as usize,
            self.col as usize,
            self.k as usize,
            self.bits,
        )
    }

    /// Number of member cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the group has no cell; never true of a group [`decompose`]
    /// returns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Whether the group is a single grid.
    #[inline]
    pub fn is_single(&self) -> bool {
        self.bits.is_power_of_two()
    }

    /// Renders the group back onto the atomic raster.
    pub fn to_mask(&self, hier: &Hierarchy) -> Mask {
        let mut m = Mask::empty(hier.h(), hier.w());
        for (r, c) in self.cells() {
            let (r0, c0, r1, c1) = hier.atomic_rect(LayerCell::new(self.layer(), r, c));
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
        let s = hier.scale(self.layer());
        self.len() * s * s
    }
}

impl std::fmt::Debug for DecomposedGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecomposedGroup")
            .field("layer", &self.layer())
            .field("cells", &self.cells().collect::<Vec<_>>())
            .finish()
    }
}

/// The cells of a [`DecomposedGroup`], row-major
/// ([`DecomposedGroup::cells`]).
#[derive(Debug, Clone)]
pub struct Cells {
    /// Members not yet yielded, shifted so that bit 0 is cell
    /// `(row, col)`.
    rest: u64,
    row: usize,
    col: usize,
    k: u32,
}

impl Iterator for Cells {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.rest == 0 {
            return None;
        }
        // step over whole block rows instead of dividing the bit index
        // by K
        let row_bits = (1u64 << self.k) - 1;
        while self.rest & row_bits == 0 {
            self.rest >>= self.k;
            self.row += 1;
        }
        let dc = self.rest.trailing_zeros() as usize;
        self.rest &= self.rest - 1;
        Some((self.row, self.col + dc))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.rest.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Cells {}

/// Decomposes `region` into hierarchical grids (Algorithm 1).
///
/// The returned groups are disjoint, cover the region exactly, and no
/// subset of them merges into a coarser hierarchical grid. Layers run
/// coarse to fine; within a layer, groups run in row-major order of their
/// first cell. The returned `Vec`, sized exactly, is the call's only
/// allocation once the thread's scratch has grown.
///
/// # Panics
/// Panics if the region's dimensions do not match the hierarchy's raster.
pub fn decompose(hier: &Hierarchy, region: &Mask) -> Vec<DecomposedGroup> {
    SCRATCH.with_borrow_mut(|s| {
        let mut groups = std::mem::take(&mut s.groups);
        s.decompose_into(hier, region, &mut groups);
        let out = groups.to_vec();
        s.groups = groups;
        out
    })
}

/// [`decompose`] into `out`, replacing its contents: a caller that keeps
/// `out` allocates nothing once it and the thread's scratch have grown.
///
/// # Panics
/// Panics if the region's dimensions do not match the hierarchy's raster.
pub fn decompose_into(hier: &Hierarchy, region: &Mask, out: &mut Vec<DecomposedGroup>) {
    SCRATCH.with_borrow_mut(|s| s.decompose_into(hier, region, out));
}

thread_local! {
    /// Per-thread pyramid and group buffers, reused by every
    /// decomposition on the thread.
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            matched: Vec::new(),
            and: Vec::new(),
            taken: Vec::new(),
            groups: Vec::new(),
        })
    };
}

struct Scratch {
    /// `matched[l]`: the cells of layer `l` that Algorithm 1 matches.
    matched: Vec<Rows>,
    /// One parent row's AND of its child rows.
    and: Vec<u64>,
    /// The children that one parent row's covered parents take.
    taken: Vec<u64>,
    /// [`decompose`]'s groups before their exact-size copy.
    groups: Vec<DecomposedGroup>,
}

impl Scratch {
    fn decompose_into(&mut self, hier: &Hierarchy, region: &Mask, out: &mut Vec<DecomposedGroup>) {
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
        let Scratch {
            matched,
            and,
            taken,
            ..
        } = self;
        if matched.len() <= top {
            matched.resize_with(top + 1, Rows::default);
        }
        matched[0].load_atomic(region);
        for layer in 1..=top {
            let (finer, coarser) = matched.split_at_mut(layer);
            let (children, parents) = (&mut finer[layer - 1], &mut coarser[0]);
            // a covered parent has all K child rows inside the children's span
            let (lo, hi) = (children.lo.div_ceil(k), children.hi / k);
            parents.reset(lo, hi, hier.layer_dims(layer).1);
            and.resize(children.stride, 0);
            taken.resize(children.stride, 0);
            for pr in parents.lo..parents.hi {
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
                while let Some(pos) = next_set(and, from) {
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
                    for (c, &t) in children.row_mut(pr * k + dr).iter_mut().zip(&*taken) {
                        *c &= !t;
                    }
                }
            }
        }
        out.clear();
        for (layer, cells) in matched[..=top].iter_mut().enumerate().rev() {
            cells.drain_groups(layer, k, layer < top, out);
        }
    }
}

/// A bitmap over the rows `[lo, hi)` of one layer, each row padded to
/// whole words; the layer's other rows hold no set cell.
#[derive(Default)]
struct Rows {
    lo: usize,
    hi: usize,
    stride: usize,
    words: Vec<u64>,
}

impl Rows {
    /// Empties the bitmap and spans it over the rows `[lo, hi)` of a layer
    /// with `cols` columns.
    fn reset(&mut self, lo: usize, hi: usize, cols: usize) {
        self.lo = lo;
        self.hi = hi.max(lo);
        self.stride = cols.div_ceil(64);
        self.words.clear();
        self.words.resize((self.hi - lo) * self.stride, 0);
    }

    /// Loads the mask's rows from its first to its last set cell,
    /// re-packed so every row starts on a word.
    fn load_atomic(&mut self, mask: &Mask) {
        let w = mask.w();
        let packed = mask.words();
        let (Some(first), Some(last)) = (
            packed.iter().position(|&x| x != 0),
            packed.iter().rposition(|&x| x != 0),
        ) else {
            return self.reset(0, 0, w);
        };
        let lo = (first * 64 + packed[first].trailing_zeros() as usize) / w;
        let hi = (last * 64 + 63 - packed[last].leading_zeros() as usize) / w + 1;
        self.reset(lo, hi, w);
        for r in lo..hi {
            for (j, word) in self.row_mut(r).iter_mut().enumerate() {
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
    }

    fn row(&self, r: usize) -> &[u64] {
        let at = (r - self.lo) * self.stride;
        &self.words[at..at + self.stride]
    }

    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        let at = (r - self.lo) * self.stride;
        &mut self.words[at..at + self.stride]
    }

    /// The `k` cells of row `r` from column `c` on, as the low `k` bits.
    fn run(&self, r: usize, c: usize, k: usize) -> u64 {
        if !(self.lo..self.hi).contains(&r) {
            return 0;
        }
        let row = self.row(r);
        let (wi, s) = (c / 64, c % 64);
        let mut bits = row[wi] >> s;
        if s + k > 64 {
            bits |= row[wi + 1] << (64 - s);
        }
        bits & ((1 << k) - 1)
    }

    /// Clears the cells the low `k` bits of `run` mark in row `r` from
    /// column `c` on.
    fn clear_run(&mut self, r: usize, c: usize, k: usize, run: u64) {
        let row = self.row_mut(r);
        let (wi, s) = (c / 64, c % 64);
        row[wi] &= !(run << s);
        if s + k > 64 && run >> (64 - s) != 0 {
            row[wi + 1] &= !(run >> (64 - s));
        }
    }

    /// Appends the set cells as groups in row-major order of their first
    /// cell, clearing them. With `grouped`, a group is the 4-connected
    /// component of its first cell inside that cell's `K x K` block (same
    /// parent); without, every cell is its own group.
    fn drain_groups(
        &mut self,
        layer: usize,
        k: usize,
        grouped: bool,
        out: &mut Vec<DecomposedGroup>,
    ) {
        let flood = Flood::new(k);
        let row_bits = (1u64 << k) - 1;
        for r in self.lo..self.hi {
            for wi in 0..self.stride {
                loop {
                    let word = self.row(r)[wi];
                    if word == 0 {
                        break;
                    }
                    let c = wi * 64 + word.trailing_zeros() as usize;
                    let (br, bc) = (r - r % k, c - c % k);
                    let seed = 1 << ((r - br) * k + c - bc);
                    let bits = if grouped {
                        let block =
                            (0..k).fold(0, |b, dr| b | (self.run(br + dr, bc, k) << (dr * k)));
                        flood.fill(seed, block)
                    } else {
                        seed
                    };
                    for dr in 0..k {
                        let run = (bits >> (dr * k)) & row_bits;
                        if run != 0 {
                            self.clear_run(br + dr, bc, k, run);
                        }
                    }
                    out.push(DecomposedGroup::new(layer, k, br, bc, bits));
                }
            }
        }
    }
}

/// 4-connected flood fill on a `K x K` block bitmap (bit `dr * K + dc`).
struct Flood {
    k: usize,
    /// Every bit but column 0's, and every bit but column `K - 1`'s: a
    /// shift by one column must not wrap into the next or previous row.
    not_first_col: u64,
    not_last_col: u64,
}

impl Flood {
    fn new(k: usize) -> Self {
        let first_col = (0..k).fold(0u64, |b, dr| b | (1 << (dr * k)));
        Flood {
            k,
            not_first_col: !first_col,
            not_last_col: !(first_col << (k - 1)),
        }
    }

    /// The 4-connected component of the `seed` bit within `block`.
    fn fill(&self, seed: u64, block: u64) -> u64 {
        let mut comp = seed;
        loop {
            let grown = comp
                | ((comp << 1) & self.not_first_col)
                | ((comp >> 1) & self.not_last_col)
                | (comp << self.k)
                | (comp >> self.k);
            let next = grown & block;
            if next == comp {
                return comp;
            }
            comp = next;
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

    fn cells(g: &DecomposedGroup) -> Vec<(usize, usize)> {
        g.cells().collect()
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
        assert_eq!(groups[0].layer(), 3);
        assert_exact_cover(&hier, &region, &groups);
    }

    #[test]
    fn single_atomic_cell() {
        let hier = hier8();
        let region = Mask::rect(8, 8, 3, 5, 4, 6);
        let groups = decompose(&hier, &region);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].layer(), 0);
        assert_eq!(cells(&groups[0]), vec![(3, 5)]);
    }

    #[test]
    fn aligned_quarter_uses_coarse_cell() {
        let hier = hier8();
        // top-left 4x4 block = one layer-2 cell
        let region = Mask::rect(8, 8, 0, 0, 4, 4);
        let groups = decompose(&hier, &region);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].layer(), 2);
        assert_eq!(cells(&groups[0]), vec![(0, 0)]);
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
        let mut layers: Vec<usize> = groups.iter().map(|g| g.layer()).collect();
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
            if g.layer() + 1 >= hier.num_layers() {
                continue;
            }
            // for every parent cell, its children within the region must
            // not all be present in this group
            let k = hier.k();
            use std::collections::HashMap;
            let mut by_parent: HashMap<(usize, usize), usize> = HashMap::new();
            for (r, c) in g.cells() {
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
        assert_eq!(groups[0].layer(), 0);
        assert_eq!(groups[0].len(), 3);
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
        assert!(groups.iter().all(|g| g.is_single()));
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
        assert!(groups.iter().all(|g| g.layer() == 1));
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
        assert_eq!(groups[0].layer(), 1);
        assert_eq!(cells(&groups[0]), vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn group_area_matches_mask() {
        let hier = hier8();
        let region = Mask::rect(8, 8, 0, 0, 4, 6);
        for g in decompose(&hier, &region) {
            assert_eq!(g.area(&hier), g.to_mask(&hier).area());
        }
    }

    #[test]
    fn decompose_into_replaces_the_buffer() {
        let hier = hier8();
        let a = Mask::rect(8, 8, 0, 0, 4, 6);
        let b = Mask::rect(8, 8, 3, 5, 4, 6);
        let mut buf = Vec::new();
        decompose_into(&hier, &a, &mut buf);
        assert_eq!(buf, decompose(&hier, &a));
        decompose_into(&hier, &b, &mut buf);
        assert_eq!(buf, decompose(&hier, &b));
    }

    /// Every member bitmap of a `K x K` block at `(row, col)`, checked
    /// against the bit rule: bit `(r - row) * K + (c - col)` is cell
    /// `(r, c)`, and the cells come out row-major.
    fn check_accessors(k: usize, layer: usize, row: usize, col: usize) {
        let hier = Hierarchy::new(k * k * 2, k * k * 2, k, 3).unwrap();
        let s = hier.scale(layer);
        let blocks = (1u64 << (k * k)) - 1;
        // a sample of bitmaps, one- and many-cell, every bit included
        let mut maps: Vec<u64> = (0..k * k).map(|b| 1 << b).collect();
        maps.extend([blocks, blocks & 0x5555_5555_5555_5555, 1 | 1 << (k * k - 1)]);
        for bits in maps {
            let g = DecomposedGroup::new(layer, k, row, col, bits);
            let want: Vec<(usize, usize)> = (0..k * k)
                .filter(|b| (bits >> b) & 1 == 1)
                .map(|b| (row + b / k, col + b % k))
                .collect();
            let mut sorted = want.clone();
            sorted.sort_unstable();
            assert_eq!(want, sorted, "K={k}: bit order is row-major");
            assert_eq!(cells(&g), want, "K={k} bits {bits:b}");
            assert_eq!(g.cells().len(), want.len());
            assert_eq!(g.layer(), layer);
            assert_eq!(g.len(), want.len());
            assert!(!g.is_empty());
            assert_eq!(g.is_single(), want.len() == 1);
            assert_eq!(g.area(&hier), want.len() * s * s);
            let mut mask = Mask::empty(hier.h(), hier.w());
            for &(r, c) in &want {
                let (r0, c0, r1, c1) = hier.atomic_rect(LayerCell::new(layer, r, c));
                mask.union_with(&Mask::rect(hier.h(), hier.w(), r0, c0, r1, c1));
            }
            assert_eq!(g.to_mask(&hier), mask, "K={k} bits {bits:b}");
        }
    }

    #[test]
    fn accessors_follow_the_bit_rule_k2() {
        check_accessors(2, 0, 0, 0);
        check_accessors(2, 1, 2, 2);
    }

    #[test]
    fn accessors_follow_the_bit_rule_k3() {
        check_accessors(3, 0, 3, 6);
        check_accessors(3, 1, 0, 3);
    }

    #[test]
    fn accessors_follow_the_bit_rule_k4() {
        check_accessors(4, 0, 12, 8);
        check_accessors(4, 1, 0, 0);
    }

    #[test]
    fn a_group_is_a_small_copy_value() {
        assert!(std::mem::size_of::<DecomposedGroup>() <= 24);
        let hier = hier8();
        let g = decompose(&hier, &Mask::rect(8, 8, 0, 0, 1, 2))[0];
        let copy = g;
        assert_eq!(cells(&copy), cells(&g));
        assert_eq!(
            format!("{g:?}"),
            "DecomposedGroup { layer: 0, cells: [(0, 0), (0, 1)] }"
        );
    }
}
