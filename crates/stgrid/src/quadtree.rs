//! The extended quad-tree index (Sec. IV-C3, Fig. 12).
//!
//! A standard quad-tree node has four children (the single grids `A`–`D`);
//! the *extended* quad-tree gives each node twelve — the four singles plus
//! the eight multi-grids `E`–`L` — so optimal combinations of multi-grids
//! can be indexed alongside single grids. Multi-grid children are always
//! leaves; single children recurse. The tree is a forest with one root per
//! coarsest-layer cell.
//!
//! The combination search fills every node (65,488 entries at 128×128,
//! P = {1,…,32}), so the tree is stored implicitly: one slot array, laid
//! out layer by layer in row-major cell order. Every grid of every layer
//! owns a slot, whatever the merging window K, and
//! [`ExtendedQuadTree::insert_cell`] and [`ExtendedQuadTree::get_cell`]
//! reach it from the grid's coordinates. Multi-grids exist only where the
//! grid coding rule does, for `K = 2`: there a cell of a coarser layer owns
//! nine slots — its own payload, then the multi-grids `E`–`L` of its four
//! children. A [`GridCode`] addresses every slot of a `K = 2` tree, and
//! [`ExtendedQuadTree::get_multi`] reaches a multi-grid's slot from its
//! coordinates with a little arithmetic: `O(1)` and allocation-free,
//! against `O(HW)` for a linear table scan (both timed by `o4a-bench`'s
//! `fig17`). [`ExtendedQuadTree::get_multi_group`] reaches a decomposed
//! group's multi-grid slot from its member bitmap without a cell list.
//! The operations addressed by a code and the multi-grid lookups are
//! `K = 2` only: on another K they miss, and [`ExtendedQuadTree::for_each`]
//! refuses to walk.

use crate::coding::{ChildCode, GridCode};
use crate::decompose::DecomposedGroup;
use crate::hierarchy::{Hierarchy, LayerCell};

/// Slots a coarser-layer cell owns: its payload, then `E`–`L`.
const PARENT_SLOTS: usize = 9;

/// The code covering each set of child positions, keyed by a 4-bit set
/// whose bit `2 * (row % 2) + col % 2` marks a member.
const CODE_BY_MEMBERS: [Option<ChildCode>; 16] = {
    use ChildCode::*;
    [
        None,
        Some(A),
        Some(B),
        Some(E),
        Some(C),
        Some(G),
        None, // B + C, diagonal
        Some(I),
        Some(D),
        None, // A + D, diagonal
        Some(H),
        Some(J),
        Some(F),
        Some(K),
        Some(L),
        None, // the whole parent
    ]
};

/// Where one layer's slots sit in the slot array.
#[derive(Debug, Clone, Copy)]
struct Layer {
    base: usize,
    rows: usize,
    cols: usize,
    stride: usize,
}

/// The layer table of a tree over `hier` and the slot count it needs,
/// saturating on hierarchies too large to allocate. Coarser-layer cells
/// own multi-grid slots only for `K = 2`, where the grid coding rule is
/// defined.
fn layout(hier: &Hierarchy) -> (Vec<Layer>, usize) {
    let mut total = 0usize;
    let layers = (0..hier.num_layers())
        .map(|layer| {
            let (rows, cols) = hier.layer_dims(layer);
            let stride = if layer > 0 && hier.k() == 2 {
                PARENT_SLOTS
            } else {
                1
            };
            let base = total;
            total = total.saturating_add(rows.saturating_mul(cols).saturating_mul(stride));
            Layer {
                base,
                rows,
                cols,
                stride,
            }
        })
        .collect();
    (layers, total)
}

/// Slots a tree over `hier` allocates: one per grid of every layer plus,
/// for `K = 2`, eight per grid that has children. Decoders compare it with
/// the stream length before building a tree.
pub fn slot_count(hier: &Hierarchy) -> usize {
    layout(hier).1
}

/// An extended quad-tree mapping [`GridCode`] paths to payloads, stored
/// implicitly over a fixed [`Hierarchy`] (see the module docs).
#[derive(Debug, Clone)]
pub struct ExtendedQuadTree<T> {
    layers: Vec<Layer>,
    slots: Vec<Option<T>>,
    len: usize,
    /// Whether the grid coding rule applies (`K = 2`): only then do codes
    /// address slots and multi-grids own some.
    coded: bool,
}

impl<T> ExtendedQuadTree<T> {
    /// Creates an empty tree with a slot for every grid of `hier` and, for
    /// `K = 2`, every multi-grid.
    pub fn new(hier: &Hierarchy) -> Self {
        let (layers, total) = layout(hier);
        ExtendedQuadTree {
            layers,
            slots: std::iter::repeat_with(|| None).take(total).collect(),
            len: 0,
            coded: hier.k() == 2,
        }
    }

    /// Number of stored payloads.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload slot of a grid, if it lies inside the hierarchy.
    fn node(&self, layer: usize, row: usize, col: usize) -> Option<usize> {
        let l = self.layers.get(layer)?;
        (row < l.rows && col < l.cols).then(|| l.base + (row * l.cols + col) * l.stride)
    }

    /// The slot a code path addresses, if the tree is coded, the path lies
    /// inside the hierarchy and any multi code ends it.
    fn slot(&self, code: &GridCode) -> Option<usize> {
        if !self.coded {
            return None;
        }
        let mut layer = self.layers.len().checked_sub(1)?;
        let (mut row, mut col) = code.root;
        self.node(layer, row, col)?;
        let (multi, singles) = match code.path.split_last() {
            Some((&last, rest)) if last.is_multi() => (Some(last), rest),
            _ => (None, code.path.as_slice()),
        };
        for &c in singles {
            if c.is_multi() || layer == 0 {
                return None;
            }
            let (dr, dc) = c.members()[0];
            (layer, row, col) = (layer - 1, 2 * row + dr, 2 * col + dc);
        }
        let node = self.node(layer, row, col)?;
        match multi {
            None => Some(node),
            Some(m) => (layer > 0).then(|| multi_slot(node, m)),
        }
    }

    /// Inserts (or replaces) the payload at a code path. Returns the
    /// previous payload if one existed.
    ///
    /// # Panics
    /// Panics if a non-terminal path element is a multi code — multi-grids
    /// are leaves by construction — or if the code lies outside the
    /// tree's hierarchy, as every code does for `K != 2`.
    pub fn insert(&mut self, code: &GridCode, payload: T) -> Option<T> {
        for (i, &c) in code.path.iter().enumerate() {
            assert!(
                c.is_single() || i + 1 == code.path.len(),
                "multi code {c} must terminate the path"
            );
        }
        let slot = self
            .slot(code)
            .unwrap_or_else(|| panic!("code {code} lies outside the tree's hierarchy"));
        self.put(slot, payload)
    }

    /// Inserts (or replaces) the payload of a single grid, for any K: what
    /// `insert(&GridCode::for_cell(..), ..)` does for `K = 2`. Returns the
    /// previous payload if one existed.
    ///
    /// # Panics
    /// Panics if the cell lies outside the tree's hierarchy.
    pub fn insert_cell(&mut self, cell: LayerCell, payload: T) -> Option<T> {
        let slot = self
            .node(cell.layer, cell.row, cell.col)
            .unwrap_or_else(|| panic!("cell {cell:?} lies outside the tree's hierarchy"));
        self.put(slot, payload)
    }

    fn put(&mut self, slot: usize, payload: T) -> Option<T> {
        let old = self.slots[slot].replace(payload);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Looks up the payload at a code path.
    pub fn get(&self, code: &GridCode) -> Option<&T> {
        self.slots[self.slot(code)?].as_ref()
    }

    /// The payload of a single grid, for any K: what
    /// `get(&GridCode::for_cell(..))` returns for `K = 2`, without building
    /// the code. `None` for a cell outside the hierarchy.
    pub fn get_cell(&self, cell: LayerCell) -> Option<&T> {
        self.slots[self.node(cell.layer, cell.row, cell.col)?].as_ref()
    }

    /// The payload of the multi-grid `cells` (positions at `layer`): what
    /// `get(&GridCode::for_multi_grid(..)?)` returns, without building the
    /// code. That is `None` unless `K = 2` and the cells are 2 or 3 of one
    /// parent's children with a code; cells repeated down to one name that
    /// cell.
    pub fn get_multi(&self, layer: usize, cells: &[(usize, usize)]) -> Option<&T> {
        if !self.coded || !(2..=3).contains(&cells.len()) || layer + 1 >= self.layers.len() {
            return None;
        }
        let (r0, c0) = cells[0];
        let mut members = 0usize;
        for &(r, c) in cells {
            if (r / 2, c / 2) != (r0 / 2, c0 / 2) {
                return None;
            }
            members |= 1 << (2 * (r % 2) + c % 2);
        }
        let code = CODE_BY_MEMBERS[members]?;
        if code.is_single() {
            return self.get_cell(LayerCell::new(layer, r0, c0));
        }
        let parent = self.node(layer + 1, r0 / 2, c0 / 2)?;
        self.slots[multi_slot(parent, code)].as_ref()
    }

    /// The payload of a decomposed group's multi-grid: what
    /// [`ExtendedQuadTree::get_multi`] returns for the group's cells, read
    /// from its member bitmap, which for `K = 2` is the 4-bit set of
    /// child positions that the coding rule maps to a code. `None` unless
    /// `K = 2` and the group has 2 or 3 cells with a code.
    pub fn get_multi_group(&self, group: &DecomposedGroup) -> Option<&T> {
        let (layer, (r0, c0, k, members)) = (group.layer(), group.block());
        if k != 2
            || !self.coded
            || layer + 1 >= self.layers.len()
            || !(2..=3).contains(&members.count_ones())
        {
            return None;
        }
        let code = CODE_BY_MEMBERS[members as usize]?;
        let parent = self.node(layer + 1, r0 / 2, c0 / 2)?;
        self.slots[multi_slot(parent, code)].as_ref()
    }

    /// Visits every stored `(code, payload)` pair depth-first: roots in
    /// `(row, col)` order, then each node's payload, its children `A`–`D`
    /// recursively, then its multi-grids `E`–`L`. The order is fixed by the
    /// codes alone, so the index and plan codecs write byte-identical
    /// artifacts for equal trees.
    ///
    /// # Panics
    /// Panics for `K != 2`, whose grids have no codes.
    pub fn for_each(&self, mut f: impl FnMut(&GridCode, &T)) {
        assert!(self.coded, "for_each walks K = 2 trees only");
        let Some(top) = self.layers.len().checked_sub(1) else {
            return;
        };
        let mut code = GridCode {
            root: (0, 0),
            path: Vec::with_capacity(top + 1),
        };
        for row in 0..self.layers[top].rows {
            for col in 0..self.layers[top].cols {
                code.root = (row, col);
                self.walk(top, row, col, &mut code, &mut f);
            }
        }
    }

    fn walk(
        &self,
        layer: usize,
        row: usize,
        col: usize,
        code: &mut GridCode,
        f: &mut impl FnMut(&GridCode, &T),
    ) {
        let node = self.node(layer, row, col).expect("walk stays inside");
        if let Some(p) = &self.slots[node] {
            f(code, p);
        }
        if layer == 0 {
            return;
        }
        for c in &ChildCode::ALL[..4] {
            let (dr, dc) = c.members()[0];
            code.path.push(*c);
            self.walk(layer - 1, 2 * row + dr, 2 * col + dc, code, f);
            code.path.pop();
        }
        for &m in &ChildCode::ALL[4..] {
            if let Some(p) = &self.slots[multi_slot(node, m)] {
                code.path.push(m);
                f(code, p);
                code.path.pop();
            }
        }
    }
}

/// The slot of multi code `m` beside its parent's payload slot `node`.
fn multi_slot(node: usize, m: ChildCode) -> usize {
    node + 1 + m.index() - ChildCode::E.index()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::mask::Mask;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn hier8() -> Hierarchy {
        Hierarchy::new(8, 8, 2, 4).unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let hier = hier8();
        let mut tree = ExtendedQuadTree::new(&hier);
        let code = GridCode::for_cell(&hier, LayerCell::new(1, 2, 3));
        assert!(tree.insert(&code, 42u32).is_none());
        assert_eq!(tree.get(&code), Some(&42));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn replace_returns_old() {
        let hier = hier8();
        let mut tree = ExtendedQuadTree::new(&hier);
        let code = GridCode::for_cell(&hier, LayerCell::new(0, 0, 0));
        tree.insert(&code, 1);
        assert_eq!(tree.insert(&code, 2), Some(1));
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.get(&code), Some(&2));
    }

    #[test]
    fn missing_paths_return_none() {
        let hier = hier8();
        let tree: ExtendedQuadTree<u32> = ExtendedQuadTree::new(&hier);
        let code = GridCode::for_cell(&hier, LayerCell::new(0, 7, 7));
        assert_eq!(tree.get(&code), None);
    }

    #[test]
    fn stores_all_cells_of_all_layers() {
        let hier = hier8();
        let mut tree = ExtendedQuadTree::new(&hier);
        let mut n = 0usize;
        for layer in 0..hier.num_layers() {
            let (rows, cols) = hier.layer_dims(layer);
            for r in 0..rows {
                for c in 0..cols {
                    // by code and by coordinates alike
                    let cell = LayerCell::new(layer, r, c);
                    if n.is_multiple_of(2) {
                        tree.insert(&GridCode::for_cell(&hier, cell), (layer, r, c));
                    } else {
                        tree.insert_cell(cell, (layer, r, c));
                    }
                    n += 1;
                }
            }
        }
        assert_eq!(tree.len(), n);
        for layer in 0..hier.num_layers() {
            let (rows, cols) = hier.layer_dims(layer);
            for r in 0..rows {
                for c in 0..cols {
                    let code = GridCode::for_cell(&hier, LayerCell::new(layer, r, c));
                    assert_eq!(tree.get(&code), Some(&(layer, r, c)));
                }
            }
        }
        assert_eq!(
            tree.insert_cell(LayerCell::new(2, 1, 1), (0, 0, 0)),
            Some((2, 1, 1))
        );
        assert_eq!(tree.len(), n);
    }

    #[test]
    fn multi_grid_leaves() {
        let hier = hier8();
        let mut tree = ExtendedQuadTree::new(&hier);
        let multi = GridCode::for_multi_grid(&hier, 0, &[(0, 0), (0, 1)]).unwrap();
        tree.insert(&multi, 7);
        assert_eq!(tree.get(&multi), Some(&7));
        // the corresponding singles are separate entries
        let single = GridCode::for_cell(&hier, LayerCell::new(0, 0, 0));
        assert_eq!(tree.get(&single), None);
    }

    #[test]
    #[should_panic(expected = "must terminate the path")]
    fn multi_code_mid_path_rejected() {
        let mut tree = ExtendedQuadTree::new(&hier8());
        let bad = GridCode {
            root: (0, 0),
            path: vec![ChildCode::E, ChildCode::A],
        };
        tree.insert(&bad, 0);
    }

    #[test]
    fn for_each_visits_everything() {
        let hier = hier8();
        let mut tree = ExtendedQuadTree::new(&hier);
        let codes = [
            GridCode::for_cell(&hier, LayerCell::new(0, 0, 0)),
            GridCode::for_cell(&hier, LayerCell::new(1, 1, 1)),
            GridCode::for_multi_grid(&hier, 0, &[(2, 2), (2, 3)]).unwrap(),
        ];
        for (i, code) in codes.iter().enumerate() {
            tree.insert(code, i);
        }
        let mut seen = Vec::new();
        tree.for_each(|code, &v| seen.push((code.clone(), v)));
        assert_eq!(seen.len(), 3);
        for (code, v) in &seen {
            assert_eq!(tree.get(code), Some(v));
        }
    }

    #[test]
    fn lookup_depth_is_logarithmic() {
        // structural property: path length for an atomic cell equals
        // log_K(coarsest scale) = num_layers - 1
        let hier = Hierarchy::new(128, 128, 2, 6).unwrap();
        let code = GridCode::for_cell(&hier, LayerCell::new(0, 77, 19));
        assert_eq!(code.depth(), 5);
    }

    /// The boxed-node tree the implicit layout replaced, kept as the
    /// oracle: a map from each root to a node with twelve optional boxed
    /// children, which follows a code one child at a time.
    struct BoxedTree<T> {
        roots: HashMap<(usize, usize), Node<T>>,
        len: usize,
    }

    struct Node<T> {
        payload: Option<T>,
        children: Vec<Option<Box<Node<T>>>>,
    }

    impl<T> Node<T> {
        fn new() -> Self {
            Node {
                payload: None,
                children: (0..12).map(|_| None).collect(),
            }
        }
    }

    impl<T> BoxedTree<T> {
        fn new() -> Self {
            BoxedTree {
                roots: HashMap::new(),
                len: 0,
            }
        }

        fn insert(&mut self, code: &GridCode, payload: T) -> Option<T> {
            let mut node = self.roots.entry(code.root).or_insert_with(Node::new);
            for &c in &code.path {
                node = node.children[c.index()].get_or_insert_with(|| Box::new(Node::new()));
            }
            let old = node.payload.replace(payload);
            if old.is_none() {
                self.len += 1;
            }
            old
        }

        fn get(&self, code: &GridCode) -> Option<&T> {
            let mut node = self.roots.get(&code.root)?;
            for &c in &code.path {
                node = node.children[c.index()].as_deref()?;
            }
            node.payload.as_ref()
        }

        fn for_each(&self, mut f: impl FnMut(&GridCode, &T)) {
            fn walk<T>(node: &Node<T>, code: &mut GridCode, f: &mut impl FnMut(&GridCode, &T)) {
                if let Some(p) = &node.payload {
                    f(code, p);
                }
                for (i, child) in node.children.iter().enumerate() {
                    if let Some(child) = child {
                        code.path.push(ChildCode::ALL[i]);
                        walk(child, code, f);
                        code.path.pop();
                    }
                }
            }
            let mut roots: Vec<_> = self.roots.iter().collect();
            roots.sort_by_key(|(k, _)| **k);
            for (&root, node) in roots {
                let mut code = GridCode {
                    root,
                    path: Vec::new(),
                };
                walk(node, &mut code, &mut f);
            }
        }
    }

    /// Every code of `hier`: each cell of each layer, then the eight
    /// multi-grids under each parent.
    fn all_codes(hier: &Hierarchy) -> Vec<GridCode> {
        let mut codes = Vec::new();
        for layer in 0..hier.num_layers() {
            let (rows, cols) = hier.layer_dims(layer);
            for r in 0..rows {
                for c in 0..cols {
                    codes.push(GridCode::for_cell(hier, LayerCell::new(layer, r, c)));
                    if layer > 0 {
                        for m in &ChildCode::ALL[4..] {
                            let cells: Vec<_> = m
                                .members()
                                .iter()
                                .map(|&(dr, dc)| (2 * r + dr, 2 * c + dc))
                                .collect();
                            codes.push(GridCode::for_multi_grid(hier, layer - 1, &cells).unwrap());
                        }
                    }
                }
            }
        }
        codes
    }

    fn entries<T: Clone>(walk: impl FnOnce(&mut dyn FnMut(&GridCode, &T))) -> Vec<(GridCode, T)> {
        let mut seen = Vec::new();
        walk(&mut |code, v| seen.push((code.clone(), v.clone())));
        seen
    }

    #[test]
    fn member_table_matches_the_coding_rule() {
        for (bits, &code) in CODE_BY_MEMBERS.iter().enumerate() {
            let members: Vec<(usize, usize)> = (0..4)
                .filter(|b| bits & (1 << b) != 0)
                .map(|b| (b / 2, b % 2))
                .collect();
            assert_eq!(
                code,
                ChildCode::from_members(&members),
                "member set {bits:04b}"
            );
        }
    }

    #[test]
    fn slots_cover_every_grid_and_multi_grid() {
        // 21,840 cells + 8 multi-grids under each of 5,456 parents
        let paper = Hierarchy::new(128, 128, 2, 6).unwrap();
        let codes = all_codes(&paper);
        assert_eq!(slot_count(&paper), 65_488);
        assert_eq!(codes.len(), 65_488);
        let mut full = ExtendedQuadTree::new(&paper);
        for (i, code) in codes.iter().enumerate() {
            assert!(full.insert(code, i).is_none(), "{code} shares a slot");
        }
        assert_eq!(full.len(), 65_488);
        // without a 2x2 window: one slot per grid, none for multi-grids
        let window3 = Hierarchy::new(9, 9, 3, 3).unwrap();
        assert_eq!(slot_count(&window3), 81 + 9 + 1);
        let mut tree = ExtendedQuadTree::new(&window3);
        let cells: Vec<LayerCell> = (0..3)
            .flat_map(|layer| {
                let (rows, cols) = window3.layer_dims(layer);
                (0..rows * cols).map(move |i| LayerCell::new(layer, i / cols, i % cols))
            })
            .collect();
        for (i, &cell) in cells.iter().enumerate() {
            assert!(
                tree.insert_cell(cell, i).is_none(),
                "{cell:?} shares a slot"
            );
        }
        assert_eq!(tree.len(), 91);
        for (i, &cell) in cells.iter().enumerate() {
            assert_eq!(tree.get_cell(cell), Some(&i));
        }
        assert_eq!(tree.get_cell(LayerCell::new(1, 3, 0)), None);
        assert_eq!(tree.get_multi(0, &[(0, 0), (0, 1)]), None);
        assert_eq!(tree.get_multi(0, &[(0, 0), (0, 0)]), None);
    }

    #[test]
    #[should_panic(expected = "for_each walks K = 2 trees only")]
    fn for_each_refuses_a_window3_tree() {
        let tree: ExtendedQuadTree<u8> =
            ExtendedQuadTree::new(&Hierarchy::new(9, 9, 3, 3).unwrap());
        tree.for_each(|_, _| {});
    }

    #[test]
    #[should_panic(expected = "outside the tree's hierarchy")]
    fn code_below_the_atomic_layer_rejected() {
        let hier = hier8();
        let mut tree = ExtendedQuadTree::new(&hier);
        let mut deep = GridCode::for_cell(&hier, LayerCell::new(0, 0, 0));
        deep.path.push(ChildCode::E);
        tree.insert(&deep, 0);
    }

    #[test]
    #[should_panic(expected = "outside the tree's hierarchy")]
    fn root_outside_the_coarsest_layer_rejected() {
        let mut tree = ExtendedQuadTree::new(&hier8());
        let stray = GridCode {
            root: (1, 0),
            path: Vec::new(),
        };
        tree.insert(&stray, 0);
    }

    /// Every cell and every set of cells `get_multi` can be asked about
    /// near each parent: all 16 subsets of its children in two orders,
    /// repeats, and pairs and triples reaching into a neighbouring parent.
    fn probe_sets(hier: &Hierarchy, layer: usize) -> Vec<Vec<(usize, usize)>> {
        let (rows, cols) = hier.layer_dims(layer);
        let mut sets = Vec::new();
        for pr in 0..rows.div_ceil(2) {
            for pc in 0..cols.div_ceil(2) {
                let kids: Vec<(usize, usize)> =
                    (0..4).map(|b| (2 * pr + b / 2, 2 * pc + b % 2)).collect();
                for bits in 0..16usize {
                    let set: Vec<_> = (0..4)
                        .filter(|b| bits & (1 << b) != 0)
                        .map(|b| kids[b])
                        .collect();
                    sets.push(set.iter().rev().copied().collect());
                    sets.push(set);
                }
                for &a in &kids {
                    sets.push(vec![a, a]);
                    for &b in &kids {
                        sets.push(vec![a, b, a]);
                    }
                }
                let (r, c) = kids[3];
                sets.push(vec![(r, c), (r, c + 1)]);
                sets.push(vec![(r, c), (r + 1, c)]);
                sets.push(vec![kids[1], (r - 1, c + 1), (r, c + 1)]);
                sets.push(vec![kids[0], kids[1], (r, c + 1)]);
            }
        }
        sets
    }

    fn assert_lookups_match_codes(hier: &Hierarchy, tree: &ExtendedQuadTree<usize>) {
        let top = hier.num_layers() - 1;
        for layer in 0..=top {
            let (rows, cols) = hier.layer_dims(layer);
            for r in 0..rows + 1 {
                for c in 0..cols + 1 {
                    let cell = LayerCell::new(layer, r, c);
                    assert_eq!(
                        tree.get_cell(cell),
                        tree.get(&GridCode::for_cell(hier, cell)),
                        "cell {cell:?}"
                    );
                }
            }
            for cells in probe_sets(hier, layer) {
                let by_code = GridCode::for_multi_grid(hier, layer, &cells);
                assert_eq!(
                    tree.get_multi(layer, &cells),
                    by_code.and_then(|code| tree.get(&code)),
                    "layer {layer} cells {cells:?}"
                );
            }
        }
    }

    /// A decomposed group's bitmap lookup reads what `get_multi` reads
    /// for the group's cells, over random masks of several densities.
    fn assert_group_lookups_match_cells(hier: &Hierarchy, tree: &ExtendedQuadTree<usize>) {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut found = 0;
        for sixteenths in [2, 5, 8, 11, 14] {
            for _ in 0..20 {
                let bits = (0..hier.h() * hier.w())
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        state >> 60 < sixteenths
                    })
                    .collect();
                for g in decompose(hier, &Mask::from_bits(hier.h(), hier.w(), bits)) {
                    let cells: Vec<(usize, usize)> = g.cells().collect();
                    let want = (cells.len() >= 2)
                        .then(|| tree.get_multi(g.layer(), &cells))
                        .flatten();
                    assert_eq!(tree.get_multi_group(&g), want, "{g:?}");
                    found += want.is_some() as usize;
                }
            }
        }
        assert!(found > 0 || tree.is_empty(), "no multi-grid was looked up");
    }

    #[test]
    fn coordinate_lookups_match_code_lookups() {
        for hier in [Hierarchy::new(8, 8, 2, 4), Hierarchy::new(16, 16, 2, 5)] {
            let hier = hier.unwrap();
            let codes = all_codes(&hier);
            let mut full = ExtendedQuadTree::new(&hier);
            let mut sparse = ExtendedQuadTree::new(&hier);
            for (i, code) in codes.iter().enumerate() {
                full.insert(code, i);
                if i % 3 != 1 {
                    sparse.insert(code, i);
                }
            }
            assert_eq!(full.len(), codes.len());
            assert_lookups_match_codes(&hier, &full);
            assert_lookups_match_codes(&hier, &sparse);
            assert_group_lookups_match_cells(&hier, &full);
            assert_group_lookups_match_cells(&hier, &sparse);
        }
        // a K = 3 tree has no multi-grid slots, so no group finds one
        let hier = Hierarchy::new(27, 27, 3, 3).unwrap();
        assert_group_lookups_match_cells(&hier, &ExtendedQuadTree::new(&hier));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random insert, replace and lookup sequences, singles at
        /// every depth and multi-grids E-L, leave the implicit tree and the
        /// boxed oracle with equal lookups, length and visiting order.
        #[test]
        fn implicit_layout_matches_boxed_oracle(
            shape in 0usize..3,
            ops in prop::collection::vec((0usize..4, 0usize..1024, 0u32..1000), 1..120),
        ) {
            let hier = [
                Hierarchy::new(8, 8, 2, 4),
                Hierarchy::new(16, 8, 2, 3),
                Hierarchy::new(16, 16, 2, 5),
            ][shape]
                .clone()
                .unwrap();
            let codes = all_codes(&hier);
            let mut tree = ExtendedQuadTree::new(&hier);
            let mut oracle = BoxedTree::new();
            for &(kind, pick, value) in &ops {
                let code = &codes[pick % codes.len()];
                if kind == 3 {
                    // a lookup between writes
                    prop_assert_eq!(tree.get(code), oracle.get(code));
                } else {
                    prop_assert_eq!(tree.insert(code, value), oracle.insert(code, value));
                }
            }
            prop_assert_eq!(tree.len(), oracle.len);
            for code in &codes {
                prop_assert_eq!(tree.get(code), oracle.get(code));
            }
            prop_assert_eq!(
                entries(|f| tree.for_each(f)),
                entries(|f| oracle.for_each(f))
            );
        }
    }
}
