//! The extended quad-tree index (Sec. IV-C3, Fig. 12).
//!
//! A standard quad-tree node has four children (the single grids `A`–`D`);
//! the *extended* quad-tree allows up to twelve — the four singles plus the
//! eight multi-grids `E`–`L` — so optimal combinations of multi-grids can be
//! indexed alongside single grids. Multi-grid children are always leaves;
//! single children recurse.
//!
//! The tree is a forest with one root per coarsest-layer cell. Retrieval
//! walks the code path, giving `O(log(HW))` lookups versus `O(HW)` for a
//! linear table scan (timed by `o4a-bench`'s `fig17`).

use crate::coding::{ChildCode, GridCode};
use std::collections::HashMap;

/// A node of the extended quad-tree.
#[derive(Debug, Clone)]
struct Node<T> {
    payload: Option<T>,
    children: Vec<Option<Box<Node<T>>>>, // always length 12, lazily boxed
}

impl<T> Node<T> {
    fn new() -> Self {
        Node {
            payload: None,
            children: (0..12).map(|_| None).collect(),
        }
    }
}

/// An extended quad-tree mapping [`GridCode`] paths to payloads.
#[derive(Debug, Clone)]
pub struct ExtendedQuadTree<T> {
    roots: HashMap<(usize, usize), Node<T>>,
    len: usize,
}

impl<T> ExtendedQuadTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        ExtendedQuadTree {
            roots: HashMap::new(),
            len: 0,
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

    /// Inserts (or replaces) the payload at a code path. Returns the
    /// previous payload if one existed.
    ///
    /// # Panics
    /// Panics if a non-terminal path element is a multi code — multi-grids
    /// are leaves by construction.
    pub fn insert(&mut self, code: &GridCode, payload: T) -> Option<T> {
        let mut node = self.roots.entry(code.root).or_insert_with(Node::new);
        for (i, &c) in code.path.iter().enumerate() {
            assert!(
                c.is_single() || i + 1 == code.path.len(),
                "multi code {c} must terminate the path"
            );
            node = node.children[c.index()].get_or_insert_with(|| Box::new(Node::new()));
        }
        let old = node.payload.replace(payload);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Looks up the payload at a code path.
    pub fn get(&self, code: &GridCode) -> Option<&T> {
        let mut node = self.roots.get(&code.root)?;
        for &c in &code.path {
            node = node.children[c.index()].as_deref()?;
        }
        node.payload.as_ref()
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, code: &GridCode) -> Option<&mut T> {
        let mut node = self.roots.get_mut(&code.root)?;
        for &c in &code.path {
            node = node.children[c.index()].as_deref_mut()?;
        }
        node.payload.as_mut()
    }

    /// Whether a payload exists at the code path.
    pub fn contains(&self, code: &GridCode) -> bool {
        self.get(code).is_some()
    }

    /// Visits every stored `(code, payload)` pair in depth-first order.
    pub fn for_each(&self, mut f: impl FnMut(&GridCode, &T)) {
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

impl<T> Default for ExtendedQuadTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{Hierarchy, LayerCell};

    fn hier8() -> Hierarchy {
        Hierarchy::new(8, 8, 2, 4).unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let hier = hier8();
        let mut tree = ExtendedQuadTree::new();
        let code = GridCode::for_cell(&hier, LayerCell::new(1, 2, 3));
        assert!(tree.insert(&code, 42u32).is_none());
        assert_eq!(tree.get(&code), Some(&42));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn replace_returns_old() {
        let hier = hier8();
        let mut tree = ExtendedQuadTree::new();
        let code = GridCode::for_cell(&hier, LayerCell::new(0, 0, 0));
        tree.insert(&code, 1);
        assert_eq!(tree.insert(&code, 2), Some(1));
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.get(&code), Some(&2));
    }

    #[test]
    fn missing_paths_return_none() {
        let hier = hier8();
        let tree: ExtendedQuadTree<u32> = ExtendedQuadTree::new();
        let code = GridCode::for_cell(&hier, LayerCell::new(0, 7, 7));
        assert_eq!(tree.get(&code), None);
        assert!(!tree.contains(&code));
    }

    #[test]
    fn stores_all_cells_of_all_layers() {
        let hier = hier8();
        let mut tree = ExtendedQuadTree::new();
        let mut n = 0usize;
        for layer in 0..hier.num_layers() {
            let (rows, cols) = hier.layer_dims(layer);
            for r in 0..rows {
                for c in 0..cols {
                    let code = GridCode::for_cell(&hier, LayerCell::new(layer, r, c));
                    tree.insert(&code, (layer, r, c));
                    n += 1;
                }
            }
        }
        assert_eq!(tree.len(), n);
        // spot check retrieval
        let code = GridCode::for_cell(&hier, LayerCell::new(2, 1, 1));
        assert_eq!(tree.get(&code), Some(&(2, 1, 1)));
    }

    #[test]
    fn multi_grid_leaves() {
        let hier = hier8();
        let mut tree = ExtendedQuadTree::new();
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
        let mut tree = ExtendedQuadTree::new();
        let bad = GridCode {
            root: (0, 0),
            path: vec![ChildCode::E, ChildCode::A],
        };
        tree.insert(&bad, 0);
    }

    #[test]
    fn for_each_visits_everything() {
        let hier = hier8();
        let mut tree = ExtendedQuadTree::new();
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
}
