//! Hierarchical grids (Definitions 1 and 2 of the paper).
//!
//! An area of interest is partitioned into an atomic `H x W` raster
//! (Layer 0 here; Layer 1 in the paper's 1-based numbering). Each coarser
//! layer merges `K x K` neighbouring grids of the previous one, so Layer `l`
//! has cells of side `K^l` atomic grids. The *hierarchical structure* `P` is
//! the set of scales `{1, K, K^2, ...}`.

use serde::{Deserialize, Serialize};

/// The largest merging window: a `K x K` block must fit one `u64`.
const MAX_K: usize = 8;

/// A cell within a specific layer of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerCell {
    /// Layer index: 0 is the atomic raster, `num_layers() - 1` the coarsest.
    pub layer: usize,
    /// Row within the layer.
    pub row: usize,
    /// Column within the layer.
    pub col: usize,
}

impl LayerCell {
    /// Creates a layer cell.
    pub fn new(layer: usize, row: usize, col: usize) -> Self {
        LayerCell { layer, row, col }
    }
}

/// The hierarchical grid pyramid (Definition 1).
///
/// Invariants, checked at construction:
/// * `h` and `w` are divisible by `k^(layers-1)` so every layer tiles the
///   raster exactly (the paper zero-pads instead; we require divisibility
///   and let callers pad their data),
/// * `2 <= k <= 8`, so a `K x K` block's cells fit one 64-bit word (a
///   [`crate::DecomposedGroup`] is such a word), and `layers >= 1`,
/// * `h` and `w` fit in 32 bits.
///
/// ```
/// use o4a_grid::Hierarchy;
/// // the paper's configuration: 128x128 atomic grids, K = 2, P = {1,2,4,8,16,32}
/// let h = Hierarchy::new(128, 128, 2, 6).unwrap();
/// assert_eq!(h.scales(), vec![1, 2, 4, 8, 16, 32]);
/// assert_eq!(h.layer_dims(5), (4, 4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hierarchy {
    h: usize,
    w: usize,
    k: usize,
    layers: usize,
}

/// Errors for invalid hierarchy configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// `h` or `w` is not divisible by the coarsest scale.
    NotDivisible {
        /// Raster height.
        h: usize,
        /// Raster width.
        w: usize,
        /// Coarsest scale `k^(layers-1)`.
        coarsest: usize,
    },
    /// Invalid window size or layer count.
    BadConfig(String),
}

impl std::fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierarchyError::NotDivisible { h, w, coarsest } => write!(
                f,
                "raster {h}x{w} is not divisible by the coarsest scale {coarsest}"
            ),
            HierarchyError::BadConfig(msg) => write!(f, "bad hierarchy config: {msg}"),
        }
    }
}

impl std::error::Error for HierarchyError {}

impl Hierarchy {
    /// Creates a hierarchy over an `h x w` atomic raster with merging
    /// window `k` and `layers` layers (including the atomic one).
    pub fn new(h: usize, w: usize, k: usize, layers: usize) -> Result<Self, HierarchyError> {
        if !(2..=MAX_K).contains(&k) {
            return Err(HierarchyError::BadConfig(format!(
                "merging window must be in 2..={MAX_K}, got {k}"
            )));
        }
        if layers == 0 {
            return Err(HierarchyError::BadConfig("need at least one layer".into()));
        }
        if h == 0 || w == 0 {
            return Err(HierarchyError::BadConfig("raster must be non-empty".into()));
        }
        if u32::try_from(h.max(w)).is_err() {
            return Err(HierarchyError::BadConfig(format!(
                "raster {h}x{w} exceeds 32-bit coordinates"
            )));
        }
        let Some(coarsest) = k.checked_pow(layers as u32 - 1) else {
            return Err(HierarchyError::BadConfig(format!(
                "coarsest scale {k}^{} overflows",
                layers - 1
            )));
        };
        if !h.is_multiple_of(coarsest) || !w.is_multiple_of(coarsest) {
            return Err(HierarchyError::NotDivisible { h, w, coarsest });
        }
        Ok(Hierarchy { h, w, k, layers })
    }

    /// Builds the deepest hierarchy whose coarsest scale does not exceed
    /// `max_scale` and still divides the raster evenly.
    pub fn with_max_scale(
        h: usize,
        w: usize,
        k: usize,
        max_scale: usize,
    ) -> Result<Self, HierarchyError> {
        if k < 2 {
            return Err(HierarchyError::BadConfig(format!(
                "merging window must be >= 2, got {k}"
            )));
        }
        let mut layers = 1usize;
        let mut scale = k;
        while scale <= max_scale && h.is_multiple_of(scale) && w.is_multiple_of(scale) {
            layers += 1;
            scale *= k;
        }
        Hierarchy::new(h, w, k, layers)
    }

    /// Atomic raster height.
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }

    /// Atomic raster width.
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Merging window size `K`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of layers (including the atomic layer).
    #[inline]
    pub fn num_layers(&self) -> usize {
        self.layers
    }

    /// Scale `xi_l = K^l` of a layer (side length of its cells in atomic
    /// grids).
    #[inline]
    pub fn scale(&self, layer: usize) -> usize {
        debug_assert!(layer < self.layers);
        self.k.pow(layer as u32)
    }

    /// The hierarchical structure `P` — the set of all scales (Definition 2).
    pub fn scales(&self) -> Vec<usize> {
        (0..self.layers).map(|l| self.scale(l)).collect()
    }

    /// `(rows, cols)` of a layer.
    #[inline]
    pub fn layer_dims(&self, layer: usize) -> (usize, usize) {
        let s = self.scale(layer);
        (self.h / s, self.w / s)
    }

    /// Number of cells in a layer.
    #[inline]
    pub fn layer_len(&self, layer: usize) -> usize {
        let (r, c) = self.layer_dims(layer);
        r * c
    }

    /// Total number of cells across all layers.
    pub fn total_cells(&self) -> usize {
        (0..self.layers).map(|l| self.layer_len(l)).sum()
    }

    /// The parent cell (one layer coarser) of a cell.
    ///
    /// Returns `None` for cells of the coarsest layer.
    pub fn parent(&self, cell: LayerCell) -> Option<LayerCell> {
        if cell.layer + 1 >= self.layers {
            return None;
        }
        Some(LayerCell::new(
            cell.layer + 1,
            cell.row / self.k,
            cell.col / self.k,
        ))
    }

    /// The `K x K` children (one layer finer) of a cell, row-major.
    ///
    /// Returns an empty vector for atomic cells.
    pub fn children(&self, cell: LayerCell) -> Vec<LayerCell> {
        if cell.layer == 0 {
            return Vec::new();
        }
        let l = cell.layer - 1;
        let mut out = Vec::with_capacity(self.k * self.k);
        for dr in 0..self.k {
            for dc in 0..self.k {
                out.push(LayerCell::new(
                    l,
                    cell.row * self.k + dr,
                    cell.col * self.k + dc,
                ));
            }
        }
        out
    }

    /// The atomic-grid rectangle covered by a cell:
    /// `(row_start, col_start, row_end_exclusive, col_end_exclusive)`.
    pub fn atomic_rect(&self, cell: LayerCell) -> (usize, usize, usize, usize) {
        let s = self.scale(cell.layer);
        (
            cell.row * s,
            cell.col * s,
            (cell.row + 1) * s,
            (cell.col + 1) * s,
        )
    }

    /// The position of a cell within its parent: `(row % K, col % K)`.
    #[inline]
    pub fn position_in_parent(&self, cell: LayerCell) -> (usize, usize) {
        (cell.row % self.k, cell.col % self.k)
    }

    /// Whether two same-layer cells are 4-adjacent.
    pub fn adjacent(&self, a: LayerCell, b: LayerCell) -> bool {
        a.layer == b.layer
            && ((a.row == b.row && a.col.abs_diff(b.col) == 1)
                || (a.col == b.col && a.row.abs_diff(b.row) == 1))
    }

    /// Whether two same-layer cells share the same parent cell.
    pub fn same_parent(&self, a: LayerCell, b: LayerCell) -> bool {
        match (self.parent(a), self.parent(b)) {
            (Some(pa), Some(pb)) => pa == pb,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration() {
        let h = Hierarchy::new(128, 128, 2, 6).unwrap();
        assert_eq!(h.scales(), vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(h.layer_dims(0), (128, 128));
        assert_eq!(h.layer_dims(5), (4, 4));
        assert_eq!(
            h.total_cells(),
            128 * 128 + 64 * 64 + 32 * 32 + 16 * 16 + 8 * 8 + 4 * 4
        );
    }

    #[test]
    fn window3_structure() {
        // the 3x3 variant of Fig. 14: P = {1, 3, 9, 27}
        let h = Hierarchy::new(81, 81, 3, 4).unwrap();
        assert_eq!(h.scales(), vec![1, 3, 9, 27]);
    }

    #[test]
    fn rejects_indivisible() {
        assert!(matches!(
            Hierarchy::new(100, 100, 2, 6),
            Err(HierarchyError::NotDivisible { .. })
        ));
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(Hierarchy::new(8, 8, 1, 2).is_err());
        assert!(Hierarchy::new(8, 8, 2, 0).is_err());
        assert!(Hierarchy::new(0, 8, 2, 1).is_err());
    }

    #[test]
    fn window_is_at_most_eight() {
        let h = Hierarchy::new(64, 64, 8, 3).unwrap();
        assert_eq!(h.scales(), vec![1, 8, 64]);
        assert!(matches!(
            Hierarchy::new(81, 81, 9, 2),
            Err(HierarchyError::BadConfig(_))
        ));
        assert!(matches!(
            Hierarchy::with_max_scale(81, 81, 9, 81),
            Err(HierarchyError::BadConfig(_))
        ));
    }

    #[test]
    fn with_max_scale_stops_at_divisibility() {
        let h = Hierarchy::with_max_scale(96, 96, 2, 64).unwrap();
        // 96 = 2^5 * 3 so scales up to 32 divide evenly
        assert_eq!(h.scales(), vec![1, 2, 4, 8, 16, 32]);
    }

    #[test]
    fn parent_child_roundtrip() {
        let h = Hierarchy::new(16, 16, 2, 4).unwrap();
        let cell = LayerCell::new(1, 3, 5);
        let parent = h.parent(cell).unwrap();
        assert_eq!(parent, LayerCell::new(2, 1, 2));
        assert!(h.children(parent).contains(&cell));
        assert_eq!(h.children(parent).len(), 4);
    }

    #[test]
    fn coarsest_has_no_parent_atomic_no_children() {
        let h = Hierarchy::new(8, 8, 2, 3).unwrap();
        assert!(h.parent(LayerCell::new(2, 0, 0)).is_none());
        assert!(h.children(LayerCell::new(0, 0, 0)).is_empty());
    }

    #[test]
    fn atomic_rect_covers_scale() {
        let h = Hierarchy::new(16, 16, 2, 4).unwrap();
        let (r0, c0, r1, c1) = h.atomic_rect(LayerCell::new(2, 1, 2));
        assert_eq!((r0, c0, r1, c1), (4, 8, 8, 12));
    }

    #[test]
    fn adjacency_and_parenthood() {
        let h = Hierarchy::new(8, 8, 2, 3).unwrap();
        let a = LayerCell::new(0, 0, 0);
        let b = LayerCell::new(0, 0, 1);
        let c = LayerCell::new(0, 0, 2);
        assert!(h.adjacent(a, b));
        assert!(!h.adjacent(a, c));
        assert!(h.same_parent(a, b));
        assert!(!h.same_parent(b, c)); // col 1 and 2 fall in different parents
    }

    #[test]
    fn position_in_parent_quadrants() {
        let h = Hierarchy::new(8, 8, 2, 3).unwrap();
        assert_eq!(h.position_in_parent(LayerCell::new(0, 4, 6)), (0, 0));
        assert_eq!(h.position_in_parent(LayerCell::new(0, 4, 7)), (0, 1));
        assert_eq!(h.position_in_parent(LayerCell::new(0, 5, 6)), (1, 0));
        assert_eq!(h.position_in_parent(LayerCell::new(0, 5, 7)), (1, 1));
    }
}
