#![warn(missing_docs)]

//! # o4a-grid
//!
//! Hierarchical grids, rasterized regions, hierarchical decomposition and
//! the extended quad-tree index — the spatial substrate of One4All-ST.
//!
//! The paper's definitions map onto this crate as follows:
//!
//! * **Definition 1 (Hierarchical grids)** and **Definition 2 (Hierarchical
//!   structure)** → [`hierarchy::Hierarchy`]: an atomic `H x W` raster plus
//!   a pyramid of coarser layers produced by a `K x K` merging window.
//! * **Definition 4 (Rasterized region)** → [`mask::Mask`]: an assignment
//!   matrix over atomic grids, packed 64 cells to a word, with word-wise
//!   set operations, connected components and polygon rasterization
//!   ([`geometry`]).
//! * **Algorithm 1 (Hierarchical decomposition)** →
//!   [`decompose::decompose`]: coarse-to-fine matching of fully-covered
//!   grids, grouped into within-parent connected components, computed as
//!   a full-coverage pyramid over the packed words.
//! * **Grid coding rule (Sec. IV-C2, Fig. 11)** → [`coding`]: codes `A`-`D`
//!   for single child grids and `E`-`L` for 2- and 3-cell multi-grids.
//! * **Extended quad-tree (Sec. IV-C3, Fig. 12)** →
//!   [`quadtree::ExtendedQuadTree`]: twelve children per node (singles
//!   `A`-`D` recurse, multi-grids `E`-`L` are leaves), stored implicitly
//!   in one slot array laid out by layer, so a grid's or multi-grid's
//!   entry is found from its coordinates in `O(1)`.
//! * **Region query workloads (Sec. V-A3, Fig. 13)** → [`queries`]:
//!   hexagon tilings, road-segmentation partitions and census-tract-like
//!   irregular partitions with the paper's Task 1–4 target areas.

pub mod coding;
pub mod decompose;
pub mod geometry;
pub mod hierarchy;
pub mod mask;
pub mod quadtree;
pub mod queries;

pub use coding::{ChildCode, GridCode};
pub use decompose::{decompose, DecomposedGroup};
pub use hierarchy::{Hierarchy, LayerCell};
pub use mask::Mask;
pub use quadtree::ExtendedQuadTree;
