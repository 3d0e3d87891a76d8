//! The ensemble plan: a [`Combination`] per hierarchical grid whose terms
//! may read different members.
//!
//! A plan entry is the same [`Combination`] a single-model index stores;
//! each term's `member` names the member model whose prediction snapshot
//! it reads, and a single-model index is the plan whose terms all read
//! member 0. So a plan keeps its entries in the same
//! [`ExtendedQuadTree`] and evaluates them through the same
//! [`Combination::evaluate`]. What a plan adds is the member axis: the
//! member names, the revision and the [`PlanReport`].

use o4a_core::combination::{Combination, SearchStrategy};
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_grid::quadtree::ExtendedQuadTree;

/// Cost breakdown of a planning run — the ensemble analogue of
/// [`o4a_core::combination::SearchReport`], extended with the plan's total
/// validation cost and each member's single-model baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanReport {
    /// Per member: single grids served as that member's own direct
    /// prediction at the grid's scale.
    pub direct_cells: Vec<usize>,
    /// Per member: single grids that adopted the member's own *composed*
    /// optimal combination.
    pub delegated_cells: Vec<usize>,
    /// Single grids composed at the ensemble level from their children's
    /// optima (the pieces that may mix members).
    pub fused_cells: usize,
    /// Total multi-grid entries planned.
    pub multi_entries: usize,
    /// Multi-grid entries whose chosen combination uses subtraction.
    pub subtraction_multis: usize,
    /// Total chosen SSE over all single grids of all layers on the
    /// validation window — what the DP minimizes.
    pub plan_cost: f64,
    /// The same total under each member's own optimal single-model index;
    /// `plan_cost <= model_costs[m]` for every member (the candidate sets
    /// nest).
    pub model_costs: Vec<f64>,
}

/// The planned ensemble: every hierarchical grid (and multi-grid, for
/// `K = 2`) mapped to its cheapest [`Combination`], plus the member list
/// its terms' `member` indices refer to.
#[derive(Debug, Clone)]
pub struct EnsemblePlan {
    /// The hierarchy the plan covers.
    pub hier: Hierarchy,
    /// Member model names; a term's `member` indexes this list.
    pub members: Vec<String>,
    /// The strategy the planner ran with.
    pub strategy: SearchStrategy,
    /// Plan revision, bumped by the offline planner on every re-plan and
    /// reported through the serving layer's STATS verb.
    pub revision: u32,
    /// Chosen combination per grid and, for `K = 2`, per multi-grid.
    pub tree: ExtendedQuadTree<Combination>,
    /// Planning statistics (build-time; not persisted except `plan_cost`).
    pub report: PlanReport,
}

impl EnsemblePlan {
    /// Looks up the planned combination of a single grid.
    #[inline]
    pub fn for_cell(&self, cell: LayerCell) -> Option<&Combination> {
        self.tree.get_cell(cell)
    }

    /// Number of stored combinations.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per member: how many *single-grid* plan entries read at least one
    /// term from the member (a mixed-member entry counts for each member
    /// it uses). Exported as the `o4a_ensemble_plan_cells_*` gauges.
    pub fn cells_per_model(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.members.len()];
        for layer in 0..self.hier.num_layers() {
            let (rows, cols) = self.hier.layer_dims(layer);
            for i in 0..rows * cols {
                if let Some(comb) = self.for_cell(LayerCell::new(layer, i / cols, i % cols)) {
                    for m in comb.members_used() {
                        counts[m as usize] += 1;
                    }
                }
            }
        }
        counts
    }
}
