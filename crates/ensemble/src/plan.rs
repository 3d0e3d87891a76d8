//! The ensemble plan: a disjoint `(model, Combination)` assignment per
//! hierarchical grid.
//!
//! A [`ModelCombination`] is the ensemble generalization of
//! [`o4a_core::combination::Combination`]: each signed term additionally
//! names the member model whose prediction snapshot it reads from.
//! Evaluation reduces through the same
//! [`o4a_core::combination::signed_sum`] /
//! [`o4a_core::combination::term_value`] chain as
//! [`o4a_core::combination::Combination::evaluate`], so a combination whose
//! terms all name one member evaluates bit-identically to that member's
//! own.

use o4a_core::combination::{signed_sum, term_value, Combination, SearchStrategy};
use o4a_core::frames::FrameView;
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_grid::quadtree::ExtendedQuadTree;
use std::collections::HashMap;

/// A signed grid term read from one member model's snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelTerm {
    /// Index into the plan's member list.
    pub model: u16,
    /// The grid cell.
    pub cell: LayerCell,
    /// `+1` or `-1`.
    pub sign: i8,
}

/// A signed set of `(model, grid)` terms whose signed sum covers a target
/// area (the ensemble form of Eq. 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelCombination {
    /// Signed terms, evaluation order.
    pub terms: Vec<ModelTerm>,
}

impl ModelCombination {
    /// The trivial combination: the grid itself under one model.
    pub fn single(model: u16, cell: LayerCell) -> Self {
        ModelCombination {
            terms: vec![ModelTerm {
                model,
                cell,
                sign: 1,
            }],
        }
    }

    /// Tags every term of a single-model combination with `model`,
    /// preserving term order (and hence the accumulation order).
    pub fn from_combination(model: u16, comb: &Combination) -> Self {
        ModelCombination {
            terms: comb
                .terms
                .iter()
                .map(|t| ModelTerm {
                    model,
                    cell: t.cell,
                    sign: t.sign,
                })
                .collect(),
        }
    }

    /// Concatenates combinations (set union of their terms).
    pub fn union_of(parts: &[&ModelCombination]) -> Self {
        let mut terms = Vec::with_capacity(parts.iter().map(|p| p.terms.len()).sum());
        for p in parts {
            terms.extend_from_slice(&p.terms);
        }
        ModelCombination { terms }
    }

    /// `base - negated`: appends the negated combination with flipped
    /// signs.
    pub fn subtract(base: &ModelCombination, negated: &ModelCombination) -> Self {
        let mut terms = base.terms.clone();
        terms.extend(negated.terms.iter().map(|t| ModelTerm {
            model: t.model,
            cell: t.cell,
            sign: -t.sign,
        }));
        ModelCombination { terms }
    }

    /// Whether any term is negative.
    pub fn uses_subtraction(&self) -> bool {
        self.terms.iter().any(|t| t.sign < 0)
    }

    /// Sorted, deduplicated member indices the combination reads from.
    pub fn models_used(&self) -> Vec<u16> {
        let mut m: Vec<u16> = self.terms.iter().map(|t| t.model).collect();
        m.sort_unstable();
        m.dedup();
        m
    }

    /// Evaluates the combination against one snapshot view per member
    /// (`views[m]` is member `m`'s published frames). Reduces through the
    /// workspace's single signed-accumulation chain.
    pub fn evaluate(&self, hier: &Hierarchy, views: &[FrameView<'_>]) -> f32 {
        signed_sum(
            self.terms
                .iter()
                .map(|t| term_value(hier, &views[t.model as usize], t.cell, t.sign)),
        )
    }

    /// Net atomic coverage as a signed count per atomic cell — the model
    /// axis does not change areal coverage, so the Eq. 5 invariant (the
    /// signed sum equals the target region's assignment) still applies.
    pub fn signed_coverage(&self, hier: &Hierarchy) -> Vec<i32> {
        let mut cov = vec![0i32; hier.h() * hier.w()];
        for t in &self.terms {
            let (r0, c0, r1, c1) = hier.atomic_rect(t.cell);
            for r in r0..r1 {
                for c in c0..c1 {
                    cov[r * hier.w() + c] += t.sign as i32;
                }
            }
        }
        cov
    }
}

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

impl PlanReport {
    /// Validation RMSE equivalent of a cost total (`cost` summed over
    /// `samples` windows of `total_cells` grids).
    pub fn cost_rmse(cost: f64, samples: usize, total_cells: usize) -> f64 {
        (cost / (samples.max(1) * total_cells.max(1)) as f64).sqrt()
    }
}

/// The planned ensemble: every hierarchical grid (and multi-grid, for
/// `K = 2`) mapped to its cheapest [`ModelCombination`], plus the member
/// list the term model indices refer to.
#[derive(Debug, Clone)]
pub struct EnsemblePlan {
    /// The hierarchy the plan covers.
    pub hier: Hierarchy,
    /// Member model names; `ModelTerm::model` indexes this list.
    pub members: Vec<String>,
    /// The strategy the planner ran with.
    pub strategy: SearchStrategy,
    /// Plan revision, bumped by the offline planner on every re-plan and
    /// reported through the serving layer's STATS verb.
    pub revision: u32,
    /// Chosen combination per grid code (`K = 2` hierarchies).
    pub tree: ExtendedQuadTree<ModelCombination>,
    /// Fallback single-grid store for `K != 2` hierarchies.
    pub flat: HashMap<LayerCell, ModelCombination>,
    /// Planning statistics (build-time; not persisted except `plan_cost`).
    pub report: PlanReport,
}

impl EnsemblePlan {
    /// Looks up the planned combination of a single grid.
    #[inline]
    pub fn for_cell(&self, cell: LayerCell) -> Option<&ModelCombination> {
        if self.hier.k() == 2 {
            self.tree.get_cell(cell)
        } else {
            self.flat.get(&cell)
        }
    }

    /// Looks up the planned combination of a multi-grid (same-parent 2–3
    /// cell group at `layer`). Always `None` for `K != 2` hierarchies,
    /// whose tree has no slots.
    #[inline]
    pub fn for_multi(&self, layer: usize, cells: &[(usize, usize)]) -> Option<&ModelCombination> {
        self.tree.get_multi(layer, cells)
    }

    /// Number of stored combinations.
    pub fn len(&self) -> usize {
        self.tree.len() + self.flat.len()
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
        let mut count = |comb: &ModelCombination| {
            for m in comb.models_used() {
                counts[m as usize] += 1;
            }
        };
        self.tree.for_each(|code, comb| {
            // multi codes terminate paths; single grids never end in one
            let is_multi = code.path.last().is_some_and(|c| c.is_multi());
            if !is_multi {
                count(comb);
            }
        });
        for comb in self.flat.values() {
            count(comb);
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier4() -> Hierarchy {
        Hierarchy::new(4, 4, 2, 3).unwrap()
    }

    #[test]
    fn evaluate_reads_the_right_member_snapshot() {
        let hier = hier4();
        // member 0: all twos at layer 0; member 1: all tens at layer 1
        let m0 = vec![vec![2.0f32; 16], vec![-1.0; 4], vec![0.0; 1]];
        let m1 = vec![vec![9.0f32; 16], vec![10.0; 4], vec![0.0; 1]];
        let views = [FrameView::F32(&m0), FrameView::F32(&m1)];
        let comb = ModelCombination {
            terms: vec![
                ModelTerm {
                    model: 1,
                    cell: LayerCell::new(1, 0, 0),
                    sign: 1,
                },
                ModelTerm {
                    model: 0,
                    cell: LayerCell::new(0, 0, 0),
                    sign: -1,
                },
            ],
        };
        assert_eq!(comb.evaluate(&hier, &views), 8.0);
        assert!(comb.uses_subtraction());
        assert_eq!(comb.models_used(), vec![0, 1]);
    }

    #[test]
    fn single_member_matches_core_combination_bitwise() {
        // the satellite-1 contract: one accumulation chain means a
        // model-tagged copy of a Combination evaluates bit-identically
        let hier = hier4();
        let frames = vec![
            (0..16).map(|v| 0.1 + v as f32 * 0.3).collect::<Vec<f32>>(),
            (0..4).map(|v| -2.5 + v as f32 * 1.7).collect(),
            vec![13.75],
        ];
        let comb = Combination {
            terms: vec![
                o4a_core::combination::SignedCell {
                    cell: LayerCell::new(2, 0, 0),
                    sign: 1,
                },
                o4a_core::combination::SignedCell {
                    cell: LayerCell::new(0, 3, 2),
                    sign: -1,
                },
                o4a_core::combination::SignedCell {
                    cell: LayerCell::new(1, 1, 1),
                    sign: 1,
                },
            ],
        };
        let tagged = ModelCombination::from_combination(0, &comb);
        let view = FrameView::F32(&frames);
        assert_eq!(
            tagged
                .evaluate(&hier, std::slice::from_ref(&view))
                .to_bits(),
            comb.evaluate(&hier, &frames).to_bits()
        );
    }

    #[test]
    fn coverage_ignores_the_model_axis() {
        let hier = hier4();
        let a = ModelCombination::single(0, LayerCell::new(1, 0, 0));
        let b = ModelCombination::single(1, LayerCell::new(1, 0, 0));
        assert_eq!(a.signed_coverage(&hier), b.signed_coverage(&hier));
        let sub =
            ModelCombination::subtract(&a, &ModelCombination::single(1, LayerCell::new(0, 0, 0)));
        let cov = sub.signed_coverage(&hier);
        assert_eq!(cov[0], 0); // 2x2 block minus its first atomic cell
        assert_eq!(cov[1], 1);
    }
}
