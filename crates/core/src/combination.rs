//! Optimal combination search (Sec. IV-C).
//!
//! Given per-scale predictions and ground truths on a validation window,
//! the search decides, for every hierarchical grid, whether to predict it
//! *directly* at its own scale or to *compose* it from its children's
//! optimal combinations — a bottom-up dynamic program justified by
//! Lemma 4.2 (the optimal combination of a layer-`l` grid only needs the
//! optimal combinations of layer `l-1`). Theorem 4.1 extends the result to
//! arbitrary regions via hierarchical decomposition.
//!
//! With [`SearchStrategy::UnionSubtraction`], multi-grids (2–3 sibling
//! cells, coded `E`–`L`) additionally consider *subtracting the
//! complementary area from the parent grid* (Eq. 14) — never worse than
//! union alone (Theorem 4.3).

use o4a_grid::coding::GridCode;
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_grid::quadtree::ExtendedQuadTree;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A signed grid term of a combination: `+1` union, `-1` subtraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignedCell {
    /// The grid cell.
    pub cell: LayerCell,
    /// `+1` or `-1`.
    pub sign: i8,
}

/// A combination Λ: a signed set of hierarchical grids whose signed sum
/// covers a target area (Eq. 5).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Combination {
    /// Signed terms.
    pub terms: Vec<SignedCell>,
}

impl Combination {
    /// The trivial combination: the grid itself.
    pub fn single(cell: LayerCell) -> Self {
        Combination {
            terms: vec![SignedCell { cell, sign: 1 }],
        }
    }

    /// Concatenates combinations (set union of their terms).
    pub fn union_of(parts: &[&Combination]) -> Self {
        let mut terms = Vec::with_capacity(parts.iter().map(|p| p.terms.len()).sum());
        for p in parts {
            terms.extend_from_slice(&p.terms);
        }
        Combination { terms }
    }

    /// `base - negated`: appends the negated combination with flipped signs.
    pub fn subtract(base: &Combination, negated: &Combination) -> Self {
        let mut terms = base.terms.clone();
        terms.extend(negated.terms.iter().map(|t| SignedCell {
            cell: t.cell,
            sign: -t.sign,
        }));
        Combination { terms }
    }

    /// Whether any term is negative (a subtraction combination).
    pub fn uses_subtraction(&self) -> bool {
        self.terms.iter().any(|t| t.sign < 0)
    }

    /// Evaluates the combination against per-layer flat frames
    /// (`frames[layer]` has `h_l * w_l` values), reducing through
    /// [`signed_sum`] over [`term_value`] contributions — the chain the
    /// ensemble planner's `ModelCombination::evaluate` shares, so the two
    /// stay bit-identical.
    pub fn evaluate(&self, hier: &Hierarchy, frames: &[Vec<f32>]) -> f32 {
        let view = crate::frames::FrameView::F32(frames);
        signed_sum(
            self.terms
                .iter()
                .map(|t| term_value(hier, &view, t.cell, t.sign)),
        )
    }

    /// The net atomic coverage of the combination as a signed count per
    /// atomic cell (used to verify Eq. 5: the signed sum must equal the
    /// region's assignment matrix).
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

/// One signed term's contribution to a combination's value: the cell's
/// snapshot entry (widened per read for f16 storage) with its sign
/// applied. Every aggregation path reads terms through this helper so a
/// term contributes the same f32 everywhere.
#[inline]
pub fn term_value(
    hier: &Hierarchy,
    frames: &crate::frames::FrameView<'_>,
    cell: LayerCell,
    sign: i8,
) -> f32 {
    let (_, lw) = hier.layer_dims(cell.layer);
    sign as f32 * frames.value(cell.layer, cell.row * lw + cell.col)
}

/// The combination-evaluation chain the offline search and the ensemble
/// planner share: a plain left-to-right f32 sum of term contributions, in
/// iteration order. (The online query path folds explicitly from `0.0`;
/// see [`crate::compiled`].)
#[inline]
pub fn signed_sum(values: impl Iterator<Item = f32>) -> f32 {
    values.sum()
}

/// Which combination candidates the offline search considers (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// No search: every decomposed grid predicts at its own scale.
    Direct,
    /// Bottom-up union DP over single grids.
    Union,
    /// Union DP plus subtraction candidates for multi-grids.
    UnionSubtraction,
}

impl SearchStrategy {
    /// Display name matching Table III.
    pub fn name(self) -> &'static str {
        match self {
            SearchStrategy::Direct => "Direct",
            SearchStrategy::Union => "Union",
            SearchStrategy::UnionSubtraction => "Union & Subtraction",
        }
    }
}

/// Aggregate statistics of a search run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchReport {
    /// Single grids that kept their own scale.
    pub direct_cells: usize,
    /// Single grids that composed from children.
    pub composed_cells: usize,
    /// Multi-grids whose optimum uses subtraction.
    pub subtraction_multis: usize,
    /// Total multi-grid entries.
    pub multi_entries: usize,
}

/// The searched index: an extended quad-tree of optimal combinations plus
/// the report.
///
/// The grid coding rule (and hence the quad-tree and multi-grid entries)
/// is defined for `K = 2` hierarchies; for other merging windows the
/// single-grid combinations live in a flat map instead and multi-grid
/// lookups return `None` (the server then unions the member cells'
/// combinations, as documented in Sec. IV-C2 of the paper, which only
/// defines the coding rule for a window of 2).
#[derive(Debug, Clone)]
pub struct CombinationIndex {
    /// The hierarchy the index covers.
    pub hier: Hierarchy,
    /// Optimal combination per grid code (`K = 2` hierarchies).
    pub tree: ExtendedQuadTree<Combination>,
    /// Fallback single-grid store for `K != 2` hierarchies.
    pub flat: HashMap<LayerCell, Combination>,
    /// The strategy that produced the index.
    pub strategy: SearchStrategy,
    /// Search statistics.
    pub report: SearchReport,
}

impl CombinationIndex {
    /// Looks up the optimal combination of a single grid.
    pub fn for_cell(&self, cell: LayerCell) -> Option<&Combination> {
        if self.hier.k() == 2 {
            self.tree.get_cell(cell)
        } else {
            self.flat.get(&cell)
        }
    }

    /// Looks up the optimal combination of a multi-grid (same-parent 2–3
    /// cell group at `layer`). Always `None` for `K != 2` hierarchies,
    /// whose tree has no slots.
    pub fn for_multi(&self, layer: usize, cells: &[(usize, usize)]) -> Option<&Combination> {
        self.tree.get_multi(layer, cells)
    }

    /// Number of stored combinations.
    pub fn len(&self) -> usize {
        self.tree.len() + self.flat.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Sum of squared errors between two sample series.
fn sse(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum()
}

/// Adds `src` into `dst` elementwise.
fn add_into(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Runs the optimal combination search.
///
/// * `preds[layer][sample]` — predicted flat frame of that layer for each
///   validation sample,
/// * `truths[layer][sample]` — matching ground-truth frames.
///
/// Returns the index over all single grids of every layer and (for `K = 2`
/// hierarchies) all multi-grids.
pub fn search_optimal_combinations(
    hier: &Hierarchy,
    preds: &[Vec<Vec<f32>>],
    truths: &[Vec<Vec<f32>>],
    strategy: SearchStrategy,
) -> CombinationIndex {
    search_optimal_combinations_margin(hier, preds, truths, strategy, 0.0)
}

/// [`search_optimal_combinations`] with a *selection margin*: an
/// alternative combination replaces the direct one only when it improves
/// the search-window SSE by more than `margin` (relative). The paper's
/// formulation is the plain argmin (`margin = 0`); a small margin is the
/// one-standard-error rule against noise when the search window is short
/// or the per-scale predictions are highly correlated (as they are for a
/// shared-backbone model) — without it, near-tied candidates flip on noise
/// and slightly degrade out-of-sample queries.
pub fn search_optimal_combinations_margin(
    hier: &Hierarchy,
    preds: &[Vec<Vec<f32>>],
    truths: &[Vec<Vec<f32>>],
    strategy: SearchStrategy,
    margin: f64,
) -> CombinationIndex {
    assert!((0.0..1.0).contains(&margin), "margin must be in [0, 1)");
    let n_layers = hier.num_layers();
    assert_eq!(preds.len(), n_layers, "one prediction series per layer");
    assert_eq!(truths.len(), n_layers, "one truth series per layer");
    let n_samples = preds[0].len();
    assert!(n_samples > 0, "search needs at least one validation sample");

    let mut tree = ExtendedQuadTree::new(hier);
    let mut flat: HashMap<LayerCell, Combination> = HashMap::new();
    let mut report = SearchReport::default();
    let coded = hier.k() == 2;

    // per-cell optimal series/combination of the previous layer
    // (cell-major: opt_series[cell][sample])
    let mut prev_series: Vec<Vec<f32>> = Vec::new();
    let mut prev_combs: Vec<Combination> = Vec::new();

    for layer in 0..n_layers {
        let (rows, cols) = hier.layer_dims(layer);
        let cells = rows * cols;
        let mut series: Vec<Vec<f32>> = Vec::with_capacity(cells);
        let mut combs: Vec<Combination> = Vec::with_capacity(cells);
        for r in 0..rows {
            for c in 0..cols {
                let cell = LayerCell::new(layer, r, c);
                let ci = r * cols + c;
                // direct candidate
                let direct: Vec<f32> = (0..n_samples).map(|s| preds[layer][s][ci]).collect();
                let truth: Vec<f32> = (0..n_samples).map(|s| truths[layer][s][ci]).collect();
                let (chosen_series, chosen_comb) =
                    if layer == 0 || strategy == SearchStrategy::Direct {
                        (direct, Combination::single(cell))
                    } else {
                        // composed candidate: sum of children's optima
                        let (prev_cols,) = (hier.layer_dims(layer - 1).1,);
                        let mut child_sum = vec![0.0f32; n_samples];
                        let mut child_parts: Vec<&Combination> = Vec::with_capacity(4);
                        for ch in hier.children(cell) {
                            let chi = ch.row * prev_cols + ch.col;
                            add_into(&mut child_sum, &prev_series[chi]);
                            child_parts.push(&prev_combs[chi]);
                        }
                        let sse_direct = sse(&direct, &truth);
                        let sse_children = sse(&child_sum, &truth);
                        if sse_children >= (1.0 - margin) * sse_direct {
                            report.direct_cells += 1;
                            (direct, Combination::single(cell))
                        } else {
                            report.composed_cells += 1;
                            (child_sum, Combination::union_of(&child_parts))
                        }
                    };
                if coded {
                    tree.insert(&GridCode::for_cell(hier, cell), chosen_comb.clone());
                } else {
                    flat.insert(cell, chosen_comb.clone());
                }
                series.push(chosen_series);
                combs.push(chosen_comb);
            }
        }

        // multi-grid entries for the previous layer (codes need K = 2 and a
        // parent, i.e. this layer)
        if layer >= 1 && coded {
            index_multi_grids(
                hier,
                layer - 1,
                &prev_series,
                &prev_combs,
                &series,
                &combs,
                truths,
                strategy,
                margin,
                &mut tree,
                &mut report,
            );
        }

        prev_series = series;
        prev_combs = combs;
    }

    CombinationIndex {
        hier: hier.clone(),
        tree,
        flat,
        strategy,
        report,
    }
}

/// Inserts optimal combinations for every multi-grid of `layer` (whose
/// parents live at `layer + 1`).
#[allow(clippy::too_many_arguments)]
fn index_multi_grids(
    hier: &Hierarchy,
    layer: usize,
    child_series: &[Vec<f32>],
    child_combs: &[Combination],
    parent_series: &[Vec<f32>],
    parent_combs: &[Combination],
    truths: &[Vec<Vec<f32>>],
    strategy: SearchStrategy,
    margin: f64,
    tree: &mut ExtendedQuadTree<Combination>,
    report: &mut SearchReport,
) {
    use o4a_grid::coding::ChildCode;
    let n_samples = child_series.first().map_or(0, |s| s.len());
    let (_, child_cols) = hier.layer_dims(layer);
    let (prows, pcols) = hier.layer_dims(layer + 1);
    for pr in 0..prows {
        for pc in 0..pcols {
            let parent_idx = pr * pcols + pc;
            for code in ChildCode::ALL.into_iter().filter(|c| c.is_multi()) {
                let members: Vec<(usize, usize)> = code
                    .members()
                    .iter()
                    .map(|&(dr, dc)| (pr * 2 + dr, pc * 2 + dc))
                    .collect();
                let grid_code = GridCode::for_multi_grid(hier, layer, &members)
                    .expect("members form a valid multi-grid");
                // truth series = sum of member truths
                let mut truth = vec![0.0f32; n_samples];
                let mut union_series = vec![0.0f32; n_samples];
                let mut union_parts: Vec<&Combination> = Vec::with_capacity(3);
                for &(r, c) in &members {
                    let ci = r * child_cols + c;
                    for s in 0..n_samples {
                        truth[s] += truths[layer][s][ci];
                    }
                    add_into(&mut union_series, &child_series[ci]);
                    union_parts.push(&child_combs[ci]);
                }
                let union_comb = Combination::union_of(&union_parts);
                report.multi_entries += 1;
                let chosen = if strategy == SearchStrategy::UnionSubtraction {
                    // subtraction candidate: parent optimum minus the
                    // complementary children's optima (Eq. 14)
                    let mut comp_series = vec![0.0f32; n_samples];
                    let mut comp_parts: Vec<&Combination> = Vec::new();
                    let member_set: std::collections::HashSet<(usize, usize)> =
                        members.iter().copied().collect();
                    for ch in hier.children(LayerCell::new(layer + 1, pr, pc)) {
                        if !member_set.contains(&(ch.row, ch.col)) {
                            let ci = ch.row * child_cols + ch.col;
                            add_into(&mut comp_series, &child_series[ci]);
                            comp_parts.push(&child_combs[ci]);
                        }
                    }
                    let sub_series: Vec<f32> = (0..n_samples)
                        .map(|s| parent_series[parent_idx][s] - comp_series[s])
                        .collect();
                    if sse(&sub_series, &truth) < (1.0 - margin) * sse(&union_series, &truth) {
                        report.subtraction_multis += 1;
                        let comp = Combination::union_of(&comp_parts);
                        Combination::subtract(&parent_combs[parent_idx], &comp)
                    } else {
                        union_comb
                    }
                } else {
                    union_comb
                };
                tree.insert(&grid_code, chosen);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-layer sample series: `[layer][sample][cell]`.
    type PyramidSeries = Vec<Vec<Vec<f32>>>;

    fn hier4() -> Hierarchy {
        Hierarchy::new(4, 4, 2, 3).unwrap()
    }

    /// Builds `(preds, truths)` where the given layers are "good" (exact)
    /// and others carry per-cell noise.
    fn make_series(
        hier: &Hierarchy,
        samples: usize,
        good_layers: &[usize],
        noise: f32,
    ) -> (PyramidSeries, PyramidSeries) {
        let mut truths = Vec::new();
        let mut preds = Vec::new();
        for layer in 0..hier.num_layers() {
            let (r, c) = hier.layer_dims(layer);
            let cells = r * c;
            let scale = hier.scale(layer);
            let mut t_layer = Vec::with_capacity(samples);
            let mut p_layer = Vec::with_capacity(samples);
            for s in 0..samples {
                // ground truth: each atomic cell contributes (s + 1), so a
                // layer cell's truth is scale^2 * (s + 1)
                let truth = vec![(scale * scale) as f32 * (s + 1) as f32; cells];
                let pred: Vec<f32> = truth
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        if good_layers.contains(&layer) {
                            v
                        } else {
                            v + noise * ((i + s + 1) as f32)
                        }
                    })
                    .collect();
                t_layer.push(truth);
                p_layer.push(pred);
            }
            truths.push(t_layer);
            preds.push(p_layer);
        }
        (preds, truths)
    }

    #[test]
    fn direct_strategy_keeps_every_grid() {
        let hier = hier4();
        let (preds, truths) = make_series(&hier, 3, &[0], 1.0);
        let index = search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::Direct);
        for layer in 0..3 {
            let (r, c) = hier.layer_dims(layer);
            for i in 0..r {
                for j in 0..c {
                    let comb = index.for_cell(LayerCell::new(layer, i, j)).unwrap();
                    assert_eq!(comb.terms.len(), 1);
                    assert_eq!(comb.terms[0].cell, LayerCell::new(layer, i, j));
                }
            }
        }
    }

    #[test]
    fn union_prefers_accurate_children() {
        // fine layer exact, coarse layers noisy -> coarse cells compose
        let hier = hier4();
        let (preds, truths) = make_series(&hier, 4, &[0], 5.0);
        let index = search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::Union);
        let top = index.for_cell(LayerCell::new(2, 0, 0)).unwrap();
        assert!(top.terms.len() > 1, "noisy coarse grid should compose");
        // every term should be an atomic cell (the only exact layer)
        assert!(top.terms.iter().all(|t| t.cell.layer == 0));
        assert_eq!(index.report.composed_cells, 4 + 1); // 4 layer-1 cells + 1 layer-2 cell
    }

    #[test]
    fn union_prefers_accurate_parent() {
        // coarse layers exact, fine noisy -> every coarse grid stays direct
        let hier = hier4();
        let (preds, truths) = make_series(&hier, 4, &[1, 2], 5.0);
        let index = search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::Union);
        let top = index.for_cell(LayerCell::new(2, 0, 0)).unwrap();
        assert_eq!(top.terms.len(), 1);
        assert_eq!(index.report.composed_cells, 0);
    }

    #[test]
    fn coverage_invariant_eq5() {
        // whatever the search picks, the signed coverage of a cell's
        // combination must equal the cell's own coverage
        let hier = hier4();
        let (preds, truths) = make_series(&hier, 4, &[1], 3.0);
        for strategy in [
            SearchStrategy::Direct,
            SearchStrategy::Union,
            SearchStrategy::UnionSubtraction,
        ] {
            let index = search_optimal_combinations(&hier, &preds, &truths, strategy);
            for layer in 0..3 {
                let (r, c) = hier.layer_dims(layer);
                for i in 0..r {
                    for j in 0..c {
                        let cell = LayerCell::new(layer, i, j);
                        let comb = index.for_cell(cell).unwrap();
                        let cov = comb.signed_coverage(&hier);
                        let direct = Combination::single(cell).signed_coverage(&hier);
                        assert_eq!(cov, direct, "coverage broken at {cell:?} ({strategy:?})");
                    }
                }
            }
        }
    }

    #[test]
    fn multi_grid_coverage_invariant() {
        let hier = hier4();
        let (preds, truths) = make_series(&hier, 4, &[1], 3.0);
        let index =
            search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::UnionSubtraction);
        // multi-grid L at layer 0 under parent (0,0): members B, C, D
        let members = [(0, 1), (1, 0), (1, 1)];
        let comb = index.for_multi(0, &members).unwrap();
        let cov = comb.signed_coverage(&hier);
        let mut expect = vec![0i32; 16];
        for &(r, c) in &members {
            expect[r * 4 + c] = 1;
        }
        assert_eq!(cov, expect);
    }

    #[test]
    fn subtraction_wins_when_parent_and_complement_accurate() {
        // parent layer exact, children noisy -> for a 3-cell multi-grid,
        // parent - complement beats union of three noisy children only if
        // the complement is also accurate; make one child exact.
        let hier = hier4();
        let samples = 4;
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for layer in 0..3 {
            let (r, c) = hier.layer_dims(layer);
            let cells = r * c;
            let scale = hier.scale(layer);
            let mut tl = Vec::new();
            let mut pl = Vec::new();
            for s in 0..samples {
                let truth = vec![(scale * scale) as f32 * (s + 1) as f32; cells];
                let pred: Vec<f32> = truth
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| match layer {
                        0 => {
                            // child A (index 0 of parent (0,0)) is exact;
                            // B, C, D noisy
                            if i == 0 {
                                v
                            } else {
                                v + 4.0 * (i + s) as f32 + 3.0
                            }
                        }
                        _ => v, // coarse layers exact
                    })
                    .collect();
                tl.push(truth);
                pl.push(pred);
            }
            truths.push(tl);
            preds.push(pl);
        }
        let index =
            search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::UnionSubtraction);
        // multi-grid of B, C, D (complement A, which is exact): subtraction
        // parent - A should win over the noisy union
        let comb = index.for_multi(0, &[(0, 1), (1, 0), (1, 1)]).unwrap();
        assert!(
            comb.uses_subtraction(),
            "expected subtraction combination, got {comb:?}"
        );
        assert!(index.report.subtraction_multis > 0);
        // and Theorem 4.3: compare against the pure-union index — the
        // chosen SSE can only be <= (checked implicitly by the win above)
        let union_index =
            search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::Union);
        let union_comb = union_index.for_multi(0, &[(0, 1), (1, 0), (1, 1)]).unwrap();
        assert!(!union_comb.uses_subtraction());
    }

    #[test]
    fn evaluate_applies_signs() {
        let hier = hier4();
        let comb = Combination {
            terms: vec![
                SignedCell {
                    cell: LayerCell::new(1, 0, 0),
                    sign: 1,
                },
                SignedCell {
                    cell: LayerCell::new(0, 0, 0),
                    sign: -1,
                },
            ],
        };
        let frames = vec![
            vec![2.0; 16], // layer 0
            vec![10.0; 4], // layer 1
            vec![40.0; 1], // layer 2
        ];
        assert_eq!(comb.evaluate(&hier, &frames), 8.0);
    }

    #[test]
    fn margin_zero_matches_plain_search() {
        let hier = hier4();
        let (preds, truths) = make_series(&hier, 4, &[0], 5.0);
        let plain = search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::Union);
        let zero =
            search_optimal_combinations_margin(&hier, &preds, &truths, SearchStrategy::Union, 0.0);
        assert_eq!(plain.report, zero.report);
        plain.tree.for_each(|code, comb| {
            assert_eq!(zero.tree.get(code), Some(comb));
        });
    }

    #[test]
    fn huge_margin_forces_direct_everywhere() {
        // every layer carries noise, so no composition can beat direct by
        // the (absurd) 99% margin — an exact fine layer would still win,
        // which is the correct behaviour
        let hier = hier4();
        let (preds, truths) = make_series(&hier, 4, &[], 3.0);
        let index = search_optimal_combinations_margin(
            &hier,
            &preds,
            &truths,
            SearchStrategy::UnionSubtraction,
            0.99,
        );
        assert_eq!(index.report.composed_cells, 0);
        // the helper's deterministic errors admit a few *genuine*
        // subtraction cancellations that survive any margin; the margin
        // must still prune most of the margin-0 picks
        let plain =
            search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::UnionSubtraction);
        assert!(
            index.report.subtraction_multis < plain.report.subtraction_multis,
            "margin must prune subtraction picks: {} vs {}",
            index.report.subtraction_multis,
            plain.report.subtraction_multis
        );
    }

    #[test]
    fn margin_keeps_decisive_wins() {
        // the fine layer is exact and coarse layers carry noise with
        // magnitude 5 — composing wins by far more than 10%
        let hier = hier4();
        let (preds, truths) = make_series(&hier, 4, &[0], 5.0);
        let index =
            search_optimal_combinations_margin(&hier, &preds, &truths, SearchStrategy::Union, 0.10);
        let top = index.for_cell(LayerCell::new(2, 0, 0)).unwrap();
        assert!(
            top.terms.len() > 1,
            "decisive composition must survive the margin"
        );
    }

    #[test]
    #[should_panic(expected = "margin must be in")]
    fn invalid_margin_rejected() {
        let hier = hier4();
        let (preds, truths) = make_series(&hier, 2, &[0], 1.0);
        search_optimal_combinations_margin(&hier, &preds, &truths, SearchStrategy::Union, 1.5);
    }

    #[test]
    fn window3_search_uses_flat_store() {
        // regression: K != 2 hierarchies must not touch the coding rule
        // (Fig. 14's 3x3 and 4x4 variants crashed here before)
        let hier = Hierarchy::new(9, 9, 3, 3).unwrap();
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for layer in 0..3 {
            let (r, c) = hier.layer_dims(layer);
            let scale = hier.scale(layer);
            let mut tl = Vec::new();
            let mut pl = Vec::new();
            for s in 0..3usize {
                let truth = vec![(scale * scale * (s + 1)) as f32; r * c];
                let pred: Vec<f32> = truth
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        if layer == 0 {
                            v
                        } else {
                            v + (i + s) as f32 + 1.0
                        }
                    })
                    .collect();
                tl.push(truth);
                pl.push(pred);
            }
            truths.push(tl);
            preds.push(pl);
        }
        let index = search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::Union);
        assert!(index.tree.is_empty());
        assert_eq!(index.flat.len(), 81 + 9 + 1);
        // noisy coarse layers compose from the exact atomic layer
        let top = index.for_cell(LayerCell::new(2, 0, 0)).unwrap();
        assert!(top.terms.len() > 1);
        assert!(top.terms.iter().all(|t| t.cell.layer == 0));
        // multi lookups are None for K != 2
        assert!(index.for_multi(0, &[(0, 0), (0, 1)]).is_none());
        assert_eq!(index.len(), 91);
    }

    #[test]
    fn report_counts_consistent() {
        let hier = hier4();
        let (preds, truths) = make_series(&hier, 3, &[0], 2.0);
        let index = search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::Union);
        // layers 1 and 2 have 4 + 1 = 5 searched cells
        assert_eq!(index.report.direct_cells + index.report.composed_cells, 5);
        // multi entries: 8 per parent; parents = layer-1 cells (4) for
        // layer-0 multis + 1 layer-2 parent for layer-1 multis
        assert_eq!(index.report.multi_entries, 8 * 5);
    }
}
