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
//!
//! [`combination_dp`] is that DP, written once for the search and the
//! ensemble planner (`o4a_ensemble::plan_ensemble`). They differ only in
//! the [`Primaries`] they pass: the search's primary for a grid is the
//! grid's own prediction and it has none for a multi-grid, while the
//! planner's are the best member optima. Every comparison goes through
//! [`beats`], so a NaN SSE never wins over a number.
//!
//! A [`Combination`] is the one representation of Λ in the workspace: each
//! [`Term`] also names the member store it reads, so the same type holds a
//! single-model index entry (every term reads member 0) and a per-region
//! ensemble plan entry (`o4a_ensemble`), and both evaluate through
//! [`Combination::evaluate`] and [`term_value`].

use crate::frames::FrameView;
use o4a_grid::coding::{ChildCode, GridCode};
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_grid::quadtree::ExtendedQuadTree;
use serde::{Deserialize, Serialize};

/// A signed grid term of a combination: `sign ×` member `member`'s
/// prediction at `cell`, where `+1` is union and `-1` subtraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Term {
    /// The grid cell.
    pub cell: LayerCell,
    /// `+1` or `-1`.
    pub sign: i8,
    /// The member store read (always `0` in a single-model index).
    pub member: u16,
}

/// A combination Λ: a signed set of hierarchical grids whose signed sum
/// covers a target area (Eq. 5).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Combination {
    /// Signed terms, in evaluation order.
    pub terms: Vec<Term>,
}

impl Combination {
    /// The trivial combination: the grid itself, read from member 0.
    pub fn single(cell: LayerCell) -> Self {
        Combination {
            terms: vec![Term {
                cell,
                sign: 1,
                member: 0,
            }],
        }
    }

    /// The combination with every term read from `member`, in the same
    /// order (and hence with the same accumulation order).
    pub fn for_member(&self, member: u16) -> Self {
        Combination {
            terms: self.terms.iter().map(|&t| Term { member, ..t }).collect(),
        }
    }

    /// `base - negated`: appends the negated combination with flipped signs.
    pub fn subtract(base: &Combination, negated: &Combination) -> Self {
        let mut terms = base.terms.clone();
        terms.extend(negated.terms.iter().map(|&t| Term { sign: -t.sign, ..t }));
        Combination { terms }
    }

    /// Whether any term is negative (a subtraction combination).
    pub fn uses_subtraction(&self) -> bool {
        self.terms.iter().any(|t| t.sign < 0)
    }

    /// Sorted, deduplicated members the combination reads from.
    pub fn members_used(&self) -> Vec<u16> {
        let mut m: Vec<u16> = self.terms.iter().map(|t| t.member).collect();
        m.sort_unstable();
        m.dedup();
        m
    }

    /// Evaluates the combination against one snapshot view per member
    /// (`views[m]` holds member `m`'s per-layer frames): a plain
    /// left-to-right f32 sum of [`term_value`] contributions, in term
    /// order. The offline search, the ensemble planner and the experiments
    /// evaluate through it; the online query path folds from `0.0` instead
    /// (see [`crate::server::interpret`]).
    pub fn evaluate(&self, hier: &Hierarchy, views: &[FrameView<'_>]) -> f32 {
        self.terms
            .iter()
            .map(|t| term_value(hier, &views[t.member as usize], t.cell, t.sign))
            .sum()
    }

    /// The net atomic coverage of the combination as a signed count per
    /// atomic cell (used to verify Eq. 5: the signed sum must equal the
    /// region's assignment matrix). The member axis does not change areal
    /// coverage.
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
pub fn term_value(hier: &Hierarchy, frames: &FrameView<'_>, cell: LayerCell, sign: i8) -> f32 {
    let (_, lw) = hier.layer_dims(cell.layer);
    sign as f32 * frames.value(cell.layer, cell.row * lw + cell.col)
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
/// The grid coding rule (and hence multi-grid entries) is defined for
/// `K = 2` hierarchies only, as in Sec. IV-C2 of the paper. For other
/// merging windows the tree holds the single grids alone, multi-grid
/// lookups return `None`, and the server unions the member cells'
/// combinations.
#[derive(Debug, Clone)]
pub struct CombinationIndex {
    /// The hierarchy the index covers.
    pub hier: Hierarchy,
    /// Optimal combination per grid and, for `K = 2`, per multi-grid.
    pub tree: ExtendedQuadTree<Combination>,
    /// The strategy that produced the index.
    pub strategy: SearchStrategy,
    /// Search statistics.
    pub report: SearchReport,
}

impl CombinationIndex {
    /// Looks up the optimal combination of a single grid.
    #[inline]
    pub fn for_cell(&self, cell: LayerCell) -> Option<&Combination> {
        self.tree.get_cell(cell)
    }

    /// Looks up the optimal combination of a multi-grid (same-parent 2–3
    /// cell group at `layer`). Always `None` for `K != 2` hierarchies,
    /// which have no multi-grids.
    #[inline]
    pub fn for_multi(&self, layer: usize, cells: &[(usize, usize)]) -> Option<&Combination> {
        self.tree.get_multi(layer, cells)
    }

    /// Number of stored combinations.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Sum of squared errors between two sample series.
pub fn sse(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum()
}

/// Whether a candidate with SSE `alt` replaces one with SSE `base` under
/// the relative selection `margin`: `alt < (1 - margin) * base`, except
/// that a NaN never replaces a number and any number replaces a NaN.
pub fn beats(alt: f64, base: f64, margin: f64) -> bool {
    !alt.is_nan() && (base.is_nan() || alt < (1.0 - margin) * base)
}

/// Asserts that `pyramid[layer][sample]` holds `n_samples` frames on every
/// layer of `hier`, each `hier.layer_len(layer)` cells long, naming `what`
/// and the layer on a mismatch.
fn assert_pyramid(hier: &Hierarchy, pyramid: &[Vec<Vec<f32>>], n_samples: usize, what: &str) {
    assert_eq!(
        pyramid.len(),
        hier.num_layers(),
        "one {what} series per layer"
    );
    for (layer, frames) in pyramid.iter().enumerate() {
        assert_eq!(
            frames.len(),
            n_samples,
            "{what} sample count at layer {layer}"
        );
        let cells = hier.layer_len(layer);
        for frame in frames {
            assert_eq!(frame.len(), cells, "{what} frame length at layer {layer}");
        }
    }
}

/// One candidate answer for a grid: its value on every search sample, the
/// combination that yields it, and its SSE against the grid's truth.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The value per search sample.
    pub series: Vec<f32>,
    /// The combination whose value `series` holds.
    pub comb: Combination,
    /// `sse(&series, truth)`.
    pub sse: f64,
}

impl Candidate {
    /// Scores `series` against the grid's `truth`.
    fn new(series: Vec<f32>, comb: Combination, truth: &[f32]) -> Self {
        let sse = sse(&series, truth);
        Candidate { series, comb, sse }
    }
}

/// The union of `parts`: their series summed per sample from zero, in
/// order, and their terms concatenated.
fn union<'a>(parts: impl IntoIterator<Item = &'a Candidate>, n: usize) -> (Vec<f32>, Combination) {
    let mut series = vec![0.0f32; n];
    let mut terms = Vec::new();
    for p in parts {
        for (s, &x) in series.iter_mut().zip(&p.series) {
            *s += x;
        }
        terms.extend_from_slice(&p.comb.terms);
    }
    (series, Combination { terms })
}

/// What [`combination_dp`] asks of its caller and tells it, grid by grid.
/// The search supplies each grid's own prediction and no multi-grid
/// primary; the ensemble planner supplies the best member optimum of
/// both.
pub trait Primaries {
    /// The primary candidate of single grid `cell`, scored against `truth`.
    fn cell(&mut self, cell: LayerCell, truth: &[f32]) -> Candidate;
    /// The primary candidate of the multi-grid of `members` (cells of
    /// `layer`), scored against `truth`, if the caller has one.
    fn multi(
        &mut self,
        layer: usize,
        members: &[(usize, usize)],
        truth: &[f32],
    ) -> Option<Candidate> {
        let _ = (layer, members, truth);
        None
    }
    /// Single grid `cell` with this primary resolved to `chosen`: the
    /// primary itself or the union of the children's optima.
    fn chose(&mut self, cell: LayerCell, primary: &Candidate, chosen: &Candidate) {
        let _ = (cell, primary, chosen);
    }
}

/// The bottom-up combination DP (Lemma 4.2) over the validation window
/// `truths[layer][sample]`, shared by the search and the ensemble planner.
///
/// Layer by layer, each grid's primary candidate from `caller` competes
/// with the union of its children's optima, except on the atomic layer
/// and under [`SearchStrategy::Direct`]. For `K = 2`, each multi-grid of
/// the layer below then takes the union of its members' optima; under
/// [`SearchStrategy::UnionSubtraction`], the parent's optimum minus its
/// other children's optima (Eq. 14) if that [`beats`] the union; and the
/// caller's primary, if any, unless the result beats it. An alternative
/// replaces what it competes with only when it [`beats`] it by `margin`.
///
/// Returns the tree of optima and the count of its choices: the grids
/// that kept their primary over the children's union (`direct_cells`) or
/// took the union (`composed_cells`), neither counting the atomic layer
/// or [`SearchStrategy::Direct`], and the multi-grid entries, of which
/// `subtraction_multis` subtract.
pub fn combination_dp(
    hier: &Hierarchy,
    truths: &[Vec<Vec<f32>>],
    strategy: SearchStrategy,
    margin: f64,
    caller: &mut impl Primaries,
) -> (ExtendedQuadTree<Combination>, SearchReport) {
    assert!((0.0..1.0).contains(&margin), "margin must be in [0, 1)");
    let n = truths.first().map_or(0, Vec::len);
    assert!(n > 0, "search needs at least one validation sample");
    assert_pyramid(hier, truths, n, "truth");
    let mut tree = ExtendedQuadTree::new(hier);
    let mut report = SearchReport::default();
    // the previous layer's optima, cell-major
    let mut prev: Vec<Candidate> = Vec::new();
    for layer in 0..hier.num_layers() {
        let (rows, cols) = hier.layer_dims(layer);
        let prev_cols = cols * hier.k();
        let mut opt = Vec::with_capacity(rows * cols);
        for ci in 0..rows * cols {
            let cell = LayerCell::new(layer, ci / cols, ci % cols);
            let truth: Vec<f32> = truths[layer].iter().map(|f| f[ci]).collect();
            let primary = caller.cell(cell, &truth);
            let mut fused = None;
            if layer > 0 && strategy != SearchStrategy::Direct {
                let parts = hier.children(cell).into_iter();
                let (series, comb) = union(parts.map(|ch| &prev[ch.row * prev_cols + ch.col]), n);
                let children = Candidate::new(series, comb, &truth);
                if beats(children.sse, primary.sse, margin) {
                    report.composed_cells += 1;
                    fused = Some(children);
                } else {
                    report.direct_cells += 1;
                }
            }
            caller.chose(cell, &primary, fused.as_ref().unwrap_or(&primary));
            let chosen = fused.unwrap_or(primary);
            tree.insert_cell(cell, chosen.comb.clone());
            opt.push(chosen);
        }
        // the multi-grids of the previous layer, under this layer's grids
        if layer > 0 && hier.k() == 2 {
            for (pi, parent) in opt.iter().enumerate() {
                let at = |&(dr, dc): &(usize, usize)| (2 * (pi / cols) + dr, 2 * (pi % cols) + dc);
                let child = |&(r, c): &(usize, usize)| &prev[r * prev_cols + c];
                for code in ChildCode::ALL.into_iter().filter(|c| c.is_multi()) {
                    let members: Vec<(usize, usize)> = code.members().iter().map(at).collect();
                    let truth: Vec<f32> = truths[layer - 1]
                        .iter()
                        .map(|f| members.iter().map(|&(r, c)| f[r * prev_cols + c]).sum())
                        .collect();
                    let (series, comb) = union(members.iter().map(child), n);
                    let mut best = Candidate::new(series, comb, &truth);
                    // Eq. 14: the parent's optimum minus its other children's
                    if strategy == SearchStrategy::UnionSubtraction {
                        let others = [(0, 0), (0, 1), (1, 0), (1, 1)]
                            .iter()
                            .filter(|p| !code.members().contains(p))
                            .map(at);
                        let (rest, rest_comb) = union(others.map(|rc| child(&rc)), n);
                        let diff = parent.series.iter().zip(&rest).map(|(p, r)| p - r);
                        let comb = Combination::subtract(&parent.comb, &rest_comb);
                        let sub = Candidate::new(diff.collect(), comb, &truth);
                        if beats(sub.sse, best.sse, margin) {
                            best = sub;
                        }
                    }
                    if let Some(primary) = caller.multi(layer - 1, &members, &truth) {
                        if !beats(best.sse, primary.sse, margin) {
                            best = primary;
                        }
                    }
                    report.multi_entries += 1;
                    report.subtraction_multis += usize::from(best.comb.uses_subtraction());
                    let code = GridCode::for_multi_grid(hier, layer - 1, &members)
                        .expect("members form a valid multi-grid");
                    tree.insert(&code, best.comb);
                }
            }
        }
        prev = opt;
    }
    (tree, report)
}

/// The search's side of [`combination_dp`]: each grid's own prediction is
/// its primary.
struct OwnScale<'a> {
    hier: &'a Hierarchy,
    preds: &'a [Vec<Vec<f32>>],
}

impl Primaries for OwnScale<'_> {
    fn cell(&mut self, cell: LayerCell, truth: &[f32]) -> Candidate {
        let ci = cell.row * self.hier.layer_dims(cell.layer).1 + cell.col;
        let series = self.preds[cell.layer].iter().map(|f| f[ci]).collect();
        Candidate::new(series, Combination::single(cell), truth)
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
    let n = truths.first().map_or(0, Vec::len);
    assert_pyramid(hier, preds, n, "prediction");
    let (tree, report) = combination_dp(
        hier,
        truths,
        strategy,
        margin,
        &mut OwnScale { hier, preds },
    );
    CombinationIndex {
        hier: hier.clone(),
        tree,
        strategy,
        report,
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
        let comb = Combination::subtract(
            &Combination::single(LayerCell::new(1, 0, 0)),
            &Combination::single(LayerCell::new(0, 0, 0)),
        );
        let frames = vec![
            vec![2.0; 16], // layer 0
            vec![10.0; 4], // layer 1
            vec![40.0; 1], // layer 2
        ];
        assert_eq!(comb.evaluate(&hier, &[FrameView::F32(&frames)]), 8.0);
    }

    #[test]
    fn a_term_stays_32_bytes() {
        // the member rides in the padding after the sign, so naming it
        // costs the index no memory and the walk no extra loads
        assert_eq!(std::mem::size_of::<Term>(), 32);
    }

    #[test]
    fn evaluate_reads_the_right_member_snapshot() {
        let hier = hier4();
        // member 0: all twos at layer 0; member 1: all tens at layer 1
        let m0 = vec![vec![2.0f32; 16], vec![-1.0; 4], vec![0.0; 1]];
        let m1 = vec![vec![9.0f32; 16], vec![10.0; 4], vec![0.0; 1]];
        let views = [FrameView::F32(&m0), FrameView::F32(&m1)];
        let comb = Combination::subtract(
            &Combination::single(LayerCell::new(1, 0, 0)).for_member(1),
            &Combination::single(LayerCell::new(0, 0, 0)),
        );
        assert_eq!(comb.evaluate(&hier, &views), 8.0);
        assert!(comb.uses_subtraction());
        assert_eq!(comb.members_used(), vec![0, 1]);
    }

    #[test]
    fn coverage_ignores_the_model_axis() {
        let hier = hier4();
        let a = Combination::single(LayerCell::new(1, 0, 0));
        let b = a.for_member(1);
        assert_eq!(a.signed_coverage(&hier), b.signed_coverage(&hier));
        let sub = Combination::subtract(
            &a,
            &Combination::single(LayerCell::new(0, 0, 0)).for_member(1),
        );
        let cov = sub.signed_coverage(&hier);
        assert_eq!(cov[0], 0); // 2x2 block minus its first atomic cell
        assert_eq!(cov[1], 1);
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
    fn a_nan_child_never_beats_an_exact_parent() {
        // exact everywhere but atomic (0, 0), which is NaN on every
        // sample: its parent keeps its own exact prediction
        let hier = hier4();
        let (mut preds, truths) = make_series(&hier, 3, &[0, 1, 2], 0.0);
        for frame in &mut preds[0] {
            frame[0] = f32::NAN;
        }
        let sample0: Vec<Vec<f32>> = preds.iter().map(|layer| layer[0].clone()).collect();
        let cell = LayerCell::new(1, 0, 0);
        for strategy in [SearchStrategy::Union, SearchStrategy::UnionSubtraction] {
            let index = search_optimal_combinations(&hier, &preds, &truths, strategy);
            let comb = index.for_cell(cell).unwrap();
            assert_eq!(comb, &Combination::single(cell), "{strategy:?}");
            assert_eq!(comb.evaluate(&hier, &[FrameView::F32(&sample0)]), 4.0);
        }
    }

    /// A 16x16 hierarchy at max scale 16 and a 32x32 pyramid at the same
    /// max scale: both have five layers, but the pyramid's frames hold
    /// four times the hierarchy's cells.
    fn wide_pyramid() -> (Hierarchy, PyramidSeries, PyramidSeries) {
        let hier = Hierarchy::with_max_scale(16, 16, 2, 16).unwrap();
        let wide = Hierarchy::with_max_scale(32, 32, 2, 16).unwrap();
        assert_eq!(hier.num_layers(), wide.num_layers());
        let (preds, truths) = make_series(&wide, 2, &[0], 1.0);
        (hier, preds, truths)
    }

    #[test]
    #[should_panic(expected = "prediction frame length at layer 0")]
    fn a_wider_raster_is_rejected() {
        let (hier, preds, truths) = wide_pyramid();
        search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::Union);
    }

    #[test]
    #[should_panic(expected = "truth frame length at layer 0")]
    fn a_wider_truth_raster_is_rejected() {
        let (hier, _, truths) = wide_pyramid();
        let (preds, _) = make_series(&hier, 2, &[0], 1.0);
        search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::Union);
    }

    #[test]
    fn window3_search_uses_flat_store() {
        // regression: K != 2 hierarchies must not touch the coding rule
        // (Fig. 14's 3x3 and 4x4 variants crashed here before); the tree
        // holds one entry per grid and no multi-grids
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
        assert_eq!(index.tree.len(), 81 + 9 + 1);
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
