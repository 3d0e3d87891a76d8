//! The offline ensemble planner.
//!
//! [`profile_members`] runs every member model on a held-out validation
//! window and records its per-layer prediction pyramid plus atomic-layer
//! RMSE/MAPE. [`plan_ensemble`] then generalizes the paper's
//! optimal-combination DP (Sec. IV-C) with a *which model* axis:
//!
//! * **Primary candidates** of a grid are each member's own optimal
//!   combination from [`search_optimal_combinations_margin`] run on that
//!   member's pyramid — the best single-model answers. The baseline pick
//!   is the strict SSE minimum (ties break to the lowest member index, so
//!   planning is deterministic).
//! * **Alternative candidates** compose the grid from its children's
//!   *ensemble* optima, which may mix members. Like the base DP's margin
//!   rule, an alternative replaces the primary baseline only when
//!   `sse_alt < (1 - margin) * sse_primary` — so for any margin the plan's
//!   cost never exceeds any single member's own optimum (the primary
//!   candidate set contains every member), and with a single member the
//!   plan reduces exactly to that member's [`o4a_core::CombinationIndex`].
//!
//! Multi-grids (`K = 2`) get the same treatment: primaries are the member
//! indexes' multi optima; alternatives are the ensemble union of the
//! member cells' ensemble optima and, under
//! [`SearchStrategy::UnionSubtraction`], the ensemble parent optimum minus
//! the complementary children's ensemble optima (Eq. 14 with models).

use crate::plan::{EnsemblePlan, PlanReport};
use o4a_core::combination::{
    add_into, search_optimal_combinations_margin, sse, Combination, CombinationIndex,
    SearchStrategy,
};
use o4a_core::frames::FrameView;
use o4a_data::features::TemporalConfig;
use o4a_data::flow::FlowSeries;
use o4a_data::metrics::MetricAccumulator;
use o4a_grid::coding::{ChildCode, GridCode};
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_grid::quadtree::ExtendedQuadTree;
use o4a_models::multiscale::PyramidPredictor;

/// Planner knobs.
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions {
    /// Candidate set for both the per-member searches and the ensemble
    /// alternatives.
    pub strategy: SearchStrategy,
    /// Relative selection margin, shared with
    /// [`search_optimal_combinations_margin`].
    pub margin: f64,
    /// Revision stamped into the plan (reported via STATS).
    pub revision: u32,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            strategy: SearchStrategy::UnionSubtraction,
            margin: 0.0,
            revision: 1,
        }
    }
}

/// One member model's validation profile: its prediction pyramid on the
/// held-out window plus atomic-layer error metrics.
#[derive(Debug, Clone)]
pub struct MemberProfile {
    /// Member model name (persisted in the plan artifact).
    pub name: String,
    /// `preds[layer][sample][cell]` on the validation slots.
    pub preds: Vec<Vec<Vec<f32>>>,
    /// Atomic-layer RMSE over the validation slots.
    pub atomic_rmse: f64,
    /// Atomic-layer MAPE (threshold 1.0) over the validation slots.
    pub atomic_mape: f64,
}

/// Profiles every member on the validation slots: one
/// [`PyramidPredictor::predict_pyramid`] pass each, with atomic-layer
/// RMSE/MAPE accumulated the same way as
/// `o4a_models::predictor::evaluate_atomic`.
pub fn profile_members(
    members: &mut [&mut dyn PyramidPredictor],
    flow: &FlowSeries,
    cfg: &TemporalConfig,
    val_slots: &[usize],
) -> Vec<MemberProfile> {
    assert!(!val_slots.is_empty(), "profiling needs validation slots");
    members
        .iter_mut()
        .map(|m| {
            let preds = m.predict_pyramid(flow, cfg, val_slots);
            let mut acc = MetricAccumulator::new();
            for (s, &t) in val_slots.iter().enumerate() {
                acc.extend(&preds[0][s], flow.frame(t));
            }
            MemberProfile {
                name: m.name().to_string(),
                preds,
                atomic_rmse: acc.rmse(),
                atomic_mape: acc.mape(1.0),
            }
        })
        .collect()
}

/// A member's validation pyramid transposed to per-sample frames, so a
/// [`Combination`] can be evaluated against sample `s` directly.
fn sample_frames(preds: &[Vec<Vec<f32>>]) -> Vec<Vec<Vec<f32>>> {
    let n_samples = preds[0].len();
    (0..n_samples)
        .map(|s| preds.iter().map(|layer| layer[s].clone()).collect())
        .collect()
}

/// Evaluates a member's combination (its own index's, reading member 0)
/// on every validation sample.
fn series_of(hier: &Hierarchy, frames: &[Vec<Vec<f32>>], comb: &Combination) -> Vec<f32> {
    frames
        .iter()
        .map(|f| comb.evaluate(hier, &[FrameView::F32(f)]))
        .collect()
}

/// Runs the ensemble planning DP.
///
/// * `members` — validation profiles from [`profile_members`] (their
///   pyramids must match `hier`),
/// * `truths[layer][sample]` — matching ground-truth frames (e.g. from
///   `o4a_core::one4all::truth_pyramid`).
pub fn plan_ensemble(
    hier: &Hierarchy,
    members: &[MemberProfile],
    truths: &[Vec<Vec<f32>>],
    opts: &PlanOptions,
) -> EnsemblePlan {
    assert!(!members.is_empty(), "ensemble needs at least one member");
    assert!(
        members.len() <= u16::MAX as usize,
        "member index must fit u16"
    );
    let n_layers = hier.num_layers();
    assert_eq!(truths.len(), n_layers, "one truth series per layer");
    let n_samples = truths[0].len();
    assert!(
        n_samples > 0,
        "planning needs at least one validation sample"
    );
    for m in members {
        assert_eq!(
            m.preds.len(),
            n_layers,
            "member pyramid mismatches hierarchy"
        );
        assert_eq!(m.preds[0].len(), n_samples, "member sample count mismatch");
    }
    let n_members = members.len();

    // each member's own optimal index — the primary candidate source
    let indexes: Vec<CombinationIndex> = members
        .iter()
        .map(|m| {
            search_optimal_combinations_margin(hier, &m.preds, truths, opts.strategy, opts.margin)
        })
        .collect();
    // per-member per-sample frames for combination evaluation
    let frames: Vec<Vec<Vec<Vec<f32>>>> = members.iter().map(|m| sample_frames(&m.preds)).collect();

    let mut tree = ExtendedQuadTree::new(hier);
    let mut report = PlanReport {
        direct_cells: vec![0; n_members],
        delegated_cells: vec![0; n_members],
        model_costs: vec![0.0; n_members],
        ..PlanReport::default()
    };

    // previous layer's ensemble optima, cell-major
    let mut prev_series: Vec<Vec<f32>> = Vec::new();
    let mut prev_combs: Vec<Combination> = Vec::new();

    for layer in 0..n_layers {
        let (rows, cols) = hier.layer_dims(layer);
        let mut series: Vec<Vec<f32>> = Vec::with_capacity(rows * cols);
        let mut combs: Vec<Combination> = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let cell = LayerCell::new(layer, r, c);
                let ci = r * cols + c;
                let truth: Vec<f32> = (0..n_samples).map(|s| truths[layer][s][ci]).collect();

                // primary candidates: each member's own optimum
                let mut best_m = 0usize;
                let mut best_sse = f64::INFINITY;
                let mut best_series: Vec<f32> = Vec::new();
                for (m, index) in indexes.iter().enumerate() {
                    let comb = index
                        .for_cell(cell)
                        .expect("member index covers every grid");
                    let s = series_of(hier, &frames[m], comb);
                    let e = sse(&s, &truth);
                    report.model_costs[m] += e;
                    if e < best_sse {
                        best_sse = e;
                        best_m = m;
                        best_series = s;
                    }
                }
                let primary_comb = indexes[best_m]
                    .for_cell(cell)
                    .unwrap()
                    .for_member(best_m as u16);

                // alternative: ensemble-composed from children's ensemble optima
                let (chosen_series, chosen_comb, chosen_sse) =
                    if layer == 0 || opts.strategy == SearchStrategy::Direct {
                        (best_series, primary_comb, best_sse)
                    } else {
                        let prev_cols = hier.layer_dims(layer - 1).1;
                        let mut child_sum = vec![0.0f32; n_samples];
                        let mut child_parts: Vec<&Combination> = Vec::with_capacity(4);
                        for ch in hier.children(cell) {
                            let chi = ch.row * prev_cols + ch.col;
                            add_into(&mut child_sum, &prev_series[chi]);
                            child_parts.push(&prev_combs[chi]);
                        }
                        let sse_alt = sse(&child_sum, &truth);
                        if sse_alt < (1.0 - opts.margin) * best_sse {
                            report.fused_cells += 1;
                            (child_sum, Combination::union_of(&child_parts), sse_alt)
                        } else {
                            (best_series, primary_comb, best_sse)
                        }
                    };
                // classify the surviving primaries for the report
                if chosen_comb.terms.len() == 1
                    && chosen_comb.terms[0].cell == cell
                    && chosen_comb.terms[0].sign == 1
                {
                    report.direct_cells[chosen_comb.terms[0].member as usize] += 1;
                } else if layer > 0
                    && chosen_comb
                        == indexes[best_m]
                            .for_cell(cell)
                            .unwrap()
                            .for_member(best_m as u16)
                {
                    report.delegated_cells[best_m] += 1;
                }
                report.plan_cost += chosen_sse;

                tree.insert_cell(cell, chosen_comb.clone());
                series.push(chosen_series);
                combs.push(chosen_comb);
            }
        }

        // multi-grids exist for K = 2 only
        if layer >= 1 && hier.k() == 2 {
            plan_multi_grids(
                hier,
                layer - 1,
                &prev_series,
                &prev_combs,
                &series,
                &combs,
                &indexes,
                &frames,
                truths,
                opts,
                n_samples,
                &mut tree,
                &mut report,
            );
        }

        prev_series = series;
        prev_combs = combs;
    }

    EnsemblePlan {
        hier: hier.clone(),
        members: members.iter().map(|m| m.name.clone()).collect(),
        strategy: opts.strategy,
        revision: opts.revision,
        tree,
        report,
    }
}

/// Plans every multi-grid of `layer` (parents at `layer + 1`).
#[allow(clippy::too_many_arguments)]
fn plan_multi_grids(
    hier: &Hierarchy,
    layer: usize,
    child_series: &[Vec<f32>],
    child_combs: &[Combination],
    parent_series: &[Vec<f32>],
    parent_combs: &[Combination],
    indexes: &[CombinationIndex],
    frames: &[Vec<Vec<Vec<f32>>>],
    truths: &[Vec<Vec<f32>>],
    opts: &PlanOptions,
    n_samples: usize,
    tree: &mut ExtendedQuadTree<Combination>,
    report: &mut PlanReport,
) {
    let (_, child_cols) = hier.layer_dims(layer);
    let (prows, pcols) = hier.layer_dims(layer + 1);
    for pr in 0..prows {
        for pc in 0..pcols {
            let parent_idx = pr * pcols + pc;
            for code in ChildCode::ALL.into_iter().filter(|c| c.is_multi()) {
                let members_rc: Vec<(usize, usize)> = code
                    .members()
                    .iter()
                    .map(|&(dr, dc)| (pr * 2 + dr, pc * 2 + dc))
                    .collect();
                let grid_code = GridCode::for_multi_grid(hier, layer, &members_rc)
                    .expect("members form a valid multi-grid");
                let mut truth = vec![0.0f32; n_samples];
                for &(r, c) in &members_rc {
                    let ci = r * child_cols + c;
                    for s in 0..n_samples {
                        truth[s] += truths[layer][s][ci];
                    }
                }

                // primary candidates: each member's own multi optimum
                let mut best_m = 0usize;
                let mut best_sse = f64::INFINITY;
                for (m, index) in indexes.iter().enumerate() {
                    let comb = index
                        .for_multi(layer, &members_rc)
                        .expect("member index covers every multi-grid");
                    let e = sse(&series_of(hier, &frames[m], comb), &truth);
                    if e < best_sse {
                        best_sse = e;
                        best_m = m;
                    }
                }
                let primary = indexes[best_m]
                    .for_multi(layer, &members_rc)
                    .unwrap()
                    .for_member(best_m as u16);

                // ensemble union of the member cells' ensemble optima
                let mut union_series = vec![0.0f32; n_samples];
                let mut union_parts: Vec<&Combination> = Vec::with_capacity(3);
                for &(r, c) in &members_rc {
                    let ci = r * child_cols + c;
                    add_into(&mut union_series, &child_series[ci]);
                    union_parts.push(&child_combs[ci]);
                }
                let mut alt_sse = sse(&union_series, &truth);
                let mut alt = Combination::union_of(&union_parts);

                if opts.strategy == SearchStrategy::UnionSubtraction {
                    // ensemble subtraction: parent ensemble optimum minus
                    // the complementary children's ensemble optima
                    let mut comp_series = vec![0.0f32; n_samples];
                    let mut comp_parts: Vec<&Combination> = Vec::new();
                    let member_set: std::collections::HashSet<(usize, usize)> =
                        members_rc.iter().copied().collect();
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
                    let sub_sse = sse(&sub_series, &truth);
                    if sub_sse < (1.0 - opts.margin) * alt_sse {
                        let comp = Combination::union_of(&comp_parts);
                        alt = Combination::subtract(&parent_combs[parent_idx], &comp);
                        alt_sse = sub_sse;
                    }
                }

                let chosen = if alt_sse < (1.0 - opts.margin) * best_sse {
                    alt
                } else {
                    primary
                };
                report.multi_entries += 1;
                if chosen.uses_subtraction() {
                    report.subtraction_multis += 1;
                }
                tree.insert(&grid_code, chosen);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier4() -> Hierarchy {
        Hierarchy::new(4, 4, 2, 3).unwrap()
    }

    /// `[layer][sample][cell]` pyramid, as produced by the test builders.
    type Pyramid = Vec<Vec<Vec<f32>>>;

    /// `(preds, truths)` pyramids where `good_layers` are exact and the
    /// rest carry deterministic noise (mirrors the core search tests).
    fn make_series(
        hier: &Hierarchy,
        samples: usize,
        good_layers: &[usize],
        noise: f32,
    ) -> (Pyramid, Pyramid) {
        let mut truths = Vec::new();
        let mut preds = Vec::new();
        for layer in 0..hier.num_layers() {
            let (r, c) = hier.layer_dims(layer);
            let cells = r * c;
            let scale = hier.scale(layer);
            let mut tl = Vec::with_capacity(samples);
            let mut pl = Vec::with_capacity(samples);
            for s in 0..samples {
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
                tl.push(truth);
                pl.push(pred);
            }
            truths.push(tl);
            preds.push(pl);
        }
        (preds, truths)
    }

    fn profile(name: &str, preds: Vec<Vec<Vec<f32>>>) -> MemberProfile {
        MemberProfile {
            name: name.to_string(),
            preds,
            atomic_rmse: 0.0,
            atomic_mape: 0.0,
        }
    }

    #[test]
    fn single_member_reduces_to_base_index() {
        let hier = hier4();
        let (preds, truths) = make_series(&hier, 4, &[0], 5.0);
        for strategy in [
            SearchStrategy::Direct,
            SearchStrategy::Union,
            SearchStrategy::UnionSubtraction,
        ] {
            let base = search_optimal_combinations_margin(&hier, &preds, &truths, strategy, 0.0);
            let plan = plan_ensemble(
                &hier,
                &[profile("solo", preds.clone())],
                &truths,
                &PlanOptions {
                    strategy,
                    margin: 0.0,
                    revision: 1,
                },
            );
            assert_eq!(plan.len(), base.len());
            base.tree.for_each(|code, comb| {
                let got = plan.tree.get(code).expect("plan misses a base entry");
                assert_eq!(got, comb, "mismatch at {code:?} ({strategy:?})");
            });
        }
    }

    /// Preds exact on grids whose atomic footprint stays inside `region`
    /// (atomic `(r0, c0, r1, c1)`, half-open) and noisy everywhere else —
    /// a hotspot expert, as a plain pyramid.
    fn hotspot_series(
        hier: &Hierarchy,
        samples: usize,
        region: (usize, usize, usize, usize),
        noise: f32,
    ) -> (Pyramid, Pyramid) {
        let (mut preds, truths) = make_series(hier, samples, &[], 0.0);
        for (layer, layer_preds) in preds.iter_mut().enumerate() {
            let (_, cols) = hier.layer_dims(layer);
            for (s, frame) in layer_preds.iter_mut().enumerate() {
                for (ci, v) in frame.iter_mut().enumerate() {
                    let cell = LayerCell::new(layer, ci / cols, ci % cols);
                    let (r0, c0, r1, c1) = hier.atomic_rect(cell);
                    let inside =
                        r0 >= region.0 && c0 >= region.1 && r1 <= region.2 && c1 <= region.3;
                    if !inside {
                        *v += noise * ((ci + s + 1) as f32);
                    }
                }
            }
        }
        (preds, truths)
    }

    #[test]
    fn plan_cost_never_exceeds_any_member() {
        let hier = hier4();
        // spatially complementary hotspot members: each is exact on its
        // own half of the raster and noisy on the other, so neither alone
        // is exact anywhere outside its hotspot
        let (p0, truths) = hotspot_series(&hier, 4, (0, 0, 4, 2), 4.0);
        let (p1, _) = hotspot_series(&hier, 4, (0, 2, 4, 4), 4.0);
        let plan = plan_ensemble(
            &hier,
            &[profile("left", p0), profile("right", p1)],
            &truths,
            &PlanOptions::default(),
        );
        for (m, &cost) in plan.report.model_costs.iter().enumerate() {
            assert!(
                plan.report.plan_cost <= cost + 1e-9,
                "plan cost {} exceeds member {m} cost {cost}",
                plan.report.plan_cost
            );
        }
        // with complementary members the ensemble is strictly better
        let best = plan
            .report
            .model_costs
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(plan.report.plan_cost < best);
    }

    #[test]
    fn margin_respects_dominance() {
        // the dominance guarantee must hold under a margin too: primaries
        // are margin-free, only ensemble alternatives pay the penalty
        let hier = hier4();
        let (p0, truths) = make_series(&hier, 4, &[0], 4.0);
        let (p1, _) = make_series(&hier, 4, &[1, 2], 4.0);
        let plan = plan_ensemble(
            &hier,
            &[profile("fine", p0), profile("coarse", p1)],
            &truths,
            &PlanOptions {
                strategy: SearchStrategy::UnionSubtraction,
                margin: 0.2,
                revision: 3,
            },
        );
        for &cost in &plan.report.model_costs {
            assert!(plan.report.plan_cost <= cost + 1e-9);
        }
        assert_eq!(plan.revision, 3);
    }

    #[test]
    fn coverage_invariant_holds_for_every_entry() {
        let hier = hier4();
        let (p0, truths) = make_series(&hier, 4, &[0], 3.0);
        let (p1, _) = make_series(&hier, 4, &[1], 3.0);
        let plan = plan_ensemble(
            &hier,
            &[profile("a", p0), profile("b", p1)],
            &truths,
            &PlanOptions::default(),
        );
        for layer in 0..3 {
            let (r, c) = hier.layer_dims(layer);
            for i in 0..r {
                for j in 0..c {
                    let cell = LayerCell::new(layer, i, j);
                    let comb = plan.for_cell(cell).unwrap();
                    let direct = Combination::single(cell).signed_coverage(&hier);
                    assert_eq!(comb.signed_coverage(&hier), direct, "broken at {cell:?}");
                }
            }
        }
    }

    #[test]
    fn profile_members_reports_pyramids_and_errors() {
        use o4a_data::features::TemporalConfig;
        let hier = hier4();
        let mut flow = FlowSeries::zeros(16, 4, 4);
        for t in 0..16 {
            for r in 0..4 {
                for c in 0..4 {
                    flow.set(t, r, c, 1.0 + (t % 4) as f32 + (r + c) as f32);
                }
            }
        }
        let cfg = TemporalConfig {
            closeness: 2,
            period: 1,
            trend: 1,
            steps_per_day: 4,
            days_per_week: 2,
        };
        let mut exact = crate::synthetic::HotspotExpert::covering(&hier, "exact", 0);
        let mut noisy = crate::synthetic::HotspotExpert::new(&hier, "noisy", (0, 0, 0, 0), 500, 7);
        let mut members: Vec<&mut dyn PyramidPredictor> = vec![&mut exact, &mut noisy];
        let profiles = profile_members(&mut members, &flow, &cfg, &[12, 13, 14]);
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].preds.len(), hier.num_layers());
        assert_eq!(profiles[0].preds[0].len(), 3);
        assert!(profiles[0].atomic_rmse < 1e-6, "covering expert is exact");
        assert!(profiles[1].atomic_rmse > profiles[0].atomic_rmse);
    }
}
