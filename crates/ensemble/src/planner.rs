//! The offline ensemble planner.
//!
//! [`profile_members`] runs every member model on a held-out validation
//! window and records its per-layer prediction pyramid plus atomic-layer
//! RMSE/MAPE. [`plan_ensemble`] then runs the paper's optimal-combination
//! DP (Sec. IV-C), [`combination_dp`], with a *which model* axis in the
//! primaries it passes:
//!
//! * A grid's **primary** is the least-SSE member optimum: each member's
//!   own optimal combination from [`search_optimal_combinations_margin`]
//!   on its pyramid, evaluated per sample and read from that member. Ties
//!   go to the lowest member index, so planning is deterministic, and a
//!   NaN SSE never wins over a number.
//! * The DP sets it against the union of the children's *ensemble*
//!   optima, which may mix members, and keeps the primary unless the
//!   union beats it by the margin. So for any margin the plan's cost never
//!   exceeds any single member's own optimum (every member is a primary
//!   candidate), and with a single member the plan reduces exactly to
//!   that member's [`o4a_core::CombinationIndex`].
//!
//! Multi-grids (`K = 2`) get the same treatment: the primary is the best
//! member's multi optimum; the alternative is the ensemble union of the
//! member cells' ensemble optima or, under
//! [`SearchStrategy::UnionSubtraction`], the ensemble parent optimum minus
//! the complementary children's ensemble optima (Eq. 14 with models),
//! whichever wins.

use crate::plan::{EnsemblePlan, PlanReport};
use o4a_core::combination::{
    beats, combination_dp, search_optimal_combinations_margin, sse, Candidate, Combination,
    CombinationIndex, Primaries, SearchStrategy, Term,
};
use o4a_core::frames::FrameView;
use o4a_data::features::TemporalConfig;
use o4a_data::flow::FlowSeries;
use o4a_data::metrics::MetricAccumulator;
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
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
    // each member's own optimal index: the source of every primary
    let indexes = members
        .iter()
        .map(|m| {
            search_optimal_combinations_margin(hier, &m.preds, truths, opts.strategy, opts.margin)
        })
        .collect();
    let n_members = members.len();
    let mut optima = MemberOptima {
        hier,
        indexes,
        frames: members.iter().map(|m| sample_frames(&m.preds)).collect(),
        report: PlanReport {
            direct_cells: vec![0; n_members],
            delegated_cells: vec![0; n_members],
            model_costs: vec![0.0; n_members],
            ..PlanReport::default()
        },
    };
    let (tree, counts) = combination_dp(hier, truths, opts.strategy, opts.margin, &mut optima);
    EnsemblePlan {
        hier: hier.clone(),
        members: members.iter().map(|m| m.name.clone()).collect(),
        strategy: opts.strategy,
        revision: opts.revision,
        tree,
        report: PlanReport {
            fused_cells: counts.composed_cells,
            multi_entries: counts.multi_entries,
            subtraction_multis: counts.subtraction_multis,
            ..optima.report
        },
    }
}

/// The planner's side of [`combination_dp`]: a grid's primary is the
/// least-SSE member optimum, and its choices fill the per-member fields
/// and the cost of the [`PlanReport`].
struct MemberOptima<'a> {
    hier: &'a Hierarchy,
    indexes: Vec<CombinationIndex>,
    /// Per member, its pyramid as per-sample frames.
    frames: Vec<Vec<Vec<Vec<f32>>>>,
    report: PlanReport,
}

impl MemberOptima<'_> {
    /// The member optimum `entry` picks from each member's index with the
    /// least SSE against `truth`, read from that member: starting from
    /// member 0, a member replaces the best so far when it [`beats`] it
    /// with no margin, so ties go to the lower member. Each member's
    /// combination is evaluated per sample through
    /// [`Combination::evaluate`]; with `charge`, each member's SSE is
    /// added to its `model_costs`.
    fn best(
        &mut self,
        truth: &[f32],
        charge: bool,
        entry: impl Fn(&CombinationIndex) -> Option<&Combination>,
    ) -> Candidate {
        let mut best: Option<(u16, &Combination, Vec<f32>, f64)> = None;
        for (m, index) in self.indexes.iter().enumerate() {
            let comb = entry(index).expect("member index covers every grid");
            let series: Vec<f32> = self.frames[m]
                .iter()
                .map(|f| comb.evaluate(self.hier, &[FrameView::F32(f)]))
                .collect();
            let e = sse(&series, truth);
            if charge {
                self.report.model_costs[m] += e;
            }
            if best.as_ref().is_none_or(|&(.., b)| beats(e, b, 0.0)) {
                best = Some((m as u16, comb, series, e));
            }
        }
        let (m, comb, series, sse) = best.expect("ensemble has a member");
        Candidate {
            series,
            comb: comb.for_member(m),
            sse,
        }
    }
}

impl Primaries for MemberOptima<'_> {
    fn cell(&mut self, cell: LayerCell, truth: &[f32]) -> Candidate {
        self.best(truth, true, |index| index.for_cell(cell))
    }

    fn multi(
        &mut self,
        layer: usize,
        members: &[(usize, usize)],
        truth: &[f32],
    ) -> Option<Candidate> {
        Some(self.best(truth, false, |index| index.for_multi(layer, members)))
    }

    /// A grid served as its primary's single own-scale term counts as
    /// direct for that member; one served as the member's composed
    /// optimum, term for term, counts as delegated, fused or not.
    fn chose(&mut self, cell: LayerCell, primary: &Candidate, chosen: &Candidate) {
        let m = primary.comb.terms[0].member;
        let own = Term {
            cell,
            sign: 1,
            member: m,
        };
        if chosen.comb.terms == [own] {
            self.report.direct_cells[m as usize] += 1;
        } else if chosen.comb == primary.comb {
            self.report.delegated_cells[m as usize] += 1;
        }
        self.report.plan_cost += chosen.sse;
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
        // K = 3 and K = 4 grids have no codes (`for_each` walks K = 2
        // trees only), so every hierarchy compares each grid's entry
        // through `for_cell`, and K = 2 also compares every multi-grid
        for hier in [
            hier4(),
            Hierarchy::new(9, 9, 3, 3).unwrap(),
            Hierarchy::new(16, 16, 4, 3).unwrap(),
        ] {
            let (preds, truths) = make_series(&hier, 4, &[0], 5.0);
            for strategy in [
                SearchStrategy::Direct,
                SearchStrategy::Union,
                SearchStrategy::UnionSubtraction,
            ] {
                for margin in [0.0, 0.05] {
                    let base = search_optimal_combinations_margin(
                        &hier, &preds, &truths, strategy, margin,
                    );
                    let plan = plan_ensemble(
                        &hier,
                        &[profile("solo", preds.clone())],
                        &truths,
                        &PlanOptions {
                            strategy,
                            margin,
                            revision: 1,
                        },
                    );
                    assert_eq!(plan.len(), base.len());
                    for layer in 0..hier.num_layers() {
                        let (rows, cols) = hier.layer_dims(layer);
                        for i in 0..rows * cols {
                            let cell = LayerCell::new(layer, i / cols, i % cols);
                            assert_eq!(
                                plan.for_cell(cell),
                                base.for_cell(cell),
                                "mismatch at {cell:?} (K = {}, {strategy:?}, margin {margin})",
                                hier.k()
                            );
                        }
                    }
                    if hier.k() == 2 {
                        base.tree.for_each(|code, comb| {
                            let got = plan.tree.get(code).expect("plan misses a base entry");
                            assert_eq!(got, comb, "mismatch at {code:?} ({strategy:?}, {margin})");
                        });
                    }
                }
            }
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
    fn a_nan_member_grid_never_beats_a_number() {
        // member 0 is exact everywhere but atomic (0, 0), which is NaN on
        // every sample; member 1 is noisy everywhere. The NaN cell goes to
        // member 1, and its parent to member 0's own exact prediction.
        let hier = hier4();
        let (mut nan, truths) = make_series(&hier, 3, &[0, 1, 2], 0.0);
        for frame in &mut nan[0] {
            frame[0] = f32::NAN;
        }
        let (noisy, _) = make_series(&hier, 3, &[], 1.0);
        let views: Vec<Vec<Vec<f32>>> = [&nan, &noisy]
            .iter()
            .map(|p| p.iter().map(|layer| layer[0].clone()).collect())
            .collect();
        let views: Vec<FrameView<'_>> = views.iter().map(|v| FrameView::F32(v)).collect();
        for strategy in [SearchStrategy::Union, SearchStrategy::UnionSubtraction] {
            let plan = plan_ensemble(
                &hier,
                &[profile("nan", nan.clone()), profile("noisy", noisy.clone())],
                &truths,
                &PlanOptions {
                    strategy,
                    ..PlanOptions::default()
                },
            );
            let atom = LayerCell::new(0, 0, 0);
            let own = Combination::single(atom).for_member(1);
            assert_eq!(plan.for_cell(atom), Some(&own), "{strategy:?}");
            let cell = LayerCell::new(1, 0, 0);
            let comb = plan.for_cell(cell).unwrap();
            assert_eq!(comb, &Combination::single(cell), "{strategy:?}");
            assert_eq!(comb.evaluate(&hier, &views), 4.0);
        }
    }

    #[test]
    #[should_panic(expected = "prediction frame length at layer 0")]
    fn a_wider_member_raster_is_rejected() {
        // a 32x32 member pyramid against a 16x16 hierarchy, both five
        // layers deep at max scale 16
        let hier = Hierarchy::with_max_scale(16, 16, 2, 16).unwrap();
        let wide = Hierarchy::with_max_scale(32, 32, 2, 16).unwrap();
        let (preds, _) = make_series(&wide, 2, &[0], 1.0);
        let (_, truths) = make_series(&hier, 2, &[0], 1.0);
        plan_ensemble(
            &hier,
            &[profile("wide", preds)],
            &truths,
            &PlanOptions::default(),
        );
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
