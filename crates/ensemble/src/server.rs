//! The ensemble as a query-engine resolver.
//!
//! An [`EnsemblePlan`] keeps its combinations in the same tree a
//! single-model index does, with terms that each name the member store
//! they read. Implementing [`Resolver`] for it puts the ensemble on the
//! one online path every backend runs — the resolution walk, the mask →
//! decomposition cache, [`o4a_core::server::interpret`] over one
//! consistent snapshot per member, the shard leg — so [`EnsembleServer`]
//! is just [`Engine`] over a plan. What stays here is the member axis:
//! the member count, the revision and the plan's own metrics.
//!
//! A plan whose entries all name one member resolves to exactly the terms
//! of that member's own index, in the same order, so it answers
//! bit-identically to the member's [`o4a_core::server::RegionServer`].

use crate::plan::EnsemblePlan;
use o4a_core::combination::Combination;
use o4a_core::server::{Engine, Resolver};
use o4a_grid::hierarchy::Hierarchy;
use o4a_grid::quadtree::ExtendedQuadTree;
use o4a_obs::Histogram;
use std::sync::Arc;

/// The retired compiled-plan entry point under its ensemble name, kept
/// only for the frozen benchmark (see [`o4a_core::compiled`]).
pub use o4a_core::compiled::compile_groups as compile_egroups;

/// The online ensemble server: an [`EnsemblePlan`] over one
/// [`o4a_core::server::PredictionStore`] per member (`stores[m]` backs
/// member `m`), answering region queries as pure lookup + aggregate.
pub type EnsembleServer = Engine<EnsemblePlan>;

/// Lowercases a member name and maps every non-`[a-z0-9_]` byte to `_` so
/// it is a valid Prometheus metric-name suffix.
fn sanitize_metric_suffix(name: &str) -> String {
    name.chars()
        .map(|c| match c.to_ascii_lowercase() {
            c @ ('a'..='z' | '0'..='9' | '_') => c,
            _ => '_',
        })
        .collect()
}

impl Resolver for EnsemblePlan {
    fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    fn tree(&self) -> &ExtendedQuadTree<Combination> {
        &self.tree
    }

    fn members(&self) -> usize {
        self.members.len()
    }

    fn revision(&self) -> u64 {
        self.revision as u64
    }

    /// Publishes the plan gauges (`o4a_ensemble_members`, `_plan_cost`,
    /// `_plan_revision`, `_plan_cells_<member>`) and returns the
    /// `o4a_ensemble_model_terms_<member>` histograms: terms served from
    /// each member per query. A one-member plan gets none — its split is
    /// the total, which `o4a_compiled_terms` already samples.
    fn register_metrics(&self) -> Vec<Arc<Histogram>> {
        let reg = o4a_obs::global();
        reg.gauge(
            "o4a_ensemble_members",
            "member models in the active ensemble plan",
        )
        .set(self.members.len() as f64);
        reg.gauge(
            "o4a_ensemble_plan_cost",
            "validation SSE of the active ensemble plan",
        )
        .set(self.report.plan_cost);
        reg.gauge(
            "o4a_ensemble_plan_revision",
            "revision of the active ensemble plan",
        )
        .set(self.revision as f64);
        let mut term_hists = Vec::new();
        for (name, &count) in self.members.iter().zip(&self.cells_per_model()) {
            let suffix = sanitize_metric_suffix(name);
            reg.gauge(
                &format!("o4a_ensemble_plan_cells_{suffix}"),
                "single-grid plan entries reading from this member",
            )
            .set(count as f64);
            if self.members.len() > 1 {
                term_hists.push(reg.histogram(
                    &format!("o4a_ensemble_model_terms_{suffix}"),
                    "combination terms served from this member per query",
                ));
            }
        }
        term_hists
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_ensemble, MemberProfile, PlanOptions};
    use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
    use o4a_core::server::{PredictionStore, QueryBackend, RegionServer};
    use o4a_grid::mask::Mask;

    fn hier4() -> Hierarchy {
        Hierarchy::new(4, 4, 2, 3).unwrap()
    }

    /// An exact multi-scale pyramid frame set for `hier`.
    fn exact_frames(hier: &Hierarchy) -> Vec<Vec<f32>> {
        let (h, w) = (hier.h(), hier.w());
        let atomic: Vec<f32> = (0..h * w).map(|v| v as f32 + 0.25).collect();
        let mut frames = vec![atomic.clone()];
        for layer in 1..hier.num_layers() {
            let s = hier.scale(layer);
            let (lh, lw) = hier.layer_dims(layer);
            let mut f = vec![0.0f32; lh * lw];
            for r in 0..h {
                for c in 0..w {
                    f[(r / s) * lw + c / s] += atomic[r * w + c];
                }
            }
            frames.push(f);
        }
        frames
    }

    fn profile(name: &str, preds: Vec<Vec<Vec<f32>>>) -> MemberProfile {
        MemberProfile {
            name: name.to_string(),
            preds,
            atomic_rmse: 0.0,
            atomic_mape: 0.0,
        }
    }

    /// Every rectangle of `hier`'s raster.
    fn all_rect_masks(hier: &Hierarchy) -> Vec<Mask> {
        let (h, w) = (hier.h(), hier.w());
        let mut masks = Vec::new();
        for r0 in 0..h {
            for c0 in 0..w {
                for r1 in (r0 + 1)..=h {
                    for c1 in (c0 + 1)..=w {
                        masks.push(Mask::rect(h, w, r0, c0, r1, c1));
                    }
                }
            }
        }
        masks
    }

    /// A one-member plan answers with the bits of the member's own region
    /// server: on a K = 2 hierarchy, and on K = 3 and K = 4 ones, whose
    /// plans hold single grids only and resolve multi-cell groups cell by
    /// cell. The member's noisy pyramid makes the searches compose.
    #[test]
    fn single_member_is_bit_identical_to_region_server() {
        for (hier, strategy, step) in [
            (hier4(), SearchStrategy::UnionSubtraction, 1),
            (
                Hierarchy::new(9, 9, 3, 3).unwrap(),
                SearchStrategy::Union,
                5,
            ),
            (
                Hierarchy::new(16, 16, 4, 3).unwrap(),
                SearchStrategy::Union,
                5,
            ),
        ] {
            let frames = exact_frames(&hier);
            let truths: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone(); 2]).collect();
            let preds: Vec<Vec<Vec<f32>>> = truths
                .iter()
                .enumerate()
                .map(|(layer, samples)| {
                    samples
                        .iter()
                        .enumerate()
                        .map(|(s, f)| {
                            f.iter()
                                .enumerate()
                                .map(|(i, &v)| {
                                    let noise = ((i * 7 + s * 3 + layer * 5) % 9) as f32 - 4.0;
                                    v + noise * hier.scale(layer) as f32
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let index = search_optimal_combinations(&hier, &preds, &truths, strategy);
            assert!(index.report.composed_cells > 0, "K = {}", hier.k());
            let plan = plan_ensemble(
                &hier,
                &[profile("solo", preds)],
                &truths,
                &PlanOptions {
                    strategy,
                    ..PlanOptions::default()
                },
            );
            assert_eq!(plan.len(), index.len(), "K = {}", hier.k());
            assert_eq!(plan.cells_per_model(), vec![hier.total_cells()]);
            let store = Arc::new(PredictionStore::for_hierarchy(&hier));
            store.publish(frames.clone());
            let region = RegionServer::new(index, store.clone());
            let ensemble = EnsembleServer::new(plan, vec![store]);
            let masks: Vec<Mask> = all_rect_masks(&hier).into_iter().step_by(step).collect();
            let single = region.query_many(&masks);
            let ens = ensemble.query_many(&masks);
            for (i, (a, b)) in single.iter().zip(&ens).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "K = {}, mask {i}: ensemble {b} != region {a}",
                    hier.k()
                );
            }
        }
    }

    #[test]
    fn mixed_plan_reads_each_members_store() {
        let hier = hier4();
        // two "members" publishing constant-per-layer snapshots with
        // different values, and a hand-built plan routing layer-0 terms to
        // member 1 and everything else to member 0
        let truths: Vec<Vec<Vec<f32>>> = (0..3)
            .map(|layer| {
                let (r, c) = hier.layer_dims(layer);
                let s = hier.scale(layer);
                vec![vec![(s * s) as f32; r * c]; 2]
            })
            .collect();
        let p0 = truths.clone();
        // member 1 is wrong everywhere except layer 0
        let p1: Vec<Vec<Vec<f32>>> = truths
            .iter()
            .enumerate()
            .map(|(layer, samples)| {
                samples
                    .iter()
                    .map(|f| {
                        f.iter()
                            .map(|&v| if layer == 0 { v } else { v + 100.0 })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let plan = plan_ensemble(
            &hier,
            &[profile("good", p0), profile("l0-only", p1)],
            &truths,
            &PlanOptions::default(),
        );
        let s0 = Arc::new(PredictionStore::for_hierarchy(&hier));
        let s1 = Arc::new(PredictionStore::for_hierarchy(&hier));
        s0.publish(vec![vec![1.0; 16], vec![4.0; 4], vec![16.0; 1]]);
        s1.publish(vec![vec![1.0; 16], vec![104.0; 4], vec![116.0; 1]]);
        let server = EnsembleServer::new(plan, vec![s0, s1]);
        assert!(server.is_ready());
        // the full raster decomposes to the root grid; whichever member
        // serves it, its combination must reproduce the snapshot sum the
        // planner found best — both members' layer-0 frames agree, so the
        // answer is exact iff no wrong coarse grid of member 1 is read
        let full = server.query(&Mask::full(4, 4));
        assert_eq!(full, 16.0);
        let (timed, timing) = server.query_timed(&Mask::full(4, 4));
        assert_eq!(timed, full);
        assert!(timing.total() >= timing.decompose);
    }

    #[test]
    fn batch_paths_agree_and_plan_cache_counts() {
        let hier = hier4();
        let frames = exact_frames(&hier);
        let preds: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone(); 2]).collect();
        let plan = plan_ensemble(
            &hier,
            &[profile("solo", preds.clone())],
            &preds,
            &PlanOptions::default(),
        );
        let store = Arc::new(PredictionStore::for_hierarchy(&hier));
        store.publish(frames);
        let server = EnsembleServer::new(plan, vec![store]);
        let masks = vec![
            Mask::rect(4, 4, 0, 0, 2, 2),
            Mask::rect(4, 4, 1, 1, 3, 4),
            Mask::full(4, 4),
        ];
        let plain = server.query_many(&masks);
        let (timed, _) = server.query_many_timed(&masks);
        assert_eq!(plain, timed);
        assert_eq!(server.plan_cache_stats(), (3, 3, 0));
        assert_eq!(server.decomp_cache_stats(), (3, 3));
        let backend: &dyn QueryBackend = &server;
        assert_eq!(backend.plan_revision(), 1);
        assert_eq!(backend.hierarchy().w(), 4);
    }

    #[test]
    fn not_ready_until_every_member_published() {
        let hier = hier4();
        let frames = exact_frames(&hier);
        let preds: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone(); 2]).collect();
        let truths = preds.clone();
        let plan = plan_ensemble(
            &hier,
            &[profile("a", preds.clone()), profile("b", preds)],
            &truths,
            &PlanOptions::default(),
        );
        let s0 = Arc::new(PredictionStore::for_hierarchy(&hier));
        let s1 = Arc::new(PredictionStore::for_hierarchy(&hier));
        s0.publish(frames.clone());
        let server = EnsembleServer::new(plan, vec![s0, s1.clone()]);
        assert!(!server.is_ready(), "one member still unpublished");
        s1.publish(frames);
        assert!(server.is_ready());
    }

    #[test]
    #[should_panic(expected = "one prediction store per plan member")]
    fn store_count_mismatch_panics() {
        let hier = hier4();
        let frames = exact_frames(&hier);
        let preds: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone(); 2]).collect();
        let plan = plan_ensemble(
            &hier,
            &[profile("solo", preds.clone())],
            &preds,
            &PlanOptions::default(),
        );
        EnsembleServer::new(plan, vec![]);
    }

    /// Per-member term histograms split a query's terms across members;
    /// a one-member plan's split is its total, so it registers none.
    #[test]
    fn only_multi_member_plans_sample_member_terms() {
        let hier = hier4();
        let frames = exact_frames(&hier);
        let preds: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone(); 2]).collect();
        let plan = |names: &[&str]| {
            let profiles: Vec<_> = names.iter().map(|n| profile(n, preds.clone())).collect();
            plan_ensemble(&hier, &profiles, &preds, &PlanOptions::default())
        };
        assert!(plan(&["solo"]).register_metrics().is_empty());
        assert_eq!(plan(&["a", "b"]).register_metrics().len(), 2);
    }

    #[test]
    fn sanitizer_produces_valid_metric_suffixes() {
        assert_eq!(sanitize_metric_suffix("M-ST-ResNet"), "m_st_resnet");
        assert_eq!(
            sanitize_metric_suffix("stripe0.r0-8.c0-4.a800.s42"),
            "stripe0_r0_8_c0_4_a800_s42"
        );
    }
}
