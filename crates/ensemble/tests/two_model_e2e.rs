//! End-to-end acceptance scenario from the ensemble-planner issue: two
//! synthetic members, each dominating a different half of the raster.
//! The planner must route every tile to its owning member, the combined
//! plan must beat either member alone on the validation window, and the
//! persisted artifact must round-trip bit-identically.

use o4a_core::frames::FrameView;
use o4a_core::one4all::truth_pyramid;
use o4a_data::features::TemporalConfig;
use o4a_data::metrics::MetricAccumulator;
use o4a_data::synthetic::DatasetKind;
use o4a_ensemble::{
    decode_plan, encode_plan, plan_ensemble, profile_members, EnsemblePlan, HotspotExpert,
    MemberProfile, PlanOptions,
};
use o4a_grid::hierarchy::LayerCell;
use o4a_grid::Hierarchy;
use o4a_models::multiscale::PyramidPredictor;

const SIDE: usize = 16;

/// Plan a 2-stripe ensemble: member 0 exact on the left half, member 1
/// exact on the right, both noisy (amp 0.4) off their own turf.
fn fixture() -> (Hierarchy, Vec<MemberProfile>, EnsemblePlan) {
    let hier = Hierarchy::new(SIDE, SIDE, 2, 4).unwrap();
    let cfg = TemporalConfig::compact();
    let flow = DatasetKind::TaxiNycLike
        .config(SIDE, SIDE, 32, 9)
        .generate();
    let val_slots: Vec<usize> = (24..32).collect();
    let mut experts = HotspotExpert::stripes(&hier, 2, 400, 11);
    let mut refs: Vec<&mut dyn PyramidPredictor> = experts
        .iter_mut()
        .map(|e| e as &mut dyn PyramidPredictor)
        .collect();
    let profiles = profile_members(&mut refs, &flow, &cfg, &val_slots);
    let truths = truth_pyramid(&hier, &flow, &val_slots);
    let plan = plan_ensemble(&hier, &profiles, &truths, &PlanOptions::default());
    (hier, profiles, plan)
}

/// Every atomic cell resolves to terms drawn purely from the member that
/// owns its stripe: the planner localized each model to its hotspot.
#[test]
fn planner_routes_each_half_to_its_expert() {
    let (_hier, _profiles, plan) = fixture();
    for row in 0..SIDE {
        for col in 0..SIDE {
            let cell = LayerCell { layer: 0, row, col };
            let comb = plan.for_cell(cell).expect("atomic cell planned");
            let owner = u16::from(col >= SIDE / 2);
            assert_eq!(
                comb.members_used(),
                vec![owner],
                "cell ({row},{col}) must be served by member {owner}"
            );
        }
    }
    // Both members actually hold real estate in the plan.
    let per_model = plan.cells_per_model();
    assert!(per_model.iter().all(|&n| n > 0), "plan uses both members");
}

/// The plan's cost never exceeds any single member's cost, and on this
/// spatially-complementary scenario it is strictly cheaper than both.
#[test]
fn plan_cost_beats_both_members() {
    let (_hier, _profiles, plan) = fixture();
    let costs = &plan.report.model_costs;
    assert_eq!(costs.len(), 2);
    for (m, &c) in costs.iter().enumerate() {
        assert!(
            plan.report.plan_cost <= c + 1e-6,
            "plan cost {} exceeds member {m}'s cost {c}",
            plan.report.plan_cost
        );
    }
    let best = costs.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        plan.report.plan_cost < best,
        "complementary members must make the ensemble strictly cheaper: {} vs {best}",
        plan.report.plan_cost
    );
}

/// Ensemble validation RMSE at the atomic layer is no worse than the best
/// single member's — the headline acceptance criterion.
#[test]
fn ensemble_validation_rmse_beats_best_single() {
    let (hier, profiles, plan) = fixture();
    let samples = profiles[0].preds[0].len();
    let flow = DatasetKind::TaxiNycLike
        .config(SIDE, SIDE, 32, 9)
        .generate();
    let val_slots: Vec<usize> = (24..32).collect();
    assert_eq!(samples, val_slots.len());

    let mut acc = MetricAccumulator::new();
    for (s, &t) in val_slots.iter().enumerate() {
        // One frame set per member for this validation sample.
        let frames: Vec<Vec<Vec<f32>>> = profiles
            .iter()
            .map(|p| p.preds.iter().map(|layer| layer[s].clone()).collect())
            .collect();
        let views: Vec<FrameView<'_>> = frames.iter().map(|f| FrameView::F32(f)).collect();
        let mut pred = vec![0.0f32; SIDE * SIDE];
        for row in 0..SIDE {
            for col in 0..SIDE {
                let comb = plan
                    .for_cell(LayerCell { layer: 0, row, col })
                    .expect("atomic cell planned");
                pred[row * SIDE + col] = comb.evaluate(&hier, &views);
            }
        }
        acc.extend(&pred, flow.frame(t));
    }
    let ensemble_rmse = acc.rmse();
    let best_single = profiles
        .iter()
        .map(|p| p.atomic_rmse)
        .fold(f64::INFINITY, f64::min);
    assert!(
        ensemble_rmse <= best_single + 1e-9,
        "ensemble rmse {ensemble_rmse} worse than best single member {best_single}"
    );
}

/// The persisted artifact round-trips bit-identically and preserves the
/// routing decisions.
#[test]
fn plan_artifact_roundtrips_bit_identically() {
    let (_hier, _profiles, plan) = fixture();
    let bytes = encode_plan(&plan);
    let back = decode_plan(&bytes).expect("decode persisted plan");
    assert_eq!(encode_plan(&back), bytes, "re-encode must be bit-identical");
    assert_eq!(back.members, plan.members);
    assert_eq!(back.len(), plan.len());
    assert_eq!(
        back.report.plan_cost.to_bits(),
        plan.report.plan_cost.to_bits()
    );
    for row in 0..SIDE {
        for col in 0..SIDE {
            let cell = LayerCell { layer: 0, row, col };
            assert_eq!(back.for_cell(cell), plan.for_cell(cell));
        }
    }
}
