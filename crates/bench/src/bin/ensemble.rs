//! Ensemble planner benchmark: times the offline cost-based plan build
//! over two stripe experts, sizes and round-trips the `O4AENS01`
//! artifact, compares validation accuracy against the best single
//! member, and measures the per-query serving overhead of the plan-
//! resolved [`EnsembleServer`] against a single-model [`RegionServer`]
//! on the same masks (interleaved rounds, medians, so machine drift
//! cancels). Prints the table and dumps it to `BENCH_ensemble.json`.
//!
//! Usage: `cargo run -p o4a-bench --release --bin ensemble [-- --quick] [--out PATH]`

use o4a_core::combination::search_optimal_combinations;
use o4a_core::frames::FrameView;
use o4a_core::one4all::truth_pyramid;
use o4a_core::server::{PredictionStore, RegionServer};
use o4a_data::features::TemporalConfig;
use o4a_data::metrics::MetricAccumulator;
use o4a_data::synthetic::DatasetKind;
use o4a_ensemble::{
    decode_plan, encode_plan, plan_ensemble, profile_members, EnsemblePlan, EnsembleServer,
    HotspotExpert, MemberProfile, PlanOptions,
};
use o4a_grid::hierarchy::LayerCell;
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::{Hierarchy, Mask};
use o4a_models::multiscale::PyramidPredictor;
use o4a_tensor::SeededRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SIDE: usize = 32;
const STEPS: usize = 32;
const WARMUP: usize = 2;

/// Median seconds per call after [`WARMUP`] discarded calls (same
/// estimator as the kernels bench: robust to one scheduler hiccup).
fn time_it(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..WARMUP {
        f();
    }
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        0.5 * (samples[mid - 1] + samples[mid])
    } else {
        samples[mid]
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        0.5 * (samples[mid - 1] + samples[mid])
    } else {
        samples[mid]
    }
}

/// Atomic-layer validation RMSE of the plan, evaluated exactly as the
/// server would: per cell, the planned combination against each member's
/// per-sample frames.
fn ensemble_rmse(
    hier: &Hierarchy,
    plan: &EnsemblePlan,
    profiles: &[MemberProfile],
    truth_frames: &[&[f32]],
) -> f64 {
    let samples = profiles[0].preds[0].len();
    let mut acc = MetricAccumulator::new();
    for s in 0..samples {
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
                pred[row * SIDE + col] = comb.evaluate(hier, &views);
            }
        }
        acc.extend(&pred, truth_frames[s]);
    }
    acc.rmse()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_ensemble.json".to_string());
    let plan_iters = if quick { 3 } else { 9 };
    let rounds = if quick { 41 } else { 101 };

    // --- scenario: two stripe experts on a 32x32 raster ---
    let hier = Hierarchy::new(SIDE, SIDE, 2, 6).expect("hierarchy");
    let cfg = TemporalConfig::compact();
    let flow = DatasetKind::TaxiNycLike
        .config(SIDE, SIDE, STEPS, 9)
        .generate();
    let val_slots: Vec<usize> = (STEPS - 8..STEPS).collect();
    let mut experts = HotspotExpert::stripes(&hier, 2, 400, 21);
    let mut refs: Vec<&mut dyn PyramidPredictor> = experts
        .iter_mut()
        .map(|e| e as &mut dyn PyramidPredictor)
        .collect();
    let profiles = profile_members(&mut refs, &flow, &cfg, &val_slots);
    let truths = truth_pyramid(&hier, &flow, &val_slots);
    let opts = PlanOptions::default();

    // --- plan build time (offline phase) ---
    let plan_build_secs = time_it(plan_iters, || {
        black_box(plan_ensemble(&hier, &profiles, &truths, &opts));
    });
    let plan = plan_ensemble(&hier, &profiles, &truths, &opts);

    // --- artifact size + round-trip ---
    let bytes = encode_plan(&plan);
    let decoded = decode_plan(&bytes).expect("decode plan artifact");
    let roundtrip_ok = encode_plan(&decoded) == bytes;

    // --- validation accuracy ---
    let truth_frames: Vec<&[f32]> = val_slots.iter().map(|&t| flow.frame(t)).collect();
    let ens_rmse = ensemble_rmse(&hier, &plan, &profiles, &truth_frames);
    let best_m = (0..profiles.len())
        .min_by(|&a, &b| profiles[a].atomic_rmse.total_cmp(&profiles[b].atomic_rmse))
        .expect("at least one member");
    let best_single = profiles[best_m].atomic_rmse;

    // --- serving overhead: plan-resolved lookup vs single-model lookup ---
    // The gated comparison isolates the *machinery* of the model axis: a
    // single-member plan provably reduces to the member's own optimal
    // index (same terms, bit-identical answers), so any latency gap is
    // pure plan-resolution overhead, not the extra exact terms a real
    // ensemble chooses to read for its accuracy win. The 2-member
    // ensemble's latency on the same masks is reported as an
    // informational row. All backends serve the last validation sample's
    // snapshot; the ensemble sides run off decoded artifacts (the
    // cold-start path).
    let s_last = val_slots.len() - 1;
    let member_frames = |m: usize| -> Vec<Vec<f32>> {
        profiles[m]
            .preds
            .iter()
            .map(|layer| layer[s_last].clone())
            .collect()
    };
    let mut stores = Vec::new();
    for (m, p) in profiles.iter().enumerate() {
        let store = Arc::new(PredictionStore::for_hierarchy_labeled(&hier, &p.name));
        store.publish_checked(member_frames(m)).expect("snapshot");
        stores.push(store);
    }
    let ensemble2 = EnsembleServer::new(decoded, stores);
    let single_index =
        search_optimal_combinations(&hier, &profiles[best_m].preds, &truths, opts.strategy);
    let single_store = Arc::new(PredictionStore::for_hierarchy_labeled(
        &hier,
        &profiles[best_m].name,
    ));
    single_store
        .publish_checked(member_frames(best_m))
        .expect("snapshot");
    let single = RegionServer::new(single_index, single_store.clone());
    let solo_plan = plan_ensemble(
        &hier,
        std::slice::from_ref(&profiles[best_m]),
        &truths,
        &opts,
    );
    let solo_plan = decode_plan(&encode_plan(&solo_plan)).expect("decode solo plan");
    let ensemble = EnsembleServer::new(solo_plan, vec![single_store]);

    let mut masks: Vec<Mask> = Vec::new();
    for seed in [4, 5, 6] {
        let mut qrng = SeededRng::new(seed);
        for spec in TaskSpec::standard_tasks(150.0) {
            masks.extend(task_queries(SIDE, SIDE, spec, false, &mut qrng));
        }
    }
    masks.truncate(512);

    // Warm both engines' caches, then interleave the rounds so any
    // background-load burst hits both backends equally. The overhead is
    // the median of per-round ratios: each round times the two backends
    // back to back, so a load burst inflates both sides of its ratio and
    // cancels, where a ratio of independent medians would not.
    // The single-member plan must answer bit-identically to the member's
    // own region server — anything else means the reduction broke and the
    // "overhead" would be comparing different work.
    let ens_vals = ensemble.query_many(&masks);
    let single_vals = single.query_many(&masks);
    for (i, (a, b)) in ens_vals.iter().zip(&single_vals).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "mask {i}: single-member plan diverged from the region server"
        );
    }

    for _ in 0..WARMUP {
        black_box(ensemble.query_many(&masks));
        black_box(single.query_many(&masks));
        black_box(ensemble2.query_many(&masks));
    }
    // Each sample runs the batch REPS times so one sample is a few ms of
    // work — long enough that pool-scheduling jitter on a single ~0.5 ms
    // batch stops dominating the ratio.
    const REPS: usize = 3;
    let mut ens_samples = Vec::with_capacity(rounds);
    let mut single_samples = Vec::with_capacity(rounds);
    let mut ens2_samples = Vec::with_capacity(rounds);
    let mut ratios = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..REPS {
            black_box(ensemble.query_many(&masks));
        }
        let e = t0.elapsed().as_secs_f64() / REPS as f64;
        let t0 = Instant::now();
        for _ in 0..REPS {
            black_box(single.query_many(&masks));
        }
        let s = t0.elapsed().as_secs_f64() / REPS as f64;
        let t0 = Instant::now();
        for _ in 0..REPS {
            black_box(ensemble2.query_many(&masks));
        }
        ens2_samples.push(t0.elapsed().as_secs_f64() / REPS as f64);
        ens_samples.push(e);
        single_samples.push(s);
        ratios.push(e / s);
    }
    let ens_batch = median(ens_samples);
    let single_batch = median(single_samples);
    let ens2_batch = median(ens2_samples);
    let overhead = median(ratios);
    let nq = masks.len() as f64;

    // --- report ---
    println!(
        "ensemble planner bench ({} masks, {} rounds)",
        masks.len(),
        rounds
    );
    for p in &profiles {
        println!("  member {:<28} atomic rmse {:.4}", p.name, p.atomic_rmse);
    }
    println!("  best single rmse      {best_single:.4}");
    println!("  ensemble rmse         {ens_rmse:.4}");
    println!(
        "  plan: {} entries, cost {:.3}, build {:.1} ms, artifact {} bytes (roundtrip {})",
        plan.len(),
        plan.report.plan_cost,
        plan_build_secs * 1e3,
        bytes.len(),
        if roundtrip_ok {
            "bit-identical"
        } else {
            "MISMATCH"
        },
    );
    println!(
        "  per-query: plan-resolved {:.0} ns, single-model {:.0} ns, overhead {overhead:.3}x \
         (2-member ensemble {:.0} ns)",
        ens_batch / nq * 1e9,
        single_batch / nq * 1e9,
        ens2_batch / nq * 1e9,
    );

    let model_costs: Vec<String> = plan
        .report
        .model_costs
        .iter()
        .map(|c| format!("{c:.6}"))
        .collect();
    let members_json: Vec<String> = profiles
        .iter()
        .map(|p| {
            format!(
                "    {{\"name\": \"{}\", \"atomic_rmse\": {:.6}}}",
                p.name, p.atomic_rmse
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"members\": [\n{}\n  ],\n  \"best_single_rmse\": {:.6},\n  \
         \"ensemble_rmse\": {:.6},\n  \"plan_build_secs\": {:.6e},\n  \
         \"plan_entries\": {},\n  \"plan_bytes\": {},\n  \
         \"roundtrip_bit_identical\": {},\n  \"plan_cost\": {:.6},\n  \
         \"model_costs\": [{}],\n  \"queries\": {},\n  \
         \"plan_resolved_batch_secs\": {:.6e},\n  \"single_batch_secs\": {:.6e},\n  \
         \"ensemble2_batch_secs\": {:.6e},\n  \
         \"per_query_ns_plan_resolved\": {:.1},\n  \"per_query_ns_single\": {:.1},\n  \
         \"per_query_ns_ensemble2\": {:.1},\n  \
         \"overhead_vs_single\": {:.4}\n}}\n",
        members_json.join(",\n"),
        best_single,
        ens_rmse,
        plan_build_secs,
        plan.len(),
        bytes.len(),
        roundtrip_ok,
        plan.report.plan_cost,
        model_costs.join(", "),
        masks.len(),
        ens_batch,
        single_batch,
        ens2_batch,
        ens_batch / nq * 1e9,
        single_batch / nq * 1e9,
        ens2_batch / nq * 1e9,
        overhead,
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");
}
