//! End-to-end f16 prediction-store tolerance (the bound promised in
//! `o4a_tensor::half` and `o4a_core::frames`): with half storage enabled,
//! a region query summing `T` stored terms `v_t` answers within
//! `sum_t 2^-11 |v_t| + T * 2^-25` of the f32-storage answer, and is
//! *bit-identical* to the f32 answer over pre-roundtripped frames (per-read
//! widening is exact, so both paths add the same f32 sequence).

use o4a_core::frames::f16_storage_roundtrip;
use o4a_core::server::RegionServer;
use o4a_core::{
    combination::search_optimal_combinations, CombinationIndex, PredictionStore, SearchStrategy,
    SignedCell,
};
use o4a_grid::decompose::decompose;
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_grid::mask::Mask;
use std::sync::Arc;

/// Deterministic pseudo-random frame values, spread across magnitudes so
/// both the relative (normal-range) and absolute (subnormal) legs of the
/// f16 bound are exercised.
fn test_frames(hier: &Hierarchy) -> Vec<Vec<f32>> {
    let mut state = 0x9e37_79b9u32;
    let mut next = move || {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        // [-64, 64), with every 7th value pushed down near/below the f16
        // subnormal threshold 2^-14
        let v = (state >> 8) as f32 / (1 << 17) as f32 - 64.0;
        if state.is_multiple_of(7) {
            v * 2.0f32.powi(-18)
        } else {
            v
        }
    };
    let (h, w) = hier.layer_dims(0);
    let atomic: Vec<f32> = (0..h * w).map(|_| next()).collect();
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

/// Mirrors the server's group resolution to collect the signed terms a
/// query actually reads — the `v_t` of the documented bound.
fn query_terms(hier: &Hierarchy, index: &CombinationIndex, mask: &Mask) -> Vec<SignedCell> {
    let mut terms = Vec::new();
    for g in decompose(hier, mask) {
        let cells: Vec<(usize, usize)> = g.cells().collect();
        if cells.len() >= 2 && hier.k() == 2 {
            if let Some(comb) = index.for_multi(g.layer(), &cells) {
                terms.extend(comb.terms.iter().cloned());
                continue;
            }
        }
        for (r, c) in cells {
            let cell = LayerCell::new(g.layer(), r, c);
            match index.for_cell(cell) {
                Some(comb) => terms.extend(comb.terms.iter().cloned()),
                None => terms.push(SignedCell { cell, sign: 1 }),
            }
        }
    }
    terms
}

#[test]
fn half_storage_queries_stay_within_documented_bound() {
    let hier = Hierarchy::new(8, 8, 2, 4).unwrap();
    let frames = test_frames(&hier);
    let preds: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone(); 2]).collect();
    let index =
        search_optimal_combinations(&hier, &preds, &preds, SearchStrategy::UnionSubtraction);

    let store = Arc::new(PredictionStore::for_hierarchy(&hier));
    store.publish(frames.clone());
    let server = RegionServer::new(index, store.clone());

    // same frames, roundtripped through f16 storage, served as f32 — the
    // bitwise oracle for the half-storage path
    let rt_frames: Vec<Vec<f32>> = frames
        .iter()
        .map(|l| l.iter().map(|&v| f16_storage_roundtrip(v)).collect())
        .collect();

    let masks = [
        Mask::rect(8, 8, 0, 0, 1, 1),
        Mask::rect(8, 8, 0, 0, 4, 4),
        Mask::rect(8, 8, 1, 1, 6, 7),
        Mask::rect(8, 8, 2, 3, 7, 5),
        Mask::rect(8, 8, 0, 0, 8, 8),
        Mask::rect(8, 8, 3, 0, 5, 8),
    ];

    let full: Vec<f32> = masks.iter().map(|m| server.query(m)).collect();

    store.set_half_storage(true);
    store.publish(frames.clone());
    assert!(store.snapshot().is_half());
    let half: Vec<f32> = masks.iter().map(|m| server.query(m)).collect();

    store.set_half_storage(false);
    store.publish(rt_frames);
    let oracle: Vec<f32> = masks.iter().map(|m| server.query(m)).collect();

    for (i, mask) in masks.iter().enumerate() {
        // per-read widening is exact, so half storage must match the
        // roundtripped-f32 oracle bit for bit
        assert_eq!(
            half[i].to_bits(),
            oracle[i].to_bits(),
            "mask {i}: half {} != roundtrip oracle {}",
            half[i],
            oracle[i]
        );

        // the documented bound: sum_t 2^-11 |v_t| + T * 2^-25, plus the
        // f32 summation rounding of the perturbed terms
        let terms = query_terms(&hier, server.index(), mask);
        assert!(!terms.is_empty());
        let mut bound = 0.0f64;
        let mut sum_abs = 0.0f64;
        for t in &terms {
            let (_, lw) = hier.layer_dims(t.cell.layer);
            let v = frames[t.cell.layer][t.cell.row * lw + t.cell.col].abs() as f64;
            bound += v * (-11f64).exp2() + (-25f64).exp2();
            sum_abs += v;
        }
        let slack = 2.0 * terms.len() as f64 * f32::EPSILON as f64 * sum_abs;
        let err = (half[i] as f64 - full[i] as f64).abs();
        assert!(
            err <= bound + slack,
            "mask {i}: |{} - {}| = {err} > bound {bound} + slack {slack} (T={})",
            half[i],
            full[i],
            terms.len()
        );
    }
}

#[test]
fn half_storage_halves_snapshot_payload() {
    let hier = Hierarchy::new(8, 8, 2, 4).unwrap();
    let frames = test_frames(&hier);
    let store = PredictionStore::for_hierarchy(&hier);
    store.publish(frames.clone());
    let f32_bytes = store.snapshot().payload_bytes();
    store.set_half_storage(true);
    store.publish(frames);
    let f16_bytes = store.snapshot().payload_bytes();
    assert_eq!(f16_bytes * 2, f32_bytes);
    assert!(store.is_ready());
}
