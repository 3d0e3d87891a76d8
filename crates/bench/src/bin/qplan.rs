//! `qplan` — compiled-vs-interpreted query-plan microbench and CI gate.
//!
//! Builds the standard 32x32, K = 2 serving fixture (subtraction-enhanced
//! index, published truth pyramid), resolves a **hot working set** of
//! paper-task masks, and times the same aggregation work two ways:
//!
//! * **interpreted** — `server::interpret`, the oracle: per-group index
//!   lookups (`O(1)` slot reads in the implicit quad-tree) and per-term
//!   `term_value` coordinate math, what serving ran before query
//!   compilation;
//! * **compiled** — `CompiledPlan::execute_sum` over the pre-resolved
//!   offset/sign arena (what a plan-cache *hit* executes).
//!
//! Before any timing, every mask's compiled answer is asserted
//! bit-identical to the interpreted answer on both storage precisions —
//! a diverging plan makes the process abort, so a recorded speedup
//! implies identity held. The end-to-end `RegionServer::query_many` row
//! is also timed against the oracle over memoized decompositions (what
//! an interpreting server with a decomposition memo would run), so the
//! pair isolates the lookup + aggregation stages.
//!
//! `--gate R` exits non-zero if the hot-mask aggregate speedup falls
//! below `R` (check.sh uses 1.3). `--merge PATH` splices the result into
//! an existing loadgen `BENCH_serve.json` as a `compiled_vs_interpreted`
//! object; `--out PATH` writes the standalone JSON (default
//! `BENCH_qplan.json`).
//!
//! Usage:
//!   cargo run -p o4a-bench --release --bin qplan -- \
//!     [--quick] [--gate 1.3] [--out BENCH_qplan.json] [--merge BENCH_serve.json]

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::compiled::{compile_groups, with_scratch, CompiledPlan};
use o4a_core::frames::FrameSet;
use o4a_core::one4all::truth_pyramid;
use o4a_core::server::{interpret, PredictionStore, QueryBackend, RegionServer};
use o4a_data::synthetic::DatasetKind;
use o4a_grid::decompose::{decompose, DecomposedGroup};
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::{Hierarchy, Mask};
use o4a_tensor::SeededRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Hot working set size: small enough that the engine's plan cache holds
/// every mask, so the steady state this bench times is the all-hits
/// regime the cache is for.
const HOT_MASKS: usize = 64;

const WARMUP: usize = 2;

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
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let gate: Option<f64> = flag("--gate").map(|v| v.parse().expect("--gate"));
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_qplan.json".to_string());
    let merge_path = flag("--merge");
    let iters = if quick { 9 } else { 25 };

    // --- fixture: the kernels.rs serving setup, hot-mask pool ---
    let hier = Hierarchy::new(32, 32, 2, 6).expect("hierarchy");
    let flow = DatasetKind::TaxiNycLike.config(32, 32, 24, 1).generate();
    let slots: Vec<usize> = (16..24).collect();
    let truths = truth_pyramid(&hier, &flow, &slots);
    let index =
        search_optimal_combinations(&hier, &truths, &truths, SearchStrategy::UnionSubtraction);
    let frames: Vec<Vec<f32>> = truths.iter().map(|layer| layer[0].clone()).collect();

    let mut qrng = SeededRng::new(4);
    let mut masks: Vec<Mask> = Vec::new();
    for spec in TaskSpec::standard_tasks(150.0) {
        masks.extend(task_queries(32, 32, spec, false, &mut qrng));
    }
    masks.truncate(HOT_MASKS);
    let groups: Vec<Vec<DecomposedGroup>> = masks.iter().map(|m| decompose(&hier, m)).collect();
    let plans: Vec<CompiledPlan> = groups.iter().map(|g| compile_groups(&index, g)).collect();
    let total_terms: usize = plans.iter().map(|p| p.num_terms()).sum();

    let full = FrameSet::from_f32(frames.clone());
    let half = FrameSet::narrow(frames.clone());

    // --- bit-identity proof BEFORE any timing, both precisions ---
    for (fs, what) in [(&full, "f32"), (&half, "f16")] {
        for (i, (g, plan)) in groups.iter().zip(&plans).enumerate() {
            let want = interpret(&index, &[fs.view()], g);
            let got = with_scratch(|s| plan.execute_sum(&[fs], s))
                .expect("plan layout must match the fixture snapshot");
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what} mask {i}: compiled {got} != interpreted {want} — refusing to time a \
                 diverging plan"
            );
        }
    }
    println!(
        "bit-identity: {} hot masks x f32+f16 compiled == interpreted ({} arena terms)",
        masks.len(),
        total_terms
    );

    // --- aggregate-stage microbench (what a plan-cache hit executes) ---
    let view = full.view();
    let interp_f32 = time_it(iters, || {
        for g in &groups {
            black_box(interpret(&index, &[view], g));
        }
    });
    let compiled_f32 = time_it(iters, || {
        for plan in &plans {
            black_box(with_scratch(|s| plan.execute_sum(&[&full], s)).unwrap());
        }
    });
    let hview = half.view();
    let interp_f16 = time_it(iters, || {
        for g in &groups {
            black_box(interpret(&index, &[hview], g));
        }
    });
    let compiled_f16 = time_it(iters, || {
        for plan in &plans {
            black_box(with_scratch(|s| plan.execute_sum(&[&half], s)).unwrap());
        }
    });

    // --- server-level pair: the engine vs the oracle over memoized
    // decompositions of the same snapshot ---
    let store = Arc::new(PredictionStore::for_hierarchy(&hier));
    store.publish_checked(frames).expect("fixture snapshot");
    let compiled_server = RegionServer::new(index.clone(), store.clone());
    let interp_many = || -> Vec<f32> {
        let snap = store.snapshot();
        let view = snap.view();
        groups
            .iter()
            .map(|g| interpret(&index, std::slice::from_ref(&view), g))
            .collect()
    };
    let want = interp_many();
    let got = compiled_server.query_many(&masks);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "server mask {i}: compiled {g} != interpreted {w}"
        );
    }
    let serve_interp = time_it(iters, || {
        black_box(interp_many());
    });
    let serve_compiled = time_it(iters, || {
        black_box(compiled_server.query_many(&masks));
    });
    let (hits, misses, _) = compiled_server.plan_cache_stats();
    assert!(
        hits > 0 && misses as usize <= HOT_MASKS,
        "hot working set must run as plan-cache hits (hits {hits}, misses {misses})"
    );

    let speedup_f32 = interp_f32 / compiled_f32;
    let speedup_f16 = interp_f16 / compiled_f16;
    let speedup_serve = serve_interp / serve_compiled;
    let per_query_us = |t: f64| t / masks.len() as f64 * 1e6;
    println!(
        "== qplan: {} hot masks, {} arena terms ==",
        masks.len(),
        total_terms
    );
    println!(
        "  aggregate f32: interpreted {:8.2} us/q, compiled {:8.2} us/q  ({speedup_f32:.2}x)",
        per_query_us(interp_f32),
        per_query_us(compiled_f32)
    );
    println!(
        "  aggregate f16: interpreted {:8.2} us/q, compiled {:8.2} us/q  ({speedup_f16:.2}x)",
        per_query_us(interp_f16),
        per_query_us(compiled_f16)
    );
    println!(
        "  query_many   : interpreted {:8.2} us/q, compiled {:8.2} us/q  ({speedup_serve:.2}x)",
        per_query_us(serve_interp),
        per_query_us(serve_compiled)
    );

    let body = format!(
        "{{ \"hot_masks\": {}, \"arena_terms\": {total_terms}, \
         \"bit_identity_asserted\": true, \
         \"aggregate_f32\": {{ \"interpreted_us_per_query\": {:.3}, \
         \"compiled_us_per_query\": {:.3}, \"speedup\": {speedup_f32:.3} }}, \
         \"aggregate_f16\": {{ \"interpreted_us_per_query\": {:.3}, \
         \"compiled_us_per_query\": {:.3}, \"speedup\": {speedup_f16:.3} }}, \
         \"query_many\": {{ \"interpreted_us_per_query\": {:.3}, \
         \"compiled_us_per_query\": {:.3}, \"speedup\": {speedup_serve:.3} }} }}",
        masks.len(),
        per_query_us(interp_f32),
        per_query_us(compiled_f32),
        per_query_us(interp_f16),
        per_query_us(compiled_f16),
        per_query_us(serve_interp),
        per_query_us(serve_compiled),
    );
    std::fs::write(
        &out_path,
        format!("{{\n  \"bench\": \"qplan\",\n  \"compiled_vs_interpreted\": {body}\n}}\n"),
    )
    .expect("write --out");
    println!("wrote {out_path}");

    // Splice the same object into a loadgen BENCH_serve.json so the
    // committed serve bench carries the compiled-vs-interpreted row.
    if let Some(path) = merge_path {
        let prev = std::fs::read_to_string(&path).expect("read --merge target");
        let trimmed = prev.trim_end();
        let without_close = trimmed
            .strip_suffix('}')
            .expect("--merge target must be a JSON object")
            .trim_end();
        let sep = if without_close.ends_with('{') {
            ""
        } else {
            ","
        };
        let merged = format!("{without_close}{sep}\n  \"compiled_vs_interpreted\": {body}\n}}\n");
        std::fs::write(&path, merged).expect("write --merge target");
        println!("merged compiled_vs_interpreted into {path}");
    }

    if let Some(g) = gate {
        if speedup_f32 < g {
            eprintln!(
                "FAIL: compiled hot-mask aggregate speedup {speedup_f32:.3}x is below the \
                 {g:.2}x gate"
            );
            std::process::exit(1);
        }
        println!("gate: {speedup_f32:.2}x >= {g:.2}x OK");
    }
}
