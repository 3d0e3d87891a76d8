//! `serve` — cold-start a One4All-ST query server from on-disk artifacts
//! and answer region queries over the `O4ARPC02` wire protocol.
//!
//! Three start modes:
//!
//! * **artifact mode** (`--index PATH [--model PATH]`): load a persisted
//!   combination index via `codec::load_index` and, when given, a
//!   deployed model via `deploy::load_model`; the model's multi-scale
//!   prediction for the latest slot of a synthetic flow becomes the
//!   served snapshot (without `--model` the ground-truth pyramid is
//!   served instead).
//! * **synthetic mode** (default): build a synthetic index + model,
//!   persist both under `--artifacts DIR`, then cold-start from those
//!   files exactly as artifact mode would — every run exercises the
//!   restart path end to end.
//! * **ensemble mode** (`--ensemble N`): run the offline ensemble
//!   planner over `N` synthetic stripe experts, persist the resulting
//!   `O4AENS01` plan under `--artifacts DIR`, then cold-start an
//!   [`EnsembleServer`] from that artifact alone — member models are
//!   rebuilt from the names persisted in the plan, and every member's
//!   snapshot is published before the server is exposed.
//!
//! With `--shards K` (K > 1) the backend is replicated into K shards
//! behind a [`ShardRouter`]; before the listener opens, the router is
//! proven bit-identical to the single backend over a sample of paper-task
//! masks (the process panics on any divergence, so a sharded timing run
//! implies identity held). `--loops N` runs N epoll event-loop threads,
//! each of which parses, executes and answers its connections' queries.
//! `--queue-cap`, `--max-batch` and `--loops` override the matching
//! `ServeConfig` fields; an omitted flag keeps `ServeConfig::default()`
//! (one loop per core).
//!
//! Usage:
//!   cargo run -p o4a-serve --release --bin serve -- \
//!     [--addr 127.0.0.1:7474] [--addr-file PATH] [--side 32] [--layers N] \
//!     [--index PATH] [--model PATH] [--artifacts target/serve-artifacts] \
//!     [--ensemble N] [--queue-cap N] [--max-batch N] [--shards 1] \
//!     [--loops N] [--run-secs S] [--trace-every N] [--trace-slow-us US]
//!
//! `--trace-every N` samples every Nth query into the trace flight
//! recorder (drained by the `TRACE` verb; equivalent to `O4A_TRACE=N`),
//! and `--trace-slow-us US` logs a structured stage breakdown for any
//! request slower than `US` microseconds (equivalent to
//! `O4A_TRACE_SLOW_US=US`).

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::one4all::{truth_pyramid, One4AllSt};
use o4a_core::server::QueryBackend;
use o4a_core::server::{PredictionStore, RegionServer};
use o4a_core::{codec, deploy};
use o4a_data::features::TemporalConfig;
use o4a_data::flow::FlowSeries;
use o4a_data::synthetic::DatasetKind;
use o4a_ensemble::{load_plan, plan_ensemble, profile_members, save_plan, PlanOptions};
use o4a_ensemble::{EnsembleServer, HotspotExpert};
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::Hierarchy;
use o4a_models::multiscale::PyramidPredictor;
use o4a_models::predictor::TrainConfig;
use o4a_serve::{serve, ServeConfig, ShardRouter};
use o4a_tensor::SeededRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    /// Bind address and serving knobs, `ServeConfig::default()` unless a
    /// flag overrides them.
    serve: ServeConfig,
    addr_file: Option<PathBuf>,
    side: usize,
    layers: Option<usize>,
    index: Option<PathBuf>,
    model: Option<PathBuf>,
    artifacts: PathBuf,
    ensemble: Option<usize>,
    shards: usize,
    run_secs: Option<f64>,
    trace_every: Option<u64>,
    trace_slow_us: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        serve: ServeConfig {
            addr: "127.0.0.1:7474".into(),
            ..ServeConfig::default()
        },
        addr_file: None,
        side: 32,
        layers: None,
        index: None,
        model: None,
        artifacts: PathBuf::from("target/serve-artifacts"),
        ensemble: None,
        shards: 1,
        run_secs: None,
        trace_every: None,
        trace_slow_us: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--addr" => args.serve.addr = value("--addr"),
            "--addr-file" => args.addr_file = Some(PathBuf::from(value("--addr-file"))),
            "--side" => args.side = value("--side").parse().expect("--side"),
            "--layers" => args.layers = Some(value("--layers").parse().expect("--layers")),
            "--index" => args.index = Some(PathBuf::from(value("--index"))),
            "--model" => args.model = Some(PathBuf::from(value("--model"))),
            "--artifacts" => args.artifacts = PathBuf::from(value("--artifacts")),
            "--ensemble" => args.ensemble = Some(value("--ensemble").parse().expect("--ensemble")),
            "--queue-cap" => {
                args.serve.queue_cap = value("--queue-cap").parse().expect("--queue-cap")
            }
            "--max-batch" => {
                args.serve.max_batch_masks = value("--max-batch").parse().expect("--max-batch")
            }
            "--shards" => args.shards = value("--shards").parse().expect("--shards"),
            "--loops" => args.serve.event_loops = value("--loops").parse().expect("--loops"),
            "--run-secs" => args.run_secs = Some(value("--run-secs").parse().expect("--run-secs")),
            "--trace-every" => {
                args.trace_every = Some(value("--trace-every").parse().expect("--trace-every"))
            }
            "--trace-slow-us" => {
                args.trace_slow_us =
                    Some(value("--trace-slow-us").parse().expect("--trace-slow-us"))
            }
            "--synthetic" => {} // accepted for clarity; synthetic is the default without --index
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// Flow series long enough for `TemporalConfig::compact` prediction.
fn synthetic_flow(side: usize) -> (FlowSeries, usize) {
    let steps = 24 * 9;
    let flow = DatasetKind::TaxiNycLike
        .config(side, side, steps, 5)
        .generate();
    (flow, steps - 1)
}

/// Ensemble mode: offline plan build + persist, then a cold start that
/// reads only the `O4AENS01` artifact.
fn run_ensemble(args: &Args, n: usize) {
    let cfg = TemporalConfig::compact();
    let layers = args.layers.unwrap_or_else(|| {
        Hierarchy::with_max_scale(args.side, args.side, 2, 32)
            .expect("raster divisible by 2")
            .num_layers()
    });
    let hier = Hierarchy::new(args.side, args.side, 2, layers)
        .expect("raster must divide by the coarsest scale");
    let (flow, slot) = synthetic_flow(args.side);
    let plan_path = args.artifacts.join("plan.o4aens");

    // --- offline phase: profile stripe experts, cost-based plan, persist ---
    {
        let val_slots: Vec<usize> = (flow.len_t() - 8..flow.len_t()).collect();
        let mut experts = HotspotExpert::stripes(&hier, n, 400, 99);
        let mut refs: Vec<&mut dyn PyramidPredictor> = experts
            .iter_mut()
            .map(|e| e as &mut dyn PyramidPredictor)
            .collect();
        let profiles = profile_members(&mut refs, &flow, &cfg, &val_slots);
        for p in &profiles {
            o4a_obs::info!(
                "serve",
                "profiled member {}: atomic rmse {:.4}",
                p.name,
                p.atomic_rmse
            );
        }
        let truths = truth_pyramid(&hier, &flow, &val_slots);
        let plan = plan_ensemble(&hier, &profiles, &truths, &PlanOptions::default());
        std::fs::create_dir_all(&args.artifacts).expect("create artifact dir");
        save_plan(&plan, &plan_path).expect("persist ensemble plan");
        o4a_obs::info!(
            "serve",
            "persisted ensemble plan: {} ({} entries, {} members, cost {:.3})",
            plan_path.display(),
            plan.len(),
            plan.members.len(),
            plan.report.plan_cost
        );
    }

    // --- cold start: the plan artifact is the only planner state read ---
    let plan = load_plan(&plan_path).expect("cold-start plan artifact");
    o4a_obs::info!(
        "serve",
        "cold-started ensemble plan from {} (revision {}, members {:?})",
        plan_path.display(),
        plan.revision,
        plan.members
    );
    // Publish every member's snapshot BEFORE constructing the server so
    // the backend never reports ready with a half-published ensemble.
    let mut stores = Vec::with_capacity(plan.members.len());
    for name in &plan.members {
        let mut member =
            HotspotExpert::from_name(&plan.hier, name).expect("member name encodes its config");
        let frames: Vec<Vec<f32>> = member
            .predict_pyramid(&flow, &cfg, &[slot])
            .into_iter()
            .map(|mut per_t| per_t.remove(0))
            .collect();
        let store = Arc::new(PredictionStore::for_hierarchy_labeled(&plan.hier, name));
        store
            .publish_checked(frames)
            .expect("member snapshot must match the hierarchy");
        stores.push(store);
    }
    let single: Arc<dyn QueryBackend> = Arc::new(EnsembleServer::new(plan.clone(), stores.clone()));
    let backend = sharded(single, args.shards, || {
        Arc::new(EnsembleServer::new(plan.clone(), stores.clone())) as Arc<dyn QueryBackend>
    });
    serve_and_wait(backend, args);
}

/// Wraps `single` in a K-shard [`ShardRouter`] (replica backends built by
/// `make_shard`) and proves the router bit-identical to the single
/// backend over a sample of paper-task masks *before* any socket opens.
///
/// # Panics
/// Panics on the first diverging answer — a sharded run that reaches the
/// serving phase has therefore already proven K == 1 identity.
fn sharded(
    single: Arc<dyn QueryBackend>,
    shards: usize,
    make_shard: impl Fn() -> Arc<dyn QueryBackend>,
) -> Arc<dyn QueryBackend> {
    if shards <= 1 {
        return single;
    }
    let router = Arc::new(ShardRouter::new(
        (0..shards).map(|_| make_shard()).collect(),
    ));
    let (h, w) = {
        let hier = single.hierarchy();
        (hier.h(), hier.w())
    };
    let mut rng = SeededRng::new(41);
    let mut masks = Vec::new();
    for spec in TaskSpec::standard_tasks(150.0) {
        masks.extend(task_queries(h, w, spec, false, &mut rng));
    }
    masks.truncate(256);
    let (want, _) = single.query_many_timed(&masks);
    let (got, _) = router.query_many_timed(&masks);
    for (i, (g, r)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g.to_bits(),
            r.to_bits(),
            "K={shards} shard router diverged from the unsharded backend \
             on sample mask {i}: {g} != {r}"
        );
    }
    o4a_obs::info!(
        "serve",
        "K={} shard router bit-identity verified over {} sample masks",
        shards,
        masks.len()
    );
    router
}

fn main() {
    let args = parse_args();
    if let Some(n) = args.trace_every {
        o4a_obs::trace::set_sample_every(n);
    }
    if let Some(us) = args.trace_slow_us {
        o4a_obs::trace::set_slow_threshold_us(us);
    }
    let cfg = TemporalConfig::compact();

    if let Some(n) = args.ensemble {
        run_ensemble(&args, n);
        return;
    }

    // --- obtain artifacts (building + persisting them first if absent) ---
    let (index_path, model_path) = match &args.index {
        Some(path) => (path.clone(), args.model.clone()),
        None => {
            let layers = args.layers.unwrap_or_else(|| {
                Hierarchy::with_max_scale(args.side, args.side, 2, 32)
                    .expect("raster divisible by 2")
                    .num_layers()
            });
            let hier = Hierarchy::new(args.side, args.side, 2, layers)
                .expect("raster must divide by the coarsest scale");
            o4a_obs::info!(
                "serve",
                "synthetic offline phase: raster {0}x{0}, P = {1:?}",
                args.side,
                hier.scales()
            );
            let (flow, _) = synthetic_flow(args.side);
            let slots: Vec<usize> = (flow.len_t() - 8..flow.len_t()).collect();
            let truths = truth_pyramid(&hier, &flow, &slots);
            let index = search_optimal_combinations(&hier, &truths, &truths, SearchStrategy::Union);
            let mut model = One4AllSt::standard(
                &mut SeededRng::new(17),
                hier.clone(),
                &cfg,
                TrainConfig::default(),
            );
            std::fs::create_dir_all(&args.artifacts).expect("create artifact dir");
            let index_path = args.artifacts.join("index.o4aidx");
            let model_path = args.artifacts.join("model.o4amdl");
            codec::save_index(&index, &index_path).expect("persist index");
            std::fs::write(&model_path, deploy::save_model(&mut model)).expect("persist model");
            o4a_obs::info!(
                "serve",
                "persisted artifacts: {} ({} entries), {}",
                index_path.display(),
                index.tree.len(),
                model_path.display()
            );
            (index_path, Some(model_path))
        }
    };

    // --- cold start from disk ---
    let index = codec::load_index(&index_path).expect("cold-start index artifact");
    let hier = index.hier.clone();
    o4a_obs::info!(
        "serve",
        "cold-started index from {} ({} combinations, raster {}x{})",
        index_path.display(),
        index.tree.len(),
        hier.h(),
        hier.w()
    );
    let (flow, slot) = synthetic_flow(hier.h());
    let frames: Vec<Vec<f32>> = match &model_path {
        Some(path) => {
            let bytes = std::fs::read(path).expect("read model artifact");
            let mut model = One4AllSt::standard(
                &mut SeededRng::new(1),
                hier.clone(),
                &cfg,
                TrainConfig::default(),
            );
            deploy::load_model(&mut model, &bytes).expect("cold-start model artifact");
            o4a_obs::info!("serve", "cold-started model from {}", path.display());
            model
                .predict_pyramid(&flow, &cfg, &[slot])
                .into_iter()
                .map(|mut per_t| per_t.remove(0))
                .collect()
        }
        None => {
            o4a_obs::warn!(
                "serve",
                "no model artifact: serving the ground-truth pyramid"
            );
            truth_pyramid(&hier, &flow, &[slot])
                .into_iter()
                .map(|mut per_t| per_t.remove(0))
                .collect()
        }
    };

    let store = Arc::new(PredictionStore::for_hierarchy(&hier));
    store
        .publish_checked(frames)
        .expect("snapshot must match the hierarchy");
    let single: Arc<dyn QueryBackend> = Arc::new(RegionServer::new(index.clone(), store.clone()));
    let backend = sharded(single, args.shards, || {
        Arc::new(RegionServer::new(index.clone(), store.clone())) as Arc<dyn QueryBackend>
    });
    serve_and_wait(backend, &args);
}

/// Binds the server on the configured address and blocks until
/// `--run-secs` elapses (or forever, logging periodic stats).
fn serve_and_wait(backend: Arc<dyn QueryBackend>, args: &Args) {
    let handle = serve(backend, args.serve.clone()).expect("bind server");
    println!("listening on {}", handle.addr());
    if let Some(path) = &args.addr_file {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).ok();
        }
        std::fs::write(path, handle.addr().to_string()).expect("write --addr-file");
    }

    match args.run_secs {
        Some(secs) => {
            std::thread::sleep(Duration::from_secs_f64(secs));
            let stats = handle.stats();
            handle.shutdown();
            println!(
                "shutdown after {secs}s: {} connections, {} requests, {} masks \
                 ({} exec batches, {} coalesced masks, {} busy, {} protocol errors)",
                stats.connections,
                stats.requests,
                stats.masks_served,
                stats.exec_batches,
                stats.coalesced_masks,
                stats.busy_rejections,
                stats.protocol_errors
            );
            if !stats.shard_loads.is_empty() {
                println!("shard loads (groups routed): {:?}", stats.shard_loads);
            }
        }
        None => loop {
            std::thread::sleep(Duration::from_secs(60));
            let s = handle.stats();
            o4a_obs::info!(
                "serve", "periodic stats";
                requests = s.requests,
                masks = s.masks_served,
                busy = s.busy_rejections,
            );
        },
    }
}
