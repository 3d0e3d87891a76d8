//! Workload set-up from the seed: synthetic flows, the offline phase
//! (combination search or ensemble planning), artifact save and reload,
//! model prediction and snapshot publication — the cold start the `serve`
//! binary performs — plus the region-query pools.

use crate::Report;
use o4a_core::combination::{search_optimal_combinations, CombinationIndex, SearchStrategy};
use o4a_core::one4all::{truth_pyramid, One4AllSt};
use o4a_core::server::{PredictionStore, QueryBackend, RegionServer};
use o4a_core::{codec, deploy};
use o4a_data::features::TemporalConfig;
use o4a_data::flow::FlowSeries;
use o4a_data::synthetic::DatasetKind;
use o4a_ensemble::{load_plan, plan_ensemble, profile_members, save_plan};
use o4a_ensemble::{EnsemblePlan, EnsembleServer, HotspotExpert, PlanOptions};
use o4a_grid::mask::Mask;
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::Hierarchy;
use o4a_models::multiscale::PyramidPredictor;
use o4a_models::predictor::TrainConfig;
use o4a_tensor::SeededRng;
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Seconds spent in each set-up phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    /// Synthetic flow and ground-truth pyramid (training data for `train`).
    pub flow_s: f64,
    /// `search_optimal_combinations`.
    pub search_s: f64,
    /// Model construction.
    pub model_s: f64,
    /// Artifact save and reload (index, model or ensemble plan).
    pub artifacts_s: f64,
    /// `predict_pyramid` for the served slots.
    pub predict_s: f64,
    /// `profile_members` + `plan_ensemble`.
    pub plan_s: f64,
    /// Store publish, backend construction and server bind.
    pub publish_s: f64,
}

impl Phases {
    /// Per-phase medians over repeated set-ups.
    pub fn median(runs: &[Phases]) -> Phases {
        let m =
            |f: fn(&Phases) -> f64| crate::host::median(&runs.iter().map(f).collect::<Vec<_>>());
        Phases {
            flow_s: m(|p| p.flow_s),
            search_s: m(|p| p.search_s),
            model_s: m(|p| p.model_s),
            artifacts_s: m(|p| p.artifacts_s),
            predict_s: m(|p| p.predict_s),
            plan_s: m(|p| p.plan_s),
            publish_s: m(|p| p.publish_s),
        }
    }

    pub fn report(&self, r: &mut Report) {
        r.set("setup.flow_s", self.flow_s);
        r.set("setup.search_s", self.search_s);
        r.set("setup.model_s", self.model_s);
        r.set("setup.artifacts_s", self.artifacts_s);
        r.set("setup.predict_s", self.predict_s);
        r.set("setup.plan_s", self.plan_s);
        r.set("setup.publish_s", self.publish_s);
    }
}

/// Runs `f`, adding its wall time to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

/// The hierarchy every workload uses: scales 1, 2, 4, ... up to 32.
pub fn hierarchy(side: usize) -> Hierarchy {
    Hierarchy::with_max_scale(side, side, 2, 32).expect("raster divisible by 2")
}

/// The taxi-like synthetic flow the `serve` binary predicts from: nine
/// days of hourly slots.
pub fn serving_flow(side: usize, seed: u64) -> FlowSeries {
    DatasetKind::TaxiNycLike
        .config(side, side, 24 * 9, seed)
        .generate()
}

/// A single-model deployment: the searched index and the store holding
/// the published snapshot.
pub struct RegionWorld {
    pub index: CombinationIndex,
    pub store: Arc<PredictionStore>,
    /// Predicted pyramids (`[layer] -> frame`) of the served slots, oldest
    /// first; the last one is published.
    pub snapshots: Vec<Vec<Vec<f32>>>,
}

impl RegionWorld {
    /// A fresh region server (empty caches) over the world's index and
    /// store.
    pub fn server(&self) -> Arc<dyn QueryBackend> {
        Arc::new(RegionServer::new(self.index.clone(), self.store.clone()))
    }
}

/// Cold start as `serve`'s synthetic mode does it: search the index on a
/// seeded flow, persist index and model, reload both, predict the newest
/// `slots` time slots and publish the newest.
pub fn region(side: usize, seed: u64, slots: usize, dir: &Path, ph: &mut Phases) -> RegionWorld {
    let cfg = TemporalConfig::compact();
    let hier = hierarchy(side);
    let (flow, truths) = timed(&mut ph.flow_s, || {
        let flow = serving_flow(side, seed);
        let val: Vec<usize> = (flow.len_t() - 8..flow.len_t()).collect();
        let truths = truth_pyramid(&hier, &flow, &val);
        (flow, truths)
    });
    let index = timed(&mut ph.search_s, || {
        search_optimal_combinations(&hier, &truths, &truths, SearchStrategy::Union)
    });
    let (mut model, mut restored) = timed(&mut ph.model_s, || {
        let model_of = |s: u64| {
            One4AllSt::standard(
                &mut SeededRng::new(s),
                hier.clone(),
                &cfg,
                TrainConfig::default(),
            )
        };
        (model_of(seed ^ 0x5eed), model_of(seed ^ 0x10ad))
    });
    let index = timed(&mut ph.artifacts_s, || {
        std::fs::create_dir_all(dir).expect("create artifact dir");
        let index_path = dir.join("index.o4aidx");
        let model_path = dir.join("model.o4amdl");
        codec::save_index(&index, &index_path).expect("persist index");
        std::fs::write(&model_path, deploy::save_model(&mut model)).expect("persist model");
        let index = codec::load_index(&index_path).expect("reload index");
        let bytes = std::fs::read(&model_path).expect("read model artifact");
        deploy::load_model(&mut restored, &bytes).expect("reload model");
        index
    });
    let snapshots = timed(&mut ph.predict_s, || {
        let newest = flow.len_t() - 1;
        let targets: Vec<usize> = (newest + 1 - slots..=newest).collect();
        let per_layer = restored.predict_pyramid(&flow, &cfg, &targets);
        (0..slots)
            .map(|s| per_layer.iter().map(|l| l[s].clone()).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    });
    let store = timed(&mut ph.publish_s, || {
        let store = Arc::new(PredictionStore::for_hierarchy(&hier));
        store
            .publish_checked(snapshots.last().expect("a slot").clone())
            .expect("snapshot matches the hierarchy");
        store
    });
    RegionWorld {
        index,
        store,
        snapshots,
    }
}

/// An ensemble deployment: the reloaded plan and one store per member.
pub struct EnsembleWorld {
    pub plan: EnsemblePlan,
    pub stores: Vec<Arc<PredictionStore>>,
}

impl EnsembleWorld {
    /// A fresh ensemble server (empty caches) over the world's plan and
    /// member stores.
    pub fn server(&self) -> Arc<dyn QueryBackend> {
        Arc::new(EnsembleServer::new(self.plan.clone(), self.stores.clone()))
    }
}

/// Cold start as `serve --ensemble 2` does it: profile two stripe
/// experts, plan, persist the O4AENS01 artifact, reload it, rebuild the
/// members from their persisted names and publish their snapshots.
pub fn ensemble(side: usize, seed: u64, dir: &Path, ph: &mut Phases) -> EnsembleWorld {
    let cfg = TemporalConfig::compact();
    let hier = hierarchy(side);
    let (flow, val, truths) = timed(&mut ph.flow_s, || {
        let flow = serving_flow(side, seed);
        let val: Vec<usize> = (flow.len_t() - 8..flow.len_t()).collect();
        let truths = truth_pyramid(&hier, &flow, &val);
        (flow, val, truths)
    });
    let mut experts = timed(&mut ph.model_s, || {
        HotspotExpert::stripes(&hier, 2, 400, seed)
    });
    let plan = timed(&mut ph.plan_s, || {
        let mut refs: Vec<&mut dyn PyramidPredictor> = experts
            .iter_mut()
            .map(|e| e as &mut dyn PyramidPredictor)
            .collect();
        let profiles = profile_members(&mut refs, &flow, &cfg, &val);
        plan_ensemble(&hier, &profiles, &truths, &PlanOptions::default())
    });
    let plan = timed(&mut ph.artifacts_s, || {
        std::fs::create_dir_all(dir).expect("create artifact dir");
        let path = dir.join("plan.o4aens");
        save_plan(&plan, &path).expect("persist ensemble plan");
        load_plan(&path).expect("reload ensemble plan")
    });
    let slot = flow.len_t() - 1;
    let frames: Vec<Vec<Vec<f32>>> = timed(&mut ph.predict_s, || {
        plan.members
            .iter()
            .map(|name| {
                let mut member =
                    HotspotExpert::from_name(&plan.hier, name).expect("member name encodes config");
                member
                    .predict_pyramid(&flow, &cfg, &[slot])
                    .into_iter()
                    .map(|mut per_t| per_t.remove(0))
                    .collect()
            })
            .collect()
    });
    let stores = timed(&mut ph.publish_s, || {
        plan.members
            .iter()
            .zip(frames)
            .map(|(name, f)| {
                let store = Arc::new(PredictionStore::for_hierarchy_labeled(&plan.hier, name));
                store.publish_checked(f).expect("member snapshot matches");
                store
            })
            .collect()
    });
    EnsembleWorld { plan, stores }
}

/// Region masks stored 64 cells to a word: a 128×128 `Mask` holds one
/// byte per cell, and the cold pool keeps tens of thousands of them.
pub struct Pool {
    pub side: usize,
    packed: Vec<Vec<u64>>,
}

impl Pool {
    fn pack(m: &Mask) -> Vec<u64> {
        let mut words = vec![0u64; (m.h() * m.w()).div_ceil(64)];
        for (r, c) in m.iter_set() {
            let i = r * m.w() + c;
            words[i / 64] |= 1 << (i % 64);
        }
        words
    }

    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Mask `i` of the pool.
    pub fn mask(&self, i: usize) -> Mask {
        let words = &self.packed[i];
        let bits = (0..self.side * self.side)
            .map(|k| words[k / 64] >> (k % 64) & 1 == 1)
            .collect();
        Mask::from_bits(self.side, self.side, bits)
    }
}

/// The paper's four task mixes over a `side`×`side` raster, generated
/// from `seed` (138 masks at 32×32).
pub fn hot_pool(side: usize, seed: u64) -> Pool {
    let mut rng = SeededRng::new(seed);
    let packed = TaskSpec::standard_tasks(150.0)
        .into_iter()
        .flat_map(|spec| task_queries(side, side, spec, false, &mut rng))
        .map(|m| Pool::pack(&m))
        .collect();
    Pool { side, packed }
}

/// At least `min` distinct masks from the same task generators over
/// successive rounds of one seeded stream, shuffled once.
pub fn cold_pool(side: usize, seed: u64, min: usize) -> Pool {
    let mut rng = SeededRng::new(seed);
    let mut seen = HashSet::new();
    let mut packed = Vec::new();
    while packed.len() < min {
        for spec in TaskSpec::standard_tasks(150.0) {
            for m in task_queries(side, side, spec, false, &mut rng) {
                let words = Pool::pack(&m);
                if seen.insert(words.clone()) {
                    packed.push(words);
                }
            }
        }
    }
    for i in (1..packed.len()).rev() {
        packed.swap(i, rng.index(i + 1));
    }
    Pool { side, packed }
}
