//! Online modifiable-areal-unit prediction (Sec. III and IV-D).
//!
//! The offline phase leaves two artifacts: the extended quad-tree of
//! optimal combinations and a continuously-refreshed snapshot of
//! multi-scale predictions (the paper stores both in HBase; here an
//! in-process [`PredictionStore`] guarded by a `parking_lot` lock plays
//! that role — the exercised query path is identical).
//!
//! Answering a region query costs *decomposition + index lookups +
//! aggregation* and never re-runs the model, which is what keeps response
//! times in the low milliseconds (Fig. 15). One [`Engine`] runs that path
//! for every backend: a [`RegionServer`] resolves groups through a
//! [`CombinationIndex`], an ensemble server through a per-region model
//! plan (any [`Resolver`]). Either way a query's decomposition comes from
//! the engine's one [`ClockCache`] (decomposed only on a miss), and
//! [`interpret`] walks it against the member snapshots.

use crate::cache::{CacheMetrics, ClockCache};
use crate::combination::{term_value, Combination, CombinationIndex, SignedCell};
use crate::frames::{FrameSet, FrameView};
use o4a_grid::decompose::{decompose, DecomposedGroup};
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_grid::mask::Mask;
use o4a_obs::trace::{self, SpanEvent, SpanKind};
use o4a_obs::Histogram;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One resolved term: `sign ×` member `member`'s snapshot value at `cell`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Term {
    /// The grid cell read.
    pub cell: LayerCell,
    /// `+1` or `-1`.
    pub sign: i8,
    /// The member store read (always `0` for a single-model index).
    pub member: u16,
}

/// Receives one group's resolution: its terms in evaluation order, each
/// run (one combination's terms) closed by [`TermSink::end_run`].
pub trait TermSink {
    /// The next term of the current run.
    fn term(&mut self, t: Term);
    /// Closes the current run.
    fn end_run(&mut self);
}

/// Collects the terms alone, dropping the run structure.
impl TermSink for Vec<Term> {
    fn term(&mut self, t: Term) {
        self.push(t);
    }

    fn end_run(&mut self) {}
}

/// What the query engine resolves decomposed groups through: a
/// single-model [`CombinationIndex`], or an ensemble plan whose terms
/// each name the member store they read.
pub trait Resolver: Send + Sync {
    /// One index entry: a combination of signed terms.
    type Entry;

    /// The hierarchy queries are decomposed against.
    fn hierarchy(&self) -> &Hierarchy;

    /// Member stores the terms read from (`1` for a single model).
    fn members(&self) -> usize;

    /// Revision of the resolver's entries, reported through STATS (`0`
    /// for a combination index, the plan revision for an ensemble).
    fn revision(&self) -> u64;

    /// The entry of a single grid, if the index has one.
    fn cell_entry(&self, cell: LayerCell) -> Option<&Self::Entry>;

    /// The entry of a multi-grid (a same-parent 2–3 cell group of a
    /// `K = 2` hierarchy), if the index has one.
    fn multi_entry(&self, group: &DecomposedGroup) -> Option<&Self::Entry>;

    /// An entry's terms, in evaluation order.
    fn entry_terms(entry: &Self::Entry) -> impl Iterator<Item = Term> + '_;

    /// Registers the resolver's own gauges and returns one served-terms
    /// histogram per member for the engine to sample per query; empty
    /// (the default) records none.
    fn register_metrics(&self) -> Vec<Arc<Histogram>> {
        Vec::new()
    }

    /// Resolves one decomposed group into `sink`, returning whether it hit
    /// a multi-grid entry (whose single run *is* the group value).
    /// Otherwise each member cell contributes one run — its entry, or the
    /// direct prediction (member 0) when the index has none, which only
    /// happens on a foreign index.
    fn resolve_group(&self, group: &DecomposedGroup, sink: &mut impl TermSink) -> bool {
        if group.len() >= 2 {
            if let Some(entry) = self.multi_entry(group) {
                Self::entry_terms(entry).for_each(|t| sink.term(t));
                sink.end_run();
                return true;
            }
        }
        let layer = group.layer();
        for (r, c) in group.cells() {
            let cell = LayerCell::new(layer, r, c);
            match self.cell_entry(cell) {
                Some(entry) => Self::entry_terms(entry).for_each(|t| sink.term(t)),
                None => sink.term(Term {
                    cell,
                    sign: 1,
                    member: 0,
                }),
            }
            sink.end_run();
        }
        false
    }
}

impl Resolver for CombinationIndex {
    type Entry = Combination;

    fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    fn members(&self) -> usize {
        1
    }

    fn revision(&self) -> u64 {
        0
    }

    fn cell_entry(&self, cell: LayerCell) -> Option<&Combination> {
        self.for_cell(cell)
    }

    fn multi_entry(&self, group: &DecomposedGroup) -> Option<&Combination> {
        self.tree.get_multi_group(group)
    }

    fn entry_terms(entry: &Combination) -> impl Iterator<Item = Term> + '_ {
        entry.terms.iter().map(|t| Term {
            cell: t.cell,
            sign: t.sign,
            member: 0,
        })
    }
}

/// Evaluates one decomposed group through the resolver's own walk
/// ([`Resolver::resolve_group`]), reading member `m`'s terms from
/// `views[m]` and adding each term read to `terms[m]` (when `terms` has
/// that slot; pass `&mut []` to count nothing).
///
/// Each run folds from `0.0`; a multi-grid group's value is its run, a
/// cells group's value is `0.0 +` its runs. The distinction shows in IEEE
/// `-0.0` (`0.0 + -0.0` is `+0.0`), and a shard router depends on it: it
/// folds per-group values back into the answer [`interpret`] gives.
pub(crate) fn group_value<R: Resolver>(
    resolver: &R,
    views: &[FrameView<'_>],
    group: &DecomposedGroup,
    terms: &mut [u64],
) -> f32 {
    struct Fold<'a, 'v> {
        hier: &'a Hierarchy,
        views: &'a [FrameView<'v>],
        terms: &'a mut [u64],
        run: f32,
        runs: f32,
        last: f32,
    }
    impl TermSink for Fold<'_, '_> {
        fn term(&mut self, t: Term) {
            // with one view every term is member 0's: matching on the
            // slice shape instead of indexing by `t.member` keeps the
            // view's loads out of the per-term path
            let (view, m) = match self.views {
                [only] => (only, 0),
                views => (&views[t.member as usize], t.member as usize),
            };
            if let Some(n) = self.terms.get_mut(m) {
                *n += 1;
            }
            self.run += term_value(self.hier, view, t.cell, t.sign);
        }

        fn end_run(&mut self) {
            self.runs += self.run;
            self.last = self.run;
            self.run = 0.0;
        }
    }
    let mut fold = Fold {
        hier: resolver.hierarchy(),
        views,
        terms,
        run: 0.0,
        runs: 0.0,
        last: 0.0,
    };
    if resolver.resolve_group(group, &mut fold) {
        fold.last
    } else {
        fold.runs
    }
}

/// [`interpret`], adding each term read to `terms[member]`.
fn interpret_counting<R: Resolver>(
    resolver: &R,
    views: &[FrameView<'_>],
    groups: &[DecomposedGroup],
    terms: &mut [u64],
) -> f32 {
    let mut total = 0.0f32;
    for group in groups {
        total += group_value(resolver, views, group, terms);
    }
    total
}

/// Answers a decomposed query: `0.0 +` each group's value in decompose
/// order, reading member `m`'s terms from `views[m]`. Every backend
/// answers through this walk, so it is also the oracle the tests and the
/// paper-experiment bins compare against.
pub fn interpret<R: Resolver>(
    resolver: &R,
    views: &[FrameView<'_>],
    groups: &[DecomposedGroup],
) -> f32 {
    interpret_counting(resolver, views, groups, &mut [])
}

/// Predicts a region query from per-layer frames: hierarchical
/// decomposition (Algorithm 1), then [`interpret`]'s index lookups and
/// signed aggregation.
pub fn predict_query(
    hier: &Hierarchy,
    index: &CombinationIndex,
    frames: &[Vec<f32>],
    mask: &Mask,
) -> f32 {
    interpret(index, &[FrameView::F32(frames)], &decompose(hier, mask))
}

/// The full signed combination a query resolves to under an index
/// (concatenation over its decomposed groups). Lets experiments compare
/// how different strategies decompose the same query (Table III).
pub fn query_combination(hier: &Hierarchy, index: &CombinationIndex, mask: &Mask) -> Combination {
    let mut terms: Vec<Term> = Vec::new();
    for group in decompose(hier, mask) {
        index.resolve_group(&group, &mut terms);
    }
    Combination {
        terms: terms
            .into_iter()
            .map(|t| SignedCell {
                cell: t.cell,
                sign: t.sign,
            })
            .collect(),
    }
}

/// Timing breakdown of one online query (Fig. 15 reports decomposition +
/// indexing time).
#[derive(Debug, Clone, Copy)]
pub struct QueryTiming {
    /// Time spent in hierarchical decomposition.
    pub decompose: Duration,
    /// Time spent retrieving combinations and aggregating.
    pub index: Duration,
}

impl QueryTiming {
    /// Total response time.
    pub fn total(&self) -> Duration {
        self.decompose + self.index
    }
}

/// A snapshot rejected by [`PredictionStore::publish_checked`]: its shape
/// does not match the hierarchy the store was created for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    /// Wrong number of per-layer frames.
    LayerCount {
        /// Layers in the rejected snapshot.
        got: usize,
        /// Layers the hierarchy has.
        want: usize,
    },
    /// One layer's flat vector has the wrong length.
    LayerLen {
        /// The offending layer.
        layer: usize,
        /// Cells in the rejected frame.
        got: usize,
        /// Cells the hierarchy's layer has.
        want: usize,
    },
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::LayerCount { got, want } => {
                write!(f, "snapshot has {got} layers, hierarchy has {want}")
            }
            PublishError::LayerLen { layer, got, want } => {
                write!(f, "layer {layer} frame has {got} cells, expected {want}")
            }
        }
    }
}

impl std::error::Error for PublishError {}

/// A shared snapshot of the latest multi-scale predictions. The model
/// server refreshes it at preset intervals; query engines read it
/// lock-free-ish via an `Arc` swap.
///
/// A store is built for one hierarchy and only accepts snapshots shaped
/// like it, so every snapshot an [`Engine`] reads has a value for every
/// cell its resolver can name.
///
/// Snapshots default to f32 storage. [`PredictionStore::set_half_storage`]
/// switches subsequent publishes to IEEE binary16 frames — half the
/// resident bytes, values widened per read during aggregation, with the
/// per-term error bound documented in [`crate::frames`].
#[derive(Debug)]
pub struct PredictionStore {
    frames: RwLock<Arc<FrameSet>>,
    /// Expected flat length per layer.
    expected: Vec<usize>,
    /// When set, publishes narrow the snapshot to f16 storage.
    half: AtomicBool,
    /// Optional name (typically the member model served), included in the
    /// publish-rejection log line so deployments with several member
    /// stores can tell which snapshot was malformed.
    label: Option<String>,
}

impl PredictionStore {
    /// Creates a store that only accepts snapshots shaped like `hier`
    /// (one frame per layer, each with that layer's cell count).
    pub fn for_hierarchy(hier: &Hierarchy) -> Self {
        PredictionStore {
            frames: RwLock::new(Arc::new(FrameSet::default())),
            expected: (0..hier.num_layers()).map(|l| hier.layer_len(l)).collect(),
            half: AtomicBool::new(false),
            label: None,
        }
    }

    /// Whether the store was built for `hier`'s layer geometry.
    pub fn built_for(&self, hier: &Hierarchy) -> bool {
        self.expected.len() == hier.num_layers()
            && (0..hier.num_layers()).all(|l| self.expected[l] == hier.layer_len(l))
    }

    /// [`PredictionStore::for_hierarchy`] with a label naming the store
    /// (the member model it serves). An ensemble deployment holds one
    /// store per member; without the label a publish-rejection log line
    /// cannot say *which* member pushed the malformed snapshot.
    pub fn for_hierarchy_labeled(hier: &Hierarchy, label: impl Into<String>) -> Self {
        PredictionStore {
            label: Some(label.into()),
            ..Self::for_hierarchy(hier)
        }
    }

    /// The store's label, if one was given at construction.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Switches the storage precision of *subsequent* publishes: `true`
    /// narrows each published snapshot to f16 bit patterns (half the
    /// payload bytes), `false` (the default) keeps f32. The currently
    /// published snapshot is left as-is until the next publish.
    pub fn set_half_storage(&self, on: bool) {
        self.half.store(on, Ordering::Relaxed);
    }

    /// Whether subsequent publishes narrow to f16 storage.
    pub fn half_storage(&self) -> bool {
        self.half.load(Ordering::Relaxed)
    }

    /// Checks a snapshot against the expected shape without publishing.
    pub fn validate(&self, frames: &[Vec<f32>]) -> Result<(), PublishError> {
        let expected = &self.expected;
        if frames.len() != expected.len() {
            return Err(PublishError::LayerCount {
                got: frames.len(),
                want: expected.len(),
            });
        }
        for (layer, (frame, &want)) in frames.iter().zip(expected).enumerate() {
            if frame.len() != want {
                return Err(PublishError::LayerLen {
                    layer,
                    got: frame.len(),
                    want,
                });
            }
        }
        Ok(())
    }

    /// Publishes a new multi-scale snapshot (`frames[layer]` flat),
    /// rejecting one whose shape does not match the store's hierarchy.
    /// With [`PredictionStore::set_half_storage`] on, the snapshot is
    /// narrowed to f16 storage before the swap.
    pub fn publish_checked(&self, frames: Vec<Vec<f32>>) -> Result<(), PublishError> {
        self.validate(&frames)?;
        let set = if self.half_storage() {
            FrameSet::narrow(frames)
        } else {
            FrameSet::from_f32(frames)
        };
        *self.frames.write() = Arc::new(set);
        Ok(())
    }

    /// Publishes a new multi-scale snapshot (`frames[layer]` flat). A
    /// malformed snapshot is error-logged and dropped — readers keep the
    /// previous snapshot instead of serving garbage.
    pub fn publish(&self, frames: Vec<Vec<f32>>) {
        if let Err(e) = self.publish_checked(frames) {
            o4a_obs::counter!(
                "o4a_store_publish_rejected_total",
                "malformed prediction snapshots dropped by the store"
            )
            .inc();
            match self.label() {
                Some(name) => o4a_obs::error!(
                    "core",
                    "PredictionStore[{}]: dropping malformed snapshot: {}",
                    name,
                    e
                ),
                None => o4a_obs::error!(
                    "core",
                    "PredictionStore: dropping malformed snapshot: {}",
                    e
                ),
            }
        }
    }

    /// Grabs the current snapshot (in whichever storage precision it was
    /// published); evaluate through [`FrameSet::view`].
    pub fn snapshot(&self) -> Arc<FrameSet> {
        self.frames.read().clone()
    }

    /// Whether a snapshot has been published.
    pub fn is_ready(&self) -> bool {
        !self.frames.read().is_empty()
    }
}

/// The query-stage histograms (registered on first use): decompose,
/// aggregate (which includes the index lookups), then terms per answer.
fn stage_histograms() -> [&'static Histogram; 3] {
    [
        o4a_obs::histogram!(
            "o4a_query_decompose_ns",
            "per-query decomposition-cache probe, plus the decomposition on a miss"
        ),
        o4a_obs::histogram!(
            "o4a_query_aggregate_ns",
            "per-query index lookups and signed aggregation over the snapshots \
             (per shard call on the shard leg)"
        ),
        o4a_obs::histogram!(
            "o4a_compiled_terms",
            "resolved terms read per query (per shard call on the shard leg)"
        ),
    ]
}

/// The prediction stores an [`Engine`] answers from, one per resolver
/// member: a single store for a [`RegionServer`], a list for an ensemble.
pub struct MemberStores(Vec<Arc<PredictionStore>>);

impl From<Arc<PredictionStore>> for MemberStores {
    fn from(store: Arc<PredictionStore>) -> Self {
        MemberStores(vec![store])
    }
}

impl From<Vec<Arc<PredictionStore>>> for MemberStores {
    fn from(stores: Vec<Arc<PredictionStore>>) -> Self {
        MemberStores(stores)
    }
}

/// The online query engine: a [`Resolver`] over one [`PredictionStore`]
/// per member. Each mask's decomposition comes from one [`ClockCache`],
/// and [`interpret`] answers it.
pub struct Engine<R> {
    resolver: R,
    stores: Vec<Arc<PredictionStore>>,
    decompositions: ClockCache<Mask, Arc<[DecomposedGroup]>>,
    terms_answered: AtomicU64,
    /// Per member: terms read from that member per query (empty when the
    /// resolver registers none). Per-member *time* cannot be measured
    /// without splitting the accumulation by member, which would change
    /// the reduction order — term counts are the per-member signal.
    member_terms: Vec<Arc<Histogram>>,
}

/// The single-model query engine: one combination index over one store.
pub type RegionServer = Engine<CombinationIndex>;

impl<R: Resolver> Engine<R> {
    /// Creates an engine over a resolver and its member stores
    /// (`stores[m]` backs member `m`).
    ///
    /// # Panics
    /// Panics unless there is one store per member and every store was
    /// built for the resolver's hierarchy
    /// ([`PredictionStore::for_hierarchy`]) — so a snapshot without a
    /// value for some cell the resolver names can never reach a query.
    pub fn new(resolver: R, stores: impl Into<MemberStores>) -> Self {
        let stores = stores.into().0;
        assert!(resolver.members() > 0, "resolver has no members");
        assert_eq!(
            stores.len(),
            resolver.members(),
            "one prediction store per plan member"
        );
        assert!(
            stores.iter().all(|s| s.built_for(resolver.hierarchy())),
            "a prediction store was built for another hierarchy"
        );
        // Resolve the kernel ISA dispatch now so the o4a_isa_* gauges are
        // registered before the first scrape (and the choice is logged
        // during bring-up rather than mid-query), and pre-register the
        // stage histograms so a scrape before the first query exposes
        // them at zero.
        let _ = o4a_tensor::isa::active();
        let _ = stage_histograms();
        let reg = o4a_obs::global();
        let metrics = CacheMetrics {
            hits: reg.counter(
                "o4a_plan_cache_hits_total",
                "mask -> decomposition cache hits across all query engines",
            ),
            misses: reg.counter(
                "o4a_plan_cache_misses_total",
                "mask -> decomposition cache misses across all query engines",
            ),
            evictions: reg.counter(
                "o4a_plan_cache_evictions_total",
                "decompositions the query engines' CLOCK caps evicted",
            ),
            entries: reg.gauge(
                "o4a_plan_cache_entries",
                "decompositions the query engines currently cache",
            ),
        };
        Engine {
            member_terms: resolver.register_metrics(),
            resolver,
            stores,
            decompositions: ClockCache::decompositions(metrics),
            terms_answered: AtomicU64::new(0),
        }
    }

    /// The plan queries resolve through: a [`RegionServer`]'s
    /// combination index, or an ensemble's per-region model plan.
    pub fn plan(&self) -> &R {
        &self.resolver
    }

    /// Answers a region query against the latest published snapshots.
    ///
    /// # Panics
    /// Panics if a member store has no published snapshot yet.
    pub fn query(&self, mask: &Mask) -> f32 {
        self.query_timed(mask).0
    }

    /// [`Engine::query`] with its timing breakdown.
    pub fn query_timed(&self, mask: &Mask) -> (f32, QueryTiming) {
        let (values, timing) = self.query_many_timed(std::slice::from_ref(mask));
        (values[0], timing)
    }

    /// [`QueryBackend::query_many_timed`] without the timing.
    pub fn query_many(&self, masks: &[Mask]) -> Vec<f32> {
        self.query_many_timed(masks).0
    }

    /// One consistent snapshot per member, taken up front.
    fn snapshots(&self) -> Vec<Arc<FrameSet>> {
        let snaps: Vec<Arc<FrameSet>> = self.stores.iter().map(|s| s.snapshot()).collect();
        assert!(
            snaps.iter().all(|s| !s.is_empty()),
            "no prediction snapshot published"
        );
        snaps
    }

    /// Records one answer's term counts (`terms[m]` read from member `m`)
    /// into the term histograms, returning their total.
    fn record_terms(&self, terms: &[u64]) -> u64 {
        let [_, _, terms_h] = stage_histograms();
        let total = terms.iter().sum();
        terms_h.record(total);
        for (hist, &n) in self.member_terms.iter().zip(terms) {
            hist.record(n);
        }
        total
    }
}

impl Engine<CombinationIndex> {
    /// The underlying index ([`Engine::plan`] under its single-model
    /// name).
    pub fn index(&self) -> &CombinationIndex {
        &self.resolver
    }
}

/// What the serving layer needs from a query backend: an [`Engine`] over
/// either resolver, or a shard router over engines, all answer region
/// queries as pure lookup + aggregate, so `o4a_serve` runs any of them
/// behind this trait without knowing which.
pub trait QueryBackend: Send + Sync {
    /// The hierarchy queries are decomposed against.
    fn hierarchy(&self) -> &Hierarchy;

    /// Whether every prediction snapshot the backend answers from has been
    /// published (the serving layer refuses traffic until then).
    fn is_ready(&self) -> bool;

    /// Answers a batch of masks against one consistent snapshot (set),
    /// reporting the aggregate per-stage CPU time.
    fn query_many_timed(&self, masks: &[Mask]) -> (Vec<f32>, QueryTiming);

    /// Evaluates already-decomposed groups against one consistent
    /// snapshot, one value per group in input order — the scatter leg of
    /// sharded serving. A router splits a mask's decomposition by shard
    /// ownership, calls this on each shard, and folds the per-group
    /// values back in the original decompose order; each group's
    /// accumulation is self-contained, so the fold is bit-identical to
    /// the unsharded answer. `QueryTiming.decompose` is zero
    /// (decomposition happened at the router).
    fn query_groups_timed(&self, groups: &[DecomposedGroup]) -> (Vec<f32>, QueryTiming);

    /// `(hits, misses)` of the backend's mask → decomposition cache;
    /// zeros for a backend without one.
    fn decomp_cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// `(hits, misses, evictions)` of the same cache (the STATS plan-cache
    /// fields, until STATS is revised); all zeros for a backend without
    /// one.
    fn plan_cache_stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    /// Total resolved terms read to answer queries since start; `0` for a
    /// backend that reads none itself.
    fn compiled_terms(&self) -> u64 {
        0
    }

    /// Revision of the active ensemble plan; `0` for a single-model
    /// backend (reported through the STATS verb).
    fn plan_revision(&self) -> u64 {
        0
    }

    /// Decomposed groups routed to each shard since start, in shard
    /// order. Empty for unsharded backends; a shard router overrides
    /// this so STATS can surface load imbalance.
    fn shard_loads(&self) -> Vec<u64> {
        Vec::new()
    }
}

/// Both entry points take **one** snapshot per member up front, so a whole
/// call is answered against a consistent snapshot set even if a model
/// server publishes mid-call, and then answer serially on the caller's
/// thread (the serving event loops are the parallelism). Stage times are
/// summed per mask, so they are total CPU time. Both panic if a member
/// store has no published snapshot yet.
impl<R: Resolver> QueryBackend for Engine<R> {
    fn hierarchy(&self) -> &Hierarchy {
        self.resolver.hierarchy()
    }

    /// Whether every member store has published a snapshot, so a query
    /// never mixes a real member snapshot with an empty one.
    fn is_ready(&self) -> bool {
        self.stores.iter().all(|s| s.is_ready())
    }

    /// Per mask: the cache probe (decomposing on a miss) is the decompose
    /// stage, [`interpret`] the index stage.
    fn query_many_timed(&self, masks: &[Mask]) -> (Vec<f32>, QueryTiming) {
        let snaps = self.snapshots();
        let views: Vec<FrameView<'_>> = snaps.iter().map(|s| s.view()).collect();
        let hier = self.resolver.hierarchy();
        let [decompose_h, aggregate_h, _] = stage_histograms();
        let mut terms = vec![0u64; views.len()];
        let mut total_terms = 0u64;
        let mut timing = QueryTiming {
            decompose: Duration::ZERO,
            index: Duration::ZERO,
        };
        let mut out = Vec::with_capacity(masks.len());
        for mask in masks {
            let t0 = Instant::now();
            let groups = self.decompositions.decomposition(hier, mask);
            let t1 = Instant::now();
            terms.fill(0);
            out.push(interpret_counting(
                &self.resolver,
                &views,
                &groups,
                &mut terms,
            ));
            let t2 = Instant::now();
            decompose_h.record((t1 - t0).as_nanos() as u64);
            aggregate_h.record((t2 - t1).as_nanos() as u64);
            timing.decompose += t1 - t0;
            timing.index += t2 - t1;
            total_terms += self.record_terms(&terms);
        }
        self.terms_answered
            .fetch_add(total_terms, Ordering::Relaxed);
        (out, timing)
    }

    /// Evaluates each group to its own value and caches nothing: a shard's
    /// slice is a batch-dependent concatenation of many masks' groups, and
    /// the router already caches each mask's decomposition. The whole call
    /// is one aggregate stage, traced under the caller's shard-scatter
    /// span.
    fn query_groups_timed(&self, groups: &[DecomposedGroup]) -> (Vec<f32>, QueryTiming) {
        let snaps = self.snapshots();
        let views: Vec<FrameView<'_>> = snaps.iter().map(|s| s.view()).collect();
        // the shard leg runs on the caller's thread, so a sharded
        // request's trace id (set by the serving loop) is visible here
        let tid = trace::current();
        let t_start_ns = if tid != 0 { trace::now_ns() } else { 0 };
        let t0 = Instant::now();
        let mut terms = vec![0u64; views.len()];
        let values = groups
            .iter()
            .map(|group| group_value(&self.resolver, &views, group, &mut terms))
            .collect();
        let index = t0.elapsed();
        if tid != 0 {
            trace::emit(&SpanEvent {
                trace_id: tid,
                span: SpanKind::Aggregate as u16,
                parent: SpanKind::ShardScatter as u16,
                lane: 0,
                t_start_ns,
                t_end_ns: trace::now_ns(),
                bytes: groups.len() as u64,
            });
        }
        let [_, aggregate_h, _] = stage_histograms();
        aggregate_h.record(index.as_nanos() as u64);
        let total_terms = self.record_terms(&terms);
        self.terms_answered
            .fetch_add(total_terms, Ordering::Relaxed);
        (
            values,
            QueryTiming {
                decompose: Duration::ZERO,
                index,
            },
        )
    }

    fn decomp_cache_stats(&self) -> (u64, u64) {
        let (hits, misses, _) = self.decompositions.stats();
        (hits, misses)
    }

    fn plan_cache_stats(&self) -> (u64, u64, u64) {
        self.decompositions.stats()
    }

    fn compiled_terms(&self) -> u64 {
        self.terms_answered.load(Ordering::Relaxed)
    }

    fn plan_revision(&self) -> u64 {
        self.resolver.revision()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combination::{search_optimal_combinations, SearchStrategy};

    fn hier4() -> Hierarchy {
        Hierarchy::new(4, 4, 2, 3).unwrap()
    }

    /// Exact predictions at every scale: any strategy must then reproduce
    /// the ground-truth region sums exactly.
    fn exact_setup() -> (Hierarchy, CombinationIndex, Vec<Vec<f32>>) {
        let hier = hier4();
        // atomic truth frame: value r*4+c
        let atomic: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let mut frames = vec![atomic.clone()];
        for layer in 1..3 {
            let s = hier.scale(layer);
            let (lh, lw) = hier.layer_dims(layer);
            let mut f = vec![0.0f32; lh * lw];
            for r in 0..4 {
                for c in 0..4 {
                    f[(r / s) * lw + c / s] += atomic[r * 4 + c];
                }
            }
            frames.push(f);
        }
        let preds: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone(); 2]).collect();
        let index =
            search_optimal_combinations(&hier, &preds, &preds, SearchStrategy::UnionSubtraction);
        (hier, index, frames)
    }

    /// A region server over the exact setup with its snapshot published.
    fn exact_server() -> RegionServer {
        let (hier, index, frames) = exact_setup();
        let store = Arc::new(PredictionStore::for_hierarchy(&hier));
        store.publish(frames);
        RegionServer::new(index, store)
    }

    #[test]
    fn exact_predictions_give_exact_region_sums() {
        let (hier, index, frames) = exact_setup();
        for mask in [
            Mask::rect(4, 4, 0, 0, 2, 2),
            Mask::rect(4, 4, 1, 1, 3, 4),
            Mask::rect(4, 4, 0, 0, 4, 4),
            Mask::rect(4, 4, 2, 3, 3, 4),
        ] {
            let expected: f32 = mask.iter_set().map(|(r, c)| (r * 4 + c) as f32).sum();
            let got = predict_query(&hier, &index, &frames, &mask);
            assert!(
                (got - expected).abs() < 1e-4,
                "mask sum {got} != {expected}\n{mask}"
            );
        }
    }

    #[test]
    fn store_publish_snapshot() {
        let store = PredictionStore::for_hierarchy(&hier4());
        assert!(!store.is_ready());
        store.publish(vec![vec![1.0; 16], vec![2.0; 4], vec![3.0]]);
        assert!(store.is_ready());
        assert_eq!(store.snapshot().layer_to_f32(2), vec![3.0]);
        // publishing again swaps the snapshot
        store.publish(vec![vec![1.0; 16], vec![2.0; 4], vec![4.0]]);
        assert_eq!(store.snapshot().layer_to_f32(2), vec![4.0]);
    }

    #[test]
    fn half_storage_narrows_subsequent_publishes() {
        let store = PredictionStore::for_hierarchy(&hier4());
        let frames = || vec![vec![1.5; 16], vec![-2.25; 4], vec![4.0]];
        assert!(!store.half_storage());
        store.publish(frames());
        assert!(!store.snapshot().is_half());
        store.set_half_storage(true);
        // the already-published snapshot is untouched until the next swap
        assert!(!store.snapshot().is_half());
        store.publish(frames());
        let snap = store.snapshot();
        assert!(snap.is_half());
        // these values are f16-exact, so storage is lossless here
        assert_eq!(snap.layer_to_f32(1), vec![-2.25; 4]);
        store.set_half_storage(false);
        store.publish(frames());
        assert!(!store.snapshot().is_half());
    }

    #[test]
    fn server_query_and_timing() {
        let server = exact_server();
        let mask = Mask::rect(4, 4, 0, 0, 2, 4);
        let (v, timing) = server.query_timed(&mask);
        let expected: f32 = mask.iter_set().map(|(r, c)| (r * 4 + c) as f32).sum();
        assert!((v - expected).abs() < 1e-4);
        assert!(timing.total() >= timing.decompose);
        assert_eq!(server.query(&mask), v);
        assert_eq!(server.query_many(std::slice::from_ref(&mask)), vec![v]);
    }

    #[test]
    fn checked_store_rejects_malformed_snapshots() {
        let hier = hier4();
        let store = PredictionStore::for_hierarchy(&hier);
        // wrong layer count
        assert_eq!(
            store.publish_checked(vec![vec![0.0; 16]]),
            Err(PublishError::LayerCount { got: 1, want: 3 })
        );
        // wrong per-layer length
        assert_eq!(
            store.publish_checked(vec![vec![0.0; 16], vec![0.0; 3], vec![0.0; 1]]),
            Err(PublishError::LayerLen {
                layer: 1,
                got: 3,
                want: 4
            })
        );
        // publish() drops the bad snapshot instead of serving it
        store.publish(vec![vec![1.0; 16]]);
        assert!(!store.is_ready());
        // a correctly shaped snapshot goes through
        store
            .publish_checked(vec![vec![2.0; 16], vec![2.0; 4], vec![2.0; 1]])
            .unwrap();
        assert!(store.is_ready());
        // the store knows which geometry it was built for
        assert!(store.built_for(&hier));
        assert!(!store.built_for(&Hierarchy::new(4, 4, 2, 2).unwrap()));
        assert!(!store.built_for(&Hierarchy::new(8, 8, 2, 3).unwrap()));
    }

    #[test]
    fn labeled_store_names_itself() {
        let hier = hier4();
        let store = PredictionStore::for_hierarchy_labeled(&hier, "gbdt");
        assert_eq!(store.label(), Some("gbdt"));
        // the label changes only the log line, never the accept/reject
        // decision: malformed snapshots are still dropped...
        store.publish(vec![vec![1.0; 3]]);
        assert!(!store.is_ready());
        // ...and well-formed ones still land
        store.publish(vec![vec![2.0; 16], vec![2.0; 4], vec![2.0; 1]]);
        assert!(store.is_ready());
        assert_eq!(PredictionStore::for_hierarchy(&hier).label(), None);
    }

    #[test]
    fn region_server_is_a_query_backend() {
        let server = exact_server();
        let backend: &dyn QueryBackend = &server;
        assert!(backend.is_ready());
        assert_eq!(backend.plan_revision(), 0);
        let mask = Mask::rect(4, 4, 0, 0, 2, 2);
        let (vals, _) = backend.query_many_timed(std::slice::from_ref(&mask));
        assert_eq!(vals, vec![server.query(&mask)]);
        // one cache, reported through both methods until STATS is revised
        assert_eq!(backend.decomp_cache_stats(), (1, 1));
        assert_eq!(backend.plan_cache_stats(), (1, 1, 0));
        assert_eq!(backend.hierarchy().h(), 4);
    }

    #[test]
    fn plan_cache_counts_hits_and_misses() {
        let server = exact_server();
        let a = Mask::rect(4, 4, 0, 0, 2, 2);
        let b = Mask::rect(4, 4, 1, 1, 3, 4);
        assert_eq!(server.plan_cache_stats(), (0, 0, 0));
        let va = server.query(&a);
        assert_eq!(server.plan_cache_stats(), (0, 1, 0));
        let terms = server.compiled_terms();
        assert!(terms > 0);
        // repeat queries hit and read the same terms again
        let (vt, _) = server.query_timed(&a);
        assert_eq!(vt, va);
        assert_eq!(server.compiled_terms(), 2 * terms);
        assert_eq!(server.query(&a), va);
        assert_eq!(server.plan_cache_stats(), (2, 1, 0));
        // a new mask misses; a batch mixing both counts two hits
        let _ = server.query(&b);
        assert_eq!(server.plan_cache_stats(), (2, 2, 0));
        let batch = server.query_many(&[a.clone(), b.clone()]);
        assert_eq!(batch[0], va);
        assert_eq!(server.plan_cache_stats(), (4, 2, 0));
        // the shard leg evaluates the groups it is handed and leaves the
        // cache untouched
        let groups = decompose(server.hierarchy(), &a);
        let before = server.compiled_terms();
        let (values, timing) = server.query_groups_timed(&groups);
        assert_eq!(values.iter().fold(0.0f32, |acc, v| acc + v), va);
        assert_eq!(timing.decompose, Duration::ZERO);
        assert_eq!(server.plan_cache_stats(), (4, 2, 0));
        assert_eq!(server.compiled_terms() - before, terms);
    }

    #[test]
    fn plan_cache_stays_bounded() {
        let server = exact_server();
        for round in 0..4 {
            for r in 0..4 {
                for c in 0..4 {
                    let m = Mask::rect(4, 4, r, c, r + 1, c + 1);
                    let v = server.query(&m);
                    assert!(v.is_finite(), "round {round}");
                }
            }
        }
        assert!(server.decompositions.len() <= crate::cache::DECOMP_CACHE_CAP);
        // 16 distinct masks, 4 rounds: first round misses, rest hit
        assert_eq!(server.plan_cache_stats(), (48, 16, 0));
    }

    /// The resolver walk hands out exactly the index's terms, and a
    /// foreign index (no entries) resolves every cell to its direct
    /// prediction.
    #[test]
    fn resolve_group_falls_back_to_direct_predictions() {
        let (hier, index, _) = exact_setup();
        let mut foreign = index.clone();
        foreign.tree = o4a_grid::quadtree::ExtendedQuadTree::new(&hier);
        let pair = decompose(&hier, &Mask::rect(4, 4, 0, 0, 1, 2))[0];
        assert_eq!(pair.cells().collect::<Vec<_>>(), vec![(0, 0), (0, 1)]);
        let mut terms: Vec<Term> = Vec::new();
        index.resolve_group(&pair, &mut terms);
        assert!(!terms.is_empty());
        let mut direct: Vec<Term> = Vec::new();
        assert!(!foreign.resolve_group(&pair, &mut direct));
        assert_eq!(
            direct,
            vec![
                Term {
                    cell: LayerCell::new(0, 0, 0),
                    sign: 1,
                    member: 0
                },
                Term {
                    cell: LayerCell::new(0, 0, 1),
                    sign: 1,
                    member: 0
                },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "no prediction snapshot")]
    fn query_before_publish_panics() {
        let (hier, index, _) = exact_setup();
        let server = RegionServer::new(index, Arc::new(PredictionStore::for_hierarchy(&hier)));
        server.query(&Mask::rect(4, 4, 0, 0, 1, 1));
    }

    #[test]
    #[should_panic(expected = "one prediction store per plan member")]
    fn store_count_must_match_the_members() {
        let (hier, index, _) = exact_setup();
        let store = Arc::new(PredictionStore::for_hierarchy(&hier));
        RegionServer::new(index, vec![store.clone(), store]);
    }

    #[test]
    fn concurrent_publish_and_query() {
        let (hier, index, frames) = exact_setup();
        let store = Arc::new(PredictionStore::for_hierarchy(&hier));
        store.publish(frames.clone());
        let server = Arc::new(RegionServer::new(index, store.clone()));
        let mask = Mask::rect(4, 4, 0, 0, 2, 2);
        // model server refreshes while query engines answer
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let server = server.clone();
                let store = store.clone();
                let mask = mask.clone();
                let frames = frames.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        if i == 0 {
                            store.publish(frames.clone());
                        } else {
                            let v = server.query(&mask);
                            assert!(v.is_finite());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread panicked");
        }
    }
}
