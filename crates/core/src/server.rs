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
//! plan (any [`Resolver`]). Either way a query is a compiled plan
//! ([`crate::compiled`]) fetched from — or compiled into — the engine's
//! one [`ClockCache`], then executed against the member snapshots.

use crate::cache::{CacheKey, CacheMetrics, ClockCache};
use crate::combination::{term_value, Combination, CombinationIndex, SignedCell};
use crate::compiled::{compile_groups, with_scratch, CompiledPlan, Resolver, Term, TermSink};
use crate::frames::{FrameSet, FrameView};
use o4a_grid::decompose::{decompose, DecomposedGroup};
use o4a_grid::hierarchy::Hierarchy;
use o4a_grid::mask::Mask;
use o4a_obs::trace::{self, SpanEvent, SpanKind};
use o4a_obs::Histogram;
use parking_lot::RwLock;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The interpreted oracle: evaluates decomposed groups term by term
/// through the resolver's own walk ([`Resolver::resolve_group`]), reading
/// member `m`'s terms from `views[m]`.
///
/// It folds exactly as a compiled plan executes — each run from `0.0`, a
/// multi-grid group as its run, a cells group as `0.0 +` its runs, the
/// query as `0.0 +` its groups — so the two agree bit for bit. Tests and
/// the paper-experiment bins compare against it; the engine never
/// interprets.
pub fn interpret<R: Resolver>(
    resolver: &R,
    views: &[FrameView<'_>],
    groups: &[DecomposedGroup],
) -> f32 {
    struct Fold<'a, 'v> {
        hier: &'a Hierarchy,
        views: &'a [FrameView<'v>],
        run: f32,
        runs: f32,
        last: f32,
    }
    impl TermSink for Fold<'_, '_> {
        fn term(&mut self, t: Term) {
            let view = &self.views[t.member as usize];
            self.run += term_value(self.hier, view, t.cell, t.sign);
        }

        fn end_run(&mut self) {
            self.runs += self.run;
            self.last = self.run;
            self.run = 0.0;
        }
    }
    let mut total = 0.0f32;
    for group in groups {
        let mut fold = Fold {
            hier: resolver.hierarchy(),
            views,
            run: 0.0,
            runs: 0.0,
            last: 0.0,
        };
        let multi = resolver.resolve_group(group, &mut fold);
        total += if multi { fold.last } else { fold.runs };
    }
    total
}

/// Predicts a region query from per-layer frames through the interpreted
/// oracle: hierarchical decomposition (Algorithm 1), index lookups,
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
/// like it, so every snapshot an [`Engine`] reads matches the layout its
/// compiled plans address.
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

/// Compiled plans one engine retains. The unsharded entry points cache
/// one plan per hot *mask*, the shard leg one per decomposed *group*, and
/// a mask working set fans out to roughly an order of magnitude more
/// distinct groups (the serve fixture's 138-mask pool yields ~1.4k).
/// Single-group plans are a few hundred bytes, so the headroom costs
/// ~1-2 MB.
const PLAN_CACHE_CAP: usize = 4096;

/// Estimated pool-cost units (~scalar flop equivalents) of answering one
/// mask: a plan-cache lookup plus execution, a few microseconds of work.
/// Threaded into [`o4a_tensor::parallel::run`] so small batches (fewer
/// than `PARALLEL_CUTOFF / QUERY_COST` ≈ 64 masks) take the serial path
/// instead of paying the pool wake-up.
const QUERY_COST: usize = 8192;

/// What a compiled plan is cached under: the query mask (the unsharded
/// entry points), or one decomposed group (the shard leg, whose masks
/// the router decomposed).
#[derive(Debug, Clone, PartialEq, Eq)]
enum PlanKey {
    Mask(Mask),
    Group(DecomposedGroup),
}

/// The borrowed form of a [`PlanKey`] that lookups hash and compare, so a
/// cache hit never builds one.
#[derive(Clone, Copy)]
enum Key<'a> {
    Mask(&'a Mask),
    Group(&'a DecomposedGroup),
}

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        // a discriminant byte keeps the two keyspaces apart
        match self {
            Key::Mask(m) => {
                h.write_u8(0);
                m.hash(h);
            }
            Key::Group(g) => {
                h.write_u8(1);
                g.hash(h);
            }
        }
    }
}

impl CacheKey<PlanKey> for Key<'_> {
    fn matches(&self, key: &PlanKey) -> bool {
        match (self, key) {
            (Key::Mask(a), PlanKey::Mask(b)) => *a == b,
            (Key::Group(a), PlanKey::Group(b)) => *a == b,
            _ => false,
        }
    }

    fn to_key(&self) -> PlanKey {
        match *self {
            Key::Mask(m) => PlanKey::Mask(m.clone()),
            Key::Group(g) => PlanKey::Group(g.clone()),
        }
    }
}

/// Per-stage wall times of one answered unit: a mask, or one shard call's
/// groups.
#[derive(Debug, Clone, Copy, Default)]
struct Stages {
    decompose: Duration,
    lookup: Duration,
    aggregate: Duration,
}

/// The query-stage histograms (registered on first use): decompose,
/// lookup, aggregate, then terms per execution.
fn stage_histograms() -> [&'static Histogram; 4] {
    [
        o4a_obs::histogram!(
            "o4a_query_decompose_ns",
            "per-query hierarchical decomposition time (zero on a plan-cache hit)"
        ),
        o4a_obs::histogram!(
            "o4a_query_lookup_ns",
            "per-query plan-cache lookup time (including the compile on a miss)"
        ),
        o4a_obs::histogram!(
            "o4a_query_aggregate_ns",
            "per-query signed aggregation time over the prediction snapshots"
        ),
        o4a_obs::histogram!(
            "o4a_compiled_terms",
            "resolved terms per compiled query execution"
        ),
    ]
}

/// Start time of a trace span, or 0 when the call is untraced.
fn span_start(tid: u64) -> u64 {
    if tid != 0 {
        trace::now_ns()
    } else {
        0
    }
}

/// Emits a shard-leg stage span (a no-op when untraced).
fn emit_span(tid: u64, span: SpanKind, t_start_ns: u64, items: usize) {
    if tid != 0 {
        trace::emit(&SpanEvent {
            trace_id: tid,
            span: span as u16,
            parent: SpanKind::ShardScatter as u16,
            lane: 0,
            t_start_ns,
            t_end_ns: trace::now_ns(),
            bytes: items as u64,
        });
    }
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
/// per member, answering every query through compiled plans kept in one
/// [`ClockCache`] (keyed by mask, or by group on the shard leg, under the
/// resolver's epoch).
pub struct Engine<R> {
    resolver: R,
    stores: Vec<Arc<PredictionStore>>,
    plans: ClockCache<PlanKey, Arc<CompiledPlan>>,
    compiled_terms: AtomicU64,
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
    /// ([`PredictionStore::for_hierarchy`]) — so a snapshot whose layout
    /// the compiled plans do not address can never reach a query.
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
                "compiled-plan cache hits across all query engines",
            ),
            misses: reg.counter(
                "o4a_plan_cache_misses_total",
                "compiled-plan cache misses across all query engines",
            ),
            evictions: reg.counter(
                "o4a_plan_cache_evictions_total",
                "compiled plans evicted by the CLOCK cap",
            ),
            entries: reg.gauge("o4a_plan_cache_entries", "compiled plans currently cached"),
        };
        Engine {
            member_terms: resolver.register_metrics(),
            resolver,
            stores,
            plans: ClockCache::new(PLAN_CACHE_CAP, metrics),
            compiled_terms: AtomicU64::new(0),
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

    /// Get-or-compile → execute → record: the one path every query takes.
    ///
    /// Fetches each key's plan from the cache — decomposing a mask and
    /// compiling only on a miss — then executes the plans against
    /// `snaps`, writing one value per key into `out`: a mask's answer or
    /// a group's value. Stage times and term counts are recorded here and
    /// nowhere else, and so — on the shard leg, under the caller's
    /// shard-scatter span — are the lookup and aggregate trace spans.
    fn answer(
        &self,
        keys: &[Key<'_>],
        snaps: &[&FrameSet],
        out: &mut [f32],
        shard_leg: bool,
    ) -> Stages {
        // the shard leg runs on the caller's thread, so a sharded
        // request's trace id (set by the serving loop) is visible here
        let tid = if shard_leg { trace::current() } else { 0 };
        let epoch = self.resolver.epoch();
        let mut st = Stages::default();

        let lookup_ns = span_start(tid);
        let t0 = Instant::now();
        let plans: Vec<Arc<CompiledPlan>> = keys
            .iter()
            .map(|key| {
                self.plans.get_or_insert_with(key, epoch, || {
                    Arc::new(match *key {
                        Key::Mask(mask) => {
                            let t = Instant::now();
                            let groups = decompose(self.resolver.hierarchy(), mask);
                            st.decompose += t.elapsed();
                            compile_groups(&self.resolver, &groups)
                        }
                        Key::Group(group) => {
                            compile_groups(&self.resolver, std::slice::from_ref(group))
                        }
                    })
                })
            })
            .collect();
        st.lookup = t0.elapsed().saturating_sub(st.decompose);
        emit_span(tid, SpanKind::Lookup, lookup_ns, keys.len());

        let aggregate_ns = span_start(tid);
        let t1 = Instant::now();
        with_scratch(|s| {
            for ((key, plan), value) in keys.iter().zip(&plans).zip(out.iter_mut()) {
                let v = match key {
                    Key::Mask(_) => plan.execute_sum(snaps, s),
                    Key::Group(_) => plan.execute_one(snaps, s),
                };
                // stores are checked against the hierarchy at construction
                *value = v.expect("snapshot layout matches the compiled plan");
            }
        });
        st.aggregate = t1.elapsed();
        emit_span(tid, SpanKind::Aggregate, aggregate_ns, keys.len());

        let [decompose_h, lookup_h, aggregate_h, terms_h] = stage_histograms();
        decompose_h.record(st.decompose.as_nanos() as u64);
        lookup_h.record(st.lookup.as_nanos() as u64);
        aggregate_h.record(st.aggregate.as_nanos() as u64);
        let terms: u64 = plans.iter().map(|p| p.num_terms() as u64).sum();
        self.compiled_terms.fetch_add(terms, Ordering::Relaxed);
        terms_h.record(terms);
        for (m, hist) in self.member_terms.iter().enumerate() {
            hist.record(
                plans
                    .iter()
                    .map(|p| p.member_terms().get(m).map_or(0, |&n| n as u64))
                    .sum(),
            );
        }
        st
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

    /// `(hits, misses)` of the backend's mask → decomposition memo; zeros
    /// for a backend without one (an engine keys its plans by mask and
    /// decomposes only on a miss, so only a shard router keeps a memo).
    fn decomp_cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// `(hits, misses, evictions)` of the backend's compiled-plan cache;
    /// all zeros for a backend without one.
    fn plan_cache_stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    /// Total terms answered through compiled plans since start; `0` for a
    /// backend without them.
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

/// The batch path takes **one** snapshot per member up front — the whole
/// batch is answered against a consistent snapshot set even if a model
/// server publishes mid-batch — then fans the masks out across the
/// compute pool in [`o4a_tensor::parallel`]. Each task answers one mask
/// into its own output slot, so the result vector is identical to the
/// serial loop; the per-mask `QUERY_COST` estimate keeps small batches
/// on the caller thread, where the pool wake-up would cost more than the
/// whole batch. Stage times are measured inside each task and summed, so
/// they are total CPU time. Both entry points panic if a member store has
/// no published snapshot yet.
impl<R: Resolver> QueryBackend for Engine<R> {
    fn hierarchy(&self) -> &Hierarchy {
        self.resolver.hierarchy()
    }

    /// Whether every member store has published a snapshot, so a query
    /// never mixes a real member snapshot with an empty one.
    fn is_ready(&self) -> bool {
        self.stores.iter().all(|s| s.is_ready())
    }

    fn query_many_timed(&self, masks: &[Mask]) -> (Vec<f32>, QueryTiming) {
        let snaps = self.snapshots();
        let snaps: Vec<&FrameSet> = snaps.iter().map(|s| &**s).collect();
        let mut out = vec![0.0f32; masks.len()];
        let mut stages = vec![Stages::default(); masks.len()];
        let out_ptr = o4a_tensor::parallel::SendPtr(out.as_mut_ptr());
        let stages_ptr = o4a_tensor::parallel::SendPtr(stages.as_mut_ptr());
        o4a_tensor::parallel::run(masks.len(), QUERY_COST, |i| {
            // SAFETY: task `i` writes only slot `i` of each vector; both
            // outlive the blocking `run` call.
            let (value, st) = unsafe { (out_ptr.slice_mut(i, 1), stages_ptr.slice_mut(i, 1)) };
            st[0] = self.answer(&[Key::Mask(&masks[i])], &snaps, value, false);
        });
        let timing = QueryTiming {
            decompose: stages.iter().map(|s| s.decompose).sum(),
            index: stages.iter().map(|s| s.lookup + s.aggregate).sum(),
        };
        (out, timing)
    }

    fn query_groups_timed(&self, groups: &[DecomposedGroup]) -> (Vec<f32>, QueryTiming) {
        let snaps = self.snapshots();
        let snaps: Vec<&FrameSet> = snaps.iter().map(|s| &**s).collect();
        // one key per group: a shard's slice is a batch-dependent
        // concatenation of many masks' groups, so a whole-slice key would
        // almost never repeat, while individual groups recur across
        // batches
        let keys: Vec<Key<'_>> = groups.iter().map(Key::Group).collect();
        let mut out = vec![0.0f32; groups.len()];
        let st = self.answer(&keys, &snaps, &mut out, true);
        let timing = QueryTiming {
            decompose: st.decompose,
            index: st.lookup + st.aggregate,
        };
        (out, timing)
    }

    fn plan_cache_stats(&self) -> (u64, u64, u64) {
        self.plans.stats()
    }

    fn compiled_terms(&self) -> u64 {
        self.compiled_terms.load(Ordering::Relaxed)
    }

    fn plan_revision(&self) -> u64 {
        self.resolver.epoch()
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
        // the engine keeps no decomposition memo: one cache, keyed by mask
        assert_eq!(backend.decomp_cache_stats(), (0, 0));
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
        // repeat queries hit and skip decomposition entirely
        let (vt, timing) = server.query_timed(&a);
        assert_eq!(vt, va);
        assert_eq!(timing.decompose, Duration::ZERO);
        assert_eq!(server.query(&a), va);
        assert_eq!(server.plan_cache_stats(), (2, 1, 0));
        // a new mask misses; a batch mixing both counts two hits
        let _ = server.query(&b);
        assert_eq!(server.plan_cache_stats(), (2, 2, 0));
        let batch = server.query_many(&[a.clone(), b.clone()]);
        assert_eq!(batch[0], va);
        assert_eq!(server.plan_cache_stats(), (4, 2, 0));
        // the shard leg keys by group, apart from the mask keys
        let groups = decompose(server.hierarchy(), &a);
        let (values, timing) = server.query_groups_timed(&groups);
        assert_eq!(values.iter().fold(0.0f32, |acc, v| acc + v), va);
        assert_eq!(timing.decompose, Duration::ZERO);
        assert_eq!(server.plan_cache_stats().1, 2 + groups.len() as u64);
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
        assert!(server.plans.len() <= PLAN_CACHE_CAP);
        // 16 distinct masks, 4 rounds: first round misses, rest hit
        assert_eq!(server.plan_cache_stats(), (48, 16, 0));
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
