//! The benchmark's tracing: a [`QueryBackend`] timing wrapper and an
//! in-memory span log.
//!
//! The wrapper times every call into the backend it wraps and records a
//! span carrying the call's `QueryTiming`. Wrapped calls nest on one
//! thread (a router calls its shards synchronously), so a thread-local
//! "current span" links each shard span to the router span that caused
//! it. Spans buffer per thread and are drained when the run ends.

use o4a_core::server::{QueryBackend, QueryTiming};
use o4a_grid::decompose::DecomposedGroup;
use o4a_grid::hierarchy::Hierarchy;
use o4a_grid::mask::Mask;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One client round trip (client thread).
    Request,
    /// One call into the served backend (executor thread).
    Served,
    /// One call into a shard behind the router (executor thread).
    Shard,
}

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The enclosing span on the same thread, or 0.
    pub parent: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// On-CPU time of the recording thread within the span (0 for client
    /// requests, which mostly wait).
    pub cpu_ns: u64,
    /// Masks (or decomposed groups, for a shard) the call answered.
    pub items: u64,
    /// The call's reported decomposition time.
    pub decompose_ns: u64,
    /// The call's reported lookup + aggregation time.
    pub index_ns: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Per-thread span buffer, moved to [`SINK`] when full and at thread
/// exit (server threads exit inside `ServerHandle::shutdown`, clients
/// before their scope joins).
struct Buf(Vec<Span>);

impl Buf {
    fn flush(&mut self) {
        if let Ok(mut sink) = SINK.lock() {
            sink.append(&mut self.0);
        }
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<Buf> = const { RefCell::new(Buf(Vec::new())) };
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds on the benchmark's span clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fresh span id.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Appends a span to this thread's buffer.
pub fn record(span: Span) {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.0.push(span);
        if b.0.len() >= 4096 {
            b.flush();
        }
    });
}

/// Takes every span recorded so far. Threads that recorded spans must
/// have exited (or be the caller).
pub fn drain() -> Vec<Span> {
    BUF.with(|b| b.borrow_mut().flush());
    std::mem::take(&mut *SINK.lock().expect("span sink poisoned"))
}

/// Totals of one span kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub items: u64,
    pub total_ns: u64,
    pub cpu_ns: u64,
    /// On-CPU time minus the on-CPU time of child spans.
    pub self_cpu_ns: u64,
    pub decompose_ns: u64,
    pub index_ns: u64,
}

/// Per-kind totals over a span log.
pub fn summarize(spans: &[Span]) -> HashMap<&'static str, Totals> {
    let mut child_cpu: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_cpu.entry(s.parent).or_default() += s.cpu_ns;
    }
    let mut out: HashMap<&'static str, Totals> = HashMap::new();
    for s in spans {
        let name = match s.kind {
            Kind::Request => "request",
            Kind::Served => "served",
            Kind::Shard => "shard",
        };
        let t = out.entry(name).or_default();
        t.count += 1;
        t.items += s.items;
        t.total_ns += s.end_ns - s.start_ns;
        t.cpu_ns += s.cpu_ns;
        t.self_cpu_ns += s
            .cpu_ns
            .saturating_sub(child_cpu.get(&s.id).copied().unwrap_or(0));
        t.decompose_ns += s.decompose_ns;
        t.index_ns += s.index_ns;
    }
    out
}

/// A [`QueryBackend`] that times every query call into `inner` and
/// forwards every other method unchanged.
pub struct Timed {
    inner: Arc<dyn QueryBackend>,
    kind: Kind,
}

impl Timed {
    pub fn new(inner: Arc<dyn QueryBackend>, kind: Kind) -> Timed {
        Timed { inner, kind }
    }

    fn time(
        &self,
        items: usize,
        call: impl FnOnce() -> (Vec<f32>, QueryTiming),
    ) -> (Vec<f32>, QueryTiming) {
        let id = next_id();
        let parent = CURRENT.with(|c| c.replace(id));
        let start_ns = now_ns();
        let cpu0 = crate::host::thread_cpu_ns();
        let (values, timing) = call();
        let cpu_ns = crate::host::thread_cpu_ns().saturating_sub(cpu0);
        let end_ns = now_ns();
        CURRENT.with(|c| c.set(parent));
        record(Span {
            id,
            parent,
            kind: self.kind,
            start_ns,
            end_ns,
            cpu_ns,
            items: items as u64,
            decompose_ns: timing.decompose.as_nanos() as u64,
            index_ns: timing.index.as_nanos() as u64,
        });
        (values, timing)
    }
}

impl QueryBackend for Timed {
    fn hierarchy(&self) -> &Hierarchy {
        self.inner.hierarchy()
    }

    fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }

    fn query_many_timed(&self, masks: &[Mask]) -> (Vec<f32>, QueryTiming) {
        self.time(masks.len(), || self.inner.query_many_timed(masks))
    }

    fn query_groups_timed(&self, groups: &[DecomposedGroup]) -> (Vec<f32>, QueryTiming) {
        self.time(groups.len(), || self.inner.query_groups_timed(groups))
    }

    fn decomp_cache_stats(&self) -> (u64, u64) {
        self.inner.decomp_cache_stats()
    }

    fn plan_cache_stats(&self) -> (u64, u64, u64) {
        self.inner.plan_cache_stats()
    }

    fn compiled_terms(&self) -> u64 {
        self.inner.compiled_terms()
    }

    fn plan_revision(&self) -> u64 {
        self.inner.plan_revision()
    }

    fn shard_loads(&self) -> Vec<u64> {
        self.inner.shard_loads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup;
    use o4a_serve::{serve, Client, ClientConfig, ServeConfig, ShardRouter, StatsSnapshot};
    use std::time::Duration;

    /// A K=2 router over ensemble shards, optionally with timing
    /// wrappers around the router and each shard.
    fn router(world: &setup::EnsembleWorld, wrapped: bool) -> Arc<dyn QueryBackend> {
        let shards = (0..2)
            .map(|_| {
                let s = world.server();
                if wrapped {
                    Arc::new(Timed::new(s, Kind::Shard)) as Arc<dyn QueryBackend>
                } else {
                    s
                }
            })
            .collect();
        let r: Arc<dyn QueryBackend> = Arc::new(ShardRouter::new(shards));
        if wrapped {
            Arc::new(Timed::new(r, Kind::Served))
        } else {
            r
        }
    }

    /// Serves `backend`, answers `masks` over the wire (batches, then
    /// single queries) and returns the answer bits plus STATS with the
    /// wall-clock timing fields cleared.
    fn served(backend: Arc<dyn QueryBackend>, masks: &[Mask]) -> (Vec<u32>, StatsSnapshot) {
        let handle = serve(backend, ServeConfig::default()).expect("bind");
        let mut client = Client::connect(handle.addr(), ClientConfig::default()).expect("dial");
        let mut bits = Vec::new();
        for chunk in masks.chunks(16) {
            let (values, _) = client.query_batch(chunk).expect("batch");
            bits.extend(values.iter().map(|v| v.to_bits()));
        }
        for m in masks.iter().take(8) {
            bits.push(client.query(m).expect("query").0.to_bits());
        }
        let mut stats = client.stats().expect("stats");
        drop(client);
        handle.shutdown();
        stats.decompose_ns = 0;
        stats.index_ns = 0;
        (bits, stats)
    }

    /// Wrapping forwards every trait method, so the trait's
    /// zero-returning defaults never blank a counter: a wrapped backend
    /// reports the same answers and the same STATS (cache counters,
    /// compiled terms, plan revision, shard loads) as the bare one, and
    /// every wrapped call leaves one span.
    #[test]
    fn wrapper_forwards_every_method() {
        let dir = std::env::temp_dir().join(format!("perfbench-timed-{}", std::process::id()));
        let mut phases = setup::Phases::default();
        let pool = setup::hot_pool(16, 3);
        let masks: Vec<Mask> = (0..pool.len()).map(|i| pool.mask(i)).collect();

        // single-model backend, called directly
        let region = setup::region(16, 5, 1, &dir, &mut phases);
        let bare = region.server();
        let wrapped = Timed::new(region.server(), Kind::Served);
        for _ in 0..2 {
            let (a, ta) = bare.query_many_timed(&masks);
            let (b, tb) = wrapped.query_many_timed(&masks);
            assert_eq!(a, b);
            assert!(ta.total() > Duration::ZERO && tb.total() > Duration::ZERO);
        }
        assert_eq!(bare.hierarchy().h(), wrapped.hierarchy().h());
        assert_eq!(bare.is_ready(), wrapped.is_ready());
        assert_eq!(bare.decomp_cache_stats(), wrapped.decomp_cache_stats());
        assert_eq!(bare.plan_cache_stats(), wrapped.plan_cache_stats());
        assert_eq!(bare.compiled_terms(), wrapped.compiled_terms());
        assert!(wrapped.compiled_terms() > 0);
        assert_eq!(drain().len(), 2);

        // K=2 router over ensemble shards, served over the wire
        let world = setup::ensemble(16, 3, &dir, &mut phases);
        let _ = std::fs::remove_dir_all(&dir);
        let (want, want_stats) = served(router(&world, false), &masks);
        let (got, got_stats) = served(router(&world, true), &masks);
        assert_eq!(got, want);
        assert_eq!(got_stats, want_stats);
        assert!(want_stats.plan_revision > 0);
        assert_eq!(want_stats.shard_loads.len(), 2);
        assert!(want_stats.plan_cache_hits > 0 && want_stats.compiled_terms > 0);
        assert!(want_stats.decomp_cache_hits > 0);

        let spans = drain();
        let totals = summarize(&spans);
        assert_eq!(totals["served"].count, want_stats.exec_batches);
        assert_eq!(totals["served"].items, want_stats.masks_served);
        assert_eq!(
            totals["shard"].items,
            want_stats.shard_loads.iter().sum::<u64>()
        );
        // every shard span nests in a router span
        let routers: std::collections::HashSet<u64> = spans
            .iter()
            .filter(|s| s.kind == Kind::Served)
            .map(|s| s.id)
            .collect();
        assert!(spans
            .iter()
            .filter(|s| s.kind == Kind::Shard)
            .all(|s| routers.contains(&s.parent)));
        assert!(totals["served"].self_cpu_ns < totals["served"].cpu_ns);
        assert!(totals["served"].cpu_ns <= totals["served"].total_ns);
    }
}
