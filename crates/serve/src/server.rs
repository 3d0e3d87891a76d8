//! The nonblocking epoll query server.
//!
//! Thread model (fixed, no async runtime):
//!
//! * N **event-loop** threads ([`ServeConfig::event_loops`]) each run an
//!   edge-triggered [`crate::evio::Poller`]. Loop 0 owns the listener and
//!   accepts until `WouldBlock`; every connection lives on exactly one
//!   loop as a [`Conn`] state machine — an incremental
//!   [`wire::FrameAssembler`] parsing `O4ARPC01` frames zero-copy out of
//!   a pooled read buffer, an ordered response-slot window, and a write
//!   queue with `EPOLLOUT` backpressure;
//! * `HEALTH`/`STATS`/`METRICS`/`TRACE` are answered inline on the loop;
//!   `QUERY`/`BATCH` pass a **bounded admission gate** (beyond
//!   [`ServeConfig::queue_cap`] outstanding jobs the request is shed
//!   immediately with `BUSY`) into the loop's pending list;
//! * pending jobs **coalesce adaptively**: while an executor slot is
//!   free the batch is submitted immediately (an idle server answers a
//!   lone query without waiting out a window), and while all slots are
//!   busy arrivals accumulate until a slot frees or
//!   [`ServeConfig::coalesce_window`] elapses — so the window is a cap
//!   on added latency, not a tax on every request;
//! * a fixed pool of **executor** threads pops one batch at a time,
//!   answers it with a single [`QueryBackend::query_many_timed`] call
//!   (one snapshot set, parallel fan-out across the PR-1 compute pool),
//!   encodes the response frames, and hands them back to the owning
//!   loop through a completion inbox + `eventfd` wake.
//!
//! Responses are paired with requests by order, so each connection keeps
//! a seq-indexed slot window: inline answers fill their slot at parse
//! time, query answers at completion time, and only the filled prefix is
//! flushed — pipelined clients always read responses in request order.
//!
//! The server is generic over the query engine: a single-model
//! `RegionServer`, the ensemble server and the sharded
//! [`crate::router::ShardRouter`] all serve behind the [`QueryBackend`]
//! trait, so `serve` takes an `Arc<dyn QueryBackend>`.
//!
//! Shutdown is cooperative: a flag plus eventfd/condvar wakeups; every
//! thread is joined before [`ServerHandle::shutdown`] returns.
//!
//! When request tracing is sampling (`O4A_TRACE=n` or `--trace-every`),
//! `QUERY`/`BATCH` requests mint a trace id at parse and every stage —
//! assemble, queue wait, executor batch, the backend's decompose/index
//! split (derived from the same `QueryTiming` nanoseconds STATS
//! accumulates, so a trace's stage sums reconcile bit-exactly with
//! STATS), per-shard scatter, gather, write flush — lands in the
//! `o4a_obs::trace` flight recorder, drained by the `TRACE` verb.

use crate::evio::{Interest, Poller, PooledBuf, WakeFd};
use crate::wire::{self, HealthInfo, Request, Response, StatsSnapshot, TimingNs};
use o4a_core::server::QueryBackend;
use o4a_grid::mask::Mask;
use o4a_obs::trace::{self, SpanEvent, SpanKind};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Executor threads popping the admission queue.
    pub workers: usize,
    /// Longest a pending job is held for coalescing while every executor
    /// slot is busy; with a free slot jobs are submitted immediately.
    pub coalesce_window: Duration,
    /// Cap on masks folded into one `query_many` execution.
    pub max_batch_masks: usize,
    /// Admission cap on outstanding (admitted, not yet executing) jobs;
    /// beyond it requests get `BUSY` (`0` sheds every request — a drain
    /// mode).
    pub queue_cap: usize,
    /// Cap on a request frame's payload bytes.
    pub max_payload: usize,
    /// Event-loop threads. One loop saturates a single core; more loops
    /// spread connections by accept order for multi-core hosts.
    pub event_loops: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            coalesce_window: Duration::from_micros(500),
            max_batch_masks: 256,
            queue_cap: 1024,
            max_payload: wire::DEFAULT_MAX_PAYLOAD,
            event_loops: 1,
        }
    }
}

/// Lock-free serving counters (see [`StatsSnapshot`] for field meaning).
#[derive(Debug, Default)]
pub struct ServerStats {
    connections: AtomicU64,
    requests: AtomicU64,
    masks_served: AtomicU64,
    exec_batches: AtomicU64,
    coalesced_masks: AtomicU64,
    busy_rejections: AtomicU64,
    protocol_errors: AtomicU64,
    decompose_ns: AtomicU64,
    index_ns: AtomicU64,
}

impl ServerStats {
    /// A consistent-enough copy of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            masks_served: self.masks_served.load(Ordering::Relaxed),
            exec_batches: self.exec_batches.load(Ordering::Relaxed),
            coalesced_masks: self.coalesced_masks.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            decompose_ns: self.decompose_ns.load(Ordering::Relaxed),
            index_ns: self.index_ns.load(Ordering::Relaxed),
            // the decomposition memo, plan revision, shard loads and
            // plan-cache counters live in the query backend, not here;
            // `Shared::stats_snapshot` fills these in
            decomp_cache_hits: 0,
            decomp_cache_misses: 0,
            plan_revision: 0,
            shard_loads: Vec::new(),
            plan_cache_hits: 0,
            plan_cache_misses: 0,
            plan_cache_evictions: 0,
            compiled_terms: 0,
        }
    }
}

/// One admitted `QUERY`/`BATCH` request waiting for an executor.
struct ExecJob {
    /// Connection token on the owning loop.
    token: u64,
    /// Response-slot sequence number on that connection.
    seq: u64,
    masks: Vec<Mask>,
    /// Whether to answer with `Prediction` (single) or `BatchResult`.
    single: bool,
    /// Parse time, for the `serve_request` latency histogram.
    t_start: Instant,
    /// Sampled trace id, or `0` (untraced — the common case).
    trace_id: u64,
    /// Parse time on the trace clock; `0` when untraced.
    t_parse_ns: u64,
}

/// A coalesced batch submitted by one event loop.
struct ExecBatch {
    loop_id: usize,
    jobs: Vec<ExecJob>,
}

/// Encoded response frames an executor hands back to a loop: one entry
/// per job, `(token, seq, frame, trace_id)` — the trace id (or `0`)
/// rides along so the loop can emit the write-flush span.
type BatchDone = Vec<(u64, u64, Vec<u8>, u64)>;

/// MPMC batch queue feeding the executor pool.
#[derive(Default)]
struct ExecQueue {
    state: Mutex<(VecDeque<ExecBatch>, bool)>,
    cv: Condvar,
}

impl ExecQueue {
    fn push(&self, batch: ExecBatch) {
        self.state
            .lock()
            .expect("exec queue poisoned")
            .0
            .push_back(batch);
        self.cv.notify_one();
    }

    /// Blocks for the next batch; `None` on shutdown with an empty queue.
    fn pop(&self) -> Option<ExecBatch> {
        let mut st = self.state.lock().expect("exec queue poisoned");
        loop {
            if let Some(b) = st.0.pop_front() {
                return Some(b);
            }
            if st.1 {
                return None;
            }
            st = self.cv.wait(st).expect("exec queue poisoned");
        }
    }

    fn shutdown(&self) {
        self.state.lock().expect("exec queue poisoned").1 = true;
        self.cv.notify_all();
    }
}

/// Per-event-loop mailbox: executors push completed batches here and
/// kick the loop's eventfd.
struct LoopShared {
    wake: WakeFd,
    completions: Mutex<Vec<BatchDone>>,
}

struct Shared {
    region: Arc<dyn QueryBackend>,
    stats: ServerStats,
    shutdown: AtomicBool,
    cfg: ServeConfig,
    exec_queue: ExecQueue,
    /// Jobs admitted but not yet popped by an executor (the bounded
    /// admission gate: at `queue_cap` further queries shed with `BUSY`).
    admitted: AtomicU64,
    loops: Vec<Arc<LoopShared>>,
    /// Monotonic start instant (uptime reported by `HEALTH`).
    started: Instant,
    /// Start time in seconds since the Unix epoch (reported by `HEALTH`).
    started_unix: u64,
    /// Next request id; ids are unique per server and tag the per-request
    /// debug logs so one request's records can be correlated.
    next_request_id: AtomicU64,
}

impl Shared {
    /// Serving counters merged with the backend's decomposition-memo
    /// hit/miss counters (zeros unless it is a shard router), its active
    /// plan revision (`0` for a single-model backend), its per-shard load
    /// counters (empty unsharded) and its compiled-plan cache counters.
    fn stats_snapshot(&self) -> StatsSnapshot {
        let mut s = self.stats.snapshot();
        let (hits, misses) = self.region.decomp_cache_stats();
        s.decomp_cache_hits = hits;
        s.decomp_cache_misses = misses;
        s.plan_revision = self.region.plan_revision();
        s.shard_loads = self.region.shard_loads();
        let (ph, pm, pe) = self.region.plan_cache_stats();
        s.plan_cache_hits = ph;
        s.plan_cache_misses = pm;
        s.plan_cache_evictions = pe;
        s.compiled_terms = self.region.compiled_terms();
        s
    }
}

/// A running server; dropping it without [`ServerHandle::shutdown`]
/// leaves the threads serving until process exit.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loops: Vec<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// Stops accepting, closes every connection and joins all threads.
    pub fn shutdown(mut self) {
        o4a_obs::info!("serve", "shutting down"; addr = self.addr);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.exec_queue.shutdown();
        for ls in &self.shared.loops {
            ls.wake.wake();
        }
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

/// Starts serving a query backend over TCP and returns the handle
/// (`Arc<RegionServer>`, `Arc<EnsembleServer>` and `Arc<ShardRouter>`
/// all coerce).
pub fn serve(region: Arc<dyn QueryBackend>, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener =
        TcpListener::bind(cfg.addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad bind addr")
        })?)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let workers = cfg.workers.max(1);
    let n_loops = cfg.event_loops.max(1);
    let loops: Vec<Arc<LoopShared>> = (0..n_loops)
        .map(|_| {
            Ok(Arc::new(LoopShared {
                wake: WakeFd::new()?,
                completions: Mutex::new(Vec::new()),
            }))
        })
        .collect::<std::io::Result<_>>()?;
    let shared = Arc::new(Shared {
        region,
        stats: ServerStats::default(),
        shutdown: AtomicBool::new(false),
        cfg,
        exec_queue: ExecQueue::default(),
        admitted: AtomicU64::new(0),
        loops,
        started: Instant::now(),
        started_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        next_request_id: AtomicU64::new(1),
    });
    // Pre-register the serving metrics so a scrape of an idle server
    // already exposes every counter at zero (the call sites below would
    // otherwise register them lazily on first use).
    let _ = connections_counter();
    let _ = requests_counter();
    let _ = busy_counter();
    let _ = protocol_error_counter();
    let _ = request_ns_histogram();
    let _ = queue_depth_gauge();
    let _ = backpressure_counter();
    let _ = batch_masks_histogram();
    o4a_obs::info!("serve", "listening"; addr = addr, workers = workers, loops = n_loops);

    let executors: Vec<JoinHandle<()>> = (0..workers)
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("o4a-exec-{i}"))
                .spawn(move || executor_loop(&shared))
                .expect("spawn executor")
        })
        .collect();

    let mut listener = Some(listener);
    let loop_threads: Vec<JoinHandle<()>> = (0..n_loops)
        .map(|i| {
            let shared = shared.clone();
            let listener = listener.take();
            std::thread::Builder::new()
                .name(format!("o4a-loop-{i}"))
                .spawn(move || EventLoop::run(i, &shared, listener))
                .expect("spawn event loop")
        })
        .collect();

    Ok(ServerHandle {
        addr,
        shared,
        loops: loop_threads,
        executors,
    })
}

fn connections_counter() -> &'static o4a_obs::Counter {
    o4a_obs::counter!(
        "o4a_serve_connections_total",
        "TCP connections accepted by the query server"
    )
}

fn requests_counter() -> &'static o4a_obs::Counter {
    o4a_obs::counter!(
        "o4a_serve_requests_total",
        "well-formed request frames handled by the query server"
    )
}

fn busy_counter() -> &'static o4a_obs::Counter {
    o4a_obs::counter!(
        "o4a_serve_busy_total",
        "requests shed with BUSY because the admission queue was full"
    )
}

/// Malformed frames / payloads received (mirrors
/// `ServerStats::protocol_errors` into the metrics registry).
fn protocol_error_counter() -> &'static o4a_obs::Counter {
    o4a_obs::counter!(
        "o4a_serve_protocol_errors_total",
        "malformed frames or payloads received by the query server"
    )
}

/// Parse-to-response latency, the same histogram `span!("serve_request")`
/// recorded on the thread-per-connection server (kept name-compatible for
/// dashboards; recorded manually because a request's life now spans the
/// loop and executor threads).
fn request_ns_histogram() -> &'static o4a_obs::Histogram {
    o4a_obs::histogram!(
        "o4a_serve_request_ns",
        "latency of the `serve_request` span in nanoseconds"
    )
}

/// Jobs admitted but not yet popped by an executor — the live depth of
/// the admission gate, sampled at every admit/pop.
fn queue_depth_gauge() -> &'static o4a_obs::Gauge {
    o4a_obs::gauge!(
        "o4a_exec_queue_depth",
        "queries admitted but not yet picked up by an executor"
    )
}

/// Times the write queue outgrew the socket and `EPOLLOUT` was armed.
fn backpressure_counter() -> &'static o4a_obs::Counter {
    o4a_obs::counter!(
        "o4a_serve_backpressure_total",
        "connections that transitioned into EPOLLOUT write backpressure"
    )
}

/// Masks per submitted executor batch (coalescing effectiveness).
fn batch_masks_histogram() -> &'static o4a_obs::Histogram {
    o4a_obs::histogram!(
        "o4a_exec_batch_masks",
        "masks folded into one executor batch submission"
    )
}

fn executor_loop(shared: &Arc<Shared>) {
    while let Some(batch) = shared.exec_queue.pop() {
        let n = batch.jobs.len() as u64;
        let prev = shared.admitted.fetch_sub(n, Ordering::Relaxed);
        queue_depth_gauge().set(prev.saturating_sub(n) as f64);
        let done: BatchDone = if shared.region.is_ready() {
            run_batch(shared, &batch)
        } else {
            batch
                .jobs
                .iter()
                .map(|job| {
                    let frame = wire::encode_response(&Response::Error(
                        "no prediction snapshot published".into(),
                    ));
                    (job.token, job.seq, frame, job.trace_id)
                })
                .collect()
        };
        let ls = &shared.loops[batch.loop_id];
        ls.completions
            .lock()
            .expect("completions poisoned")
            .push(done);
        ls.wake.wake();
    }
}

/// Answers one coalesced batch with a single backend call and encodes the
/// per-job response frames.
fn run_batch(shared: &Arc<Shared>, batch: &ExecBatch) -> BatchDone {
    let all: Vec<Mask> = batch
        .jobs
        .iter()
        .flat_map(|j| j.masks.iter().cloned())
        .collect();
    // A batch's executor-side spans are attributed to the first sampled
    // job's trace id (an untraced batch — the common case — skips every
    // clock read below).
    let batch_tid = batch
        .jobs
        .iter()
        .map(|j| j.trace_id)
        .find(|&t| t != 0)
        .unwrap_or(0);
    let t_exec = Instant::now();
    let t_exec_ns = if batch_tid != 0 { trace::now_ns() } else { 0 };
    if batch_tid != 0 {
        for job in &batch.jobs {
            if job.trace_id != 0 {
                trace::emit(&SpanEvent {
                    trace_id: job.trace_id,
                    span: SpanKind::QueueWait as u16,
                    parent: SpanKind::Request as u16,
                    lane: batch.loop_id as u32,
                    t_start_ns: job.t_parse_ns,
                    t_end_ns: t_exec_ns,
                    bytes: job.masks.len() as u64,
                });
            }
        }
        // backends key their per-stage spans (shard scatter/gather,
        // lookup/aggregate) off the calling thread's current trace id
        trace::set_current(batch_tid);
    }
    let (values, timing) = shared.region.query_many_timed(&all);
    let timing = TimingNs {
        decompose_ns: timing.decompose.as_nanos() as u64,
        index_ns: timing.index.as_nanos() as u64,
    };
    if batch_tid != 0 {
        trace::set_current(0);
        let t_done_ns = trace::now_ns();
        trace::emit(&SpanEvent {
            trace_id: batch_tid,
            span: SpanKind::ExecBatch as u16,
            parent: SpanKind::Request as u16,
            lane: batch.loop_id as u32,
            t_start_ns: t_exec_ns,
            t_end_ns: t_done_ns,
            bytes: all.len() as u64,
        });
        // Derived stage events: their durations are the *same* u64
        // nanosecond values added to the STATS counters below, so a
        // drained trace's decompose/index sums reconcile bit-exactly
        // with STATS (the measured spans above are wall-clock and
        // include fan-out overhead the backend doesn't attribute).
        trace::emit(&SpanEvent {
            trace_id: batch_tid,
            span: SpanKind::Decompose as u16,
            parent: SpanKind::ExecBatch as u16,
            lane: batch.loop_id as u32,
            t_start_ns: t_exec_ns,
            t_end_ns: t_exec_ns + timing.decompose_ns,
            bytes: all.len() as u64,
        });
        trace::emit(&SpanEvent {
            trace_id: batch_tid,
            span: SpanKind::Index as u16,
            parent: SpanKind::ExecBatch as u16,
            lane: batch.loop_id as u32,
            t_start_ns: t_exec_ns + timing.decompose_ns,
            t_end_ns: t_exec_ns + timing.decompose_ns + timing.index_ns,
            bytes: all.len() as u64,
        });
    }
    shared.stats.exec_batches.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .masks_served
        .fetch_add(all.len() as u64, Ordering::Relaxed);
    if batch.jobs.len() > 1 {
        shared
            .stats
            .coalesced_masks
            .fetch_add(all.len() as u64, Ordering::Relaxed);
    }
    shared
        .stats
        .decompose_ns
        .fetch_add(timing.decompose_ns, Ordering::Relaxed);
    shared
        .stats
        .index_ns
        .fetch_add(timing.index_ns, Ordering::Relaxed);
    let slow_ns = trace::slow_threshold_ns();
    let mut off = 0usize;
    batch
        .jobs
        .iter()
        .map(|job| {
            let slice = &values[off..off + job.masks.len()];
            off += job.masks.len();
            let resp = if job.single {
                Response::Prediction {
                    value: slice[0],
                    timing,
                }
            } else {
                Response::BatchResult {
                    values: slice.to_vec(),
                    timing,
                }
            };
            let total_ns = job.t_start.elapsed().as_nanos() as u64;
            if job.trace_id != 0 {
                // root span: parse to response-encode, matching the
                // `o4a_serve_request_ns` histogram's interval
                trace::emit(&SpanEvent {
                    trace_id: job.trace_id,
                    span: SpanKind::Request as u16,
                    parent: 0,
                    lane: batch.loop_id as u32,
                    t_start_ns: job.t_parse_ns,
                    t_end_ns: trace::now_ns(),
                    bytes: job.masks.len() as u64,
                });
            }
            if slow_ns != 0 && total_ns >= slow_ns {
                o4a_obs::warn_limited!("serve", "slow request";
                    total_us = total_ns / 1_000,
                    queue_us = t_exec.saturating_duration_since(job.t_start).as_micros() as u64,
                    decompose_us = timing.decompose_ns / 1_000,
                    index_us = timing.index_ns / 1_000,
                    masks = job.masks.len(),
                    batch_masks = all.len(),
                    loop_id = batch.loop_id,
                    trace_id = job.trace_id,
                );
            }
            request_ns_histogram().record(total_ns);
            (
                job.token,
                job.seq,
                wire::encode_response(&resp),
                job.trace_id,
            )
        })
        .collect()
}

/// Per-connection state machine on an event loop.
struct Conn {
    stream: TcpStream,
    assembler: wire::FrameAssembler,
    /// Encoded frames ready to write, oldest first; `wq_head` is the
    /// write offset into the front frame.
    wq: VecDeque<Vec<u8>>,
    wq_head: usize,
    /// Whether the poller registration currently includes `EPOLLOUT`.
    want_write: bool,
    /// Seq-indexed response slots: `slots[i]` answers request
    /// `base_seq + i`. Only the filled prefix may be flushed, so
    /// pipelined responses always leave in request order.
    slots: VecDeque<Option<Vec<u8>>>,
    base_seq: u64,
    next_seq: u64,
    /// Close once every slot and queued write has drained (set on
    /// protocol error; further input is ignored).
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_payload: usize) -> Conn {
        Conn {
            stream,
            assembler: wire::FrameAssembler::new(max_payload),
            wq: VecDeque::new(),
            wq_head: 0,
            want_write: false,
            slots: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            closing: false,
        }
    }

    /// Reserves the next response slot, returning its seq.
    fn alloc_slot(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back(None);
        seq
    }

    /// Fills a response slot and moves the completed prefix to the write
    /// queue.
    fn fill(&mut self, seq: u64, frame: Vec<u8>) {
        let idx = (seq - self.base_seq) as usize;
        if let Some(slot) = self.slots.get_mut(idx) {
            *slot = Some(frame);
        }
        while matches!(self.slots.front(), Some(Some(_))) {
            let frame = self.slots.pop_front().flatten().expect("checked Some");
            self.base_seq += 1;
            self.wq.push_back(frame);
        }
    }

    /// Whether the connection has fully drained and was marked closing.
    fn drained_for_close(&self) -> bool {
        self.closing && self.slots.is_empty() && self.wq.is_empty()
    }
}

/// Listener token (loop 0 only).
const TOK_LISTENER: u64 = 0;
/// Wake-eventfd token.
const TOK_WAKE: u64 = 1;
/// First connection token.
const TOK_CONN0: u64 = 2;

/// Socket read scratch per loop: one pooled buffer recycled across every
/// read on the loop thread.
const READ_BUF_BYTES: usize = 16 * 1024;

struct EventLoop<'a> {
    loop_id: usize,
    shared: &'a Arc<Shared>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Admitted jobs waiting to be submitted as a batch.
    pending: Vec<ExecJob>,
    /// When the oldest pending job was admitted (coalesce deadline base).
    pending_since: Option<Instant>,
    /// Batches submitted to the executors and not yet completed.
    in_flight: usize,
    hier: o4a_grid::hierarchy::Hierarchy,
}

impl EventLoop<'_> {
    fn run(loop_id: usize, shared: &Arc<Shared>, listener: Option<TcpListener>) {
        let poller = match Poller::new() {
            Ok(p) => p,
            Err(e) => {
                o4a_obs::warn!("serve", "epoll unavailable, loop {} down: {}", loop_id, e);
                return;
            }
        };
        let ls = &shared.loops[loop_id];
        poller
            .add(ls.wake.raw_fd(), TOK_WAKE, Interest::READ)
            .expect("register wakefd");
        if let Some(l) = &listener {
            poller
                .add(l.as_raw_fd(), TOK_LISTENER, Interest::READ)
                .expect("register listener");
        }
        let mut el = EventLoop {
            loop_id,
            shared,
            poller,
            conns: HashMap::new(),
            next_token: TOK_CONN0,
            pending: Vec::new(),
            pending_since: None,
            in_flight: 0,
            hier: shared.region.hierarchy().clone(),
        };
        // Event-loop internals as first-class metrics, one pair per loop:
        // how long each epoll_wait blocked and how many readiness events
        // each wake delivered (0 = coalesce-deadline timeout).
        let epoll_wait_hist = o4a_obs::metrics::global().histogram(
            &format!("o4a_loop{loop_id}_epoll_wait_ns"),
            "time blocked in epoll_wait per wake on this event loop",
        );
        let ready_events_hist = o4a_obs::metrics::global().histogram(
            &format!("o4a_loop{loop_id}_ready_events"),
            "readiness events delivered per epoll wake on this event loop",
        );
        let mut rbuf = PooledBuf::with_capacity(READ_BUF_BYTES);
        let mut events = Vec::new();
        loop {
            let timeout = el
                .pending_since
                .map(|t0| shared.cfg.coalesce_window.saturating_sub(t0.elapsed()));
            let t_wait = Instant::now();
            let n_ready = match el.poller.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => break,
            };
            epoll_wait_hist.record(t_wait.elapsed().as_nanos() as u64);
            ready_events_hist.record(n_ready as u64);
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            for ev in &events {
                match ev.token {
                    TOK_LISTENER => {
                        if let Some(l) = &listener {
                            el.accept_ready(l);
                        }
                    }
                    TOK_WAKE => shared.loops[loop_id].wake.drain(),
                    token => el.conn_ready(token, ev.readable, ev.writable, &mut rbuf),
                }
            }
            el.drain_completions();
            el.flush_pending();
        }
        // Cooperative close: dropping the map closes every socket, and
        // dropping the listener (loop 0) makes further connects refuse.
        el.conns.clear();
    }

    /// Accepts until the listener reports `WouldBlock` (edge-triggered).
    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.shared
                        .stats
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    connections_counter().inc();
                    self.conns
                        .insert(token, Conn::new(stream, self.shared.cfg.max_payload));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Handles readiness on a connection token.
    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool, rbuf: &mut PooledBuf) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let mut alive = true;
        if readable {
            alive = self.read_ready(token, &mut conn, rbuf);
        }
        // flush after reads too: inline responses queued during the read
        // would otherwise wait for an EPOLLOUT edge that never comes
        // (the socket was writable all along)
        if alive && (writable || !conn.wq.is_empty()) {
            alive = self.flush_writes(token, &mut conn);
        }
        if alive && !conn.drained_for_close() {
            self.conns.insert(token, conn);
        } else {
            self.teardown(conn);
        }
    }

    fn teardown(&mut self, conn: Conn) {
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        // dropping `conn` closes the socket
    }

    /// Drains the socket until `WouldBlock`/EOF, feeding every chunk to
    /// the frame assembler. Returns `false` when the connection died.
    fn read_ready(&mut self, token: u64, conn: &mut Conn, rbuf: &mut PooledBuf) -> bool {
        loop {
            if conn.closing {
                // a protocol error desynchronized the stream: ignore
                // further input and let the queued error frame drain
                return true;
            }
            let buf = rbuf.as_mut_bytes();
            match (&conn.stream).read(buf) {
                Ok(0) => return false,
                Ok(n) => {
                    let chunk = &buf[..n];
                    self.process_bytes(token, conn, chunk);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Feeds one received chunk through the frame assembler and handles
    /// every completed request in arrival order.
    fn process_bytes(&mut self, token: u64, conn: &mut Conn, chunk: &[u8]) {
        // chunk receipt time on the trace clock: the assemble span runs
        // from here to parse completion (one clock read per chunk, and
        // only while sampling)
        let t_rx_ns = if trace::sampling_on() {
            trace::now_ns()
        } else {
            0
        };
        let mut parsed: Vec<Result<Request, wire::WireError>> = Vec::new();
        let fed = conn.assembler.feed(chunk, |verb, payload| {
            parsed.push(wire::decode_request(verb, payload));
        });
        for req in parsed {
            if conn.closing {
                break;
            }
            match req {
                Ok(r) => self.handle_request(token, conn, r, t_rx_ns),
                Err(e) => self.protocol_error(conn, &e),
            }
        }
        if let Err(e) = fed {
            if !conn.closing {
                self.protocol_error(conn, &e);
            }
        }
    }

    /// Reports a malformed frame/payload: error response, then close once
    /// everything queued before it has drained.
    fn protocol_error(&mut self, conn: &mut Conn, e: &wire::WireError) {
        self.shared
            .stats
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        protocol_error_counter().inc();
        // rate-limited: a garbage-spewing peer must not flood the log
        o4a_obs::warn_limited!("serve", "closing connection on malformed input: {}", e);
        let seq = conn.alloc_slot();
        conn.fill(
            seq,
            wire::encode_response(&Response::Error(format!("protocol error: {e}"))),
        );
        conn.closing = true;
    }

    fn handle_request(&mut self, token: u64, conn: &mut Conn, req: Request, t_rx_ns: u64) {
        let t_start = Instant::now();
        let seq = conn.alloc_slot();
        self.shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        requests_counter().inc();
        let req_id = self.shared.next_request_id.fetch_add(1, Ordering::Relaxed);
        let verb = match &req {
            Request::Health => "Health",
            Request::Stats => "Stats",
            Request::Metrics => "Metrics",
            Request::Trace => "Trace",
            Request::Query(_) => "Query",
            Request::Batch(_) => "Batch",
        };
        o4a_obs::debug!("serve", "request {}", verb; req = req_id);
        match req {
            Request::Health => {
                let info = HealthInfo {
                    ready: self.shared.region.is_ready(),
                    h: self.hier.h() as u32,
                    w: self.hier.w() as u32,
                    layers: self.hier.num_layers() as u8,
                    uptime_secs: self.shared.started.elapsed().as_secs(),
                    started_unix: self.shared.started_unix,
                };
                conn.fill(seq, wire::encode_response(&Response::Health(info)));
                request_ns_histogram().record(t_start.elapsed().as_nanos() as u64);
            }
            Request::Stats => {
                let snap = self.shared.stats_snapshot();
                conn.fill(seq, wire::encode_response(&Response::Stats(snap)));
                request_ns_histogram().record(t_start.elapsed().as_nanos() as u64);
            }
            Request::Metrics => {
                let text = o4a_obs::render_prometheus();
                conn.fill(seq, wire::encode_response(&Response::Metrics(text)));
                request_ns_histogram().record(t_start.elapsed().as_nanos() as u64);
            }
            Request::Trace => {
                // drain the flight recorder across every thread's ring
                // and render it viewer-ready; answered inline like
                // METRICS (the payload is bounded by ring capacity)
                let (events, dropped) = trace::drain();
                let json = trace::render_chrome_json(&events, dropped);
                conn.fill(seq, wire::encode_response(&Response::Trace(json)));
                request_ns_histogram().record(t_start.elapsed().as_nanos() as u64);
            }
            Request::Query(mask) => {
                self.enqueue_query(token, conn, seq, vec![mask], true, t_start, t_rx_ns)
            }
            Request::Batch(masks) => {
                self.enqueue_query(token, conn, seq, masks, false, t_start, t_rx_ns)
            }
        }
    }

    /// Admits a query into the pending list, or answers `Error`/`BUSY`
    /// inline (wrong raster / admission gate full).
    #[allow(clippy::too_many_arguments)]
    fn enqueue_query(
        &mut self,
        token: u64,
        conn: &mut Conn,
        seq: u64,
        masks: Vec<Mask>,
        single: bool,
        t_start: Instant,
        t_rx_ns: u64,
    ) {
        for mask in &masks {
            if mask.h() != self.hier.h() || mask.w() != self.hier.w() {
                // well-formed but wrong raster: answer and keep the
                // connection usable
                conn.fill(
                    seq,
                    wire::encode_response(&Response::Error(format!(
                        "mask is {}x{}, server raster is {}x{}",
                        mask.h(),
                        mask.w(),
                        self.hier.h(),
                        self.hier.w()
                    ))),
                );
                request_ns_histogram().record(t_start.elapsed().as_nanos() as u64);
                return;
            }
        }
        let cap = self.shared.cfg.queue_cap as u64;
        if self.shared.admitted.load(Ordering::Relaxed) >= cap {
            self.shared
                .stats
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            busy_counter().inc();
            // rate-limited: an overload sheds thousands of these a second
            o4a_obs::warn_limited!("serve", "admission queue full, shedding with BUSY";
                queue_cap = cap, loop_id = self.loop_id);
            conn.fill(seq, wire::encode_response(&Response::Busy));
            request_ns_histogram().record(t_start.elapsed().as_nanos() as u64);
            return;
        }
        let prev = self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        queue_depth_gauge().set((prev + 1) as f64);
        // mint here, not at parse: only admitted queries become traces
        let trace_id = trace::mint();
        let t_parse_ns = if trace_id != 0 {
            let now = trace::now_ns();
            trace::emit(&SpanEvent {
                trace_id,
                span: SpanKind::Assemble as u16,
                parent: SpanKind::Request as u16,
                lane: self.loop_id as u32,
                // 0 means sampling flipped on mid-chunk; degrade to an
                // empty span instead of one starting at the epoch
                t_start_ns: if t_rx_ns != 0 { t_rx_ns } else { now },
                t_end_ns: now,
                bytes: masks.len() as u64,
            });
            now
        } else {
            0
        };
        self.pending.push(ExecJob {
            token,
            seq,
            masks,
            single,
            t_start,
            trace_id,
            t_parse_ns,
        });
        if self.pending_since.is_none() {
            self.pending_since = Some(Instant::now());
        }
    }

    /// Routes completed batches back to their connections.
    fn drain_completions(&mut self) {
        let done: Vec<BatchDone> = {
            let mut guard = self.shared.loops[self.loop_id]
                .completions
                .lock()
                .expect("completions poisoned");
            std::mem::take(&mut *guard)
        };
        for batch in done {
            self.in_flight -= 1;
            for (token, seq, frame, trace_id) in batch {
                // the connection may have died while its query ran
                let Some(mut conn) = self.conns.remove(&token) else {
                    continue;
                };
                let t_fill_ns = if trace_id != 0 { trace::now_ns() } else { 0 };
                let frame_len = frame.len() as u64;
                conn.fill(seq, frame);
                let ok = self.flush_writes(token, &mut conn);
                if trace_id != 0 {
                    trace::emit(&SpanEvent {
                        trace_id,
                        span: SpanKind::WriteFlush as u16,
                        parent: SpanKind::Request as u16,
                        lane: self.loop_id as u32,
                        t_start_ns: t_fill_ns,
                        t_end_ns: trace::now_ns(),
                        bytes: frame_len,
                    });
                }
                if ok && !conn.drained_for_close() {
                    self.conns.insert(token, conn);
                } else {
                    self.teardown(conn);
                }
            }
        }
    }

    /// Submits pending jobs: immediately while an executor slot is free,
    /// otherwise only once the coalesce deadline has passed (so arrivals
    /// during a busy spell merge into fewer, larger batches).
    fn flush_pending(&mut self) {
        let workers = self.shared.cfg.workers.max(1);
        let deadline_passed = self
            .pending_since
            .is_some_and(|t0| t0.elapsed() >= self.shared.cfg.coalesce_window);
        while !self.pending.is_empty() && (self.in_flight < workers || deadline_passed) {
            let max_masks = self.shared.cfg.max_batch_masks.max(1);
            let mut take = 0usize;
            let mut total = 0usize;
            for job in &self.pending {
                if take > 0 && total + job.masks.len() > max_masks {
                    break;
                }
                total += job.masks.len();
                take += 1;
            }
            let jobs: Vec<ExecJob> = self.pending.drain(..take).collect();
            batch_masks_histogram().record(total as u64);
            self.shared.exec_queue.push(ExecBatch {
                loop_id: self.loop_id,
                jobs,
            });
            self.in_flight += 1;
        }
        if self.pending.is_empty() {
            self.pending_since = None;
        }
    }

    /// Writes as much of the queue as the socket accepts; arms/disarms
    /// `EPOLLOUT` to match. Returns `false` when the connection died.
    fn flush_writes(&mut self, token: u64, conn: &mut Conn) -> bool {
        while let Some(front) = conn.wq.front() {
            match (&conn.stream).write(&front[conn.wq_head..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.wq_head += n;
                    if conn.wq_head == front.len() {
                        conn.wq.pop_front();
                        conn.wq_head = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        let need = !conn.wq.is_empty();
        if need != conn.want_write {
            if need {
                // the socket stopped accepting with frames still queued:
                // count the backpressure transition (rate-limited log —
                // one slow reader can flap this every flush)
                backpressure_counter().inc();
                o4a_obs::warn_limited!("serve", "write queue backed up, arming EPOLLOUT";
                    queued_frames = conn.wq.len(), loop_id = self.loop_id);
            }
            let interest = if need {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, interest)
                .is_err()
            {
                return false;
            }
            conn.want_write = need;
        }
        true
    }
}
