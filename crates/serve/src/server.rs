//! The nonblocking epoll query server.
//!
//! Thread model (fixed, no async runtime): N **event-loop** threads
//! ([`ServeConfig::event_loops`], one per core by default) each run an
//! edge-triggered [`crate::evio::Poller`] and answer the queries of their
//! own connections, so a request is parsed, executed and written on one
//! thread.
//!
//! * Loop 0 owns the listener, accepts until `WouldBlock` and deals the
//!   accepted sockets out round-robin. Every connection lives on exactly
//!   one loop as a `Conn` state machine: an incremental
//!   [`wire::FrameAssembler`] parsing `O4ARPC02` frames zero-copy out of
//!   the loop's one read buffer, an ordered response-slot window, and a
//!   write queue with `EPOLLOUT` backpressure.
//! * `HEALTH`/`STATS`/`METRICS`/`TRACE` are answered inline at parse.
//!   `QUERY`/`BATCH` pass the loop's **admission cap**: with
//!   [`ServeConfig::queue_cap`] jobs already pending on the loop the
//!   request is shed at once with `BUSY`; otherwise it joins the pending
//!   list.
//! * Once a wake's readiness events are all handled, the loop **runs its
//!   pending jobs**: everything that wake parsed coalesces into batches of
//!   at most [`ServeConfig::max_batch_masks`] masks, each answered by one
//!   [`QueryBackend::query_many_timed`] call (one snapshot set, answered
//!   on the loop's own thread). A request's decoded masks move onto the
//!   loop's pending mask list at admission and the backend reads each
//!   batch's masks there, so no mask is copied between the frame and the
//!   engine. The responses fill their slots and are flushed before the
//!   loop blocks again, so nothing is pending while a loop waits. A
//!   panicking backend call answers its batch with `ERROR` and the loop
//!   keeps serving.
//!
//! Responses are paired with requests by order, so each connection keeps
//! a seq-indexed slot window: inline answers fill their slot at parse
//! time, query answers when their batch has run, and only the filled
//! prefix is flushed — pipelined clients always read responses in
//! request order.
//!
//! The server is generic over the query engine: a single-model
//! `RegionServer`, the ensemble server and the sharded
//! [`crate::router::ShardRouter`] all serve behind the [`QueryBackend`]
//! trait, so `serve` takes an `Arc<dyn QueryBackend>`.
//!
//! Shutdown is cooperative: a flag plus an eventfd wake per loop; every
//! loop is joined before [`ServerHandle::shutdown`] returns.
//!
//! When request tracing is sampling (`O4A_TRACE=n` or `--trace-every`),
//! `QUERY`/`BATCH` requests mint a trace id at admission and every stage —
//! assemble, queue wait, exec batch, the backend's decompose/index
//! split (derived from the same `QueryTiming` nanoseconds STATS
//! accumulates, so a trace's stage sums reconcile bit-exactly with
//! STATS), per-shard scatter, gather, write flush — lands in the
//! `o4a_obs::trace` flight recorder, drained by the `TRACE` verb.

use crate::evio::{Interest, Poller, WakeFd, MAX_EVENTS};
use crate::wire::{self, HealthInfo, Request, Response, StatsSnapshot, TimingNs};
use o4a_core::server::QueryBackend;
use o4a_grid::mask::Mask;
use o4a_obs::trace::{self, SpanEvent, SpanKind};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuning knobs for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Cap on masks folded into one `query_many` execution.
    pub max_batch_masks: usize,
    /// Admission cap on the jobs pending on one loop (admitted, not yet
    /// executed); beyond it requests get `BUSY` (`0` sheds every request
    /// — a drain mode).
    pub queue_cap: usize,
    /// Cap on a request frame's payload bytes.
    pub max_payload: usize,
    /// Event-loop threads. Each parses, executes and answers the queries
    /// of the connections dealt to it, so the default of one loop per
    /// core executes in parallel on a multi-core host.
    pub event_loops: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_batch_masks: 256,
            queue_cap: 1024,
            max_payload: wire::DEFAULT_MAX_PAYLOAD,
            event_loops: std::thread::available_parallelism().map_or(1, |n| n.get()),
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
            // the decomposition-cache counters, plan revision, shard
            // loads and term count live in the query backend, not here;
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

/// One admitted `QUERY`/`BATCH` request waiting for its loop's next
/// batch.
struct ExecJob {
    /// Connection token on the owning loop.
    token: u64,
    /// Response-slot sequence number on that connection.
    seq: u64,
    /// Masks the request carries; they sit in the loop's pending mask
    /// list, in job order.
    n_masks: usize,
    /// Whether to answer with `Prediction` (single) or `BatchResult`.
    single: bool,
    /// Parse time, for the `serve_request` latency histogram.
    t_start: Instant,
    /// Sampled trace id, or `0` (untraced — the common case).
    trace_id: u64,
    /// Parse time on the trace clock; `0` when untraced.
    t_parse_ns: u64,
}

/// What other threads hand an event loop: the eventfd that wakes it (on
/// shutdown and on a hand-off) and the sockets loop 0 accepted for it.
struct LoopShared {
    wake: WakeFd,
    handoff: Mutex<Vec<TcpStream>>,
}

struct Shared {
    region: Arc<dyn QueryBackend>,
    stats: ServerStats,
    shutdown: AtomicBool,
    cfg: ServeConfig,
    loops: Vec<LoopShared>,
    /// Monotonic start instant (uptime reported by `HEALTH`).
    started: Instant,
    /// Start time in seconds since the Unix epoch (reported by `HEALTH`).
    started_unix: u64,
    /// Next request id; ids are unique per server and tag the per-request
    /// debug logs so one request's records can be correlated.
    next_request_id: AtomicU64,
}

impl Shared {
    /// Serving counters merged with the backend's decomposition-cache
    /// counters (in both the decomp- and the plan-cache fields), its
    /// active plan revision (`0` for a single-model backend), its
    /// per-shard load counters (empty unsharded) and its term count.
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
        for ls in &self.shared.loops {
            ls.wake.wake();
        }
        for h in self.loops.drain(..) {
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
    let n_loops = cfg.event_loops.max(1);
    // Every loop's poller is set up here, so a loop that could not start
    // fails `serve` instead of stranding the connections dealt to it.
    let mut loops = Vec::with_capacity(n_loops);
    let mut pollers = Vec::with_capacity(n_loops);
    for _ in 0..n_loops {
        let ls = LoopShared {
            wake: WakeFd::new()?,
            handoff: Mutex::new(Vec::new()),
        };
        let poller = Poller::new()?;
        poller.add(ls.wake.raw_fd(), TOK_WAKE, Interest::READ)?;
        loops.push(ls);
        pollers.push(poller);
    }
    pollers[0].add(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
    let shared = Arc::new(Shared {
        region,
        stats: ServerStats::default(),
        shutdown: AtomicBool::new(false),
        cfg,
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
    let _ = backend_panics_counter();
    let _ = request_ns_histogram();
    let _ = queue_depth_gauge();
    let _ = backpressure_counter();
    let _ = batch_masks_histogram();
    o4a_obs::info!("serve", "listening"; addr = addr, loops = n_loops);

    let mut listener = Some(listener);
    let loops: Vec<JoinHandle<()>> = pollers
        .into_iter()
        .enumerate()
        .map(|(i, poller)| {
            let shared = shared.clone();
            let listener = listener.take();
            std::thread::Builder::new()
                .name(format!("o4a-loop-{i}"))
                .spawn(move || EventLoop::run(i, &shared, poller, listener))
                .expect("spawn event loop")
        })
        .collect();

    Ok(ServerHandle {
        addr,
        shared,
        loops,
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
        "requests shed with BUSY because the admitting loop's backlog was full"
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

/// Backend calls that panicked; each answered its batch with `ERROR`.
fn backend_panics_counter() -> &'static o4a_obs::Counter {
    o4a_obs::counter!(
        "o4a_serve_backend_panics_total",
        "query backend calls that panicked and answered their batch with ERROR"
    )
}

/// Parse-to-response latency, the same histogram `span!("serve_request")`
/// recorded on the thread-per-connection server (kept name-compatible for
/// dashboards; recorded manually because a request's life spans a parse
/// and a later batch).
fn request_ns_histogram() -> &'static o4a_obs::Histogram {
    o4a_obs::histogram!(
        "o4a_serve_request_ns",
        "latency of the `serve_request` span in nanoseconds"
    )
}

/// Jobs pending on the loop that last admitted or ran one — its backlog
/// against the admission cap, sampled at every admit and batch start.
fn queue_depth_gauge() -> &'static o4a_obs::Gauge {
    o4a_obs::gauge!(
        "o4a_exec_queue_depth",
        "queries admitted but not yet executed on the admitting event loop"
    )
}

/// Times the write queue outgrew the socket and `EPOLLOUT` was armed.
fn backpressure_counter() -> &'static o4a_obs::Counter {
    o4a_obs::counter!(
        "o4a_serve_backpressure_total",
        "connections that transitioned into EPOLLOUT write backpressure"
    )
}

/// Masks per executed batch (coalescing effectiveness).
fn batch_masks_histogram() -> &'static o4a_obs::Histogram {
    o4a_obs::histogram!(
        "o4a_exec_batch_masks",
        "masks folded into one batch executed by an event loop"
    )
}

/// Answers one coalesced batch with a single backend call over `all`, the
/// jobs' masks in job order, and hands each job's response frame to
/// `deliver` as soon as it is encoded, in job order. A panicking backend
/// call answers every job with `ERROR` instead.
fn run_batch(
    shared: &Shared,
    loop_id: usize,
    jobs: &[ExecJob],
    all: &[Mask],
    mut deliver: impl FnMut(&ExecJob, Vec<u8>),
) {
    // A batch's spans are attributed to the first sampled job's trace id
    // (an untraced batch — the common case — skips every clock read
    // below).
    let batch_tid = jobs
        .iter()
        .map(|j| j.trace_id)
        .find(|&t| t != 0)
        .unwrap_or(0);
    let t_exec = Instant::now();
    let t_exec_ns = if batch_tid != 0 { trace::now_ns() } else { 0 };
    if batch_tid != 0 {
        for job in jobs {
            if job.trace_id != 0 {
                trace::emit(&SpanEvent {
                    trace_id: job.trace_id,
                    span: SpanKind::QueueWait as u16,
                    parent: SpanKind::Request as u16,
                    lane: loop_id as u32,
                    t_start_ns: job.t_parse_ns,
                    t_end_ns: t_exec_ns,
                    bytes: job.n_masks as u64,
                });
            }
        }
        // backends key their per-stage spans (shard scatter/gather,
        // aggregate) off the calling thread's current trace id
        trace::set_current(batch_tid);
    }
    let Ok((values, timing)) =
        catch_unwind(AssertUnwindSafe(|| shared.region.query_many_timed(all)))
    else {
        // the panic hook has already printed the payload
        trace::set_current(0);
        backend_panics_counter().inc();
        o4a_obs::warn_limited!("serve", "query backend panicked, answering its batch with ERROR";
            jobs = jobs.len(), masks = all.len(), loop_id = loop_id);
        let frame = wire::encode_response(&Response::Error("query backend panicked".into()));
        for job in jobs {
            deliver(job, frame.clone());
        }
        return;
    };
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
            lane: loop_id as u32,
            t_start_ns: t_exec_ns,
            t_end_ns: t_done_ns,
            bytes: all.len() as u64,
        });
        // Derived stage events: their durations are the *same* u64
        // nanosecond values added to the STATS counters below, so a
        // drained trace's decompose/index sums reconcile bit-exactly
        // with STATS (the measured spans above are wall-clock and
        // include overhead the backend doesn't attribute).
        trace::emit(&SpanEvent {
            trace_id: batch_tid,
            span: SpanKind::Decompose as u16,
            parent: SpanKind::ExecBatch as u16,
            lane: loop_id as u32,
            t_start_ns: t_exec_ns,
            t_end_ns: t_exec_ns + timing.decompose_ns,
            bytes: all.len() as u64,
        });
        trace::emit(&SpanEvent {
            trace_id: batch_tid,
            span: SpanKind::Index as u16,
            parent: SpanKind::ExecBatch as u16,
            lane: loop_id as u32,
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
    if jobs.len() > 1 {
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
    for job in jobs {
        let slice = &values[off..off + job.n_masks];
        off += job.n_masks;
        let total_ns = job.t_start.elapsed().as_nanos() as u64;
        if job.trace_id != 0 {
            // root span: parse to response-encode, matching the
            // `o4a_serve_request_ns` histogram's interval
            trace::emit(&SpanEvent {
                trace_id: job.trace_id,
                span: SpanKind::Request as u16,
                parent: 0,
                lane: loop_id as u32,
                t_start_ns: job.t_parse_ns,
                t_end_ns: trace::now_ns(),
                bytes: job.n_masks as u64,
            });
        }
        if slow_ns != 0 && total_ns >= slow_ns {
            o4a_obs::warn_limited!("serve", "slow request";
                total_us = total_ns / 1_000,
                queue_us = t_exec.saturating_duration_since(job.t_start).as_micros() as u64,
                decompose_us = timing.decompose_ns / 1_000,
                index_us = timing.index_ns / 1_000,
                masks = job.n_masks,
                batch_masks = all.len(),
                loop_id = loop_id,
                trace_id = job.trace_id,
            );
        }
        request_ns_histogram().record(total_ns);
        let frame = if job.single {
            wire::encode_response(&Response::Prediction {
                value: slice[0],
                timing,
            })
        } else {
            wire::encode_batch_result(slice, timing)
        };
        deliver(job, frame);
    }
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

/// Socket read scratch per loop: one buffer, allocated before the loop's
/// first request and reused for every read on the loop thread.
const READ_BUF_BYTES: usize = 16 * 1024;

struct EventLoop<'a> {
    loop_id: usize,
    shared: &'a Arc<Shared>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Connections accepted so far (loop 0 only): the round-robin deal.
    dealt: usize,
    /// Jobs admitted during the current wake, run before the loop blocks.
    pending: Vec<ExecJob>,
    /// The masks of `pending`, in job order. A request's decoded masks
    /// move here at admission, and the backend reads them in place.
    pending_masks: Vec<Mask>,
    /// The requests one read chunk completed, in arrival order; empty
    /// between chunks.
    parsed: Vec<Result<Request, wire::WireError>>,
    hier: o4a_grid::hierarchy::Hierarchy,
}

impl EventLoop<'_> {
    /// Serves until shutdown. `poller` already watches this loop's
    /// eventfd and, on loop 0 (the one given the `listener`), the
    /// listener.
    fn run(loop_id: usize, shared: &Arc<Shared>, poller: Poller, listener: Option<TcpListener>) {
        let ls = &shared.loops[loop_id];
        let mut el = EventLoop {
            loop_id,
            shared,
            poller,
            conns: HashMap::new(),
            next_token: TOK_CONN0,
            dealt: 0,
            pending: Vec::new(),
            pending_masks: Vec::new(),
            parsed: Vec::new(),
            hier: shared.region.hierarchy().clone(),
        };
        // Event-loop internals as first-class metrics, one pair per loop:
        // how long each epoll_wait blocked and how many readiness events
        // each wake delivered.
        let epoll_wait_hist = o4a_obs::metrics::global().histogram(
            &format!("o4a_loop{loop_id}_epoll_wait_ns"),
            "time blocked in epoll_wait per wake on this event loop",
        );
        let ready_events_hist = o4a_obs::metrics::global().histogram(
            &format!("o4a_loop{loop_id}_ready_events"),
            "readiness events delivered per epoll wake on this event loop",
        );
        let mut rbuf = Box::new([0u8; READ_BUF_BYTES]);
        // Full capacity up front: a buffer grown on the first wake with
        // more events than any before would allocate at a time that
        // depends on the clients' timing.
        let mut events = Vec::with_capacity(MAX_EVENTS);
        loop {
            let t_wait = Instant::now();
            let n_ready = match el.poller.wait(&mut events, None) {
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
                    TOK_WAKE => {
                        // drain before taking, so a hand-off racing this
                        // wake leaves the eventfd readable again
                        ls.wake.drain();
                        let streams =
                            std::mem::take(&mut *ls.handoff.lock().expect("hand-off poisoned"));
                        for stream in streams {
                            el.adopt(stream);
                        }
                    }
                    token => el.conn_ready(token, ev.readable, ev.writable, &mut rbuf[..]),
                }
            }
            el.run_pending();
        }
        // Cooperative close: dropping the map closes every socket, and
        // dropping the listener (loop 0) makes further connects refuse.
        el.conns.clear();
    }

    /// Accepts until the listener reports `WouldBlock` (edge-triggered),
    /// dealing the connections out to the loops round-robin.
    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    let target = self.dealt % self.shared.loops.len();
                    self.dealt += 1;
                    if target == self.loop_id {
                        self.adopt(stream);
                    } else {
                        let ls = &self.shared.loops[target];
                        ls.handoff.lock().expect("hand-off poisoned").push(stream);
                        ls.wake.wake();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Registers an accepted connection with this loop.
    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.shared
            .stats
            .connections
            .fetch_add(1, Ordering::Relaxed);
        connections_counter().inc();
        self.conns
            .insert(token, Conn::new(stream, self.shared.cfg.max_payload));
    }

    /// Handles readiness on a connection token.
    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool, rbuf: &mut [u8]) {
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
    fn read_ready(&mut self, token: u64, conn: &mut Conn, rbuf: &mut [u8]) -> bool {
        loop {
            if conn.closing {
                // a protocol error desynchronized the stream: ignore
                // further input and let the queued error frame drain
                return true;
            }
            match (&conn.stream).read(rbuf) {
                Ok(0) => return false,
                Ok(n) => {
                    let chunk = &rbuf[..n];
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
        // the list goes back emptied, so its capacity serves the next
        // chunk; handling a request needs `self` while it is read
        let mut parsed = std::mem::take(&mut self.parsed);
        let fed = conn.assembler.feed(chunk, |verb, payload| {
            parsed.push(wire::decode_request(verb, payload));
        });
        for req in parsed.drain(..) {
            if conn.closing {
                break;
            }
            match req {
                Ok(r) => self.handle_request(token, conn, r, t_rx_ns),
                Err(e) => self.protocol_error(conn, &e),
            }
        }
        self.parsed = parsed;
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
                self.enqueue_query(token, conn, seq, [mask], true, t_start, t_rx_ns)
            }
            Request::Batch(masks) => {
                self.enqueue_query(token, conn, seq, masks, false, t_start, t_rx_ns)
            }
        }
    }

    /// Admits a query into the pending list, moving its masks onto the
    /// pending mask list, or answers `Error`/`BUSY` inline (wrong raster /
    /// loop backlog at the admission cap).
    #[allow(clippy::too_many_arguments)]
    fn enqueue_query(
        &mut self,
        token: u64,
        conn: &mut Conn,
        seq: u64,
        masks: impl IntoIterator<Item = Mask>,
        single: bool,
        t_start: Instant,
        t_rx_ns: u64,
    ) {
        let first = self.pending_masks.len();
        for mask in masks {
            if mask.h() != self.hier.h() || mask.w() != self.hier.w() {
                // well-formed but wrong raster: drop the masks admitted so
                // far, answer and keep the connection usable
                self.pending_masks.truncate(first);
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
            self.pending_masks.push(mask);
        }
        let n_masks = self.pending_masks.len() - first;
        let cap = self.shared.cfg.queue_cap;
        if self.pending.len() >= cap {
            self.pending_masks.truncate(first);
            self.shared
                .stats
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            busy_counter().inc();
            // rate-limited: an overload sheds thousands of these a second
            o4a_obs::warn_limited!("serve", "loop backlog full, shedding with BUSY";
                queue_cap = cap, loop_id = self.loop_id);
            conn.fill(seq, wire::encode_response(&Response::Busy));
            request_ns_histogram().record(t_start.elapsed().as_nanos() as u64);
            return;
        }
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
                bytes: n_masks as u64,
            });
            now
        } else {
            0
        };
        self.pending.push(ExecJob {
            token,
            seq,
            n_masks,
            single,
            t_start,
            trace_id,
            t_parse_ns,
        });
        queue_depth_gauge().set(self.pending.len() as f64);
    }

    /// Runs every pending job in batches of at most `max_batch_masks`
    /// masks and flushes the answers, so nothing is pending when the loop
    /// blocks again. Each batch hands the backend its jobs' masks in place
    /// on the pending mask list.
    fn run_pending(&mut self) {
        let max_masks = self.shared.cfg.max_batch_masks.max(1);
        // both lists go back, emptied, so their capacity serves the next
        // wake; `deliver` needs `self` while they are read
        let mut jobs = std::mem::take(&mut self.pending);
        let mut masks = std::mem::take(&mut self.pending_masks);
        let (mut next_job, mut next_mask) = (0usize, 0usize);
        while next_job < jobs.len() {
            let mut take = 0usize;
            let mut total = 0usize;
            for job in &jobs[next_job..] {
                if take > 0 && total + job.n_masks > max_masks {
                    break;
                }
                total += job.n_masks;
                take += 1;
            }
            let batch = &jobs[next_job..next_job + take];
            let batch_masks = &masks[next_mask..next_mask + total];
            next_job += take;
            next_mask += total;
            queue_depth_gauge().set((jobs.len() - next_job) as f64);
            batch_masks_histogram().record(total as u64);
            if self.shared.region.is_ready() {
                run_batch(
                    self.shared,
                    self.loop_id,
                    batch,
                    batch_masks,
                    |job, frame| self.deliver(job, frame),
                );
            } else {
                let frame = wire::encode_response(&Response::Error(
                    "no prediction snapshot published".into(),
                ));
                for job in batch {
                    self.deliver(job, frame.clone());
                }
            }
        }
        jobs.clear();
        masks.clear();
        // a burst of pipelined batches can leave room for millions of
        // masks; keep at most one full BATCH frame's worth
        masks.shrink_to(wire::MAX_BATCH_MASKS);
        self.pending = jobs;
        self.pending_masks = masks;
    }

    /// Fills a job's response slot and flushes its connection, which may
    /// have died while the batch ran.
    fn deliver(&mut self, job: &ExecJob, frame: Vec<u8>) {
        let Some(mut conn) = self.conns.remove(&job.token) else {
            return;
        };
        let t_fill_ns = if job.trace_id != 0 {
            trace::now_ns()
        } else {
            0
        };
        let frame_len = frame.len() as u64;
        conn.fill(job.seq, frame);
        let ok = self.flush_writes(job.token, &mut conn);
        if job.trace_id != 0 {
            trace::emit(&SpanEvent {
                trace_id: job.trace_id,
                span: SpanKind::WriteFlush as u16,
                parent: SpanKind::Request as u16,
                lane: self.loop_id as u32,
                t_start_ns: t_fill_ns,
                t_end_ns: trace::now_ns(),
                bytes: frame_len,
            });
        }
        if ok && !conn.drained_for_close() {
            self.conns.insert(job.token, conn);
        } else {
            self.teardown(conn);
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
