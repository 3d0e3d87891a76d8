//! Request tracing and flight recorder.
//!
//! A 64-bit trace id is minted per request when sampling is on
//! (`O4A_TRACE=n` samples one request in `n`; unset or `0` disables
//! tracing entirely). Every instrumented stage emits a fixed-size
//! [`SpanEvent`] into a per-thread lock-free ring buffer; the rings act
//! as a flight recorder — always recording the most recent window,
//! overwritten in place, drained on demand (the serve layer exposes a
//! `TRACE` wire verb for this) and rendered as Chrome trace-event JSON
//! viewable in `chrome://tracing` or Perfetto.
//!
//! # Hot-path cost
//!
//! When sampling is off, [`mint`] is one relaxed atomic load plus a
//! branch and returns `0`; every emit helper early-returns on a zero
//! trace id without reading the clock, touching thread-local storage,
//! or allocating (`crates/obs/tests/trace_no_alloc.rs` proves the
//! zero-allocation claim under the counting allocator). When a request
//! *is* sampled, each span costs two `Instant` reads and six relaxed
//! atomic stores into a preallocated ring slot — writers never block
//! and never allocate after a thread's first sampled event.
//!
//! # Ring and record layout
//!
//! A [`SpanEvent`] is 40 bytes packed into five `u64` words:
//! `trace_id`, `span | parent << 16 | lane << 32`, `t_start_ns`,
//! `t_end_ns`, `bytes`. Each ring slot holds the five words as
//! `AtomicU64`s guarded by a seqlock word: the single writer marks the
//! slot odd (`2i + 1`), stores the words, then publishes even
//! (`2i + 2`); the drain validates the sequence before and after
//! copying and drops torn or overwritten records, counting them as
//! `dropped`. Rings are power-of-two sized ([`RING_EVENTS`] slots) and
//! wrap by overwriting the oldest events — a flight recorder, not a
//! lossless log.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Slots per per-thread ring. Power of two. Sized so a full drain of a
/// few rings renders comfortably under the 1 MiB wire payload cap.
pub const RING_EVENTS: usize = 1024;

const UNINIT: u64 = u64::MAX;

/// The instrumented pipeline stages. Values are wire-stable: they are
/// what `SpanEvent::span`/`parent` carry and what a rendered trace
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum SpanKind {
    /// Whole request: parse to response encode (the same interval the
    /// `o4a_request_ns` histogram records).
    Request = 1,
    /// Frame reassembly: first byte of the carrying read to parse.
    Assemble = 2,
    /// Admission to the start of the event loop's batch (the rest of the
    /// wake that parsed it, plus earlier batches of that wake).
    QueueWait = 3,
    /// One batch an event loop runs to answer its coalesced jobs.
    ExecBatch = 4,
    /// Mask decomposition into combination groups (derived from the
    /// backend's own `QueryTiming`, so sums reconcile with STATS).
    Decompose = 5,
    /// Index lookup + aggregation (derived from `QueryTiming::index`).
    Index = 6,
    // 7 is retired (a lookup stage that nothing emitted); it stays
    // unassigned so the kinds after it keep their wire values.
    /// Plan evaluation against the prediction snapshot.
    Aggregate = 8,
    /// One shard's slice of a scattered query (`lane` = shard id).
    ShardScatter = 9,
    /// Folding per-shard group values back into per-mask answers.
    Gather = 10,
    /// Writing the encoded response to the socket.
    WriteFlush = 11,
}

impl SpanKind {
    /// Stable lowercase name used in rendered traces and logs.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Assemble => "assemble",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::ExecBatch => "exec_batch",
            SpanKind::Decompose => "decompose",
            SpanKind::Index => "index",
            SpanKind::Aggregate => "aggregate",
            SpanKind::ShardScatter => "shard_scatter",
            SpanKind::Gather => "gather",
            SpanKind::WriteFlush => "write_flush",
        }
    }

    /// Inverse of `self as u16`; `None` for unknown discriminants
    /// (e.g. a torn record that survived validation — impossible by
    /// construction, but the decoder stays total anyway).
    pub fn from_u16(v: u16) -> Option<SpanKind> {
        Some(match v {
            1 => SpanKind::Request,
            2 => SpanKind::Assemble,
            3 => SpanKind::QueueWait,
            4 => SpanKind::ExecBatch,
            5 => SpanKind::Decompose,
            6 => SpanKind::Index,
            8 => SpanKind::Aggregate,
            9 => SpanKind::ShardScatter,
            10 => SpanKind::Gather,
            11 => SpanKind::WriteFlush,
            _ => return None,
        })
    }
}

/// One completed span, 40 bytes. `span`/`parent` are [`SpanKind`]
/// discriminants (`parent == 0` marks a root), `lane` carries the
/// event-loop id or shard id depending on the stage, `bytes` is a
/// stage-specific size (payload bytes, mask count, group count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Nonzero sampled trace id; `0` is never stored in a ring.
    pub trace_id: u64,
    /// [`SpanKind`] discriminant of this span.
    pub span: u16,
    /// [`SpanKind`] discriminant of the enclosing span, `0` for roots.
    pub parent: u16,
    /// Event-loop id or shard id, stage-dependent.
    pub lane: u32,
    /// Span start, nanoseconds since the process trace epoch.
    pub t_start_ns: u64,
    /// Span end, nanoseconds since the process trace epoch.
    pub t_end_ns: u64,
    /// Stage-specific size: payload bytes, masks, or groups.
    pub bytes: u64,
}

impl SpanEvent {
    fn to_words(self) -> [u64; 5] {
        [
            self.trace_id,
            self.span as u64 | (self.parent as u64) << 16 | (self.lane as u64) << 32,
            self.t_start_ns,
            self.t_end_ns,
            self.bytes,
        ]
    }

    fn from_words(w: [u64; 5]) -> SpanEvent {
        SpanEvent {
            trace_id: w[0],
            span: w[1] as u16,
            parent: (w[1] >> 16) as u16,
            lane: (w[1] >> 32) as u32,
            t_start_ns: w[2],
            t_end_ns: w[3],
            bytes: w[4],
        }
    }

    /// Span duration in nanoseconds (saturating, so a clock hiccup
    /// can't wrap).
    pub fn dur_ns(&self) -> u64 {
        self.t_end_ns.saturating_sub(self.t_start_ns)
    }
}

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

/// Sample 1-in-n; 0 = off; UNINIT = parse `O4A_TRACE` on first use.
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(UNINIT);
/// Requests considered for sampling (drives the 1-in-n decision).
static MINTED: AtomicU64 = AtomicU64::new(0);
/// Slow-request threshold in ns; 0 = disabled; UNINIT = parse
/// `O4A_TRACE_SLOW_US` on first use.
static SLOW_NS: AtomicU64 = AtomicU64::new(UNINIT);

#[cold]
fn init_sample() -> u64 {
    let n = std::env::var("O4A_TRACE")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0);
    let n = n.min(UNINIT - 1);
    // First writer wins so concurrent initializers agree.
    match SAMPLE_EVERY.compare_exchange(UNINIT, n, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => n,
        Err(cur) => cur,
    }
}

/// Current sampling period: `0` when tracing is off, else "one request
/// in n is traced". Initialized from `O4A_TRACE` on first call.
pub fn sample_every() -> u64 {
    let n = SAMPLE_EVERY.load(Ordering::Relaxed);
    if n == UNINIT {
        init_sample()
    } else {
        n
    }
}

/// Overrides the sampling period (`0` disables). Takes effect for the
/// whole process; used by `serve --trace-every` and tests.
pub fn set_sample_every(n: u64) {
    SAMPLE_EVERY.store(n.min(UNINIT - 1), Ordering::Relaxed);
}

/// True when any request may be sampled — the cheap guard callers use
/// before reading the clock for span start marks.
pub fn sampling_on() -> bool {
    sample_every() != 0
}

/// Mints a trace id for a new request: `0` (not sampled — the caller
/// skips all tracing work) or a nonzero process-unique id. One relaxed
/// load and a branch when sampling is off.
pub fn mint() -> u64 {
    let every = sample_every();
    if every == 0 {
        return 0;
    }
    let c = MINTED.fetch_add(1, Ordering::Relaxed);
    if c.is_multiple_of(every) {
        c + 1
    } else {
        0
    }
}

#[cold]
fn init_slow() -> u64 {
    let us = std::env::var("O4A_TRACE_SLOW_US")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0);
    let ns = us.saturating_mul(1000).min(UNINIT - 1);
    match SLOW_NS.compare_exchange(UNINIT, ns, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => ns,
        Err(cur) => cur,
    }
}

/// Slow-request threshold in nanoseconds (`0` = slow logging off).
/// Initialized from `O4A_TRACE_SLOW_US` (microseconds) on first call.
pub fn slow_threshold_ns() -> u64 {
    let ns = SLOW_NS.load(Ordering::Relaxed);
    if ns == UNINIT {
        init_slow()
    } else {
        ns
    }
}

/// Overrides the slow-request threshold in microseconds (`0` disables).
pub fn set_slow_threshold_us(us: u64) {
    SLOW_NS.store(us.saturating_mul(1000).min(UNINIT - 1), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Timebase
// ---------------------------------------------------------------------------

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first call). All span
/// timestamps share this base so events from different threads line up
/// on one timeline.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Per-thread seqlock rings
// ---------------------------------------------------------------------------

struct Slot {
    /// Seqlock word: `2i + 1` while slot `i mod cap` is being written,
    /// `2i + 2` once complete. Starts at 0 (never written).
    seq: AtomicU64,
    words: [AtomicU64; 5],
}

/// A single-writer, multi-reader-safe event ring. The owning thread
/// pushes without ever blocking or allocating; [`TraceRing::drain_into`]
/// may run concurrently from any thread and drops records the writer
/// tore or lapped mid-copy.
pub struct TraceRing {
    /// Monotonic count of events ever pushed; slot = `head & (cap-1)`.
    head: AtomicU64,
    /// Next monotonic index the drain will read (advanced under the
    /// global drain lock).
    cursor: AtomicU64,
    slots: Box<[Slot]>,
}

impl TraceRing {
    /// Creates a ring with `cap` slots. `cap` must be a power of two.
    pub fn new(cap: usize) -> TraceRing {
        assert!(
            cap.is_power_of_two(),
            "ring capacity must be a power of two"
        );
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: [
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                ],
            })
            .collect();
        TraceRing {
            head: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
            slots,
        }
    }

    /// Appends one event. Single-writer: only the owning thread calls
    /// this. Never blocks, never allocates.
    pub fn push(&self, ev: &SpanEvent) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[head as usize & (self.slots.len() - 1)];
        slot.seq.store(2 * head + 1, Ordering::Relaxed);
        // Pairs with the acquire fence in `drain_into`: a reader that
        // observes any word stored below also observes the odd mark.
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(ev.to_words()) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * head + 2, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Copies every complete event since the last drain into `out`
    /// (oldest first) and advances the cursor. Returns the number of
    /// events dropped: lapped by the writer before they were read, or
    /// torn mid-copy. Callers must serialize drains of the same ring
    /// (the module-level [`drain`] does).
    pub fn drain_into(&self, out: &mut Vec<SpanEvent>) -> u64 {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let mut from = self.cursor.load(Ordering::Relaxed);
        let mut dropped = 0u64;
        if head.saturating_sub(from) > cap {
            dropped += head - from - cap;
            from = head - cap;
        }
        for i in from..head {
            let slot = &self.slots[i as usize & (self.slots.len() - 1)];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != 2 * i + 2 {
                // Torn (writer mid-store) or already lapped.
                dropped += 1;
                continue;
            }
            let mut w = [0u64; 5];
            for (dst, src) in w.iter_mut().zip(&slot.words) {
                *dst = src.load(Ordering::Relaxed);
            }
            // Pairs with the release fence in `push`: if any word above
            // came from a newer write, the reload below sees its odd
            // mark (or later) and the copy is rejected.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                dropped += 1;
                continue;
            }
            out.push(SpanEvent::from_words(w));
        }
        self.cursor.store(head, Ordering::Relaxed);
        dropped
    }
}

fn rings() -> &'static Mutex<Vec<Arc<TraceRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<TraceRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// Lazily created on a thread's first sampled emit; registered in
    /// the global ring list so `drain` sees every thread.
    static TLS_RING: Arc<TraceRing> = {
        let ring = Arc::new(TraceRing::new(RING_EVENTS));
        rings().lock().expect("trace ring registry poisoned").push(ring.clone());
        ring
    };
    /// Trace id of the request the current thread is working on —
    /// lets backends deep in the call stack attribute their spans
    /// without plumbing an id through every signature.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Records one completed span. No-op (one branch, no clock read, no
/// allocation) when `ev.trace_id` is `0`.
pub fn emit(ev: &SpanEvent) {
    if ev.trace_id == 0 {
        return;
    }
    // Ignore emits during thread teardown rather than panicking.
    let _ = TLS_RING.try_with(|ring| ring.push(ev));
}

/// Marks the current thread as working on `trace_id` (`0` clears).
/// Backends read it back with [`current`].
pub fn set_current(trace_id: u64) {
    let _ = CURRENT.try_with(|c| c.set(trace_id));
}

/// The trace id set by [`set_current`] on this thread, or `0`.
pub fn current() -> u64 {
    CURRENT.try_with(|c| c.get()).unwrap_or(0)
}

/// Drains every thread's ring into one timestamp-sorted list. Returns
/// `(events, dropped)` where `dropped` counts lapped or torn records.
/// Draining consumes: a second drain returns only newer events.
pub fn drain() -> (Vec<SpanEvent>, u64) {
    // One drain at a time: per-ring cursors are only safe to advance
    // under this lock.
    static DRAIN: Mutex<()> = Mutex::new(());
    let _guard = DRAIN.lock().expect("trace drain lock poisoned");
    let rings: Vec<Arc<TraceRing>> = rings()
        .lock()
        .expect("trace ring registry poisoned")
        .clone();
    let mut events = Vec::new();
    let mut dropped = 0;
    for ring in &rings {
        dropped += ring.drain_into(&mut events);
    }
    events.sort_by_key(|e| (e.t_start_ns, e.trace_id, e.span));
    (events, dropped)
}

// ---------------------------------------------------------------------------
// Chrome trace-event rendering
// ---------------------------------------------------------------------------

/// Renders events as Chrome trace-event JSON (the "JSON object format"
/// `chrome://tracing` and Perfetto load directly). Each span becomes a
/// complete (`"ph":"X"`) event on track `tid = lane`; `ts`/`dur` are
/// float microseconds as the format requires, and `args.dur_ns` keeps
/// the exact integer duration so tooling (and the reconcile tests) can
/// sum spans without float rounding.
pub fn render_chrome_json(events: &[SpanEvent], dropped: u64) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(64 + events.len() * 192);
    let _ = write!(
        out,
        "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped\":{dropped}}},\"traceEvents\":["
    );
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = SpanKind::from_u16(ev.span)
            .map(SpanKind::name)
            .unwrap_or("unknown");
        let parent = SpanKind::from_u16(ev.parent)
            .map(SpanKind::name)
            .unwrap_or("");
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"o4a\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"trace_id\":\"{:016x}\",\
             \"parent\":\"{parent}\",\"bytes\":{},\"dur_ns\":{}}}}}",
            ev.lane,
            ev.t_start_ns / 1000,
            ev.t_start_ns % 1000,
            ev.dur_ns() / 1000,
            ev.dur_ns() % 1000,
            ev.trace_id,
            ev.bytes,
            ev.dur_ns(),
        );
    }
    out.push_str("]}");
    out
}

/// One event recovered from rendered trace JSON by
/// [`parse_chrome_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedEvent {
    /// Span name as rendered (`SpanKind::name`).
    pub name: String,
    /// Parent span name, empty for roots.
    pub parent: String,
    /// Track id (the event's `lane`: loop id or shard id).
    pub tid: u32,
    /// Trace id parsed back from its hex form.
    pub trace_id: u64,
    /// Exact integer duration from `args.dur_ns`.
    pub dur_ns: u64,
    /// Stage-specific size from `args.bytes`.
    pub bytes: u64,
}

/// Parses JSON produced by [`render_chrome_json`] back into events.
/// This is a scanner paired to that renderer (not a general JSON
/// parser); it returns `None` on any shape it does not recognize, and
/// the second tuple field is the `otherData.dropped` count.
pub fn parse_chrome_json(json: &str) -> Option<(Vec<ParsedEvent>, u64)> {
    fn field<'a>(s: &'a str, key: &str) -> Option<&'a str> {
        let at = s.find(key)? + key.len();
        Some(&s[at..])
    }
    fn str_val(s: &str) -> Option<&str> {
        s.split('"').nth(1)
    }
    fn num_val(s: &str) -> Option<u64> {
        let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        s[..end].parse().ok()
    }
    let dropped = num_val(field(json, "\"dropped\":")?)?;
    let body = field(json, "\"traceEvents\":[")?;
    let mut events = Vec::new();
    for chunk in body.split("{\"name\":").skip(1) {
        let name = str_val(chunk)?.to_string();
        let tid = num_val(field(chunk, "\"tid\":")?)? as u32;
        let trace_id = u64::from_str_radix(str_val(field(chunk, "\"trace_id\":")?)?, 16).ok()?;
        let parent = str_val(field(chunk, "\"parent\":")?)?.to_string();
        let bytes = num_val(field(chunk, "\"bytes\":")?)?;
        let dur_ns = num_val(field(chunk, "\"dur_ns\":")?)?;
        events.push(ParsedEvent {
            name,
            parent,
            tid,
            trace_id,
            dur_ns,
            bytes,
        });
    }
    Some((events, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace_id: u64, i: u64) -> SpanEvent {
        SpanEvent {
            trace_id,
            span: SpanKind::ExecBatch as u16,
            parent: SpanKind::Request as u16,
            lane: i as u32 & 7,
            t_start_ns: i * 10,
            t_end_ns: i * 10 + 7,
            bytes: i ^ 0xABCD,
        }
    }

    #[test]
    fn words_roundtrip_all_fields() {
        let e = SpanEvent {
            trace_id: 0xDEAD_BEEF_0042,
            span: SpanKind::ShardScatter as u16,
            parent: SpanKind::ExecBatch as u16,
            lane: 0xFEED_0001,
            t_start_ns: 123_456_789,
            t_end_ns: 123_999_999,
            bytes: u64::MAX - 3,
        };
        assert_eq!(SpanEvent::from_words(e.to_words()), e);
    }

    #[test]
    fn span_kind_names_roundtrip() {
        for v in (1..=6u16).chain(8..=11) {
            let k = SpanKind::from_u16(v).unwrap();
            assert_eq!(k as u16, v);
            assert!(!k.name().is_empty());
        }
        for v in [0, 7, 12] {
            assert_eq!(SpanKind::from_u16(v), None);
        }
    }

    #[test]
    fn ring_keeps_last_cap_events_in_order() {
        let ring = TraceRing::new(8);
        for i in 0..20u64 {
            ring.push(&ev(1, i));
        }
        let mut out = Vec::new();
        let dropped = ring.drain_into(&mut out);
        assert_eq!(dropped, 12);
        assert_eq!(out.len(), 8);
        for (k, e) in out.iter().enumerate() {
            assert_eq!(e.t_start_ns, (12 + k as u64) * 10);
        }
        // drain consumed everything; nothing new -> nothing returned
        out.clear();
        assert_eq!(ring.drain_into(&mut out), 0);
        assert!(out.is_empty());
        // new events after a drain are picked up
        ring.push(&ev(1, 99));
        assert_eq!(ring.drain_into(&mut out), 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes, 99 ^ 0xABCD);
    }

    #[test]
    fn mint_honors_sampling_period() {
        set_sample_every(0);
        assert_eq!(mint(), 0);
        assert_eq!(mint(), 0);
        set_sample_every(1);
        let a = mint();
        let b = mint();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b, "trace ids are process-unique");
        set_sample_every(0);
    }

    #[test]
    fn chrome_json_renders_and_parses_back() {
        let events = [
            SpanEvent {
                trace_id: 0x2A,
                span: SpanKind::Request as u16,
                parent: 0,
                lane: 0,
                t_start_ns: 1_000,
                t_end_ns: 26_500,
                bytes: 58,
            },
            SpanEvent {
                trace_id: 0x2A,
                span: SpanKind::ShardScatter as u16,
                parent: SpanKind::ExecBatch as u16,
                lane: 1,
                t_start_ns: 5_000,
                t_end_ns: 9_321,
                bytes: 3,
            },
        ];
        let json = render_chrome_json(&events, 4);
        // spot-check the trace-event shape chrome://tracing needs
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"request\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":25.500"));
        let (parsed, dropped) = parse_chrome_json(&json).unwrap();
        assert_eq!(dropped, 4);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "request");
        assert_eq!(parsed[0].parent, "");
        assert_eq!(parsed[0].trace_id, 0x2A);
        assert_eq!(parsed[0].dur_ns, 25_500);
        assert_eq!(parsed[1].name, "shard_scatter");
        assert_eq!(parsed[1].parent, "exec_batch");
        assert_eq!(parsed[1].tid, 1);
        assert_eq!(parsed[1].dur_ns, 4_321);
        assert_eq!(parsed[1].bytes, 3);
        // empty drains still render valid, parseable JSON
        let (none, d0) = parse_chrome_json(&render_chrome_json(&[], 0)).unwrap();
        assert!(none.is_empty());
        assert_eq!(d0, 0);
    }

    #[test]
    fn global_emit_and_drain_sees_other_threads() {
        // Use magic ids so concurrently running tests in this binary
        // can't confuse us.
        const ID_A: u64 = 0x7EAC_E000_0000_0001;
        const ID_B: u64 = 0x7EAC_E000_0000_0002;
        emit(&ev(ID_A, 1));
        std::thread::spawn(|| emit(&ev(ID_B, 2))).join().unwrap();
        let (events, _) = drain();
        let mine: Vec<_> = events
            .iter()
            .filter(|e| e.trace_id == ID_A || e.trace_id == ID_B)
            .collect();
        assert_eq!(mine.len(), 2, "both threads' rings are drained");
        // zero trace id is a no-op and never stored
        emit(&SpanEvent {
            trace_id: 0,
            ..ev(0, 3)
        });
        let (events, _) = drain();
        assert!(events.iter().all(|e| e.trace_id != 0));
    }

    #[test]
    fn current_trace_id_is_thread_local() {
        set_current(77);
        assert_eq!(current(), 77);
        let other = std::thread::spawn(current).join().unwrap();
        assert_eq!(other, 0, "fresh threads start untraced");
        set_current(0);
        assert_eq!(current(), 0);
    }

    #[test]
    fn slow_threshold_override() {
        set_slow_threshold_us(250);
        assert_eq!(slow_threshold_ns(), 250_000);
        set_slow_threshold_us(0);
        assert_eq!(slow_threshold_ns(), 0);
    }
}
