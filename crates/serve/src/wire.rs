//! The `O4ARPC02` wire protocol: a versioned little-endian binary framing
//! for region-query traffic.
//!
//! Every frame — request or response — shares one header:
//!
//! ```text
//! magic "O4ARPC02" | verb u8 | flags u8 (reserved, 0) | payload_len u32
//! payload_sum u32 (checksum over the payload) | payload bytes
//! ```
//!
//! Request verbs: `QUERY` (one mask), `BATCH` (many masks), `HEALTH`,
//! `STATS`, `METRICS` (full metrics registry as Prometheus text
//! exposition), `TRACE` (drain the flight-recorder rings). Response
//! verbs: `PREDICTION`, `BATCH_RESULT` (values plus the
//! decomposition/lookup timing breakdown of the executed batch),
//! `HEALTH_OK`, `STATS_RESULT`, `METRICS_RESULT` (raw UTF-8 exposition
//! text), `TRACE_RESULT` (Chrome trace-event JSON, raw UTF-8), `BUSY`
//! (admission queue full — the explicit load-shedding signal), `ERROR`
//! (message).
//!
//! A mask travels as `h u16 | w u16 | packed bits` (row-major, LSB-first
//! within each byte; padding bits in the last byte must be zero): the
//! bytes of [`Mask`]'s packed words in little-endian order, so encoding
//! and decoding a mask are copies. The decoder is total: any truncated,
//! oversized, or bit-flipped frame yields a [`WireError`] — never a
//! panic.
//!
//! # Payload checksum
//!
//! The checksum is FNV-1a over little-endian `u32` words in eight
//! independent lanes. Word `i` of every whole 32-byte block steps lane
//! `i` with `h = (h ^ word) * 0x0100_0193`, each lane starting from the
//! FNV offset basis; the lanes are then folded, in lane order, into one
//! FNV-1a state the same way, and the bytes after the last whole block
//! are folded into it one at a time. The lanes are independent
//! multiply chains, so the sum runs at word speed rather than one
//! dependent multiply per byte.
//!
//! What it detects: every step is injective in its input for a fixed
//! state and a bijection of the state for a fixed input, so any error
//! confined to one aligned word of a whole block, or to one tail byte,
//! changes the sum — in particular every single-bit flip. Header fields
//! are not summed but validated (magic, verb, flags, the length against
//! the cap and the bytes present), so a single-bit flip anywhere in a
//! frame is rejected. The checksum is not a CRC: errors spread over
//! several words (a burst across a word boundary, two corrupted words)
//! are caught only with high probability, not with certainty.

use o4a_grid::mask::Mask;
use std::io::Read;

/// Protocol magic; the trailing `02` is the protocol revision.
pub const MAGIC: &[u8; 8] = b"O4ARPC02";
/// Independent FNV-1a lanes of the payload [`checksum`]. Eight lanes
/// (32-byte blocks) sum every mask-carrying frame at ~0.15 ns/byte (four
/// read ~0.3; measured on a 2-vCPU AVX-512 host) while keeping the serial
/// lane fold and byte tail short for the 20–132-byte frames that dominate
/// hot traffic (sixteen lanes halve the block cost but lengthen both).
const LANES: usize = 8;
/// Bytes in a frame header (magic, verb, flags, payload length, checksum).
pub const HEADER_LEN: usize = 8 + 1 + 1 + 4 + 4;
/// Default cap on a frame's payload; larger frames are rejected with an
/// explicit error instead of an unbounded allocation.
pub const DEFAULT_MAX_PAYLOAD: usize = 1 << 20;
/// Cap on `h * w` for a single mask (a 1024x1024 raster).
pub const MAX_MASK_CELLS: usize = 1 << 20;
/// Cap on masks per `BATCH` frame.
pub const MAX_BATCH_MASKS: usize = 4096;
/// Cap on shards a `STATS_RESULT` frame may report loads for.
pub const MAX_SHARDS: usize = 256;

/// Frame verbs (requests `0x0_`, responses `0x8_`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Verb {
    /// Request: predict one region mask.
    Query = 0x01,
    /// Request: predict a batch of region masks.
    Batch = 0x02,
    /// Request: liveness / readiness / raster dimensions.
    Health = 0x03,
    /// Request: serving counters.
    Stats = 0x04,
    /// Request: full metrics registry in Prometheus text exposition.
    Metrics = 0x05,
    /// Request: drain the trace flight recorder as Chrome trace JSON.
    Trace = 0x06,
    /// Response to [`Verb::Query`].
    Prediction = 0x81,
    /// Response to [`Verb::Batch`].
    BatchResult = 0x82,
    /// Response to [`Verb::Health`].
    HealthOk = 0x83,
    /// Response to [`Verb::Stats`].
    StatsResult = 0x84,
    /// Response to [`Verb::Metrics`].
    MetricsResult = 0x85,
    /// Response to [`Verb::Trace`].
    TraceResult = 0x86,
    /// Response: admission queue full, request shed.
    Busy = 0x8E,
    /// Response: request failed with a message.
    Error = 0x8F,
}

impl Verb {
    fn from_u8(v: u8) -> Result<Verb, WireError> {
        Ok(match v {
            0x01 => Verb::Query,
            0x02 => Verb::Batch,
            0x03 => Verb::Health,
            0x04 => Verb::Stats,
            0x05 => Verb::Metrics,
            0x06 => Verb::Trace,
            0x81 => Verb::Prediction,
            0x82 => Verb::BatchResult,
            0x83 => Verb::HealthOk,
            0x84 => Verb::StatsResult,
            0x85 => Verb::MetricsResult,
            0x86 => Verb::TraceResult,
            0x8E => Verb::Busy,
            0x8F => Verb::Error,
            other => return Err(WireError::UnknownVerb(other)),
        })
    }
}

/// Errors decoding a wire frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// Reserved flags byte is non-zero.
    BadFlags(u8),
    /// Unassigned verb byte.
    UnknownVerb(u8),
    /// Declared payload length exceeds the receiver's cap.
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The receiver's cap.
        max: usize,
    },
    /// The stream or buffer ended mid-frame.
    Truncated(&'static str),
    /// Payload bytes disagree with the header checksum.
    ChecksumMismatch,
    /// A well-framed payload failed structural validation.
    Corrupt(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadFlags(b) => write!(f, "reserved flags byte is {b:#04x}"),
            WireError::UnknownVerb(v) => write!(f, "unknown verb {v:#04x}"),
            WireError::Oversized { len, max } => {
                write!(f, "payload of {len} bytes exceeds cap of {max}")
            }
            WireError::Truncated(what) => write!(f, "truncated frame: {what}"),
            WireError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            WireError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Predict one region mask.
    Query(Mask),
    /// Predict a batch of region masks.
    Batch(Vec<Mask>),
    /// Liveness / readiness probe.
    Health,
    /// Serving counters.
    Stats,
    /// Full metrics registry (Prometheus text exposition).
    Metrics,
    /// Drain the trace flight recorder (Chrome trace-event JSON).
    Trace,
}

/// Aggregate timing of the executed batch a response rode in, in
/// nanoseconds of CPU time per stage (decomposition vs. index
/// lookups + aggregation — the Fig. 15 breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimingNs {
    /// Hierarchical decomposition time.
    pub decompose_ns: u64,
    /// Combination lookup + aggregation time.
    pub index_ns: u64,
}

/// Readiness and raster geometry reported by `HEALTH`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthInfo {
    /// Whether a prediction snapshot has been published.
    pub ready: bool,
    /// Atomic raster height served.
    pub h: u32,
    /// Atomic raster width served.
    pub w: u32,
    /// Hierarchy layer count.
    pub layers: u8,
    /// Seconds the server process has been up.
    pub uptime_secs: u64,
    /// Server start time, seconds since the Unix epoch.
    pub started_unix: u64,
}

/// Serving counters reported by `STATS`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Well-formed request frames handled.
    pub requests: u64,
    /// Masks answered (a batch of n counts n).
    pub masks_served: u64,
    /// `query_many` executions (each may serve several coalesced
    /// requests).
    pub exec_batches: u64,
    /// Masks that shared an execution batch with another request.
    pub coalesced_masks: u64,
    /// Requests shed with `BUSY` (admission queue full).
    pub busy_rejections: u64,
    /// Malformed frames received.
    pub protocol_errors: u64,
    /// Total decomposition CPU time (ns): the backend's cache probe plus
    /// the decomposition on a miss.
    pub decompose_ns: u64,
    /// Total lookup + aggregation CPU time (ns).
    pub index_ns: u64,
    /// Hits of the backend's mask → decomposition cache (an engine's, or
    /// a shard router's).
    pub decomp_cache_hits: u64,
    /// Misses of the same cache (each miss decomposes its mask).
    pub decomp_cache_misses: u64,
    /// Revision of the active ensemble plan; `0` for a single-model
    /// backend.
    pub plan_revision: u64,
    /// Decomposed groups routed to each shard since start, in shard
    /// order; empty for an unsharded backend. On the wire: a `u16` count
    /// (at most [`MAX_SHARDS`]) and that many `u64`s.
    pub shard_loads: Vec<u64>,
    /// The same cache's hits as `decomp_cache_hits`: STATS carries both
    /// fields until its next revision.
    pub plan_cache_hits: u64,
    /// The same cache's misses as `decomp_cache_misses`.
    pub plan_cache_misses: u64,
    /// Decompositions evicted by the cache's CLOCK cap.
    pub plan_cache_evictions: u64,
    /// Total resolved terms read to answer queries.
    pub compiled_terms: u64,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One predicted value plus its batch's timing breakdown.
    Prediction {
        /// The region prediction.
        value: f32,
        /// Timing of the executed batch.
        timing: TimingNs,
    },
    /// Batched predictions plus the batch's timing breakdown.
    BatchResult {
        /// Per-mask predictions, request order.
        values: Vec<f32>,
        /// Timing of the executed batch.
        timing: TimingNs,
    },
    /// Health probe reply.
    Health(HealthInfo),
    /// Counter snapshot reply.
    Stats(StatsSnapshot),
    /// Metrics scrape reply: Prometheus text exposition, raw UTF-8.
    Metrics(String),
    /// Trace drain reply: Chrome trace-event JSON, raw UTF-8.
    Trace(String),
    /// Admission queue full; retry later.
    Busy,
    /// Request failed.
    Error(String),
}

// ---------------------------------------------------------------------------
// primitive readers/writers

struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated("unexpected end of payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }
    fn f32(&mut self) -> Result<f32, WireError> {
        let s = self.take(4)?;
        Ok(f32::from_le_bytes(s.try_into().expect("4 bytes")))
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn done(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Corrupt("trailing bytes in payload"));
        }
        Ok(())
    }
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------------
// mask payload form

/// Bytes of a mask's payload form.
fn mask_len(mask: &Mask) -> usize {
    4 + (mask.h() * mask.w()).div_ceil(8)
}

fn encode_mask(buf: &mut Vec<u8>, mask: &Mask) {
    put_u16(buf, mask.h() as u16);
    put_u16(buf, mask.w() as u16);
    // the packed words are the wire bytes, little-endian; the last word
    // contributes only the bytes that hold cells
    let bytes = (mask.h() * mask.w()).div_ceil(8);
    let (whole, tail) = (bytes / 8, bytes % 8);
    let words = mask.words();
    for word in &words[..whole] {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    if tail != 0 {
        buf.extend_from_slice(&words[whole].to_le_bytes()[..tail]);
    }
}

fn decode_mask(r: &mut Rd<'_>) -> Result<Mask, WireError> {
    let h = r.u16()? as usize;
    let w = r.u16()? as usize;
    if h == 0 || w == 0 {
        return Err(WireError::Corrupt("empty mask dimensions"));
    }
    let cells = h * w;
    if cells > MAX_MASK_CELLS {
        return Err(WireError::Corrupt("mask exceeds cell cap"));
    }
    let packed = r.take(cells.div_ceil(8))?;
    let chunks = packed.chunks_exact(8);
    let tail = chunks.remainder();
    let mut words = Vec::with_capacity(cells.div_ceil(64));
    words.extend(chunks.map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))));
    if !tail.is_empty() {
        let mut le = [0u8; 8];
        le[..tail.len()].copy_from_slice(tail);
        words.push(u64::from_le_bytes(le));
    }
    // trailing padding bits must be zero so every mask has one canonical
    // wire form (and a flipped padding bit is caught as corruption)
    Mask::from_words(h, w, words).ok_or(WireError::Corrupt("non-zero mask padding bits"))
}

// ---------------------------------------------------------------------------
// frame layer

const FNV_OFFSET: u32 = 0x811c_9dc5;
const FNV_PRIME: u32 = 0x0100_0193;

/// One FNV-1a step.
#[inline(always)]
fn fnv_step(h: u32, x: u32) -> u32 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// The payload checksum of revision `02`: FNV-1a over little-endian `u32`
/// words in [`LANES`] lanes, folded, then the tail bytes (see the module
/// docs for the definition and what it detects).
pub(crate) fn checksum(payload: &[u8]) -> u32 {
    let mut lanes = [FNV_OFFSET; LANES];
    let blocks = payload.chunks_exact(4 * LANES);
    let tail = blocks.remainder();
    for block in blocks {
        for (h, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            *h = fnv_step(*h, u32::from_le_bytes(word.try_into().expect("4 bytes")));
        }
    }
    let h = lanes.into_iter().fold(FNV_OFFSET, fnv_step);
    tail.iter().fold(h, |h, &b| fnv_step(h, b as u32))
}

/// Builds a frame in one buffer: the header, then the payload `fill`
/// writes, whose length must be `payload_len` (the buffer is reserved at
/// its exact size), then the length and checksum sealed into the header.
fn build_frame(verb: Verb, payload_len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload_len);
    buf.extend_from_slice(MAGIC);
    buf.push(verb as u8);
    buf.push(0); // flags, reserved
    buf.extend_from_slice(&[0; 8]); // length and checksum, sealed below
    fill(&mut buf);
    debug_assert_eq!(buf.len(), HEADER_LEN + payload_len, "{verb:?} payload size");
    let payload = &buf[HEADER_LEN..];
    let (len, sum) = (payload.len() as u32, checksum(payload));
    buf[10..14].copy_from_slice(&len.to_le_bytes());
    buf[14..18].copy_from_slice(&sum.to_le_bytes());
    buf
}

/// Encodes one complete frame (header + checksummed payload).
pub fn encode_frame(verb: Verb, payload: &[u8]) -> Vec<u8> {
    build_frame(verb, payload.len(), |buf| buf.extend_from_slice(payload))
}

/// Parses a frame header, returning `(verb, payload_len, payload_crc)`.
pub fn decode_header(
    header: &[u8; HEADER_LEN],
    max_payload: usize,
) -> Result<(Verb, usize, u32), WireError> {
    if &header[..8] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let verb = Verb::from_u8(header[8])?;
    if header[9] != 0 {
        return Err(WireError::BadFlags(header[9]));
    }
    let len = u32::from_le_bytes(header[10..14].try_into().expect("4 bytes")) as usize;
    if len > max_payload {
        return Err(WireError::Oversized {
            len,
            max: max_payload,
        });
    }
    let crc = u32::from_le_bytes(header[14..18].try_into().expect("4 bytes"));
    Ok((verb, len, crc))
}

/// Decodes one frame from a byte buffer, returning the verb, its payload
/// and the bytes consumed.
pub fn decode_frame(bytes: &[u8], max_payload: usize) -> Result<(Verb, &[u8], usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated("incomplete header"));
    }
    let header: &[u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("header slice");
    let (verb, len, crc) = decode_header(header, max_payload)?;
    if bytes.len() < HEADER_LEN + len {
        return Err(WireError::Truncated("incomplete payload"));
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + len];
    if checksum(payload) != crc {
        return Err(WireError::ChecksumMismatch);
    }
    Ok((verb, payload, HEADER_LEN + len))
}

// ---------------------------------------------------------------------------
// incremental frame reassembly

/// Incremental frame reassembly for a nonblocking byte stream.
///
/// TCP delivers a frame sequence in arbitrary chunks — one byte at a
/// time, split mid-header, split mid-CRC, or several frames coalesced
/// into one segment. The assembler consumes chunks as they arrive and
/// yields every complete frame in order, decoding **identically to
/// whole-buffer [`decode_frame`]**: the same header validation, the same
/// payload CRC check, the same errors.
///
/// Zero-copy in the common case: when no partial frame is pending,
/// complete frames are parsed in place out of the caller's (pooled) read
/// buffer and the payload is handed to the sink as a borrowed slice —
/// only a trailing partial frame is copied into the carry buffer.
///
/// A malformed frame desynchronizes the stream, so the first error
/// poisons the assembler: every later [`FrameAssembler::feed`] returns
/// the same error and the connection must close.
#[derive(Debug)]
pub struct FrameAssembler {
    max_payload: usize,
    /// Bytes of a partial frame carried over between feeds.
    carry: Vec<u8>,
    poisoned: Option<WireError>,
}

impl FrameAssembler {
    /// Creates an assembler enforcing `max_payload` (same cap as
    /// [`decode_frame`]).
    pub fn new(max_payload: usize) -> Self {
        FrameAssembler {
            max_payload,
            carry: Vec::new(),
            poisoned: None,
        }
    }

    /// Bytes of the pending partial frame.
    pub fn buffered(&self) -> usize {
        self.carry.len()
    }

    /// Whether the stream currently sits at a frame boundary (a clean EOF
    /// here is a graceful close; mid-frame it is a truncation error).
    pub fn at_boundary(&self) -> bool {
        self.carry.is_empty() && self.poisoned.is_none()
    }

    /// Consumes one received chunk, invoking `sink` once per complete
    /// frame (in arrival order) with the verb and the checksum-verified
    /// payload. Returns the number of frames decoded, or the first wire
    /// error — after which the assembler is poisoned.
    pub fn feed(
        &mut self,
        chunk: &[u8],
        mut sink: impl FnMut(Verb, &[u8]),
    ) -> Result<usize, WireError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let mut decoded = 0usize;
        // Fast path: no partial frame pending — parse complete frames
        // directly out of the caller's buffer, copy only the tail.
        let from_carry = !self.carry.is_empty();
        if from_carry {
            self.carry.extend_from_slice(chunk);
        }
        let source: &[u8] = if from_carry { &self.carry } else { chunk };
        let mut pos = 0usize;
        let mut err = None;
        loop {
            match decode_frame(&source[pos..], self.max_payload) {
                Ok((verb, payload, consumed)) => {
                    sink(verb, payload);
                    pos += consumed;
                    decoded += 1;
                }
                Err(WireError::Truncated(_)) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = err {
            self.poisoned = Some(e.clone());
            // the carry is useless once poisoned
            self.carry = Vec::new();
            return Err(e);
        }
        if from_carry {
            self.carry.drain(..pos);
        } else {
            self.carry.extend_from_slice(&chunk[pos..]);
        }
        Ok(decoded)
    }
}

// ---------------------------------------------------------------------------
// request / response payloads

/// Encodes a request as a complete frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Query(mask) => encode_query(mask),
        Request::Batch(masks) => encode_batch(masks),
        Request::Health => encode_frame(Verb::Health, &[]),
        Request::Stats => encode_frame(Verb::Stats, &[]),
        Request::Metrics => encode_frame(Verb::Metrics, &[]),
        Request::Trace => encode_frame(Verb::Trace, &[]),
    }
}

/// Encodes a `QUERY` frame from a borrowed mask.
pub(crate) fn encode_query(mask: &Mask) -> Vec<u8> {
    build_frame(Verb::Query, mask_len(mask), |p| encode_mask(p, mask))
}

/// Encodes a `BATCH` frame from borrowed masks.
pub(crate) fn encode_batch(masks: &[Mask]) -> Vec<u8> {
    let len = 2 + masks.iter().map(mask_len).sum::<usize>();
    build_frame(Verb::Batch, len, |p| {
        put_u16(p, masks.len() as u16);
        for m in masks {
            encode_mask(p, m);
        }
    })
}

/// Decodes a request payload for a given verb.
pub fn decode_request(verb: Verb, payload: &[u8]) -> Result<Request, WireError> {
    let mut r = Rd {
        buf: payload,
        pos: 0,
    };
    let req = match verb {
        Verb::Query => Request::Query(decode_mask(&mut r)?),
        Verb::Batch => {
            let count = r.u16()? as usize;
            if count == 0 {
                return Err(WireError::Corrupt("empty batch"));
            }
            if count > MAX_BATCH_MASKS {
                return Err(WireError::Corrupt("batch exceeds mask cap"));
            }
            let mut masks = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                masks.push(decode_mask(&mut r)?);
            }
            Request::Batch(masks)
        }
        Verb::Health => Request::Health,
        Verb::Stats => Request::Stats,
        Verb::Metrics => Request::Metrics,
        Verb::Trace => Request::Trace,
        _ => return Err(WireError::Corrupt("response verb in request frame")),
    };
    r.done()?;
    Ok(req)
}

/// Encodes a response as a complete frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Prediction { value, timing } => build_frame(Verb::Prediction, 4 + 16, |p| {
            put_f32(p, *value);
            put_u64(p, timing.decompose_ns);
            put_u64(p, timing.index_ns);
        }),
        Response::BatchResult { values, timing } => {
            build_frame(Verb::BatchResult, 2 + 4 * values.len() + 16, |p| {
                put_u16(p, values.len() as u16);
                for v in values {
                    put_f32(p, *v);
                }
                put_u64(p, timing.decompose_ns);
                put_u64(p, timing.index_ns);
            })
        }
        Response::Health(info) => build_frame(Verb::HealthOk, 2 + 8 + 16, |p| {
            p.push(info.ready as u8);
            p.push(info.layers);
            p.extend_from_slice(&info.h.to_le_bytes());
            p.extend_from_slice(&info.w.to_le_bytes());
            put_u64(p, info.uptime_secs);
            put_u64(p, info.started_unix);
        }),
        Response::Stats(s) => {
            let len = 8 * 12 + 2 + 8 * s.shard_loads.len() + 8 * 4;
            build_frame(Verb::StatsResult, len, |p| {
                for v in [
                    s.connections,
                    s.requests,
                    s.masks_served,
                    s.exec_batches,
                    s.coalesced_masks,
                    s.busy_rejections,
                    s.protocol_errors,
                    s.decompose_ns,
                    s.index_ns,
                    s.decomp_cache_hits,
                    s.decomp_cache_misses,
                    s.plan_revision,
                ] {
                    put_u64(p, v);
                }
                put_u16(p, s.shard_loads.len() as u16);
                for &v in &s.shard_loads {
                    put_u64(p, v);
                }
                for v in [
                    s.plan_cache_hits,
                    s.plan_cache_misses,
                    s.plan_cache_evictions,
                    s.compiled_terms,
                ] {
                    put_u64(p, v);
                }
            })
        }
        Response::Metrics(text) => encode_frame(Verb::MetricsResult, text.as_bytes()),
        Response::Trace(json) => encode_frame(Verb::TraceResult, json.as_bytes()),
        Response::Busy => encode_frame(Verb::Busy, &[]),
        Response::Error(msg) => {
            let bytes = msg.as_bytes();
            let take = bytes.len().min(u16::MAX as usize);
            build_frame(Verb::Error, 2 + take, |p| {
                put_u16(p, take as u16);
                p.extend_from_slice(&bytes[..take]);
            })
        }
    }
}

/// Decodes a response payload for a given verb.
pub fn decode_response(verb: Verb, payload: &[u8]) -> Result<Response, WireError> {
    let mut r = Rd {
        buf: payload,
        pos: 0,
    };
    let resp = match verb {
        Verb::Prediction => Response::Prediction {
            value: r.f32()?,
            timing: TimingNs {
                decompose_ns: r.u64()?,
                index_ns: r.u64()?,
            },
        },
        Verb::BatchResult => {
            let count = r.u16()? as usize;
            let mut values = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                values.push(r.f32()?);
            }
            Response::BatchResult {
                values,
                timing: TimingNs {
                    decompose_ns: r.u64()?,
                    index_ns: r.u64()?,
                },
            }
        }
        Verb::HealthOk => {
            let flags = r.take(2)?;
            let (ready, layers) = (flags[0], flags[1]);
            if ready > 1 {
                return Err(WireError::Corrupt("health ready flag out of range"));
            }
            let h = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes"));
            let w = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes"));
            Response::Health(HealthInfo {
                ready: ready == 1,
                h,
                w,
                layers,
                uptime_secs: r.u64()?,
                started_unix: r.u64()?,
            })
        }
        Verb::StatsResult => Response::Stats(StatsSnapshot {
            connections: r.u64()?,
            requests: r.u64()?,
            masks_served: r.u64()?,
            exec_batches: r.u64()?,
            coalesced_masks: r.u64()?,
            busy_rejections: r.u64()?,
            protocol_errors: r.u64()?,
            decompose_ns: r.u64()?,
            index_ns: r.u64()?,
            decomp_cache_hits: r.u64()?,
            decomp_cache_misses: r.u64()?,
            plan_revision: r.u64()?,
            shard_loads: {
                let count = r.u16()? as usize;
                if count > MAX_SHARDS {
                    return Err(WireError::Corrupt("shard count exceeds cap"));
                }
                (0..count).map(|_| r.u64()).collect::<Result<_, _>>()?
            },
            plan_cache_hits: r.u64()?,
            plan_cache_misses: r.u64()?,
            plan_cache_evictions: r.u64()?,
            compiled_terms: r.u64()?,
        }),
        Verb::MetricsResult => {
            let bytes = r.take(r.remaining())?;
            let text = std::str::from_utf8(bytes)
                .map_err(|_| WireError::Corrupt("metrics payload is not UTF-8"))?
                .to_string();
            Response::Metrics(text)
        }
        Verb::TraceResult => {
            let bytes = r.take(r.remaining())?;
            let json = std::str::from_utf8(bytes)
                .map_err(|_| WireError::Corrupt("trace payload is not UTF-8"))?
                .to_string();
            Response::Trace(json)
        }
        Verb::Busy => Response::Busy,
        Verb::Error => {
            let len = r.u16()? as usize;
            let bytes = r.take(len)?;
            let msg = std::str::from_utf8(bytes)
                .map_err(|_| WireError::Corrupt("error message is not UTF-8"))?
                .to_string();
            Response::Error(msg)
        }
        _ => return Err(WireError::Corrupt("request verb in response frame")),
    };
    r.done()?;
    Ok(resp)
}

/// Decodes a request from a complete frame buffer, requiring the buffer
/// to hold exactly one frame (the fuzz-tested entry point).
pub fn parse_request_bytes(bytes: &[u8]) -> Result<Request, WireError> {
    let (verb, payload, consumed) = decode_frame(bytes, DEFAULT_MAX_PAYLOAD)?;
    if consumed != bytes.len() {
        return Err(WireError::Corrupt("trailing bytes after frame"));
    }
    decode_request(verb, payload)
}

/// Decodes a response from a complete frame buffer (exactly one frame).
pub fn parse_response_bytes(bytes: &[u8]) -> Result<Response, WireError> {
    let (verb, payload, consumed) = decode_frame(bytes, DEFAULT_MAX_PAYLOAD)?;
    if consumed != bytes.len() {
        return Err(WireError::Corrupt("trailing bytes after frame"));
    }
    decode_response(verb, payload)
}

// ---------------------------------------------------------------------------
// stream I/O

/// A wire or transport failure while reading a frame from a stream.
#[derive(Debug)]
pub enum TransportError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// The frame itself was malformed.
    Wire(WireError),
    /// The peer closed the stream between frames.
    Closed,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Wire(e) => write!(f, "wire error: {e}"),
            TransportError::Closed => write!(f, "peer closed the connection"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

/// Reads exactly one frame from a blocking stream. Returns
/// [`TransportError::Closed`] on a clean EOF at a frame boundary.
pub fn read_frame(
    r: &mut impl Read,
    max_payload: usize,
) -> Result<(Verb, Vec<u8>), TransportError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Err(TransportError::Closed);
            }
            return Err(TransportError::Wire(WireError::Truncated("EOF mid-header")));
        }
        got += n;
    }
    let (verb, len, crc) = decode_header(&header, max_payload)?;
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        let n = r.read(&mut payload[got..])?;
        if n == 0 {
            return Err(TransportError::Wire(WireError::Truncated(
                "EOF mid-payload",
            )));
        }
        got += n;
    }
    if checksum(&payload) != crc {
        return Err(TransportError::Wire(WireError::ChecksumMismatch));
    }
    Ok((verb, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_tensor::SeededRng;

    /// Bytes of one checksum block.
    const BLOCK: usize = 4 * LANES;

    fn random_bytes(rng: &mut SeededRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.index(256) as u8).collect()
    }

    /// The checksum written from its definition, independently of
    /// [`checksum`]: byte `i` of the whole blocks is byte `i % 4` of a
    /// little-endian word for lane `(i / 4) % LANES`.
    fn reference_checksum(payload: &[u8]) -> u32 {
        let whole = payload.len() / BLOCK * BLOCK;
        let mut lanes = [0x811c_9dc5u32; LANES];
        let mut words = [0u32; LANES];
        for (i, &b) in payload[..whole].iter().enumerate() {
            let lane = (i / 4) % LANES;
            words[lane] |= u32::from(b) << (8 * (i % 4));
            if i % 4 == 3 {
                lanes[lane] = (lanes[lane] ^ words[lane]).wrapping_mul(0x0100_0193);
                words[lane] = 0;
            }
        }
        let mut h = 0x811c_9dc5u32;
        for x in lanes
            .into_iter()
            .chain(payload[whole..].iter().map(|&b| u32::from(b)))
        {
            h = (h ^ x).wrapping_mul(0x0100_0193);
        }
        h
    }

    #[test]
    fn checksum_matches_reference() {
        let mut rng = SeededRng::new(22);
        for len in (0..=4 * BLOCK).chain([2052, 2114, 32_834]) {
            for _ in 0..4 {
                let payload = random_bytes(&mut rng, len);
                assert_eq!(
                    checksum(&payload),
                    reference_checksum(&payload),
                    "{len}-byte payload"
                );
            }
        }
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        // every length from empty to three whole blocks plus a full tail,
        // so every lane, fold position and tail byte takes a flip
        let mut rng = SeededRng::new(7);
        for len in 0..4 * BLOCK {
            let mut payload = random_bytes(&mut rng, len);
            let sum = checksum(&payload);
            for bit in 0..8 * len {
                payload[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&payload), sum, "{len}-byte payload, bit {bit}");
                payload[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn checksum_detects_any_error_in_one_word_or_tail_byte() {
        let mut rng = SeededRng::new(101);
        for len in [BLOCK, 3 * BLOCK + 5, 2052, 4 * BLOCK - 1] {
            let whole = len / BLOCK * BLOCK;
            let mut payload = random_bytes(&mut rng, len);
            let sum = checksum(&payload);
            for _ in 0..2_000 {
                let (at, width) = if whole > 0 && (len == whole || rng.index(2) == 0) {
                    (4 * rng.index(whole / 4), 4)
                } else {
                    (whole + rng.index(len - whole), 1)
                };
                let old = payload[at..at + width].to_vec();
                let new = loop {
                    let new = random_bytes(&mut rng, width);
                    if new != old {
                        break new;
                    }
                };
                payload[at..at + width].copy_from_slice(&new);
                assert_ne!(checksum(&payload), sum, "{len} bytes, {width} at {at}");
                payload[at..at + width].copy_from_slice(&old);
            }
        }
    }

    fn sample_mask() -> Mask {
        let mut m = Mask::rect(5, 7, 1, 2, 4, 6);
        m.set(0, 0, true);
        m
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Query(sample_mask()),
            Request::Batch(vec![
                sample_mask(),
                Mask::full(3, 3),
                Mask::rect(2, 9, 0, 0, 1, 9),
            ]),
            Request::Health,
            Request::Stats,
            Request::Metrics,
            Request::Trace,
        ] {
            let bytes = encode_request(&req);
            assert_eq!(parse_request_bytes(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let timing = TimingNs {
            decompose_ns: 12_345,
            index_ns: 678_900,
        };
        for resp in [
            Response::Prediction {
                value: -3.25,
                timing,
            },
            Response::BatchResult {
                values: vec![1.0, f32::MIN_POSITIVE, 0.0],
                timing,
            },
            Response::Health(HealthInfo {
                ready: true,
                h: 128,
                w: 128,
                layers: 6,
                uptime_secs: 3600,
                started_unix: 1_700_000_000,
            }),
            Response::Metrics("# HELP o4a_x x\n# TYPE o4a_x counter\no4a_x 1\n".into()),
            Response::Trace("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}".into()),
            Response::Stats(StatsSnapshot {
                connections: 3,
                requests: 1000,
                masks_served: 4000,
                exec_batches: 120,
                coalesced_masks: 3900,
                busy_rejections: 7,
                protocol_errors: 2,
                decompose_ns: 1,
                index_ns: 2,
                decomp_cache_hits: 3950,
                decomp_cache_misses: 50,
                plan_revision: 4,
                shard_loads: vec![1000, 2000, 900],
                plan_cache_hits: 3800,
                plan_cache_misses: 200,
                plan_cache_evictions: 12,
                compiled_terms: 91_000,
            }),
            Response::Busy,
            Response::Error("no snapshot".into()),
        ] {
            let bytes = encode_response(&resp);
            assert_eq!(parse_response_bytes(&bytes).unwrap(), resp);
        }
    }

    /// Checks that `resp` round-trips and that its payload cut to any
    /// length in `cuts` short of the whole payload is rejected.
    fn assert_cuts_rejected(resp: &Response, cuts: impl std::ops::RangeBounds<usize>) {
        let frame = encode_response(resp);
        let (verb, payload, _) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(&decode_response(verb, payload).unwrap(), resp);
        let cuts: Vec<usize> = (0..payload.len()).filter(|c| cuts.contains(c)).collect();
        assert!(!cuts.is_empty());
        for cut in cuts {
            assert!(
                decode_response(verb, &payload[..cut]).is_err(),
                "{verb:?} payload cut to {cut} of {} bytes decoded",
                payload.len()
            );
        }
    }

    /// A STATS_RESULT with two shard loads, and the payload offsets where
    /// its shard count starts and its plan-cache counters start: 12 `u64`
    /// fields, a `u16` count, the loads, then 4 `u64` counters. The tests
    /// below split the proper prefixes of this payload between them.
    fn stats_with_loads() -> (Response, usize, usize) {
        let s = StatsSnapshot {
            shard_loads: vec![5, 6],
            plan_revision: 9,
            plan_cache_hits: 100,
            compiled_terms: 2_000,
            ..StatsSnapshot::default()
        };
        let count_at = 12 * 8;
        let counters_at = count_at + 2 + 8 * s.shard_loads.len();
        (Response::Stats(s), count_at, counters_at)
    }

    #[test]
    fn truncated_health_uptime_rejected() {
        // Every proper prefix of a current HEALTH_OK payload, including
        // the 10-byte body that ends before the uptime fields.
        let health = Response::Health(HealthInfo {
            ready: true,
            h: 8,
            w: 8,
            layers: 3,
            uptime_secs: 42,
            started_unix: 9,
        });
        assert_cuts_rejected(&health, ..);
    }

    #[test]
    fn truncated_stats_revision_rejected() {
        // Cuts up to the end of the plan revision, including the 11- and
        // 12-field bodies that end before the shard count.
        let (stats, count_at, _) = stats_with_loads();
        assert_cuts_rejected(&stats, ..=count_at);
    }

    #[test]
    fn truncated_stats_shard_loads_rejected() {
        // Cuts mid-count, mid-load, and right after the loads (the body
        // that ends before the plan-cache counters).
        let (stats, count_at, counters_at) = stats_with_loads();
        assert_cuts_rejected(&stats, count_at + 1..=counters_at);
    }

    #[test]
    fn truncated_stats_plan_cache_rejected() {
        // Cuts anywhere inside the four plan-cache counters.
        let (stats, _, counters_at) = stats_with_loads();
        assert_cuts_rejected(&stats, counters_at + 1..);
    }

    #[test]
    fn assembler_matches_whole_buffer_decode() {
        // Three back-to-back frames delivered in pathological splits must
        // come out identical to whole-buffer decode_frame.
        let frames = [
            encode_request(&Request::Query(sample_mask())),
            encode_request(&Request::Health),
            encode_request(&Request::Batch(vec![sample_mask(), Mask::full(3, 3)])),
        ];
        let stream: Vec<u8> = frames.concat();
        for split in 1..stream.len() {
            let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
            let mut got = Vec::new();
            for chunk in stream.chunks(split) {
                asm.feed(chunk, |verb, payload| {
                    got.push(decode_request(verb, payload).unwrap());
                })
                .unwrap();
            }
            assert_eq!(got.len(), 3, "split {split}");
            assert!(asm.at_boundary(), "split {split} left a partial frame");
        }
    }

    #[test]
    fn assembler_poisons_on_corruption() {
        let mut frame = encode_request(&Request::Query(sample_mask()));
        let last = frame.len() - 1;
        frame[last] ^= 0x01; // payload corruption -> CRC mismatch
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        let err = asm
            .feed(&frame, |_, _| panic!("must not decode"))
            .unwrap_err();
        assert_eq!(err, WireError::ChecksumMismatch);
        // poisoned: even a pristine frame is rejected with the same error
        let clean = encode_request(&Request::Health);
        assert_eq!(
            asm.feed(&clean, |_, _| panic!("poisoned")).unwrap_err(),
            WireError::ChecksumMismatch
        );
        assert!(!asm.at_boundary());
    }

    #[test]
    fn metrics_payload_must_be_utf8() {
        let frame = encode_frame(Verb::MetricsResult, &[0xFF, 0xFE]);
        assert_eq!(
            parse_response_bytes(&frame),
            Err(WireError::Corrupt("metrics payload is not UTF-8"))
        );
    }

    #[test]
    fn trace_payload_must_be_utf8() {
        let frame = encode_frame(Verb::TraceResult, &[0xC0, 0x80]);
        assert_eq!(
            parse_response_bytes(&frame),
            Err(WireError::Corrupt("trace payload is not UTF-8"))
        );
    }

    #[test]
    fn trace_request_rejects_payload_bytes() {
        // TRACE carries no payload; stray bytes are corruption, not
        // silently ignored.
        let frame = encode_frame(Verb::Trace, &[1, 2, 3]);
        assert_eq!(
            parse_request_bytes(&frame),
            Err(WireError::Corrupt("trailing bytes in payload"))
        );
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut frame = encode_frame(Verb::Query, &[0u8; 64]);
        // declare a payload far beyond the cap
        frame[10..14].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            decode_frame(&frame, DEFAULT_MAX_PAYLOAD),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn nonzero_padding_bits_rejected() {
        let req = Request::Query(Mask::rect(3, 3, 0, 0, 2, 2));
        let mut bytes = encode_request(&req);
        // 9 cells -> 2 payload bytes of bitmap; bit 9..15 of the second
        // byte are padding. Flip one and fix the checksum so only the
        // structural check can complain.
        let last = bytes.len() - 1;
        bytes[last] |= 0x80;
        let crc = checksum(&bytes[HEADER_LEN..]);
        bytes[14..18].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            parse_request_bytes(&bytes),
            Err(WireError::Corrupt("non-zero mask padding bits"))
        );
    }

    #[test]
    fn stream_roundtrip() {
        let req = Request::Batch(vec![sample_mask(); 4]);
        let frame = encode_request(&req);
        let mut cursor = std::io::Cursor::new(frame);
        let (verb, payload) = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(decode_request(verb, &payload).unwrap(), req);
        // the stream is now exhausted -> clean close
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD),
            Err(TransportError::Closed)
        ));
    }
}
