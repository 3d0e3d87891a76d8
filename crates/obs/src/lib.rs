//! `o4a-obs`: zero-dependency observability for the One4All-ST system.
//!
//! Three pieces, all std-only and offline:
//!
//! * [`logger`] — a leveled structured logger (`O4A_LOG=error|warn|info|debug`,
//!   `key=value` fields, one `Write` sink behind a mutex) driven by the
//!   [`error!`]/[`warn!`]/[`info!`]/[`debug!`] macros.
//! * [`metrics`] — a global registry of atomic [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s and power-of-√2 log-bucketed latency
//!   [`metrics::Histogram`]s, rendered as Prometheus text exposition for
//!   the serve layer's `METRICS` verb.
//! * [`span`](mod@span) — RAII timing guards ([`span!`]) that record elapsed
//!   nanoseconds into a registry histogram on drop; the
//!   `span!(debug: ...)` form compiles to a branch + no allocation when
//!   the `Debug` level is off.
//! * [`trace`] — a per-request flight recorder: sampled 64-bit trace
//!   ids (`O4A_TRACE=n` traces one request in `n`), fixed-size
//!   [`trace::SpanEvent`]s in per-thread seqlock ring buffers, drained
//!   and rendered as `chrome://tracing` JSON. Zero allocation and one
//!   branch per call site when sampling is off.
//!
//! The crate also ships [`alloc::CountingAlloc`], a counting global
//! allocator used by allocation-budget tests across the workspace (the
//! observability overhead contract here and the zero-allocation training
//! steady-state contract in `o4a-models`).
//!
//! Design notes (naming scheme, bucket math, overhead budget) live in the
//! repo-level `DESIGN.md` under "Observability".

#![warn(missing_docs)]

pub mod alloc;
pub mod logger;
pub mod metrics;
pub mod span;
pub mod trace;

pub use alloc::CountingAlloc;
pub use logger::{max_level, set_max_level, set_sink, Level};
pub use metrics::{global, render_prometheus, Counter, Gauge, Histogram, Registry};
pub use span::Span;
