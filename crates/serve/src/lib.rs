#![warn(missing_docs)]

//! # o4a-serve
//!
//! The networked serving layer for One4All-ST: the repo's answer to the
//! paper's *online* phase being an actual service rather than an
//! in-process call. The crate gives the reproduction a service boundary:
//!
//! * [`wire`] — the `O4ARPC02` little-endian binary protocol (QUERY /
//!   BATCH / HEALTH / STATS / METRICS / TRACE verbs, frames sealed with a
//!   word-speed lane checksum that catches every single-bit flip, a total
//!   decoder that can never panic on hostile bytes) plus the incremental
//!   [`wire::FrameAssembler`] the data plane parses TCP fragments with;
//! * [`evio`] — a minimal vendored epoll/eventfd readiness layer over
//!   raw syscalls (no external deps): edge-triggered [`evio::Poller`],
//!   cross-thread [`evio::WakeFd`];
//! * [`server`] — a **nonblocking epoll event loop** data plane: one
//!   event-loop thread per core owns its sockets, reassembles their
//!   frames and answers their queries itself. The queries one wake
//!   parses **coalesce** into a single
//!   [`o4a_core::server::QueryBackend::query_many_timed`] call, which
//!   reads the decoded masks where the loop keeps them; beyond
//!   the loop's **bounded admission backlog** requests are shed with an
//!   explicit `BUSY` response instead of unbounded latency, and a
//!   panicking backend call answers `ERROR` without taking the loop
//!   down; with `O4A_TRACE` sampling on, requests record full stage
//!   trees into the `o4a_obs::trace` flight recorder, drained by the
//!   `TRACE` verb as Chrome trace-event JSON;
//! * [`router`] — [`ShardRouter`], consistent-hash scatter-gather over K
//!   backend shards with bit-identical merges;
//! * [`client`] — a blocking client with request framing, timeouts and
//!   reconnect;
//! * `serve` / `loadgen` binaries — cold-start a server from on-disk
//!   artifacts (`codec::load_index` + `deploy::load_model`), optionally
//!   sharded (`--shards K`, bit-identity proven at startup), and drive
//!   it with N client threads (optionally Zipf-skewed and/or on a
//!   diurnal open-loop schedule), writing throughput and latency
//!   percentiles to `BENCH_serve.json`.
//!
//! See `DESIGN.md` ("Serving data plane") for the event-loop
//! architecture, the wire-protocol layout table, the
//! coalescing/backpressure semantics and the shard-routing exactness
//! argument.

pub mod client;
pub mod evio;
pub mod router;
pub mod server;
pub mod wire;

pub use client::{Client, ClientConfig, ClientError};
pub use router::ShardRouter;
pub use server::{serve, ServeConfig, ServerHandle, ServerStats};
pub use wire::{HealthInfo, Request, Response, StatsSnapshot, TimingNs, WireError};
