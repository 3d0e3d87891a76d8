//! `loadgen` — drive a running `serve` instance with N client threads and
//! write throughput + latency percentiles to `BENCH_serve.json`.
//!
//! Each thread owns one connection and issues paper-style region queries
//! (the four MAUP task mixes from `TaskSpec::standard_tasks`), either one
//! mask per request (`--batch 0`) or `--batch K` masks per BATCH frame.
//!
//! **Arrival process.** The default is closed-loop: every thread issues
//! requests back to back for `--secs` seconds. `--diurnal <rps>` switches
//! to an open-loop schedule: the run models one synthetic "day" whose
//! aggregate arrival rate follows `rps * (1 + 0.75 sin(2πt/secs))`; each
//! thread walks its own arrival timeline and sends immediately when it
//! falls behind schedule (open loop — backlog is not dropped), so shed
//! rate under the peak is visible instead of being absorbed by client
//! pacing.
//!
//! **Popularity skew.** By default threads walk the query pool round
//! robin. `--zipf <s>` draws each request's mask from a Zipf(s)
//! distribution over pool ranks (weight `1/(i+1)^s`), concentrating
//! traffic on a hot head of regions the way real prediction dashboards
//! do — this is what makes the server-side decomposition cache and shard
//! load split worth measuring. `--hot-masks N` bounds the working set to
//! the first N pool masks, so the server's decomposition cache (the
//! engine's, or behind `--shards` the router's) converges to a steady hit
//! rate (reported in the JSON under both `decomp_cache` and `plan_cache`,
//! which read that one cache, from the final STATS snapshot).
//!
//! **Tail reporting.** Bucket percentiles come from the shared
//! `o4a_obs::Histogram` (√2-geometric buckets: the reported quantile is
//! the bucket's upper edge, at most √2 − 1 ≈ 41% above the true order
//! statistic). For the p99.9 tail, each thread additionally keeps its
//! top-4096 latencies exactly (a bounded min-heap reservoir); the merged
//! reservoirs contain the true global top-4096, so the reported
//! `p999_exact` is the *exact* order statistic whenever
//! `ceil(0.001 * requests) <= 4096` — i.e. up to ~4.1M requests per run,
//! far beyond a bench window. Past that the JSON flags it inexact.
//!
//! Per-request outcomes (ok / busy / error) are counted into the JSON
//! report together with the shed rate `busy / (ok + busy + errors)` and,
//! when the server runs sharded, the per-shard routed-group counts from
//! STATS. Exits non-zero if no request succeeds, so CI can
//! gate on "the server actually served".
//!
//! **Stage breakdown.** With `--trace-sample N` (and a server started
//! with `--trace-every`/`O4A_TRACE`), a TRACE dump is pulled mid-run and
//! the sampled spans become per-stage p50/p99 columns in the JSON
//! (`trace_stages`), plus the set of shard lanes seen
//! (`trace_shards_seen`). `--trace-out PATH` additionally writes the raw
//! Chrome trace-event JSON for `chrome://tracing` / Perfetto.
//!
//! Usage:
//!   cargo run -p o4a-serve --release --bin loadgen -- \
//!     [--addr 127.0.0.1:7474 | --addr-file PATH] [--threads 4] [--secs 2] \
//!     [--batch 0] [--zipf S] [--hot-masks N] [--diurnal RPS] \
//!     [--out BENCH_serve.json] [--metrics-out PATH] [--trace-sample N] \
//!     [--trace-out PATH]

use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::Mask;
use o4a_obs::Histogram;
use o4a_serve::{Client, ClientConfig, ClientError};
use o4a_tensor::SeededRng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exact tail reservoir size per thread: the merged reservoirs contain
/// the true global top-4096 latencies, so p99.9 is exact while
/// `ceil(0.001 * requests) <= 4096`.
const RESERVOIR_PER_THREAD: usize = 4096;

/// Peak-to-mean swing of the diurnal arrival shape.
const DIURNAL_AMPLITUDE: f64 = 0.75;

struct Args {
    addr: Option<String>,
    addr_file: Option<PathBuf>,
    threads: usize,
    secs: f64,
    batch: usize,
    zipf: Option<f64>,
    /// Bound the query pool to its first N masks — a fixed hot working
    /// set that the server-side caches can fully absorb.
    hot_masks: Option<usize>,
    diurnal: Option<f64>,
    out: PathBuf,
    metrics_out: Option<PathBuf>,
    /// Expected server-side sampling interval; `> 0` pulls a TRACE dump
    /// mid-run and reports per-stage latency columns.
    trace_sample: u64,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        addr_file: None,
        threads: 4,
        secs: 2.0,
        batch: 0,
        zipf: None,
        hot_masks: None,
        diurnal: None,
        out: PathBuf::from("BENCH_serve.json"),
        metrics_out: None,
        trace_sample: 0,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")),
            "--addr-file" => args.addr_file = Some(PathBuf::from(value("--addr-file"))),
            "--threads" => args.threads = value("--threads").parse().expect("--threads"),
            "--secs" => args.secs = value("--secs").parse().expect("--secs"),
            "--batch" => args.batch = value("--batch").parse().expect("--batch"),
            "--zipf" => args.zipf = Some(value("--zipf").parse().expect("--zipf")),
            "--hot-masks" => {
                args.hot_masks = Some(value("--hot-masks").parse().expect("--hot-masks"))
            }
            "--diurnal" => args.diurnal = Some(value("--diurnal").parse().expect("--diurnal")),
            "--out" => args.out = PathBuf::from(value("--out")),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value("--metrics-out"))),
            "--trace-sample" => {
                args.trace_sample = value("--trace-sample").parse().expect("--trace-sample")
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out"))),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// Resolve the target address, polling `--addr-file` until the server has
/// written it (the smoke gate starts server and loadgen concurrently).
fn resolve_addr(args: &Args) -> SocketAddr {
    if let Some(addr) = &args.addr {
        return addr.parse().expect("--addr must be host:port");
    }
    let path = args.addr_file.as_ref().expect("pass --addr or --addr-file");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match std::fs::read_to_string(path) {
            Ok(s) if !s.trim().is_empty() => return s.trim().parse().expect("addr-file contents"),
            _ if Instant::now() > deadline => panic!("timed out waiting for {}", path.display()),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// CDF over pool ranks with weight `1/(i+1)^s` — rank 0 is the hottest
/// region. Sampling is a single `partition_point` per draw.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for i in 0..n {
        acc += 1.0 / ((i + 1) as f64).powf(s);
        cdf.push(acc);
    }
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn pctl(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[derive(Default)]
struct ThreadOutcome {
    ok: u64,
    masks: u64,
    busy: u64,
    errors: u64,
    max_ns: u64,
    /// This thread's largest `RESERVOIR_PER_THREAD` request latencies.
    top_ns: Vec<u64>,
}

fn main() {
    let args = parse_args();
    let addr = resolve_addr(&args);

    // Wait for the listener to come up, then learn the raster dims.
    let cfg = ClientConfig::default();
    let health = {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match Client::connect(addr, cfg.clone()).and_then(|mut c| c.health()) {
                Ok(h) => break h,
                Err(e) if Instant::now() > deadline => panic!("server never became healthy: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    };
    assert!(health.ready, "server reports not ready");
    o4a_obs::info!(
        "loadgen",
        "target {addr}: raster {}x{}, {} layers (up {}s); {} threads, {:.1}s, batch={}, \
         zipf={:?}, diurnal={:?}",
        health.h,
        health.w,
        health.layers,
        health.uptime_secs,
        args.threads,
        args.secs,
        args.batch,
        args.zipf,
        args.diurnal
    );

    // Shared query pool: the paper's four task mixes over the served raster.
    let mut rng = SeededRng::new(23);
    let mut pool: Vec<Mask> = Vec::new();
    for spec in TaskSpec::standard_tasks(150.0) {
        pool.extend(task_queries(
            health.h as usize,
            health.w as usize,
            spec,
            false,
            &mut rng,
        ));
    }
    assert!(!pool.is_empty(), "query pool is empty");
    if let Some(n) = args.hot_masks {
        assert!(n > 0, "--hot-masks must be positive");
        pool.truncate(n);
        o4a_obs::info!(
            "loadgen",
            "hot working set: {} masks (pool truncated)",
            pool.len()
        );
    }
    let pool = Arc::new(pool);
    let cdf = args.zipf.map(|s| Arc::new(zipf_cdf(pool.len(), s)));

    // All threads record request latency (ns) into one lock-free histogram;
    // bucket percentiles below come from its estimator, the exact p99.9
    // from the per-thread reservoirs.
    let latency = Arc::new(Histogram::new());
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.secs);
    let (outcomes, trace_json): (Vec<ThreadOutcome>, Option<String>) = std::thread::scope(|s| {
        // Mid-run TRACE pull: the flight recorder's rings hold only the
        // newest events, so sampling while load is flowing captures a
        // representative slice instead of the cooldown tail.
        let trace_handle = (args.trace_sample > 0).then(|| {
            s.spawn(move || {
                let mid = started + Duration::from_secs_f64(args.secs / 2.0);
                let now = Instant::now();
                if now < mid {
                    std::thread::sleep(mid - now);
                }
                Client::connect(addr, ClientConfig::default())
                    .and_then(|mut c| c.trace())
                    .ok()
            })
        });
        let handles: Vec<_> = (0..args.threads)
            .map(|tid| {
                let pool = Arc::clone(&pool);
                let cdf = cdf.clone();
                let stop = Arc::clone(&stop);
                let latency = Arc::clone(&latency);
                let cfg = cfg.clone();
                let args = &args;
                s.spawn(move || {
                    let mut out = ThreadOutcome::default();
                    let mut client = match Client::connect(addr, cfg) {
                        Ok(c) => c,
                        Err(_) => {
                            out.errors += 1;
                            return out;
                        }
                    };
                    let mut rng = SeededRng::new(1_000 + tid as u64);
                    let mut top: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
                    // Stagger thread start positions through the pool.
                    let mut i = tid * pool.len() / args.threads.max(1);
                    let pick = |i: usize, rng: &mut SeededRng| match &cdf {
                        Some(cdf) => {
                            let u = rng.uniform(0.0, 1.0) as f64;
                            cdf.partition_point(|&c| c < u).min(pool.len() - 1)
                        }
                        None => i % pool.len(),
                    };
                    // Open-loop arrival timeline for this thread.
                    let mut next = started;
                    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
                        if let Some(rps) = args.diurnal {
                            let now = Instant::now();
                            if now < next {
                                std::thread::sleep(next - now);
                            }
                            // Shape tracks the *scheduled* time so the
                            // arrival process stays independent of how
                            // slowly the server answers (open loop).
                            let t = next.saturating_duration_since(started).as_secs_f64();
                            let shape = 1.0
                                + DIURNAL_AMPLITUDE * (std::f64::consts::TAU * t / args.secs).sin();
                            let per_thread = (rps * shape / args.threads.max(1) as f64).max(1e-3);
                            next += Duration::from_secs_f64(1.0 / per_thread);
                        }
                        let t0 = Instant::now();
                        let result = if args.batch == 0 {
                            let mask = &pool[pick(i, &mut rng)];
                            i += 1;
                            client.query(mask).map(|_| 1u64)
                        } else {
                            let masks: Vec<Mask> = (0..args.batch)
                                .map(|k| pool[pick(i + k, &mut rng)].clone())
                                .collect();
                            i += args.batch;
                            client
                                .query_batch(&masks)
                                .map(|(values, _)| values.len() as u64)
                        };
                        match result {
                            Ok(n) => {
                                let ns = t0.elapsed().as_nanos() as u64;
                                latency.record(ns);
                                if top.len() < RESERVOIR_PER_THREAD {
                                    top.push(Reverse(ns));
                                } else if ns > top.peek().expect("non-empty").0 {
                                    top.pop();
                                    top.push(Reverse(ns));
                                }
                                out.max_ns = out.max_ns.max(ns);
                                out.ok += 1;
                                out.masks += n;
                            }
                            Err(ClientError::Busy) => {
                                out.busy += 1;
                                // Only the closed loop backs off; the open
                                // loop keeps its schedule so shedding
                                // shows up as shed rate, not lower load.
                                if args.diurnal.is_none() {
                                    std::thread::sleep(Duration::from_micros(200));
                                }
                            }
                            Err(_) => {
                                out.errors += 1;
                                if out.errors > 100 {
                                    break;
                                }
                            }
                        }
                    }
                    out.top_ns = top.into_iter().map(|r| r.0).collect();
                    out
                })
            })
            .collect();
        let outcomes = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let trace_json = trace_handle.and_then(|h| h.join().unwrap());
        (outcomes, trace_json)
    });
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);

    // Aggregate. p50/p95/p99 come from the histogram buckets (each at
    // most √2 − 1 ≈ 41% above the true order statistic); p99.9 is the
    // exact order statistic from the merged reservoirs while its rank
    // fits in one reservoir.
    let requests = latency.count();
    let ok: u64 = outcomes.iter().map(|o| o.ok).sum();
    let masks: u64 = outcomes.iter().map(|o| o.masks).sum();
    let busy: u64 = outcomes.iter().map(|o| o.busy).sum();
    let errors: u64 = outcomes.iter().map(|o| o.errors).sum();
    let attempts = ok + busy + errors;
    let shed_rate = if attempts > 0 {
        busy as f64 / attempts as f64
    } else {
        0.0
    };
    let secs = elapsed.as_secs_f64();
    let rps = requests as f64 / secs;
    let mps = masks as f64 / secs;
    let (p50, p95, p99) = (
        latency.quantile(0.50) / 1_000,
        latency.quantile(0.95) / 1_000,
        latency.quantile(0.99) / 1_000,
    );
    let p999_bucket = latency.quantile(0.999) / 1_000;
    let mut merged: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.top_ns.iter().copied())
        .collect();
    merged.sort_unstable_by(|a, b| b.cmp(a));
    let tail_rank = (((requests as f64) * 0.001).ceil() as usize).max(1);
    let p999_exact_valid = requests > 0 && tail_rank <= RESERVOIR_PER_THREAD;
    let p999_exact = merged
        .get(tail_rank.saturating_sub(1))
        .copied()
        .unwrap_or(0)
        / 1_000;
    let max_us = outcomes.iter().map(|o| o.max_ns).max().unwrap_or(0) / 1_000;

    // Final server-side counters and metrics scrape (best effort).
    let server_stats = Client::connect(addr, ClientConfig::default())
        .and_then(|mut c| c.stats())
        .ok();
    if let Some(path) = &args.metrics_out {
        match Client::connect(addr, ClientConfig::default()).and_then(|mut c| c.metrics()) {
            Ok(text) => {
                std::fs::write(path, text).expect("write --metrics-out");
                println!("wrote {}", path.display());
            }
            Err(e) => o4a_obs::warn!("loadgen", "METRICS scrape failed: {}", e),
        }
    }

    // Per-stage breakdown from the mid-run TRACE dump: sorted dur_ns per
    // stage name → p50/p99 columns, plus which shard lanes appeared.
    let mut stage_durs: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut shards_seen: BTreeSet<u64> = BTreeSet::new();
    let mut trace_events = 0usize;
    let mut trace_dropped = 0u64;
    if let Some(json) = &trace_json {
        if let Some(path) = &args.trace_out {
            std::fs::write(path, json).expect("write --trace-out");
            println!("wrote {} (load into chrome://tracing)", path.display());
        }
        match o4a_obs::trace::parse_chrome_json(json) {
            Some((events, dropped)) => {
                trace_events = events.len();
                trace_dropped = dropped;
                for e in &events {
                    stage_durs.entry(e.name.clone()).or_default().push(e.dur_ns);
                    if e.name == "shard_scatter" {
                        shards_seen.insert(e.tid as u64);
                    }
                }
                for durs in stage_durs.values_mut() {
                    durs.sort_unstable();
                }
            }
            None => o4a_obs::warn!("loadgen", "TRACE dump did not parse as chrome trace JSON"),
        }
    } else if args.trace_sample > 0 {
        o4a_obs::warn!(
            "loadgen",
            "--trace-sample set but the mid-run TRACE pull failed (server down or verb rejected)"
        );
    }

    println!("== loadgen: {requests} requests / {masks} masks in {secs:.2}s ==");
    println!("  throughput   {rps:>10.1} req/s   {mps:>10.1} masks/s");
    println!("  latency p50  {p50:>10} us",);
    println!("  latency p95  {p95:>10} us");
    println!("  latency p99  {p99:>10} us");
    println!(
        "  latency p99.9 {p999_exact:>9} us exact{} ({p999_bucket} us bucket estimate)",
        if p999_exact_valid {
            ""
        } else {
            " [INEXACT: rank overflows reservoir]"
        }
    );
    println!("  latency max  {max_us:>10} us");
    println!("  outcomes: {ok} ok, {busy} busy, {errors} client errors (shed rate {shed_rate:.4})");
    // Cache hit rates and shard balance from the final STATS snapshot.
    let hit_rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total > 0 {
            hits as f64 / total as f64
        } else {
            0.0
        }
    };
    let decomp_hit_rate = server_stats
        .as_ref()
        .map(|s| hit_rate(s.decomp_cache_hits, s.decomp_cache_misses));
    let plan_hit_rate = server_stats
        .as_ref()
        .map(|s| hit_rate(s.plan_cache_hits, s.plan_cache_misses));
    let shard_balance_ratio = server_stats.as_ref().and_then(|s| {
        let max = s.shard_loads.iter().copied().max()?;
        let min = s.shard_loads.iter().copied().min()?;
        (min > 0).then(|| max as f64 / min as f64)
    });
    if let Some(s) = &server_stats {
        println!(
            "  server: {} exec batches, {} coalesced masks, {} busy, {} protocol errors",
            s.exec_batches, s.coalesced_masks, s.busy_rejections, s.protocol_errors
        );
        println!(
            "  server caches: decomp {}/{} ({:.3} hit rate), plan {}/{} ({:.3} hit rate, \
             {} evictions), {} compiled terms",
            s.decomp_cache_hits,
            s.decomp_cache_hits + s.decomp_cache_misses,
            decomp_hit_rate.unwrap_or(0.0),
            s.plan_cache_hits,
            s.plan_cache_hits + s.plan_cache_misses,
            plan_hit_rate.unwrap_or(0.0),
            s.plan_cache_evictions,
            s.compiled_terms
        );
        if !s.shard_loads.is_empty() {
            println!(
                "  shard loads (groups routed): {:?} (max/min ratio {})",
                s.shard_loads,
                shard_balance_ratio
                    .map(|r| format!("{r:.2}"))
                    .unwrap_or_else(|| "inf".into())
            );
        }
    }
    if !stage_durs.is_empty() {
        println!(
            "  trace sample: {trace_events} spans ({trace_dropped} dropped), \
             shards seen {shards_seen:?}"
        );
        for (name, durs) in &stage_durs {
            println!(
                "    stage {name:<14} n={:<6} p50 {:>8} us  p99 {:>8} us",
                durs.len(),
                pctl(durs, 0.50) / 1_000,
                pctl(durs, 0.99) / 1_000
            );
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"serve_loopback\",\n");
    json.push_str(&format!("  \"threads\": {},\n", args.threads));
    json.push_str(&format!("  \"batch\": {},\n", args.batch));
    match args.diurnal {
        Some(rps) => json.push_str(&format!(
            "  \"arrival\": \"diurnal_open_loop\",\n  \"target_rps\": {rps:.1},\n"
        )),
        None => json.push_str("  \"arrival\": \"closed_loop\",\n"),
    }
    if let Some(s) = args.zipf {
        json.push_str(&format!("  \"zipf_s\": {s:.2},\n"));
    }
    if let Some(n) = args.hot_masks {
        json.push_str(&format!("  \"hot_masks\": {n},\n"));
    }
    json.push_str(&format!("  \"duration_secs\": {secs:.3},\n"));
    json.push_str(&format!("  \"requests\": {requests},\n"));
    json.push_str(&format!("  \"masks\": {masks},\n"));
    json.push_str(&format!("  \"busy\": {busy},\n"));
    json.push_str(&format!("  \"client_errors\": {errors},\n"));
    json.push_str(&format!(
        "  \"outcomes\": {{ \"ok\": {ok}, \"busy\": {busy}, \"error\": {errors} }},\n"
    ));
    json.push_str(&format!("  \"shed_rate\": {shed_rate:.4},\n"));
    json.push_str(&format!("  \"throughput_rps\": {rps:.1},\n"));
    json.push_str(&format!("  \"throughput_masks_per_sec\": {mps:.1},\n"));
    json.push_str(&format!(
        "  \"latency_us\": {{ \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}, \
         \"p999_bucket\": {p999_bucket}, \"p999_exact\": {p999_exact}, \"max\": {max_us} }},\n"
    ));
    json.push_str(&format!("  \"p999_exact_valid\": {p999_exact_valid},\n"));
    json.push_str(
        "  \"estimator_note\": \"p50/p95/p99/p999_bucket are sqrt(2)-geometric bucket upper \
         edges (at most 41% above the true order statistic); p999_exact is the true order \
         statistic from merged per-thread top-4096 reservoirs, exact while \
         ceil(0.001*requests) <= 4096\"",
    );
    if let Some(s) = &server_stats {
        json.push_str(",\n");
        json.push_str(&format!(
            "  \"server\": {{ \"connections\": {}, \"requests\": {}, \"masks_served\": {}, \
             \"exec_batches\": {}, \"coalesced_masks\": {}, \"busy_rejections\": {}, \
             \"protocol_errors\": {}, \"shard_loads\": {:?} }},\n",
            s.connections,
            s.requests,
            s.masks_served,
            s.exec_batches,
            s.coalesced_masks,
            s.busy_rejections,
            s.protocol_errors,
            s.shard_loads
        ));
        json.push_str(&format!(
            "  \"decomp_cache\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4} }},\n",
            s.decomp_cache_hits,
            s.decomp_cache_misses,
            decomp_hit_rate.unwrap_or(0.0)
        ));
        json.push_str(&format!(
            "  \"plan_cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"hit_rate\": {:.4}, \"compiled_terms\": {} }}",
            s.plan_cache_hits,
            s.plan_cache_misses,
            s.plan_cache_evictions,
            plan_hit_rate.unwrap_or(0.0),
            s.compiled_terms
        ));
        if let Some(r) = shard_balance_ratio {
            json.push_str(&format!(",\n  \"shard_balance_ratio\": {r:.3}"));
        }
    }
    if !stage_durs.is_empty() {
        json.push_str(",\n");
        json.push_str(&format!(
            "  \"trace_sample_every\": {},\n",
            args.trace_sample
        ));
        json.push_str(&format!("  \"trace_spans\": {trace_events},\n"));
        json.push_str(&format!("  \"trace_dropped\": {trace_dropped},\n"));
        let shards: Vec<String> = shards_seen.iter().map(|s| s.to_string()).collect();
        json.push_str(&format!(
            "  \"trace_shards_seen\": [{}],\n",
            shards.join(", ")
        ));
        json.push_str("  \"trace_stages\": {\n");
        let stages: Vec<String> = stage_durs
            .iter()
            .map(|(name, durs)| {
                format!(
                    "    \"{name}\": {{ \"count\": {}, \"p50_us\": {}, \"p99_us\": {} }}",
                    durs.len(),
                    pctl(durs, 0.50) / 1_000,
                    pctl(durs, 0.99) / 1_000
                )
            })
            .collect();
        json.push_str(&stages.join(",\n"));
        json.push_str("\n  }");
    }
    json.push_str("\n}\n");
    let mut f = std::fs::File::create(&args.out).expect("create --out");
    f.write_all(json.as_bytes()).expect("write --out");
    println!("wrote {}", args.out.display());

    if requests == 0 {
        o4a_obs::error!("loadgen", "FAIL: zero successful requests");
        std::process::exit(1);
    }
}
