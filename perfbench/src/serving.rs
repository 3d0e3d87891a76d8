//! The serving workloads (`hot`, `cold`, `ensemble_k2`): a real server
//! started in-process with `o4a_serve::serve` on an ephemeral port,
//! driven closed-loop by two client threads over two connections.

use crate::host::{self, ratio, Group, Samples, Sched};
use crate::setup::{self, Phases, Pool};
use crate::timed::{self, Kind, Span, Timed};
use crate::{Args, Report};
use o4a_core::compiled::{compile_groups, with_scratch};
use o4a_core::server::{predict_query, PredictionStore, QueryBackend};
use o4a_ensemble::server::compile_egroups;
use o4a_grid::decompose::{decompose, DecomposedGroup};
use o4a_grid::hierarchy::Hierarchy;
use o4a_grid::mask::Mask;
use o4a_serve::wire::{self, Request, Response, TimingNs};
use o4a_serve::{serve, Client, ClientConfig, ClientError, ServeConfig, ServerHandle};
use o4a_serve::{ShardRouter, StatsSnapshot};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ~138 masks at 32×32, one per QUERY frame, snapshot publishes every
    /// 100 ms: every query hits both caches.
    Hot,
    /// 20k+ distinct masks at 128×128 in BATCH frames of 16: every query
    /// misses both caches.
    Cold,
    /// The hot pool in BATCH frames of 16 against a K=2 shard router over
    /// ensemble servers.
    EnsembleK2,
}

/// Client threads, one connection each. On a two-vCPU VM one connection
/// measured less steady on every workload: with a single request in
/// flight the vCPUs idle between hops, and waking them costs whatever the
/// hypervisor's load makes it cost.
const CONNECTIONS: usize = 2;
/// Closed-loop warm-up before each measured window: fills the caches.
const WARMUP: Duration = Duration::from_millis(500);
/// Server counters and thread CPU are sampled this often.
const MARK_S: f64 = 0.5;
/// Interval between snapshot publishes on `hot`.
const PUBLISH_EVERY: Duration = Duration::from_millis(100);
/// Distinct masks in the `cold` pool: far above the decomposition memo
/// (256) and the plan cache (4096).
const COLD_MASKS: usize = 20_000;
/// Masks replayed through single layers in the traced run.
const REPLAY_MASKS: usize = 1024;
/// Minimum time per layer replay.
const REPLAY_S: f64 = 0.15;

struct Spec {
    side: usize,
    /// Masks per request: 1 sends QUERY frames, more sends BATCH frames.
    batch: usize,
    /// Set-ups per run; `setup_s` is their median.
    setups: usize,
    /// Client sub-window: throughput and latency are medians over
    /// sub-windows this long. Short enough that most hold no scheduling
    /// stall of the shared host, long enough for ~100+ requests each.
    bucket_s: f64,
}

impl Workload {
    fn spec(self) -> Spec {
        match self {
            Workload::Hot => Spec {
                side: 32,
                batch: 1,
                setups: 5,
                bucket_s: 0.05,
            },
            Workload::Cold => Spec {
                side: 128,
                batch: 16,
                setups: 3,
                bucket_s: 0.5,
            },
            Workload::EnsembleK2 => Spec {
                side: 32,
                batch: 16,
                setups: 5,
                bucket_s: 0.05,
            },
        }
    }
}

enum World {
    Region(setup::RegionWorld),
    Ensemble(setup::EnsembleWorld),
}

fn wrap(backend: Arc<dyn QueryBackend>, traced: bool, kind: Kind) -> Arc<dyn QueryBackend> {
    if traced {
        Arc::new(Timed::new(backend, kind))
    } else {
        backend
    }
}

impl World {
    fn build(w: Workload, spec: &Spec, args: &Args, ph: &mut Phases) -> World {
        match w {
            Workload::Hot => {
                World::Region(setup::region(spec.side, args.seed, 2, &args.scratch, ph))
            }
            Workload::Cold => {
                World::Region(setup::region(spec.side, args.seed, 1, &args.scratch, ph))
            }
            Workload::EnsembleK2 => {
                World::Ensemble(setup::ensemble(spec.side, args.seed, &args.scratch, ph))
            }
        }
    }

    /// A fresh backend (empty caches); `traced` puts timing wrappers
    /// around the served backend and, behind the router, each shard.
    fn backend(&self, traced: bool) -> Arc<dyn QueryBackend> {
        match self {
            World::Region(r) => wrap(r.server(), traced, Kind::Served),
            World::Ensemble(e) => {
                let shards = (0..2)
                    .map(|_| wrap(e.server(), traced, Kind::Shard))
                    .collect();
                wrap(Arc::new(ShardRouter::new(shards)), traced, Kind::Served)
            }
        }
    }

    fn hierarchy(&self) -> Hierarchy {
        match self {
            World::Region(r) => r.index.hier.clone(),
            World::Ensemble(e) => e.plan.hier.clone(),
        }
    }

    /// Bit patterns of the right answer for every pool mask, computed
    /// off the serving path: the interpreted `predict_query` under each
    /// served snapshot, or an unsharded in-process ensemble server.
    fn oracle(&self, pool: &Pool) -> Vec<[u32; 2]> {
        match self {
            World::Region(r) => {
                let hier = r.index.hier.clone();
                let n = pool.len();
                let chunk = n.div_ceil(host::nproc());
                std::thread::scope(|s| {
                    let parts: Vec<_> = (0..n)
                        .step_by(chunk)
                        .map(|lo| {
                            let hier = &hier;
                            s.spawn(move || {
                                (lo..(lo + chunk).min(n))
                                    .map(|i| {
                                        let m = pool.mask(i);
                                        let v: Vec<u32> = r
                                            .snapshots
                                            .iter()
                                            .map(|f| predict_query(hier, &r.index, f, &m).to_bits())
                                            .collect();
                                        [v[0], *v.last().expect("a snapshot")]
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    parts
                        .into_iter()
                        .flat_map(|h| h.join().expect("oracle thread"))
                        .collect()
                })
            }
            World::Ensemble(e) => {
                let unsharded = e.server();
                let masks: Vec<Mask> = (0..pool.len()).map(|i| pool.mask(i)).collect();
                let (values, _) = unsharded.query_many_timed(&masks);
                values.iter().map(|v| [v.to_bits(); 2]).collect()
            }
        }
    }
}

/// What the clients send: pool indices per request.
struct Load<'a> {
    pool: &'a Pool,
    requests: Vec<Vec<usize>>,
    expected: &'a [[u32; 2]],
    single: bool,
    bucket_s: f64,
}

/// Requests that completed within one sub-window.
#[derive(Default)]
struct Bucket {
    /// Queries answered correctly.
    ok: u64,
    /// Round-trip ns per request; a failed request reads `u64::MAX`.
    latency_ns: Vec<u64>,
}

/// One client thread's tally.
#[derive(Default)]
struct Tally {
    buckets: Vec<Bucket>,
    ok: u64,
    attempted: u64,
    busy: u64,
    transport: u64,
    wrong: u64,
    /// On-CPU and runqueue-wait ns of the benchmark threads (clients and
    /// publisher), which exit before the window's closing snapshot.
    cpu_ns: u64,
    wait_ns: u64,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        if self.buckets.len() < o.buckets.len() {
            self.buckets.resize_with(o.buckets.len(), Bucket::default);
        }
        for (a, b) in self.buckets.iter_mut().zip(o.buckets) {
            a.ok += b.ok;
            a.latency_ns.extend(b.latency_ns);
        }
        self.ok += o.ok;
        self.attempted += o.attempted;
        self.busy += o.busy;
        self.transport += o.transport;
        self.wrong += o.wrong;
        self.cpu_ns += o.cpu_ns;
        self.wait_ns += o.wait_ns;
    }

    fn failed(&self) -> u64 {
        self.busy + self.transport + self.wrong
    }

    fn latencies(&self) -> Samples {
        Samples::new(
            self.buckets
                .iter()
                .flat_map(|b| b.latency_ns.iter().copied())
                .collect(),
        )
    }
}

/// When a window starts and how it is cut into sub-windows.
#[derive(Clone, Copy)]
struct Clock {
    start: Instant,
    buckets: usize,
    bucket: Duration,
}

impl Clock {
    fn new(secs: f64, bucket_s: f64) -> Clock {
        let buckets = (secs / bucket_s).round().max(1.0) as usize;
        Clock {
            start: Instant::now(),
            buckets,
            bucket: Duration::from_secs_f64(secs / buckets as f64),
        }
    }

    fn deadline(&self) -> Instant {
        self.start + self.bucket * self.buckets as u32
    }

    fn bucket_of(&self, t: Instant) -> usize {
        ((t - self.start).as_secs_f64() / self.bucket.as_secs_f64()) as usize
    }
}

/// Closed loop on one connection until the window ends, checking every
/// answer. Sends requests from `*cursor` on and leaves it at the next
/// unsent one, so a later window continues through the pool instead of
/// replaying masks the caches still hold.
fn client_loop(
    addr: SocketAddr,
    load: &Load<'_>,
    cursor: &mut usize,
    clock: Clock,
    traced: bool,
) -> Tally {
    let mut client = Client::connect(addr, ClientConfig::default()).expect("connect to server");
    let mut t = Tally::default();
    t.buckets.resize_with(clock.buckets, Bucket::default);
    let mut j = *cursor;
    let mut masks: Vec<Mask> = Vec::new();
    let sched0 = host::thread_sched();
    while Instant::now() < clock.deadline() {
        let req = &load.requests[j % load.requests.len()];
        j += 1;
        masks.clear();
        masks.extend(req.iter().map(|&i| load.pool.mask(i)));
        let span_start = if traced { timed::now_ns() } else { 0 };
        let t0 = Instant::now();
        let result = if load.single {
            client.query(&masks[0]).map(|(v, _)| vec![v])
        } else {
            client.query_batch(&masks).map(|(v, _)| v)
        };
        let t1 = Instant::now();
        if traced {
            timed::record(Span {
                id: timed::next_id(),
                parent: 0,
                kind: Kind::Request,
                start_ns: span_start,
                end_ns: timed::now_ns(),
                cpu_ns: 0,
                items: req.len() as u64,
                decompose_ns: 0,
                index_ns: 0,
            });
        }
        let n = req.len() as u64;
        t.attempted += n;
        let ok = match result {
            Ok(values) => {
                let right = values.len() == req.len()
                    && values
                        .iter()
                        .zip(req)
                        .all(|(v, &i)| load.expected[i].contains(&v.to_bits()));
                if !right {
                    t.wrong += n;
                }
                right
            }
            Err(ClientError::Busy) => {
                t.busy += n;
                false
            }
            Err(_) => {
                t.transport += n;
                false
            }
        };
        // a request finishing after the deadline keeps its latency in the
        // last sub-window but adds nothing to throughput
        let b = clock.bucket_of(t1);
        let bucket = &mut t.buckets[b.min(clock.buckets - 1)];
        if ok {
            t.ok += n;
            bucket.latency_ns.push((t1 - t0).as_nanos() as u64);
            if b < clock.buckets {
                bucket.ok += n;
            }
        } else {
            bucket.latency_ns.push(u64::MAX);
        }
    }
    let sched1 = host::thread_sched();
    t.cpu_ns = sched1.0 - sched0.0;
    t.wait_ns = sched1.1 - sched0.1;
    *cursor = j % load.requests.len();
    t
}

/// Publishes the two snapshots alternately every [`PUBLISH_EVERY`] until
/// `deadline`; returns each `publish_checked` call's µs and the thread's
/// `(cpu_ns, wait_ns)`.
fn publisher(
    store: &PredictionStore,
    snapshots: &[Vec<Vec<f32>>],
    deadline: Instant,
) -> (Vec<f64>, (u64, u64)) {
    let sched0 = host::thread_sched();
    let mut times = Vec::new();
    let mut next = Instant::now() + PUBLISH_EVERY;
    while next < deadline {
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        let frames = snapshots[times.len() % snapshots.len()].clone();
        let t0 = Instant::now();
        store
            .publish_checked(frames)
            .expect("snapshot matches the hierarchy");
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        next += PUBLISH_EVERY;
    }
    let sched1 = host::thread_sched();
    (times, (sched1.0 - sched0.0, sched1.1 - sched0.1))
}

/// A measured window: client tallies plus the server's counters and the
/// threads' CPU sampled through it.
struct Window {
    wall_s: f64,
    /// Span clock at the window's start: earlier spans are warm-up.
    start_ns: u64,
    tally: Tally,
    /// `(STATS, thread CPU)` at the start, every [`MARK_S`], and after
    /// the last request.
    marks: Vec<(StatsSnapshot, Sched)>,
    pool: ((u64, u64), (u64, u64)),
    publish_us: Vec<f64>,
}

impl Window {
    fn stat(&self, f: fn(&StatsSnapshot) -> u64) -> f64 {
        let (first, last) = (&self.marks[0].0, &self.marks[self.marks.len() - 1].0);
        f(last).saturating_sub(f(first)) as f64
    }

    fn cpu(&self, groups: &[Group]) -> (f64, f64) {
        let (first, last) = (&self.marks[0].1, &self.marks[self.marks.len() - 1].1);
        let (c, w) = last.since(first, groups);
        (c as f64, w as f64)
    }

    /// `[queries/s, p50 µs, p90 µs]` of each client sub-window.
    fn per_bucket(&self) -> Vec<[f64; 3]> {
        let secs = self.wall_s / self.tally.buckets.len() as f64;
        self.tally
            .buckets
            .iter()
            .map(|b| {
                let lat = Samples::new(b.latency_ns.clone());
                [
                    b.ok as f64 / secs,
                    lat.quantile(0.5) as f64 / 1e3,
                    lat.quantile(0.9) as f64 / 1e3,
                ]
            })
            .collect()
    }

    /// Server CPU µs per query between consecutive counter samples.
    fn cpu_per_mark(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|m| {
                let queries = m[1].0.masks_served.saturating_sub(m[0].0.masks_served);
                let cpu = m[1].1.since(&m[0].1, host::SERVER).0;
                ratio(cpu as f64 / 1e3, queries as f64)
            })
            .collect()
    }
}

/// Runs the clients (and the publisher, when given) for `secs`; client
/// `c` starts at request `cursors[c]`. Returns the tally, the publish
/// times and, when `sample` is set, the server's counters and thread CPU
/// every [`MARK_S`] (the otherwise idle main thread wakes to read them).
fn drive(
    handle: &ServerHandle,
    load: &Load<'_>,
    cursors: &mut [usize],
    secs: f64,
    traced: bool,
    publish: Option<(&PredictionStore, &[Vec<Vec<f32>>])>,
    sample: bool,
) -> (Tally, Vec<f64>, Vec<(StatsSnapshot, Sched)>) {
    let addr = handle.addr();
    let mut marks = Vec::new();
    if sample {
        marks.push((handle.stats(), Sched::now()));
    }
    let clock = Clock::new(secs, load.bucket_s);
    std::thread::scope(|s| {
        let clients: Vec<_> = cursors
            .iter_mut()
            .enumerate()
            .map(|(c, cursor)| {
                std::thread::Builder::new()
                    .name(format!("bench-client-{c}"))
                    .spawn_scoped(s, move || client_loop(addr, load, cursor, clock, traced))
                    .expect("spawn client")
            })
            .collect();
        let publish = publish.map(|(store, snaps)| {
            std::thread::Builder::new()
                .name("bench-publish".into())
                .spawn_scoped(s, move || publisher(store, snaps, clock.deadline()))
                .expect("spawn publisher")
        });
        if sample {
            let mut at = clock.start + Duration::from_secs_f64(MARK_S);
            while at + Duration::from_secs_f64(MARK_S / 2.0) < clock.deadline() {
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                marks.push((handle.stats(), Sched::now()));
                at += Duration::from_secs_f64(MARK_S);
            }
        }
        let mut tally = Tally::default();
        for c in clients {
            tally.merge(c.join().expect("client thread"));
        }
        let (times, (cpu, wait)) =
            publish.map_or_else(Default::default, |p| p.join().expect("publisher thread"));
        tally.cpu_ns += cpu;
        tally.wait_ns += wait;
        if sample {
            // the last sub-window's requests in flight at the deadline
            // have now finished; close the window's totals after them
            marks.push((handle.stats(), Sched::now()));
        }
        (tally, times, marks)
    })
}

/// Warm-up, then one measured window against a running server. Warm-up
/// outcomes are added to `warm` so a wrong answer there still fails the
/// run.
fn window(
    handle: &ServerHandle,
    load: &Load<'_>,
    cursors: &mut [usize],
    secs: f64,
    traced: bool,
    publish: Option<(&PredictionStore, &[Vec<Vec<f32>>])>,
    warm: &mut Tally,
) -> Window {
    let (w, _, _) = drive(
        handle,
        load,
        cursors,
        WARMUP.as_secs_f64(),
        false,
        publish,
        false,
    );
    warm.merge(w);
    let pool0 = host::pool_counters();
    let start_ns = timed::now_ns();
    let t0 = Instant::now();
    let (tally, publish_us, marks) = drive(handle, load, cursors, secs, traced, publish, true);
    let wall_s = t0.elapsed().as_secs_f64();
    Window {
        wall_s,
        start_ns,
        tally,
        marks,
        pool: (pool0, host::pool_counters()),
        publish_us,
    }
}

pub fn run(workload: Workload, args: &Args) -> Report {
    let spec = workload.spec();
    let mut report = Report::default();

    // set-up, repeated; the last one serves
    let mut phases = Vec::new();
    let mut setup_s = Vec::new();
    let mut ready: Option<(World, ServerHandle)> = None;
    for _ in 0..spec.setups {
        let mut ph = Phases::default();
        let t0 = Instant::now();
        let world = World::build(workload, &spec, args, &mut ph);
        let handle = setup::timed(&mut ph.publish_s, || {
            serve(world.backend(false), ServeConfig::default()).expect("bind server")
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        phases.push(ph);
        if let Some((_, old)) = ready.replace((world, handle)) {
            old.shutdown();
        }
    }
    let (world, handle) = ready.expect("at least one set-up");
    println!(
        "setup_s runs: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    report.set("setup_s", host::median(&setup_s));

    // inputs and the oracle, outside set-up time
    let t_oracle = Instant::now();
    let pool = match workload {
        Workload::Cold => setup::cold_pool(spec.side, args.seed, COLD_MASKS),
        _ => setup::hot_pool(spec.side, args.seed),
    };
    let expected = world.oracle(&pool);
    let n = pool.len();
    let requests: Vec<Vec<usize>> = match (workload, spec.batch) {
        (_, 1) => (0..n).map(|i| vec![i]).collect(),
        (Workload::Cold, b) => (0..n / b).map(|j| (j * b..(j + 1) * b).collect()).collect(),
        (_, b) => (0..n)
            .map(|j| (0..b).map(|k| (j * b + k) % n).collect())
            .collect(),
    };
    let load = Load {
        pool: &pool,
        requests,
        expected: &expected,
        single: spec.batch == 1,
        bucket_s: spec.bucket_s,
    };
    println!(
        "pool: {} masks at {}x{}, {} requests of {} (oracle {:.2}s), {} connections",
        n,
        spec.side,
        spec.side,
        load.requests.len(),
        spec.batch,
        t_oracle.elapsed().as_secs_f64(),
        CONNECTIONS
    );
    let publish = match (&world, workload) {
        (World::Region(r), Workload::Hot) => Some((&*r.store, r.snapshots.as_slice())),
        _ => None,
    };

    // the clients start evenly spaced through the request list
    let mut cursors: Vec<usize> = (0..CONNECTIONS)
        .map(|c| c * load.requests.len() / CONNECTIONS)
        .collect();
    let mut warm = Tally::default();
    if !args.trace {
        let win = window(
            &handle,
            &load,
            &mut cursors[..],
            args.seconds,
            false,
            publish,
            &mut warm,
        );
        handle.shutdown();
        end_to_end(&win, &mut report);
        outcome(&mut report, &[&warm, &win.tally]);
        return report;
    }

    let half = args.seconds / 2.0;
    let plain = window(
        &handle,
        &load,
        &mut cursors[..],
        half,
        false,
        publish,
        &mut warm,
    );
    handle.shutdown();
    timed::drain();
    let handle = serve(world.backend(true), ServeConfig::default()).expect("bind traced server");
    let traced = window(
        &handle,
        &load,
        &mut cursors[..],
        half,
        true,
        publish,
        &mut warm,
    );
    handle.shutdown();
    let spans = timed::drain();
    println!("-- untraced half-window --");
    end_to_end(&plain, &mut Report::default());
    println!("-- traced half-window --");
    layers(
        workload,
        &world,
        &load,
        &plain,
        &traced,
        &spans,
        &mut report,
    );
    Phases::median(&phases).report(&mut report);
    outcome(&mut report, &[&warm, &plain.tally, &traced.tally]);
    report
}

fn outcome(report: &mut Report, tallies: &[&Tally]) {
    report.attempted = tallies.iter().map(|t| t.attempted).sum();
    report.failed = tallies.iter().map(|t| t.failed()).sum();
    report.correct = report.failed == 0 && report.attempted > 0;
    for t in tallies {
        if t.failed() > 0 {
            println!(
                "FAILED: {} busy, {} transport errors, {} wrong answers of {} queries",
                t.busy, t.transport, t.wrong, t.attempted
            );
        }
    }
}

/// `[queries/s, p50 µs, p90 µs, server CPU µs per query]` of a window:
/// medians over its sub-windows.
fn summary(win: &Window) -> [f64; 4] {
    let per = win.per_bucket();
    let col = |k: usize| host::median(&per.iter().map(|b| b[k]).collect::<Vec<_>>());
    [col(0), col(1), col(2), host::median(&win.cpu_per_mark())]
}

/// Reports `cpu_us_per_op` and prints throughput and latency, whose
/// run-to-run spread on a shared two-vCPU host is wider than any bound
/// the gate allows (see NOTES.md).
fn end_to_end(win: &Window, report: &mut Report) {
    let [ops, p50, p90, cpu] = summary(win);
    report.set("cpu_us_per_op", cpu);
    let per = win.per_bucket();
    let cpu_marks = win.cpu_per_mark();
    let columns = [
        (
            "queries_per_s",
            per.iter().map(|b| b[0]).collect::<Vec<_>>(),
        ),
        ("latency_p50_us", per.iter().map(|b| b[1]).collect()),
        ("latency_p90_us", per.iter().map(|b| b[2]).collect()),
        ("server_cpu_us_per_query", cpu_marks),
    ];
    for (name, mut v) in columns {
        v.sort_by(f64::total_cmp);
        let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
        println!(
            "{name} over {} samples: min {:.2}  q1 {:.2}  median {:.2}  q3 {:.2}  max {:.2}",
            v.len(),
            at(0.0),
            at(0.25),
            at(0.5),
            at(0.75),
            at(1.0)
        );
    }
    let us = |ns: u64| ns as f64 / 1e3;
    let all = win.tally.latencies();
    println!(
        "queries_per_s {ops:.1}  latency_p50_us {p50:.1}  latency_p90_us {p90:.1}  \
         server_cpu_us_per_query {cpu:.3}  (medians over {} sub-windows of {:.2}s)",
        per.len(),
        win.wall_s / per.len() as f64
    );
    println!(
        "whole window: {:.1} queries/s; latency_us over all {} requests: p50 {:.1}  p90 {:.1}  p99 {:.1}",
        win.tally.ok as f64 / win.wall_s,
        all.len(),
        us(all.quantile(0.5)),
        us(all.quantile(0.9)),
        us(all.quantile(0.99))
    );
    if let Some((pct, v)) = all.tail() {
        println!(
            "latency_us p{pct:.4} {:.1} (highest percentile with 10 samples beyond it)",
            us(v)
        );
    }
    println!(
        "failed_share {:.6} ({} of {} queries: busy, transport errors, wrong answers)",
        ratio(win.tally.failed() as f64, win.tally.attempted as f64),
        win.tally.failed(),
        win.tally.attempted
    );
}

/// Mean ns per call of `f(i)` over rounds of `0..n`, for at least
/// [`REPLAY_S`].
fn replay(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0usize;
    loop {
        for i in 0..n {
            f(i);
        }
        calls += n;
        if t0.elapsed().as_secs_f64() >= REPLAY_S {
            return t0.elapsed().as_nanos() as f64 / calls as f64;
        }
    }
}

/// Per-layer metrics of the traced window, plus layer replays on the
/// workload's own inputs.
fn layers(
    workload: Workload,
    world: &World,
    load: &Load<'_>,
    plain: &Window,
    traced: &Window,
    spans: &[Span],
    report: &mut Report,
) {
    let queries = traced.stat(|s| s.masks_served);
    let requests = traced.stat(|s| s.requests);
    let per_q = |ns: f64| ratio(ns / 1e3, queries);
    let (loop_cpu, loop_wait) = traced.cpu(&[Group::Loop]);
    let (exec_cpu, exec_wait) = traced.cpu(&[Group::Exec]);
    let (worker_cpu, _) = traced.cpu(&[Group::Worker]);
    let client_cpu = traced.tally.cpu_ns as f64;
    let all_wait = traced.cpu(host::ALL).1 + traced.tally.wait_ns as f64;
    let server_cpu = loop_cpu + exec_cpu + worker_cpu;
    let measured: Vec<Span> = spans
        .iter()
        .filter(|s| s.start_ns >= traced.start_ns)
        .copied()
        .collect();
    let totals = timed::summarize(&measured);
    let get = |k: &str| totals.get(k).copied().unwrap_or_default();
    let (served, shard, request) = (get("served"), get("shard"), get("request"));
    // on-CPU time inside the served backend: comparable with the
    // executor threads' schedstat CPU
    let engine_ns = served.cpu_ns as f64;

    // replays on this workload's own masks and frames
    let hier = world.hierarchy();
    let sample: Vec<Mask> = (0..load.pool.len().min(REPLAY_MASKS))
        .map(|i| load.pool.mask(i))
        .collect();
    let m = sample.len();
    let decompose_ns = replay(m, |i| {
        black_box(decompose(&hier, black_box(&sample[i])));
    });
    let groups: Vec<Vec<DecomposedGroup>> = sample.iter().map(|x| decompose(&hier, x)).collect();
    let n_groups: usize = groups.iter().map(Vec::len).sum();
    let (compile_ns, execute_ns, terms) = replay_compiled(world, &groups);
    let n_req = load.requests.len().min(REPLAY_MASKS);
    let frames: Vec<Vec<u8>> = load.requests[..n_req]
        .iter()
        .map(|req| {
            let masks: Vec<Mask> = req.iter().map(|&i| load.pool.mask(i)).collect();
            wire::encode_request(&if load.single {
                Request::Query(masks[0].clone())
            } else {
                Request::Batch(masks)
            })
        })
        .collect();
    let responses: Vec<Response> = load.requests[..n_req]
        .iter()
        .map(|req| {
            let values: Vec<f32> = req
                .iter()
                .map(|&i| f32::from_bits(load.expected[i][0]))
                .collect();
            let timing = TimingNs::default();
            if load.single {
                Response::Prediction {
                    value: values[0],
                    timing,
                }
            } else {
                Response::BatchResult { values, timing }
            }
        })
        .collect();
    let decode_ns = replay(n_req, |i| {
        let (verb, payload, _) =
            wire::decode_frame(black_box(&frames[i]), wire::DEFAULT_MAX_PAYLOAD).expect("frame");
        black_box(wire::decode_request(verb, payload).expect("request"));
    });
    let encode_ns = replay(n_req, |i| {
        black_box(wire::encode_response(black_box(&responses[i])));
    });
    let request_bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / n_req as f64;

    report.set("serve.loop_cpu_us_per_query", per_q(loop_cpu));
    report.set("serve.loop_runq_wait_us_per_query", per_q(loop_wait));
    report.set(
        "serve.exec_overhead_us_per_query",
        per_q(exec_cpu - engine_ns),
    );
    report.set("serve.exec_runq_wait_us_per_query", per_q(exec_wait));
    report.set(
        "serve.queries_per_exec_batch",
        ratio(queries, traced.stat(|s| s.exec_batches)),
    );
    report.set(
        "serve.busy_share",
        ratio(traced.stat(|s| s.busy_rejections), requests),
    );
    report.set("serve.engine_cpu_share", ratio(engine_ns, server_cpu));
    let wire_ns = (decode_ns + encode_ns) * requests;
    report.set(
        "serve.unattributed_cpu_us_per_query",
        per_q(server_cpu - engine_ns - wire_ns),
    );
    report.set("wire.request_decode_us", decode_ns / 1e3);
    report.set("wire.response_encode_us", encode_ns / 1e3);
    report.set("wire.request_bytes", request_bytes);
    if workload == Workload::EnsembleK2 {
        let (first, last) = (&traced.marks[0].0, &traced.marks[traced.marks.len() - 1].0);
        let loads: Vec<f64> = last
            .shard_loads
            .iter()
            .zip(&first.shard_loads)
            .map(|(a, b)| a.saturating_sub(*b) as f64)
            .collect();
        let max = loads.iter().copied().fold(0.0, f64::max);
        let min = loads.iter().copied().fold(f64::INFINITY, f64::min);
        report.set("router.self_us_per_query", per_q(served.self_cpu_ns as f64));
        report.set("router.shard_us_per_query", per_q(shard.cpu_ns as f64));
        report.set(
            "router.groups_per_query",
            ratio(shard.items as f64, queries),
        );
        report.set("router.balance_ratio", ratio(max, min));
        report.set("ensemble.index_us_per_query", per_q(shard.index_ns as f64));
    } else {
        report.absent(&["router.", "ensemble."]);
    }
    report.set("engine.busy_us_per_query", per_q(engine_ns));
    report.set(
        "engine.decompose_us_per_query",
        per_q(served.decompose_ns as f64),
    );
    report.set("engine.index_us_per_query", per_q(served.index_ns as f64));
    let (dh, dm) = (
        traced.stat(|s| s.decomp_cache_hits),
        traced.stat(|s| s.decomp_cache_misses),
    );
    let (ph, pm) = (
        traced.stat(|s| s.plan_cache_hits),
        traced.stat(|s| s.plan_cache_misses),
    );
    report.set("decomp_cache.hit_ratio", ratio(dh, dh + dm));
    report.set("plan_cache.hit_ratio", ratio(ph, ph + pm));
    report.set(
        "plan_cache.evictions_per_query",
        ratio(traced.stat(|s| s.plan_cache_evictions), queries),
    );
    report.set("grid.decompose_us_per_query", decompose_ns / 1e3);
    report.set("grid.groups_per_query", n_groups as f64 / m as f64);
    report.set("compiled.compile_us_per_query", compile_ns / 1e3);
    report.set("compiled.execute_us_per_query", execute_ns / 1e3);
    report.set("compiled.terms_per_query", terms);
    if traced.publish_us.is_empty() {
        report.absent(&["store."]);
    } else {
        report.set("store.publish_us", host::median(&traced.publish_us));
    }
    report.absent(&["train."]);
    let ((h0, m0), (h1, m1)) = traced.pool;
    let (hits, misses) = ((h1 - h0) as f64, (m1 - m0) as f64);
    report.set("tensor.pool_hit_ratio", ratio(hits, hits + misses));
    report.set("host.client_cpu_us_per_query", per_q(client_cpu));
    report.set(
        "host.runq_wait_share",
        ratio(all_wait, traced.wall_s * 1e9 * host::nproc() as f64),
    );
    report.set(
        "bench.trace_overhead",
        ratio(summary(plain)[0], summary(traced)[0]) - 1.0,
    );

    end_to_end(traced, &mut Report::default());
    let mean_us = |ns: u64, n: u64| ratio(ns as f64 / 1e3, n as f64);
    println!(
        "spans: {} client requests ({:.1} us wall mean); {} served-backend calls \
         ({:.1} us wall, {:.1} us CPU, {:.1} us self CPU mean); {} shard calls \
         ({:.1} us wall, {:.1} us CPU mean)",
        request.count,
        mean_us(request.total_ns, request.count),
        served.count,
        mean_us(served.total_ns, served.count),
        mean_us(served.cpu_ns, served.count),
        mean_us(served.self_cpu_ns, served.count),
        shard.count,
        mean_us(shard.total_ns, shard.count),
        mean_us(shard.cpu_ns, shard.count),
    );
    println!(
        "server CPU per query: {:.2} us = loop {:.2} + executor {:.2} (engine {:.2}, \
         other {:.2}) + pool workers {:.2}; wire replay {:.2}, unattributed {:.2}",
        per_q(server_cpu),
        per_q(loop_cpu),
        per_q(exec_cpu),
        per_q(engine_ns),
        per_q(exec_cpu - engine_ns),
        per_q(worker_cpu),
        per_q(wire_ns),
        per_q(server_cpu - engine_ns - wire_ns),
    );
    println!(
        "engine share of server CPU {:.3}; data-plane share {:.3}",
        ratio(engine_ns, server_cpu),
        1.0 - ratio(engine_ns, server_cpu)
    );
}

/// Compiles and executes each sample mask's plan the way the served
/// backend does: one whole-mask plan on a region server, one plan per
/// decomposed group on ensemble shards. Returns mean ns per mask to
/// compile and to execute, and mean terms per mask.
fn replay_compiled(world: &World, groups: &[Vec<DecomposedGroup>]) -> (f64, f64, f64) {
    let m = groups.len();
    match world {
        World::Region(r) => {
            let compile_ns = replay(m, |i| {
                black_box(compile_groups(&r.index, black_box(&groups[i])));
            });
            let plans: Vec<_> = groups.iter().map(|g| compile_groups(&r.index, g)).collect();
            let snap = r.store.snapshot();
            let execute_ns = replay(m, |i| {
                black_box(with_scratch(|s| plans[i].execute_sum(&[&*snap], s)).expect("layout"));
            });
            let terms = plans.iter().map(|p| p.num_terms()).sum::<usize>() as f64 / m as f64;
            (compile_ns, execute_ns, terms)
        }
        World::Ensemble(e) => {
            let compile_ns = replay(m, |i| {
                for g in &groups[i] {
                    black_box(compile_egroups(&e.plan, std::slice::from_ref(g)));
                }
            });
            let plans: Vec<Vec<_>> = groups
                .iter()
                .map(|gs| {
                    gs.iter()
                        .map(|g| compile_egroups(&e.plan, std::slice::from_ref(g)))
                        .collect()
                })
                .collect();
            let snaps: Vec<_> = e.stores.iter().map(|s| s.snapshot()).collect();
            let refs: Vec<_> = snaps.iter().map(|s| &**s).collect();
            let execute_ns = replay(m, |i| {
                with_scratch(|s| {
                    for p in &plans[i] {
                        black_box(p.execute_one(&refs, s).expect("layout"));
                    }
                })
            });
            let terms =
                plans.iter().flatten().map(|p| p.num_terms()).sum::<usize>() as f64 / m as f64;
            (compile_ns, execute_ns, terms)
        }
    }
}
