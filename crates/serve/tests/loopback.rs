//! Loopback integration tests: a real server on an ephemeral port, driven
//! through real sockets, with responses compared bit-for-bit against
//! in-process `RegionServer::query` results.

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::one4all::truth_pyramid;
use o4a_core::server::{PredictionStore, QueryBackend, QueryTiming, RegionServer};
use o4a_data::synthetic::DatasetKind;
use o4a_grid::decompose::DecomposedGroup;
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::{Hierarchy, Mask};
use o4a_serve::wire::{encode_frame, encode_request, read_frame, Verb, DEFAULT_MAX_PAYLOAD};
use o4a_serve::{
    serve, Client, ClientConfig, Request, Response, ServeConfig, ServerHandle, ShardRouter,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const SIDE: usize = 16;

/// Build the reference region server: a small hierarchy, ground-truth
/// snapshot, and a union-subtraction index.
fn region_fixture() -> Arc<RegionServer> {
    let hier = Hierarchy::new(SIDE, SIDE, 2, 4).unwrap();
    let flow = DatasetKind::TaxiNycLike
        .config(SIDE, SIDE, 32, 9)
        .generate();
    let slots: Vec<usize> = (24..32).collect();
    let truths = truth_pyramid(&hier, &flow, &slots);
    let index =
        search_optimal_combinations(&hier, &truths, &truths, SearchStrategy::UnionSubtraction);
    let store = Arc::new(PredictionStore::for_hierarchy(&hier));
    store
        .publish_checked(truths.iter().map(|layer| layer[0].clone()).collect())
        .unwrap();
    Arc::new(RegionServer::new(index, store))
}

fn start(cfg_tweak: impl FnOnce(&mut ServeConfig)) -> (Arc<RegionServer>, ServerHandle) {
    let region = region_fixture();
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    cfg_tweak(&mut cfg);
    let backend: Arc<dyn o4a_core::server::QueryBackend> = Arc::clone(&region) as _;
    let handle = serve(backend, cfg).unwrap();
    (region, handle)
}

fn query_masks() -> Vec<Mask> {
    let mut rng = o4a_tensor::SeededRng::new(31);
    let mut masks = Vec::new();
    for spec in TaskSpec::standard_tasks(150.0) {
        masks.extend(task_queries(SIDE, SIDE, spec, false, &mut rng));
    }
    masks.truncate(64);
    masks
}

#[test]
fn single_queries_bit_match_in_process() {
    let (region, handle) = start(|_| {});
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    for mask in query_masks() {
        let (remote, _) = client.query(&mask).unwrap();
        let local = region.query(&mask);
        assert_eq!(
            remote.to_bits(),
            local.to_bits(),
            "wire answer differs from in-process query"
        );
    }
    handle.shutdown();
}

#[test]
fn batched_queries_bit_match_in_process() {
    let (region, handle) = start(|_| {});
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    let masks = query_masks();
    let (remote, timing) = client.query_batch(&masks).unwrap();
    assert_eq!(remote.len(), masks.len());
    for (mask, value) in masks.iter().zip(&remote) {
        assert_eq!(value.to_bits(), region.query(mask).to_bits());
    }
    // The aggregate timing must be populated (the server measured work).
    assert!(timing.decompose_ns + timing.index_ns > 0);
    handle.shutdown();
}

#[test]
fn health_and_stats_roundtrip() {
    let (_region, handle) = start(|_| {});
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    let health = client.health().unwrap();
    assert!(health.ready);
    assert_eq!(health.h, SIDE as u32);
    assert_eq!(health.w, SIDE as u32);
    assert_eq!(health.layers, 4);

    let mask = Mask::rect(SIDE, SIDE, 2, 2, 6, 6);
    client.query(&mask).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.connections >= 1);
    assert!(stats.requests >= 1);
    assert_eq!(stats.masks_served, 1);
    assert_eq!(stats.exec_batches, 1);
    assert_eq!(stats.busy_rejections, 0);
    assert_eq!(stats.protocol_errors, 0);
    handle.shutdown();
}

/// The single-mask regression guard: a served query must not pay a pool
/// wake-up. A batch of one mask is far below the adaptive parallel cutoff,
/// so `query_many` runs it on the caller thread — its latency must stay
/// within a small factor of the plain in-process `query` (a pool wake-up
/// costs ~100x a cached single-mask query). The wire path gets an
/// additional generous absolute bound rather than a ratio, since socket
/// round-trips dominate it.
#[test]
fn single_mask_served_latency_does_not_regress() {
    let (region, handle) = start(|_| {});
    let mask = Mask::rect(SIDE, SIDE, 3, 2, 9, 11);
    let median = |mut samples: Vec<Duration>| -> Duration {
        samples.sort();
        samples[samples.len() / 2]
    };
    let time_n = |mut f: Box<dyn FnMut()>| -> Duration {
        let mut samples = Vec::with_capacity(200);
        for _ in 0..200 {
            let t = std::time::Instant::now();
            f();
            samples.push(t.elapsed());
        }
        median(samples)
    };

    // warmup (fills the decomposition cache for this mask)
    for _ in 0..50 {
        let _ = region.query(&mask);
        let _ = region.query_many(std::slice::from_ref(&mask));
    }
    let single = {
        let region = Arc::clone(&region);
        let m = mask.clone();
        time_n(Box::new(move || {
            std::hint::black_box(region.query(&m));
        }))
    };
    let batch_of_one = {
        let region = Arc::clone(&region);
        let m = mask.clone();
        time_n(Box::new(move || {
            std::hint::black_box(region.query_many(std::slice::from_ref(&m)));
        }))
    };
    assert!(
        batch_of_one < single * 10 + Duration::from_micros(20),
        "batch-of-one path regressed vs in-process query: {batch_of_one:?} vs {single:?}"
    );

    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    for _ in 0..20 {
        client.query(&mask).unwrap(); // warmup
    }
    let served = {
        let m = mask.clone();
        time_n(Box::new(move || {
            client.query(&m).unwrap();
        }))
    };
    assert!(
        served < Duration::from_millis(10),
        "served single-mask latency blew past the sanity bound: {served:?}"
    );
    handle.shutdown();
}

/// STATS surfaces the decomposition-memo counters of the backend, here a
/// shard router (K=1 over the region server) that keeps its own memo: a
/// repeated mask hits, a fresh one misses.
#[test]
fn stats_surface_decomp_cache_counters() {
    let router = ShardRouter::new(vec![region_fixture() as Arc<dyn QueryBackend>]);
    let handle = serve(
        Arc::new(router),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    let a = Mask::rect(SIDE, SIDE, 1, 1, 5, 5);
    let b = Mask::rect(SIDE, SIDE, 4, 4, 12, 10);
    client.query(&a).unwrap();
    client.query(&a).unwrap();
    client.query(&b).unwrap();
    let stats = client.stats().unwrap();
    assert!(
        stats.decomp_cache_hits >= 1,
        "repeated mask did not hit the memo: {stats:?}"
    );
    assert_eq!(
        stats.decomp_cache_misses, 2,
        "two distinct masks -> two misses"
    );
    assert_eq!(
        stats.decomp_cache_hits + stats.decomp_cache_misses,
        stats.masks_served,
        "every served mask goes through the memo"
    );
    handle.shutdown();
}

#[test]
fn corrupt_frame_gets_error_and_close() {
    let (_region, handle) = start(|_| {});
    let mask = Mask::rect(SIDE, SIDE, 0, 0, 3, 3);
    let mut frame = encode_request(&Request::Query(mask));
    // Flip a payload byte without fixing the CRC.
    let last = frame.len() - 1;
    frame[last] ^= 0x40;

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&frame).unwrap();
    let (verb, payload) = read_frame(&mut stream, DEFAULT_MAX_PAYLOAD).unwrap();
    let resp = o4a_serve::wire::decode_response(verb, &payload).unwrap();
    assert!(matches!(resp, Response::Error(_)), "got {resp:?}");
    // The server closes the connection after a protocol error.
    match read_frame(&mut stream, DEFAULT_MAX_PAYLOAD) {
        Err(_) => {}
        Ok(other) => panic!("expected close after protocol error, got {other:?}"),
    }

    // The server survives: a fresh, well-formed connection still works.
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    client.query(&Mask::rect(SIDE, SIDE, 1, 1, 2, 2)).unwrap();
    assert!(client.stats().unwrap().protocol_errors >= 1);
    handle.shutdown();
}

#[test]
fn oversized_frame_rejected_without_panic() {
    let (_region, handle) = start(|cfg| cfg.max_payload = 1024);
    // A header advertising a payload far beyond the server's cap.
    let frame = encode_frame(Verb::Query, &vec![0u8; 4096]);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&frame).unwrap();
    let (verb, payload) = read_frame(&mut stream, DEFAULT_MAX_PAYLOAD).unwrap();
    let resp = o4a_serve::wire::decode_response(verb, &payload).unwrap();
    assert!(matches!(resp, Response::Error(_)), "got {resp:?}");

    // Server still healthy afterwards.
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    assert!(client.health().unwrap().ready);
    handle.shutdown();
}

#[test]
fn dim_mismatch_is_an_error_but_keeps_the_connection() {
    let (region, handle) = start(|_| {});
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    let wrong = Mask::rect(SIDE * 2, SIDE * 2, 0, 0, 3, 3);
    match client.query(&wrong) {
        Err(o4a_serve::ClientError::Remote(msg)) => {
            assert!(msg.contains("mask"), "unexpected message: {msg}")
        }
        other => panic!("expected remote error, got {other:?}"),
    }
    // Same connection keeps working.
    client.query(&Mask::rect(SIDE, SIDE, 0, 0, 3, 3)).unwrap();
    // A batch rejected after its first mask was admitted leaves nothing
    // behind: the query parsed in the same wake reads its own mask.
    let (a, b) = (
        Mask::rect(SIDE, SIDE, 0, 0, 3, 3),
        Mask::rect(SIDE, SIDE, 4, 4, 9, 9),
    );
    assert_ne!(region.query(&a).to_bits(), region.query(&b).to_bits());
    let frames = [
        encode_request(&Request::Batch(vec![a, wrong])),
        encode_request(&Request::Query(b.clone())),
    ];
    match &pipeline(&handle, &frames)[..] {
        [Response::Error(_), Response::Prediction { value, .. }] => {
            assert_eq!(value.to_bits(), region.query(&b).to_bits())
        }
        other => panic!("expected an error then a prediction, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn zero_capacity_queue_sheds_load_with_busy() {
    let (_region, handle) = start(|cfg| cfg.queue_cap = 0);
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    match client.query(&Mask::rect(SIDE, SIDE, 0, 0, 3, 3)) {
        Err(o4a_serve::ClientError::Busy) => {}
        other => panic!("expected BUSY, got {other:?}"),
    }
    assert!(client.stats().unwrap().busy_rejections >= 1);
    handle.shutdown();
}

/// Writes `frames` to a fresh raw connection in one `write_all` (so one
/// wake parses them all) and reads back one response per frame.
fn pipeline(handle: &ServerHandle, frames: &[Vec<u8>]) -> Vec<Response> {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&frames.concat()).unwrap();
    frames
        .iter()
        .map(|_| {
            let (verb, payload) = read_frame(&mut stream, DEFAULT_MAX_PAYLOAD).unwrap();
            o4a_serve::wire::decode_response(verb, &payload).unwrap()
        })
        .collect()
}

/// Everything one wake parses runs as one batch: 16 pipelined QUERY
/// frames come back in order, bit-identical, from fewer executions than
/// masks.
#[test]
fn pipelined_queries_coalesce_in_order() {
    let (region, handle) = start(|_| {});
    let masks: Vec<Mask> = query_masks().into_iter().take(16).collect();
    let frames: Vec<Vec<u8>> = masks
        .iter()
        .map(|m| encode_request(&Request::Query(m.clone())))
        .collect();
    let responses = pipeline(&handle, &frames);
    for (mask, resp) in masks.iter().zip(&responses) {
        match resp {
            Response::Prediction { value, .. } => {
                assert_eq!(value.to_bits(), region.query(mask).to_bits())
            }
            other => panic!("expected a prediction, got {other:?}"),
        }
    }
    let stats = handle.stats();
    assert_eq!(stats.masks_served, 16);
    assert!(
        stats.exec_batches < stats.masks_served,
        "no coalescing: {} batches for {} masks",
        stats.exec_batches,
        stats.masks_served
    );
    handle.shutdown();
}

/// Admission is a per-loop backlog cap: of 10 pipelined queries against
/// `queue_cap: 4`, the answers stay in request order, each is either the
/// bit-identical value or `BUSY`, and STATS counts every `BUSY`.
#[test]
fn pipelined_queries_beyond_the_backlog_cap_shed_with_busy() {
    let (region, handle) = start(|cfg| cfg.queue_cap = 4);
    let masks: Vec<Mask> = query_masks().into_iter().take(10).collect();
    let frames: Vec<Vec<u8>> = masks
        .iter()
        .map(|m| encode_request(&Request::Query(m.clone())))
        .collect();
    let responses = pipeline(&handle, &frames);
    let mut busy = 0u64;
    for (mask, resp) in masks.iter().zip(&responses) {
        match resp {
            Response::Prediction { value, .. } => {
                assert_eq!(value.to_bits(), region.query(mask).to_bits())
            }
            Response::Busy => busy += 1,
            other => panic!("expected a prediction or BUSY, got {other:?}"),
        }
    }
    assert!(busy >= 1, "10 pipelined queries never hit a cap of 4");
    let stats = handle.stats();
    assert_eq!(stats.busy_rejections, busy);
    assert_eq!(stats.masks_served, 10 - busy);
    handle.shutdown();
}

/// Delegates to a region server but panics on one poison mask.
struct PoisonBackend {
    inner: Arc<RegionServer>,
    poison: Mask,
}

impl QueryBackend for PoisonBackend {
    fn hierarchy(&self) -> &Hierarchy {
        self.inner.hierarchy()
    }

    fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }

    fn query_many_timed(&self, masks: &[Mask]) -> (Vec<f32>, QueryTiming) {
        assert!(!masks.contains(&self.poison), "poison mask");
        self.inner.query_many_timed(masks)
    }

    fn query_groups_timed(&self, groups: &[DecomposedGroup]) -> (Vec<f32>, QueryTiming) {
        self.inner.query_groups_timed(groups)
    }
}

/// A panicking backend call answers its request with ERROR, and the loop
/// keeps serving that connection and its neighbours.
#[test]
fn backend_panic_answers_error_and_the_loop_keeps_serving() {
    let region = region_fixture();
    let poison = Mask::rect(SIDE, SIDE, 5, 5, 7, 7);
    let backend = PoisonBackend {
        inner: Arc::clone(&region),
        poison: poison.clone(),
    };
    let handle = serve(
        Arc::new(backend),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            event_loops: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // a short timeout and no redial: an unanswered query fails the test
    // instead of hanging it
    let cfg = ClientConfig {
        io_timeout: Duration::from_secs(2),
        reconnects: 0,
        ..ClientConfig::default()
    };
    let mut a = Client::connect(handle.addr(), cfg.clone()).unwrap();
    let mut b = Client::connect(handle.addr(), cfg).unwrap();
    let good = Mask::rect(SIDE, SIDE, 1, 2, 9, 8);
    match a.query(&poison) {
        Err(o4a_serve::ClientError::Remote(_)) => {}
        other => panic!("expected a remote error, got {other:?}"),
    }
    let want = region.query(&good).to_bits();
    assert_eq!(a.query(&good).unwrap().0.to_bits(), want);
    assert_eq!(b.query(&good).unwrap().0.to_bits(), want);
    let metrics = a.metrics().unwrap();
    assert!(
        metrics
            .lines()
            .any(|l| l == "o4a_serve_backend_panics_total 1"),
        "panic counter is not 1:\n{metrics}"
    );
    handle.shutdown();
}

#[test]
fn concurrent_clients_coalesce_and_bit_match() {
    let (region, handle) = start(|cfg| cfg.event_loops = 4);
    let masks = query_masks();
    let addr = handle.addr();
    let results: Vec<Vec<(Mask, f32)>> = std::thread::scope(|s| {
        (0..4)
            .map(|tid| {
                let masks = masks.clone();
                s.spawn(move || {
                    let mut client = Client::connect(addr, ClientConfig::default()).unwrap();
                    masks
                        .into_iter()
                        .skip(tid)
                        .step_by(4)
                        .map(|m| {
                            let (v, _) = client.query(&m).unwrap();
                            (m, v)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for (mask, value) in results.into_iter().flatten() {
        assert_eq!(value.to_bits(), region.query(&mask).to_bits());
    }
    let stats = handle.stats();
    assert_eq!(stats.masks_served as usize, masks.len());
    // Four connections on four loops run concurrently and need not
    // coalesce (pipelined_queries_coalesce_in_order pins coalescing);
    // every executed batch answered at least one mask.
    assert!(
        (1..=stats.masks_served).contains(&stats.exec_batches),
        "{} batches for {} masks",
        stats.exec_batches,
        stats.masks_served
    );
    handle.shutdown();
}

#[test]
fn shutdown_is_clean_and_refuses_new_connections() {
    let (_region, handle) = start(|_| {});
    let addr = handle.addr();
    let mut client = Client::connect(addr, ClientConfig::default()).unwrap();
    client.query(&Mask::rect(SIDE, SIDE, 0, 0, 2, 2)).unwrap();
    handle.shutdown();
    // After shutdown the port no longer accepts (or immediately drops)
    // connections; a fresh health call must fail.
    let cfg = ClientConfig {
        reconnects: 0,
        connect_timeout: Duration::from_millis(200),
        io_timeout: Duration::from_millis(500),
        ..ClientConfig::default()
    };
    match Client::connect(addr, cfg).and_then(|mut c| c.health()) {
        Err(_) => {}
        Ok(h) => panic!("server still answering after shutdown: {h:?}"),
    }
}
