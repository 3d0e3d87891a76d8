//! A warm server allocates per request, and per mask only the mask's
//! decoded words: no copy of a mask lies between the socket and the
//! engine, and every response frame is reserved at its exact size.
//!
//! A two-loop loopback server over a small `RegionServer` answers one
//! client, one request in flight at a time, so no two jobs ever coalesce.
//! The counting allocator skips the client thread (it sets a thread-local
//! flag), so the counts are the server's alone. They are pinned for a
//! QUERY and for a BATCH of 1 and of 16 masks, all hitting the engine's
//! warm decomposition cache.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one test.

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::server::{PredictionStore, QueryBackend, RegionServer};
use o4a_grid::{Hierarchy, Mask};
use o4a_serve::{serve, Client, ClientConfig, ServeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Counts the allocation events (`alloc` and `realloc`) of every thread
/// but the ones that set [`UNCOUNTED`].
struct ServerAlloc {
    allocs: AtomicUsize,
}

thread_local! {
    /// Set on the client thread.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

impl ServerAlloc {
    fn count(&self) {
        if !UNCOUNTED.with(Cell::get) {
            self.allocs.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for ServerAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: ServerAlloc = ServerAlloc {
    allocs: AtomicUsize::new(0),
};

/// Server allocations while `f` runs one exchange. The server allocates
/// nothing after writing its response, so the count is complete once the
/// client has read it.
fn server_allocations(f: impl FnOnce()) -> usize {
    let before = A.allocs.load(Ordering::Relaxed);
    f();
    A.allocs.load(Ordering::Relaxed) - before
}

const SIDE: usize = 16;

/// Allocations of a warm QUERY: the mask's words, the engine's four
/// per-call buffers (snapshots, frame views, term counts, values) and the
/// response frame. The loop's parsed-request list is kept across chunks,
/// and each frame goes to its connection as it is encoded, so neither
/// allocates.
const QUERY_ALLOCS: usize = 6;
/// Allocations of a warm BATCH of one mask: a QUERY's, plus the batch's
/// mask list. Its response frame is encoded from the batch's values in
/// place.
const BATCH_ALLOCS: usize = QUERY_ALLOCS + 1;

#[test]
fn warm_requests_allocate_per_request_and_per_mask_words_only() {
    UNCOUNTED.with(|c| c.set(true));
    let hier = Hierarchy::new(SIDE, SIDE, 2, 5).unwrap();
    let frames: Vec<Vec<f32>> = (0..hier.num_layers())
        .map(|l| {
            (0..hier.layer_len(l))
                .map(|i| ((i * 7 + l * 3) % 11) as f32)
                .collect()
        })
        .collect();
    let preds: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone(); 2]).collect();
    let index =
        search_optimal_combinations(&hier, &preds, &preds, SearchStrategy::UnionSubtraction);
    let store = Arc::new(PredictionStore::for_hierarchy(&hier));
    store.publish_checked(frames).unwrap();
    let region: Arc<dyn QueryBackend> = Arc::new(RegionServer::new(index, store));
    let handle = serve(
        region,
        ServeConfig {
            event_loops: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();

    let masks: Vec<Mask> = (0..16)
        .map(|i| Mask::rect(SIDE, SIDE, i % 5, i % 7, 6 + i % 10, 5 + i % 11))
        .collect();
    // warm the decomposition cache and every lazily grown server buffer
    for _ in 0..3 {
        for mask in &masks {
            client.query(mask).unwrap();
        }
        client.query_batch(&masks).unwrap();
    }

    for round in 0..5 {
        let mask = &masks[round % masks.len()];
        let query = server_allocations(|| {
            client.query(mask).unwrap();
        });
        let one = server_allocations(|| {
            client.query_batch(&masks[..1]).unwrap();
        });
        let all = server_allocations(|| {
            client.query_batch(&masks).unwrap();
        });
        assert_eq!(
            query, QUERY_ALLOCS,
            "round {round}: QUERY allocated {query} times"
        );
        assert_eq!(
            one, BATCH_ALLOCS,
            "round {round}: BATCH of 1 allocated {one} times"
        );
        assert_eq!(
            all,
            BATCH_ALLOCS + 15,
            "round {round}: BATCH of 16 allocated {all} times, BATCH of 1 {one}"
        );
    }
    handle.shutdown();
}
