//! Proves the "disabled logging is free" contract: with the level at
//! `Error`, a `debug!` or `info!` record must not allocate at all — it is
//! one relaxed atomic load and a branch.
//!
//! This file deliberately contains exactly ONE `#[test]`: the counting
//! global allocator is process-wide, and a concurrently running test
//! would pollute the delta.

use o4a_obs::CountingAlloc;

#[global_allocator]
static A: CountingAlloc = CountingAlloc::new();

#[test]
fn disabled_logging_does_not_allocate() {
    // Warm up everything that legitimately allocates once: the level
    // (reads the O4A_LOG env var), and one enabled record through the
    // sink so the mutex'd writer exists.
    o4a_obs::set_max_level(o4a_obs::Level::Debug);
    o4a_obs::debug!("no_alloc", "warmup"; k = 1);

    // Now disable Debug and measure.
    o4a_obs::set_max_level(o4a_obs::Level::Error);
    let before = A.allocations();
    for i in 0..10_000 {
        o4a_obs::debug!("no_alloc", "dropped record {}", i; iter = i);
        o4a_obs::info!("no_alloc", "also dropped");
    }
    let after = A.allocations();
    assert_eq!(
        after - before,
        0,
        "disabled-level logging allocated {} times",
        after - before
    );
}
