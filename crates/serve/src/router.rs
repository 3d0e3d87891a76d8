//! Scatter-gather shard routing for the query tier.
//!
//! [`ShardRouter`] partitions the grid hierarchy's decomposed-group
//! space across K backend shards by consistent hashing and serves behind
//! the same [`QueryBackend`] trait as an unsharded backend, so `serve`
//! cannot tell the difference.
//!
//! **Why scatter-gather is exact.** Decomposition (Algorithm 1) writes a
//! region as a disjoint union of groups, and the unsharded answer is the
//! *sum of the groups' values in decomposition order* — each group's
//! value (its multi-grid entry or its member cells' optimal
//! combinations, including any coarse-minus-correction terms inside a
//! combination) is computed entirely from that group. Nothing crosses
//! group boundaries, so evaluating each group on whichever shard owns it
//! and folding the partial values back **in the original decomposition
//! order** performs bit-for-bit the same f32 additions as the unsharded
//! path. The router therefore asserts nothing weaker than equality: K=1
//! and K>1 produce identical bits (`tests/shard_props.rs`).
//!
//! Ownership is a consistent-hash ring over each group's *anchor cell*
//! (its layer plus first — row-major smallest — cell): 128 virtual nodes
//! per shard, FNV-1a 64 points, successor lookup. Anchoring on a cell
//! rather than the whole group keeps assignment stable when neighboring
//! masks decompose into overlapping group sets.

use o4a_core::cache::{CacheMetrics, ClockCache};
use o4a_core::server::{QueryBackend, QueryTiming};
use o4a_grid::decompose::DecomposedGroup;
use o4a_grid::hierarchy::Hierarchy;
use o4a_grid::mask::Mask;
use o4a_obs::trace::{self, SpanEvent, SpanKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual nodes per shard on the hash ring. 32 left arc lengths lumpy
/// enough that K=2 deployments measured a ~4x per-shard load skew; 128
/// points per shard (with the finalizer below) keeps the max/min routed
/// ratio under 2x on uniform workloads (`shard_load_balance_is_bounded`).
const VNODES: usize = 128;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// splitmix64 finalizer. FNV-1a alone avalanches poorly on the short,
/// mostly-zero little-endian keys the router hashes (grid coordinates are
/// tiny integers), clustering ring points and anchor hashes; this mixes
/// every input bit into every output bit.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The sorted consistent-hash ring for `n_shards` shards.
fn ring_points(n_shards: usize) -> Vec<(u64, usize)> {
    let mut ring = Vec::with_capacity(n_shards * VNODES);
    for shard in 0..n_shards {
        for v in 0..VNODES {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&(shard as u64).to_le_bytes());
            key[8..].copy_from_slice(&(v as u64).to_le_bytes());
            ring.push((mix64(fnv1a64(&key)), shard));
        }
    }
    ring.sort_unstable();
    ring
}

/// Hash point of a group's anchor cell.
fn anchor_hash(layer: usize, r: usize, c: usize) -> u64 {
    let mut key = [0u8; 24];
    key[..8].copy_from_slice(&(layer as u64).to_le_bytes());
    key[8..16].copy_from_slice(&(r as u64).to_le_bytes());
    key[16..].copy_from_slice(&(c as u64).to_le_bytes());
    mix64(fnv1a64(&key))
}

/// Routes decomposed groups across K [`QueryBackend`] shards and merges
/// the partial aggregates bit-identically to an unsharded backend.
pub struct ShardRouter {
    shards: Vec<Arc<dyn QueryBackend>>,
    /// Sorted (hash point, shard) ring.
    ring: Vec<(u64, usize)>,
    /// Mask → decomposition memo: the router decomposes masks itself and
    /// its shards only ever see groups, so this is the router's one cache
    /// and every STATS cache counter comes from here.
    decompositions: ClockCache<Mask, Arc<[DecomposedGroup]>>,
    /// Groups routed to each shard since start.
    loads: Vec<AtomicU64>,
    /// The same counts mirrored into the metrics registry as
    /// `o4a_shard_routed_total{shard="i"}`, incremented in lockstep with
    /// `loads` so METRICS reconciles with STATS `shard_loads`.
    routed_metrics: Vec<Arc<o4a_obs::Counter>>,
}

impl ShardRouter {
    /// Builds a router over `shards` (all must serve identical hierarchy
    /// geometry).
    ///
    /// # Panics
    /// Panics if `shards` is empty or the hierarchies disagree on
    /// dimensions.
    pub fn new(shards: Vec<Arc<dyn QueryBackend>>) -> ShardRouter {
        assert!(!shards.is_empty(), "router needs at least one shard");
        let h0 = shards[0].hierarchy();
        let dims = (h0.h(), h0.w(), h0.num_layers(), h0.k());
        for s in &shards[1..] {
            let h = s.hierarchy();
            assert_eq!(
                (h.h(), h.w(), h.num_layers(), h.k()),
                dims,
                "every shard must serve the same hierarchy geometry"
            );
        }
        let ring = ring_points(shards.len());
        let loads = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        let routed_metrics = (0..shards.len())
            .map(|s| {
                o4a_obs::metrics::global().labeled_counter(
                    "o4a_shard_routed_total",
                    "decomposed groups routed to each shard by the query router",
                    "shard",
                    &s.to_string(),
                )
            })
            .collect();
        let reg = o4a_obs::metrics::global();
        let memo_metrics = CacheMetrics {
            hits: reg.counter(
                "o4a_decomp_cache_hits_total",
                "decomposition-memo hits across all shard routers",
            ),
            misses: reg.counter(
                "o4a_decomp_cache_misses_total",
                "decomposition-memo misses across all shard routers",
            ),
            evictions: reg.counter(
                "o4a_decomp_cache_evictions_total",
                "decompositions evicted by the CLOCK cap",
            ),
            entries: reg.gauge(
                "o4a_decomp_cache_entries",
                "decompositions currently memoized",
            ),
        };
        ShardRouter {
            shards,
            ring,
            decompositions: ClockCache::decompositions(memo_metrics),
            loads,
            routed_metrics,
        }
    }

    /// Which shard owns a decomposed group: successor of the anchor
    /// cell's hash point on the ring.
    pub fn shard_for(&self, group: &DecomposedGroup) -> usize {
        let (r, c) = group.cells().next().unwrap_or((0, 0));
        let h = anchor_hash(group.layer(), r, c);
        let idx = self.ring.partition_point(|&(p, _)| p < h);
        self.ring[idx % self.ring.len()].1
    }

    /// Scatter: routes groups to their owners, evaluates each shard's
    /// slice with one [`QueryBackend::query_groups_timed`] call, and
    /// gathers the per-group values back into input order. The returned
    /// timing's `index` is the exact sum of the shard timings.
    fn scatter_gather(&self, groups: &[DecomposedGroup]) -> (Vec<f32>, Duration) {
        let k = self.shards.len();
        let mut per_shard: Vec<Vec<DecomposedGroup>> = vec![Vec::new(); k];
        // (shard, position in that shard's slice) per input group
        let placement: Vec<(usize, usize)> = groups
            .iter()
            .map(|g| {
                let s = self.shard_for(g);
                per_shard[s].push(*g);
                (s, per_shard[s].len() - 1)
            })
            .collect();
        // per-shard scatter and gather spans ride on whatever trace the
        // serving event loop set as current on this thread (0 = untraced)
        let tid = trace::current();
        let mut shard_values: Vec<Vec<f32>> = Vec::with_capacity(k);
        let mut index_total = Duration::ZERO;
        for (s, slice) in per_shard.iter().enumerate() {
            if slice.is_empty() {
                shard_values.push(Vec::new());
                continue;
            }
            let t0_ns = if tid != 0 { trace::now_ns() } else { 0 };
            let (vals, t) = self.shards[s].query_groups_timed(slice);
            if tid != 0 {
                trace::emit(&SpanEvent {
                    trace_id: tid,
                    span: SpanKind::ShardScatter as u16,
                    parent: SpanKind::ExecBatch as u16,
                    lane: s as u32,
                    t_start_ns: t0_ns,
                    t_end_ns: trace::now_ns(),
                    bytes: slice.len() as u64,
                });
            }
            debug_assert_eq!(vals.len(), slice.len());
            self.loads[s].fetch_add(slice.len() as u64, Ordering::Relaxed);
            self.routed_metrics[s].add(slice.len() as u64);
            index_total += t.index;
            shard_values.push(vals);
        }
        let t_gather_ns = if tid != 0 { trace::now_ns() } else { 0 };
        let gathered: Vec<f32> = placement.iter().map(|&(s, i)| shard_values[s][i]).collect();
        if tid != 0 {
            trace::emit(&SpanEvent {
                trace_id: tid,
                span: SpanKind::Gather as u16,
                parent: SpanKind::ExecBatch as u16,
                lane: 0,
                t_start_ns: t_gather_ns,
                t_end_ns: trace::now_ns(),
                bytes: groups.len() as u64,
            });
        }
        (gathered, index_total)
    }
}

impl QueryBackend for ShardRouter {
    fn hierarchy(&self) -> &Hierarchy {
        self.shards[0].hierarchy()
    }

    fn is_ready(&self) -> bool {
        self.shards.iter().all(|s| s.is_ready())
    }

    fn query_many_timed(&self, masks: &[Mask]) -> (Vec<f32>, QueryTiming) {
        let hier = self.shards[0].hierarchy();
        let t0 = Instant::now();
        let decomps: Vec<Arc<[DecomposedGroup]>> = masks
            .iter()
            .map(|m| self.decompositions.decomposition(hier, m))
            .collect();
        let decompose_t = t0.elapsed();
        // flatten every mask's groups, remembering each mask's span
        let mut flat: Vec<DecomposedGroup> = Vec::new();
        let spans: Vec<std::ops::Range<usize>> = decomps
            .iter()
            .map(|groups| {
                let start = flat.len();
                flat.extend_from_slice(groups);
                start..flat.len()
            })
            .collect();
        let (values, index_t) = self.scatter_gather(&flat);
        // fold each mask's per-group values in decomposition order from
        // 0.0 — the exact f32 additions the unsharded path performs (an
        // empty f32 `sum()` is -0.0, which a mask without cells would
        // answer)
        let out: Vec<f32> = spans
            .iter()
            .map(|span| values[span.clone()].iter().fold(0.0f32, |acc, v| acc + v))
            .collect();
        (
            out,
            QueryTiming {
                decompose: decompose_t,
                index: index_t,
            },
        )
    }

    fn query_groups_timed(&self, groups: &[DecomposedGroup]) -> (Vec<f32>, QueryTiming) {
        let (values, index_t) = self.scatter_gather(groups);
        (
            values,
            QueryTiming {
                decompose: Duration::ZERO,
                index: index_t,
            },
        )
    }

    fn decomp_cache_stats(&self) -> (u64, u64) {
        let (hits, misses, _) = self.decompositions.stats();
        (hits, misses)
    }

    /// The memo again: the shards answer the groups they are handed
    /// without touching their own caches.
    fn plan_cache_stats(&self) -> (u64, u64, u64) {
        self.decompositions.stats()
    }

    fn compiled_terms(&self) -> u64 {
        self.shards.iter().map(|s| s.compiled_terms()).sum()
    }

    fn plan_revision(&self) -> u64 {
        self.shards[0].plan_revision()
    }

    fn shard_loads(&self) -> Vec<u64> {
        self.loads
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many of a uniform spread of anchor cells each shard owns.
    fn owner_counts(k: usize) -> Vec<u64> {
        let ring = ring_points(k);
        let mut owners = vec![0u64; k];
        for layer in 0..3usize {
            for r in 0..32usize {
                for c in 0..32usize {
                    let h = anchor_hash(layer, r, c);
                    let idx = ring.partition_point(|&(p, _)| p < h);
                    owners[ring[idx % ring.len()].1] += 1;
                }
            }
        }
        owners
    }

    #[test]
    fn ring_covers_every_shard() {
        // ownership must touch all shards for a spread of anchors
        for k in 1..=4usize {
            let owners = owner_counts(k);
            assert!(
                owners.iter().all(|&n| n > 0),
                "K={k}: some shard owns nothing: {owners:?}"
            );
        }
    }

    #[test]
    fn shard_load_balance_is_bounded() {
        // the fix for the measured ~4x K=2 skew at 32 vnodes: with 128
        // mixed points per shard, a uniform anchor spread must land
        // within 2x between the busiest and idlest shard
        for k in 2..=4usize {
            let owners = owner_counts(k);
            let max = *owners.iter().max().unwrap();
            let min = *owners.iter().min().unwrap();
            assert!(
                max <= 2 * min,
                "K={k}: shard skew {max}/{min} exceeds the 2x bound: {owners:?}"
            );
        }
    }
}
