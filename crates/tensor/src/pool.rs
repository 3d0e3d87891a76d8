//! Thread-aware `f32` buffer pool backing [`crate::tensor::Tensor`] storage
//! and kernel scratch space.
//!
//! Training re-uses the same handful of buffer sizes every step (activations,
//! gradients, im2col panels, packed GEMM operands), so after a warm-up step
//! the allocator should drop out of the hot loop entirely. The pool keeps
//! per-thread free lists keyed by size class (next power of two of the
//! element count, min `MIN_CLASS`), capped at `MAX_PER_CLASS` buffers per
//! class. Returning a buffer never crosses threads and never takes a lock.
//!
//! Contract: `take` hands out a buffer of exactly `len` elements with
//! **unspecified contents** — callers either fully overwrite it or ask for
//! `take_zeroed`. Because of that contract, results are bit-identical with
//! the pool disabled ([`set_enabled`], which tests use to prove it):
//! disabling only changes where the bytes live, never what gets computed.
//! The pool serves tensor storage and kernel scratch only.
//!
//! Observability: hits, misses, and bytes outstanding (taken but not yet
//! returned) are mirrored into the global `o4a-obs` registry as
//! `o4a_pool_hits_total`, `o4a_pool_misses_total`, and
//! `o4a_pool_bytes_outstanding`, so they show up in the METRICS verb.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Smallest size class, in elements. Requests below this share one class.
const MIN_CLASS: usize = 16;
/// Free-list depth per size class; buffers beyond this are dropped.
const MAX_PER_CLASS: usize = 32;

thread_local! {
    /// Per-thread free lists, indexed by size class.
    static FREE: RefCell<Vec<Vec<Vec<f32>>>> = const { RefCell::new(Vec::new()) };
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static OUTSTANDING_BYTES: AtomicI64 = AtomicI64::new(0);

/// Set while pooling is off. Only tests turn it off (to prove bit-identity
/// with the pool disabled).
static DISABLED: AtomicBool = AtomicBool::new(false);

/// Whether pooling is active: on unless [`set_enabled`] turned it off.
pub fn enabled() -> bool {
    !DISABLED.load(Ordering::Relaxed)
}

/// Test hook: turn the pool on or off for the current process. Also
/// drains the current thread's free lists so a disabled pool holds no
/// memory.
pub fn set_enabled(on: bool) {
    DISABLED.store(!on, Ordering::Relaxed);
    if !on {
        FREE.with(|f| f.borrow_mut().clear());
    }
}

/// Size class for a request: index of the next power of two, floored at
/// [`MIN_CLASS`].
#[inline]
fn class_of(len: usize) -> usize {
    let len = len.max(MIN_CLASS).next_power_of_two();
    (len.trailing_zeros() as usize) - (MIN_CLASS.trailing_zeros() as usize)
}

/// Capacity every buffer in a class is allocated with.
#[inline]
fn class_capacity(class: usize) -> usize {
    MIN_CLASS << class
}

#[inline]
fn note_taken(bytes: usize) {
    OUTSTANDING_BYTES.fetch_add(bytes as i64, Ordering::Relaxed);
    publish_outstanding();
}

#[inline]
fn note_returned(bytes: usize) {
    OUTSTANDING_BYTES.fetch_sub(bytes as i64, Ordering::Relaxed);
    publish_outstanding();
}

#[inline]
fn publish_outstanding() {
    o4a_obs::gauge!(
        "o4a_pool_bytes_outstanding",
        "bytes handed out by the tensor buffer pool and not yet returned"
    )
    .set(OUTSTANDING_BYTES.load(Ordering::Relaxed) as f64);
}

fn note_hit() {
    HITS.fetch_add(1, Ordering::Relaxed);
    o4a_obs::counter!(
        "o4a_pool_hits_total",
        "tensor buffer pool takes served from a free list"
    )
    .inc();
}

fn note_miss() {
    MISSES.fetch_add(1, Ordering::Relaxed);
    o4a_obs::counter!(
        "o4a_pool_misses_total",
        "tensor buffer pool takes that fell back to the system allocator"
    )
    .inc();
}

/// Takes a buffer of exactly `len` elements with **unspecified contents**
/// (recycled buffers keep their previous values). Callers must fully
/// overwrite it or use [`take_zeroed`].
pub(crate) fn take(len: usize) -> Vec<f32> {
    take_impl(len).0
}

/// Takes a buffer of exactly `len` elements, all zero.
pub(crate) fn take_zeroed(len: usize) -> Vec<f32> {
    let (mut v, zeroed) = take_impl(len);
    if !zeroed {
        v.fill(0.0);
    }
    v
}

/// Returns `(buffer, already_zeroed)`.
fn take_impl(len: usize) -> (Vec<f32>, bool) {
    if len == 0 {
        return (Vec::new(), true);
    }
    if enabled() {
        let class = class_of(len);
        // Mirrors the `try_with` in `give`: allocating fresh is always a
        // valid answer, so TLS teardown degrades to the allocator path.
        let recycled = FREE
            .try_with(|f| {
                let mut lists = f.borrow_mut();
                lists.get_mut(class).and_then(Vec::pop)
            })
            .ok()
            .flatten();
        if let Some(mut v) = recycled {
            note_hit();
            note_taken(v.capacity() * 4);
            // Capacity is at least class_capacity(class) >= len, so this
            // never reallocates; growth zero-fills only the delta.
            v.resize(len, 0.0);
            return (v, false);
        }
        note_miss();
        // Allocate at class granularity so the buffer re-enters this class
        // when returned.
        let mut v = Vec::with_capacity(class_capacity(class));
        v.resize(len, 0.0);
        note_taken(v.capacity() * 4);
        (v, true)
    } else {
        note_miss();
        note_taken(len * 4);
        (vec![0.0; len], true)
    }
}

/// Accounts for a buffer that enters pool custody without going through
/// [`take`] (a caller-built `Vec` adopted as tensor storage).
fn adopt(cap_elems: usize) {
    note_taken(cap_elems * 4);
}

/// Accounts for a buffer leaving pool custody without being returned
/// (tensor storage escaping via `into_vec`).
fn forget(cap_elems: usize) {
    note_returned(cap_elems * 4);
}

/// Returns a buffer to the current thread's free list (or drops it when the
/// pool is off, the buffer is tiny, or its class is full).
pub(crate) fn give(v: Vec<f32>) {
    note_returned(v.capacity() * 4);
    if !enabled() || v.capacity() < MIN_CLASS {
        return;
    }
    // Class from the *capacity*, rounded down, so every buffer stored in
    // class c can serve any request of class c without reallocating.
    let class = (usize::BITS - 1 - v.capacity().leading_zeros()) as usize;
    let min_bits = MIN_CLASS.trailing_zeros() as usize;
    let class = class.saturating_sub(min_bits);
    // `give` runs from `Buf::drop`, which can fire during thread teardown
    // after this thread's TLS has been destroyed (a tensor owned by another
    // thread-local, or by a static dropped at exit). `try_with` lets the
    // buffer fall through to a plain free instead of panicking in a Drop.
    let _ = FREE.try_with(|f| {
        let mut lists = f.borrow_mut();
        if lists.len() <= class {
            lists.resize_with(class + 1, Vec::new);
        }
        let list = &mut lists[class];
        if list.len() < MAX_PER_CLASS {
            list.push(v);
        }
    });
}

/// Snapshot of pool counters, for tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from a free list.
    pub hits: u64,
    /// Takes that fell back to the system allocator.
    pub misses: u64,
    /// Bytes handed out and not yet returned (may go negative transiently
    /// if buffers migrate across threads; advisory only).
    pub bytes_outstanding: i64,
}

/// Reads the global pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        bytes_outstanding: OUTSTANDING_BYTES.load(Ordering::Relaxed),
    }
}

/// RAII scratch buffer: a pooled `[f32]` that returns to the pool on drop.
///
/// ```
/// let mut s = o4a_tensor::pool::scratch_zeroed(128);
/// s[0] = 1.0;
/// assert_eq!(s.len(), 128);
/// drop(s); // back to the pool
/// ```
pub struct PoolGuard {
    vec: Vec<f32>,
}

impl PoolGuard {
    /// Length in elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// Whether the scratch is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }
}

impl Deref for PoolGuard {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        &self.vec
    }
}

impl DerefMut for PoolGuard {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.vec
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.vec));
    }
}

/// Pooled scratch of `len` elements with **unspecified contents**.
pub fn scratch(len: usize) -> PoolGuard {
    PoolGuard { vec: take(len) }
}

/// Pooled scratch of `len` elements, zeroed.
pub fn scratch_zeroed(len: usize) -> PoolGuard {
    PoolGuard {
        vec: take_zeroed(len),
    }
}

/// Pool-backed storage for [`crate::tensor::Tensor`]: a `Vec<f32>` that
/// returns to the thread-local pool when dropped.
pub(crate) struct Buf {
    vec: Vec<f32>,
}

impl Buf {
    /// Empty storage (no allocation).
    pub(crate) fn empty() -> Buf {
        Buf { vec: Vec::new() }
    }

    /// Pooled storage with unspecified contents. Callers must fully
    /// overwrite every element.
    pub(crate) fn uninit(len: usize) -> Buf {
        Buf { vec: take(len) }
    }

    /// Pooled storage, zeroed.
    pub(crate) fn zeroed(len: usize) -> Buf {
        Buf {
            vec: take_zeroed(len),
        }
    }

    /// Pooled copy of a slice.
    pub(crate) fn from_slice(s: &[f32]) -> Buf {
        let mut v = take(s.len());
        v.copy_from_slice(s);
        Buf { vec: v }
    }

    /// Adopts a caller-built `Vec` as storage (keeps its allocation; it will
    /// enter the pool when the tensor drops).
    pub(crate) fn from_vec(v: Vec<f32>) -> Buf {
        adopt(v.capacity());
        Buf { vec: v }
    }

    /// Extracts the storage, removing it from pool custody.
    pub(crate) fn into_vec(mut self) -> Vec<f32> {
        let v = std::mem::take(&mut self.vec);
        forget(v.capacity());
        v
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.vec.len()
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.vec
    }

    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.vec
    }

    /// Resizes to `len` elements, reusing capacity when possible and
    /// swapping through the pool when not. Contents are unspecified unless
    /// `zeroed` is set.
    pub(crate) fn reset(&mut self, len: usize, zeroed: bool) {
        if self.vec.capacity() >= len {
            if zeroed {
                self.vec.clear();
                self.vec.resize(len, 0.0);
            } else {
                self.vec.truncate(len);
                // Growth within capacity; only the delta is written.
                self.vec.resize(len, 0.0);
            }
        } else {
            let old = std::mem::take(&mut self.vec);
            give(old);
            self.vec = if zeroed { take_zeroed(len) } else { take(len) };
        }
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.vec));
    }
}

impl Clone for Buf {
    fn clone(&self) -> Buf {
        Buf::from_slice(&self.vec)
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Buf) -> bool {
        self.vec == other.vec
    }
}

impl std::fmt::Debug for Buf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.vec.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `set_enabled` is process-global; serialize the tests that flip it.
    static ENABLE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn class_rounding() {
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of(16), 0);
        assert_eq!(class_of(17), 1);
        assert_eq!(class_of(32), 1);
        assert_eq!(class_of(33), 2);
        assert_eq!(class_capacity(class_of(100)), 128);
    }

    #[test]
    fn take_give_recycles_on_same_thread() {
        let _g = ENABLE_LOCK.lock().unwrap();
        // Serialize against other tests poking the override.
        set_enabled(true);
        let before = stats();
        let v = take(100);
        assert_eq!(v.len(), 100);
        let cap = v.capacity();
        assert!(cap >= 100);
        give(v);
        let v2 = take(120);
        // Same class (128): the recycled buffer must come back.
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.len(), 120);
        let after = stats();
        assert!(after.hits > before.hits, "expected a pool hit");
        give(v2);
        set_enabled(false);
        set_enabled(true);
    }

    #[test]
    fn zeroed_is_zeroed_even_when_recycled() {
        let _g = ENABLE_LOCK.lock().unwrap();
        set_enabled(true);
        let mut v = take(64);
        v.fill(7.0);
        give(v);
        let z = take_zeroed(64);
        assert!(z.iter().all(|&x| x == 0.0));
        give(z);
    }

    #[test]
    fn guard_returns_on_drop() {
        let _g = ENABLE_LOCK.lock().unwrap();
        set_enabled(true);
        {
            let mut s = scratch_zeroed(48);
            s[47] = 1.0;
            assert_eq!(s.len(), 48);
        }
        let s2 = scratch(48);
        assert_eq!(s2.len(), 48);
    }

    #[test]
    fn buf_reset_reuses_capacity() {
        let _g = ENABLE_LOCK.lock().unwrap();
        set_enabled(true);
        let mut b = Buf::zeroed(200);
        let cap = b.vec.capacity();
        b.reset(150, false);
        assert_eq!(b.len(), 150);
        assert_eq!(b.vec.capacity(), cap);
        b.reset(200, true);
        assert!(b.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(b.vec.capacity(), cap);
    }

    #[test]
    fn disabled_pool_still_correct() {
        let _g = ENABLE_LOCK.lock().unwrap();
        set_enabled(false);
        let v = take(40);
        assert_eq!(v.len(), 40);
        assert!(v.iter().all(|&x| x == 0.0));
        give(v);
        let z = take_zeroed(40);
        assert!(z.iter().all(|&x| x == 0.0));
        set_enabled(true);
    }
}
