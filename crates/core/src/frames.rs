//! Prediction-snapshot storage: flat per-snapshot arenas in full- or
//! half-precision.
//!
//! The online phase keeps one value per grid cell per layer. A snapshot
//! stores **all** layers in one contiguous buffer with a `bases` offset
//! table (`bases[layer]..bases[layer + 1]` is layer `layer`, row-major),
//! so a compiled query plan can address any term with a single `u32` flat
//! offset — no per-term layer indirection, and the SIMD gather kernels in
//! `o4a_tensor::gather` can stream the whole plan against one base
//! pointer.
//!
//! Half storage ([`FrameData::F16`]) keeps the same arena as IEEE binary16
//! bit patterns — half the bytes — and widens values back to f32 *per
//! read* during signed aggregation (widening is exact; see
//! `o4a_tensor::half` for the narrowing bound). A query summing `T` stored
//! terms `v_t` therefore answers within `sum_t 2^-11 |v_t| + T * 2^-25` of
//! the f32-storage answer (each term's storage error, accumulated; plus
//! f32 summation rounding of the perturbed terms). The end-to-end
//! assertion lives in `crates/core/tests/half_store.rs`.
//!
//! Every snapshot carries a [`layout_signature`] over its layer lengths.
//! Compiled plans record the signature of the hierarchy they were built
//! against and refuse to execute when a snapshot disagrees — that check,
//! plus an exact `required_len <= data.len()` comparison, is what makes
//! the unchecked hardware gathers sound.
//!
//! [`FrameView`] is the borrowed form the evaluation paths consume; the
//! legacy `FrameView::F32(&[Vec<f32>])` variant keeps the f32 public APIs
//! (`predict_query` and friends) zero-copy over caller-owned nested
//! buffers.

use o4a_tensor::half::{f16_bits_to_f32, f32_to_f16_bits};

/// FNV-1a over the little-endian bytes of each layer length: a cheap
/// order-sensitive fingerprint of a snapshot's layer geometry. Compiled
/// plans match this (plus an exact length bound) before running unchecked
/// gathers.
pub fn layout_signature(lens: impl IntoIterator<Item = usize>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for len in lens {
        for b in (len as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The value arena of a [`FrameSet`], in either storage precision.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameData {
    /// Full-precision storage (the default).
    F32(Vec<f32>),
    /// Half storage: IEEE binary16 bit patterns, widened per read.
    F16(Vec<u16>),
}

/// An owned multi-scale prediction snapshot: all layers flattened into one
/// arena, addressed through a `bases` offset table.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSet {
    /// `bases[layer]` is the arena offset of layer `layer`'s first cell;
    /// the final sentinel entry is the total cell count.
    bases: Vec<u32>,
    data: FrameData,
    sig: u64,
}

impl Default for FrameSet {
    /// An empty f32 snapshot (no layers published).
    fn default() -> Self {
        FrameSet {
            bases: vec![0],
            data: FrameData::F32(Vec::new()),
            sig: layout_signature(std::iter::empty::<usize>()),
        }
    }
}

fn build_bases(lens: impl Iterator<Item = usize> + Clone) -> Vec<u32> {
    let total: usize = lens.clone().sum();
    assert!(
        total <= i32::MAX as usize,
        "snapshot exceeds the 2^31-cell flat-offset budget ({total} cells)"
    );
    let mut bases = Vec::with_capacity(lens.clone().count() + 1);
    let mut acc = 0u32;
    bases.push(0);
    for len in lens {
        acc += len as u32;
        bases.push(acc);
    }
    bases
}

impl FrameSet {
    /// Packs nested per-layer f32 frames into a flat full-precision arena.
    pub fn from_f32(frames: Vec<Vec<f32>>) -> Self {
        let bases = build_bases(frames.iter().map(|l| l.len()));
        let sig = layout_signature(frames.iter().map(|l| l.len()));
        let mut data = Vec::with_capacity(*bases.last().unwrap() as usize);
        for layer in &frames {
            data.extend_from_slice(layer);
        }
        FrameSet {
            bases,
            data: FrameData::F32(data),
            sig,
        }
    }

    /// Narrows an f32 snapshot into half storage (round-to-nearest-even,
    /// through the active ISA tier's converter).
    pub fn narrow(frames: Vec<Vec<f32>>) -> Self {
        let bases = build_bases(frames.iter().map(|l| l.len()));
        let sig = layout_signature(frames.iter().map(|l| l.len()));
        let mut data = vec![0u16; *bases.last().unwrap() as usize];
        for (layer, frame) in frames.iter().enumerate() {
            let start = bases[layer] as usize;
            o4a_tensor::half::narrow_f16(frame, &mut data[start..start + frame.len()]);
        }
        FrameSet {
            bases,
            data: FrameData::F16(data),
            sig,
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.bases.len() - 1
    }

    /// Whether the snapshot has no layers.
    pub fn is_empty(&self) -> bool {
        self.num_layers() == 0
    }

    /// Whether the arena holds half-width bit patterns.
    pub fn is_half(&self) -> bool {
        matches!(self.data, FrameData::F16(_))
    }

    /// Cells in one layer's frame.
    pub fn layer_len(&self, layer: usize) -> usize {
        (self.bases[layer + 1] - self.bases[layer]) as usize
    }

    /// One layer widened to f32 (a copy either way).
    pub fn layer_to_f32(&self, layer: usize) -> Vec<f32> {
        let (s, e) = (self.bases[layer] as usize, self.bases[layer + 1] as usize);
        match &self.data {
            FrameData::F32(d) => d[s..e].to_vec(),
            FrameData::F16(d) => d[s..e].iter().map(|&h| f16_bits_to_f32(h)).collect(),
        }
    }

    /// Borrowed view for the evaluation paths.
    pub fn view(&self) -> FrameView<'_> {
        match &self.data {
            FrameData::F32(d) => FrameView::FlatF32 {
                data: d,
                bases: &self.bases,
            },
            FrameData::F16(d) => FrameView::FlatF16 {
                data: d,
                bases: &self.bases,
            },
        }
    }

    /// The [`layout_signature`] of this snapshot's layer geometry.
    pub fn layout_sig(&self) -> u64 {
        self.sig
    }

    /// The value arena (all layers, `bases`-addressed).
    pub fn data(&self) -> &FrameData {
        &self.data
    }

    /// Bytes of frame payload held (the storage-mode win made measurable).
    pub fn payload_bytes(&self) -> usize {
        match &self.data {
            FrameData::F32(d) => std::mem::size_of_val(d.as_slice()),
            FrameData::F16(d) => std::mem::size_of_val(d.as_slice()),
        }
    }
}

/// A borrowed prediction snapshot — what the interpreted oracle
/// ([`crate::server::interpret`]) and combination evaluation read from.
#[derive(Debug, Clone, Copy)]
pub enum FrameView<'a> {
    /// Borrowed nested full-precision frames (caller-owned `Vec<Vec<f32>>`
    /// entering through the public f32 APIs).
    F32(&'a [Vec<f32>]),
    /// A [`FrameSet`] f32 arena.
    FlatF32 {
        /// The value arena.
        data: &'a [f32],
        /// Layer offset table (sentinel-terminated).
        bases: &'a [u32],
    },
    /// A [`FrameSet`] half-storage arena.
    FlatF16 {
        /// The half-width bit-pattern arena.
        data: &'a [u16],
        /// Layer offset table (sentinel-terminated).
        bases: &'a [u32],
    },
}

impl FrameView<'_> {
    /// The value of cell `idx` (flat, row-major) in `layer`, widened to
    /// f32 when stored half-width.
    #[inline]
    pub fn value(&self, layer: usize, idx: usize) -> f32 {
        match self {
            FrameView::F32(f) => f[layer][idx],
            FrameView::FlatF32 { data, bases } => data[bases[layer] as usize + idx],
            FrameView::FlatF16 { data, bases } => {
                f16_bits_to_f32(data[bases[layer] as usize + idx])
            }
        }
    }

    /// Whether the snapshot has no layers.
    pub fn is_empty(&self) -> bool {
        match self {
            FrameView::F32(f) => f.is_empty(),
            FrameView::FlatF32 { bases, .. } | FrameView::FlatF16 { bases, .. } => bases.len() <= 1,
        }
    }
}

/// Round-trips one value through f16 storage — the exact per-value
/// perturbation `FrameSet::narrow` applies, for tolerance computations in
/// tests and callers that need the bound.
pub fn f16_storage_roundtrip(v: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_then_view_widens_per_read() {
        let fs = FrameSet::narrow(vec![vec![1.0, 2.5, -3.0], vec![0.125]]);
        let v = fs.view();
        // these values are f16-exact, so storage is lossless here
        assert_eq!(v.value(0, 0), 1.0);
        assert_eq!(v.value(0, 1), 2.5);
        assert_eq!(v.value(0, 2), -3.0);
        assert_eq!(v.value(1, 0), 0.125);
        assert_eq!(fs.num_layers(), 2);
        assert_eq!(fs.layer_len(0), 3);
        assert_eq!(fs.layer_to_f32(1), vec![0.125]);
        assert!(!fs.is_empty());
        assert!(!v.is_empty());
        assert!(fs.is_half());
    }

    #[test]
    fn f16_payload_is_half_the_bytes() {
        let frames = vec![vec![0.5f32; 1024], vec![0.25f32; 256]];
        let f32_set = FrameSet::from_f32(frames.clone());
        let f16_set = FrameSet::narrow(frames);
        assert_eq!(f16_set.payload_bytes() * 2, f32_set.payload_bytes());
        assert!(!f32_set.is_half());
    }

    #[test]
    fn flat_arena_matches_nested_addressing() {
        let frames = vec![vec![1.0f32, 2.0, 3.0, 4.0], vec![10.0, 20.0], vec![100.0]];
        let fs = FrameSet::from_f32(frames.clone());
        assert_eq!(fs.bases, vec![0, 4, 6, 7]);
        let flat = fs.view();
        let nested = FrameView::F32(&frames);
        for (layer, frame) in frames.iter().enumerate() {
            assert_eq!(fs.layer_len(layer), frame.len());
            for idx in 0..frame.len() {
                assert_eq!(
                    flat.value(layer, idx).to_bits(),
                    nested.value(layer, idx).to_bits()
                );
            }
        }
    }

    #[test]
    fn layout_signature_is_order_sensitive_and_layer_count_aware() {
        let a = layout_signature([4usize, 2]);
        let b = layout_signature([2usize, 4]);
        let c = layout_signature([4usize, 2, 0]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let fs = FrameSet::from_f32(vec![vec![0.0; 4], vec![0.0; 2]]);
        assert_eq!(fs.layout_sig(), a);
        assert_eq!(
            FrameSet::default().layout_sig(),
            layout_signature(std::iter::empty::<usize>())
        );
    }

    #[test]
    fn roundtrip_matches_documented_bound() {
        for v in [0.1f32, 123.456, -7.89, 1e-5, 65000.0] {
            let w = f16_storage_roundtrip(v);
            let bound = if w.abs() >= f32::from_bits(0x38800000) {
                v.abs() * f32::from_bits(0x3a000000)
            } else {
                f32::from_bits(0x33000000)
            };
            assert!((w - v).abs() <= bound, "v={v} w={w}");
        }
    }
}
