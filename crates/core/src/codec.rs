//! Binary codec for the combination index.
//!
//! The paper ships the extended quad-tree to HBase; this reproduction
//! serializes it to a compact little-endian byte stream instead. The
//! serialized size is what Fig. 17 measures (66 MB / 64 MB for the two
//! datasets at 128x128, P = {1,...,32}).
//!
//! Layout:
//!
//! ```text
//! magic "O4AIDX01"  | h u32 | w u32 | k u8 | layers u8 | strategy u8
//! entry count u32
//! per entry: root_row u16 | root_col u16 | path_len u8 | path bytes
//!            term_count u16
//!            per term: layer u8 | row u16 | col u16 | sign i8
//! checksum u32 (FNV-1a over everything before it)
//! ```
//!
//! The trailing checksum makes any single-bit corruption of a persisted
//! index detectable: [`decode_index`] rejects a stream whose recomputed
//! hash disagrees before trusting any decoded field.

use crate::combination::{Combination, CombinationIndex, SearchReport, SearchStrategy, SignedCell};
use o4a_grid::coding::{ChildCode, GridCode};
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_grid::quadtree::{slot_count, ExtendedQuadTree};

const MAGIC: &[u8; 8] = b"O4AIDX01";

/// FNV-1a (32-bit) over a byte stream — the integrity hash every on-disk
/// format in this workspace trails its payload with. (The wire protocol
/// sums its frames with a lane-parallel variant, `o4a_serve::wire`.)
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Errors decoding an index byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream does not start with the expected magic.
    BadMagic,
    /// The stream ended prematurely or a field is out of range.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad index magic"),
            CodecError::Corrupt(what) => write!(f, "corrupt index stream: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::Corrupt("unexpected end of stream"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn i8(&mut self) -> Result<i8, CodecError> {
        Ok(self.take(1)?[0] as i8)
    }
    fn u16(&mut self) -> Result<u16, CodecError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
}

fn strategy_tag(s: SearchStrategy) -> u8 {
    match s {
        SearchStrategy::Direct => 0,
        SearchStrategy::Union => 1,
        SearchStrategy::UnionSubtraction => 2,
    }
}

fn strategy_from(tag: u8) -> Result<SearchStrategy, CodecError> {
    match tag {
        0 => Ok(SearchStrategy::Direct),
        1 => Ok(SearchStrategy::Union),
        2 => Ok(SearchStrategy::UnionSubtraction),
        _ => Err(CodecError::Corrupt("unknown strategy tag")),
    }
}

/// Serializes an index to bytes.
///
/// # Panics
/// Panics for `K != 2` hierarchies — the on-disk format is keyed by the
/// grid coding rule, which the paper only defines for a 2x2 window (such
/// indexes hold their combinations in `flat` instead). [`decode_index`]
/// rejects a `K != 2` header for the same reason.
pub fn encode_index(index: &CombinationIndex) -> Vec<u8> {
    assert_eq!(
        index.hier.k(),
        2,
        "the index codec is defined for K = 2 hierarchies"
    );
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(MAGIC);
    w.u32(index.hier.h() as u32);
    w.u32(index.hier.w() as u32);
    w.u8(index.hier.k() as u8);
    w.u8(index.hier.num_layers() as u8);
    w.u8(strategy_tag(index.strategy));
    w.u32(index.tree.len() as u32);
    index.tree.for_each(|code, comb| {
        w.u16(code.root.0 as u16);
        w.u16(code.root.1 as u16);
        w.u8(code.path.len() as u8);
        for &c in &code.path {
            w.u8(c.index() as u8);
        }
        w.u16(comb.terms.len() as u16);
        for t in &comb.terms {
            w.u8(t.cell.layer as u8);
            w.u16(t.cell.row as u16);
            w.u16(t.cell.col as u16);
            w.i8(t.sign);
        }
    });
    let sum = fnv1a32(&w.buf);
    w.u32(sum);
    w.buf
}

/// Deserializes an index from bytes. The search report is not persisted
/// (it is a build-time statistic) and comes back zeroed. A `K != 2`
/// header, or an entry code outside the header's hierarchy (a root past
/// the coarsest layer, a path deeper than the layers), is
/// [`CodecError::Corrupt`].
pub fn decode_index(bytes: &[u8]) -> Result<CombinationIndex, CodecError> {
    if bytes.len() < 8 || &bytes[..8] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    // verify the integrity trailer before trusting any decoded field
    if bytes.len() < 12 {
        return Err(CodecError::Corrupt("unexpected end of stream"));
    }
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if fnv1a32(body) != stored {
        return Err(CodecError::Corrupt("checksum mismatch"));
    }
    let mut r = Reader { buf: body, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let h = r.u32()? as usize;
    let w = r.u32()? as usize;
    let k = r.u8()? as usize;
    let layers = r.u8()? as usize;
    let strategy = strategy_from(r.u8()?)?;
    if k != 2 {
        return Err(CodecError::Corrupt("index artifact requires K = 2"));
    }
    let hier = Hierarchy::new(h, w, k, layers)
        .map_err(|_| CodecError::Corrupt("invalid hierarchy header"))?;
    // The tree holds a slot for every grid and multi-grid of the header's
    // hierarchy. A searched index fills every slot, with at least 7 bytes
    // an entry, so a stream shorter than the slot count is corrupt; the
    // check keeps a crafted header from forcing a huge allocation.
    if slot_count(&hier) > body.len() {
        return Err(CodecError::Corrupt("hierarchy larger than the stream"));
    }
    let (top_rows, top_cols) = hier.layer_dims(layers - 1);
    let count = r.u32()? as usize;
    let mut tree = ExtendedQuadTree::new(&hier);
    for _ in 0..count {
        let root = (r.u16()? as usize, r.u16()? as usize);
        if root.0 >= top_rows || root.1 >= top_cols {
            return Err(CodecError::Corrupt("entry root outside the coarsest layer"));
        }
        let path_len = r.u8()? as usize;
        if path_len >= layers {
            return Err(CodecError::Corrupt("entry path deeper than the hierarchy"));
        }
        let mut path = Vec::with_capacity(path_len);
        for step in 0..path_len {
            let idx = r.u8()? as usize;
            let code = *ChildCode::ALL
                .get(idx)
                .ok_or(CodecError::Corrupt("invalid child code"))?;
            // multi codes are leaves of the extended quad-tree; a stream
            // placing one mid-path is corrupt (inserting it would panic)
            if code.is_multi() && step + 1 != path_len {
                return Err(CodecError::Corrupt("multi code not at path end"));
            }
            path.push(code);
        }
        let term_count = r.u16()? as usize;
        let mut terms = Vec::with_capacity(term_count);
        for _ in 0..term_count {
            let layer = r.u8()? as usize;
            let row = r.u16()? as usize;
            let col = r.u16()? as usize;
            let sign = r.i8()?;
            if layer >= layers || !(sign == 1 || sign == -1) {
                return Err(CodecError::Corrupt("invalid combination term"));
            }
            let (rows, cols) = hier.layer_dims(layer);
            if row >= rows || col >= cols {
                return Err(CodecError::Corrupt("combination term out of raster"));
            }
            terms.push(SignedCell {
                cell: LayerCell::new(layer, row, col),
                sign,
            });
        }
        tree.insert(&GridCode { root, path }, Combination { terms });
    }
    if r.pos != body.len() {
        return Err(CodecError::Corrupt("trailing bytes after last entry"));
    }
    Ok(CombinationIndex {
        hier,
        tree,
        flat: Default::default(),
        strategy,
        report: SearchReport::default(),
    })
}

/// Errors cold-starting an index from disk.
#[derive(Debug)]
pub enum IndexLoadError {
    /// The artifact could not be read.
    Io(std::io::Error),
    /// The artifact bytes failed to decode.
    Codec(CodecError),
}

impl std::fmt::Display for IndexLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexLoadError::Io(e) => write!(f, "reading index artifact: {e}"),
            IndexLoadError::Codec(e) => write!(f, "decoding index artifact: {e}"),
        }
    }
}

impl std::error::Error for IndexLoadError {}

impl From<std::io::Error> for IndexLoadError {
    fn from(e: std::io::Error) -> Self {
        IndexLoadError::Io(e)
    }
}

impl From<CodecError> for IndexLoadError {
    fn from(e: CodecError) -> Self {
        IndexLoadError::Codec(e)
    }
}

/// Persists an index artifact to disk (the serving layer's cold-start
/// input; see [`load_index`]).
pub fn save_index(
    index: &CombinationIndex,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    std::fs::write(path, encode_index(index))
}

/// Cold-starts an index from a disk artifact written by [`save_index`].
pub fn load_index(path: impl AsRef<std::path::Path>) -> Result<CombinationIndex, IndexLoadError> {
    let bytes = std::fs::read(path)?;
    Ok(decode_index(&bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combination::search_optimal_combinations;

    fn sample_index(strategy: SearchStrategy) -> CombinationIndex {
        let hier = Hierarchy::new(4, 4, 2, 3).unwrap();
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for layer in 0..3 {
            let (r, c) = hier.layer_dims(layer);
            let scale = hier.scale(layer);
            let mut tl = Vec::new();
            let mut pl = Vec::new();
            for s in 0..3usize {
                let truth = vec![(scale * scale * (s + 1)) as f32; r * c];
                let pred: Vec<f32> = truth
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| if layer == 1 { v } else { v + (i + 1) as f32 })
                    .collect();
                tl.push(truth);
                pl.push(pred);
            }
            truths.push(tl);
            preds.push(pl);
        }
        search_optimal_combinations(&hier, &preds, &truths, strategy)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        for strategy in [
            SearchStrategy::Direct,
            SearchStrategy::Union,
            SearchStrategy::UnionSubtraction,
        ] {
            let index = sample_index(strategy);
            let bytes = encode_index(&index);
            let back = decode_index(&bytes).unwrap();
            assert_eq!(back.strategy, strategy);
            assert_eq!(back.hier, index.hier);
            assert_eq!(back.tree.len(), index.tree.len());
            index.tree.for_each(|code, comb| {
                assert_eq!(back.tree.get(code), Some(comb), "entry {code} lost");
            });
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let index = sample_index(SearchStrategy::Union);
        let mut bytes = encode_index(&index);
        bytes[0] = b'X';
        assert!(matches!(decode_index(&bytes), Err(CodecError::BadMagic)));
    }

    #[test]
    fn rejects_truncation() {
        let index = sample_index(SearchStrategy::Union);
        let bytes = encode_index(&index);
        for cut in [8usize, 12, 20, bytes.len() - 1] {
            assert!(
                decode_index(&bytes[..cut]).is_err(),
                "truncation at {cut} not detected"
            );
        }
    }

    #[test]
    fn rejects_bit_flips_anywhere() {
        let index = sample_index(SearchStrategy::UnionSubtraction);
        let bytes = encode_index(&index);
        for pos in [8usize, 13, 20, bytes.len() / 2, bytes.len() - 2] {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x10;
            assert!(
                decode_index(&flipped).is_err(),
                "bit flip at {pos} not detected"
            );
        }
    }

    #[test]
    fn file_roundtrip_cold_start() {
        let index = sample_index(SearchStrategy::Union);
        let dir = std::env::temp_dir().join(format!("o4a-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.o4aidx");
        save_index(&index, &path).unwrap();
        let back = load_index(&path).unwrap();
        assert_eq!(back.hier, index.hier);
        assert_eq!(back.tree.len(), index.tree.len());
        assert!(matches!(
            load_index(dir.join("missing.o4aidx")),
            Err(IndexLoadError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn size_grows_with_entries() {
        let direct = sample_index(SearchStrategy::Direct);
        let bytes = encode_index(&direct);
        // header + all single cells + all multi grids must be non-trivial
        assert!(bytes.len() > 100);
        // direct combinations have exactly one term, so size per entry is
        // bounded
        assert!(bytes.len() < direct.tree.len() * 64);
    }
}
