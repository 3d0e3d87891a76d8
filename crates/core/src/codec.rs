//! Binary codec for the combination-tree artifacts.
//!
//! The paper ships the extended quad-tree to HBase; this reproduction
//! serializes it to a compact little-endian byte stream instead. The
//! serialized size is what Fig. 17 measures (66 MB / 64 MB for the two
//! datasets at 128x128, P = {1,...,32}).
//!
//! Two artifacts hold such a tree: the combination index (`O4AIDX01`,
//! [`encode_index`]) and the ensemble plan (`O4AENS01`,
//! `o4a_ensemble::codec`). They share one layout, written and checked
//! only here by [`Writer`] and [`Reader`]; the plan adds the fields
//! marked `[plan]`:
//!
//! ```text
//! magic (8 bytes)  | h u32 | w u32 | k u8 | layers u8 | strategy u8
//! [plan] revision u32 | member count u16
//! [plan] per member: name_len u16 | UTF-8 name bytes
//! entry count u32
//! per entry: root_row u16 | root_col u16 | path_len u8 | path bytes
//!            term_count u16
//!            per term: [plan] member u16 | layer u8 | row u16 | col u16 | sign i8
//! [plan] plan_cost f64 (LE bits)
//! checksum u32 (FNV-1a over everything before it)
//! ```
//!
//! An index stores no member: its terms all read member 0, and
//! [`encode_index`] refuses any other.
//!
//! Entries follow `ExtendedQuadTree::for_each` order (sorted roots,
//! `ChildCode` index order, payload before children), so re-encoding a
//! decoded artifact reproduces its bytes exactly. The trailing checksum
//! makes any single-bit corruption detectable: [`Reader::open`] rejects a
//! stream whose recomputed hash disagrees before trusting any decoded
//! field, and decoding is total: a malformed stream is an `Err`, never a
//! panic.

use crate::combination::{Combination, CombinationIndex, SearchReport, SearchStrategy, Term};
use o4a_grid::coding::{ChildCode, GridCode};
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_grid::quadtree::{slot_count, ExtendedQuadTree};

/// What tells one combination-tree artifact from another.
pub struct Artifact {
    /// The first eight bytes of the stream.
    pub magic: &'static [u8; 8],
    /// The [`CodecError::Corrupt`] reason for a header whose K is not 2.
    pub k_rule: &'static str,
}

const INDEX: Artifact = Artifact {
    magic: b"O4AIDX01",
    k_rule: "index artifact requires K = 2",
};

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

/// Errors decoding an artifact byte stream.
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
            CodecError::BadMagic => write!(f, "bad artifact magic"),
            CodecError::Corrupt(what) => write!(f, "corrupt artifact stream: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Writes an artifact: [`Writer::new`] starts it with the magic and the
/// header, [`Writer::entries`] writes the tree and [`Writer::finish`] the
/// trailer; an artifact's own fields go between them. The field methods
/// are `#[inline]` because the plan codec calls them from another crate.
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts an artifact with its magic and the header of `hier` and
    /// `strategy`.
    ///
    /// # Panics
    /// Panics for `K != 2` hierarchies — the format is keyed by the grid
    /// coding rule, which the paper only defines for a 2x2 window.
    /// [`Reader::open`] rejects a `K != 2` header for the same reason.
    pub fn new(artifact: &Artifact, hier: &Hierarchy, strategy: SearchStrategy) -> Writer {
        assert_eq!(
            hier.k(),
            2,
            "the artifact codec is defined for K = 2 hierarchies"
        );
        let mut w = Writer {
            buf: artifact.magic.to_vec(),
        };
        w.u32(hier.h() as u32);
        w.u32(hier.w() as u32);
        w.u8(hier.k() as u8);
        w.u8(hier.num_layers() as u8);
        w.u8(strategy_tag(strategy));
        w
    }
    #[inline]
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Writes a `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Writes a `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Writes an `f64`'s bits.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Writes raw bytes.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes the entry count, then every entry of `tree` in `for_each`
    /// order: its code, its term count, and each of its terms through
    /// `term`.
    ///
    /// # Panics
    /// Panics on an entry with more terms than its `u16` count can hold.
    pub fn entries(
        &mut self,
        tree: &ExtendedQuadTree<Combination>,
        mut term: impl FnMut(&mut Writer, &Term),
    ) {
        self.u32(tree.len() as u32);
        tree.for_each(|code, comb| {
            self.u16(code.root.0 as u16);
            self.u16(code.root.1 as u16);
            self.u8(code.path.len() as u8);
            for &c in &code.path {
                self.u8(c.index() as u8);
            }
            let count = u16::try_from(comb.terms.len()).unwrap_or_else(|_| {
                panic!(
                    "entry {code} holds {} terms, more than a u16 count",
                    comb.terms.len()
                )
            });
            self.u16(count);
            for t in &comb.terms {
                term(self, t);
            }
        });
    }

    /// Writes one term's grid cell and sign; an artifact that stores the
    /// member writes it first.
    #[inline]
    pub fn term(&mut self, t: &Term) {
        self.u8(t.cell.layer as u8);
        self.u16(t.cell.row as u16);
        self.u16(t.cell.col as u16);
        self.u8(t.sign as u8);
    }

    /// Appends the FNV-1a trailer and returns the artifact.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a32(&self.buf);
        self.u32(sum);
        self.buf
    }
}

/// Reads an artifact: [`Reader::open`] checks it and reads the header,
/// [`Reader::entries`] reads the tree and [`Reader::finish`] checks that
/// nothing follows; an artifact's own fields go between them. The field
/// methods are `#[inline]`, as [`Writer`]'s are.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Opens an artifact: checks `artifact`'s magic
    /// ([`CodecError::BadMagic`]) and the FNV-1a trailer before trusting
    /// any field, then reads the header. A `K != 2` header is
    /// `Corrupt(artifact.k_rule)`. Returns a reader positioned after the
    /// header, with the header's hierarchy and strategy.
    pub fn open(
        bytes: &'a [u8],
        artifact: &Artifact,
    ) -> Result<(Reader<'a>, Hierarchy, SearchStrategy), CodecError> {
        if bytes.len() < 8 || &bytes[..8] != artifact.magic {
            return Err(CodecError::BadMagic);
        }
        if bytes.len() < 12 {
            return Err(CodecError::Corrupt("unexpected end of stream"));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        if fnv1a32(body) != u32::from_le_bytes(trailer.try_into().expect("4 bytes")) {
            return Err(CodecError::Corrupt("checksum mismatch"));
        }
        let mut r = Reader { buf: body, pos: 8 };
        let h = r.u32()? as usize;
        let w = r.u32()? as usize;
        let k = r.u8()? as usize;
        let layers = r.u8()? as usize;
        let strategy = strategy_from(r.u8()?)?;
        if k != 2 {
            return Err(CodecError::Corrupt(artifact.k_rule));
        }
        let hier = Hierarchy::new(h, w, k, layers)
            .map_err(|_| CodecError::Corrupt("invalid hierarchy header"))?;
        // The tree holds a slot for every grid and multi-grid of the
        // header's hierarchy. A searched tree fills every slot, with at
        // least 7 bytes an entry, so a stream shorter than the slot count
        // is corrupt; the check keeps a crafted header from forcing a huge
        // allocation.
        if slot_count(&hier) > body.len() {
            return Err(CodecError::Corrupt("hierarchy larger than the stream"));
        }
        Ok((r, hier, strategy))
    }

    /// Reads the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::Corrupt("unexpected end of stream"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    #[inline]
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    /// Reads a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }
    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    /// Reads an `f64` from its bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let s = self.take(8)?;
        Ok(f64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// Reads the entry count, then each entry: its code, which must lie
    /// in `hier` (a root inside the coarsest layer, a path shallower than
    /// the layers, a multi code only at the path's end), and its terms,
    /// reserved at their count and each read by `term`.
    pub fn entries(
        &mut self,
        hier: &Hierarchy,
        mut term: impl FnMut(&mut Reader<'a>) -> Result<Term, CodecError>,
    ) -> Result<ExtendedQuadTree<Combination>, CodecError> {
        let layers = hier.num_layers();
        let (top_rows, top_cols) = hier.layer_dims(layers - 1);
        let count = self.u32()? as usize;
        let mut tree = ExtendedQuadTree::new(hier);
        for _ in 0..count {
            let root = (self.u16()? as usize, self.u16()? as usize);
            if root.0 >= top_rows || root.1 >= top_cols {
                return Err(CodecError::Corrupt("entry root outside the coarsest layer"));
            }
            let path_len = self.u8()? as usize;
            if path_len >= layers {
                return Err(CodecError::Corrupt("entry path deeper than the hierarchy"));
            }
            let mut path = Vec::with_capacity(path_len);
            for step in 0..path_len {
                let code = *ChildCode::ALL
                    .get(self.u8()? as usize)
                    .ok_or(CodecError::Corrupt("invalid child code"))?;
                // multi codes are leaves of the extended quad-tree; a stream
                // placing one mid-path is corrupt (inserting it would panic)
                if code.is_multi() && step + 1 != path_len {
                    return Err(CodecError::Corrupt("multi code not at path end"));
                }
                path.push(code);
            }
            let term_count = self.u16()? as usize;
            let mut terms = Vec::with_capacity(term_count);
            for _ in 0..term_count {
                terms.push(term(self)?);
            }
            tree.insert(&GridCode { root, path }, Combination { terms });
        }
        Ok(tree)
    }

    /// Reads one term's grid cell and sign: a layer of `hier`, a cell
    /// inside that layer and a sign of +1 or -1. The term reads member 0;
    /// an artifact that stores the member reads it first.
    #[inline]
    pub fn term(&mut self, hier: &Hierarchy) -> Result<Term, CodecError> {
        let layer = self.u8()? as usize;
        let row = self.u16()? as usize;
        let col = self.u16()? as usize;
        let sign = self.u8()? as i8;
        if layer >= hier.num_layers() || !(sign == 1 || sign == -1) {
            return Err(CodecError::Corrupt("invalid combination term"));
        }
        let (rows, cols) = hier.layer_dims(layer);
        if row >= rows || col >= cols {
            return Err(CodecError::Corrupt("combination term out of raster"));
        }
        Ok(Term {
            cell: LayerCell::new(layer, row, col),
            sign,
            member: 0,
        })
    }

    /// Ends the artifact: every byte before the trailer must have been
    /// read.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos != self.buf.len() {
            return Err(CodecError::Corrupt("trailing bytes after the last field"));
        }
        Ok(())
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
/// Panics for `K != 2` hierarchies (see [`Writer::new`]), on an entry of
/// more than 65,535 terms and on a term that reads a member other than 0,
/// which the index format cannot store.
pub fn encode_index(index: &CombinationIndex) -> Vec<u8> {
    let mut w = Writer::new(&INDEX, &index.hier, index.strategy);
    w.entries(&index.tree, |w, t| {
        assert_eq!(
            t.member, 0,
            "an index term reads member {}; the index artifact stores member 0 only",
            t.member
        );
        w.term(t)
    });
    w.finish()
}

/// Deserializes an index from bytes; every term reads member 0. The
/// search report is not persisted (it is a build-time statistic) and
/// comes back zeroed. A `K != 2`
/// header, or an entry code outside the header's hierarchy (a root past
/// the coarsest layer, a path deeper than the layers), is
/// [`CodecError::Corrupt`].
pub fn decode_index(bytes: &[u8]) -> Result<CombinationIndex, CodecError> {
    let (mut r, hier, strategy) = Reader::open(bytes, &INDEX)?;
    let tree = r.entries(&hier, |r| r.term(&hier))?;
    r.finish()?;
    Ok(CombinationIndex {
        hier,
        tree,
        strategy,
        report: SearchReport::default(),
    })
}

/// Errors cold-starting an artifact (an index or a plan) from disk.
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
            IndexLoadError::Io(e) => write!(f, "reading artifact: {e}"),
            IndexLoadError::Codec(e) => write!(f, "decoding artifact: {e}"),
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

    /// An index whose root entry is `terms`.
    fn root_index(terms: Vec<Term>) -> CombinationIndex {
        let hier = Hierarchy::new(4, 4, 2, 3).unwrap();
        let mut tree = ExtendedQuadTree::new(&hier);
        tree.insert_cell(LayerCell::new(2, 0, 0), Combination { terms });
        CombinationIndex {
            hier,
            tree,
            strategy: SearchStrategy::Union,
            report: SearchReport::default(),
        }
    }

    #[test]
    #[should_panic(expected = "holds 65537 terms, more than a u16 count")]
    fn encoder_refuses_a_term_count_over_u16() {
        let term = Combination::single(LayerCell::new(0, 0, 0)).terms[0];
        encode_index(&root_index(vec![term; 65_537]));
    }

    #[test]
    #[should_panic(expected = "reads member 1; the index artifact stores member 0 only")]
    fn encoder_refuses_a_term_of_another_member() {
        let comb = Combination::single(LayerCell::new(0, 0, 0)).for_member(1);
        encode_index(&root_index(comb.terms));
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
