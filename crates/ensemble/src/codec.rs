//! Binary codec for the ensemble plan: the `O4AENS01` artifact.
//!
//! Same discipline as the `O4AIDX01` index codec in `o4a_core::codec`:
//! little-endian fields, an FNV-1a (32-bit) integrity trailer verified
//! *before* any decoded field is trusted, and a total, never-panicking
//! decoder that rejects every malformed stream with a descriptive
//! [`PlanCodecError`].
//!
//! Layout:
//!
//! ```text
//! magic "O4AENS01"  | h u32 | w u32 | k u8 | layers u8 | strategy u8
//! revision u32
//! member count u16
//! per member: name_len u16 | UTF-8 name bytes
//! entry count u32
//! per entry: root_row u16 | root_col u16 | path_len u8 | path bytes
//!            term_count u16
//!            per term: model u16 | layer u8 | row u16 | col u16 | sign i8
//! plan_cost f64 (LE bits)
//! checksum u32 (FNV-1a over everything before it)
//! ```
//!
//! Because `ExtendedQuadTree::for_each` visits entries in a deterministic
//! order (sorted roots, `ChildCode` index order, payload before children),
//! `encode_plan(&decode_plan(bytes)?) == bytes` — the round-trip is
//! bit-identical, which the bench and check gates assert.

use crate::plan::{EnsemblePlan, ModelCombination, ModelTerm, PlanReport};
use o4a_core::codec::fnv1a32;
use o4a_core::combination::SearchStrategy;
use o4a_grid::coding::{ChildCode, GridCode};
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_grid::quadtree::{slot_count, ExtendedQuadTree};

const MAGIC: &[u8; 8] = b"O4AENS01";

/// Errors decoding a plan byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanCodecError {
    /// The stream does not start with the expected magic.
    BadMagic,
    /// The stream ended prematurely or a field is out of range.
    Corrupt(&'static str),
}

impl std::fmt::Display for PlanCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanCodecError::BadMagic => write!(f, "bad plan magic"),
            PlanCodecError::Corrupt(what) => write!(f, "corrupt plan stream: {what}"),
        }
    }
}

impl std::error::Error for PlanCodecError {}

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
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PlanCodecError> {
        if self.pos + n > self.buf.len() {
            return Err(PlanCodecError::Corrupt("unexpected end of stream"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, PlanCodecError> {
        Ok(self.take(1)?[0])
    }
    fn i8(&mut self) -> Result<i8, PlanCodecError> {
        Ok(self.take(1)?[0] as i8)
    }
    fn u16(&mut self) -> Result<u16, PlanCodecError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }
    fn u32(&mut self) -> Result<u32, PlanCodecError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    fn f64(&mut self) -> Result<f64, PlanCodecError> {
        let s = self.take(8)?;
        Ok(f64::from_le_bytes(s.try_into().expect("8 bytes")))
    }
}

fn strategy_tag(s: SearchStrategy) -> u8 {
    match s {
        SearchStrategy::Direct => 0,
        SearchStrategy::Union => 1,
        SearchStrategy::UnionSubtraction => 2,
    }
}

fn strategy_from(tag: u8) -> Result<SearchStrategy, PlanCodecError> {
    match tag {
        0 => Ok(SearchStrategy::Direct),
        1 => Ok(SearchStrategy::Union),
        2 => Ok(SearchStrategy::UnionSubtraction),
        _ => Err(PlanCodecError::Corrupt("unknown strategy tag")),
    }
}

/// Serializes a plan to bytes.
///
/// # Panics
/// Panics for `K != 2` hierarchies — like the index codec, the format is
/// keyed by the grid coding rule, which is only defined for a 2x2 window.
pub fn encode_plan(plan: &EnsemblePlan) -> Vec<u8> {
    assert_eq!(
        plan.hier.k(),
        2,
        "the plan codec is defined for K = 2 hierarchies"
    );
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(MAGIC);
    w.u32(plan.hier.h() as u32);
    w.u32(plan.hier.w() as u32);
    w.u8(plan.hier.k() as u8);
    w.u8(plan.hier.num_layers() as u8);
    w.u8(strategy_tag(plan.strategy));
    w.u32(plan.revision);
    w.u16(plan.members.len() as u16);
    for name in &plan.members {
        assert!(name.len() <= u16::MAX as usize, "member name too long");
        w.u16(name.len() as u16);
        w.buf.extend_from_slice(name.as_bytes());
    }
    w.u32(plan.tree.len() as u32);
    plan.tree.for_each(|code, comb| {
        w.u16(code.root.0 as u16);
        w.u16(code.root.1 as u16);
        w.u8(code.path.len() as u8);
        for &c in &code.path {
            w.u8(c.index() as u8);
        }
        w.u16(comb.terms.len() as u16);
        for t in &comb.terms {
            w.u16(t.model);
            w.u8(t.cell.layer as u8);
            w.u16(t.cell.row as u16);
            w.u16(t.cell.col as u16);
            w.i8(t.sign);
        }
    });
    w.f64(plan.report.plan_cost);
    let sum = fnv1a32(&w.buf);
    w.u32(sum);
    w.buf
}

/// Deserializes a plan from bytes. Only `plan_cost` of the report is
/// persisted; the remaining report counters are build-time statistics and
/// come back zeroed (sized to the member count). A `K != 2` header, or
/// an entry code outside the header's hierarchy (a root past the
/// coarsest layer, a path deeper than the layers), is
/// [`PlanCodecError::Corrupt`].
pub fn decode_plan(bytes: &[u8]) -> Result<EnsemblePlan, PlanCodecError> {
    if bytes.len() < 8 || &bytes[..8] != MAGIC {
        return Err(PlanCodecError::BadMagic);
    }
    // verify the integrity trailer before trusting any decoded field
    if bytes.len() < 12 {
        return Err(PlanCodecError::Corrupt("unexpected end of stream"));
    }
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if fnv1a32(body) != stored {
        return Err(PlanCodecError::Corrupt("checksum mismatch"));
    }
    let mut r = Reader { buf: body, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(PlanCodecError::BadMagic);
    }
    let h = r.u32()? as usize;
    let w = r.u32()? as usize;
    let k = r.u8()? as usize;
    let layers = r.u8()? as usize;
    let strategy = strategy_from(r.u8()?)?;
    let revision = r.u32()?;
    if k != 2 {
        return Err(PlanCodecError::Corrupt("plan artifact requires K = 2"));
    }
    let hier = Hierarchy::new(h, w, k, layers)
        .map_err(|_| PlanCodecError::Corrupt("invalid hierarchy header"))?;
    // As in the index decoder: a full plan fills every tree slot with an
    // entry of at least 7 bytes, so a stream shorter than the slot count
    // is corrupt, and a crafted header cannot force a huge allocation.
    if slot_count(&hier) > body.len() {
        return Err(PlanCodecError::Corrupt("hierarchy larger than the stream"));
    }
    let (top_rows, top_cols) = hier.layer_dims(layers - 1);
    let member_count = r.u16()? as usize;
    if member_count == 0 {
        return Err(PlanCodecError::Corrupt("plan has no members"));
    }
    let mut members = Vec::with_capacity(member_count);
    for _ in 0..member_count {
        let len = r.u16()? as usize;
        let name = std::str::from_utf8(r.take(len)?)
            .map_err(|_| PlanCodecError::Corrupt("member name is not UTF-8"))?;
        members.push(name.to_string());
    }
    let count = r.u32()? as usize;
    let mut tree = ExtendedQuadTree::new(&hier);
    for _ in 0..count {
        let root = (r.u16()? as usize, r.u16()? as usize);
        if root.0 >= top_rows || root.1 >= top_cols {
            return Err(PlanCodecError::Corrupt(
                "entry root outside the coarsest layer",
            ));
        }
        let path_len = r.u8()? as usize;
        if path_len >= layers {
            return Err(PlanCodecError::Corrupt(
                "entry path deeper than the hierarchy",
            ));
        }
        let mut path = Vec::with_capacity(path_len);
        for step in 0..path_len {
            let idx = r.u8()? as usize;
            let code = *ChildCode::ALL
                .get(idx)
                .ok_or(PlanCodecError::Corrupt("invalid child code"))?;
            // multi codes are leaves of the extended quad-tree; a stream
            // placing one mid-path is corrupt (inserting it would panic)
            if code.is_multi() && step + 1 != path_len {
                return Err(PlanCodecError::Corrupt("multi code not at path end"));
            }
            path.push(code);
        }
        let term_count = r.u16()? as usize;
        let mut terms = Vec::with_capacity(term_count);
        for _ in 0..term_count {
            let model = r.u16()?;
            let layer = r.u8()? as usize;
            let row = r.u16()? as usize;
            let col = r.u16()? as usize;
            let sign = r.i8()?;
            if model as usize >= member_count {
                return Err(PlanCodecError::Corrupt("term model out of member range"));
            }
            if layer >= layers || !(sign == 1 || sign == -1) {
                return Err(PlanCodecError::Corrupt("invalid plan term"));
            }
            let (rows, cols) = hier.layer_dims(layer);
            if row >= rows || col >= cols {
                return Err(PlanCodecError::Corrupt("plan term out of raster"));
            }
            terms.push(ModelTerm {
                model,
                cell: LayerCell::new(layer, row, col),
                sign,
            });
        }
        tree.insert(&GridCode { root, path }, ModelCombination { terms });
    }
    let plan_cost = r.f64()?;
    if !plan_cost.is_finite() || plan_cost < 0.0 {
        return Err(PlanCodecError::Corrupt(
            "plan cost not a finite non-negative",
        ));
    }
    if r.pos != body.len() {
        return Err(PlanCodecError::Corrupt("trailing bytes after plan cost"));
    }
    Ok(EnsemblePlan {
        hier,
        strategy,
        revision,
        tree,
        flat: Default::default(),
        report: PlanReport {
            direct_cells: vec![0; member_count],
            delegated_cells: vec![0; member_count],
            model_costs: vec![0.0; member_count],
            plan_cost,
            ..PlanReport::default()
        },
        members,
    })
}

/// Errors cold-starting a plan from disk.
#[derive(Debug)]
pub enum PlanLoadError {
    /// The artifact could not be read.
    Io(std::io::Error),
    /// The artifact bytes failed to decode.
    Codec(PlanCodecError),
}

impl std::fmt::Display for PlanLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanLoadError::Io(e) => write!(f, "reading plan artifact: {e}"),
            PlanLoadError::Codec(e) => write!(f, "decoding plan artifact: {e}"),
        }
    }
}

impl std::error::Error for PlanLoadError {}

impl From<std::io::Error> for PlanLoadError {
    fn from(e: std::io::Error) -> Self {
        PlanLoadError::Io(e)
    }
}

impl From<PlanCodecError> for PlanLoadError {
    fn from(e: PlanCodecError) -> Self {
        PlanLoadError::Codec(e)
    }
}

/// Persists a plan artifact to disk (the serving layer's cold-start
/// input; see [`load_plan`]).
pub fn save_plan(plan: &EnsemblePlan, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, encode_plan(plan))
}

/// Cold-starts a plan from a disk artifact written by [`save_plan`].
pub fn load_plan(path: impl AsRef<std::path::Path>) -> Result<EnsemblePlan, PlanLoadError> {
    let bytes = std::fs::read(path)?;
    Ok(decode_plan(&bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_ensemble, MemberProfile, PlanOptions};

    pub(crate) fn sample_plan() -> EnsemblePlan {
        let hier = Hierarchy::new(4, 4, 2, 3).unwrap();
        let samples = 3;
        let mut truths = Vec::new();
        let mut p0 = Vec::new();
        let mut p1 = Vec::new();
        for layer in 0..3 {
            let (r, c) = hier.layer_dims(layer);
            let scale = hier.scale(layer);
            let mut tl = Vec::new();
            let mut l0 = Vec::new();
            let mut l1 = Vec::new();
            for s in 0..samples {
                let truth = vec![(scale * scale * (s + 1)) as f32; r * c];
                // member 0 exact on the fine layer, member 1 on coarse ones
                l0.push(
                    truth
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| {
                            if layer == 0 {
                                v
                            } else {
                                v + (i + s + 1) as f32
                            }
                        })
                        .collect(),
                );
                l1.push(
                    truth
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| if layer > 0 { v } else { v + (i + s + 2) as f32 })
                        .collect(),
                );
                tl.push(truth);
            }
            truths.push(tl);
            p0.push(l0);
            p1.push(l1);
        }
        let members = vec![
            MemberProfile {
                name: "fine-expert".to_string(),
                preds: p0,
                atomic_rmse: 0.0,
                atomic_mape: 0.0,
            },
            MemberProfile {
                name: "coarse-expert".to_string(),
                preds: p1,
                atomic_rmse: 1.0,
                atomic_mape: 0.1,
            },
        ];
        plan_ensemble(
            &hier,
            &members,
            &truths,
            &PlanOptions {
                revision: 7,
                ..PlanOptions::default()
            },
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let plan = sample_plan();
        let bytes = encode_plan(&plan);
        let back = decode_plan(&bytes).unwrap();
        assert_eq!(back.hier, plan.hier);
        assert_eq!(back.members, plan.members);
        assert_eq!(back.strategy, plan.strategy);
        assert_eq!(back.revision, 7);
        assert_eq!(back.tree.len(), plan.tree.len());
        assert_eq!(back.report.plan_cost, plan.report.plan_cost);
        plan.tree.for_each(|code, comb| {
            assert_eq!(back.tree.get(code), Some(comb), "entry {code} lost");
        });
    }

    #[test]
    fn reencode_is_bit_identical() {
        // deterministic for_each order makes the roundtrip exact
        let plan = sample_plan();
        let bytes = encode_plan(&plan);
        let back = decode_plan(&bytes).unwrap();
        assert_eq!(encode_plan(&back), bytes);
    }

    #[test]
    fn rejects_bad_magic_and_model_range() {
        let plan = sample_plan();
        let mut bytes = encode_plan(&plan);
        bytes[0] = b'X';
        assert!(matches!(decode_plan(&bytes), Err(PlanCodecError::BadMagic)));
        // an O4AIDX01 artifact must be rejected as a plan
        assert!(decode_plan(b"O4AIDX01rest").is_err());
    }

    #[test]
    fn file_roundtrip_cold_start() {
        let plan = sample_plan();
        let dir = std::env::temp_dir().join(format!("o4a-ens-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.o4aens");
        save_plan(&plan, &path).unwrap();
        let back = load_plan(&path).unwrap();
        assert_eq!(back.members, plan.members);
        assert_eq!(back.tree.len(), plan.tree.len());
        assert!(matches!(
            load_plan(dir.join("missing.o4aens")),
            Err(PlanLoadError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
