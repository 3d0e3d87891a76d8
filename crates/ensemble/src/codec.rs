//! Binary codec for the ensemble plan: the `O4AENS01` artifact.
//!
//! A plan is a combination tree like the index, so it persists through
//! the one implementation in `o4a_core::codec`, whose module docs give the
//! layout: the magic and trailer checks, the header, the entry walk and
//! its bounds checks, the decode and load errors. This module writes only
//! what a plan adds: the revision and the member names after the header,
//! each term's `u16` member before the term, and `plan_cost` before the
//! trailer.
//!
//! The entries follow `ExtendedQuadTree::for_each` order, so
//! `encode_plan(&decode_plan(bytes)?) == bytes` — the round-trip is
//! bit-identical, which the bench and check gates assert.

use crate::plan::{EnsemblePlan, PlanReport};
use o4a_core::codec::{Artifact, Reader, Writer};
use o4a_core::combination::Term;

/// Errors decoding a plan byte stream: the shared artifact decode error.
pub use o4a_core::codec::CodecError as PlanCodecError;
/// Errors cold-starting a plan from disk: the shared artifact load error.
pub use o4a_core::codec::IndexLoadError as PlanLoadError;

const PLAN: Artifact = Artifact {
    magic: b"O4AENS01",
    k_rule: "plan artifact requires K = 2",
};

/// Serializes a plan to bytes.
///
/// # Panics
/// Panics for `K != 2` hierarchies — like the index codec, the format is
/// keyed by the grid coding rule, which is only defined for a 2x2 window —
/// on a member name over 65,535 bytes, and on an entry of more than
/// 65,535 terms.
pub fn encode_plan(plan: &EnsemblePlan) -> Vec<u8> {
    let mut w = Writer::new(&PLAN, &plan.hier, plan.strategy);
    w.u32(plan.revision);
    w.u16(plan.members.len() as u16);
    for name in &plan.members {
        assert!(name.len() <= u16::MAX as usize, "member name too long");
        w.u16(name.len() as u16);
        w.bytes(name.as_bytes());
    }
    w.entries(&plan.tree, |w, t| {
        w.u16(t.member);
        w.term(t);
    });
    w.f64(plan.report.plan_cost);
    w.finish()
}

/// Deserializes a plan from bytes. Only `plan_cost` of the report is
/// persisted; the remaining report counters are build-time statistics and
/// come back zeroed (sized to the member count). A `K != 2` header, an
/// entry code outside the header's hierarchy (a root past the coarsest
/// layer, a path deeper than the layers) or a term's member index past
/// the member list is [`PlanCodecError::Corrupt`].
pub fn decode_plan(bytes: &[u8]) -> Result<EnsemblePlan, PlanCodecError> {
    let (mut r, hier, strategy) = Reader::open(bytes, &PLAN)?;
    let revision = r.u32()?;
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
    let tree = r.entries(&hier, |r| {
        let member = r.u16()?;
        if member as usize >= member_count {
            return Err(PlanCodecError::Corrupt("term model out of member range"));
        }
        Ok(Term {
            member,
            ..r.term(&hier)?
        })
    })?;
    let plan_cost = r.f64()?;
    if !plan_cost.is_finite() || plan_cost < 0.0 {
        return Err(PlanCodecError::Corrupt(
            "plan cost not a finite non-negative",
        ));
    }
    r.finish()?;
    Ok(EnsemblePlan {
        hier,
        strategy,
        revision,
        tree,
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
    use o4a_core::codec::{decode_index, encode_index};
    use o4a_core::combination::search_optimal_combinations;
    use o4a_grid::hierarchy::Hierarchy;

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
        // each full artifact's magic keeps the other decoder out
        let frames: Vec<Vec<Vec<f32>>> = (0..plan.hier.num_layers())
            .map(|l| vec![vec![1.0; plan.hier.layer_len(l)]])
            .collect();
        let index = search_optimal_combinations(&plan.hier, &frames, &frames, plan.strategy);
        assert!(matches!(
            decode_plan(&encode_index(&index)),
            Err(PlanCodecError::BadMagic)
        ));
        assert!(matches!(
            decode_index(&encode_plan(&plan)),
            Err(PlanCodecError::BadMagic)
        ));
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
