//! Compiled query plans: arena-packed index resolution with precomputed
//! frame offsets, executed by ISA-dispatched gather kernels.
//!
//! A [`Resolver`] (a combination index, or an ensemble plan) says how one
//! decomposed group resolves to *runs* of `(cell, sign, member)` terms —
//! one run per combination evaluated. [`compile_groups`] walks that
//! resolution once and packs every term into one contiguous arena of
//! `(flat frame offset, sign)` pairs, so answering the same query again is
//! a single streaming pass: gather the addressed snapshot values, multiply
//! by the signs ([`o4a_tensor::gather`]), and run the fold below. The
//! interpreted oracle ([`crate::server::interpret`]) walks the very same
//! resolution term by term.
//!
//! # Bit-identity
//!
//! Compiled execution is **bit-identical** to the interpreted oracle, not
//! merely close. Two properties make that hold:
//!
//! * The gather + sign-multiply phase is per-element — no reduction, no
//!   reassociation — so any SIMD lane width produces the same bits. The
//!   sign is the *left* multiplicand, matching `sign as f32 * value`.
//! * The reduction phase replays one fixed fold structure, recorded at
//!   compile time as *runs* nested in *groups* (one per decomposed
//!   group): a multi-grid group's value is its single run's fold
//!   `0.0 + t_0 + t_1 + …` emitted directly, while a cells group folds
//!   its runs' values into a fresh `0.0` accumulator first — the
//!   distinction is observable through IEEE `-0.0` (`0.0 + -0.0` is
//!   `+0.0`), so the plan records it instead of flattening.
//!
//! # Safety of the unchecked gathers
//!
//! The hardware gather tiers cannot bounds-check. Soundness is enforced
//! in two layers: the builder derives every offset from the hierarchy's
//! own layer geometry (so `offset < total cells` by construction), and
//! every execute entry point refuses (returns `None` for) any snapshot
//! whose [`layout_signature`] differs from the hierarchy the plan was
//! compiled against **and** re-checks `required_len <= data.len()` with a
//! plain integer compare — the gathers stay in bounds even under a
//! signature collision. The engine never meets a refusal: it only serves
//! stores built for its resolver's hierarchy, checked at construction.
//!
//! # Caching and invalidation
//!
//! Plans depend on the mask (or decomposed group), the resolver and the
//! snapshot *layout* — but not on snapshot *values*. The engine caches
//! them in a [`crate::cache::ClockCache`] under the resolver's epoch (the
//! ensemble plan revision; `0` for a combination index), so a resolver
//! swap can never serve a stale plan. Value refreshes (`publish_checked`)
//! don't touch the cache at all — execution re-reads the current
//! snapshot every time.

use crate::combination::{Combination, CombinationIndex};
use crate::frames::{layout_signature, FrameData, FrameSet};
use o4a_grid::decompose::DecomposedGroup;
use o4a_grid::hierarchy::{Hierarchy, LayerCell};
use o4a_obs::Histogram;
use std::cell::RefCell;
use std::sync::Arc;

/// One resolved term: `sign ×` member `member`'s snapshot value at `cell`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Term {
    /// The grid cell read.
    pub cell: LayerCell,
    /// `+1` or `-1`.
    pub sign: i8,
    /// The member store read (always `0` for a single-model index).
    pub member: u16,
}

/// Receives one group's resolution: its terms in evaluation order, each
/// run (one combination's terms) closed by [`TermSink::end_run`].
pub trait TermSink {
    /// The next term of the current run.
    fn term(&mut self, t: Term);
    /// Closes the current run.
    fn end_run(&mut self);
}

/// Collects the terms alone, dropping the run structure.
impl TermSink for Vec<Term> {
    fn term(&mut self, t: Term) {
        self.push(t);
    }

    fn end_run(&mut self) {}
}

/// What the query engine resolves decomposed groups through: a
/// single-model [`CombinationIndex`], or an ensemble plan whose terms
/// each name the member store they read.
pub trait Resolver: Send + Sync {
    /// One index entry: a combination of signed terms.
    type Entry;

    /// The hierarchy queries are decomposed against.
    fn hierarchy(&self) -> &Hierarchy;

    /// Member stores the terms read from (`1` for a single model).
    fn members(&self) -> usize;

    /// Cache epoch of the resolver's entries: compiled plans cached under
    /// another epoch are never served (`0` for a combination index, the
    /// plan revision for an ensemble).
    fn epoch(&self) -> u64;

    /// The entry of a single grid, if the index has one.
    fn cell_entry(&self, cell: LayerCell) -> Option<&Self::Entry>;

    /// The entry of a multi-grid (a same-parent 2–3 cell group at
    /// `layer`), if the index has one.
    fn multi_entry(&self, layer: usize, cells: &[(usize, usize)]) -> Option<&Self::Entry>;

    /// An entry's terms, in evaluation order.
    fn entry_terms(entry: &Self::Entry) -> impl Iterator<Item = Term> + '_;

    /// Registers the resolver's own gauges and returns one served-terms
    /// histogram per member for the engine to sample per query; empty
    /// (the default) records none.
    fn register_metrics(&self) -> Vec<Arc<Histogram>> {
        Vec::new()
    }

    /// Resolves one decomposed group into `sink`, returning whether it hit
    /// a multi-grid entry (whose single run *is* the group value).
    /// Otherwise each member cell contributes one run — its entry, or the
    /// direct prediction (member 0) when the index has none, which only
    /// happens on a foreign index.
    fn resolve_group(&self, group: &DecomposedGroup, sink: &mut impl TermSink) -> bool {
        if group.cells.len() >= 2 && self.hierarchy().k() == 2 {
            if let Some(entry) = self.multi_entry(group.layer, &group.cells) {
                Self::entry_terms(entry).for_each(|t| sink.term(t));
                sink.end_run();
                return true;
            }
        }
        for &(r, c) in &group.cells {
            let cell = LayerCell::new(group.layer, r, c);
            match self.cell_entry(cell) {
                Some(entry) => Self::entry_terms(entry).for_each(|t| sink.term(t)),
                None => sink.term(Term {
                    cell,
                    sign: 1,
                    member: 0,
                }),
            }
            sink.end_run();
        }
        false
    }
}

impl Resolver for CombinationIndex {
    type Entry = Combination;

    fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    fn members(&self) -> usize {
        1
    }

    fn epoch(&self) -> u64 {
        0
    }

    fn cell_entry(&self, cell: LayerCell) -> Option<&Combination> {
        self.for_cell(cell)
    }

    fn multi_entry(&self, layer: usize, cells: &[(usize, usize)]) -> Option<&Combination> {
        self.for_multi(layer, cells)
    }

    fn entry_terms(entry: &Combination) -> impl Iterator<Item = Term> + '_ {
        entry.terms.iter().map(|t| Term {
            cell: t.cell,
            sign: t.sign,
            member: 0,
        })
    }
}

/// A fully resolved query: every combination term the index produces for
/// one decomposition, packed as flat frame offsets and signs, plus the
/// run/group fold structure that fixes the accumulation order.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    /// Flat arena offset of each term (layer base + row-major cell).
    offsets: Vec<u32>,
    /// `sign as f32` of each term (±1.0), the gather's left multiplicand.
    signs: Vec<f32>,
    /// Exclusive end index into `offsets` of each run (one run per
    /// combination the resolver walk reports).
    run_ends: Vec<u32>,
    /// `(exclusive end index into run_ends, is_multi)` per decomposed
    /// group. A multi group has exactly one run whose fold *is* the group
    /// value; a cells group folds its runs into a fresh accumulator.
    groups: Vec<(u32, bool)>,
    /// `(exclusive term end, member store)` maximal same-member spans —
    /// the gather phase streams each span against one member's arena.
    segs: Vec<(u32, u16)>,
    /// [`layout_signature`] of the hierarchy the offsets were derived
    /// from; executed snapshots must match.
    sig: u64,
    /// Total cells of that hierarchy — the integer bound that keeps the
    /// unchecked gathers sound even under a `sig` collision.
    required_len: usize,
    /// Number of member stores addressed (1 for a single-model plan).
    members: u16,
    /// Terms addressed per member store (for the ensemble's per-model
    /// term histograms).
    member_terms: Vec<u32>,
}

impl CompiledPlan {
    /// Total resolved terms in the arena.
    pub fn num_terms(&self) -> usize {
        self.offsets.len()
    }

    /// Terms addressed per member store.
    pub fn member_terms(&self) -> &[u32] {
        &self.member_terms
    }

    /// Checks every member snapshot and runs the gather phase into
    /// `scratch`. `false` means the plan cannot run against these
    /// snapshots (layout mismatch or short arena).
    fn gather(&self, snaps: &[&FrameSet], scratch: &mut Vec<f32>) -> bool {
        if snaps.len() < self.members as usize {
            return false;
        }
        for &snap in &snaps[..self.members as usize] {
            let len = match snap.data() {
                FrameData::F32(d) => d.len(),
                FrameData::F16(d) => d.len(),
            };
            if snap.layout_sig() != self.sig || len < self.required_len {
                return false;
            }
        }
        scratch.clear();
        scratch.resize(self.offsets.len(), 0.0);
        let mut s = 0usize;
        for &(end, member) in &self.segs {
            let e = end as usize;
            let (offs, sgns, out) = (&self.offsets[s..e], &self.signs[s..e], &mut scratch[s..e]);
            // SAFETY: every offset is `< required_len` by construction
            // (derived from the hierarchy's layer geometry in
            // `PlanBuilder::push_term`) and `required_len <= data.len()`
            // was just checked above; the three slices share one length.
            match snaps[member as usize].data() {
                FrameData::F32(d) => unsafe {
                    o4a_tensor::gather::gather_signed_f32(d, offs, sgns, out)
                },
                FrameData::F16(d) => unsafe {
                    o4a_tensor::gather::gather_signed_f16(d, offs, sgns, out)
                },
            }
            s = e;
        }
        true
    }

    /// Replays the fold structure over gathered terms, feeding each
    /// group's value to `emit` in decompose order.
    fn reduce_each(&self, scratch: &[f32], mut emit: impl FnMut(f32)) {
        let mut run_i = 0usize;
        let mut term_i = 0usize;
        for &(group_end, multi) in &self.groups {
            let rend = group_end as usize;
            if multi {
                // one run; its fold is the group value (no outer 0.0 +)
                let e = self.run_ends[run_i] as usize;
                let mut v = 0.0f32;
                for &x in &scratch[term_i..e] {
                    v += x;
                }
                emit(v);
                term_i = e;
                run_i = rend;
            } else {
                let mut g = 0.0f32;
                while run_i < rend {
                    let e = self.run_ends[run_i] as usize;
                    let mut v = 0.0f32;
                    for &x in &scratch[term_i..e] {
                        v += x;
                    }
                    g += v;
                    term_i = e;
                    run_i += 1;
                }
                emit(g);
            }
        }
    }

    /// Evaluates a single-group plan to its group value, with no outer
    /// `0.0 +` (the shard scatter leg caches and executes one plan per
    /// group, since a shard slice is a batch-dependent concatenation
    /// whose whole-slice key would never repeat). `None` on layout
    /// mismatch.
    ///
    /// # Panics
    /// Panics if the plan holds more than one group.
    pub fn execute_one(&self, snaps: &[&FrameSet], scratch: &mut Vec<f32>) -> Option<f32> {
        assert_eq!(
            self.groups.len(),
            1,
            "execute_one requires a single-group plan"
        );
        if !self.gather(snaps, scratch) {
            return None;
        }
        let mut out = 0.0f32;
        self.reduce_each(scratch, |v| out = v);
        Some(out)
    }

    /// Evaluates the plan to the query's scalar answer: the fold of its
    /// group values, starting at `0.0`. `None` on layout mismatch.
    pub fn execute_sum(&self, snaps: &[&FrameSet], scratch: &mut Vec<f32>) -> Option<f32> {
        if !self.gather(snaps, scratch) {
            return None;
        }
        let mut total = 0.0f32;
        self.reduce_each(scratch, |v| total += v);
        Some(total)
    }
}

/// Incrementally assembles a [`CompiledPlan`]: push terms, close runs
/// (one per combination evaluation), close groups (one per decomposed
/// group). Layer bases and widths are precomputed from the hierarchy so
/// each term costs one multiply-add.
struct PlanBuilder {
    bases: Vec<u32>,
    lws: Vec<u32>,
    sig: u64,
    required_len: usize,
    offsets: Vec<u32>,
    signs: Vec<f32>,
    run_ends: Vec<u32>,
    groups: Vec<(u32, bool)>,
    segs: Vec<(u32, u16)>,
    members: u16,
}

impl PlanBuilder {
    /// Starts a plan over `hier`'s layer geometry.
    ///
    /// # Panics
    /// Panics if the hierarchy's total cell count exceeds the `i32::MAX`
    /// flat-offset budget of the 32-bit gather kernels.
    fn new(hier: &Hierarchy) -> Self {
        let lens: Vec<usize> = (0..hier.num_layers()).map(|l| hier.layer_len(l)).collect();
        let total: usize = lens.iter().sum();
        assert!(
            total <= i32::MAX as usize,
            "hierarchy exceeds the 2^31-cell flat-offset budget ({total} cells)"
        );
        let mut bases = Vec::with_capacity(lens.len());
        let mut acc = 0u32;
        for &len in &lens {
            bases.push(acc);
            acc += len as u32;
        }
        PlanBuilder {
            bases,
            lws: (0..hier.num_layers())
                .map(|l| hier.layer_dims(l).1 as u32)
                .collect(),
            sig: layout_signature(lens),
            required_len: total,
            offsets: Vec::new(),
            signs: Vec::new(),
            run_ends: Vec::new(),
            groups: Vec::new(),
            segs: Vec::new(),
            members: 0,
        }
    }

    /// Appends one signed term reading `member`'s snapshot at `cell`.
    fn push_term(&mut self, cell: LayerCell, sign: i8, member: u16) {
        let off = self.bases[cell.layer] + cell.row as u32 * self.lws[cell.layer] + cell.col as u32;
        debug_assert!((off as usize) < self.required_len);
        self.offsets.push(off);
        self.signs.push(sign as f32);
        if member >= self.members {
            self.members = member + 1;
        }
        let end = self.offsets.len() as u32;
        match self.segs.last_mut() {
            Some((e, m)) if *m == member => *e = end,
            _ => self.segs.push((end, member)),
        }
    }

    /// Closes the current run (one combination's evaluation).
    fn end_run(&mut self) {
        self.run_ends.push(self.offsets.len() as u32);
    }

    /// Closes the current group. `multi` records that the group value is
    /// the run's fold itself (the multi-grid index hit); such a group must
    /// hold exactly one run.
    fn end_group(&mut self, multi: bool) {
        let prev = self.groups.last().map_or(0, |&(e, _)| e);
        let runs = self.run_ends.len() as u32 - prev;
        assert!(!multi || runs == 1, "multi group must hold exactly one run");
        self.groups.push((self.run_ends.len() as u32, multi));
    }

    /// Finalizes the plan.
    fn finish(self) -> CompiledPlan {
        let members = self.members.max(1);
        let mut member_terms = vec![0u32; members as usize];
        let mut s = 0u32;
        for &(end, member) in &self.segs {
            member_terms[member as usize] += end - s;
            s = end;
        }
        CompiledPlan {
            offsets: self.offsets,
            signs: self.signs,
            run_ends: self.run_ends,
            groups: self.groups,
            segs: self.segs,
            sig: self.sig,
            required_len: self.required_len,
            members,
            member_terms,
        }
    }
}

impl TermSink for PlanBuilder {
    fn term(&mut self, t: Term) {
        self.push_term(t.cell, t.sign, t.member);
    }

    fn end_run(&mut self) {
        PlanBuilder::end_run(self);
    }
}

/// Compiles a decomposition against a resolver: every group's resolution
/// ([`Resolver::resolve_group`]) packed into one plan, each term's arena
/// segment tagged with the member store it gathers from.
pub fn compile_groups<R: Resolver>(resolver: &R, groups: &[DecomposedGroup]) -> CompiledPlan {
    let mut b = PlanBuilder::new(resolver.hierarchy());
    for group in groups {
        let multi = resolver.resolve_group(group, &mut b);
        b.end_group(multi);
    }
    b.finish()
}

/// Runs `f` with this thread's reusable gather scratch buffer, so
/// steady-state compiled execution allocates nothing (including inside
/// compute-pool tasks).
pub fn with_scratch<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier4() -> Hierarchy {
        Hierarchy::new(4, 4, 2, 3).unwrap()
    }

    fn builder_plan() -> CompiledPlan {
        let hier = hier4();
        let mut b = PlanBuilder::new(&hier);
        // multi group: one run of two terms
        b.push_term(LayerCell::new(1, 0, 0), 1, 0);
        b.push_term(LayerCell::new(0, 0, 2), -1, 0);
        b.end_run();
        b.end_group(true);
        // cells group: two runs of one term each
        b.push_term(LayerCell::new(0, 3, 3), 1, 0);
        b.end_run();
        b.push_term(LayerCell::new(2, 0, 0), -1, 0);
        b.end_run();
        b.end_group(false);
        b.finish()
    }

    fn frames4() -> FrameSet {
        // layer lens 16, 4, 1 — distinct values so offsets are provable
        let l0: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let l1: Vec<f32> = (0..4).map(|v| 100.0 + v as f32).collect();
        FrameSet::from_f32(vec![l0, l1, vec![1000.0]])
    }

    #[test]
    fn builder_packs_offsets_and_fold_structure() {
        let plan = builder_plan();
        // layer bases: 0, 16, 20
        assert_eq!(plan.offsets, vec![16, 2, 15, 20]);
        assert_eq!(plan.signs, vec![1.0, -1.0, 1.0, -1.0]);
        assert_eq!(plan.run_ends, vec![2, 3, 4]);
        assert_eq!(plan.groups, vec![(1, true), (3, false)]);
        assert_eq!(plan.num_terms(), 4);
        assert_eq!(plan.member_terms(), &[4]);
    }

    #[test]
    fn execute_matches_hand_computation() {
        let fs = frames4();
        let mut scratch = Vec::new();
        // multi: 0 + 100 - 2; cells: 0 + (0 + 15) + (0 - 1000)
        let sum = builder_plan().execute_sum(&[&fs], &mut scratch).unwrap();
        assert_eq!(sum, 98.0 - 985.0);
        let hier = hier4();
        let mut b = PlanBuilder::new(&hier);
        b.push_term(LayerCell::new(1, 0, 0), 1, 0);
        b.push_term(LayerCell::new(0, 0, 2), -1, 0);
        b.end_run();
        b.end_group(true);
        assert_eq!(b.finish().execute_one(&[&fs], &mut scratch), Some(98.0));
    }

    #[test]
    fn execute_refuses_mismatched_layouts() {
        let plan = builder_plan();
        let mut scratch = Vec::new();
        // wrong layer geometry → None, never an out-of-bounds gather
        let wrong = FrameSet::from_f32(vec![vec![0.0; 4]]);
        assert_eq!(plan.execute_sum(&[&wrong], &mut scratch), None);
        // no snapshots at all
        assert_eq!(plan.execute_sum(&[], &mut scratch), None);
        let empty = FrameSet::default();
        assert_eq!(plan.execute_sum(&[&empty], &mut scratch), None);
    }

    #[test]
    #[should_panic(expected = "exactly one run")]
    fn multi_group_with_two_runs_is_rejected() {
        let hier = hier4();
        let mut b = PlanBuilder::new(&hier);
        b.push_term(LayerCell::new(0, 0, 0), 1, 0);
        b.end_run();
        b.push_term(LayerCell::new(0, 0, 1), 1, 0);
        b.end_run();
        b.end_group(true);
    }

    /// Compiling through the resolver walk packs exactly the terms and
    /// runs the walk reports, for both group shapes and the foreign-index
    /// fallback.
    #[test]
    fn compile_groups_follows_the_resolution() {
        use crate::combination::{search_optimal_combinations, SearchStrategy};
        let hier = hier4();
        let frames: Vec<Vec<f32>> = (0..3).map(|l| vec![1.0; hier.layer_len(l)]).collect();
        let preds: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone(); 2]).collect();
        let index =
            search_optimal_combinations(&hier, &preds, &preds, SearchStrategy::UnionSubtraction);
        let mut foreign = index.clone();
        foreign.tree = o4a_grid::quadtree::ExtendedQuadTree::new(&hier);
        let groups = vec![
            DecomposedGroup {
                layer: 0,
                cells: vec![(0, 0), (0, 1)],
            },
            DecomposedGroup {
                layer: 1,
                cells: vec![(1, 1)],
            },
        ];
        for r in [&index, &foreign] {
            let mut terms: Vec<Term> = Vec::new();
            for g in &groups {
                r.resolve_group(g, &mut terms);
            }
            let plan = compile_groups(r, &groups);
            assert_eq!(plan.num_terms(), terms.len());
            assert_eq!(plan.member_terms(), &[terms.len() as u32]);
        }
        // a foreign index resolves every cell to its direct prediction
        let mut direct: Vec<Term> = Vec::new();
        assert!(!foreign.resolve_group(&groups[0], &mut direct));
        assert_eq!(
            direct,
            vec![
                Term {
                    cell: LayerCell::new(0, 0, 0),
                    sign: 1,
                    member: 0
                },
                Term {
                    cell: LayerCell::new(0, 0, 1),
                    sign: 1,
                    member: 0
                },
            ]
        );
    }

    #[test]
    fn scratch_is_reused_per_thread() {
        let cap = with_scratch(|s| {
            s.resize(64, 0.0);
            s.capacity()
        });
        let cap2 = with_scratch(|s| s.capacity());
        assert!(cap2 >= 64 && cap2 >= cap.min(64));
    }
}
