//! The retired compiled-plan API, kept as a thin adapter over
//! [`interpret`] for the frozen benchmark (`perfbench/`), which still
//! compiles against these five names. No serving path calls it, and it
//! goes with the benchmark revision (ROADMAP item 4): a "plan" holds the
//! resolver and the groups, and executing it interprets them.

use crate::frames::{FrameSet, FrameView};
use crate::server::{group_value, interpret, Resolver};
use o4a_grid::decompose::DecomposedGroup;

/// A resolver and the decomposed groups it answers.
pub struct CompiledPlan<'a, R> {
    resolver: &'a R,
    groups: Vec<DecomposedGroup>,
}

/// Pairs `groups` with the resolver that answers them.
pub fn compile_groups<'a, R: Resolver>(
    resolver: &'a R,
    groups: &[DecomposedGroup],
) -> CompiledPlan<'a, R> {
    let groups = groups.to_vec();
    CompiledPlan { resolver, groups }
}

/// Calls `f` with an empty buffer: nothing is gathered any more.
pub fn with_scratch<T>(f: impl FnOnce(&mut Vec<f32>) -> T) -> T {
    f(&mut Vec::new())
}

impl<R: Resolver> CompiledPlan<'_, R> {
    /// Terms the groups resolve to.
    pub fn num_terms(&self) -> usize {
        let mut terms = 0;
        for g in &self.groups {
            self.resolver.resolve_group(g, |run| terms += run.len());
        }
        terms
    }

    /// [`interpret`]'s answer over `snaps` (member `m` reads `snaps[m]`).
    pub fn execute_sum(&self, snaps: &[&FrameSet], _: &mut Vec<f32>) -> Option<f32> {
        let views: Vec<FrameView<'_>> = snaps.iter().map(|s| s.view()).collect();
        Some(interpret(self.resolver, &views, &self.groups))
    }

    /// A one-group plan's value, as a shard returns it.
    pub fn execute_one(&self, snaps: &[&FrameSet], _: &mut Vec<f32>) -> Option<f32> {
        assert_eq!(self.groups.len(), 1, "execute_one needs a one-group plan");
        let views: Vec<FrameView<'_>> = snaps.iter().map(|s| s.view()).collect();
        Some(group_value(self.resolver, &views, &self.groups[0], &mut []))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combination::{search_optimal_combinations, SearchStrategy};
    use o4a_grid::decompose::decompose;
    use o4a_grid::{Hierarchy, Mask};

    #[test]
    fn adapter_returns_interprets_bits() {
        let hier = Hierarchy::new(8, 8, 2, 4).unwrap();
        let frames: Vec<Vec<f32>> = (0..hier.num_layers())
            .map(|l| {
                (0..hier.layer_len(l))
                    .map(|i| (i * 37 % 11) as f32 * 0.3 - 1.1)
                    .collect()
            })
            .collect();
        let preds: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone(); 2]).collect();
        let index =
            search_optimal_combinations(&hier, &preds, &preds, SearchStrategy::UnionSubtraction);
        let fs = FrameSet::from_f32(frames);
        let groups = decompose(&hier, &Mask::rect(8, 8, 1, 0, 7, 5));
        let want = interpret(&index, &[fs.view()], &groups);
        let plan = compile_groups(&index, &groups);
        let got = with_scratch(|s| plan.execute_sum(&[&fs], s)).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
        let mut folded = 0.0f32;
        for g in &groups {
            let one = compile_groups(&index, std::slice::from_ref(g));
            folded += with_scratch(|s| one.execute_one(&[&fs], s)).unwrap();
        }
        assert_eq!(folded.to_bits(), want.to_bits());
        let mut terms = Vec::new();
        for g in &groups {
            index.resolve_group(g, |run| terms.extend_from_slice(run));
        }
        assert_eq!(plan.num_terms(), terms.len());
    }
}
