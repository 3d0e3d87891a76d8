//! Hierarchical-structure optimization (the paper's future work #1).
//!
//! The conclusion of the paper proposes "determining the optimal
//! hierarchical structure for further reducing computation costs in
//! resource-limited scenarios" when "region query scales could be
//! pre-known". This module implements that search:
//!
//! Given the raster, a sample of the expected region queries, and a
//! parameter budget, it enumerates every valid `(window, layers)`
//! hierarchy, estimates
//!
//! * the network parameter count (from the [`crate::network::One4AllNet`]
//!   construction rules), and
//! * the expected *query cost* — the mean number of decomposed grids per
//!   query, which drives both prediction error accumulation (more grids =
//!   more independent error terms) and online response time —
//!
//! and returns the cheapest structure within budget, preferring lower query
//! cost and breaking ties by parameter count.

use crate::network::{NetworkConfig, One4AllNet};
use o4a_grid::decompose::decompose;
use o4a_grid::{Hierarchy, Mask};
use o4a_models::predictor::TrainNet;
use o4a_tensor::SeededRng;

/// One evaluated candidate structure.
#[derive(Debug, Clone)]
pub struct StructureCandidate {
    /// The candidate hierarchy.
    pub hier: Hierarchy,
    /// Trainable parameters of the One4All-ST network on this hierarchy.
    pub params: usize,
    /// Mean number of decomposed grids per sampled query.
    pub mean_groups: f64,
    /// Mean number of *cells* across decomposed groups per query (grids a
    /// multi-grid expands to).
    pub mean_cells: f64,
}

impl StructureCandidate {
    /// The optimization objective: the expected number of grid terms
    /// aggregated per query (each term contributes its own prediction
    /// error and an index lookup), with a small preference for shallow
    /// structures at equal cost.
    pub fn cost(&self) -> f64 {
        self.mean_cells + 0.01 * self.hier.num_layers() as f64
    }
}

/// Search configuration.
#[derive(Debug, Clone)]
pub struct StructureSearch {
    /// Candidate merging windows (default `{2, 3, 4}` as in Fig. 14).
    pub windows: Vec<usize>,
    /// Maximum allowed coarsest scale.
    pub max_scale: usize,
    /// Parameter budget for the network (`usize::MAX` = unconstrained).
    pub param_budget: usize,
    /// Network configuration template used for parameter estimates.
    pub net_cfg: NetworkConfig,
}

impl StructureSearch {
    /// Default search mirroring the paper's Fig. 14 candidates.
    pub fn standard(net_cfg: NetworkConfig) -> Self {
        StructureSearch {
            windows: vec![2, 3, 4],
            max_scale: 32,
            param_budget: usize::MAX,
            net_cfg,
        }
    }

    /// Enumerates and scores every valid structure for an `h x w` raster
    /// against the sampled `queries`, returning candidates sorted by
    /// [`StructureCandidate::cost`] (the structures over budget are
    /// filtered out).
    pub fn enumerate(&self, h: usize, w: usize, queries: &[Mask]) -> Vec<StructureCandidate> {
        assert!(
            !queries.is_empty(),
            "need sample queries to score structures"
        );
        let mut out = Vec::new();
        for &k in &self.windows {
            for layers in 2usize.. {
                let coarsest = k.pow(layers as u32 - 1);
                if coarsest > self.max_scale {
                    break;
                }
                let Ok(hier) = Hierarchy::new(h, w, k, layers) else {
                    break;
                };
                let params = estimate_params(&hier, &self.net_cfg);
                if params > self.param_budget {
                    continue;
                }
                let (mean_groups, mean_cells) = query_cost(&hier, queries);
                out.push(StructureCandidate {
                    hier,
                    params,
                    mean_groups,
                    mean_cells,
                });
            }
        }
        out.sort_by(|a, b| a.cost().partial_cmp(&b.cost()).expect("finite costs"));
        out
    }

    /// The best structure within budget, or `None` if nothing qualifies.
    pub fn best(&self, h: usize, w: usize, queries: &[Mask]) -> Option<StructureCandidate> {
        self.enumerate(h, w, queries).into_iter().next()
    }
}

/// Parameter count of the One4All-ST network on a hierarchy (constructed
/// with a throwaway RNG; initialisation does not change the count).
fn estimate_params(hier: &Hierarchy, net_cfg: &NetworkConfig) -> usize {
    let mut rng = SeededRng::new(0);
    One4AllNet::new(&mut rng, hier, net_cfg.clone()).num_params()
}

/// Mean decomposed `(groups, cells)` per query under a hierarchy.
fn query_cost(hier: &Hierarchy, queries: &[Mask]) -> (f64, f64) {
    let mut groups_total = 0usize;
    let mut cells_total = 0usize;
    for q in queries {
        let groups = decompose(hier, q);
        groups_total += groups.len();
        cells_total += groups.iter().map(|g| g.len()).sum::<usize>();
    }
    (
        groups_total as f64 / queries.len() as f64,
        cells_total as f64 / queries.len() as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_grid::queries::road_segment_queries;
    use o4a_nn::blocks::BlockKind;

    fn net_cfg() -> NetworkConfig {
        NetworkConfig {
            view_sizes: [2, 2, 1],
            d: 8,
            block: BlockKind::Se,
            hierarchical: true,
        }
    }

    #[test]
    fn enumerates_valid_structures_only() {
        let search = StructureSearch::standard(net_cfg());
        let mut rng = SeededRng::new(1);
        let queries = road_segment_queries(16, 16, 20.0, &mut rng);
        let candidates = search.enumerate(16, 16, &queries);
        assert!(!candidates.is_empty());
        for c in &candidates {
            assert_eq!(c.hier.h(), 16);
            assert!(c.hier.scale(c.hier.num_layers() - 1) <= 32);
            assert!(c.mean_groups >= 1.0);
        }
        // window 3 does not divide 16, so no K=3 candidates may appear
        assert!(candidates.iter().all(|c| c.hier.k() != 3));
    }

    #[test]
    fn deeper_hierarchies_reduce_query_cost_for_large_queries() {
        // large aligned queries decompose into fewer grids when coarse
        // scales exist
        let shallow = Hierarchy::new(16, 16, 2, 2).unwrap();
        let deep = Hierarchy::new(16, 16, 2, 5).unwrap();
        let big = Mask::rect(16, 16, 0, 0, 8, 8);
        let (gs, _) = query_cost(&shallow, std::slice::from_ref(&big));
        let (gd, _) = query_cost(&deep, std::slice::from_ref(&big));
        assert!(gd < gs, "deep {gd} should beat shallow {gs}");
    }

    #[test]
    fn budget_filters_expensive_structures() {
        let mut search = StructureSearch::standard(net_cfg());
        let mut rng = SeededRng::new(2);
        let queries = road_segment_queries(16, 16, 20.0, &mut rng);
        let all = search.enumerate(16, 16, &queries);
        let max_params = all.iter().map(|c| c.params).max().unwrap();
        search.param_budget = max_params - 1;
        let constrained = search.enumerate(16, 16, &queries);
        assert!(constrained.len() < all.len());
        assert!(constrained.iter().all(|c| c.params < max_params));
    }

    #[test]
    fn best_prefers_fewer_groups() {
        let search = StructureSearch::standard(net_cfg());
        // coarse-aligned queries: a deep K=2 structure should win over the
        // 2-layer ones
        let queries: Vec<Mask> = (0..4)
            .map(|i| {
                Mask::rect(
                    16,
                    16,
                    (i / 2) * 8,
                    (i % 2) * 8,
                    (i / 2 + 1) * 8,
                    (i % 2 + 1) * 8,
                )
            })
            .collect();
        let best = search.best(16, 16, &queries).expect("candidates exist");
        // each aligned 8x8 query must resolve to a single grid term, which
        // requires a K=2 hierarchy with at least 4 layers (scale 8 cells)
        assert_eq!(best.hier.k(), 2, "got {:?}", best.hier);
        assert!(best.hier.num_layers() >= 4, "got {:?}", best.hier);
        assert!((best.mean_cells - 1.0).abs() < 1e-9);
    }

    /// The Fig. 14 windows {2, 3, 4} enumerate the same structures, with
    /// the same decomposed groups and cells per query, as before groups
    /// became block bitmaps (totals over the 58 sampled queries).
    #[test]
    fn standard_windows_enumerate_unchanged() {
        let search = StructureSearch::standard(net_cfg());
        let mut rng = SeededRng::new(3);
        let queries = road_segment_queries(48, 48, 40.0, &mut rng);
        let n = queries.len() as f64;
        let mut got: Vec<(usize, usize, usize, usize)> = search
            .enumerate(48, 48, &queries)
            .iter()
            .map(|c| {
                (
                    c.hier.k(),
                    c.hier.num_layers(),
                    (c.mean_groups * n).round() as usize,
                    (c.mean_cells * n).round() as usize,
                )
            })
            .collect();
        got.sort_unstable();
        assert_eq!(queries.len(), 58);
        assert_eq!(
            got,
            vec![
                (2, 2, 775, 1083),
                (2, 3, 543, 945),
                (2, 4, 537, 945),
                (2, 5, 537, 945),
                (3, 2, 401, 1168),
                (4, 2, 287, 1614),
                (4, 3, 278, 1614),
            ]
        );
    }

    #[test]
    fn params_grow_with_depth() {
        let cfg = net_cfg();
        let shallow = estimate_params(&Hierarchy::new(16, 16, 2, 2).unwrap(), &cfg);
        let deep = estimate_params(&Hierarchy::new(16, 16, 2, 5).unwrap(), &cfg);
        assert!(deep > shallow);
    }

    #[test]
    #[should_panic(expected = "need sample queries")]
    fn empty_queries_rejected() {
        let search = StructureSearch::standard(net_cfg());
        search.enumerate(16, 16, &[]);
    }
}
