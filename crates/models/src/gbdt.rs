//! Gradient-boosted regression trees (the XGBoost baseline).
//!
//! A from-scratch GBDT with squared loss: each round fits a depth-limited
//! regression tree to the current residuals and adds it with shrinkage.
//! Splits are chosen greedily over quantile-sampled thresholds. Features
//! are the same 17 historical observations every other model sees; one
//! global model is trained over all cells (cells become rows).

use crate::predictor::{Predictor, TrainStats};
use o4a_data::features::{SampleSet, TemporalConfig};
use o4a_data::flow::FlowSeries;
use o4a_tensor::SeededRng;
use std::time::Instant;

/// A node of a regression tree (arena-allocated).
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f32,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: usize,
        right: usize,
    },
}

/// A single regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Fits a tree of at most `max_depth` on the rows indexed by `idx`.
    fn fit(
        rows: &[Vec<f32>],
        targets: &[f32],
        idx: &[usize],
        max_depth: usize,
        min_leaf: usize,
        n_thresholds: usize,
    ) -> RegressionTree {
        let mut tree = RegressionTree { nodes: Vec::new() };
        tree.build(rows, targets, idx, max_depth, min_leaf, n_thresholds);
        tree
    }

    fn build(
        &mut self,
        rows: &[Vec<f32>],
        targets: &[f32],
        idx: &[usize],
        depth: usize,
        min_leaf: usize,
        n_thresholds: usize,
    ) -> usize {
        let mean = idx.iter().map(|&i| targets[i]).sum::<f32>() / idx.len().max(1) as f32;
        if depth == 0 || idx.len() < 2 * min_leaf {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        match best_split(rows, targets, idx, min_leaf, n_thresholds) {
            None => {
                self.nodes.push(Node::Leaf { value: mean });
                self.nodes.len() - 1
            }
            Some((feature, threshold)) => {
                let (li, ri): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| rows[i][feature] <= threshold);
                // reserve this node's slot before recursing
                self.nodes.push(Node::Leaf { value: mean });
                let me = self.nodes.len() - 1;
                let left = self.build(rows, targets, &li, depth - 1, min_leaf, n_thresholds);
                let right = self.build(rows, targets, &ri, depth - 1, min_leaf, n_thresholds);
                self.nodes[me] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                me
            }
        }
    }

    /// Predicts a single feature row.
    pub fn predict_row(&self, row: &[f32]) -> f32 {
        // the top-level `build` call always allocates the root first
        let mut i = self.root();
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn root(&self) -> usize {
        0
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Finds the variance-minimizing split, or `None` if nothing improves.
fn best_split(
    rows: &[Vec<f32>],
    targets: &[f32],
    idx: &[usize],
    min_leaf: usize,
    n_thresholds: usize,
) -> Option<(usize, f32)> {
    let n_features = rows[idx[0]].len();
    let total_sum: f64 = idx.iter().map(|&i| targets[i] as f64).sum();
    let total_cnt = idx.len() as f64;
    let parent_score = total_sum * total_sum / total_cnt;
    let mut best: Option<(usize, f32, f64)> = None;

    let mut values: Vec<f32> = Vec::with_capacity(idx.len());
    #[allow(clippy::needless_range_loop)] // f indexes a column across rows
    for f in 0..n_features {
        values.clear();
        values.extend(idx.iter().map(|&i| rows[i][f]));
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        values.dedup();
        if values.len() < 2 {
            continue;
        }
        let step = (values.len() / n_thresholds).max(1);
        for ti in (step..values.len()).step_by(step) {
            let thr = (values[ti - 1] + values[ti]) / 2.0;
            let mut lsum = 0.0f64;
            let mut lcnt = 0.0f64;
            for &i in idx {
                if rows[i][f] <= thr {
                    lsum += targets[i] as f64;
                    lcnt += 1.0;
                }
            }
            let rcnt = total_cnt - lcnt;
            if lcnt < min_leaf as f64 || rcnt < min_leaf as f64 {
                continue;
            }
            let rsum = total_sum - lsum;
            let score = lsum * lsum / lcnt + rsum * rsum / rcnt;
            let gain = score - parent_score;
            if gain > 1e-9 && best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((f, thr, gain));
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}

/// The gradient-boosted ensemble.
pub struct Gbdt {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage (learning rate).
    pub shrinkage: f32,
    /// Minimum rows per leaf.
    pub min_leaf: usize,
    /// Candidate thresholds per feature.
    pub n_thresholds: usize,
    /// Maximum training rows (subsampled with `seed` if exceeded).
    pub max_rows: usize,
    /// Subsampling seed.
    pub seed: u64,
    base: f32,
    trees: Vec<RegressionTree>,
}

impl Gbdt {
    /// A configuration comparable to the paper's XGBoost baseline at
    /// laptop scale.
    pub fn standard() -> Self {
        Gbdt {
            n_trees: 30,
            max_depth: 4,
            shrinkage: 0.15,
            min_leaf: 8,
            n_thresholds: 16,
            max_rows: 20_000,
            seed: 23,
            base: 0.0,
            trees: Vec::new(),
        }
    }

    /// Fits on explicit rows (exposed for unit tests).
    pub fn fit_rows(&mut self, rows: &[Vec<f32>], targets: &[f32]) {
        assert_eq!(rows.len(), targets.len());
        assert!(!rows.is_empty(), "GBDT needs training rows");
        self.base = targets.iter().sum::<f32>() / targets.len() as f32;
        let mut residuals: Vec<f32> = targets.iter().map(|&t| t - self.base).collect();
        let idx: Vec<usize> = (0..rows.len()).collect();
        self.trees.clear();
        for _ in 0..self.n_trees {
            let tree = RegressionTree::fit(
                rows,
                &residuals,
                &idx,
                self.max_depth,
                self.min_leaf,
                self.n_thresholds,
            );
            for (i, r) in residuals.iter_mut().enumerate() {
                *r -= self.shrinkage * tree.predict_row(&rows[i]);
            }
            self.trees.push(tree);
        }
    }

    /// Predicts one row.
    pub fn predict_row(&self, row: &[f32]) -> f32 {
        let mut v = self.base;
        for tree in &self.trees {
            v += self.shrinkage * tree.predict_row(row);
        }
        v
    }
}

impl Predictor for Gbdt {
    fn name(&self) -> &str {
        "XGBoost"
    }

    fn fit(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        train_targets: &[usize],
    ) -> TrainStats {
        let set = SampleSet::extract_at(flow, cfg, train_targets);
        let (mut rows, mut ys) = set.to_rows();
        if rows.len() > self.max_rows {
            let mut rng = SeededRng::new(self.seed);
            // reservoir-free decimation: keep a deterministic random subset
            let keep = self.max_rows;
            let mut chosen: Vec<usize> = (0..rows.len()).collect();
            for i in (1..chosen.len()).rev() {
                chosen.swap(i, rng.index(i + 1));
            }
            chosen.truncate(keep);
            chosen.sort_unstable();
            rows = chosen.iter().map(|&i| rows[i].clone()).collect();
            ys = chosen.iter().map(|&i| ys[i]).collect();
        }
        let start = Instant::now();
        self.fit_rows(&rows, &ys);
        TrainStats {
            epochs: self.n_trees,
            sec_per_epoch: start.elapsed().as_secs_f64() / self.n_trees.max(1) as f64,
            final_loss: 0.0,
            num_params: 0,
        }
    }

    fn predict(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        targets: &[usize],
    ) -> Vec<Vec<f32>> {
        let set = SampleSet::extract_at(flow, cfg, targets);
        let (rows, _) = set.to_rows();
        let plane = flow.h() * flow.w();
        targets
            .iter()
            .enumerate()
            .map(|(s, _)| {
                (0..plane)
                    .map(|p| self.predict_row(&rows[s * plane + p]).max(0.0))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_tree_fits_step_function() {
        let rows: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32]).collect();
        let ys: Vec<f32> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let idx: Vec<usize> = (0..100).collect();
        let tree = RegressionTree::fit(&rows, &ys, &idx, 2, 2, 16);
        assert!((tree.predict_row(&[10.0]) - 1.0).abs() < 0.2);
        assert!((tree.predict_row(&[90.0]) - 5.0).abs() < 0.2);
        assert!(!tree.is_empty());
    }

    #[test]
    fn constant_targets_yield_single_leaf() {
        let rows: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let ys = vec![3.0f32; 20];
        let idx: Vec<usize> = (0..20).collect();
        let tree = RegressionTree::fit(&rows, &ys, &idx, 3, 2, 16);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.predict_row(&[7.0]), 3.0);
    }

    #[test]
    fn boosting_reduces_error() {
        // y = 2*x0 + x1 with two features
        let mut rng = SeededRng::new(1);
        let rows: Vec<Vec<f32>> = (0..500)
            .map(|_| vec![rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)])
            .collect();
        let ys: Vec<f32> = rows.iter().map(|r| 2.0 * r[0] + r[1]).collect();
        let mut short = Gbdt::standard();
        short.n_trees = 1;
        short.fit_rows(&rows, &ys);
        let mut long = Gbdt::standard();
        long.n_trees = 40;
        long.fit_rows(&rows, &ys);
        let err = |g: &Gbdt| -> f32 {
            rows.iter()
                .zip(&ys)
                .map(|(r, &y)| (g.predict_row(r) - y).powi(2))
                .sum::<f32>()
                / rows.len() as f32
        };
        assert!(err(&long) < err(&short) / 2.0);
    }

    #[test]
    fn respects_min_leaf() {
        let rows: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32]).collect();
        let ys: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let idx: Vec<usize> = (0..6).collect();
        let tree = RegressionTree::fit(&rows, &ys, &idx, 5, 4, 16);
        // 6 rows with min_leaf 4 cannot split (needs >= 8)
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn predictor_interface_on_periodic_flow() {
        let cfg = TemporalConfig {
            closeness: 2,
            period: 1,
            trend: 1,
            steps_per_day: 4,
            days_per_week: 2,
        };
        let mut flow = FlowSeries::zeros(48, 2, 2);
        for t in 0..48 {
            for r in 0..2 {
                for c in 0..2 {
                    flow.set(t, r, c, 2.0 + ((t % 4) as f32) * 3.0 + r as f32);
                }
            }
        }
        let train: Vec<usize> = (cfg.min_target()..36).collect();
        let mut gbdt = Gbdt::standard();
        gbdt.fit(&flow, &cfg, &train);
        assert!(!gbdt.trees.is_empty());
        let preds = gbdt.predict(&flow, &cfg, &[40, 41]);
        // the flow is a deterministic function of its history -> near-exact
        for (p, &t) in preds.iter().zip(&[40usize, 41]) {
            for (pi, &yi) in p.iter().zip(flow.frame(t)) {
                assert!((pi - yi).abs() < 1.0, "pred {pi} truth {yi}");
            }
        }
    }

    #[test]
    fn row_subsampling_is_deterministic() {
        let cfg = TemporalConfig {
            closeness: 1,
            period: 1,
            trend: 1,
            steps_per_day: 2,
            days_per_week: 2,
        };
        let mut flow = FlowSeries::zeros(40, 4, 4);
        for t in 0..40 {
            for r in 0..4 {
                for c in 0..4 {
                    flow.set(t, r, c, ((t * 7 + r * 3 + c) % 5) as f32);
                }
            }
        }
        let train: Vec<usize> = (cfg.min_target()..30).collect();
        let mut a = Gbdt::standard();
        a.max_rows = 50;
        a.fit(&flow, &cfg, &train);
        let mut b = Gbdt::standard();
        b.max_rows = 50;
        b.fit(&flow, &cfg, &train);
        let pa = a.predict(&flow, &cfg, &[32]);
        let pb = b.predict(&flow, &cfg, &[32]);
        assert_eq!(pa, pb);
    }
}
