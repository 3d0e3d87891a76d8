//! Graph-based baselines: GWN-lite, ST-MGCN-lite and GMAN-lite, plus the
//! grid↔node adapters they share.
//!
//! All three view the raster as a graph with one node per atomic cell:
//!
//! * **GWN-lite** (GraphWaveNet) — stacked graph convolutions over a
//!   *learned* adaptive adjacency,
//! * **ST-MGCN-lite** — multi-graph convolution over two predefined graphs
//!   (spatial rook adjacency and historical-flow correlation),
//! * **GMAN-lite** — spatial self-attention over nodes.

use crate::predictor::{DeepGridModel, TrainConfig};
use o4a_data::flow::FlowSeries;
use o4a_nn::graph::{grid_adjacency, row_normalize, AdaptiveGraphConv, GraphConv, NodeAttention};
use o4a_nn::layers::{Linear, Relu};
use o4a_nn::module::Module;
use o4a_nn::param::Param;
use o4a_nn::Sequential;
use o4a_tensor::{SeededRng, Tensor};

/// Transposes each of the `[a, b]` matrices that tile `t`'s buffer and
/// shapes the result `shape`.
fn transpose_each(t: &Tensor, a: usize, b: usize, shape: &[usize]) -> Tensor {
    let mut out = vec![0.0f32; t.len()];
    for (src, dst) in t
        .data()
        .chunks_exact(a * b)
        .zip(out.chunks_exact_mut(a * b))
    {
        for i in 0..a {
            for j in 0..b {
                dst[j * a + i] = src[i * b + j];
            }
        }
    }
    Tensor::from_vec(out, shape).expect("transposed shape")
}

/// Reinterprets `[n, c, h, w]` as `[n, h*w, c]` (nodes x features).
pub struct GridToNodes {
    shape: Option<Vec<usize>>,
}

impl GridToNodes {
    /// Creates the adapter.
    pub fn new() -> Self {
        GridToNodes { shape: None }
    }
}

impl Default for GridToNodes {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for GridToNodes {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 4, "GridToNodes expects NCHW");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        self.shape = Some(input.shape().to_vec());
        transpose_each(input, c, h * w, &[n, h * w, c])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self
            .shape
            .take()
            .expect("GridToNodes backward before forward");
        transpose_each(grad_output, shape[2] * shape[3], shape[1], &shape)
    }

    fn visit_params<'a>(&'a mut self, _: &mut dyn FnMut(&'a mut Param)) {}
}

/// Puts node features back onto the raster: `[n, h*w, f] -> [n, f, h, w]`,
/// the inverse of [`GridToNodes`].
pub struct NodesToGrid {
    h: usize,
    w: usize,
}

impl NodesToGrid {
    /// Creates the adapter for an `h x w` raster.
    pub fn new(h: usize, w: usize) -> Self {
        NodesToGrid { h, w }
    }
}

impl Module for NodesToGrid {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 3, "NodesToGrid expects [n, v, f]");
        let (n, v, f) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        assert_eq!(v, self.h * self.w, "node count mismatch");
        transpose_each(input, v, f, &[n, f, self.h, self.w])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (n, f) = (grad_output.shape()[0], grad_output.shape()[1]);
        let v = self.h * self.w;
        transpose_each(grad_output, f, v, &[n, v, f])
    }

    fn visit_params<'a>(&'a mut self, _: &mut dyn FnMut(&'a mut Param)) {}
}

/// Applies a shared [`Linear`] to every node: `[n, v, f_in] -> [n, v, f_out]`.
pub struct NodeLinear {
    lin: Linear,
    nv: Option<(usize, usize)>,
}

impl NodeLinear {
    /// Creates the per-node linear map.
    pub fn new(rng: &mut SeededRng, f_in: usize, f_out: usize) -> Self {
        NodeLinear {
            lin: Linear::new(rng, f_in, f_out),
            nv: None,
        }
    }
}

impl Module for NodeLinear {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 3, "NodeLinear expects [n, v, f]");
        let (n, v, f) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        self.nv = Some((n, v));
        let flat = input.reshape(&[n * v, f]).expect("flatten nodes");
        let out = self.lin.forward(&flat);
        let f_out = out.shape()[1];
        out.reshape(&[n, v, f_out]).expect("unflatten nodes")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (n, v) = self.nv.take().expect("NodeLinear backward before forward");
        let f_out = grad_output.shape()[2];
        let flat = grad_output.reshape(&[n * v, f_out]).expect("flatten grads");
        let gi = self.lin.backward(&flat);
        let f_in = gi.shape()[1];
        gi.reshape(&[n, v, f_in]).expect("unflatten grads")
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        self.lin.visit_params(f);
    }
}

/// Sum of two graph convolutions over different graphs (the multi-graph
/// fusion of ST-MGCN).
pub struct MultiGraphConv {
    g1: GraphConv,
    g2: GraphConv,
}

impl MultiGraphConv {
    /// Creates the fused convolution from two adjacency matrices.
    pub fn new(rng: &mut SeededRng, adj1: Tensor, adj2: Tensor, f_in: usize, f_out: usize) -> Self {
        MultiGraphConv {
            g1: GraphConv::new(rng, adj1, f_in, f_out),
            g2: GraphConv::new(rng, adj2, f_in, f_out),
        }
    }
}

impl Module for MultiGraphConv {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let a = self.g1.forward(input);
        let b = self.g2.forward(input);
        a.add(&b).expect("multi-graph outputs align")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let ga = self.g1.backward(grad_output);
        let gb = self.g2.backward(grad_output);
        ga.add(&gb).expect("multi-graph grads align")
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        self.g1.visit_params(f);
        self.g2.visit_params(f);
    }
}

/// Builds a k-nearest-neighbour correlation adjacency from historical
/// flows: node `i` links to the `k` nodes whose training series correlate
/// with it most strongly (row-normalized, with self-loops).
pub fn correlation_adjacency(flow: &FlowSeries, train_until: usize, k: usize) -> Tensor {
    let (h, w) = (flow.h(), flow.w());
    let v = h * w;
    let t = train_until.min(flow.len_t()).max(2);
    // per-node series stats
    let mut series: Vec<Vec<f32>> = Vec::with_capacity(v);
    for r in 0..h {
        for c in 0..w {
            series.push((0..t).map(|s| flow.get(s, r, c)).collect());
        }
    }
    let stats: Vec<(f32, f32)> = series
        .iter()
        .map(|s| {
            let mean = s.iter().sum::<f32>() / t as f32;
            let var = s.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>();
            (mean, var.sqrt().max(1e-6))
        })
        .collect();
    let mut adj = Tensor::zeros(&[v, v]);
    for i in 0..v {
        let mut corr: Vec<(usize, f32)> = (0..v)
            .filter(|&j| j != i)
            .map(|j| {
                let c: f32 = series[i]
                    .iter()
                    .zip(&series[j])
                    .map(|(&a, &b)| (a - stats[i].0) * (b - stats[j].0))
                    .sum::<f32>()
                    / (stats[i].1 * stats[j].1);
                (j, c)
            })
            .collect();
        corr.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite correlations"));
        adj.data_mut()[i * v + i] = 1.0;
        for &(j, c) in corr.iter().take(k) {
            if c > 0.0 {
                adj.data_mut()[i * v + j] = c;
            }
        }
    }
    row_normalize(&adj)
}

/// Sum of a fixed-adjacency and an adaptive-adjacency graph convolution —
/// GraphWaveNet's combination of predefined transition matrices with its
/// self-learned adjacency.
pub struct HybridGraphConv {
    fixed: GraphConv,
    adaptive: AdaptiveGraphConv,
}

impl HybridGraphConv {
    /// Creates the hybrid convolution over `nodes` vertices.
    pub fn new(
        rng: &mut SeededRng,
        adj: Tensor,
        nodes: usize,
        embed: usize,
        f_in: usize,
        f_out: usize,
    ) -> Self {
        HybridGraphConv {
            fixed: GraphConv::new(rng, adj, f_in, f_out),
            adaptive: AdaptiveGraphConv::new(rng, nodes, embed, f_in, f_out),
        }
    }
}

impl Module for HybridGraphConv {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let a = self.fixed.forward(input);
        let b = self.adaptive.forward(input);
        a.add(&b).expect("hybrid outputs align")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let ga = self.fixed.backward(grad_output);
        let gb = self.adaptive.backward(grad_output);
        ga.add(&gb).expect("hybrid grads align")
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        self.fixed.visit_params(f);
        self.adaptive.visit_params(f);
    }
}

/// GraphWaveNet-lite: predefined + adaptive adjacency graph convolutions.
pub struct GwnLite;

impl GwnLite {
    /// Builds the predictor for an `h x w` raster.
    pub fn standard(
        rng: &mut SeededRng,
        channels: usize,
        h: usize,
        w: usize,
        train_cfg: TrainConfig,
    ) -> DeepGridModel {
        let v = h * w;
        let d = 16;
        let adj = grid_adjacency(h, w);
        let net = Sequential::new()
            .push(GridToNodes::new())
            .push(HybridGraphConv::new(rng, adj.clone(), v, 8, channels, d))
            .push(Relu::new())
            .push(HybridGraphConv::new(rng, adj, v, 8, d, d))
            .push(Relu::new())
            .push(NodeLinear::new(rng, d, 1))
            .push(NodesToGrid::new(h, w));
        DeepGridModel::new("GWN", Box::new(net), train_cfg)
    }
}

/// ST-MGCN-lite: multi-graph convolution over spatial + correlation graphs.
pub struct StMgcnLite;

impl StMgcnLite {
    /// Builds the predictor. `flow`/`train_until` feed the correlation
    /// graph (built from training history only, as in the original).
    pub fn standard(
        rng: &mut SeededRng,
        channels: usize,
        flow: &FlowSeries,
        train_until: usize,
        train_cfg: TrainConfig,
    ) -> DeepGridModel {
        let (h, w) = (flow.h(), flow.w());
        let d = 16;
        let spatial = grid_adjacency(h, w);
        let corr = correlation_adjacency(flow, train_until, 8);
        let net = Sequential::new()
            .push(GridToNodes::new())
            .push(MultiGraphConv::new(
                rng,
                spatial.clone(),
                corr.clone(),
                channels,
                d,
            ))
            .push(Relu::new())
            .push(MultiGraphConv::new(rng, spatial, corr, d, d))
            .push(Relu::new())
            .push(NodeLinear::new(rng, d, 1))
            .push(NodesToGrid::new(h, w));
        DeepGridModel::new("ST-MGCN", Box::new(net), train_cfg)
    }
}

/// GMAN-lite: spatial self-attention over nodes.
pub struct GmanLite;

impl GmanLite {
    /// Builds the predictor for an `h x w` raster.
    pub fn standard(
        rng: &mut SeededRng,
        channels: usize,
        h: usize,
        w: usize,
        train_cfg: TrainConfig,
    ) -> DeepGridModel {
        let d = 12;
        let net = Sequential::new()
            .push(GridToNodes::new())
            .push(NodeLinear::new(rng, channels, d))
            .push(Relu::new())
            .push(NodeAttention::new(rng, d, d))
            .push(Relu::new())
            .push(NodeLinear::new(rng, d, 1))
            .push(NodesToGrid::new(h, w));
        DeepGridModel::new("GMAN", Box::new(net), train_cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{evaluate_atomic, Predictor};
    use o4a_data::features::TemporalConfig;
    use o4a_nn::gradcheck::check_module_gradients;

    #[test]
    fn grid_to_nodes_roundtrip() {
        let mut rng = SeededRng::new(1);
        let x = rng.uniform_tensor(&[2, 3, 2, 2], -1.0, 1.0);
        let mut to_nodes = GridToNodes::new();
        let nodes = to_nodes.forward(&x);
        assert_eq!(nodes.shape(), &[2, 4, 3]);
        // node 0 of batch 0 must carry the 3 channels at cell (0,0)
        assert_eq!(
            nodes.get(&[0, 0, 0]).unwrap(),
            x.get(&[0, 0, 0, 0]).unwrap()
        );
        assert_eq!(
            nodes.get(&[0, 0, 2]).unwrap(),
            x.get(&[0, 2, 0, 0]).unwrap()
        );
        let back = to_nodes.backward(&nodes);
        assert!(back.allclose(&x, 1e-6), "adapter must be an isometry");
        let grid = NodesToGrid::new(2, 2).forward(&nodes);
        assert!(grid.allclose(&x, 1e-6), "NodesToGrid inverts GridToNodes");
    }

    #[test]
    fn gradcheck_adapters() {
        let mut rng = SeededRng::new(2);
        let x = rng.uniform_tensor(&[2, 3, 2, 2], -1.0, 1.0);
        check_module_gradients(GridToNodes::new(), &x, 1e-3, 2e-2);
        let nodes = rng.uniform_tensor(&[2, 4, 3], -1.0, 1.0);
        check_module_gradients(NodesToGrid::new(2, 2), &nodes, 1e-3, 2e-2);
        check_module_gradients(NodeLinear::new(&mut rng, 3, 5), &nodes, 1e-3, 2e-2);
    }

    #[test]
    fn gradcheck_multi_graph() {
        let mut rng = SeededRng::new(3);
        let adj = grid_adjacency(2, 2);
        let mg = MultiGraphConv::new(&mut rng, adj.clone(), adj, 3, 2);
        let x = rng.uniform_tensor(&[2, 4, 3], -1.0, 1.0);
        check_module_gradients(mg, &x, 1e-3, 3e-2);
    }

    #[test]
    fn correlation_adjacency_prefers_correlated_nodes() {
        // two cells follow the same series, the rest are noise
        let mut rng = SeededRng::new(4);
        let mut flow = FlowSeries::zeros(100, 2, 2);
        for t in 0..100 {
            let v = ((t % 10) as f32).sin() * 5.0;
            flow.set(t, 0, 0, v);
            flow.set(t, 1, 1, v);
            flow.set(t, 0, 1, rng.normal());
            flow.set(t, 1, 0, rng.normal());
        }
        let adj = correlation_adjacency(&flow, 100, 1);
        // node 0 (cell 0,0) should link to node 3 (cell 1,1)
        assert!(adj.get(&[0, 3]).unwrap() > 0.0);
        assert_eq!(adj.get(&[0, 1]).unwrap(), 0.0);
    }

    fn periodic_flow() -> (FlowSeries, TemporalConfig) {
        let cfg = TemporalConfig {
            closeness: 2,
            period: 1,
            trend: 1,
            steps_per_day: 4,
            days_per_week: 2,
        };
        let mut flow = FlowSeries::zeros(48, 4, 4);
        for t in 0..48 {
            for r in 0..4 {
                for c in 0..4 {
                    flow.set(t, r, c, 3.0 + 2.0 * ((t + c) % 4) as f32);
                }
            }
        }
        (flow, cfg)
    }

    #[test]
    fn gradcheck_hybrid_graph_conv() {
        let mut rng = SeededRng::new(8);
        let adj = grid_adjacency(2, 2);
        let hybrid = HybridGraphConv::new(&mut rng, adj, 4, 3, 3, 2);
        let x = rng.uniform_tensor(&[2, 4, 3], -1.0, 1.0);
        check_module_gradients(hybrid, &x, 1e-3, 3e-2);
    }

    #[test]
    fn gwn_learns() {
        let (flow, cfg) = periodic_flow();
        let mut rng = SeededRng::new(5);
        let mut model = GwnLite::standard(
            &mut rng,
            cfg.channels(),
            4,
            4,
            TrainConfig {
                epochs: 25,
                ..TrainConfig::default()
            },
        );
        let train: Vec<usize> = (cfg.min_target()..40).collect();
        model.fit(&flow, &cfg, &train);
        let (rmse, _) = evaluate_atomic(&mut model, &flow, &cfg, &[42, 43]);
        assert!(rmse < 2.6, "GWN-lite rmse {rmse}");
    }

    #[test]
    fn stmgcn_learns() {
        let (flow, cfg) = periodic_flow();
        let mut rng = SeededRng::new(6);
        let mut model = StMgcnLite::standard(
            &mut rng,
            cfg.channels(),
            &flow,
            40,
            TrainConfig {
                epochs: 25,
                ..TrainConfig::default()
            },
        );
        let train: Vec<usize> = (cfg.min_target()..40).collect();
        model.fit(&flow, &cfg, &train);
        let (rmse, _) = evaluate_atomic(&mut model, &flow, &cfg, &[42, 43]);
        assert!(rmse < 2.0, "ST-MGCN-lite rmse {rmse}");
    }

    #[test]
    fn gman_learns() {
        let (flow, cfg) = periodic_flow();
        let mut rng = SeededRng::new(7);
        let mut model = GmanLite::standard(
            &mut rng,
            cfg.channels(),
            4,
            4,
            TrainConfig {
                epochs: 25,
                ..TrainConfig::default()
            },
        );
        let train: Vec<usize> = (cfg.min_target()..40).collect();
        model.fit(&flow, &cfg, &train);
        let (rmse, _) = evaluate_atomic(&mut model, &flow, &cfg, &[42, 43]);
        assert!(rmse < 2.0, "GMAN-lite rmse {rmse}");
    }
}
