//! One `Sequential` holding every layer type of `o4a-nn` and `o4a-models`,
//! shared by `alloc_budget.rs` and the workspace's `tests/training_pins.rs`.
//!
//! Only its parameter walk is read, so the layers need not chain: it is
//! never run forward.

use o4a_models::graph_models::{
    GridToNodes, HybridGraphConv, MultiGraphConv, NodeLinear, NodesToGrid,
};
use o4a_models::stmeta::StMetaNet;
use o4a_models::strn::StrnNet;
use o4a_nn::blocks::{ConvBlock, ResBlock, SeBlock};
use o4a_nn::graph::{grid_adjacency, AdaptiveGraphConv, GraphConv, NodeAttention};
use o4a_nn::layers::{Conv2d, GlobalAvgPool, Linear, Relu, Sigmoid, Upsample};
use o4a_nn::Sequential;
use o4a_tensor::SeededRng;

/// Every layer type once, in a fixed order, drawing its weights from `rng`.
pub fn every_layer(rng: &mut SeededRng) -> Sequential {
    let adj = grid_adjacency(2, 2);
    Sequential::new()
        .push(Conv2d::same3x3(rng, 2, 3))
        .push(Linear::new(rng, 3, 2))
        .push(Relu::new())
        .push(Sigmoid::new())
        .push(GlobalAvgPool::new())
        .push(Upsample::new(2))
        .push(ConvBlock::new(rng, 2))
        .push(ResBlock::new(rng, 2))
        .push(SeBlock::new(rng, 4))
        .push(GraphConv::new(rng, adj.clone(), 2, 3))
        .push(AdaptiveGraphConv::new(rng, 4, 2, 3, 2))
        .push(NodeAttention::new(rng, 2, 3))
        .push(GridToNodes::new())
        .push(NodeLinear::new(rng, 3, 2))
        .push(NodesToGrid::new(2, 2))
        .push(MultiGraphConv::new(rng, adj.clone(), adj.clone(), 2, 3))
        .push(HybridGraphConv::new(rng, adj, 4, 2, 3, 2))
        .push(StrnNet::new(rng, 2, 4))
        .push(StMetaNet::new(rng, [1, 1, 1], 2, 2, 4))
        .push(Sequential::new().push(Conv2d::pointwise(rng, 2, 1)))
}
