#![warn(missing_docs)]

//! # o4a-nn
//!
//! A layer-wise neural-network framework with exact, hand-derived backward
//! passes — the deep-learning substrate for the One4All-ST reproduction.
//!
//! The paper's models were built on TensorFlow; no comparable Rust DL stack
//! is available offline, so this crate implements the required subset from
//! scratch:
//!
//! * a [`Module`] trait with `forward`/`backward` and parameter access,
//! * primitive layers: [`layers::Conv2d`], [`layers::Linear`], activations,
//!   [`layers::GlobalAvgPool`], [`layers::Upsample`], [`layers::Flatten`],
//! * composite spatial-modeling blocks used by the paper
//!   ([`blocks::ConvBlock`], [`blocks::ResBlock`], [`blocks::SeBlock`] —
//!   Fig. 7 of the paper),
//! * graph layers for the graph-based baselines ([`graph::GraphConv`],
//!   [`graph::AdaptiveGraphConv`], [`graph::NodeAttention`]),
//! * losses ([`loss::mse_loss`], [`loss::mae_loss`]), the
//!   [`optim::Adam`] optimizer and gradient-norm clipping,
//! * weight persistence for trained models ([`persist`]),
//! * finite-difference gradient checking ([`gradcheck`]) used throughout the
//!   test suite to certify every backward pass.
//!
//! Modules cache whatever their backward pass needs during `forward`;
//! `backward` must be called with the gradient of the loss with respect to
//! the module output and returns the gradient with respect to the input,
//! accumulating parameter gradients along the way.

pub mod blocks;
pub mod gradcheck;
pub mod graph;
pub mod layers;
pub mod loss;
pub mod module;
pub mod optim;
pub mod param;
pub mod persist;

pub use module::{Module, Sequential};
pub use param::Param;
