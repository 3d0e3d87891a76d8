#![warn(missing_docs)]

//! # o4a-models
//!
//! Baseline spatio-temporal predictors (Sec. V-A4 of the paper), all
//! reimplemented from scratch on the `o4a-nn` substrate:
//!
//! | Paper baseline | This crate | Mechanism kept |
//! |---|---|---|
//! | HM | [`hm::HistoryMean`] | mean of selected historical slots |
//! | XGBoost | [`gbdt::Gbdt`] | gradient-boosted regression trees |
//! | ST-ResNet | [`st_resnet::StResNetLite`] | residual conv stacks |
//! | GWN | [`graph_models::GwnLite`] | adaptive (learned) adjacency |
//! | ST-MGCN | [`graph_models::StMgcnLite`] | multi-graph convolution |
//! | GMAN | [`graph_models::GmanLite`] | spatial self-attention |
//! | STRN | [`strn::StrnLite`] | coarse-assisted fine prediction |
//! | MC-STGCN | [`mc_stgcn::McStgcnLite`] | bi-scale multi-task prediction |
//! | STMeta | [`stmeta::StMetaLite`] | multi-temporal-view fusion |
//!
//! The *enhanced* multi-scale baselines of the paper (M-ST-ResNet, M-STRN)
//! are built by [`multiscale::MultiScaleEnsemble`], which trains one model
//! per hierarchy layer.
//!
//! All models implement [`predictor::Predictor`] (single-scale, atomic
//! raster output); multi-scale models additionally expose per-layer
//! predictions for the optimal-combination machinery in `o4a-core`.

pub mod gbdt;
pub mod graph_models;
pub mod hm;
pub mod mc_stgcn;
pub mod multiscale;
pub mod predictor;
pub mod st_resnet;
pub mod stmeta;
pub mod strn;

pub use predictor::{DeepGridModel, Predictor, TrainConfig, TrainStats};
