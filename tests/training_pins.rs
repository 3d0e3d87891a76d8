//! Bit pins of the deep-model training loops and of the weight streams.
//!
//! Each training case trains one model for 3 epochs on an 8×8 synthetic
//! taxi flow (K = 2, 3 layers, `TemporalConfig::compact()`, chronological
//! split; one One4All-ST case on a 16×16 flow, whose finest rows fill a
//! whole 16-lane strip of the convolution kernels) and pins two numbers:
//! the bits of `TrainStats::final_loss` and an FNV-1a digest over the
//! little-endian bits of its predictions on the first 4 test slots
//! (every layer's for One4All-ST, the atomic ones for the others). Any
//! change to the shuffle, the batch gather, the loss, the gradient clip,
//! the Adam update or the parameter order moves at least one of them, so
//! a refactor of the training stack that keeps these pins keeps every
//! trained weight.
//!
//! A reorder of a network's parameters reaches those pins only through
//! the clip norm's summation order, so the weight-stream cases pin the
//! FNV-1a digest of the bytes that persist the seeded, untrained weights:
//! `deploy::save_model` of One4All-ST with and without hierarchical
//! spatial modeling, and `persist::save_param_values` of one `Sequential`
//! holding every layer type. Any change to the parameter walk moves them.
//!
//! The values hold under every `O4A_ISA` tier and every `O4A_THREADS`
//! count (the kernels' bit-identity contract), and `scripts/check.sh`
//! reruns this file under `O4A_ISA=scalar` and `O4A_THREADS=1`.

#[path = "../crates/models/tests/support/every_layer.rs"]
mod every_layer;

use one4all_st::core::deploy::save_model;
use one4all_st::core::network::NetworkConfig;
use one4all_st::core::one4all::One4AllSt;
use one4all_st::data::features::{chronological_split, Split, TemporalConfig};
use one4all_st::data::flow::FlowSeries;
use one4all_st::data::synthetic::DatasetKind;
use one4all_st::grid::Hierarchy;
use one4all_st::models::graph_models::{GmanLite, GwnLite, StMgcnLite};
use one4all_st::models::mc_stgcn::McStgcnLite;
use one4all_st::models::multiscale::PyramidPredictor;
use one4all_st::models::predictor::{Predictor, TrainConfig, TrainStats};
use one4all_st::models::st_resnet::StResNetLite;
use one4all_st::models::stmeta::StMetaLite;
use one4all_st::models::strn::StrnLite;
use one4all_st::nn::persist::save_param_values;
use one4all_st::nn::Module;
use one4all_st::tensor::SeededRng;

struct Setup {
    hier: Hierarchy,
    cfg: TemporalConfig,
    flow: FlowSeries,
    split: Split,
    train_cfg: TrainConfig,
}

fn setup() -> Setup {
    setup_at(8)
}

/// The shared setup on a `side × side` raster.
fn setup_at(side: usize) -> Setup {
    let hier = Hierarchy::new(side, side, 2, 3).expect("square raster, K = 2, 3 layers");
    let cfg = TemporalConfig::compact();
    let flow = DatasetKind::TaxiNycLike
        .config(side, side, 216, 5)
        .generate();
    let split = chronological_split(&flow, &cfg);
    Setup {
        hier,
        cfg,
        flow,
        split,
        train_cfg: TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        },
    }
}

/// 32-bit FNV-1a over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for b in bytes {
        h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
    }
    h
}

/// 32-bit FNV-1a over the little-endian bytes of every value.
fn digest<'a>(values: impl IntoIterator<Item = &'a f32>) -> u32 {
    fnv1a(values.into_iter().flat_map(|v| v.to_le_bytes()))
}

fn check(name: &str, stats: TrainStats, preds: &[f32], loss_bits: u32, preds_digest: u32) {
    let got = (stats.final_loss.to_bits(), digest(preds));
    println!("{name}: loss {:08x} digest {:08x}", got.0, got.1);
    assert_eq!(
        got,
        (loss_bits, preds_digest),
        "{name}: (final-loss bits, prediction digest) moved"
    );
}

fn one4all(s: &Setup, net_cfg: NetworkConfig, scale_norm: bool) -> (TrainStats, Vec<f32>) {
    let mut model = One4AllSt::new(
        &mut SeededRng::new(1),
        s.hier.clone(),
        &s.cfg,
        net_cfg,
        s.train_cfg,
    );
    model.scale_norm = scale_norm;
    let stats = model.fit(&s.flow, &s.cfg, &s.split.train);
    let pyramid = model.predict_pyramid(&s.flow, &s.cfg, &s.split.test[..4]);
    (stats, pyramid.into_iter().flatten().flatten().collect())
}

/// Fits an atomic-raster model and predicts the first 4 test slots.
fn atomic(s: &Setup, model: &mut dyn Predictor) -> (TrainStats, Vec<f32>) {
    let stats = model.fit(&s.flow, &s.cfg, &s.split.train);
    let preds = model.predict(&s.flow, &s.cfg, &s.split.test[..4]).concat();
    (stats, preds)
}

fn views(s: &Setup) -> [usize; 3] {
    [s.cfg.closeness, s.cfg.period, s.cfg.trend]
}

#[test]
fn one4all_st_standard() {
    let s = setup();
    let (stats, preds) = one4all(&s, NetworkConfig::standard(views(&s)), true);
    check("One4All-ST", stats, &preds, 0x3fd8_5836, 0x8b35_4585);
}

#[test]
fn one4all_st_standard_16x16() {
    let s = setup_at(16);
    let (stats, preds) = one4all(&s, NetworkConfig::standard(views(&s)), true);
    check("One4All-ST 16x16", stats, &preds, 0x3fdd_6dd5, 0xc146_4ccd);
}

#[test]
fn one4all_st_without_scale_normalization() {
    let s = setup();
    let (stats, preds) = one4all(&s, NetworkConfig::standard(views(&s)), false);
    check("w/o SN", stats, &preds, 0x42fb_4af0, 0x0e5e_fef1);
}

#[test]
fn one4all_st_without_hierarchical_spatial_modeling() {
    let s = setup();
    let net_cfg = NetworkConfig {
        hierarchical: false,
        ..NetworkConfig::standard(views(&s))
    };
    let (stats, preds) = one4all(&s, net_cfg, true);
    check("w/o HSM", stats, &preds, 0x3ff2_f5a5, 0xfd23_e8ad);
}

#[test]
fn mc_stgcn() {
    let s = setup();
    let mut model = McStgcnLite::new(
        &mut SeededRng::new(2),
        s.cfg.channels(),
        8,
        8,
        2,
        s.train_cfg,
    );
    let (stats, preds) = atomic(&s, &mut model);
    check("MC-STGCN", stats, &preds, 0x3fe9_35d3, 0xe6fe_1111);
}

#[test]
fn st_resnet() {
    let s = setup();
    let mut model = StResNetLite::standard(&mut SeededRng::new(3), s.cfg.channels(), s.train_cfg);
    let (stats, preds) = atomic(&s, &mut model);
    check("ST-ResNet", stats, &preds, 0x3f06_ee72, 0xfb98_b193);
}

#[test]
fn gwn() {
    let s = setup();
    let mut model = GwnLite::standard(&mut SeededRng::new(4), s.cfg.channels(), 8, 8, s.train_cfg);
    let (stats, preds) = atomic(&s, &mut model);
    check("GWN", stats, &preds, 0x3fa9_181e, 0xf463_7404);
}

#[test]
fn st_mgcn() {
    let s = setup();
    let train_until = *s.split.train.last().expect("non-empty train split");
    let mut model = StMgcnLite::standard(
        &mut SeededRng::new(5),
        s.cfg.channels(),
        &s.flow,
        train_until,
        s.train_cfg,
    );
    let (stats, preds) = atomic(&s, &mut model);
    check("ST-MGCN", stats, &preds, 0x4083_0337, 0x4f69_0bc0);
}

#[test]
fn gman() {
    let s = setup();
    let mut model = GmanLite::standard(&mut SeededRng::new(6), s.cfg.channels(), 8, 8, s.train_cfg);
    let (stats, preds) = atomic(&s, &mut model);
    check("GMAN", stats, &preds, 0x3f8c_f03a, 0x2bb7_b5e5);
}

#[test]
fn strn() {
    let s = setup();
    let mut model = StrnLite::standard(&mut SeededRng::new(7), s.cfg.channels(), s.train_cfg);
    let (stats, preds) = atomic(&s, &mut model);
    check("STRN", stats, &preds, 0x3f3c_7743, 0xb062_c49d);
}

#[test]
fn stmeta() {
    let s = setup();
    let mut model = StMetaLite::standard(&mut SeededRng::new(8), &s.cfg, 8, 8, s.train_cfg);
    let (stats, preds) = atomic(&s, &mut model);
    check("STMeta", stats, &preds, 0x3ef9_0323, 0xd273_a314);
}

fn check_stream(name: &str, bytes: Vec<u8>, want: u32) {
    let got = fnv1a(bytes);
    println!("{name}: weight stream {got:08x}");
    assert_eq!(got, want, "{name}: weight-stream digest moved");
}

#[test]
fn one4all_st_weight_stream() {
    let s = setup();
    for (hierarchical, want) in [(true, 0x7924_d2ea), (false, 0x032d_28a8)] {
        let net_cfg = NetworkConfig {
            hierarchical,
            ..NetworkConfig::standard(views(&s))
        };
        let mut model = One4AllSt::new(
            &mut SeededRng::new(1),
            s.hier.clone(),
            &s.cfg,
            net_cfg,
            s.train_cfg,
        );
        let name = format!("One4All-ST (hierarchical = {hierarchical})");
        check_stream(&name, save_model(&mut model), want);
    }
}

#[test]
fn every_layer_weight_stream() {
    let mut net = every_layer::every_layer(&mut SeededRng::new(9));
    let bytes = save_param_values(&net.params_mut());
    check_stream("every layer", bytes, 0x07ab_495d);
}
