//! Bit pins of the deep-model training loops.
//!
//! Each case trains one model for 3 epochs on an 8×8 synthetic taxi
//! flow (K = 2, 3 layers, `TemporalConfig::compact()`, chronological
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
//! The values hold under every `O4A_ISA` tier and every `O4A_THREADS`
//! count (the kernels' bit-identity contract), and `scripts/check.sh`
//! reruns this file under `O4A_ISA=scalar` and `O4A_THREADS=1`.

use one4all_st::core::network::NetworkConfig;
use one4all_st::core::one4all::One4AllSt;
use one4all_st::data::features::{chronological_split, Split, TemporalConfig};
use one4all_st::data::flow::FlowSeries;
use one4all_st::data::synthetic::DatasetKind;
use one4all_st::grid::Hierarchy;
use one4all_st::models::mc_stgcn::McStgcnLite;
use one4all_st::models::multiscale::PyramidPredictor;
use one4all_st::models::predictor::{Predictor, TrainConfig, TrainStats};
use one4all_st::models::st_resnet::StResNetLite;
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

/// 32-bit FNV-1a over the little-endian bytes of every value.
fn digest<'a>(values: impl IntoIterator<Item = &'a f32>) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
        }
    }
    h
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
    let stats = model.fit(&s.flow, &s.cfg, &s.split.train);
    let preds = model.predict(&s.flow, &s.cfg, &s.split.test[..4]).concat();
    check("MC-STGCN", stats, &preds, 0x3fe9_35d3, 0xe6fe_1111);
}

#[test]
fn st_resnet() {
    let s = setup();
    let mut model = StResNetLite::standard(&mut SeededRng::new(3), s.cfg.channels(), s.train_cfg);
    let stats = model.fit(&s.flow, &s.cfg, &s.split.train);
    let preds = model.predict(&s.flow, &s.cfg, &s.split.test[..4]).concat();
    check("ST-ResNet", stats, &preds, 0x3f06_ee72, 0xfb98_b193);
}
