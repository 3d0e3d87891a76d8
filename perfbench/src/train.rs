//! The `train` workload: `One4AllSt::standard` on the 32×32 synthetic
//! taxi flow, trained one epoch at a time from a fresh, identically
//! seeded model. The untraced run goes through `PyramidPredictor::fit`;
//! the traced run repeats `fit`'s step loop call for call with a timer
//! around each public call, and must end at the bit-identical loss.

use crate::host::{self, ratio, Group, Sched};
use crate::setup::{self, Phases};
use crate::{Args, Report};
use o4a_core::one4all::One4AllSt;
use o4a_data::features::{SampleSet, TemporalConfig};
use o4a_data::flow::FlowSeries;
use o4a_data::norm::Normalizer;
use o4a_data::synthetic::DatasetKind;
use o4a_grid::Hierarchy;
use o4a_models::multiscale::PyramidPredictor;
use o4a_models::predictor::TrainConfig;
use o4a_nn::loss::mse_loss;
use o4a_nn::optim::{clip_grad_norm, Adam};
use o4a_tensor::{SeededRng, Tensor};
use std::time::Instant;

/// Training target slots per epoch.
const SLOTS: usize = 240;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Data {
    hier: Hierarchy,
    cfg: TemporalConfig,
    flow: FlowSeries,
    targets: Vec<usize>,
    train_cfg: TrainConfig,
    seed: u64,
}

impl Data {
    /// A fresh model with the run's seed: every epoch starts from the
    /// same weights, so every epoch ends at the same loss.
    fn model(&self) -> One4AllSt {
        One4AllSt::standard(
            &mut SeededRng::new(self.seed),
            self.hier.clone(),
            &self.cfg,
            self.train_cfg,
        )
    }

    fn steps(&self) -> usize {
        SLOTS.div_ceil(self.train_cfg.batch)
    }
}

/// Epochs run through `fit`, one fresh model each.
#[derive(Default)]
struct Fits {
    sec_per_epoch: Vec<f64>,
    final_loss: Vec<f32>,
    cpu_ns: f64,
}

fn fits(d: &Data, secs: f64) -> Fits {
    let mut out = Fits::default();
    let t0 = Instant::now();
    while out.sec_per_epoch.len() < 3 || t0.elapsed().as_secs_f64() < secs {
        let mut model = d.model();
        let before = Sched::now();
        let stats = model.fit(&d.flow, &d.cfg, &d.targets);
        out.cpu_ns += Sched::now().since(&before, host::ALL).0 as f64;
        out.sec_per_epoch.push(stats.sec_per_epoch);
        out.final_loss.push(stats.final_loss);
    }
    out
}

/// Per-step time in each traced call, summed over steps.
#[derive(Default)]
struct StepTimes {
    forward: f64,
    loss: f64,
    backward: f64,
    optim: f64,
    steps: usize,
    nonfinite: usize,
}

/// One layer's targets summed to its resolution (as `fit` does).
fn aggregate_targets(hier: &Hierarchy, targets: &Tensor, layer: usize) -> Tensor {
    let (n, h, w) = (targets.shape()[0], targets.shape()[2], targets.shape()[3]);
    let s = hier.scale(layer);
    let (lh, lw) = hier.layer_dims(layer);
    let mut out = vec![0.0f32; n * lh * lw];
    for b in 0..n {
        for r in 0..h {
            for c in 0..w {
                out[(b * lh + r / s) * lw + c / s] += targets.data()[(b * h + r) * w + c];
            }
        }
    }
    Tensor::from_vec(out, &[n, 1, lh, lw]).expect("aggregated target shape")
}

/// One epoch of `fit`'s loop on a fresh model, timing `forward_multi`,
/// `mse_loss`, `backward_multi` and `clip_grad_norm` + `Adam::step`.
/// Returns the epoch's mean loss and wall seconds.
fn traced_epoch(d: &Data, t: &mut StepTimes) -> (f32, f64) {
    let mut model = d.model();
    let set = SampleSet::extract_at(&d.flow, &d.cfg, &d.targets);
    let n_layers = d.hier.num_layers();
    let raw: Vec<Tensor> = (0..n_layers)
        .map(|l| aggregate_targets(&d.hier, &set.targets, l))
        .collect();
    let norms: Vec<Normalizer> = raw.iter().map(|t| Normalizer::fit(t.data())).collect();
    let inputs = norms[0].normalize(&set.inputs);
    let targets: Vec<Tensor> = raw
        .iter()
        .zip(&norms)
        .map(|(t, n)| n.normalize(t))
        .collect();
    let mut opt = Adam::new(d.train_cfg.lr);
    let mut rng = SeededRng::new(d.train_cfg.seed);
    let n = set.len();
    let batch = d.train_cfg.batch.min(n).max(1);
    let in_stride: usize = inputs.shape()[1..].iter().product();
    let mut order: Vec<usize> = (0..n).collect();
    let net = model.net_mut();
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    for i in (1..n).rev() {
        order.swap(i, rng.index(i + 1));
    }
    let mut total = 0.0f32;
    let mut batches = 0usize;
    let mut bi = 0usize;
    while bi < n {
        let idx = &order[bi..(bi + batch).min(n)];
        let bn = idx.len();
        let mut xin = Vec::with_capacity(bn * in_stride);
        for &s in idx {
            xin.extend_from_slice(&inputs.data()[s * in_stride..(s + 1) * in_stride]);
        }
        let mut in_shape = inputs.shape().to_vec();
        in_shape[0] = bn;
        let x = Tensor::from_vec(xin, &in_shape).expect("batch input shape");

        let t0 = Instant::now();
        let preds = net.forward_multi(&x);
        t.forward += ms(t0);
        let mut grads = Vec::with_capacity(n_layers);
        let mut loss_sum = 0.0f32;
        for (l, pred) in preds.iter().enumerate() {
            let stride: usize = targets[l].shape()[1..].iter().product();
            let mut yb = Vec::with_capacity(bn * stride);
            for &s in idx {
                yb.extend_from_slice(&targets[l].data()[s * stride..(s + 1) * stride]);
            }
            let mut shape = targets[l].shape().to_vec();
            shape[0] = bn;
            let y = Tensor::from_vec(yb, &shape).expect("batch target shape");
            let t0 = Instant::now();
            let (loss, grad) = mse_loss(pred, &y);
            t.loss += ms(t0);
            loss_sum += loss;
            grads.push(grad);
        }
        let t0 = Instant::now();
        for p in net.params_mut() {
            p.zero_grad();
        }
        net.backward_multi(&grads);
        t.backward += ms(t0);
        let t0 = Instant::now();
        clip_grad_norm(&mut net.params_mut(), d.train_cfg.clip);
        opt.step(&mut net.params_mut());
        t.optim += ms(t0);
        t.steps += 1;
        t.nonfinite += usize::from(!loss_sum.is_finite());
        total += loss_sum;
        batches += 1;
        bi += batch;
    }
    (total / batches.max(1) as f32, start.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let cfg = TemporalConfig::compact();
    let train_cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::default()
    };
    let mut setup_s = Vec::new();
    let mut phases = Vec::new();
    let mut data = None;
    for _ in 0..SETUPS {
        let mut ph = Phases::default();
        let t0 = Instant::now();
        let hier = setup::hierarchy(32);
        let first = cfg.min_target();
        let flow = setup::timed(&mut ph.flow_s, || {
            DatasetKind::TaxiNycLike
                .config(32, 32, first + SLOTS, args.seed)
                .generate()
        });
        let d = Data {
            hier,
            cfg,
            flow,
            targets: (first..first + SLOTS).collect(),
            train_cfg,
            seed: args.seed,
        };
        let model = setup::timed(&mut ph.model_s, || d.model());
        setup_s.push(t0.elapsed().as_secs_f64());
        phases.push(ph);
        data = Some((d, model));
    }
    let (d, mut model) = data.expect("at least one set-up");
    report.set("setup_s", host::median(&setup_s));
    println!(
        "setup_s runs: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "train: One4AllSt::standard, 32x32, {} layers, {} slots, batch {}, {} steps/epoch",
        d.hier.num_layers(),
        SLOTS,
        d.train_cfg.batch,
        d.steps()
    );
    // warm-up epoch: fills the buffer pool and starts the compute pool
    let warm_loss = model.fit(&d.flow, &d.cfg, &d.targets).final_loss;

    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = fits(&d, secs);
    let epoch_s = host::median(&plain.sec_per_epoch);
    let mut failed = plain.final_loss.len() * d.steps()
        - plain
            .final_loss
            .iter()
            .filter(|l| l.is_finite() && l.to_bits() == warm_loss.to_bits())
            .count()
            * d.steps();
    let mut attempted = (plain.final_loss.len() + 1) * d.steps();
    let lat = host::Samples::new(
        plain
            .sec_per_epoch
            .iter()
            .map(|s| (s * 1e9) as u64)
            .collect(),
    );
    println!(
        "train_epoch_s {:.4} (median of {} epochs, TrainStats::sec_per_epoch); final loss {} ({:08x})",
        epoch_s,
        plain.sec_per_epoch.len(),
        warm_loss,
        warm_loss.to_bits()
    );
    println!(
        "epoch_s p50 {:.4} p90 {:.4}; training samples/s {:.1}; failed_share {:.6}",
        lat.quantile(0.5) as f64 / 1e9,
        lat.quantile(0.9) as f64 / 1e9,
        SLOTS as f64 / epoch_s,
        ratio(failed as f64, attempted as f64)
    );

    if !args.trace {
        report.set(
            "cpu_us_per_op",
            plain.cpu_ns / 1e3 / (plain.sec_per_epoch.len() * SLOTS) as f64,
        );
    } else {
        let mut t = StepTimes::default();
        let mut walls = Vec::new();
        let pool0 = host::pool_counters();
        let sched0 = Sched::now();
        let t0 = Instant::now();
        while walls.len() < 3 || t0.elapsed().as_secs_f64() < secs {
            let (loss, wall) = traced_epoch(&d, &mut t);
            walls.push(wall);
            if loss.to_bits() != warm_loss.to_bits() {
                println!(
                    "FAILED: traced epoch loss {loss} ({:08x}) differs from fit's",
                    loss.to_bits()
                );
                failed += d.steps();
            }
        }
        let wall = t0.elapsed().as_secs_f64() * 1e9;
        let sched1 = Sched::now();
        let pool1 = host::pool_counters();
        failed += t.nonfinite;
        attempted += t.steps;
        let per_step = |ms: f64| ratio(ms, t.steps as f64);
        report.set("train.forward_ms", per_step(t.forward));
        report.set("train.loss_ms", per_step(t.loss));
        report.set("train.backward_ms", per_step(t.backward));
        report.set("train.optim_ms", per_step(t.optim));
        let (worker_cpu, _) = sched1.since(&sched0, &[Group::Worker]);
        let (_, all_wait) = sched1.since(&sched0, host::ALL);
        report.set("train.worker_cpu_share", ratio(worker_cpu as f64, wall));
        let (hits, misses) = ((pool1.0 - pool0.0) as f64, (pool1.1 - pool0.1) as f64);
        report.set("tensor.pool_hit_ratio", ratio(hits, hits + misses));
        report.set(
            "host.runq_wait_share",
            ratio(all_wait as f64, wall * host::nproc() as f64),
        );
        let traced_s = host::median(&walls);
        report.set("bench.trace_overhead", ratio(traced_s, epoch_s) - 1.0);
        println!(
            "traced: {} epochs, {:.4} s/epoch median; per step forward {:.3} ms, loss {:.3} ms, \
             backward {:.3} ms, optim {:.3} ms; unattributed {:.3} ms",
            walls.len(),
            traced_s,
            per_step(t.forward),
            per_step(t.loss),
            per_step(t.backward),
            per_step(t.optim),
            per_step(walls.iter().sum::<f64>() * 1e3 - t.forward - t.loss - t.backward - t.optim),
        );
        Phases::median(&phases).report(&mut report);
        report.absent(&[
            "serve.",
            "wire.",
            "router.",
            "engine.",
            "ensemble.",
            "decomp_cache.",
            "plan_cache.",
            "grid.",
            "compiled.",
            "store.",
            "host.client_",
        ]);
    }
    report.attempted = attempted as u64;
    report.failed = failed as u64;
    report.correct = failed == 0;
    report
}
