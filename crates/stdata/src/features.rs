//! Temporal feature extraction (Eq. 6) and chronological splits.
//!
//! Following ST-ResNet and the paper, each training sample gathers three
//! groups of historical rasters relative to the target slot `t`:
//!
//! * **closeness** — the `l_c` most recent slots `t-l_c .. t-1`,
//! * **period** — `l_d` daily-spaced slots `t-i*d` (d = slots per day),
//! * **trend** — `l_w` weekly-spaced slots `t-i*w` (w = slots per week).
//!
//! The paper uses `l_c = 6`, `l_d = 7`, `l_w = 4` (17 observations); this
//! module keeps those as the default but allows smaller settings so tests
//! and laptop-scale experiments avoid a four-week warm-up.

use crate::flow::FlowSeries;
use o4a_tensor::Tensor;

/// Configuration of the closeness/period/trend inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalConfig {
    /// Number of closeness (recent) slots, `l_c`.
    pub closeness: usize,
    /// Number of daily-period slots, `l_d`.
    pub period: usize,
    /// Number of weekly-trend slots, `l_w`.
    pub trend: usize,
    /// Slots per day (`d` in Eq. 6).
    pub steps_per_day: usize,
    /// Days per week.
    pub days_per_week: usize,
}

impl TemporalConfig {
    /// The paper's configuration: 6 closeness + 7 daily + 4 weekly
    /// observations over hourly slots.
    pub fn paper() -> Self {
        TemporalConfig {
            closeness: 6,
            period: 7,
            trend: 4,
            steps_per_day: 24,
            days_per_week: 7,
        }
    }

    /// A reduced configuration for laptop-scale experiments: same three
    /// temporal groups, shorter warm-up (6 + 3 daily + 1 weekly).
    pub fn compact() -> Self {
        TemporalConfig {
            closeness: 6,
            period: 3,
            trend: 1,
            steps_per_day: 24,
            days_per_week: 7,
        }
    }

    /// Slots per week.
    pub fn steps_per_week(&self) -> usize {
        self.steps_per_day * self.days_per_week
    }

    /// Total input channels per sample (`l_c + l_d + l_w`).
    pub fn channels(&self) -> usize {
        self.closeness + self.period + self.trend
    }

    /// The first target slot with a full history.
    pub fn min_target(&self) -> usize {
        let c = self.closeness; // needs t-1 .. t-lc
        let p = self.period * self.steps_per_day;
        let w = self.trend * self.steps_per_week();
        c.max(p).max(w)
    }

    /// The history slot indices for a target slot `t`, closeness first,
    /// then period, then trend (matching the channel layout).
    pub fn history_slots(&self, t: usize) -> Vec<usize> {
        assert!(t >= self.min_target(), "target {t} lacks full history");
        let mut slots = Vec::with_capacity(self.channels());
        for i in (1..=self.closeness).rev() {
            slots.push(t - i);
        }
        for i in (1..=self.period).rev() {
            slots.push(t - i * self.steps_per_day);
        }
        for i in (1..=self.trend).rev() {
            slots.push(t - i * self.steps_per_week());
        }
        slots
    }
}

/// A set of extracted samples: stacked inputs `[n, channels, h, w]`,
/// targets `[n, 1, h, w]` and the target slot of each sample.
#[derive(Debug, Clone)]
pub struct SampleSet {
    /// Model inputs.
    pub inputs: Tensor,
    /// Prediction targets.
    pub targets: Tensor,
    /// Target time slot per sample.
    pub times: Vec<usize>,
}

impl SampleSet {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Extracts samples for the given target slots.
    pub fn extract_at(flow: &FlowSeries, cfg: &TemporalConfig, targets: &[usize]) -> SampleSet {
        let (h, w) = (flow.h(), flow.w());
        let c = cfg.channels();
        let plane = h * w;
        let mut inputs = Vec::with_capacity(targets.len() * c * plane);
        let mut outs = Vec::with_capacity(targets.len() * plane);
        for &t in targets {
            for slot in cfg.history_slots(t) {
                inputs.extend_from_slice(flow.frame(slot));
            }
            outs.extend_from_slice(flow.frame(t));
        }
        SampleSet {
            inputs: Tensor::from_vec(inputs, &[targets.len(), c, h, w])
                .expect("sample input shape"),
            targets: Tensor::from_vec(outs, &[targets.len(), 1, h, w])
                .expect("sample target shape"),
            times: targets.to_vec(),
        }
    }

    /// Converts to per-cell feature rows for tabular models (GBDT, HM):
    /// returns `(features [n*h*w, channels], targets [n*h*w])`.
    pub fn to_rows(&self) -> (Vec<Vec<f32>>, Vec<f32>) {
        let n = self.len();
        let c = self.inputs.shape()[1];
        let (h, w) = (self.inputs.shape()[2], self.inputs.shape()[3]);
        let plane = h * w;
        let mut feats = Vec::with_capacity(n * plane);
        let mut ys = Vec::with_capacity(n * plane);
        for s in 0..n {
            for p in 0..plane {
                let mut row = Vec::with_capacity(c);
                for ch in 0..c {
                    row.push(self.inputs.data()[(s * c + ch) * plane + p]);
                }
                feats.push(row);
                ys.push(self.targets.data()[s * plane + p]);
            }
        }
        (feats, ys)
    }
}

/// Chronological train/validation/test split of target slots: the last 20%
/// of the duration is the test set, the 10% before it validation, the rest
/// training (Sec. V-A1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Training target slots.
    pub train: Vec<usize>,
    /// Validation target slots.
    pub val: Vec<usize>,
    /// Test target slots.
    pub test: Vec<usize>,
}

/// Splits the valid target slots of a series 70/10/20 in time order.
pub fn chronological_split(flow: &FlowSeries, cfg: &TemporalConfig) -> Split {
    let first = cfg.min_target();
    let all: Vec<usize> = (first..flow.len_t()).collect();
    let n = all.len();
    let train_end = n * 7 / 10;
    let val_end = n * 8 / 10;
    Split {
        train: all[..train_end].to_vec(),
        val: all[train_end..val_end].to_vec(),
        test: all[val_end..].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(t: usize) -> FlowSeries {
        let mut s = FlowSeries::zeros(t, 2, 2);
        for i in 0..t {
            for r in 0..2 {
                for c in 0..2 {
                    s.set(i, r, c, i as f32);
                }
            }
        }
        s
    }

    #[test]
    fn paper_config_channels() {
        let cfg = TemporalConfig::paper();
        assert_eq!(cfg.channels(), 17);
        assert_eq!(cfg.min_target(), 4 * 24 * 7);
    }

    #[test]
    fn history_slots_ordering() {
        let cfg = TemporalConfig {
            closeness: 2,
            period: 2,
            trend: 1,
            steps_per_day: 4,
            days_per_week: 2,
        };
        // min_target = max(2, 8, 8) = 8
        assert_eq!(cfg.min_target(), 8);
        let slots = cfg.history_slots(10);
        // closeness: 8,9 ; period: 10-8=2, 10-4=6 ; trend: 10-8=2
        assert_eq!(slots, vec![8, 9, 2, 6, 2]);
    }

    #[test]
    #[should_panic(expected = "lacks full history")]
    fn early_target_panics() {
        TemporalConfig::paper().history_slots(10);
    }

    /// Every slot of `flow` with a full history under `cfg`, in time order.
    fn every_target(flow: &FlowSeries, cfg: &TemporalConfig) -> Vec<usize> {
        (cfg.min_target()..flow.len_t()).collect()
    }

    #[test]
    fn extract_shapes_and_values() {
        let cfg = TemporalConfig {
            closeness: 2,
            period: 1,
            trend: 1,
            steps_per_day: 3,
            days_per_week: 2,
        };
        let flow = series(12);
        let set = SampleSet::extract_at(&flow, &cfg, &every_target(&flow, &cfg));
        assert_eq!(set.inputs.shape()[1], 4);
        assert_eq!(set.times.first(), Some(&cfg.min_target()));
        // first sample's closeness channels hold frames t-2, t-1
        let t0 = set.times[0];
        assert_eq!(set.inputs.get(&[0, 0, 0, 0]).unwrap(), (t0 - 2) as f32);
        assert_eq!(set.inputs.get(&[0, 1, 0, 0]).unwrap(), (t0 - 1) as f32);
        // target holds frame t
        assert_eq!(set.targets.get(&[0, 0, 0, 0]).unwrap(), t0 as f32);
    }

    #[test]
    fn to_rows_flattens_cells() {
        let cfg = TemporalConfig {
            closeness: 2,
            period: 1,
            trend: 1,
            steps_per_day: 2,
            days_per_week: 2,
        };
        let flow = series(10);
        let set = SampleSet::extract_at(&flow, &cfg, &every_target(&flow, &cfg));
        let (rows, ys) = set.to_rows();
        assert_eq!(rows.len(), set.len() * 4);
        assert_eq!(rows.len(), ys.len());
        assert_eq!(rows[0].len(), 4);
    }

    #[test]
    fn split_is_chronological_70_10_20() {
        let cfg = TemporalConfig {
            closeness: 1,
            period: 1,
            trend: 1,
            steps_per_day: 2,
            days_per_week: 2,
        };
        let flow = series(104); // 100 valid targets
        let split = chronological_split(&flow, &cfg);
        assert_eq!(split.train.len(), 70);
        assert_eq!(split.val.len(), 10);
        assert_eq!(split.test.len(), 20);
        assert!(split.train.last().unwrap() < split.val.first().unwrap());
        assert!(split.val.last().unwrap() < split.test.first().unwrap());
    }
}
