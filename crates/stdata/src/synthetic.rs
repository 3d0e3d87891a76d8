//! Synthetic citywide crowd-flow generators.
//!
//! Substitutes for the paper's Taxi NYC (36M trips, Jan–Mar 2013) and
//! Freight Transport (7M orders, Oct 2020–Aug 2021) datasets, which are not
//! available offline. Flows are sampled as Poisson counts around a rate
//! field composed of:
//!
//! * a weak spatially-uniform background (cold areas → low ACF),
//! * a mixture of Gaussian spatial hotspots, each with its own daily phase
//!   (hot areas → high flows → high ACF),
//! * a daily profile, a weekday/weekend modulation and a mild linear trend,
//! * optional multiplicative noise (stronger in the freight preset).
//!
//! These reproduce the two structural facts the paper's evaluation leans
//! on: predictability grows with flow volume, and coarser aggregates are
//! more predictable (Fig. 10 left).

use crate::flow::FlowSeries;
use o4a_tensor::SeededRng;

/// Which real-world dataset a synthetic series stands in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Dense, high-count demand (NYC taxi-like).
    TaxiNycLike,
    /// Sparse, noisier demand (freight-transport-like).
    FreightLike,
}

impl DatasetKind {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::TaxiNycLike => "Taxi NYC (synthetic)",
            DatasetKind::FreightLike => "Freight Transport (synthetic)",
        }
    }

    /// The standard configuration for this dataset at the given raster
    /// size and series length.
    pub fn config(self, h: usize, w: usize, steps: usize, seed: u64) -> SyntheticConfig {
        match self {
            DatasetKind::TaxiNycLike => SyntheticConfig::taxi_nyc_like(h, w, steps, seed),
            DatasetKind::FreightLike => SyntheticConfig::freight_like(h, w, steps, seed),
        }
    }

    /// Whether Task 1 of this dataset uses hexagon queries (the Freight
    /// dataset does; Taxi NYC uses census tracts).
    pub fn hex_task1(self) -> bool {
        matches!(self, DatasetKind::FreightLike)
    }
}

/// One spatial hotspot of the rate field.
#[derive(Debug, Clone)]
struct Hotspot {
    row: f64,
    col: f64,
    peak: f32,
    sigma: f64,
    /// Peak hour of the daily profile, in [0, 24).
    phase_hours: f64,
}

/// Configuration for the synthetic generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Raster height.
    pub h: usize,
    /// Raster width.
    pub w: usize,
    /// Number of time slots.
    pub steps: usize,
    /// Time slots per day (24 for the paper's hourly setting).
    pub steps_per_day: usize,
    /// Number of Gaussian hotspots.
    pub num_hotspots: usize,
    /// Peak per-cell rate at a hotspot centre.
    pub hotspot_peak: f32,
    /// Spatial spread of hotspots in cells.
    pub hotspot_sigma: f64,
    /// Background per-cell rate.
    pub base_rate: f32,
    /// Multiplier applied on weekends.
    pub weekend_factor: f32,
    /// Std of multiplicative rate noise.
    pub noise: f32,
    /// Total linear trend over the series (0.1 = +10% by the end).
    pub trend: f32,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
}

impl SyntheticConfig {
    /// Dense taxi-like preset.
    pub fn taxi_nyc_like(h: usize, w: usize, steps: usize, seed: u64) -> Self {
        SyntheticConfig {
            h,
            w,
            steps,
            steps_per_day: 24,
            num_hotspots: (h * w / 64).max(4),
            hotspot_peak: 9.0,
            hotspot_sigma: (h.min(w) as f64 / 12.0).max(1.5),
            base_rate: 0.25,
            weekend_factor: 0.7,
            noise: 0.10,
            trend: 0.05,
            seed,
        }
    }

    /// Sparse freight-like preset.
    pub fn freight_like(h: usize, w: usize, steps: usize, seed: u64) -> Self {
        SyntheticConfig {
            h,
            w,
            steps,
            steps_per_day: 24,
            num_hotspots: (h * w / 160).max(2),
            hotspot_peak: 2.2,
            hotspot_sigma: (h.min(w) as f64 / 10.0).max(1.5),
            base_rate: 0.04,
            weekend_factor: 0.45,
            noise: 0.30,
            trend: 0.10,
            seed,
        }
    }

    /// Generates the flow series.
    pub fn generate(&self) -> FlowSeries {
        assert!(self.steps_per_day > 0, "steps_per_day must be positive");
        let mut rng = SeededRng::new(self.seed);
        let hotspots = self.sample_hotspots(&mut rng);
        // before `daily_rates`, which needs a non-empty raster: `zeros`
        // rejects an empty one with a clear message
        let mut out = FlowSeries::zeros(self.steps, self.h, self.w);
        let rates = self.daily_rates(&hotspots);

        let plane = self.h * self.w;
        let steps_per_week = self.steps_per_day * 7;
        for t in 0..self.steps {
            let weekday = (t % steps_per_week) / self.steps_per_day;
            let week_factor = if weekday >= 5 {
                self.weekend_factor
            } else {
                1.0
            };
            let trend_factor = 1.0 + self.trend * t as f32 / self.steps.max(1) as f32;
            let scale = week_factor * trend_factor;
            let day_rates = &rates[(t % self.steps_per_day) * plane..][..plane];
            for (idx, &day_rate) in day_rates.iter().enumerate() {
                let mut rate = day_rate * scale;
                if self.noise > 0.0 {
                    rate *= (1.0 + self.noise * rng.normal()).max(0.0);
                }
                let count = rng.poisson(rate as f64);
                out.set(t, idx / self.w, idx % self.w, count as f32);
            }
        }
        out
    }

    /// The rate field before the weekly, trend and noise factors, one
    /// `h * w` plane per slot of the day (only the slots the series
    /// reaches): `base_rate` plus each hotspot's spatial kernel times its
    /// daily profile at that hour.
    ///
    /// The hotspot part depends on a slot only through its hour of day,
    /// so it is summed once per slot of the day rather than once per
    /// slot. Each hotspot's kernel is built once and added into every
    /// plane before the next one is built, so every cell still adds its
    /// hotspots in sampling order and rounds exactly as a per-cell sum
    /// would.
    fn daily_rates(&self, hotspots: &[Hotspot]) -> Vec<f32> {
        let plane = self.h * self.w;
        let slots = self.steps_per_day.min(self.steps);
        let mut rates = vec![self.base_rate; slots * plane];
        let mut kernel = vec![0.0f32; plane];
        for hs in hotspots {
            let two_sigma_sq = 2.0 * hs.sigma * hs.sigma;
            for r in 0..self.h {
                for c in 0..self.w {
                    let dr = r as f64 + 0.5 - hs.row;
                    let dc = c as f64 + 0.5 - hs.col;
                    let d2 = dr * dr + dc * dc;
                    kernel[r * self.w + c] = (hs.peak as f64 * (-d2 / two_sigma_sq).exp()) as f32;
                }
            }
            for (slot, day_rates) in rates.chunks_exact_mut(plane).enumerate() {
                let hour = slot as f64 * 24.0 / self.steps_per_day as f64;
                let p = daily_profile(hour, hs.phase_hours);
                for (rate, &k) in day_rates.iter_mut().zip(&kernel) {
                    *rate += k * p;
                }
            }
        }
        rates
    }

    fn sample_hotspots(&self, rng: &mut SeededRng) -> Vec<Hotspot> {
        (0..self.num_hotspots)
            .map(|i| {
                // alternate morning / evening / midday peaks
                let phase = match i % 3 {
                    0 => 8.0,
                    1 => 18.0,
                    _ => 13.0,
                } + rng.uniform(-1.5, 1.5) as f64;
                Hotspot {
                    row: rng.uniform(0.0, self.h as f32) as f64,
                    col: rng.uniform(0.0, self.w as f32) as f64,
                    peak: self.hotspot_peak * rng.uniform(0.6, 1.4),
                    sigma: self.hotspot_sigma * rng.uniform(0.7, 1.3) as f64,
                    phase_hours: phase,
                }
            })
            .collect()
    }
}

/// Smooth daily profile peaking at `phase_hours`, in `[0, 1]`.
fn daily_profile(hour: f64, phase_hours: f64) -> f32 {
    let x = (hour - phase_hours) * std::f64::consts::PI / 12.0;
    let v = 0.5 * (1.0 + x.cos());
    (v * v) as f32 // sharpen the peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acf::mean_acf;
    use o4a_grid::Hierarchy;

    /// The generator with the rate field summed per slot: every slot sums
    /// every hotspot's kernel at every cell. `generate` must match it bit
    /// for bit.
    fn per_slot_reference(cfg: &SyntheticConfig) -> FlowSeries {
        let mut rng = SeededRng::new(cfg.seed);
        let hotspots = cfg.sample_hotspots(&mut rng);
        let plane = cfg.h * cfg.w;
        let mut kernels: Vec<Vec<f32>> = Vec::with_capacity(hotspots.len());
        for hs in &hotspots {
            let mut k = vec![0.0f32; plane];
            let two_sigma_sq = 2.0 * hs.sigma * hs.sigma;
            for r in 0..cfg.h {
                for c in 0..cfg.w {
                    let dr = r as f64 + 0.5 - hs.row;
                    let dc = c as f64 + 0.5 - hs.col;
                    let d2 = dr * dr + dc * dc;
                    k[r * cfg.w + c] = (hs.peak as f64 * (-d2 / two_sigma_sq).exp()) as f32;
                }
            }
            kernels.push(k);
        }
        let mut out = FlowSeries::zeros(cfg.steps, cfg.h, cfg.w);
        let steps_per_week = cfg.steps_per_day * 7;
        for t in 0..cfg.steps {
            let hour = (t % cfg.steps_per_day) as f64 * 24.0 / cfg.steps_per_day as f64;
            let weekday = (t % steps_per_week) / cfg.steps_per_day;
            let week_factor = if weekday >= 5 {
                cfg.weekend_factor
            } else {
                1.0
            };
            let trend_factor = 1.0 + cfg.trend * t as f32 / cfg.steps.max(1) as f32;
            let profiles: Vec<f32> = hotspots
                .iter()
                .map(|hs| daily_profile(hour, hs.phase_hours))
                .collect();
            for idx in 0..plane {
                let mut rate = cfg.base_rate;
                for (k, &p) in kernels.iter().zip(&profiles) {
                    rate += k[idx] * p;
                }
                rate *= week_factor * trend_factor;
                if cfg.noise > 0.0 {
                    rate *= (1.0 + cfg.noise * rng.normal()).max(0.0);
                }
                let count = rng.poisson(rate as f64);
                out.set(t, idx / cfg.w, idx % cfg.w, count as f32);
            }
        }
        out
    }

    #[test]
    fn generate_matches_the_per_slot_reference() {
        // Series shorter than, equal to and longer than a day, with and
        // without noise; 64x64 only once (the reference is slow).
        let small: &[usize] = &[1, 5, 23, 24, 25, 48, 216];
        for kind in [DatasetKind::TaxiNycLike, DatasetKind::FreightLike] {
            for (h, w, all_steps) in [(8, 8, small), (12, 20, small), (64, 64, &[25])] {
                for &steps in all_steps {
                    for steps_per_day in [24, 12, 7] {
                        for noise in [true, false] {
                            let mut cfg = kind.config(h, w, steps, 3);
                            cfg.steps_per_day = steps_per_day;
                            if !noise {
                                cfg.noise = 0.0;
                            }
                            assert!(
                                cfg.generate() == per_slot_reference(&cfg),
                                "{cfg:?} differs from the reference"
                            );
                        }
                    }
                }
            }
        }
    }

    /// FNV-1a 64 over the bit pattern of every value, in `[t][r][c]` order.
    fn digest(flow: &FlowSeries) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for t in 0..flow.len_t() {
            for v in flow.frame(t) {
                for b in v.to_bits().to_le_bytes() {
                    hash ^= b as u64;
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        hash
    }

    #[test]
    fn the_128x128_serving_flow_is_pinned() {
        // the flow `serve --side 128` builds
        let flow = DatasetKind::TaxiNycLike.config(128, 128, 216, 5).generate();
        assert_eq!(digest(&flow), 0xc33a_50c7_c425_2e3b);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SyntheticConfig::taxi_nyc_like(8, 8, 48, 42);
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticConfig::taxi_nyc_like(8, 8, 48, 1).generate();
        let b = SyntheticConfig::taxi_nyc_like(8, 8, 48, 2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn counts_nonnegative() {
        let s = SyntheticConfig::freight_like(8, 8, 48, 3).generate();
        for t in 0..48 {
            assert!(s.frame(t).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn taxi_denser_than_freight() {
        let taxi = SyntheticConfig::taxi_nyc_like(16, 16, 24 * 7, 5).generate();
        let freight = SyntheticConfig::freight_like(16, 16, 24 * 7, 5).generate();
        assert!(
            taxi.mean() > 3.0 * freight.mean(),
            "taxi mean {} vs freight mean {}",
            taxi.mean(),
            freight.mean()
        );
    }

    #[test]
    fn daily_periodicity_visible() {
        // correlation of citywide totals at lag = one day should be high
        let s = SyntheticConfig::taxi_nyc_like(8, 8, 24 * 14, 7).generate();
        let totals: Vec<f32> = (0..s.len_t()).map(|t| s.frame(t).iter().sum()).collect();
        let r = crate::acf::acf(&totals, 24);
        assert!(r > 0.6, "daily autocorrelation of totals is only {r}");
    }

    #[test]
    fn coarser_scales_more_predictable() {
        // Fig. 10 left: mean ACF rises with scale.
        let hier = Hierarchy::new(16, 16, 2, 4).unwrap();
        let s = SyntheticConfig::freight_like(16, 16, 24 * 14, 11).generate();
        let pyr = s.pyramid(&hier);
        let acfs: Vec<f64> = pyr.iter().map(|f| mean_acf(f, 24)).collect();
        assert!(
            acfs[3] > acfs[0],
            "coarsest ACF {} should exceed atomic ACF {}",
            acfs[3],
            acfs[0]
        );
    }

    #[test]
    fn weekend_effect_reduces_volume() {
        let mut cfg = SyntheticConfig::taxi_nyc_like(8, 8, 24 * 14, 13);
        cfg.noise = 0.0;
        let s = cfg.generate();
        let day_total = |d: usize| -> f32 {
            (d * 24..(d + 1) * 24)
                .map(|t| s.frame(t).iter().sum::<f32>())
                .sum()
        };
        let weekdays: f32 = (0..5).map(day_total).sum();
        let weekend: f32 = (5..7).map(day_total).sum();
        assert!(weekend / 2.0 < weekdays / 5.0, "weekend should be quieter");
    }

    #[test]
    fn dataset_kind_plumbing() {
        assert!(DatasetKind::FreightLike.hex_task1());
        assert!(!DatasetKind::TaxiNycLike.hex_task1());
        let cfg = DatasetKind::TaxiNycLike.config(8, 8, 24, 1);
        assert_eq!(cfg.h, 8);
        assert!(DatasetKind::TaxiNycLike.name().contains("Taxi"));
    }

    #[test]
    fn daily_profile_peaks_at_phase() {
        let at_peak = daily_profile(8.0, 8.0);
        let off_peak = daily_profile(20.0, 8.0);
        assert!(at_peak > 0.99);
        assert!(off_peak < 0.05);
    }
}
