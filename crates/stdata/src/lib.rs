#![warn(missing_docs)]

//! # o4a-data
//!
//! Citywide crowd-flow data (Definition 3), synthetic dataset generation,
//! temporal feature extraction, normalization and evaluation metrics.
//!
//! The paper evaluates on two proprietary-scale datasets (NYC taxi trips
//! and freight-transport orders). Neither is available offline, so
//! [`synthetic`] generates seeded surrogates that reproduce the statistical
//! properties the evaluation depends on:
//!
//! * flows aggregate exactly across scales (they are counts),
//! * coarser scales are more predictable (higher autocorrelation — Fig. 10
//!   left),
//! * hotspots are more predictable than cold areas (spatial heterogeneity,
//!   which is what makes the optimal-combination search worthwhile),
//! * daily and weekly periodicity (what the closeness/period/trend inputs
//!   of Eq. 6 exploit).
//!
//! Modules:
//! * [`flow`] — the `[T, H, W]` flow series and scale aggregation,
//! * [`synthetic`] — the taxi-like and freight-like generators,
//! * [`features`] — closeness/period/trend sample extraction (Eq. 6) and
//!   train/val/test splits,
//! * [`norm`] — per-scale normalization (Eq. 11),
//! * [`metrics`] — RMSE / MAPE / MAE,
//! * [`acf`] — autocorrelation analysis (Fig. 10),
//! * [`ingest`] — trip-record rasterization (the paper's raw-data path:
//!   pick-up time + coordinates → citywide crowd flow),
//! * [`stats`] — paired-bootstrap significance tests for model comparisons,
//! * [`viz`] — ASCII heatmaps for quick terminal looks.

pub mod acf;
pub mod features;
pub mod flow;
pub mod ingest;
pub mod metrics;
pub mod norm;
pub mod stats;
pub mod synthetic;
pub mod viz;

pub use features::{SampleSet, TemporalConfig};
pub use flow::FlowSeries;
pub use norm::Normalizer;
pub use synthetic::{DatasetKind, SyntheticConfig};
