#![warn(missing_docs)]

//! # o4a-core
//!
//! The One4All-ST framework (Chen et al., ICDE 2024): spatio-temporal
//! prediction for **arbitrary modifiable areal units** with a single model.
//!
//! The three components of the paper's Sec. IV map onto this crate:
//!
//! 1. **Multi-scale joint learning** ([`network`]) — a hierarchical
//!    multi-scale ST network with temporal modeling (Eq. 6–7),
//!    hierarchical spatial modeling via scale-merging layers (Eq. 8),
//!    cross-scale top-down enhancement (Eq. 9), scale-specific heads
//!    (Eq. 10) and scale-normalized multi-task training (Eq. 11–12).
//!    Ablation switches cover Table IV (w/o HSM, w/o SN), Fig. 14 (merging
//!    window size) and Fig. 16 (spatial block choice).
//! 2. **Optimal combination search and index** ([`combination`],
//!    [`codec`]) — the bottom-up dynamic program over the union system
//!    (Lemma 4.2), the subtraction-enhanced multi-grid search
//!    (Theorem 4.3), and the extended quad-tree index with a binary codec
//!    for persistence (Fig. 17 measures its size).
//! 3. **Modifiable areal units prediction** ([`server`]) — the online
//!    phase: hierarchical decomposition of region queries (Algorithm 1),
//!    grid indexing, and aggregation of indexed optimal combinations over
//!    a shared prediction store (the paper's HBase stand-in).
//!
//! [`one4all::One4AllSt`] ties everything together behind the
//! `PyramidPredictor` interface shared with the baselines.
//!
//! Beyond the paper's published system, [`structure`] implements its stated
//! future work: choosing the optimal hierarchical structure (merging window
//! and depth) under a parameter budget when the query-scale distribution is
//! known in advance.

pub mod cache;
pub mod codec;
pub mod combination;
pub mod compiled;
pub mod deploy;
pub mod frames;
pub mod network;
pub mod one4all;
pub mod server;
pub mod structure;

pub use combination::{Combination, CombinationIndex, SearchStrategy, SignedCell};
pub use network::{NetworkConfig, One4AllNet};
pub use one4all::One4AllSt;
pub use server::{Engine, PredictionStore, PublishError, QueryBackend, QueryTiming, RegionServer};
