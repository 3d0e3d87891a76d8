//! Per-region model ensembles for One4All-ST.
//!
//! The paper's optimal-combination search (Sec. IV-C) picks the best
//! *areal unit* decomposition for every hierarchical grid, but serves each
//! grid from a single backbone model. DJEnsemble (arXiv:2005.11093) and
//! StreamEnsemble (arXiv:2410.00933) observe that different
//! spatio-temporal models dominate different regions, and that a disjoint
//! per-region composition of black-box models beats any single one.
//!
//! This crate combines the two ideas:
//!
//! * [`planner::plan_ensemble`] generalizes the combination DP with a
//!   "which model" axis: every tile's candidate set is the cross product
//!   of the member models' own optimal combinations plus ensemble-level
//!   compositions of its children (which may mix models). The result is an
//!   [`plan::EnsemblePlan`] mapping every hierarchical grid (and, for
//!   `K = 2`, every multi-grid) to its cheapest
//!   [`o4a_core::combination::Combination`] on the validation window,
//!   whose terms may read different members, with a [`plan::PlanReport`]
//!   cost breakdown.
//! * [`codec`] persists the plan as a versioned `O4AENS01` artifact with
//!   the workspace's usual FNV-1a integrity trailer and a total,
//!   never-panicking decoder.
//! * [`server::EnsembleServer`] answers region queries from the plan and
//!   one [`o4a_core::server::PredictionStore`] snapshot per member —
//!   online work stays pure lookup + aggregate, on the same query engine
//!   as the single-model region server.
//! * [`synthetic::HotspotExpert`] provides deterministic, cheaply
//!   reconstructible member models for tests, benches and the serve
//!   binary's synthetic ensemble mode.

pub mod codec;
pub mod plan;
pub mod planner;
pub mod server;
pub mod synthetic;

pub use codec::{decode_plan, encode_plan, load_plan, save_plan, PlanCodecError, PlanLoadError};
pub use plan::{EnsemblePlan, PlanReport};
pub use planner::{plan_ensemble, profile_members, MemberProfile, PlanOptions};
pub use server::EnsembleServer;
pub use synthetic::HotspotExpert;
