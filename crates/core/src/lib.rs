//! `hdx-core` — HDX: hard-constrained differentiable neural network /
//! accelerator co-exploration (reproduction of Hong et al., DAC 2022).
//!
//! The crate ties the substrates together:
//!
//! * [`hdx_nas`] provides the ProxylessNAS-style supernet and the
//!   synthetic tasks (the CIFAR-10 / ImageNet substitutes);
//! * [`hdx_accel`] provides the Eyeriss-class analytical cost model
//!   (the Timeloop/Accelergy substitute);
//! * [`hdx_surrogate`] provides the differentiable evaluator
//!   `est(α, gen(v, α))` (DANCE-style);
//! * this crate adds the paper's contribution — **gradient
//!   manipulation** ([`gradmanip`]) that guarantees hard-constraint
//!   satisfaction — plus the co-exploration [`engine`], the baseline
//!   methods, and the meta λ-search used for Table 1.
//!
//! # Quickstart
//!
//! ```no_run
//! use hdx_core::{
//!     prepare_context_with, run_search, Constraint, EstimatorConfig, Method, SearchOptions, Task,
//! };
//!
//! // Pre-train the estimator on 8000 pairs, then build the task's plan
//! // and dataset around it.
//! let est_cfg = EstimatorConfig {
//!     epochs: 30,
//!     batch: 128,
//!     lr: 2e-3,
//!     ..EstimatorConfig::default()
//! };
//! let prepared = prepare_context_with(Task::Cifar, 0, 8_000, est_cfg);
//! let ctx = prepared.context();
//!
//! // 60 fps hard latency constraint, HDX method.
//! let opts = SearchOptions {
//!     constraints: vec![Constraint::fps(60.0)],
//!     method: Method::Hdx { delta0: 1e-3, p: 1e-2 },
//!     ..SearchOptions::default()
//! };
//! let result = run_search(&ctx, &opts);
//! assert!(result.in_constraint);
//! ```

pub mod constraint;
pub mod engine;
pub mod gradmanip;
pub mod meta_search;
pub mod report;
pub mod setup;

pub use constraint::{all_satisfied, Constraint};
pub use engine::{
    resume_search, run_search, try_run_search, CheckpointSpec, EpochTrace, Method,
    SearchCheckpoint, SearchContext, SearchOptions, SearchResult,
};
pub use gradmanip::{manipulate, DeltaPolicy, Manipulated, ManipulationKind};
pub use hdx_surrogate::{Estimator, EstimatorConfig, Generator};
pub use meta_search::{constrained_meta_search, MetaSearchOutcome};
pub use report::{ensure_experiment_dir, write_csv};
pub use setup::{prepare_context_with, pretrain, pretrain_estimator, PreparedContext, Task};

pub use hdx_accel::{AccelConfig, CostWeights, Dataflow, HwMetrics, Metric};
pub use hdx_nas::{Architecture, NetworkPlan};
