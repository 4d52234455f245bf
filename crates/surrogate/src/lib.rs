//! `hdx-surrogate` — the differentiable evaluator `eval(α, β) =
//! est(α, gen(v, α))` from the paper (§4.2, following DANCE).
//!
//! Two five-layer residual MLPs:
//!
//! * the **estimator** `est()` maps a (relaxed architecture, hardware
//!   configuration) encoding to log-scale hardware metrics
//!   (latency / energy / area). It is pre-trained on pairs sampled from
//!   the joint search space, labelled by the analytical accelerator
//!   model ([`hdx_accel`], the Timeloop/Accelergy substitute), and
//!   **frozen** during co-exploration;
//! * the **generator** `gen()` maps the relaxed architecture encoding
//!   to a continuous hardware configuration (sigmoid-bounded array/RF
//!   dims + dataflow softmax). Its weights `v` are trained jointly
//!   during the search, so hardware-cost and constraint gradients flow
//!   through it back into the architecture parameters.
//!
//! # Example
//!
//! ```no_run
//! use hdx_nas::NetworkPlan;
//! use hdx_surrogate::{Estimator, EstimatorConfig, PairSet};
//! use hdx_tensor::Rng;
//!
//! let plan = NetworkPlan::cifar18();
//! let mut rng = Rng::new(0);
//! let pairs = PairSet::sample(&plan, 2_000, &mut rng, 0);
//! let mut est = Estimator::new(&plan, EstimatorConfig::default(), &mut rng);
//! est.train(&pairs, &mut rng);
//! let acc = est.within_tolerance(&pairs, 0.10);
//! assert!(acc > 0.5);
//! ```

pub mod dataset;
pub mod encode;
pub mod estimator;
pub mod generator;

pub use dataset::PairSet;
pub use encode::{joint_dim, TargetStats};
pub use estimator::{Estimator, EstimatorConfig};
pub use generator::Generator;
