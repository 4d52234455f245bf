//! `hdx-accel` — an analytical cost model for Eyeriss-class DNN
//! accelerators, standing in for Timeloop + Accelergy in the HDX
//! reproduction (Hong et al., DAC 2022).
//!
//! The paper evaluates every candidate (network, accelerator) pair with
//! Timeloop (mapping/latency) and Accelergy (energy/area). Those tools
//! are themselves *analytical* models; this crate implements a
//! compatible, deterministic, fast model over the same search space the
//! paper uses (§4.4):
//!
//! * PE array from 12×8 to 20×24,
//! * per-PE register file from 16 B to 256 B,
//! * dataflow ∈ {Weight-Stationary, Output-Stationary, Row-Stationary}.
//!
//! It reports [`HwMetrics`] (inference latency in ms, energy in mJ,
//! chip area in mm²) for a network described as a sequence of
//! [`ConvLayer`]s (built from MBConv blocks via [`MbConv`]), and
//! implements the weighted hardware cost of Eq. 10 via [`CostWeights`].
//!
//! # Example
//!
//! ```
//! use hdx_accel::{AccelConfig, CostWeights, Dataflow, MbConv, evaluate_network};
//!
//! let block = MbConv::new(16, 32, 32, 32, 1, 3, 6);
//! let layers = block.sublayers();
//! let cfg = AccelConfig::new(16, 16, 64, Dataflow::WeightStationary)?;
//! let metrics = evaluate_network(&layers, &cfg);
//! assert!(metrics.latency_ms > 0.0);
//! let cost = CostWeights::paper().cost(&metrics);
//! assert!(cost > 0.0);
//! # Ok::<(), hdx_accel::ConfigError>(())
//! ```

pub mod config;
pub mod energy;
pub mod layer;
pub mod metrics;
pub mod model;
pub mod search;

pub use config::{AccelConfig, ConfigError, Dataflow, SearchSpace};
pub use layer::{ConvLayer, MbConv};
pub use metrics::{CostWeights, HwMetrics, Metric};
pub use model::{evaluate_layer, evaluate_network};
pub use search::{build_layer_lut, exhaustive_search, LayerLut, SearchOutcome};
