//! `hdx-nas` — the network side of the HDX co-exploration: the MBConv
//! operator space, the layer-by-layer network geometry (CIFAR-10-like
//! 18-layer and ImageNet-like 21-layer plans, §4.4), synthetic
//! classification tasks standing in for CIFAR-10/ImageNet, and a
//! ProxylessNAS-style differentiable supernet trained over
//! [`hdx_tensor`].
//!
//! ## Substitution note
//!
//! The paper trains convolutional supernets on CIFAR-10/ImageNet with
//! PyTorch on GPUs. The method under reproduction only needs a
//! differentiable task loss whose optimum depends on the architecture
//! parameters α. We therefore keep the *hardware geometry* of each
//! MBConv candidate exact (kernel/expand/channels/spatial dims feed the
//! accelerator model unchanged) but realize each candidate's *trainable
//! capacity* as a residual MLP block whose hidden width grows with
//! kernel size and expand ratio, trained on a synthetic Gaussian-mixture
//! task with nonlinear class boundaries. Larger (k, e) ⇒ lower
//! achievable loss but costlier hardware — the exact tension the paper
//! searches over.
//!
//! # Example
//!
//! ```
//! use hdx_nas::{Architecture, NetworkPlan, OP_SET};
//!
//! let plan = NetworkPlan::cifar18();
//! // The all-smallest-op network:
//! let arch = Architecture::uniform(plan.num_layers(), 0);
//! let layers = plan.layers_for(&arch);
//! assert!(!layers.is_empty());
//! assert_eq!(OP_SET.len(), 6);
//! ```

pub mod arch;
pub mod data;
pub mod geometry;
pub mod ops;
pub mod supernet;

pub use arch::Architecture;
pub use data::{Batch, Dataset, Geometry, TaskSpec};
pub use geometry::{LayerSlot, NetworkPlan};
pub use ops::{MbConvOp, OP_SET};
pub use supernet::{
    EvalScore, FinalEval, FinalNet, SampledReplay, Supernet, SupernetConfig, EVAL_CHUNK,
};
