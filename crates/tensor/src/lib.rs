//! `hdx-tensor` — a small, self-contained reverse-mode automatic
//! differentiation engine used as the training substrate for the HDX
//! reproduction (Hong et al., DAC 2022).
//!
//! The paper relies on PyTorch autograd; the method itself only needs
//! correct gradients of a scalar loss with respect to architecture
//! parameters `α`, supernet weights `w`, and generator weights `v`.
//! This crate provides exactly that: dense `f32` [`Tensor`]s, a
//! [`Tape`] that records a computation graph, reverse-mode
//! [`Tape::backward`], the neural-network building blocks the paper
//! uses (linear layers and 5-layer residual MLPs), and the two
//! optimizers from the paper's experimental setup (SGD with Nesterov
//! momentum + cosine learning-rate schedule, and Adam).
//!
//! # Example
//!
//! ```
//! use hdx_tensor::{Tape, Tensor};
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]));
//! let y = tape.scale(x, 2.0);
//! let loss = tape.sum(y);
//! let grads = tape.backward(loss);
//! // d(2·Σx)/dx = 2 everywhere
//! assert_eq!(grads.wrt(x).expect("leaf gradient").data(), &[2.0, 2.0, 2.0]);
//! ```

pub mod bank;
pub mod ckpt;
pub mod kernels;
pub mod knobs;
pub mod nn;
pub mod obs;
pub mod optim;
pub mod par;
pub mod program;
pub mod rng;
pub mod shard;
pub mod tape;
pub mod tensor;

pub use bank::{bank_key, parse_bank_cap_env, BankStats, SessionBank, SessionLease};
pub use ckpt::{Checkpoint, CkptError};
pub use nn::{Binding, Linear, ParamId, ParamStore, ResidualMlp};
pub use optim::{Adam, CosineLr, Sgd};
pub use par::{num_jobs, par_threshold, parallel_map, parse_jobs_env, WorkerPool};
pub use program::{ExecMode, Program, ProgramError, Session};
pub use rng::Rng;
pub use shard::{sharded_step, ShardStep, SHARD_ROWS};
pub use tape::{Gradients, Tape, Var};
pub use tensor::Tensor;

#[cfg(test)]
mod gradcheck;
