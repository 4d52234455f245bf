//! The per-bundle worker: one warm `(task, seed)` artifact set plus
//! its serving counters. Private machinery — requests enter through
//! [`crate::Router`], which owns the registry, the protocol loops, and
//! the hardening knobs.
//!
//! # Job determinism
//!
//! Every job is a pure function of its [`SearchRequest`]: the engine
//! seeds its own RNG from the request, the shared warm artifacts are
//! read-only, and the process-wide caches ([`hdx_tensor::SessionBank`],
//! `LayerLut`) only trade compute for reuse — the bit-identity
//! contracts pinned in `tests/determinism.rs` guarantee a cache hit
//! never changes a result. Jobs therefore commute across worker
//! threads and bundles, which is what lets the router fan a
//! multi-task batch out in parallel and still write byte-deterministic
//! reports.

use crate::proto::{v1, ErrorKind, ProtoError, SearchReport, SearchRequest};
use hdx_core::{
    constrained_meta_search, resume_search, try_run_search, PreparedContext, SearchCheckpoint, Task,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A warm, shareable single-bundle worker.
pub(crate) struct TaskService {
    task: Task,
    seed: u64,
    estimator_accuracy: f64,
    prepared: Arc<PreparedContext>,
    steps_used: AtomicU64,
    // Jobs served, indexed by `SearchRequest::verb_index`.
    verb_counts: [AtomicU64; v1::BATCHED],
}

impl TaskService {
    /// Wraps prepared artifacts for serving. `seed` is the bundle's
    /// dataset seed — the registry key half the request routes on.
    pub(crate) fn new(
        task: Task,
        seed: u64,
        prepared: impl Into<Arc<PreparedContext>>,
    ) -> TaskService {
        let prepared = prepared.into();
        TaskService {
            task,
            seed,
            estimator_accuracy: prepared.estimator_accuracy,
            prepared,
            steps_used: AtomicU64::new(0),
            verb_counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The registry/listing entry for this bundle.
    pub(crate) fn entry(&self) -> v1::TaskEntry {
        v1::TaskEntry {
            task: self.task,
            bundle_seed: self.seed,
            estimator_accuracy: self.estimator_accuracy,
        }
    }

    /// The per-bundle serving counters.
    pub(crate) fn stats(&self) -> v1::TaskStats {
        v1::TaskStats {
            task: self.task,
            bundle_seed: self.seed,
            steps_used: self.steps_used.load(Ordering::Relaxed),
            verbs: self
                .verb_counts
                .each_ref()
                .map(|n| n.load(Ordering::Relaxed)),
        }
    }

    /// Runs one expanded job to completion: a checkpoint resume, a
    /// meta-search, or one search (a plain search or one λ of a grid),
    /// as its [`SearchRequest::verb_index`] says, and counts it under
    /// that verb.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] when the request names a task this bundle does
    /// not cover, or when its checkpoint cannot be loaded/written.
    pub(crate) fn run_one(&self, req: &SearchRequest) -> Result<SearchReport, ProtoError> {
        let fail = |kind| ProtoError::new(req.id, kind);
        if req.task != self.task {
            return Err(fail(ErrorKind::unavailable(req.task, req.bundle_seed)));
        }
        let ctx = self.prepared.context();
        let opts = req.options();
        let ckpt_err = |e: hdx_tensor::ckpt::CkptError| fail(ErrorKind::checkpoint(e));
        let verb = req.verb_index();
        let (satisfied, searches, result) = match v1::VERBS[verb].name {
            "resume" => {
                let ckpt = req.opts.checkpoint.as_ref();
                let ckpt = ckpt.ok_or_else(|| fail(ErrorKind::MissingField { key: "ckpt" }))?;
                let snapshot = SearchCheckpoint::load(&ckpt.path).map_err(ckpt_err)?;
                let result = resume_search(&ctx, &opts, &snapshot).map_err(ckpt_err)?;
                (result.in_constraint, 1, result)
            }
            "meta" => {
                let constraint = *req
                    .opts
                    .constraints
                    .first()
                    .expect("meta-search requests carry a constraint (parser-enforced)");
                let outcome = constrained_meta_search(&ctx, &opts, constraint, req.max_searches);
                (outcome.satisfied, outcome.searches, outcome.result)
            }
            _ => {
                let result = try_run_search(&ctx, &opts).map_err(ckpt_err)?;
                (result.in_constraint, 1, result)
            }
        };
        let report = SearchReport::from_result(req, &result, searches, satisfied);
        self.steps_used
            .fetch_add(report.steps_used, Ordering::Relaxed);
        self.verb_counts[verb].fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }
}

impl std::fmt::Debug for TaskService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskService")
            .field("task", &self.task)
            .field("seed", &self.seed)
            .field("served", &self.stats().served())
            .finish()
    }
}
