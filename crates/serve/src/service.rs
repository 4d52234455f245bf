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
    // Requests served, per verb, indexed by `SearchRequest::verb_index`
    // (search/grid/meta/resume); `served` is their sum.
    verb_counts: [AtomicU64; 4],
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
        let verb = |i: usize| self.verb_counts[i].load(Ordering::Relaxed);
        let verbs = v1::VerbCounts {
            search: verb(0),
            grid: verb(1),
            meta: verb(2),
            resume: verb(3),
        };
        v1::TaskStats {
            task: self.task,
            bundle_seed: self.seed,
            served: verbs.total(),
            steps_used: self.steps_used.load(Ordering::Relaxed),
            verbs,
        }
    }

    /// Runs one expanded job to completion (a plain search, a
    /// meta-search, or a checkpoint resume).
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
        let report = if req.resume_from_checkpoint {
            let ckpt = req.opts.checkpoint.as_ref();
            let ckpt = ckpt.ok_or_else(|| fail(ErrorKind::MissingField { key: "ckpt" }))?;
            let snapshot = SearchCheckpoint::load(&ckpt.path).map_err(ckpt_err)?;
            let result = resume_search(&ctx, &opts, &snapshot).map_err(ckpt_err)?;
            let satisfied = result.in_constraint;
            SearchReport::from_result(req, &result, 1, satisfied)
        } else if req.max_searches > 1 {
            let constraint = *req
                .opts
                .constraints
                .first()
                .expect("meta-search requests carry a constraint (parser-enforced)");
            let outcome = constrained_meta_search(&ctx, &opts, constraint, req.max_searches);
            SearchReport::from_result(req, &outcome.result, outcome.searches, outcome.satisfied)
        } else {
            let result = try_run_search(&ctx, &opts).map_err(ckpt_err)?;
            let satisfied = result.in_constraint;
            SearchReport::from_result(req, &result, 1, satisfied)
        };
        self.steps_used
            .fetch_add(report.steps_used, Ordering::Relaxed);
        self.verb_counts[req.verb_index()].fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }
}

impl std::fmt::Debug for TaskService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskService")
            .field("task", &self.task)
            .field("seed", &self.seed)
            .field("served", &self.stats().served)
            .finish()
    }
}
