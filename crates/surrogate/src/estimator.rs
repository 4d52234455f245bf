//! The estimator network `est()` — a five-layer residual MLP mapping
//! the joint (architecture, hardware) encoding to hardware metrics.

use crate::dataset::PairSet;
use crate::encode::{joint_dim, TargetStats};
use hdx_nas::NetworkPlan;
use hdx_tensor::ckpt::{Checkpoint, CkptError};
use hdx_tensor::{
    bank_key, Adam, Binding, ExecMode, ParamStore, Program, ResidualMlp, Rng, SessionBank, Tape,
    Tensor, Var,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// [`Estimator::train`] invocations (a meta-search retrains several).
static OBS_TRAIN_CALLS: hdx_obs::Counter = hdx_obs::Counter::new("surrogate.train.calls");
/// Total training pairs across all [`Estimator::train`] calls.
static OBS_TRAIN_PAIRS: hdx_obs::Counter = hdx_obs::Counter::new("surrogate.train.pairs");
/// Microbatch shard gradient computations fanned out by training. The
/// shard decomposition is fixed (independent of the worker count), so
/// this counts the same at every `HDX_JOBS` value.
static OBS_TRAIN_SHARDS: hdx_obs::Counter = hdx_obs::Counter::new("surrogate.train.shards");

/// Estimator hyper-parameters.
///
/// The paper pre-trains for 200 epochs with batch 256 and Adam 1e-4 on
/// 10.8 M pairs; the defaults here are scaled to the CPU budget (the
/// training-set size is chosen by the caller via [`PairSet::sample`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Hidden width of the residual MLP.
    pub hidden: usize,
    /// Total layer count (the paper uses 5).
    pub depth: usize,
    /// Pre-training epochs.
    pub epochs: usize,
    /// Pre-training batch size (paper: 256).
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Worker threads for sharded batch gradients and evaluation
    /// (`0` = auto, `1` = sequential). Results are bit-identical at
    /// every worker count; see [`Estimator::train`].
    pub jobs: usize,
    /// Execution engine for the training step: compiled replay
    /// (default) or the fresh-record reference path. Both produce
    /// bit-identical results (`tests/determinism.rs`).
    pub exec: ExecMode,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            depth: 5,
            epochs: 25,
            batch: 256,
            lr: 1e-3,
            jobs: 0,
            exec: ExecMode::auto(),
        }
    }
}

/// The pre-trained, frozen hardware-metric estimator.
#[derive(Debug)]
pub struct Estimator {
    cfg: EstimatorConfig,
    input_dim: usize,
    params: ParamStore,
    mlp: ResidualMlp,
    stats: TargetStats,
}

impl Estimator {
    /// Allocates an (untrained) estimator for a network plan.
    pub fn new(plan: &NetworkPlan, cfg: EstimatorConfig, rng: &mut Rng) -> Self {
        let input_dim = joint_dim(plan.num_layers());
        let mut params = ParamStore::new();
        let mlp = ResidualMlp::new(&mut params, input_dim, cfg.hidden, 3, cfg.depth, rng);
        Self {
            cfg,
            input_dim,
            params,
            mlp,
            stats: TargetStats {
                mean: [0.0; 3],
                std: [1.0; 3],
            },
        }
    }

    /// Input feature dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The target normalization statistics (set by [`Estimator::train`]).
    pub fn stats(&self) -> &TargetStats {
        &self.stats
    }

    /// Overrides the pre-training schedule for **continued** training
    /// (the incremental `train-and-save --init-bundle` flow): a
    /// checkpoint-loaded estimator keeps its architecture and weights
    /// but trains for `epochs` more epochs over `jobs` workers on
    /// whatever pair set the caller supplies next. Architecture
    /// hyper-parameters (width/depth) stay fixed at construction —
    /// they shape the parameter stores.
    pub fn set_training_schedule(&mut self, epochs: usize, lr: f32, jobs: usize) {
        self.cfg.epochs = epochs;
        self.cfg.lr = lr;
        self.cfg.jobs = jobs;
    }

    /// Pre-trains on a pair set (Adam, MSE in z-scored log space) and
    /// returns the final epoch's mean training loss.
    ///
    /// Each minibatch gradient is computed as a weighted sum over
    /// fixed-size microbatch shards (see `Estimator::batch_gradients`),
    /// fanned out over [`EstimatorConfig::jobs`] worker threads. The
    /// shard decomposition is independent of the worker count, and the
    /// shard results are merged in shard order, so training is
    /// **bit-identical** at every worker count: only the optimizer's
    /// (single-threaded) update consumes the merged gradient.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or its dimension mismatches.
    pub fn train(&mut self, pairs: &PairSet, rng: &mut Rng) -> f32 {
        let _span = hdx_obs::span("surrogate.train");
        OBS_TRAIN_CALLS.incr();
        OBS_TRAIN_PAIRS.add(pairs.len() as u64);
        assert!(!pairs.is_empty(), "train: empty pair set");
        assert_eq!(
            pairs.dim(),
            self.input_dim,
            "train: pair dimension mismatch"
        );
        self.stats = *pairs.stats();
        // Resolve the worker-count policy (env read, CPU probe) once per
        // training run, not once per minibatch.
        let jobs = hdx_tensor::num_jobs(self.cfg.jobs);
        let compiled = matches!(self.cfg.exec, ExecMode::Compiled);
        let mut opt = Adam::new(self.cfg.lr);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let mut last_epoch_loss = f32::NAN;
        for _ in 0..self.cfg.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(self.cfg.batch) {
                let (loss, grads) = if compiled {
                    self.batch_gradients_replay(pairs, chunk, jobs)
                } else {
                    self.batch_gradients(pairs, chunk, jobs)
                };
                epoch_loss += loss;
                batches += 1;
                opt.step(&mut self.params, &grads);
            }
            last_epoch_loss = epoch_loss / batches.max(1) as f32;
        }
        last_epoch_loss
    }

    /// Rows per microbatch shard of one gradient step. Fixed (not
    /// derived from the worker count) so the shard decomposition — and
    /// with it every floating-point sum — is the same no matter how
    /// many threads execute the shards.
    const SHARD_ROWS: usize = 32;

    /// Loss and parameter gradients of one minibatch.
    ///
    /// The minibatch is split into [`Self::SHARD_ROWS`]-row shards;
    /// each shard runs forward/backward on its own [`Tape`] against the
    /// shared frozen parameters, and the per-shard results are merged
    /// sequentially in shard order, each weighted by its row fraction
    /// (`mse` averages over elements, so the weighted sum equals the
    /// full-batch objective). `jobs` must already be resolved to a
    /// concrete worker count by the caller.
    fn batch_gradients(
        &self,
        pairs: &PairSet,
        chunk: &[usize],
        jobs: usize,
    ) -> (f32, Vec<Option<Tensor>>) {
        let shards: Vec<&[usize]> = chunk.chunks(Self::SHARD_ROWS).collect();
        OBS_TRAIN_SHARDS.add(shards.len() as u64);
        let results = hdx_tensor::parallel_map(&shards, jobs, |_, shard| {
            let (x, t) = pairs.batch(shard);
            let mut tape = Tape::new();
            let binding = self.params.bind(&mut tape);
            let xv = tape.leaf(x);
            let tv = tape.leaf(t);
            let pred = self.mlp.forward(&mut tape, &binding, xv);
            let loss = tape.mse(pred, tv);
            let value = tape.value(loss).item();
            let grads = tape.backward(loss);
            (value, binding.gradients(&grads), shard.len())
        });

        let n = chunk.len() as f32;
        let mut total_loss = 0.0f32;
        let mut merged: Vec<Option<Tensor>> = vec![None; self.params.len()];
        for (value, grads, rows) in results {
            let w = rows as f32 / n;
            total_loss += w * value;
            for (slot, g) in merged.iter_mut().zip(grads) {
                let Some(mut g) = g else { continue };
                for v in g.data_mut() {
                    *v *= w;
                }
                match slot {
                    Some(acc) => {
                        for (a, b) in acc.data_mut().iter_mut().zip(g.data()) {
                            *a += b;
                        }
                    }
                    None => *slot = Some(g),
                }
            }
        }
        (total_loss, merged)
    }

    /// Records the shard training graph (bind parameters, forward,
    /// MSE) for a fixed row count and compiles it for replay.
    fn compile_shard(&self, rows: usize) -> (Program, ShardVars) {
        let mut tape = Tape::new();
        let binding = self.params.bind(&mut tape);
        let x = tape.leaf(Tensor::zeros(&[rows, self.input_dim]));
        let t = tape.leaf(Tensor::zeros(&[rows, 3]));
        let pred = self.mlp.forward(&mut tape, &binding, x);
        let loss = tape.mse(pred, t);
        let param_vars: Vec<Var> = (0..self.params.len())
            .map(|i| binding.var(self.params.id(i)))
            .collect();
        // Parameter gradients are the only ones the optimizer
        // consumes; pruning the batch leaves skips the (large)
        // input-gradient matmul of the first layer.
        let prog = Program::compile_with_sinks(&tape, &[loss], &[], &param_vars);
        (
            prog,
            ShardVars {
                param_vars,
                x,
                t,
                loss,
            },
        )
    }

    /// The [`SessionBank`] fingerprint of one shard program. The graph
    /// topology and every baked value are pure functions of the MLP
    /// dimensions and the shard row count — parameters, inputs, and
    /// targets are all rebound before each replay — so estimators with
    /// the same architecture share compiled programs and sessions
    /// across [`Estimator::train`] calls (a meta-search retrains
    /// several).
    fn shard_key(&self, rows: usize) -> u64 {
        bank_key(
            "estimator-shard",
            &(self.input_dim, self.cfg.hidden, self.cfg.depth, rows),
        )
    }

    /// [`Estimator::batch_gradients`] on the compiled replay engine:
    /// identical shard decomposition and merge order (so the result is
    /// bit-identical to the fresh-record path at every worker count),
    /// but each shard rebinds and replays a session leased from the
    /// process-wide [`SessionBank`] instead of re-recording the graph —
    /// zero per-step graph allocations, and zero per-call compilations
    /// once a (config, shard size) pair has been seen by any estimator.
    fn batch_gradients_replay(
        &self,
        pairs: &PairSet,
        chunk: &[usize],
        jobs: usize,
    ) -> (f32, Vec<Option<Tensor>>) {
        let shards: Vec<&[usize]> = chunk.chunks(Self::SHARD_ROWS).collect();
        OBS_TRAIN_SHARDS.add(shards.len() as u64);
        // Explicit contiguous worker ranges: which worker replays which
        // shard affects only session reuse, never the results. Workers
        // left over after the shard fan-out go to each session's own
        // row-parallel kernels (a single large shard still uses every
        // core).
        let workers = jobs.min(shards.len()).max(1);
        let session_jobs = (jobs / workers).max(1);
        let per = shards.len().div_ceil(workers);
        let ranges: Vec<std::ops::Range<usize>> = (0..workers)
            .map(|w| w * per..((w + 1) * per).min(shards.len()))
            .collect();
        let worker_results = hdx_tensor::parallel_map(&ranges, workers, |_, range| {
            // One lease per shard size, held for the whole range.
            let mut leases = BTreeMap::new();
            range
                .clone()
                .map(|s| {
                    let shard = shards[s];
                    let lease = leases.entry(shard.len()).or_insert_with(|| {
                        SessionBank::global().checkout(
                            self.shard_key(shard.len()),
                            session_jobs,
                            || self.compile_shard(shard.len()),
                        )
                    });
                    let sv: Arc<ShardVars> = lease.meta();
                    let sess = lease.session();
                    for (i, (_, tensor)) in self.params.iter().enumerate() {
                        sess.bind(sv.param_vars[i], tensor.data());
                    }
                    pairs.fill_inputs(shard, sess.leaf_mut(sv.x));
                    pairs.fill_targets(shard, sess.leaf_mut(sv.t));
                    sess.forward();
                    sess.backward(sv.loss);
                    let value = sess.scalar(sv.loss);
                    let mut flat = vec![0.0f32; self.params.num_scalars()];
                    let mut off = 0;
                    for (i, (_, tensor)) in self.params.iter().enumerate() {
                        let g = sess
                            .grad(sv.param_vars[i])
                            .expect("every estimator parameter receives a gradient");
                        flat[off..off + tensor.len()].copy_from_slice(g);
                        off += tensor.len();
                    }
                    (value, flat, shard.len())
                })
                .collect::<Vec<_>>()
        });

        // Merge in shard order with the same weighted arithmetic as the
        // fresh path.
        let n = chunk.len() as f32;
        let mut total_loss = 0.0f32;
        let mut merged: Vec<Option<Tensor>> = vec![None; self.params.len()];
        for (value, flat, rows) in worker_results.into_iter().flatten() {
            let w = rows as f32 / n;
            total_loss += w * value;
            let mut off = 0;
            for (slot, (_, tensor)) in merged.iter_mut().zip(self.params.iter()) {
                let g = &flat[off..off + tensor.len()];
                off += tensor.len();
                match slot {
                    Some(acc) => {
                        for (a, &b) in acc.data_mut().iter_mut().zip(g) {
                            *a += b * w;
                        }
                    }
                    None => {
                        *slot = Some(Tensor::from_vec(
                            g.iter().map(|&v| v * w).collect(),
                            tensor.shape(),
                        ));
                    }
                }
            }
        }
        (total_loss, merged)
    }

    /// Saves everything a warm start needs — MLP dimensions, trained
    /// weights, target normalization statistics — as checkpoint
    /// sections under `prefix`. A search run against the loaded
    /// estimator is **bit-identical** to one against this instance:
    /// weights and stats round-trip by bit pattern, and they are the
    /// only estimator state the engine reads.
    pub fn save_sections(&self, ckpt: &mut Checkpoint, prefix: &str) {
        ckpt.put_u64(
            &format!("{prefix}.dims"),
            &[3],
            &[
                self.input_dim as u64,
                self.cfg.hidden as u64,
                self.cfg.depth as u64,
            ],
        );
        let mut stats = [0.0f32; 6];
        stats[..3].copy_from_slice(&self.stats.mean);
        stats[3..].copy_from_slice(&self.stats.std);
        ckpt.put_f32(&format!("{prefix}.stats"), &[2, 3], &stats);
        ckpt.put_param_store(&format!("{prefix}.w"), &self.params);
    }

    /// Restores an estimator from sections written by
    /// [`Estimator::save_sections`]. The MLP is rebuilt for `plan` with
    /// the stored dimensions (training hyper-parameters come from
    /// `EstimatorConfig::default()` — they do not affect inference or
    /// the engine's replayed hardware head) and every weight is
    /// overwritten from the checkpoint.
    ///
    /// # Errors
    ///
    /// Typed [`CkptError`]s for missing/misshapen sections or a stored
    /// input dimension that does not match `plan`.
    pub fn load_sections(
        ckpt: &Checkpoint,
        prefix: &str,
        plan: &NetworkPlan,
    ) -> Result<Estimator, CkptError> {
        let (shape, dims) = ckpt.get_u64(&format!("{prefix}.dims"))?;
        if shape != [3] {
            return Err(CkptError::ShapeMismatch {
                name: format!("{prefix}.dims"),
                expected: vec![3],
                found: shape.to_vec(),
            });
        }
        let expected = joint_dim(plan.num_layers()) as u64;
        if dims[0] != expected {
            return Err(CkptError::Malformed(format!(
                "{prefix}: estimator input dim {} does not match plan ({expected})",
                dims[0]
            )));
        }
        let cfg = EstimatorConfig {
            hidden: usize::try_from(dims[1])
                .map_err(|_| CkptError::Malformed(format!("{prefix}: hidden width overflow")))?,
            depth: usize::try_from(dims[2])
                .map_err(|_| CkptError::Malformed(format!("{prefix}: depth overflow")))?,
            ..EstimatorConfig::default()
        };
        if cfg.depth < 2 {
            return Err(CkptError::Malformed(format!(
                "{prefix}: depth {} below the ResidualMlp minimum of 2",
                cfg.depth
            )));
        }
        let mut est = Estimator::new(plan, cfg, &mut Rng::new(0));
        ckpt.read_param_store_into(&format!("{prefix}.w"), &mut est.params)?;
        let stats = ckpt.get_tensor(&format!("{prefix}.stats"), &[2, 3])?;
        est.stats = TargetStats {
            mean: stats.data()[..3].try_into().expect("3"),
            std: stats.data()[3..].try_into().expect("3"),
        };
        Ok(est)
    }

    /// Writes a single-artifact checkpoint file for this estimator.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), CkptError> {
        let mut ckpt = Checkpoint::new();
        self.save_sections(&mut ckpt, "est");
        ckpt.save(path)
    }

    /// Loads a checkpoint written by [`Estimator::save`].
    ///
    /// # Errors
    ///
    /// I/O plus every [`Estimator::load_sections`] error.
    pub fn load(path: &Path, plan: &NetworkPlan) -> Result<Estimator, CkptError> {
        Estimator::load_sections(&Checkpoint::load(path)?, "est", plan)
    }

    /// The (frozen) estimator weight store.
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Binds the (frozen) estimator weights onto a tape.
    pub fn bind(&self, tape: &mut Tape) -> Binding {
        self.params.bind(tape)
    }

    /// Builds the normalized-log prediction `[rows, 3]` on the tape.
    pub fn predict_norm(&self, tape: &mut Tape, binding: &Binding, input: Var) -> Var {
        self.mlp.forward(tape, binding, input)
    }

    /// Builds physical-unit metric predictions `(latency_ms, energy_mj,
    /// area_mm2)` as scalar vars for a single `[1, dim]` input.
    pub fn predict_metrics(
        &self,
        tape: &mut Tape,
        binding: &Binding,
        input: Var,
    ) -> (Var, Var, Var) {
        let norm = self.predict_norm(tape, binding, input);
        let mut out = Vec::with_capacity(3);
        for m in 0..3 {
            let z = tape.slice_cols(norm, m, m + 1);
            let logv = tape.scale(z, self.stats.std[m]);
            let shifted = tape.add_scalar(logv, self.stats.mean[m]);
            out.push(tape.exp(shifted));
        }
        (out[0], out[1], out[2])
    }

    /// Convenience: physical-unit predictions for a raw input row,
    /// without touching an external tape.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn predict_raw(&self, input: &[f32]) -> [f64; 3] {
        assert_eq!(
            input.len(),
            self.input_dim,
            "predict_raw: input dimension mismatch"
        );
        let mut tape = Tape::new();
        let binding = self.bind(&mut tape);
        let xv = tape.leaf(Tensor::from_vec(input.to_vec(), &[1, self.input_dim]));
        let norm = self.predict_norm(&mut tape, &binding, xv);
        let z = tape.value(norm);
        [
            self.stats.denormalize_log(0, z.at(0, 0)),
            self.stats.denormalize_log(1, z.at(0, 1)),
            self.stats.denormalize_log(2, z.at(0, 2)),
        ]
    }

    /// Fraction of pairs whose predictions are within `tol` relative
    /// error on **all three** metrics (the paper reports estimator
    /// "accuracy" > 99 %).
    pub fn within_tolerance(&self, pairs: &PairSet, tol: f64) -> f64 {
        let indices: Vec<usize> = (0..pairs.len()).collect();
        let hits = hdx_tensor::parallel_map(&indices, self.cfg.jobs, |_, &i| {
            let pred = self.predict_raw(pairs.input_row(i));
            let truth = pairs.target_raw(i);
            (0..3).all(|m| (pred[m] - truth[m]).abs() / truth[m] <= tol)
        });
        let ok = hits.into_iter().filter(|h| *h).count();
        ok as f64 / pairs.len().max(1) as f64
    }
}

/// The vars a shard replay must rebind (parameters in allocation
/// order, batch input, batch target) — the [`SessionBank`] metadata of
/// one compiled shard program.
#[derive(Debug)]
struct ShardVars {
    param_vars: Vec<Var>,
    x: Var,
    t: Var,
    loss: Var,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_nas::NetworkPlan;

    #[test]
    fn untrained_estimator_has_identity_stats() {
        let mut rng = Rng::new(0);
        let est = Estimator::new(
            &NetworkPlan::cifar18(),
            EstimatorConfig::default(),
            &mut rng,
        );
        assert_eq!(est.stats().mean, [0.0; 3]);
        assert_eq!(est.input_dim(), 114);
    }

    #[test]
    fn training_reduces_loss_and_predicts_reasonably() {
        let plan = NetworkPlan::cifar18();
        let mut rng = Rng::new(1);
        let pairs = PairSet::sample(&plan, 1200, &mut rng);
        let cfg = EstimatorConfig {
            epochs: 40,
            batch: 64,
            lr: 3e-3,
            ..Default::default()
        };
        let mut est = Estimator::new(&plan, cfg, &mut rng);
        let acc_before = est.within_tolerance(&pairs, 0.10);
        let final_loss = est.train(&pairs, &mut rng);
        let acc_after = est.within_tolerance(&pairs, 0.10);
        assert!(final_loss < 0.15, "final training loss {final_loss}");
        assert!(
            acc_after > acc_before && acc_after > 0.5,
            "within-10% accuracy {acc_after:.3} (was {acc_before:.3})"
        );
    }

    #[test]
    fn predict_metrics_matches_predict_raw() {
        let plan = NetworkPlan::cifar18();
        let mut rng = Rng::new(2);
        let pairs = PairSet::sample(&plan, 200, &mut rng);
        let mut est = Estimator::new(
            &plan,
            EstimatorConfig {
                epochs: 3,
                ..Default::default()
            },
            &mut rng,
        );
        est.train(&pairs, &mut rng);
        let row = pairs.input_row(0).to_vec();
        let raw = est.predict_raw(&row);
        let mut tape = Tape::new();
        let binding = est.bind(&mut tape);
        let xv = tape.leaf(Tensor::from_vec(row.clone(), &[1, row.len()]));
        let (l, e, a) = est.predict_metrics(&mut tape, &binding, xv);
        assert!((tape.value(l).item() as f64 - raw[0]).abs() / raw[0] < 1e-4);
        assert!((tape.value(e).item() as f64 - raw[1]).abs() / raw[1] < 1e-4);
        assert!((tape.value(a).item() as f64 - raw[2]).abs() / raw[2] < 1e-4);
    }

    #[test]
    fn estimator_checkpoint_round_trip_is_bit_identical() {
        let plan = NetworkPlan::cifar18();
        let mut rng = Rng::new(5);
        let pairs = PairSet::sample(&plan, 300, &mut rng);
        let mut est = Estimator::new(
            &plan,
            EstimatorConfig {
                epochs: 4,
                ..Default::default()
            },
            &mut rng,
        );
        est.train(&pairs, &mut rng);

        let mut ckpt = Checkpoint::new();
        est.save_sections(&mut ckpt, "est");
        let back = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("parse");
        let loaded = Estimator::load_sections(&back, "est", &plan).expect("load");

        assert_eq!(loaded.stats(), est.stats());
        for (id, t) in est.params().iter() {
            assert_eq!(loaded.params().get(id).data(), t.data());
        }
        for i in (0..pairs.len()).step_by(17) {
            assert_eq!(
                loaded.predict_raw(pairs.input_row(i)),
                est.predict_raw(pairs.input_row(i)),
                "prediction diverged on pair {i}"
            );
        }

        // A plan with a different layer count is rejected.
        assert!(matches!(
            Estimator::load_sections(&back, "est", &NetworkPlan::imagenet21()),
            Err(CkptError::Malformed(_))
        ));
        // A missing prefix is a typed error.
        assert!(matches!(
            Estimator::load_sections(&back, "nope", &plan),
            Err(CkptError::MissingSection(_))
        ));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn predict_raw_rejects_wrong_dim() {
        let mut rng = Rng::new(3);
        let est = Estimator::new(
            &NetworkPlan::cifar18(),
            EstimatorConfig::default(),
            &mut rng,
        );
        let _ = est.predict_raw(&[0.0; 10]);
    }
}
