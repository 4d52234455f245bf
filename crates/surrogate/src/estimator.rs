//! The estimator network `est()` — a five-layer residual MLP mapping
//! the joint (architecture, hardware) encoding to hardware metrics.

use crate::dataset::PairSet;
use crate::encode::{joint_dim, TargetStats};
use hdx_nas::NetworkPlan;
use hdx_tensor::ckpt::{Checkpoint, CkptError};
use hdx_tensor::{
    bank_key, sharded_step, Adam, Binding, ExecMode, ParamStore, ResidualMlp, Rng, ShardStep, Tape,
    Tensor, Var, WorkerPool, SHARD_ROWS,
};
use std::ops::Range;

/// [`Estimator::train`] invocations (a meta-search retrains several).
static OBS_TRAIN_CALLS: hdx_obs::Counter = hdx_obs::Counter::new("surrogate.train.calls");
/// Total training pairs across all [`Estimator::train`] calls.
static OBS_TRAIN_PAIRS: hdx_obs::Counter = hdx_obs::Counter::new("surrogate.train.pairs");
/// Microbatch shard gradient computations fanned out by training. The
/// shard decomposition is fixed (independent of the worker count), so
/// this counts the same at every `HDX_JOBS` value.
static OBS_TRAIN_SHARDS: hdx_obs::Counter = hdx_obs::Counter::new("surrogate.train.shards");

/// Hidden width of the estimator's residual MLP.
pub const HIDDEN: usize = 64;
/// Total layer count of the estimator's residual MLP (the paper's 5).
pub const DEPTH: usize = 5;

/// Estimator pre-training hyper-parameters. The MLP's shape is fixed
/// ([`HIDDEN`] × [`DEPTH`]), as the generator's is; only the training
/// schedule varies by caller.
///
/// The paper pre-trains for 200 epochs with batch 256 and Adam 1e-4 on
/// 10.8 M pairs; the defaults here are scaled to the CPU budget (the
/// training-set size is chosen by the caller via [`PairSet::sample`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
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
            epochs: 25,
            batch: 256,
            lr: 1e-3,
            jobs: 0,
            exec: ExecMode::Compiled,
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
        let mlp = ResidualMlp::new(&mut params, input_dim, HIDDEN, 3, DEPTH, rng);
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
    /// whatever pair set the caller supplies next.
    pub fn set_training_schedule(&mut self, epochs: usize, lr: f32, jobs: usize) {
        self.cfg.epochs = epochs;
        self.cfg.lr = lr;
        self.cfg.jobs = jobs;
    }

    /// Pre-trains on a pair set (Adam, MSE in z-scored log space) and
    /// returns the final epoch's mean training loss.
    ///
    /// Each minibatch gradient is one [`sharded_step`]: a weighted sum
    /// over fixed-size microbatch shards fanned out over
    /// [`EstimatorConfig::jobs`] worker threads and merged in shard
    /// order, so training is **bit-identical** at every worker count
    /// and on both execution engines: only the optimizer's
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
        // Resolve the worker-count policy (env read, CPU probe) and
        // start the workers once per training run, not once per
        // minibatch.
        let pool = WorkerPool::new(hdx_tensor::num_jobs(self.cfg.jobs));
        let mut opt = Adam::new(self.cfg.lr);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let mut last_epoch_loss = f32::NAN;
        for _ in 0..self.cfg.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(self.cfg.batch) {
                OBS_TRAIN_SHARDS.add(chunk.len().div_ceil(SHARD_ROWS) as u64);
                let step = TrainStep {
                    est: self,
                    pairs,
                    chunk,
                };
                let (loss, grads) = sharded_step(&step, chunk.len(), &pool, self.cfg.exec);
                epoch_loss += loss;
                batches += 1;
                opt.step(&mut self.params, &grads);
            }
            last_epoch_loss = epoch_loss / batches.max(1) as f32;
        }
        last_epoch_loss
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
            &[self.input_dim as u64, HIDDEN as u64, DEPTH as u64],
        );
        let mut stats = [0.0f32; 6];
        stats[..3].copy_from_slice(&self.stats.mean);
        stats[3..].copy_from_slice(&self.stats.std);
        ckpt.put_f32(&format!("{prefix}.stats"), &[2, 3], &stats);
        ckpt.put_param_store(&format!("{prefix}.w"), &self.params);
    }

    /// Restores an estimator from sections written by
    /// [`Estimator::save_sections`]. The MLP is rebuilt for `plan`
    /// (training hyper-parameters come from `EstimatorConfig::default()`
    /// — they do not affect inference or the engine's replayed hardware
    /// head) and every weight is overwritten from the checkpoint, each
    /// section's shape checked against the rebuilt store's.
    ///
    /// # Errors
    ///
    /// Typed [`CkptError`]s for missing/misshapen sections, or stored
    /// dims other than `[joint_dim(plan), HIDDEN, DEPTH]` (checked
    /// before anything is allocated).
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
        let expected = [
            joint_dim(plan.num_layers()) as u64,
            HIDDEN as u64,
            DEPTH as u64,
        ];
        if dims != expected {
            return Err(CkptError::Malformed(format!(
                "{prefix}: estimator dims {dims:?} do not match [input, hidden, depth] = \
                 {expected:?}"
            )));
        }
        let mut est = Estimator::new(plan, EstimatorConfig::default(), &mut Rng::new(0));
        ckpt.read_param_store_into(&format!("{prefix}.w"), &mut est.params)?;
        let stats = ckpt.get_tensor(&format!("{prefix}.stats"), &[2, 3])?;
        est.stats = TargetStats {
            mean: stats.data()[..3].try_into().expect("3"),
            std: stats.data()[3..].try_into().expect("3"),
        };
        Ok(est)
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
    /// area_mm2)` as scalar vars for a single `[1, dim]` input. The
    /// normalization statistics enter as `[1, 1]` leaves, not baked
    /// constants, so a compiled graph serves every same-shaped
    /// estimator once its leaves are bound.
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
            let std = tape.leaf(Tensor::scalar(self.stats.std[m]));
            let logv = tape.mul_scalar_var(z, std);
            let mean = tape.leaf(Tensor::scalar(self.stats.mean[m]));
            let shifted = tape.add(logv, mean);
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

/// One pre-training minibatch as a [`ShardStep`]: the residual MLP's
/// MSE against z-scored targets, over the pairs `chunk` selects (input
/// leaf 0 holds the encodings, leaf 1 the targets).
struct TrainStep<'a> {
    est: &'a Estimator,
    pairs: &'a PairSet,
    chunk: &'a [usize],
}

impl ShardStep for TrainStep<'_> {
    fn params(&self) -> &ParamStore {
        &self.est.params
    }

    fn input_widths(&self) -> Vec<usize> {
        vec![self.est.input_dim, 3]
    }

    /// The graph is a pure function of the MLP dimensions and the shard
    /// row count, so estimators with the same architecture share
    /// compiled programs across [`Estimator::train`] calls (a
    /// meta-search retrains several).
    fn key(&self, rows: usize) -> u64 {
        bank_key(
            "estimator-shard",
            &(self.est.input_dim, HIDDEN, DEPTH, rows),
        )
    }

    fn record(&self, tape: &mut Tape, params: &Binding, inputs: &[Var], _: &[usize]) -> Var {
        let pred = self.est.mlp.forward(tape, params, inputs[0]);
        tape.mse(pred, inputs[1])
    }

    fn fill(&self, input: usize, rows: Range<usize>, out: &mut [f32]) {
        match input {
            0 => self.pairs.fill_inputs(&self.chunk[rows], out),
            _ => self.pairs.fill_targets(&self.chunk[rows], out),
        }
    }
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
        let pairs = PairSet::sample(&plan, 1200, &mut rng, 0);
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
        let pairs = PairSet::sample(&plan, 200, &mut rng, 0);
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
        let pairs = PairSet::sample(&plan, 300, &mut rng, 0);
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
