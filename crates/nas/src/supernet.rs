//! The differentiable supernet (ProxylessNAS-style) and final-network
//! training.
//!
//! Every searchable layer holds six candidate blocks (one per
//! [`crate::ops::OP_SET`] entry) and a vector of architecture logits
//! `α_l ∈ R⁶`. A forward pass mixes the outputs of a *sampled subset*
//! of candidate paths, weighted by the re-normalized softmax of their
//! logits — the path-sampling trick ProxylessNAS uses to keep memory
//! and compute proportional to a single network rather than the whole
//! supernet. Both the block weights `w` and the logits `α` receive
//! gradients through the mixture.
//!
//! The candidate block for op `(k, e)` is a two-layer MLP whose hidden
//! width scales with [`crate::ops::MbConvOp::capacity`]. Blocks form an
//! **additive ensemble**: every layer reads the shared projected
//! features and adds its contribution to an accumulator, so the whole
//! model is a one-hidden-layer network whose effective width is the sum
//! of the chosen blocks' widths. Against the fixed-width random teacher
//! that labels the task (see [`crate::data`]) this makes capacity the
//! *binding* constraint: choosing small ops everywhere underfits the
//! teacher, choosing large ones approaches the label-noise floor —
//! exactly the accuracy/hardware tension the paper searches over.

use crate::arch::Architecture;
use crate::data::Batch;
use crate::ops::OP_SET;
use hdx_tensor::kernels;
use hdx_tensor::{
    bank_key, sharded_step, Binding, CosineLr, ExecMode, Linear, ParamId, ParamStore, Program, Rng,
    Session, Sgd, ShardStep, Tape, Tensor, Var, WorkerPool,
};
use std::ops::Range;
use std::sync::Arc;

mod replay;
pub use replay::SampledReplay;

/// Hyper-parameters of the supernet proxy. The softmax over the
/// architecture logits takes α unscaled (temperature 1, a constant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupernetConfig {
    /// Internal feature width of the backbone.
    pub feature_dim: usize,
    /// Hidden width of the smallest candidate block; other ops scale by
    /// their capacity factor.
    pub base_hidden: usize,
    /// Number of candidate paths sampled per layer per step (≥ 1; 6
    /// disables sampling entirely).
    pub num_paths: usize,
}

impl Default for SupernetConfig {
    fn default() -> Self {
        Self {
            feature_dim: 20,
            base_hidden: 3,
            num_paths: 2,
        }
    }
}

/// One candidate block: `D → h → D` MLP (the proxy for an MBConv op).
#[derive(Debug, Clone)]
struct CandidateBlock {
    l1: Linear,
    l2: Linear,
}

impl CandidateBlock {
    fn new(params: &mut ParamStore, dim: usize, hidden: usize, rng: &mut Rng) -> Self {
        let l1 = Linear::new(params, dim, hidden, rng);
        let l2 = Linear::new(params, hidden, dim, rng);
        // Down-scale the residual branch output at init so deep stacks
        // start near the identity (stabilizes 18–21-layer training).
        let (w2, _) = l2.param_ids();
        let scaled = params.get(w2).scale(0.5);
        params.set(w2, scaled);
        Self { l1, l2 }
    }

    fn forward(&self, tape: &mut Tape, w: &Binding, x: Var) -> Var {
        let h = self.l1.forward(tape, w, x);
        let h = tape.relu(h);
        self.l2.forward(tape, w, h)
    }

    /// Parameter ids in allocation order: `l1` weight and bias, then
    /// `l2` weight and bias.
    fn param_ids(&self) -> [ParamId; 4] {
        let ((w1, b1), (w2, b2)) = (self.l1.param_ids(), self.l2.param_ids());
        [w1, b1, w2, b2]
    }
}

/// The searchable supernet: backbone weights `w` plus architecture
/// logits `α` (one `[1, 6]` tensor per layer).
///
/// # Example
///
/// ```
/// use hdx_nas::{Supernet, SupernetConfig, TaskSpec, Dataset};
/// use hdx_tensor::{Rng, Tape};
///
/// let mut rng = Rng::new(0);
/// let spec = TaskSpec::cifar_like(0);
/// let net = Supernet::new(18, spec.feature_dim, spec.num_classes, SupernetConfig::default(), &mut rng);
/// let ds = Dataset::generate(&spec);
/// let mut tape = Tape::new();
/// let (w, a) = net.bind(&mut tape);
/// let batch = ds.val_batch(8, &mut rng);
/// let loss = net.task_loss(&mut tape, &w, &a, &batch, &mut rng);
/// assert!(tape.value(loss).item().is_finite());
/// ```
#[derive(Debug)]
pub struct Supernet {
    cfg: SupernetConfig,
    num_layers: usize,
    num_classes: usize,
    w: ParamStore,
    alpha: ParamStore,
    input: Linear,
    classifier: Linear,
    blocks: Vec<Vec<CandidateBlock>>,
}

impl Supernet {
    /// Builds a supernet with `num_layers` searchable layers over
    /// `in_dim`-dimensional inputs and `num_classes` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_paths` is zero or exceeds the op count.
    pub fn new(
        num_layers: usize,
        in_dim: usize,
        num_classes: usize,
        cfg: SupernetConfig,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            (1..=OP_SET.len()).contains(&cfg.num_paths),
            "num_paths must be in 1..={}, got {}",
            OP_SET.len(),
            cfg.num_paths
        );
        let mut w = ParamStore::new();
        let input = Linear::new(&mut w, in_dim, cfg.feature_dim, rng);
        let blocks = (0..num_layers)
            .map(|_| {
                OP_SET
                    .iter()
                    .map(|op| {
                        let hidden = ((cfg.base_hidden as f32) * op.capacity()).round() as usize;
                        CandidateBlock::new(&mut w, cfg.feature_dim, hidden.max(4), rng)
                    })
                    .collect()
            })
            .collect();
        let classifier = Linear::new(&mut w, cfg.feature_dim, num_classes, rng);

        let mut alpha = ParamStore::new();
        for _ in 0..num_layers {
            // Small random symmetric init keeps early search unbiased.
            alpha.alloc(Tensor::randn(&[1, OP_SET.len()], 1e-3, rng));
        }

        Self {
            cfg,
            num_layers,
            num_classes,
            w,
            alpha,
            input,
            classifier,
            blocks,
        }
    }

    /// Number of searchable layers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Number of task classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Backbone weight store (read-only).
    pub fn w_store(&self) -> &ParamStore {
        &self.w
    }

    /// Backbone weight store (for the `w` optimizer).
    pub fn w_store_mut(&mut self) -> &mut ParamStore {
        &mut self.w
    }

    /// Architecture logit store (read-only).
    pub fn alpha_store(&self) -> &ParamStore {
        &self.alpha
    }

    /// Architecture logit store (for the `α` optimizer).
    pub fn alpha_store_mut(&mut self) -> &mut ParamStore {
        &mut self.alpha
    }

    /// Binds `(w, α)` onto a tape for one step.
    pub fn bind(&self, tape: &mut Tape) -> (Binding, Binding) {
        (self.w.bind(tape), self.alpha.bind(tape))
    }

    /// The flattened `[1, 6·L]` differentiable architecture encoding:
    /// per-layer softmax(α), concatenated layer-major.
    ///
    /// This is the encoding consumed by the generator and estimator
    /// surrogates, so hardware gradients flow back into α through it.
    pub fn arch_encoding(&self, tape: &mut Tape, alpha: &Binding) -> Var {
        let mut parts = Vec::with_capacity(self.num_layers);
        for l in 0..self.num_layers {
            let logits = alpha.var(self.alpha.id(l));
            parts.push(tape.softmax_rows(logits));
        }
        tape.concat_cols(&parts)
    }

    /// Current (non-differentiable) architecture distribution, flattened
    /// `6·L` softmax probabilities.
    pub fn arch_probs(&self) -> Vec<f32> {
        let mut probs = Vec::with_capacity(self.num_layers * OP_SET.len());
        for l in 0..self.num_layers {
            let logits = self.alpha.get(self.alpha.id(l));
            probs.extend_from_slice(logits.softmax_rows().data());
        }
        probs
    }

    /// The current dominant discrete architecture (arg-max per layer).
    pub fn architecture(&self) -> Architecture {
        Architecture::from_distribution(&self.arch_probs())
    }

    /// Builds the mixed-path task loss (cross-entropy) for a batch.
    ///
    /// Paths are sampled per layer according to the current softmax(α);
    /// the sampled paths' weights are re-normalized so the mixture stays
    /// differentiable in α.
    pub fn task_loss(
        &self,
        tape: &mut Tape,
        w: &Binding,
        alpha: &Binding,
        batch: &Batch,
        rng: &mut Rng,
    ) -> Var {
        let logits = self.forward_logits(tape, w, alpha, batch, rng);
        tape.cross_entropy_logits(logits, &batch.y)
    }

    /// Forward pass producing classifier logits for a batch, over the
    /// paths [`Supernet::sample_step_paths`] draws from `rng`.
    pub fn forward_logits(
        &self,
        tape: &mut Tape,
        w: &Binding,
        alpha: &Binding,
        batch: &Batch,
        rng: &mut Rng,
    ) -> Var {
        let x0 = tape.leaf(batch.x.clone());
        let chosen = self.sample_step_paths(rng);
        self.forward_logits_chosen(tape, w, alpha, x0, &chosen)
    }

    /// Samples one step's per-layer path sets from the current
    /// softmax(α) distribution, consuming the RNG exactly as
    /// [`Supernet::forward_logits`] does (one `sample_paths`
    /// call per layer, in layer order, over bit-identical
    /// probabilities — the tape's `softmax_rows` and the store-side
    /// tensor op share kernels). This is the replay hook
    /// [`SampledReplay`] uses to sample *outside* the graph, then chain
    /// the bank-cached layer segments compiled for the chosen sets.
    ///
    /// With `num_paths == OP_SET.len()` no randomness is consumed (the
    /// full mixture is static).
    pub fn sample_step_paths(&self, rng: &mut Rng) -> Vec<Vec<usize>> {
        (0..self.num_layers)
            .map(|l| {
                let probs = self.alpha.get(self.alpha.id(l)).softmax_rows();
                sample_paths(probs.data(), self.cfg.num_paths, rng)
            })
            .collect()
    }

    /// Builds the mixture forward pass over an explicit per-layer path
    /// choice (the topology [`Supernet::sample_step_paths`] sampled):
    /// the stem, one [`Supernet::mix_layer`] per layer, the classifier.
    /// The α bindings are assumed to carry the store's current values,
    /// which every caller in this workspace guarantees (`bind` copies
    /// the store).
    fn forward_logits_chosen(
        &self,
        tape: &mut Tape,
        w: &Binding,
        alpha: &Binding,
        x0: Var,
        chosen_per_layer: &[Vec<usize>],
    ) -> Var {
        let features = self.stem(tape, w, x0);
        let mut acc = features;
        for (l, chosen) in chosen_per_layer.iter().enumerate() {
            let logits = alpha.var(self.alpha.id(l));
            acc = self.mix_layer(tape, w, l, logits, features, acc, chosen);
        }
        self.classifier.forward(tape, w, acc)
    }

    /// The stem: the input projection and its relu, producing the
    /// `features` every layer's blocks read.
    fn stem(&self, tape: &mut Tape, w: &Binding, x0: Var) -> Var {
        let features = self.input.forward(tape, w, x0);
        tape.relu(features)
    }

    /// Records layer `l`'s renormalized mixture over its `chosen`
    /// paths, weighted by softmax(`logits`), and returns
    /// `acc + mixture`. All blocks read the shared `features` (additive
    /// ensemble), so nothing here depends on another layer's choice:
    /// the replay compiles this as a stand-alone layer segment
    /// (`replay.rs`).
    #[allow(clippy::too_many_arguments)]
    fn mix_layer(
        &self,
        tape: &mut Tape,
        w: &Binding,
        l: usize,
        logits: Var,
        features: Var,
        acc: Var,
        chosen: &[usize],
    ) -> Var {
        let probs_var = tape.softmax_rows(logits);
        let slices: Vec<Var> = chosen
            .iter()
            .map(|&o| tape.slice_cols(probs_var, o, o + 1))
            .collect();
        let denom = match slices.len() {
            1 => None,
            _ => {
                let mut acc_s = slices[0];
                for &s in &slices[1..] {
                    acc_s = tape.add(acc_s, s);
                }
                Some(acc_s)
            }
        };
        let mut mixed: Option<Var> = None;
        for (slice, &op) in slices.iter().zip(chosen) {
            let weight = match denom {
                Some(d) => tape.div(*slice, d),
                None => {
                    // Single path: weight ≡ 1 but keep the α path alive
                    // by dividing the slice by its own constant value.
                    // The constant depends on the α value at record
                    // time, which is why the replay never compiles a
                    // single-path segment (its recorder refuses one).
                    let c = tape.value(*slice).item().max(1e-6);
                    tape.scale(*slice, 1.0 / c)
                }
            };
            let out = self.blocks[l][op].forward(tape, w, features);
            let contrib = tape.mul_scalar_var(out, weight);
            mixed = Some(match mixed {
                Some(m) => tape.add(m, contrib),
                None => contrib,
            });
        }
        let mixed = mixed.expect("at least one path sampled");
        tape.add(acc, mixed)
    }

    /// Classification error rate (fraction wrong) on a batch, using the
    /// full (non-sampled) mixture weighted by softmax(α): every path
    /// chosen at every layer.
    pub fn error_rate(&self, batch: &Batch) -> f64 {
        let mut tape = Tape::new();
        let (w, a) = self.bind(&mut tape);
        let x0 = tape.leaf(batch.x.clone());
        let all = vec![(0..OP_SET.len()).collect(); self.num_layers];
        let logits = self.forward_logits_chosen(&mut tape, &w, &a, x0, &all);
        error_from_logits(tape.value(logits), &batch.y)
    }
}

/// Fraction of rows whose arg-max logit disagrees with the label.
pub fn error_from_logits(logits: &Tensor, labels: &[usize]) -> f64 {
    let wrong = labels
        .iter()
        .enumerate()
        .filter(|&(i, &y)| logits.argmax_row(i) != y)
        .count();
    wrong as f64 / labels.len().max(1) as f64
}

/// Samples `n` distinct path indices according to `probs` (first chosen
/// by weight, remainder by renormalized weight over the rest).
fn sample_paths(probs: &[f32], n: usize, rng: &mut Rng) -> Vec<usize> {
    let k = probs.len();
    let n = n.min(k);
    if n == k {
        return (0..k).collect();
    }
    let mut remaining: Vec<usize> = (0..k).collect();
    let mut weights: Vec<f32> = probs.to_vec();
    let mut chosen = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = rng.weighted_index(&weights);
        chosen.push(remaining[idx]);
        remaining.remove(idx);
        weights.remove(idx);
        if weights.iter().all(|&w| w <= 0.0) {
            weights.fill(1.0);
        }
    }
    chosen.sort_unstable();
    chosen
}

/// A discretized final network: the chosen block per layer, trained
/// from scratch (paper §5.1: final architectures are retrained before
/// error is reported).
#[derive(Debug)]
pub struct FinalNet {
    num_classes: usize,
    w: ParamStore,
    input: Linear,
    classifier: Linear,
    blocks: Vec<CandidateBlock>,
}

impl FinalNet {
    /// Builds a fresh (randomly initialized) network realizing `arch`.
    pub fn new(
        arch: &Architecture,
        in_dim: usize,
        num_classes: usize,
        cfg: &SupernetConfig,
        rng: &mut Rng,
    ) -> Self {
        let mut w = ParamStore::new();
        let input = Linear::new(&mut w, in_dim, cfg.feature_dim, rng);
        let blocks = arch
            .choices()
            .iter()
            .map(|&c| {
                let hidden = ((cfg.base_hidden as f32) * OP_SET[c].capacity()).round() as usize;
                CandidateBlock::new(&mut w, cfg.feature_dim, hidden.max(4), rng)
            })
            .collect();
        let classifier = Linear::new(&mut w, cfg.feature_dim, num_classes, rng);
        Self {
            num_classes,
            w,
            input,
            classifier,
            blocks,
        }
    }

    /// Number of task classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The trained network weights (read-only).
    pub fn w_store(&self) -> &ParamStore {
        &self.w
    }

    /// Binds the network weights onto a tape.
    pub fn bind(&self, tape: &mut Tape) -> Binding {
        self.w.bind(tape)
    }

    /// Forward pass producing logits for a batch.
    pub fn forward_logits(&self, tape: &mut Tape, w: &Binding, batch: &Batch) -> Var {
        let x0 = tape.leaf(batch.x.clone());
        self.forward_from(tape, w, x0)
    }

    /// Forward pass from an already-placed input leaf.
    fn forward_from(&self, tape: &mut Tape, w: &Binding, x0: Var) -> Var {
        let features = self.input.forward(tape, w, x0);
        let features = tape.relu(features);
        let mut acc = features;
        for block in &self.blocks {
            let out = block.forward(tape, w, features);
            acc = tape.add(acc, out);
        }
        self.classifier.forward(tape, w, acc)
    }

    /// Trains from scratch with SGD + Nesterov momentum and a cosine
    /// schedule (§5.1) on `exec`, returning the final training loss.
    /// Each minibatch gradient is one [`sharded_step`] on `pool` (the
    /// calling search's pool) — the proxy's 20-wide matmuls sit under
    /// the kernel dispatch threshold, so shard fan-out is how this loop
    /// gets multi-core gains. The trained weights are **bit-identical**
    /// for every engine and pool size (`tests/determinism.rs`).
    pub fn train(
        &mut self,
        dataset: &crate::data::Dataset,
        steps: usize,
        batch_size: usize,
        rng: &mut Rng,
        exec: ExecMode,
        pool: &WorkerPool,
    ) -> f32 {
        // Paper settings scaled to the proxy: momentum 0.9 (Nesterov),
        // weight decay 1e-3, cosine LR. The base LR is raised from the
        // paper's 0.008 because the proxy network is far smaller.
        let mut opt = Sgd::new(0.9, true, 1e-3);
        let sched = CosineLr::new(0.02, steps.max(1));
        let mut last = f32::NAN;
        for step in 0..steps {
            let batch = dataset.train_batch(batch_size, rng);
            let train = TrainStep {
                net: self,
                batch: &batch,
            };
            let (loss, mut collected) = sharded_step(&train, batch.len(), pool, exec);
            last = loss;
            Binding::clip_grad_norm(&mut collected, 5.0);
            opt.step(&mut self.w, &collected, sched.lr(step));
        }
        last
    }

    /// Classification error rate on a batch (fresh-record forward).
    pub fn error_rate(&self, batch: &Batch) -> f64 {
        self.score_fresh(batch).error
    }

    /// Scores `batch` on one freshly recorded tape (the reference path
    /// of [`FinalEval::score`]).
    fn score_fresh(&self, batch: &Batch) -> EvalScore {
        let mut tape = Tape::new();
        let w = self.bind(&mut tape);
        let logits = self.forward_logits(&mut tape, &w, batch);
        let error = error_from_logits(tape.value(logits), &batch.y);
        let ce = tape.cross_entropy_logits(logits, &batch.y);
        EvalScore {
            error,
            ce: tape.value(ce).item(),
        }
    }

    /// An evaluator of the network as it is now (train first). Under
    /// [`ExecMode::Compiled`] it compiles the forward pass once for
    /// [`EVAL_CHUNK`] rows and replays it over each scored batch, with
    /// the session's row-parallel kernels on `pool` (the calling
    /// search's pool). The program is private to the evaluator, not
    /// banked: its key would be unique to this architecture and trained
    /// once, so caching it would only churn the bank's LRU.
    /// [`ExecMode::FreshRecord`] records one tape per batch (the
    /// reference path). Both give bit-identical scores.
    pub fn evaluator<'a>(&'a self, exec: ExecMode, pool: &'a WorkerPool) -> FinalEval<'a> {
        let replay = matches!(exec, ExecMode::Compiled).then(|| {
            let mut tape = Tape::new();
            let w = self.w.bind(&mut tape);
            let x0 = tape.leaf(Tensor::zeros(&[EVAL_CHUNK, self.input.in_features()]));
            let logits = self.forward_from(&mut tape, &w, x0);
            // Programs need a scalar output; only `logits` is read.
            let out = tape.sum(logits);
            let prog = Program::compile_with_sinks(&tape, &[out], &[logits], &[]);
            (Session::new(Arc::new(prog)), x0, logits)
        });
        FinalEval {
            net: self,
            pool,
            replay,
        }
    }
}

/// One retrain minibatch as a [`ShardStep`]: the network's
/// cross-entropy over the batch rows (one input leaf, labels rebound
/// per shard).
struct TrainStep<'a> {
    net: &'a FinalNet,
    batch: &'a Batch,
}

impl ShardStep for TrainStep<'_> {
    fn params(&self) -> &ParamStore {
        &self.net.w
    }

    fn input_widths(&self) -> Vec<usize> {
        vec![self.net.input.in_features()]
    }

    /// Everything baked into the plan is a pure function of the
    /// parameter shapes (which encode in/feature/class dims and the
    /// chosen block widths) and the shard row count.
    fn key(&self, rows: usize) -> u64 {
        let shapes: Vec<&[usize]> = self.net.w.iter().map(|(_, t)| t.shape()).collect();
        bank_key("final-net-shard", &(shapes, rows))
    }

    fn record(&self, tape: &mut Tape, params: &Binding, inputs: &[Var], labels: &[usize]) -> Var {
        let logits = self.net.forward_from(tape, params, inputs[0]);
        tape.cross_entropy_logits(logits, labels)
    }

    fn fill(&self, _: usize, rows: Range<usize>, out: &mut [f32]) {
        let dim = self.net.input.in_features();
        out.copy_from_slice(&self.batch.x.data()[rows.start * dim..rows.end * dim]);
    }

    fn labels(&self, rows: Range<usize>) -> &[usize] {
        &self.batch.y[rows]
    }
}

/// Rows per replay of the compiled evaluation forward. A constant, so
/// the program does not depend on the scored batch sizes; the last
/// chunk of a batch runs part-filled.
pub const EVAL_CHUNK: usize = 256;

/// Argmax error rate and mean cross-entropy of one labeled batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalScore {
    /// Fraction of rows whose argmax logit is not the label.
    pub error: f64,
    /// Mean cross-entropy, accumulated exactly as
    /// [`Tape::cross_entropy_logits`] does.
    pub ce: f32,
}

/// Scores labeled batches on a trained [`FinalNet`]; see
/// [`FinalNet::evaluator`].
#[derive(Debug)]
pub struct FinalEval<'a> {
    net: &'a FinalNet,
    /// The pool the compiled forward's row-parallel kernels run on.
    pool: &'a WorkerPool,
    /// Compiled forward session, its input leaf and its logits.
    replay: Option<(Session, Var, Var)>,
}

impl FinalEval<'_> {
    /// Scores `batch`. The compiled path replays [`EVAL_CHUNK`] rows at
    /// a time; every forward op is row-local, so each row's logits are
    /// bit-identical to a whole-batch fresh record. Errors are counted
    /// per row and the cross-entropy is summed in global row order and
    /// divided by the row count, exactly as
    /// [`Tape::cross_entropy_logits`] does.
    pub fn score(&mut self, batch: &Batch) -> EvalScore {
        let Some((sess, x0, logits)) = self.replay.as_mut() else {
            return self.net.score_fresh(batch);
        };
        let (m, dim, classes) = (
            batch.len(),
            self.net.input.in_features(),
            self.net.num_classes,
        );
        let mut wrong = 0usize;
        let mut loss = 0.0f32;
        for r0 in (0..m).step_by(EVAL_CHUNK) {
            let rows = (m - r0).min(EVAL_CHUNK);
            let x = sess.leaf_mut(*x0);
            x[..rows * dim].copy_from_slice(&batch.x.data()[r0 * dim..(r0 + rows) * dim]);
            // A part-filled tail chunk: zero the unused rows (row-local
            // ops keep them out of the scored rows either way).
            x[rows * dim..].fill(0.0);
            sess.forward_with(Some(self.pool));
            // Each row is scored in place, with the tie rule of
            // `Tensor::argmax_row` and the fold of `Tensor::softmax_rows`.
            let out = &sess.value(*logits)[..rows * classes];
            for (row, &y) in out.chunks_exact(classes).zip(&batch.y[r0..r0 + rows]) {
                assert!(y < classes, "score: target {y} out of range {classes}");
                if kernels::argmax(row) != y {
                    wrong += 1;
                }
                loss -= kernels::softmax_row_at(row, y).max(1e-30).ln();
            }
        }
        EvalScore {
            error: wrong as f64 / m.max(1) as f64,
            ce: loss / m as f32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, TaskSpec};
    use hdx_tensor::{num_jobs, SessionBank};

    /// A pool of the default size (`0` = auto, honoring `HDX_JOBS`).
    fn auto_pool() -> WorkerPool {
        WorkerPool::new(num_jobs(0))
    }

    fn tiny_setup() -> (Supernet, Dataset, Rng) {
        let mut rng = Rng::new(11);
        let spec = TaskSpec {
            train: 256,
            val: 128,
            test: 256,
            ..TaskSpec::cifar_like(1)
        };
        let ds = Dataset::generate(&spec);
        let net = Supernet::new(
            4,
            spec.feature_dim,
            spec.num_classes,
            SupernetConfig::default(),
            &mut rng,
        );
        (net, ds, rng)
    }

    #[test]
    fn alpha_receives_gradients_through_task_loss() {
        let (net, ds, mut rng) = tiny_setup();
        let mut tape = Tape::new();
        let (w, a) = net.bind(&mut tape);
        let batch = ds.train_batch(16, &mut rng);
        let loss = net.task_loss(&mut tape, &w, &a, &batch, &mut rng);
        let grads = tape.backward(loss);
        let a_grads = a.gradients(&grads);
        let nonzero = a_grads
            .iter()
            .flatten()
            .map(Tensor::norm)
            .filter(|n| *n > 0.0)
            .count();
        assert!(
            nonzero > 0,
            "α should receive gradients through the sampled mixture"
        );
    }

    #[test]
    fn arch_encoding_is_row_of_simplexes() {
        let (net, _, _) = tiny_setup();
        let mut tape = Tape::new();
        let (_, a) = net.bind(&mut tape);
        let enc = net.arch_encoding(&mut tape, &a);
        let v = tape.value(enc);
        assert_eq!(v.shape(), &[1, 4 * 6]);
        for l in 0..4 {
            let s: f32 = (0..6).map(|o| v.at(0, l * 6 + o)).sum();
            assert!((s - 1.0).abs() < 1e-5, "layer {l} simplex sums to {s}");
        }
    }

    #[test]
    fn arch_probs_match_encoding() {
        let (net, _, _) = tiny_setup();
        let mut tape = Tape::new();
        let (_, a) = net.bind(&mut tape);
        let enc = net.arch_encoding(&mut tape, &a);
        let probs = net.arch_probs();
        for (i, &p) in probs.iter().enumerate() {
            assert!((p - tape.value(enc).data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn supernet_training_reduces_loss() {
        let (mut net, ds, mut rng) = tiny_setup();
        let mut opt = hdx_tensor::Adam::new(3e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let batch = ds.train_batch(32, &mut rng);
            let mut tape = Tape::new();
            let (w, a) = net.bind(&mut tape);
            let loss = net.task_loss(&mut tape, &w, &a, &batch, &mut rng);
            last = tape.value(loss).item();
            first.get_or_insert(last);
            let grads = tape.backward(loss);
            let collected = w.gradients(&grads);
            opt.step(net.w_store_mut(), &collected);
        }
        let first = first.expect("at least one step");
        assert!(
            last < first * 0.8,
            "training should reduce loss: first {first}, last {last}"
        );
    }

    #[test]
    fn architecture_follows_alpha() {
        let (mut net, _, _) = tiny_setup();
        // Push layer 0 strongly toward op 5.
        let id = net.alpha.id(0);
        net.alpha_store_mut().set(
            id,
            Tensor::from_vec(vec![0.0, 0.0, 0.0, 0.0, 0.0, 5.0], &[1, 6]),
        );
        let arch = net.architecture();
        assert_eq!(arch.choices()[0], 5);
    }

    #[test]
    fn sample_paths_distinct_and_sorted() {
        let mut rng = Rng::new(3);
        for _ in 0..200 {
            let probs = vec![0.1, 0.2, 0.05, 0.3, 0.25, 0.1];
            let paths = sample_paths(&probs, 2, &mut rng);
            assert_eq!(paths.len(), 2);
            assert!(paths[0] < paths[1]);
        }
    }

    #[test]
    fn sample_paths_all_when_n_equals_k() {
        let mut rng = Rng::new(3);
        let paths = sample_paths(&[0.5, 0.5], 2, &mut rng);
        assert_eq!(paths, vec![0, 1]);
    }

    #[test]
    fn final_net_compiled_training_matches_fresh_record() {
        let spec = TaskSpec {
            train: 256,
            val: 64,
            test: 128,
            ..TaskSpec::cifar_like(4)
        };
        let ds = Dataset::generate(&spec);
        let arch = Architecture::uniform(4, 3);
        let run = |exec: ExecMode| {
            let mut rng = Rng::new(21);
            let mut net = FinalNet::new(
                &arch,
                spec.feature_dim,
                spec.num_classes,
                &SupernetConfig::default(),
                &mut rng,
            );
            let loss = net.train(&ds, 40, 16, &mut rng, exec, &WorkerPool::new(1));
            (net, loss)
        };
        let (net_c, loss_c) = run(ExecMode::Compiled);
        let (net_f, loss_f) = run(ExecMode::FreshRecord);
        assert_eq!(loss_c, loss_f, "final losses diverged");
        for (id, t) in net_f.w.iter() {
            assert_eq!(
                net_c.w.get(id).data(),
                t.data(),
                "weights diverged for parameter {}",
                id.index()
            );
        }
    }

    #[test]
    fn final_net_sharded_training_is_worker_invariant() {
        // Batch 80 → three shards (32/32/16): the shard split and merge
        // order are fixed, so every (exec, jobs) combination trains the
        // same bits.
        let spec = TaskSpec {
            train: 256,
            val: 64,
            test: 128,
            ..TaskSpec::cifar_like(7)
        };
        let ds = Dataset::generate(&spec);
        let arch = Architecture::uniform(4, 2);
        let run = |exec: ExecMode, jobs: usize| {
            let mut rng = Rng::new(31);
            let mut net = FinalNet::new(
                &arch,
                spec.feature_dim,
                spec.num_classes,
                &SupernetConfig::default(),
                &mut rng,
            );
            let loss = net.train(&ds, 25, 80, &mut rng, exec, &WorkerPool::new(jobs));
            (net, loss)
        };
        let (net_ref, loss_ref) = run(ExecMode::FreshRecord, 1);
        for (exec, jobs) in [
            (ExecMode::FreshRecord, 3),
            (ExecMode::Compiled, 1),
            (ExecMode::Compiled, 4),
        ] {
            let (net, loss) = run(exec, jobs);
            assert_eq!(loss, loss_ref, "{exec:?} jobs {jobs}: losses diverged");
            for (id, t) in net_ref.w.iter() {
                assert_eq!(
                    net.w.get(id).data(),
                    t.data(),
                    "{exec:?} jobs {jobs}: weights diverged for parameter {}",
                    id.index()
                );
            }
        }
    }

    /// Fresh-records one task step over the paths drawn from
    /// `Rng::new(seed)`, returning the loss, the zero-filled `w`
    /// gradients in store order, the α gradients flattened in layer
    /// order, and the RNG's next draw after recording.
    fn fresh_task_step(
        net: &Supernet,
        batch: &Batch,
        seed: u64,
    ) -> (f32, Vec<Vec<f32>>, Vec<f32>, u64) {
        let mut rng = Rng::new(seed);
        let mut tape = Tape::new();
        let (wb, ab) = net.bind(&mut tape);
        let loss = net.task_loss(&mut tape, &wb, &ab, batch, &mut rng);
        let grads = tape.backward(loss);
        let w = net
            .w_store()
            .iter()
            .map(|(id, t)| grads.wrt_or_zeros(wb.var(id), t.shape()).data().to_vec())
            .collect();
        let alpha = net
            .alpha_store()
            .iter()
            .flat_map(|(id, t)| grads.wrt_or_zeros(ab.var(id), t.shape()).data().to_vec())
            .collect();
        (tape.value(loss).item(), w, alpha, rng.next_u64())
    }

    #[test]
    fn sampled_step_replay_matches_fresh_record() {
        // The sampled-mixture replay contract: sampling outside the
        // graph (sample_step_paths) consumes the RNG identically, and
        // the stem → layer segments → tail chain replays the exact bits
        // of fresh-recording that step — loss, every w gradient, every
        // α gradient — at every worker count, on leases (and dirty
        // sessions) held across steps.
        let (net, ds, _) = tiny_setup();
        let mut rng = Rng::new(11);
        let three = Supernet::new(
            5,
            net.input.in_features(),
            net.num_classes(),
            SupernetConfig {
                num_paths: 3,
                ..SupernetConfig::default()
            },
            &mut rng,
        );
        // Logits peaked on ops 1 and 4: nearly every layer draws the
        // set {1, 4}, so one program runs in several sessions at once.
        let mut twins = Supernet::new(
            6,
            net.input.in_features(),
            net.num_classes(),
            SupernetConfig::default(),
            &mut rng,
        );
        for l in 0..twins.num_layers() {
            let id = twins.alpha_store().id(l);
            let peaked = Tensor::row(&[0.0, 8.0, 0.0, 0.0, 8.0, 0.0]);
            twins.alpha_store_mut().set(id, peaked);
        }
        let mut twin_steps = 0;
        for (name, net) in [("paths2", &net), ("paths3", &three), ("twins", &twins)] {
            let batches: Vec<Batch> = (0..4).map(|_| ds.train_batch(24, &mut rng)).collect();
            for jobs in [1, 2, 4] {
                let bank = SessionBank::new();
                let pool = WorkerPool::new(jobs);
                let mut replay = SampledReplay::new(&bank, &pool);
                for (step, batch) in (0u64..).zip(&batches) {
                    let seed = 100 + step;
                    let chosen = net.sample_step_paths(&mut Rng::new(seed));
                    if chosen
                        .iter()
                        .enumerate()
                        .any(|(l, c)| chosen[..l].contains(c))
                    {
                        twin_steps += usize::from(name == "twins");
                    }
                    let (fresh_loss, fresh_w, fresh_alpha, next) =
                        fresh_task_step(net, batch, seed);

                    let (mut rng_w, mut rng_a) = (Rng::new(seed), Rng::new(seed));
                    let w_grads = replay.w_step(net, batch, &mut rng_w);
                    let (loss, alpha_grads) = replay.alpha_step(net, batch, &mut rng_a);
                    assert_eq!(next, rng_w.next_u64(), "{name} step {step}: w-step RNG");
                    assert_eq!(next, rng_a.next_u64(), "{name} step {step}: α-step RNG");

                    let ctx = format!("{name} jobs {jobs} step {step}");
                    assert_eq!(loss, f64::from(fresh_loss), "{ctx}: loss");
                    // Blocks outside the sampled paths receive no
                    // gradient on either engine; zero-fill the replay
                    // side the way the fresh side is.
                    for ((id, t), fresh) in net.w_store().iter().zip(&fresh_w) {
                        let replayed = w_grads[id.index()]
                            .as_ref()
                            .map_or_else(|| vec![0.0; t.len()], |g| g.data().to_vec());
                        assert_eq!(&replayed, fresh, "{ctx}: w grad {}", id.index());
                    }
                    assert_eq!(alpha_grads, fresh_alpha, "{ctx}: alpha grads");
                }
            }
        }
        assert!(twin_steps > 0, "no step drew one set at two layers");
    }

    #[test]
    fn final_net_learns_task() {
        let mut rng = Rng::new(5);
        let spec = TaskSpec {
            train: 512,
            val: 128,
            test: 512,
            ..TaskSpec::cifar_like(2)
        };
        let ds = Dataset::generate(&spec);
        let arch = Architecture::uniform(4, 5);
        let mut net = FinalNet::new(
            &arch,
            spec.feature_dim,
            spec.num_classes,
            &SupernetConfig::default(),
            &mut rng,
        );
        let before = net.error_rate(&ds.test_all());
        net.train(&ds, 300, 32, &mut rng, ExecMode::Compiled, &auto_pool());
        let after = net.error_rate(&ds.test_all());
        assert!(
            after < before * 0.6,
            "final training should cut error: before {before:.3}, after {after:.3}"
        );
        assert!(after < 0.25, "trained error {after:.3} too high");
    }

    #[test]
    fn bigger_arch_fits_at_least_as_well() {
        // Capacity monotonicity: with the full 18-layer plan, the
        // largest ops must reach a test error no worse than the smallest
        // ops (up to noise) on the calibrated task.
        let mut rng = Rng::new(9);
        let spec = TaskSpec::cifar_like(3);
        let ds = Dataset::generate(&spec);
        let mut small = FinalNet::new(
            &Architecture::uniform(18, 0),
            spec.feature_dim,
            spec.num_classes,
            &SupernetConfig::default(),
            &mut Rng::new(42),
        );
        let mut large = FinalNet::new(
            &Architecture::uniform(18, 5),
            spec.feature_dim,
            spec.num_classes,
            &SupernetConfig::default(),
            &mut Rng::new(42),
        );
        let pool = auto_pool();
        small.train(&ds, 2500, 32, &mut rng, ExecMode::Compiled, &pool);
        large.train(&ds, 2500, 32, &mut rng, ExecMode::Compiled, &pool);
        let es = small.error_rate(&ds.test_all());
        let el = large.error_rate(&ds.test_all());
        assert!(
            el <= es + 0.01,
            "large ops should generalize at least as well: small {es:.4}, large {el:.4}"
        );
        // Both must land in the calibrated CIFAR-like band.
        assert!(es < 0.12, "small-arch error {es:.3} out of band");
        assert!(el < 0.10, "large-arch error {el:.3} out of band");
    }
}
