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
use hdx_tensor::ckpt::{Checkpoint, CkptError};
use hdx_tensor::{
    bank_key, Binding, CosineLr, ExecMode, Linear, ParamStore, Program, Rng, Session, SessionBank,
    Sgd, Tape, Tensor, Var,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Hyper-parameters of the supernet proxy.
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
    /// Softmax temperature on the architecture logits.
    pub temperature: f32,
}

impl Default for SupernetConfig {
    fn default() -> Self {
        Self {
            feature_dim: 20,
            base_hidden: 3,
            num_paths: 2,
            temperature: 1.0,
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

    /// The configuration in force.
    pub fn config(&self) -> &SupernetConfig {
        &self.cfg
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
    /// per-layer softmax(α/temperature), concatenated layer-major.
    ///
    /// This is the encoding consumed by the generator and estimator
    /// surrogates, so hardware gradients flow back into α through it.
    pub fn arch_encoding(&self, tape: &mut Tape, alpha: &Binding) -> Var {
        let mut parts = Vec::with_capacity(self.num_layers);
        for l in 0..self.num_layers {
            let logits = alpha.var(self.alpha.id(l));
            let scaled = tape.scale(logits, 1.0 / self.cfg.temperature);
            parts.push(tape.softmax_rows(scaled));
        }
        tape.concat_cols(&parts)
    }

    /// Current (non-differentiable) architecture distribution, flattened
    /// `6·L` softmax probabilities.
    pub fn arch_probs(&self) -> Vec<f32> {
        let mut probs = Vec::with_capacity(self.num_layers * OP_SET.len());
        for l in 0..self.num_layers {
            let logits = self
                .alpha
                .get(self.alpha.id(l))
                .scale(1.0 / self.cfg.temperature);
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

    /// Forward pass producing classifier logits for a batch.
    pub fn forward_logits(
        &self,
        tape: &mut Tape,
        w: &Binding,
        alpha: &Binding,
        batch: &Batch,
        rng: &mut Rng,
    ) -> Var {
        let x0 = tape.leaf(batch.x.clone());
        self.forward_logits_from(tape, w, alpha, x0, rng)
    }

    /// [`Supernet::forward_logits`] from an already-placed input leaf
    /// (so a compiled replay can rebind the batch through the returned
    /// var).
    pub fn forward_logits_from(
        &self,
        tape: &mut Tape,
        w: &Binding,
        alpha: &Binding,
        x0: Var,
        rng: &mut Rng,
    ) -> Var {
        let chosen = self.sample_step_paths(rng);
        self.forward_logits_chosen(tape, w, alpha, x0, &chosen)
    }

    /// Samples one step's per-layer path sets from the current
    /// softmax(α) distribution, consuming the RNG exactly as
    /// [`Supernet::forward_logits_from`] does (one `sample_paths`
    /// call per layer, in layer order, over bit-identical
    /// probabilities — the tape's `scale`/`softmax_rows` and the
    /// store-side tensor ops share kernels). This is the replay hook
    /// the engine uses to sample *outside* the graph, then lease a
    /// compiled program for the chosen topology from the session bank.
    ///
    /// With `num_paths == OP_SET.len()` no randomness is consumed (the
    /// full mixture is static).
    pub fn sample_step_paths(&self, rng: &mut Rng) -> Vec<Vec<usize>> {
        (0..self.num_layers)
            .map(|l| {
                let probs = self
                    .alpha
                    .get(self.alpha.id(l))
                    .scale(1.0 / self.cfg.temperature)
                    .softmax_rows();
                sample_paths(probs.data(), self.cfg.num_paths, rng)
            })
            .collect()
    }

    /// Builds the mixture forward pass over an explicit per-layer path
    /// choice (the topology [`Supernet::sample_step_paths`] sampled).
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
        let features = self.input.forward(tape, w, x0);
        let features = tape.relu(features);
        let mut acc = features;
        for (l, chosen) in chosen_per_layer.iter().enumerate() {
            let logits = alpha.var(self.alpha.id(l));
            let scaled = tape.scale(logits, 1.0 / self.cfg.temperature);
            let probs_var = tape.softmax_rows(scaled);

            // Renormalized mixture over the sampled paths.
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
                        // time, which is why single-path graphs are never
                        // cached for replay (see record_sampled_task_step).
                        let c = tape.value(*slice).item().max(1e-6);
                        tape.scale(*slice, 1.0 / c)
                    }
                };
                // All blocks read the shared features (additive ensemble).
                let out = self.blocks[l][op].forward(tape, w, features);
                let contrib = tape.mul_scalar_var(out, weight);
                mixed = Some(match mixed {
                    Some(m) => tape.add(m, contrib),
                    None => contrib,
                });
            }
            let mixed = mixed.expect("at least one path sampled");
            acc = tape.add(acc, mixed);
        }
        self.classifier.forward(tape, w, acc)
    }

    /// Records the full-mixture training-step graph — bind `(w, α)`,
    /// batch-input leaf, [`Supernet::forward_logits_from`],
    /// cross-entropy — for a fixed batch size, returning the handles a
    /// compiled replay rebinds each step.
    ///
    /// Only valid when path sampling is disabled
    /// (`num_paths == OP_SET.len()`): the topology is then static and
    /// `sample_paths` consumes no RNG, so a compiled replay of this
    /// graph is bit-identical to fresh-recording every step, with the
    /// same RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_paths != OP_SET.len()` (a sampled mixture
    /// changes topology per step and cannot compile).
    pub fn record_task_step(&self, tape: &mut Tape, batch_rows: usize) -> TaskStepVars {
        assert_eq!(
            self.cfg.num_paths,
            OP_SET.len(),
            "record_task_step requires the full mixture (num_paths == {})",
            OP_SET.len()
        );
        let (w, a) = self.bind(tape);
        let x0 = tape.leaf(Tensor::zeros(&[batch_rows, self.input.in_features()]));
        // The full mixture consumes no randomness; any RNG works.
        let mut rng = Rng::new(0);
        let logits = self.forward_logits_from(tape, &w, &a, x0, &mut rng);
        let loss = tape.cross_entropy_logits(logits, &vec![0; batch_rows]);
        TaskStepVars {
            w_vars: (0..self.w.len()).map(|i| w.var(self.w.id(i))).collect(),
            alpha_vars: (0..self.alpha.len())
                .map(|l| a.var(self.alpha.id(l)))
                .collect(),
            x0,
            loss,
        }
    }

    /// Records the *sampled*-mixture training-step graph for an
    /// explicit per-layer path choice (as sampled by
    /// [`Supernet::sample_step_paths`]), returning the handles a
    /// compiled replay rebinds each step. The graph topology is a pure
    /// function of the choice set, so the session bank can cache one
    /// program per distinct set — as the search's softmax(α) sharpens,
    /// the same sets recur and most sampled steps replay instead of
    /// fresh-recording.
    ///
    /// # Panics
    ///
    /// Panics if the choice set does not cover every layer, or if any
    /// layer chooses fewer than two paths: a single-path mixture bakes
    /// the path's *current probability* into the graph as a constant
    /// (see the weight normalization in the forward pass), so its
    /// program is not reusable across steps.
    pub fn record_sampled_task_step(
        &self,
        tape: &mut Tape,
        batch_rows: usize,
        chosen_per_layer: &[Vec<usize>],
    ) -> TaskStepVars {
        assert_eq!(
            chosen_per_layer.len(),
            self.num_layers,
            "record_sampled_task_step: choice set must cover every layer"
        );
        assert!(
            chosen_per_layer.iter().all(|c| c.len() >= 2),
            "record_sampled_task_step: single-path mixtures bake per-step constants and cannot replay"
        );
        let (w, a) = self.bind(tape);
        let x0 = tape.leaf(Tensor::zeros(&[batch_rows, self.input.in_features()]));
        let logits = self.forward_logits_chosen(tape, &w, &a, x0, chosen_per_layer);
        let loss = tape.cross_entropy_logits(logits, &vec![0; batch_rows]);
        TaskStepVars {
            w_vars: (0..self.w.len()).map(|i| w.var(self.w.id(i))).collect(),
            alpha_vars: (0..self.alpha.len())
                .map(|l| a.var(self.alpha.id(l)))
                .collect(),
            x0,
            loss,
        }
    }

    /// Classification error rate (fraction wrong) on a batch, using the
    /// full (non-sampled) mixture weighted by softmax(α).
    pub fn error_rate(&self, batch: &Batch, rng: &mut Rng) -> f64 {
        let mut tape = Tape::new();
        let (w, a) = self.bind(&mut tape);
        // Use all paths for deterministic evaluation.
        let full = Supernet {
            cfg: SupernetConfig {
                num_paths: OP_SET.len(),
                ..self.cfg
            },
            ..clone_parts(self)
        };
        let logits = full.forward_logits(&mut tape, &w, &a, batch, rng);
        error_from_logits(tape.value(logits), &batch.y)
    }
}

/// Handles of one recorded full-mixture training-step graph
/// ([`Supernet::record_task_step`]): bind vars for `w` and `α` in
/// allocation order, the batch-input leaf, and the cross-entropy loss
/// (its integer targets rebind via `Session::set_targets`).
#[derive(Debug, Clone)]
pub struct TaskStepVars {
    /// Backbone weight leaves, in `w`-store allocation order.
    pub w_vars: Vec<Var>,
    /// Architecture logit leaves, one per layer.
    pub alpha_vars: Vec<Var>,
    /// The `[batch, in_dim]` input leaf.
    pub x0: Var,
    /// The scalar cross-entropy loss.
    pub loss: Var,
}

/// Shallow structural clone for read-only forward passes (weights are
/// cloned tensors; cheap relative to a training step).
fn clone_parts(net: &Supernet) -> Supernet {
    Supernet {
        cfg: net.cfg,
        num_layers: net.num_layers,
        num_classes: net.num_classes,
        w: net.w.clone(),
        alpha: net.alpha.clone(),
        input: net.input.clone(),
        classifier: net.classifier.clone(),
        blocks: net.blocks.clone(),
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

/// The [`SessionBank`] metadata of one compiled final-net step: weight
/// leaves in allocation order, the batch-input leaf, and the loss.
#[derive(Debug)]
struct FinalStepVars {
    w_vars: Vec<Var>,
    x0: Var,
    loss: Var,
}

/// A discretized final network: the chosen block per layer, trained
/// from scratch (paper §5.1: final architectures are retrained before
/// error is reported).
#[derive(Debug)]
pub struct FinalNet {
    num_classes: usize,
    /// The realized architecture and block sizing — remembered so the
    /// trained network can be checkpointed and rebuilt
    /// ([`FinalNet::save_sections`]).
    choices: Vec<usize>,
    feature_dim: usize,
    base_hidden: usize,
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
            choices: arch.choices().to_vec(),
            feature_dim: cfg.feature_dim,
            base_hidden: cfg.base_hidden,
            w,
            input,
            classifier,
            blocks,
        }
    }

    /// Saves the architecture, sizing, and trained weights as
    /// checkpoint sections under `prefix`.
    pub fn save_sections(&self, ckpt: &mut Checkpoint, prefix: &str) {
        ckpt.put_u64(
            &format!("{prefix}.dims"),
            &[4],
            &[
                self.input.in_features() as u64,
                self.num_classes as u64,
                self.feature_dim as u64,
                self.base_hidden as u64,
            ],
        );
        let choices: Vec<u64> = self.choices.iter().map(|&c| c as u64).collect();
        ckpt.put_u64(&format!("{prefix}.arch"), &[choices.len()], &choices);
        ckpt.put_param_store(&format!("{prefix}.w"), &self.w);
    }

    /// Restores a network from sections written by
    /// [`FinalNet::save_sections`]: the structure is rebuilt from the
    /// stored architecture and every weight is overwritten bit-exactly,
    /// so the loaded network's `error_rate` matches the saved one's on
    /// any batch.
    ///
    /// # Errors
    ///
    /// Typed [`CkptError`]s for missing/misshapen sections or op
    /// choices outside [`OP_SET`].
    pub fn load_sections(ckpt: &Checkpoint, prefix: &str) -> Result<FinalNet, CkptError> {
        let (shape, dims) = ckpt.get_u64(&format!("{prefix}.dims"))?;
        if shape != [4] {
            return Err(CkptError::ShapeMismatch {
                name: format!("{prefix}.dims"),
                expected: vec![4],
                found: shape.to_vec(),
            });
        }
        let to_usize = |w: u64| {
            usize::try_from(w)
                .map_err(|_| CkptError::Malformed(format!("{prefix}: dimension {w} exceeds usize")))
        };
        let (in_dim, num_classes, feature_dim, base_hidden) = (
            to_usize(dims[0])?,
            to_usize(dims[1])?,
            to_usize(dims[2])?,
            to_usize(dims[3])?,
        );
        let (_, arch_words) = ckpt.get_u64(&format!("{prefix}.arch"))?;
        let choices: Vec<usize> = arch_words
            .iter()
            .map(|&w| to_usize(w))
            .collect::<Result<_, _>>()?;
        if choices.iter().any(|&c| c >= OP_SET.len()) {
            return Err(CkptError::Malformed(format!(
                "{prefix}: op choice outside 0..{}",
                OP_SET.len()
            )));
        }
        let cfg = SupernetConfig {
            feature_dim,
            base_hidden,
            ..SupernetConfig::default()
        };
        let mut net = FinalNet::new(
            &Architecture::new(choices),
            in_dim,
            num_classes,
            &cfg,
            &mut Rng::new(0),
        );
        ckpt.read_param_store_into(&format!("{prefix}.w"), &mut net.w)?;
        Ok(net)
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

    /// Rows per microbatch shard of one gradient step, mirroring
    /// `Estimator::train`'s sharding. Fixed (not derived from the
    /// worker count) so the shard decomposition — and with it every
    /// floating-point sum — is the same no matter how many threads
    /// execute the shards. A batch of at most `SHARD_ROWS` is a single
    /// shard weighted 1.0, i.e. exactly the unsharded step.
    const SHARD_ROWS: usize = 32;

    /// The contiguous row ranges of one batch's shards.
    fn shard_ranges(batch_rows: usize) -> Vec<std::ops::Range<usize>> {
        (0..batch_rows)
            .step_by(Self::SHARD_ROWS)
            .map(|r0| r0..(r0 + Self::SHARD_ROWS).min(batch_rows))
            .collect()
    }

    /// Compiles the shard training graph (bind weights, shard input
    /// leaf, logits, cross-entropy) for a fixed row count. The weight
    /// leaves are the only gradient sinks (batch inputs are pruned),
    /// and every leaf — weights, shard rows, targets — is rebound each
    /// replay.
    fn compile_shard(&self, rows: usize) -> (Program, FinalStepVars) {
        let mut tape = Tape::new();
        let w = self.w.bind(&mut tape);
        let x0 = tape.leaf(Tensor::zeros(&[rows, self.input.in_features()]));
        let logits = self.forward_from(&mut tape, &w, x0);
        let loss = tape.cross_entropy_logits(logits, &vec![0; rows]);
        let w_vars: Vec<Var> = self.w.iter().map(|(id, _)| w.var(id)).collect();
        let prog = Program::compile_with_sinks(&tape, &[loss], &[], &w_vars);
        (prog, FinalStepVars { w_vars, x0, loss })
    }

    /// The [`SessionBank`] fingerprint of one shard program: everything
    /// baked into the plan is a pure function of the parameter shapes
    /// (which encode in/feature/class dims and the chosen block widths)
    /// and the shard row count.
    fn shard_key(&self, rows: usize) -> u64 {
        let shapes: Vec<&[usize]> = self.w.iter().map(|(_, t)| t.shape()).collect();
        bank_key("final-net-shard", &(shapes, rows))
    }

    /// Loss and weight gradients of one minibatch on the fresh-record
    /// reference path: per-shard tapes fanned out over `jobs` workers,
    /// merged in shard order weighted by row fraction (cross-entropy
    /// averages over rows, so the weighted sum equals the full-batch
    /// objective). `jobs` must already be resolved.
    fn batch_gradients_fresh(&self, batch: &Batch, jobs: usize) -> (f32, Vec<Option<Tensor>>) {
        let dim = self.input.in_features();
        let shards = Self::shard_ranges(batch.len());
        let results = hdx_tensor::parallel_map(&shards, jobs, |_, range| {
            let rows = range.len();
            let mut tape = Tape::new();
            let w = self.w.bind(&mut tape);
            let x0 = tape.leaf(Tensor::from_vec(
                batch.x.data()[range.start * dim..range.end * dim].to_vec(),
                &[rows, dim],
            ));
            let logits = self.forward_from(&mut tape, &w, x0);
            let loss = tape.cross_entropy_logits(logits, &batch.y[range.clone()]);
            let value = tape.value(loss).item();
            let grads = tape.backward(loss);
            (value, w.gradients(&grads), rows)
        });
        self.merge_shards(batch.len(), results)
    }

    /// [`FinalNet::batch_gradients_fresh`] on the compiled replay
    /// engine: identical shard decomposition and merge order (so the
    /// result is bit-identical to the fresh path at every worker
    /// count), but each shard rebinds and replays a session leased
    /// from the process-wide [`SessionBank`]. Workers left over after
    /// the shard fan-out go to each session's row-parallel kernels.
    fn batch_gradients_replay(&self, batch: &Batch, jobs: usize) -> (f32, Vec<Option<Tensor>>) {
        let dim = self.input.in_features();
        let shards = Self::shard_ranges(batch.len());
        let workers = jobs.min(shards.len()).max(1);
        let session_jobs = (jobs / workers).max(1);
        let per = shards.len().div_ceil(workers);
        let ranges: Vec<std::ops::Range<usize>> = (0..workers)
            .map(|w| w * per..((w + 1) * per).min(shards.len()))
            .collect();
        let worker_results = hdx_tensor::parallel_map(&ranges, workers, |_, shard_range| {
            // One lease per shard size, held for the whole range.
            let mut leases = BTreeMap::new();
            shard_range
                .clone()
                .map(|s| {
                    let rows_range = &shards[s];
                    let rows = rows_range.len();
                    let lease = leases.entry(rows).or_insert_with(|| {
                        SessionBank::global().checkout(self.shard_key(rows), session_jobs, || {
                            self.compile_shard(rows)
                        })
                    });
                    let sv: Arc<FinalStepVars> = lease.meta();
                    let sess = lease.session();
                    for (i, (_, tensor)) in self.w.iter().enumerate() {
                        sess.bind_tensor(sv.w_vars[i], tensor);
                    }
                    sess.leaf_mut(sv.x0).copy_from_slice(
                        &batch.x.data()[rows_range.start * dim..rows_range.end * dim],
                    );
                    sess.try_set_targets(sv.loss, &batch.y[rows_range.clone()])
                        .unwrap_or_else(|e| panic!("final-net shard: {e}"));
                    sess.forward();
                    sess.try_backward(sv.loss)
                        .unwrap_or_else(|e| panic!("final-net shard: {e}"));
                    let value = sess.scalar(sv.loss);
                    let grads: Vec<Option<Tensor>> = sv
                        .w_vars
                        .iter()
                        .zip(self.w.iter())
                        .map(|(&v, (_, t))| {
                            Some(Tensor::from_vec(
                                sess.grad(v)
                                    .expect("every final-net parameter receives a gradient")
                                    .to_vec(),
                                t.shape(),
                            ))
                        })
                        .collect();
                    (value, grads, rows)
                })
                .collect::<Vec<_>>()
        });
        self.merge_shards(batch.len(), worker_results.into_iter().flatten().collect())
    }

    /// Merges per-shard `(loss, gradients, rows)` results in shard
    /// order, each weighted by its row fraction — the same arithmetic
    /// on both execution paths, independent of the worker count.
    fn merge_shards(
        &self,
        batch_rows: usize,
        results: Vec<(f32, Vec<Option<Tensor>>, usize)>,
    ) -> (f32, Vec<Option<Tensor>>) {
        let n = batch_rows as f32;
        let mut total_loss = 0.0f32;
        let mut merged: Vec<Option<Tensor>> = vec![None; self.w.len()];
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

    /// Trains from scratch with SGD + Nesterov momentum and a cosine
    /// schedule (§5.1), returning the final training loss.
    ///
    /// Each minibatch gradient is computed as a weighted sum over
    /// fixed-size microbatch shards (mirroring `Estimator::train`'s
    /// decomposition), fanned out over worker threads — the proxy's
    /// 20-wide matmuls sit under the kernel pool's dispatch threshold,
    /// so shard fan-out is how this loop gets multi-core gains. The
    /// shard split and merge order never depend on the worker count,
    /// so training is **bit-identical** at every worker count and on
    /// both execution engines. Runs on the compiled replay engine by
    /// default (shard programs lease from the process-wide
    /// [`SessionBank`]); `HDX_EXEC=fresh` or [`FinalNet::train_exec`]
    /// select the fresh-record reference path.
    pub fn train(
        &mut self,
        dataset: &crate::data::Dataset,
        steps: usize,
        batch_size: usize,
        rng: &mut Rng,
    ) -> f32 {
        self.train_exec_jobs(dataset, steps, batch_size, rng, ExecMode::auto(), 0)
    }

    /// [`FinalNet::train`] with an explicit execution engine (single-
    /// threaded replay).
    pub fn train_exec(
        &mut self,
        dataset: &crate::data::Dataset,
        steps: usize,
        batch_size: usize,
        rng: &mut Rng,
        exec: ExecMode,
    ) -> f32 {
        self.train_exec_jobs(dataset, steps, batch_size, rng, exec, 1)
    }

    /// [`FinalNet::train`] with an explicit execution engine and worker
    /// count for the shard fan-out (`0` = auto via `HDX_JOBS`). The
    /// trained weights are **bit-identical** for every `(exec, jobs)`
    /// combination (`tests/determinism.rs`).
    pub fn train_exec_jobs(
        &mut self,
        dataset: &crate::data::Dataset,
        steps: usize,
        batch_size: usize,
        rng: &mut Rng,
        exec: ExecMode,
        jobs: usize,
    ) -> f32 {
        // Paper settings scaled to the proxy: momentum 0.9 (Nesterov),
        // weight decay 1e-3, cosine LR. The base LR is raised from the
        // paper's 0.008 because the proxy network is far smaller.
        let mut opt = Sgd::new(0.9, true, 1e-3);
        let sched = CosineLr::new(0.02, steps.max(1));
        // Resolve the worker-count policy once per training run.
        let jobs = hdx_tensor::num_jobs(jobs);
        let compiled = matches!(exec, ExecMode::Compiled);
        let mut last = f32::NAN;
        for step in 0..steps {
            let batch = dataset.train_batch(batch_size, rng);
            let (loss, mut collected) = if compiled {
                self.batch_gradients_replay(&batch, jobs)
            } else {
                self.batch_gradients_fresh(&batch, jobs)
            };
            last = loss;
            Binding::clip_grad_norm(&mut collected, 5.0);
            opt.step(&mut self.w, &collected, sched.lr(step));
        }
        last
    }

    /// Classification error rate on a batch (fresh-record forward).
    pub fn error_rate(&self, batch: &Batch) -> f64 {
        self.evaluator(ExecMode::FreshRecord, 1).score(batch).error
    }

    /// An evaluator of the network as it is now (train first). Under
    /// [`ExecMode::Compiled`] it compiles the forward pass once for
    /// [`EVAL_CHUNK`] rows and replays it over each scored batch, with
    /// `jobs` workers in the session's row-parallel kernels (`0` =
    /// auto). The program is private to the evaluator, not banked: its
    /// key would be unique to this architecture and trained once, so
    /// caching it would only churn the bank's LRU.
    /// [`ExecMode::FreshRecord`] records one tape per batch (the
    /// reference path). Both give bit-identical scores.
    pub fn evaluator(&self, exec: ExecMode, jobs: usize) -> FinalEval<'_> {
        let replay = matches!(exec, ExecMode::Compiled).then(|| {
            let mut tape = Tape::new();
            let w = self.w.bind(&mut tape);
            let x0 = tape.leaf(Tensor::zeros(&[EVAL_CHUNK, self.input.in_features()]));
            let logits = self.forward_from(&mut tape, &w, x0);
            // Programs need a scalar output; only `logits` is read.
            let out = tape.sum(logits);
            let prog = Program::compile_with_sinks(&tape, &[out], &[logits], &[]);
            (Session::with_jobs(Arc::new(prog), jobs), x0, logits)
        });
        FinalEval { net: self, replay }
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
            let mut tape = Tape::new();
            let w = self.net.bind(&mut tape);
            let logits = self.net.forward_logits(&mut tape, &w, batch);
            let error = error_from_logits(tape.value(logits), &batch.y);
            let ce = tape.cross_entropy_logits(logits, &batch.y);
            return EvalScore {
                error,
                ce: tape.value(ce).item(),
            };
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
            sess.forward();
            let chunk = Tensor::from_vec(
                sess.value(*logits)[..rows * classes].to_vec(),
                &[rows, classes],
            );
            let probs = chunk.softmax_rows();
            for (i, &y) in batch.y[r0..r0 + rows].iter().enumerate() {
                assert!(y < classes, "score: target {y} out of range {classes}");
                if chunk.argmax_row(i) != y {
                    wrong += 1;
                }
                loss -= probs.at(i, y).max(1e-30).ln();
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
            let loss = net.train_exec(&ds, 40, 16, &mut rng, exec);
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
            let loss = net.train_exec_jobs(&ds, 25, 80, &mut rng, exec, jobs);
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

    #[test]
    fn final_net_checkpoint_round_trip_is_bit_identical() {
        let spec = TaskSpec {
            train: 256,
            val: 64,
            test: 256,
            ..TaskSpec::cifar_like(3)
        };
        let ds = Dataset::generate(&spec);
        let mut rng = Rng::new(17);
        let arch = Architecture::new(vec![0, 3, 5, 2]);
        let mut net = FinalNet::new(
            &arch,
            spec.feature_dim,
            spec.num_classes,
            &SupernetConfig::default(),
            &mut rng,
        );
        net.train(&ds, 60, 32, &mut rng);

        let mut ckpt = Checkpoint::new();
        net.save_sections(&mut ckpt, "final");
        let back = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("parse");
        let loaded = FinalNet::load_sections(&back, "final").expect("load");
        for (id, t) in net.w.iter() {
            assert_eq!(loaded.w.get(id).data(), t.data());
        }
        let test = ds.test_all();
        assert_eq!(loaded.error_rate(&test), net.error_rate(&test));

        // A corrupted op choice is a typed error.
        let mut bad = Checkpoint::new();
        bad.put_u64("final.dims", &[4], &[16, 10, 20, 3]);
        bad.put_u64("final.arch", &[2], &[0, 99]);
        assert!(matches!(
            FinalNet::load_sections(&bad, "final"),
            Err(CkptError::Malformed(_))
        ));
    }

    #[test]
    fn sampled_step_replay_matches_fresh_record() {
        // The sampled-mixture replay contract: sampling outside the
        // graph (sample_step_paths) consumes the RNG identically, and a
        // program recorded for the chosen topology replays the exact
        // bits of fresh-recording that step.
        let (net, ds, mut rng) = tiny_setup();
        for step in 0..4 {
            let batch = ds.train_batch(24, &mut rng);
            // Fresh-record reference, with its own RNG clone.
            let mut rng_fresh = Rng::new(100 + step);
            let mut rng_replay = Rng::new(100 + step);
            let mut tape = Tape::new();
            let (wb, ab) = net.bind(&mut tape);
            let loss = net.task_loss(&mut tape, &wb, &ab, &batch, &mut rng_fresh);
            let fresh_loss = tape.value(loss).item();
            let grads = tape.backward(loss);

            // Replay path: sample, record for the choice, replay.
            let chosen = net.sample_step_paths(&mut rng_replay);
            assert_eq!(
                rng_fresh.next_u64(),
                rng_replay.next_u64(),
                "step {step}: RNG streams diverged after sampling"
            );
            let mut rtape = Tape::new();
            let sv = net.record_sampled_task_step(&mut rtape, 24, &chosen);
            let sinks: Vec<Var> = sv.w_vars.iter().chain(&sv.alpha_vars).copied().collect();
            let prog = Arc::new(Program::compile_with_sinks(&rtape, &[sv.loss], &[], &sinks));
            let mut sess = hdx_tensor::Session::new(prog);
            for (i, (_, t)) in net.w_store().iter().enumerate() {
                sess.bind(sv.w_vars[i], t.data());
            }
            for (l, (_, t)) in net.alpha_store().iter().enumerate() {
                sess.bind(sv.alpha_vars[l], t.data());
            }
            sess.bind_tensor(sv.x0, &batch.x);
            sess.set_targets(sv.loss, &batch.y);
            sess.forward();
            sess.backward(sv.loss);
            assert_eq!(sess.scalar(sv.loss), fresh_loss, "step {step}: loss");
            // Blocks outside the sampled paths receive no gradient on
            // either engine; zero-fill both sides the way the engine's
            // gradient collection does.
            let zeros_of = |len: usize| vec![0.0f32; len];
            for (id, t) in net.w_store().iter() {
                let replayed = sess
                    .grad(sv.w_vars[id.index()])
                    .map_or_else(|| zeros_of(t.len()), <[f32]>::to_vec);
                assert_eq!(
                    replayed,
                    grads.wrt_or_zeros(wb.var(id), t.shape()).data(),
                    "step {step}: w grad {}",
                    id.index()
                );
            }
            for (id, t) in net.alpha_store().iter() {
                let replayed = sess
                    .grad(sv.alpha_vars[id.index()])
                    .map_or_else(|| zeros_of(t.len()), <[f32]>::to_vec);
                assert_eq!(
                    replayed,
                    grads.wrt_or_zeros(ab.var(id), t.shape()).data(),
                    "step {step}: alpha grad {}",
                    id.index()
                );
            }
        }
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
        net.train(&ds, 300, 32, &mut rng);
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
        small.train(&ds, 2500, 32, &mut rng);
        large.train(&ds, 2500, 32, &mut rng);
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
