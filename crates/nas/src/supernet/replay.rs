//! Bank-cached replay of the supernet task step, chained from banked
//! pieces whose keys never depend on another layer's choice.
//!
//! The mixture graph is a star: every layer's chosen blocks read the
//! same `features`, and layer `l` only adds its mixture onto the
//! running accumulator (`acc_{l+1} = acc_l + mix_l`). So the step
//! splits into
//!
//! * a **stem** (`input` linear + relu → `features`),
//! * one **layer segment** per layer, keyed by (side, rows, path set,
//!   block shapes) — 6 programs per side at `num_paths = 1`, 15 at
//!   `num_paths = 2`, one for the full mixture, whatever the other
//!   layers drew,
//! * a **tail** (classifier + cross-entropy).
//!
//! Forward runs stem → segments `0..L` → tail; each segment binds
//! `features`, the previous `acc`, the layer's α and, for a single
//! path, its normalizing factor (the one value `Supernet::mix_layer`
//! reads from α at record time), and keeps its own `acc`. Backward runs
//! tail → segments `L−1..0` → stem, seeded through existing ops: a
//! segment's scalar output is `dot(acc_l, G)` with `G` a leaf bound to
//! the tail's ∂loss/∂acc (the residual adds pass it through unchanged,
//! so every layer sees the same `G`), and on the w side also
//! `dot(features, F)`, recorded after the blocks, with `F` a leaf bound
//! to the features gradient folded so far. Dot backward writes exactly
//! `1.0·G` and `1.0·F` into the slots.
//!
//! # Fold order (w side)
//!
//! The whole-net tape folds `features`' gradient in reverse node
//! order, and the chain reproduces it exactly:
//!
//! 1. `F = 0`;
//! 2. segments `L−1 … 1` each fold their blocks onto `F` (the dot puts
//!    `F` into the pre-zeroed slot first, then the blocks add on);
//! 3. `F += G` — layer 0's residual add `acc_1 = features + mix_0`,
//!    elementwise;
//! 4. segment 0 folds its blocks;
//! 5. the stem consumes the final `F` through `dot(features, F)`.
//!
//! The α side needs no `F` and no stem backward: with α as the only
//! sink, the program compiler prunes every block backward.
//! `supernet::tests::sampled_step_replay_matches_fresh_record` and
//! `tests/determinism.rs` pin the chain against fresh recording.

use super::{single_path_factor, Supernet, OP_SET};
use crate::data::Batch;
use hdx_tensor::{
    bank_key, kernels, ParamId, Program, Rng, Session, SessionBank, SessionLease, Tape, Tensor,
    Var, WorkerPool,
};
use std::any::Any;
use std::sync::Arc;

/// Which gradients a layer segment exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Side {
    /// Block weights and the folded features gradient.
    W,
    /// The layer's architecture logits.
    Alpha,
}

/// Handles of the stem program.
struct StemVars {
    x0: Var,
    params: [Var; 2],
    features: Var,
    /// The leaf bound to the final folded features gradient `F`.
    fold: Var,
    out: Var,
}

/// Handles of one layer-segment program.
struct SegmentVars {
    features: Var,
    acc_in: Var,
    alpha: Var,
    /// Each chosen block's parameter leaves, in choice order.
    blocks: Vec<[Var; 4]>,
    /// A single path's normalizing-factor leaf, rebound every step.
    factor: Option<Var>,
    /// The leaf bound to `G = ∂loss/∂acc`.
    grad_acc: Var,
    /// The leaf bound to the features gradient folded so far (w side).
    fold: Option<Var>,
    acc: Var,
    out: Var,
}

/// Handles of the tail program.
struct TailVars {
    acc: Var,
    params: [Var; 2],
    loss: Var,
}

/// A bank lease held together with the key it was checked out for.
type HeldLease<'b> = Option<(u64, SessionLease<'b>)>;

/// The lease in `held`, checking out a new one for `key` when the held
/// key differs (the old session is checked in first).
fn hold<'h, 'b, M, F>(
    bank: &'b SessionBank,
    held: &'h mut HeldLease<'b>,
    key: u64,
    compile: F,
) -> &'h mut SessionLease<'b>
where
    M: Any + Send + Sync,
    F: FnOnce() -> (Program, M),
{
    if held.as_ref().is_none_or(|(k, _)| *k != key) {
        // Check the old session in first, so the checkout can reuse it.
        *held = None;
        *held = Some((key, bank.checkout(key, compile)));
    }
    &mut held.as_mut().expect("lease just checked out").1
}

fn ids2((w, b): (ParamId, ParamId)) -> [ParamId; 2] {
    [w, b]
}

impl Supernet {
    /// Records the stem: `features = relu(x0·W + b)`, output
    /// `dot(features, F)`.
    fn record_stem(&self, tape: &mut Tape, rows: usize) -> StemVars {
        let ids = ids2(self.input.param_ids());
        let w = self.w.bind_only(tape, &ids);
        let x0 = tape.leaf(Tensor::zeros(&[rows, self.input.in_features()]));
        let features = self.stem(tape, &w, x0);
        let fold = tape.leaf(Tensor::zeros(&[rows, self.cfg.feature_dim]));
        let out = tape.dot(features, fold);
        StemVars {
            x0,
            params: ids.map(|id| w.var(id)),
            features,
            fold,
            out,
        }
    }

    /// Records one layer segment over path set `chosen` (one path or
    /// more), with layer 0's blocks standing in for every layer's (all
    /// layers share block shapes; the replay rebinds layer `l`'s
    /// weights, α and single-path factor).
    fn record_segment(
        &self,
        tape: &mut Tape,
        rows: usize,
        chosen: &[usize],
        side: Side,
    ) -> SegmentVars {
        let ids: Vec<ParamId> = chosen
            .iter()
            .flat_map(|&op| self.blocks[0][op].param_ids())
            .collect();
        let w = self.w.bind_only(tape, &ids);
        let dim = self.cfg.feature_dim;
        let features = tape.leaf(Tensor::zeros(&[rows, dim]));
        let acc_in = tape.leaf(Tensor::zeros(&[rows, dim]));
        let alpha = tape.leaf(Tensor::zeros(&[1, OP_SET.len()]));
        let (acc, factor) = self.mix_layer(tape, &w, 0, alpha, features, acc_in, chosen);
        let grad_acc = tape.leaf(Tensor::zeros(&[rows, dim]));
        let seed = tape.dot(acc, grad_acc);
        let (fold, out) = match side {
            Side::Alpha => (None, seed),
            Side::W => {
                let fold = tape.leaf(Tensor::zeros(&[rows, dim]));
                let seed_f = tape.dot(features, fold);
                (Some(fold), tape.add(seed, seed_f))
            }
        };
        SegmentVars {
            features,
            acc_in,
            alpha,
            blocks: ids
                .chunks_exact(4)
                .map(|c| [c[0], c[1], c[2], c[3]].map(|id| w.var(id)))
                .collect(),
            factor,
            grad_acc,
            fold,
            acc,
            out,
        }
    }

    /// Records the tail: classifier logits and their cross-entropy.
    fn record_tail(&self, tape: &mut Tape, rows: usize) -> TailVars {
        let ids = ids2(self.classifier.param_ids());
        let w = self.w.bind_only(tape, &ids);
        let acc = tape.leaf(Tensor::zeros(&[rows, self.cfg.feature_dim]));
        let logits = self.classifier.forward(tape, &w, acc);
        let loss = tape.cross_entropy_logits(logits, &vec![0; rows]);
        TailVars {
            acc,
            params: ids.map(|id| w.var(id)),
            loss,
        }
    }

    /// The bank key of a layer segment: the graph's shape. Weights,
    /// logits, the single-path factor, features, accumulators and seeds
    /// are rebound every step.
    fn segment_key(&self, side: Side, rows: usize, chosen: &[usize]) -> u64 {
        let widths: Vec<usize> = chosen
            .iter()
            .map(|&op| self.blocks[0][op].l1.out_features())
            .collect();
        bank_key(
            "supernet-segment",
            &(side, rows, self.cfg.feature_dim, chosen, widths),
        )
    }
}

/// Copies `vars`' session gradients into `grads` at `ids`, shaped like
/// the store's tensors (`None` where the output does not reach a var).
fn put_grads(
    grads: &mut [Option<Tensor>],
    supernet: &Supernet,
    ids: &[ParamId],
    vars: &[Var],
    sess: &Session,
) {
    for (&id, &v) in ids.iter().zip(vars) {
        let shape = supernet.w.get(id).shape();
        grads[id.index()] = sess.grad(v).map(|g| Tensor::from_vec(g.to_vec(), shape));
    }
}

/// Bank-cached replay of the supernet task branch at every `num_paths`
/// (the full mixture included), chained from a stem, one layer segment
/// per layer, and a tail (see the module docs). Each step samples its
/// path sets outside the graph ([`Supernet::sample_step_paths`]
/// consumes the RNG exactly as fresh recording would).
///
/// The replay holds one lease per (side, layer) while that layer's set
/// repeats, plus one stem and one tail lease shared by both sides, and
/// borrows the search's worker pool for every session it drives. The
/// segment programs a search can reach are few (C(6, k) per side at
/// `num_paths = k`: 6 at one path, 15 at two) and shared by every later
/// search, so the bank stays bounded by construction.
#[derive(Debug)]
pub struct SampledReplay<'b> {
    bank: &'b SessionBank,
    pool: &'b WorkerPool,
    stem: HeldLease<'b>,
    tail: HeldLease<'b>,
    w: Vec<HeldLease<'b>>,
    alpha: Vec<HeldLease<'b>>,
    /// The stem's `features`, the running `acc`, the tail's
    /// `G = ∂loss/∂acc`, and the folded features gradient `F`.
    features: Vec<f32>,
    acc: Vec<f32>,
    grad_acc: Vec<f32>,
    fold: Vec<f32>,
}

impl<'b> SampledReplay<'b> {
    /// A replay leasing from `bank`, running every session's
    /// row-parallel kernels on `pool` (the calling search's pool).
    /// Results are identical at any pool size.
    pub fn new(bank: &'b SessionBank, pool: &'b WorkerPool) -> Self {
        SampledReplay {
            bank,
            pool,
            stem: None,
            tail: None,
            w: Vec::new(),
            alpha: Vec::new(),
            features: Vec::new(),
            acc: Vec::new(),
            grad_acc: Vec::new(),
            fold: Vec::new(),
        }
    }

    /// One w-step: samples the step's path sets from `rng` and returns
    /// per-parameter backbone gradients aligned with the `w` store
    /// (`None` for blocks outside the sampled paths, mirroring
    /// `Binding::gradients`).
    pub fn w_step(
        &mut self,
        supernet: &Supernet,
        batch: &Batch,
        rng: &mut Rng,
    ) -> Vec<Option<Tensor>> {
        let chosen = supernet.sample_step_paths(rng);
        self.forward(Side::W, supernet, batch, &chosen);
        let mut grads = vec![None; supernet.w.len()];
        let tail = &mut self.tail.as_mut().expect("forward leased the tail").1;
        let tv: Arc<TailVars> = tail.meta();
        put_grads(
            &mut grads,
            supernet,
            &ids2(supernet.classifier.param_ids()),
            &tv.params,
            tail.session(),
        );

        // The fold order of the module docs, step by step.
        self.fold.clear();
        self.fold.resize(self.grad_acc.len(), 0.0);
        let layers = chosen.len();
        for l in (1..layers).rev() {
            self.fold_segment(supernet, l, &chosen[l], &mut grads);
        }
        // Layer 0's residual add reads `features` itself.
        for (f, &g) in self.fold.iter_mut().zip(&self.grad_acc) {
            *f += g;
        }
        if layers > 0 {
            self.fold_segment(supernet, 0, &chosen[0], &mut grads);
        }

        let stem = &mut self.stem.as_mut().expect("forward leased the stem").1;
        let st: Arc<StemVars> = stem.meta();
        let sess = stem.session();
        sess.bind(st.fold, &self.fold);
        sess.try_backward_with(st.out, Some(self.pool))
            .unwrap_or_else(|e| panic!("supernet stem: {e}"));
        put_grads(
            &mut grads,
            supernet,
            &ids2(supernet.input.param_ids()),
            &st.params,
            sess,
        );
        grads
    }

    /// Runs layer `l`'s w-side segment backward: folds its blocks onto
    /// `F` (in place) and stores its block gradients in `grads`.
    fn fold_segment(
        &mut self,
        supernet: &Supernet,
        l: usize,
        set: &[usize],
        grads: &mut [Option<Tensor>],
    ) {
        let lease = &mut self.w[l].as_mut().expect("forward leased every layer").1;
        let sv: Arc<SegmentVars> = lease.meta();
        let sess = lease.session();
        sess.bind(sv.grad_acc, &self.grad_acc);
        sess.bind(sv.fold.expect("w-side segment"), &self.fold);
        sess.try_backward_with(sv.out, Some(self.pool))
            .unwrap_or_else(|e| panic!("supernet segment {l}: {e}"));
        self.fold
            .copy_from_slice(sess.grad(sv.features).expect("features gradient"));
        for (&op, vars) in set.iter().zip(&sv.blocks) {
            let ids = supernet.blocks[l][op].param_ids();
            put_grads(grads, supernet, &ids, vars, sess);
        }
    }

    /// One α-step task branch: samples the step's path sets from `rng`
    /// and returns the task-loss value and ∂task/∂α flattened in layer
    /// order. Each segment's α gradient reads only `G`, so the layer
    /// order of the segment backwards does not matter.
    pub fn alpha_step(
        &mut self,
        supernet: &Supernet,
        batch: &Batch,
        rng: &mut Rng,
    ) -> (f64, Vec<f32>) {
        let chosen = supernet.sample_step_paths(rng);
        let loss = self.forward(Side::Alpha, supernet, batch, &chosen);
        let pool = Some(self.pool);
        let mut grads = Vec::with_capacity(chosen.len() * OP_SET.len());
        for (l, held) in self.alpha.iter_mut().enumerate() {
            let lease = &mut held.as_mut().expect("forward leased every layer").1;
            let sv: Arc<SegmentVars> = lease.meta();
            let sess = lease.session();
            sess.bind(sv.grad_acc, &self.grad_acc);
            sess.try_backward_with(sv.out, pool)
                .unwrap_or_else(|e| panic!("supernet segment {l}: {e}"));
            match sess.grad(sv.alpha) {
                Some(g) => grads.extend_from_slice(g),
                None => grads.extend(std::iter::repeat_n(0.0, OP_SET.len())),
            }
        }
        (f64::from(loss), grads)
    }

    /// Runs the chain forward (stem → segments → tail) over `side`'s
    /// segment leases, then the tail backward, leaving
    /// `G = ∂loss/∂acc` in `self.grad_acc`. Returns the loss.
    fn forward(
        &mut self,
        side: Side,
        supernet: &Supernet,
        batch: &Batch,
        chosen: &[Vec<usize>],
    ) -> f32 {
        let rows = batch.len();
        let bank = self.bank;
        let pool = Some(self.pool);

        let stem_shape = supernet.w.get(supernet.input.param_ids().0).shape();
        let key = bank_key("supernet-stem", &(stem_shape, rows));
        let stem = hold(bank, &mut self.stem, key, || {
            let mut tape = Tape::new();
            let vars = supernet.record_stem(&mut tape, rows);
            let prog =
                Program::compile_with_sinks(&tape, &[vars.out], &[vars.features], &vars.params);
            (prog, vars)
        });
        let st: Arc<StemVars> = stem.meta();
        let sess = stem.session();
        for (&id, &v) in ids2(supernet.input.param_ids()).iter().zip(&st.params) {
            sess.bind(v, supernet.w.get(id).data());
        }
        sess.bind_tensor(st.x0, &batch.x);
        sess.forward_with(pool);
        self.features.clear();
        self.features.extend_from_slice(sess.value(st.features));
        self.acc.clone_from(&self.features);

        let segments = match side {
            Side::W => &mut self.w,
            Side::Alpha => &mut self.alpha,
        };
        segments.resize_with(chosen.len(), || None);
        for (l, (set, held)) in chosen.iter().zip(segments.iter_mut()).enumerate() {
            let key = supernet.segment_key(side, rows, set);
            let lease = hold(bank, held, key, || {
                let mut tape = Tape::new();
                let vars = supernet.record_segment(&mut tape, rows, set, side);
                let mut sinks: Vec<Var> = Vec::new();
                match side {
                    Side::W => {
                        sinks.extend(vars.blocks.iter().flatten());
                        sinks.push(vars.features);
                    }
                    Side::Alpha => sinks.push(vars.alpha),
                }
                let prog = Program::compile_with_sinks(&tape, &[vars.out], &[vars.acc], &sinks);
                (prog, vars)
            });
            let sv: Arc<SegmentVars> = lease.meta();
            let sess = lease.session();
            let alpha = supernet.alpha.get(supernet.alpha.id(l));
            sess.bind(sv.features, &self.features);
            sess.bind(sv.acc_in, &self.acc);
            sess.bind_tensor(sv.alpha, alpha);
            if let Some(factor) = sv.factor {
                // The store-side softmax entry is bit-identical to the
                // tape's (`softmax_row_at` shares its fold).
                let p = kernels::softmax_row_at(alpha.data(), set[0]);
                sess.bind(factor, &[single_path_factor(p)]);
            }
            for (&op, vars) in set.iter().zip(&sv.blocks) {
                for (&id, &v) in supernet.blocks[l][op].param_ids().iter().zip(vars) {
                    sess.bind(v, supernet.w.get(id).data());
                }
            }
            sess.forward_with(pool);
            self.acc.copy_from_slice(sess.value(sv.acc));
        }

        let tail_shape = supernet.w.get(supernet.classifier.param_ids().0).shape();
        let key = bank_key("supernet-tail", &(tail_shape, rows));
        let tail = hold(bank, &mut self.tail, key, || {
            let mut tape = Tape::new();
            let vars = supernet.record_tail(&mut tape, rows);
            let mut sinks = vars.params.to_vec();
            sinks.push(vars.acc);
            let prog = Program::compile_with_sinks(&tape, &[vars.loss], &[], &sinks);
            (prog, vars)
        });
        let tv: Arc<TailVars> = tail.meta();
        let sess = tail.session();
        for (&id, &v) in ids2(supernet.classifier.param_ids()).iter().zip(&tv.params) {
            sess.bind(v, supernet.w.get(id).data());
        }
        sess.bind(tv.acc, &self.acc);
        sess.try_set_targets(tv.loss, &batch.y)
            .unwrap_or_else(|e| panic!("supernet tail: {e}"));
        sess.forward_with(pool);
        sess.try_backward_with(tv.loss, pool)
            .unwrap_or_else(|e| panic!("supernet tail: {e}"));
        self.grad_acc.clear();
        self.grad_acc
            .extend_from_slice(sess.grad(tv.acc).expect("acc gradient"));
        sess.scalar(tv.loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, TaskSpec};
    use crate::supernet::SupernetConfig;
    use hdx_tensor::Adam;

    #[test]
    fn segment_bank_stays_bounded_and_worker_invariant() {
        // The churn pin: an 18-layer search touches at most C(6, k)
        // segment programs per side plus the stem and the tail — 15 at
        // num_paths = 2, 6 at num_paths = 1, whose programs take each
        // step's normalizing factor as a leaf — so a cap-256 bank never
        // evicts and stops missing once every set has been drawn: no
        // step compiles a program for the whole-net path set or for a
        // step's values. The chain's results do not depend on the worker
        // count (`0` = auto, honoring `HDX_JOBS`).
        let spec = TaskSpec {
            train: 256,
            val: 64,
            test: 64,
            ..TaskSpec::cifar_like(4)
        };
        let ds = Dataset::generate(&spec);
        let run = |num_paths: usize, sets: usize, jobs: usize| {
            let mut rng = Rng::new(21);
            let cfg = SupernetConfig {
                num_paths,
                ..SupernetConfig::default()
            };
            let mut net = Supernet::new(18, spec.feature_dim, spec.num_classes, cfg, &mut rng);
            let bank = SessionBank::with_capacity(Some(256));
            let pool = WorkerPool::new(hdx_tensor::num_jobs(jobs));
            let mut replay = SampledReplay::new(&bank, &pool);
            let (mut w_opt, mut a_opt) = (Adam::new(1e-2), Adam::new(5e-2));
            let mut trace = Vec::new();
            let mut warm_misses = 0;
            for step in 0..60 {
                let batch = ds.train_batch(16, &mut rng);
                let grads = replay.w_step(&net, &batch, &mut rng);
                w_opt.step(net.w_store_mut(), &grads);
                let batch = ds.val_batch(16, &mut rng);
                let (loss, alpha_grads) = replay.alpha_step(&net, &batch, &mut rng);
                let per_layer: Vec<Option<Tensor>> = alpha_grads
                    .chunks(OP_SET.len())
                    .map(|g| Some(Tensor::row(g)))
                    .collect();
                a_opt.step(net.alpha_store_mut(), &per_layer);
                trace.push(loss);
                trace.extend(alpha_grads.iter().map(|&g| f64::from(g)));
                if step == 24 {
                    warm_misses = bank.stats().misses;
                }
            }
            let stats = bank.stats();
            assert!(
                stats.programs <= 2 * sets + 2,
                "{num_paths} paths: {stats:?}"
            );
            assert_eq!(stats.evictions, 0, "{num_paths} paths: {stats:?}");
            assert_eq!(
                stats.misses, warm_misses,
                "{num_paths} paths: misses grew after warm-up"
            );
            trace
        };
        for (num_paths, sets) in [(2, 15), (1, 6)] {
            let sequential = run(num_paths, sets, 1);
            assert_eq!(
                run(num_paths, sets, 0),
                sequential,
                "{num_paths} paths: worker count changed the chain's bits"
            );
        }
    }
}
