//! The one sharded gradient step behind every minibatch training loop
//! (estimator pre-training, the final-network retrain).
//!
//! A minibatch gradient is a weighted sum over fixed [`SHARD_ROWS`]-row
//! shards. The algorithm fixes every floating-point sum, so the result
//! is **bit-identical** at every worker count and on both execution
//! engines:
//!
//! * **Decomposition.** Rows `0..n` split into contiguous
//!   [`SHARD_ROWS`]-row shards (the last one shorter). The split never
//!   depends on the worker count. A batch of at most [`SHARD_ROWS`] rows
//!   is one shard weighted 1.0, i.e. exactly the unsharded step.
//! * **Worker split** (compiled). The caller passes one [`WorkerPool`]
//!   that outlives its whole training call (a search's pool, or one
//!   per estimator pre-training), so no step spawns or joins a thread.
//!   `workers = pool.workers().min(shards)` contiguous shard ranges
//!   run on the pool ([`WorkerPool::map`]), each on sequential
//!   sessions. A single worker (one shard, or a pool of one) instead
//!   lends the whole pool to its session's row-parallel kernels, so a
//!   lone shard still uses every core. Which worker replays which
//!   shard affects only session reuse, never a result.
//! * **Leases.** Each worker checks out one single-threaded
//!   [`SessionBank`] session per shard size and holds it across its
//!   range; programs are keyed by [`ShardStep::key`], so training
//!   calls with the same architecture share them.
//! * **Merge.** Per-shard losses and gradients are summed sequentially
//!   in shard order, each weighted by its row fraction (the losses
//!   average over rows, so the weighted sum is the full-batch
//!   objective).
//! * **Fresh-record twin.** [`ExecMode::FreshRecord`] records each shard
//!   on its own [`Tape`] instead (the reference the equivalence tests
//!   replay against), with the same decomposition and merge.
//!
//! A training loop supplies only its step graph, its bank key, and how a
//! shard's rows and targets are written ([`ShardStep`]).

use crate::bank::SessionBank;
use crate::nn::{Binding, ParamStore};
use crate::par::WorkerPool;
use crate::program::{ExecMode, Program};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Rows per microbatch shard of one gradient step. Fixed (not derived
/// from the worker count) so the shard decomposition — and with it
/// every floating-point sum — is the same no matter how many threads
/// execute the shards.
pub const SHARD_ROWS: usize = 32;

/// What one training loop contributes to [`sharded_step`].
///
/// The step graph differentiates [`ShardStep::params`] (bound first, in
/// allocation order), reads one `[rows, width]` input leaf per entry of
/// [`ShardStep::input_widths`], and ends in a scalar loss that averages
/// over rows.
pub trait ShardStep: Sync {
    /// The parameters whose gradients the step returns.
    fn params(&self) -> &ParamStore;

    /// Column width of each input leaf, in leaf order.
    fn input_widths(&self) -> Vec<usize>;

    /// The [`SessionBank`] fingerprint of the `rows`-row shard program:
    /// a call-site tag plus the graph's shape (see
    /// [`crate::bank_key`]). Parameters, inputs and labels are rebound
    /// before every replay.
    fn key(&self, rows: usize) -> u64;

    /// Records the loss from the bound parameters and the placed input
    /// leaves. `labels` are the shard's cross-entropy targets
    /// ([`ShardStep::labels`]).
    fn record(&self, tape: &mut Tape, params: &Binding, inputs: &[Var], labels: &[usize]) -> Var;

    /// Writes batch rows `rows` of input leaf `input` into `out` (a
    /// `[rows.len(), width]` buffer).
    fn fill(&self, input: usize, rows: Range<usize>, out: &mut [f32]);

    /// The integer loss targets of batch rows `rows`, rebound on the
    /// loss node before each replay; empty when the loss has none.
    fn labels(&self, _rows: Range<usize>) -> &[usize] {
        &[]
    }
}

/// The bank metadata of one compiled shard program.
struct ShardVars {
    params: Vec<Var>,
    inputs: Vec<Var>,
    loss: Var,
}

/// Loss and per-parameter gradients (aligned with
/// [`ShardStep::params`]) of one `batch_rows`-row minibatch, computed
/// shard by shard as the module docs describe, on the caller's `pool`.
///
/// # Panics
///
/// Panics if some parameter receives no gradient, or, on the compiled
/// path, if [`ShardStep::labels`] returns labels for a loss that is not
/// a cross-entropy node.
pub fn sharded_step<S: ShardStep>(
    step: &S,
    batch_rows: usize,
    pool: &WorkerPool,
    exec: ExecMode,
) -> (f32, Vec<Option<Tensor>>) {
    let shards: Vec<Range<usize>> = (0..batch_rows)
        .step_by(SHARD_ROWS)
        .map(|r0| r0..(r0 + SHARD_ROWS).min(batch_rows))
        .collect();
    let results = match exec {
        ExecMode::Compiled => replay_shards(step, &shards, pool),
        ExecMode::FreshRecord => pool.map(&shards, |_, rows| {
            let mut tape = Tape::new();
            let sv = record_shard(step, &mut tape, rows.clone(), true);
            let grads = tape.backward(sv.loss);
            let mut flat = Vec::with_capacity(step.params().num_scalars());
            for &v in &sv.params {
                let g = grads.wrt(v).expect("every parameter receives a gradient");
                flat.extend_from_slice(g.data());
            }
            (tape.value(sv.loss).item(), flat)
        }),
    };

    // Merge in shard order, each shard weighted by its row fraction.
    let n = batch_rows as f32;
    let mut loss = 0.0f32;
    let mut merged: Vec<Option<Tensor>> = vec![None; step.params().len()];
    for (rows, (value, flat)) in shards.iter().zip(results) {
        let w = rows.len() as f32 / n;
        loss += w * value;
        let mut off = 0;
        for (slot, (_, t)) in merged.iter_mut().zip(step.params().iter()) {
            let g = &flat[off..off + t.len()];
            off += t.len();
            match slot {
                Some(acc) => {
                    for (a, &g) in acc.data_mut().iter_mut().zip(g) {
                        *a += g * w;
                    }
                }
                None => {
                    *slot = Some(Tensor::from_vec(
                        g.iter().map(|&g| g * w).collect(),
                        t.shape(),
                    ))
                }
            }
        }
    }
    (loss, merged)
}

/// Records one shard's graph: parameters bound first, then one input
/// leaf per width, then the step's loss. The fresh-record twin fills
/// the leaves with batch rows `rows` and differentiates the tape
/// directly; the compiled path records zero leaves (every leaf and the
/// labels are rebound before each replay) and compiles the graph once
/// per shard size.
fn record_shard<S: ShardStep>(
    step: &S,
    tape: &mut Tape,
    rows: Range<usize>,
    fill: bool,
) -> ShardVars {
    let binding = step.params().bind(tape);
    let inputs: Vec<Var> = step
        .input_widths()
        .into_iter()
        .enumerate()
        .map(|(i, width)| {
            let mut buf = vec![0.0; rows.len() * width];
            if fill {
                step.fill(i, rows.clone(), &mut buf);
            }
            tape.leaf(Tensor::from_vec(buf, &[rows.len(), width]))
        })
        .collect();
    let loss = step.record(tape, &binding, &inputs, step.labels(rows));
    ShardVars {
        params: step
            .params()
            .iter()
            .map(|(id, _)| binding.var(id))
            .collect(),
        inputs,
        loss,
    }
}

/// The compiled path: contiguous shard ranges per worker, one bank
/// lease per shard size held across a range, and each shard's loss and
/// flattened gradients returned in shard order.
fn replay_shards<S: ShardStep>(
    step: &S,
    shards: &[Range<usize>],
    pool: &WorkerPool,
) -> Vec<(f32, Vec<f32>)> {
    let workers = pool.workers().min(shards.len()).max(1);
    if workers == 1 {
        // Counted like the fan-out below, so the registry is the same
        // at every worker count.
        crate::par::observe_map(1);
        return replay_range(step, shards, 0..shards.len(), Some(pool));
    }
    let per = shards.len().div_ceil(workers);
    let ranges: Vec<Range<usize>> = (0..workers)
        .map(|w| w * per..((w + 1) * per).min(shards.len()))
        .collect();
    let per_worker = pool.map(&ranges, |_, range| {
        replay_range(step, shards, range.clone(), None)
    });
    per_worker.into_iter().flatten().collect()
}

/// Replays shards `range` on one thread, with `kernels` (if any)
/// driving each session's row-parallel kernels.
fn replay_range<S: ShardStep>(
    step: &S,
    shards: &[Range<usize>],
    range: Range<usize>,
    kernels: Option<&WorkerPool>,
) -> Vec<(f32, Vec<f32>)> {
    let mut leases = BTreeMap::new();
    range
        .map(|s| {
            let rows = shards[s].clone();
            let lease = leases.entry(rows.len()).or_insert_with(|| {
                SessionBank::global().checkout(step.key(rows.len()), || {
                    let mut tape = Tape::new();
                    let sv = record_shard(step, &mut tape, rows.clone(), false);
                    // Parameter gradients are the only ones the
                    // optimizer consumes; pruning the input leaves
                    // skips the first layer's input-gradient matmul.
                    let prog = Program::compile_with_sinks(&tape, &[sv.loss], &[], &sv.params);
                    (prog, sv)
                })
            });
            let sv: Arc<ShardVars> = lease.meta();
            let sess = lease.session();
            for (&v, (_, t)) in sv.params.iter().zip(step.params().iter()) {
                sess.bind(v, t.data());
            }
            for (i, &v) in sv.inputs.iter().enumerate() {
                step.fill(i, rows.clone(), sess.leaf_mut(v));
            }
            let labels = step.labels(rows);
            if !labels.is_empty() {
                sess.try_set_targets(sv.loss, labels)
                    .unwrap_or_else(|e| panic!("sharded step: {e}"));
            }
            sess.forward_with(kernels);
            sess.try_backward_with(sv.loss, kernels)
                .unwrap_or_else(|e| panic!("sharded step: {e}"));
            let mut flat = Vec::with_capacity(step.params().num_scalars());
            for &v in &sv.params {
                flat.extend_from_slice(sess.grad(v).expect("every parameter receives a gradient"));
            }
            (sess.scalar(sv.loss), flat)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::bank_key;
    use crate::nn::ResidualMlp;
    use crate::rng::Rng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const DIM: usize = 6;
    const CLASSES: usize = 4;

    /// A small classifier step: residual MLP → cross-entropy, counting
    /// how many shards it is asked to fill.
    struct Classifier {
        params: ParamStore,
        mlp: ResidualMlp,
        x: Vec<f32>,
        y: Vec<usize>,
        fills: AtomicUsize,
    }

    impl Classifier {
        fn new(rows: usize) -> Self {
            let mut rng = Rng::new(7);
            let mut params = ParamStore::new();
            let mlp = ResidualMlp::new(&mut params, DIM, 8, CLASSES, 3, &mut rng);
            let x = Tensor::randn(&[rows, DIM], 1.0, &mut rng).data().to_vec();
            let y = (0..rows).map(|r| (r * 7 + 3) % CLASSES).collect();
            Self {
                params,
                mlp,
                x,
                y,
                fills: AtomicUsize::new(0),
            }
        }

        /// One unsharded tape backward over the whole batch.
        fn unsharded(&self) -> (f32, Vec<Vec<f32>>) {
            let mut tape = Tape::new();
            let b = self.params.bind(&mut tape);
            let x = tape.leaf(Tensor::from_vec(self.x.clone(), &[self.y.len(), DIM]));
            let logits = self.mlp.forward(&mut tape, &b, x);
            let loss = tape.cross_entropy_logits(logits, &self.y);
            let grads = tape.backward(loss);
            let g = b
                .gradients(&grads)
                .into_iter()
                .map(|g| g.expect("gradient").data().to_vec())
                .collect();
            (tape.value(loss).item(), g)
        }

        fn run(&self, jobs: usize, exec: ExecMode) -> (f32, Vec<Vec<f32>>, usize) {
            self.fills.store(0, Ordering::SeqCst);
            let (loss, grads) = sharded_step(self, self.y.len(), &WorkerPool::new(jobs), exec);
            let g = grads
                .into_iter()
                .map(|g| g.expect("gradient").data().to_vec())
                .collect();
            (loss, g, self.fills.load(Ordering::SeqCst))
        }
    }

    impl ShardStep for Classifier {
        fn params(&self) -> &ParamStore {
            &self.params
        }
        fn input_widths(&self) -> Vec<usize> {
            vec![DIM]
        }
        fn key(&self, rows: usize) -> u64 {
            bank_key("shard-test-classifier", &rows)
        }
        fn record(
            &self,
            tape: &mut Tape,
            params: &Binding,
            inputs: &[Var],
            labels: &[usize],
        ) -> Var {
            let logits = self.mlp.forward(tape, params, inputs[0]);
            tape.cross_entropy_logits(logits, labels)
        }
        fn fill(&self, _input: usize, rows: Range<usize>, out: &mut [f32]) {
            self.fills.fetch_add(1, Ordering::SeqCst);
            out.copy_from_slice(&self.x[rows.start * DIM..rows.end * DIM]);
        }
        fn labels(&self, rows: Range<usize>) -> &[usize] {
            &self.y[rows]
        }
    }

    #[test]
    fn single_shard_batches_match_the_unsharded_step() {
        for rows in [1, SHARD_ROWS] {
            let step = Classifier::new(rows);
            let (want_loss, want) = step.unsharded();
            for exec in [ExecMode::Compiled, ExecMode::FreshRecord] {
                for jobs in [1, 2, 4] {
                    let (loss, grads, _) = step.run(jobs, exec);
                    assert_eq!(
                        loss.to_bits(),
                        want_loss.to_bits(),
                        "rows {rows} {exec:?} jobs {jobs}: loss"
                    );
                    assert_eq!(grads, want, "rows {rows} {exec:?} jobs {jobs}: gradients");
                }
            }
        }
    }

    #[test]
    fn shard_count_and_result_are_worker_invariant() {
        // 80 rows → shards of 32/32/16 at every worker count.
        let step = Classifier::new(80);
        let (want_loss, want, _) = step.run(1, ExecMode::FreshRecord);
        for exec in [ExecMode::Compiled, ExecMode::FreshRecord] {
            for jobs in [1, 2, 3, 4, 8] {
                let (loss, grads, fills) = step.run(jobs, exec);
                assert_eq!(fills, 3, "{exec:?} jobs {jobs}: shard count");
                assert_eq!(loss.to_bits(), want_loss.to_bits(), "{exec:?} jobs {jobs}");
                assert_eq!(grads, want, "{exec:?} jobs {jobs}: gradients");
            }
        }
    }
}
