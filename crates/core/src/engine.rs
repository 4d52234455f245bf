//! The differentiable co-exploration engine.
//!
//! One engine implements all the methods compared in the paper's
//! evaluation (Table 1, Fig. 3):
//!
//! * [`Method::NasThenHw`] — plain differentiable NAS (task loss + a
//!   differentiable MAC-count proxy), followed by an exhaustive
//!   hardware search with the analytical model;
//! * [`Method::AutoNba`] — joint differentiable search where the
//!   hardware parameters are optimized *directly* by gradient descent
//!   (no generator network), with cost gradients through the
//!   pre-trained estimator standing in for Auto-NBA's lookup tables
//!   (substitution documented in DESIGN.md);
//! * [`Method::Dance`] — generator + estimator co-exploration (DANCE),
//!   optionally with a soft-constraint penalty
//!   `λ_soft · max(t/T − 1, 0)` ([`SearchOptions::lambda_soft`]);
//! * [`Method::Hdx`] — DANCE plus the paper's contribution: gradient
//!   manipulation with the δ schedule (§4.3), applied to both the
//!   architecture parameters α and the generator weights v.
//!
//! A search builds one private `SearchState`: the models, their three
//! Adam optimizers, the RNG stream, the δ schedule and the trace, plus
//! the per-search constants (margined steering targets, the NAS→HW MAC
//! proxy). The epoch loop, the hardware head (record, bank key,
//! checkout, evaluation), the [`SearchCheckpoint`] capture/restore and
//! the hardware proposal all take that one struct. The head records
//! every per-search value as a leaf, so its program is keyed by the
//! method and the shapes alone and one compiled head serves every
//! request of that shape. The head's compiled session and its
//! fresh-record reference are read out by one path, so the two
//! executors differ only in how a graph is run.

use crate::constraint::{all_satisfied, Constraint};
use crate::gradmanip::{manipulate, DeltaPolicy, ManipulationKind};
use hdx_accel::{evaluate_network, AccelConfig, CostWeights, HwMetrics, Metric};
use hdx_nas::supernet::{FinalNet, SampledReplay, Supernet};
use hdx_nas::{Architecture, Dataset, NetworkPlan, SupernetConfig};
use hdx_surrogate::dataset::expected_metrics;
use hdx_surrogate::{Estimator, Generator};
use hdx_tensor::ckpt::{Checkpoint, CkptError};
use hdx_tensor::{
    bank_key, num_jobs, Adam, Binding, ExecMode, Gradients, ParamId, ParamStore, Program, Rng,
    Session, SessionBank, SessionLease, Tape, Tensor, Var, WorkerPool,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Which co-exploration method to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Differentiable NAS with a MAC proxy, then exhaustive HW search.
    NasThenHw {
        /// Weight of the differentiable MAC-count penalty (the method's
        /// indirect control parameter in the meta-search).
        lambda_macs: f64,
    },
    /// Auto-NBA-style: hardware parameters trained directly.
    AutoNba,
    /// DANCE: generator + estimator, no hard constraints.
    Dance,
    /// HDX: DANCE + gradient manipulation (the proposed method).
    Hdx {
        /// Initial pull magnitude δ₀.
        delta0: f32,
        /// Pull growth factor p (paper default 1e-2).
        p: f32,
    },
}

impl Method {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Method::NasThenHw { .. } => "NAS->HW",
            Method::AutoNba => "Auto-NBA",
            Method::Dance => "DANCE",
            Method::Hdx { .. } => "HDX",
        }
    }
}

/// Supernet-weight learning rate (Adam).
pub const W_LR: f32 = 2e-3;
/// Architecture-parameter learning rate (Adam).
pub const ALPHA_LR: f32 = 6e-3;
/// Generator / hardware-parameter learning rate (Adam).
pub const GEN_LR: f32 = 1.5e-3;
/// Safety margin applied to constraint targets *during the search*:
/// the engine steers toward `T·(1 − margin)` so that estimator error
/// cannot push the ground-truth metric over the real target. The
/// paper's estimator is >99 % accurate and needs no margin; at this
/// reproduction's reduced pre-training budget a margin absorbs the
/// surrogate error. Reported metrics are always ground truth against
/// the *unmargined* targets.
pub const SAFETY_MARGIN: f64 = 0.10;

/// Options for one co-exploration run: what a caller varies per search.
/// The learning rates and the steering margin are experiment constants
/// ([`W_LR`], [`ALPHA_LR`], [`GEN_LR`], [`SAFETY_MARGIN`]), the same
/// for every method, so a comparison changes only the method.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOptions {
    /// The method under test.
    pub method: Method,
    /// λ_Cost from Eq. 6.
    pub lambda_cost: f64,
    /// Optional soft-constraint penalty weight (`λ_soft · max(t/T−1,0)`,
    /// the DANCE+Soft / TF-NAS-style baseline).
    pub lambda_soft: Option<f64>,
    /// Hard constraints (enforced by HDX; only *monitored* by others).
    pub constraints: Vec<Constraint>,
    /// Search epochs.
    pub epochs: usize,
    /// Optimization steps per epoch.
    pub steps_per_epoch: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// From-scratch training steps for the final error report
    /// (0 skips retraining and reports the supernet's error).
    pub final_train_steps: usize,
    /// RNG seed for the whole run.
    pub seed: u64,
    /// Supernet proxy hyper-parameters.
    pub supernet: SupernetConfig,
    /// Size of the search's one worker pool (`0` = auto, honoring
    /// `HDX_JOBS`; `1` = sequential), which every phase borrows: the
    /// task-branch replay, the hardware searches, the final-net retrain
    /// and its evaluation. Results are bit-identical at every size.
    pub jobs: usize,
    /// Execution engine for every step graph (the supernet task branch,
    /// the hardware head, final-network retraining and evaluation):
    /// compiled replay (default, at every `supernet.num_paths`) or the
    /// fresh-record reference path. Both are bit-identical.
    pub exec: ExecMode,
    /// Mid-search checkpointing: when set, the engine snapshots the
    /// full optimization state ([`SearchCheckpoint`]) to
    /// `checkpoint.path` every `checkpoint.every_epochs` epochs, so a
    /// killed search can be continued with [`resume_search`] instead of
    /// restarting from scratch. Off (`None`) by default.
    pub checkpoint: Option<CheckpointSpec>,
}

/// Where and how often [`run_search`] snapshots its state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Destination file (overwritten at every snapshot).
    pub path: PathBuf,
    /// Epoch boundaries between snapshots (1 = after every epoch).
    pub every_epochs: usize,
    /// Opaque caller note stored alongside the state (the serving
    /// layer records the originating request line here).
    pub note: Option<String>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        let paper = DeltaPolicy::paper();
        Self {
            method: Method::Hdx {
                delta0: paper.delta(),
                p: paper.p(),
            },
            lambda_cost: 0.003,
            lambda_soft: None,
            constraints: Vec::new(),
            epochs: 25,
            steps_per_epoch: 20,
            batch: 32,
            final_train_steps: 2000,
            seed: 0,
            supernet: SupernetConfig::default(),
            jobs: 0,
            exec: ExecMode::Compiled,
            checkpoint: None,
        }
    }
}

/// Everything a search run needs from the environment.
#[derive(Debug, Clone, Copy)]
pub struct SearchContext<'a> {
    /// The network geometry plan.
    pub plan: &'a NetworkPlan,
    /// The classification task.
    pub dataset: &'a Dataset,
    /// The pre-trained (frozen) hardware estimator.
    pub estimator: &'a Estimator,
    /// Hardware cost weights (Eq. 10).
    pub weights: CostWeights,
}

/// One epoch's trace (drives Fig. 1 / Fig. 4-style plots).
#[derive(Debug, Clone)]
pub struct EpochTrace {
    /// Epoch index.
    pub epoch: usize,
    /// Validation task loss at epoch end.
    pub task_loss: f64,
    /// Global loss (task + λ·Cost_HW) at epoch end.
    pub global_loss: f64,
    /// Estimator-predicted metrics at epoch end.
    pub est: HwMetrics,
    /// Ground-truth metrics of the current relaxed architecture on the
    /// currently proposed hardware (analytical model).
    pub truth: HwMetrics,
    /// Current δ (HDX only; 0 otherwise).
    pub delta: f32,
    /// Whether any hard constraint was violated (per estimator).
    pub violated: bool,
    /// How many α-steps this epoch took the manipulated branch.
    pub manipulated_steps: usize,
}

/// Outcome of a co-exploration run.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The discrete architecture found.
    pub architecture: Architecture,
    /// The discrete accelerator configuration found.
    pub accel: AccelConfig,
    /// Ground-truth hardware metrics (analytical model, not estimator —
    /// §5.1 of the paper).
    pub metrics: HwMetrics,
    /// `Cost_HW` of the solution.
    pub cost_hw: f64,
    /// Test error of the retrained final network (fraction).
    pub error: f64,
    /// Global loss `Loss_NAS + λ·Cost_HW` at the solution.
    pub global_loss: f64,
    /// Whether all hard constraints are satisfied (ground truth).
    pub in_constraint: bool,
    /// Per-epoch trace.
    pub trajectory: Vec<EpochTrace>,
}

/// Completed co-exploration searches.
static OBS_SEARCHES: hdx_obs::Counter = hdx_obs::Counter::new("engine.searches");
/// Completed search epochs (all methods).
static OBS_EPOCHS: hdx_obs::Counter = hdx_obs::Counter::new("engine.epochs");
/// Optimization steps taken by each method's inner loop. Step counts
/// are the engine's deterministic progress measure — wall-clock time
/// lives only in the hdx-obs span sink.
static OBS_STEPS_HDX: hdx_obs::Counter = hdx_obs::Counter::new("engine.steps.hdx");
static OBS_STEPS_AUTONBA: hdx_obs::Counter = hdx_obs::Counter::new("engine.steps.autonba");
static OBS_STEPS_DANCE: hdx_obs::Counter = hdx_obs::Counter::new("engine.steps.dance");
static OBS_STEPS_NAS_THEN_HW: hdx_obs::Counter = hdx_obs::Counter::new("engine.steps.nas_then_hw");

/// The per-method step counter for `method`.
fn step_counter(method: Method) -> &'static hdx_obs::Counter {
    match method {
        Method::Hdx { .. } => &OBS_STEPS_HDX,
        Method::AutoNba => &OBS_STEPS_AUTONBA,
        Method::Dance => &OBS_STEPS_DANCE,
        Method::NasThenHw { .. } => &OBS_STEPS_NAS_THEN_HW,
    }
}

/// Runs one co-exploration search.
///
/// # Panics
///
/// Panics if `opts.epochs` or `opts.steps_per_epoch` is zero, if the
/// estimator's input dimension does not match the plan, or if a
/// checkpoint snapshot requested via [`SearchOptions::checkpoint`]
/// cannot be written (use [`try_run_search`] to handle that in-band).
pub fn run_search(ctx: &SearchContext<'_>, opts: &SearchOptions) -> SearchResult {
    try_run_search(ctx, opts).unwrap_or_else(|e| panic!("run_search: checkpoint failure: {e}"))
}

/// [`run_search`] with checkpoint I/O failures surfaced as typed
/// errors instead of panics (the search itself is infallible).
///
/// # Errors
///
/// [`CkptError`] when a [`SearchOptions::checkpoint`] snapshot cannot
/// be written.
///
/// # Panics
///
/// Panics if `opts.epochs` or `opts.steps_per_epoch` is zero, or if the
/// estimator's input dimension does not match the plan.
pub fn try_run_search(
    ctx: &SearchContext<'_>,
    opts: &SearchOptions,
) -> Result<SearchResult, CkptError> {
    search_inner(ctx, opts, None)
}

/// Continues a search from a [`SearchCheckpoint`] snapshot. The resumed
/// run is **bit-identical** to the uninterrupted one: the snapshot
/// captures every piece of mutable optimization state (both parameter
/// stores, generator and direct hardware parameters, all three Adam
/// optimizers, the RNG stream, the δ schedule, and the trace so far),
/// so epochs `ckpt.epoch()..opts.epochs` replay exactly as they would
/// have.
///
/// `opts` must describe the same search the checkpoint came from —
/// everything except `epochs` (which may extend past the snapshot),
/// `jobs`, `exec`, and `checkpoint` itself is covered by a stored
/// fingerprint.
///
/// # Errors
///
/// [`CkptError::Malformed`] when the fingerprint disagrees with `opts`
/// or the snapshot is ahead of `opts.epochs`; section-level errors when
/// the stored state does not fit the reconstructed model; I/O errors
/// from further snapshot writes.
///
/// # Panics
///
/// Panics if `opts.epochs` or `opts.steps_per_epoch` is zero, or if the
/// estimator's input dimension does not match the plan.
pub fn resume_search(
    ctx: &SearchContext<'_>,
    opts: &SearchOptions,
    ckpt: &SearchCheckpoint,
) -> Result<SearchResult, CkptError> {
    search_inner(ctx, opts, Some(ckpt))
}

fn search_inner(
    ctx: &SearchContext<'_>,
    opts: &SearchOptions,
    resume: Option<&SearchCheckpoint>,
) -> Result<SearchResult, CkptError> {
    // Wall-clock timing goes only to the hdx-obs span sink; results
    // carry step counts, never seconds (rule HDX011 enforces this).
    let _search_span = hdx_obs::span("engine.search");
    OBS_SEARCHES.incr();
    // Phase spans under `engine.search`: setup, the epochs (each step
    // split into the w-step, the α-step's task branch, and the
    // hardware head), final solution selection, the final-net
    // retrain, and its evaluation.
    let setup_span = hdx_obs::span("engine.setup");
    let mut st = SearchState::new(*ctx, opts);
    // The search's one worker pool: the task-branch replay, the
    // hardware searches, the final-net retrain and its evaluation all
    // borrow it, so no phase spawns or joins a thread of its own.
    let pool = WorkerPool::new(num_jobs(opts.jobs));
    // Resume: overwrite every freshly initialized piece of mutable
    // state with the snapshot. The constructor already consumed the
    // RNG exactly as the original run did, and the stream position is
    // restored anyway, so the resumed run continues bit-identically
    // from the snapshot's epoch boundary.
    let start_epoch = match resume {
        Some(ckpt) => ckpt.restore_into(&mut st)?,
        None => 0,
    };

    // The hardware head — arch encoding → generator/θ → estimator →
    // cost / soft penalties / constraint loss — has a static topology
    // and takes every per-search value as a leaf, so by default its
    // program comes from the process-wide [`SessionBank`] (compiled
    // once per head shape, shared by every request of that shape) and
    // is replayed with rebound α and hardware parameters every step.
    // `ExecMode::FreshRecord` re-records the head instead: same split
    // step structure, bit-identical results.
    let mut head = match opts.exec {
        ExecMode::Compiled => HeadExec::checkout(&st, SessionBank::global()),
        ExecMode::FreshRecord => HeadExec::Fresh { tape: Tape::new() },
    };
    // The task branch: each step samples its path sets *outside* the
    // graph (consuming the RNG exactly as fresh recording would) and
    // chains bank-cached programs — a stem, one segment per layer keyed
    // by that layer's set alone, a tail — so the bank holds a small,
    // fixed set of programs every search shares, at every `num_paths`.
    let mut task_exec = match opts.exec {
        ExecMode::Compiled => {
            TaskExec::Sampled(Box::new(SampledReplay::new(SessionBank::global(), &pool)))
        }
        ExecMode::FreshRecord => TaskExec::Fresh,
    };
    let mut head_eval = HeadEval::default();
    let mut w_tape = Tape::new();
    let mut task_tape = Tape::new();
    drop(setup_span);

    for epoch in start_epoch..opts.epochs {
        let _epoch_span = hdx_obs::span("engine.epoch");
        OBS_EPOCHS.incr();
        step_counter(opts.method).add(opts.steps_per_epoch as u64);
        let mut manipulated_steps = 0usize;
        let mut last_task = 0.0f64;
        let mut last_global = 0.0f64;
        let mut last_est = HwMetrics::default();
        let mut last_violated = false;

        for _ in 0..opts.steps_per_epoch {
            // --- w-step on a training batch -------------------------
            {
                let _w_span = hdx_obs::span("engine.w_step");
                let batch = ctx.dataset.train_batch(opts.batch, &mut st.rng);
                let mut collected = match &mut task_exec {
                    TaskExec::Sampled(sr) => sr.w_step(&st.supernet, &batch, &mut st.rng),
                    TaskExec::Fresh => {
                        w_tape.clear();
                        let (wb, ab) = st.supernet.bind(&mut w_tape);
                        let loss =
                            st.supernet
                                .task_loss(&mut w_tape, &wb, &ab, &batch, &mut st.rng);
                        let grads = w_tape.backward(loss);
                        wb.gradients(&grads)
                    }
                };
                Binding::clip_grad_norm(&mut collected, 5.0);
                st.w_opt.step(st.supernet.w_store_mut(), &collected);
            }

            // --- α / v-step: task branch on a validation batch +
            // hardware head (both replayed, or both fresh-recorded) ---
            let alpha_span = hdx_obs::span("engine.alpha_step");
            let batch = ctx.dataset.val_batch(opts.batch, &mut st.rng);
            let (task_value, task_alpha_grads) = match &mut task_exec {
                TaskExec::Sampled(sr) => sr.alpha_step(&st.supernet, &batch, &mut st.rng),
                TaskExec::Fresh => {
                    task_tape.clear();
                    let (wb, ab) = st.supernet.bind(&mut task_tape);
                    let task = st
                        .supernet
                        .task_loss(&mut task_tape, &wb, &ab, &batch, &mut st.rng);
                    let alpha = st.supernet.alpha_store();
                    let vars: Vec<Var> = (0..alpha.len()).map(|l| ab.var(alpha.id(l))).collect();
                    let mut run = GraphRun::Fresh(&task_tape, None);
                    run.backward(task);
                    let mut grads = Vec::new();
                    run.grads_into(&vars, alpha, &mut grads);
                    (run.scalar(task), grads)
                }
            };
            drop(alpha_span);

            let head_span = hdx_obs::span("engine.hw_head");
            head.eval(&mut st, &mut head_eval);
            drop(head_span);

            // Violation test from the estimator's metrics (Eq. 5/9).
            let violated = head_eval
                .est
                .is_some_and(|m| !all_satisfied(&st.steering, &m));
            if let Some(m) = head_eval.est {
                last_est = m;
            }
            last_violated = violated;
            last_task = task_value;
            last_global = last_task + head_eval.objective;

            // --- α update (Eq. 4): task gradient + head gradient ----
            {
                let mut g_loss = task_alpha_grads;
                for (g, h) in g_loss.iter_mut().zip(&head_eval.alpha_obj) {
                    *g += *h;
                }
                let g = if let (Some(gc), Some(dp)) =
                    (&head_eval.alpha_const, st.delta_policy.as_ref())
                {
                    let m = manipulate(&g_loss, gc, violated, dp.delta());
                    if m.kind == ManipulationKind::Manipulated {
                        manipulated_steps += 1;
                    }
                    m.gradient
                } else {
                    g_loss
                };
                let per_param = unflatten(&g, st.supernet.alpha_store());
                st.a_opt.step(st.supernet.alpha_store_mut(), &per_param);
            }

            // --- v / θ update ---------------------------------------
            if let Some(g_cost) = head_eval.hw_cost.as_ref() {
                // The generator minimizes Cost_HW (Eq. 3's inner
                // objective); HDX manipulates with g_CostHW in place of
                // g_Loss (§4.3).
                let manipulated;
                let g: &[f32] =
                    if let (Some(gc), Some(dp)) = (&head_eval.hw_const, st.delta_policy.as_ref()) {
                        manipulated = manipulate(g_cost, gc, violated, dp.delta()).gradient;
                        &manipulated
                    } else {
                        g_cost
                    };
                let store = hw_store(opts.method, &mut st.generator, &mut st.hw_params);
                let per_param = unflatten(g, store);
                st.v_opt.step(store, &per_param);
            }

            if let Some(dp) = st.delta_policy.as_mut() {
                dp.update(violated);
            }
        }

        // Ground truth of the current relaxed state for the trace.
        let truth = expected_metrics(
            ctx.plan,
            &st.supernet.arch_probs(),
            &propose_hardware(&st, &pool),
        );
        st.trajectory.push(EpochTrace {
            epoch,
            task_loss: last_task,
            global_loss: last_global,
            est: last_est,
            truth,
            delta: st.delta_policy.as_ref().map_or(0.0, DeltaPolicy::delta),
            violated: last_violated,
            manipulated_steps,
        });

        // Snapshot at the epoch boundary: everything the next epoch
        // reads is captured *before* any post-loop work touches it.
        if let Some(spec) = &opts.checkpoint {
            if spec.every_epochs > 0 && (epoch + 1) % spec.every_epochs == 0 {
                SearchCheckpoint::capture(&st, epoch + 1).save(&spec.path)?;
            }
        }
    }

    // ---- final solution -------------------------------------------
    let select_span = hdx_obs::span("engine.final_select");
    let architecture = st.supernet.architecture();
    let mut accel = propose_hardware(&st, &pool);
    let mut metrics = evaluate_network(&ctx.plan.layers_for(&architecture), &accel);

    // HDX hardware repair: the paper evaluates the generator's output
    // directly because its estimator is near-exact. At this
    // reproduction's estimator budget the decoded configuration can
    // land a few percent past a tight bound, so — like a real deploy
    // flow that verifies with Timeloop and adjusts — HDX re-selects the
    // cost-optimal *in-constraint* configuration for the found
    // architecture when the decoded one misses. The architecture (the
    // part shaped by gradient manipulation) is never touched.
    if matches!(opts.method, Method::Hdx { .. }) && !all_satisfied(&opts.constraints, &metrics) {
        let bounds: Vec<(hdx_accel::Metric, f64)> = opts
            .constraints
            .iter()
            .map(|c| (c.metric, c.target))
            .collect();
        if let Some(fixed) = hdx_accel::exhaustive_search(
            &ctx.plan.layers_for(&architecture),
            &ctx.weights,
            &bounds,
            &pool,
        ) {
            accel = fixed.config;
            metrics = fixed.metrics;
        }
    }

    let cost_hw = ctx.weights.cost(&metrics);
    let in_constraint = all_satisfied(&opts.constraints, &metrics);
    drop(select_span);

    // Final error: retrain from scratch (§5.1) unless disabled, then
    // score the test split's error and the validation split's CE.
    let (error, final_ce) = if opts.final_train_steps > 0 {
        let final_net = {
            let _train_span = hdx_obs::span("engine.final_train");
            let spec = ctx.dataset.spec();
            let mut net = FinalNet::new(
                &architecture,
                spec.feature_dim,
                spec.num_classes,
                &opts.supernet,
                &mut st.rng,
            );
            net.train(
                ctx.dataset,
                opts.final_train_steps,
                opts.batch,
                &mut st.rng,
                opts.exec,
                &pool,
            );
            net
        };
        let _eval_span = hdx_obs::span("engine.final_eval");
        let mut eval = final_net.evaluator(opts.exec, &pool);
        let err = eval.score(&ctx.dataset.test_all()).error;
        let ce = eval.score(&ctx.dataset.val_all()).ce;
        (err, f64::from(ce))
    } else {
        let _eval_span = hdx_obs::span("engine.final_eval");
        let err = st.supernet.error_rate(&ctx.dataset.test_all());
        (err, st.trajectory.last().map_or(f64::NAN, |t| t.task_loss))
    };
    let global_loss = final_ce + opts.lambda_cost * cost_hw;

    Ok(SearchResult {
        architecture,
        accel,
        metrics,
        cost_hw,
        error,
        global_loss,
        in_constraint,
        trajectory: st.trajectory,
    })
}

/// One search's state, built once by [`SearchState::new`]: everything
/// the epoch loop mutates (the models, their optimizers, the RNG
/// stream, the δ schedule and the trace — exactly what a
/// [`SearchCheckpoint`] captures) plus the per-search constants the
/// hardware head binds as leaves. The loop, the hardware head, the
/// checkpoint and the hardware proposal all read this one struct.
struct SearchState<'a> {
    ctx: SearchContext<'a>,
    opts: &'a SearchOptions,
    supernet: Supernet,
    generator: Generator,
    /// Auto-NBA's directly trained hardware parameters: the single
    /// `[1, 6]` leaf `hw_theta` (allocated, and checkpointed, for every
    /// method so the RNG stream and the snapshot layout never depend on
    /// it).
    hw_params: ParamStore,
    hw_theta: ParamId,
    w_opt: Adam,
    a_opt: Adam,
    v_opt: Adam,
    rng: Rng,
    /// The δ schedule (HDX only).
    delta_policy: Option<DeltaPolicy>,
    trajectory: Vec<EpochTrace>,
    /// Margined targets used for steering (see [`SAFETY_MARGIN`]).
    steering: Vec<Constraint>,
    /// NAS→HW's differentiable MAC proxy: each (layer, op) block's MACs
    /// over their mean, so the expected MACs are `enc · macs_norm`.
    macs_norm: Vec<f32>,
}

impl<'a> SearchState<'a> {
    /// The freshly initialized state of a search. The models draw from
    /// the seeded RNG in a fixed order — supernet, generator, θ — which
    /// a resumed search relies on as much as a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if `opts.epochs` or `opts.steps_per_epoch` is zero, or if
    /// the estimator's input dimension does not match the plan.
    fn new(ctx: SearchContext<'a>, opts: &'a SearchOptions) -> Self {
        assert!(
            opts.epochs > 0 && opts.steps_per_epoch > 0,
            "run_search: empty schedule"
        );
        let num_layers = ctx.plan.num_layers();
        assert_eq!(
            ctx.estimator.input_dim(),
            num_layers * 6 + 6,
            "run_search: estimator dimension does not match plan"
        );
        let spec = ctx.dataset.spec();
        let mut rng = Rng::new(opts.seed);
        let supernet = Supernet::new(
            num_layers,
            spec.feature_dim,
            spec.num_classes,
            opts.supernet,
            &mut rng,
        );
        let generator = Generator::new(ctx.plan, &mut rng);
        let mut hw_params = ParamStore::new();
        let hw_theta = hw_params.alloc(Tensor::randn(&[1, 6], 0.5, &mut rng));
        let macs: Vec<f32> = (0..num_layers)
            .flat_map(|l| (0..6).map(move |o| (l, o)))
            .map(|(l, o)| ctx.plan.block_at(l, o).macs() as f32)
            .collect();
        let macs_mean = macs.iter().sum::<f32>() / macs.len() as f32;
        SearchState {
            ctx,
            opts,
            supernet,
            generator,
            hw_params,
            hw_theta,
            w_opt: Adam::new(W_LR),
            a_opt: Adam::new(ALPHA_LR),
            v_opt: Adam::new(GEN_LR),
            rng,
            delta_policy: match opts.method {
                Method::Hdx { delta0, p } => Some(DeltaPolicy::new(delta0, p)),
                _ => None,
            },
            // Not pre-sized: `epochs` is client-controlled, and a
            // capacity request for 2^32 traces aborts the process.
            trajectory: Vec::new(),
            steering: opts
                .constraints
                .iter()
                .map(|c| Constraint::new(c.metric, c.target * (1.0 - SAFETY_MARGIN)))
                .collect(),
            macs_norm: macs.iter().map(|m| m / macs_mean).collect(),
        }
    }
}

/// The hardware store the v/θ update trains and the head binds: θ for
/// Auto-NBA, the generator's `v` otherwise (the NAS→HW head has no
/// hardware leaves, so its choice is moot). Takes the two fields rather
/// than the whole [`SearchState`] so the caller keeps the rest of it.
fn hw_store<'s>(
    method: Method,
    generator: &'s mut Generator,
    hw_params: &'s mut ParamStore,
) -> &'s mut ParamStore {
    match method {
        Method::AutoNba => hw_params,
        _ => generator.params_mut(),
    }
}

/// Schema version of the search-state sections (bumped independently of
/// the container version).
const SEARCH_CKPT_VERSION: u64 = 1;

/// Values per serialized [`EpochTrace`] row.
const TRACE_COLS: usize = 12;

/// FNV-1a over a word sequence's little-endian bytes — **stable**
/// across platforms and Rust versions (unlike `DefaultHasher`), because
/// checkpoint files outlive the process that wrote them.
fn fnv1a_words(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    hdx_tensor::ckpt::fnv1a(&bytes)
}

/// Fingerprint of everything in a [`SearchOptions`] that shapes the
/// per-epoch dynamics. `epochs` is deliberately excluded (a resume may
/// extend the schedule), as are `jobs`/`exec` (results are
/// worker-count- and exec-mode-invariant) and `checkpoint` itself.
fn search_fingerprint(opts: &SearchOptions) -> u64 {
    let mut parts: Vec<u64> = Vec::new();
    match opts.method {
        Method::NasThenHw { lambda_macs } => {
            parts.push(0);
            parts.push(lambda_macs.to_bits());
        }
        Method::AutoNba => parts.push(1),
        Method::Dance => parts.push(2),
        Method::Hdx { delta0, p } => {
            parts.push(3);
            parts.push(u64::from(delta0.to_bits()));
            parts.push(u64::from(p.to_bits()));
        }
    }
    parts.push(opts.lambda_cost.to_bits());
    match opts.lambda_soft {
        Some(l) => {
            parts.push(1);
            parts.push(l.to_bits());
        }
        None => parts.push(0),
    }
    for c in &opts.constraints {
        parts.push(match c.metric {
            Metric::Latency => 0,
            Metric::Energy => 1,
            Metric::Area => 2,
        });
        parts.push(c.target.to_bits());
    }
    parts.push(opts.steps_per_epoch as u64);
    parts.push(opts.batch as u64);
    parts.push(u64::from(W_LR.to_bits()));
    parts.push(u64::from(ALPHA_LR.to_bits()));
    parts.push(u64::from(GEN_LR.to_bits()));
    parts.push(opts.final_train_steps as u64);
    parts.push(opts.seed);
    parts.push(opts.supernet.feature_dim as u64);
    parts.push(opts.supernet.base_hidden as u64);
    parts.push(opts.supernet.num_paths as u64);
    // The retired softmax-temperature word (always 1.0), kept so
    // snapshots written before it became a constant still resume.
    parts.push(u64::from(1.0f32.to_bits()));
    parts.push(SAFETY_MARGIN.to_bits());
    fnv1a_words(&parts)
}

/// Fingerprint of the frozen environment a search ran against: the
/// estimator's full weight bit pattern (which uniquely identifies a
/// trained bundle), its normalization stats, the cost weights, and the
/// plan size. A checkpoint must only resume against the artifacts it
/// was written with — a different estimator is a different cost
/// surface, and continuing on it would produce a plausible-looking but
/// wrong report instead of a typed error.
fn context_fingerprint(ctx: &SearchContext<'_>) -> u64 {
    let mut parts: Vec<u64> = Vec::new();
    parts.push(ctx.plan.num_layers() as u64);
    let stats = ctx.estimator.stats();
    for m in 0..3 {
        parts.push(u64::from(stats.mean[m].to_bits()));
        parts.push(u64::from(stats.std[m].to_bits()));
    }
    let w = ctx.weights;
    for v in [w.c_l, w.c_e, w.c_a, w.l_ref, w.e_ref, w.a_ref] {
        parts.push(v.to_bits());
    }
    for (_, t) in ctx.estimator.params().iter() {
        for &d in t.shape() {
            parts.push(d as u64);
        }
        parts.extend(t.data().iter().map(|v| u64::from(v.to_bits())));
    }
    fnv1a_words(&parts)
}

/// A mid-search snapshot: everything `search_inner`'s epoch loop
/// mutates, captured at an epoch boundary. Saving and resuming is
/// exact — every parameter, Adam moment, RNG word, and δ value
/// round-trips by bit pattern, so a resumed search reproduces the
/// uninterrupted run's result bit for bit (pinned by
/// `tests/serve_router.rs`).
#[derive(Debug)]
pub struct SearchCheckpoint {
    ckpt: Checkpoint,
    epoch: usize,
    fingerprint: u64,
    context_fingerprint: u64,
}

impl SearchCheckpoint {
    /// Captures the live search state at `epoch` completed epochs.
    fn capture(st: &SearchState<'_>, epoch: usize) -> SearchCheckpoint {
        let fingerprint = search_fingerprint(st.opts);
        let ctx_fingerprint = context_fingerprint(&st.ctx);
        let mut ckpt = Checkpoint::new();
        ckpt.put_u64(
            "search.meta",
            &[5],
            &[
                SEARCH_CKPT_VERSION,
                epoch as u64,
                fingerprint,
                u64::from(st.delta_policy.is_some()),
                ctx_fingerprint,
            ],
        );
        ckpt.put_u64("search.rng", &[3], &st.rng.state_words());
        if let Some(dp) = &st.delta_policy {
            ckpt.put_f32("search.delta", &[1], &[dp.delta()]);
        }
        ckpt.put_param_store("search.w", st.supernet.w_store());
        ckpt.put_param_store("search.alpha", st.supernet.alpha_store());
        ckpt.put_param_store("search.gen", st.generator.params());
        ckpt.put_param_store("search.hw", &st.hw_params);
        st.w_opt.save_state(&mut ckpt, "search.w_opt");
        st.a_opt.save_state(&mut ckpt, "search.a_opt");
        st.v_opt.save_state(&mut ckpt, "search.v_opt");
        let mut rows = Vec::with_capacity(st.trajectory.len() * TRACE_COLS);
        for t in &st.trajectory {
            rows.extend([
                t.epoch as f64,
                t.task_loss,
                t.global_loss,
                t.est.latency_ms,
                t.est.energy_mj,
                t.est.area_mm2,
                t.truth.latency_ms,
                t.truth.energy_mj,
                t.truth.area_mm2,
                f64::from(t.delta),
                f64::from(u8::from(t.violated)),
                t.manipulated_steps as f64,
            ]);
        }
        ckpt.put_f64("search.trace", &[st.trajectory.len(), TRACE_COLS], &rows);
        if let Some(note) = st.opts.checkpoint.as_ref().and_then(|s| s.note.as_deref()) {
            ckpt.put_bytes("search.note", note.as_bytes());
        }
        SearchCheckpoint {
            ckpt,
            epoch,
            fingerprint,
            context_fingerprint: ctx_fingerprint,
        }
    }

    /// Writes the snapshot to `path` (the standard `hdx_tensor::ckpt`
    /// container — versioned, endian-fixed, checksummed).
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), CkptError> {
        self.ckpt.save(path)
    }

    /// Loads a snapshot written by a checkpointing search.
    ///
    /// # Errors
    ///
    /// Every container parse error, plus [`CkptError::Malformed`] /
    /// [`CkptError::UnsupportedVersion`] when the search-state sections
    /// are missing or from a different schema.
    pub fn load(path: &Path) -> Result<SearchCheckpoint, CkptError> {
        Self::from_checkpoint(Checkpoint::load(path)?)
    }

    /// [`SearchCheckpoint::load`] from an already-parsed container.
    ///
    /// # Errors
    ///
    /// As [`SearchCheckpoint::load`], minus the I/O.
    pub fn from_checkpoint(ckpt: Checkpoint) -> Result<SearchCheckpoint, CkptError> {
        let (shape, meta) = ckpt.get_u64("search.meta")?;
        if shape != [5] {
            return Err(CkptError::ShapeMismatch {
                name: "search.meta".to_owned(),
                expected: vec![5],
                found: shape.to_vec(),
            });
        }
        if meta[0] != SEARCH_CKPT_VERSION {
            return Err(CkptError::UnsupportedVersion(meta[0] as u32));
        }
        let epoch = usize::try_from(meta[1])
            .map_err(|_| CkptError::Malformed("search.meta epoch exceeds usize".to_owned()))?;
        Ok(SearchCheckpoint {
            fingerprint: meta[2],
            context_fingerprint: meta[4],
            epoch,
            ckpt,
        })
    }

    /// Completed epochs at the snapshot (the resume point).
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// The originating options fingerprint (see [`SearchCheckpoint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The fingerprint of the artifacts (estimator weights, cost
    /// weights, plan) the snapshot's search ran against. Resume
    /// rejects a context whose fingerprint differs — a different
    /// bundle is a different cost surface.
    pub fn context_fingerprint(&self) -> u64 {
        self.context_fingerprint
    }

    /// Whether `opts` describes the search this snapshot came from
    /// (everything except `epochs`, `jobs`, `exec`, and `checkpoint`).
    pub fn matches(&self, opts: &SearchOptions) -> bool {
        self.fingerprint == search_fingerprint(opts)
    }

    /// The caller note recorded at capture time, if any.
    pub fn note(&self) -> Option<String> {
        let bytes = self.ckpt.get_bytes("search.note").ok()?;
        String::from_utf8(bytes).ok()
    }

    /// Checks that the snapshot belongs to the search `st` was built
    /// for, then overwrites `st`'s live state with it. Returns the epoch
    /// to continue from.
    fn restore_into(&self, st: &mut SearchState<'_>) -> Result<usize, CkptError> {
        if self.fingerprint != search_fingerprint(st.opts) {
            return Err(CkptError::Malformed(
                "search checkpoint was written by an incompatible configuration".to_owned(),
            ));
        }
        if self.context_fingerprint != context_fingerprint(&st.ctx) {
            return Err(CkptError::Malformed(
                "search checkpoint was written against different artifacts (estimator/cost \
                 surface mismatch)"
                    .to_owned(),
            ));
        }
        if self.epoch > st.opts.epochs {
            return Err(CkptError::Malformed(format!(
                "search checkpoint is at epoch {} but the schedule ends at {}",
                self.epoch, st.opts.epochs
            )));
        }
        let (_, meta) = self.ckpt.get_u64("search.meta")?;
        if (meta[3] != 0) != st.delta_policy.is_some() {
            return Err(CkptError::Malformed(
                "search checkpoint δ-schedule presence disagrees with the method".to_owned(),
            ));
        }
        self.ckpt
            .read_param_store_into("search.w", st.supernet.w_store_mut())?;
        self.ckpt
            .read_param_store_into("search.alpha", st.supernet.alpha_store_mut())?;
        self.ckpt
            .read_param_store_into("search.gen", st.generator.params_mut())?;
        self.ckpt
            .read_param_store_into("search.hw", &mut st.hw_params)?;
        st.w_opt = Adam::load_state(&self.ckpt, "search.w_opt")?;
        st.a_opt = Adam::load_state(&self.ckpt, "search.a_opt")?;
        st.v_opt = Adam::load_state(&self.ckpt, "search.v_opt")?;
        let (shape, words) = self.ckpt.get_u64("search.rng")?;
        if shape != [3] {
            return Err(CkptError::ShapeMismatch {
                name: "search.rng".to_owned(),
                expected: vec![3],
                found: shape.to_vec(),
            });
        }
        st.rng = Rng::from_state_words([words[0], words[1], words[2]]);
        if let Some(dp) = &mut st.delta_policy {
            let (_, delta) = self.ckpt.get_f32("search.delta")?;
            let value = *delta
                .first()
                .ok_or_else(|| CkptError::Malformed("search.delta is empty".to_owned()))?;
            if !value.is_finite() || value <= 0.0 {
                return Err(CkptError::Malformed(format!(
                    "search.delta must be positive, got {value}"
                )));
            }
            dp.set_delta(value);
        }
        let (shape, rows) = self.ckpt.get_f64("search.trace")?;
        if shape.len() != 2 || shape[1] != TRACE_COLS || shape[0] != self.epoch {
            return Err(CkptError::ShapeMismatch {
                name: "search.trace".to_owned(),
                expected: vec![self.epoch, TRACE_COLS],
                found: shape.to_vec(),
            });
        }
        st.trajectory.clear();
        for row in rows.chunks(TRACE_COLS) {
            st.trajectory.push(EpochTrace {
                epoch: row[0] as usize,
                task_loss: row[1],
                global_loss: row[2],
                est: HwMetrics::new(row[3], row[4], row[5]),
                truth: HwMetrics::new(row[6], row[7], row[8]),
                delta: row[9] as f32,
                violated: row[10] != 0.0,
                manipulated_steps: row[11] as usize,
            });
        }
        Ok(self.epoch)
    }
}

/// Tape handles of one recorded hardware head.
struct HeadVars {
    /// Per-layer α leaves, in layer order.
    alpha_vars: Vec<Var>,
    /// Trainable hardware leaves: the generator weights `v`
    /// (Dance/HDX), `[θ]` (Auto-NBA), or empty (NAS→HW).
    hw_vars: Vec<Var>,
    /// The head's contribution to the global loss: `λ·Cost_HW` plus
    /// soft penalties, or the MAC penalty for NAS→HW.
    objective: Var,
    /// Unweighted `Cost_HW` (the v/θ descent objective).
    cost: Option<Var>,
    /// Constraint loss Σ max(t_i − T_i, 0) (HDX only).
    constraint: Option<Var>,
    /// Estimator metric heads (latency, energy, area).
    metrics: Option<(Var, Var, Var)>,
}

/// `x · v` with `v` a `[1, 1]` leaf: a per-search factor enters the
/// graph as a value, not as a constant the compiled plan bakes.
fn scale_by_leaf(tape: &mut Tape, x: Var, v: f32) -> Var {
    let v = tape.leaf(Tensor::scalar(v));
    tape.mul_scalar_var(x, v)
}

/// The hinge `max(x − t, 0)` with `−t` a `[1, 1]` leaf.
fn hinge_above_leaf(tape: &mut Tape, x: Var, t: f32) -> Var {
    let neg = tape.leaf(Tensor::scalar(-t));
    let shifted = tape.add(x, neg);
    tape.clamp_min(shifted, 0.0)
}

/// Records the hardware head onto `tape`: α leaves → arch encoding →
/// hardware path → estimator cost / penalties / constraint loss. Every
/// per-search value (λs, steering targets, cost-weight scales, the
/// estimator's statistics and weights, the MAC proxy) is a leaf, so the
/// graph's shape is a function of [`head_bank_key`]'s inputs alone.
/// Used both to compile the replayed head and as the per-step
/// fresh-record reference.
fn record_head(tape: &mut Tape, st: &SearchState<'_>) -> HeadVars {
    let (ctx, opts, supernet, generator) = (&st.ctx, st.opts, &st.supernet, &st.generator);
    let alpha_store = supernet.alpha_store();
    let ab = alpha_store.bind(tape);
    let alpha_vars: Vec<Var> = (0..supernet.num_layers())
        .map(|l| ab.var(alpha_store.id(l)))
        .collect();
    let enc = supernet.arch_encoding(tape, &ab);

    let (hw_vars, hw_var): (Vec<Var>, Option<Var>) = match opts.method {
        Method::NasThenHw { .. } => (Vec::new(), None),
        Method::AutoNba => {
            let hb = st.hw_params.bind(tape);
            let raw = hb.var(st.hw_theta);
            let dims_raw = tape.slice_cols(raw, 0, 3);
            let dims = tape.sigmoid(dims_raw);
            let df_raw = tape.slice_cols(raw, 3, 6);
            let df = tape.softmax_rows(df_raw);
            let hw = tape.concat_cols(&[dims, df]);
            (vec![raw], Some(hw))
        }
        Method::Dance | Method::Hdx { .. } => {
            let vb = generator.bind(tape);
            let hw = generator.forward(tape, &vb, enc);
            let vars = (0..generator.params().len())
                .map(|i| vb.var(generator.params().id(i)))
                .collect();
            (vars, Some(hw))
        }
    };

    let mut cost = None;
    let mut metrics = None;
    let objective = match opts.method {
        Method::NasThenHw { lambda_macs } => {
            let macs = &st.macs_norm;
            let macs_leaf = tape.leaf(Tensor::from_vec(macs.clone(), &[1, macs.len()]));
            let expected = tape.dot(enc, macs_leaf);
            scale_by_leaf(tape, expected, lambda_macs as f32)
        }
        _ => {
            let eb = ctx.estimator.bind(tape);
            let est_in = tape.concat_cols(&[enc, hw_var.expect("hw path present")]);
            let (lat, en, ar) = ctx.estimator.predict_metrics(tape, &eb, est_in);
            let w = ctx.weights;
            let lat_c = scale_by_leaf(tape, lat, (w.c_l / w.l_ref) as f32);
            let en_c = scale_by_leaf(tape, en, (w.c_e / w.e_ref) as f32);
            let ar_c = scale_by_leaf(tape, ar, (w.c_a / w.a_ref) as f32);
            let partial = tape.add(lat_c, en_c);
            let cost_var = tape.add(partial, ar_c);
            let mut objective = scale_by_leaf(tape, cost_var, opts.lambda_cost as f32);

            // Soft-constraint penalty (DANCE+Soft / Auto-NBA+Soft).
            if let Some(lambda_soft) = opts.lambda_soft {
                for c in &st.steering {
                    let metric = pick_metric((lat, en, ar), c);
                    let ratio = scale_by_leaf(tape, metric, (1.0 / c.target) as f32);
                    let hinge = tape.hinge_above(ratio, 1.0);
                    let pen = scale_by_leaf(tape, hinge, lambda_soft as f32);
                    objective = tape.add(objective, pen);
                }
            }
            cost = Some(cost_var);
            metrics = Some((lat, en, ar));
            objective
        }
    };

    // Constraint loss Σ max(t_i − T_i, 0) (Eq. 5/9).
    let mut constraint = None;
    if matches!(opts.method, Method::Hdx { .. }) && !st.steering.is_empty() {
        if let Some(mv) = metrics {
            let mut acc: Option<Var> = None;
            for c in &st.steering {
                let metric = pick_metric(mv, c);
                let hinge = hinge_above_leaf(tape, metric, c.target as f32);
                acc = Some(match acc {
                    Some(a) => tape.add(a, hinge),
                    None => hinge,
                });
            }
            constraint = acc;
        }
    }

    HeadVars {
        alpha_vars,
        hw_vars,
        objective,
        cost,
        constraint,
        metrics,
    }
}

/// The [`SessionBank`] key of the hardware head: the graph's shape and
/// nothing else — the method, the layer count, whether a soft penalty
/// is recorded, the constrained metrics in steering order, and the
/// estimator and generator parameter shapes. Every value the head reads
/// is a leaf that [`HeadExec::checkout`] binds, so the key hashes no
/// float and one program serves every request of that shape.
fn head_bank_key(st: &SearchState<'_>) -> u64 {
    let method: u8 = match st.opts.method {
        Method::NasThenHw { .. } => 0,
        Method::AutoNba => 1,
        Method::Dance => 2,
        Method::Hdx { .. } => 3,
    };
    let metrics: Vec<Metric> = st.steering.iter().map(|c| c.metric).collect();
    let shapes: Vec<Vec<&[usize]>> = [st.ctx.estimator.params(), st.generator.params()]
        .iter()
        .map(|store| store.iter().map(|(_, t)| t.shape()).collect())
        .collect();
    bank_key(
        "hw-head",
        &(
            method,
            st.supernet.num_layers(),
            st.opts.lambda_soft.is_some(),
            metrics,
            shapes,
        ),
    )
}

/// Per-step outputs of the hardware head, written into reusable
/// buffers (the replayed head allocates nothing per step once warm).
#[derive(Default)]
struct HeadEval {
    /// Value of [`HeadVars::objective`].
    objective: f64,
    /// Estimator-predicted metrics (None for NAS→HW).
    est: Option<HwMetrics>,
    /// ∂objective/∂α, flattened in layer order.
    alpha_obj: Vec<f32>,
    /// ∂constraint/∂α (HDX only).
    alpha_const: Option<Vec<f32>>,
    /// ∂Cost_HW/∂(v or θ).
    hw_cost: Option<Vec<f32>>,
    /// ∂constraint/∂(v or θ) (HDX only).
    hw_const: Option<Vec<f32>>,
}

/// The hardware-head executor: a bank-leased [`Session`] replayed with
/// rebound parameters, or the fresh-record reference.
enum HeadExec<'b> {
    Compiled {
        lease: Box<SessionLease<'b>>,
        vars: Arc<HeadVars>,
    },
    Fresh {
        tape: Tape,
    },
}

impl<'b> HeadExec<'b> {
    /// Records this search's head once (a batch-1 eager forward; no RNG
    /// is drawn), leases the program of its shape from `bank` —
    /// compiling that recording on a miss — and binds every leaf of the
    /// recording into the session: the estimator, the per-search
    /// constants, and this step's α and hardware parameters.
    fn checkout(st: &SearchState<'_>, bank: &'b SessionBank) -> HeadExec<'b> {
        let mut tape = Tape::new();
        let recorded = record_head(&mut tape, st);
        // The head is a batch-1 (row-vector) graph: every kernel is far
        // under the pool dispatch threshold, so it replays on one thread.
        let mut lease = bank.checkout(head_bank_key(st), || {
            let mut outputs = vec![recorded.objective];
            outputs.extend(recorded.cost);
            outputs.extend(recorded.constraint);
            let keep: Vec<Var> = recorded
                .metrics
                .map(|(l, e, a)| vec![l, e, a])
                .unwrap_or_default();
            // Only α and the trainable hardware parameters feed the
            // optimizers; the frozen estimator weights and the constant
            // leaves are pruned gradient sinks, which skips their
            // per-layer weight-grad matmuls on every replay.
            let sinks: Vec<Var> = recorded
                .alpha_vars
                .iter()
                .chain(&recorded.hw_vars)
                .copied()
                .collect();
            (
                Program::compile_with_sinks(&tape, &outputs, &keep, &sinks),
                recorded,
            )
        });
        // A key that missed a topology input would pair this recording
        // with another graph; `bind_leaves` checks the node count and
        // every leaf position against the leased program.
        lease.session().bind_leaves(&tape);
        HeadExec::Compiled {
            vars: lease.meta(),
            lease: Box::new(lease),
        }
    }

    /// Runs the head on the current α and hardware parameters — the
    /// replayed session rebinds them, the fresh reference re-records —
    /// and reads both executors' values and gradients into `out` the
    /// same way. `st` is mutable only to reach [`hw_store`].
    fn eval(&mut self, st: &mut SearchState<'_>, out: &mut HeadEval) {
        let recorded;
        let (vars, mut run) = match self {
            HeadExec::Compiled { lease, vars } => (&**vars, GraphRun::Replay(lease.session())),
            HeadExec::Fresh { tape } => {
                tape.clear();
                recorded = record_head(tape, st);
                (&recorded, GraphRun::Fresh(tape, None))
            }
        };
        let alpha = st.supernet.alpha_store();
        let hw: &ParamStore = hw_store(st.opts.method, &mut st.generator, &mut st.hw_params);
        if let GraphRun::Replay(session) = &mut run {
            for (l, &v) in vars.alpha_vars.iter().enumerate() {
                session.bind(v, alpha.get(alpha.id(l)).data());
            }
            for (i, &v) in vars.hw_vars.iter().enumerate() {
                session.bind(v, hw.get(hw.id(i)).data());
            }
            session.forward();
        }
        out.objective = run.scalar(vars.objective);
        out.est = vars
            .metrics
            .map(|(l, e, a)| HwMetrics::new(run.scalar(l), run.scalar(e), run.scalar(a)));

        run.backward(vars.objective);
        run.grads_into(&vars.alpha_vars, alpha, &mut out.alpha_obj);
        match vars.cost {
            Some(cv) => {
                run.backward(cv);
                run.grads_into(&vars.hw_vars, hw, out.hw_cost.get_or_insert_with(Vec::new));
            }
            None => out.hw_cost = None,
        }
        match vars.constraint {
            Some(cv) => {
                run.backward(cv);
                let ac = out.alpha_const.get_or_insert_with(Vec::new);
                run.grads_into(&vars.alpha_vars, alpha, ac);
                run.grads_into(&vars.hw_vars, hw, out.hw_const.get_or_insert_with(Vec::new));
            }
            None => {
                out.alpha_const = None;
                out.hw_const = None;
            }
        }
    }
}

/// How the supernet task branch executes one step.
enum TaskExec<'p> {
    /// Bank-cached segment-chain replay of the sampled path sets, at
    /// every `num_paths` ([`ExecMode::Compiled`]).
    Sampled(Box<SampledReplay<'p>>),
    /// The fresh-record reference ([`ExecMode::FreshRecord`]).
    Fresh,
}

/// One executed step graph, read the same way whichever executor ran
/// it: a replayed [`Session`], or a freshly recorded [`Tape`] with the
/// gradients of its last backward pass.
enum GraphRun<'r> {
    Replay(&'r mut Session),
    Fresh(&'r Tape, Option<Gradients>),
}

impl GraphRun<'_> {
    /// The value of a scalar node.
    fn scalar(&self, v: Var) -> f64 {
        f64::from(match self {
            GraphRun::Replay(session) => session.scalar(v),
            GraphRun::Fresh(tape, _) => tape.value(v).item(),
        })
    }

    /// Backpropagates from `output`, replacing the previous gradients.
    fn backward(&mut self, output: Var) {
        match self {
            GraphRun::Replay(session) => session.backward(output),
            GraphRun::Fresh(tape, grads) => *grads = Some(tape.backward(output)),
        }
    }

    /// Flattens the gradients of `vars` — the leaves of `store`, in
    /// parameter order — into `out`, zero-filling the leaves the last
    /// backward output does not depend on.
    fn grads_into(&self, vars: &[Var], store: &ParamStore, out: &mut Vec<f32>) {
        out.clear();
        for (i, &v) in vars.iter().enumerate() {
            let grad = match self {
                GraphRun::Replay(session) => session.grad(v),
                GraphRun::Fresh(_, grads) => grads
                    .as_ref()
                    .expect("grads_into: no backward pass has run")
                    .wrt(v)
                    .map(Tensor::data),
            };
            match grad {
                Some(g) => out.extend_from_slice(g),
                None => out.extend(std::iter::repeat_n(0.0, store.get(store.id(i)).len())),
            }
        }
    }
}

fn pick_metric(vars: (Var, Var, Var), c: &Constraint) -> Var {
    match c.metric {
        hdx_accel::Metric::Latency => vars.0,
        hdx_accel::Metric::Energy => vars.1,
        hdx_accel::Metric::Area => vars.2,
    }
}

/// The hardware the current state proposes (decoded to discrete).
/// NAS→HW has no hardware parameters: it searches the accelerator space
/// exhaustively for the current architecture, on the search's `pool`.
fn propose_hardware(st: &SearchState<'_>, pool: &WorkerPool) -> AccelConfig {
    match st.opts.method {
        Method::NasThenHw { .. } => {
            let arch = st.supernet.architecture();
            hdx_accel::exhaustive_search(&st.ctx.plan.layers_for(&arch), &st.ctx.weights, &[], pool)
                .expect("non-empty accelerator space")
                .config
        }
        Method::AutoNba => {
            let raw = st.hw_params.get(st.hw_theta);
            let mut feat = [0.0f32; 6];
            for (i, f) in feat.iter_mut().enumerate().take(3) {
                *f = 1.0 / (1.0 + (-raw.data()[i]).exp());
            }
            let df = Tensor::from_vec(raw.data()[3..6].to_vec(), &[1, 3]).softmax_rows();
            feat[3..6].copy_from_slice(df.data());
            AccelConfig::decode(&feat)
        }
        Method::Dance | Method::Hdx { .. } => st.generator.propose(&st.supernet.arch_probs()),
    }
}

/// Splits a flat gradient vector back into per-parameter tensors.
fn unflatten(flat: &[f32], store: &ParamStore) -> Vec<Option<Tensor>> {
    let mut out = Vec::with_capacity(store.len());
    let mut offset = 0;
    for (_, t) in store.iter() {
        let n = t.len();
        out.push(Some(Tensor::from_vec(
            flat[offset..offset + n].to_vec(),
            t.shape(),
        )));
        offset += n;
    }
    assert_eq!(offset, flat.len(), "unflatten: length mismatch");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{prepare_context_with, PreparedContext, Task};
    use hdx_surrogate::EstimatorConfig;
    use std::sync::OnceLock;

    /// Shared small context: estimator trained on a reduced pair budget
    /// so the whole module stays fast.
    fn ctx() -> &'static PreparedContext {
        static CTX: OnceLock<PreparedContext> = OnceLock::new();
        CTX.get_or_init(|| {
            prepare_context_with(
                Task::Cifar,
                7,
                2500,
                EstimatorConfig {
                    epochs: 20,
                    batch: 128,
                    lr: 2e-3,
                    ..Default::default()
                },
            )
        })
    }

    fn quick_opts(method: Method) -> SearchOptions {
        SearchOptions {
            method,
            epochs: 10,
            steps_per_epoch: 10,
            final_train_steps: 600,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn estimator_in_shared_context_is_accurate() {
        // The paper reports >99 % estimator accuracy at 10.8 M pairs.
        // This shared test context trains on just 2.5 k pairs to keep
        // the suite fast; the larger `HDX_EST_PAIRS` budget is checked
        // by the experiment harness. Here we only require that the
        // estimator is clearly informative (joint within-10 % on all
        // three metrics simultaneously).
        let acc = ctx().estimator_accuracy;
        assert!(acc > 0.25, "estimator within-10% accuracy {acc:.3}");
    }

    #[test]
    fn hdx_satisfies_hard_latency_constraint() {
        let prepared = ctx();
        let c = Constraint::fps(30.0);
        let opts = SearchOptions {
            constraints: vec![c],
            ..quick_opts(Method::Hdx {
                delta0: 1e-3,
                p: 1e-2,
            })
        };
        let result = run_search(&prepared.context(), &opts);
        assert!(
            result.in_constraint,
            "HDX must end in-constraint; got {} (target {})",
            result.metrics, c.target
        );
        assert!(result.error.is_finite() && result.error < 0.5);
        assert_eq!(result.trajectory.len(), opts.epochs);
    }

    #[test]
    fn dance_runs_and_reports_trajectory() {
        let prepared = ctx();
        let opts = quick_opts(Method::Dance);
        let result = run_search(&prepared.context(), &opts);
        assert_eq!(result.trajectory.len(), opts.epochs);
        assert!(result.metrics.is_valid());
        assert!(result.cost_hw > 0.0);
        // DANCE never takes the manipulated branch.
        assert!(result.trajectory.iter().all(|t| t.manipulated_steps == 0));
    }

    #[test]
    fn nas_then_hw_picks_cost_optimal_hardware() {
        let prepared = ctx();
        let opts = quick_opts(Method::NasThenHw { lambda_macs: 0.05 });
        let result = run_search(&prepared.context(), &opts);
        let best = hdx_accel::exhaustive_search(
            &prepared.plan().layers_for(&result.architecture),
            &prepared.context().weights,
            &[],
            &WorkerPool::new(num_jobs(0)),
        )
        .expect("non-empty space");
        assert_eq!(result.accel, best.config);
    }

    #[test]
    fn auto_nba_returns_valid_config() {
        let prepared = ctx();
        let opts = quick_opts(Method::AutoNba);
        let result = run_search(&prepared.context(), &opts);
        assert!(hdx_accel::SearchSpace::paper()
            .enumerate()
            .contains(&result.accel));
    }

    #[test]
    fn soft_constraint_changes_search_pressure() {
        let prepared = ctx();
        let c = Constraint::fps(60.0);
        let base = SearchOptions {
            constraints: vec![c],
            ..quick_opts(Method::Dance)
        };
        let soft = SearchOptions {
            lambda_soft: Some(5.0),
            ..base.clone()
        };
        let r_base = run_search(&prepared.context(), &base);
        let r_soft = run_search(&prepared.context(), &soft);
        // The soft penalty must not *increase* latency beyond noise.
        assert!(
            r_soft.metrics.latency_ms <= r_base.metrics.latency_ms * 1.35,
            "soft {} vs base {}",
            r_soft.metrics.latency_ms,
            r_base.metrics.latency_ms
        );
    }

    #[test]
    fn hardware_head_replay_matches_fresh_record() {
        // Direct head-level pin of the compiled/fresh equivalence: the
        // replayed session must reproduce every head output and every
        // gradient bit for bit.
        let prepared = ctx();
        let ctx = prepared.context();
        let opts = SearchOptions {
            method: Method::Hdx {
                delta0: 1e-3,
                p: 1e-2,
            },
            constraints: vec![Constraint::fps(30.0)],
            seed: 5,
            ..SearchOptions::default()
        };
        let mut st = SearchState::new(ctx, &opts);

        let mut compiled = HeadExec::checkout(&st, SessionBank::global());
        let mut fresh = HeadExec::Fresh { tape: Tape::new() };
        let mut ec = HeadEval::default();
        let mut ef = HeadEval::default();
        for step in 0..3 {
            compiled.eval(&mut st, &mut ec);
            fresh.eval(&mut st, &mut ef);
            assert_eq!(ec.objective, ef.objective, "step {step} objective");
            assert_eq!(ec.est, ef.est, "step {step} est");
            assert_eq!(ec.alpha_obj, ef.alpha_obj, "step {step} alpha_obj");
            assert_eq!(ec.alpha_const, ef.alpha_const, "step {step} alpha_const");
            assert_eq!(ec.hw_cost, ef.hw_cost, "step {step} hw_cost");
            assert_eq!(ec.hw_const, ef.hw_const, "step {step} hw_const");
        }
    }

    #[test]
    fn shared_head_program_matches_fresh_record() {
        // One compiled head serves every request of its shape. For each
        // method, request A compiles the head on a private bank; request
        // B differs in seed, λ_cost, λ_soft's value and the FPS target
        // (and λ_macs for NAS→HW) but not in shape, so it gets A's key
        // and A's program — once while A holds its lease (a new session
        // initialized with A's recorded values) and once on A's dirty
        // session. Both must equal B's fresh record bit for bit over 3
        // optimizer steps. Keys differ when the method, the constrained
        // metrics or λ_soft's presence does.
        let prepared = ctx();
        let ctx = prepared.context();
        let hdx = Method::Hdx {
            delta0: 1e-3,
            p: 1e-2,
        };
        let methods = [
            hdx,
            Method::Dance,
            Method::AutoNba,
            Method::NasThenHw { lambda_macs: 0.002 },
        ];
        for method in methods {
            let opts_a = SearchOptions {
                method,
                lambda_cost: 0.003,
                lambda_soft: Some(2.0),
                constraints: vec![Constraint::fps(30.0)],
                seed: 5,
                ..SearchOptions::default()
            };
            let opts_b = SearchOptions {
                method: match method {
                    Method::NasThenHw { .. } => Method::NasThenHw { lambda_macs: 0.05 },
                    m => m,
                },
                lambda_cost: 0.01,
                lambda_soft: Some(5.0),
                constraints: vec![Constraint::fps(45.0)],
                seed: 9,
                ..SearchOptions::default()
            };
            let label = method.label();
            let mut st_a = SearchState::new(ctx, &opts_a);
            let mut st_b = SearchState::new(ctx, &opts_b);
            assert_eq!(head_bank_key(&st_a), head_bank_key(&st_b), "{label}");

            let bank = SessionBank::new();
            let mut head_a = HeadExec::checkout(&st_a, &bank);
            head_a.eval(&mut st_a, &mut HeadEval::default());
            let mut beside_a = HeadExec::checkout(&st_b, &bank);
            drop(head_a);
            let mut after_a = HeadExec::checkout(&st_b, &bank);
            let stats = bank.stats();
            assert_eq!((stats.misses, stats.programs), (1, 1), "{label}: {stats:?}");

            let mut fresh = HeadExec::Fresh { tape: Tape::new() };
            let (mut e1, mut e2, mut ef) = (
                HeadEval::default(),
                HeadEval::default(),
                HeadEval::default(),
            );
            for step in 0..3 {
                beside_a.eval(&mut st_b, &mut e1);
                after_a.eval(&mut st_b, &mut e2);
                fresh.eval(&mut st_b, &mut ef);
                for (name, ec) in [("beside A", &e1), ("after A", &e2)] {
                    let at = format!("{label} {name} step {step}");
                    assert_eq!(ec.objective.to_bits(), ef.objective.to_bits(), "{at}");
                    assert_eq!(ec.est, ef.est, "{at}: est");
                    assert_eq!(ec.alpha_obj, ef.alpha_obj, "{at}: alpha_obj");
                    assert_eq!(ec.alpha_const, ef.alpha_const, "{at}: alpha_const");
                    assert_eq!(ec.hw_cost, ef.hw_cost, "{at}: hw_cost");
                    assert_eq!(ec.hw_const, ef.hw_const, "{at}: hw_const");
                }
                // Move α and the hardware parameters so the next step
                // replays new values.
                let per_param = unflatten(&ef.alpha_obj, st_b.supernet.alpha_store());
                st_b.a_opt.step(st_b.supernet.alpha_store_mut(), &per_param);
                if let Some(g) = &ef.hw_cost {
                    let store = hw_store(method, &mut st_b.generator, &mut st_b.hw_params);
                    let per_param = unflatten(g, store);
                    st_b.v_opt.step(store, &per_param);
                }
            }
        }

        // What the key does see: the method, the constrained metrics in
        // steering order, and whether a soft penalty is recorded.
        let key = |opts: SearchOptions| head_bank_key(&SearchState::new(ctx, &opts));
        let base = SearchOptions {
            method: hdx,
            lambda_soft: Some(2.0),
            constraints: vec![Constraint::fps(30.0)],
            ..SearchOptions::default()
        };
        let variants = [
            SearchOptions {
                method: Method::Dance,
                ..base.clone()
            },
            SearchOptions {
                constraints: vec![Constraint::new(Metric::Energy, 5.0)],
                ..base.clone()
            },
            SearchOptions {
                constraints: vec![Constraint::fps(30.0), Constraint::new(Metric::Area, 5.0)],
                ..base.clone()
            },
            SearchOptions {
                lambda_soft: None,
                ..base.clone()
            },
        ];
        for variant in variants {
            assert_ne!(key(variant.clone()), key(base.clone()), "{variant:?}");
        }
    }

    #[test]
    fn search_is_exec_mode_invariant() {
        // The compiled hardware head + final-net replay must reproduce
        // the fresh-record reference bit for bit: same trajectory, same
        // solution, same retrained error.
        let prepared = ctx();
        for method in [
            Method::Hdx {
                delta0: 1e-3,
                p: 1e-2,
            },
            Method::AutoNba,
        ] {
            let run = |exec: ExecMode| {
                let opts = SearchOptions {
                    constraints: vec![Constraint::fps(30.0)],
                    epochs: 3,
                    steps_per_epoch: 5,
                    final_train_steps: 60,
                    seed: 5,
                    exec,
                    ..SearchOptions::default()
                };
                run_search(&prepared.context(), &SearchOptions { method, ..opts })
            };
            let compiled = run(ExecMode::Compiled);
            let fresh = run(ExecMode::FreshRecord);
            assert_eq!(compiled.architecture, fresh.architecture, "{method:?}");
            assert_eq!(compiled.accel, fresh.accel, "{method:?}");
            assert_eq!(compiled.error, fresh.error, "{method:?}");
            assert_eq!(compiled.cost_hw, fresh.cost_hw, "{method:?}");
            for (c, f) in compiled.trajectory.iter().zip(&fresh.trajectory) {
                assert_eq!(c.task_loss, f.task_loss, "{method:?} epoch {}", c.epoch);
                assert_eq!(c.global_loss, f.global_loss, "{method:?} epoch {}", c.epoch);
                assert_eq!(c.est, f.est, "{method:?} epoch {}", c.epoch);
                assert_eq!(c.violated, f.violated, "{method:?} epoch {}", c.epoch);
            }
        }
    }

    #[test]
    fn full_mixture_search_is_exec_mode_invariant() {
        // With num_paths == OP_SET.len() the sampled mixture degenerates
        // to the static full mixture, so the supernet w-step and α-step
        // compile too and the whole search replays end to end. The
        // compiled run must reproduce the fresh-record reference bit
        // for bit.
        let prepared = ctx();
        let run = |exec: ExecMode| {
            let opts = SearchOptions {
                method: Method::Hdx {
                    delta0: 1e-3,
                    p: 1e-2,
                },
                constraints: vec![Constraint::fps(30.0)],
                epochs: 2,
                steps_per_epoch: 4,
                final_train_steps: 40,
                seed: 11,
                supernet: SupernetConfig {
                    num_paths: hdx_nas::OP_SET.len(),
                    ..SupernetConfig::default()
                },
                exec,
                ..SearchOptions::default()
            };
            run_search(&prepared.context(), &opts)
        };
        let compiled = run(ExecMode::Compiled);
        let fresh = run(ExecMode::FreshRecord);
        assert_eq!(compiled.architecture, fresh.architecture);
        assert_eq!(compiled.accel, fresh.accel);
        assert_eq!(compiled.error, fresh.error);
        assert_eq!(compiled.cost_hw, fresh.cost_hw);
        for (c, f) in compiled.trajectory.iter().zip(&fresh.trajectory) {
            assert_eq!(c.task_loss, f.task_loss, "epoch {}", c.epoch);
            assert_eq!(c.global_loss, f.global_loss, "epoch {}", c.epoch);
            assert_eq!(c.est, f.est, "epoch {}", c.epoch);
            assert_eq!(c.violated, f.violated, "epoch {}", c.epoch);
        }
    }

    #[test]
    fn single_path_search_is_exec_mode_invariant() {
        // num_paths == 1 in compiled mode replays its task branch like
        // every other mixture: the segment programs take the chosen
        // path's normalizing factor `1/max(c, 1e-6)` as a leaf the
        // replay rebinds each step (`Supernet::mix_layer`), and the
        // head, the final-net retrain and its evaluation replay too. At
        // every worker count the result and the whole trajectory must
        // equal the fresh-record reference bit for bit.
        let prepared = ctx();
        let run = |exec: ExecMode, jobs: usize| {
            let opts = SearchOptions {
                constraints: vec![Constraint::fps(30.0)],
                epochs: 2,
                steps_per_epoch: 4,
                final_train_steps: 40,
                seed: 13,
                supernet: SupernetConfig {
                    num_paths: 1,
                    ..SupernetConfig::default()
                },
                jobs,
                exec,
                ..SearchOptions::default()
            };
            run_search(&prepared.context(), &opts)
        };
        let reference = run(ExecMode::FreshRecord, 1);
        for (exec, jobs) in [
            (ExecMode::Compiled, 1),
            (ExecMode::Compiled, 2),
            (ExecMode::FreshRecord, 2),
        ] {
            let r = run(exec, jobs);
            let label = format!("{exec:?} jobs={jobs}");
            assert_eq!(r.architecture, reference.architecture, "{label}");
            assert_eq!(r.accel, reference.accel, "{label}");
            assert_eq!(r.metrics, reference.metrics, "{label}");
            assert_eq!(r.error.to_bits(), reference.error.to_bits(), "{label}");
            assert_eq!(r.cost_hw.to_bits(), reference.cost_hw.to_bits(), "{label}");
            assert_eq!(
                r.global_loss.to_bits(),
                reference.global_loss.to_bits(),
                "{label}"
            );
            assert_eq!(r.in_constraint, reference.in_constraint, "{label}");
            assert_eq!(r.trajectory.len(), reference.trajectory.len(), "{label}");
            for (t, f) in r.trajectory.iter().zip(&reference.trajectory) {
                let at = format!("{label} epoch {}", t.epoch);
                assert_eq!(t.epoch, f.epoch, "{at}");
                assert_eq!(t.task_loss.to_bits(), f.task_loss.to_bits(), "{at}");
                assert_eq!(t.global_loss.to_bits(), f.global_loss.to_bits(), "{at}");
                assert_eq!(t.est, f.est, "{at}");
                assert_eq!(t.truth, f.truth, "{at}");
                assert_eq!(t.delta.to_bits(), f.delta.to_bits(), "{at}");
                assert_eq!(t.violated, f.violated, "{at}");
                assert_eq!(t.manipulated_steps, f.manipulated_steps, "{at}");
            }
        }
    }

    #[test]
    fn full_mixture_methods_are_worker_invariant() {
        // meta_fullmix's shape at a small schedule: all four methods on
        // the full mixture, so every phase runs on the search's pool —
        // the replayed task branch, NAS→HW's per-epoch hardware search,
        // HDX's in-constraint repair (the tight target below makes the
        // decoded configuration miss it), the final-net retrain and its
        // evaluation. Reports and trajectories must not move by a bit
        // at any pool size.
        let prepared = ctx();
        let methods = [
            Method::Hdx {
                delta0: 1e-3,
                p: 1e-2,
            },
            Method::Dance,
            Method::AutoNba,
            Method::NasThenHw { lambda_macs: 0.002 },
        ];
        for method in methods {
            let run = |jobs: usize| {
                let opts = SearchOptions {
                    method,
                    lambda_cost: 0.001,
                    constraints: vec![Constraint::fps(200.0)],
                    epochs: 2,
                    steps_per_epoch: 3,
                    final_train_steps: 40,
                    seed: 17,
                    supernet: SupernetConfig {
                        num_paths: hdx_nas::OP_SET.len(),
                        ..SupernetConfig::default()
                    },
                    jobs,
                    ..SearchOptions::default()
                };
                run_search(&prepared.context(), &opts)
            };
            let reference = run(1);
            for jobs in [2, 3] {
                let r = run(jobs);
                let label = format!("{} jobs={jobs}", method.label());
                assert_eq!(r.architecture, reference.architecture, "{label}");
                assert_eq!(r.accel, reference.accel, "{label}");
                assert_eq!(r.metrics, reference.metrics, "{label}");
                assert_eq!(r.error.to_bits(), reference.error.to_bits(), "{label}");
                assert_eq!(r.cost_hw.to_bits(), reference.cost_hw.to_bits(), "{label}");
                assert_eq!(
                    r.global_loss.to_bits(),
                    reference.global_loss.to_bits(),
                    "{label}"
                );
                assert_eq!(r.in_constraint, reference.in_constraint, "{label}");
                assert_eq!(r.trajectory.len(), reference.trajectory.len(), "{label}");
                for (t, f) in r.trajectory.iter().zip(&reference.trajectory) {
                    let at = format!("{label} epoch {}", t.epoch);
                    assert_eq!(t.epoch, f.epoch, "{at}");
                    assert_eq!(t.task_loss.to_bits(), f.task_loss.to_bits(), "{at}");
                    assert_eq!(t.global_loss.to_bits(), f.global_loss.to_bits(), "{at}");
                    assert_eq!(t.est, f.est, "{at}");
                    assert_eq!(t.truth, f.truth, "{at}");
                    assert_eq!(t.delta.to_bits(), f.delta.to_bits(), "{at}");
                    assert_eq!(t.violated, f.violated, "{at}");
                    assert_eq!(t.manipulated_steps, f.manipulated_steps, "{at}");
                }
            }
        }
    }

    #[test]
    fn huge_epoch_count_does_not_presize_the_trajectory() {
        // `epochs` arrives from clients unchecked (`epochs=4294967296`
        // on the wire); building the state must not reserve a trace
        // slot per epoch up front. The search itself is not run.
        let opts = SearchOptions {
            epochs: 1 << 32,
            ..quick_opts(Method::Dance)
        };
        let st = SearchState::new(ctx().context(), &opts);
        assert!(st.trajectory.is_empty());
    }

    #[test]
    fn full_mixture_replay_holds_one_lease_per_side() {
        // The held-lease rule, per (side, layer): the full mixture
        // chooses every path at every step, so no layer's segment key
        // ever changes. Each side checks out one segment session per
        // layer, plus one stem and one tail shared by both sides, on
        // the first step — and the checkout count stays there however
        // many steps follow (no check-in, no pool rebuild).
        let spec = hdx_nas::TaskSpec {
            train: 256,
            val: 64,
            test: 64,
            ..hdx_nas::TaskSpec::cifar_like(2)
        };
        let ds = Dataset::generate(&spec);
        let mut rng = Rng::new(4);
        let cfg = SupernetConfig {
            num_paths: hdx_nas::OP_SET.len(),
            ..SupernetConfig::default()
        };
        const LAYERS: u64 = 4;
        let mut supernet = Supernet::new(4, spec.feature_dim, spec.num_classes, cfg, &mut rng);
        let bank = SessionBank::new();
        let pool = WorkerPool::new(2);
        let mut replay = SampledReplay::new(&bank, &pool);
        let mut w_opt = Adam::new(1e-2);
        let mut checkouts = Vec::new();
        for _ in 0..5 {
            let batch = ds.train_batch(16, &mut rng);
            let grads = replay.w_step(&supernet, &batch, &mut rng);
            w_opt.step(supernet.w_store_mut(), &grads);
            let batch = ds.val_batch(16, &mut rng);
            let (loss, _) = replay.alpha_step(&supernet, &batch, &mut rng);
            assert!(loss.is_finite());
            let stats = bank.stats();
            checkouts.push(stats.hits + stats.misses);
        }
        assert!(
            checkouts.iter().all(|&c| c == 2 + 2 * LAYERS),
            "{checkouts:?}"
        );
        // Stem, tail, and one segment program per side.
        assert_eq!(bank.stats().programs, 4, "{:?}", bank.stats());
        drop(replay);
        assert_eq!(bank.stats().idle_sessions as u64, 2 + 2 * LAYERS);
    }

    #[test]
    fn resumed_search_is_bit_identical_to_uninterrupted() {
        // Interrupting at an epoch boundary and resuming through the
        // checkpoint file must reproduce the uninterrupted run exactly:
        // the snapshot captures every piece of mutable state.
        let prepared = ctx();
        let dir = std::env::temp_dir().join("hdx_engine_resume_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        for method in [
            Method::Hdx {
                delta0: 1e-3,
                p: 5e-2,
            },
            Method::Dance,
        ] {
            let base = SearchOptions {
                method,
                constraints: vec![Constraint::fps(30.0)],
                epochs: 4,
                steps_per_epoch: 4,
                final_train_steps: 40,
                seed: 9,
                ..SearchOptions::default()
            };
            let full = run_search(&prepared.context(), &base);

            // "Interrupt" after 2 of the 4 epochs: a truncated schedule
            // with checkpointing is state-identical to a killed run.
            let path = dir.join(format!("{}.ckpt", method.label()));
            let truncated = SearchOptions {
                epochs: 2,
                checkpoint: Some(CheckpointSpec {
                    path: path.clone(),
                    every_epochs: 1,
                    note: Some("engine-test".to_owned()),
                }),
                ..base.clone()
            };
            run_search(&prepared.context(), &truncated);

            let ckpt = SearchCheckpoint::load(&path).expect("load checkpoint");
            assert_eq!(ckpt.epoch(), 2);
            assert!(ckpt.matches(&base));
            assert_eq!(ckpt.note().as_deref(), Some("engine-test"));
            let resumed = resume_search(&prepared.context(), &base, &ckpt).expect("resume");

            assert_eq!(resumed.architecture, full.architecture, "{method:?}");
            assert_eq!(resumed.accel, full.accel, "{method:?}");
            assert_eq!(resumed.error.to_bits(), full.error.to_bits(), "{method:?}");
            assert_eq!(
                resumed.cost_hw.to_bits(),
                full.cost_hw.to_bits(),
                "{method:?}"
            );
            assert_eq!(
                resumed.global_loss.to_bits(),
                full.global_loss.to_bits(),
                "{method:?}"
            );
            assert_eq!(resumed.trajectory.len(), full.trajectory.len());
            for (r, f) in resumed.trajectory.iter().zip(&full.trajectory) {
                assert_eq!(r.task_loss.to_bits(), f.task_loss.to_bits());
                assert_eq!(r.est, f.est);
                assert_eq!(r.delta.to_bits(), f.delta.to_bits());
                assert_eq!(r.violated, f.violated);
                assert_eq!(r.manipulated_steps, f.manipulated_steps);
            }

            // A mismatched configuration is a typed error, not a wrong
            // answer.
            let wrong = SearchOptions {
                seed: 10,
                ..base.clone()
            };
            assert!(resume_search(&prepared.context(), &wrong, &ckpt).is_err());

            // So is a different frozen cost surface (another bundle's
            // estimator): resume is bound to its artifacts, same task
            // and dataset seed notwithstanding.
            let mut other_rng = Rng::new(99);
            let other_est = Estimator::new(
                &crate::setup::Task::Cifar.plan(),
                hdx_surrogate::EstimatorConfig::default(),
                &mut other_rng,
            );
            let other =
                PreparedContext::from_artifacts(crate::setup::Task::Cifar, 7, other_est, f64::NAN);
            assert!(resume_search(&other.context(), &base, &ckpt).is_err());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn hdx_trajectory_reports_delta_growth_under_violation() {
        let prepared = ctx();
        // An aggressive target guarantees early violations.
        let c = Constraint::fps(60.0);
        let opts = SearchOptions {
            constraints: vec![c],
            ..quick_opts(Method::Hdx {
                delta0: 1e-3,
                p: 5e-2,
            })
        };
        let result = run_search(&prepared.context(), &opts);
        let early = &result.trajectory[0];
        assert!(early.delta > 0.0);
        // If any epoch was violated, delta must have exceeded delta0.
        if result.trajectory.iter().any(|t| t.violated) {
            let max_delta = result
                .trajectory
                .iter()
                .map(|t| t.delta)
                .fold(0.0f32, f32::max);
            assert!(max_delta > 1e-3, "delta never grew: {max_delta}");
        }
    }
}
