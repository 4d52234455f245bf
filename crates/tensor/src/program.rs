//! Compile-once / replay-many graph execution.
//!
//! The fresh-record execution model ([`Tape`]) re-allocates every node
//! value and every backward contribution on every training step, even
//! though the training hot loops replay the *same* graph topology for
//! thousands of steps. This module lowers a recorded tape into a
//! [`Program`] — a static execution plan with
//!
//! * a **liveness-analyzed arena**: node values live at fixed offsets
//!   of one flat buffer, and buffers of dead intermediates are reused
//!   by later nodes of the same size (zero allocation on replay);
//! * **fused kernels** for the dominant patterns: `matmul → add_bias
//!   (→ relu)` collapses into a single linear-layer kernel whose
//!   intermediates never materialize, and `cross_entropy_logits`
//!   caches its forward softmax so the backward pass never recomputes
//!   it;
//! * **multi-output backward plans**: the engine differentiates one
//!   forward graph from several scalar heads (global loss, `Cost_HW`,
//!   constraint loss) without re-running forward.
//!
//! A [`Session`] owns the mutable buffers for one replay stream:
//! [`Session::bind`] overwrites leaf values (minibatch inputs,
//! parameter values), [`Session::forward`] / [`Session::backward`]
//! replay the plan in place, and [`Session::grad`] exposes gradients.
//!
//! # Bit-identical contract
//!
//! Replaying a `Session` produces **bit-identical** values and
//! gradients to re-recording the same graph on a fresh [`Tape`] every
//! step (`tests/determinism.rs` pins this workspace-wide). Every
//! kernel with an internal reduction is shared with the eager path
//! through [`crate::kernels`], contributions with internal sums are
//! staged through scratch buffers so gradient accumulation folds in
//! the same order, and fused kernels are chosen only where the
//! collapsed arithmetic is element-for-element identical (the relu
//! gate tests the post-activation output, which is positive exactly
//! when the pre-activation is).
//!
//! # When fresh-record is still used
//!
//! Compilation requires a static topology, static shapes, and no
//! per-step values baked in as constants. Graphs that break this — the
//! single-path supernet mixture, one-off evaluations — keep recording
//! onto a `Tape`; it is also the reference implementation
//! ([`ExecMode::FreshRecord`]) the equivalence tests replay against.
//!
//! # Example
//!
//! ```
//! use hdx_tensor::{Program, Session, Tape, Tensor};
//! use std::sync::Arc;
//!
//! // Record the graph shape once.
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::row(&[1.0, 2.0]));
//! let loss = tape.dot(x, x); // Σ x²
//! let prog = Arc::new(Program::compile(&tape, &[loss], &[]));
//!
//! // Replay many times with rebound inputs.
//! let mut sess = Session::new(prog);
//! sess.bind(x, &[3.0, -1.0]);
//! sess.forward();
//! assert_eq!(sess.scalar(loss), 10.0);
//! sess.backward(loss);
//! assert_eq!(sess.grad(x).unwrap(), &[6.0, -2.0]);
//! ```

use crate::kernels::{
    decode_head_into, matmul_view, softmax_rows_into, DecodeAct, Epilogue, MatRef, Tier, ROW_BLOCK,
};
use crate::par::WorkerPool;
use crate::tape::{lut_cell, Op, Tape, Var};
use crate::tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which execution engine a training loop should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Compile the step graph once and replay it (the default).
    #[default]
    Compiled,
    /// Re-record the graph on a fresh tape every step — the reference
    /// path, and the only option for dynamic topologies.
    FreshRecord,
}

/// A misuse of a compiled [`Program`] / [`Session`] that the engine
/// layer can report with context (which program, which var) instead of
/// dying on a raw panic deep inside the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The var passed to [`Session::set_targets`] is not a
    /// cross-entropy node of the compiled graph.
    NotCrossEntropy {
        /// Tape index of the offending var.
        var: usize,
    },
    /// The target slice length differs from the recorded batch size.
    TargetLenMismatch {
        /// Tape index of the cross-entropy node.
        var: usize,
        /// Batch size recorded at compile time.
        expected: usize,
        /// Length the caller passed.
        got: usize,
    },
    /// The var passed to [`Session::backward`] was not registered as an
    /// output at compile time.
    NotAnOutput {
        /// Tape index of the offending var.
        var: usize,
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::NotCrossEntropy { var } => {
                write!(
                    f,
                    "var {var} is not a cross_entropy node of the compiled graph"
                )
            }
            ProgramError::TargetLenMismatch { var, expected, got } => write!(
                f,
                "cross_entropy var {var} was compiled for {expected} targets, got {got}"
            ),
            ProgramError::NotAnOutput { var } => {
                write!(
                    f,
                    "var {var} is not a registered output of the compiled program"
                )
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A fixed-size range inside an arena buffer.
#[derive(Debug, Clone, Copy)]
struct Buf {
    off: usize,
    len: usize,
}

impl Buf {
    fn range(self) -> std::ops::Range<usize> {
        self.off..self.off + self.len
    }
}

/// One executable step of the plan. Indices are tape node ids; the
/// step at position `i` produces the value of node `i` (unless it is
/// `Skip`, in which case node `i` was folded into a later fused step).
#[derive(Debug, Clone)]
enum Step {
    Skip,
    Leaf,
    Add(usize, usize),
    Div(usize, usize),
    Scale(usize, f32),
    AddScalar(usize, f32),
    Relu(usize),
    Sigmoid(usize),
    Exp(usize),
    ClampMin(usize, f32),
    MatMul(usize, usize),
    AddBias(usize, usize),
    Sum(usize),
    SoftmaxRows(usize),
    CrossEntropy {
        logits: usize,
        targets: usize, // index into Program::targets
    },
    Mse(usize, usize),
    ConcatCols(Vec<usize>),
    SliceCols {
        input: usize,
        start: usize,
        end: usize,
    },
    Dot(usize, usize),
    MulScalarVar {
        x: usize,
        s: usize,
    },
    LutRowInterp {
        coord: usize,
        table: usize, // index into Program::tables
    },
    /// `matmul → add_bias (→ relu)` collapsed into one kernel; this
    /// step produces the value of the *last* node of the pattern.
    FusedLinear {
        x: usize,
        w: usize,
        bias: usize,
        relu: bool,
    },
    /// `matmul → add_bias (→ relu) → add` — a fused linear whose only
    /// consumer is a residual add — collapsed into one step producing
    /// the value of the `add` node. `res` is the other operand of the
    /// add; `res_first` records whether it was the add's *first*
    /// operand (`add(res, act)` vs `add(act, res)`), so the forward
    /// addition keeps the recorded operand order (IEEE addition is
    /// bitwise commutative except for two-NaN payload selection).
    FusedLinearAdd {
        x: usize,
        w: usize,
        bias: usize,
        res: usize,
        relu: bool,
        res_first: bool,
    },
    /// The generator's decode head — `slice_cols → sigmoid/softmax`
    /// per window, then `concat_cols` — collapsed into one step that
    /// activates each window of `input` straight into the matching
    /// columns of the output, with no materialized slices. `parts` are
    /// `(start, end, activation)` windows: ascending, contiguous, and
    /// covering every input column (checked by the fusion scan).
    FusedDecodeHead {
        input: usize,
        parts: Vec<(usize, usize, DecodeAct)>,
    },
}

/// A compiled, immutable execution plan for one recorded graph.
///
/// Produced by [`Program::compile`]; executed by [`Session`]s (many
/// sessions may share one program through an [`Arc`], e.g. one per
/// worker thread).
#[derive(Debug)]
pub struct Program {
    steps: Vec<Step>,
    /// `(rows, cols)` of each node value (0,0 for folded nodes).
    shape: Vec<(usize, usize)>,
    /// Value arena slot per node (`None` for folded nodes).
    val: Vec<Option<Buf>>,
    /// Whether a node's value slot survives to the end of the plan
    /// (leaves, outputs, kept vars, backward-saved values). Only these
    /// may be read through [`Session::value`].
    persist: Vec<bool>,
    /// Initial arena contents (the values recorded on the tape).
    init: Vec<f32>,
    /// Gradient arena slot per node (`None` if unreachable from every
    /// output).
    grad: Vec<Option<Buf>>,
    grad_len: usize,
    /// Forward-cached auxiliary buffers (softmax of CE, the relu-gated
    /// residual fusion's pre-residual activation).
    aux: Vec<Option<Buf>>,
    aux_len: usize,
    /// Registered scalar outputs and, per output, which nodes its
    /// backward pass reaches.
    outputs: Vec<usize>,
    reach: Vec<Vec<bool>>,
    /// Leaf node ids (rebindable inputs).
    leaves: Vec<bool>,
    /// Scratch sizes: the fused steps' gated gradient, and the staging
    /// buffer a multi-contribution gradient is folded into before it is
    /// accumulated.
    gated_len: usize,
    stage_len: usize,
    /// Default targets of each cross-entropy step (rebindable per
    /// session via [`Session::set_targets`]).
    targets: Vec<Vec<usize>>,
    /// Constant interpolation tables.
    tables: Vec<Tensor>,
    /// Nodes that receive exactly one backward contribution (across the
    /// union of all outputs). Their gradients are written by direct
    /// assignment — the fresh path's "first contribution assigns" —
    /// skipping both the scratch staging and the arena pre-zeroing.
    single_contrib: Vec<bool>,
    /// Gradient slots that must be zeroed before each backward pass:
    /// multi-contribution nodes plus slice-gradient targets (whose
    /// single contribution does not cover the whole buffer).
    multi_slots: Vec<Buf>,
}

impl Program {
    /// Lowers a recorded tape into a static execution plan.
    ///
    /// `outputs` are the scalar heads backward passes may start from;
    /// `keep` are additional vars whose values must stay readable after
    /// [`Session::forward`] (everything else may have its buffer reused
    /// by the arena planner).
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is empty, an output is not scalar, or the
    /// tape contains non-2-D values.
    pub fn compile(tape: &Tape, outputs: &[Var], keep: &[Var]) -> Program {
        Self::compile_impl(tape, outputs, keep, None)
    }

    /// [`Program::compile`] with an explicit gradient-sink list: only
    /// the leaves in `grad_sinks` (plus protected leaves) and the nodes
    /// computed from them get gradient slots. No kept gradient depends
    /// on a pruned one, so pruning skips the pruned nodes' (sometimes
    /// large) backward contributions — an input-leaf `g·Wᵀ`, or a whole
    /// block backward under an α-only sink list — without changing any
    /// other result bit. Training loops pass their parameter leaves
    /// here, leaving minibatch input leaves pruned.
    pub fn compile_with_sinks(
        tape: &Tape,
        outputs: &[Var],
        keep: &[Var],
        grad_sinks: &[Var],
    ) -> Program {
        Self::compile_impl(tape, outputs, keep, Some(grad_sinks))
    }

    fn compile_impl(
        tape: &Tape,
        outputs: &[Var],
        keep: &[Var],
        grad_sinks: Option<&[Var]>,
    ) -> Program {
        assert!(!outputs.is_empty(), "compile: need at least one output");
        let nodes = tape.nodes();
        let n = nodes.len();
        for out in outputs {
            assert_eq!(
                tape.value(*out).len(),
                1,
                "compile: output {} must be scalar",
                out.index()
            );
        }

        let mut targets: Vec<Vec<usize>> = Vec::new();
        let mut tables: Vec<Tensor> = Vec::new();
        let mut steps: Vec<Step> = nodes
            .iter()
            .map(|node| match &node.op {
                Op::Leaf => Step::Leaf,
                Op::Add(a, b) => Step::Add(a.index(), b.index()),
                Op::Div(a, b) => Step::Div(a.index(), b.index()),
                Op::Scale(a, c) => Step::Scale(a.index(), *c),
                Op::AddScalar(a, c) => Step::AddScalar(a.index(), *c),
                Op::Relu(a) => Step::Relu(a.index()),
                Op::Sigmoid(a) => Step::Sigmoid(a.index()),
                Op::Exp(a) => Step::Exp(a.index()),
                Op::ClampMin(a, c) => Step::ClampMin(a.index(), *c),
                Op::MatMul(a, b) => Step::MatMul(a.index(), b.index()),
                Op::AddBias(x, b) => Step::AddBias(x.index(), b.index()),
                Op::Sum(a) => Step::Sum(a.index()),
                Op::SoftmaxRows(a) => Step::SoftmaxRows(a.index()),
                Op::CrossEntropyLogits { logits, targets: t } => {
                    targets.push(t.clone());
                    Step::CrossEntropy {
                        logits: logits.index(),
                        targets: targets.len() - 1,
                    }
                }
                Op::Mse(a, b) => Step::Mse(a.index(), b.index()),
                Op::ConcatCols(parts) => {
                    Step::ConcatCols(parts.iter().map(|v| v.index()).collect())
                }
                Op::SliceCols { input, start, end } => Step::SliceCols {
                    input: input.index(),
                    start: *start,
                    end: *end,
                },
                Op::Dot(a, b) => Step::Dot(a.index(), b.index()),
                Op::MulScalarVar { x, s } => Step::MulScalarVar {
                    x: x.index(),
                    s: s.index(),
                },
                Op::LutRowInterp { coord, table } => {
                    tables.push(table.clone());
                    Step::LutRowInterp {
                        coord: coord.index(),
                        table: tables.len() - 1,
                    }
                }
            })
            .collect();

        let shape: Vec<(usize, usize)> = nodes
            .iter()
            .map(|node| {
                let s = node.value.shape();
                assert_eq!(s.len(), 2, "compile: only 2-D values are supported");
                (s[0], s[1])
            })
            .collect();

        // ---- kernel fusion --------------------------------------------
        // A node may be folded only if it feeds exactly one consumer and
        // nobody else can observe it.
        let mut use_count = vec![0usize; n];
        for step in &steps {
            for p in step_inputs(step) {
                use_count[p] += 1;
            }
        }
        let mut protected = vec![false; n];
        for v in outputs.iter().chain(keep) {
            protected[v.index()] = true;
        }
        let mut i = 0;
        while i + 1 < n {
            let fused = match (&steps[i], &steps[i + 1]) {
                (&Step::MatMul(x, w), &Step::AddBias(mm, bias))
                    if mm == i && use_count[i] == 1 && !protected[i] =>
                {
                    let relu = matches!(steps.get(i + 2), Some(&Step::Relu(r))
                        if r == i + 1 && use_count[i + 1] == 1 && !protected[i + 1]);
                    Some((x, w, bias, relu))
                }
                _ => None,
            };
            if let Some((x, w, bias, relu)) = fused {
                let last = if relu { i + 2 } else { i + 1 };
                for step in &mut steps[i..last] {
                    *step = Step::Skip;
                }
                steps[last] = Step::FusedLinear { x, w, bias, relu };
                i = last + 1;
            } else {
                i += 1;
            }
        }

        // Second pass: a fused linear whose only consumer is the next
        // step's residual add folds into one `FusedLinearAdd`. The
        // `use_count`/`protected` guards are over the original node
        // ids, which the fused step inherited from its last node.
        let mut i = 0;
        while i + 1 < n {
            let fused = match (&steps[i], &steps[i + 1]) {
                (&Step::FusedLinear { x, w, bias, relu }, &Step::Add(a, b))
                    if (a == i) != (b == i) && use_count[i] == 1 && !protected[i] =>
                {
                    let (res, res_first) = if a == i { (b, false) } else { (a, true) };
                    Some((x, w, bias, relu, res, res_first))
                }
                _ => None,
            };
            if let Some((x, w, bias, relu, res, res_first)) = fused {
                steps[i] = Step::Skip;
                steps[i + 1] = Step::FusedLinearAdd {
                    x,
                    w,
                    bias,
                    res,
                    relu,
                    res_first,
                };
                i += 2;
            } else {
                i += 1;
            }
        }

        // Third pass: the decode head. A `ConcatCols` whose parts are
        // all single-use sigmoid/softmax activations of single-use
        // column slices of one shared source — with windows ascending,
        // contiguous from column 0, and covering the whole source —
        // folds into one `FusedDecodeHead`.
        for c in 0..n {
            let parts: Vec<usize> = match &steps[c] {
                Step::ConcatCols(p) if !p.is_empty() => p.clone(),
                _ => continue,
            };
            let mut specs: Vec<(usize, usize, DecodeAct)> = Vec::with_capacity(parts.len());
            let mut slices: Vec<usize> = Vec::with_capacity(parts.len());
            let mut src = usize::MAX;
            let mut col = 0usize;
            let mut ok = true;
            for &p in &parts {
                let (act, sr) = match steps[p] {
                    Step::Sigmoid(sr) => (DecodeAct::Sigmoid, sr),
                    Step::SoftmaxRows(sr) => (DecodeAct::Softmax, sr),
                    _ => {
                        ok = false;
                        break;
                    }
                };
                if use_count[p] != 1 || protected[p] {
                    ok = false;
                    break;
                }
                let (input, start, end) = match steps[sr] {
                    Step::SliceCols { input, start, end } => (input, start, end),
                    _ => {
                        ok = false;
                        break;
                    }
                };
                if use_count[sr] != 1 || protected[sr] || start != col {
                    ok = false;
                    break;
                }
                if src == usize::MAX {
                    src = input;
                } else if src != input {
                    ok = false;
                    break;
                }
                col = end;
                specs.push((start, end, act));
                slices.push(sr);
            }
            if !ok || src == usize::MAX || col != shape[src].1 {
                continue;
            }
            for (&p, &sr) in parts.iter().zip(&slices) {
                steps[p] = Step::Skip;
                steps[sr] = Step::Skip;
            }
            steps[c] = Step::FusedDecodeHead {
                input: src,
                parts: specs,
            };
        }

        // ---- backward reachability (per output, over fused steps) -----
        let reach: Vec<Vec<bool>> = outputs
            .iter()
            .map(|out| {
                let mut r = vec![false; n];
                r[out.index()] = true;
                for idx in (0..n).rev() {
                    if !r[idx] {
                        continue;
                    }
                    for p in step_inputs(&steps[idx]) {
                        r[p] = true;
                    }
                }
                r
            })
            .collect();
        let union: Vec<bool> = (0..n).map(|i| reach.iter().any(|r| r[i])).collect();

        // ---- liveness: which values must survive into backward --------
        let mut saved = vec![false; n];
        for (idx, step) in steps.iter().enumerate() {
            if !union[idx] {
                continue;
            }
            match step {
                Step::Div(a, b)
                | Step::MatMul(a, b)
                | Step::Mse(a, b)
                | Step::Dot(a, b)
                | Step::MulScalarVar { x: a, s: b } => {
                    saved[*a] = true;
                    saved[*b] = true;
                }
                Step::Relu(a) | Step::ClampMin(a, _) | Step::LutRowInterp { coord: a, .. } => {
                    saved[*a] = true
                }
                Step::Sigmoid(_) | Step::Exp(_) | Step::SoftmaxRows(_) => {
                    saved[idx] = true; // backward reads own output
                }
                Step::FusedLinear { x, w, relu, .. } => {
                    saved[*x] = true;
                    saved[*w] = true;
                    if *relu {
                        saved[idx] = true; // relu gate tests the output
                    }
                }
                Step::FusedLinearAdd { x, w, .. } => {
                    saved[*x] = true;
                    saved[*w] = true;
                    // The relu gate can't test this step's output (it
                    // holds activation *plus* residual); the gate reads
                    // the pre-residual activation stashed in the aux
                    // arena instead.
                }
                Step::FusedDecodeHead { .. } => {
                    saved[idx] = true; // sigmoid/softmax backward read the output
                }
                _ => {}
            }
        }

        // ---- arena planning with buffer reuse -------------------------
        let mut last_use = (0..n).collect::<Vec<usize>>();
        for (idx, step) in steps.iter().enumerate() {
            for p in step_inputs(step) {
                last_use[p] = idx;
            }
        }
        let persist: Vec<bool> = (0..n)
            .map(|i| matches!(steps[i], Step::Leaf) || protected[i] || saved[i])
            .collect();

        let mut arena_len = 0usize;
        let mut free: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut val: Vec<Option<Buf>> = vec![None; n];
        let mut released = vec![false; n];
        for idx in 0..n {
            if matches!(steps[idx], Step::Skip) {
                continue;
            }
            let len = shape[idx].0 * shape[idx].1;
            // Leaves are written at *bind* time, before the replay
            // starts, so their slots must never alias a computed node's
            // buffer (whose forward step would clobber the bound value).
            // Everything else may draw from the free list.
            let recycled = if matches!(steps[idx], Step::Leaf) {
                None
            } else {
                free.get_mut(&len).and_then(Vec::pop)
            };
            let off = match recycled {
                Some(off) => off,
                None => {
                    let off = arena_len;
                    arena_len += len;
                    off
                }
            };
            val[idx] = Some(Buf { off, len });
            // Release inputs whose final forward read was this step —
            // at most once each: a step may list the same node twice
            // (`add(s, s)`), and a double release would hand one buffer
            // to two later live nodes.
            for p in step_inputs(&steps[idx]) {
                if last_use[p] == idx && !persist[p] && !released[p] {
                    released[p] = true;
                    if let Some(buf) = val[p] {
                        free.entry(buf.len).or_default().push(buf.off);
                    }
                }
            }
        }

        let mut init = vec![0.0f32; arena_len];
        for idx in 0..n {
            if let Some(buf) = val[idx] {
                init[buf.range()].copy_from_slice(nodes[idx].value.data());
            }
        }

        // ---- gradient + auxiliary arenas ------------------------------
        // With a sink list, a node gets a gradient slot only if a sink
        // (or a protected leaf) is among its inputs, transitively:
        // every other gradient would be computed and then never read.
        // The executor's slot guards skip every contribution into a
        // slotless node (including whole matmuls). Contribution counts
        // of kept nodes cannot change, because every consumer of a
        // sink-dependent node is itself sink-dependent. Outputs always
        // keep their slot (backward seeds it).
        let live: Option<Vec<bool>> = grad_sinks.map(|sinks| {
            let mut live = vec![false; n];
            for v in sinks {
                live[v.index()] = true;
            }
            for idx in 0..n {
                live[idx] = live[idx]
                    || (matches!(steps[idx], Step::Leaf) && protected[idx])
                    || step_inputs(&steps[idx]).iter().any(|&p| live[p]);
            }
            live
        });
        let mut grad: Vec<Option<Buf>> = vec![None; n];
        let mut grad_len = 0usize;
        for idx in 0..n {
            let pruned =
                live.as_ref().is_some_and(|l| !l[idx]) && !outputs.iter().any(|o| o.index() == idx);
            if union[idx] && !matches!(steps[idx], Step::Skip) && !pruned {
                let len = shape[idx].0 * shape[idx].1;
                grad[idx] = Some(Buf { off: grad_len, len });
                grad_len += len;
            }
        }
        let mut aux: Vec<Option<Buf>> = vec![None; n];
        let mut aux_len = 0usize;
        for idx in 0..n {
            let len = match steps[idx] {
                Step::CrossEntropy { logits, .. } => {
                    let (m, cols) = shape[logits];
                    m * cols
                }
                // The relu-gated residual fusion stashes the
                // pre-residual activation: the gate needs it in
                // backward, and it is not bit-recoverable from
                // `out - res`.
                Step::FusedLinearAdd { relu: true, .. } => shape[idx].0 * shape[idx].1,
                _ => continue,
            };
            aux[idx] = Some(Buf { off: aux_len, len });
            aux_len += len;
        }

        // ---- scratch sizing -------------------------------------------
        let (mut gated_len, mut stage_len) = (0usize, 0usize);
        for (idx, step) in steps.iter().enumerate() {
            if !union[idx] {
                continue;
            }
            let len_of = |i: usize| shape[i].0 * shape[i].1;
            match step {
                Step::MatMul(a, b) => stage_len = stage_len.max(len_of(*a)).max(len_of(*b)),
                Step::AddBias(_, bias) => stage_len = stage_len.max(len_of(*bias)),
                Step::FusedLinear { x, w, bias, .. } | Step::FusedLinearAdd { x, w, bias, .. } => {
                    gated_len = gated_len.max(len_of(idx));
                    stage_len = stage_len.max(len_of(*x)).max(len_of(*w)).max(len_of(*bias));
                }
                _ => {}
            }
        }

        let mut contrib_count = vec![0usize; n];
        for (idx, step) in steps.iter().enumerate() {
            if !union[idx] {
                continue;
            }
            for p in step_inputs(step) {
                contrib_count[p] += 1;
            }
        }
        let single_contrib: Vec<bool> = contrib_count.iter().map(|&c| c == 1).collect();
        // A slice's backward only writes its column window, so its
        // input must be pre-zeroed even with a single contribution.
        // The fused decode head keeps the same pre-zero + accumulate
        // scheme per window, so its backward stays byte-identical to
        // the unfused `SliceCols` scatter it replaced.
        let mut needs_zero: Vec<bool> = contrib_count.iter().map(|&c| c != 1).collect();
        for (idx, step) in steps.iter().enumerate() {
            if union[idx] {
                match step {
                    Step::SliceCols { input, .. } | Step::FusedDecodeHead { input, .. } => {
                        needs_zero[*input] = true;
                    }
                    _ => {}
                }
            }
        }
        let multi_slots: Vec<Buf> = (0..n)
            .filter(|&i| needs_zero[i])
            .filter_map(|i| grad[i])
            .collect();

        let leaves = steps.iter().map(|s| matches!(s, Step::Leaf)).collect();
        Program {
            steps,
            shape,
            val,
            persist,
            init,
            grad,
            grad_len,
            aux,
            aux_len,
            outputs: outputs.iter().map(|v| v.index()).collect(),
            reach,
            leaves,
            gated_len,
            stage_len,
            targets,
            tables,
            single_contrib,
            multi_slots,
        }
    }

    /// Number of (unfused) executable steps.
    pub fn num_steps(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| !matches!(s, Step::Skip))
            .count()
    }

    /// Size of the value arena in scalars (after buffer reuse).
    pub fn arena_len(&self) -> usize {
        self.init.len()
    }

    /// Size of the gradient arena in scalars (after sink pruning).
    pub fn grad_len(&self) -> usize {
        self.grad_len
    }

    fn output_slot(&self, output: Var) -> Result<usize, ProgramError> {
        self.outputs
            .iter()
            .position(|&o| o == output.index())
            .ok_or(ProgramError::NotAnOutput {
                var: output.index(),
            })
    }
}

fn step_inputs(step: &Step) -> Vec<usize> {
    match step {
        Step::Skip | Step::Leaf => Vec::new(),
        Step::Add(a, b)
        | Step::Div(a, b)
        | Step::MatMul(a, b)
        | Step::AddBias(a, b)
        | Step::Mse(a, b)
        | Step::Dot(a, b)
        | Step::MulScalarVar { x: a, s: b } => vec![*a, *b],
        Step::Scale(a, _)
        | Step::AddScalar(a, _)
        | Step::Relu(a)
        | Step::Sigmoid(a)
        | Step::Exp(a)
        | Step::ClampMin(a, _)
        | Step::Sum(a)
        | Step::SoftmaxRows(a)
        | Step::CrossEntropy { logits: a, .. }
        | Step::SliceCols { input: a, .. }
        | Step::LutRowInterp { coord: a, .. } => vec![*a],
        Step::ConcatCols(parts) => parts.clone(),
        Step::FusedLinear { x, w, bias, .. } => vec![*x, *w, *bias],
        Step::FusedLinearAdd {
            x, w, bias, res, ..
        } => vec![*x, *w, *bias, *res],
        Step::FusedDecodeHead { input, .. } => vec![*input],
    }
}

/// Mutable replay state for one [`Program`].
///
/// All buffers are allocated once at construction; [`Session::bind`],
/// [`Session::forward`] and [`Session::backward`] never allocate.
///
/// A session owns no threads. [`Session::forward`] and
/// [`Session::backward`] replay on the calling thread;
/// [`Session::forward_with`] and [`Session::try_backward_with`]
/// row-partition the fused linear forward kernels and the backward
/// matmuls over a caller's [`WorkerPool`] (one per search, shared by
/// every session it drives). Each output element's fold order is
/// independent of the row partitioning, so replay is **bit-identical
/// at every pool size** (pinned by `tests/determinism.rs`).
#[derive(Debug)]
pub struct Session {
    prog: Arc<Program>,
    vals: Vec<f32>,
    grads: Vec<f32>,
    aux: Vec<f32>,
    gated: Vec<f32>,
    stage: Vec<f32>,
    targets: Vec<Vec<usize>>,
    /// Which output the gradient arena currently reflects.
    last_backward: Option<usize>,
}

impl Session {
    /// Allocates replay buffers for `prog`, initialized to the values
    /// recorded at compile time.
    pub fn new(prog: Arc<Program>) -> Session {
        Session {
            vals: prog.init.clone(),
            grads: vec![0.0; prog.grad_len],
            aux: vec![0.0; prog.aux_len],
            gated: vec![0.0; prog.gated_len],
            stage: vec![0.0; prog.stage_len],
            targets: prog.targets.clone(),
            last_backward: None,
            prog,
        }
    }

    /// The program this session replays.
    pub fn program(&self) -> &Arc<Program> {
        &self.prog
    }

    /// Overwrites a leaf value before the next [`Session::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a leaf or `data` has the wrong length.
    pub fn bind(&mut self, var: Var, data: &[f32]) {
        self.leaf_mut(var).copy_from_slice(data);
    }

    /// [`Session::bind`] from a tensor (shape is not re-checked beyond
    /// the element count).
    pub fn bind_tensor(&mut self, var: Var, tensor: &Tensor) {
        self.bind(var, tensor.data());
    }

    /// Mutable view of a leaf's value slot, for writing inputs in place.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a leaf of the compiled graph.
    pub fn leaf_mut(&mut self, var: Var) -> &mut [f32] {
        let idx = var.index();
        assert!(
            self.prog.leaves[idx],
            "bind: var {idx} is not a leaf of the compiled graph"
        );
        let buf = self.prog.val[idx].expect("leaves always have slots");
        &mut self.vals[buf.range()]
    }

    /// Rebinds the integer targets of a cross-entropy node.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a cross-entropy node or the length differs
    /// from the recorded batch size; see [`Session::try_set_targets`]
    /// for the error-returning form.
    pub fn set_targets(&mut self, var: Var, targets: &[usize]) {
        self.try_set_targets(var, targets)
            .unwrap_or_else(|e| panic!("set_targets: {e}"));
    }

    /// [`Session::set_targets`] returning an error instead of
    /// panicking, so callers can report which program/var was misbound.
    ///
    /// # Errors
    ///
    /// [`ProgramError::NotCrossEntropy`] if `var` is not a
    /// cross-entropy node; [`ProgramError::TargetLenMismatch`] if the
    /// length differs from the recorded batch size.
    pub fn try_set_targets(&mut self, var: Var, targets: &[usize]) -> Result<(), ProgramError> {
        let Step::CrossEntropy { targets: t, .. } = self.prog.steps[var.index()] else {
            return Err(ProgramError::NotCrossEntropy { var: var.index() });
        };
        if targets.len() != self.targets[t].len() {
            return Err(ProgramError::TargetLenMismatch {
                var: var.index(),
                expected: self.targets[t].len(),
                got: targets.len(),
            });
        }
        self.targets[t].copy_from_slice(targets);
        Ok(())
    }

    /// The current value of a persistent node.
    ///
    /// # Panics
    ///
    /// Panics if the node's buffer was reused by the arena planner (add
    /// it to `keep` at compile time to read it).
    pub fn value(&self, var: Var) -> &[f32] {
        let idx = var.index();
        assert!(
            self.prog.persist[idx],
            "value: node {idx} is not persistent; pass it in `keep` to Program::compile"
        );
        let buf = self.prog.val[idx].expect("persistent nodes have slots");
        &self.vals[buf.range()]
    }

    /// The value of a persistent scalar node.
    pub fn scalar(&self, var: Var) -> f32 {
        let v = self.value(var);
        assert_eq!(v.len(), 1, "scalar: node has {} elements", v.len());
        v[0]
    }

    /// Gradient of the last [`Session::backward`] output w.r.t. `var`,
    /// or `None` if that output does not depend on it.
    ///
    /// # Panics
    ///
    /// Panics if no backward pass has run yet.
    pub fn grad(&self, var: Var) -> Option<&[f32]> {
        let k = self.last_backward.expect("grad: no backward pass has run");
        if !self.prog.reach[k][var.index()] {
            return None;
        }
        let buf = self.prog.grad[var.index()]?;
        Some(&self.grads[buf.range()])
    }
    /// Replays the forward plan in place on the calling thread.
    pub fn forward(&mut self) {
        self.forward_with(None);
    }

    /// [`Session::forward`] with its row-partitioned kernels on a
    /// caller's worker pool (`None` = the calling thread). Kernels
    /// below [`crate::par::par_threshold`] run on the calling thread
    /// regardless. Results are identical at any pool size.
    pub fn forward_with(&mut self, pool: Option<&WorkerPool>) {
        let prog = Arc::clone(&self.prog);
        for (idx, step) in prog.steps.iter().enumerate() {
            exec_forward(
                idx,
                step,
                &prog,
                &mut self.vals,
                &mut self.aux,
                &self.targets,
                pool,
            );
        }
    }

    /// Replays the backward plan of one registered output.
    ///
    /// The gradient arena is repopulated in place; gradients of a
    /// previous backward pass are overwritten. Only multi-contribution
    /// slots need pre-zeroing — single-contribution slots (every
    /// once-used parameter) are written by assignment, mirroring the
    /// fresh path's first-contribution semantics.
    ///
    /// # Panics
    ///
    /// Panics if `output` was not registered at compile time; see
    /// [`Session::try_backward`] for the error-returning form.
    pub fn backward(&mut self, output: Var) {
        self.try_backward(output)
            .unwrap_or_else(|e| panic!("backward: {e}"));
    }

    /// [`Session::backward`] returning an error instead of panicking,
    /// so callers can report which program/var was misbound.
    ///
    /// # Errors
    ///
    /// [`ProgramError::NotAnOutput`] if `output` was not registered at
    /// compile time.
    pub fn try_backward(&mut self, output: Var) -> Result<(), ProgramError> {
        self.try_backward_with(output, None)
    }

    /// [`Session::try_backward`] with its row-partitioned kernels on a
    /// caller's worker pool (see [`Session::forward_with`]).
    ///
    /// # Errors
    ///
    /// [`ProgramError::NotAnOutput`] if `output` was not registered at
    /// compile time.
    pub fn try_backward_with(
        &mut self,
        output: Var,
        pool: Option<&WorkerPool>,
    ) -> Result<(), ProgramError> {
        let prog = Arc::clone(&self.prog);
        let k = prog.output_slot(output)?;
        for buf in &prog.multi_slots {
            self.grads[buf.range()].fill(0.0);
        }
        let out_buf = prog.grad[output.index()].expect("outputs are reachable");
        self.grads[out_buf.off] = 1.0;
        for idx in (0..prog.steps.len()).rev() {
            if !prog.reach[k][idx] {
                continue;
            }
            exec_backward(
                idx,
                &prog.steps[idx],
                &prog,
                &self.vals,
                &mut self.grads,
                &self.aux,
                &mut self.gated,
                &mut self.stage,
                &self.targets,
                pool,
            );
        }
        self.last_backward = Some(k);
        Ok(())
    }
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn exec_forward(
    idx: usize,
    step: &Step,
    prog: &Program,
    vals: &mut [f32],
    aux: &mut [f32],
    targets: &[Vec<usize>],
    pool: Option<&WorkerPool>,
) {
    let out = match prog.val[idx] {
        Some(b) => b,
        None => return, // Skip
    };
    let (m, n) = prog.shape[idx];
    let slot = |p: usize| prog.val[p].expect("input slot");
    // Elementwise steps iterate disjoint arena slices, so the loops
    // vectorize.
    macro_rules! unary {
        ($a:expr, $f:expr) => {{
            let (src, dst) = split_two(vals, slot($a), out);
            let f = $f;
            for (d, &x) in dst.iter_mut().zip(src) {
                *d = f(x);
            }
        }};
    }
    macro_rules! binary {
        ($a:expr, $b:expr, $f:expr) => {{
            let ([xs, ys], dst) = split_reads(vals, [slot($a), slot($b)], out);
            let f = $f;
            for ((d, &x), &y) in dst.iter_mut().zip(xs).zip(ys) {
                *d = f(x, y);
            }
        }};
    }
    match step {
        Step::Skip | Step::Leaf => {}
        Step::Add(a, b) => binary!(*a, *b, |x: f32, y: f32| x + y),
        Step::Div(a, b) => binary!(*a, *b, |x: f32, y: f32| x / y),
        Step::Scale(a, c) => {
            let c = *c;
            unary!(*a, move |x: f32| x * c);
        }
        Step::AddScalar(a, c) => {
            let c = *c;
            unary!(*a, move |x: f32| x + c);
        }
        Step::Relu(a) => unary!(*a, |x: f32| x.max(0.0)),
        Step::Sigmoid(a) => unary!(*a, |x: f32| 1.0 / (1.0 + (-x).exp())),
        Step::Exp(a) => unary!(*a, f32::exp),
        Step::ClampMin(a, c) => {
            let c = *c;
            unary!(*a, move |x: f32| x.max(c));
        }
        Step::MatMul(a, b) => {
            let (am, ak) = prog.shape[*a];
            let ([a_slice, b_slice], out_slice) = split_reads(vals, [slot(*a), slot(*b)], out);
            let (a_view, b_view) = (MatRef::rows(a_slice, ak), MatRef::rows(b_slice, n));
            matmul_par(a_view, b_view, out_slice, am, ak, n, &NO_EPI, pool);
        }
        Step::AddBias(x, bias) => {
            let ([xs, bs], dst) = split_reads(vals, [slot(*x), slot(*bias)], out);
            for (drow, xrow) in dst.chunks_exact_mut(n).zip(xs.chunks_exact(n)) {
                for ((d, &xv), &bv) in drow.iter_mut().zip(xrow).zip(bs) {
                    *d = xv + bv;
                }
            }
        }
        Step::Sum(a) => {
            let ab = slot(*a);
            vals[out.off] = vals[ab.range()].iter().sum();
        }
        Step::SoftmaxRows(a) => {
            let (a_slice, out_slice) = split_two(vals, slot(*a), out);
            softmax_rows_into(a_slice, out_slice, m, n);
        }
        Step::CrossEntropy { logits, targets: t } => {
            let lb = slot(*logits);
            let (lm, ln_) = prog.shape[*logits];
            let axb = prog.aux[idx].expect("cross-entropy caches its softmax");
            softmax_rows_into(&vals[lb.range()], &mut aux[axb.range()], lm, ln_);
            let probs = &aux[axb.range()];
            let mut loss = 0.0;
            for (i, &ti) in targets[*t].iter().enumerate() {
                loss -= probs[i * ln_ + ti].max(1e-30).ln();
            }
            vals[out.off] = loss / lm as f32;
        }
        Step::Mse(a, b) => {
            let (ab, bb) = (slot(*a), slot(*b));
            let mut acc = 0.0f32;
            for j in 0..ab.len {
                let d = vals[ab.off + j] - vals[bb.off + j];
                acc += d * d;
            }
            vals[out.off] = acc / ab.len as f32;
        }
        Step::ConcatCols(parts) => {
            let mut col = 0usize;
            for &p in parts {
                let pb = slot(p);
                let (_, w) = prog.shape[p];
                for i in 0..m {
                    for j in 0..w {
                        vals[out.off + i * n + col + j] = vals[pb.off + i * w + j];
                    }
                }
                col += w;
            }
        }
        Step::SliceCols { input, start, end } => {
            let ib = slot(*input);
            let (_, in_n) = prog.shape[*input];
            let w = end - start;
            for i in 0..m {
                for j in 0..w {
                    vals[out.off + i * w + j] = vals[ib.off + i * in_n + start + j];
                }
            }
        }
        Step::Dot(a, b) => {
            let (ab, bb) = (slot(*a), slot(*b));
            let mut acc = 0.0f32;
            for j in 0..ab.len {
                acc += vals[ab.off + j] * vals[bb.off + j];
            }
            vals[out.off] = acc;
        }
        Step::MulScalarVar { x, s } => {
            let sv = vals[slot(*s).off];
            unary!(*x, move |v: f32| v * sv);
        }
        Step::LutRowInterp { coord, table } => {
            let t = &prog.tables[*table];
            let (cell, frac) = lut_cell(vals[slot(*coord).off], t.rows());
            for j in 0..t.cols() {
                vals[out.off + j] = (1.0 - frac) * t.at(cell, j) + frac * t.at(cell + 1, j);
            }
        }
        Step::FusedLinear { x, w, bias, relu } => {
            let (xm, xk) = prog.shape[*x];
            let ([xs, ws, bs], dst) = split_reads(vals, [slot(*x), slot(*w), slot(*bias)], out);
            let epi = Epilogue {
                bias: Some(bs),
                relu: *relu,
                ..NO_EPI
            };
            fused_linear_forward(xs, ws, dst, None, (xm, xk, n), epi, pool);
        }
        Step::FusedLinearAdd {
            x,
            w,
            bias,
            res,
            relu,
            res_first,
        } => {
            let (xm, xk) = prog.shape[*x];
            let ins = [slot(*x), slot(*w), slot(*bias), slot(*res)];
            let ([xs, ws, bs, rs], dst) = split_reads(vals, ins, out);
            let act = prog.aux[idx].map(|ab| &mut aux[ab.range()]);
            debug_assert!(act.is_some() == *relu);
            let epi = Epilogue {
                bias: Some(bs),
                relu: *relu,
                res: Some(rs),
                res_first: *res_first,
            };
            fused_linear_forward(xs, ws, dst, act, (xm, xk, n), epi, pool);
        }
        Step::FusedDecodeHead { input, parts } => {
            let (src, dst) = split_two(vals, slot(*input), out);
            decode_head_into(src, dst, m, n, parts);
        }
    }
}

#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn exec_backward(
    idx: usize,
    step: &Step,
    prog: &Program,
    vals: &[f32],
    grads: &mut [f32],
    aux: &[f32],
    gated: &mut [f32],
    stage: &mut [f32],
    targets: &[Vec<usize>],
    pool: Option<&WorkerPool>,
) {
    let g_buf = match prog.grad[idx] {
        Some(b) => b,
        None => return,
    };
    let (m, n) = prog.shape[idx];
    let slot = |p: usize| prog.val[p].expect("saved input slot");
    /// Accumulates `contrib(g, j)` into the gradient slot of `$p` —
    /// by assignment for single-contribution slots (the fresh path's
    /// first-assign; their slots are never pre-zeroed). `g` is the
    /// current node's (relative-indexed) gradient slice.
    macro_rules! acc {
        ($p:expr, $len:expr, |$g:ident, $j:ident| $contrib:expr) => {{
            if let Some(pb) = prog.grad[$p] {
                let ($g, dst) = split_two(grads, g_buf, pb);
                if prog.single_contrib[$p] {
                    for $j in 0..$len {
                        dst[$j] = $contrib;
                    }
                } else {
                    for $j in 0..$len {
                        dst[$j] += $contrib;
                    }
                }
            }
        }};
    }
    match step {
        Step::Skip | Step::Leaf => {}
        Step::Add(a, b) => {
            acc!(*a, g_buf.len, |g, j| g[j]);
            acc!(*b, g_buf.len, |g, j| g[j]);
        }
        Step::Div(a, b) => {
            let (av, bv) = (slot(*a), slot(*b));
            acc!(*a, g_buf.len, |g, j| g[j] / vals[bv.off + j]);
            acc!(*b, g_buf.len, |g, j| {
                let num = g[j] * vals[av.off + j];
                let bi = vals[bv.off + j];
                -num / (bi * bi)
            });
        }
        Step::Scale(a, c) => {
            let c = *c;
            acc!(*a, g_buf.len, |g, j| g[j] * c);
        }
        Step::AddScalar(a, _) => acc!(*a, g_buf.len, |g, j| g[j]),
        Step::Relu(a) => {
            let av = slot(*a);
            acc!(*a, g_buf.len, |g, j| if vals[av.off + j] > 0.0 {
                g[j]
            } else {
                0.0
            });
        }
        Step::Sigmoid(a) => {
            let yv = prog.val[idx].expect("saved output");
            acc!(*a, g_buf.len, |g, j| {
                let yi = vals[yv.off + j];
                g[j] * yi * (1.0 - yi)
            });
        }
        Step::Exp(a) => {
            let yv = prog.val[idx].expect("saved output");
            acc!(*a, g_buf.len, |g, j| g[j] * vals[yv.off + j]);
        }
        Step::ClampMin(a, c) => {
            let av = slot(*a);
            let c = *c;
            acc!(*a, g_buf.len, |g, j| if vals[av.off + j] > c {
                g[j]
            } else {
                0.0
            });
        }
        Step::MatMul(a, b) => {
            let (am, ak) = prog.shape[*a];
            let (bk, bn) = prog.shape[*b];
            let (av, bv) = (slot(*a), slot(*b));
            // ga = g · bᵀ and gb = aᵀ · g, reading `b` and `a` through
            // transposed views (no staging copy). Single-contribution
            // slots are written directly (the fresh path's first-
            // assign); others are folded from zero in scratch and then
            // accumulated, exactly like the fresh path. Row-vector
            // products (m = 1) keep the dedicated row kernels (same
            // per-element fold order; see `row_times_bt_into` for its
            // zero terms): through `matmul_view`, `ga`'s panels pack all
            // of the strided `bᵀ` for one row and `gb` is a k = 1 outer
            // product, and the hardware-head step replay
            // (`core/hw_head_step`, micro bench) ran 1.6–2.7× slower.
            if let Some(pb) = prog.grad[*a] {
                if am == 1 {
                    let (g, dst) = split_two(grads, g_buf, pb);
                    row_grad_wrt_a(
                        g,
                        &vals[bv.range()],
                        dst,
                        ak,
                        bn,
                        prog.single_contrib[*a],
                        pool,
                    );
                } else {
                    let bt = MatRef::transposed(&vals[bv.range()], bn);
                    let single = prog.single_contrib[*a];
                    write_grad(grads, g_buf, pb, single, stage, |g, dst| {
                        matmul_par(MatRef::rows(g, bn), bt, dst, am, bn, bk, &NO_EPI, pool);
                    });
                }
            }
            if let Some(pb) = prog.grad[*b] {
                if am == 1 {
                    let (g, dst) = split_two(grads, g_buf, pb);
                    row_grad_wrt_b(
                        &vals[av.range()],
                        g,
                        dst,
                        ak,
                        bn,
                        prog.single_contrib[*b],
                        pool,
                    );
                } else {
                    let at = MatRef::transposed(&vals[av.range()], ak);
                    let single = prog.single_contrib[*b];
                    write_grad(grads, g_buf, pb, single, stage, |g, dst| {
                        matmul_par(at, MatRef::rows(g, bn), dst, ak, am, bn, &NO_EPI, pool);
                    });
                }
            }
        }
        Step::AddBias(x, bias) => {
            acc!(*x, g_buf.len, |g, j| g[j]);
            if let Some(pb) = prog.grad[*bias] {
                let single = prog.single_contrib[*bias];
                write_grad(grads, g_buf, pb, single, stage, |g, dst| {
                    sum_rows(g, n, dst);
                });
            }
        }
        Step::Sum(a) => {
            let alen = prog.shape[*a].0 * prog.shape[*a].1;
            acc!(*a, alen, |g, _j| g[0]);
        }
        Step::SoftmaxRows(a) => {
            let sv = prog.val[idx].expect("saved output");
            if let Some(pb) = prog.grad[*a] {
                let single = prog.single_contrib[*a];
                let (g, dst) = split_two(grads, g_buf, pb);
                for i in 0..m {
                    let mut dot = 0.0f32;
                    for j in 0..n {
                        dot += g[i * n + j] * vals[sv.off + i * n + j];
                    }
                    for j in 0..n {
                        let s = vals[sv.off + i * n + j];
                        let c = s * (g[i * n + j] - dot);
                        if single {
                            dst[i * n + j] = c;
                        } else {
                            dst[i * n + j] += c;
                        }
                    }
                }
            }
        }
        Step::CrossEntropy { logits, targets: t } => {
            let (lm, ln_) = prog.shape[*logits];
            let axb = prog.aux[idx].expect("cached softmax");
            if let Some(pb) = prog.grad[*logits] {
                let single = prog.single_contrib[*logits];
                let gscale = grads[g_buf.off] / lm as f32;
                for (i, &ti) in targets[*t].iter().enumerate() {
                    for j in 0..ln_ {
                        let onehot = if j == ti { 1.0 } else { 0.0 };
                        let c = gscale * (aux[axb.off + i * ln_ + j] - onehot);
                        if single {
                            grads[pb.off + i * ln_ + j] = c;
                        } else {
                            grads[pb.off + i * ln_ + j] += c;
                        }
                    }
                }
            }
        }
        Step::Mse(a, b) => {
            let (av, bv) = (slot(*a), slot(*b));
            let scale = 2.0 * grads[g_buf.off] / av.len as f32;
            acc!(*a, av.len, |_g, j| (vals[av.off + j] - vals[bv.off + j])
                * scale);
            acc!(*b, av.len, |_g, j| -((vals[av.off + j] - vals[bv.off + j])
                * scale));
        }
        Step::ConcatCols(parts) => {
            let mut col = 0usize;
            for &p in parts {
                let (_, w) = prog.shape[p];
                acc!(p, m * w, |g, j| {
                    let (i, jj) = (j / w, j % w);
                    g[i * n + col + jj]
                });
                col += w;
            }
        }
        Step::SliceCols { input, start, end } => {
            if let Some(pb) = prog.grad[*input] {
                let (_, in_n) = prog.shape[*input];
                let w = end - start;
                let (g, dst) = split_two(grads, g_buf, pb);
                for i in 0..m {
                    for j in 0..w {
                        dst[i * in_n + start + j] += g[i * w + j];
                    }
                }
            }
        }
        Step::Dot(a, b) => {
            let (av, bv) = (slot(*a), slot(*b));
            let gi = grads[g_buf.off];
            acc!(*a, av.len, |_g, j| vals[bv.off + j] * gi);
            acc!(*b, bv.len, |_g, j| vals[av.off + j] * gi);
        }
        Step::MulScalarVar { x, s } => {
            let (xv, sv) = (slot(*x), slot(*s));
            let s_val = vals[sv.off];
            acc!(*x, xv.len, |g, j| g[j] * s_val);
            if let Some(pb) = prog.grad[*s] {
                let (g, dst) = split_two(grads, g_buf, pb);
                let mut dot = 0.0f32;
                for j in 0..xv.len {
                    dot += g[j] * vals[xv.off + j];
                }
                if prog.single_contrib[*s] {
                    dst[0] = dot;
                } else {
                    dst[0] += dot;
                }
            }
        }
        Step::LutRowInterp { coord, table } => {
            let cv = slot(*coord);
            let t = &prog.tables[*table];
            let (cell, _) = lut_cell(vals[cv.off], t.rows());
            if let Some(pb) = prog.grad[*coord] {
                let (g, dst) = split_two(grads, g_buf, pb);
                let mut slope = 0.0f32;
                for (j, &gj) in g[..t.cols()].iter().enumerate() {
                    slope += gj * (t.at(cell + 1, j) - t.at(cell, j));
                }
                if prog.single_contrib[*coord] {
                    dst[0] = slope;
                } else {
                    dst[0] += slope;
                }
            }
        }
        Step::FusedLinear { x, w, bias, relu } => {
            // Gated upstream gradient ĝ (the relu gate tests the
            // post-activation output, positive exactly when the
            // pre-activation is).
            let gated = &mut gated[..g_buf.len];
            if *relu {
                let yv = prog.val[idx].expect("saved output");
                relu_gate(&grads[g_buf.range()], &vals[yv.range()], gated);
            } else {
                gated.copy_from_slice(&grads[g_buf.range()]);
            }
            fused_linear_backward_core(
                *x, *w, *bias, prog, vals, grads, g_buf, gated, stage, n, pool,
            );
        }
        Step::FusedLinearAdd {
            x,
            w,
            bias,
            res,
            relu,
            ..
        } => {
            // The unfused plan ran the residual `add` after the
            // linear, so the reverse sweep delivered the residual's
            // contribution first; keeping that order preserves
            // bit-identity when `res` aliases `x` (pre-activation
            // residual blocks).
            acc!(*res, g_buf.len, |g, j| g[j]);
            // The gate cannot read the fused output (it holds
            // activation + residual), so the forward pass saved the
            // pre-residual activation in the aux arena.
            let gated = &mut gated[..g_buf.len];
            if *relu {
                let ab = prog.aux[idx].expect("relu residual fusion saves its activation");
                relu_gate(&grads[g_buf.range()], &aux[ab.range()], gated);
            } else {
                gated.copy_from_slice(&grads[g_buf.range()]);
            }
            fused_linear_backward_core(
                *x, *w, *bias, prog, vals, grads, g_buf, gated, stage, n, pool,
            );
        }
        Step::FusedDecodeHead { input, parts } => {
            // The unfused plan scattered each window's gradient into
            // the shared (pre-zeroed) input gradient with `+=`, so the
            // fused form always accumulates — `compile` forces
            // `needs_zero` on the input for exactly this reason.
            if let Some(pb) = prog.grad[*input] {
                let yv = prog.val[idx].expect("saved output");
                let (g, dst) = split_two(grads, g_buf, pb);
                let y = &vals[yv.range()];
                for &(start, end, act) in parts {
                    match act {
                        DecodeAct::Sigmoid => {
                            for i in 0..m {
                                for j in start..end {
                                    let yi = y[i * n + j];
                                    dst[i * n + j] += g[i * n + j] * yi * (1.0 - yi);
                                }
                            }
                        }
                        DecodeAct::Softmax => {
                            // Mirrors `Step::SoftmaxRows` backward on
                            // the window: the dot folds ascending over
                            // the window's columns, exactly the
                            // unfused slice's local column order.
                            for i in 0..m {
                                let mut dot = 0.0f32;
                                for j in start..end {
                                    dot += g[i * n + j] * y[i * n + j];
                                }
                                for j in start..end {
                                    let s = y[i * n + j];
                                    dst[i * n + j] += s * (g[i * n + j] - dot);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
/// Branchless relu gate: `dst[j] = if act[j] > 0.0 { g[j] } else { 0.0 }`,
/// written as a bitmask select. Value-identical to the branchy form
/// (`NaN > 0.0` is false, and the gated-off value is exactly `+0.0`),
/// but the gate pattern on real activations is a coin flip per
/// element, so the branchy form pays a mispredict per lane while this
/// compiles to vectorized compare-and-mask.
fn relu_gate(g: &[f32], act: &[f32], dst: &mut [f32]) {
    for (d, (&gv, &av)) in dst.iter_mut().zip(g.iter().zip(act)) {
        let mask = 0u32.wrapping_sub((av > 0.0) as u32);
        *d = f32::from_bits(gv.to_bits() & mask);
    }
}

/// Shared backward tail of the fused linear step kinds: given the
/// (gated) upstream gradient ĝ, accumulates the bias, `x`, and `w`
/// contributions with the same staging and ordering the unfused plan
/// used — bias, then x, then w, mirroring the fresh path's
/// contribution order.
#[allow(clippy::too_many_arguments)]
fn fused_linear_backward_core(
    x: usize,
    w: usize,
    bias: usize,
    prog: &Program,
    vals: &[f32],
    grads: &mut [f32],
    g_buf: Buf,
    gated: &[f32],
    stage: &mut [f32],
    n: usize,
    pool: Option<&WorkerPool>,
) {
    let (xm, xk) = prog.shape[x];
    let (xv, wv) = (
        prog.val[x].expect("saved input slot"),
        prog.val[w].expect("saved input slot"),
    );
    if let Some(pb) = prog.grad[bias] {
        let single = prog.single_contrib[bias];
        write_grad(grads, g_buf, pb, single, stage, |_, dst| {
            sum_rows(gated, n, dst);
        });
    }
    // gx = ĝ · Wᵀ, reading W through a transposed view.
    // Row vectors (m = 1) keep the row kernels, as in `MatMul`.
    if let Some(pb) = prog.grad[x] {
        if xm == 1 {
            row_grad_wrt_a(
                gated,
                &vals[wv.range()],
                &mut grads[pb.range()],
                xk,
                n,
                prog.single_contrib[x],
                pool,
            );
        } else {
            let wt = MatRef::transposed(&vals[wv.range()], n);
            write_grad(grads, g_buf, pb, prog.single_contrib[x], stage, |_, dst| {
                matmul_par(MatRef::rows(gated, n), wt, dst, xm, n, xk, &NO_EPI, pool);
            });
        }
    }
    // gW = Xᵀ · ĝ: each row of X is already one lane vector of Xᵀ.
    if let Some(pb) = prog.grad[w] {
        if xm == 1 {
            row_grad_wrt_b(
                &vals[xv.range()],
                gated,
                &mut grads[pb.range()],
                xk,
                n,
                prog.single_contrib[w],
                pool,
            );
        } else {
            let xt = MatRef::transposed(&vals[xv.range()], xk);
            write_grad(grads, g_buf, pb, prog.single_contrib[w], stage, |_, dst| {
                matmul_par(xt, MatRef::rows(gated, n), dst, xk, xm, n, &NO_EPI, pool);
            });
        }
    }
}

/// Writes one backward product into the gradient slot `pb`: straight
/// into the slot when it has a single contribution (the fresh path's
/// first-assign), else folded from zero in `stage` and then accumulated,
/// exactly like the fresh path. `product(g, dst)` receives the step's
/// upstream gradient slice and the destination.
fn write_grad(
    grads: &mut [f32],
    g_buf: Buf,
    pb: Buf,
    single: bool,
    stage: &mut [f32],
    product: impl FnOnce(&[f32], &mut [f32]),
) {
    if single {
        let (g, dst) = split_two(grads, g_buf, pb);
        product(g, dst);
    } else {
        let stage = &mut stage[..pb.len];
        product(&grads[g_buf.range()], stage);
        for (d, &c) in grads[pb.range()].iter_mut().zip(stage.iter()) {
            *d += c;
        }
    }
}

/// `dst[j] = Σ_i g[i][j]` over the rows of `g` (row-major, `n`
/// columns), folded from zero in ascending `i` — the bias gradient of
/// the fresh path, one contiguous row at a time.
fn sum_rows(g: &[f32], n: usize, dst: &mut [f32]) {
    dst.fill(0.0);
    for row in g.chunks_exact(n) {
        for (d, &v) in dst.iter_mut().zip(row) {
            *d += v;
        }
    }
}

/// Transpose-free `ga = g · bᵀ` for a row-vector product:
/// [`crate::kernels::row_times_bt_into`] with the output rows
/// partitioned over the pool (each element is an independent fold, so
/// any partition is bit-identical).
fn row_grad_wrt_a(
    g: &[f32],
    b: &[f32],
    dst: &mut [f32],
    k: usize,
    n: usize,
    single: bool,
    pool: Option<&WorkerPool>,
) {
    let dst_ptr = SendPtr(dst.as_mut_ptr());
    par_rows(pool, k, k * n, &|lo, hi| {
        // SAFETY: [lo, hi) is this worker's exclusive output range.
        let d = unsafe { std::slice::from_raw_parts_mut(dst_ptr.ptr().add(lo), hi - lo) };
        crate::kernels::row_times_bt_into(g, &b[lo * n..hi * n], d, n, single);
    });
}

/// Transpose-free `gb = aᵀ · g` for a row-vector product: an outer
/// product `gb[c][j] = a[c] · g[j]`, with the shared kernel's zero-skip
/// on `a[c]`.
fn row_grad_wrt_b(
    a: &[f32],
    g: &[f32],
    dst: &mut [f32],
    k: usize,
    n: usize,
    single: bool,
    pool: Option<&WorkerPool>,
) {
    let dst_ptr = SendPtr(dst.as_mut_ptr());
    par_rows(pool, k, k * n, &|lo, hi| {
        // SAFETY: rows [lo, hi) are this worker's exclusive slice.
        let d = unsafe { std::slice::from_raw_parts_mut(dst_ptr.ptr().add(lo * n), (hi - lo) * n) };
        crate::kernels::row_outer_into(&a[lo..hi], g, d, n, single);
    });
}

/// A mutable arena pointer that may cross to pool workers. Each worker
/// touches only its own disjoint row range. (The method accessor makes
/// closures capture the `Sync` wrapper, not the raw-pointer field.)
struct SendPtr(*mut f32);
// SAFETY: the pointer addresses one session's arena, which outlives
// every pool dispatch (the pool joins before the kernel returns), and
// workers write only to disjoint row ranges of it.
unsafe impl Send for SendPtr {}
// SAFETY: shared access is read-only address arithmetic; all writes go
// through per-worker disjoint ranges.
unsafe impl Sync for SendPtr {}
impl SendPtr {
    fn ptr(&self) -> *mut f32 {
        self.0
    }
}

/// Row-partitions `total_rows` over the pool, calling `f(lo, hi)` once
/// per contiguous chunk — or once with the full range on the calling
/// thread when no pool is present, the pool has one worker, or `macs`
/// is under [`crate::par::par_threshold`] (below it the two channel
/// round-trips per worker cost more than the arithmetic). Chunks are rounded up to whole
/// [`ROW_BLOCK`] tiles so parallel dispatch splits along the
/// blocked kernels' tile boundaries and no worker starts mid-tile.
/// `f` must write only to its own rows; per-element arithmetic must
/// not depend on the chunking (every caller here computes each output
/// element from a fixed fold over inputs, so any row partition is
/// bit-identical — the threshold and the tile rounding only decide
/// latency).
fn par_rows(
    pool: Option<&WorkerPool>,
    total_rows: usize,
    macs: usize,
    f: &(dyn Fn(usize, usize) + Sync),
) {
    // One obs record per *logical* dispatch (never per worker chunk),
    // so the registry counts stay identical at every worker count.
    crate::kernels::observe_dispatch(macs);
    match pool {
        Some(pool)
            if pool.workers() > 1 && total_rows >= 2 && macs >= crate::par::par_threshold() =>
        {
            let workers = pool.workers().min(total_rows);
            let per = total_rows.div_ceil(workers).div_ceil(ROW_BLOCK) * ROW_BLOCK;
            pool.run(&|t| {
                let lo = (t * per).min(total_rows);
                let hi = ((t + 1) * per).min(total_rows);
                if lo < hi {
                    f(lo, hi);
                }
            });
        }
        _ => f(0, total_rows),
    }
}

/// The no-op epilogue: a plain product.
const NO_EPI: Epilogue<'static> = Epilogue {
    bias: None,
    relu: false,
    res: None,
    res_first: false,
};

/// `out = epi(a · b)` ([`matmul_view`] at the host's tier) with the
/// output rows partitioned over the pool. Each output element folds
/// over `p` exactly as in the sequential kernel, and its epilogue reads
/// only its own column's bias and its own residual element, so the
/// result is bit-identical at any worker count.
#[allow(clippy::too_many_arguments)]
fn matmul_par(
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: &Epilogue,
    pool: Option<&WorkerPool>,
) {
    let out_ptr = SendPtr(out.as_mut_ptr());
    let tier = Tier::detected();
    par_rows(pool, m, m * k * n, &|lo, hi| {
        let rows = hi - lo;
        // SAFETY: chunk [lo*n, hi*n) is this worker's exclusive slice.
        let dst = unsafe { std::slice::from_raw_parts_mut(out_ptr.ptr().add(lo * n), rows * n) };
        let epi = Epilogue {
            res: epi.res.map(|r| &r[lo * n..hi * n]),
            ..*epi
        };
        matmul_view(tier, a.skip_rows(lo), b, dst, rows, k, n, &epi);
    });
}

/// Fused `matmul → add_bias (→ relu) (→ add residual)` forward.
///
/// `act` is `Some` exactly when a residual step has a relu: the gate's
/// backward needs the pre-residual activation, which is not
/// recoverable from `out` (it holds activation + residual), so that
/// variant stages the activation into the step's aux window and then
/// adds the residual. The residual add honors the recorded operand
/// order (`res_first`) so even NaN-payload propagation matches the
/// unfused `Add` step bit-for-bit.
// The `res_first` branches look commutative-identical to clippy, but
// spell out the recorded operand order of the unfused `Add`.
#[allow(clippy::if_same_then_else)]
fn fused_linear_forward(
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    act: Option<&mut [f32]>,
    (m, k, n): (usize, usize, usize),
    epi: Epilogue,
    pool: Option<&WorkerPool>,
) {
    let (xv, wv) = (MatRef::rows(x, k), MatRef::rows(w, n));
    match (act, epi.res) {
        (Some(stage), Some(res)) => {
            let act_epi = Epilogue { res: None, ..epi };
            matmul_par(xv, wv, stage, m, k, n, &act_epi, pool);
            let pairs = out.iter_mut().zip(stage.iter()).zip(res);
            if epi.res_first {
                for ((d, &av), &rv) in pairs {
                    *d = rv + av;
                }
            } else {
                for ((d, &av), &rv) in pairs {
                    *d = av + rv;
                }
            }
        }
        _ => matmul_par(xv, wv, out, m, k, n, &epi, pool),
    }
}

/// Disjoint mutable/immutable views of two arena ranges.
///
/// # Panics
///
/// Panics (debug) if the ranges overlap — the arena planner guarantees
/// a step's output never aliases its inputs.
fn split_two(vals: &mut [f32], a: Buf, out: Buf) -> (&[f32], &mut [f32]) {
    debug_assert!(a.off + a.len <= out.off || out.off + out.len <= a.off);
    if a.off < out.off {
        let (lo, hi) = vals.split_at_mut(out.off);
        (&lo[a.range()], &mut hi[..out.len])
    } else {
        let (lo, hi) = vals.split_at_mut(a.off);
        (&hi[..a.len], &mut lo[out.range()])
    }
}

/// Disjoint views of `N` input arena ranges and one output range. The
/// inputs may alias each other (they are all reads).
///
/// # Panics
///
/// Panics if an input overlaps the output — checked in every build
/// profile: `N` integer comparisons guarding aliased-mutation UB
/// against future planner changes.
fn split_reads<const N: usize>(
    vals: &mut [f32],
    ins: [Buf; N],
    out: Buf,
) -> ([&[f32]; N], &mut [f32]) {
    assert!(out.off + out.len <= vals.len());
    for b in ins {
        assert!(b.off + b.len <= vals.len());
        assert!(
            b.off + b.len <= out.off || out.off + out.len <= b.off,
            "step output aliases an input buffer"
        );
    }
    let base = vals.as_mut_ptr();
    // SAFETY: every range is in bounds (asserted above), and the arena
    // planner never hands a step an output buffer overlapping any of
    // its inputs (outputs are allocated before the inputs' slots can be
    // recycled; asserted above), so the shared views of the inputs and
    // the mutable view of `out` are disjoint.
    unsafe {
        (
            ins.map(|b| std::slice::from_raw_parts(base.add(b.off).cast_const(), b.len)),
            std::slice::from_raw_parts_mut(base.add(out.off), out.len),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Linear, ParamStore, ResidualMlp};
    use crate::rng::Rng;

    /// Fresh-record reference: rebuild the graph per step and return
    /// (loss, leaf gradients).
    fn fresh_step(
        build: impl Fn(&mut Tape, &[Var]) -> Var,
        inputs: &[Tensor],
    ) -> (f32, Vec<Option<Tensor>>) {
        let mut tape = Tape::new();
        let vars: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
        let out = build(&mut tape, &vars);
        let loss = tape.value(out).item();
        let grads = tape.backward(out);
        (loss, vars.iter().map(|&v| grads.wrt(v).cloned()).collect())
    }

    /// Replay reference: compile once from the first input set, then
    /// rebind and replay for every input set, asserting bit-identical
    /// losses and gradients against the fresh path.
    fn assert_replay_matches(build: impl Fn(&mut Tape, &[Var]) -> Var, input_sets: &[Vec<Tensor>]) {
        let mut tape = Tape::new();
        let vars: Vec<Var> = input_sets[0].iter().map(|t| tape.leaf(t.clone())).collect();
        let out = build(&mut tape, &vars);
        let prog = Arc::new(Program::compile(&tape, &[out], &[]));
        let mut sess = Session::new(prog);

        for (step, inputs) in input_sets.iter().enumerate() {
            for (var, t) in vars.iter().zip(inputs) {
                sess.bind_tensor(*var, t);
            }
            sess.forward();
            sess.backward(out);
            let (fresh_loss, fresh_grads) = fresh_step(&build, inputs);
            assert_eq!(sess.scalar(out), fresh_loss, "loss diverged at step {step}");
            for (i, (var, fg)) in vars.iter().zip(&fresh_grads).enumerate() {
                match (sess.grad(*var), fg) {
                    (Some(cg), Some(fg)) => {
                        assert_eq!(cg, fg.data(), "grad {i} diverged at step {step}")
                    }
                    (None, None) => {}
                    (c, f) => panic!(
                        "grad {i} presence diverged at step {step}: {:?} vs {:?}",
                        c.is_some(),
                        f.is_some()
                    ),
                }
            }
        }
    }

    fn rand_sets(shapes: &[&[usize]], steps: usize, seed: u64) -> Vec<Vec<Tensor>> {
        let mut rng = Rng::new(seed);
        (0..steps)
            .map(|_| {
                shapes
                    .iter()
                    .map(|s| Tensor::randn(s, 1.0, &mut rng))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn elementwise_chain_replays_bit_identically() {
        assert_replay_matches(
            |t, v| {
                let a = t.add(v[0], v[1]);
                let b = t.sigmoid(a);
                let c = t.exp(b);
                let d = t.div(c, v[2]);
                let e = t.scale(d, -1.7);
                let f = t.add_scalar(e, 1.2);
                let g = t.relu(f);
                let h = t.clamp_min(g, 0.4);
                t.mse(h, v[1])
            },
            &rand_sets(&[&[3, 4], &[3, 4], &[3, 4]], 5, 1)
                .into_iter()
                .map(|mut set| {
                    for x in set[2].data_mut() {
                        *x = x.abs() + 1.0; // keep the divisor away from 0
                    }
                    set
                })
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn linear_relu_fusion_replays_bit_identically() {
        // matmul → add_bias → relu triggers the fused kernel; a second
        // unfused consumer of the weights keeps the graph interesting.
        assert_replay_matches(
            |t, v| {
                let mm = t.matmul(v[0], v[1]);
                let lin = t.add_bias(mm, v[2]);
                let act = t.relu(lin);
                let s = t.sum(act);
                let n = t.dot(v[1], v[1]);
                t.add(s, n)
            },
            &rand_sets(&[&[4, 3], &[3, 5], &[1, 5]], 4, 2),
        );
    }

    #[test]
    fn fusion_is_rejected_when_intermediate_is_shared() {
        // The matmul output feeds both add_bias and an extra sum, so it
        // must stay materialized and the replay must still match.
        assert_replay_matches(
            |t, v| {
                let mm = t.matmul(v[0], v[1]);
                let lin = t.add_bias(mm, v[2]);
                let act = t.relu(lin);
                let s1 = t.sum(act);
                let s2 = t.sum(mm);
                t.add(s1, s2)
            },
            &rand_sets(&[&[2, 3], &[3, 4], &[1, 4]], 3, 3),
        );
    }

    #[test]
    fn residual_fusion_replays_bit_identically() {
        // relu(x·W + b) + x — the ResidualMlp block shape, where the
        // residual aliases the linear's own input.
        assert_replay_matches(
            |t, v| {
                let mm = t.matmul(v[0], v[1]);
                let lin = t.add_bias(mm, v[2]);
                let act = t.relu(lin);
                let res = t.add(act, v[0]);
                t.mse(res, v[3])
            },
            &rand_sets(&[&[4, 4], &[4, 4], &[1, 4], &[4, 4]], 4, 11),
        );
    }

    #[test]
    fn residual_fusion_res_first_and_no_relu_replay_bit_identically() {
        // Residual on the left of the add (res_first) and no relu.
        assert_replay_matches(
            |t, v| {
                let mm = t.matmul(v[0], v[1]);
                let lin = t.add_bias(mm, v[2]);
                let res = t.add(v[3], lin);
                t.mse(res, v[4])
            },
            &rand_sets(&[&[3, 5], &[5, 4], &[1, 4], &[3, 4], &[3, 4]], 4, 12),
        );
    }

    #[test]
    fn residual_add_fuses_into_one_step() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[4, 4]));
        let w = tape.leaf(Tensor::ones(&[4, 4]));
        let b = tape.leaf(Tensor::ones(&[1, 4]));
        let mm = tape.matmul(x, w);
        let lin = tape.add_bias(mm, b);
        let act = tape.relu(lin);
        let res = tape.add(act, x);
        let out = tape.sum(res);
        let prog = Program::compile(&tape, &[out], &[]);
        // 3 leaves + FusedLinearAdd + Sum.
        assert_eq!(prog.num_steps(), 5);
    }

    #[test]
    fn residual_fusion_rejected_when_activation_is_shared() {
        // The relu output feeds the residual add *and* a sum, so the
        // add must not be folded in; replay must still match.
        assert_replay_matches(
            |t, v| {
                let mm = t.matmul(v[0], v[1]);
                let lin = t.add_bias(mm, v[2]);
                let act = t.relu(lin);
                let res = t.add(act, v[0]);
                let s1 = t.sum(res);
                let s2 = t.sum(act);
                t.add(s1, s2)
            },
            &rand_sets(&[&[4, 4], &[4, 4], &[1, 4]], 3, 13),
        );
    }

    #[test]
    fn decode_head_fusion_replays_bit_identically() {
        // The generator's decode head: column slices of one source,
        // sigmoid/softmax per window, concatenated back in order.
        assert_replay_matches(
            |t, v| {
                let h = t.matmul(v[0], v[1]);
                let s1 = t.slice_cols(h, 0, 3);
                let a1 = t.sigmoid(s1);
                let s2 = t.slice_cols(h, 3, 7);
                let a2 = t.softmax_rows(s2);
                let s3 = t.slice_cols(h, 7, 9);
                let a3 = t.sigmoid(s3);
                let cat = t.concat_cols(&[a1, a2, a3]);
                t.mse(cat, v[2])
            },
            &rand_sets(&[&[5, 4], &[4, 9], &[5, 9]], 4, 14),
        );
    }

    #[test]
    fn decode_head_fusion_replays_bit_identically_single_row() {
        // m = 1 — the generator's actual decode shape.
        assert_replay_matches(
            |t, v| {
                let h = t.matmul(v[0], v[1]);
                let s1 = t.slice_cols(h, 0, 4);
                let a1 = t.softmax_rows(s1);
                let s2 = t.slice_cols(h, 4, 6);
                let a2 = t.sigmoid(s2);
                let cat = t.concat_cols(&[a1, a2]);
                t.mse(cat, v[2])
            },
            &rand_sets(&[&[1, 3], &[3, 6], &[1, 6]], 4, 15),
        );
    }

    #[test]
    fn decode_head_fuses_into_one_step() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[2, 4]));
        let w = tape.leaf(Tensor::ones(&[4, 9]));
        let h = tape.matmul(x, w);
        let s1 = tape.slice_cols(h, 0, 3);
        let a1 = tape.sigmoid(s1);
        let s2 = tape.slice_cols(h, 3, 9);
        let a2 = tape.softmax_rows(s2);
        let cat = tape.concat_cols(&[a1, a2]);
        let out = tape.sum(cat);
        let prog = Program::compile(&tape, &[out], &[]);
        // 2 leaves + MatMul + FusedDecodeHead + Sum.
        assert_eq!(prog.num_steps(), 5);
    }

    #[test]
    fn decode_head_fusion_rejected_on_gaps_partial_cover_and_sharing() {
        // Non-contiguous windows (gap between 3 and 4).
        let gap = |t: &mut Tape, v: &[Var]| {
            let h = t.matmul(v[0], v[1]);
            let a1 = {
                let s = t.slice_cols(h, 0, 3);
                t.sigmoid(s)
            };
            let a2 = {
                let s = t.slice_cols(h, 4, 9);
                t.sigmoid(s)
            };
            let cat = t.concat_cols(&[a1, a2]);
            t.sum(cat)
        };
        // Windows cover only a prefix of the source's columns.
        let partial = |t: &mut Tape, v: &[Var]| {
            let h = t.matmul(v[0], v[1]);
            let a1 = {
                let s = t.slice_cols(h, 0, 3);
                t.sigmoid(s)
            };
            let a2 = {
                let s = t.slice_cols(h, 3, 7);
                t.softmax_rows(s)
            };
            let cat = t.concat_cols(&[a1, a2]);
            t.sum(cat)
        };
        // One slice feeds an extra consumer besides its activation.
        let shared = |t: &mut Tape, v: &[Var]| {
            let h = t.matmul(v[0], v[1]);
            let s1 = t.slice_cols(h, 0, 3);
            let a1 = t.sigmoid(s1);
            let a2 = {
                let s = t.slice_cols(h, 3, 9);
                t.softmax_rows(s)
            };
            let cat = t.concat_cols(&[a1, a2]);
            let extra = t.sum(s1);
            let base = t.sum(cat);
            t.add(base, extra)
        };
        let sets = rand_sets(&[&[3, 4], &[4, 9]], 3, 16);
        assert_replay_matches(gap, &sets);
        assert_replay_matches(partial, &sets);
        assert_replay_matches(shared, &sets);

        // Pin that none of them fused: every step stays materialized.
        let count = |build: &dyn Fn(&mut Tape, &[Var]) -> Var| {
            let mut tape = Tape::new();
            let vars: Vec<Var> = sets[0].iter().map(|t| tape.leaf(t.clone())).collect();
            let out = build(&mut tape, &vars);
            Program::compile(&tape, &[out], &[]).num_steps()
        };
        // leaves(2) + matmul + 2·(slice+act) + concat + sum = 9
        assert_eq!(count(&gap), 9);
        assert_eq!(count(&partial), 9);
        // shared keeps everything plus extra sum + add = 11
        assert_eq!(count(&shared), 11);
    }

    #[test]
    fn softmax_and_reductions_replay_bit_identically() {
        assert_replay_matches(
            |t, v| {
                let s = t.softmax_rows(v[0]);
                let e = t.exp(v[1]);
                let w = t.div(s, e);
                let cat = t.concat_cols(&[w, v[2]]);
                let mid = t.slice_cols(cat, 1, 4);
                let d = t.dot(mid, mid);
                let m = t.mse(v[0], v[1]);
                let dm = t.add(d, m);
                t.sum(dm)
            },
            &rand_sets(&[&[2, 4], &[2, 4], &[2, 2]], 4, 4),
        );
    }

    #[test]
    fn cross_entropy_replays_and_rebinds_targets() {
        let mut tape = Tape::new();
        let mut rng = Rng::new(7);
        let logits0 = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let x = tape.leaf(logits0.clone());
        let ce = tape.cross_entropy_logits(x, &[0, 1, 2]);
        let prog = Arc::new(Program::compile(&tape, &[ce], &[]));
        let mut sess = Session::new(Arc::clone(&prog));

        for step in 0..4 {
            let logits = Tensor::randn(&[3, 4], 1.0, &mut rng);
            let targets = [step % 4, (step + 1) % 4, (step + 2) % 4];
            sess.bind_tensor(x, &logits);
            sess.set_targets(ce, &targets);
            sess.forward();
            sess.backward(ce);

            let mut fresh = Tape::new();
            let fx = fresh.leaf(logits.clone());
            let fce = fresh.cross_entropy_logits(fx, &targets);
            let fg = fresh.backward(fce);
            assert_eq!(sess.scalar(ce), fresh.value(fce).item());
            assert_eq!(sess.grad(x).unwrap(), fg.wrt(fx).unwrap().data());
        }
    }

    #[test]
    fn multi_output_backward_matches_fresh() {
        let mut rng = Rng::new(9);
        let inputs = [
            Tensor::randn(&[2, 3], 1.0, &mut rng),
            Tensor::randn(&[2, 3], 1.0, &mut rng),
        ];
        let mut tape = Tape::new();
        let a = tape.leaf(inputs[0].clone());
        let b = tape.leaf(inputs[1].clone());
        let prod = tape.dot(a, b);
        let o1 = tape.sum(prod);
        let o2 = tape.dot(a, a);
        let prog = Arc::new(Program::compile(&tape, &[o1, o2], &[]));
        let mut sess = Session::new(prog);
        sess.forward();

        sess.backward(o1);
        let g1 = tape.backward(o1);
        assert_eq!(sess.grad(a).unwrap(), g1.wrt(a).unwrap().data());
        assert_eq!(sess.grad(b).unwrap(), g1.wrt(b).unwrap().data());

        sess.backward(o2);
        let g2 = tape.backward(o2);
        assert_eq!(sess.grad(a).unwrap(), g2.wrt(a).unwrap().data());
        // o2 does not depend on b.
        assert!(sess.grad(b).is_none());
    }

    #[test]
    fn arena_reuses_buffers_of_dead_intermediates() {
        // A deep elementwise chain: none of the intermediates are needed
        // by backward of the final sum, so the arena must be smaller
        // than one-buffer-per-node.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[8, 8]));
        let mut h = x;
        for _ in 0..6 {
            let a = tape.add_scalar(h, 1.0);
            let b = tape.scale(a, -1.0);
            h = tape.scale(b, -1.0);
        }
        let out = tape.sum(h);
        let prog = Program::compile(&tape, &[out], &[]);
        let per_node: usize = 64 * (tape.len() - 1) + 1;
        assert!(
            prog.arena_len() < per_node,
            "arena {} should be < naive {}",
            prog.arena_len(),
            per_node
        );
        // And reuse must not corrupt the result.
        let mut sess = Session::new(Arc::new(prog));
        sess.forward();
        assert_eq!(sess.scalar(out), tape.value(out).item());
    }

    #[test]
    fn lut_row_interp_replays_bit_identically() {
        let table = Tensor::from_vec(vec![0.0, 1.0, 1.0, 3.0, 2.0, 9.0, 3.0, 27.0], &[4, 2]);
        let build = move |t: &mut Tape, v: &[Var]| {
            let row = t.lut_row_interp(v[0], &table);
            t.dot(row, row)
        };
        let sets: Vec<Vec<Tensor>> = [0.4f32, 1.5, 2.75, 0.0, 5.0]
            .iter()
            .map(|&c| vec![Tensor::scalar(c)])
            .collect();
        assert_replay_matches(build, &sets);
    }

    #[test]
    fn residual_mlp_training_graph_replays_bit_identically() {
        // The exact graph shape Estimator::train replays: bind params as
        // leaves, forward the residual MLP, MSE against targets.
        let mut rng = Rng::new(11);
        let mut params = ParamStore::new();
        let mlp = ResidualMlp::new(&mut params, 6, 8, 3, 5, &mut rng);
        let record = |tape: &mut Tape, x: &Tensor, t: &Tensor| {
            let binding = params.bind(tape);
            let xv = tape.leaf(x.clone());
            let tv = tape.leaf(t.clone());
            let pred = mlp.forward(tape, &binding, xv);
            (binding, xv, tv, tape.mse(pred, tv))
        };

        let x0 = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let t0 = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let mut tape = Tape::new();
        let (binding, xv, tv, loss) = record(&mut tape, &x0, &t0);
        let prog = Arc::new(Program::compile(&tape, &[loss], &[]));
        let mut sess = Session::new(prog);

        for step in 0..5 {
            let x = Tensor::randn(&[4, 6], 1.0, &mut rng);
            let t = Tensor::randn(&[4, 3], 1.0, &mut rng);
            for (id, tensor) in params.iter() {
                sess.bind_tensor(binding.var(id), tensor);
            }
            sess.bind_tensor(xv, &x);
            sess.bind_tensor(tv, &t);
            sess.forward();
            sess.backward(loss);

            let mut fresh = Tape::new();
            let (fb, _, _, floss) = record(&mut fresh, &x, &t);
            let fg = fresh.backward(floss);
            assert_eq!(
                sess.scalar(loss),
                fresh.value(floss).item(),
                "loss diverged at step {step}"
            );
            for (id, _) in params.iter() {
                assert_eq!(
                    sess.grad(binding.var(id)).unwrap(),
                    fg.wrt(fb.var(id)).unwrap().data(),
                    "param {} grad diverged at step {step}",
                    id.index()
                );
            }
        }
    }

    #[test]
    fn leaves_bound_mid_graph_never_alias_computed_buffers() {
        // Regression: a leaf recorded *after* dead intermediates have
        // been freed must not be handed a recycled buffer — its bound
        // value would be clobbered by the earlier node's forward step.
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::row(&[1.0, 2.0, 3.0]));
        let s = tape.scale(a, 2.0); // dead after the softmax below
        let p = tape.softmax_rows(s);
        let w = tape.leaf(Tensor::row(&[5.0, 7.0, 11.0])); // mid-graph leaf
        let mix = tape.dot(p, w);
        let out = tape.sum(mix);
        let prog = Arc::new(Program::compile(&tape, &[out], &[]));
        let mut sess = Session::new(prog);
        for step in 0..3 {
            sess.forward();
            assert_eq!(
                sess.scalar(out),
                tape.value(out).item(),
                "clobbered at replay {step}"
            );
        }
    }

    #[test]
    fn sink_pruning_skips_input_grads_without_changing_param_grads() {
        let mut rng = Rng::new(13);
        let mut params = ParamStore::new();
        let mlp = ResidualMlp::new(&mut params, 5, 6, 2, 4, &mut rng);
        let x0 = Tensor::randn(&[3, 5], 1.0, &mut rng);

        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let xv = tape.leaf(x0.clone());
        let y = mlp.forward(&mut tape, &binding, xv);
        let loss = tape.dot(y, y);

        let sinks: Vec<Var> = params.iter().map(|(id, _)| binding.var(id)).collect();
        let full = Arc::new(Program::compile(&tape, &[loss], &[]));
        let pruned = Arc::new(Program::compile_with_sinks(&tape, &[loss], &[], &sinks));

        let mut s_full = Session::new(full);
        let mut s_pruned = Session::new(pruned);
        for sess in [&mut s_full, &mut s_pruned] {
            sess.forward();
            sess.backward(loss);
        }
        // The pruned program drops the input-leaf gradient…
        assert!(s_full.grad(xv).is_some());
        assert!(s_pruned.grad(xv).is_none());
        // …and changes no parameter gradient bit.
        for (id, _) in params.iter() {
            assert_eq!(
                s_full.grad(binding.var(id)).unwrap(),
                s_pruned.grad(binding.var(id)).unwrap(),
                "param {} grads diverged under sink pruning",
                id.index()
            );
        }
    }

    #[test]
    fn dead_gradient_pruning_matches_fresh_record() {
        // A supernet-style mixture: two blocks read shared features and
        // are weighted by renormalized softmax(α) slices. With α as the
        // only sink, no block node leads to a sink, so the whole block
        // backward (g·Wᵀ, Xᵀ·g) is pruned — and the α gradient keeps
        // every bit of the all-sink compile and of the fresh tape.
        let mut rng = Rng::new(29);
        let mut params = ParamStore::new();
        let blocks: Vec<(Linear, Linear)> = (0..2)
            .map(|_| {
                let l1 = Linear::new(&mut params, 5, 4, &mut rng);
                (l1, Linear::new(&mut params, 4, 5, &mut rng))
            })
            .collect();
        let head = Linear::new(&mut params, 5, 3, &mut rng);
        let x0 = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let a0 = Tensor::randn(&[1, 3], 0.5, &mut rng);

        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(x0);
        let alpha = tape.leaf(a0);
        let probs = tape.softmax_rows(alpha);
        let slices = [tape.slice_cols(probs, 0, 1), tape.slice_cols(probs, 2, 3)];
        let denom = tape.add(slices[0], slices[1]);
        let mut acc = x;
        for ((l1, l2), &slice) in blocks.iter().zip(&slices) {
            let h = l1.forward(&mut tape, &binding, x);
            let h = tape.relu(h);
            let out = l2.forward(&mut tape, &binding, h);
            let weight = tape.div(slice, denom);
            let contrib = tape.mul_scalar_var(out, weight);
            acc = tape.add(acc, contrib);
        }
        let logits = head.forward(&mut tape, &binding, acc);
        let loss = tape.cross_entropy_logits(logits, &[0, 1, 2, 0, 1, 2]);
        let fresh = tape.backward(loss);

        let mut all_sinks: Vec<Var> = params.iter().map(|(id, _)| binding.var(id)).collect();
        all_sinks.push(alpha);
        let full = Arc::new(Program::compile_with_sinks(&tape, &[loss], &[], &all_sinks));
        let pruned = Arc::new(Program::compile_with_sinks(&tape, &[loss], &[], &[alpha]));
        assert!(
            pruned.grad_len() < full.grad_len(),
            "α-only sinks must shrink the gradient arena: {} vs {}",
            pruned.grad_len(),
            full.grad_len()
        );
        for jobs in [1, 2, 4] {
            let pool = WorkerPool::new(jobs);
            let mut s_full = Session::new(Arc::clone(&full));
            let mut s_pruned = Session::new(Arc::clone(&pruned));
            for sess in [&mut s_full, &mut s_pruned] {
                sess.forward_with(Some(&pool));
                sess.try_backward_with(loss, Some(&pool)).expect("output");
            }
            let g = s_pruned.grad(alpha).expect("α is a sink");
            assert_eq!(g, s_full.grad(alpha).unwrap(), "jobs {jobs}");
            assert_eq!(g, fresh.wrt(alpha).unwrap().data(), "jobs {jobs}");
            assert_eq!(s_pruned.scalar(loss), tape.value(loss).item());
            // Block nodes and parameters carry no gradient at all.
            assert!(s_pruned.grad(binding.var(params.id(0))).is_none());
            assert!(s_pruned.grad(acc).is_some(), "acc leads to α");
        }
    }

    #[test]
    fn repeated_operands_never_double_release_a_buffer() {
        // Regression: `add(s, s)` lists the dead intermediate `s`
        // twice; releasing its buffer twice would alias two later live
        // nodes onto one slot.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::row(&[1.0, 2.0, 3.0]));
        let s = tape.scale(x, 2.0); // dead after the add below
        let z = tape.add(s, s);
        let a = tape.add_scalar(z, 1.0); // two same-size allocations
        let b = tape.add_scalar(z, 2.0); // that must not share a slot
        let d = tape.div(a, b);
        let sq = tape.dot(d, d);
        let out = tape.sum(sq);
        let prog = Arc::new(Program::compile(&tape, &[out], &[]));
        let mut sess = Session::new(prog);
        sess.forward();
        assert_eq!(sess.scalar(out), tape.value(out).item());
        sess.backward(out);
        let fresh = tape.backward(out);
        assert_eq!(sess.grad(x).unwrap(), fresh.wrt(x).unwrap().data());
    }

    #[test]
    fn kept_values_stay_readable() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::row(&[1.0, 2.0]));
        let e = tape.exp(x);
        let inter = tape.scale(e, 2.0);
        let out = tape.sum(inter);
        let prog = Program::compile(&tape, &[out], &[inter]);
        let mut sess = Session::new(Arc::new(prog));
        sess.forward();
        assert_eq!(sess.value(inter), tape.value(inter).data());
    }

    #[test]
    #[should_panic(expected = "not a leaf")]
    fn binding_non_leaf_panics() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(1.0));
        let y = tape.exp(x);
        let out = tape.sum(y);
        let prog = Program::compile(&tape, &[out], &[]);
        let mut sess = Session::new(Arc::new(prog));
        sess.bind(y, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "must be scalar")]
    fn compile_rejects_non_scalar_output() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::row(&[1.0, 2.0]));
        let _ = Program::compile(&tape, &[x], &[]);
    }

    #[test]
    fn misuse_errors_name_the_offending_var() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::row(&[1.0, 2.0, 3.0]));
        let ce = tape.cross_entropy_logits(x, &[0]);
        let other = tape.exp(x);
        let out = tape.sum(other);
        let prog = Arc::new(Program::compile(&tape, &[out], &[]));
        let mut sess = Session::new(prog);
        assert_eq!(
            sess.try_set_targets(out, &[1]),
            Err(ProgramError::NotCrossEntropy { var: out.index() })
        );
        assert_eq!(
            sess.try_set_targets(ce, &[1, 2]),
            Err(ProgramError::TargetLenMismatch {
                var: ce.index(),
                expected: 1,
                got: 2
            })
        );
        sess.forward();
        assert_eq!(
            sess.try_backward(ce),
            Err(ProgramError::NotAnOutput { var: ce.index() })
        );
        assert!(sess.try_backward(out).is_ok());
    }

    #[test]
    fn parallel_session_replay_is_bit_identical_to_sequential() {
        // A fused-linear training graph large enough to cross the pool
        // dispatch threshold, replayed at several worker counts. Under
        // Miri (which interprets every MAC) one step at two uneven
        // worker counts still drives the pooled kernels' unsafe row
        // partitioning.
        let mut rng = Rng::new(17);
        let mut params = ParamStore::new();
        let mlp = ResidualMlp::new(&mut params, 64, 96, 8, 4, &mut rng);
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::zeros(&[48, 64]));
        let t = tape.leaf(Tensor::zeros(&[48, 8]));
        let pred = mlp.forward(&mut tape, &binding, x);
        let loss = tape.mse(pred, t);
        let prog = Arc::new(Program::compile(&tape, &[loss], &[]));

        let run = |jobs: usize| {
            let pool = WorkerPool::new(jobs);
            assert_eq!(pool.workers(), jobs);
            let mut sess = Session::new(Arc::clone(&prog));
            let mut rng = Rng::new(18);
            let mut out = Vec::new();
            for _ in 0..if cfg!(miri) { 1 } else { 3 } {
                let xv = Tensor::randn(&[48, 64], 1.0, &mut rng);
                let tv = Tensor::randn(&[48, 8], 1.0, &mut rng);
                sess.bind_tensor(x, &xv);
                sess.bind_tensor(t, &tv);
                sess.forward_with(Some(&pool));
                sess.try_backward_with(loss, Some(&pool)).expect("output");
                out.push(sess.scalar(loss));
                for (id, _) in params.iter() {
                    out.extend_from_slice(sess.grad(binding.var(id)).expect("param grad"));
                }
            }
            out
        };
        let seq = run(1);
        let grid: &[usize] = if cfg!(miri) { &[2, 3] } else { &[2, 3, 4, 7] };
        for &jobs in grid {
            assert_eq!(seq, run(jobs), "jobs={jobs} diverged from sequential");
        }
    }
}
