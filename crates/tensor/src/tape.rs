//! Reverse-mode automatic differentiation on a tape.
//!
//! A [`Tape`] records a computation graph node-by-node as forward
//! operations are invoked; [`Tape::backward`] then walks the nodes in
//! reverse topological order (which is simply reverse insertion order)
//! and accumulates gradients of a scalar output with respect to every
//! node, returning them as [`Gradients`].
//!
//! The operation set is exactly what the HDX graphs record: the
//! supernet mixture (`softmax_rows`, `slice_cols`, `div`,
//! `mul_scalar_var`, `add`), the residual MLPs (`matmul`, `add_bias`,
//! `relu`, `scale`), the estimator's cost head (`exp`, `add_scalar`,
//! `mse`), the hardware generator (`sigmoid`, `concat_cols`, `dot`),
//! the task losses (`cross_entropy_logits`, `sum`), and the hinge
//! `max(x - c, 0)` of the paper's constraint loss (Eq. 5) via
//! [`Tape::hinge_above`].

use crate::tensor::Tensor;

/// Handle to a node on a [`Tape`].
///
/// `Var`s are only meaningful for the tape that created them; using a
/// `Var` from another tape is a logic error (and will usually panic on
/// a shape or bounds check).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// The node index inside its tape.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The recorded op set: only ops some search, estimator, retrain,
/// server or bench graph records. Two are kept for other reasons:
/// `ClampMin` has no direct caller but is what [`Tape::hinge_above`]
/// (the paper's constraint loss) records, and `LutRowInterp` is the
/// literal Auto-NBA table-gradient reference (piecewise-linear cost
/// gradients straight from `LayerLut` rows; `tests/cross_crate.rs`).
#[derive(Debug, Clone)]
pub(crate) enum Op {
    Leaf,
    Add(Var, Var),
    Div(Var, Var),
    Scale(Var, f32),
    AddScalar(Var, f32),
    Relu(Var),
    Sigmoid(Var),
    Exp(Var),
    ClampMin(Var, f32),
    MatMul(Var, Var),
    AddBias(Var, Var),
    Sum(Var),
    SoftmaxRows(Var),
    CrossEntropyLogits {
        logits: Var,
        targets: Vec<usize>,
    },
    Mse(Var, Var),
    ConcatCols(Vec<Var>),
    SliceCols {
        input: Var,
        start: usize,
        end: usize,
    },
    Dot(Var, Var),
    MulScalarVar {
        x: Var,
        s: Var,
    },
    LutRowInterp {
        coord: Var,
        table: Tensor,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) op: Op,
    pub(crate) value: Tensor,
}

/// Gradients of a scalar with respect to every tape node.
///
/// Returned by [`Tape::backward`]. Nodes that the scalar does not
/// depend on have no gradient entry.
#[derive(Debug, Clone)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient with respect to `var`, if the output depended on it.
    pub fn wrt(&self, var: Var) -> Option<&Tensor> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }

    /// Gradient with respect to `var`, or a zero tensor of `shape`.
    pub fn wrt_or_zeros(&self, var: Var, shape: &[usize]) -> Tensor {
        self.wrt(var)
            .cloned()
            .unwrap_or_else(|| Tensor::zeros(shape))
    }
}

/// A computation tape recording a differentiable graph.
///
/// # Example
///
/// ```
/// use hdx_tensor::{Tape, Tensor};
/// let mut tape = Tape::new();
/// let x = tape.leaf(Tensor::row(&[2.0]));
/// let y = tape.dot(x, x);               // y = x·x = x²
/// let grads = tape.backward(y);
/// assert_eq!(grads.wrt(x).expect("grad").data(), &[4.0]); // dy/dx = 2x
/// ```
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Value buffers harvested by [`Tape::clear`], reused by
    /// [`Tape::leaf_from_slice`] so a cleared-and-rerecorded tape stops
    /// reallocating its leaf storage every step.
    pool: Vec<Vec<f32>>,
}

/// Cap on the number of value buffers a tape retains across `clear()`.
/// Enough for every leaf of the workspace's largest graphs while
/// bounding worst-case retained memory.
const POOL_MAX: usize = 256;

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Creates an empty tape with node storage pre-reserved for
    /// `nodes` operations, so hot loops that re-record a known graph
    /// shape never grow the op vector.
    pub fn with_capacity(nodes: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            pool: Vec::new(),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node storage currently reserved (survives [`Tape::clear`]).
    pub fn capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Removes all nodes, keeping allocated capacity for reuse: the op
    /// vector retains its storage, and the node value buffers are
    /// harvested into an internal pool that [`Tape::leaf_from_slice`]
    /// (and through it [`crate::nn::ParamStore::bind`]) draws from on
    /// the next recording.
    pub fn clear(&mut self) {
        for node in self.nodes.drain(..) {
            if self.pool.len() < POOL_MAX {
                self.pool.push(node.value.into_vec());
            }
        }
    }

    /// Inserts a leaf by copying `data`, reusing a pooled buffer from a
    /// previous [`Tape::clear`] when one is available.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match `shape`.
    pub fn leaf_from_slice(&mut self, data: &[f32], shape: &[usize]) -> Var {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(data);
        self.push(Op::Leaf, Tensor::from_vec(buf, shape))
    }

    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The forward value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range for this tape.
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.0].value
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Inserts an input (leaf) tensor onto the tape.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(Op::Leaf, value)
    }

    /// Elementwise `a + b`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(Op::Add(a, b), v)
    }

    /// Elementwise `a / b`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), |x, y| x / y);
        self.push(Op::Div(a, b), v)
    }

    /// Multiplies every element by the constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).scale(c);
        self.push(Op::Scale(a, c), v)
    }

    /// Adds the constant `c` to every element.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).map(|x| x + c);
        self.push(Op::AddScalar(a, c), v)
    }

    /// Rectified linear unit `max(x, 0)`.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(Op::Relu(a), v)
    }

    /// Logistic sigmoid `1/(1+e^{-x})`.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(Op::Sigmoid(a), v)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::exp);
        self.push(Op::Exp(a), v)
    }

    /// Elementwise `max(x, c)`.
    ///
    /// `tape.clamp_min(tape.add_scalar(t, -target), 0.0)` implements the
    /// paper's constraint loss `max(t − T, 0)` (Eq. 5).
    pub fn clamp_min(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).map(|x| x.max(c));
        self.push(Op::ClampMin(a, c), v)
    }

    /// The hinge `max(x − c, 0)` as a single convenience op.
    pub fn hinge_above(&mut self, a: Var, c: f32) -> Var {
        let shifted = self.add_scalar(a, -c);
        self.clamp_min(shifted, 0.0)
    }

    /// Matrix product `a · b` for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions differ.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), v)
    }

    /// Adds a `[1, n]` bias row to every row of a `[m, n]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `[1, n]` with matching `n`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let xv = self.value(x);
        let bv = self.value(bias);
        let (m, n) = (xv.rows(), xv.cols());
        assert_eq!(
            bv.shape(),
            &[1, n],
            "add_bias: bias must be [1,{n}], got {:?}",
            bv.shape()
        );
        let mut out = xv.clone();
        for i in 0..m {
            for j in 0..n {
                let v = out.at(i, j) + bv.at(0, j);
                out.set(i, j, v);
            }
        }
        self.push(Op::AddBias(x, bias), out)
    }

    /// Sum of all elements (scalar `[1, 1]`).
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum());
        self.push(Op::Sum(a), v)
    }

    /// Row-wise softmax of a 2-D tensor.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).softmax_rows();
        self.push(Op::SoftmaxRows(a), v)
    }

    /// Mean cross-entropy between row logits and integer class targets.
    ///
    /// Returns a scalar; the backward pass produces the classic
    /// `(softmax − onehot)/batch` gradient.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the batch size or a target
    /// is out of class range.
    pub fn cross_entropy_logits(&mut self, logits: Var, targets: &[usize]) -> Var {
        let lv = self.value(logits);
        let (m, n) = (lv.rows(), lv.cols());
        assert_eq!(
            targets.len(),
            m,
            "cross_entropy_logits: {} targets for batch {m}",
            targets.len()
        );
        let probs = lv.softmax_rows();
        let mut loss = 0.0;
        for (i, &t) in targets.iter().enumerate() {
            assert!(t < n, "cross_entropy_logits: target {t} out of range {n}");
            loss -= probs.at(i, t).max(1e-30).ln();
        }
        let v = Tensor::scalar(loss / m as f32);
        self.push(
            Op::CrossEntropyLogits {
                logits,
                targets: targets.to_vec(),
            },
            v,
        )
    }

    /// Mean squared error between two same-shape tensors (scalar).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mse(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a);
        let bv = self.value(b);
        let diff = av.sub(bv);
        let v = Tensor::scalar(diff.norm_sq() / diff.len() as f32);
        self.push(Op::Mse(a, b), v)
    }

    /// Concatenates 2-D tensors with equal row counts along columns.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: no inputs");
        let m = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        let mut out = Tensor::zeros(&[m, total]);
        let mut col = 0;
        for &p in parts {
            let pv = self.value(p);
            assert_eq!(
                pv.rows(),
                m,
                "concat_cols: row mismatch {} vs {m}",
                pv.rows()
            );
            for i in 0..m {
                for j in 0..pv.cols() {
                    out.set(i, col + j, pv.at(i, j));
                }
            }
            col += pv.cols();
        }
        self.push(Op::ConcatCols(parts.to_vec()), out)
    }

    /// Extracts columns `[start, end)` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid.
    pub fn slice_cols(&mut self, input: Var, start: usize, end: usize) -> Var {
        let iv = self.value(input);
        let (m, n) = (iv.rows(), iv.cols());
        assert!(
            start <= end && end <= n,
            "slice_cols: invalid range {start}..{end} of {n}"
        );
        let mut out = Tensor::zeros(&[m, end - start]);
        for i in 0..m {
            for j in start..end {
                out.set(i, j - start, iv.at(i, j));
            }
        }
        self.push(Op::SliceCols { input, start, end }, out)
    }

    /// Dot product of two same-length tensors (scalar).
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn dot(&mut self, a: Var, b: Var) -> Var {
        let v = Tensor::scalar(self.value(a).dot(self.value(b)));
        self.push(Op::Dot(a, b), v)
    }

    /// Multiplies a tensor by a scalar-valued variable (`[1, 1]`).
    ///
    /// Used to mix candidate-op outputs by their architecture weights.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a `[1, 1]` scalar.
    pub fn mul_scalar_var(&mut self, x: Var, s: Var) -> Var {
        let sv = self.value(s);
        assert_eq!(sv.len(), 1, "mul_scalar_var: scale must be a scalar");
        let v = self.value(x).scale(sv.item());
        self.push(Op::MulScalarVar { x, s }, v)
    }

    /// Differentiable linear interpolation between adjacent rows of a
    /// constant lookup table.
    ///
    /// `coord` is a scalar continuous row index; with `c` clamped to
    /// `[0, R−1]`, cell `i = min(⌊c⌋, R−2)` and fraction `f = c − i`,
    /// the output row is `(1−f)·T[i] + f·T[i+1]` and the gradient with
    /// respect to `coord` is the cell slope `T[i+1] − T[i]` (kept as a
    /// straight-through subgradient at the clamp boundaries, so an
    /// out-of-range coordinate is still pulled back toward the table).
    ///
    /// This is the literal Auto-NBA cost mechanism DESIGN.md names:
    /// gradients of a hardware metric flow through a piecewise-linear
    /// interpolation over pre-materialized table rows (e.g. the rows of
    /// `hdx_accel::LayerLut`) instead of through a learned estimator.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is not scalar or `table` has fewer than 2 rows.
    pub fn lut_row_interp(&mut self, coord: Var, table: &Tensor) -> Var {
        assert_eq!(
            self.value(coord).len(),
            1,
            "lut_row_interp: coord must be a scalar"
        );
        assert!(
            table.rows() >= 2,
            "lut_row_interp: table needs >= 2 rows, got {}",
            table.rows()
        );
        let (cell, frac) = lut_cell(self.value(coord).item(), table.rows());
        let n = table.cols();
        let mut out = Tensor::zeros(&[1, n]);
        for j in 0..n {
            let lo = table.at(cell, j);
            let hi = table.at(cell + 1, j);
            out.set(0, j, (1.0 - frac) * lo + frac * hi);
        }
        self.push(
            Op::LutRowInterp {
                coord,
                table: table.clone(),
            },
            out,
        )
    }

    /// Names of every differentiable [`Op`] variant, for the gradcheck
    /// coverage test.
    ///
    /// The enforcement this provides: `name_of` is an **exhaustive**
    /// match, so adding an `Op` variant fails to compile here until the
    /// variant is named, and once the matching entry is added to the
    /// `samples` array three lines below, the new name makes
    /// `registry_covers_the_tape_surface` in [`crate::gradcheck`] fail
    /// until a finite-difference case for the op is registered. The
    /// `samples` array is the one sync point the compiler cannot check
    /// — it lives directly under the match on purpose; extend both
    /// together.
    #[cfg(test)]
    pub(crate) fn differentiable_op_names() -> Vec<&'static str> {
        fn name_of(op: &Op) -> Option<&'static str> {
            Some(match op {
                Op::Leaf => return None,
                Op::Add(..) => "add",
                Op::Div(..) => "div",
                Op::Scale(..) => "scale",
                Op::AddScalar(..) => "add_scalar",
                Op::Relu(..) => "relu",
                Op::Sigmoid(..) => "sigmoid",
                Op::Exp(..) => "exp",
                Op::ClampMin(..) => "clamp_min",
                Op::MatMul(..) => "matmul",
                Op::AddBias(..) => "add_bias",
                Op::Sum(..) => "sum",
                Op::SoftmaxRows(..) => "softmax_rows",
                Op::CrossEntropyLogits { .. } => "cross_entropy_logits",
                Op::Mse(..) => "mse",
                Op::ConcatCols(..) => "concat_cols",
                Op::SliceCols { .. } => "slice_cols",
                Op::Dot(..) => "dot",
                Op::MulScalarVar { .. } => "mul_scalar_var",
                Op::LutRowInterp { .. } => "lut_row_interp",
            })
        }
        let v = Var(0);
        let samples = [
            Op::Leaf,
            Op::Add(v, v),
            Op::Div(v, v),
            Op::Scale(v, 1.0),
            Op::AddScalar(v, 0.0),
            Op::Relu(v),
            Op::Sigmoid(v),
            Op::Exp(v),
            Op::ClampMin(v, 0.0),
            Op::MatMul(v, v),
            Op::AddBias(v, v),
            Op::Sum(v),
            Op::SoftmaxRows(v),
            Op::CrossEntropyLogits {
                logits: v,
                targets: Vec::new(),
            },
            Op::Mse(v, v),
            Op::ConcatCols(Vec::new()),
            Op::SliceCols {
                input: v,
                start: 0,
                end: 0,
            },
            Op::Dot(v, v),
            Op::MulScalarVar { x: v, s: v },
            Op::LutRowInterp {
                coord: v,
                table: Tensor::default(),
            },
        ];
        let names: Vec<&'static str> = samples.iter().filter_map(name_of).collect();
        let unique: std::collections::BTreeSet<_> = names.iter().copied().collect();
        assert_eq!(
            unique.len(),
            names.len(),
            "duplicate sample in differentiable_op_names"
        );
        names
    }

    /// Runs reverse-mode differentiation from the scalar `output`.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not a `[1, 1]` scalar node of this tape.
    pub fn backward(&self, output: Var) -> Gradients {
        assert_eq!(
            self.value(output).len(),
            1,
            "backward: output must be scalar, got shape {:?}",
            self.value(output).shape()
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[output.0] = Some(Tensor::scalar(1.0));

        for idx in (0..self.nodes.len()).rev() {
            let Some(g) = grads[idx].take() else { continue };
            self.accumulate_parents(idx, &g, &mut grads);
            grads[idx] = Some(g);
        }
        Gradients { grads }
    }

    fn accumulate_parents(&self, idx: usize, g: &Tensor, grads: &mut [Option<Tensor>]) {
        let node = &self.nodes[idx];
        let mut acc = |var: Var, contrib: Tensor| match &mut grads[var.0] {
            Some(existing) => existing.add_scaled_assign(&contrib, 1.0),
            slot @ None => *slot = Some(contrib),
        };
        match &node.op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                acc(*a, g.clone());
                acc(*b, g.clone());
            }
            Op::Div(a, b) => {
                let bv = self.value(*b);
                acc(*a, g.zip(bv, |gi, bi| gi / bi));
                let av = self.value(*a);
                let gb = g
                    .zip(av, |gi, ai| gi * ai)
                    .zip(bv, |num, bi| -num / (bi * bi));
                acc(*b, gb);
            }
            Op::Scale(a, c) => acc(*a, g.scale(*c)),
            Op::AddScalar(a, _) => acc(*a, g.clone()),
            Op::Relu(a) => {
                let av = self.value(*a);
                acc(*a, g.zip(av, |gi, ai| if ai > 0.0 { gi } else { 0.0 }));
            }
            Op::Sigmoid(a) => {
                let y = &node.value;
                acc(*a, g.zip(y, |gi, yi| gi * yi * (1.0 - yi)));
            }
            Op::Exp(a) => {
                let y = &node.value;
                acc(*a, g.mul(y));
            }
            Op::ClampMin(a, c) => {
                let av = self.value(*a);
                let c = *c;
                acc(*a, g.zip(av, move |gi, ai| if ai > c { gi } else { 0.0 }));
            }
            Op::MatMul(a, b) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                acc(*a, g.matmul(&bv.transpose()));
                acc(*b, av.transpose().matmul(g));
            }
            Op::AddBias(x, bias) => {
                acc(*x, g.clone());
                let (m, n) = (g.rows(), g.cols());
                let mut gb = Tensor::zeros(&[1, n]);
                for i in 0..m {
                    for j in 0..n {
                        let v = gb.at(0, j) + g.at(i, j);
                        gb.set(0, j, v);
                    }
                }
                acc(*bias, gb);
            }
            Op::Sum(a) => {
                let shape = self.value(*a).shape().to_vec();
                acc(*a, Tensor::full(&shape, g.item()));
            }
            Op::SoftmaxRows(a) => {
                // dL/dx_row = s ⊙ (g − (g·s)) per row
                let s = &node.value;
                let (m, n) = (s.rows(), s.cols());
                let mut ga = Tensor::zeros(&[m, n]);
                for i in 0..m {
                    let mut dot = 0.0;
                    for j in 0..n {
                        dot += g.at(i, j) * s.at(i, j);
                    }
                    for j in 0..n {
                        ga.set(i, j, s.at(i, j) * (g.at(i, j) - dot));
                    }
                }
                acc(*a, ga);
            }
            Op::CrossEntropyLogits { logits, targets } => {
                let lv = self.value(*logits);
                let probs = lv.softmax_rows();
                let (m, n) = (probs.rows(), probs.cols());
                let gscale = g.item() / m as f32;
                let mut gl = Tensor::zeros(&[m, n]);
                for (i, &t) in targets.iter().enumerate() {
                    for j in 0..n {
                        let onehot = if j == t { 1.0 } else { 0.0 };
                        gl.set(i, j, gscale * (probs.at(i, j) - onehot));
                    }
                }
                acc(*logits, gl);
            }
            Op::Mse(a, b) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                let scale = 2.0 * g.item() / av.len() as f32;
                let d = av.sub(bv).scale(scale);
                acc(*a, d.clone());
                acc(*b, d.scale(-1.0));
            }
            Op::ConcatCols(parts) => {
                let mut col = 0;
                for &p in parts {
                    let pv = self.value(p);
                    let (m, w) = (pv.rows(), pv.cols());
                    let mut gp = Tensor::zeros(&[m, w]);
                    for i in 0..m {
                        for j in 0..w {
                            gp.set(i, j, g.at(i, col + j));
                        }
                    }
                    acc(p, gp);
                    col += w;
                }
            }
            Op::SliceCols { input, start, end } => {
                let iv = self.value(*input);
                let (m, n) = (iv.rows(), iv.cols());
                let mut gi = Tensor::zeros(&[m, n]);
                for i in 0..m {
                    for j in *start..*end {
                        gi.set(i, j, g.at(i, j - start));
                    }
                }
                acc(*input, gi);
            }
            Op::Dot(a, b) => {
                let gi = g.item();
                acc(*a, self.value(*b).scale(gi));
                acc(*b, self.value(*a).scale(gi));
            }
            Op::MulScalarVar { x, s } => {
                let sv = self.value(*s).item();
                acc(*x, g.scale(sv));
                acc(*s, Tensor::scalar(g.dot(self.value(*x))));
            }
            Op::LutRowInterp { coord, table } => {
                let (cell, _) = lut_cell(self.value(*coord).item(), table.rows());
                let mut slope = 0.0;
                for j in 0..table.cols() {
                    slope += g.data()[j] * (table.at(cell + 1, j) - table.at(cell, j));
                }
                acc(*coord, Tensor::scalar(slope));
            }
        }
    }
}

/// Shared cell selection for [`Tape::lut_row_interp`]: clamps the
/// coordinate to `[0, rows−1]` and returns `(cell, fraction)` with
/// `cell ≤ rows − 2`.
pub(crate) fn lut_cell(coord: f32, rows: usize) -> (usize, f32) {
    let x = coord.clamp(0.0, (rows - 1) as f32);
    let cell = (x.floor() as usize).min(rows - 2);
    (cell, x - cell as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_backward() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::row(&[1.0, 2.0]));
        let b = tape.leaf(Tensor::row(&[3.0, 4.0]));
        let c = tape.add(a, b);
        let loss = tape.sum(c);
        let g = tape.backward(loss);
        assert_eq!(g.wrt(a).unwrap().data(), &[1.0, 1.0]);
        assert_eq!(g.wrt(b).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn mul_backward() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::row(&[2.0, 3.0]));
        let b = tape.leaf(Tensor::row(&[5.0, 7.0]));
        let c = tape.dot(a, b); // sum(a ⊙ b)
        let loss = tape.sum(c);
        let g = tape.backward(loss);
        assert_eq!(g.wrt(a).unwrap().data(), &[5.0, 7.0]);
        assert_eq!(g.wrt(b).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn matmul_backward_shapes() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[2, 3]));
        let b = tape.leaf(Tensor::ones(&[3, 4]));
        let c = tape.matmul(a, b);
        let loss = tape.sum(c);
        let g = tape.backward(loss);
        assert_eq!(g.wrt(a).unwrap().shape(), &[2, 3]);
        assert_eq!(g.wrt(b).unwrap().shape(), &[3, 4]);
        // d(sum(A·B))/dA = 1·Bᵀ = rowsums of B = 4 for all-ones B
        assert!(g
            .wrt(a)
            .unwrap()
            .data()
            .iter()
            .all(|&x| (x - 4.0).abs() < 1e-6));
    }

    #[test]
    fn relu_gates_gradient() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::row(&[-1.0, 2.0]));
        let r = tape.relu(a);
        let loss = tape.sum(r);
        let g = tape.backward(loss);
        assert_eq!(g.wrt(a).unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn hinge_above_matches_constraint_loss() {
        // Const = max(t − T, 0): gradient is 1 when violated, 0 when satisfied.
        let mut tape = Tape::new();
        let t = tape.leaf(Tensor::row(&[50.0]));
        let c = tape.hinge_above(t, 33.3);
        let loss = tape.sum(c);
        assert!((tape.value(c).item() - 16.7).abs() < 1e-4);
        let g = tape.backward(loss);
        assert_eq!(g.wrt(t).unwrap().data(), &[1.0]);

        let mut tape2 = Tape::new();
        let t2 = tape2.leaf(Tensor::row(&[20.0]));
        let c2 = tape2.hinge_above(t2, 33.3);
        let loss2 = tape2.sum(c2);
        assert_eq!(tape2.value(c2).item(), 0.0);
        let g2 = tape2.backward(loss2);
        assert_eq!(g2.wrt(t2).unwrap().data(), &[0.0]);
    }

    #[test]
    fn cross_entropy_gradient_is_probs_minus_onehot() {
        let mut tape = Tape::new();
        let logits = tape.leaf(Tensor::from_vec(vec![0.0, 0.0, 0.0], &[1, 3]));
        let loss = tape.cross_entropy_logits(logits, &[1]);
        let g = tape.backward(loss);
        let gl = g.wrt(logits).unwrap();
        assert!((gl.at(0, 0) - 1.0 / 3.0).abs() < 1e-5);
        assert!((gl.at(0, 1) - (1.0 / 3.0 - 1.0)).abs() < 1e-5);
        assert!((gl.at(0, 2) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_rows_backward_is_zero_for_uniform_upstream() {
        // Softmax output sums to 1 per row, so a constant upstream gradient
        // (direction along the simplex normal) must map to zero.
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::row(&[0.3, -0.2, 1.0]));
        let s = tape.softmax_rows(a);
        let loss = tape.sum(s);
        let g = tape.backward(loss);
        for &x in g.wrt(a).unwrap().data() {
            assert!(x.abs() < 1e-6, "expected ~0 gradient, got {x}");
        }
    }

    #[test]
    fn concat_and_slice_roundtrip_gradient() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::row(&[1.0, 2.0]));
        let b = tape.leaf(Tensor::row(&[3.0]));
        let cat = tape.concat_cols(&[a, b]);
        let right = tape.slice_cols(cat, 2, 3); // selects b
        let loss = tape.sum(right);
        let g = tape.backward(loss);
        assert_eq!(g.wrt(a).unwrap().data(), &[0.0, 0.0]);
        assert_eq!(g.wrt(b).unwrap().data(), &[1.0]);
    }

    #[test]
    fn mul_scalar_var_backward() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::row(&[1.0, 2.0]));
        let s = tape.leaf(Tensor::scalar(3.0));
        let y = tape.mul_scalar_var(x, s);
        let loss = tape.sum(y);
        let g = tape.backward(loss);
        assert_eq!(g.wrt(x).unwrap().data(), &[3.0, 3.0]);
        assert_eq!(g.wrt(s).unwrap().item(), 3.0); // Σx
    }

    #[test]
    fn diamond_graph_accumulates() {
        // loss = sum(x) + sum(x²) ⇒ dloss/dx = 1 + 2x
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::row(&[1.0, -2.0]));
        let sq = tape.dot(x, x); // sum(x²), reading x twice
        let s1 = tape.sum(x);
        let s2 = tape.sum(sq);
        let loss = tape.add(s1, s2);
        let g = tape.backward(loss);
        assert_eq!(g.wrt(x).unwrap().data(), &[3.0, -3.0]);
    }

    #[test]
    fn unused_leaf_has_no_gradient() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::row(&[1.0]));
        let y = tape.leaf(Tensor::row(&[2.0]));
        let loss = tape.sum(x);
        let g = tape.backward(loss);
        assert!(g.wrt(y).is_none());
        assert_eq!(g.wrt_or_zeros(y, &[1, 1]).data(), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "output must be scalar")]
    fn backward_rejects_non_scalar() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::row(&[1.0, 2.0]));
        let _ = tape.backward(x);
    }

    #[test]
    fn clear_resets_tape() {
        let mut tape = Tape::new();
        let _ = tape.leaf(Tensor::scalar(1.0));
        assert_eq!(tape.len(), 1);
        tape.clear();
        assert!(tape.is_empty());
    }

    #[test]
    fn clear_retains_node_capacity_and_recycles_buffers() {
        let mut tape = Tape::with_capacity(8);
        assert!(tape.capacity() >= 8);
        for _ in 0..4 {
            let _ = tape.leaf_from_slice(&[1.0, 2.0, 3.0], &[1, 3]);
        }
        let cap = tape.capacity();
        tape.clear();
        assert!(tape.is_empty());
        assert_eq!(tape.capacity(), cap, "clear must keep op storage");
        // Re-recording the same shape draws from the pool and produces
        // identical values.
        let v = tape.leaf_from_slice(&[4.0, 5.0, 6.0], &[1, 3]);
        assert_eq!(tape.value(v).data(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn lut_row_interp_interpolates_and_differentiates() {
        // Table rows: [0, 10], [1, 20], [2, 40] — coord 1.25 blends rows
        // 1 and 2 at 75/25.
        let table = Tensor::from_vec(vec![0.0, 10.0, 1.0, 20.0, 2.0, 40.0], &[3, 2]);
        let mut tape = Tape::new();
        let c = tape.leaf(Tensor::scalar(1.25));
        let row = tape.lut_row_interp(c, &table);
        assert_eq!(tape.value(row).shape(), &[1, 2]);
        assert!((tape.value(row).at(0, 0) - 1.25).abs() < 1e-6);
        assert!((tape.value(row).at(0, 1) - 25.0).abs() < 1e-5);
        let loss = tape.sum(row);
        let g = tape.backward(loss);
        // Cell slope: (2−1) + (40−20) = 21.
        assert!((g.wrt(c).unwrap().item() - 21.0).abs() < 1e-5);
    }

    #[test]
    fn lut_row_interp_clamps_out_of_range_coords() {
        let table = Tensor::from_vec(vec![1.0, 2.0, 4.0], &[3, 1]);
        let mut tape = Tape::new();
        let lo = tape.leaf(Tensor::scalar(-3.0));
        let hi = tape.leaf(Tensor::scalar(9.0));
        let row_lo = tape.lut_row_interp(lo, &table);
        let row_hi = tape.lut_row_interp(hi, &table);
        assert_eq!(tape.value(row_lo).item(), 1.0);
        assert_eq!(tape.value(row_hi).item(), 4.0);
        // Straight-through subgradient at the clamp: the boundary cell's
        // slope, pulling the coordinate back toward the table.
        let loss = tape.sum(row_hi);
        let g = tape.backward(loss);
        assert_eq!(g.wrt(hi).unwrap().item(), 2.0); // 4 − 2
    }

    #[test]
    fn mse_backward() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::row(&[1.0, 2.0]));
        let b = tape.leaf(Tensor::row(&[0.0, 0.0]));
        let loss = tape.mse(a, b);
        assert!((tape.value(loss).item() - 2.5).abs() < 1e-6);
        let g = tape.backward(loss);
        assert_eq!(g.wrt(a).unwrap().data(), &[1.0, 2.0]); // 2(a-b)/n
        assert_eq!(g.wrt(b).unwrap().data(), &[-1.0, -2.0]);
    }
}
