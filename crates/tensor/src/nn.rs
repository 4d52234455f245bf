//! Neural-network building blocks over the [`Tape`].
//!
//! Parameters live in a [`ParamStore`] that owns the persistent weight
//! tensors across training steps. At the start of each step the store is
//! [bound](ParamStore::bind) onto a fresh tape, producing a [`Binding`]
//! of leaf [`Var`]s; modules reference their parameters by [`ParamId`]
//! and look up the bound `Var` when building the forward graph. After
//! `backward`, [`Binding::gradients`] collects per-parameter gradients
//! aligned with the store for the optimizers in [`crate::optim`].

use crate::rng::Rng;
use crate::tape::{Gradients, Tape, Var};
use crate::tensor::Tensor;

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

impl ParamId {
    /// The raw index inside the owning store.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Owns the persistent parameter tensors of a model.
///
/// # Example
///
/// ```
/// use hdx_tensor::{ParamStore, Rng, Tape, Tensor};
///
/// let mut rng = Rng::new(0);
/// let mut params = ParamStore::new();
/// let w = params.alloc(Tensor::randn(&[4, 2], 0.1, &mut rng));
/// let mut tape = Tape::new();
/// let binding = params.bind(&mut tape);
/// let x = tape.leaf(Tensor::ones(&[1, 4]));
/// let y = tape.matmul(x, binding.var(w));
/// assert_eq!(tape.value(y).shape(), &[1, 2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    tensors: Vec<Tensor>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self {
            tensors: Vec::new(),
        }
    }

    /// Registers a parameter tensor and returns its id.
    pub fn alloc(&mut self, init: Tensor) -> ParamId {
        self.tensors.push(init);
        ParamId(self.tensors.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    /// The current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutable access to a parameter (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// Overwrites a parameter value.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn set(&mut self, id: ParamId, value: Tensor) {
        assert_eq!(
            self.tensors[id.0].shape(),
            value.shape(),
            "set: shape mismatch for parameter {id:?}"
        );
        self.tensors[id.0] = value;
    }

    /// Iterates over `(id, tensor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.tensors
            .iter()
            .enumerate()
            .map(|(i, t)| (ParamId(i), t))
    }

    /// The [`ParamId`] for the parameter at allocation index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn id(&self, index: usize) -> ParamId {
        assert!(index < self.tensors.len(), "id: index {index} out of range");
        ParamId(index)
    }

    /// Binds every parameter as a leaf on `tape`, returning the [`Binding`].
    ///
    /// Leaf storage is drawn from the tape's recycled buffer pool, so a
    /// [cleared](Tape::clear) tape re-binds without reallocating.
    pub fn bind(&self, tape: &mut Tape) -> Binding {
        let vars = self
            .tensors
            .iter()
            .map(|t| Some(tape.leaf_from_slice(t.data(), t.shape())))
            .collect();
        Binding { vars }
    }

    /// Binds only the parameters `ids` as leaves on `tape`, in the
    /// order given. Graphs that read a slice of a large model (one
    /// layer's blocks, one head) stay that small; looking up any other
    /// parameter in the returned [`Binding`] panics.
    pub fn bind_only(&self, tape: &mut Tape, ids: &[ParamId]) -> Binding {
        let mut vars = vec![None; self.tensors.len()];
        for &id in ids {
            let t = &self.tensors[id.0];
            vars[id.0] = Some(tape.leaf_from_slice(t.data(), t.shape()));
        }
        Binding { vars }
    }
}

/// The tape [`Var`]s of a [`ParamStore`] bound for one forward/backward pass.
#[derive(Debug, Clone)]
pub struct Binding {
    vars: Vec<Option<Var>>,
}

impl Binding {
    /// Builds a binding from explicit tape variables, in parameter
    /// allocation order. Mainly useful for testing and for wiring
    /// parameters that were placed on the tape manually.
    pub fn from_vars(vars: Vec<Var>) -> Self {
        Self {
            vars: vars.into_iter().map(Some).collect(),
        }
    }

    /// The tape variable bound for parameter `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the bound store, or was left
    /// out of a [`ParamStore::bind_only`] binding.
    pub fn var(&self, id: ParamId) -> Var {
        self.vars[id.0].unwrap_or_else(|| panic!("var: parameter {} is not bound", id.0))
    }

    /// Collects per-parameter gradients aligned with the originating store.
    ///
    /// Parameters the loss does not depend on (or that were not bound)
    /// get `None`.
    pub fn gradients(&self, grads: &Gradients) -> Vec<Option<Tensor>> {
        self.vars
            .iter()
            .map(|v| v.and_then(|v| grads.wrt(v).cloned()))
            .collect()
    }

    /// Global L2 norm over a gradient collection (missing entries count 0).
    pub fn grad_norm(grads: &[Option<Tensor>]) -> f32 {
        grads
            .iter()
            .flatten()
            .map(Tensor::norm_sq)
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(grads: &mut [Option<Tensor>], max_norm: f32) {
        let norm = Self::grad_norm(grads);
        if norm > max_norm && norm > 0.0 {
            let factor = max_norm / norm;
            for g in grads.iter_mut().flatten() {
                for v in g.data_mut() {
                    *v *= factor;
                }
            }
        }
    }
}

/// Kaiming-He normal initialization for a `[fan_in, fan_out]` weight.
pub fn kaiming(fan_in: usize, fan_out: usize, rng: &mut Rng) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    Tensor::randn(&[fan_in, fan_out], std, rng)
}

/// A fully-connected layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Allocates a linear layer in `params` with Kaiming init.
    pub fn new(
        params: &mut ParamStore,
        in_features: usize,
        out_features: usize,
        rng: &mut Rng,
    ) -> Self {
        let weight = params.alloc(kaiming(in_features, out_features, rng));
        let bias = params.alloc(Tensor::zeros(&[1, out_features]));
        Self {
            weight,
            bias,
            in_features,
            out_features,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Parameter ids `(weight, bias)`.
    pub fn param_ids(&self) -> (ParamId, ParamId) {
        (self.weight, self.bias)
    }

    /// Builds `x·W + b` on the tape.
    pub fn forward(&self, tape: &mut Tape, binding: &Binding, x: Var) -> Var {
        let xw = tape.matmul(x, binding.var(self.weight));
        tape.add_bias(xw, binding.var(self.bias))
    }
}

/// The paper's evaluator-network backbone: an N-layer MLP with residual
/// connections between equal-width hidden layers (DANCE/HDX use N = 5).
///
/// Layout: `in → hidden` (ReLU), then `depth − 2` hidden→hidden ReLU
/// layers each with a residual skip, then `hidden → out` (linear).
#[derive(Debug, Clone)]
pub struct ResidualMlp {
    input: Linear,
    hidden: Vec<Linear>,
    output: Linear,
}

impl ResidualMlp {
    /// Allocates the MLP in `params`.
    ///
    /// # Panics
    ///
    /// Panics if `depth < 2`.
    pub fn new(
        params: &mut ParamStore,
        in_features: usize,
        hidden_features: usize,
        out_features: usize,
        depth: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(depth >= 2, "ResidualMlp requires depth >= 2, got {depth}");
        let input = Linear::new(params, in_features, hidden_features, rng);
        let hidden = (0..depth - 2)
            .map(|_| Linear::new(params, hidden_features, hidden_features, rng))
            .collect();
        let output = Linear::new(params, hidden_features, out_features, rng);
        Self {
            input,
            hidden,
            output,
        }
    }

    /// Number of layers (input + hidden + output).
    pub fn depth(&self) -> usize {
        self.hidden.len() + 2
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.output.out_features()
    }

    /// Builds the forward graph on the tape.
    pub fn forward(&self, tape: &mut Tape, binding: &Binding, x: Var) -> Var {
        let mut h = self.input.forward(tape, binding, x);
        h = tape.relu(h);
        for layer in &self.hidden {
            let pre = layer.forward(tape, binding, h);
            let act = tape.relu(pre);
            h = tape.add(act, h); // residual skip
        }
        self.output.forward(tape, binding, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_roundtrip() {
        let mut params = ParamStore::new();
        let id = params.alloc(Tensor::row(&[1.0, 2.0]));
        assert_eq!(params.get(id).data(), &[1.0, 2.0]);
        params.set(id, Tensor::row(&[3.0, 4.0]));
        assert_eq!(params.get(id).data(), &[3.0, 4.0]);
        assert_eq!(params.num_scalars(), 2);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn store_set_rejects_shape_change() {
        let mut params = ParamStore::new();
        let id = params.alloc(Tensor::row(&[1.0, 2.0]));
        params.set(id, Tensor::row(&[1.0]));
    }

    #[test]
    fn linear_forward_shapes_and_gradients() {
        let mut rng = Rng::new(1);
        let mut params = ParamStore::new();
        let layer = Linear::new(&mut params, 3, 2, &mut rng);
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::ones(&[4, 3]));
        let y = layer.forward(&mut tape, &binding, x);
        assert_eq!(tape.value(y).shape(), &[4, 2]);
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        let collected = binding.gradients(&grads);
        let (w, b) = layer.param_ids();
        assert_eq!(collected[w.index()].as_ref().unwrap().shape(), &[3, 2]);
        // bias gradient = batch size for sum loss
        assert!(collected[b.index()]
            .as_ref()
            .unwrap()
            .data()
            .iter()
            .all(|&g| (g - 4.0).abs() < 1e-6));
    }

    #[test]
    fn residual_mlp_has_five_layers() {
        let mut rng = Rng::new(2);
        let mut params = ParamStore::new();
        let mlp = ResidualMlp::new(&mut params, 10, 16, 3, 5, &mut rng);
        assert_eq!(mlp.depth(), 5);
        assert_eq!(params.len(), 10); // 5 layers × (W, b)
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::ones(&[2, 10]));
        let y = mlp.forward(&mut tape, &binding, x);
        assert_eq!(tape.value(y).shape(), &[2, 3]);
        assert!(tape.value(y).all_finite());
    }

    #[test]
    fn residual_mlp_all_params_receive_gradients() {
        let mut rng = Rng::new(3);
        let mut params = ParamStore::new();
        let mlp = ResidualMlp::new(&mut params, 4, 8, 1, 5, &mut rng);
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::randn(&[3, 4], 1.0, &mut rng));
        let y = mlp.forward(&mut tape, &binding, x);
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        let collected = binding.gradients(&grads);
        for (i, g) in collected.iter().enumerate() {
            assert!(g.is_some(), "parameter {i} missing gradient");
        }
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut grads = vec![Some(Tensor::row(&[3.0, 4.0])), None];
        Binding::clip_grad_norm(&mut grads, 1.0);
        let norm = Binding::grad_norm(&grads);
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients() {
        let mut grads = vec![Some(Tensor::row(&[0.3, 0.4]))];
        Binding::clip_grad_norm(&mut grads, 1.0);
        assert_eq!(grads[0].as_ref().unwrap().data(), &[0.3, 0.4]);
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let mut rng = Rng::new(4);
        let w = kaiming(200, 100, &mut rng);
        let var = w.data().iter().map(|x| x * x).sum::<f32>() / w.len() as f32;
        assert!((var - 2.0 / 200.0).abs() < 0.003, "kaiming variance {var}");
    }
}
