//! The generator network `gen()` — maps the relaxed architecture
//! encoding to a continuous hardware configuration.
//!
//! Output layout matches [`hdx_accel::AccelConfig::encode`]:
//! `[rows, cols, log-RF] ∈ (0,1)³` via sigmoid, then a 3-way dataflow
//! softmax. The generator is randomly initialized and **jointly
//! trained** during co-exploration (its weights are the paper's `v`),
//! so it adapts to whatever constraint is active instead of being tied
//! to one cost function (§4.2).

use hdx_accel::AccelConfig;
use hdx_nas::ops::OP_SET;
use hdx_nas::NetworkPlan;
use hdx_tensor::{Binding, ParamStore, ResidualMlp, Rng, Tape, Tensor, Var};

/// The trainable hardware generator.
#[derive(Debug)]
pub struct Generator {
    input_dim: usize,
    params: ParamStore,
    mlp: ResidualMlp,
}

impl Generator {
    /// Allocates a generator for a network plan (input = `6·L`
    /// architecture probabilities; 5-layer residual MLP per the paper).
    pub fn new(plan: &NetworkPlan, rng: &mut Rng) -> Self {
        let input_dim = plan.num_layers() * OP_SET.len();
        let mut params = ParamStore::new();
        let mlp = ResidualMlp::new(&mut params, input_dim, 48, 6, 5, rng);
        Self {
            input_dim,
            params,
            mlp,
        }
    }

    /// Input dimensionality (`6·L`).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The generator weights `v` (read-only).
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Mutable access to the generator weights `v` (for its optimizer).
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.params
    }

    /// Binds the generator weights onto a tape.
    pub fn bind(&self, tape: &mut Tape) -> Binding {
        self.params.bind(tape)
    }

    /// Builds the continuous hardware configuration `[1, 6]` on the
    /// tape from an architecture encoding `[1, 6·L]`.
    pub fn forward(&self, tape: &mut Tape, binding: &Binding, arch_encoding: Var) -> Var {
        let raw = self.mlp.forward(tape, binding, arch_encoding);
        let dims_raw = tape.slice_cols(raw, 0, 3);
        let dims = tape.sigmoid(dims_raw);
        let df_raw = tape.slice_cols(raw, 3, 6);
        let df = tape.softmax_rows(df_raw);
        tape.concat_cols(&[dims, df])
    }

    /// Decodes a continuous `[1, 6]` output row to the nearest discrete
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != 6`.
    pub fn decode(features: &[f32]) -> AccelConfig {
        assert_eq!(
            features.len(),
            6,
            "decode: expected 6 features, got {}",
            features.len()
        );
        let arr: [f32; 6] = features.try_into().expect("length checked");
        AccelConfig::decode(&arr)
    }

    /// Convenience: the discrete configuration the generator currently
    /// proposes for an architecture encoding (no external tape needed).
    ///
    /// # Panics
    ///
    /// Panics if `arch_probs.len() != self.input_dim()`.
    pub fn propose(&self, arch_probs: &[f32]) -> AccelConfig {
        assert_eq!(
            arch_probs.len(),
            self.input_dim,
            "propose: encoding length mismatch"
        );
        let mut tape = Tape::new();
        let binding = self.bind(&mut tape);
        let enc = tape.leaf(Tensor::from_vec(arch_probs.to_vec(), &[1, self.input_dim]));
        let out = self.forward(&mut tape, &binding, enc);
        Self::decode(tape.value(out).data())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_accel::SearchSpace;
    use hdx_nas::Architecture;

    #[test]
    fn forward_output_is_valid_encoding() {
        let plan = NetworkPlan::cifar18();
        let mut rng = Rng::new(1);
        let generator = Generator::new(&plan, &mut rng);
        let mut tape = Tape::new();
        let binding = generator.bind(&mut tape);
        let enc_data = Architecture::uniform(18, 2).one_hot();
        let enc = tape.leaf(Tensor::from_vec(enc_data, &[1, 108]));
        let out = generator.forward(&mut tape, &binding, enc);
        let v = tape.value(out);
        assert_eq!(v.shape(), &[1, 6]);
        // Sigmoid dims in (0, 1).
        for i in 0..3 {
            assert!((0.0..1.0).contains(&v.at(0, i)), "dim {i} = {}", v.at(0, i));
        }
        // Dataflow softmax sums to 1.
        let df_sum: f32 = (3..6).map(|i| v.at(0, i)).sum();
        assert!((df_sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn propose_returns_in_space_config() {
        let plan = NetworkPlan::cifar18();
        let mut rng = Rng::new(2);
        let generator = Generator::new(&plan, &mut rng);
        let space = SearchSpace::paper();
        for op in 0..6 {
            let cfg = generator.propose(&Architecture::uniform(18, op).one_hot());
            assert!(
                space.enumerate().contains(&cfg),
                "proposed {cfg} not in space"
            );
        }
    }

    #[test]
    fn generator_receives_gradients() {
        let plan = NetworkPlan::cifar18();
        let mut rng = Rng::new(3);
        let generator = Generator::new(&plan, &mut rng);
        let mut tape = Tape::new();
        let binding = generator.bind(&mut tape);
        let enc = tape.leaf(Tensor::from_vec(
            Architecture::uniform(18, 0).one_hot(),
            &[1, 108],
        ));
        let out = generator.forward(&mut tape, &binding, enc);
        let loss = tape.sum(out);
        let grads = tape.backward(loss);
        let collected = binding.gradients(&grads);
        assert!(collected.iter().flatten().any(|g| g.norm() > 0.0));
    }

    #[test]
    #[should_panic(expected = "expected 6 features")]
    fn decode_rejects_bad_length() {
        let _ = Generator::decode(&[0.5; 4]);
    }
}
