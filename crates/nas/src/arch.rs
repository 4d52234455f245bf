//! Discrete architectures and their encodings.

use crate::ops::{MbConvOp, OP_SET};
use hdx_tensor::Rng;

/// A discrete architecture: one operator index (into [`OP_SET`]) per
/// searchable layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Architecture {
    choices: Vec<usize>,
}

impl Architecture {
    /// Builds an architecture from explicit op indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for [`OP_SET`].
    pub fn new(choices: Vec<usize>) -> Self {
        assert!(
            choices.iter().all(|&c| c < OP_SET.len()),
            "Architecture: op index out of range in {choices:?}"
        );
        Self { choices }
    }

    /// An architecture using the same op at every layer.
    ///
    /// # Panics
    ///
    /// Panics if `op_index` is out of range.
    pub fn uniform(num_layers: usize, op_index: usize) -> Self {
        Self::new(vec![op_index; num_layers])
    }

    /// A uniformly random architecture.
    pub fn random(num_layers: usize, rng: &mut Rng) -> Self {
        Self {
            choices: (0..num_layers).map(|_| rng.below(OP_SET.len())).collect(),
        }
    }

    /// The per-layer op indices.
    pub fn choices(&self) -> &[usize] {
        &self.choices
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.choices.len()
    }

    /// The operator at `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn op(&self, layer: usize) -> MbConvOp {
        OP_SET[self.choices[layer]]
    }

    /// One-hot encoding, flattened layer-major: `num_layers × 6`
    /// entries. This is the discrete counterpart of the softmax(α)
    /// encoding the surrogates consume.
    pub fn one_hot(&self) -> Vec<f32> {
        let mut enc = vec![0.0; self.choices.len() * OP_SET.len()];
        for (l, &c) in self.choices.iter().enumerate() {
            enc[l * OP_SET.len() + c] = 1.0;
        }
        enc
    }

    /// Builds the architecture that arg-maxes a flattened `[L × 6]`
    /// distribution (e.g. softmax(α) from a supernet).
    ///
    /// # Panics
    ///
    /// Panics if `probs.len()` is not a multiple of 6 or is empty.
    pub fn from_distribution(probs: &[f32]) -> Self {
        let k = OP_SET.len();
        assert!(
            !probs.is_empty() && probs.len().is_multiple_of(k),
            "from_distribution: length {} is not a positive multiple of {k}",
            probs.len()
        );
        let choices = probs
            .chunks(k)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probabilities"))
                    .map(|(i, _)| i)
                    .expect("non-empty row")
            })
            .collect();
        Self { choices }
    }

    /// Compact display string, e.g. `(3,3)(3,6)(5,3)…`.
    pub fn summary(&self) -> String {
        self.choices
            .iter()
            .map(|&c| OP_SET[c].to_string())
            .collect()
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_roundtrip() {
        let arch = Architecture::new(vec![0, 3, 5, 2]);
        let enc = arch.one_hot();
        assert_eq!(enc.len(), 24);
        let back = Architecture::from_distribution(&enc);
        assert_eq!(back, arch);
    }

    #[test]
    fn from_distribution_picks_argmax() {
        let probs = vec![
            0.1, 0.5, 0.1, 0.1, 0.1, 0.1, 0.9, 0.02, 0.02, 0.02, 0.02, 0.02,
        ];
        let arch = Architecture::from_distribution(&probs);
        assert_eq!(arch.choices(), &[1, 0]);
    }

    #[test]
    fn random_is_valid() {
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            let arch = Architecture::random(18, &mut rng);
            assert_eq!(arch.num_layers(), 18);
            assert!(arch.choices().iter().all(|&c| c < 6));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_invalid_indices() {
        let _ = Architecture::new(vec![0, 6]);
    }

    #[test]
    fn summary_is_readable() {
        let arch = Architecture::new(vec![0, 5]);
        assert_eq!(arch.summary(), "(3,3)(7,6)");
    }
}
