//! Pair sampling for estimator pre-training.
//!
//! The paper samples 10.8 M (network, accelerator) pairs and labels
//! them with Timeloop/Accelergy; we sample a configurable number
//! (scaled to CPU budget) and label them with the analytical model.
//! Because the estimator is queried with *relaxed* architecture
//! encodings during search, half of the sampled architectures are soft
//! distributions; their ground truth is the exact per-layer expectation
//! of the metrics (latency/energy are additive across layers, and each
//! layer's cost depends only on its own operator).

use crate::encode::{joint_dim, TargetStats};
use hdx_accel::{evaluate_layer, evaluate_network, AccelConfig, HwMetrics, SearchSpace};
use hdx_nas::ops::OP_SET;
use hdx_nas::NetworkPlan;
use hdx_tensor::Rng;

/// Exact hardware metrics of a relaxed architecture: the per-layer
/// expectation of each metric under the per-layer op distribution,
/// plus the plan's fixed layers. Area is configuration-only.
///
/// # Panics
///
/// Panics if `probs.len() != 6 × plan.num_layers()`.
pub fn expected_metrics(plan: &NetworkPlan, probs: &[f32], cfg: &AccelConfig) -> HwMetrics {
    let k = OP_SET.len();
    assert_eq!(
        probs.len(),
        plan.num_layers() * k,
        "expected_metrics: got {} probabilities for {} layers",
        probs.len(),
        plan.num_layers()
    );
    let mut total = evaluate_network(plan.fixed_front(), cfg);
    let head = evaluate_network(plan.fixed_head(), cfg);
    total.accumulate(&head);
    for l in 0..plan.num_layers() {
        for o in 0..k {
            let p = probs[l * k + o] as f64;
            if p <= 0.0 {
                continue;
            }
            let block = plan.block_at(l, o);
            for sub in block.sublayers() {
                let m = evaluate_layer(&sub, cfg);
                total.latency_ms += p * m.latency_ms;
                total.energy_mj += p * m.energy_mj;
            }
        }
    }
    total
}

/// A labelled pre-training set of (joint encoding, metric) pairs.
#[derive(Debug, Clone)]
pub struct PairSet {
    dim: usize,
    inputs: Vec<f32>,
    targets_raw: Vec<[f64; 3]>,
    stats: TargetStats,
}

impl PairSet {
    /// Samples `n` pairs from the joint space of `plan` × the paper's
    /// accelerator space. Half the architectures are one-hot, half are
    /// soft per-layer distributions (temperature-varied), matching the
    /// estimator's query distribution during search.
    ///
    /// The expensive part — labelling each pair with the analytical
    /// accelerator model — fans out over `jobs` worker threads (`0` =
    /// auto, honoring `HDX_JOBS`; `1` = the sequential reference path).
    /// Each pair draws from its own child generator, derived by `n`
    /// sequential [`Rng::split`] calls on the caller's stream *before*
    /// any parallel work starts. Pair `i` is therefore a pure function
    /// of (plan, child seed `i`), and every worker count produces the
    /// bit-identical pair set.
    pub fn sample(plan: &NetworkPlan, n: usize, rng: &mut Rng, jobs: usize) -> Self {
        let dim = joint_dim(plan.num_layers());
        let k = OP_SET.len();
        let space = SearchSpace::paper();
        let streams: Vec<Rng> = (0..n).map(|_| rng.split()).collect();

        let rows = hdx_tensor::parallel_map(&streams, jobs, |i, stream| {
            let mut rng = stream.clone();
            // Architecture encoding.
            let mut probs = vec![0.0f32; plan.num_layers() * k];
            if i % 2 == 0 {
                for l in 0..plan.num_layers() {
                    probs[l * k + rng.below(k)] = 1.0;
                }
            } else {
                // Soft: softmax of random logits at a random temperature.
                let temp = rng.uniform_in(0.3, 2.0);
                for l in 0..plan.num_layers() {
                    let logits: Vec<f32> = (0..k).map(|_| rng.normal() / temp).collect();
                    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let exps: Vec<f32> = logits.iter().map(|x| (x - max).exp()).collect();
                    let sum: f32 = exps.iter().sum();
                    for (o, e) in exps.iter().enumerate() {
                        probs[l * k + o] = e / sum;
                    }
                }
            }
            let cfg = space.sample(&mut rng);
            let metrics = expected_metrics(plan, &probs, &cfg);
            (
                probs,
                cfg,
                [metrics.latency_ms, metrics.energy_mj, metrics.area_mm2],
            )
        });

        let mut inputs = Vec::with_capacity(n * dim);
        let mut targets_raw = Vec::with_capacity(n);
        for (probs, cfg, target) in rows {
            inputs.extend_from_slice(&probs);
            inputs.extend_from_slice(&cfg.encode());
            targets_raw.push(target);
        }
        let stats = TargetStats::from_targets(&targets_raw);
        Self {
            dim,
            inputs,
            targets_raw,
            stats,
        }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.targets_raw.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.targets_raw.is_empty()
    }

    /// Input feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Target normalization statistics of this set.
    pub fn stats(&self) -> &TargetStats {
        &self.stats
    }

    /// The raw (physical-unit) target triple of pair `i`.
    pub fn target_raw(&self, i: usize) -> [f64; 3] {
        self.targets_raw[i]
    }

    /// The input row of pair `i`.
    pub fn input_row(&self, i: usize) -> &[f32] {
        &self.inputs[i * self.dim..(i + 1) * self.dim]
    }

    /// Writes the batch input rows for `indices` into `x` (a
    /// `[len, dim]` buffer), allocation-free. Used by the compiled
    /// replay path to fill a [`hdx_tensor::Session`] leaf in place.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong length.
    pub fn fill_inputs(&self, indices: &[usize], x: &mut [f32]) {
        assert_eq!(x.len(), indices.len() * self.dim, "fill_inputs: bad length");
        for (row, &i) in indices.iter().enumerate() {
            x[row * self.dim..(row + 1) * self.dim].copy_from_slice(self.input_row(i));
        }
    }

    /// Writes the z-scored batch targets for `indices` into `t` (a
    /// `[len, 3]` buffer), allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `t` has the wrong length.
    pub fn fill_targets(&self, indices: &[usize], t: &mut [f32]) {
        assert_eq!(t.len(), indices.len() * 3, "fill_targets: bad length");
        for (row, &i) in indices.iter().enumerate() {
            t[row * 3..(row + 1) * 3].copy_from_slice(&self.stats.normalize(&self.targets_raw[i]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_accel::Dataflow;
    use hdx_nas::Architecture;

    #[test]
    fn expected_metrics_match_discrete_at_vertices() {
        let plan = NetworkPlan::cifar18();
        let arch = Architecture::uniform(18, 3);
        let one_hot = arch.one_hot();
        let cfg = AccelConfig::new(16, 16, 64, Dataflow::RowStationary).unwrap();
        let expected = expected_metrics(&plan, &one_hot, &cfg);
        let direct = evaluate_network(&plan.layers_for(&arch), &cfg);
        assert!((expected.latency_ms - direct.latency_ms).abs() < 1e-6);
        assert!((expected.energy_mj - direct.energy_mj).abs() < 1e-6);
        assert!((expected.area_mm2 - direct.area_mm2).abs() < 1e-9);
    }

    #[test]
    fn expected_metrics_interpolate_between_ops() {
        let plan = NetworkPlan::cifar18();
        let cfg = AccelConfig::new(16, 16, 64, Dataflow::WeightStationary).unwrap();
        let small = expected_metrics(&plan, &Architecture::uniform(18, 0).one_hot(), &cfg);
        let large = expected_metrics(&plan, &Architecture::uniform(18, 5).one_hot(), &cfg);
        // A 50/50 mixture must land between the two vertices.
        let mut probs = vec![0.0f32; 18 * 6];
        for l in 0..18 {
            probs[l * 6] = 0.5;
            probs[l * 6 + 5] = 0.5;
        }
        let mix = expected_metrics(&plan, &probs, &cfg);
        assert!(mix.latency_ms > small.latency_ms && mix.latency_ms < large.latency_ms);
        assert!(mix.energy_mj > small.energy_mj && mix.energy_mj < large.energy_mj);
    }

    #[test]
    fn sampled_pairs_have_valid_shapes_and_targets() {
        let plan = NetworkPlan::cifar18();
        let mut rng = Rng::new(1);
        let pairs = PairSet::sample(&plan, 64, &mut rng, 0);
        assert_eq!(pairs.len(), 64);
        assert_eq!(pairs.dim(), joint_dim(18));
        for i in 0..pairs.len() {
            let t = pairs.target_raw(i);
            assert!(
                t.iter().all(|v| v.is_finite() && *v > 0.0),
                "bad target {t:?}"
            );
            // Architecture part: every layer row sums to ~1.
            let row = pairs.input_row(i);
            for l in 0..18 {
                let s: f32 = row[l * 6..(l + 1) * 6].iter().sum();
                assert!((s - 1.0).abs() < 1e-4, "pair {i} layer {l} sums to {s}");
            }
        }
    }
}
