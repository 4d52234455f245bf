//! One-stop preparation of a search environment (plan, task, estimator).
//!
//! Estimator pre-training is the expensive one-time step (the paper
//! pre-trains once per search space and freezes it, §4.4). [`pretrain`]
//! is the one pre-training sequence; it writes an estimator and never
//! builds a dataset. [`PreparedContext::from_artifacts`] is the one
//! constructor of a search context: it regenerates the plan and
//! dataset from `(task, seed)` around a trained estimator. Callers
//! prepare a [`PreparedContext`] once and run many searches against it.

use crate::engine::SearchContext;
use hdx_accel::CostWeights;
use hdx_nas::{Dataset, NetworkPlan, TaskSpec};
use hdx_surrogate::{Estimator, EstimatorConfig, PairSet};
use hdx_tensor::Rng;

/// Which benchmark task to prepare.
///
/// The first two are the paper's benchmarks; the rest are the workload
/// harness's families (`crates/workload`), varying mixture geometry,
/// dimensionality, class count, and the hardware cost target. Every
/// family expands deterministically from `(Task, seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// CIFAR-10-like task on the 18-layer plan.
    Cifar,
    /// ImageNet-like task on the 21-layer plan.
    ImageNet,
    /// Gaussian-mixture geometry family (12 classes × 3 clusters,
    /// 24-dim) on the 18-layer plan.
    Spheres,
    /// Higher-dimensional teacher family (40-dim inputs) on the
    /// 18-layer plan.
    HighDim,
    /// Many-class teacher family (32 classes) on the 21-layer plan,
    /// scored under datacenter cost weights.
    ManyClass,
    /// CIFAR-like data scored under edge (latency-dominated) cost
    /// weights — a hardware-target variant, not a new dataset.
    Edge,
}

impl Task {
    /// Every task family, in canonical (wire-code) order.
    pub const ALL: [Task; 6] = [
        Task::Cifar,
        Task::ImageNet,
        Task::Spheres,
        Task::HighDim,
        Task::ManyClass,
        Task::Edge,
    ];

    /// The network plan for this task (§4.4: 18 / 21 layers).
    pub fn plan(self) -> NetworkPlan {
        match self {
            Task::Cifar | Task::Spheres | Task::HighDim | Task::Edge => NetworkPlan::cifar18(),
            Task::ImageNet | Task::ManyClass => NetworkPlan::imagenet21(),
        }
    }

    /// The dataset spec for this task.
    pub fn spec(self, seed: u64) -> TaskSpec {
        match self {
            Task::Cifar => TaskSpec::cifar_like(seed),
            Task::ImageNet => TaskSpec::imagenet_like(seed),
            Task::Spheres => TaskSpec::spheres_like(seed),
            Task::HighDim => TaskSpec::highdim_like(seed),
            Task::ManyClass => TaskSpec::manyclass_like(seed),
            Task::Edge => TaskSpec::edge_like(seed),
        }
    }

    /// The hardware cost target this task is scored under. The paper
    /// tasks keep the paper's §5.3 weights; the harness's hardware
    /// variants re-weight the same normalized metrics.
    pub fn cost_weights(self) -> CostWeights {
        match self {
            Task::Edge => CostWeights::edge(),
            Task::ManyClass => CostWeights::datacenter(),
            _ => CostWeights::paper(),
        }
    }

    /// Stable wire/CLI label (also the `task=` value in both protocol
    /// framings).
    pub fn label(self) -> &'static str {
        match self {
            Task::Cifar => "cifar",
            Task::ImageNet => "imagenet",
            Task::Spheres => "spheres",
            Task::HighDim => "highdim",
            Task::ManyClass => "manyclass",
            Task::Edge => "edge",
        }
    }

    /// Inverse of [`Task::label`].
    pub fn parse_label(label: &str) -> Option<Task> {
        Task::ALL.into_iter().find(|t| t.label() == label)
    }

    /// Canonical index of this task in [`Task::ALL`] (the persisted
    /// bundle/registry code).
    pub fn index(self) -> usize {
        Task::ALL
            .into_iter()
            .position(|t| t == self)
            .expect("every task is in Task::ALL")
    }
}

/// Owned search environment: plan + dataset + pre-trained estimator.
#[derive(Debug)]
pub struct PreparedContext {
    plan: NetworkPlan,
    dataset: Dataset,
    estimator: Estimator,
    weights: CostWeights,
    /// Fraction of held-out pairs the estimator predicts within 10 %.
    pub estimator_accuracy: f64,
}

impl PreparedContext {
    /// Builds a warm context from already-trained artifacts (e.g. a
    /// checkpoint-loaded estimator), skipping pair sampling and
    /// estimator pre-training entirely. The plan and dataset are
    /// regenerated deterministically from `(task, seed)`, so a search
    /// against this context is **bit-identical** whichever process
    /// trained the estimator — the estimator is the only trained state
    /// a search reads. This is the one constructor of a search context,
    /// and the one place a context's dataset is generated.
    ///
    /// `estimator_accuracy` is carried through for reporting (pass the
    /// value recorded at training time, or `f64::NAN` when unknown).
    ///
    /// # Panics
    ///
    /// Panics if the estimator's input dimension does not match the
    /// task's plan — a mismatched artifact must not silently serve.
    pub fn from_artifacts(
        task: Task,
        seed: u64,
        estimator: Estimator,
        estimator_accuracy: f64,
    ) -> PreparedContext {
        let plan = task.plan();
        assert_eq!(
            estimator.input_dim(),
            plan.num_layers() * 6 + 6,
            "from_artifacts: estimator input dim does not match the {task:?} plan"
        );
        let dataset = Dataset::generate(&task.spec(seed));
        PreparedContext {
            plan,
            dataset,
            estimator,
            weights: task.cost_weights(),
            estimator_accuracy,
        }
    }

    /// Borrowed view for the engine.
    pub fn context(&self) -> SearchContext<'_> {
        SearchContext {
            plan: &self.plan,
            dataset: &self.dataset,
            estimator: &self.estimator,
            weights: self.weights,
        }
    }

    /// The network plan.
    pub fn plan(&self) -> &NetworkPlan {
        &self.plan
    }

    /// The dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The pre-trained estimator.
    pub fn estimator(&self) -> &Estimator {
        &self.estimator
    }
}

/// The one estimator pre-training sequence (§4.4): draws `pairs`
/// training pairs and 500 holdout pairs from `rng`, takes the estimator
/// from `init` (a fresh one draws its initial weights from `rng`, after
/// the pairs), trains it on the training pairs, and scores it on the
/// holdout. Returns the estimator and the fraction of holdout pairs it
/// predicts within 10 %. No dataset is built.
///
/// Pair labelling, the sharded gradient computation and the holdout
/// sweep fan out over `jobs` worker threads (`0` = auto) and are
/// bit-identical at every worker count.
pub fn pretrain(
    plan: &NetworkPlan,
    pairs: usize,
    jobs: usize,
    rng: &mut Rng,
    init: impl FnOnce(&mut Rng) -> Estimator,
) -> (Estimator, f64) {
    let train_pairs = PairSet::sample(plan, pairs, rng, jobs);
    let holdout = PairSet::sample(plan, 500, rng, jobs);
    let mut estimator = init(rng);
    estimator.train(&train_pairs, rng);
    let accuracy = estimator.within_tolerance(&holdout, 0.10);
    (estimator, accuracy)
}

/// Pre-trains a fresh estimator for `(task, seed)` on `pairs`
/// analytical-model-labelled pairs with the hyper-parameters (and
/// [`EstimatorConfig::jobs`] workers) of `est_cfg`: [`pretrain`] on the
/// task seed's own stream.
pub fn pretrain_estimator(
    task: Task,
    seed: u64,
    pairs: usize,
    est_cfg: EstimatorConfig,
) -> (Estimator, f64) {
    let plan = task.plan();
    let mut rng = Rng::new(seed ^ 0xE57A_u64.rotate_left(31));
    pretrain(&plan, pairs, est_cfg.jobs, &mut rng, |rng| {
        Estimator::new(&plan, est_cfg, rng)
    })
}

/// Builds the full environment for a task: [`pretrain_estimator`],
/// then [`PreparedContext::from_artifacts`] around the result.
pub fn prepare_context_with(
    task: Task,
    seed: u64,
    pairs: usize,
    est_cfg: EstimatorConfig,
) -> PreparedContext {
    let (estimator, accuracy) = pretrain_estimator(task, seed, pairs, est_cfg);
    PreparedContext::from_artifacts(task, seed, estimator, accuracy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_plans_have_paper_layer_counts() {
        assert_eq!(Task::Cifar.plan().num_layers(), 18);
        assert_eq!(Task::ImageNet.plan().num_layers(), 21);
    }

    #[test]
    fn task_specs_differ() {
        let c = Task::Cifar.spec(0);
        let i = Task::ImageNet.spec(0);
        assert!(i.num_classes > c.num_classes);
    }

    #[test]
    fn labels_roundtrip_and_codes_are_stable() {
        for (i, t) in Task::ALL.into_iter().enumerate() {
            assert_eq!(t.index(), i);
            assert_eq!(Task::parse_label(t.label()), Some(t));
        }
        assert_eq!(Task::parse_label("frobnicate"), None);
        // Persisted bundle codes: the first two are frozen since PR 3.
        assert_eq!(Task::Cifar.index(), 0);
        assert_eq!(Task::ImageNet.index(), 1);
    }

    #[test]
    fn hardware_variants_change_weights_not_paper_tasks() {
        assert_eq!(Task::Cifar.cost_weights(), CostWeights::paper());
        assert_eq!(Task::ImageNet.cost_weights(), CostWeights::paper());
        assert_eq!(Task::Edge.cost_weights(), CostWeights::edge());
        assert_eq!(Task::ManyClass.cost_weights(), CostWeights::datacenter());
        // Edge shares CIFAR's dataset spec apart from the name.
        let e = Task::Edge.spec(4);
        let c = Task::Cifar.spec(4);
        assert_eq!(e.num_classes, c.num_classes);
        assert_ne!(e.name, c.name);
    }

    #[test]
    fn new_family_plans_match_estimator_dims() {
        for t in Task::ALL {
            let layers = t.plan().num_layers();
            assert!(layers == 18 || layers == 21);
        }
    }
}
