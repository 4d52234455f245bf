//! Checkpoint bundles: everything a warm service start needs in one
//! file.
//!
//! A bundle records the task identity (task + dataset seed), the
//! pre-trained estimator and its held-out accuracy. Training
//! ([`train_artifacts`], [`train_artifacts_from`]) writes an estimator
//! into [`Artifacts`] and never builds a dataset: the dataset is a
//! search-time input that [`Artifacts::into_prepared`] regenerates
//! deterministically from `(task, seed)`. Loading a bundle and serving
//! from it therefore produces **byte-identical** reports to serving
//! from the in-process artifacts: the estimator round-trips by bit
//! pattern. Cost tables are not bundled: the process builds each
//! layer's [`hdx_accel::LayerLut`] row once, on first use. The `lutN.*`
//! sections older bundles carry are ignored on load.

use hdx_core::{PreparedContext, Task};
use hdx_surrogate::Estimator;
use hdx_tensor::ckpt::{Checkpoint, CkptError};
use std::path::Path;

/// Trained artifacts: what training returns, and what a bundle file
/// stores.
#[derive(Debug)]
pub struct Artifacts {
    /// The benchmark task the artifacts serve.
    pub task: Task,
    /// Dataset / training seed.
    pub seed: u64,
    /// Cumulative estimator pre-training pair budget (provenance).
    pub pairs: usize,
    /// Held-out within-10 % accuracy recorded at training time.
    pub estimator_accuracy: f64,
    /// The pre-trained estimator.
    pub estimator: Estimator,
}

/// The persisted task code: the canonical `Task::ALL` position. The
/// first two are frozen (PR-3 bundles must keep loading), new families
/// only append. The artifact catalog keys on the same code, so a
/// catalog index row and a bundle's `bundle.meta` always agree.
pub fn task_code(task: Task) -> u64 {
    task.index() as u64
}

/// Inverse of [`task_code`].
///
/// # Errors
///
/// [`CkptError::Malformed`] for a code no registered task carries.
pub fn task_from_code(code: u64) -> Result<Task, CkptError> {
    usize::try_from(code)
        .ok()
        .and_then(|i| Task::ALL.get(i).copied())
        .ok_or_else(|| CkptError::Malformed(format!("unknown task code {code}")))
}

/// Writes a bundle file from borrowed artifacts (the in-process
/// artifacts stay usable after the save).
///
/// # Errors
///
/// [`CkptError::Io`] on filesystem failures.
pub fn save_bundle(path: &Path, artifacts: &Artifacts) -> Result<(), CkptError> {
    let mut ckpt = Checkpoint::new();
    let meta = [
        task_code(artifacts.task),
        artifacts.seed,
        artifacts.pairs as u64,
    ];
    ckpt.put_u64("bundle.meta", &[3], &meta);
    ckpt.put_f64("bundle.accuracy", &[1], &[artifacts.estimator_accuracy]);
    artifacts.estimator.save_sections(&mut ckpt, "est");
    // Readers ignore the count. It is still written, always 0, so that
    // bundle bytes equal those of a LUT-less bundle, and with them the
    // catalog fingerprints and the serve_router same-bytes digest.
    ckpt.put_u64("bundle.lut_count", &[1], &[0]);
    ckpt.save(path)
}

/// Loads a bundle written by [`save_bundle`].
///
/// # Errors
///
/// Typed [`CkptError`]s: I/O, every container parse error (bad magic,
/// truncation, checksum mismatch, wrong version), and per-artifact
/// validation failures.
pub fn load_bundle(path: &Path) -> Result<Artifacts, CkptError> {
    static OBS_LOADS: hdx_obs::Counter = hdx_obs::Counter::new("artifact.bundle_loads");
    let _span = hdx_obs::span("artifact.load_bundle");
    OBS_LOADS.incr();
    artifacts_from(&Checkpoint::load(path)?)
}

/// Loads a bundle from in-memory container bytes — the catalog read
/// path. Same parser as [`load_bundle`], so a bundle served from a
/// `cat:` fingerprint ref is bit-identical to one served from the
/// loose file it was published from.
///
/// # Errors
///
/// The same typed [`CkptError`]s as [`load_bundle`] (minus I/O).
pub fn load_bundle_bytes(bytes: &[u8]) -> Result<Artifacts, CkptError> {
    static OBS_LOADS: hdx_obs::Counter = hdx_obs::Counter::new("artifact.bundle_loads_bytes");
    let _span = hdx_obs::span("artifact.load_bundle_bytes");
    OBS_LOADS.incr();
    artifacts_from(&Checkpoint::from_bytes(bytes)?)
}

/// The shared section-level bundle parser.
fn artifacts_from(ckpt: &Checkpoint) -> Result<Artifacts, CkptError> {
    let (shape, meta) = ckpt.get_u64("bundle.meta")?;
    if shape != [3] {
        return Err(CkptError::ShapeMismatch {
            name: "bundle.meta".to_owned(),
            expected: vec![3],
            found: shape.to_vec(),
        });
    }
    let task = task_from_code(meta[0])?;
    let seed = meta[1];
    let pairs = usize::try_from(meta[2])
        .map_err(|_| CkptError::Malformed("bundle.meta pair count exceeds usize".to_owned()))?;
    let accuracy = ckpt.get_scalar_f64("bundle.accuracy")?;
    let estimator = Estimator::load_sections(ckpt, "est", &task.plan())?;
    // `bundle.lut_count` and the `lutN.*` sections of older bundles
    // are skipped; the container checksum has already covered them.
    Ok(Artifacts {
        task,
        seed,
        pairs,
        estimator_accuracy: accuracy,
        estimator,
    })
}

impl Artifacts {
    /// Builds the warm search context: the estimator becomes the
    /// context's frozen cost surface.
    pub fn into_prepared(self) -> PreparedContext {
        PreparedContext::from_artifacts(
            self.task,
            self.seed,
            self.estimator,
            self.estimator_accuracy,
        )
    }
}

/// Trains the artifacts for `(task, seed)`: a fresh estimator on
/// `pairs` analytical-model-labelled pairs ([`hdx_core::pretrain_estimator`]).
/// No dataset is built; [`Artifacts::into_prepared`] builds the search
/// context when the artifacts are served.
pub fn train_artifacts(
    task: Task,
    seed: u64,
    pairs: usize,
    est_epochs: usize,
    jobs: usize,
) -> Artifacts {
    let cfg = hdx_surrogate::EstimatorConfig {
        epochs: est_epochs,
        batch: 128,
        lr: 2e-3,
        jobs,
        ..Default::default()
    };
    let (estimator, estimator_accuracy) = hdx_core::pretrain_estimator(task, seed, pairs, cfg);
    Artifacts {
        task,
        seed,
        pairs,
        estimator_accuracy,
        estimator,
    }
}

/// Incremental pre-training: continues an existing bundle's estimator
/// on `pairs` **fresh** analytical-model-labelled pairs instead of
/// starting from random weights (`train-and-save --init-bundle`), with
/// the same [`hdx_core::pretrain`] sequence as fresh training. The
/// new pair stream is derived [`hdx_tensor::Rng::split`]-style from
/// the bundle's dataset seed and its prior pair budget: the seed is
/// remixed through the generator's output function, so the
/// continuation stream lands at an effectively independent point of
/// the SplitMix64 sequence instead of an additive offset that chained
/// continuations could walk back onto (each continuation sees its own
/// window, disjoint from earlier training *and* holdout draws up to
/// the usual split-collision odds). The bundle's task/seed identity is
/// kept — warm-start bit-identity is about the dataset, and that
/// regenerates from `(task, seed)` as always.
///
/// The returned artifacts carry the cumulative pair budget (prior +
/// new) for bundle provenance.
pub fn train_artifacts_from(
    init: Artifacts,
    pairs: usize,
    est_epochs: usize,
    jobs: usize,
) -> Artifacts {
    // Split-style derivation (see the doc comment): one tagged parent
    // stream per (seed, prior-budget) pair, its first mixed output
    // seeding the continuation stream.
    let mut parent = hdx_tensor::Rng::new(
        (init.seed ^ 0xC017_14E5_u64.rotate_left(17)).wrapping_add(init.pairs as u64),
    );
    let mut estimator = init.estimator;
    estimator.set_training_schedule(est_epochs, 2e-3, jobs);
    let mut rng = parent.split();
    let (estimator, estimator_accuracy) =
        hdx_core::pretrain(&init.task.plan(), pairs, jobs, &mut rng, |_| estimator);
    Artifacts {
        pairs: init.pairs + pairs,
        estimator_accuracy,
        estimator,
        ..init
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_surrogate::{EstimatorConfig, PairSet};
    use hdx_tensor::Rng;

    fn tiny_estimator(task: Task, seed: u64) -> (Estimator, f64) {
        let plan = task.plan();
        let mut rng = Rng::new(seed ^ 0xE57A_u64.rotate_left(31));
        let pairs = PairSet::sample(&plan, 200, &mut rng, 0);
        let mut est = Estimator::new(
            &plan,
            EstimatorConfig {
                epochs: 3,
                ..Default::default()
            },
            &mut rng,
        );
        est.train(&pairs, &mut rng);
        let acc = est.within_tolerance(&pairs, 0.10);
        (est, acc)
    }

    #[test]
    fn bundle_round_trip_preserves_artifacts() {
        let (est, acc) = tiny_estimator(Task::Cifar, 3);
        let dir = std::env::temp_dir().join("hdx_bundle_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("artifacts.ckpt");
        let artifacts = Artifacts {
            task: Task::Cifar,
            seed: 3,
            pairs: 200,
            estimator_accuracy: acc,
            estimator: est,
        };
        save_bundle(&path, &artifacts).expect("save");

        let loaded = load_bundle(&path).expect("load");
        assert_eq!(loaded.task, Task::Cifar);
        assert_eq!(loaded.seed, 3);
        assert_eq!(loaded.pairs, 200);
        assert_eq!(loaded.estimator_accuracy.to_bits(), acc.to_bits());
        for (id, t) in artifacts.estimator.params().iter() {
            assert_eq!(loaded.estimator.params().get(id).data(), t.data());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_bundle_is_a_typed_error() {
        let (est, acc) = tiny_estimator(Task::Cifar, 5);
        let dir = std::env::temp_dir().join("hdx_bundle_test_trunc");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("artifacts.ckpt");
        let artifacts = Artifacts {
            task: Task::Cifar,
            seed: 5,
            pairs: 200,
            estimator_accuracy: acc,
            estimator: est,
        };
        save_bundle(&path, &artifacts).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(matches!(
            load_bundle(&path),
            Err(CkptError::Truncated | CkptError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
