//! Seeded task-family expansion: `(family, seed)` → a ready-to-serve
//! bundle spec plus a deterministic request workload.
//!
//! The families themselves live in [`hdx_core::Task`] (dataset
//! geometry/dimensionality/class-count variants in `hdx-nas`, hardware
//! cost targets in `hdx-accel`); this module owns the *serving-side*
//! expansion: how much estimator pre-training a family's bundle gets,
//! what its artifact file is called, and which request lines a
//! workload of `n` entries against it contains. Everything is a pure
//! function of `(Task, seed)` (plus explicit budget overrides), so two
//! machines expanding the same key produce byte-identical bundles and
//! byte-identical request streams.

use hdx_core::{SearchOptions, Task};
use hdx_serve::v1;
use hdx_serve::{train_artifacts, Artifacts, SearchRequest};
use hdx_tensor::ckpt::CkptError;
use std::path::{Path, PathBuf};

/// A ready-to-serve bundle spec: the deterministic expansion of a
/// `(family, seed)` key into training budgets and an artifact name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleSpec {
    /// The task family.
    pub task: Task,
    /// The bundle's dataset seed (the registry key half).
    pub seed: u64,
    /// Estimator pre-training pairs.
    pub pairs: usize,
    /// Estimator pre-training epochs.
    pub est_epochs: usize,
}

impl BundleSpec {
    /// The default full-size expansion of a family key. Budgets scale
    /// with the family's plan (21-layer plans get the larger pair
    /// budget the paper's ImageNet runs got).
    pub fn expand(task: Task, seed: u64) -> BundleSpec {
        let pairs = match task.plan().num_layers() {
            21 => 6_000,
            _ => 8_000,
        };
        BundleSpec {
            task,
            seed,
            pairs,
            est_epochs: 30,
        }
    }

    /// A reduced-budget expansion for smokes and tests (still fully
    /// deterministic — "small" is a different point in the same keyed
    /// space, not a different construction).
    pub fn expand_small(task: Task, seed: u64) -> BundleSpec {
        BundleSpec {
            pairs: 400,
            est_epochs: 4,
            ..BundleSpec::expand(task, seed)
        }
    }

    /// Canonical artifact file name (`<label>_<seed>.ckpt`).
    pub fn file_name(&self) -> String {
        format!("{}_{}.ckpt", self.task.label(), self.seed)
    }

    /// Trains the bundle's artifacts in-process (an estimator; no
    /// dataset is built).
    pub fn train(&self, jobs: usize) -> Artifacts {
        train_artifacts(self.task, self.seed, self.pairs, self.est_epochs, jobs)
    }

    /// Trains the bundle and writes it under `dir`, returning the
    /// artifact path.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] on filesystem failures.
    pub fn write_bundle(&self, dir: &Path, jobs: usize) -> Result<PathBuf, CkptError> {
        let path = dir.join(self.file_name());
        hdx_serve::save_bundle(&path, &self.train(jobs))?;
        Ok(path)
    }
}

/// The committed reference workload's bundle specs: one small bundle
/// per new family (the four families beyond the paper's two), each
/// seeded with its own canonical code so the set is self-describing.
pub fn reference_specs() -> Vec<BundleSpec> {
    [Task::Spheres, Task::HighDim, Task::ManyClass, Task::Edge]
        .into_iter()
        .map(|t| BundleSpec::expand_small(t, t.index() as u64))
        .collect()
}

/// Deterministic request workload against one bundle: `count` lines
/// rotating over the search-type verbs (v1 `search`, v1 `grid`, v0
/// `search`, v1 `meta`), with λ/constraint values drawn from an RNG
/// keyed on `(family, bundle_seed, workload_seed)`. Budgets are tiny
/// and fixed — the harness measures the *service*, not the search.
///
/// Request ids start at `start_id` and increase by one per line, so a
/// multi-family workload stays collision-free below the trace seal-id
/// range.
pub fn request_lines(
    task: Task,
    bundle_seed: u64,
    workload_seed: u64,
    count: usize,
    start_id: u64,
) -> Vec<String> {
    let mut rng = hdx_tensor::Rng::new(
        (task.index() as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(bundle_seed.rotate_left(17))
            ^ workload_seed.rotate_left(41),
    );
    (0..count)
        .map(|i| {
            let lambda = (1 + rng.below(40)) as f64 / 10.0;
            let fps = (20 + rng.below(30)) as f64;
            let req = SearchRequest {
                id: start_id + i as u64,
                task,
                bundle_seed: Some(bundle_seed),
                opts: SearchOptions {
                    seed: rng.below(3) as u64,
                    lambda_cost: lambda,
                    epochs: 2,
                    steps_per_epoch: 3,
                    batch: 16,
                    final_train_steps: 40,
                    constraints: vec![hdx_core::Constraint::fps(fps)],
                    ..SearchOptions::default()
                },
                ..SearchRequest::default()
            };
            let v1_line = |req| v1::encode_request(&v1::Envelope::job(req));
            match i % 4 {
                0 => v1_line(req),
                1 => v1_line(SearchRequest {
                    lambda_grid: vec![lambda, lambda * 2.0],
                    ..req
                }),
                2 => SearchRequest {
                    // v0 framing carries no bundle_seed field; the
                    // router defaults to the task's lowest seed, which
                    // is deterministic for a fixed bundle set.
                    bundle_seed: None,
                    ..req
                }
                .encode(),
                _ => v1_line(SearchRequest {
                    max_searches: 2,
                    ..req
                }),
            }
        })
        .collect()
}

/// The committed reference workload's request stream: four entries per
/// reference family (one full verb rotation), ids partitioned per
/// family.
pub fn reference_requests() -> Vec<String> {
    reference_specs()
        .iter()
        .enumerate()
        .flat_map(|(k, spec)| request_lines(spec.task, spec.seed, 0, 4, 1 + 100 * k as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_and_family_keyed() {
        for t in Task::ALL {
            assert_eq!(BundleSpec::expand(t, 5), BundleSpec::expand(t, 5));
            assert_eq!(
                BundleSpec::expand(t, 5).file_name(),
                format!("{}_5.ckpt", t.label())
            );
        }
        assert_ne!(
            BundleSpec::expand(Task::ManyClass, 0).pairs,
            BundleSpec::expand(Task::Spheres, 0).pairs,
            "21-layer families get their own pair budget"
        );
    }

    #[test]
    fn request_streams_are_seeded() {
        let a = request_lines(Task::Spheres, 2, 0, 8, 1);
        let b = request_lines(Task::Spheres, 2, 0, 8, 1);
        let c = request_lines(Task::Spheres, 2, 1, 8, 1);
        let d = request_lines(Task::HighDim, 2, 0, 8, 1);
        assert_eq!(a, b);
        assert_ne!(a, c, "workload seed must matter");
        assert_ne!(a, d, "family must matter");
        // Every line must parse in its own framing.
        for line in &a {
            v1::decode_line(v1::sniff(line), line).expect(line);
        }
    }

    #[test]
    fn reference_workload_covers_four_families() {
        let specs = reference_specs();
        assert_eq!(specs.len(), 4);
        let reqs = reference_requests();
        assert_eq!(reqs.len(), 16);
        assert!(
            reqs.iter().any(|l| l.starts_with("hdx1 meta ")),
            "the full verb rotation must include a meta entry"
        );
        for spec in &specs {
            assert!(
                reqs.iter()
                    .any(|l| l.contains(&format!("task={}", spec.task.label()))),
                "family {} missing from reference requests",
                spec.task.label()
            );
        }
    }
}
