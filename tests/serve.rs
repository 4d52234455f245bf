//! Serving-layer contracts: warm-start bit-identity, scheduler
//! determinism, bounded-bank invariance, and checkpoint robustness.
//!
//! * A router answering the same request set at jobs ∈ {1, 2, 4}
//!   must return **byte-identical** report lines (seeds 0–2).
//! * A router started from a checkpoint bundle must return
//!   byte-identical reports to one serving the in-process artifacts,
//!   also when the bundle carries the `lutN.*` cost-table sections
//!   bundles used to hold (they are ignored).
//! * Capping the session bank (`HDX_BANK_CAP` semantics) must evict
//!   without changing a single result byte.
//! * Corrupt/truncated/wrong-version checkpoint files must surface as
//!   typed errors, never panics.
//!
//! (Multi-bundle routing, the v1 protocol, quota/deadline hardening,
//! and resume bit-identity are pinned by `tests/serve_router.rs`.)

use hdx_core::{prepare_context_with, PreparedContext, Task};
use hdx_serve::{
    load_bundle, save_bundle, train_artifacts, Artifacts, Router, RouterConfig, SearchRequest,
};
use hdx_surrogate::EstimatorConfig;
use hdx_tensor::ckpt::{Checkpoint, CkptError};
use hdx_tensor::{Rng, SessionBank, Tensor};
use std::io::Cursor;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

const JOB_GRID: [usize; 3] = [1, 2, 4];

/// Shared warm context (estimator trained once for the whole binary).
fn prepared() -> Arc<PreparedContext> {
    static CTX: OnceLock<Arc<PreparedContext>> = OnceLock::new();
    Arc::clone(CTX.get_or_init(|| {
        Arc::new(prepare_context_with(
            Task::Cifar,
            7,
            2000,
            EstimatorConfig {
                epochs: 15,
                batch: 128,
                lr: 2e-3,
                ..Default::default()
            },
        ))
    }))
}

/// The artifacts of `prepared()`'s recipe, trained through hdx-serve's
/// entry point (the bundle tests save them).
fn artifacts() -> Artifacts {
    train_artifacts(Task::Cifar, 7, 2000, 15, 0)
}

/// A single-bundle router over the shared warm context (the PR-4
/// `SearchService` shape, expressed in the new registry API).
fn single_router() -> Router {
    let router = Router::new(RouterConfig::default());
    router.insert_prepared(Task::Cifar, 7, prepared());
    router
}

/// Serializes the tests that mutate process-global state (the session
/// bank capacity) against the ones that depend on its performance.
fn global_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A small but representative request set: three seeds of the HDX
/// method under a hard constraint, a baseline, a λ-grid sweep, and a
/// meta-search.
fn request_set() -> Vec<SearchRequest> {
    let quick = SearchRequest {
        epochs: 2,
        steps: 3,
        batch: 16,
        final_train: 40,
        ..SearchRequest::default()
    };
    let mut reqs: Vec<SearchRequest> = (0..3)
        .map(|seed| SearchRequest {
            id: seed + 1,
            seed,
            constraints: vec![hdx_core::Constraint::fps(30.0)],
            ..quick.clone()
        })
        .collect();
    reqs.push(SearchRequest {
        id: 4,
        method: hdx_core::Method::Dance,
        seed: 1,
        ..quick.clone()
    });
    reqs.push(SearchRequest {
        id: 5,
        method: hdx_core::Method::Dance,
        seed: 2,
        lambda_grid: vec![0.001, 0.01],
        ..quick.clone()
    });
    reqs.push(SearchRequest {
        id: 6,
        method: hdx_core::Method::Dance,
        seed: 0,
        constraints: vec![hdx_core::Constraint::fps(30.0)],
        max_searches: 2,
        ..quick.clone()
    });
    reqs
}

fn encode_batch(router: &Router, reqs: &[SearchRequest], jobs: usize) -> Vec<String> {
    router
        .run_batch(reqs, jobs)
        .into_iter()
        .map(|r| r.expect("request set is valid").encode())
        .collect()
}

#[test]
fn service_output_is_worker_count_invariant() {
    let _guard = global_guard();
    let router = single_router();
    let reqs = request_set();
    let reference = encode_batch(&router, &reqs, 1);
    // Grid expansion: 6 requests -> 7 jobs, reports in request order.
    assert_eq!(reference.len(), 7);
    for line in &reference {
        assert!(line.starts_with("report id="), "line: {line}");
    }
    for jobs in JOB_GRID {
        assert_eq!(
            encode_batch(&router, &reqs, jobs),
            reference,
            "jobs={jobs}: report bytes diverged"
        );
    }
}

#[test]
fn warm_start_from_bundle_is_byte_identical() {
    let _guard = global_guard();
    let dir = std::env::temp_dir().join("hdx_serve_warm_start_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("artifacts.ckpt");
    save_bundle(&path, &artifacts()).expect("save bundle");

    let warm = Router::new(RouterConfig::default());
    let entry = warm.load_bundle_path(&path).expect("load bundle");
    assert_eq!(entry.task, Task::Cifar);
    assert_eq!(entry.bundle_seed, 7);
    let cold = single_router();

    let reqs = request_set();
    for jobs in [1, 4] {
        assert_eq!(
            encode_batch(&warm, &reqs, jobs),
            encode_batch(&cold, &reqs, jobs),
            "jobs={jobs}: warm-start reports diverged from in-process reports"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn old_bundle_lut_sections_are_ignored() {
    let _guard = global_guard();
    let prepared = prepared();
    let dir = std::env::temp_dir().join("hdx_serve_old_bundle_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let current = dir.join("current.ckpt");
    save_bundle(&current, &artifacts()).expect("save bundle");

    // The bundle layout, section by section: with a count of 0 it is
    // exactly what `save_bundle` writes.
    let sections = |lut_count: u64| {
        let mut ckpt = Checkpoint::new();
        ckpt.put_u64("bundle.meta", &[3], &[0, 7, 2000]);
        ckpt.put_f64("bundle.accuracy", &[1], &[prepared.estimator_accuracy]);
        prepared.estimator().save_sections(&mut ckpt, "est");
        ckpt.put_u64("bundle.lut_count", &[1], &[lut_count]);
        ckpt
    };
    assert_eq!(
        sections(0).to_bytes(),
        std::fs::read(&current).expect("read"),
        "save_bundle must keep writing LUT-less bundle bytes"
    );

    // The layout of a bundle that carried one cost table.
    let layers = Task::Cifar
        .plan()
        .layers_for(&hdx_core::Architecture::uniform(18, 0));
    let lut = hdx_accel::LayerLut::cached(
        &layers,
        &hdx_tensor::WorkerPool::new(hdx_tensor::num_jobs(0)),
    );
    let mut ckpt = sections(1);
    let words: Vec<u64> = layers
        .iter()
        .flat_map(|l| {
            [
                l.c_in, l.c_out, l.h_in, l.w_in, l.kernel, l.stride, l.groups,
            ]
        })
        .map(|d| d as u64)
        .collect();
    ckpt.put_u64("lut0.layers", &[layers.len(), 7], &words);
    let configs = lut.configs().len();
    ckpt.put_u64("lut0.configs", &[1], &[configs as u64]);
    let metrics: Vec<f64> = (0..layers.len())
        .flat_map(|l| (0..configs).map(move |c| (l, c)))
        .flat_map(|(l, c)| {
            let m = lut.metrics(l, c);
            [m.latency_ms, m.energy_mj, m.area_mm2]
        })
        .collect();
    ckpt.put_f64("lut0.metrics", &[layers.len(), configs, 3], &metrics);
    let old = dir.join("old.ckpt");
    ckpt.save(&old).expect("save old bundle");

    let from_file = load_bundle(&old).expect("old bundle loads from a file");
    let from_bytes = hdx_serve::load_bundle_bytes(&std::fs::read(&old).expect("read"))
        .expect("old bundle loads from bytes");
    for loaded in [&from_file, &from_bytes] {
        assert_eq!(
            (loaded.task, loaded.seed, loaded.pairs),
            (Task::Cifar, 7, 2000)
        );
    }

    let serve = |path: &std::path::Path| {
        let router = Router::new(RouterConfig::default());
        router.load_bundle_path(path).expect("load bundle");
        encode_batch(&router, &request_set(), 2)
    };
    assert_eq!(
        serve(&old),
        serve(&current),
        "an old bundle's LUT sections changed served reports"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bank_cap_evicts_without_changing_results() {
    let _guard = global_guard();
    let bank = SessionBank::global();
    let router = single_router();
    let req = SearchRequest {
        id: 9,
        seed: 1,
        epochs: 2,
        steps: 3,
        batch: 16,
        final_train: 40,
        constraints: vec![hdx_core::Constraint::fps(30.0)],
        ..SearchRequest::default()
    };
    let run = || {
        router
            .run_one(&req)
            .pop()
            .expect("one job")
            .expect("valid request")
            .encode()
    };

    bank.set_capacity(None);
    let unbounded = run();

    // A tiny cap forces constant eviction/recompile churn across the
    // sampled-mixture, estimator-shard, final-net, and head programs.
    bank.set_capacity(Some(2));
    let evictions_before = bank.stats().evictions;
    let capped = run();
    let stats = bank.stats();
    bank.set_capacity(None);

    assert_eq!(capped, unbounded, "LRU eviction changed a search result");
    assert!(
        stats.evictions > evictions_before,
        "cap 2 must actually evict (evictions stayed at {evictions_before})"
    );
    assert!(stats.programs <= 2, "cap 2 exceeded: {stats:?}");
    assert!(stats.misses > 0 && stats.hits + stats.misses > 0);
}

#[test]
fn line_protocol_batches_and_reports_in_order() {
    let _guard = global_guard();
    let router = single_router();
    let quick = "epochs=2 steps=3 batch=16 final_train=40 fps=30";
    let input = format!(
        "ping\n\
         search id=11 seed=0 {quick}\n\
         search id=12 seed=1 {quick}\n\
         stats\n\
         search id=13 seed=2 {quick}\n\
         bogus line\n"
    );
    let mut out = Vec::new();
    router
        .serve_connection(Cursor::new(input), &mut out)
        .expect("serve");
    let text = String::from_utf8(out).expect("utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6, "output:\n{text}");
    assert_eq!(lines[0], "pong");
    assert!(lines[1].starts_with("report id=11 "));
    assert!(lines[2].starts_with("report id=12 "));
    assert!(lines[3].starts_with("stats programs="));
    assert!(lines[3].contains(" hits=") && lines[3].contains(" evictions="));
    assert!(lines[4].starts_with("report id=13 "));
    assert!(lines[5].starts_with("error id=0 msg="));

    // The same requests one-per-connection give the same report lines:
    // batching is a scheduling detail, not a semantic one.
    for (line, seed) in [(lines[1], 0u64), (lines[2], 1), (lines[4], 2)] {
        let req = SearchRequest {
            id: match seed {
                0 => 11,
                1 => 12,
                _ => 13,
            },
            seed,
            epochs: 2,
            steps: 3,
            batch: 16,
            final_train: 40,
            constraints: vec![hdx_core::Constraint::fps(30.0)],
            ..SearchRequest::default()
        };
        let direct = router
            .run_one(&req)
            .pop()
            .expect("one job")
            .expect("direct run");
        assert_eq!(direct.encode(), line);
    }
}

#[test]
fn mismatched_task_is_an_in_band_error() {
    let _guard = global_guard();
    let router = single_router();
    let req = SearchRequest {
        id: 21,
        task: Task::ImageNet,
        epochs: 1,
        steps: 1,
        final_train: 0,
        ..SearchRequest::default()
    };
    let outcome = &router.run_batch(std::slice::from_ref(&req), 1)[0];
    let err = outcome.as_ref().expect_err("must be rejected");
    assert_eq!(err.id, 21);
    assert!(err.encode().starts_with("error id=21 msg="));
}

#[test]
fn corrupt_bundles_are_typed_errors_never_panics() {
    // Independent of the shared context: exercises the checkpoint
    // container against a hostile file, end to end through the bundle
    // loader.
    let dir = std::env::temp_dir().join("hdx_serve_corrupt_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("hostile.ckpt");

    // Not a checkpoint at all.
    std::fs::write(&path, b"definitely not a checkpoint").expect("write");
    assert!(matches!(load_bundle(&path), Err(CkptError::BadMagic)));

    // A structurally valid checkpoint missing the bundle sections.
    let mut ckpt = Checkpoint::new();
    ckpt.put_tensor("unrelated", &Tensor::ones(&[2, 2]));
    ckpt.save(&path).expect("save");
    assert!(matches!(
        load_bundle(&path),
        Err(CkptError::MissingSection(_))
    ));

    // Random corruptions of a real (estimator-only) bundle.
    let plan = Task::Cifar.plan();
    let mut rng = Rng::new(3);
    let est = hdx_surrogate::Estimator::new(&plan, EstimatorConfig::default(), &mut rng);
    let artifacts = Artifacts {
        task: Task::Cifar,
        seed: 0,
        pairs: 0,
        estimator_accuracy: f64::NAN,
        estimator: est,
    };
    save_bundle(&path, &artifacts).expect("save");
    let bytes = std::fs::read(&path).expect("read");
    for trial in 0..60 {
        let mut corrupt = bytes.clone();
        match trial % 3 {
            0 => {
                // Truncate at a pseudo-random point.
                let len = rng.below(corrupt.len());
                corrupt.truncate(len);
            }
            1 => {
                // Flip a bit.
                let pos = rng.below(corrupt.len());
                corrupt[pos] ^= 1 << rng.below(8);
            }
            _ => {
                // Declare an unsupported version.
                corrupt[4] = 0xFE;
            }
        }
        std::fs::write(&path, &corrupt).expect("write");
        assert!(
            load_bundle(&path).is_err(),
            "trial {trial}: corruption went undetected"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// A checksum-valid bundle whose `est.dims` declares a width or depth
/// far past its stored weights is a typed error raised before anything
/// is allocated from the declared dims: loaded directly, and through a
/// router's `load_bundle`, whose connection keeps answering.
#[test]
fn forged_estimator_dims_are_typed_errors_not_allocations() {
    let dir = std::env::temp_dir().join(format!("hdx_serve_forged_dims_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let plan = Task::Cifar.plan();
    let est = hdx_surrogate::Estimator::new(&plan, EstimatorConfig::default(), &mut Rng::new(3));
    let input_dim = est.input_dim() as u64;
    // (hidden, depth, stored weight count): a forged width, a forged
    // depth, and a forged depth whose weight count is forged to match.
    for (case, (hidden, depth, count)) in [
        (1u64 << 40, 5u64, 10u64),
        (64, 1 << 40, 10),
        (64, 1 << 40, 1 << 41),
    ]
    .into_iter()
    .enumerate()
    {
        let mut ckpt = Checkpoint::new();
        ckpt.put_u64("bundle.meta", &[3], &[0, 7, 0]);
        ckpt.put_f64("bundle.accuracy", &[1], &[f64::NAN]);
        ckpt.put_u64("est.dims", &[3], &[input_dim, hidden, depth]);
        ckpt.put_f32("est.stats", &[2, 3], &[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        ckpt.put_u64("est.w.count", &[1], &[count]);
        for (id, tensor) in est.params().iter() {
            ckpt.put_tensor(&format!("est.w.{}", id.index()), tensor);
        }
        ckpt.put_u64("bundle.lut_count", &[1], &[0]);
        let path = dir.join(format!("forged_{case}.ckpt"));
        ckpt.save(&path).expect("save forged bundle");

        assert!(
            matches!(load_bundle(&path), Err(CkptError::Malformed(_))),
            "case {case}: forged dims must be a Malformed error"
        );
        let router = Router::new(RouterConfig::default());
        let mut out = Vec::new();
        router
            .serve_connection(
                Cursor::new(format!(
                    "hdx1 load_bundle id=1 path={}\nhdx1 ping id=2\n",
                    path.display()
                )),
                &mut out,
            )
            .expect("serve");
        let out = String::from_utf8(out).expect("utf-8");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "case {case}: {out}");
        assert!(
            lines[0].starts_with("hdx1 error id=1 code=checkpoint"),
            "case {case}: {}",
            lines[0]
        );
        assert_eq!(lines[1], "hdx1 pong id=2", "case {case}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
