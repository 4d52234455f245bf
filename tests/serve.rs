//! Single-bundle serving contracts: worker-count invariance, warm-start
//! bit-identity, v0 line-protocol ordering, and in-band task errors.
//!
//! * A router answering the same request set at jobs ∈ {1, 2, 4}
//!   must return **byte-identical** report lines (seeds 0–2).
//! * A router started from a checkpoint bundle must return
//!   byte-identical reports to one serving the in-process artifacts.
//! * v0 lines on one connection are answered in order, and a batched
//!   report is byte-identical to the same request run on its own.
//! * A request for a task the router does not serve is an in-band
//!   error carrying the request id.
//!
//! (Multi-bundle routing, the v1 protocol, quota/deadline hardening,
//! resume bit-identity, old-bundle LUT sections, bank-cap eviction and
//! bundle-loader robustness are pinned by `tests/serve_router.rs`.)

use hdx_core::{prepare_context_with, PreparedContext, SearchOptions, Task};
use hdx_serve::{save_bundle, train_artifacts, Artifacts, Router, RouterConfig, SearchRequest};
use hdx_surrogate::EstimatorConfig;
use std::io::Cursor;
use std::sync::{Arc, OnceLock};

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
/// entry point (the warm-start test saves them).
fn artifacts() -> Artifacts {
    train_artifacts(Task::Cifar, 7, 2000, 15, 0)
}

/// A single-bundle router over the shared warm context.
fn single_router() -> Router {
    let router = Router::new(RouterConfig::default());
    router.insert_prepared(Task::Cifar, 7, prepared());
    router
}

/// An HDX search under `fps = 30` on a short schedule.
fn quick(id: u64, seed: u64) -> SearchRequest {
    SearchRequest {
        id,
        opts: SearchOptions {
            seed,
            epochs: 2,
            steps_per_epoch: 3,
            batch: 16,
            final_train_steps: 40,
            constraints: vec![hdx_core::Constraint::fps(30.0)],
            ..SearchOptions::default()
        },
        ..SearchRequest::default()
    }
}

/// A small but representative request set: three seeds of the HDX
/// method under a hard constraint, a baseline, a λ-grid sweep, and a
/// meta-search.
fn request_set() -> Vec<SearchRequest> {
    let dance = |id: u64, seed: u64| {
        let mut req = quick(id, seed);
        req.opts.method = hdx_core::Method::Dance;
        req.opts.constraints.clear();
        req
    };
    let mut reqs: Vec<SearchRequest> = (0..3).map(|seed| quick(seed + 1, seed)).collect();
    reqs.push(dance(4, 1));
    reqs.push(SearchRequest {
        lambda_grid: vec![0.001, 0.01],
        ..dance(5, 2)
    });
    let mut meta = SearchRequest {
        max_searches: 2,
        ..quick(6, 0)
    };
    meta.opts.method = hdx_core::Method::Dance;
    reqs.push(meta);
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
fn line_protocol_batches_and_reports_in_order() {
    let router = single_router();
    let short = "epochs=2 steps=3 batch=16 final_train=40 fps=30";
    let input = format!(
        "ping\n\
         search id=11 seed=0 {short}\n\
         search id=12 seed=1 {short}\n\
         stats\n\
         search id=13 seed=2 {short}\n\
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
        let id = match seed {
            0 => 11,
            1 => 12,
            _ => 13,
        };
        let req = quick(id, seed);
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
    let router = single_router();
    let mut req = SearchRequest {
        id: 21,
        task: Task::ImageNet,
        ..SearchRequest::default()
    };
    let o = &mut req.opts;
    (o.epochs, o.steps_per_epoch, o.final_train_steps) = (1, 1, 0);
    let outcome = &router.run_batch(std::slice::from_ref(&req), 1)[0];
    let err = outcome.as_ref().expect_err("must be rejected");
    assert_eq!(err.id, 21);
    assert!(err.encode().starts_with("error id=21 msg="));
}
