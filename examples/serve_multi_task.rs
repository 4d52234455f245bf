//! Multi-tenant serving: two bundles, one process, resumable searches.
//!
//! Trains a CIFAR and an ImageNet bundle, serves both from one
//! [`hdx_serve::Router`] routed by the request's `task` field, then
//! demonstrates the v1 checkpoint/resume flow: a search "interrupted"
//! at an epoch boundary is continued via the `resume` verb and its
//! report is **bit-identical** to the uninterrupted run's.
//!
//! ```sh
//! cargo run --release --example serve_multi_task
//! ```

use hdx_core::{CheckpointSpec, SearchOptions, Task};
use hdx_serve::{train_artifacts, Router, RouterConfig, SearchRequest};
use std::io::Cursor;

fn serve(router: &Router, requests: &str) -> String {
    let mut out = Vec::new();
    router
        .serve_connection(Cursor::new(requests.to_owned()), &mut out)
        .expect("serve");
    String::from_utf8(out).expect("utf-8")
}

fn main() {
    let dir = std::env::temp_dir().join("hdx_multi_task_example");
    std::fs::create_dir_all(&dir).expect("mkdir");

    // -- train two bundles (reduced budgets keep the example quick) --
    println!("== training two bundles ==");
    let start = std::time::Instant::now();
    let cifar = train_artifacts(Task::Cifar, 0, 2_500, 15, 0);
    let imagenet = train_artifacts(Task::ImageNet, 1, 2_000, 12, 0);
    println!(
        "trained in {:.1}s: cifar acc {:.1}%, imagenet acc {:.1}%\n",
        start.elapsed().as_secs_f64(),
        cifar.estimator_accuracy * 100.0,
        imagenet.estimator_accuracy * 100.0
    );

    // -- one router, both tasks, hardened ----------------------------
    let router = Router::new(RouterConfig {
        jobs: 0,
        max_requests_per_conn: Some(64),
        deadline_steps: Some(1_000_000),
    });
    router.insert_prepared(Task::Cifar, 0, cifar.into_prepared());
    router.insert_prepared(Task::ImageNet, 1, imagenet.into_prepared());

    let requests = "\
hdx1 list_tasks id=1
hdx1 search id=2 task=cifar fps=30 epochs=6 steps=8 final_train=400 seed=0
hdx1 search id=3 task=imagenet fps=10 epochs=6 steps=8 final_train=400 seed=0
hdx1 stats id=4
";
    println!("== cross-task requests ==\n{requests}");
    let start = std::time::Instant::now();
    print!(
        "== responses ({:.1}s) ==\n{}\n",
        start.elapsed().as_secs_f64(),
        serve(&router, requests)
    );

    // -- interrupt + resume ------------------------------------------
    println!("== resumable search ==");
    let ckpt = dir.join("search.ckpt");
    let full = SearchRequest {
        id: 10,
        opts: SearchOptions {
            epochs: 6,
            steps_per_epoch: 8,
            final_train_steps: 400,
            seed: 3,
            constraints: vec![hdx_core::Constraint::fps(30.0)],
            ..SearchOptions::default()
        },
        ..SearchRequest::default()
    };
    // Reference: the uninterrupted 6-epoch run.
    let reference = serve(&router, &format!("hdx1 {}\n", full.encode()));

    // "Interrupt" after 3 epochs, snapshotting every epoch…
    let mut interrupted = full.clone();
    interrupted.opts.epochs = 3;
    interrupted.opts.checkpoint = Some(CheckpointSpec {
        path: ckpt.clone(),
        every_epochs: 1,
        note: None,
    });
    serve(&router, &format!("hdx1 {}\n", interrupted.encode()));
    println!(
        "interrupted after 3 of 6 epochs (snapshot at {})",
        ckpt.display()
    );

    // …then resume to the full schedule through the protocol.
    let mut resume = interrupted;
    resume.opts.epochs = 6;
    let resume_fields = resume.encode();
    let resume_line = format!(
        "hdx1 resume {}\n",
        resume_fields.strip_prefix("search ").expect("prefix")
    );
    println!("resume request: {resume_line}");
    let resumed = serve(&router, &resume_line);

    println!("uninterrupted: {reference}");
    println!("resumed:       {resumed}");
    assert_eq!(
        resumed, reference,
        "resumed report must be bit-identical to the uninterrupted run"
    );
    println!("bit-identical ✓");

    let _ = std::fs::remove_dir_all(&dir);
}
