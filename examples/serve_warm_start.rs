//! Train-once / serve-many over the line protocol.
//!
//! Pre-trains the search artifacts once, checkpoints them to a bundle
//! file, then starts a warm [`hdx_serve::Router`] from the bundle and
//! feeds it a small batch of `search …` request lines — the exact flow
//! `hdx-serve train-and-save` + `hdx-serve serve` run as separate
//! processes, demonstrated in-process:
//!
//! ```sh
//! cargo run --release --example serve_warm_start
//! ```

use hdx_core::Task;
use hdx_serve::{save_bundle, train_artifacts, Router, RouterConfig};
use std::io::Cursor;

fn main() {
    let dir = std::env::temp_dir().join("hdx_serve_example");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let bundle = dir.join("artifacts.ckpt");

    // -- train once --------------------------------------------------
    println!("== training artifacts (estimator) ==");
    let start = std::time::Instant::now();
    let artifacts = train_artifacts(Task::Cifar, 0, 4_000, 25, 0);
    println!(
        "trained in {:.1}s: estimator within-10% accuracy {:.1}%",
        start.elapsed().as_secs_f64(),
        artifacts.estimator_accuracy * 100.0
    );
    save_bundle(&bundle, &artifacts).expect("save bundle");
    let size = std::fs::metadata(&bundle).map(|m| m.len()).unwrap_or(0);
    println!(
        "bundle: {} ({:.1} MiB)\n",
        bundle.display(),
        size as f64 / f64::from(1 << 20)
    );
    drop(artifacts); // the service below runs purely from the checkpoint

    // -- serve many --------------------------------------------------
    println!("== warm start from the bundle ==");
    let start = std::time::Instant::now();
    let router = Router::new(RouterConfig::default());
    let entry = router.load_bundle_path(&bundle).expect("load bundle");
    println!(
        "warm start in {:.2}s: task={:?} bundle_seed={}\n",
        start.elapsed().as_secs_f64(),
        entry.task,
        entry.bundle_seed
    );

    // Three independent jobs — a 30 fps HDX search, a λ-grid DANCE
    // sweep, and a meta-search — as protocol lines, answered as one
    // fanned-out batch.
    let requests = "\
search id=1 method=hdx fps=30 epochs=8 steps=10 final_train=600 seed=0
search id=2 method=dance lambda_grid=0.001,0.01 epochs=8 steps=10 final_train=600 seed=1
search id=3 method=dance fps=30 max_searches=3 epochs=8 steps=10 final_train=600 seed=2
stats
";
    println!("== requests ==\n{requests}");
    let start = std::time::Instant::now();
    let mut out = Vec::new();
    router
        .serve_connection(Cursor::new(requests), &mut out)
        .expect("serve");
    println!("== responses ({:.1}s) ==", start.elapsed().as_secs_f64());
    print!("{}", String::from_utf8(out).expect("utf-8"));

    std::fs::remove_file(&bundle).ok();
}
