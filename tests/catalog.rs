//! Artifact-catalog contracts: content-addressed serving and
//! deterministic retention.
//!
//! * A bundle served from a `cat:` ref answers **byte-identically** to
//!   the same bundle served from its loose file — request seeds 0–2,
//!   jobs ∈ {1, 2, 4}.
//! * Retention GC is deterministic: the same publish history yields
//!   the same surviving set, the same index bytes, and the same
//!   on-disk object listing on every run, regardless of the worker
//!   count used for serving in between.
//! * Eviction is result-neutral: a warm-start from a surviving ref
//!   answers the same bytes before and after GC collects its siblings.
//! * The `catalog_list` / `catalog_pin` / `catalog_evict` verbs drive
//!   the catalog end-to-end over a connection, and neither a pinned
//!   object nor one leased by a loaded bundle can be evicted.

use hdx_catalog::{format_ref, Catalog};
use hdx_core::{SearchOptions, Task};
use hdx_serve::{
    save_bundle, task_code, train_artifacts, Artifacts, Router, RouterConfig, SearchRequest,
};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The shared cifar artifacts, trained once per test binary.
fn artifacts() -> MutexGuard<'static, Artifacts> {
    static ART: OnceLock<Mutex<Artifacts>> = OnceLock::new();
    ART.get_or_init(|| Mutex::new(train_artifacts(Task::Cifar, 7, 900, 8, 0)))
        .lock()
        .expect("artifacts lock")
}

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdx_catalog_test_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

/// Serializes the shared cifar artifacts as a bundle file and returns
/// its bytes. Varying `pairs` varies the bytes (and therefore the
/// fingerprint) without retraining anything.
fn bundle_bytes(dir: &Path, pairs: usize) -> Vec<u8> {
    let path = dir.join(format!("cifar_{pairs}.ckpt"));
    let mut artifacts = artifacts();
    artifacts.pairs = pairs;
    save_bundle(&path, &artifacts).expect("save bundle");
    std::fs::read(&path).expect("read bundle back")
}

fn quick(id: u64, seed: u64) -> SearchRequest {
    SearchRequest {
        id,
        task: Task::Cifar,
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

/// Serves `input` over an in-memory connection and returns the
/// response lines.
fn serve_lines(router: &Router, input: &str) -> Vec<String> {
    let mut out = Vec::new();
    router
        .serve_connection(Cursor::new(input.to_owned()), &mut out)
        .expect("serve");
    String::from_utf8(out)
        .expect("utf-8")
        .lines()
        .map(str::to_owned)
        .collect()
}

/// The sorted object-file names under `<root>/objects/` — the
/// surviving set as the filesystem sees it.
fn object_listing(root: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root.join(hdx_catalog::OBJECTS_DIR))
        .expect("objects dir")
        .map(|e| {
            e.expect("dirent")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

const CIFAR_CODE: u8 = 0;

#[test]
fn catalog_refs_serve_byte_identically_to_loose_files() {
    assert_eq!(u64::from(CIFAR_CODE), task_code(Task::Cifar));
    let dir = scratch("identity");
    let bytes = bundle_bytes(&dir, 900);
    let loose = dir.join("loose.ckpt");
    std::fs::write(&loose, &bytes).expect("write loose bundle");

    let catalog = Catalog::open(&dir.join("cat")).expect("open catalog");
    let receipt = catalog
        .publish(CIFAR_CODE, "train", 7, &bytes)
        .expect("publish");

    // One batch spanning request seeds 0–2, served at jobs ∈ {1, 2, 4}
    // through both load paths: the response byte streams must match
    // exactly.
    let requests: Vec<SearchRequest> = (0..3).map(|seed| quick(seed + 1, seed)).collect();
    for jobs in [1usize, 2, 4] {
        let via_loose = Router::new(RouterConfig::default());
        via_loose
            .load_bundle_ref(loose.to_str().expect("utf-8 path"))
            .expect("loose load");
        let via_catalog = Router::new(RouterConfig::default());
        via_catalog.mount_catalog(catalog.clone());
        via_catalog
            .load_bundle_ref(&format_ref(receipt.fingerprint))
            .expect("catalog load");

        let encode = |router: &Router| -> Vec<String> {
            router
                .run_batch(&requests, jobs)
                .into_iter()
                .map(|r| r.expect("report").encode_v1())
                .collect()
        };
        assert_eq!(
            encode(&via_loose),
            encode(&via_catalog),
            "jobs={jobs}: catalog warm-start must be bit-identical to the loose file"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Replays the same publish history into a fresh catalog: three cifar
/// "train" generations plus two under a second seed, one pinned.
fn replay_history(root: &Path) -> (Catalog, Vec<u64>) {
    let dir = root.parent().expect("scratch parent");
    let catalog = Catalog::open(root).expect("open catalog");
    let mut fps = Vec::new();
    for pairs in [900, 901, 902] {
        let bytes = bundle_bytes(dir, pairs);
        fps.push(
            catalog
                .publish(CIFAR_CODE, "train", 7, &bytes)
                .expect("publish")
                .fingerprint,
        );
    }
    for pairs in [910, 911] {
        let bytes = bundle_bytes(dir, pairs);
        fps.push(
            catalog
                .publish(CIFAR_CODE, "workload", 8, &bytes)
                .expect("publish")
                .fingerprint,
        );
    }
    // Pin the oldest seed-7 generation: GC must keep it even though
    // keep-last-1 would otherwise collect it.
    catalog.pin(fps[0], true).expect("pin");
    (catalog, fps)
}

#[test]
fn retention_gc_is_deterministic_and_pin_aware() {
    let dir = scratch("gc");
    let mut outcomes = Vec::new();
    // Three independent replays; the middle ones serve from the
    // catalog at different worker counts before collecting, which must
    // not perturb the GC outcome.
    for (run, jobs) in [(0usize, None), (1, Some(1)), (2, Some(4))] {
        let root = dir.join(format!("run{run}"));
        let (catalog, fps) = replay_history(&root);
        if let Some(jobs) = jobs {
            let router = Router::new(RouterConfig {
                jobs,
                ..RouterConfig::default()
            });
            router.mount_catalog(catalog.clone());
            router
                .load_bundle_ref(&format_ref(fps[2]))
                .expect("serve latest");
            router.run_one(&quick(1, 0)).pop().unwrap().expect("report");
            router.unload(Task::Cifar, 7);
        }
        let report = catalog.gc(1).expect("gc");
        outcomes.push((report.evicted, catalog.index_bytes(), object_listing(&root)));
    }
    // keep-last-1 collects the middle seed-7 generation (the oldest is
    // pinned, the newest is retained) and the older seed-8 generation.
    assert_eq!(outcomes[0].0.len(), 2);
    assert_eq!(outcomes[0], outcomes[1], "run 1 must match run 0");
    assert_eq!(outcomes[0], outcomes[2], "run 2 must match run 0");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eviction_is_result_neutral_for_warm_starts() {
    let dir = scratch("neutral");
    let (catalog, fps) = replay_history(&dir.join("cat"));
    let latest = format_ref(fps[2]);
    let serve_from = |catalog: &Catalog| -> Vec<String> {
        let router = Router::new(RouterConfig::default());
        router.mount_catalog(catalog.clone());
        router.load_bundle_ref(&latest).expect("load latest");
        (0..3)
            .map(|seed| {
                router
                    .run_one(&quick(seed + 1, seed))
                    .pop()
                    .unwrap()
                    .expect("report")
                    .encode_v1()
            })
            .collect()
    };
    let before = serve_from(&catalog);
    catalog.gc(1).expect("gc");
    let after = serve_from(&catalog);
    assert_eq!(
        before, after,
        "collecting sibling generations must not change what the survivor serves"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn catalog_verbs_drive_retention_over_a_connection() {
    let dir = scratch("verbs");
    let (catalog, fps) = replay_history(&dir.join("cat"));
    catalog.pin(fps[0], false).expect("unpin for this test");
    let router = Router::new(RouterConfig::default());
    router.mount_catalog(catalog.clone());

    let refs: Vec<String> = fps.iter().map(|&fp| format_ref(fp)).collect();
    let lines = serve_lines(
        &router,
        &format!(
            "hdx1 catalog_list id=1\n\
             hdx1 catalog_pin id=2 ref={r0} on=1\n\
             hdx1 catalog_evict id=3 ref={r0}\n\
             hdx1 load_bundle id=4 path={r2}\n\
             hdx1 catalog_evict id=5 ref={r2}\n\
             hdx1 catalog_evict id=6 ref={r1}\n\
             hdx1 catalog_list id=7\n",
            r0 = refs[0],
            r1 = refs[1],
            r2 = refs[2],
        ),
    );
    // The full five-generation listing, in canonical index order.
    assert!(
        lines[0].starts_with("hdx1 catalog id=1 count=5 "),
        "{}",
        lines[0]
    );
    assert_eq!(lines[1], format!("hdx1 pinned id=2 ref={} on=1", refs[0]));
    // A pinned object refuses eviction; so does one leased by the
    // bundle the connection just loaded.
    assert!(
        lines[2].starts_with("hdx1 error id=3 code=catalog"),
        "{}",
        lines[2]
    );
    assert!(
        lines[3].starts_with("hdx1 loaded id=4 task=cifar bundle_seed=7"),
        "{}",
        lines[3]
    );
    assert!(
        lines[4].starts_with("hdx1 error id=5 code=catalog"),
        "{}",
        lines[4]
    );
    // An unpinned, unleased generation evicts and frees its bytes.
    assert!(
        lines[5].starts_with(&format!("hdx1 evicted id=6 ref={} freed=", refs[1])),
        "{}",
        lines[5]
    );
    assert!(
        lines[6].starts_with("hdx1 catalog id=7 count=4 "),
        "{}",
        lines[6]
    );
    assert!(
        !lines[6].contains(&refs[1][4..]),
        "evicted fingerprint must leave the listing: {}",
        lines[6]
    );
    std::fs::remove_dir_all(&dir).ok();
}
