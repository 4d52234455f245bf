//! Workload-harness contracts (the PR-6 acceptance surface):
//!
//! * The seeded family generator expands `(family, seed)` keys into
//!   byte-identical bundle files, run to run.
//! * A recorded trace replays **byte-identically** over live TCP at
//!   connection counts {1, 4} × worker counts {1, 2, 4}, workload
//!   seeds 0–2 — and the `BENCH_serve.json` score block is
//!   bit-identical across all of those configurations because it is a
//!   pure function of trace content.
//! * The committed reference trace (`tests/data/serve_reference.trace`)
//!   replays byte-identically against freshly-trained reference
//!   bundles, and its score block matches the committed
//!   `BENCH_serve.json` verbatim. Set `HDX_UPDATE_REF=1` to regenerate
//!   both after an intentional behavior change.
//! * Corrupt trace files — every truncation prefix, single-bit flips —
//!   load as typed errors, never panics, never a silently shorter
//!   workload.

use hdx_core::{PreparedContext, Task};
use hdx_serve::{Router, RouterConfig};
use hdx_workload::{
    reference_requests, reference_specs, request_lines, spawn_tcp_router, trace_fnv, BundleSpec,
    Interleave, ReplayEnv, ServeBench, ServeScore, Trace, TraceError,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// The reference families' prepared contexts, trained once per test
/// process (the expansion is deterministic, so sharing is sound).
fn reference_contexts() -> &'static Vec<(Task, u64, Arc<PreparedContext>)> {
    static CTXS: OnceLock<Vec<(Task, u64, Arc<PreparedContext>)>> = OnceLock::new();
    CTXS.get_or_init(|| {
        reference_specs()
            .iter()
            .map(|spec| {
                let prepared = spec.train(2).into_prepared();
                (spec.task, spec.seed, Arc::new(prepared))
            })
            .collect()
    })
}

/// A router holding every reference bundle, at the given worker count.
fn reference_router(jobs: usize) -> Router {
    let router = Router::new(RouterConfig {
        jobs,
        ..RouterConfig::default()
    });
    for (task, seed, ctx) in reference_contexts() {
        router.insert_prepared(*task, *seed, Arc::clone(ctx));
    }
    router
}

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

#[test]
fn family_expansion_writes_byte_identical_bundles() {
    let dir = std::env::temp_dir().join("hdx_workload_family_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let spec = BundleSpec::expand_small(Task::Spheres, 2);
    let a_dir = dir.join("a");
    let b_dir = dir.join("b");
    std::fs::create_dir_all(&a_dir).expect("mkdir a");
    std::fs::create_dir_all(&b_dir).expect("mkdir b");
    // Two independent expansions — different worker counts on purpose.
    let a = spec.write_bundle(&a_dir, 1).expect("bundle a");
    let b = spec.write_bundle(&b_dir, 4).expect("bundle b");
    assert_eq!(
        std::fs::read(&a).expect("read a"),
        std::fs::read(&b).expect("read b"),
        "same (family, seed) key must expand to byte-identical bundles"
    );
    // And the artifact round-trips under its declared key.
    let loaded = hdx_serve::load_bundle(&a).expect("load bundle");
    assert_eq!((loaded.task, loaded.seed), (Task::Spheres, 2));
}

#[test]
fn score_block_is_bit_identical_across_replay_configs() {
    let recorder = reference_router(2);
    for workload_seed in 0..3u64 {
        // Seed 0 uses the full reference rotation; the others a
        // shorter stream to keep the sweep fast.
        let requests: Vec<String> = if workload_seed == 0 {
            reference_requests()
        } else {
            reference_specs()
                .iter()
                .enumerate()
                .flat_map(|(k, s)| {
                    request_lines(s.task, s.seed, workload_seed, 2, 1 + 100 * k as u64)
                })
                .collect()
        };
        let trace = Trace::record(&recorder, &requests).expect("record");
        let pinned = ServeScore::from_trace(&trace).expect("score").to_json();

        for jobs in [1usize, 2, 4] {
            let router = Arc::new(reference_router(jobs));
            let addr = spawn_tcp_router(Arc::clone(&router)).expect("bind");
            for conns in [1usize, 4] {
                let interleave = if conns == 4 && jobs == 4 {
                    Interleave::Blocks
                } else {
                    Interleave::RoundRobin
                };
                trace.replay(addr, conns, interleave).unwrap_or_else(|e| {
                    panic!("ws={workload_seed} jobs={jobs} conns={conns}: {e}")
                });
                // The score block is recomputed per configuration and
                // must not move by a bit.
                let again = ServeScore::from_trace(&trace).expect("score").to_json();
                assert_eq!(
                    again, pinned,
                    "ws={workload_seed} jobs={jobs} conns={conns}: score block diverged"
                );
            }
        }
    }
}

#[test]
fn bench_json_pins_score_and_reports_env() {
    let router = reference_router(2);
    let trace = Trace::record(&router, &reference_requests()).expect("record");
    let score = ServeScore::from_trace(&trace).expect("score");

    // ≥ 4 families, all verb rows present, throughput/latency fields
    // populated — the acceptance shape of BENCH_serve.json.
    assert!(score.families.len() >= 4, "families: {:?}", score.families);
    assert_eq!(score.verbs.len(), 4);
    assert!(score.verbs.iter().take(3).all(|v| v.jobs > 0));
    assert!(score.total_steps > 0 && score.jobs_per_kilostep > 0.0);
    assert_eq!(score.protocol_errors, 0);

    let env = |conns: usize| ReplayEnv {
        conns,
        jobs: 2,
        interleave: Interleave::RoundRobin.label().to_owned(),
        entries: trace.entries.len() as u64,
        trace_fnv: trace_fnv(&trace),
        bank: router.stats(),
    };
    let b1 = ServeBench::new(score.clone(), env(1)).to_json();
    let b4 = ServeBench::new(score.clone(), env(4)).to_json();
    assert_ne!(b1, b4, "env block must reflect the replay config");
    // …but both embed the identical pinned score block verbatim.
    let pinned = score.to_json();
    assert!(b1.contains(&pinned) && b4.contains(&pinned));
    for field in [
        "\"families\"",
        "\"verbs\"",
        "\"latency_steps\"",
        "\"jobs_per_kilostep\"",
        "\"mean_queue_depth\"",
        "\"trace_fnv\"",
        "\"hit_rate\"",
    ] {
        assert!(b1.contains(field), "missing {field} in {b1}");
    }
}

#[test]
fn committed_reference_trace_replays_byte_identically() {
    let trace_path = repo_path("tests/data/serve_reference.trace");
    let bench_path = repo_path("BENCH_serve.json");

    if std::env::var_os("HDX_UPDATE_REF").is_some() {
        let router = reference_router(2);
        let trace = Trace::record(&router, &reference_requests()).expect("record");
        std::fs::create_dir_all(trace_path.parent().expect("parent")).expect("mkdir data");
        trace.save(&trace_path).expect("save reference trace");
        let bench = ServeBench::new(
            ServeScore::from_trace(&trace).expect("score"),
            ReplayEnv {
                conns: 1,
                jobs: 2,
                interleave: Interleave::RoundRobin.label().to_owned(),
                entries: trace.entries.len() as u64,
                trace_fnv: trace_fnv(&trace),
                bank: router.stats(),
            },
        );
        bench.write(&bench_path).expect("write BENCH_serve.json");
        eprintln!(
            "regenerated {} and {}",
            trace_path.display(),
            bench_path.display()
        );
        return;
    }

    let trace = Trace::load(&trace_path).expect("committed trace loads");
    assert_eq!(trace.entries.len(), reference_requests().len());

    // Replay the committed bytes at every acceptance configuration.
    for jobs in [1usize, 2, 4] {
        let router = Arc::new(reference_router(jobs));
        let addr = spawn_tcp_router(Arc::clone(&router)).expect("bind");
        for conns in [1usize, 4] {
            trace
                .replay(addr, conns, Interleave::RoundRobin)
                .unwrap_or_else(|e| panic!("jobs={jobs} conns={conns}: {e}"));
        }
    }

    // The committed BENCH_serve.json embeds this trace's score block
    // verbatim (regenerate both with HDX_UPDATE_REF=1).
    let committed = std::fs::read_to_string(&bench_path).expect("committed BENCH_serve.json");
    let pinned = ServeScore::from_trace(&trace).expect("score").to_json();
    assert!(
        committed.contains(&pinned),
        "BENCH_serve.json score block out of date; rerun with HDX_UPDATE_REF=1"
    );
}

#[test]
fn trace_corruption_sweep_yields_typed_errors_never_panics() {
    let dir = std::env::temp_dir().join("hdx_workload_corruption_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    // A tiny synthetic trace keeps the sweep tight; the container
    // machinery is identical for recorded ones.
    let trace = Trace {
        entries: vec![
            hdx_workload::TraceEntry {
                request: "hdx1 ping id=1".to_owned(),
                expect: vec![
                    "hdx1 pong id=1".to_owned(),
                    "hdx1 pong id=900000000".to_owned(),
                ],
            },
            hdx_workload::TraceEntry {
                request: "ping".to_owned(),
                expect: vec!["pong".to_owned(), "hdx1 pong id=900000001".to_owned()],
            },
        ],
    };
    let good = dir.join("good.trace");
    trace.save(&good).expect("save");
    let bytes = std::fs::read(&good).expect("read");
    let mutated = dir.join("mutated.trace");

    // Every truncation prefix is a typed error (or, for len == full,
    // the intact trace).
    for len in 0..bytes.len() {
        std::fs::write(&mutated, &bytes[..len]).expect("write truncated");
        match Trace::load(&mutated) {
            Err(TraceError::Ckpt(_) | TraceError::UnsupportedVersion(_)) => {}
            Err(other) => panic!("truncation at {len}: unexpected error class {other}"),
            Ok(_) => panic!("truncation at {len} loaded silently"),
        }
    }

    // Single-bit flips at every byte: detected (typed error), never a
    // silently different workload.
    let mut undetected = 0usize;
    for pos in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << (pos % 8);
        std::fs::write(&mutated, &corrupt).expect("write corrupt");
        match Trace::load(&mutated) {
            Err(TraceError::Ckpt(_) | TraceError::UnsupportedVersion(_)) => {}
            Err(other) => panic!("flip at {pos}: unexpected error class {other}"),
            Ok(back) => {
                // The only acceptable Ok is a flip the container proves
                // harmless — i.e. the workload is bit-identical.
                if back != trace {
                    undetected += 1;
                }
            }
        }
    }
    assert_eq!(
        undetected, 0,
        "{undetected} corruptions changed the workload silently"
    );

    // A future version word is its own typed error, not a guess.
    // Build the container the way a v99 writer would — valid checksum,
    // newer format word.
    let future_path = dir.join("future.trace");
    let mut ck = hdx_tensor::ckpt::Checkpoint::new();
    ck.put_u64("trace.meta", &[2], &[99, 0]);
    ck.save(&future_path).expect("save v99");
    match Trace::load(&future_path) {
        Err(TraceError::UnsupportedVersion(99)) => {}
        other => panic!("expected UnsupportedVersion(99), got {other:?}"),
    }
}
