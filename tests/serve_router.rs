//! Router-layer contracts: multi-bundle routing, the v1 protocol and
//! its v0 shim, quota/deadline hardening, and resume bit-identity.
//!
//! * One router holding ≥ 2 `(task, seed)` bundles answers a mixed
//!   batch routed by task, byte-invariant to the worker count.
//! * A v0 client sees byte-identical responses whether or not v1
//!   machinery is in play; v1 responses are the v0 bytes plus the
//!   versioned tail.
//! * The per-connection quota and the per-job deterministic step
//!   deadline answer in-band typed errors.
//! * A search interrupted at an epoch boundary and resumed via the v1
//!   `resume` verb reports **byte-identically** to the uninterrupted
//!   run (seeds 0–2, jobs ∈ {1, 2, 4}).
//! * Trailing garbage after any complete request is a typed error
//!   naming the offending byte offset (fuzz-style sweep).
//! * Same bytes: every decoder outcome over the fuzz corpora, and a
//!   scripted connection covering every verb, fold into two pinned
//!   FNV-1a digests that a codec or router refactor must not move.

use hdx_core::{prepare_context_with, PreparedContext, Task};
use hdx_serve::v1;
use hdx_serve::{
    parse_request, save_bundle, task_code, Request, Router, RouterConfig, SearchRequest,
};
use hdx_surrogate::EstimatorConfig;
use std::io::Cursor;
use std::sync::{Arc, OnceLock};

fn cifar() -> Arc<PreparedContext> {
    static CTX: OnceLock<Arc<PreparedContext>> = OnceLock::new();
    Arc::clone(CTX.get_or_init(|| {
        Arc::new(prepare_context_with(
            Task::Cifar,
            7,
            1500,
            EstimatorConfig {
                epochs: 12,
                batch: 128,
                lr: 2e-3,
                ..Default::default()
            },
        ))
    }))
}

fn imagenet() -> Arc<PreparedContext> {
    static CTX: OnceLock<Arc<PreparedContext>> = OnceLock::new();
    Arc::clone(CTX.get_or_init(|| {
        Arc::new(prepare_context_with(
            Task::ImageNet,
            3,
            1200,
            EstimatorConfig {
                epochs: 10,
                batch: 128,
                lr: 2e-3,
                ..Default::default()
            },
        ))
    }))
}

/// A two-task router (the acceptance shape: one process, ≥ 2 bundles).
fn dual_router(cfg: RouterConfig) -> Router {
    let router = Router::new(cfg);
    router.insert_prepared(Task::Cifar, 7, cifar());
    router.insert_prepared(Task::ImageNet, 3, imagenet());
    router
}

fn quick(id: u64, task: Task, seed: u64) -> SearchRequest {
    SearchRequest {
        id,
        task,
        seed,
        epochs: 2,
        steps: 3,
        batch: 16,
        final_train: 40,
        constraints: vec![hdx_core::Constraint::fps(30.0)],
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

#[test]
fn mixed_task_batches_route_and_stay_worker_invariant() {
    let router = dual_router(RouterConfig::default());
    let reqs = vec![
        quick(1, Task::Cifar, 0),
        quick(2, Task::ImageNet, 0),
        SearchRequest {
            lambda_grid: vec![0.001, 0.01],
            constraints: Vec::new(),
            method: hdx_core::Method::Dance,
            ..quick(3, Task::Cifar, 1)
        },
    ];
    let reference: Vec<String> = router
        .run_batch(&reqs, 1)
        .into_iter()
        .map(|r| r.expect("valid").encode_v1())
        .collect();
    // 3 requests -> 4 jobs (the grid expands), in request order.
    assert_eq!(reference.len(), 4);
    assert!(reference[0].contains(" task=cifar "), "{}", reference[0]);
    assert!(reference[1].contains(" task=imagenet "), "{}", reference[1]);
    assert!(reference[2].contains("id=3#0 "), "{}", reference[2]);
    assert!(reference[3].contains("id=3#1 "), "{}", reference[3]);
    // Deterministic dispatch-position fields.
    for (pos, line) in reference.iter().enumerate() {
        assert!(
            line.contains(&format!("queue_pos={pos} queued_jobs=4")),
            "line: {line}"
        );
        assert!(
            line.contains(&format!("queue_len_at_dispatch={}", 4 - pos - 1)),
            "line: {line}"
        );
    }
    for jobs in [2, 4] {
        let got: Vec<String> = router
            .run_batch(&reqs, jobs)
            .into_iter()
            .map(|r| r.expect("valid").encode_v1())
            .collect();
        assert_eq!(got, reference, "jobs={jobs}: report bytes diverged");
    }

    // Per-task counters accumulated (3 runs of 4 jobs: 3 cifar + 1
    // imagenet each).
    let stats = router.stats();
    assert_eq!(stats.tasks.len(), 2);
    assert_eq!(stats.tasks[0].task, Task::Cifar);
    assert_eq!(stats.tasks[0].served, 9);
    assert_eq!(stats.tasks[1].task, Task::ImageNet);
    assert_eq!(stats.tasks[1].served, 3);
    assert_eq!(stats.requests_served, 12);
    assert!(stats.tasks[0].steps_used > 0);
}

#[test]
fn bundle_seed_pins_and_unload_is_in_band() {
    let router = dual_router(RouterConfig::default());
    // A second cifar bundle under a higher seed (same artifacts — the
    // point is which registry entry answers).
    router.insert_prepared(Task::Cifar, 9, cifar());
    assert_eq!(router.tasks().len(), 3);

    // Unpinned requests go to the lowest seed; pinned ones to theirs.
    let unpinned = quick(1, Task::Cifar, 0);
    let pinned = SearchRequest {
        bundle_seed: Some(9),
        ..quick(2, Task::Cifar, 0)
    };
    router.run_one(&unpinned).pop().unwrap().expect("unpinned");
    router.run_one(&pinned).pop().unwrap().expect("pinned");
    let stats = router.stats();
    let by_key: Vec<(u64, u64)> = stats
        .tasks
        .iter()
        .filter(|t| t.task == Task::Cifar)
        .map(|t| (t.bundle_seed, t.served))
        .collect();
    assert_eq!(by_key, vec![(7, 1), (9, 1)]);

    // A pin to a seed that is not registered is an in-band error.
    let missing = SearchRequest {
        bundle_seed: Some(42),
        ..quick(3, Task::Cifar, 0)
    };
    let err = router
        .run_one(&missing)
        .pop()
        .unwrap()
        .expect_err("missing seed");
    assert_eq!(err.kind.code(), "task_unavailable");

    // Unloading a bundle takes it out of rotation, in-band.
    let lines = serve_lines(
        &router,
        "hdx1 unload_bundle id=5 task=imagenet bundle_seed=3\n\
         hdx1 list_tasks id=6\n\
         hdx1 unload_bundle id=7 task=imagenet bundle_seed=3\n",
    );
    assert_eq!(lines[0], "hdx1 unloaded id=5 task=imagenet bundle_seed=3");
    assert!(lines[1].starts_with("hdx1 tasks id=6 count=2 "));
    assert!(lines[2].starts_with("hdx1 error id=7 code=task_unavailable"));
    let err = router
        .run_one(&quick(8, Task::ImageNet, 0))
        .pop()
        .unwrap()
        .expect_err("unloaded task");
    assert_eq!(err.id, 8);
    assert_eq!(err.kind.code(), "task_unavailable");
}

#[test]
fn runtime_load_bundle_serves_warm() {
    let dir = std::env::temp_dir().join("hdx_router_load_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("cifar.ckpt");
    let prepared = cifar();
    save_bundle(
        &path,
        Task::Cifar,
        7,
        1500,
        prepared.estimator_accuracy,
        prepared.estimator(),
        &[],
    )
    .expect("save bundle");

    // Starts empty: the task is unavailable until load_bundle arrives.
    let router = Router::new(RouterConfig::default());
    let req = quick(1, Task::Cifar, 0).encode();
    let lines = serve_lines(
        &router,
        &format!(
            "hdx1 list_tasks id=1\n\
             hdx1 {req}\n\
             hdx1 load_bundle id=2 path={}\n\
             hdx1 {req}\n\
             hdx1 load_bundle id=3 path={}/nope.ckpt\n",
            path.display(),
            dir.display()
        ),
    );
    assert_eq!(lines[0], "hdx1 tasks id=1 count=0");
    assert!(lines[1].starts_with("hdx1 error id=1 code=task_unavailable"));
    assert!(
        lines[2].starts_with("hdx1 loaded id=2 task=cifar bundle_seed=7"),
        "{}",
        lines[2]
    );
    assert!(lines[3].starts_with("hdx1 report id=1 "), "{}", lines[3]);
    assert!(
        lines[4].starts_with("hdx1 error id=3 code=checkpoint"),
        "{}",
        lines[4]
    );

    // The runtime-loaded bundle answers byte-identically to the
    // in-process artifacts (warm-start bit-identity through the
    // registry path).
    let direct = dual_router(RouterConfig::default());
    let report = direct
        .run_one(&quick(1, Task::Cifar, 0))
        .pop()
        .unwrap()
        .expect("direct");
    assert_eq!(lines[3], report.encode_v1());
    std::fs::remove_file(&path).ok();
}

#[test]
fn quota_and_deadline_are_enforced_in_band() {
    // Quota: the connection dies after `limit` lines, answering the
    // overflowing one with a typed error in its own framing.
    let router = dual_router(RouterConfig {
        max_requests_per_conn: Some(3),
        ..RouterConfig::default()
    });
    let lines = serve_lines(&router, "ping\nping\nhdx1 ping id=9\nping\nping\n");
    assert_eq!(
        lines,
        vec![
            "pong".to_owned(),
            "pong".to_owned(),
            "hdx1 pong id=9".to_owned(),
            "error id=0 msg=connection_exceeded_its_3-request_quota".to_owned(),
        ]
    );
    // …and in v1 framing when the overflowing line is v1.
    let lines = serve_lines(&router, "ping\nping\nping\nhdx1 ping id=4\n");
    assert_eq!(
        lines[3],
        "hdx1 error id=0 code=quota_exceeded msg=connection_exceeded_its_3-request_quota"
    );

    // Deadline: a job whose deterministic step budget exceeds the cap
    // is rejected before any work runs; smaller jobs still serve.
    let router = dual_router(RouterConfig {
        deadline_steps: Some(50),
        ..RouterConfig::default()
    });
    let ok = quick(1, Task::Cifar, 0); // budget 2·3 + 40 = 46 ≤ 50
    let too_big = SearchRequest {
        epochs: 40,
        steps: 50,
        final_train: 4000,
        ..quick(2, Task::Cifar, 0)
    };
    let outcomes = router.run_batch(&[ok.clone(), too_big.clone()], 2);
    assert!(outcomes[0].is_ok());
    let err = outcomes[1].as_ref().expect_err("over deadline");
    assert_eq!(err.id, 2);
    assert_eq!(err.kind.code(), "deadline_exceeded");
    assert_eq!(
        err.kind,
        hdx_serve::ErrorKind::DeadlineExceeded {
            budget: too_big.step_budget(),
            limit: 50
        }
    );
    // Meta-searches are charged their worst case.
    let meta = SearchRequest {
        max_searches: 2,
        ..quick(3, Task::Cifar, 0)
    };
    let err = router.run_one(&meta).pop().unwrap().expect_err("meta over");
    assert_eq!(err.kind.code(), "deadline_exceeded");
}

/// One call the router made on its writer: `Some(bytes)` for a
/// `write`, `None` for a `flush`.
type WriteEvent = Option<Vec<u8>>;

/// A writer that logs every `write` and `flush` it receives.
#[derive(Default)]
struct LoggingWriter(Vec<WriteEvent>);

impl std::io::Write for LoggingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.push(Some(buf.to_vec()));
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.push(None);
        Ok(())
    }
}

/// Serves `input` into a [`LoggingWriter`] and returns, per flush, the
/// bytes of the single `write` before it — asserting that every write
/// is followed by a flush, so nothing leaves by way of `Drop`.
fn serve_flushes(router: &Router, input: &str) -> Vec<String> {
    let mut log = LoggingWriter::default();
    router
        .serve_connection(Cursor::new(input.to_owned()), &mut log)
        .expect("serve");
    assert_eq!(log.0.len() % 2, 0, "unpaired write/flush: {:?}", log.0);
    log.0
        .chunks(2)
        .map(|pair| match pair {
            [Some(bytes), None] => String::from_utf8(bytes.clone()).expect("utf-8"),
            other => panic!("expected one write then one flush, got {other:?}"),
        })
        .collect()
}

#[test]
fn replies_leave_in_one_write_per_flush() {
    let router = dual_router(RouterConfig::default());
    let grid = "hdx1 grid id=2 task=cifar lambda_grid=0.001,0.01 epochs=2 steps=3 batch=16 \
                final_train=40 seed=1";
    // A two-job batch flushes as one write, then the ping's reply.
    let flushes = serve_flushes(&router, &format!("{grid}\nhdx1 ping id=3\n"));
    assert_eq!(flushes.len(), 2, "{flushes:?}");
    let reports: Vec<&str> = flushes[0].lines().collect();
    assert_eq!(reports.len(), 2);
    assert!(
        reports.iter().all(|l| l.starts_with("hdx1 report id=2#")),
        "{reports:?}"
    );
    assert_eq!(flushes[1], "hdx1 pong id=3\n");
    // Same bytes as an in-memory connection.
    assert_eq!(
        flushes.concat(),
        serve_lines(&router, &format!("{grid}\nhdx1 ping id=3\n")).join("\n") + "\n"
    );

    // EOF with a batch pending: the batch is flushed explicitly.
    let flushes = serve_flushes(&router, &format!("{grid}\n"));
    assert_eq!(flushes.len(), 1);
    assert_eq!(flushes[0].lines().count(), 2);

    // Quota refusal: the accepted batch, then the in-band refusal,
    // each flushed before the connection closes.
    let limited = dual_router(RouterConfig {
        max_requests_per_conn: Some(1),
        ..RouterConfig::default()
    });
    let flushes = serve_flushes(&limited, &format!("{grid}\nhdx1 ping id=3\nping\n"));
    assert_eq!(flushes.len(), 2, "{flushes:?}");
    assert_eq!(flushes[0].lines().count(), 2);
    assert!(flushes[1].starts_with("hdx1 error id=0 code=quota_exceeded "));
}

#[test]
fn v0_shim_is_byte_identical_and_v1_extends_it() {
    let router = dual_router(RouterConfig::default());
    let fields = "id=21 task=imagenet seed=1 epochs=2 steps=3 batch=16 final_train=40 fps=30";
    // One connection interleaving a v0 and a v1 client's traffic.
    let lines = serve_lines(
        &router,
        &format!(
            "ping\n\
             hdx1 ping id=20\n\
             search {fields}\n\
             hdx1 search {fields}\n\
             stats trailing\n\
             hdx2 ping id=22\n"
        ),
    );
    assert_eq!(lines[0], "pong");
    assert_eq!(lines[1], "hdx1 pong id=20");
    // The v0 report is the exact PR-4 byte stream…
    let direct = router
        .run_one(&quick(21, Task::ImageNet, 1))
        .pop()
        .unwrap()
        .expect("direct");
    assert_eq!(lines[2], direct.encode());
    assert!(!lines[2].contains("queue_pos"));
    // …and the v1 report is those same bytes behind the version token,
    // plus the deterministic dispatch tail (both searches flushed as
    // one two-job batch, so the v1 job dispatched second).
    assert!(lines[3].starts_with(&format!("hdx1 {}", lines[2])));
    assert!(lines[3].ends_with("queue_pos=1 queued_jobs=2 queue_len_at_dispatch=0 steps_used=46"));
    // The v1 line round-trips through the canonical response decoder.
    match v1::decode_response(&lines[3]).expect("decode").body {
        v1::ResponseBody::Report(r) => {
            assert_eq!(r.id, 21);
            assert_eq!(r.encode(), lines[2]);
        }
        other => panic!("unexpected body {other:?}"),
    }
    // Trailing garbage on a v0 control verb is now a typed error…
    assert!(lines[4].starts_with("error id=0 msg=trailing_input"));
    // …and an unknown version token is a v1-framed mismatch error.
    assert!(lines[5].starts_with("hdx1 error id=0 code=version_mismatch"));
}

#[test]
fn resume_equals_uninterrupted_bit_for_bit() {
    let dir = std::env::temp_dir().join("hdx_router_resume_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let base = |id: u64, seed: u64, epochs: usize| SearchRequest {
        epochs,
        ..quick(id, Task::Cifar, seed)
    };

    for jobs in [1usize, 2, 4] {
        let router = dual_router(RouterConfig {
            jobs,
            ..RouterConfig::default()
        });
        // Reference: three uninterrupted 4-epoch searches (seeds 0–2).
        let reference: Vec<String> = router
            .run_batch(&[base(31, 0, 4), base(32, 1, 4), base(33, 2, 4)], jobs)
            .into_iter()
            .map(|r| r.expect("reference").encode_v1())
            .collect();

        // "Interrupt": run only 2 of the 4 epochs, snapshotting every
        // epoch — state-identical to a search killed mid-flight.
        let interrupted: Vec<SearchRequest> = (0..3u64)
            .map(|seed| SearchRequest {
                checkpoint: Some(
                    dir.join(format!("s{seed}_j{jobs}.ckpt"))
                        .display()
                        .to_string(),
                ),
                ..base(31 + seed, seed, 2)
            })
            .collect();
        for outcome in router.run_batch(&interrupted, jobs) {
            outcome.expect("interrupted run");
        }

        // Resume through the protocol: same fields, full schedule,
        // the `resume` verb pointing at the snapshot.
        let resume_input: String = interrupted
            .iter()
            .map(|req| {
                let line = SearchRequest {
                    epochs: 4,
                    ..req.clone()
                }
                .encode();
                format!(
                    "hdx1 resume {}\n",
                    line.strip_prefix("search ").expect("search prefix")
                )
            })
            .collect();
        let resumed = serve_lines(&router, &resume_input);
        assert_eq!(
            resumed, reference,
            "jobs={jobs}: resumed reports diverged from uninterrupted"
        );
    }

    // A resume whose fields disagree with the snapshot is a typed
    // in-band error, not a wrong answer.
    let router = dual_router(RouterConfig::default());
    let path = dir.join("s0_j1.ckpt").display().to_string();
    let mismatched = SearchRequest {
        seed: 5,
        checkpoint: Some(path),
        resume_from_checkpoint: true,
        ..base(40, 0, 4)
    };
    let err = router
        .run_one(&SearchRequest {
            seed: 5,
            ..mismatched
        })
        .pop()
        .unwrap()
        .expect_err("fingerprint mismatch");
    assert_eq!(err.kind.code(), "checkpoint");
    // And a missing snapshot file likewise.
    let gone = SearchRequest {
        checkpoint: Some(dir.join("missing.ckpt").display().to_string()),
        resume_from_checkpoint: true,
        ..base(41, 0, 4)
    };
    let err = router.run_one(&gone).pop().unwrap().expect_err("no file");
    assert_eq!(err.kind.code(), "checkpoint");
}

/// Complete, valid request lines in both framings — every v1 verb.
const TRAILING_BASES: [&str; 17] = [
    "stats",
    "ping",
    "hdx1 stats id=1",
    "hdx1 ping id=1",
    "hdx1 list_tasks id=1",
    "search id=1 fps=30",
    "hdx1 search id=1 fps=30",
    "hdx1 grid id=1 lambda_grid=0.5,1",
    "hdx1 meta id=1 fps=30 max_searches=2",
    "hdx1 resume id=1 ckpt=/tmp/s.ckpt",
    "hdx1 load_bundle id=1 path=/tmp/b.ckpt",
    "hdx1 load_bundle id=1 path=cat:00000000000000ff",
    "hdx1 unload_bundle id=1 task=cifar bundle_seed=0",
    "hdx1 metrics id=1",
    "hdx1 catalog_list id=1",
    "hdx1 catalog_pin id=1 ref=cat:00000000000000ff on=1",
    "hdx1 catalog_evict id=1 ref=cat:00000000000000ff",
];

/// A corpus of garbage suffixes: bare tokens, stray verbs, unknown
/// fields, malformed pairs.
const TRAILING_GARBAGE: [&str; 8] = ["x", "1", "stats", "ping", "frob=1", "=x", "##", "id"];

#[test]
fn trailing_garbage_sweep_rejects_with_offsets() {
    let bases = TRAILING_BASES;
    let garbage = TRAILING_GARBAGE;
    for base in bases {
        // The base itself parses.
        let ok = if base.starts_with("hdx1") {
            v1::decode_request(base).is_ok()
        } else {
            parse_request(base).is_ok()
        };
        assert!(ok, "base \"{base}\" must parse");
        for g in garbage {
            // "id" alone is a valid-looking prefix only for key=value
            // verbs; it must still fail (no '=').
            let line = format!("{base} {g}");
            let err = if base.starts_with("hdx1") {
                v1::decode_request(&line).expect_err(&line)
            } else {
                parse_request(&line).expect_err(&line)
            };
            // Every rejection names the offending byte offset — and it
            // is exactly where the garbage starts.
            assert_eq!(
                err.kind.offset(),
                Some(base.len() + 1),
                "line \"{line}\" kind {:?}",
                err.kind
            );
        }
    }
}

/// Every decoder entry point, so the fuzz sweep exercises one line
/// through the decoder that owns it.
fn fuzz_decode(line: &str, dir: FuzzDir) -> Option<usize> {
    let err = match dir {
        FuzzDir::V0Request => parse_request(line).map(drop).err(),
        FuzzDir::V1Request => v1::decode_request(line).map(drop).err(),
        FuzzDir::V1Response => v1::decode_response(line).map(drop).err(),
    };
    err.map(|e| e.kind.offset().unwrap_or(0))
}

#[derive(Clone, Copy, Debug)]
enum FuzzDir {
    V0Request,
    V1Request,
    V1Response,
}

/// Byte substitutions chosen to hit every parser family: alpha, digit,
/// structural '=', field separator ' ', comment-ish '#'.
const FUZZ_SUBSTITUTIONS: [u8; 5] = [b'z', b'0', b'=', b' ', b'#'];

/// The byte-mutation corpus: the full v0 grammar plus all thirteen v1
/// request verbs, built through the real encoders so they are
/// canonical by construction, and every response verb — a served
/// report (`report_v1`), a stats reply over `stats`, and the control
/// responses.
fn fuzz_corpus(report_v1: String, stats: v1::StatsReport) -> Vec<(String, FuzzDir)> {
    use v1::{Envelope, RequestBody, ResponseBody};

    let grid_req = SearchRequest {
        lambda_grid: vec![0.001, 0.01],
        ..quick(1, Task::Cifar, 0)
    };
    let resume_req = SearchRequest {
        resume_from_checkpoint: true,
        checkpoint: Some("/tmp/s.ckpt".to_owned()),
        ..quick(2, Task::Cifar, 0)
    };
    let meta_req = SearchRequest {
        max_searches: 4,
        ..quick(3, Task::ImageNet, 1)
    };
    let enc = v1::encode_request;
    let requests: Vec<(String, FuzzDir)> = [
        (grid_req.encode(), FuzzDir::V0Request),
        ("stats".to_owned(), FuzzDir::V0Request),
        ("ping".to_owned(), FuzzDir::V0Request),
        (
            enc(&Envelope::v1(
                1,
                RequestBody::Search(quick(1, Task::Cifar, 0)),
            )),
            FuzzDir::V1Request,
        ),
        (
            enc(&Envelope::v1(1, RequestBody::Grid(grid_req))),
            FuzzDir::V1Request,
        ),
        (
            enc(&Envelope::v1(3, RequestBody::Meta(meta_req))),
            FuzzDir::V1Request,
        ),
        (
            enc(&Envelope::v1(2, RequestBody::Resume(resume_req))),
            FuzzDir::V1Request,
        ),
        (
            enc(&Envelope::v1(4, RequestBody::Stats)),
            FuzzDir::V1Request,
        ),
        (enc(&Envelope::v1(5, RequestBody::Ping)), FuzzDir::V1Request),
        (
            enc(&Envelope::v1(
                6,
                RequestBody::LoadBundle {
                    path: "/tmp/b.ckpt".to_owned(),
                },
            )),
            FuzzDir::V1Request,
        ),
        (
            enc(&Envelope::v1(
                7,
                RequestBody::UnloadBundle {
                    task: Task::Cifar,
                    bundle_seed: 0,
                },
            )),
            FuzzDir::V1Request,
        ),
        (
            enc(&Envelope::v1(8, RequestBody::ListTasks)),
            FuzzDir::V1Request,
        ),
        (
            enc(&Envelope::v1(9, RequestBody::Metrics)),
            FuzzDir::V1Request,
        ),
        (
            enc(&Envelope::v1(
                10,
                RequestBody::LoadBundle {
                    path: "cat:00000000000000ff".to_owned(),
                },
            )),
            FuzzDir::V1Request,
        ),
        (
            enc(&Envelope::v1(11, RequestBody::CatalogList)),
            FuzzDir::V1Request,
        ),
        (
            enc(&Envelope::v1(
                12,
                RequestBody::CatalogPin {
                    fingerprint: 0x0123_4567_89ab_cdef,
                    on: true,
                },
            )),
            FuzzDir::V1Request,
        ),
        (
            enc(&Envelope::v1(
                13,
                RequestBody::CatalogEvict {
                    fingerprint: 0x00ff_0000_0000_0001,
                },
            )),
            FuzzDir::V1Request,
        ),
    ]
    .into_iter()
    .collect();

    let entry = v1::TaskEntry {
        task: Task::ImageNet,
        bundle_seed: 3,
        estimator_accuracy: 0.875,
    };
    let proto_err = parse_request("bogus").expect_err("bogus line");
    let encr = v1::encode_response;
    let stats_line = encr(&Envelope::v1(11, ResponseBody::Stats(stats)));
    let responses: Vec<(String, FuzzDir)> = vec![
        (report_v1, FuzzDir::V1Response),
        (stats_line, FuzzDir::V1Response),
        (
            encr(&Envelope::v1(12, ResponseBody::Pong)),
            FuzzDir::V1Response,
        ),
        (
            encr(&Envelope::v1(13, ResponseBody::Loaded(entry.clone()))),
            FuzzDir::V1Response,
        ),
        (
            encr(&Envelope::v1(
                14,
                ResponseBody::Unloaded {
                    task: Task::Cifar,
                    bundle_seed: 7,
                },
            )),
            FuzzDir::V1Response,
        ),
        (
            encr(&Envelope::v1(15, ResponseBody::Tasks(vec![entry]))),
            FuzzDir::V1Response,
        ),
        (
            encr(&Envelope::v1(16, ResponseBody::Error(proto_err))),
            FuzzDir::V1Response,
        ),
        (
            encr(&Envelope::v1(
                17,
                ResponseBody::Metrics(vec![
                    ("bank.hit".to_owned(), 12),
                    ("engine.searches".to_owned(), 3),
                    ("router.verb.metrics".to_owned(), 1),
                ]),
            )),
            FuzzDir::V1Response,
        ),
        (
            encr(&Envelope::v1(
                18,
                ResponseBody::Catalog(vec![
                    v1::CatalogEntry {
                        task: Task::Cifar,
                        family: "train".to_owned(),
                        seed: 0,
                        gen: 1,
                        fingerprint: 0x00ab_cdef_0123_4567,
                        len: 4096,
                        pinned: false,
                    },
                    v1::CatalogEntry {
                        task: Task::ImageNet,
                        family: "workload".to_owned(),
                        seed: 2,
                        gen: 3,
                        fingerprint: u64::MAX,
                        len: 65536,
                        pinned: true,
                    },
                ]),
            )),
            FuzzDir::V1Response,
        ),
        (
            encr(&Envelope::v1(
                19,
                ResponseBody::Pinned {
                    fingerprint: 0x0123_4567_89ab_cdef,
                    on: true,
                },
            )),
            FuzzDir::V1Response,
        ),
        (
            encr(&Envelope::v1(
                20,
                ResponseBody::Evicted {
                    fingerprint: 0xfeed_face_0000_0001,
                    freed: 8192,
                },
            )),
            FuzzDir::V1Response,
        ),
    ];
    requests.into_iter().chain(responses).collect()
}

/// A served report line in v1 framing (a pure function of the request).
fn live_report_v1(router: &Router) -> String {
    router
        .run_one(&quick(10, Task::Cifar, 0))
        .pop()
        .unwrap()
        .expect("report")
        .encode_v1()
}

#[test]
fn byte_mutation_fuzz_sweep_never_panics_and_keeps_offsets_in_bounds() {
    // Canonical response lines include a live report (both framings
    // answer with the same body; the v1 tail adds the queue fields)
    // and the router's actual stats.
    let router = dual_router(RouterConfig::default());
    let corpus = fuzz_corpus(live_report_v1(&router), router.stats());
    let substitutions = FUZZ_SUBSTITUTIONS;

    for (line, dir) in &corpus {
        // The canonical line itself must decode.
        assert!(
            fuzz_decode(line, *dir).is_none(),
            "canonical line must decode: {line}"
        );
        let bytes = line.as_bytes();
        for i in 0..bytes.len() {
            for &sub in &substitutions {
                if bytes[i] == sub {
                    continue;
                }
                let mut mutated = bytes.to_vec();
                mutated[i] = sub;
                // All-ASCII corpus: single-byte substitution stays UTF-8.
                let mutated = String::from_utf8(mutated).expect("ascii corpus");
                if let Some(offset) = fuzz_decode(&mutated, *dir) {
                    assert!(
                        offset <= mutated.len(),
                        "offset {offset} out of bounds for {dir:?} line \"{mutated}\""
                    );
                }
            }
            // Multi-byte insertion at every boundary hardens slicing:
            // any offset the decoder reports must still be in bounds.
            let mut inserted = line.clone();
            inserted.insert(i, 'π');
            if let Some(offset) = fuzz_decode(&inserted, *dir) {
                assert!(
                    offset <= inserted.len(),
                    "offset {offset} out of bounds for {dir:?} line \"{inserted}\""
                );
            }
        }
    }
}

/// One decoder outcome in canonical form: the re-encoded value on
/// success (with the envelope's request id), the framing's error line
/// on failure.
fn decode_outcome(line: &str, dir: FuzzDir) -> String {
    match dir {
        FuzzDir::V0Request => match parse_request(line) {
            Ok(Request::Search(req)) => req.encode(),
            Ok(Request::Stats) => "stats".to_owned(),
            Ok(Request::Ping) => "ping".to_owned(),
            Err(err) => err.encode(),
        },
        FuzzDir::V1Request => match v1::decode_request(line) {
            Ok(env) => format!("{} {}", env.request_id, v1::encode_request(&env)),
            Err(err) => err.encode_v1(),
        },
        FuzzDir::V1Response => match v1::decode_response(line) {
            Ok(env) => format!("{} {}", env.request_id, v1::encode_response(&env)),
            Err(err) => err.encode_v1(),
        },
    }
}

/// Hand-picked lines at the codec's edges: duplicate keys, absent
/// `count=`, `bank_cap=none`, fields a verb does not take, empty
/// values, out-of-order entries, and the errors' `id=` carry.
const EDGE_LINES: &[(&str, FuzzDir)] = &[
    ("search id=1 id=2 fps=30 fps=20", FuzzDir::V0Request),
    ("search fps=x id=2", FuzzDir::V0Request),
    (
        "search id=9 method=dance method=nas lambda_macs=0.5",
        FuzzDir::V0Request,
    ),
    ("search id=3 max_searches=2", FuzzDir::V0Request),
    ("search id=4 ckpt=", FuzzDir::V0Request),
    ("", FuzzDir::V0Request),
    ("hdx1 ping id=1 id=2", FuzzDir::V1Request),
    ("hdx1 ping frob=1 id=2", FuzzDir::V1Request),
    ("hdx1 ping id=2 frob=1", FuzzDir::V1Request),
    ("hdx1", FuzzDir::V1Request),
    ("ping", FuzzDir::V1Request),
    ("", FuzzDir::V1Request),
    ("hdx1 load_bundle id=1 path=", FuzzDir::V1Request),
    ("hdx1 load_bundle id=1 path=/a path=/b", FuzzDir::V1Request),
    ("hdx1 unload_bundle id=4", FuzzDir::V1Request),
    ("hdx1 unload_bundle id=4 bundle_seed=1", FuzzDir::V1Request),
    (
        "hdx1 unload_bundle id=1 task=cifar task=imagenet bundle_seed=0",
        FuzzDir::V1Request,
    ),
    ("hdx1 catalog_pin on=1 id=3", FuzzDir::V1Request),
    (
        "hdx1 catalog_pin id=3 ref=cat:00000000000000ff ref=cat:0000000000000001 on=1 on=0",
        FuzzDir::V1Request,
    ),
    ("hdx1 catalog_evict id=5 ref=cat:", FuzzDir::V1Request),
    ("hdx1 search id=1 lambda_grid=0.1,0.2", FuzzDir::V1Request),
    ("hdx1 search id=1 fps=30 max_searches=2", FuzzDir::V1Request),
    ("hdx1 search id=1 ckpt=", FuzzDir::V1Request),
    ("hdx1 search id=1 bundle_seed=x", FuzzDir::V1Request),
    ("hdx1 grid id=7", FuzzDir::V1Request),
    (
        "hdx1 grid id=7 lambda_grid=0.1 ckpt=/tmp/g.ckpt",
        FuzzDir::V1Request,
    ),
    ("hdx1 meta id=8 fps=30", FuzzDir::V1Request),
    (
        "hdx1 meta id=8 fps=30 max_searches=2 ckpt=/tmp/m.ckpt",
        FuzzDir::V1Request,
    ),
    ("hdx1 resume id=9", FuzzDir::V1Request),
    (
        "hdx1 resume id=9 ckpt=/tmp/r.ckpt max_searches=2 fps=30",
        FuzzDir::V1Request,
    ),
    (
        "hdx1 resume id=9 ckpt=/tmp/r.ckpt lambda_grid=0.1",
        FuzzDir::V1Request,
    ),
    ("hdx1 tasks id=1 task=cifar:0:0.5", FuzzDir::V1Response),
    (
        "hdx1 tasks id=1 id=2 count=1 task=cifar:0:0.5",
        FuzzDir::V1Response,
    ),
    (
        "hdx1 tasks id=1 count=2 task=cifar:0:0.5",
        FuzzDir::V1Response,
    ),
    ("hdx1 tasks id=1 count=0 task=cifar:0", FuzzDir::V1Response),
    ("hdx1 metrics id=1 bank.hit=1", FuzzDir::V1Response),
    ("hdx1 metrics id=1 count=2 b=1 a=2", FuzzDir::V1Response),
    ("hdx1 metrics id=1 count=2 a=1 a=2", FuzzDir::V1Response),
    ("hdx1 metrics id=1 count=1 a=x", FuzzDir::V1Response),
    ("hdx1 metrics count=1 id=4 a=1", FuzzDir::V1Response),
    (
        "hdx1 catalog id=1 entry=cifar:train:0:1:00000000000000ff:4096:0",
        FuzzDir::V1Response,
    ),
    (
        "hdx1 catalog id=1 count=1 entry=cifar::0:1:00000000000000ff:4096:0",
        FuzzDir::V1Response,
    ),
    (
        "hdx1 catalog id=1 count=1 entry=cifar:train:0:1:ff:4096:0",
        FuzzDir::V1Response,
    ),
    (
        "hdx1 catalog id=1 count=2 entry=cifar:train:0:1:00000000000000ff:4096:1",
        FuzzDir::V1Response,
    ),
    (
        "hdx1 stats id=1 programs=1 idle_sessions=0 hits=0 misses=0 evictions=0 bank_cap=none \
         requests_served=0",
        FuzzDir::V1Response,
    ),
    (
        "hdx1 stats id=1 hits=3 hits=4 bank_cap=16 bank_cap=none",
        FuzzDir::V1Response,
    ),
    ("hdx1 stats id=1 bank_cap=x", FuzzDir::V1Response),
    (
        "hdx1 stats id=1 task=cifar:0:1:2:3:4:5",
        FuzzDir::V1Response,
    ),
    (
        "hdx1 stats id=1 task=cifar:0:1:2:3:4:5:6 task=imagenet:1:0:0:0:0:0:0",
        FuzzDir::V1Response,
    ),
    (
        "hdx1 loaded id=1 task=cifar bundle_seed=0",
        FuzzDir::V1Response,
    ),
    (
        "hdx1 loaded id=1 task=cifar bundle_seed=0 bundle_seed=1 estimator_accuracy=0.5",
        FuzzDir::V1Response,
    ),
    (
        "hdx1 loaded id=1 task=cifar bundle_seed=0 estimator_accuracy=x",
        FuzzDir::V1Response,
    ),
    ("hdx1 loaded id=1 bundle_seed=0", FuzzDir::V1Response),
    (
        "hdx1 unloaded id=1 task=cifar bundle_seed=0 estimator_accuracy=0.5",
        FuzzDir::V1Response,
    ),
    ("hdx1 unloaded id=1 task=cifar", FuzzDir::V1Response),
    ("hdx1 pinned id=1", FuzzDir::V1Response),
    (
        "hdx1 pinned id=1 ref=cat:00000000000000ff",
        FuzzDir::V1Response,
    ),
    (
        "hdx1 pinned id=1 ref=cat:00000000000000ff on=2",
        FuzzDir::V1Response,
    ),
    (
        "hdx1 evicted id=2 ref=cat:00000000000000ff",
        FuzzDir::V1Response,
    ),
    ("hdx1 evicted id=2 freed=1", FuzzDir::V1Response),
    (
        "hdx1 evicted id=2 ref=cat:00000000000000ff on=1 freed=1",
        FuzzDir::V1Response,
    ),
    ("hdx1 error id=3 code=x offset=4 msg=y", FuzzDir::V1Response),
    ("hdx1 error id=3 code=x msg=y", FuzzDir::V1Response),
    ("hdx1 error id=3 msg=y", FuzzDir::V1Response),
    ("hdx1 error id=3 offset=4", FuzzDir::V1Response),
    ("hdx1 error id=3 offset=x", FuzzDir::V1Response),
    ("hdx1 pong id=5 id=6", FuzzDir::V1Response),
    ("hdx1 pong x", FuzzDir::V1Response),
    ("hdx1 report id=1#2 method=HDX", FuzzDir::V1Response),
    ("hdx1 report id=1#x", FuzzDir::V1Response),
    ("hdx1 report id=5 bogus=1", FuzzDir::V1Response),
    ("hdx1 report id=5 method=hdx", FuzzDir::V1Response),
    ("hdx1 report id=5 pe=4x", FuzzDir::V1Response),
    ("hdx1 report id=5 arch=", FuzzDir::V1Response),
    (
        "hdx1 report id=5 task=spheres dataflow=OS satisfied=true",
        FuzzDir::V1Response,
    ),
    ("hdx1 launch id=1", FuzzDir::V1Response),
    ("hdx2 pong id=1", FuzzDir::V1Response),
];

/// FNV-1a over newline-terminated lines.
fn digest_lines(lines: &[String]) -> u64 {
    hdx_tensor::ckpt::fnv1a((lines.join("\n") + "\n").as_bytes())
}

/// Same-bytes pin for the codec and the connection loop: (a) every
/// decoder outcome over the byte-mutation and trailing-garbage corpora,
/// each line's single-byte mutations, and [`EDGE_LINES`]; (b) a
/// scripted connection covering all thirteen v1 verbs, the v0 verbs, a
/// mounted catalog, and each control error path. Both digests must
/// stay fixed across any refactor of the protocol or router.
#[test]
fn same_bytes_pin_covers_decoder_outcomes_and_a_full_transcript() {
    // (a) Decoder outcomes. The stats row is fixed: live bank counters
    // are process-wide and move with tests running in parallel.
    let router = dual_router(RouterConfig::default());
    let stats = v1::StatsReport {
        programs: 3,
        idle_sessions: 1,
        hits: 40,
        misses: 2,
        evictions: 0,
        bank_cap: Some(256),
        requests_served: 5,
        tasks: vec![v1::TaskStats {
            task: Task::Cifar,
            bundle_seed: 7,
            served: 5,
            steps_used: 230,
            verbs: v1::VerbCounts {
                search: 2,
                grid: 2,
                meta: 0,
                resume: 1,
            },
        }],
    };
    let mut corpus = fuzz_corpus(live_report_v1(&router), stats);
    for base in TRAILING_BASES {
        let dir = if base.starts_with("hdx1") {
            FuzzDir::V1Request
        } else {
            FuzzDir::V0Request
        };
        corpus.push((base.to_owned(), dir));
        corpus.extend(
            TRAILING_GARBAGE
                .iter()
                .map(|g| (format!("{base} {g}"), dir)),
        );
    }
    corpus.extend(EDGE_LINES.iter().map(|&(line, dir)| (line.to_owned(), dir)));
    let mut outcomes = Vec::new();
    for (line, dir) in &corpus {
        outcomes.push(decode_outcome(line, *dir));
        for i in 0..line.len() {
            if !line.is_char_boundary(i) {
                continue;
            }
            for &sub in &FUZZ_SUBSTITUTIONS {
                let mut mutated = line.clone();
                mutated.replace_range(i..i + 1, &char::from(sub).to_string());
                outcomes.push(decode_outcome(&mutated, *dir));
            }
            let mut inserted = line.clone();
            inserted.insert(i, 'π');
            outcomes.push(decode_outcome(&inserted, *dir));
        }
    }
    let decoded = digest_lines(&outcomes);

    // (b) The transcript: searches of every class, a resume from a
    // snapshot, every control verb against a mounted catalog, and the
    // control error paths.
    let dir = std::env::temp_dir().join(format!("hdx_same_bytes_pin_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let prepared = cifar();
    let save = |pairs: usize| {
        let path = dir.join(format!("cifar_{pairs}.ckpt"));
        save_bundle(
            &path,
            Task::Cifar,
            7,
            pairs,
            prepared.estimator_accuracy,
            prepared.estimator(),
            &[],
        )
        .expect("save bundle");
        path
    };
    let loose = save(1500);
    let spare_path = save(1501);
    let catalog = hdx_catalog::Catalog::open(&dir.join("cat")).expect("open catalog");
    let cifar_code = u8::try_from(task_code(Task::Cifar)).expect("task code");
    let publish = |path: &std::path::Path| {
        let bytes = std::fs::read(path).expect("read bundle");
        let receipt = catalog
            .publish(cifar_code, "train", 7, &bytes)
            .expect("publish");
        hdx_catalog::format_ref(receipt.fingerprint)
    };
    let kept = publish(&loose);
    let spare = publish(&spare_path);
    router.mount_catalog(catalog.clone());

    let fields = |req: SearchRequest| {
        req.encode()
            .strip_prefix("search ")
            .expect("search prefix")
            .to_owned()
    };
    let ckpt = dir.join("resume.ckpt").display().to_string();
    let snapshot = SearchRequest {
        epochs: 1,
        checkpoint: Some(ckpt.clone()),
        ..quick(6, Task::Cifar, 2)
    };
    let resume = SearchRequest {
        epochs: 2,
        ..snapshot.clone()
    };
    let script = [
        "ping".to_owned(),
        "hdx1 ping id=1".to_owned(),
        quick(2, Task::Cifar, 0).encode(),
        format!("hdx1 search {}", fields(quick(3, Task::ImageNet, 1))),
        format!(
            "hdx1 grid {}",
            fields(SearchRequest {
                lambda_grid: vec![0.001, 0.01],
                constraints: Vec::new(),
                ..quick(4, Task::Cifar, 1)
            })
        ),
        format!(
            "hdx1 meta {}",
            fields(SearchRequest {
                max_searches: 2,
                ..quick(5, Task::ImageNet, 0)
            })
        ),
        format!("hdx1 search {}", fields(snapshot)),
        "stats".to_owned(),
        format!("hdx1 resume {}", fields(resume)),
        "hdx1 stats id=7".to_owned(),
        "hdx1 metrics id=8".to_owned(),
        "hdx1 list_tasks id=9".to_owned(),
        format!("hdx1 load_bundle id=10 path={}", loose.display()),
        format!("hdx1 load_bundle id=11 path={kept}"),
        "hdx1 catalog_list id=12".to_owned(),
        format!("hdx1 catalog_pin id=13 ref={spare} on=1"),
        format!("hdx1 catalog_evict id=14 ref={spare}"),
        format!("hdx1 catalog_pin id=15 ref={spare} on=0"),
        format!("hdx1 catalog_evict id=16 ref={spare}"),
        format!("hdx1 catalog_evict id=17 ref={kept}"),
        "hdx1 catalog_list id=18".to_owned(),
        "hdx1 unload_bundle id=19 task=imagenet bundle_seed=3".to_owned(),
        "hdx1 unload_bundle id=20 task=imagenet bundle_seed=3".to_owned(),
        format!("hdx1 search {}", fields(quick(21, Task::ImageNet, 0))),
        "hdx1 list_tasks id=22".to_owned(),
        "search id=23 frob=1".to_owned(),
        "hdx1 ping id=24 frob=1".to_owned(),
        "hdx2 ping id=25".to_owned(),
        "stats trailing".to_owned(),
    ];
    let mut transcript = serve_lines(&router, &(script.join("\n") + "\n"));
    // A router without a catalog answers catalog verbs in-band.
    let bare = Router::new(RouterConfig::default());
    transcript.extend(serve_lines(
        &bare,
        &format!(
            "hdx1 catalog_list id=26\nhdx1 catalog_pin id=27 ref={kept} on=1\n\
             hdx1 catalog_evict id=28 ref={kept}\nhdx1 load_bundle id=29 path={kept}\n"
        ),
    ));
    std::fs::remove_dir_all(&dir).ok();
    // `stats` and `metrics` values are process-wide: keep kind and id.
    let folded: Vec<String> = transcript
        .iter()
        .map(|line| {
            let keep = match line.split(' ').take(2).collect::<Vec<_>>()[..] {
                ["stats", ..] => 1,
                ["hdx1", "stats" | "metrics"] => 3,
                _ => usize::MAX,
            };
            line.split(' ').take(keep).collect::<Vec<_>>().join(" ")
        })
        .collect();
    assert_eq!(folded.len(), 34, "{folded:#?}");
    let served = digest_lines(&folded);

    assert_eq!(
        (decoded, served),
        (0xbeee_c29d_80d3_ab53, 0x0084_1bd2_4f9d_d800),
        "same-bytes digests moved: decoded={decoded:#018x} served={served:#018x}\n{folded:#?}"
    );
}

#[test]
fn per_verb_counters_pin_and_v0_stats_bytes_stay_frozen() {
    let router = dual_router(RouterConfig::default());
    let dir = std::env::temp_dir().join("hdx_router_verb_count_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join("verbs.ckpt").display().to_string();

    // One job per verb class, spread over both bundles and framings:
    //   cifar: v1 search, checkpointed v0 search, v1 resume
    //   cifar: v1 grid (expands to 2 jobs)
    //   imagenet: v0 search, v1 meta
    let snap = SearchRequest {
        checkpoint: Some(ckpt.clone()),
        ..quick(60, Task::Cifar, 0)
    };
    router.run_one(&snap).pop().unwrap().expect("snapshot run");
    let resume_line = format!(
        "hdx1 resume {}",
        SearchRequest {
            epochs: 4,
            ..snap.clone()
        }
        .encode()
        .strip_prefix("search ")
        .expect("search prefix")
    );
    let grid_line = format!(
        "hdx1 grid {}",
        SearchRequest {
            lambda_grid: vec![0.001, 0.01],
            ..quick(62, Task::Cifar, 1)
        }
        .encode()
        .strip_prefix("search ")
        .expect("search prefix")
    );
    let meta_line = format!(
        "hdx1 meta {}",
        SearchRequest {
            max_searches: 2,
            ..quick(63, Task::ImageNet, 0)
        }
        .encode()
        .strip_prefix("search ")
        .expect("search prefix")
    );
    let input = format!(
        "hdx1 search {}\n{grid_line}\n{meta_line}\n{}\n{resume_line}\n",
        quick(61, Task::Cifar, 2)
            .encode()
            .strip_prefix("search ")
            .expect("search prefix"),
        quick(64, Task::ImageNet, 1).encode(),
    );
    for line in serve_lines(&router, &input) {
        assert!(
            line.contains("report "),
            "expected only reports, got: {line}"
        );
    }

    // The typed counters pin the classification: the checkpointed v0
    // search counts as `search` (resume=false), the grid's expansion
    // counts per job, max_searches>1 counts as `meta` regardless of
    // framing.
    let stats = router.stats();
    let cifar_row = &stats.tasks[0];
    assert_eq!(cifar_row.task, Task::Cifar);
    assert_eq!(
        (
            cifar_row.verbs.search,
            cifar_row.verbs.grid,
            cifar_row.verbs.meta,
            cifar_row.verbs.resume
        ),
        (2, 2, 0, 1),
        "cifar verb counters"
    );
    assert_eq!(cifar_row.verbs.total(), cifar_row.served);
    let imagenet_row = &stats.tasks[1];
    assert_eq!(imagenet_row.task, Task::ImageNet);
    assert_eq!(
        (
            imagenet_row.verbs.search,
            imagenet_row.verbs.grid,
            imagenet_row.verbs.meta,
            imagenet_row.verbs.resume
        ),
        (1, 0, 1, 0),
        "imagenet verb counters"
    );
    assert_eq!(imagenet_row.verbs.total(), imagenet_row.served);

    // The counters surface through the v1 stats verb (8-field rows)…
    let v1_stats = serve_lines(&router, "hdx1 stats id=90\n").remove(0);
    let decoded = match v1::decode_response(&v1_stats).expect("stats decodes").body {
        v1::ResponseBody::Stats(s) => s,
        other => panic!("unexpected body {other:?}"),
    };
    assert_eq!(decoded.tasks, stats.tasks);
    assert!(
        v1_stats.contains("task=cifar:7:5:"),
        "v1 stats row should lead with label:seed:served: — {v1_stats}"
    );

    // …while the v0 stats line stays byte-frozen on the PR-4 grammar:
    // reconstructible field-for-field from the typed stats, with no
    // per-task rows and no verb counters.
    let v0_line = serve_lines(&router, "stats\n").remove(0);
    let s = router.stats();
    let expected = format!(
        "stats programs={} idle_sessions={} hits={} misses={} evictions={} bank_cap={} \
         requests_served={}",
        s.programs,
        s.idle_sessions,
        s.hits,
        s.misses,
        s.evictions,
        s.bank_cap
            .map_or_else(|| "none".to_owned(), |c| c.to_string()),
        s.requests_served
    );
    assert_eq!(v0_line, expected, "v0 stats bytes must not grow fields");
    assert!(!v0_line.contains("task="), "v0 shim must not leak v1 rows");
}
