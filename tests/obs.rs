//! Observability contracts (the determinism split, machine-checked):
//!
//! * Enabling the trace sink must not change a single response byte —
//!   the same serve sweep runs untraced and traced at jobs ∈ {1, 2, 4}
//!   over seeds 0–2 and is compared byte-for-byte.
//! * The obs registry counters are jobs-independent: the counter deltas
//!   one sweep produces are identical at every worker count (counting
//!   happens per logical dispatch, never per worker chunk).
//! * The produced trace validates against the v1 JSONL schema and
//!   carries every `engine.search` phase span (setup, epoch, final
//!   selection, final retrain, final evaluation). Training and saving
//!   a bundle records no `data.generate` span; loading it records
//!   exactly one (the dataset regeneration).
//! * The `metrics` verb snapshot is step-based (no wall-clock keys),
//!   strictly sorted, and equals the in-process registry snapshot.
//! * The `router.verb.*` counters, the `stats` rows and the workload
//!   score put a job line under the same verb, the one its options
//!   imply, in either framing.
//!
//! One `#[test]` function on purpose: `hdx_obs::init_file` is
//! process-global and sticky, so the untraced reference must run first
//! in the same process, and the registry counters are process-wide, so
//! their deltas are exact only with no other test serving alongside.

use hdx_core::{prepare_context_with, PreparedContext, SearchOptions, Task};
use hdx_serve::v1;
use hdx_serve::{Router, RouterConfig, SearchRequest};
use hdx_surrogate::EstimatorConfig;
use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::{Arc, OnceLock};

fn cifar() -> Arc<PreparedContext> {
    static CTX: OnceLock<Arc<PreparedContext>> = OnceLock::new();
    Arc::clone(CTX.get_or_init(|| {
        Arc::new(prepare_context_with(
            Task::Cifar,
            7,
            600,
            EstimatorConfig {
                epochs: 5,
                batch: 128,
                lr: 2e-3,
                ..Default::default()
            },
        ))
    }))
}

fn router(jobs: usize) -> Router {
    let r = Router::new(RouterConfig {
        jobs,
        ..RouterConfig::default()
    });
    r.insert_prepared(Task::Cifar, 7, cifar());
    r
}

fn serve_bytes(router: &Router, input: &str) -> Vec<u8> {
    let mut out = Vec::new();
    router
        .serve_connection(Cursor::new(input.to_owned()), &mut out)
        .expect("serve");
    out
}

/// The sweep: per seed 0–2, both framings of `search` plus a v1 `grid`,
/// interleaved with control verbs. `stats` and `metrics` are excluded
/// on purpose — their responses carry process-cumulative counters, so
/// they are legitimately history-dependent (their own determinism is
/// pinned separately below).
fn sweep_input() -> String {
    let mut input = String::from("ping\nhdx1 ping id=100\nhdx1 list_tasks id=101\n");
    for seed in 0..3u64 {
        let req = SearchRequest {
            id: 1 + seed,
            task: Task::Cifar,
            opts: SearchOptions {
                seed,
                epochs: 2,
                steps_per_epoch: 2,
                batch: 16,
                final_train_steps: 20,
                constraints: vec![hdx_core::Constraint::fps(30.0)],
                ..SearchOptions::default()
            },
            ..SearchRequest::default()
        };
        let fields = req.encode();
        let fields = fields.strip_prefix("search ").expect("search prefix");
        input.push_str(&format!("search {fields}\nhdx1 search {fields}\n"));
        let mut grid = SearchRequest {
            id: 10 + seed,
            lambda_grid: vec![0.001, 0.01],
            ..req
        };
        grid.opts.constraints.clear();
        let fields = grid.encode();
        let fields = fields.strip_prefix("search ").expect("search prefix");
        input.push_str(&format!("hdx1 grid {fields}\n"));
    }
    input
}

fn snapshot_map() -> BTreeMap<String, u64> {
    hdx_obs::snapshot().into_iter().collect()
}

/// Counter deltas across one sweep, excluding `bank.*`: bank hits and
/// misses depend on how warm the process-global program cache already
/// is (earlier sweeps compile, later ones hit), which is cache history,
/// not a jobs effect.
fn sweep_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> Vec<(String, u64)> {
    after
        .iter()
        .filter(|(name, _)| !name.starts_with("bank."))
        .map(|(name, v)| (name.clone(), v - before.get(name).copied().unwrap_or(0)))
        .collect()
}

#[test]
fn trace_sink_never_reaches_response_bytes() {
    let input = sweep_input();
    let jobs_sweep = [1usize, 2, 4];

    // Untraced reference, plus the per-sweep counter deltas.
    assert!(!hdx_obs::enabled(), "trace must start disabled");
    // Warm the shared prepared context and the process-global program
    // bank first: the lazy `cifar()` preparation and cold-cache
    // compiles are one-time history, and the delta comparison below is
    // about worker count, not warmup. (Responses themselves are
    // cache-state-invariant, which the reference comparison re-checks.)
    let warmup = serve_bytes(&router(1), &input);
    let mut reference = Vec::new();
    let mut deltas = Vec::new();
    for jobs in jobs_sweep {
        let before = snapshot_map();
        reference.push(serve_bytes(&router(jobs), &input));
        deltas.push(sweep_delta(&before, &snapshot_map()));
    }
    assert_eq!(
        warmup, reference[0],
        "responses must be cache-state-invariant"
    );
    assert_eq!(
        reference[0], reference[1],
        "untraced responses must be jobs-invariant"
    );
    assert_eq!(reference[1], reference[2]);
    assert!(
        !deltas[0].is_empty(),
        "the sweep must move obs counters at all"
    );
    assert_eq!(
        deltas[0], deltas[1],
        "obs counter deltas must be jobs-invariant"
    );
    assert_eq!(deltas[1], deltas[2]);

    // Same sweep with the trace sink live: bytes must not move.
    let trace_path = std::env::temp_dir()
        .join("hdx_obs_test_trace.jsonl")
        .display()
        .to_string();
    hdx_obs::init_file(&trace_path, hdx_obs::DEFAULT_BUF_CAP).expect("init trace");
    assert!(hdx_obs::enabled());
    for (i, jobs) in jobs_sweep.into_iter().enumerate() {
        let traced = serve_bytes(&router(jobs), &input);
        assert_eq!(
            traced, reference[i],
            "jobs={jobs}: tracing changed response bytes"
        );
    }

    // The trace itself validates against the v1 schema and recorded
    // the layers this sweep exercised.
    hdx_obs::flush();
    let text = std::fs::read_to_string(&trace_path).expect("read trace");
    let summary = hdx_obs::check_trace(&text).expect("schema-valid trace");
    assert_eq!(summary.meta_lines, 1);
    assert!(summary.span_lines > 0, "traced sweep recorded no spans");
    for name in [
        "router.connection",
        "router.dispatch",
        "engine.search",
        "engine.setup",
        "engine.epoch",
        "engine.w_step",
        "engine.alpha_step",
        "engine.hw_head",
        "engine.final_select",
        "engine.final_train",
        "engine.final_eval",
    ] {
        assert!(
            text.contains(&format!("\"name\":\"{name}\"")),
            "trace missing span {name}"
        );
    }
    // The per-step sub-spans nest inside an epoch on the same thread,
    // so the epoch's time is attributed layer by layer. (Start and
    // duration are truncated to whole microseconds separately, so an
    // end may overshoot its parent's by 1 µs.)
    let spans: Vec<(u64, &str, u64, u64)> = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"span\""))
        .map(|l| {
            let num = |key: &str| -> u64 {
                let rest = &l[l.find(&format!("\"{key}\":")).expect(key) + key.len() + 3..];
                let end = rest.find([',', '}']).expect("number end");
                rest[..end].parse().expect("u64 field")
            };
            let name_at = l.find("\"name\":\"").expect("name") + 8;
            let name = &l[name_at..name_at + l[name_at..].find('"').expect("name end")];
            (num("tid"), name, num("start_us"), num("dur_us"))
        })
        .collect();
    for &(tid, name, start, dur) in &spans {
        if ["engine.w_step", "engine.alpha_step", "engine.hw_head"].contains(&name) {
            assert!(
                spans.iter().any(|&(t, n, s, d)| t == tid
                    && n == "engine.epoch"
                    && s <= start
                    && start + dur <= s + d + 1),
                "{name} span at {start}us (tid {tid}) is not inside an engine.epoch span"
            );
        }
    }

    // Training and saving a bundle with the trace live: pre-training
    // records its spans, but builds no dataset. Loading the bundle
    // regenerates its context's dataset from `(task, seed)` exactly
    // once, under its own span (it dominates a load's cost), and the
    // trace still passes `hdx-serve trace-check`'s validator.
    let data_spans = |text: &str| text.matches("\"name\":\"data.generate\"").count();
    assert_eq!(
        data_spans(&text),
        0,
        "the sweep itself regenerates no dataset"
    );
    let bundle_path = std::env::temp_dir().join("hdx_obs_test_bundle.hdxb");
    let artifacts = hdx_serve::train_artifacts(Task::Cifar, 7, 600, 5, 0);
    hdx_serve::save_bundle(&bundle_path, &artifacts).expect("save bundle");
    hdx_obs::flush();
    let text = std::fs::read_to_string(&trace_path).expect("read trace");
    assert!(
        text.contains("\"name\":\"surrogate.train\""),
        "traced training recorded no surrogate.train span"
    );
    assert_eq!(data_spans(&text), 0, "training a bundle built a dataset");
    router(1)
        .load_bundle_path(&bundle_path)
        .expect("load bundle");
    hdx_obs::flush();
    let text = std::fs::read_to_string(&trace_path).expect("read trace");
    hdx_obs::check_trace(&text).expect("schema-valid trace after a bundle load");
    assert!(
        text.contains("\"name\":\"artifact.load_bundle\""),
        "traced bundle load missing span artifact.load_bundle"
    );
    assert_eq!(
        data_spans(&text),
        1,
        "loading a bundle builds its dataset exactly once"
    );
    std::fs::remove_file(&bundle_path).ok();

    // The metrics verb: step-based, strictly sorted (the decoder
    // enforces it), equal to the in-process registry snapshot, and a
    // byte-exact encode round-trip.
    let r = router(1);
    let out = String::from_utf8(serve_bytes(&r, "hdx1 metrics id=7\n")).expect("utf-8");
    let line = out.trim_end();
    let env = v1::decode_response(line).expect("metrics decodes");
    let v1::ResponseBody::Metrics(entries) = &env.body else {
        panic!("unexpected body {:?}", env.body);
    };
    assert_eq!(env.request_id, 7);
    assert_eq!(
        *entries,
        hdx_obs::snapshot(),
        "metrics response must equal the registry snapshot"
    );
    assert_eq!(v1::encode_response(&env), line, "encode round-trip");
    for key in [
        "engine.searches",
        "kernel.macs",
        "router.verb.search",
        "router.verb.metrics",
        "surrogate.train.calls",
    ] {
        assert!(
            entries.iter().any(|(name, v)| name == key && *v > 0),
            "metrics missing live counter {key}"
        );
    }
    // Step-based means no wall-clock units anywhere in the namespace.
    for (name, _) in entries {
        assert!(
            !["seconds", "_us", "_ms", "nanos", "time"]
                .iter()
                .any(|unit| name.contains(unit)),
            "wall-clock-smelling counter name {name}"
        );
    }

    std::fs::remove_file(&trace_path).ok();

    verb_counters_agree();
}

/// Three lines whose verb their options decide — a v0 `search`
/// carrying a λ-grid (two grid jobs), a v0 `search` carrying a
/// meta-search budget (one meta job), and a v1 `grid` whose budget
/// makes each of its two jobs a meta-search — each counted under one
/// verb by the `router.verb.*` counters (once per line), the `stats`
/// row and the workload score (once per job).
fn verb_counters_agree() {
    let budget = "fps=30 epochs=2 steps=2 batch=16 final_train=20";
    let lines = [
        (
            format!("search id=41 task=cifar lambda_grid=0.001,0.01 {budget}"),
            "grid",
            2,
        ),
        (
            format!("search id=42 task=cifar max_searches=2 {budget}"),
            "meta",
            1,
        ),
        (
            format!("hdx1 grid id=43 task=cifar lambda_grid=0.001,0.01 max_searches=2 {budget}"),
            "meta",
            2,
        ),
    ];
    let batched = &v1::VERBS[..v1::BATCHED];
    for (line, verb, jobs) in lines {
        let router = router(1);
        let before = snapshot_map();
        let trace =
            hdx_workload::Trace::record(&router, std::slice::from_ref(&line)).expect("record");
        let delta = sweep_delta(&before, &snapshot_map());
        let counted = |name: &str| {
            let key = format!("router.verb.{name}");
            delta.iter().find(|(k, _)| *k == key).map_or(0, |(_, n)| *n)
        };
        let by_router: Vec<u64> = batched.iter().map(|v| counted(v.name)).collect();
        let by_stats = router.stats().tasks[0].verbs.to_vec();
        let score = hdx_workload::ServeScore::from_trace(&trace).expect("score");
        let by_score: Vec<u64> = score.verbs.iter().map(|v| v.jobs).collect();
        let want = |n: u64| -> Vec<u64> {
            batched
                .iter()
                .map(|v| if v.name == verb { n } else { 0 })
                .collect()
        };
        assert_eq!(by_router, want(1), "router.verb.* for {line}");
        assert_eq!(by_stats, want(jobs), "stats row for {line}");
        assert_eq!(by_score, want(jobs), "score verb rows for {line}");
    }
}
