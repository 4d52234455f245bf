//! The repository benchmark. One command runs one workload at one
//! seed and prints, as its last stdout line, a JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`:
//!
//! ```text
//! perfbench --workload <serve_mixed|meta_fullmix|control_mix> --seed N \
//!           --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets up [`SETUP_REPS`] times (reporting
//! the median set-up time), then measures untraced for `S` seconds and
//! reports the end-to-end metrics. With `--trace 1` it measures
//! untraced for `S/2` seconds, enables the `hdx-obs` span sink, sets up
//! and measures again for `S/2` seconds, and reports per-layer metrics
//! folded from the trace and from counter deltas around the traced
//! phase, plus the tracing overhead between the two halves. Work files
//! live under `.perfbench/` in the working directory and are removed
//! at exit.

mod control_mix;
mod digest;
mod env;
mod fold;
mod host;
mod meta_fullmix;
mod serve_mixed;
mod stats;

use env::Env;
use hdx_serve::v1;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Session-bank capacity for every workload: without a cap, 300
/// distinct-seed searches grow the bank to ≈2.4 GB.
const BANK_CAP: usize = 256;
/// Leading entries of a client stream covered by the digest check.
pub const DIGEST_ENTRIES: usize = 8;
/// Slices of a phase whose median throughput is `ops_per_s`.
const WINDOWS: usize = 10;
/// v1 reply lines kept for the codec round-trip probe.
pub const REPLY_SAMPLE: usize = 64;

const WORKLOADS: [&str; 3] = ["serve_mixed", "meta_fullmix", "control_mix"];

/// One client stream's record for the digest check.
#[derive(Debug, Default)]
pub struct Stream {
    /// Leading entries whose reply bytes are in `head`.
    pub entries: usize,
    /// The reply bytes of those entries, as read.
    pub head: Vec<u8>,
}

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall seconds the phase ran.
    pub wall_s: f64,
    /// One latency sample per completed operation, milliseconds
    /// (meta-search: per engine search, the call's time over its
    /// searches).
    pub lat_ms: Vec<f64>,
    /// Wall milliseconds per meta-search call.
    pub solution_ms: Vec<f64>,
    /// Operations completed (the workload's unit of work: search jobs,
    /// engine searches, or control requests).
    pub ops: u64,
    /// `(start_s, end_s, ops)` of each completed request, on the
    /// phase's clock.
    pub spans: Vec<(f64, f64, f64)>,
    /// Search jobs those operations ran (meta-search: engine searches).
    pub jobs: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (missing reply, unexpected error, failed check).
    pub failed: u64,
    /// The first few failures, described.
    pub problems: Vec<String>,
    /// A sample of v1 reply lines, for the codec probe.
    pub replies: Vec<String>,
    /// Per-connection digest records.
    pub streams: Vec<Stream>,
}

impl Phase {
    /// Records a failure.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    /// Records one completed request: `ops` units of work between
    /// `start_s` and `end_s` on the phase's clock, with latency sample
    /// `lat_ms`.
    pub fn record(&mut self, start_s: f64, end_s: f64, ops: u64, lat_ms: f64) {
        self.lat_ms.push(lat_ms);
        self.ops += ops;
        self.spans.push((start_s, end_s, ops as f64));
    }

    /// Merges per-connection phases that ran for `wall_s` seconds.
    pub fn merge(parts: Vec<Phase>, wall_s: f64) -> Phase {
        let mut out = Phase {
            wall_s,
            ..Phase::default()
        };
        for p in parts {
            out.lat_ms.extend(p.lat_ms);
            out.solution_ms.extend(p.solution_ms);
            out.ops += p.ops;
            out.spans.extend(p.spans);
            out.jobs += p.jobs;
            out.attempted += p.attempted;
            out.failed += p.failed;
            out.problems.extend(p.problems);
            out.replies.extend(p.replies);
            out.streams.extend(p.streams);
        }
        out
    }

    /// Throughput as the median over [`WINDOWS`] equal slices of the
    /// phase, each request's work spread evenly over its duration, so
    /// a burst of outside load in part of a run does not move it.
    fn ops_per_s(&self) -> f64 {
        let width = self.wall_s / WINDOWS as f64;
        let mut work = [0.0; WINDOWS];
        for &(start, end, ops) in &self.spans {
            let len = (end - start).max(1e-12);
            for (k, slot) in work.iter_mut().enumerate() {
                let (lo, hi) = (k as f64 * width, (k + 1) as f64 * width);
                *slot += ops * (end.min(hi) - start.max(lo)).max(0.0) / len;
            }
        }
        stats::median(&work).unwrap_or(0.0) / width
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = WORKLOADS.into_iter().find(|w| *w == name).ok_or(format!(
        "unknown workload {name:?} (want one of {WORKLOADS:?})"
    ))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|_| "--seed must be a u64")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
        },
    })
}

fn setup(workload: &str, dir: &Path) -> Result<Env, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    match workload {
        "serve_mixed" => serve_mixed::setup(dir),
        "meta_fullmix" => meta_fullmix::setup(dir),
        _ => control_mix::setup(dir),
    }
}

fn measure(workload: &str, env: &Env, seed: u64, secs: f64) -> Phase {
    match workload {
        "serve_mixed" => serve_mixed::measure(env, seed, secs),
        "meta_fullmix" => meta_fullmix::measure(env, seed, secs),
        _ => control_mix::measure(env, seed, secs),
    }
}

fn verify(workload: &str, env: &Env, seed: u64, phase: &Phase) -> Vec<String> {
    match workload {
        "serve_mixed" => serve_mixed::verify(env, seed, phase),
        "meta_fullmix" => meta_fullmix::verify(env, seed, phase),
        // Every control reply was decoded and kind-checked in the loop.
        _ => Vec::new(),
    }
}

fn jobs(workload: &str) -> usize {
    match workload {
        "serve_mixed" => serve_mixed::JOBS,
        "meta_fullmix" => meta_fullmix::JOBS,
        _ => control_mix::JOBS,
    }
}

/// Counter deltas between two `hdx_obs::snapshot()`s.
struct Deltas(BTreeMap<String, u64>);

impl Deltas {
    fn between(before: &[(String, u64)], after: &[(String, u64)]) -> Deltas {
        let before: BTreeMap<&str, u64> = before.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        Deltas(
            after
                .iter()
                .map(|(k, v)| {
                    let base = before.get(k.as_str()).copied().unwrap_or(0);
                    (k.clone(), v.saturating_sub(base))
                })
                .collect(),
        )
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64
    }

    fn sum_prefix(&self, prefix: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum::<u64>() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Metrics in print order, with units.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_owned(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// Latency summary for the human-readable block: the median, and the
/// highest percentile with at least ten samples beyond it.
fn latency_lines(label: &str, scale: f64, unit: &str, samples: &[f64], out: &mut String) {
    let n = samples.len();
    let scaled: Vec<f64> = samples.iter().map(|v| v * scale).collect();
    let p50 = stats::median(&scaled).unwrap_or(0.0);
    let _ = writeln!(out, "{label}_p50_{unit} {p50:.4} {unit} (n={n})");
    match stats::highest_tail(&scaled) {
        Some(t) => {
            let _ = writeln!(
                out,
                "{label}_p{}_{unit} {:.4} {unit} (n={n}, {} beyond)",
                t.pct, t.value, t.beyond
            );
        }
        None => {
            let _ = writeln!(
                out,
                "{label} tail omitted: fewer than {} of n={n} samples beyond p75",
                stats::MIN_BEYOND
            );
        }
    }
}

/// The workload's own end-to-end figures, with sample counts, as text.
fn detail(workload: &str, phase: &Phase, steps: f64, setup_s: f64, rss: f64) -> String {
    let mut out = String::new();
    match workload {
        "serve_mixed" => {
            latency_lines("search", 1.0, "ms", &phase.lat_ms, &mut out);
            let jps = phase.jobs as f64 / phase.wall_s;
            let _ = writeln!(out, "search_jobs_per_s {jps:.4} 1/s (jobs={})", phase.jobs);
        }
        "meta_fullmix" => {
            latency_lines("solution", 1e-3, "s", &phase.solution_ms, &mut out);
            let p50 = stats::median(&phase.lat_ms).unwrap_or(0.0) / 1e3;
            let _ = writeln!(
                out,
                "per_search_p50_s {p50:.4} s ({} engine searches)",
                phase.jobs
            );
        }
        _ => {
            latency_lines("control", 1e3, "us", &phase.lat_ms, &mut out);
            let _ = writeln!(
                out,
                "control_ops_per_s {:.1} 1/s (n={})",
                phase.ops_per_s(),
                phase.ops
            );
        }
    }
    let _ = writeln!(
        out,
        "engine_steps_per_s {:.1} 1/s (steps={steps})",
        steps / phase.wall_s
    );
    let _ = writeln!(out, "setup_s {setup_s:.4} s (median of {SETUP_REPS})");
    let _ = writeln!(out, "peak_rss_mb {rss:.1} MB");
    let _ = writeln!(
        out,
        "failed_ratio {:.6} ({} of {})",
        ratio(phase.failed as f64, phase.attempted as f64),
        phase.failed,
        phase.attempted
    );
    out
}

/// Probes timed by the benchmark around single public calls.
struct Probes {
    decode_us: f64,
    roundtrip_us: f64,
    catalog_get_us: f64,
}

/// Mean microseconds per call of `f` over `items`, repeated for about
/// `budget_s` seconds (0 for no items).
fn time_per_item<T>(items: &[T], budget_s: f64, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let watch = hdx_obs::Stopwatch::start();
    let mut calls = 0u64;
    while watch.seconds() < budget_s {
        for item in items {
            f(std::hint::black_box(item));
        }
        calls += items.len() as u64;
    }
    watch.seconds() * 1e6 / calls as f64
}

fn probes(workload: &str, env: &Env, seed: u64, phase: &Phase) -> Probes {
    let lines = match workload {
        "serve_mixed" => serve_mixed::sample_lines(seed),
        "control_mix" => control_mix::sample_lines(seed, &env.fingerprints),
        _ => Vec::new(),
    };
    let decode_us = time_per_item(&lines, 0.2, |line| match v1::sniff(line) {
        v1::Framing::V1 => {
            let _ = std::hint::black_box(v1::decode_request(line));
        }
        _ => {
            let _ = std::hint::black_box(hdx_serve::parse_request(line));
        }
    });
    let roundtrip_us = time_per_item(&phase.replies, 0.2, |reply| {
        if let Ok(env) = v1::decode_response(reply) {
            std::hint::black_box(v1::encode_response(&env));
        }
    });
    let catalog_get_us = time_per_item(&env.fingerprints, 0.2, |&fp| {
        let _ = std::hint::black_box(env.catalog.get(fp));
    });
    Probes {
        decode_us,
        roundtrip_us,
        catalog_get_us,
    }
}

/// The codec's round-trip contract, checked on the replies a run
/// received. Errors decode to an opaque kind, so only non-error
/// replies are held to byte identity.
fn roundtrip_problems(phase: &Phase) -> Vec<String> {
    phase
        .replies
        .iter()
        .filter(|reply| match v1::decode_response(reply) {
            Ok(env) => {
                !matches!(env.body, v1::ResponseBody::Error(_))
                    && v1::encode_response(&env) != **reply
            }
            Err(_) => true,
        })
        .map(|reply| format!("reply does not round-trip: {reply:?}"))
        .collect()
}

/// Mean of a folded span's duration in milliseconds (0 if absent).
fn mean_ms(f: &BTreeMap<String, fold::SpanTotals>, name: &str) -> f64 {
    f.get(name)
        .map_or(0.0, |t| ratio(t.total_us as f64, t.count as f64) / 1e3)
}

/// Waits until the trace holds at least `want` `router.connection`
/// spans (connection threads drain their span buffers as they exit),
/// then returns its text.
fn settled_trace(path: &Path, want: usize) -> Result<String, String> {
    let watch = hdx_obs::Stopwatch::start();
    loop {
        hdx_obs::flush();
        let text = std::fs::read_to_string(path).map_err(|e| format!("trace: {e}"))?;
        let have = text.matches("\"name\":\"router.connection\"").count();
        if have >= want || watch.seconds() > 5.0 {
            return Ok(text);
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn run_untraced(args: &Args, dir: &Path, info: &mut String) -> Result<Outcome, String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous set-up first, so each one starts alike.
        drop(env.take());
        let watch = hdx_obs::Stopwatch::start();
        let fresh = setup(args.workload, &dir.join(format!("setup{rep}")))?;
        setup_times.push(watch.seconds());
        env = Some(fresh);
    }
    let env = env.expect("at least one set-up");
    let setup_s = stats::median(&setup_times).unwrap_or(0.0);
    let before = hdx_obs::snapshot();
    let phase = measure(args.workload, &env, args.seed, args.seconds);
    let deltas = Deltas::between(&before, &hdx_obs::snapshot());
    let mut problems = verify(args.workload, &env, args.seed, &phase);
    problems.extend(roundtrip_problems(&phase));
    let rss = host::peak_rss_mb();
    let steps = deltas.sum_prefix("engine.steps.");
    info.push_str(&detail(args.workload, &phase, steps, setup_s, rss));
    let _ = writeln!(info, "setup_s samples {setup_times:?}");
    let mut metrics = Metrics::default();
    metrics.put("p50_ms", stats::median(&phase.lat_ms).unwrap_or(0.0), "ms");
    metrics.put("ops_per_s", phase.ops_per_s(), "1/s");
    metrics.put("setup_s", setup_s, "s");
    Ok(finish(phase, problems, metrics, info))
}

fn finish(phase: Phase, problems: Vec<String>, metrics: Metrics, info: &mut String) -> Outcome {
    for (c, stream) in phase.streams.iter().enumerate() {
        let _ = writeln!(
            info,
            "digest stream {c}: {:016x} over {} leading entries",
            digest::fnv1a(&stream.head),
            stream.entries
        );
    }
    for p in phase.problems.iter().chain(&problems) {
        let _ = writeln!(info, "problem: {p}");
    }
    let failed = phase.failed + problems.len() as u64;
    Outcome {
        correct: failed == 0 && phase.ops > 0,
        attempted: phase.attempted.max(1),
        failed,
        metrics,
    }
}

fn run_traced(args: &Args, dir: &Path, info: &mut String) -> Result<Outcome, String> {
    let half = args.seconds / 2.0;
    let plain_env = setup(args.workload, &dir.join("untraced"))?;
    let plain = measure(args.workload, &plain_env, args.seed, half);
    drop(plain_env);

    let trace_path = dir.join("trace.jsonl");
    hdx_obs::init_file(&trace_path.to_string_lossy(), hdx_obs::DEFAULT_BUF_CAP)
        .map_err(|e| format!("trace sink: {e}"))?;
    let since_init = hdx_obs::Stopwatch::start();
    let env = setup(args.workload, &dir.join("traced"))?;
    let measure_from_us = since_init.seconds() * 1e6;
    let before = hdx_obs::snapshot();
    let bank_before = hdx_tensor::SessionBank::global().stats();
    let phase = measure(args.workload, &env, args.seed, half);
    let bank = hdx_tensor::SessionBank::global().stats();
    let d = Deltas::between(&before, &hdx_obs::snapshot());
    // Only the TCP router's connection threads outlive `measure`.
    let detached = match args.workload {
        "serve_mixed" => serve_mixed::CONNS,
        _ => 0,
    };
    let text = settled_trace(&trace_path, detached)?;
    let spans = fold::parse(&text)?;
    let (set_up, measured): (Vec<fold::Span>, Vec<fold::Span>) = spans
        .into_iter()
        .partition(|s| (s.start_us as f64) < measure_from_us);
    let fs = fold::fold(&set_up);
    let fm = fold::fold(&measured);
    let probe = probes(args.workload, &env, args.seed, &phase);
    // Both halves ran the same inputs, so their leading replies must
    // agree byte for byte (tracing must not change a response); the
    // traced half is then checked against the reference.
    let mut problems = verify(args.workload, &env, args.seed, &phase);
    for (c, (a, b)) in plain.streams.iter().zip(&phase.streams).enumerate() {
        if a.entries == b.entries && a.head != b.head {
            problems.push(format!("stream {c}: traced and untraced replies differ"));
        }
    }
    problems.extend(roundtrip_problems(&phase));

    let mut m = Metrics::default();
    // serve::proto
    m.put("proto.decode_us", probe.decode_us, "us");
    m.put("proto.response_roundtrip_us", probe.roundtrip_us, "us");
    let errors = d.get("router.proto_errors");
    m.put(
        "proto.lines",
        d.sum_prefix("router.verb.") + errors,
        "count",
    );
    m.put("proto.errors", errors, "count");
    // serve::router
    let flush = fm.get("router.flush").copied().unwrap_or_default();
    m.put(
        "router.flush_self_ms",
        ratio(flush.self_us as f64, flush.count as f64) / 1e3,
        "ms",
    );
    m.put(
        "router.jobs_per_flush",
        ratio(phase.jobs as f64, flush.count as f64),
        "count",
    );
    for verb in [
        "search",
        "grid",
        "meta",
        "ping",
        "stats",
        "metrics",
        "list_tasks",
        "catalog_list",
        "load_bundle",
        "unload_bundle",
    ] {
        let name = format!("router.verb.{verb}");
        m.put(&name, d.get(&name), "count");
    }
    m.put(
        "router.registry_writes",
        d.get("router.verb.load_bundle") + d.get("router.verb.unload_bundle"),
        "count",
    );
    // serve::artifact / catalog
    let mut loads = fold::SpanTotals::default();
    for f in [&fs, &fm] {
        for name in ["artifact.load_bundle", "artifact.load_bundle_bytes"] {
            if let Some(t) = f.get(name) {
                loads.count += t.count;
                loads.total_us += t.total_us;
            }
        }
    }
    m.put(
        "artifact.load_bundle_ms",
        ratio(loads.total_us as f64, loads.count as f64) / 1e3,
        "ms",
    );
    m.put("catalog.get_us", probe.catalog_get_us, "us");
    m.put("catalog.hits", d.get("catalog.hits"), "count");
    // core::engine
    let search = fm.get("engine.search").copied().unwrap_or_default();
    let epoch = fm.get("engine.epoch").copied().unwrap_or_default();
    m.put("engine.search_ms", mean_ms(&fm, "engine.search"), "ms");
    m.put("engine.epoch_ms", mean_ms(&fm, "engine.epoch"), "ms");
    m.put(
        "engine.unattributed_share",
        ratio(search.self_us as f64, search.total_us as f64),
        "ratio",
    );
    m.put(
        "engine.searches_per_solution",
        ratio(d.get("engine.meta.attempts"), d.get("engine.meta.searches")),
        "ratio",
    );
    let steps = d.sum_prefix("engine.steps.");
    m.put("engine.steps_per_s", steps / phase.wall_s, "1/s");
    // tensor::bank
    let hits = (bank.hits - bank_before.hits) as f64;
    let misses = (bank.misses - bank_before.misses) as f64;
    m.put("bank.hit_ratio", ratio(hits, hits + misses), "ratio");
    m.put("bank.hits", hits, "count");
    m.put("bank.misses", misses, "count");
    let compile = fm.get("bank.compile").copied().unwrap_or_default();
    m.put("bank.compiles", d.get("bank.compile"), "count");
    m.put("bank.compile_ms", mean_ms(&fm, "bank.compile"), "ms");
    m.put(
        "bank.compile_share",
        ratio(compile.total_us as f64, search.total_us as f64),
        "ratio",
    );
    m.put(
        "bank.evictions",
        (bank.evictions - bank_before.evictions) as f64,
        "count",
    );
    m.put("bank.programs", bank.programs as f64, "count");
    // tensor::kernels / par
    let macs = d.get("kernel.macs");
    m.put("kernel.gmacs", macs / 1e9, "GMAC");
    m.put(
        "kernel.effective_gflops",
        ratio(2.0 * macs, epoch.total_us as f64 * 1e-6) / 1e9,
        "GFLOP/s",
    );
    m.put("kernel.calib_gflops", host::calib_gflops(), "GFLOP/s");
    for tier in ["avx512", "avx2", "scalar"] {
        let name = format!("kernel.dispatch.{tier}");
        m.put(&name, d.get(&name), "count");
    }
    m.put(
        "par.items_per_call",
        ratio(d.get("par.map.items"), d.get("par.map.calls")),
        "count",
    );
    // surrogate
    m.put("surrogate.train_ms", mean_ms(&fs, "surrogate.train"), "ms");
    // process
    m.put("mem.peak_rss_mb", host::peak_rss_mb(), "MB");
    // obs
    m.put(
        "obs.trace_overhead_pct",
        (ratio(plain.ops_per_s(), phase.ops_per_s()) - 1.0) * 100.0,
        "%",
    );
    // The end-to-end tail, from the untraced half.
    let tail = stats::highest_tail(&plain.lat_ms);
    m.put("e2e.tail_ms", tail.map_or(0.0, |t| t.value), "ms");
    m.put("e2e.tail_pct", tail.map_or(0.0, |t| t.pct), "%");
    m.put("e2e.samples", plain.lat_ms.len() as f64, "count");

    let _ = writeln!(
        info,
        "traced half: {} ops in {:.2} s, {} span events folded ({} during set-up)",
        phase.ops,
        phase.wall_s,
        set_up.len() + measured.len(),
        set_up.len()
    );
    let merged = Phase::merge(vec![plain, phase], args.seconds);
    Ok(finish(merged, problems, m, info))
}

fn run(args: &Args) -> Result<(String, Outcome), String> {
    let dir: PathBuf = Path::new(".perfbench").join(format!(
        "{}-s{}-p{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    hdx_tensor::SessionBank::global().set_capacity(Some(BANK_CAP));
    let mut info = String::new();
    let result = if args.trace {
        run_traced(args, &dir, &mut info)
    } else {
        run_untraced(args, &dir, &mut info)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench");
    result.map(|outcome| (info, outcome))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let calib = host::calib_gflops();
    let (info, outcome) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{{\"host\": {{\"cores\": {}, \"simd\": \"{}\", \"calib_gflops\": {calib:.3}, \
         \"commit\": \"{}\"}}, \"config\": {{\"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"bank_cap\": {BANK_CAP}, \"jobs\": {}, \
         \"setup_reps\": {SETUP_REPS}}}}}",
        host::cores(),
        host::simd_tier(),
        host::commit(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        jobs(args.workload),
    );
    print!("{info}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.json()
    );
    ExitCode::SUCCESS
}
