//! The `hdx-serve` binary: train-once / serve-many, multi-tenant.
//!
//! ```sh
//! # One-time: pre-train the estimator, write the bundle.
//! hdx-serve train-and-save --out cifar.ckpt --task cifar --seed 0
//!
//! # Continue pre-training an existing bundle on more pairs.
//! hdx-serve train-and-save --out cifar2.ckpt --init-bundle cifar.ckpt --pairs 4000
//!
//! # Answer a request file (or stdin) against one or more bundles.
//! echo "search id=1 fps=30 epochs=5 steps=5 final_train=200 seed=0" |
//!     hdx-serve oneshot --bundle cifar.ckpt --bundle imagenet.ckpt
//!
//! # Long-lived multi-task service on stdin/stdout or TCP, hardened.
//! hdx-serve serve --bundle cifar.ckpt --bundle imagenet.ckpt \
//!     --tcp 127.0.0.1:7878 --max-requests-per-conn 256 --deadline-steps 100000
//! ```
//!
//! `--jobs` controls the scheduler's worker pool (`0` = auto via
//! `HDX_JOBS`); `HDX_BANK_CAP` bounds the session bank for long-lived
//! deployments. Requests route by their `task` field; v1 clients
//! (`hdx1 …` lines) can additionally pin a `bundle_seed`, manage
//! bundles at runtime, and resume checkpointed searches.

use hdx_core::Task;
use hdx_serve::cli::Flags;
use hdx_serve::{
    load_bundle, save_bundle, task_code, train_artifacts, train_artifacts_from, Router,
    RouterConfig,
};
use std::io::BufReader;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `HDX_TRACE=<path>` enables the span sink for every subcommand;
    // `--trace` (serve/oneshot) overrides the path.
    hdx_tensor::obs::init_trace_from_env();
    let result = match args.first().map(String::as_str) {
        Some("train-and-save") => cmd_train_and_save(&args[1..]),
        Some("oneshot") => cmd_oneshot(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("trace-check") => cmd_trace_check(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand \"{other}\"\n\n{USAGE}")),
    };
    // Drain the main thread's span ring into the sink (worker threads
    // drain on their own exit).
    hdx_obs::flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("hdx-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
hdx-serve — persistent multi-tenant co-design search service

USAGE:
  hdx-serve train-and-save --out FILE [--task cifar|imagenet] [--seed N]
                           [--pairs N] [--est-epochs N]
                           [--init-bundle FILE] [--jobs N] [--catalog DIR]
  hdx-serve oneshot --bundle SPEC [--bundle SPEC …] [--requests FILE]
                    [--jobs N] [--max-requests-per-conn N] [--deadline-steps N]
                    [--trace FILE] [--catalog DIR]
  hdx-serve serve   --bundle SPEC [--bundle SPEC …] [--tcp ADDR]
                    [--jobs N] [--max-requests-per-conn N] [--deadline-steps N]
                    [--trace FILE] [--catalog DIR]
  hdx-serve trace-check FILE

train-and-save  pre-trains the estimator on analytical-model pairs,
                writes one bundle file.
                --init-bundle continues an existing bundle's estimator
                on fresh pairs instead of starting from scratch.
oneshot         reads request lines (file or stdin), runs them as a
                batch against the loaded bundles, prints responses.
serve           line protocol on stdin/stdout, or TCP with --tcp.
                Requests route by task across every --bundle.
                (--artifacts is accepted as an alias for --bundle.)

Catalog: --catalog DIR mounts the content-addressed artifact catalog.
train-and-save then also publishes the bundle into it (printing its
cat:<fingerprint> ref) and runs HDX_CATALOG_KEEP retention GC;
serve/oneshot accept cat:<fingerprint> bundle SPECs and enable the v1
catalog_list / catalog_pin / catalog_evict verbs.
trace-check     validates an hdx-obs span trace (JSONL, schema v1)
                and prints its line counts.

Hardening: --max-requests-per-conn caps lines per connection;
--deadline-steps caps each job's deterministic step budget
(epochs·steps + final_train, × max_searches). Both answer in-band
typed errors, never silent drops.

Observability: --trace FILE (or HDX_TRACE=FILE) writes wall-clock
span events to a JSONL sink (4096-event per-thread rings).
Tracing never changes response bytes — the v1 `metrics` verb reports
the deterministic counters.
";

fn parse_task(flags: &Flags) -> Result<Task, String> {
    let label = flags.get("task").unwrap_or("cifar");
    Task::parse_label(label).ok_or_else(|| {
        let known: Vec<&str> = Task::ALL.iter().map(|t| t.label()).collect();
        format!("invalid --task \"{label}\" ({})", known.join("|"))
    })
}

fn cmd_train_and_save(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&[
        "out",
        "task",
        "seed",
        "pairs",
        "est-epochs",
        "init-bundle",
        "jobs",
        "catalog",
    ])?;
    let out = PathBuf::from(flags.require("out")?);
    let pairs: usize = flags.parse_num("pairs", 8_000)?;
    let est_epochs: usize = flags.parse_num("est-epochs", 30)?;
    let jobs: usize = flags.parse_num("jobs", 0)?;

    let watch = hdx_obs::Stopwatch::start();
    let artifacts = match flags.get("init-bundle") {
        Some(init_path) => {
            if flags.get("task").is_some() || flags.get("seed").is_some() {
                return Err("--init-bundle fixes the task and seed; drop --task/--seed".to_owned());
            }
            let init = load_bundle(&PathBuf::from(init_path)).map_err(|e| e.to_string())?;
            eprintln!(
                "continuing bundle {init_path}: task={:?} seed={} prior_pairs={} \
                 (+{pairs} fresh, est_epochs={est_epochs})",
                init.task, init.seed, init.pairs
            );
            train_artifacts_from(init, pairs, est_epochs, jobs)
        }
        None => {
            let task = parse_task(&flags)?;
            let seed: u64 = flags.parse_num("seed", 0)?;
            eprintln!(
                "training artifacts: task={task:?} seed={seed} pairs={pairs} \
                 est_epochs={est_epochs}"
            );
            train_artifacts(task, seed, pairs, est_epochs, jobs)
        }
    };
    eprintln!(
        "trained in {:.1}s: estimator within-10% accuracy {:.1}%",
        watch.seconds(),
        artifacts.estimator_accuracy * 100.0,
    );
    save_bundle(&out, &artifacts).map_err(|e| e.to_string())?;
    let size = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "wrote {} ({:.1} MiB)",
        out.display(),
        size as f64 / (1 << 20) as f64
    );
    if let Some(dir) = flags.get("catalog") {
        let receipt = publish_to_catalog(dir, artifacts.task, artifacts.seed, "train", &out)?;
        eprintln!(
            "published {} gen={} ({} bytes) to catalog {dir}",
            hdx_catalog::format_ref(receipt.fingerprint),
            receipt.gen,
            receipt.len,
        );
    }
    Ok(())
}

/// Publishes a just-written bundle file into the catalog under
/// `(task, family, seed)` and runs retention GC per `HDX_CATALOG_KEEP`
/// (a no-op when the knob is unset).
fn publish_to_catalog(
    dir: &str,
    task: Task,
    seed: u64,
    family: &str,
    bundle: &std::path::Path,
) -> Result<hdx_catalog::Receipt, String> {
    let catalog = hdx_catalog::Catalog::open(&PathBuf::from(dir))
        .map_err(|e| format!("cannot open catalog {dir}: {e}"))?;
    let bytes = std::fs::read(bundle)
        .map_err(|e| format!("cannot read back bundle {}: {e}", bundle.display()))?;
    let code = u8::try_from(task_code(task)).expect("task codes fit in u8");
    let receipt = catalog
        .publish(code, family, seed, &bytes)
        .map_err(|e| format!("cannot publish {} to catalog {dir}: {e}", bundle.display()))?;
    let report = catalog
        .gc_from_env()
        .map_err(|e| format!("catalog retention GC failed in {dir}: {e}"))?;
    if !report.evicted.is_empty() {
        eprintln!(
            "catalog GC evicted {} generation(s), freed {} bytes",
            report.evicted.len(),
            report.freed
        );
    }
    Ok(receipt)
}

/// Builds a router from every `--bundle`/`--artifacts` flag plus the
/// hardening knobs. `--catalog DIR` mounts the artifact catalog first,
/// so bundle specs may be `cat:<fingerprint>` refs into it.
fn load_router(flags: &Flags) -> Result<Router, String> {
    let bundles = flags.get_all(&["bundle", "artifacts"]);
    if bundles.is_empty() {
        return Err("at least one --bundle is required".to_owned());
    }
    let cfg = RouterConfig {
        jobs: flags.parse_num("jobs", 0)?,
        max_requests_per_conn: flags.parse_opt("max-requests-per-conn")?,
        deadline_steps: flags.parse_opt("deadline-steps")?,
    };
    let router = Router::new(cfg);
    if let Some(dir) = flags.get("catalog") {
        let catalog = hdx_catalog::Catalog::open(&PathBuf::from(dir))
            .map_err(|e| format!("cannot open catalog {dir}: {e}"))?;
        eprintln!("mounted catalog {dir}");
        router.mount_catalog(catalog);
    }
    for spec in bundles {
        let watch = hdx_obs::Stopwatch::start();
        let entry = router
            .load_bundle_ref(spec)
            .map_err(|e| format!("cannot load bundle {spec}: {}", e.message()))?;
        eprintln!(
            "loaded {spec} in {:.2}s: task={:?} bundle_seed={} estimator accuracy {:.1}%",
            watch.seconds(),
            entry.task,
            entry.bundle_seed,
            entry.estimator_accuracy * 100.0,
        );
    }
    Ok(router)
}

const SERVE_FLAGS: [&str; 9] = [
    "bundle",
    "artifacts",
    "requests",
    "tcp",
    "jobs",
    "max-requests-per-conn",
    "deadline-steps",
    "trace",
    "catalog",
];

/// Honors `--trace FILE` for the serve/oneshot subcommands (overrides
/// any `HDX_TRACE` sink already opened by `main`).
fn init_trace_flag(flags: &Flags) {
    if let Some(path) = flags.get("trace") {
        hdx_tensor::obs::init_trace_to(path);
    }
}

fn cmd_trace_check(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: hdx-serve trace-check FILE".to_owned());
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let summary = hdx_obs::check_trace(&text).map_err(|e| format!("invalid trace {path}: {e}"))?;
    println!(
        "trace ok: {} meta line(s), {} span line(s)",
        summary.meta_lines, summary.span_lines
    );
    Ok(())
}

fn cmd_oneshot(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&SERVE_FLAGS)?;
    if flags.get("tcp").is_some() {
        return Err("--tcp belongs to the serve subcommand".to_owned());
    }
    init_trace_flag(&flags);
    let router = load_router(&flags)?;
    let stdout = std::io::stdout();
    match flags.get("requests") {
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| format!("cannot open requests file {path}: {e}"))?;
            router
                .serve_connection(BufReader::new(file), stdout.lock())
                .map_err(|e| e.to_string())
        }
        None => router
            .serve_connection(std::io::stdin().lock(), stdout.lock())
            .map_err(|e| e.to_string()),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&SERVE_FLAGS)?;
    if flags.get("requests").is_some() {
        return Err("--requests belongs to the oneshot subcommand".to_owned());
    }
    init_trace_flag(&flags);
    let router = load_router(&flags)?;
    match flags.get("tcp") {
        Some(addr) => {
            let listener =
                TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            eprintln!("listening on {local}");
            Arc::new(router)
                .serve_tcp(listener)
                .map_err(|e| e.to_string())
        }
        None => {
            eprintln!("serving on stdin/stdout (send request lines; EOF flushes the batch)");
            router
                .serve_connection(std::io::stdin().lock(), std::io::stdout().lock())
                .map_err(|e| e.to_string())
        }
    }
}
