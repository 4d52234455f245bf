//! The `hdx-workload` binary: deterministic serving workloads.
//!
//! ```sh
//! # Expand the reference families into small bundles.
//! hdx-workload gen-bundles --reference --out bundles/
//!
//! # Or one full-size family bundle by key.
//! hdx-workload gen-bundles --family spheres --seed 2 --out bundles/
//!
//! # Record the reference workload's responses into a trace.
//! hdx-workload record --reference --out serve.trace \
//!     --bundle bundles/spheres_2.ckpt [--bundle …]
//!
//! # Replay over TCP at 4 connections, score, emit BENCH_serve.json.
//! hdx-workload replay --trace serve.trace --bundle … \
//!     --conns 4 --jobs 2 --bench BENCH_serve.json
//! ```
//!
//! Replay fails loudly on the first byte of divergence; the score
//! block in `BENCH_serve.json` is derived from trace content only and
//! is bit-identical across `--conns`/`--jobs`/`--interleave`.

use hdx_core::Task;
use hdx_serve::cli::Flags;
use hdx_serve::{Router, RouterConfig};
use hdx_workload::{
    reference_requests, reference_specs, spawn_tcp_router, trace_fnv, BundleSpec, Interleave,
    ReplayEnv, ServeBench, ServeScore, Trace,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen-bundles") => cmd_gen_bundles(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand \"{other}\"\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("hdx-workload: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
hdx-workload — deterministic serving-workload harness

USAGE:
  hdx-workload gen-bundles --out DIR (--reference | --family LABEL [--seed N])
                           [--small] [--jobs N] [--catalog DIR]
  hdx-workload record      --out FILE --bundle FILE [--bundle FILE …]
                           (--reference | --requests FILE) [--jobs N]
  hdx-workload replay      --trace FILE --bundle FILE [--bundle FILE …]
                           [--conns N] [--jobs N]
                           [--interleave round-robin|blocks] [--bench FILE]

gen-bundles  expands (family, seed) keys into ready-to-serve bundle
             files — deterministic: same key, same bytes. --catalog
             also publishes each bundle into the artifact catalog
             (family \"workload\") and runs HDX_CATALOG_KEEP GC.
record       serves each request (plus a per-entry seal ping) on an
             in-memory connection and writes the checksummed trace.
             --requests reads one request line per non-empty line.
replay       replays the trace against a live TCP router at --conns
             concurrent connections, asserts byte-identical responses,
             and writes the BENCH_serve.json regression score.
";

/// Flags that take no value: present means "true".
const SWITCHES: [&str; 2] = ["reference", "small"];

fn cmd_gen_bundles(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &SWITCHES)?;
    flags.reject_unknown(&[
        "out",
        "reference",
        "family",
        "seed",
        "small",
        "jobs",
        "catalog",
    ])?;
    let out = PathBuf::from(flags.require("out")?);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let jobs: usize = flags.parse_num("jobs", 0)?;
    let specs: Vec<BundleSpec> = if flags.is_set("reference") {
        if flags.get("family").is_some() {
            return Err("--reference and --family are mutually exclusive".to_owned());
        }
        reference_specs()
    } else {
        let families = flags.get_all(&["family"]);
        if families.is_empty() {
            return Err("either --reference or at least one --family is required".to_owned());
        }
        let seed: u64 = flags.parse_num("seed", 0)?;
        let expand = if flags.is_set("small") {
            BundleSpec::expand_small
        } else {
            BundleSpec::expand
        };
        families
            .into_iter()
            .map(|label| {
                let task = Task::parse_label(label).ok_or_else(|| {
                    let known: Vec<&str> = Task::ALL.iter().map(|t| t.label()).collect();
                    format!("invalid --family \"{label}\" ({})", known.join("|"))
                })?;
                Ok(expand(task, seed))
            })
            .collect::<Result<_, String>>()?
    };
    let catalog = match flags.get("catalog") {
        Some(dir) => Some(
            hdx_catalog::Catalog::open(&PathBuf::from(dir))
                .map_err(|e| format!("cannot open catalog {dir}: {e}"))?,
        ),
        None => None,
    };
    for spec in &specs {
        let watch = hdx_obs::Stopwatch::start();
        let path = spec.write_bundle(&out, jobs).map_err(|e| e.to_string())?;
        eprintln!(
            "wrote {} in {:.1}s (pairs={} est_epochs={})",
            path.display(),
            watch.seconds(),
            spec.pairs,
            spec.est_epochs,
        );
        if let Some(catalog) = &catalog {
            let bytes = std::fs::read(&path)
                .map_err(|e| format!("cannot read back bundle {}: {e}", path.display()))?;
            let code = u8::try_from(hdx_serve::task_code(spec.task)).expect("task codes fit in u8");
            let receipt = catalog
                .publish(code, "workload", spec.seed, &bytes)
                .map_err(|e| format!("cannot publish {}: {e}", path.display()))?;
            eprintln!(
                "published {} gen={} ({} bytes)",
                hdx_catalog::format_ref(receipt.fingerprint),
                receipt.gen,
                receipt.len,
            );
        }
    }
    if let Some(catalog) = &catalog {
        let report = catalog
            .gc_from_env()
            .map_err(|e| format!("catalog retention GC failed: {e}"))?;
        if !report.evicted.is_empty() {
            eprintln!(
                "catalog GC evicted {} generation(s), freed {} bytes",
                report.evicted.len(),
                report.freed
            );
        }
    }
    Ok(())
}

/// Builds a router over every `--bundle`.
fn load_router(flags: &Flags, jobs: usize) -> Result<Router, String> {
    let bundles = flags.get_all(&["bundle"]);
    if bundles.is_empty() {
        return Err("at least one --bundle is required".to_owned());
    }
    let router = Router::new(RouterConfig {
        jobs,
        ..RouterConfig::default()
    });
    for path in bundles {
        let entry = router
            .load_bundle_path(&PathBuf::from(path))
            .map_err(|e| format!("cannot load bundle {path}: {e}"))?;
        eprintln!(
            "loaded {path}: task={} bundle_seed={}",
            entry.task.label(),
            entry.bundle_seed
        );
    }
    Ok(router)
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &SWITCHES)?;
    flags.reject_unknown(&["out", "bundle", "reference", "requests", "jobs"])?;
    let out = PathBuf::from(flags.require("out")?);
    let jobs: usize = flags.parse_num("jobs", 0)?;
    let requests: Vec<String> = match (flags.is_set("reference"), flags.get("requests")) {
        (true, None) => reference_requests(),
        (false, Some(path)) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read requests file {path}: {e}"))?
            .lines()
            .map(str::trim_end)
            .filter(|l| !l.is_empty())
            .map(str::to_owned)
            .collect(),
        _ => return Err("exactly one of --reference or --requests is required".to_owned()),
    };
    let router = load_router(&flags, jobs)?;
    let trace = Trace::record(&router, &requests).map_err(|e| e.to_string())?;
    trace.save(&out).map_err(|e| e.to_string())?;
    eprintln!(
        "recorded {} entries → {} (fnv {:#018x})",
        trace.entries.len(),
        out.display(),
        trace_fnv(&trace),
    );
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &SWITCHES)?;
    flags.reject_unknown(&["trace", "bundle", "conns", "jobs", "interleave", "bench"])?;
    let trace_path = PathBuf::from(flags.require("trace")?);
    let conns: usize = flags.parse_num("conns", 1)?;
    let jobs: usize = flags.parse_num("jobs", 0)?;
    let interleave = match flags.get("interleave") {
        None => Interleave::RoundRobin,
        Some(v) => Interleave::parse(v)
            .ok_or_else(|| format!("invalid --interleave \"{v}\" (round-robin|blocks)"))?,
    };
    let bench_path = PathBuf::from(flags.get("bench").unwrap_or("BENCH_serve.json"));

    let trace = Trace::load(&trace_path).map_err(|e| e.to_string())?;
    let router = Arc::new(load_router(&flags, jobs)?);
    let addr = spawn_tcp_router(Arc::clone(&router)).map_err(|e| e.to_string())?;
    trace
        .replay(addr, conns, interleave)
        .map_err(|e| format!("replay diverged: {e}"))?;
    eprintln!(
        "replayed {} entries at conns={conns} jobs={jobs} ({}) — byte-identical",
        trace.entries.len(),
        interleave.label(),
    );

    let score = ServeScore::from_trace(&trace).map_err(|e| e.to_string())?;
    let bench = ServeBench::new(
        score,
        ReplayEnv {
            conns,
            jobs,
            interleave: interleave.label().to_owned(),
            entries: trace.entries.len() as u64,
            trace_fnv: trace_fnv(&trace),
            bank: router.stats(),
        },
    );
    bench.write(&bench_path).map_err(|e| e.to_string())?;
    eprintln!("wrote {}", bench_path.display());
    Ok(())
}
