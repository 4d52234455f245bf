//! `meta_fullmix`: the paper's Table-1 path, in process. One caller
//! runs `hdx_core::constrained_meta_search` for the four Table-1 cells
//! (HDX, DANCE, Auto-NBA, NAS→HW) under a 60 FPS hard constraint on the
//! full-mixture supernet, against a cifar context loaded from a full
//! bundle. Each round of four cells takes fresh base seeds from the
//! workload seed.

use crate::digest;
use crate::env::Env;
use crate::{Phase, Stream};
use hdx_core::{constrained_meta_search, Constraint, Method, SearchOptions, Task};
use hdx_workload::BundleSpec;
use std::path::Path;

/// Worker threads for the engine's parallel paths.
pub const JOBS: usize = 2;
/// Meta-search budget per cell.
const MAX_SEARCHES: usize = 10;
/// Cells covered by the digest check: the first round.
const DIGEST_CELLS: usize = 4;

/// Trains and publishes the full cifar bundle, then loads the search
/// context from the catalog copy.
pub fn setup(dir: &Path) -> Result<Env, String> {
    let mut env = Env::publish(dir, &[BundleSpec::expand(Task::Cifar, 0)], JOBS)?;
    let bytes = env
        .catalog
        .get(env.fingerprints[0])
        .map_err(|e| format!("catalog get: {e}"))?;
    let artifacts = hdx_serve::load_bundle_bytes(&bytes).map_err(|e| format!("load: {e}"))?;
    env.prepared = Some(artifacts.into_prepared());
    Ok(env)
}

/// The Table-1 methods, in cell order.
fn methods() -> [Method; 4] {
    [
        Method::Hdx {
            delta0: 1e-3,
            p: 1e-2,
        },
        Method::Dance,
        Method::AutoNba,
        Method::NasThenHw { lambda_macs: 0.002 },
    ]
}

/// Options of cell `k` (round `k / 4`, method `k % 4`) under workload
/// seed `seed`.
pub fn cell_options(seed: u64, k: usize, jobs: usize) -> SearchOptions {
    let round = (k / 4) as u64;
    let mut rng = hdx_tensor::Rng::new(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ round);
    SearchOptions {
        method: methods()[k % 4],
        lambda_cost: 0.001,
        constraints: Vec::new(),
        epochs: 4,
        steps_per_epoch: 20,
        final_train_steps: 200,
        seed: rng.next_u64() % 1_000_000,
        supernet: hdx_nas::SupernetConfig {
            num_paths: hdx_nas::OP_SET.len(),
            ..hdx_nas::SupernetConfig::default()
        },
        jobs,
        ..SearchOptions::default()
    }
}

/// One cell's outcome as a canonical line (the in-process analogue of
/// a served report).
fn outcome_line(k: usize, opts: &SearchOptions, out: &hdx_core::MetaSearchOutcome) -> String {
    let r = &out.result;
    format!(
        "cell={k} method={} seed={} searches={} satisfied={} error={:?} cost_hw={:?} \
         global_loss={:?} in_constraint={} metrics={:?} arch={:?} accel={:?}\n",
        opts.method.label(),
        opts.seed,
        out.searches,
        out.satisfied,
        r.error,
        r.cost_hw,
        r.global_loss,
        r.in_constraint,
        r.metrics,
        r.architecture,
        r.accel
    )
}

fn run_cell(env: &Env, seed: u64, k: usize, jobs: usize) -> (String, hdx_core::MetaSearchOutcome) {
    let prepared = env
        .prepared
        .as_ref()
        .expect("meta_fullmix set-up loads a context");
    let opts = cell_options(seed, k, jobs);
    let out = constrained_meta_search(
        &prepared.context(),
        &opts,
        Constraint::fps(60.0),
        MAX_SEARCHES,
    );
    (outcome_line(k, &opts, &out), out)
}

/// Runs cells back to back for `secs` seconds (the last call may run
/// past the deadline; it is counted).
pub fn measure(env: &Env, seed: u64, secs: f64) -> Phase {
    let watch = hdx_obs::Stopwatch::start();
    let mut phase = Phase::default();
    let mut stream = Stream::default();
    let mut k = 0;
    while watch.seconds() < secs {
        phase.attempted += 1;
        let started = watch.seconds();
        let (line, out) = run_cell(env, seed, k, JOBS);
        let ended = watch.seconds();
        let ms = (ended - started) * 1e3;
        phase.solution_ms.push(ms);
        // The number of searches a cell needs depends on its seeds; the
        // time per search does not, so that is the latency sample.
        let searches = out.searches as u64;
        phase.record(started, ended, searches, ms / searches as f64);
        phase.jobs += searches;
        if k < DIGEST_CELLS {
            stream.head.extend_from_slice(line.as_bytes());
            stream.entries = k + 1;
        }
        // The paper's Table-1 claim: HDX meets the hard constraint in
        // exactly one search.
        if k % 4 == 0 && !(out.searches == 1 && out.satisfied) {
            phase.fail(format!("HDX cell {k}: {}", line.trim_end()));
        }
        k += 1;
    }
    phase.streams.push(stream);
    phase.wall_s = watch.seconds();
    phase
}

/// Recomputes the first cells single-threaded and compares digests
/// (results are bit-identical at any worker count), and checks the
/// pinned digest where this seed has one.
pub fn verify(env: &Env, seed: u64, phase: &Phase) -> Vec<String> {
    let mut problems = Vec::new();
    for (c, stream) in phase.streams.iter().enumerate() {
        let replay: String = (0..stream.entries)
            .map(|k| run_cell(env, seed, k, 1).0)
            .collect();
        problems.extend(digest::check_stream(
            "meta_fullmix",
            seed,
            c,
            stream,
            DIGEST_CELLS,
            replay.as_bytes(),
        ));
    }
    problems
}
