//! `control_mix`: the control plane. Two closed-loop connections to a
//! router with a catalog mounted, each served by
//! `Router::serve_connection` over an in-process Unix socket pair (over
//! loopback TCP every reply would wait out a ~40 ms delayed-ACK stall,
//! which would hide the microseconds this workload is about). One
//! connection reads: `ping`, `stats`, `metrics`, `list_tasks`,
//! `catalog_list`, deliberately malformed lines, and search lines the
//! router refuses before any engine work (an unknown `bundle_seed`).
//! The other cycles `load_bundle cat:<fp>` / `unload_bundle` of small
//! bundles between reads. Verbs that fsync the catalog index
//! (`catalog_pin`, `catalog_evict`) are left out, so the run measures
//! the program and not the disk.

use crate::env::{Conn, Env, Socket};
use crate::{Phase, REPLY_SAMPLE};
use hdx_core::Task;
use hdx_serve::v1::{self, ResponseBody};
use hdx_serve::ErrorKind;
use hdx_tensor::Rng;
use hdx_workload::BundleSpec;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Client connections: a reader and a registry writer.
pub const CONNS: usize = 2;
/// Router worker threads.
pub const JOBS: usize = 1;
/// Bundles loaded for the whole run (the reference families).
const RESIDENT: [Task; 4] = [Task::Spheres, Task::HighDim, Task::ManyClass, Task::Edge];
/// Bundles the writer loads and unloads, by `(task, bundle seed)`.
const CYCLED: [(Task, u64); 2] = [(Task::Spheres, 100), (Task::Edge, 101)];

/// Trains and publishes the resident and cycled small bundles and
/// loads the resident ones into a router from the catalog.
pub fn setup(dir: &Path) -> Result<Env, String> {
    let specs: Vec<BundleSpec> = RESIDENT
        .iter()
        .map(|&t| (t, t.index() as u64))
        .chain(CYCLED)
        .map(|(t, s)| BundleSpec::expand_small(t, s))
        .collect();
    let mut env = Env::publish(dir, &specs, 2)?;
    env.serve(JOBS, RESIDENT.len(), false)?;
    Ok(env)
}

/// What a reply must decode to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Pong,
    Stats,
    Metrics,
    Tasks,
    Catalog,
    Loaded,
    Unloaded,
    /// An in-band error with this code.
    Error(&'static str),
}

impl Kind {
    fn matches(self, body: &ResponseBody) -> bool {
        match (self, body) {
            (Kind::Pong, ResponseBody::Pong)
            | (Kind::Stats, ResponseBody::Stats(_))
            | (Kind::Metrics, ResponseBody::Metrics(_))
            | (Kind::Tasks, ResponseBody::Tasks(_))
            | (Kind::Catalog, ResponseBody::Catalog(_))
            | (Kind::Loaded, ResponseBody::Loaded(_))
            | (Kind::Unloaded, ResponseBody::Unloaded { .. }) => true,
            // Clients see an error's code only through its message.
            (Kind::Error(code), ResponseBody::Error(e)) => match &e.kind {
                ErrorKind::Invalid { message } => {
                    message.starts_with(&format!("[{code}]"))
                        || message.starts_with(&format!("[{code}@"))
                }
                _ => false,
            },
            _ => false,
        }
    }
}

/// One control request: its lines and the reply each must produce.
pub struct Op {
    /// Request lines, newline-terminated.
    pub text: String,
    expect: Vec<(Kind, Option<u64>)>,
}

/// The deterministic op stream of one connection.
pub struct Ops {
    rng: Rng,
    conn: usize,
    next: u64,
    fingerprints: Vec<u64>,
}

impl Ops {
    /// The stream of connection `conn` under workload seed `seed`;
    /// `fingerprints` are the set-up's published bundles (resident
    /// first, then cycled).
    pub fn new(seed: u64, conn: usize, fingerprints: &[u64]) -> Ops {
        Ops {
            rng: Rng::new(seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ (conn as u64 + 1)),
            conn,
            next: 0,
            fingerprints: fingerprints.to_vec(),
        }
    }

    fn read(&mut self, id: u64) -> Op {
        let one = |line: String, kind: Kind, id: Option<u64>| Op {
            text: format!("{line}\n"),
            expect: vec![(kind, id)],
        };
        match self.rng.below(8) {
            0 | 1 => one(format!("hdx1 ping id={id}"), Kind::Pong, Some(id)),
            2 => one(format!("hdx1 stats id={id}"), Kind::Stats, Some(id)),
            3 => one(format!("hdx1 metrics id={id}"), Kind::Metrics, Some(id)),
            4 => one(format!("hdx1 list_tasks id={id}"), Kind::Tasks, Some(id)),
            5 => one(
                format!("hdx1 catalog_list id={id}"),
                Kind::Catalog,
                Some(id),
            ),
            6 => match self.rng.below(3) {
                0 => one(
                    format!("hdx1 frobnicate id={id}"),
                    Kind::Error("unknown_verb"),
                    None,
                ),
                1 => one(
                    format!("hdx1 search id={id} task=nosuchtask"),
                    Kind::Error("invalid_value"),
                    None,
                ),
                _ => one(
                    format!("hdx9 ping id={id}"),
                    Kind::Error("version_mismatch"),
                    None,
                ),
            },
            _ => {
                // Routed, then refused: no bundle has this seed, so
                // the engine never runs. The seal ping flushes it.
                let bundle_seed = 1_000_000 + self.rng.below(1_000_000);
                let seal = 900_000_000 + id;
                Op {
                    text: format!(
                        "hdx1 search id={id} task=spheres fps=30 epochs=2 steps=3 batch=16 \
                         final_train=40 seed={} bundle_seed={bundle_seed}\nhdx1 ping id={seal}\n",
                        self.rng.below(1_000_000_000)
                    ),
                    expect: vec![
                        (Kind::Error("task_unavailable"), Some(id)),
                        (Kind::Pong, Some(seal)),
                    ],
                }
            }
        }
    }

    fn write(&mut self, id: u64, step: u64) -> Op {
        let cycle = (step / 6) as usize % CYCLED.len();
        let (task, bundle_seed) = CYCLED[cycle];
        let fp = self.fingerprints[RESIDENT.len() + cycle];
        let (line, kind) = match step % 6 {
            0 => (
                format!(
                    "hdx1 load_bundle id={id} path={}",
                    hdx_catalog::format_ref(fp)
                ),
                Kind::Loaded,
            ),
            3 => (
                format!(
                    "hdx1 unload_bundle id={id} task={} bundle_seed={bundle_seed}",
                    task.label()
                ),
                Kind::Unloaded,
            ),
            _ => return self.read(id),
        };
        Op {
            text: format!("{line}\n"),
            expect: vec![(kind, Some(id))],
        }
    }
}

impl Iterator for Ops {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let step = self.next;
        self.next += 1;
        let id = 1 + step;
        Some(if self.conn == 0 {
            self.read(id)
        } else {
            self.write(id, step)
        })
    }
}

/// Checks that each reply decodes to the kind (and id) its request
/// expects.
fn check_replies(op: &Op, replies: &[String]) -> Result<(), String> {
    for ((kind, id), reply) in op.expect.iter().zip(replies) {
        let ok = match v1::decode_response(reply) {
            Ok(env) => kind.matches(&env.body) && id.is_none_or(|id| env.request_id == id),
            Err(_) => false,
        };
        if !ok {
            return Err(format!(
                "{:?} expected {kind:?}, got {reply:?}",
                op.text.lines().next().unwrap_or("")
            ));
        }
    }
    Ok(())
}

/// Runs the two closed loops for `secs` seconds.
pub fn measure(env: &Env, seed: u64, secs: f64) -> Phase {
    let router = env.router();
    let watch = hdx_obs::Stopwatch::start();
    let fingerprints = &env.fingerprints;
    let conns: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    let pair = UnixStream::pair().and_then(|(client, server)| {
                        Ok((
                            Conn::over(Socket::Unix(client))?,
                            server.try_clone()?,
                            server,
                        ))
                    });
                    let (conn, server_in, server_out) = match pair {
                        Ok(p) => p,
                        Err(e) => {
                            phase.fail(format!("conn {c}: socket pair: {e}"));
                            return phase;
                        }
                    };
                    std::thread::scope(|inner| {
                        let server = inner.spawn(move || {
                            router.serve_connection(BufReader::new(server_in), server_out)
                        });
                        run_conn(conn, seed, c, fingerprints, &watch, secs, &mut phase);
                        match server.join() {
                            Ok(Ok(())) => {}
                            Ok(Err(e)) => phase.fail(format!("conn {c}: server: {e}")),
                            Err(_) => phase.fail(format!("conn {c}: server thread panicked")),
                        }
                    });
                    phase
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Phase::merge(conns, watch.seconds())
}

fn run_conn(
    mut conn: Conn,
    seed: u64,
    c: usize,
    fingerprints: &[u64],
    watch: &hdx_obs::Stopwatch,
    secs: f64,
    phase: &mut Phase,
) {
    for op in Ops::new(seed, c, fingerprints) {
        if watch.seconds() >= secs {
            break;
        }
        phase.attempted += 1;
        let started = watch.seconds();
        if let Err(e) = conn.send(&op.text) {
            phase.fail(format!("conn {c}: send: {e}"));
            break;
        }
        let mut replies = Vec::with_capacity(op.expect.len());
        while replies.len() < op.expect.len() {
            match conn.recv() {
                Ok(Some(line)) => replies.push(line),
                Ok(None) | Err(_) => break,
            }
        }
        let ended = watch.seconds();
        if replies.len() < op.expect.len() {
            phase.fail(format!("conn {c}: connection ended"));
            break;
        }
        if let Err(problem) = check_replies(&op, &replies) {
            phase.fail(format!("conn {c}: {problem}"));
            continue;
        }
        if phase.replies.len() < REPLY_SAMPLE {
            phase.replies.extend(replies);
        }
        phase.record(started, ended, 1, (ended - started) * 1e3);
        // A refused search is still a dispatched job.
        phase.jobs += op.expect.len() as u64 - 1;
    }
    conn.close();
}

/// The workload's own request lines, for the decode probe.
pub fn sample_lines(seed: u64, fingerprints: &[u64]) -> Vec<String> {
    (0..CONNS)
        .flat_map(|c| {
            Ops::new(seed, c, fingerprints)
                .take(32)
                .flat_map(|op| op.text.lines().map(str::to_owned).collect::<Vec<_>>())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_streams_are_seeded_and_cover_every_verb() {
        let fps = [1, 2, 3, 4, 5, 6];
        let text = |seed, conn| -> Vec<String> {
            Ops::new(seed, conn, &fps)
                .take(64)
                .map(|op| op.text)
                .collect()
        };
        assert_eq!(text(3, 0), text(3, 0));
        assert_ne!(text(3, 0), text(4, 0));
        let all: String = text(3, 0).concat() + &text(3, 1).concat();
        for verb in [
            "ping",
            "stats",
            "metrics",
            "list_tasks",
            "catalog_list",
            "load_bundle",
            "unload_bundle",
            "search",
        ] {
            assert!(all.contains(&format!(" {verb} ")), "{verb} missing");
        }
    }
}
