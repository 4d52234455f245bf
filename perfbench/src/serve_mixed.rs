//! `serve_mixed`: a closed loop of small co-design searches over
//! loopback TCP against an in-process router, two connections, each
//! request line followed by a seal ping. Request seeds come from a
//! wide range, so nearly every request samples new supernet path sets
//! and the session bank misses.

use crate::digest;
use crate::env::{Conn, Env};
use crate::{Phase, Stream, DIGEST_ENTRIES, REPLY_SAMPLE};
use hdx_core::Task;
use hdx_serve::v1;
use hdx_tensor::Rng;
use hdx_workload::BundleSpec;
use std::io::Cursor;
use std::path::Path;

/// Client connections.
pub const CONNS: usize = 2;
/// Router worker threads: each connection runs its jobs in turn.
pub const JOBS: usize = 1;
/// First id of the seal pings that close every request line.
const SEAL_BASE: u64 = 900_000_000;

/// The reference task families, each served from one small bundle
/// whose seed is the family's task code.
const FAMILIES: [Task; 4] = [Task::Spheres, Task::HighDim, Task::ManyClass, Task::Edge];

/// Trains and publishes the four small bundles, loads them from the
/// catalog, and starts the TCP router.
pub fn setup(dir: &Path) -> Result<Env, String> {
    let specs: Vec<BundleSpec> = FAMILIES
        .iter()
        .map(|&t| BundleSpec::expand_small(t, t.index() as u64))
        .collect();
    let mut env = Env::publish(dir, &specs, 2)?;
    env.serve(JOBS, specs.len(), true)?;
    Ok(env)
}

/// One generated request line.
pub struct Entry {
    /// The request line.
    pub line: String,
    /// Its request id.
    pub id: u64,
    /// Report lines it must produce.
    pub jobs: usize,
    /// Whether it is v1-framed (its reports are v1 lines).
    pub v1: bool,
}

/// The deterministic request stream of one connection: the verbs
/// rotate v1 search / v1 grid (2 jobs) / v0 search / v1 meta, the
/// families rotate after each full verb rotation, and λ, the FPS
/// target and the search seed are drawn from the workload seed. The
/// lines are spelled out here rather than produced by the program's
/// encoder, so a codec change cannot change the inputs.
pub struct Requests {
    rng: Rng,
    conn: usize,
    next: u64,
}

impl Requests {
    /// The stream of connection `conn` under workload seed `seed`.
    pub fn new(seed: u64, conn: usize) -> Requests {
        Requests {
            rng: Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (conn as u64 + 1)),
            conn,
            next: 0,
        }
    }

    /// The seal ping for entry `i`.
    pub fn seal(i: u64) -> String {
        format!("hdx1 ping id={}", SEAL_BASE + i)
    }
}

impl Iterator for Requests {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        let i = self.next;
        self.next += 1;
        let id = 1 + i;
        let task = FAMILIES[(i as usize / 4 + self.conn) % FAMILIES.len()];
        let bundle = task.index();
        let label = task.label();
        let lambda = 1 + self.rng.below(40);
        let fps = 20 + self.rng.below(30);
        let seed = self.rng.next_u64() % 1_000_000_000;
        let tenths = |k: usize| format!("{}.{}", k / 10, k % 10);
        let budget = "epochs=2 steps=3 batch=16 final_train=40";
        let common = format!(
            "id={id} task={label} method=hdx fps={fps} lambda_cost={} {budget} seed={seed}",
            tenths(lambda)
        );
        let (line, jobs, v1) = match i % 4 {
            0 => (
                format!("hdx1 search {common} bundle_seed={bundle}"),
                1,
                true,
            ),
            1 => (
                format!(
                    "hdx1 grid {common} lambda_grid={},{} bundle_seed={bundle}",
                    tenths(lambda),
                    tenths(2 * lambda)
                ),
                2,
                true,
            ),
            // v0 framing has no bundle_seed: the router picks the
            // family's only bundle.
            2 => (format!("search {common}"), 1, false),
            _ => (
                format!("hdx1 meta {common} max_searches=2 bundle_seed={bundle}"),
                1,
                true,
            ),
        };
        Some(Entry { line, id, jobs, v1 })
    }
}

/// Checks the replies to one entry (its report lines, without the
/// seal pong).
fn check_replies(entry: &Entry, replies: &[String]) -> Result<(), String> {
    if replies.len() != entry.jobs {
        return Err(format!(
            "request {}: {} report line(s), expected {}",
            entry.id,
            replies.len(),
            entry.jobs
        ));
    }
    for reply in replies {
        let ok = if entry.v1 {
            matches!(
                v1::decode_response(reply),
                Ok(env) if env.request_id == entry.id
                    && matches!(env.body, v1::ResponseBody::Report(_))
            )
        } else {
            reply.starts_with(&format!("report id={} ", entry.id))
        };
        if !ok {
            return Err(format!("request {}: unexpected reply {reply:?}", entry.id));
        }
    }
    Ok(())
}

/// Runs the closed loop for `secs` seconds.
pub fn measure(env: &Env, seed: u64, secs: f64) -> Phase {
    let addr = env.addr.expect("serve_mixed set-up starts a TCP router");
    let watch = hdx_obs::Stopwatch::start();
    let conns: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| scope.spawn(move || run_conn(addr, seed, c, &watch, secs)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Phase::merge(conns, watch.seconds())
}

fn run_conn(
    addr: std::net::SocketAddr,
    seed: u64,
    c: usize,
    watch: &hdx_obs::Stopwatch,
    secs: f64,
) -> Phase {
    let mut phase = Phase::default();
    let mut stream = Stream::default();
    let mut conn = match Conn::tcp(addr) {
        Ok(conn) => conn,
        Err(e) => {
            phase.fail(format!("conn {c}: connect: {e}"));
            phase.streams.push(stream);
            return phase;
        }
    };
    for (i, entry) in Requests::new(seed, c).enumerate() {
        if watch.seconds() >= secs {
            break;
        }
        let seal = Requests::seal(i as u64);
        let started = watch.seconds();
        phase.attempted += 1;
        if let Err(e) = conn.send(&format!("{}\n{seal}\n", entry.line)) {
            phase.fail(format!("conn {c}: send: {e}"));
            break;
        }
        let pong = format!("hdx1 pong id={}", SEAL_BASE + i as u64);
        let mut replies = Vec::with_capacity(entry.jobs);
        let sealed = loop {
            match conn.recv() {
                Ok(Some(line)) if line == pong => break true,
                Ok(Some(line)) => replies.push(line),
                Ok(None) | Err(_) => break false,
            }
        };
        let ended = watch.seconds();
        if !sealed {
            phase.fail(format!("conn {c}: request {}: connection ended", entry.id));
            break;
        }
        if i < DIGEST_ENTRIES {
            for line in replies.iter().chain(std::iter::once(&pong)) {
                stream.head.extend_from_slice(line.as_bytes());
                stream.head.push(b'\n');
            }
            stream.entries = i + 1;
        }
        if let Err(problem) = check_replies(&entry, &replies) {
            phase.fail(format!("conn {c}: {problem}"));
            continue;
        }
        if entry.v1 && phase.replies.len() < REPLY_SAMPLE {
            phase.replies.extend(replies.iter().cloned());
        }
        phase.record(started, ended, entry.jobs as u64, (ended - started) * 1e3);
        phase.jobs += entry.jobs as u64;
    }
    conn.close();
    phase.streams.push(stream);
    phase
}

/// Replays each connection's first entries in process through
/// `Router::serve_connection` and compares digests with the bytes the
/// TCP client read (and with the pinned digests, where this seed has
/// them).
pub fn verify(env: &Env, seed: u64, phase: &Phase) -> Vec<String> {
    let mut problems = Vec::new();
    for (c, stream) in phase.streams.iter().enumerate() {
        let mut input = String::new();
        for (i, entry) in Requests::new(seed, c).take(stream.entries).enumerate() {
            input.push_str(&format!("{}\n{}\n", entry.line, Requests::seal(i as u64)));
        }
        let mut replay = Vec::new();
        if let Err(e) = env
            .router()
            .serve_connection(Cursor::new(input), &mut replay)
        {
            problems.push(format!("conn {c}: in-process replay: {e}"));
            continue;
        }
        problems.extend(digest::check_stream(
            "serve_mixed",
            seed,
            c,
            stream,
            DIGEST_ENTRIES,
            &replay,
        ));
    }
    problems
}

/// The workload's own request lines, for the decode probe.
pub fn sample_lines(seed: u64) -> Vec<String> {
    (0..CONNS)
        .flat_map(|c| Requests::new(seed, c).take(32).map(|e| e.line))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_streams_are_seeded_and_parse() {
        let a: Vec<String> = Requests::new(7, 0).take(16).map(|e| e.line).collect();
        let b: Vec<String> = Requests::new(7, 0).take(16).map(|e| e.line).collect();
        let c: Vec<String> = Requests::new(8, 0).take(16).map(|e| e.line).collect();
        let d: Vec<String> = Requests::new(7, 1).take(16).map(|e| e.line).collect();
        assert_eq!(a, b);
        assert_ne!(a, c, "the workload seed must matter");
        assert_ne!(a, d, "connections must not send the same stream");
        for line in &a {
            match v1::sniff(line) {
                v1::Framing::V1 => {
                    v1::decode_request(line).expect("v1 line decodes");
                }
                _ => {
                    hdx_serve::parse_request(line).expect("v0 line parses");
                }
            }
        }
    }
}
