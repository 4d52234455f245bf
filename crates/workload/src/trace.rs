//! Versioned, checksummed request/response traces.
//!
//! A trace captures a request workload *plus the byte-exact responses
//! a correct router must produce*, in the `hdx_tensor::ckpt` section
//! container (magic, version word, FNV checksum — corruption loads as
//! a typed error, never as a silently different workload).
//!
//! # Why every entry carries its own seal
//!
//! v1 report lines include batch-dependent queue fields
//! (`queue_pos`/`queued_jobs`/…), and the router batches consecutive
//! search-type lines per connection. If a trace were replayed by
//! splitting raw lines across N connections, batch composition — and
//! therefore response bytes — would depend on the split. The recorder
//! instead seals every entry with a generated `hdx1 ping` barrier
//! line: the ping flushes the entry as its own batch, so queue fields
//! are entry-local and the expected bytes are invariant to how entries
//! are partitioned across connections. The seal's `pong` is part of
//! the expected bytes.
//!
//! # What cannot be recorded
//!
//! `stats` reads process-wide counters and `load_bundle`/
//! `unload_bundle` mutate the registry — their responses depend on
//! what else the server has done, not on the request alone, so the
//! recorder rejects them with [`TraceError::UnstableRequest`] instead
//! of writing a trace that only replays at one concurrency setting.

use hdx_serve::{parse_request, v1, Router};
use hdx_tensor::ckpt::{Checkpoint, CkptError};
use std::io::{BufReader, Cursor, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;

/// Current trace container version.
pub const TRACE_VERSION: u64 = 1;

/// Seal-ping ids start here; workload request ids must stay below.
pub const SEAL_ID_BASE: u64 = 900_000_000;

/// One recorded exchange: a client request line and every response
/// line it must produce (including the entry's seal `pong`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// The request line as the client wrote it.
    pub request: String,
    /// Expected response lines, in order.
    pub expect: Vec<String>,
}

/// A recorded workload: entries replayable at any connection count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Recorded exchanges, in workload order.
    pub entries: Vec<TraceEntry>,
}

/// How replay distributes entries over connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interleave {
    /// Entry `i` goes to connection `i % conns`.
    RoundRobin,
    /// Contiguous blocks of `ceil(n / conns)` entries per connection.
    Blocks,
}

impl Interleave {
    /// CLI label.
    pub fn label(self) -> &'static str {
        match self {
            Interleave::RoundRobin => "round-robin",
            Interleave::Blocks => "blocks",
        }
    }

    /// Inverse of [`Interleave::label`].
    pub fn parse(s: &str) -> Option<Interleave> {
        match s {
            "round-robin" => Some(Interleave::RoundRobin),
            "blocks" => Some(Interleave::Blocks),
            _ => None,
        }
    }
}

/// Typed trace failures: container problems, unstable requests at
/// record time, and byte mismatches at replay time.
#[derive(Debug)]
pub enum TraceError {
    /// Container-level failure (bad magic/version/checksum/section).
    Ckpt(CkptError),
    /// Socket or in-memory I/O failure.
    Io(std::io::Error),
    /// A recorded line failed to decode while scoring.
    Proto(hdx_serve::ProtoError),
    /// The file's version word is newer than this reader.
    UnsupportedVersion(u64),
    /// The workload contains a request whose response depends on
    /// server state rather than the request alone.
    UnstableRequest {
        /// Entry index in the workload.
        entry: usize,
        /// The offending verb.
        verb: &'static str,
    },
    /// A replayed response differed from the recorded bytes.
    Mismatch {
        /// Entry index in the trace.
        entry: usize,
        /// Connection that replayed the entry.
        conn: usize,
        /// The recorded line (`<eof>` when the server wrote extra).
        expected: String,
        /// The line actually received (`<eof>` when the connection
        /// ended early).
        actual: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Ckpt(e) => write!(f, "trace container: {e}"),
            TraceError::Io(e) => write!(f, "trace i/o: {e}"),
            TraceError::Proto(e) => write!(f, "trace line does not decode: {e}"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "trace version {v} is newer than this reader ({TRACE_VERSION})")
            }
            TraceError::UnstableRequest { entry, verb } => write!(
                f,
                "entry {entry}: `{verb}` responses depend on server state and cannot be recorded"
            ),
            TraceError::Mismatch {
                entry,
                conn,
                expected,
                actual,
            } => write!(
                f,
                "entry {entry} (conn {conn}): response diverged\n  expected: {expected}\n  actual:   {actual}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<CkptError> for TraceError {
    fn from(e: CkptError) -> Self {
        TraceError::Ckpt(e)
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// The generated barrier line sealing entry `i`.
fn seal_line(i: usize) -> String {
    format!("hdx1 ping id={}", SEAL_ID_BASE + i as u64)
}

/// Names the verb if `line` is one the recorder must refuse.
fn unstable_verb(line: &str) -> Option<&'static str> {
    let body = match v1::sniff(line) {
        v1::Framing::V0 => parse_request(line).ok()?.into_body(),
        v1::Framing::V1 => v1::decode_request(line).ok()?.body,
        v1::Framing::Unsupported { .. } => return None,
    };
    let name = v1::VERBS[body.verb_index()].name;
    ["stats", "load_bundle", "unload_bundle"]
        .contains(&name)
        .then_some(name)
}

impl Trace {
    /// Records a workload against `router`: each request line is
    /// served with its seal appended on a fresh in-memory connection,
    /// and the response bytes become the entry's expectation.
    ///
    /// # Errors
    ///
    /// [`TraceError::UnstableRequest`] for state-dependent verbs;
    /// [`TraceError::Io`] if the in-memory serve fails.
    pub fn record(router: &Router, requests: &[String]) -> Result<Trace, TraceError> {
        let mut entries = Vec::with_capacity(requests.len());
        for (i, request) in requests.iter().enumerate() {
            if let Some(verb) = unstable_verb(request) {
                return Err(TraceError::UnstableRequest { entry: i, verb });
            }
            let input = format!("{request}\n{}\n", seal_line(i));
            let mut out = Vec::new();
            router.serve_connection(Cursor::new(input), &mut out)?;
            let text = String::from_utf8(out)
                .map_err(|_| CkptError::Malformed("non-UTF-8 response bytes".to_owned()))?;
            entries.push(TraceEntry {
                request: request.clone(),
                expect: text.lines().map(str::to_owned).collect(),
            });
        }
        Ok(Trace { entries })
    }

    /// Writes the trace as a checksummed `ckpt` container.
    ///
    /// # Errors
    ///
    /// [`TraceError::Ckpt`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), TraceError> {
        let mut ck = Checkpoint::new();
        ck.put_u64(
            "trace.meta",
            &[2],
            &[TRACE_VERSION, self.entries.len() as u64],
        );
        for (i, e) in self.entries.iter().enumerate() {
            ck.put_bytes(&format!("trace.{i}.req"), e.request.as_bytes());
            ck.put_bytes(&format!("trace.{i}.resp"), e.expect.join("\n").as_bytes());
        }
        ck.save(path)?;
        Ok(())
    }

    /// Loads a trace, validating magic, version, and checksum.
    ///
    /// # Errors
    ///
    /// [`TraceError::Ckpt`] for any container corruption (truncation,
    /// bit flips, missing sections) and
    /// [`TraceError::UnsupportedVersion`] for a newer format word —
    /// never a panic, never a silently shorter trace.
    pub fn load(path: &Path) -> Result<Trace, TraceError> {
        let ck = Checkpoint::load(path)?;
        let (shape, meta) = ck.get_u64("trace.meta")?;
        if shape != [2] || meta.len() != 2 {
            return Err(CkptError::Malformed("trace.meta must be two words".to_owned()).into());
        }
        if meta[0] != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(meta[0]));
        }
        let count = usize::try_from(meta[1])
            .map_err(|_| CkptError::Malformed("entry count overflows usize".to_owned()))?;
        let utf8 = |bytes: Vec<u8>, what: &str| {
            String::from_utf8(bytes)
                .map_err(|_| CkptError::Malformed(format!("{what}: non-UTF-8 text")))
        };
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let request = utf8(ck.get_bytes(&format!("trace.{i}.req"))?, "request")?;
            let resp = utf8(ck.get_bytes(&format!("trace.{i}.resp"))?, "response")?;
            entries.push(TraceEntry {
                request,
                expect: resp.lines().map(str::to_owned).collect(),
            });
        }
        Ok(Trace { entries })
    }

    /// Entry indices each connection replays, in send order.
    pub fn partition(&self, conns: usize, interleave: Interleave) -> Vec<Vec<usize>> {
        let conns = conns.max(1);
        let n = self.entries.len();
        let mut parts = vec![Vec::new(); conns];
        match interleave {
            Interleave::RoundRobin => {
                for i in 0..n {
                    parts[i % conns].push(i);
                }
            }
            Interleave::Blocks => {
                let per = n.div_ceil(conns.max(1)).max(1);
                for i in 0..n {
                    parts[(i / per).min(conns - 1)].push(i);
                }
            }
        }
        parts
    }

    /// Replays the trace against a live TCP router: `conns` concurrent
    /// connections, each writing its partition's request+seal lines,
    /// half-closing, and comparing every response line byte-for-byte
    /// against the recording.
    ///
    /// # Errors
    ///
    /// The first [`TraceError::Mismatch`] in entry order across
    /// connections, or [`TraceError::Io`] on socket failures.
    pub fn replay(
        &self,
        addr: SocketAddr,
        conns: usize,
        interleave: Interleave,
    ) -> Result<(), TraceError> {
        let parts = self.partition(conns, interleave);
        let results: Vec<Result<(), TraceError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .enumerate()
                .map(|(conn, idxs)| {
                    scope.spawn(move || self.replay_one_connection(addr, conn, idxs))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay connection thread panicked"))
                .collect()
        });
        // Report the divergence at the smallest entry index so the
        // diagnosis does not depend on thread finishing order.
        let mut failures: Vec<TraceError> = results.into_iter().filter_map(Result::err).collect();
        failures.sort_by_key(|e| match e {
            TraceError::Mismatch { entry, .. } => *entry,
            _ => usize::MAX,
        });
        match failures.into_iter().next() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn replay_one_connection(
        &self,
        addr: SocketAddr,
        conn: usize,
        idxs: &[usize],
    ) -> Result<(), TraceError> {
        if idxs.is_empty() {
            return Ok(());
        }
        let mut stream = TcpStream::connect(addr)?;
        let mut input = String::new();
        for &i in idxs {
            input.push_str(&self.entries[i].request);
            input.push('\n');
            input.push_str(&seal_line(i));
            input.push('\n');
        }
        stream.write_all(input.as_bytes())?;
        stream.shutdown(Shutdown::Write)?;
        let mut text = String::new();
        BufReader::new(stream).read_to_string(&mut text)?;
        let mut actual = text.lines();
        for &i in idxs {
            for expected in &self.entries[i].expect {
                let got = actual.next().unwrap_or("<eof>");
                if got != expected {
                    return Err(TraceError::Mismatch {
                        entry: i,
                        conn,
                        expected: expected.clone(),
                        actual: got.to_owned(),
                    });
                }
            }
        }
        if let Some(extra) = actual.next() {
            return Err(TraceError::Mismatch {
                entry: *idxs.last().expect("non-empty partition"),
                conn,
                expected: "<eof>".to_owned(),
                actual: extra.to_owned(),
            });
        }
        Ok(())
    }
}

/// Binds a loopback listener, serves `router` on a background accept
/// loop, and returns the address to replay against.
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn_tcp_router(router: std::sync::Arc<Router>) -> std::io::Result<SocketAddr> {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    std::thread::spawn(move || {
        let _ = router.serve_tcp(listener);
    });
    Ok(addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_partitions_cover_all_entries_in_order() {
        let trace = Trace {
            entries: (0..7)
                .map(|i| TraceEntry {
                    request: format!("req {i}"),
                    expect: vec![],
                })
                .collect(),
        };
        for il in [Interleave::RoundRobin, Interleave::Blocks] {
            for conns in [1, 2, 3, 4, 9] {
                let parts = trace.partition(conns, il);
                assert_eq!(parts.len(), conns);
                let mut seen: Vec<usize> = parts.iter().flatten().copied().collect();
                for p in &parts {
                    assert!(p.windows(2).all(|w| w[0] < w[1]), "per-conn order");
                }
                seen.sort_unstable();
                assert_eq!(seen, (0..7).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn unstable_verbs_are_named() {
        assert_eq!(unstable_verb("stats"), Some("stats"));
        assert_eq!(unstable_verb("hdx1 stats id=4"), Some("stats"));
        assert_eq!(
            unstable_verb("hdx1 load_bundle id=1 path=/tmp/b.ckpt"),
            Some("load_bundle")
        );
        assert_eq!(
            unstable_verb("hdx1 unload_bundle id=1 task=cifar bundle_seed=0"),
            Some("unload_bundle")
        );
        assert_eq!(unstable_verb("ping"), None);
        assert_eq!(unstable_verb("hdx1 list_tasks id=2"), None);
        assert_eq!(unstable_verb("search id=1 task=cifar"), None);
        assert_eq!(unstable_verb("complete garbage"), None);
    }

    #[test]
    fn save_load_roundtrip_and_version_gate() {
        let dir = std::env::temp_dir().join(format!("hdx_trace_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("t.trace");
        let trace = Trace {
            entries: vec![
                TraceEntry {
                    request: "search id=1 task=cifar".to_owned(),
                    expect: vec![
                        "report id=1 …".to_owned(),
                        "hdx1 pong id=900000000".to_owned(),
                    ],
                },
                TraceEntry {
                    request: "hdx1 ping id=2".to_owned(),
                    expect: vec![
                        "hdx1 pong id=2".to_owned(),
                        "hdx1 pong id=900000001".to_owned(),
                    ],
                },
            ],
        };
        trace.save(&path).expect("save");
        let back = Trace::load(&path).expect("load");
        assert_eq!(back, trace);
        std::fs::remove_dir_all(&dir).ok();
    }
}
