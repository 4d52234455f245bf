//! The multi-tenant front door: a registry of warm `(task, seed)`
//! bundles behind one connection loop.
//!
//! The [`Router`] owns any number of `TaskService` workers and routes
//! each search-type request by its `task` field (plus the optional v1
//! `bundle_seed` pin; without it the lowest registered seed for the
//! task answers). Bundles can be loaded and unloaded at runtime through
//! the v1 `load_bundle` / `unload_bundle` verbs, and the `stats` verb
//! aggregates per-bundle counters with the process-wide session-bank
//! statistics.
//!
//! # Scheduling determinism
//!
//! A batch may span tasks: the router resolves every expanded job to
//! its bundle *before* fanning the batch across the worker pool, runs
//! jobs in parallel, and writes reports **in request order**. Jobs are
//! pure functions of their requests (see the `service` module), so the
//! response byte stream is invariant to the worker count — pinned at
//! jobs ∈ {1, 2, 4} in `tests/serve.rs` and `tests/serve_router.rs`.
//!
//! # Hardening
//!
//! Two deterministic guards bound what one client can queue:
//!
//! * **per-connection request quota**
//!   ([`RouterConfig::max_requests_per_conn`]) — counted per input
//!   line; the overflowing line is answered with an in-band
//!   `quota_exceeded` error and the connection closes after the
//!   already-accepted work flushes;
//! * **per-job deadline** ([`RouterConfig::deadline_steps`]) — a
//!   *step* budget, not wall clock ([`SearchRequest::step_budget`] is a
//!   pure function of the request), so enforcement cannot introduce
//!   timing nondeterminism: an oversized job is rejected with an
//!   in-band `deadline_exceeded` error before any work runs.

use crate::artifact::{load_bundle, load_bundle_bytes, task_from_code, Artifacts};
use crate::proto::{v1, ErrorKind, ProtoError, SearchReport, SearchRequest};
use crate::service::TaskService;
use hdx_core::{PreparedContext, Task};
use hdx_tensor::ckpt::CkptError;
use hdx_tensor::SessionBank;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// The `router.verb.<name>` request counter of each [`v1::VERBS`] row,
/// indexed by [`v1::RequestBody::verb_index`]: a job line, in either
/// framing, counts under the verb its options imply
/// ([`SearchRequest::verb_index`]), as the `stats` rows do — a v0
/// `search` carrying a λ-grid counts as `grid`. Counts only — per-verb
/// *timing* goes to the span sink, keeping the `metrics` snapshot
/// wall-clock-free. A counter is named here but registered on first
/// use, so a verb never requested adds no `metrics` row.
fn verb_counter(verb: usize) -> &'static hdx_obs::Counter {
    static COUNTERS: OnceLock<Vec<hdx_obs::Counter>> = OnceLock::new();
    let counters = COUNTERS.get_or_init(|| {
        v1::VERBS
            .iter()
            .map(|v| hdx_obs::Counter::new(format!("router.verb.{}", v.name).leak()))
            .collect()
    });
    &counters[verb]
}

/// Lines answered with an in-band protocol error.
static OBS_PROTO_ERRORS: hdx_obs::Counter = hdx_obs::Counter::new("router.proto_errors");

/// Router construction knobs.
#[derive(Debug, Clone, Default)]
pub struct RouterConfig {
    /// Worker threads for the job scheduler (`0` = auto via
    /// `HDX_JOBS`). Connection loops use this; [`Router::run_batch`]
    /// also takes an explicit override.
    pub jobs: usize,
    /// Per-connection request quota (`None` = unbounded). Counted per
    /// input line, before parsing.
    pub max_requests_per_conn: Option<u64>,
    /// Per-job deterministic step budget (`None` = unbounded). A job
    /// whose [`SearchRequest::step_budget`] exceeds this is rejected
    /// in-band before any work runs.
    pub deadline_steps: Option<u64>,
}

/// A loaded bundle and the catalog lease it was loaded under, if any.
type Bundle = (Arc<TaskService>, Option<hdx_catalog::Lease>);

/// The multi-bundle serving front door. See the module docs.
pub struct Router {
    cfg: RouterConfig,
    /// Every loaded bundle with the catalog lease it was loaded under,
    /// if any, keyed by `(Task::index, seed)` so stats and listings
    /// iterate in a deterministic `(task, seed)` order. Holding the
    /// lease keeps retention GC (and explicit `catalog_evict`) from
    /// deleting an object that still backs a live bundle; it drops with
    /// the entry when the bundle is unloaded or replaced.
    services: RwLock<BTreeMap<(usize, u64), Bundle>>,
    /// The mounted artifact catalog, if any (`--catalog <dir>`).
    /// Backs `cat:` refs in `load_bundle` and the `catalog_*` verbs.
    catalog: RwLock<Option<hdx_catalog::Catalog>>,
    /// Jobs completed by bundles that have since been unloaded or
    /// replaced — keeps the aggregate `stats` counter monotonic ("since
    /// startup"), as monitoring deltas expect.
    retired_served: AtomicU64,
}

impl Router {
    /// An empty router (bundles arrive via the insert/load methods or
    /// the `load_bundle` verb).
    pub fn new(cfg: RouterConfig) -> Router {
        Router {
            cfg,
            services: RwLock::new(BTreeMap::new()),
            catalog: RwLock::new(None),
            retired_served: AtomicU64::new(0),
        }
    }

    /// Mounts an artifact catalog, enabling `cat:` refs in
    /// `load_bundle` and the `catalog_list` / `catalog_pin` /
    /// `catalog_evict` verbs. Replaces any previously mounted catalog.
    pub fn mount_catalog(&self, catalog: hdx_catalog::Catalog) {
        *self.catalog.write().expect("router catalog poisoned") = Some(catalog);
    }

    /// Runs a catalog operation, mapping "not mounted" and the
    /// operation's own failure into the protocol-level
    /// [`ErrorKind::CatalogOp`].
    fn with_catalog<T>(
        &self,
        op: impl FnOnce(&hdx_catalog::Catalog) -> Result<T, hdx_catalog::CatalogError>,
    ) -> Result<T, ErrorKind> {
        let catalog = self
            .catalog
            .read()
            .expect("router catalog poisoned")
            .clone();
        let catalog = catalog.ok_or_else(|| {
            ErrorKind::catalog("no catalog mounted (start the server with --catalog <dir>)")
        })?;
        op(&catalog).map_err(ErrorKind::catalog)
    }

    /// The catalog index flattened into protocol listing entries, in
    /// canonical index order.
    fn catalog_entries(&self) -> Result<Vec<v1::CatalogEntry>, ErrorKind> {
        self.with_catalog(|catalog| {
            let mut entries = Vec::new();
            for (key, gens) in catalog.list() {
                let task = task_from_code(u64::from(key.task))
                    .map_err(|e| hdx_catalog::CatalogError::IndexMalformed(e.to_string()))?;
                for g in gens {
                    entries.push(v1::CatalogEntry {
                        task,
                        family: key.family.clone(),
                        seed: key.seed,
                        gen: g.gen,
                        fingerprint: g.fingerprint,
                        len: g.len,
                        pinned: g.pinned,
                    });
                }
            }
            Ok(entries)
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Folds a dropped bundle's served count into the retired total
    /// (the aggregate `stats` line stays monotonic).
    fn retire(&self, service: &TaskService) {
        let served = service.stats().served();
        self.retired_served.fetch_add(served, Ordering::Relaxed);
    }

    /// Registers in-process artifacts as the bundle for
    /// `(task, seed)`, replacing any previous bundle under that key.
    /// Returns the listing entry.
    pub fn insert_prepared(
        &self,
        task: Task,
        seed: u64,
        prepared: impl Into<Arc<PreparedContext>>,
    ) -> v1::TaskEntry {
        self.insert(task, seed, prepared.into(), None)
    }

    /// Registers a bundle that holds `lease` while it stays loaded.
    fn insert(
        &self,
        task: Task,
        seed: u64,
        prepared: Arc<PreparedContext>,
        lease: Option<hdx_catalog::Lease>,
    ) -> v1::TaskEntry {
        let service = Arc::new(TaskService::new(task, seed, prepared));
        let entry = service.entry();
        let key = (task.index(), seed);
        let replaced = self
            .services
            .write()
            .expect("router registry poisoned")
            .insert(key, (service, lease));
        if let Some((replaced, _)) = replaced {
            self.retire(&replaced);
        }
        entry
    }

    /// Registers loaded bundle artifacts.
    fn insert_artifacts(&self, a: Artifacts, lease: Option<hdx_catalog::Lease>) -> v1::TaskEntry {
        self.insert(a.task, a.seed, Arc::new(a.into_prepared()), lease)
    }

    /// Loads a bundle file and registers it.
    ///
    /// # Errors
    ///
    /// Typed [`CkptError`]s from the bundle loader.
    pub fn load_bundle_path(&self, path: &Path) -> Result<v1::TaskEntry, CkptError> {
        Ok(self.insert_artifacts(load_bundle(path)?, None))
    }

    /// Loads a bundle by spec: a `cat:<fingerprint>` ref resolves
    /// through the mounted catalog (the loaded bundle holds a lease on
    /// the object until it is unloaded or replaced); anything else is
    /// treated as a filesystem path.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::CatalogOp`] for catalog-side problems (no catalog
    /// mounted, unknown/corrupt object), [`ErrorKind::Checkpoint`] for
    /// bundle decode/load failures — the same split a protocol client
    /// sees on the `load_bundle` verb.
    pub fn load_bundle_ref(&self, spec: &str) -> Result<v1::TaskEntry, ErrorKind> {
        if !spec.starts_with(hdx_catalog::REF_PREFIX) {
            return self
                .load_bundle_path(Path::new(spec))
                .map_err(ErrorKind::checkpoint);
        }
        let fingerprint = hdx_catalog::parse_ref(spec).ok_or_else(|| {
            ErrorKind::catalog(format!(
                "malformed catalog ref {spec:?} (want cat:<16 hex digits>)"
            ))
        })?;
        // Lease before reading so neither GC nor an explicit evict can
        // delete the object between the read and the registry insert.
        let (lease, bytes) =
            self.with_catalog(|c| Ok((c.lease(fingerprint)?, c.get(fingerprint)?)))?;
        let artifacts = load_bundle_bytes(&bytes).map_err(ErrorKind::checkpoint)?;
        Ok(self.insert_artifacts(artifacts, Some(lease)))
    }

    /// Drops the bundle registered under `(task, seed)`. Returns
    /// whether one was present. Its serving counters fold into the
    /// retired totals, so aggregate stats never go backwards.
    pub fn unload(&self, task: Task, seed: u64) -> bool {
        let removed = self
            .services
            .write()
            .expect("router registry poisoned")
            .remove(&(task.index(), seed));
        removed.map(|(service, _)| self.retire(&service)).is_some()
    }

    /// The loaded bundles, in deterministic `(task, seed)` order.
    pub fn tasks(&self) -> Vec<v1::TaskEntry> {
        self.services
            .read()
            .expect("router registry poisoned")
            .values()
            .map(|(s, _)| s.entry())
            .collect()
    }

    /// Resolves the bundle a job routes to — exact `(task,
    /// bundle_seed)` when pinned, else the lowest-seed bundle for the
    /// task — after rejecting a job whose deterministic step budget
    /// exceeds the configured deadline.
    fn route(&self, req: &SearchRequest) -> Result<Arc<TaskService>, ProtoError> {
        let fail = |kind| ProtoError::new(req.id, kind);
        let budget = req.step_budget();
        if let Some(limit) = self.cfg.deadline_steps.filter(|&limit| budget > limit) {
            return Err(fail(ErrorKind::DeadlineExceeded { budget, limit }));
        }
        let services = self.services.read().expect("router registry poisoned");
        let code = req.task.index();
        let found = match req.bundle_seed {
            Some(seed) => services.get(&(code, seed)),
            None => services
                .range((code, 0)..=(code, u64::MAX))
                .next()
                .map(|(_, b)| b),
        };
        let found = found.map(|(service, _)| Arc::clone(service));
        found.ok_or_else(|| fail(ErrorKind::unavailable(req.task, req.bundle_seed)))
    }

    /// Expands λ-grids and fans the resulting independent jobs across
    /// `jobs` worker threads (`0` = the router's configured count,
    /// which itself defaults to `HDX_JOBS`/auto). Every job is routed,
    /// deadline-checked, and queue-stamped before dispatch; reports
    /// come back in expansion order regardless of scheduling, so the
    /// response byte stream is worker-count invariant.
    pub fn run_batch(
        &self,
        requests: &[SearchRequest],
        jobs: usize,
    ) -> Vec<Result<SearchReport, ProtoError>> {
        let _span = hdx_obs::span("router.dispatch");
        let expanded: Vec<SearchRequest> =
            requests.iter().flat_map(SearchRequest::expand).collect();
        let total = expanded.len() as u64;
        // Route and deadline-check before the fan-out: registry
        // mutations mid-batch must not change which bundle answers,
        // and rejected jobs burn no worker time.
        let dispatch: Vec<(Result<Arc<TaskService>, ProtoError>, SearchRequest)> = expanded
            .into_iter()
            .map(|req| (self.route(&req), req))
            .collect();
        let jobs = if jobs == 0 { self.cfg.jobs } else { jobs };
        hdx_tensor::parallel_map(&dispatch, jobs, |pos, (resolved, req)| {
            let service = resolved.as_ref().map_err(ProtoError::clone)?;
            service
                .run_one(req)
                .map(|report| report.with_queue(pos as u64, total))
        })
    }

    /// Runs one request (expanding a λ-grid into its jobs) over the
    /// router's configured worker pool.
    pub fn run_one(&self, req: &SearchRequest) -> Vec<Result<SearchReport, ProtoError>> {
        self.run_batch(std::slice::from_ref(req), 0)
    }

    /// Aggregated statistics: the process-wide session bank plus one
    /// row per loaded bundle.
    pub fn stats(&self) -> v1::StatsReport {
        let bank = SessionBank::global().stats();
        let tasks: Vec<v1::TaskStats> = self
            .services
            .read()
            .expect("router registry poisoned")
            .values()
            .map(|(s, _)| s.stats())
            .collect();
        v1::StatsReport {
            programs: bank.programs as u64,
            idle_sessions: bank.idle_sessions as u64,
            hits: bank.hits,
            misses: bank.misses,
            evictions: bank.evictions,
            bank_cap: bank.capacity.map(|c| c as u64),
            requests_served: self.retired_served.load(Ordering::Relaxed)
                + tasks.iter().map(v1::TaskStats::served).sum::<u64>(),
            tasks,
        }
    }

    /// Answers one control request — every verb but the batched
    /// search verbs, which queue for the connection's next flush.
    fn control(&self, body: v1::RequestBody) -> Result<v1::ResponseBody, ErrorKind> {
        use v1::{RequestBody as Req, ResponseBody as Resp};
        Ok(match body {
            Req::Stats => Resp::Stats(self.stats()),
            Req::Ping => Resp::Pong,
            Req::ListTasks => Resp::Tasks(self.tasks()),
            Req::Metrics => Resp::Metrics(hdx_obs::snapshot()),
            Req::LoadBundle { path } => Resp::Loaded(self.load_bundle_ref(&path)?),
            Req::UnloadBundle { task, bundle_seed } => {
                if !self.unload(task, bundle_seed) {
                    return Err(ErrorKind::unavailable(task, Some(bundle_seed)));
                }
                Resp::Unloaded { task, bundle_seed }
            }
            Req::CatalogList => Resp::Catalog(self.catalog_entries()?),
            Req::CatalogPin { fingerprint, on } => {
                self.with_catalog(|c| c.pin(fingerprint, on))?;
                Resp::Pinned { fingerprint, on }
            }
            Req::CatalogEvict { fingerprint } => Resp::Evicted {
                fingerprint,
                freed: self.with_catalog(|c| c.evict(fingerprint))?,
            },
            Req::Job(_) => unreachable!("batched verbs queue for the next flush"),
        })
    }

    /// Serves the line protocol over a reader/writer pair until EOF.
    ///
    /// Version negotiation is per line ([`v1::sniff`]): v0 lines are
    /// answered in v0 framing, v1 lines in v1 framing, on the same
    /// connection. Both framings decode to a [`v1::RequestBody`] and
    /// take one of two paths: job bodies accumulate into one batch, and
    /// everything else — a control verb, a malformed line, or EOF —
    /// first flushes that batch (fanned across the worker pool, reports
    /// written in request order, each in its request's framing) and is
    /// then answered by `Router::control`. A client that writes N
    /// requests and shuts down its write side therefore gets all N
    /// reports with full parallelism.
    ///
    /// Replies are buffered: each batch flush and each control reply
    /// reaches `writer` as one `write` (unless it outgrows the buffer)
    /// followed by one `flush`.
    ///
    /// # Errors
    ///
    /// Propagates reader/writer I/O errors; protocol-level problems
    /// are reported in-band as `error …` lines.
    pub fn serve_connection<R: BufRead, W: Write>(
        &self,
        reader: R,
        writer: W,
    ) -> std::io::Result<()> {
        let _conn_span = hdx_obs::span("router.connection");
        // One `write` per batch flush or control reply: separate small
        // writes on a Nagle-enabled socket wait for the peer's delayed
        // ACK. Every exit path flushes explicitly (never through
        // `Drop`), so nothing stays buffered while the loop waits for
        // input.
        let mut writer = BufWriter::new(writer);
        // Pending jobs, λ-grids already expanded, each remembering
        // whether it arrived in v0 framing so its report is encoded the
        // way the request arrived.
        let mut pending: Vec<(bool, SearchRequest)> = Vec::new();
        let flush_batch = |pending: &mut Vec<(bool, SearchRequest)>,
                           writer: &mut BufWriter<W>|
         -> std::io::Result<()> {
            if pending.is_empty() {
                return Ok(());
            }
            let _span = hdx_obs::span("router.flush");
            let (framings, jobs): (Vec<bool>, Vec<SearchRequest>) = pending.drain(..).unzip();
            for (v0, outcome) in framings
                .into_iter()
                .zip(self.run_batch(&jobs, self.cfg.jobs))
            {
                let body = outcome.map_or_else(v1::ResponseBody::Error, v1::ResponseBody::Report);
                writeln!(writer, "{}", reply_line(v0, 0, body))?;
            }
            writer.flush()
        };

        let mut seen: u64 = 0;
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let framing = v1::sniff(&line);
            let v0 = framing == v1::Framing::V0;
            seen += 1;
            let quota = self.cfg.max_requests_per_conn.filter(|&limit| seen > limit);
            let decoded = match quota {
                // The overflowing request is answered in-band (in its
                // own framing) and the connection closes; the work
                // already accepted still flushes first.
                Some(limit) => Err(ProtoError::new(0, ErrorKind::QuotaExceeded { limit })),
                None => v1::decode_line(framing, &line).inspect_err(|_| OBS_PROTO_ERRORS.incr()),
            };
            if let Ok(env) = &decoded {
                verb_counter(env.body.verb_index()).incr();
            }
            let (id, body) = match decoded {
                Ok(v1::Envelope {
                    body: v1::RequestBody::Job(req),
                    ..
                }) => {
                    pending.extend(req.expand().into_iter().map(|job| (v0, job)));
                    continue;
                }
                Ok(env) => (env.request_id, Ok(env.body)),
                Err(err) => (0, Err(err)),
            };
            // A reply is computed after the pending batch flushes:
            // stats must see the flushed jobs' counters, and a
            // load/unload must not retroactively change how
            // already-queued work routes.
            flush_batch(&mut pending, &mut writer)?;
            let reply = body
                .and_then(|body| self.control(body).map_err(|kind| ProtoError::new(id, kind)))
                .unwrap_or_else(v1::ResponseBody::Error);
            writeln!(writer, "{}", reply_line(v0, id, reply))?;
            writer.flush()?;
            if quota.is_some() {
                return Ok(());
            }
        }
        flush_batch(&mut pending, &mut writer)
    }

    /// Accept loop: serves each TCP connection with
    /// [`Router::serve_connection`] on its own thread (each connection
    /// gets its own request-quota counter). Runs until the listener
    /// fails (i.e. effectively forever); intended for the
    /// `hdx-serve serve --tcp` subcommand.
    ///
    /// # Errors
    ///
    /// Propagates listener accept errors.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        for stream in listener.incoming() {
            let stream = stream?;
            // Replies are written whole (see `serve_connection`), so
            // Nagle's algorithm only adds latency: with it, a reply
            // that follows an unacknowledged one waits for the peer's
            // delayed ACK. A socket that refuses the option still
            // serves correctly, just slower.
            let _ = stream.set_nodelay(true);
            let router = Arc::clone(self);
            std::thread::spawn(move || {
                let reader = BufReader::new(match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => return,
                });
                // Connection-level I/O errors just end the connection.
                let _ = router.serve_connection(reader, stream);
            });
        }
        Ok(())
    }
}

/// A reply line in the framing its request arrived in.
fn reply_line(v0: bool, id: u64, body: v1::ResponseBody) -> String {
    if v0 {
        v1::encode_response_v0(&body)
    } else {
        v1::encode_response(&v1::Envelope::v1(id, body))
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("bundles", &self.tasks().len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_core::{CheckpointSpec, Constraint};

    /// One canonical request body per verb, in [`v1::VERBS`] order.
    fn sample_bodies() -> Vec<v1::RequestBody> {
        use v1::RequestBody as Body;
        let search = SearchRequest {
            id: 1,
            ..SearchRequest::default()
        };
        let mut meta = SearchRequest {
            max_searches: 2,
            ..search.clone()
        };
        meta.opts.constraints = vec![Constraint::fps(30.0)];
        let mut resume = SearchRequest {
            resume_from_checkpoint: true,
            ..search.clone()
        };
        resume.opts.checkpoint = Some(CheckpointSpec {
            path: "/tmp/r.ckpt".into(),
            every_epochs: 1,
            note: None,
        });
        let job = |req| Body::Job(Box::new(req));
        vec![
            job(search.clone()),
            job(SearchRequest {
                lambda_grid: vec![0.1, 0.2],
                ..search
            }),
            job(meta),
            job(resume),
            Body::Stats,
            Body::Ping,
            Body::LoadBundle {
                path: "/tmp/b.ckpt".to_owned(),
            },
            Body::UnloadBundle {
                task: Task::ImageNet,
                bundle_seed: 3,
            },
            Body::ListTasks,
            Body::Metrics,
            Body::CatalogList,
            Body::CatalogPin {
                fingerprint: 0xff,
                on: true,
            },
            Body::CatalogEvict { fingerprint: 0xff },
        ]
    }

    /// The `(request verb, response verb)` rows of a markdown verb
    /// table: the first backticked word of the first and last cells.
    fn doc_rows(text: &str) -> Vec<(String, String)> {
        let ticked = |cell: &str| cell.split('`').nth(1).unwrap_or_default().to_owned();
        text.lines()
            .map(|l| l.trim_start_matches("//!").trim())
            .skip_while(|l| !l.starts_with("| request verb"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| {
                let cells: Vec<&str> = l.split('|').collect();
                (ticked(cells[1]), ticked(cells[cells.len() - 2]))
            })
            .collect()
    }

    #[test]
    fn batch_is_bounded_by_the_task_training_split() {
        for task in Task::ALL {
            let (label, rows) = (task.label(), task.spec(0).train);
            let line = |batch: usize| format!("hdx1 search id=1 task={label} batch={batch}");
            let at_bound = v1::decode_line(v1::Framing::V1, &line(rows)).expect("bound decodes");
            assert_eq!(at_bound.body.verb_index(), 0, "{label}");
            let over = rows + 1;
            for framing in [v1::Framing::V0, v1::Framing::V1] {
                let text = match framing {
                    v1::Framing::V0 => format!("search id=1 task={label} batch={over}"),
                    _ => line(over),
                };
                let err = v1::decode_line(framing, &text).expect_err(&text);
                assert_eq!((err.id, err.kind.code()), (1, "invalid_request"), "{text}");
                let msg = err.kind.message();
                for part in [
                    format!("batch={over}"),
                    format!("{rows}-row"),
                    label.to_owned(),
                ] {
                    assert!(msg.contains(&part), "{msg:?} lacks {part:?}");
                }
            }
        }
        // Refused in-band, in either framing; the connection goes on.
        let input = "hdx1 search id=1 task=imagenet batch=4097\nhdx1 ping id=2\n\
                     search id=3 batch=8193\nping\n";
        let mut out = Vec::new();
        let router = Router::new(RouterConfig::default());
        router
            .serve_connection(input.as_bytes(), &mut out)
            .expect("in-memory serve");
        let text = String::from_utf8(out).expect("utf-8 replies");
        let replies: Vec<&str> = text.lines().collect();
        assert_eq!(replies.len(), 4, "{replies:?}");
        assert!(
            replies[0].starts_with("hdx1 error id=1 code=invalid_request msg=batch=4097_"),
            "{}",
            replies[0]
        );
        assert_eq!(replies[1], "hdx1 pong id=2");
        assert!(
            replies[2].starts_with("error id=3 msg=batch=8193_"),
            "{}",
            replies[2]
        );
        assert_eq!(replies[3], "pong");
    }

    #[test]
    fn verb_table_drives_codec_counters_classes_and_docs() {
        let bodies = sample_bodies();
        assert_eq!(bodies.len(), v1::VERBS.len());
        for (i, (verb, body)) in v1::VERBS.iter().zip(bodies).enumerate() {
            // The body maps back to its row, and its canonical line
            // leads with the verb and round-trips.
            assert_eq!(body.verb_index(), i, "{verb:?}");
            assert_eq!(
                verb.batched,
                i < v1::BATCHED,
                "batched verbs lead: {verb:?}"
            );
            let env = v1::Envelope::v1(1, body);
            let line = v1::encode_request(&env);
            let head = format!("{} {} ", v1::VERSION_TOKEN, verb.name);
            assert!(line.starts_with(&head), "{line}");
            assert_eq!(v1::decode_request(&line), Ok(env), "{line}");
            assert_eq!(verb_counter(i).name(), format!("router.verb.{}", verb.name));
        }
        // DESIGN.md and the v1 module docs list exactly these rows.
        let expected: Vec<(String, String)> = v1::VERBS
            .iter()
            .map(|v| (v.name.to_owned(), v.reply.to_owned()))
            .collect();
        assert_eq!(doc_rows(include_str!("../../../DESIGN.md")), expected);
        assert_eq!(doc_rows(include_str!("proto/v1.rs")), expected);
    }
}
