//! The multi-tenant front door: a registry of warm `(task, seed)`
//! bundles behind one connection loop.
//!
//! The [`Router`] owns any number of [`TaskService`] workers and routes
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
//! pure functions of their requests (see [`crate::service`]), so the
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
use crate::proto::{
    parse_request, task_label, v1, ErrorKind, ProtoError, Request, SearchReport, SearchRequest,
};
use crate::service::TaskService;
use hdx_core::{PreparedContext, Task};
use hdx_tensor::ckpt::CkptError;
use hdx_tensor::SessionBank;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Stable ordering key for [`Task`] (registry iteration order must be
/// deterministic for stats/listing byte-stability). Delegates to the
/// canonical [`Task::ALL`] position so new families sort after the
/// frozen paper tasks.
fn task_code(task: Task) -> u8 {
    task.index() as u8
}

/// Per-verb request counters (both framings; a v0 `search` line counts
/// under `search`). Counts only — per-verb *timing* goes to the span
/// sink, keeping the `metrics` snapshot wall-clock-free.
static OBS_VERB_SEARCH: hdx_obs::Counter = hdx_obs::Counter::new("router.verb.search");
static OBS_VERB_GRID: hdx_obs::Counter = hdx_obs::Counter::new("router.verb.grid");
static OBS_VERB_META: hdx_obs::Counter = hdx_obs::Counter::new("router.verb.meta");
static OBS_VERB_RESUME: hdx_obs::Counter = hdx_obs::Counter::new("router.verb.resume");
static OBS_VERB_STATS: hdx_obs::Counter = hdx_obs::Counter::new("router.verb.stats");
static OBS_VERB_PING: hdx_obs::Counter = hdx_obs::Counter::new("router.verb.ping");
static OBS_VERB_LIST_TASKS: hdx_obs::Counter = hdx_obs::Counter::new("router.verb.list_tasks");
static OBS_VERB_LOAD_BUNDLE: hdx_obs::Counter = hdx_obs::Counter::new("router.verb.load_bundle");
static OBS_VERB_UNLOAD_BUNDLE: hdx_obs::Counter =
    hdx_obs::Counter::new("router.verb.unload_bundle");
static OBS_VERB_METRICS: hdx_obs::Counter = hdx_obs::Counter::new("router.verb.metrics");
static OBS_VERB_CATALOG_LIST: hdx_obs::Counter = hdx_obs::Counter::new("router.verb.catalog_list");
static OBS_VERB_CATALOG_PIN: hdx_obs::Counter = hdx_obs::Counter::new("router.verb.catalog_pin");
static OBS_VERB_CATALOG_EVICT: hdx_obs::Counter =
    hdx_obs::Counter::new("router.verb.catalog_evict");
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

/// The multi-bundle serving front door. See the module docs.
pub struct Router {
    cfg: RouterConfig,
    services: RwLock<BTreeMap<(u8, u64), Arc<TaskService>>>,
    /// The mounted artifact catalog, if any (`--catalog <dir>`).
    /// Backs `cat:` refs in `load_bundle` and the `catalog_*` verbs.
    catalog: RwLock<Option<hdx_catalog::Catalog>>,
    /// One lease per bundle that was loaded from the catalog, keyed
    /// like the service registry. Holding the lease keeps retention GC
    /// (and explicit `catalog_evict`) from deleting an object that is
    /// still backing a live bundle; the lease drops when the bundle is
    /// unloaded or replaced.
    cat_leases: Mutex<BTreeMap<(u8, u64), hdx_catalog::Lease>>,
    /// Jobs/steps completed by bundles that have since been unloaded
    /// or replaced — keeps the aggregate `stats` counters monotonic
    /// ("since startup"), as monitoring deltas expect.
    retired_served: AtomicU64,
    retired_steps_used: AtomicU64,
}

impl Router {
    /// An empty router (bundles arrive via the insert/load methods or
    /// the `load_bundle` verb).
    pub fn new(cfg: RouterConfig) -> Router {
        Router {
            cfg,
            services: RwLock::new(BTreeMap::new()),
            catalog: RwLock::new(None),
            cat_leases: Mutex::new(BTreeMap::new()),
            retired_served: AtomicU64::new(0),
            retired_steps_used: AtomicU64::new(0),
        }
    }

    /// Mounts an artifact catalog, enabling `cat:` refs in
    /// `load_bundle` and the `catalog_list` / `catalog_pin` /
    /// `catalog_evict` verbs. Replaces any previously mounted catalog.
    pub fn mount_catalog(&self, catalog: hdx_catalog::Catalog) {
        *self.catalog.write().expect("router catalog poisoned") = Some(catalog);
    }

    /// The mounted catalog, if any (a cheap handle clone).
    pub fn catalog(&self) -> Option<hdx_catalog::Catalog> {
        self.catalog
            .read()
            .expect("router catalog poisoned")
            .clone()
    }

    /// Runs a catalog operation, mapping "not mounted" and the
    /// operation's own failure into the protocol-level
    /// [`ErrorKind::CatalogOp`].
    fn with_catalog<T>(
        &self,
        op: impl FnOnce(&hdx_catalog::Catalog) -> Result<T, hdx_catalog::CatalogError>,
    ) -> Result<T, ErrorKind> {
        let catalog = self.catalog().ok_or_else(|| ErrorKind::CatalogOp {
            message: "no catalog mounted (start the server with --catalog <dir>)".to_owned(),
        })?;
        op(&catalog).map_err(|e| ErrorKind::CatalogOp {
            message: e.to_string(),
        })
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

    /// Folds a dropped bundle's counters into the retired totals (the
    /// aggregate `stats` line stays monotonic).
    fn retire(&self, service: &TaskService) {
        let stats = service.stats();
        self.retired_served
            .fetch_add(stats.served, Ordering::Relaxed);
        self.retired_steps_used
            .fetch_add(stats.steps_used, Ordering::Relaxed);
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
        let service = Arc::new(TaskService::new(task, seed, prepared));
        let entry = service.entry();
        let key = (task_code(task), seed);
        // A replaced bundle's catalog lease (if any) lapses with it;
        // callers that load *from* the catalog re-lease afterwards.
        self.cat_leases
            .lock()
            .expect("router lease table poisoned")
            .remove(&key);
        if let Some(replaced) = self
            .services
            .write()
            .expect("router registry poisoned")
            .insert(key, service)
        {
            self.retire(&replaced);
        }
        entry
    }

    /// Registers loaded bundle artifacts (installs the warm LUTs
    /// process-wide, exactly like serving a single bundle did).
    pub fn insert_artifacts(&self, artifacts: Artifacts) -> v1::TaskEntry {
        let task = artifacts.task;
        let seed = artifacts.seed;
        self.insert_prepared(task, seed, artifacts.into_prepared())
    }

    /// Loads a bundle file and registers it.
    ///
    /// # Errors
    ///
    /// Typed [`CkptError`]s from the bundle loader.
    pub fn load_bundle_path(&self, path: &Path) -> Result<v1::TaskEntry, CkptError> {
        Ok(self.insert_artifacts(load_bundle(path)?))
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
                .map_err(|e| ErrorKind::Checkpoint {
                    message: e.to_string(),
                });
        }
        let fingerprint = hdx_catalog::parse_ref(spec).ok_or_else(|| ErrorKind::CatalogOp {
            message: format!("malformed catalog ref {spec:?} (want cat:<16 hex digits>)"),
        })?;
        let catalog = self.catalog().ok_or_else(|| ErrorKind::CatalogOp {
            message: "no catalog mounted (start the server with --catalog <dir>)".to_owned(),
        })?;
        let catalog_err = |e: hdx_catalog::CatalogError| ErrorKind::CatalogOp {
            message: e.to_string(),
        };
        // Lease before reading so neither GC nor an explicit evict can
        // delete the object between the read and the registry insert.
        let lease = catalog.lease(fingerprint).map_err(catalog_err)?;
        let bytes = catalog.get(fingerprint).map_err(catalog_err)?;
        let artifacts = load_bundle_bytes(&bytes).map_err(|e| ErrorKind::Checkpoint {
            message: e.to_string(),
        })?;
        let key = (task_code(artifacts.task), artifacts.seed);
        let entry = self.insert_artifacts(artifacts);
        self.cat_leases
            .lock()
            .expect("router lease table poisoned")
            .insert(key, lease);
        Ok(entry)
    }

    /// Drops the bundle registered under `(task, seed)`. Returns
    /// whether one was present. Its serving counters fold into the
    /// retired totals, so aggregate stats never go backwards.
    pub fn unload(&self, task: Task, seed: u64) -> bool {
        self.cat_leases
            .lock()
            .expect("router lease table poisoned")
            .remove(&(task_code(task), seed));
        let removed = self
            .services
            .write()
            .expect("router registry poisoned")
            .remove(&(task_code(task), seed));
        match removed {
            Some(service) => {
                self.retire(&service);
                true
            }
            None => false,
        }
    }

    /// The loaded bundles, in deterministic `(task, seed)` order.
    pub fn tasks(&self) -> Vec<v1::TaskEntry> {
        self.services
            .read()
            .expect("router registry poisoned")
            .values()
            .map(|s| s.entry())
            .collect()
    }

    /// Resolves the bundle a request routes to: exact `(task,
    /// bundle_seed)` when pinned, else the lowest-seed bundle for the
    /// task.
    fn route(&self, req: &SearchRequest) -> Result<Arc<TaskService>, ProtoError> {
        let services = self.services.read().expect("router registry poisoned");
        let code = task_code(req.task);
        let found = match req.bundle_seed {
            Some(seed) => services.get(&(code, seed)).cloned(),
            None => services
                .range((code, 0)..=(code, u64::MAX))
                .next()
                .map(|(_, s)| Arc::clone(s)),
        };
        found.ok_or_else(|| {
            ProtoError::new(
                req.id,
                ErrorKind::TaskUnavailable {
                    task: task_label(req.task).to_owned(),
                    bundle_seed: req.bundle_seed,
                },
            )
        })
    }

    /// Rejects a job whose deterministic step budget exceeds the
    /// configured deadline.
    fn check_deadline(&self, req: &SearchRequest) -> Result<(), ProtoError> {
        match self.cfg.deadline_steps {
            Some(limit) if req.step_budget() > limit => Err(ProtoError::new(
                req.id,
                ErrorKind::DeadlineExceeded {
                    budget: req.step_budget(),
                    limit,
                },
            )),
            _ => Ok(()),
        }
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
        let dispatch: Vec<(SearchRequest, Result<Arc<TaskService>, ProtoError>)> = expanded
            .into_iter()
            .map(|req| {
                let resolved = self.check_deadline(&req).and_then(|()| self.route(&req));
                (req, resolved)
            })
            .collect();
        let jobs = if jobs == 0 { self.cfg.jobs } else { jobs };
        hdx_tensor::parallel_map(&dispatch, jobs, |pos, (req, resolved)| {
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
            .map(|s| s.stats())
            .collect();
        v1::StatsReport {
            programs: bank.programs as u64,
            idle_sessions: bank.idle_sessions as u64,
            hits: bank.hits,
            misses: bank.misses,
            evictions: bank.evictions,
            bank_cap: bank.capacity.map(|c| c as u64),
            requests_served: self.retired_served.load(Ordering::Relaxed)
                + tasks.iter().map(|t| t.served).sum::<u64>(),
            tasks,
        }
    }

    /// The v0 `stats …` response line — the PR-4 field set, byte-stable
    /// for v0 clients (per-task rows are a v1-only addition).
    pub fn stats_line_v0(&self) -> String {
        let s = self.stats();
        format!(
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
        )
    }

    /// Serves the line protocol over a reader/writer pair until EOF.
    ///
    /// Version negotiation is per line ([`v1::sniff`]): v0 lines are
    /// answered in v0 framing, v1 lines in v1 framing, on the same
    /// connection. Consecutive search-type lines accumulate into one
    /// batch that is flushed — fanned across the worker pool, reports
    /// written in request order, each in its request's framing — when a
    /// control line (`stats`, `ping`, a registry verb, a malformed
    /// line) or EOF arrives. A client that writes N requests and shuts
    /// down its write side therefore gets all N reports with full
    /// parallelism.
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
        // Each pending job remembers its framing so its report is
        // encoded the way the request arrived.
        let mut pending: Vec<(bool, SearchRequest)> = Vec::new();
        let flush_batch = |pending: &mut Vec<(bool, SearchRequest)>,
                           writer: &mut BufWriter<W>|
         -> std::io::Result<()> {
            if pending.is_empty() {
                return Ok(());
            }
            let _span = hdx_obs::span("router.flush");
            // Expansion order matches request order, so zip the
            // per-request framing over the expanded outcome list (a
            // request expands to one job per grid entry).
            let framings: Vec<bool> = pending
                .iter()
                .flat_map(|(is_v1, req)| std::iter::repeat_n(*is_v1, req.lambda_grid.len().max(1)))
                .collect();
            let requests: Vec<SearchRequest> = pending.iter().map(|(_, req)| req.clone()).collect();
            for (is_v1, outcome) in framings
                .into_iter()
                .zip(self.run_batch(&requests, self.cfg.jobs))
            {
                let line = match (is_v1, outcome) {
                    (false, Ok(report)) => report.encode(),
                    (false, Err(err)) => err.encode(),
                    (true, Ok(report)) => report.encode_v1(),
                    (true, Err(err)) => err.encode_v1(),
                };
                writeln!(writer, "{line}")?;
            }
            pending.clear();
            writer.flush()
        };
        // Control responses are computed *after* the pending batch
        // flushes (hence the thunk): stats must see the flushed jobs'
        // counters, and registry mutations (load/unload) must not
        // retroactively change how already-queued work routes.
        let respond = |pending: &mut Vec<(bool, SearchRequest)>,
                       writer: &mut BufWriter<W>,
                       make: &mut dyn FnMut() -> String|
         -> std::io::Result<()> {
            flush_batch(pending, writer)?;
            let line = make();
            writeln!(writer, "{line}")?;
            writer.flush()
        };

        let mut seen: u64 = 0;
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let framing = v1::sniff(&line);
            seen += 1;
            if let Some(limit) = self.cfg.max_requests_per_conn {
                if seen > limit {
                    // The overflowing request is answered in-band (in
                    // its own framing) and the connection closes; the
                    // work already accepted still flushes first.
                    let err = ProtoError::new(0, ErrorKind::QuotaExceeded { limit });
                    let encoded = match framing {
                        v1::Framing::V0 => err.encode(),
                        _ => err.encode_v1(),
                    };
                    respond(&mut pending, &mut writer, &mut || encoded.clone())?;
                    return Ok(());
                }
            }
            match framing {
                v1::Framing::Unsupported { token, offset } => {
                    OBS_PROTO_ERRORS.incr();
                    let err = ProtoError::new(0, ErrorKind::VersionMismatch { token, offset });
                    respond(&mut pending, &mut writer, &mut || err.encode_v1())?;
                }
                v1::Framing::V0 => match parse_request(&line) {
                    Ok(Request::Search(req)) => {
                        OBS_VERB_SEARCH.incr();
                        pending.push((false, *req));
                    }
                    Ok(Request::Stats) => {
                        OBS_VERB_STATS.incr();
                        respond(&mut pending, &mut writer, &mut || self.stats_line_v0())?;
                    }
                    Ok(Request::Ping) => {
                        OBS_VERB_PING.incr();
                        respond(&mut pending, &mut writer, &mut || "pong".to_owned())?;
                    }
                    Err(err) => {
                        OBS_PROTO_ERRORS.incr();
                        respond(&mut pending, &mut writer, &mut || err.encode())?;
                    }
                },
                v1::Framing::V1 => match v1::decode_request(&line) {
                    Ok(env) => {
                        let id = env.request_id;
                        let reply = |body: v1::ResponseBody| {
                            v1::encode_response(&v1::Envelope::v1(id, body))
                        };
                        match env.body {
                            v1::RequestBody::Search(req) => {
                                OBS_VERB_SEARCH.incr();
                                pending.push((true, req));
                            }
                            v1::RequestBody::Grid(req) => {
                                OBS_VERB_GRID.incr();
                                pending.push((true, req));
                            }
                            v1::RequestBody::Meta(req) => {
                                OBS_VERB_META.incr();
                                pending.push((true, req));
                            }
                            v1::RequestBody::Resume(req) => {
                                OBS_VERB_RESUME.incr();
                                pending.push((true, req));
                            }
                            v1::RequestBody::Stats => {
                                OBS_VERB_STATS.incr();
                                respond(&mut pending, &mut writer, &mut || {
                                    reply(v1::ResponseBody::Stats(self.stats()))
                                })?;
                            }
                            v1::RequestBody::Ping => {
                                OBS_VERB_PING.incr();
                                respond(&mut pending, &mut writer, &mut || {
                                    reply(v1::ResponseBody::Pong)
                                })?;
                            }
                            v1::RequestBody::ListTasks => {
                                OBS_VERB_LIST_TASKS.incr();
                                respond(&mut pending, &mut writer, &mut || {
                                    reply(v1::ResponseBody::Tasks(self.tasks()))
                                })?;
                            }
                            v1::RequestBody::Metrics => {
                                OBS_VERB_METRICS.incr();
                                respond(&mut pending, &mut writer, &mut || {
                                    reply(v1::ResponseBody::Metrics(hdx_obs::snapshot()))
                                })?;
                            }
                            v1::RequestBody::LoadBundle { path } => {
                                OBS_VERB_LOAD_BUNDLE.incr();
                                respond(&mut pending, &mut writer, &mut || {
                                    let body = match self.load_bundle_ref(&path) {
                                        Ok(entry) => v1::ResponseBody::Loaded(entry),
                                        Err(kind) => {
                                            v1::ResponseBody::Error(ProtoError::new(id, kind))
                                        }
                                    };
                                    reply(body)
                                })?;
                            }
                            v1::RequestBody::CatalogList => {
                                OBS_VERB_CATALOG_LIST.incr();
                                respond(&mut pending, &mut writer, &mut || {
                                    let body = match self.catalog_entries() {
                                        Ok(entries) => v1::ResponseBody::Catalog(entries),
                                        Err(kind) => {
                                            v1::ResponseBody::Error(ProtoError::new(id, kind))
                                        }
                                    };
                                    reply(body)
                                })?;
                            }
                            v1::RequestBody::CatalogPin { fingerprint, on } => {
                                OBS_VERB_CATALOG_PIN.incr();
                                respond(&mut pending, &mut writer, &mut || {
                                    let body = match self.with_catalog(|c| c.pin(fingerprint, on)) {
                                        Ok(_) => v1::ResponseBody::Pinned { fingerprint, on },
                                        Err(kind) => {
                                            v1::ResponseBody::Error(ProtoError::new(id, kind))
                                        }
                                    };
                                    reply(body)
                                })?;
                            }
                            v1::RequestBody::CatalogEvict { fingerprint } => {
                                OBS_VERB_CATALOG_EVICT.incr();
                                respond(&mut pending, &mut writer, &mut || {
                                    let body = match self.with_catalog(|c| c.evict(fingerprint)) {
                                        Ok(freed) => {
                                            v1::ResponseBody::Evicted { fingerprint, freed }
                                        }
                                        Err(kind) => {
                                            v1::ResponseBody::Error(ProtoError::new(id, kind))
                                        }
                                    };
                                    reply(body)
                                })?;
                            }
                            v1::RequestBody::UnloadBundle { task, bundle_seed } => {
                                OBS_VERB_UNLOAD_BUNDLE.incr();
                                respond(&mut pending, &mut writer, &mut || {
                                    let body = if self.unload(task, bundle_seed) {
                                        v1::ResponseBody::Unloaded { task, bundle_seed }
                                    } else {
                                        v1::ResponseBody::Error(ProtoError::new(
                                            id,
                                            ErrorKind::TaskUnavailable {
                                                task: task_label(task).to_owned(),
                                                bundle_seed: Some(bundle_seed),
                                            },
                                        ))
                                    };
                                    reply(body)
                                })?;
                            }
                        }
                    }
                    Err(err) => {
                        OBS_PROTO_ERRORS.incr();
                        respond(&mut pending, &mut writer, &mut || err.encode_v1())?;
                    }
                },
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

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("bundles", &self.tasks().len())
            .field("cfg", &self.cfg)
            .finish()
    }
}
