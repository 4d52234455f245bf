//! Protocol version 1: the versioned, typed envelope.
//!
//! Every v1 line leads with the [`VERSION_TOKEN`] (`hdx1`), then a
//! verb, then `key=value` fields. The typed core is the
//! [`Envelope`] — `{ request_id, body }` — with [`RequestBody`] /
//! [`ResponseBody`] enums covering the full verb set. [`VERBS`] is the
//! one list of verbs — wire name, reply verb, batched or control — that
//! the decoder, the router's per-verb counters, and the job
//! classification all read:
//!
//! | request verb    | body                          | response verb |
//! |-----------------|-------------------------------|---------------|
//! | `search`        | one search job                | `report`      |
//! | `grid`          | λ-grid sweep (one job per λ)  | `report` × n  |
//! | `meta`          | §5.2 constrained meta-search  | `report`      |
//! | `resume`        | continue from a checkpoint    | `report`      |
//! | `stats`         | aggregated service statistics | `stats`       |
//! | `ping`          | liveness probe                | `pong`        |
//! | `load_bundle`   | load a bundle file at runtime | `loaded`      |
//! | `unload_bundle` | drop a loaded bundle          | `unloaded`    |
//! | `list_tasks`    | enumerate loaded bundles      | `tasks`       |
//! | `metrics`       | deterministic obs counters    | `metrics`     |
//! | `catalog_list`  | enumerate catalog generations | `catalog`     |
//! | `catalog_pin`   | pin/unpin a catalog object    | `pinned`      |
//! | `catalog_evict` | evict a catalog object        | `evicted`     |
//!
//! `load_bundle` additionally accepts a catalog fingerprint ref as its
//! `path` (`path=cat:<16 hex digits>`, see [`hdx_catalog::parse_ref`])
//! when the router has a catalog mounted.
//!
//! [`decode_request`] / [`encode_request`] and [`decode_response`] /
//! [`encode_response`] are the single canonical codec pair: every
//! envelope round-trips, and every decode failure is a typed
//! [`ProtoError`] carrying the byte offset of the offending token.
//!
//! # Version negotiation
//!
//! Per line, not per connection: [`sniff`] classifies each input line
//! as v1 (leads with `hdx1`), a version mismatch (leads with another
//! `hdx<N>` token), or v0 (anything else — the frozen PR-4 grammar).
//! Responses always use the framing of the request they answer, so one
//! connection can interleave v0 and v1 clients' traffic.

use super::{
    bit, need, read_fields, search_fields, tokens, unknown_verb, ErrorKind, Field, Line,
    ProtoError, SearchReport, SearchRequest,
};
use hdx_core::Task;

/// The v1 version token every v1 line leads with.
pub const VERSION_TOKEN: &str = "hdx1";

/// One v1 verb: its wire name, the verb its reply carries, and its
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verb {
    /// The request verb on the wire.
    pub name: &'static str,
    /// The response verb answering it.
    pub reply: &'static str,
    /// Batched verbs queue as search jobs until the connection's next
    /// flush; control verbs are answered at once.
    pub batched: bool,
    /// The fields a control verb takes besides `id` (batched verbs
    /// take the search fields).
    pub(crate) fields: &'static [&'static str],
}

const fn verb(
    name: &'static str,
    reply: &'static str,
    batched: bool,
    fields: &'static [&'static str],
) -> Verb {
    Verb {
        name,
        reply,
        batched,
        fields,
    }
}

/// Every v1 verb. The four batched verbs lead, in [`VerbCounts`]
/// order, so a job's class ([`SearchRequest::verb_index`]) is its row.
pub const VERBS: [Verb; 13] = [
    verb("search", "report", true, &[]),
    verb("grid", "report", true, &[]),
    verb("meta", "report", true, &[]),
    verb("resume", "report", true, &[]),
    verb("stats", "stats", false, &[]),
    verb("ping", "pong", false, &[]),
    verb("load_bundle", "loaded", false, &["path"]),
    verb("unload_bundle", "unloaded", false, &["task", "bundle_seed"]),
    verb("list_tasks", "tasks", false, &[]),
    verb("metrics", "metrics", false, &[]),
    verb("catalog_list", "catalog", false, &[]),
    verb("catalog_pin", "pinned", false, &["ref", "on"]),
    verb("catalog_evict", "evicted", false, &["ref"]),
];

/// One framed protocol message: the request id it correlates with and
/// the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<B> {
    /// Caller-chosen correlation id (echoed in every response).
    pub request_id: u64,
    /// The typed payload.
    pub body: B,
}

impl<B> Envelope<B> {
    /// Wraps a body in a v1 envelope.
    pub fn v1(request_id: u64, body: B) -> Envelope<B> {
        Envelope { request_id, body }
    }
}

/// The typed payload of one v1 request line.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// One search job (`lambda_grid`/`max_searches` stay unset —
    /// sweeps and meta-searches have their own verbs).
    Search(SearchRequest),
    /// A λ-grid sweep: one independent job per grid entry.
    Grid(SearchRequest),
    /// The §5.2 constrained meta-search (`max_searches > 1`).
    Meta(SearchRequest),
    /// Continue a checkpointed search
    /// ([`SearchRequest::resume_from_checkpoint`] is set; `ckpt=` names
    /// the snapshot, which the resumed run keeps updating).
    Resume(SearchRequest),
    /// Aggregated service statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Load a bundle file into the router's registry at runtime.
    LoadBundle {
        /// Filesystem path of the bundle.
        path: String,
    },
    /// Drop a loaded bundle from the registry.
    UnloadBundle {
        /// Task of the bundle to drop.
        task: Task,
        /// Dataset seed of the bundle to drop.
        bundle_seed: u64,
    },
    /// Enumerate the loaded bundles.
    ListTasks,
    /// Snapshot of the process-wide deterministic obs counter registry
    /// (step-based counts only — wall-clock timing never enters the
    /// registry, so the snapshot is reproducible).
    Metrics,
    /// Enumerate the mounted catalog's index (every generation of
    /// every `(task, family, seed)` key, in index order).
    CatalogList,
    /// Pin (`on=1`) or unpin (`on=0`) every catalog generation
    /// carrying a fingerprint; pinned generations survive GC and
    /// refuse eviction.
    CatalogPin {
        /// Content fingerprint of the object.
        fingerprint: u64,
        /// Pin (`true`) or unpin (`false`).
        on: bool,
    },
    /// Evict a fingerprint from the mounted catalog (refused while
    /// pinned or leased by a live bundle).
    CatalogEvict {
        /// Content fingerprint of the object.
        fingerprint: u64,
    },
}

impl RequestBody {
    /// This body's row in [`VERBS`].
    pub fn verb_index(&self) -> usize {
        match self {
            RequestBody::Search(_) => 0,
            RequestBody::Grid(_) => 1,
            RequestBody::Meta(_) => 2,
            RequestBody::Resume(_) => 3,
            RequestBody::Stats => 4,
            RequestBody::Ping => 5,
            RequestBody::LoadBundle { .. } => 6,
            RequestBody::UnloadBundle { .. } => 7,
            RequestBody::ListTasks => 8,
            RequestBody::Metrics => 9,
            RequestBody::CatalogList => 10,
            RequestBody::CatalogPin { .. } => 11,
            RequestBody::CatalogEvict { .. } => 12,
        }
    }
}

/// The typed payload of one v1 response line.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// A finished search job.
    Report(SearchReport),
    /// Aggregated statistics.
    Stats(StatsReport),
    /// Liveness answer.
    Pong,
    /// A bundle was loaded.
    Loaded(TaskEntry),
    /// A bundle was dropped.
    Unloaded {
        /// Task of the dropped bundle.
        task: Task,
        /// Dataset seed of the dropped bundle.
        bundle_seed: u64,
    },
    /// The loaded-bundle listing.
    Tasks(Vec<TaskEntry>),
    /// The deterministic obs counter snapshot, sorted by name
    /// ([`hdx_obs::snapshot`] order). Names are dot-separated
    /// `<layer>.<thing>[.<variant>]` and never collide with the
    /// envelope's `id`/`count` keys.
    Metrics(Vec<(String, u64)>),
    /// The catalog index listing, in index `(task, family, seed, gen)`
    /// order.
    Catalog(Vec<CatalogEntry>),
    /// A pin state was applied.
    Pinned {
        /// Content fingerprint of the object.
        fingerprint: u64,
        /// The pin state now in force.
        on: bool,
    },
    /// A catalog object was evicted.
    Evicted {
        /// Content fingerprint of the evicted object.
        fingerprint: u64,
        /// Object bytes freed.
        freed: u64,
    },
    /// An in-band failure.
    Error(ProtoError),
}

/// One catalog generation, as listed by `catalog_list`.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// The bundle's task.
    pub task: Task,
    /// Publisher family label.
    pub family: String,
    /// Dataset seed.
    pub seed: u64,
    /// Per-key generation number.
    pub gen: u64,
    /// Content fingerprint.
    pub fingerprint: u64,
    /// Object length in bytes.
    pub len: u64,
    /// Whether the generation is pinned.
    pub pinned: bool,
}

/// One loaded bundle, as listed by `list_tasks` / echoed by
/// `load_bundle`.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskEntry {
    /// The bundle's task.
    pub task: Task,
    /// The bundle's dataset seed.
    pub bundle_seed: u64,
    /// Held-out within-10 % estimator accuracy recorded at training
    /// time.
    pub estimator_accuracy: f64,
}

/// Aggregated service statistics: the process-wide session-bank
/// counters plus one [`TaskStats`] row per loaded bundle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Compiled programs resident in the session bank.
    pub programs: u64,
    /// Idle pooled sessions in the bank.
    pub idle_sessions: u64,
    /// Cumulative bank checkout hits.
    pub hits: u64,
    /// Cumulative bank checkout misses (compiles).
    pub misses: u64,
    /// Cumulative bank LRU evictions.
    pub evictions: u64,
    /// The bank's LRU capacity (`None` = unbounded).
    pub bank_cap: Option<u64>,
    /// Jobs completed across every bundle since startup.
    pub requests_served: u64,
    /// Per-bundle counters, in registry (task, seed) order.
    pub tasks: Vec<TaskStats>,
}

/// Per-bundle serving counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskStats {
    /// The bundle's task.
    pub task: Task,
    /// The bundle's dataset seed.
    pub bundle_seed: u64,
    /// Jobs completed by this bundle.
    pub served: u64,
    /// Cumulative deterministic step budget of those jobs.
    pub steps_used: u64,
    /// Per-verb breakdown of `served` (v1 stats rows only; the v0
    /// stats line is frozen and carries no per-bundle rows at all).
    pub verbs: VerbCounts,
}

/// Jobs completed, broken down by the search-type verb that produced
/// them. Control verbs (`stats`/`ping`/registry) are not jobs and are
/// not counted. A v0 `search` line counts under the verb its options
/// imply (grid expansion ⇒ `grid`, `max_searches>1` ⇒ `meta`), so the
/// breakdown is framing-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerbCounts {
    /// Plain single-λ searches.
    pub search: u64,
    /// λ-grid expanded sub-jobs.
    pub grid: u64,
    /// Constraint-driven meta-searches.
    pub meta: u64,
    /// Checkpoint resumes.
    pub resume: u64,
}

impl VerbCounts {
    /// Sum over all verbs (equals the bundle's `served`).
    pub fn total(&self) -> u64 {
        self.search + self.grid + self.meta + self.resume
    }
}

/// How a raw input line should be handled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Framing {
    /// No version token: the frozen PR-4 grammar.
    V0,
    /// Leads with [`VERSION_TOKEN`].
    V1,
    /// Leads with a `hdx<N>` token this server does not speak.
    Unsupported {
        /// The token as received.
        token: String,
        /// Its byte offset (0 unless the line has leading whitespace).
        offset: usize,
    },
}

/// Classifies one input line by its leading token (see the module docs
/// on version negotiation). Empty lines classify as v0 — the v0 parser
/// owns the empty-line diagnostic.
pub fn sniff(line: &str) -> Framing {
    match tokens(line).next() {
        Some((_, tok)) if tok == VERSION_TOKEN => Framing::V1,
        Some((offset, tok))
            if tok.len() > 3
                && tok.starts_with("hdx")
                && tok[3..].bytes().all(|b| b.is_ascii_digit()) =>
        {
            Framing::Unsupported {
                token: tok.to_owned(),
                offset,
            }
        }
        _ => Framing::V0,
    }
}

/// Checks a v1 line's version token and splits off its verb (with its
/// byte offset) from the field tokens.
fn open(line: &str) -> Result<(usize, &str, impl Iterator<Item = (usize, &str)>), ProtoError> {
    let mut parts = tokens(line);
    let kind = match (parts.next(), parts.next()) {
        (Some((_, VERSION_TOKEN)), Some((offset, verb))) => return Ok((offset, verb, parts)),
        (Some((offset, token)), _) if token != VERSION_TOKEN => {
            let token = token.to_owned();
            ErrorKind::VersionMismatch { token, offset }
        }
        _ => ErrorKind::EmptyLine,
    };
    Err(ProtoError::new(0, kind))
}

/// The fixed-shape fields control lines carry; each verb admits its
/// own subset.
#[derive(Default)]
struct Control {
    path: Option<String>,
    task: Option<Task>,
    bundle_seed: Option<u64>,
    fingerprint: Option<u64>,
    on: Option<bool>,
    freed: Option<u64>,
    accuracy: Option<f64>,
}

/// Reads `id` plus the control fields named in `keys`; any other key is
/// unknown.
fn control<'a>(
    parts: impl Iterator<Item = (usize, &'a str)>,
    keys: &[&str],
) -> Result<(u64, Control), ProtoError> {
    let mut c = Control::default();
    let id = read_fields(parts, |f| {
        if !keys.contains(&f.key) {
            return Ok(false);
        }
        match f.key {
            "path" => c.path = Some(f.nonempty()?),
            "task" => c.task = Some(f.task()?),
            "bundle_seed" => c.bundle_seed = Some(f.u64()?),
            "ref" => c.fingerprint = Some(f.cat_ref()?),
            "on" => c.on = Some(f.bit()?),
            "freed" => c.freed = Some(f.u64()?),
            _ => c.accuracy = Some(f.parse()?),
        }
        Ok(true)
    })?;
    Ok((id, c))
}

/// Reads a listing reply: `id`, an optional `count=` that must match
/// the entries, and one entry per `key=` field (per field of any other
/// key when `key` is `None`), read by `entry`, which also sees the
/// entries so far.
fn listing<'a, T>(
    parts: impl Iterator<Item = (usize, &'a str)>,
    what: &str,
    key: Option<&str>,
    mut entry: impl FnMut(&Field<'a>, &[T]) -> Result<T, ProtoError>,
) -> Result<(u64, Vec<T>), ProtoError> {
    let mut count = None;
    let mut entries = Vec::new();
    let id = read_fields(parts, |f| {
        match f.key {
            "id" => return Ok(false),
            "count" => count = Some(f.u64()?),
            k if key.is_none_or(|key| key == k) => entries.push(entry(f, &entries)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if count.is_some_and(|c| c != entries.len() as u64) {
        let message = format!("{what} count disagrees with the listed entries");
        return Err(ProtoError::new(id, ErrorKind::Invalid { message }));
    }
    Ok((id, entries))
}

/// Decodes one v1 request line into its envelope.
///
/// # Errors
///
/// A typed [`ProtoError`]: version mismatch, unknown verb/field,
/// field-level parse errors (with byte offsets), missing required
/// fields, and cross-field validation failures.
pub fn decode_request(line: &str) -> Result<Envelope<RequestBody>, ProtoError> {
    let (offset, name, parts) = open(line)?;
    let verb = VERBS
        .iter()
        .find(|v| v.name == name)
        .ok_or_else(|| unknown_verb(name, offset))?;
    if verb.batched {
        return batched(name, search_fields(parts, true)?);
    }
    let (id, c) = control(parts, verb.fields)?;
    let body = match name {
        "stats" => RequestBody::Stats,
        "ping" => RequestBody::Ping,
        "list_tasks" => RequestBody::ListTasks,
        "metrics" => RequestBody::Metrics,
        "catalog_list" => RequestBody::CatalogList,
        "load_bundle" => RequestBody::LoadBundle {
            path: need(id, c.path, "path")?,
        },
        "unload_bundle" => RequestBody::UnloadBundle {
            task: need(id, c.task, "task")?,
            bundle_seed: need(id, c.bundle_seed, "bundle_seed")?,
        },
        "catalog_pin" => RequestBody::CatalogPin {
            fingerprint: need(id, c.fingerprint, "ref")?,
            on: need(id, c.on, "on")?,
        },
        _ => RequestBody::CatalogEvict {
            fingerprint: need(id, c.fingerprint, "ref")?,
        },
    };
    Ok(Envelope::v1(id, body))
}

/// Wraps a decoded search under its batched verb, enforcing what each
/// verb requires and refuses.
fn batched(verb: &str, mut req: SearchRequest) -> Result<Envelope<RequestBody>, ProtoError> {
    let id = req.id;
    let fail = |kind| Err(ProtoError::new(id, kind));
    let invalid = |message: &str| {
        fail(ErrorKind::Invalid {
            message: message.to_owned(),
        })
    };
    let grid = !req.lambda_grid.is_empty();
    let meta = req.max_searches > 1;
    let ckpt = req.checkpoint.is_some();
    let body = match verb {
        "search" if grid => return invalid("search does not take lambda_grid (use the grid verb)"),
        "search" if meta => {
            return invalid("search does not take max_searches (use the meta verb)")
        }
        "search" => RequestBody::Search(req),
        "grid" if !grid => return fail(ErrorKind::MissingField { key: "lambda_grid" }),
        "grid" if ckpt => return invalid("grid jobs would overwrite one another's ckpt snapshots"),
        "grid" => RequestBody::Grid(req),
        "meta" if !meta => return invalid("meta requires max_searches > 1 (use the search verb)"),
        "meta" if ckpt => return invalid("meta-searches are not checkpointable"),
        "meta" => RequestBody::Meta(req),
        _ if !ckpt => return fail(ErrorKind::MissingField { key: "ckpt" }),
        _ if grid || meta => return invalid("resume continues exactly one checkpointed search"),
        _ => {
            req.resume_from_checkpoint = true;
            RequestBody::Resume(req)
        }
    };
    Ok(Envelope::v1(id, body))
}

/// Encodes a request envelope as its canonical v1 line
/// ([`decode_request`] round-trips it).
pub fn encode_request(env: &Envelope<RequestBody>) -> String {
    let name = VERBS[env.body.verb_index()].name;
    let line = || Line::v1(name, env.request_id);
    match &env.body {
        // A search carries its envelope id as its own `id` field.
        RequestBody::Search(r)
        | RequestBody::Grid(r)
        | RequestBody::Meta(r)
        | RequestBody::Resume(r) => r
            .write_fields(&mut Line::new(&format!("{VERSION_TOKEN} {name}")))
            .done(),
        RequestBody::LoadBundle { path } => line().field("path", path).done(),
        RequestBody::UnloadBundle { task, bundle_seed } => line()
            .field("task", task.label())
            .field("bundle_seed", bundle_seed)
            .done(),
        RequestBody::CatalogPin { fingerprint, on } => line()
            .field("ref", hdx_catalog::format_ref(*fingerprint))
            .field("on", u8::from(*on))
            .done(),
        RequestBody::CatalogEvict { fingerprint } => line()
            .field("ref", hdx_catalog::format_ref(*fingerprint))
            .done(),
        _ => line().done(),
    }
}

impl StatsReport {
    /// The bank-level fields every stats line carries, v0 and v1.
    fn write_fields<'l>(&self, line: &'l mut Line) -> &'l mut Line {
        let cap = self
            .bank_cap
            .map_or_else(|| "none".to_owned(), |c| c.to_string());
        line.field("programs", self.programs)
            .field("idle_sessions", self.idle_sessions)
            .field("hits", self.hits)
            .field("misses", self.misses)
            .field("evictions", self.evictions)
            .field("bank_cap", cap)
            .field("requests_served", self.requests_served)
    }
}

/// Encodes a response envelope as its canonical v1 line
/// ([`decode_response`] round-trips it).
pub fn encode_response(env: &Envelope<ResponseBody>) -> String {
    let line = |verb| Line::v1(verb, env.request_id);
    let listing = |verb, rows: Vec<(&str, String)>| {
        let mut line = line(verb);
        line.field("count", rows.len());
        for (key, value) in rows {
            line.field(key, value);
        }
        line.done()
    };
    match &env.body {
        ResponseBody::Report(r) => r.encode_v1(),
        ResponseBody::Error(e) => e.encode_v1(),
        ResponseBody::Stats(s) => {
            let mut line = line("stats");
            s.write_fields(&mut line);
            for t in &s.tasks {
                let (task, seed, served, steps) =
                    (t.task.label(), t.bundle_seed, t.served, t.steps_used);
                let v = t.verbs;
                let (search, grid, meta, resume) = (v.search, v.grid, v.meta, v.resume);
                let row = format!("{task}:{seed}:{served}:{steps}:{search}:{grid}:{meta}:{resume}");
                line.field("task", row);
            }
            line.done()
        }
        ResponseBody::Pong => line("pong").done(),
        ResponseBody::Loaded(e) => line("loaded")
            .field("task", e.task.label())
            .field("bundle_seed", e.bundle_seed)
            .field("estimator_accuracy", e.estimator_accuracy)
            .done(),
        ResponseBody::Unloaded { task, bundle_seed } => line("unloaded")
            .field("task", task.label())
            .field("bundle_seed", bundle_seed)
            .done(),
        ResponseBody::Tasks(entries) => listing(
            "tasks",
            entries
                .iter()
                .map(|e| {
                    let (task, seed, acc) = (e.task.label(), e.bundle_seed, e.estimator_accuracy);
                    ("task", format!("{task}:{seed}:{acc}"))
                })
                .collect(),
        ),
        ResponseBody::Metrics(entries) => listing(
            "metrics",
            entries
                .iter()
                .map(|(name, v)| (name.as_str(), v.to_string()))
                .collect(),
        ),
        ResponseBody::Catalog(entries) => listing(
            "catalog",
            entries
                .iter()
                .map(|e| {
                    let (task, family, pinned) = (e.task.label(), &e.family, u8::from(e.pinned));
                    let (seed, gen, fp, len) = (e.seed, e.gen, e.fingerprint, e.len);
                    (
                        "entry",
                        format!("{task}:{family}:{seed}:{gen}:{fp:016x}:{len}:{pinned}"),
                    )
                })
                .collect(),
        ),
        ResponseBody::Pinned { fingerprint, on } => line("pinned")
            .field("ref", hdx_catalog::format_ref(*fingerprint))
            .field("on", u8::from(*on))
            .done(),
        ResponseBody::Evicted { fingerprint, freed } => line("evicted")
            .field("ref", hdx_catalog::format_ref(*fingerprint))
            .field("freed", freed)
            .done(),
    }
}

/// The v0 line answering a v0 request: the frozen PR-4 report, the
/// PR-4 `stats` field set (no per-task rows), `pong`, or a v0 error.
pub(crate) fn encode_response_v0(body: &ResponseBody) -> String {
    match body {
        ResponseBody::Report(r) => r.encode(),
        ResponseBody::Stats(s) => s.write_fields(&mut Line::new("stats")).done(),
        ResponseBody::Pong => "pong".to_owned(),
        ResponseBody::Error(e) => e.encode(),
        other => unreachable!("v0 requests are never answered with {other:?}"),
    }
}

/// Decodes one v1 response line (the client half of the codec; also
/// what the round-trip tests pin).
///
/// # Errors
///
/// Typed [`ProtoError`]s mirroring [`decode_request`].
pub fn decode_response(line: &str) -> Result<Envelope<ResponseBody>, ProtoError> {
    let (offset, name, parts) = open(line)?;
    let (id, body) = match name {
        "report" => {
            let r = decode_report(parts)?;
            (r.id, ResponseBody::Report(r))
        }
        "stats" => decode_stats(parts)?,
        "tasks" => {
            let (id, entries) = listing(parts, "tasks", Some("task"), |f, _| {
                f.row(|[task, seed, accuracy]| {
                    Some(TaskEntry {
                        task: Task::parse_label(task)?,
                        bundle_seed: seed.parse().ok()?,
                        estimator_accuracy: accuracy.parse().ok()?,
                    })
                })
            })?;
            (id, ResponseBody::Tasks(entries))
        }
        // `id`/`count` are envelope keys; every other token is one
        // counter. Entries must be strictly ascending by name, the
        // canonical snapshot order.
        "metrics" => {
            let (id, entries) = listing(parts, "metrics", None, |f, prev: &[(String, u64)]| {
                if let Some((last, _)) = prev.last().filter(|(last, _)| last.as_str() >= f.key) {
                    let message = format!(
                        "metrics entries must be strictly ascending by name (\"{}\" after \
                         \"{last}\")",
                        f.key
                    );
                    return Err(f.fail(ErrorKind::Invalid { message }));
                }
                Ok((f.key.to_owned(), f.u64()?))
            })?;
            (id, ResponseBody::Metrics(entries))
        }
        // Entries stay in the canonical index order.
        "catalog" => {
            let (id, entries) = listing(parts, "catalog", Some("entry"), |f, _| {
                f.row(|[task, family, seed, gen, fingerprint, len, pinned]| {
                    Some(CatalogEntry {
                        task: Task::parse_label(task)?,
                        family: (!family.is_empty()).then(|| family.to_owned())?,
                        seed: seed.parse().ok()?,
                        gen: gen.parse().ok()?,
                        fingerprint: (fingerprint.len() == 16)
                            .then(|| u64::from_str_radix(fingerprint, 16).ok())
                            .flatten()?,
                        len: len.parse().ok()?,
                        pinned: bit(pinned)?,
                    })
                })
            })?;
            (id, ResponseBody::Catalog(entries))
        }
        "error" => decode_error(parts)?,
        "pong" | "loaded" | "unloaded" | "pinned" | "evicted" => {
            let keys: &[&str] = match name {
                "loaded" => &["task", "bundle_seed", "estimator_accuracy"],
                "unloaded" => &["task", "bundle_seed"],
                "pinned" => &["ref", "on"],
                "evicted" => &["ref", "freed"],
                _ => &[],
            };
            let (id, c) = control(parts, keys)?;
            let body = match name {
                "pong" => ResponseBody::Pong,
                "loaded" => ResponseBody::Loaded(TaskEntry {
                    task: need(id, c.task, "task")?,
                    bundle_seed: need(id, c.bundle_seed, "bundle_seed")?,
                    estimator_accuracy: c.accuracy.unwrap_or(f64::NAN),
                }),
                "unloaded" => ResponseBody::Unloaded {
                    task: need(id, c.task, "task")?,
                    bundle_seed: need(id, c.bundle_seed, "bundle_seed")?,
                },
                "pinned" => ResponseBody::Pinned {
                    fingerprint: need(id, c.fingerprint, "ref")?,
                    on: need(id, c.on, "on")?,
                },
                _ => ResponseBody::Evicted {
                    fingerprint: need(id, c.fingerprint, "ref")?,
                    freed: need(id, c.freed, "freed")?,
                },
            };
            (id, body)
        }
        other => return Err(unknown_verb(other, offset)),
    };
    Ok(Envelope::v1(id, body))
}

fn decode_stats<'a>(
    parts: impl Iterator<Item = (usize, &'a str)>,
) -> Result<(u64, ResponseBody), ProtoError> {
    let mut s = StatsReport::default();
    let id = read_fields(parts, |f| {
        let counter = match f.key {
            "programs" => &mut s.programs,
            "idle_sessions" => &mut s.idle_sessions,
            "hits" => &mut s.hits,
            "misses" => &mut s.misses,
            "evictions" => &mut s.evictions,
            "requests_served" => &mut s.requests_served,
            "bank_cap" => {
                s.bank_cap = if f.value == "none" {
                    None
                } else {
                    Some(f.u64()?)
                };
                return Ok(true);
            }
            "task" => {
                s.tasks.push(
                    f.row(|[task, seed, served, steps, search, grid, meta, resume]| {
                        Some(TaskStats {
                            task: Task::parse_label(task)?,
                            bundle_seed: seed.parse().ok()?,
                            served: served.parse().ok()?,
                            steps_used: steps.parse().ok()?,
                            verbs: VerbCounts {
                                search: search.parse().ok()?,
                                grid: grid.parse().ok()?,
                                meta: meta.parse().ok()?,
                                resume: resume.parse().ok()?,
                            },
                        })
                    })?,
                );
                return Ok(true);
            }
            _ => return Ok(false),
        };
        *counter = f.u64()?;
        Ok(true)
    })?;
    Ok((id, ResponseBody::Stats(s)))
}

fn decode_error<'a>(
    parts: impl Iterator<Item = (usize, &'a str)>,
) -> Result<(u64, ResponseBody), ProtoError> {
    let (mut code, mut at, mut msg) = (None, None, String::new());
    let id = read_fields(parts, |f| {
        match f.key {
            "code" => code = Some(f.value.to_owned()),
            "offset" => at = Some(f.u64()?),
            "msg" => msg = f.value.to_owned(),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    // The wire flattens the kind to (code, offset, msg); decoding keeps
    // it as an opaque Invalid with the readable message — the typed
    // kinds exist server-side, clients key on `code`.
    let message = match (code, at) {
        (Some(c), Some(o)) => format!("[{c}@{o}] {msg}"),
        (Some(c), None) => format!("[{c}] {msg}"),
        _ => msg,
    };
    let err = ProtoError::new(id, ErrorKind::Invalid { message });
    Ok((id, ResponseBody::Error(err)))
}

fn decode_report<'a>(
    parts: impl Iterator<Item = (usize, &'a str)>,
) -> Result<SearchReport, ProtoError> {
    // Absent fields keep these values.
    let mut r = SearchReport {
        method: "HDX",
        task: "cifar",
        dataflow: "WS",
        queued_jobs: 1,
        ..SearchReport::default()
    };
    r.id = read_fields(parts, |f| {
        match f.key {
            // `id=<n>` or, for a grid job, `id=<n>#<sub>`.
            "id" => {
                let (main, sub) = match f.value.split_once('#') {
                    Some((main, sub)) => (main, Some(sub)),
                    None => (f.value, None),
                };
                let parsed = (main.parse().ok(), sub.map(str::parse).transpose().ok());
                let (Some(id), Some(sub)) = parsed else {
                    return Err(f.invalid());
                };
                (f.id, r.sub) = (id, sub.or(r.sub));
            }
            "method" => r.method = f.one_of(&["HDX", "DANCE", "Auto-NBA", "NAS->HW"])?,
            // Any registered family label is a valid report task — a
            // value-level extension point, not a grammar change.
            "task" => r.task = f.task()?.label(),
            "seed" => r.seed = f.parse()?,
            "lambda_cost" => r.lambda_cost = f.parse()?,
            "searches" => r.searches = f.parse()?,
            "satisfied" => r.satisfied = f.parse()?,
            "arch" => {
                r.arch = f
                    .value
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| f.invalid())?;
            }
            "pe" => {
                let (rows, cols) = f.value.split_once('x').ok_or_else(|| f.invalid())?;
                r.pe = rows
                    .parse()
                    .ok()
                    .zip(cols.parse().ok())
                    .ok_or_else(|| f.invalid())?;
            }
            "rf" => r.rf = f.parse()?,
            "dataflow" => r.dataflow = f.one_of(&["WS", "OS", "RS"])?,
            "latency_ms" => r.latency_ms = f.parse()?,
            "energy_mj" => r.energy_mj = f.parse()?,
            "area_mm2" => r.area_mm2 = f.parse()?,
            "cost_hw" => r.cost_hw = f.parse()?,
            "error" => r.error = f.parse()?,
            "global_loss" => r.global_loss = f.parse()?,
            "in_constraint" => r.in_constraint = f.parse()?,
            "queue_pos" => r.queue_pos = f.parse()?,
            "queued_jobs" => r.queued_jobs = f.parse()?,
            "queue_len_at_dispatch" => r.queue_len_at_dispatch = f.parse()?,
            "steps_used" => r.steps_used = f.parse()?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_core::{Constraint, Method};

    #[test]
    fn sniff_classifies_framings() {
        assert_eq!(sniff("search id=1"), Framing::V0);
        assert_eq!(sniff("stats"), Framing::V0);
        assert_eq!(sniff(""), Framing::V0);
        assert_eq!(sniff("hdx1 ping id=1"), Framing::V1);
        assert_eq!(sniff("  hdx1 ping"), Framing::V1);
        assert_eq!(
            sniff("hdx2 ping id=1"),
            Framing::Unsupported {
                token: "hdx2".to_owned(),
                offset: 0
            }
        );
        // "hdx" followed by non-digits is not a version token.
        assert_eq!(sniff("hdxfoo ping"), Framing::V0);
    }

    #[test]
    fn request_envelopes_round_trip() {
        let search = SearchRequest {
            id: 3,
            constraints: vec![Constraint::fps(30.0)],
            checkpoint: Some("/tmp/s3.ckpt".to_owned()),
            checkpoint_every: 2,
            bundle_seed: Some(7),
            ..SearchRequest::default()
        };
        let grid = SearchRequest {
            id: 4,
            lambda_grid: vec![0.001, 0.01],
            ..SearchRequest::default()
        };
        let meta = SearchRequest {
            id: 5,
            max_searches: 3,
            constraints: vec![Constraint::fps(30.0)],
            method: Method::Dance,
            ..SearchRequest::default()
        };
        let resume = SearchRequest {
            id: 6,
            checkpoint: Some("/tmp/s6.ckpt".to_owned()),
            resume_from_checkpoint: true,
            ..SearchRequest::default()
        };
        let envelopes = vec![
            Envelope::v1(3, RequestBody::Search(search)),
            Envelope::v1(4, RequestBody::Grid(grid)),
            Envelope::v1(5, RequestBody::Meta(meta)),
            Envelope::v1(6, RequestBody::Resume(resume)),
            Envelope::v1(7, RequestBody::Stats),
            Envelope::v1(8, RequestBody::Ping),
            Envelope::v1(9, RequestBody::ListTasks),
            Envelope::v1(12, RequestBody::Metrics),
            Envelope::v1(
                10,
                RequestBody::LoadBundle {
                    path: "/tmp/b.ckpt".to_owned(),
                },
            ),
            Envelope::v1(
                11,
                RequestBody::UnloadBundle {
                    task: Task::ImageNet,
                    bundle_seed: 2,
                },
            ),
            Envelope::v1(13, RequestBody::CatalogList),
            Envelope::v1(
                14,
                RequestBody::CatalogPin {
                    fingerprint: 0x00ab_cdef_0123_4567,
                    on: true,
                },
            ),
            Envelope::v1(
                15,
                RequestBody::CatalogPin {
                    fingerprint: u64::MAX,
                    on: false,
                },
            ),
            Envelope::v1(
                16,
                RequestBody::CatalogEvict {
                    fingerprint: 0xdead_beef_cafe_f00d,
                },
            ),
        ];
        for env in envelopes {
            let line = encode_request(&env);
            let back = decode_request(&line).unwrap_or_else(|e| panic!("line \"{line}\": {e}"));
            assert_eq!(back, env, "line: {line}");
        }
    }

    #[test]
    fn response_envelopes_round_trip() {
        let report = SearchReport {
            id: 12,
            sub: Some(1),
            method: "DANCE",
            task: "imagenet",
            seed: 2,
            lambda_cost: 0.01,
            searches: 1,
            satisfied: true,
            arch: vec![0, 3, 5],
            pe: (16, 8),
            rf: 512,
            dataflow: "OS",
            latency_ms: 1.25,
            energy_mj: 2.5,
            area_mm2: 3.75,
            cost_hw: 0.5,
            error: 0.125,
            global_loss: 0.25,
            in_constraint: true,
            queue_pos: 2,
            queued_jobs: 5,
            queue_len_at_dispatch: 2,
            steps_used: 123,
        };
        let stats = StatsReport {
            programs: 3,
            idle_sessions: 2,
            hits: 10,
            misses: 4,
            evictions: 1,
            bank_cap: Some(16),
            requests_served: 9,
            tasks: vec![
                TaskStats {
                    task: Task::Cifar,
                    bundle_seed: 0,
                    served: 5,
                    steps_used: 250,
                    verbs: VerbCounts {
                        search: 2,
                        grid: 2,
                        meta: 1,
                        resume: 0,
                    },
                },
                TaskStats {
                    task: Task::ImageNet,
                    bundle_seed: 1,
                    served: 4,
                    steps_used: 200,
                    verbs: VerbCounts {
                        search: 4,
                        grid: 0,
                        meta: 0,
                        resume: 0,
                    },
                },
            ],
        };
        let envelopes = vec![
            Envelope::v1(12, ResponseBody::Report(report)),
            Envelope::v1(13, ResponseBody::Stats(stats)),
            Envelope::v1(14, ResponseBody::Pong),
            Envelope::v1(
                15,
                ResponseBody::Loaded(TaskEntry {
                    task: Task::Cifar,
                    bundle_seed: 0,
                    estimator_accuracy: 0.375,
                }),
            ),
            Envelope::v1(
                16,
                ResponseBody::Unloaded {
                    task: Task::Cifar,
                    bundle_seed: 0,
                },
            ),
            Envelope::v1(
                17,
                ResponseBody::Tasks(vec![TaskEntry {
                    task: Task::ImageNet,
                    bundle_seed: 3,
                    estimator_accuracy: 0.5,
                }]),
            ),
            Envelope::v1(
                18,
                ResponseBody::Metrics(vec![
                    ("bank.hit".to_owned(), 41),
                    ("bank.miss".to_owned(), 2),
                    ("engine.steps.hdx".to_owned(), 1250),
                ]),
            ),
            Envelope::v1(19, ResponseBody::Metrics(Vec::new())),
            Envelope::v1(
                20,
                ResponseBody::Catalog(vec![
                    CatalogEntry {
                        task: Task::Cifar,
                        family: "train".to_owned(),
                        seed: 0,
                        gen: 1,
                        fingerprint: 0x0000_0000_0000_00ff,
                        len: 4096,
                        pinned: false,
                    },
                    CatalogEntry {
                        task: Task::ImageNet,
                        family: "workload".to_owned(),
                        seed: 2,
                        gen: 7,
                        fingerprint: u64::MAX,
                        len: 1,
                        pinned: true,
                    },
                ]),
            ),
            Envelope::v1(21, ResponseBody::Catalog(Vec::new())),
            Envelope::v1(
                22,
                ResponseBody::Pinned {
                    fingerprint: 0x0123_4567_89ab_cdef,
                    on: true,
                },
            ),
            Envelope::v1(
                23,
                ResponseBody::Evicted {
                    fingerprint: 0xfeed_face_0000_0001,
                    freed: 8192,
                },
            ),
        ];
        for env in envelopes {
            let line = encode_response(&env);
            let back = decode_response(&line).unwrap_or_else(|e| panic!("line \"{line}\": {e}"));
            assert_eq!(back, env, "line: {line}");
        }
    }

    #[test]
    fn verb_specific_validation() {
        // search refuses sweep/meta fields.
        assert!(decode_request("hdx1 search id=1 lambda_grid=0.1,0.2").is_err());
        assert!(decode_request("hdx1 search id=1 fps=30 max_searches=2").is_err());
        // grid requires a grid; meta requires a budget.
        assert!(decode_request("hdx1 grid id=1").is_err());
        assert!(decode_request("hdx1 meta id=1 fps=30").is_err());
        assert!(decode_request("hdx1 meta id=1 fps=30 max_searches=1").is_err());
        // resume requires the snapshot path and exactly one job.
        assert!(decode_request("hdx1 resume id=1").is_err());
        assert!(decode_request("hdx1 resume id=1 ckpt=/tmp/x lambda_grid=0.1,0.2").is_err());
        // Control verbs reject extra fields and non-field tokens.
        assert!(decode_request("hdx1 ping id=1 extra=2").is_err());
        assert!(decode_request("hdx1 stats now").is_err());
        assert!(decode_request("hdx1 metrics id=1 extra=2").is_err());
        // Metrics responses enforce the count and the canonical order.
        assert!(decode_response("hdx1 metrics id=1 count=2 bank.hit=1").is_err());
        assert!(decode_response("hdx1 metrics id=1 count=2 bank.miss=1 bank.hit=2").is_err());
        assert!(decode_response("hdx1 metrics id=1 count=2 bank.hit=1 bank.hit=2").is_err());
        assert!(decode_response("hdx1 metrics id=1 count=1 bank.hit=nope").is_err());
        assert!(decode_request("hdx1 load_bundle id=1").is_err());
        assert!(decode_request("hdx1 unload_bundle id=1 task=cifar").is_err());
        // Catalog verbs: refs must be cat:<16 hex digits>, pins a 0/1
        // bit, and the required fields enforced.
        assert!(decode_request("hdx1 catalog_list id=1 extra=2").is_err());
        assert!(decode_request("hdx1 catalog_pin id=1 on=1").is_err());
        assert!(decode_request("hdx1 catalog_pin id=1 ref=cat:00000000000000ff").is_err());
        assert!(decode_request("hdx1 catalog_pin id=1 ref=cat:ff on=1").is_err());
        assert!(decode_request("hdx1 catalog_pin id=1 ref=cat:00000000000000ff on=2").is_err());
        assert!(decode_request("hdx1 catalog_evict id=1").is_err());
        assert!(decode_request("hdx1 catalog_evict id=1 ref=00000000000000ff").is_err());
        assert!(
            decode_request("hdx1 catalog_evict id=1 ref=cat:00000000000000gg").is_err(),
            "non-hex digits must be rejected"
        );
        // Catalog responses enforce the count and entry shape.
        assert!(decode_response("hdx1 catalog id=1 count=1").is_err());
        assert!(
            decode_response("hdx1 catalog id=1 count=1 entry=cifar:train:0:1:00000000000000ff")
                .is_err(),
            "seven colon-separated fields required"
        );
        assert!(decode_response(
            "hdx1 catalog id=1 count=1 entry=cifar:train:0:1:00000000000000ff:4096:2"
        )
        .is_err());
        assert!(decode_response("hdx1 pinned id=1 on=1").is_err());
        assert!(decode_response("hdx1 evicted id=1 ref=cat:00000000000000ff").is_err());
        // Version mismatch is its own kind.
        let err = decode_request("hdx9 ping id=1").expect_err("version");
        assert_eq!(err.kind.code(), "version_mismatch");
        // Unknown verbs still carry the offset.
        let err = decode_request("hdx1 launch id=1").expect_err("verb");
        assert_eq!(
            err.kind,
            ErrorKind::UnknownVerb {
                verb: "launch".to_owned(),
                offset: 5
            }
        );
    }
}
