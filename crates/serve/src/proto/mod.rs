//! The wire protocol: a versioned typed core ([`v1`]) plus the frozen
//! PR-4 line grammar (v0) as a compatibility shim.
//!
//! Both versions are line-delimited `verb key=value …` text — trivially
//! scriptable over stdin/stdout or a TCP stream, no third-party
//! serialization (the container builds offline). A v1 line leads with
//! the `hdx1` version token; anything else is parsed with the v0
//! grammar and answered in v0 framing, so PR-4 clients keep receiving
//! **byte-identical** responses:
//!
//! ```text
//! search id=1 task=cifar method=hdx fps=30 seed=0          # v0
//! hdx1 search id=1 task=cifar method=hdx fps=30 seed=0     # v1
//! hdx1 resume id=2 ckpt=/tmp/s.ckpt task=cifar seed=0 …    # v1 only
//! ```
//!
//! This module owns the version-independent core: the typed
//! [`ProtoError`] (every failure names its kind, field, and byte
//! offset), the [`SearchRequest`] / [`SearchReport`] payload types, and
//! the v0 codec. A search request is its envelope fields (id, task,
//! bundle seed, λ-grid, meta-search budget, resume flag) plus the
//! engine's own [`SearchOptions`]; no option is defined twice. Which
//! batched verb a request is — search, grid, meta or resume — is read
//! from those fields in one place, [`SearchRequest::verb_index`], and
//! everything that names or counts a job's verb asks it. [`v1`] layers
//! the envelope (`request_id`/body enums), the verb table, and its
//! canonical encode/decode pair on top, and owns the one framing-aware
//! request decoder ([`v1::decode_line`]) that reads every request
//! line, v0 or v1.
//!
//! Both grammars share one field codec: a private reader walks a line's
//! `key=value` tokens in order and hands each to the verb's schema
//! through typed parsers, and one line writer emits the canonical
//! encoding back out.
//!
//! # Byte-identity
//!
//! Report encoding is **deterministic**: fields are emitted in a fixed
//! order and floats use Rust's shortest-round-trip `Display`, which is
//! a pure function of the bit pattern. Two searches that produce
//! bit-identical results therefore produce byte-identical report lines
//! — the property the service determinism tests pin (worker-count,
//! warm-start, and resume invariance compare raw report bytes).
//! Wall-clock timing is deliberately excluded from reports for the
//! same reason; the queue/step fields added by v1 are deterministic
//! functions of the request and its dispatch position.

pub mod v1;

use hdx_core::{
    CheckpointSpec, Constraint, DeltaPolicy, Method, Metric, SearchOptions, SearchResult, Task,
};
use hdx_nas::OP_SET;
use std::fmt::{Display, Write as _};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::OnceLock;

/// What went wrong, precisely. Every variant that originates in a
/// parser carries the byte offset of the offending token within the
/// request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line had no verb.
    EmptyLine,
    /// The verb is not part of the (version-resolved) grammar.
    UnknownVerb {
        /// The verb as received.
        verb: String,
        /// Byte offset of the verb in the line.
        offset: usize,
    },
    /// The line leads with a version token this server does not speak.
    VersionMismatch {
        /// The version token as received.
        token: String,
        /// Byte offset of the token (0 in practice).
        offset: usize,
    },
    /// A field token is not of the `key=value` form.
    NotKeyValue {
        /// The malformed token.
        token: String,
        /// Byte offset of the token.
        offset: usize,
    },
    /// The key is not a field of the verb (typos must not silently
    /// fall back to defaults).
    UnknownField {
        /// The unknown key.
        key: String,
        /// Byte offset of the key.
        offset: usize,
    },
    /// The value does not parse (or violates the field's domain).
    InvalidValue {
        /// Field key.
        key: String,
        /// Offending value text.
        value: String,
        /// Byte offset of the value.
        offset: usize,
    },
    /// Input after the grammatical end of the request.
    TrailingInput {
        /// First trailing token.
        token: String,
        /// Byte offset of that token.
        offset: usize,
    },
    /// A field the verb requires is absent.
    MissingField {
        /// The required key.
        key: &'static str,
    },
    /// Cross-field validation failure (e.g. a meta-search without a
    /// constraint).
    Invalid {
        /// Human-readable description.
        message: String,
    },
    /// No loaded bundle covers the requested task.
    TaskUnavailable {
        /// The task label the request named.
        task: String,
        /// The explicit bundle seed, when the request pinned one.
        bundle_seed: Option<u64>,
    },
    /// The connection exhausted its request quota
    /// (`--max-requests-per-conn`).
    QuotaExceeded {
        /// The configured per-connection limit.
        limit: u64,
    },
    /// The job's deterministic step budget exceeds the per-job
    /// deadline (`--deadline-steps`).
    DeadlineExceeded {
        /// The job's worst-case optimizer-step budget.
        budget: u64,
        /// The configured limit.
        limit: u64,
    },
    /// A checkpoint/resume failure (load error, fingerprint mismatch).
    Checkpoint {
        /// Human-readable description.
        message: String,
    },
    /// A catalog operation failure (no catalog mounted, unknown
    /// fingerprint, pinned/leased eviction refusal, store corruption).
    CatalogOp {
        /// Human-readable description.
        message: String,
    },
}

impl ErrorKind {
    /// Stable machine-readable code (the v1 `code=` field).
    pub fn code(&self) -> &'static str {
        match self {
            ErrorKind::EmptyLine => "empty_line",
            ErrorKind::UnknownVerb { .. } => "unknown_verb",
            ErrorKind::VersionMismatch { .. } => "version_mismatch",
            ErrorKind::NotKeyValue { .. } => "bad_token",
            ErrorKind::UnknownField { .. } => "unknown_field",
            ErrorKind::InvalidValue { .. } => "invalid_value",
            ErrorKind::TrailingInput { .. } => "trailing_input",
            ErrorKind::MissingField { .. } => "missing_field",
            ErrorKind::Invalid { .. } => "invalid_request",
            ErrorKind::TaskUnavailable { .. } => "task_unavailable",
            ErrorKind::QuotaExceeded { .. } => "quota_exceeded",
            ErrorKind::DeadlineExceeded { .. } => "deadline_exceeded",
            ErrorKind::Checkpoint { .. } => "checkpoint",
            ErrorKind::CatalogOp { .. } => "catalog",
        }
    }

    /// A [`ErrorKind::CatalogOp`] carrying `err`'s message.
    pub(crate) fn catalog(err: impl Display) -> ErrorKind {
        let message = err.to_string();
        ErrorKind::CatalogOp { message }
    }

    /// A [`ErrorKind::Checkpoint`] carrying `err`'s message.
    pub(crate) fn checkpoint(err: impl Display) -> ErrorKind {
        let message = err.to_string();
        ErrorKind::Checkpoint { message }
    }

    /// A [`ErrorKind::TaskUnavailable`] for `task`.
    pub(crate) fn unavailable(task: Task, bundle_seed: Option<u64>) -> ErrorKind {
        let task = task.label().to_owned();
        ErrorKind::TaskUnavailable { task, bundle_seed }
    }

    /// Byte offset of the offending token, for parse-level kinds.
    pub fn offset(&self) -> Option<usize> {
        match self {
            ErrorKind::UnknownVerb { offset, .. }
            | ErrorKind::VersionMismatch { offset, .. }
            | ErrorKind::NotKeyValue { offset, .. }
            | ErrorKind::UnknownField { offset, .. }
            | ErrorKind::InvalidValue { offset, .. }
            | ErrorKind::TrailingInput { offset, .. } => Some(*offset),
            _ => None,
        }
    }

    /// Human-readable description (the `msg=` field).
    pub fn message(&self) -> String {
        match self {
            ErrorKind::EmptyLine => "empty request line".to_owned(),
            ErrorKind::UnknownVerb { verb, .. } => format!("unknown verb \"{verb}\""),
            ErrorKind::VersionMismatch { token, .. } => format!(
                "unsupported protocol version \"{token}\" (supported: {})",
                v1::VERSION_TOKEN
            ),
            ErrorKind::NotKeyValue { token, .. } => format!("expected key=value, got \"{token}\""),
            ErrorKind::UnknownField { key, .. } => format!("unknown field \"{key}\""),
            ErrorKind::InvalidValue { key, value, .. } => {
                format!("invalid value \"{value}\" for {key}")
            }
            ErrorKind::TrailingInput { token, .. } => {
                format!("trailing input \"{token}\" after request")
            }
            ErrorKind::MissingField { key } => format!("required field \"{key}\" missing"),
            ErrorKind::Invalid { message }
            | ErrorKind::Checkpoint { message }
            | ErrorKind::CatalogOp { message } => message.clone(),
            ErrorKind::TaskUnavailable { task, bundle_seed } => match bundle_seed {
                Some(seed) => format!("no bundle loaded for task \"{task}\" seed {seed}"),
                None => format!("no bundle loaded for task \"{task}\""),
            },
            ErrorKind::QuotaExceeded { limit } => {
                format!("connection exceeded its {limit}-request quota")
            }
            ErrorKind::DeadlineExceeded { budget, limit } => {
                format!("job step budget {budget} exceeds the {limit}-step deadline")
            }
        }
    }
}

/// Typed protocol failure: the request id it belongs to (0 when the id
/// was never parsed) plus the failure [`ErrorKind`]. Rendered in-band
/// as an `error …` line in whichever framing the request used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Request id the error belongs to (0 when unparsed).
    pub id: u64,
    /// What went wrong.
    pub kind: ErrorKind,
}

impl ProtoError {
    /// Builds an error for request `id`.
    pub fn new(id: u64, kind: ErrorKind) -> ProtoError {
        ProtoError { id, kind }
    }

    /// The v0 `error …` response line — the PR-4 framing, byte-stable
    /// for v0 clients (spaces in the message become `_` so the line
    /// stays trivially splittable).
    // hdx-frozen: begin(v0-shim)
    pub fn encode(&self) -> String {
        format!(
            "error id={} msg={}",
            self.id,
            self.kind.message().replace(char::is_whitespace, "_")
        )
    }
    // hdx-frozen: end(v0-shim)

    /// The v1 `error …` response line: machine-readable code, byte
    /// offset when known, then the message.
    pub fn encode_v1(&self) -> String {
        let mut line = Line::v1("error", self.id);
        line.field("code", self.kind.code());
        if let Some(offset) = self.kind.offset() {
            line.field("offset", offset);
        }
        let msg = self.kind.message().replace(char::is_whitespace, "_");
        line.field("msg", msg).done()
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request {}: {}", self.id, self.kind.message())
    }
}

impl std::error::Error for ProtoError {}

fn unknown_verb(verb: &str, offset: usize) -> ProtoError {
    let verb = verb.to_owned();
    ProtoError::new(0, ErrorKind::UnknownVerb { verb, offset })
}

/// Splits a line into whitespace-separated tokens, each with its byte
/// offset (for [`ErrorKind`] diagnostics).
fn tokens(line: &str) -> impl Iterator<Item = (usize, &str)> + '_ {
    line.split_whitespace()
        .map(move |tok| (tok.as_ptr() as usize - line.as_ptr() as usize, tok))
}

/// One `key=value` token as [`read_fields`] hands it to a verb's
/// schema. Every error it raises carries the request id read so far.
struct Field<'a> {
    /// The `id=` read before this token. A schema that owns `id` (the
    /// report's `id=<n>#<sub>`) sets it.
    id: u64,
    key: &'a str,
    value: &'a str,
    /// Byte offset of the token in the line.
    offset: usize,
}

impl<'a> Field<'a> {
    fn fail(&self, kind: ErrorKind) -> ProtoError {
        ProtoError::new(self.id, kind)
    }

    /// `InvalidValue`, pointing at the value.
    fn invalid(&self) -> ProtoError {
        let (key, value) = (self.key.to_owned(), self.value.to_owned());
        let offset = self.offset + self.key.len() + 1;
        self.fail(ErrorKind::InvalidValue { key, value, offset })
    }

    /// The value parsed as `T` and accepted by `ok`.
    fn parse_if<T: FromStr>(&self, ok: impl FnOnce(&T) -> bool) -> Result<T, ProtoError> {
        self.value
            .parse()
            .ok()
            .filter(ok)
            .ok_or_else(|| self.invalid())
    }

    fn parse<T: FromStr>(&self) -> Result<T, ProtoError> {
        self.parse_if(|_| true)
    }

    fn u64(&self) -> Result<u64, ProtoError> {
        self.parse()
    }

    // Rust's float FromStr accepts "NaN"/"inf"; a λ or δ knob set to
    // either would silently poison the whole objective, so request
    // floats must be finite.
    fn f64(&self) -> Result<f64, ProtoError> {
        self.parse_if(|v: &f64| v.is_finite())
    }

    fn f32(&self) -> Result<f32, ProtoError> {
        self.parse_if(|v: &f32| v.is_finite())
    }

    fn positive(&self) -> Result<usize, ProtoError> {
        self.parse_if(|n: &usize| *n > 0)
    }

    /// A strict `0`/`1` flag (canonical both directions).
    fn bit(&self) -> Result<bool, ProtoError> {
        bit(self.value).ok_or_else(|| self.invalid())
    }

    /// A `cat:<16 hex digits>` fingerprint ref.
    fn cat_ref(&self) -> Result<u64, ProtoError> {
        hdx_catalog::parse_ref(self.value).ok_or_else(|| self.invalid())
    }

    /// The listed label equal to the value.
    fn one_of(&self, labels: &[&'static str]) -> Result<&'static str, ProtoError> {
        let found = labels.iter().find(|l| **l == self.value);
        found.copied().ok_or_else(|| self.invalid())
    }

    fn task(&self) -> Result<Task, ProtoError> {
        Task::parse_label(self.value).ok_or_else(|| self.invalid())
    }

    fn nonempty(&self) -> Result<String, ProtoError> {
        let value = (!self.value.is_empty()).then(|| self.value.to_owned());
        value.ok_or_else(|| self.invalid())
    }

    /// A row of exactly `N` colon-packed columns, built by `build`.
    fn row<const N: usize, T>(
        &self,
        build: impl FnOnce([&'a str; N]) -> Option<T>,
    ) -> Result<T, ProtoError> {
        let cols: Vec<&'a str> = self.value.split(':').collect();
        <[&str; N]>::try_from(cols)
            .ok()
            .and_then(build)
            .ok_or_else(|| self.invalid())
    }
}

fn bit(value: &str) -> Option<bool> {
    match value {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

/// The field reader every verb decodes through: walks `parts` in line
/// order and hands each `key=value` token to `schema`, which returns
/// whether it knows the key. The reader owns the shared rules — a
/// token without `=` is `NotKeyValue`, an `id` the schema leaves alone
/// parses as u64, any other unknown key is `UnknownField`, and every
/// error carries the id read so far. Returns the final id.
fn read_fields<'a>(
    parts: impl Iterator<Item = (usize, &'a str)>,
    mut schema: impl FnMut(&mut Field<'a>) -> Result<bool, ProtoError>,
) -> Result<u64, ProtoError> {
    let mut id = 0;
    for (offset, token) in parts {
        let Some((key, value)) = token.split_once('=') else {
            let token = token.to_owned();
            return Err(ProtoError::new(
                id,
                ErrorKind::NotKeyValue { token, offset },
            ));
        };
        let mut field = Field {
            id,
            key,
            value,
            offset,
        };
        if schema(&mut field)? {
            id = field.id;
        } else if key == "id" {
            id = field.u64()?;
        } else {
            let key = key.to_owned();
            return Err(field.fail(ErrorKind::UnknownField { key, offset }));
        }
    }
    Ok(id)
}

/// A required field's value, or `MissingField` under the final `id`.
fn need<T>(id: u64, value: Option<T>, key: &'static str) -> Result<T, ProtoError> {
    value.ok_or_else(|| ProtoError::new(id, ErrorKind::MissingField { key }))
}

/// The line writer every encoder builds through: a head (the verb,
/// behind the version token in v1) then ` key=value` fields in call
/// order.
struct Line(String);

impl Line {
    fn new(head: &str) -> Line {
        // Room for a typical reply, so most lines never reallocate.
        let mut line = String::with_capacity(256);
        line.push_str(head);
        Line(line)
    }

    /// A v1 line: the version token, `verb`, and `id=`.
    fn v1(verb: &str, id: u64) -> Line {
        let mut line = Line::new(v1::VERSION_TOKEN);
        line.0.push(' ');
        line.0.push_str(verb);
        line.field("id", id);
        line
    }

    fn field(&mut self, key: &str, value: impl Display) -> &mut Line {
        // Writing into a String cannot fail.
        let _ = write!(self.0, " {key}={value}");
        self
    }

    fn done(&mut self) -> String {
        std::mem::take(&mut self.0)
    }
}

/// A single co-design search job (or a λ-grid / meta-search family of
/// jobs) as carried by one `search`/`grid`/`meta`/`resume` line: the
/// envelope fields that route and expand it, plus the engine
/// [`SearchOptions`] it runs with.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    /// Caller-chosen id, echoed in the report.
    pub id: u64,
    /// λ-grid expansion index (`None` for the unexpanded request).
    pub sub: Option<usize>,
    /// Benchmark task the artifacts must serve.
    pub task: Task,
    /// Explicit bundle seed to route to (v1; defaults to the lowest
    /// seed registered for the task).
    pub bundle_seed: Option<u64>,
    /// Optional λ_Cost grid: the service expands one request into one
    /// independent job per entry (Fig. 1-style sweeps as one line).
    pub lambda_grid: Vec<f64>,
    /// Meta-search budget: `> 1` runs the §5.2 constrained meta-search
    /// on the first constraint instead of a single search.
    pub max_searches: usize,
    /// Whether this request resumes from the snapshot its
    /// `opts.checkpoint` names (set by the v1 `resume` verb; a resumed
    /// search keeps snapshotting to the same path).
    pub resume_from_checkpoint: bool,
    /// The options the job runs with. The wire keys `steps`,
    /// `final_train` and `num_paths` set `steps_per_epoch`,
    /// `final_train_steps` and `supernet.num_paths`; the v1 `ckpt=` /
    /// `ckpt_every=` pair sets `checkpoint`. [`SearchRequest::options`]
    /// resolves them for the engine.
    pub opts: SearchOptions,
}

impl Default for SearchRequest {
    fn default() -> Self {
        SearchRequest {
            id: 0,
            sub: None,
            task: Task::Cifar,
            bundle_seed: None,
            lambda_grid: Vec::new(),
            max_searches: 1,
            resume_from_checkpoint: false,
            opts: SearchOptions::default(),
        }
    }
}

impl SearchRequest {
    /// The [`SearchOptions`] this request resolves to: its own, run
    /// single-worker (`jobs = 1`; the service parallelizes *across*
    /// jobs, and results are worker-count invariant anyway), with the
    /// request line as the checkpoint note.
    pub fn options(&self) -> SearchOptions {
        let mut opts = SearchOptions {
            jobs: 1,
            ..self.opts.clone()
        };
        if let Some(ckpt) = &mut opts.checkpoint {
            ckpt.note = Some(self.encode());
        }
        opts
    }

    /// The job's deterministic optimizer-step budget: what the per-job
    /// deadline is enforced against, and the basis of the report's
    /// `steps_used` field. A pure function of the request — never of
    /// elapsed work — so resumed reports stay bit-identical to
    /// uninterrupted ones.
    pub fn step_budget(&self) -> u64 {
        self.steps_for(self.max_searches)
    }

    /// Optimizer steps of one run of this request's schedule
    /// (`epochs × steps + final_train`), saturating at `u64::MAX`: the
    /// fields are client-controlled, and a wrapped product would slip a
    /// huge job under the deadline.
    pub fn steps_per_search(&self) -> u64 {
        let o = &self.opts;
        (o.epochs as u64)
            .saturating_mul(o.steps_per_epoch as u64)
            .saturating_add(o.final_train_steps as u64)
    }

    /// Optimizer steps of `searches` runs of this request's schedule,
    /// saturating like [`SearchRequest::steps_per_search`].
    fn steps_for(&self, searches: usize) -> u64 {
        (searches as u64).saturating_mul(self.steps_per_search())
    }

    /// Expands a λ-grid request into independent single-λ jobs (a
    /// request without a grid expands to itself). Expansion order is
    /// the grid order, so report order is deterministic.
    pub fn expand(&self) -> Vec<SearchRequest> {
        if self.lambda_grid.is_empty() {
            return vec![self.clone()];
        }
        self.lambda_grid
            .iter()
            .enumerate()
            .map(|(k, &lambda)| {
                let mut job = SearchRequest {
                    sub: Some(k),
                    lambda_grid: Vec::new(),
                    ..self.clone()
                };
                job.opts.lambda_cost = lambda;
                job
            })
            .collect()
    }

    /// The row in [`v1::VERBS`] of the batched verb this job's options
    /// imply: the one classification rule. Resume beats meta beats grid
    /// beats search — the branch `TaskService` runs — so a v0 `search`
    /// line combining options counts under its strongest branch, and a
    /// grid's expanded jobs (`sub` set) still count as grid. The
    /// encoder writes this verb, and the `router.verb.*` counters, the
    /// `stats` rows and the workload score count under it.
    pub fn verb_index(&self) -> usize {
        if self.resume_from_checkpoint {
            3
        } else if self.max_searches > 1 {
            2
        } else if self.sub.is_some() || !self.lambda_grid.is_empty() {
            1
        } else {
            0
        }
    }

    /// Encodes the request's fields as a `search …`-style v0 line that
    /// [`parse_request`] round-trips. v1-only fields (`bundle_seed`,
    /// `ckpt`, `ckpt_every`) are appended only when set, so a request a
    /// v0 client could have sent encodes to a line a v0 client could
    /// parse.
    pub fn encode(&self) -> String {
        self.write_fields(&mut Line::new("search")).done()
    }

    fn write_fields<'l>(&self, line: &'l mut Line) -> &'l mut Line {
        let o = &self.opts;
        line.field("id", self.id).field("task", self.task.label());
        match o.method {
            Method::NasThenHw { lambda_macs } => line
                .field("method", "nas")
                .field("lambda_macs", lambda_macs),
            Method::AutoNba => line.field("method", "autonba"),
            Method::Dance => line.field("method", "dance"),
            Method::Hdx { delta0, p } => line
                .field("method", "hdx")
                .field("delta0", delta0)
                .field("p", p),
        };
        for c in &o.constraints {
            line.field(metric_key(c.metric), c.target);
        }
        line.field("lambda_cost", o.lambda_cost);
        if let Some(l) = o.lambda_soft {
            line.field("lambda_soft", l);
        }
        if !self.lambda_grid.is_empty() {
            let grid: Vec<String> = self.lambda_grid.iter().map(f64::to_string).collect();
            line.field("lambda_grid", grid.join(","));
        }
        line.field("epochs", o.epochs)
            .field("steps", o.steps_per_epoch)
            .field("batch", o.batch)
            .field("final_train", o.final_train_steps)
            .field("seed", o.seed)
            .field("num_paths", o.supernet.num_paths)
            .field("max_searches", self.max_searches);
        if let Some(seed) = self.bundle_seed {
            line.field("bundle_seed", seed);
        }
        if let Some(ckpt) = &o.checkpoint {
            line.field("ckpt", ckpt.path.display())
                .field("ckpt_every", ckpt.every_epochs);
        }
        line
    }
}

fn metric_key(metric: Metric) -> &'static str {
    match metric {
        Metric::Latency => "latency",
        Metric::Energy => "energy",
        Metric::Area => "area",
    }
}

/// Parses one v0 input line into the [`v1::RequestBody`] it is served
/// as (the PR-4 grammar — `search`/`stats`/`ping`; v1-only fields and
/// verbs are rejected so the shim's accepted language stays exactly
/// PR-4's). A v0 `search` is a [`v1::RequestBody::Job`] like any
/// batched v1 line: a grid or meta-search carried on a v0 line keeps
/// its `lambda_grid` / `max_searches` and counts under the verb they
/// imply.
///
/// # Errors
///
/// A typed [`ProtoError`] naming the offending token and its byte
/// offset; unknown keys are rejected (a typo must not silently fall
/// back to a default), and so is trailing input after `stats`/`ping`.
pub fn parse_request(line: &str) -> Result<v1::RequestBody, ProtoError> {
    let mut parts = tokens(line);
    let Some((verb_off, verb)) = parts.next() else {
        return Err(ProtoError::new(0, ErrorKind::EmptyLine));
    };
    let control = match verb {
        "search" => {
            return search_fields(parts, false).map(|req| v1::RequestBody::Job(Box::new(req)))
        }
        "stats" => v1::RequestBody::Stats,
        "ping" => v1::RequestBody::Ping,
        other => return Err(unknown_verb(other, verb_off)),
    };
    // The PR-4 parser silently ignored trailing garbage on
    // `stats`/`ping`; a mistyped pipeline must not be mistaken for a
    // control request.
    match parts.next() {
        None => Ok(control),
        Some((offset, token)) => {
            let token = token.to_owned();
            Err(ProtoError::new(
                0,
                ErrorKind::TrailingInput { token, offset },
            ))
        }
    }
}

/// Rows in `task`'s training split: the largest mini-batch a search on
/// it may draw. The split size does not depend on the dataset seed.
/// Read once per task: `Task::spec` allocates, and every decoded
/// search line asks.
fn train_rows(task: Task) -> usize {
    static ROWS: OnceLock<Vec<usize>> = OnceLock::new();
    ROWS.get_or_init(|| Task::ALL.iter().map(|t| t.spec(0).train).collect())[task.index()]
}

/// The search-type field schema, shared by the v0 and v1 grammars
/// (`v1` admits the fields PR-4 did not have). Method parameters
/// arrive as independent pairs; the [`Method`] is assembled after.
fn search_fields<'a>(
    parts: impl Iterator<Item = (usize, &'a str)>,
    v1: bool,
) -> Result<SearchRequest, ProtoError> {
    let mut req = SearchRequest::default();
    let paper = DeltaPolicy::paper();
    let (mut method, mut delta0, mut p, mut lambda_macs) = ("hdx", paper.delta(), paper.p(), 0.05);
    let (mut ckpt, mut every_epochs) = (None, None);
    let id = read_fields(parts, |f| {
        let o = &mut req.opts;
        match f.key {
            "task" => req.task = f.task()?,
            "method" => method = f.one_of(&["hdx", "dance", "autonba", "nas"])?,
            "delta0" => delta0 = f.f32()?,
            "p" => p = f.f32()?,
            "lambda_macs" => lambda_macs = f.f64()?,
            "fps" | "latency" | "energy" | "area" => {
                let target = f.parse_if(|v: &f64| *v > 0.0 && v.is_finite())?;
                o.constraints.push(match f.key {
                    "fps" => Constraint::fps(target),
                    "latency" => Constraint::new(Metric::Latency, target),
                    "energy" => Constraint::new(Metric::Energy, target),
                    _ => Constraint::new(Metric::Area, target),
                });
            }
            "lambda_cost" => o.lambda_cost = f.f64()?,
            "lambda_soft" => o.lambda_soft = Some(f.f64()?),
            "lambda_grid" => {
                // An entry's error names the entry, at the value offset.
                req.lambda_grid = f
                    .value
                    .split(',')
                    .map(|value| Field { value, ..*f }.f64())
                    .collect::<Result<_, _>>()?;
            }
            "epochs" => o.epochs = f.positive()?,
            "steps" => o.steps_per_epoch = f.positive()?,
            "batch" => o.batch = f.positive()?,
            "final_train" => o.final_train_steps = f.parse()?,
            "seed" => o.seed = f.u64()?,
            "num_paths" => o.supernet.num_paths = f.parse_if(|n| (1..=OP_SET.len()).contains(n))?,
            "max_searches" => req.max_searches = f.positive()?,
            "bundle_seed" if v1 => req.bundle_seed = Some(f.u64()?),
            "ckpt" if v1 => ckpt = Some(f.nonempty()?),
            "ckpt_every" if v1 => every_epochs = Some(f.positive()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    req.id = id;
    req.opts.method = match method {
        "hdx" => Method::Hdx { delta0, p },
        "dance" => Method::Dance,
        "autonba" => Method::AutoNba,
        _ => Method::NasThenHw { lambda_macs },
    };
    let invalid = |message| Err(ProtoError::new(id, ErrorKind::Invalid { message }));
    // A snapshot interval without a snapshot path has no effect.
    if ckpt.is_none() && every_epochs.is_some() {
        return invalid("ckpt_every requires ckpt (the snapshot path)".to_owned());
    }
    req.opts.checkpoint = ckpt.map(|path| CheckpointSpec {
        path: PathBuf::from(path),
        every_epochs: every_epochs.unwrap_or(1),
        note: None,
    });
    if req.max_searches > 1 && req.opts.constraints.is_empty() {
        return invalid("max_searches > 1 requires at least one constraint".to_owned());
    }
    // Sampling a batch allocates `batch` rows: a bigger batch than the
    // split only buys the client a huge allocation.
    let (batch, rows) = (req.opts.batch, train_rows(req.task));
    if batch > rows {
        let task = req.task.label();
        return invalid(format!(
            "batch={batch} exceeds the {rows}-row training split of task {task}"
        ));
    }
    Ok(req)
}

/// A search outcome as carried by one `report` line. Everything in it
/// is a deterministic function of the request, its dispatch position,
/// and the warm artifacts — wall-clock timing is deliberately absent
/// (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchReport {
    /// Echo of the request id.
    pub id: u64,
    /// λ-grid expansion index, if any.
    pub sub: Option<usize>,
    /// Method label (`HDX`, `DANCE`, …).
    pub method: &'static str,
    /// Task label.
    pub task: &'static str,
    /// Echo of the seed.
    pub seed: u64,
    /// λ_Cost the job ran with.
    pub lambda_cost: f64,
    /// Searches performed (1, or the meta-search count).
    pub searches: usize,
    /// Whether the accepted result satisfies the constraints.
    pub satisfied: bool,
    /// Per-layer op choices.
    pub arch: Vec<usize>,
    /// PE array rows × cols.
    pub pe: (usize, usize),
    /// Register-file bytes.
    pub rf: usize,
    /// Dataflow label.
    pub dataflow: &'static str,
    /// Ground-truth metrics.
    pub latency_ms: f64,
    /// Ground-truth energy.
    pub energy_mj: f64,
    /// Ground-truth area.
    pub area_mm2: f64,
    /// `Cost_HW` of the solution.
    pub cost_hw: f64,
    /// Retrained test error.
    pub error: f64,
    /// Global loss at the solution.
    pub global_loss: f64,
    /// Whether all hard constraints hold (ground truth).
    pub in_constraint: bool,
    /// Dispatch index of this job within its batch (v1 framing only —
    /// v0 report bytes are frozen).
    pub queue_pos: u64,
    /// Total jobs in the batch this job was dispatched with.
    pub queued_jobs: u64,
    /// Jobs still queued behind this one at dispatch
    /// (`queued_jobs − queue_pos − 1`).
    pub queue_len_at_dispatch: u64,
    /// The job's deterministic optimizer-step budget, scaled by the
    /// searches actually performed (see [`SearchRequest::step_budget`]).
    /// Deterministic — wall clock stays excluded.
    pub steps_used: u64,
}

impl SearchReport {
    /// Builds a report from a request and its search result. Queue
    /// fields start at the single-job values; the scheduler overrides
    /// them via [`SearchReport::with_queue`].
    pub fn from_result(
        req: &SearchRequest,
        result: &SearchResult,
        searches: usize,
        satisfied: bool,
    ) -> SearchReport {
        SearchReport {
            id: req.id,
            sub: req.sub,
            method: req.opts.method.label(),
            task: req.task.label(),
            seed: req.opts.seed,
            lambda_cost: req.opts.lambda_cost,
            searches,
            satisfied,
            arch: result.architecture.choices().to_vec(),
            pe: (result.accel.pe_rows(), result.accel.pe_cols()),
            rf: result.accel.rf_bytes(),
            dataflow: result.accel.dataflow().label(),
            latency_ms: result.metrics.latency_ms,
            energy_mj: result.metrics.energy_mj,
            area_mm2: result.metrics.area_mm2,
            cost_hw: result.cost_hw,
            error: result.error,
            global_loss: result.global_loss,
            in_constraint: result.in_constraint,
            queue_pos: 0,
            queued_jobs: 1,
            queue_len_at_dispatch: 0,
            steps_used: req.steps_for(searches),
        }
    }

    /// Stamps the deterministic dispatch-position fields: this job was
    /// job `pos` of `total` in its batch.
    pub fn with_queue(mut self, pos: u64, total: u64) -> SearchReport {
        self.queue_pos = pos;
        self.queued_jobs = total;
        self.queue_len_at_dispatch = total.saturating_sub(pos + 1);
        self
    }

    /// The deterministic v0 `report …` line (fixed field order,
    /// shortest round-trip float formatting) — byte-identical to PR-4's
    /// encoding, so v0 clients see no change.
    // hdx-frozen: begin(v0-shim)
    pub fn encode(&self) -> String {
        let id = match self.sub {
            Some(k) => format!("{}#{k}", self.id),
            None => self.id.to_string(),
        };
        let arch: Vec<String> = self.arch.iter().map(usize::to_string).collect();
        format!(
            "report id={id} method={} task={} seed={} lambda_cost={} searches={} satisfied={} \
             arch={} pe={}x{} rf={} dataflow={} latency_ms={} energy_mj={} area_mm2={} \
             cost_hw={} error={} global_loss={} in_constraint={}",
            self.method,
            self.task,
            self.seed,
            self.lambda_cost,
            self.searches,
            self.satisfied,
            arch.join(","),
            self.pe.0,
            self.pe.1,
            self.rf,
            self.dataflow,
            self.latency_ms,
            self.energy_mj,
            self.area_mm2,
            self.cost_hw,
            self.error,
            self.global_loss,
            self.in_constraint
        )
    }
    // hdx-frozen: end(v0-shim)

    /// The v1 `report …` line: the version token, every v0 field in the
    /// same order, then the dispatch/step fields v0 never carried.
    pub fn encode_v1(&self) -> String {
        Line::new(&format!("{} {}", v1::VERSION_TOKEN, self.encode()))
            .field("queue_pos", self.queue_pos)
            .field("queued_jobs", self.queued_jobs)
            .field("queue_len_at_dispatch", self.queue_len_at_dispatch)
            .field("steps_used", self.steps_used)
            .done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let reqs = [
            SearchRequest::default(),
            SearchRequest {
                id: 7,
                task: Task::ImageNet,
                lambda_grid: vec![0.001, 0.01],
                max_searches: 5,
                opts: SearchOptions {
                    method: Method::NasThenHw { lambda_macs: 0.25 },
                    constraints: vec![Constraint::fps(30.0), Constraint::new(Metric::Area, 2.5)],
                    lambda_soft: Some(4.0),
                    epochs: 3,
                    steps_per_epoch: 4,
                    batch: 16,
                    final_train_steps: 50,
                    seed: 9,
                    supernet: hdx_nas::SupernetConfig {
                        num_paths: 6,
                        ..Default::default()
                    },
                    ..SearchOptions::default()
                },
                ..SearchRequest::default()
            },
            SearchRequest {
                opts: SearchOptions {
                    method: Method::Hdx {
                        delta0: 2e-3,
                        p: 5e-2,
                    },
                    constraints: vec![Constraint::new(Metric::Energy, 11.0)],
                    ..SearchOptions::default()
                },
                ..SearchRequest::default()
            },
        ];
        for req in reqs {
            let line = req.encode();
            match parse_request(&line).expect("round-trip") {
                v1::RequestBody::Job(back) => assert_eq!(*back, req, "line: {line}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn control_verbs_parse() {
        assert_eq!(parse_request("stats"), Ok(v1::RequestBody::Stats));
        assert_eq!(parse_request(" ping "), Ok(v1::RequestBody::Ping));
    }

    #[test]
    fn bad_lines_are_typed_errors() {
        for line in [
            "",
            "launch id=1",
            "search id=x",
            "search frobnicate=1",
            "search method=magic",
            "search epochs=0",
            "search num_paths=7",
            "search fps=-3",
            "search lambda_grid=",
            "search id",
            "search max_searches=4", // meta-search without a constraint
            "search lambda_cost=NaN",
            "search lambda_soft=inf",
            "search lambda_grid=0.001,NaN",
            "search delta0=-inf",
            // v1-only fields must not leak into the v0 grammar.
            "search ckpt=/tmp/x.ckpt",
            "search ckpt_every=2",
            "search bundle_seed=1",
            // Trailing garbage after no-field verbs (the PR-4 parser
            // silently accepted these).
            "stats now",
            "ping ping",
            "stats stats",
        ] {
            assert!(parse_request(line).is_err(), "line \"{line}\" must fail");
        }
    }

    #[test]
    fn errors_carry_kind_and_offset() {
        let err = parse_request("search id=1 frobnicate=1").expect_err("unknown field");
        assert_eq!(err.id, 1);
        assert_eq!(
            err.kind,
            ErrorKind::UnknownField {
                key: "frobnicate".to_owned(),
                offset: 12
            }
        );

        let err = parse_request("search id=2 epochs=0").expect_err("bad value");
        assert_eq!(
            err.kind,
            ErrorKind::InvalidValue {
                key: "epochs".to_owned(),
                value: "0".to_owned(),
                offset: 19
            }
        );

        let err = parse_request("stats now").expect_err("trailing");
        assert_eq!(
            err.kind,
            ErrorKind::TrailingInput {
                token: "now".to_owned(),
                offset: 6
            }
        );
    }

    #[test]
    fn error_lines_stay_single_line() {
        let err = ProtoError::new(
            3,
            ErrorKind::InvalidValue {
                key: "id".to_owned(),
                value: "x y".to_owned(),
                offset: 10,
            },
        );
        let line = err.encode();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("error id=3 msg="));
        assert_eq!(line.split_whitespace().count(), 3);
        let line = err.encode_v1();
        assert!(line.starts_with("hdx1 error id=3 code=invalid_value offset=10 msg="));
        assert_eq!(line.split_whitespace().count(), 6);
    }

    #[test]
    fn grid_expansion_is_ordered() {
        let req = SearchRequest {
            id: 4,
            lambda_grid: vec![0.1, 0.2, 0.3],
            ..SearchRequest::default()
        };
        let jobs = req.expand();
        assert_eq!(jobs.len(), 3);
        for (k, job) in jobs.iter().enumerate() {
            assert_eq!(job.sub, Some(k));
            assert_eq!(job.opts.lambda_cost, req.lambda_grid[k]);
            assert!(job.lambda_grid.is_empty());
            assert_eq!(job.opts.seed, req.opts.seed);
        }
        assert_eq!(SearchRequest::default().expand().len(), 1);
    }

    /// Default options with an `epochs × steps + final_train` schedule.
    fn schedule(epochs: usize, steps_per_epoch: usize, final_train_steps: usize) -> SearchOptions {
        SearchOptions {
            epochs,
            steps_per_epoch,
            final_train_steps,
            ..SearchOptions::default()
        }
    }

    #[test]
    fn step_budget_is_request_derived() {
        let req = SearchRequest {
            max_searches: 1,
            opts: schedule(3, 5, 40),
            ..SearchRequest::default()
        };
        assert_eq!(req.step_budget(), 3 * 5 + 40);
        let mut meta = SearchRequest {
            max_searches: 4,
            ..req
        };
        meta.opts.constraints = vec![Constraint::fps(30.0)];
        assert_eq!(meta.step_budget(), 4 * (3 * 5 + 40));
    }

    /// The search request a v0 or v1 line decodes to.
    fn search_of(line: &str) -> SearchRequest {
        let env = v1::decode_line(v1::sniff(line), line);
        match env.unwrap_or_else(|e| panic!("line \"{line}\": {e}")).body {
            v1::RequestBody::Job(req) => *req,
            other => panic!("line \"{line}\" is not a search: {other:?}"),
        }
    }

    /// Same-bytes pin for what a request line resolves to: every search
    /// field at a non-default value, each method, each batched verb and
    /// a checkpointed job. For each line and each job it expands to,
    /// the digest covers the resolved [`SearchOptions`] (`Debug`), the
    /// re-encoded line and the step budget. Nothing runs.
    #[test]
    fn options_pin_covers_every_search_field_method_and_verb() {
        let lines = [
            "search",
            "search id=11 task=imagenet method=nas lambda_macs=0.25 fps=25 area=2.5 \
             lambda_cost=0.01 lambda_soft=4 epochs=3 steps=4 batch=16 final_train=50 seed=9 \
             num_paths=6",
            "search id=12 method=dance fps=30 lambda_grid=0.5,1 max_searches=3 epochs=2",
            "hdx1 search id=13 task=spheres method=hdx delta0=0.002 p=0.05 latency=40 energy=11 \
             lambda_cost=0.02 epochs=5 steps=6 batch=64 final_train=0 seed=3 num_paths=2 \
             bundle_seed=4 ckpt=/fixed/path ckpt_every=3",
            "hdx1 grid id=14 task=highdim method=dance lambda_grid=0.001,0.01,0.1 epochs=2 \
             steps=2 batch=8 final_train=10 seed=5",
            "hdx1 meta id=15 task=manyclass method=autonba fps=30 max_searches=4 epochs=2 \
             steps=3 batch=24 final_train=20 seed=6 num_paths=3",
            "hdx1 resume id=16 task=edge method=nas ckpt=/fixed/path ckpt_every=3 epochs=4 \
             seed=7 lambda_soft=0.5",
        ];
        let mut text = String::new();
        for line in lines {
            let req = search_of(line);
            for job in std::iter::once(req.clone()).chain(req.expand()) {
                let opts = job.options();
                let (encoded, budget) = (job.encode(), job.step_budget());
                text.push_str(&format!("{opts:?}\n{encoded}\n{budget}\n"));
            }
        }
        let digest = hdx_tensor::ckpt::fnv1a(text.as_bytes());
        assert_eq!(
            digest, 0xb9e9_94be_b539_65ca,
            "options digest moved: {digest:#018x}\n{text}"
        );
    }

    #[test]
    fn queue_fields_are_v1_only() {
        let req = SearchRequest {
            id: 5,
            opts: schedule(2, 3, 10),
            ..SearchRequest::default()
        };
        let result_free_report = SearchReport {
            id: 5,
            sub: None,
            method: "HDX",
            task: "cifar",
            seed: 0,
            lambda_cost: 0.003,
            searches: 1,
            satisfied: true,
            arch: vec![0, 1],
            pe: (8, 8),
            rf: 64,
            dataflow: "ws",
            latency_ms: 1.0,
            energy_mj: 2.0,
            area_mm2: 3.0,
            cost_hw: 4.0,
            error: 0.1,
            global_loss: 0.2,
            in_constraint: true,
            queue_pos: 0,
            queued_jobs: 1,
            queue_len_at_dispatch: 0,
            steps_used: req.step_budget(),
        };
        let stamped = result_free_report.clone().with_queue(1, 4);
        assert_eq!(stamped.queue_len_at_dispatch, 2);
        // v0 bytes are independent of the dispatch position…
        assert_eq!(stamped.encode(), result_free_report.encode());
        assert!(!stamped.encode().contains("queue_pos"));
        // …and the v1 line is the v0 line plus the new tail.
        let v1_line = stamped.encode_v1();
        assert!(v1_line.starts_with(&format!("hdx1 {}", stamped.encode())));
        assert!(
            v1_line.ends_with("queue_pos=1 queued_jobs=4 queue_len_at_dispatch=2 steps_used=16")
        );
    }
}
