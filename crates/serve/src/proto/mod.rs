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
//! the v0 codec. [`v1`] layers the envelope
//! (`request_id`/body enums), the verb table, and its canonical
//! encode/decode pair on top.
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

use hdx_core::{Constraint, Method, Metric, SearchOptions, SearchResult, Task};
use hdx_nas::{SupernetConfig, OP_SET};
use std::fmt::{Display, Write as _};
use std::path::PathBuf;
use std::str::FromStr;

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

/// One parsed v0 input line (the PR-4 grammar; [`v1`] has the full
/// envelope).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A (meta-)search job.
    Search(Box<SearchRequest>),
    /// Bank/service statistics.
    Stats,
    /// Liveness probe.
    Ping,
}

impl Request {
    /// The v1 body this v0 request is served as. A v0 `search` is a v1
    /// `search` whatever its options (a grid or meta-search carried on
    /// a v0 line keeps its `lambda_grid` / `max_searches`).
    pub fn into_body(self) -> v1::RequestBody {
        match self {
            Request::Search(req) => v1::RequestBody::Search(*req),
            Request::Stats => v1::RequestBody::Stats,
            Request::Ping => v1::RequestBody::Ping,
        }
    }
}

/// A single co-design search job (or a λ-grid / meta-search family of
/// jobs) as carried by one `search`/`grid`/`meta`/`resume` line.
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
    /// Search method.
    pub method: Method,
    /// Hard constraints (enforced by HDX, monitored by baselines).
    pub constraints: Vec<Constraint>,
    /// λ_Cost (Eq. 6).
    pub lambda_cost: f64,
    /// Optional soft-penalty weight.
    pub lambda_soft: Option<f64>,
    /// Optional λ_Cost grid: the service expands one request into one
    /// independent job per entry (Fig. 1-style sweeps as one line).
    pub lambda_grid: Vec<f64>,
    /// Search epochs.
    pub epochs: usize,
    /// Steps per epoch.
    pub steps: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Final retraining steps (0 reports the supernet error).
    pub final_train: usize,
    /// RNG seed (per-job determinism: the report is a pure function of
    /// the request).
    pub seed: u64,
    /// Supernet paths sampled per layer.
    pub num_paths: usize,
    /// Meta-search budget: `> 1` runs the §5.2 constrained meta-search
    /// on the first constraint instead of a single search.
    pub max_searches: usize,
    /// Mid-search snapshot path (v1 `ckpt=`): the engine writes a
    /// `hdx_core::SearchCheckpoint` here every
    /// [`SearchRequest::checkpoint_every`] epochs. For the `resume`
    /// verb this is also the snapshot to load.
    pub checkpoint: Option<String>,
    /// Epoch boundaries between snapshots (v1 `ckpt_every=`).
    pub checkpoint_every: usize,
    /// Whether this request resumes from [`SearchRequest::checkpoint`]
    /// (set by the v1 `resume` verb; a resumed search keeps
    /// snapshotting to the same path).
    pub resume_from_checkpoint: bool,
}

impl Default for SearchRequest {
    fn default() -> Self {
        let opts = SearchOptions::default();
        SearchRequest {
            id: 0,
            sub: None,
            task: Task::Cifar,
            bundle_seed: None,
            method: opts.method,
            constraints: Vec::new(),
            lambda_cost: opts.lambda_cost,
            lambda_soft: None,
            lambda_grid: Vec::new(),
            epochs: opts.epochs,
            steps: opts.steps_per_epoch,
            batch: opts.batch,
            final_train: opts.final_train_steps,
            seed: 0,
            num_paths: opts.supernet.num_paths,
            max_searches: 1,
            checkpoint: None,
            checkpoint_every: 1,
            resume_from_checkpoint: false,
        }
    }
}

impl SearchRequest {
    /// The [`SearchOptions`] this request resolves to. The inner search
    /// runs single-worker (`jobs = 1`): the service parallelizes
    /// *across* jobs, and results are worker-count invariant anyway.
    pub fn options(&self) -> SearchOptions {
        SearchOptions {
            method: self.method,
            lambda_cost: self.lambda_cost,
            lambda_soft: self.lambda_soft,
            constraints: self.constraints.clone(),
            epochs: self.epochs,
            steps_per_epoch: self.steps,
            batch: self.batch,
            final_train_steps: self.final_train,
            seed: self.seed,
            supernet: SupernetConfig {
                num_paths: self.num_paths,
                ..SupernetConfig::default()
            },
            jobs: 1,
            checkpoint: self
                .checkpoint
                .as_ref()
                .map(|path| hdx_core::CheckpointSpec {
                    path: PathBuf::from(path),
                    every_epochs: self.checkpoint_every,
                    note: Some(self.encode()),
                }),
            ..SearchOptions::default()
        }
    }

    /// The job's deterministic optimizer-step budget: what the per-job
    /// deadline is enforced against, and the basis of the report's
    /// `steps_used` field. A pure function of the request — never of
    /// elapsed work — so resumed reports stay bit-identical to
    /// uninterrupted ones.
    pub fn step_budget(&self) -> u64 {
        (self.max_searches as u64)
            * (self.epochs as u64 * self.steps as u64 + self.final_train as u64)
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
            .map(|(k, &lambda)| SearchRequest {
                sub: Some(k),
                lambda_cost: lambda,
                lambda_grid: Vec::new(),
                ..self.clone()
            })
            .collect()
    }

    /// The row in [`v1::VERBS`] of the batched verb this job's options
    /// imply. Resume beats meta beats grid — the precedence
    /// `TaskService` executes — so a v0 `search` line combining options
    /// counts under its strongest branch; a grid's expanded jobs
    /// (`sub` set) still count as grid.
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
        line.field("id", self.id).field("task", self.task.label());
        match self.method {
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
        for c in &self.constraints {
            line.field(metric_key(c.metric), c.target);
        }
        line.field("lambda_cost", self.lambda_cost);
        if let Some(l) = self.lambda_soft {
            line.field("lambda_soft", l);
        }
        if !self.lambda_grid.is_empty() {
            let grid: Vec<String> = self.lambda_grid.iter().map(f64::to_string).collect();
            line.field("lambda_grid", grid.join(","));
        }
        line.field("epochs", self.epochs)
            .field("steps", self.steps)
            .field("batch", self.batch)
            .field("final_train", self.final_train)
            .field("seed", self.seed)
            .field("num_paths", self.num_paths)
            .field("max_searches", self.max_searches);
        if let Some(seed) = self.bundle_seed {
            line.field("bundle_seed", seed);
        }
        if let Some(path) = &self.checkpoint {
            line.field("ckpt", path)
                .field("ckpt_every", self.checkpoint_every);
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

/// Parses one v0 input line into a [`Request`] (the PR-4 grammar —
/// `search`/`stats`/`ping`; v1-only fields and verbs are rejected so
/// the shim's accepted language stays exactly PR-4's).
///
/// # Errors
///
/// A typed [`ProtoError`] naming the offending token and its byte
/// offset; unknown keys are rejected (a typo must not silently fall
/// back to a default), and so is trailing input after `stats`/`ping`.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let mut parts = tokens(line);
    let Some((verb_off, verb)) = parts.next() else {
        return Err(ProtoError::new(0, ErrorKind::EmptyLine));
    };
    let control = match verb {
        "search" => return search_fields(parts, false).map(|req| Request::Search(Box::new(req))),
        "stats" => Request::Stats,
        "ping" => Request::Ping,
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

/// The search-type field schema, shared by the v0 and v1 grammars
/// (`v1` admits the fields PR-4 did not have). Method parameters
/// arrive as independent pairs; the [`Method`] is assembled after.
fn search_fields<'a>(
    parts: impl Iterator<Item = (usize, &'a str)>,
    v1: bool,
) -> Result<SearchRequest, ProtoError> {
    let mut req = SearchRequest::default();
    let (mut method, mut delta0, mut p, mut lambda_macs) = ("hdx", 1e-3, 1e-2, 0.05);
    let id = read_fields(parts, |f| {
        match f.key {
            "task" => req.task = f.task()?,
            "method" => method = f.one_of(&["hdx", "dance", "autonba", "nas"])?,
            "delta0" => delta0 = f.f32()?,
            "p" => p = f.f32()?,
            "lambda_macs" => lambda_macs = f.f64()?,
            "fps" | "latency" | "energy" | "area" => {
                let target = f.parse_if(|v: &f64| *v > 0.0 && v.is_finite())?;
                req.constraints.push(match f.key {
                    "fps" => Constraint::fps(target),
                    "latency" => Constraint::new(Metric::Latency, target),
                    "energy" => Constraint::new(Metric::Energy, target),
                    _ => Constraint::new(Metric::Area, target),
                });
            }
            "lambda_cost" => req.lambda_cost = f.f64()?,
            "lambda_soft" => req.lambda_soft = Some(f.f64()?),
            "lambda_grid" => {
                // An entry's error names the entry, at the value offset.
                req.lambda_grid = f
                    .value
                    .split(',')
                    .map(|value| Field { value, ..*f }.f64())
                    .collect::<Result<_, _>>()?;
            }
            "epochs" => req.epochs = f.positive()?,
            "steps" => req.steps = f.positive()?,
            "batch" => req.batch = f.positive()?,
            "final_train" => req.final_train = f.parse()?,
            "seed" => req.seed = f.u64()?,
            "num_paths" => req.num_paths = f.parse_if(|n| (1..=OP_SET.len()).contains(n))?,
            "max_searches" => req.max_searches = f.positive()?,
            "bundle_seed" if v1 => req.bundle_seed = Some(f.u64()?),
            "ckpt" if v1 => req.checkpoint = Some(f.nonempty()?),
            "ckpt_every" if v1 => req.checkpoint_every = f.positive()?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    req.id = id;
    req.method = match method {
        "hdx" => Method::Hdx { delta0, p },
        "dance" => Method::Dance,
        "autonba" => Method::AutoNba,
        _ => Method::NasThenHw { lambda_macs },
    };
    if req.max_searches > 1 && req.constraints.is_empty() {
        let message = "max_searches > 1 requires at least one constraint".to_owned();
        return Err(ProtoError::new(id, ErrorKind::Invalid { message }));
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
            method: req.method.label(),
            task: req.task.label(),
            seed: req.seed,
            lambda_cost: req.lambda_cost,
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
            steps_used: (searches as u64)
                * (req.epochs as u64 * req.steps as u64 + req.final_train as u64),
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
                method: Method::NasThenHw { lambda_macs: 0.25 },
                constraints: vec![Constraint::fps(30.0), Constraint::new(Metric::Area, 2.5)],
                lambda_soft: Some(4.0),
                lambda_grid: vec![0.001, 0.01],
                epochs: 3,
                steps: 4,
                batch: 16,
                final_train: 50,
                seed: 9,
                num_paths: 6,
                max_searches: 5,
                ..SearchRequest::default()
            },
            SearchRequest {
                method: Method::Hdx {
                    delta0: 2e-3,
                    p: 5e-2,
                },
                constraints: vec![Constraint::new(Metric::Energy, 11.0)],
                ..SearchRequest::default()
            },
        ];
        for req in reqs {
            let line = req.encode();
            match parse_request(&line).expect("round-trip") {
                Request::Search(back) => assert_eq!(*back, req, "line: {line}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn control_verbs_parse() {
        assert_eq!(parse_request("stats"), Ok(Request::Stats));
        assert_eq!(parse_request(" ping "), Ok(Request::Ping));
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
            assert_eq!(job.lambda_cost, req.lambda_grid[k]);
            assert!(job.lambda_grid.is_empty());
            assert_eq!(job.seed, req.seed);
        }
        assert_eq!(SearchRequest::default().expand().len(), 1);
    }

    #[test]
    fn step_budget_is_request_derived() {
        let req = SearchRequest {
            epochs: 3,
            steps: 5,
            final_train: 40,
            max_searches: 1,
            ..SearchRequest::default()
        };
        assert_eq!(req.step_budget(), 3 * 5 + 40);
        let meta = SearchRequest {
            max_searches: 4,
            constraints: vec![Constraint::fps(30.0)],
            ..req
        };
        assert_eq!(meta.step_budget(), 4 * (3 * 5 + 40));
    }

    #[test]
    fn queue_fields_are_v1_only() {
        let req = SearchRequest {
            id: 5,
            epochs: 2,
            steps: 3,
            final_train: 10,
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
