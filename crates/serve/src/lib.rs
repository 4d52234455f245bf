//! `hdx-serve` — a persistent, multi-tenant co-design search service.
//!
//! The other crates make one search fast; this crate makes *many*
//! searches cheap, for many tasks, from one process. The lifecycle
//! splits into:
//!
//! * **train once** — `hdx-serve train-and-save` pre-trains the
//!   estimator (optionally continuing from an existing bundle via
//!   `--init-bundle`) and writes it to a single versioned checkpoint
//!   bundle ([`artifact`], on `hdx_tensor::ckpt`). Training writes an
//!   estimator and never builds a dataset: a bundle's dataset is
//!   regenerated from `(task, seed)` when it is loaded. Cost tables are
//!   not bundled either: [`hdx_accel::LayerLut`] rows are built once per
//!   layer in the serving process;
//! * **serve many** — `hdx-serve serve` / `oneshot` load any number of
//!   `(task, seed)` bundles into one [`Router`] and answer requests
//!   over a versioned line protocol ([`proto`]): the typed v1 envelope
//!   ([`proto::v1`]) with runtime `load_bundle`/`unload_bundle`,
//!   per-task routing, resumable searches, and a v0 shim that answers
//!   PR-4 clients byte-identically. A job — search, λ-grid,
//!   meta-search or resume — is one body whose verb follows from its
//!   options ([`SearchRequest::verb_index`]), and the encoder, the
//!   engine branch, the per-verb counters and the `stats` rows all
//!   read that one rule.
//!
//! Three contracts make this safe at scale, pinned by
//! `tests/serve_router.rs`:
//!
//! * **warm-start bit-identity** — a search served from a loaded
//!   bundle produces byte-identical report lines to one served from
//!   the in-process artifacts;
//! * **scheduler determinism** — the response byte stream is invariant
//!   to the worker count, even when one batch spans bundles (each job
//!   is a pure function of its request; the shared caches only trade
//!   compute for reuse);
//! * **resume bit-identity** — a search interrupted at any epoch
//!   boundary and continued via the v1 `resume` verb reports byte-
//!   identically to the uninterrupted run.
//!
//! Hostile clients are bounded by [`RouterConfig`]: a per-connection
//! request quota and a per-job *deterministic* step deadline (never
//! wall clock — reports must stay byte-reproducible). Long-lived
//! deployments bound memory with `HDX_BANK_CAP` (the session bank's
//! LRU cap); the `stats` verb surfaces the bank's counters plus
//! per-bundle serving counters.

pub mod artifact;
pub mod cli;
pub mod proto;
pub mod router;
pub(crate) mod service;

pub use artifact::{
    load_bundle, load_bundle_bytes, save_bundle, task_code, task_from_code, train_artifacts,
    train_artifacts_from, Artifacts,
};
pub use proto::{parse_request, v1, ErrorKind, ProtoError, SearchReport, SearchRequest};
pub use router::{Router, RouterConfig};
