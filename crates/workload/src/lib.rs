//! Deterministic serving-workload harness.
//!
//! Three pieces, all pure functions of their seeds:
//!
//! * [`family`] — expands a `(Task, seed)` key into a ready-to-serve
//!   [`BundleSpec`] and a seeded request workload, covering the new
//!   synthetic dataset families (`spheres`/`highdim`/`manyclass`) and
//!   hardware-target variants (`edge`) beyond the paper's two tasks.
//! * [`trace`] — records request lines *plus the byte-exact responses
//!   a correct router must produce* into a versioned, checksummed
//!   container, then replays them over TCP at any connection count and
//!   interleaving, asserting byte identity.
//! * [`score`] — folds a trace into the pinned `BENCH_serve.json`
//!   score block (per-family objectives, per-verb latency in
//!   deterministic steps, throughput, queue depth), which is
//!   bit-identical across every replay configuration by construction.
//!
//! The `hdx-workload` binary wires the three into `gen-bundles`,
//! `record`, and `replay` subcommands; CI's `workload-smoke` job runs
//! that exact pipeline.

pub mod family;
pub mod score;
pub mod trace;

pub use family::{reference_requests, reference_specs, request_lines, BundleSpec};
pub use score::{
    fnv1a, trace_fnv, FamilyScore, ReplayEnv, ServeBench, ServeScore, VerbScore,
    SERVE_BENCH_VERSION,
};
pub use trace::{
    spawn_tcp_router, Interleave, Trace, TraceEntry, TraceError, SEAL_ID_BASE, TRACE_VERSION,
};
