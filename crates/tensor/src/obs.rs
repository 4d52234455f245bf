//! Knob-driven initialization of the `hdx-obs` trace sink.
//!
//! `hdx-obs` itself never touches the environment (the knob registry
//! owns the workspace's one `std::env` call site), so the obs knob
//! `HDX_TRACE=<path>` — enable the wall-clock span sink at `path` — is
//! declared in [`crate::knobs::REGISTRY`] and read *here*, then handed
//! to [`hdx_obs::init_file`] with the fixed per-thread ring capacity
//! [`hdx_obs::DEFAULT_BUF_CAP`].
//!
//! The deterministic counter registry needs no initialization; only
//! the wall-clock JSONL channel is gated here. `hdx-serve` calls
//! [`init_trace_from_env`] once at startup, and its `--trace <path>`
//! flag routes through [`init_trace_to`] to override the path from the
//! CLI.

use crate::knobs;

/// Re-exported so a crate that depends only on `hdx-tensor` (the
/// synthetic-task generator in `hdx-nas`) can open a span without a
/// dependency edge of its own on `hdx-obs`.
pub use hdx_obs::span;

/// Enables the obs trace sink at `path`.
///
/// # Panics
///
/// Panics when the sink file cannot be created (an explicitly
/// requested trace that silently goes nowhere would be worse).
pub fn init_trace_to(path: &str) {
    hdx_obs::init_file(path, hdx_obs::DEFAULT_BUF_CAP)
        .unwrap_or_else(|e| panic!("HDX_TRACE: cannot open trace sink \"{path}\": {e}"));
}

/// Reads `HDX_TRACE` and, when set, enables the trace sink there.
/// Returns the sink path when tracing was enabled.
///
/// # Panics
///
/// See [`init_trace_to`].
pub fn init_trace_from_env() -> Option<String> {
    let path = knobs::raw("HDX_TRACE")?;
    init_trace_to(&path);
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_init_is_a_no_op_when_trace_unset() {
        if std::env::var_os("HDX_TRACE").is_none() {
            assert_eq!(init_trace_from_env(), None);
        }
    }
}
