//! Knob-driven initialization of the `hdx-obs` trace sink.
//!
//! `hdx-obs` itself never touches the environment (the knob registry
//! owns the workspace's one `std::env` call site), so the two obs
//! knobs are declared in [`crate::knobs::REGISTRY`] and read *here*,
//! then handed to [`hdx_obs::init_file`]:
//!
//! * `HDX_TRACE=<path>` — enable the wall-clock span sink at `path`.
//! * `HDX_OBS_BUF=<n>` — per-thread span ring capacity (default 4096,
//!   strictly positive).
//!
//! The deterministic counter registry needs no initialization; only
//! the wall-clock JSONL channel is gated here. Entry points (serve,
//! workload, bench) call [`init_trace_from_env`] once at startup;
//! `hdx-serve serve --trace <path>` routes through [`init_trace_to`]
//! to override the path from the CLI.

use crate::knobs;

/// Re-exported so a crate that depends only on `hdx-tensor` (the
/// synthetic-task generator in `hdx-nas`) can open a span without a
/// dependency edge of its own on `hdx-obs`.
pub use hdx_obs::span;

/// Strictly parses `HDX_OBS_BUF` (default 4096).
///
/// # Panics
///
/// Panics with the registry's uniform error style when the knob is set
/// but not a positive integer.
pub fn obs_buf_cap() -> usize {
    knobs::parse_positive(
        "HDX_OBS_BUF",
        "event count",
        "unset it for 4096",
        knobs::raw("HDX_OBS_BUF").as_deref(),
    )
    .unwrap_or_else(|msg| panic!("{msg}"))
    .unwrap_or(hdx_obs::DEFAULT_BUF_CAP)
}

/// Enables the obs trace sink at `path`, with the ring capacity from
/// `HDX_OBS_BUF`.
///
/// # Panics
///
/// Panics when the sink file cannot be created (an explicitly
/// requested trace that silently goes nowhere would be worse) or when
/// `HDX_OBS_BUF` is malformed.
pub fn init_trace_to(path: &str) {
    hdx_obs::init_file(path, obs_buf_cap())
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
    fn buf_cap_defaults_when_unset() {
        if std::env::var_os("HDX_OBS_BUF").is_none() {
            assert_eq!(obs_buf_cap(), hdx_obs::DEFAULT_BUF_CAP);
        }
    }

    #[test]
    fn env_init_is_a_no_op_when_trace_unset() {
        if std::env::var_os("HDX_TRACE").is_none() {
            assert_eq!(init_trace_from_env(), None);
        }
    }
}
