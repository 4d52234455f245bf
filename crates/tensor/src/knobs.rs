//! Central registry of environment knobs — the workspace's one
//! sanctioned `std::env` reader.
//!
//! Every `HDX_*` environment variable the workspace reads is declared
//! in [`REGISTRY`], and every read goes through [`raw`] (directly or
//! via the typed helpers below), which asserts the name is registered.
//! hdx-lint closes the loop from the other side: it flags any
//! `std::env::var` call outside this module (rule `env_read`) and any
//! `HDX_*` string literal not declared here (rule `knob_unregistered`),
//! plus any registry entry no walked source reads (`knob_unused`), so
//! the table below cannot drift from the code in either direction.
//!
//! Call sites must pass the knob name as a string literal (e.g.
//! `knobs::raw("HDX_JOBS")`) — that literal is exactly what the lint's
//! cross-check counts.
//!
//! All parsing here is *strict*: a set-but-malformed knob panics with a
//! message naming the variable, the offending value, and the remedy. A
//! mistyped knob must never silently masquerade as a default.

/// One declared environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// Environment variable name (`HDX_*`).
    pub name: &'static str,
    /// The module (or harness) that owns the read.
    pub owner: &'static str,
    /// Human-readable default.
    pub default: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every environment knob the workspace reads, in one table.
pub const REGISTRY: &[Knob] = &[
    Knob {
        name: "HDX_JOBS",
        owner: "tensor::par",
        default: "auto (host parallelism)",
        summary: "worker-pool size for parallel kernel dispatch",
    },
    Knob {
        name: "HDX_BANK_CAP",
        owner: "tensor::bank",
        default: "unbounded",
        summary: "global session-bank capacity (compiled programs)",
    },
    Knob {
        name: "HDX_EST_PAIRS",
        owner: "bench",
        default: "5000",
        summary: "estimator pre-training pairs in the experiment harnesses",
    },
    Knob {
        name: "HDX_REPS",
        owner: "bench",
        default: "3",
        summary: "repetitions per method in the Table 1 harness",
    },
    Knob {
        name: "HDX_EPOCHS",
        owner: "bench",
        default: "25",
        summary: "search epochs per run in the experiment harnesses",
    },
    Knob {
        name: "HDX_FINAL_STEPS",
        owner: "bench",
        default: "2000",
        summary: "final-network retraining steps",
    },
    Knob {
        name: "HDX_BENCH_SECS",
        owner: "bench (micro)",
        default: "2.0",
        summary: "seconds of measurement per micro-bench op",
    },
    Knob {
        name: "HDX_BENCH_JSON",
        owner: "bench (micro)",
        default: "BENCH_micro.json at the repo root",
        summary: "output path for the micro-bench JSON report",
    },
    Knob {
        name: "HDX_TRACE",
        owner: "tensor::obs (init) / hdx-serve --trace",
        default: "unset (trace sink off)",
        summary: "path of the hdx-obs wall-clock span JSONL sink",
    },
    Knob {
        name: "HDX_CATALOG_KEEP",
        owner: "catalog::gc",
        default: "unbounded",
        summary: "retention GC: generations kept per (task, seed) in the artifact catalog",
    },
];

/// Looks up a declared knob.
pub fn lookup(name: &str) -> Option<&'static Knob> {
    REGISTRY.iter().find(|k| k.name == name)
}

/// Reads a registered knob's raw value (`None` when unset).
///
/// This is the workspace's only `std::env::var` call site; hdx-lint
/// rejects any other.
///
/// # Panics
///
/// Panics when `name` is not declared in [`REGISTRY`] — an
/// unregistered read is a programming error, and the lint's
/// `knob_unregistered` rule flags the same mistake statically.
pub fn raw(name: &str) -> Option<String> {
    assert!(
        lookup(name).is_some(),
        "env knob \"{name}\" is not declared in hdx_tensor::knobs::REGISTRY"
    );
    std::env::var(name).ok()
}

/// Strictly parses an optional knob value as a positive integer:
/// `None` when unset, `Some(n)` for a positive integer, and an error
/// message for anything else (including `0`, so a broken shell
/// expansion can't silently select a degenerate configuration).
///
/// `noun` names what the integer counts ("worker count", "MAC count",
/// …) and `hint` tells the operator what unsetting the variable does
/// ("unset it for auto", …); both feed the uniform error style:
/// `{name} must be a positive {noun}, got "{raw}" ({hint})`.
///
/// # Errors
///
/// The formatted message above for `0` or an unparsable value.
pub fn parse_positive(
    name: &str,
    noun: &str,
    hint: &str,
    value: Option<&str>,
) -> Result<Option<usize>, String> {
    let Some(raw) = value else { return Ok(None) };
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        Ok(_) => Err(format!(
            "{name} must be a positive {noun}, got \"{raw}\" ({hint})"
        )),
        Err(_) => Err(format!(
            "{name} must be a positive integer, got \"{raw}\" ({hint})"
        )),
    }
}

/// Reads a registered knob as a non-negative integer, defaulting when
/// unset.
///
/// # Panics
///
/// Panics when the knob is set but not a `usize`, or unregistered.
pub fn usize_or(name: &str, default: usize) -> usize {
    match raw(name) {
        None => default,
        Some(v) => v.trim().parse::<usize>().unwrap_or_else(|_| {
            panic!("{name} must be a non-negative integer, got \"{v}\" (unset it for {default})")
        }),
    }
}

/// Reads a registered knob as a positive finite float, defaulting when
/// unset.
///
/// # Panics
///
/// Panics when the knob is set but not a positive finite number, or
/// unregistered.
pub fn f64_or(name: &str, default: f64) -> f64 {
    match raw(name) {
        None => default,
        Some(v) => match v.trim().parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 => x,
            _ => panic!("{name} must be a positive number, got \"{v}\" (unset it for {default})"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for knob in REGISTRY {
            assert!(knob.name.starts_with("HDX_"), "{}", knob.name);
            assert!(seen.insert(knob.name), "duplicate knob {}", knob.name);
            assert!(!knob.summary.is_empty());
        }
    }

    #[test]
    fn parse_positive_matches_the_uniform_error_style() {
        assert_eq!(
            parse_positive("K", "worker count", "unset it", None),
            Ok(None)
        );
        assert_eq!(
            parse_positive("K", "worker count", "unset it", Some(" 4 ")),
            Ok(Some(4))
        );
        assert_eq!(
            parse_positive("K", "worker count", "unset it", Some("0")),
            Err("K must be a positive worker count, got \"0\" (unset it)".to_owned())
        );
        assert_eq!(
            parse_positive("K", "worker count", "unset it", Some("x")),
            Err("K must be a positive integer, got \"x\" (unset it)".to_owned())
        );
    }

    #[test]
    fn unregistered_read_panics() {
        let err = std::panic::catch_unwind(|| raw("HDX_NOT_A_REAL_KNOB_321"));
        assert!(err.is_err());
    }

    #[test]
    fn lookup_finds_declared_knobs() {
        assert!(lookup("HDX_JOBS").is_some());
        assert!(lookup("HDX_NOPE").is_none());
    }
}
