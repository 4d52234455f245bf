//! hdx-obs: the workspace's observability layer — a process-wide
//! registry of deterministic counters and gauges, plus the one
//! sanctioned wall-clock channel (span events drained to a versioned
//! JSONL trace sink).
//!
//! # The determinism split
//!
//! The project's load-bearing invariant is that every served byte is
//! bit-identical at any worker count, connection interleaving, or
//! cache state. Observability must not bend that, so the layer is
//! split in two:
//!
//! * **Registry** ([`Counter`], [`Gauge`], [`snapshot`]):
//!   *deterministic* magnitudes only — step counts, cache hits, MACs,
//!   batch sizes. Values from here may reach
//!   response bytes (the v1 `metrics` verb); wall-clock time must
//!   never be recorded here.
//! * **Trace sink** ([`span`], [`init_file`]): wall-clock span events,
//!   written as JSONL to an operator-chosen file (`HDX_TRACE`). Bytes
//!   from here never reach a response; the sink is the *only* place in
//!   the workspace where `std::time::Instant` is observable. hdx-lint
//!   rule HDX011 machine-checks that confinement: `Instant` /
//!   `SystemTime` tokens are denied everywhere outside `crates/obs`.
//!
//! Code that legitimately needs elapsed time for *reporting* (bench
//! harnesses, CLI progress lines) takes it from [`Stopwatch`], so the
//! raw clock type still never appears outside this crate.
//!
//! # Cost model
//!
//! Registry handles are `const`-constructible statics that lazily
//! intern one leaked `&'static AtomicU64` in the global table; the hot path after the first touch is one `OnceLock`
//! load plus one relaxed `fetch_add`. A disabled [`span`] is a single
//! relaxed atomic load returning an inert guard, which keeps the
//! obs-disabled overhead within the bench-enforced ≤1 % budget.
//!
//! # Event schema (v1)
//!
//! One JSON object per line. The first line is a `meta` record; every
//! subsequent line is a `span`:
//!
//! ```text
//! {"v":1,"kind":"meta","schema":"hdx-obs-trace","buf_cap":4096}
//! {"v":1,"kind":"span","tid":0,"name":"engine.epoch","start_us":810,"dur_us":1242}
//! ```
//!
//! `start_us` is microseconds since [`init_file`]; `tid` is a small
//! per-process thread ordinal (not an OS id). Span events buffer in a
//! bounded per-thread ring (capacity [`DEFAULT_BUF_CAP`], drained to the
//! sink when full, on [`flush`], and at thread exit). [`check_trace`]
//! validates the schema; `hdx-serve trace-check` wraps it on the CLI.
//!
//! # Counter naming
//!
//! Dot-separated lowercase paths, coarse-to-fine:
//! `<layer>.<thing>[.<variant>]` — e.g. `bank.hit`,
//! `kernel.dispatch.avx2`, `engine.steps.hdx`, `router.verb.search`.
//! [`snapshot`] returns every key sorted, so the `metrics` verb encoding is canonical by
//! construction.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// The per-thread ring-buffer capacity (events) of every trace sink the
/// workspace opens.
pub const DEFAULT_BUF_CAP: usize = 4096;

/// Schema identifier written into the trace's `meta` line.
pub const TRACE_SCHEMA: &str = "hdx-obs-trace";

/// Trace event schema version (the `"v"` field of every line).
pub const TRACE_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static BUF_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_BUF_CAP);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

fn origin() -> &'static Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now)
}

fn sink() -> &'static Mutex<Option<std::io::BufWriter<std::fs::File>>> {
    static SINK: OnceLock<Mutex<Option<std::io::BufWriter<std::fs::File>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether the trace sink is active. A `false` here makes [`span`]
/// nearly free (one relaxed atomic load); the registry counters are
/// always active — they are deterministic and feed the `metrics` verb.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens `path` as the JSONL trace sink, writes the `meta` line, and
/// enables span recording with per-thread ring capacity `buf_cap`.
///
/// Re-initialization replaces the sink file (events already drained to
/// the previous sink stay there). The time origin for `start_us` is
/// fixed by the first initialization.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn init_file(path: &str, buf_cap: usize) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    writeln!(
        writer,
        "{{\"v\":{TRACE_VERSION},\"kind\":\"meta\",\"schema\":\"{TRACE_SCHEMA}\",\"buf_cap\":{buf_cap}}}"
    )?;
    let _ = origin(); // fix the time origin no later than the first event
    BUF_CAP.store(buf_cap.max(1), Ordering::Relaxed);
    *lock(sink()) = Some(writer);
    ENABLED.store(true, Ordering::Relaxed);
    Ok(())
}

// ---------------------------------------------------------------------
// Span events & the per-thread ring buffer
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Event {
    name: &'static str,
    tid: u64,
    start_us: u64,
    dur_us: u64,
}

struct Ring {
    tid: u64,
    events: Vec<Event>,
}

impl Ring {
    fn push(&mut self, ev: Event) {
        self.events.push(ev);
        if self.events.len() >= BUF_CAP.load(Ordering::Relaxed) {
            drain(&mut self.events);
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        drain(&mut self.events);
    }
}

thread_local! {
    static RING: RefCell<Ring> = RefCell::new(Ring {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: Vec::new(),
    });
}

fn drain(events: &mut Vec<Event>) {
    if events.is_empty() {
        return;
    }
    let mut guard = lock(sink());
    if let Some(writer) = guard.as_mut() {
        for ev in events.iter() {
            debug_assert!(well_formed_name(ev.name), "bad span name {:?}", ev.name);
            let _ = writeln!(
                writer,
                "{{\"v\":{TRACE_VERSION},\"kind\":\"span\",\"tid\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
                ev.tid, ev.name, ev.start_us, ev.dur_us
            );
        }
    }
    events.clear();
}

/// Drains the calling thread's ring buffer and flushes the sink's
/// writer. Threads also drain automatically when their ring fills and
/// at thread exit.
pub fn flush() {
    RING.with(|r| drain(&mut r.borrow_mut().events));
    if let Some(writer) = lock(sink()).as_mut() {
        let _ = writer.flush();
    }
}

/// An in-flight span: records one wall-clock event into the trace sink
/// when dropped. Inert (no clock read at all) while the sink is
/// disabled.
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct SpanGuard {
    name: &'static str,
    started: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(started) = self.started else { return };
        let start_us = u64::try_from(started.saturating_duration_since(*origin()).as_micros())
            .unwrap_or(u64::MAX);
        let dur_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let ev = |tid| Event {
            name: self.name,
            tid,
            start_us,
            dur_us,
        };
        RING.with(|r| {
            let mut ring = r.borrow_mut();
            let tid = ring.tid;
            ring.push(ev(tid));
        });
    }
}

/// Starts a wall-clock span named `name` (dot-separated lowercase
/// path). The returned guard records the event when dropped; while the
/// sink is disabled this is one atomic load and no clock access.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        started: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

// ---------------------------------------------------------------------
// Stopwatch: elapsed time for reports, without exporting the clock type
// ---------------------------------------------------------------------

/// A monotonic stopwatch for harness-side reporting (bench loops, CLI
/// progress lines). This is the sanctioned way for code outside
/// `crates/obs` to measure elapsed time; the raw `Instant` type stays
/// confined here (hdx-lint HDX011).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts the stopwatch.
    #[must_use]
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

// ---------------------------------------------------------------------
// Deterministic registry: counters and gauges
// ---------------------------------------------------------------------

fn registry() -> &'static Mutex<BTreeMap<&'static str, &'static AtomicU64>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, &'static AtomicU64>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'_')
}

fn intern_cell(name: &'static str) -> &'static AtomicU64 {
    assert!(
        well_formed_name(name),
        "obs metric name {name:?} must be a dot-separated lowercase path"
    );
    let mut reg = lock(registry());
    reg.entry(name)
        .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))))
}

/// A monotonically increasing counter of a *deterministic* magnitude
/// (steps, hits, MACs — never time). `const`-constructible so call
/// sites declare `static C: Counter = Counter::new("layer.thing");`.
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Counter {
    /// Declares a counter handle (interned in the registry on first
    /// touch).
    #[must_use]
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The registry name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell
            .get_or_init(|| intern_cell(self.name))
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell
            .get_or_init(|| intern_cell(self.name))
            .load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge of a deterministic magnitude (e.g. current
/// bank occupancy).
pub struct Gauge {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Gauge {
    /// Declares a gauge handle.
    #[must_use]
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell
            .get_or_init(|| intern_cell(self.name))
            .store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell
            .get_or_init(|| intern_cell(self.name))
            .load(Ordering::Relaxed)
    }
}

/// Sorted snapshot of every registry value, counters and gauges under
/// their own name. This is exactly what the v1 `metrics` verb serves —
/// deterministic magnitudes only, canonical order.
#[must_use]
pub fn snapshot() -> Vec<(String, u64)> {
    lock(registry())
        .iter()
        .map(|(name, cell)| ((*name).to_owned(), cell.load(Ordering::Relaxed)))
        .collect()
}

// ---------------------------------------------------------------------
// Trace validation (used by `hdx-serve trace-check` and CI)
// ---------------------------------------------------------------------

/// Counts from a validated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// `meta` lines seen (exactly one, first).
    pub meta_lines: usize,
    /// `span` lines seen.
    pub span_lines: usize,
}

fn field_u64(line: &str, key: &str) -> Result<u64, String> {
    let pat = format!("\"{key}\":");
    let at = line
        .find(&pat)
        .ok_or_else(|| format!("missing field \"{key}\""))?;
    let rest = &line[at + pat.len()..];
    let digits: &str = rest
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap_or("");
    digits
        .parse::<u64>()
        .map_err(|_| format!("field \"{key}\" is not a u64"))
}

fn field_str<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":\"");
    let at = line
        .find(&pat)
        .ok_or_else(|| format!("missing field \"{key}\""))?;
    let rest = &line[at + pat.len()..];
    rest.split('"')
        .next()
        .ok_or_else(|| format!("unterminated field \"{key}\""))
}

/// Validates a whole JSONL trace against the v1 schema: a `meta` first
/// line, then `span` lines with well-formed names and numeric
/// `tid`/`start_us`/`dur_us`.
///
/// # Errors
///
/// A message naming the first offending line (1-based) and what is
/// wrong with it.
pub fn check_trace(text: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary {
        meta_lines: 0,
        span_lines: 0,
    };
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let fail = |msg: String| Err(format!("trace line {n}: {msg}"));
        if !(line.starts_with('{') && line.ends_with('}')) {
            return fail("not a JSON object".to_owned());
        }
        match field_u64(line, "v") {
            Ok(TRACE_VERSION) => {}
            Ok(v) => return fail(format!("unsupported schema version {v}")),
            Err(e) => return fail(e),
        }
        let kind = match field_str(line, "kind") {
            Ok(k) => k,
            Err(e) => return fail(e),
        };
        match kind {
            "meta" => {
                if n != 1 {
                    return fail("meta record not on line 1".to_owned());
                }
                match field_str(line, "schema") {
                    Ok(TRACE_SCHEMA) => {}
                    Ok(s) => return fail(format!("unknown schema \"{s}\"")),
                    Err(e) => return fail(e),
                }
                if let Err(e) = field_u64(line, "buf_cap") {
                    return fail(e);
                }
                summary.meta_lines += 1;
            }
            "span" => {
                match field_str(line, "name") {
                    Ok(name) if well_formed_name(name) => {}
                    Ok(name) => return fail(format!("malformed span name \"{name}\"")),
                    Err(e) => return fail(e),
                }
                for key in ["tid", "start_us", "dur_us"] {
                    if let Err(e) = field_u64(line, key) {
                        return fail(e);
                    }
                }
                summary.span_lines += 1;
            }
            other => return fail(format!("unknown record kind \"{other}\"")),
        }
    }
    if summary.meta_lines != 1 {
        return Err("trace must start with exactly one meta record".to_owned());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_once_and_accumulate() {
        static C: Counter = Counter::new("test.counter.alpha");
        C.add(2);
        C.incr();
        assert_eq!(C.get(), 3);
        // A second handle with the same name shares the cell.
        static C2: Counter = Counter::new("test.counter.alpha");
        C2.incr();
        assert_eq!(C.get(), 4);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        static G: Gauge = Gauge::new("test.gauge.alpha");
        G.set(7);
        G.set(3);
        assert_eq!(G.get(), 3);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        static A: Counter = Counter::new("test.snap.a");
        static B: Counter = Counter::new("test.snap.b");
        B.incr();
        A.incr();
        let snap = snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(snapshot(), snapshot());
    }

    #[test]
    fn disabled_span_reads_no_clock_and_is_inert() {
        // The sink is never initialized in unit tests, so spans must
        // be no-ops that still compile into scoped guards.
        assert!(!enabled());
        let g = span("test.span.disabled");
        assert!(g.started.is_none());
        drop(g);
        flush(); // no sink: must not panic
    }

    #[test]
    fn metric_names_are_validated() {
        assert!(well_formed_name("bank.hit"));
        assert!(well_formed_name("kernel.dispatch.avx512"));
        assert!(!well_formed_name(""));
        assert!(!well_formed_name("Bank.Hit"));
        assert!(!well_formed_name("a b"));
        let boom = std::panic::catch_unwind(|| {
            static BAD: Counter = Counter::new("Not A Path");
            BAD.incr();
        });
        assert!(boom.is_err());
    }

    #[test]
    fn check_trace_accepts_the_emitted_schema_and_rejects_drift() {
        let good = "{\"v\":1,\"kind\":\"meta\",\"schema\":\"hdx-obs-trace\",\"buf_cap\":4096}\n\
                    {\"v\":1,\"kind\":\"span\",\"tid\":0,\"name\":\"engine.epoch\",\"start_us\":5,\"dur_us\":9}\n";
        let summary = check_trace(good).expect("valid trace");
        assert_eq!(summary.meta_lines, 1);
        assert_eq!(summary.span_lines, 1);

        let cases = [
            ("", "exactly one meta"),
            ("{\"v\":1,\"kind\":\"span\",\"tid\":0,\"name\":\"x\",\"start_us\":1,\"dur_us\":1}\n", "meta"),
            ("{\"v\":2,\"kind\":\"meta\",\"schema\":\"hdx-obs-trace\",\"buf_cap\":1}\n", "version"),
            ("{\"v\":1,\"kind\":\"meta\",\"schema\":\"other\",\"buf_cap\":1}\n", "schema"),
            ("not json\n", "JSON"),
        ];
        for (text, needle) in cases {
            let err = check_trace(text).expect_err(text);
            assert!(err.contains(needle), "{err} (expected {needle})");
        }

        let bad_name = "{\"v\":1,\"kind\":\"meta\",\"schema\":\"hdx-obs-trace\",\"buf_cap\":1}\n\
                        {\"v\":1,\"kind\":\"span\",\"tid\":0,\"name\":\"BAD NAME\",\"start_us\":1,\"dur_us\":1}\n";
        assert!(check_trace(bad_name).is_err());
    }
}
