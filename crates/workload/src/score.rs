//! The `BENCH_serve.json` regression score.
//!
//! The pinned `score` block is a pure function of *trace content*
//! (request lines + recorded response bytes): per-family search
//! objectives, per-verb throughput/latency in deterministic step
//! units, queue depth, and protocol-error counts. Because it reads
//! only the trace, it is bit-identical across every replay
//! configuration — worker count, connection count, interleaving — and
//! CI can diff it verbatim. The `env` block records what one concrete
//! replay looked like (connection count, session-bank hit rate); it is
//! reporting context, **not** part of the pinned score.
//!
//! Latency and throughput are measured in the repo's deterministic
//! step unit (`searches · (epochs·steps + final_train)` per job), so
//! the numbers mean the same thing on every machine — wall clock never
//! appears in a report.

use crate::trace::{Trace, TraceError};
use hdx_serve::{parse_request, v1, SearchReport, SearchRequest};
use std::fmt::Write as _;
use std::path::Path;

/// Format version of `BENCH_serve.json`.
pub const SERVE_BENCH_VERSION: u64 = 1;

/// The four scored job classes, in emission order.
pub const VERB_LABELS: [&str; 4] = ["search", "grid", "meta", "resume"];

/// Per-family slice of the score: job volume plus the mean search
/// objective the recorded responses achieved.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyScore {
    /// Task family label.
    pub label: &'static str,
    /// Jobs (report lines) attributed to the family.
    pub jobs: u64,
    /// Deterministic steps those jobs consumed.
    pub steps: u64,
    /// Mean retrained test error over the family's reports.
    pub mean_error: f64,
    /// Mean global loss over the family's reports.
    pub mean_global_loss: f64,
    /// Mean `Cost_HW` over the family's reports.
    pub mean_cost_hw: f64,
}

/// Per-verb slice of the score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerbScore {
    /// Verb label (one of [`VERB_LABELS`]).
    pub label: &'static str,
    /// Jobs the verb produced.
    pub jobs: u64,
    /// Deterministic steps those jobs consumed.
    pub steps: u64,
    /// Mean steps per job (`0` when the verb saw no jobs).
    pub latency_steps: f64,
}

/// The pinned score block — derived from trace content only.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeScore {
    /// Per-family rows, in first-appearance order.
    pub families: Vec<FamilyScore>,
    /// Per-verb rows, in [`VERB_LABELS`] order (zero rows included so
    /// the JSON shape is fixed).
    pub verbs: Vec<VerbScore>,
    /// Total jobs across the trace.
    pub total_jobs: u64,
    /// Total deterministic steps across the trace.
    pub total_steps: u64,
    /// Throughput in jobs per 1000 deterministic steps.
    pub jobs_per_kilostep: f64,
    /// Mean jobs dispatched per trace entry (grid entries expand).
    pub mean_queue_depth: f64,
    /// Largest single-entry dispatch batch.
    pub max_queue_depth: u64,
    /// Recorded in-band `error` responses.
    pub protocol_errors: u64,
}

/// One replay's context: configuration plus post-replay bank counters.
/// Informational — excluded from the pinned score.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayEnv {
    /// Concurrent connections used.
    pub conns: usize,
    /// Scheduler worker count (`0` = auto).
    pub jobs: usize,
    /// Interleaving label (`round-robin` / `blocks`).
    pub interleave: String,
    /// Entries in the trace.
    pub entries: u64,
    /// FNV-1a digest of the trace text (requests + expected bytes).
    pub trace_fnv: u64,
    /// Post-replay session-bank / service counters.
    pub bank: v1::StatsReport,
}

/// The full `BENCH_serve.json` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBench {
    /// The pinned, replay-invariant block.
    pub score: ServeScore,
    /// The informational replay context.
    pub env: ReplayEnv,
}

pub use hdx_tensor::ckpt::fnv1a;

/// Digest of a trace's logical content: every request and expected
/// response line, newline-joined in entry order.
pub fn trace_fnv(trace: &Trace) -> u64 {
    let mut text = String::new();
    for e in &trace.entries {
        text.push_str(&e.request);
        text.push('\n');
        for line in &e.expect {
            text.push_str(line);
            text.push('\n');
        }
    }
    fnv1a(text.as_bytes())
}

/// The verb class a trace entry's request belongs to, as an index into
/// [`VERB_LABELS`], plus the request's per-search step budget when the
/// line carries one (v0 reports are frozen without `steps_used`, so
/// their steps are reconstructed as `searches × budget`).
fn classify_request(line: &str) -> Result<(usize, Option<u64>), TraceError> {
    let per_search =
        |req: &SearchRequest| req.epochs as u64 * req.steps as u64 + req.final_train as u64;
    let body = match v1::sniff(line) {
        v1::Framing::V1 => v1::decode_request(line).map_err(TraceError::Proto)?.body,
        _ => parse_request(line).map_err(TraceError::Proto)?.into_body(),
    };
    Ok(match &body {
        // A `search` body — every v0 search line among them — counts
        // under the verb its options imply, the same precedence the
        // per-bundle verb counters use.
        v1::RequestBody::Search(req) => (req.verb_index(), Some(per_search(req))),
        v1::RequestBody::Grid(req) | v1::RequestBody::Meta(req) | v1::RequestBody::Resume(req) => {
            (body.verb_index(), Some(per_search(req)))
        }
        // Control verbs produce no jobs; attribute nothing.
        _ => (0, None),
    })
}

/// Decodes a recorded response line as a report if it is one. v0
/// report bytes are frozen without a version token; prefixing the
/// token reuses the v1 decoder (every v0 field is a v1 field).
fn decode_report_line(line: &str) -> Result<Option<SearchReport>, TraceError> {
    let owned;
    let framed = match v1::sniff(line) {
        v1::Framing::V1 => line,
        _ => {
            if !line.starts_with("report ") {
                return Ok(None);
            }
            owned = format!("{} {line}", v1::VERSION_TOKEN);
            &owned
        }
    };
    match v1::decode_response(framed).map_err(TraceError::Proto)?.body {
        v1::ResponseBody::Report(r) => Ok(Some(r)),
        _ => Ok(None),
    }
}

impl ServeScore {
    /// Computes the pinned score from trace content alone.
    ///
    /// # Errors
    ///
    /// [`TraceError::Proto`] if a recorded line fails to decode — a
    /// trace that cannot be scored is corrupt, not zero-scored.
    pub fn from_trace(trace: &Trace) -> Result<ServeScore, TraceError> {
        let mut families: Vec<FamilyScore> = Vec::new();
        let mut verb_jobs = [0u64; 4];
        let mut verb_steps = [0u64; 4];
        let mut total_jobs = 0u64;
        let mut total_steps = 0u64;
        let mut protocol_errors = 0u64;
        let mut max_queue_depth = 0u64;

        for entry in &trace.entries {
            let (slot, per_search) = classify_request(&entry.request)?;
            let mut entry_jobs = 0u64;
            for line in &entry.expect {
                if line.starts_with("error ") || line.starts_with("hdx1 error ") {
                    protocol_errors += 1;
                    continue;
                }
                let Some(report) = decode_report_line(line)? else {
                    continue;
                };
                let steps = match report.steps_used {
                    0 => report.searches as u64 * per_search.unwrap_or(0),
                    s => s,
                };
                entry_jobs += 1;
                total_jobs += 1;
                total_steps += steps;
                verb_jobs[slot] += 1;
                verb_steps[slot] += steps;
                let fam = match families.iter_mut().find(|f| f.label == report.task) {
                    Some(f) => f,
                    None => {
                        families.push(FamilyScore {
                            label: report.task,
                            jobs: 0,
                            steps: 0,
                            mean_error: 0.0,
                            mean_global_loss: 0.0,
                            mean_cost_hw: 0.0,
                        });
                        families.last_mut().expect("just pushed")
                    }
                };
                // Accumulate sums; divided into means below.
                fam.jobs += 1;
                fam.steps += steps;
                fam.mean_error += report.error;
                fam.mean_global_loss += report.global_loss;
                fam.mean_cost_hw += report.cost_hw;
            }
            max_queue_depth = max_queue_depth.max(entry_jobs);
        }

        for f in &mut families {
            let n = f.jobs as f64;
            f.mean_error /= n;
            f.mean_global_loss /= n;
            f.mean_cost_hw /= n;
        }
        let verbs = VERB_LABELS
            .iter()
            .enumerate()
            .map(|(i, label)| VerbScore {
                label,
                jobs: verb_jobs[i],
                steps: verb_steps[i],
                latency_steps: if verb_jobs[i] == 0 {
                    0.0
                } else {
                    verb_steps[i] as f64 / verb_jobs[i] as f64
                },
            })
            .collect();
        let entries = trace.entries.len().max(1) as f64;
        Ok(ServeScore {
            families,
            verbs,
            total_jobs,
            total_steps,
            jobs_per_kilostep: if total_steps == 0 {
                0.0
            } else {
                total_jobs as f64 * 1000.0 / total_steps as f64
            },
            mean_queue_depth: total_jobs as f64 / entries,
            max_queue_depth,
            protocol_errors,
        })
    }

    /// The pinned block serialized alone — what determinism tests and
    /// CI diffs compare byte-for-byte.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n    \"families\": [\n");
        for (i, f) in self.families.iter().enumerate() {
            let _ = writeln!(
                s,
                "      {{\"task\": \"{}\", \"jobs\": {}, \"steps\": {}, \"mean_error\": {}, \
                 \"mean_global_loss\": {}, \"mean_cost_hw\": {}}}{}",
                f.label,
                f.jobs,
                f.steps,
                f.mean_error,
                f.mean_global_loss,
                f.mean_cost_hw,
                if i + 1 == self.families.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        s.push_str("    ],\n    \"verbs\": [\n");
        for (i, v) in self.verbs.iter().enumerate() {
            let _ = writeln!(
                s,
                "      {{\"verb\": \"{}\", \"jobs\": {}, \"steps\": {}, \"latency_steps\": {}}}{}",
                v.label,
                v.jobs,
                v.steps,
                v.latency_steps,
                if i + 1 == self.verbs.len() { "" } else { "," }
            );
        }
        let _ = write!(
            s,
            "    ],\n    \"total_jobs\": {},\n    \"total_steps\": {},\n    \
             \"jobs_per_kilostep\": {},\n    \"mean_queue_depth\": {},\n    \
             \"max_queue_depth\": {},\n    \"protocol_errors\": {}\n  }}",
            self.total_jobs,
            self.total_steps,
            self.jobs_per_kilostep,
            self.mean_queue_depth,
            self.max_queue_depth,
            self.protocol_errors,
        );
        s
    }
}

impl ServeBench {
    /// Assembles the full payload from a scored trace and one replay's
    /// context.
    pub fn new(score: ServeScore, env: ReplayEnv) -> ServeBench {
        ServeBench { score, env }
    }

    /// The full `BENCH_serve.json` text (trailing newline included).
    pub fn to_json(&self) -> String {
        let b = &self.env.bank;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"version\": {SERVE_BENCH_VERSION},\n  \"score\": {},\n  \"env\": {{\n    \
             \"replay\": {{\"conns\": {}, \"jobs\": {}, \"interleave\": \"{}\", \
             \"entries\": {}, \"trace_fnv\": {}}},\n    \
             \"bank\": {{\"programs\": {}, \"idle_sessions\": {}, \"hits\": {}, \
             \"misses\": {}, \"evictions\": {}, \"hit_rate\": {}, \
             \"requests_served\": {}}}\n  }}\n}}\n",
            self.score.to_json(),
            self.env.conns,
            self.env.jobs,
            self.env.interleave,
            self.env.entries,
            self.env.trace_fnv,
            b.programs,
            b.idle_sessions,
            b.hits,
            b.misses,
            b.evictions,
            if b.hits + b.misses == 0 {
                0.0
            } else {
                b.hits as f64 / (b.hits + b.misses) as f64
            },
            b.requests_served,
        );
        s
    }

    /// Writes the payload to `path`.
    ///
    /// # Errors
    ///
    /// Filesystem failures as [`TraceError::Io`].
    pub fn write(&self, path: &Path) -> Result<(), TraceError> {
        std::fs::write(path, self.to_json())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEntry;

    fn entry(request: &str, expect: &[&str]) -> TraceEntry {
        TraceEntry {
            request: request.to_owned(),
            expect: expect.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    const V0_REPORT: &str = "report id=1 method=HDX task=cifar seed=0 lambda_cost=0.5 \
         searches=1 satisfied=true arch=0,1 pe=16x16 rf=512 dataflow=WS latency_ms=2.5 \
         energy_mj=1.25 area_mm2=3.5 cost_hw=0.75 error=0.25 global_loss=0.5 in_constraint=true";

    #[test]
    fn scores_v0_and_v1_reports_uniformly() {
        // v0 request: 2·3 + 40 = 46 steps/search, report says 1 search.
        let v0 = entry(
            "search id=1 task=cifar epochs=2 steps=3 batch=16 final_train=40",
            &[V0_REPORT, "hdx1 pong id=900000000"],
        );
        // v1 meta request whose report carries steps_used directly.
        let v1_line = format!(
            "hdx1 {} searches=2 queue_pos=0 queued_jobs=1 queue_len_at_dispatch=0 steps_used=92",
            V0_REPORT
                .replace("task=cifar", "task=spheres")
                .replace("searches=1 ", "")
        );
        let v1e = entry(
            "hdx1 meta id=2 task=spheres latency=30 max_searches=2 epochs=2 steps=3 final_train=40",
            &[&v1_line, "hdx1 pong id=900000001"],
        );
        let trace = Trace {
            entries: vec![v0, v1e],
        };
        let score = ServeScore::from_trace(&trace).expect("score");
        assert_eq!(score.total_jobs, 2);
        assert_eq!(score.total_steps, 46 + 92);
        assert_eq!(score.families.len(), 2);
        assert_eq!(score.families[0].label, "cifar");
        assert_eq!(score.families[0].steps, 46);
        assert_eq!(score.families[1].label, "spheres");
        assert_eq!(score.families[1].steps, 92);
        let meta = &score.verbs[2];
        assert_eq!((meta.label, meta.jobs, meta.steps), ("meta", 1, 92));
        assert_eq!(meta.latency_steps, 92.0);
        assert_eq!(score.max_queue_depth, 1);
        assert_eq!(score.protocol_errors, 0);
        // Zero-job verbs keep their rows so the JSON shape is fixed.
        assert_eq!(score.verbs.len(), 4);
        assert_eq!(score.verbs[1].jobs, 0);
    }

    #[test]
    fn errors_are_counted_not_scored() {
        let trace = Trace {
            entries: vec![entry(
                "hdx1 search id=3 task=cifar",
                &[
                    "hdx1 error id=3 kind=unknown_task offset=0",
                    "hdx1 pong id=900000000",
                ],
            )],
        };
        let score = ServeScore::from_trace(&trace).expect("score");
        assert_eq!(score.total_jobs, 0);
        assert_eq!(score.protocol_errors, 1);
        assert_eq!(score.jobs_per_kilostep, 0.0);
    }

    #[test]
    fn score_json_is_a_pure_function_of_the_trace() {
        let trace = Trace {
            entries: vec![entry(
                "search id=1 task=cifar epochs=2 steps=3 batch=16 final_train=40",
                &[V0_REPORT, "hdx1 pong id=900000000"],
            )],
        };
        let a = ServeScore::from_trace(&trace).expect("score").to_json();
        let b = ServeScore::from_trace(&trace).expect("score").to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"jobs_per_kilostep\""));
    }

    #[test]
    fn fnv_digest_tracks_content() {
        let t1 = Trace {
            entries: vec![entry("a", &["b"])],
        };
        let t2 = Trace {
            entries: vec![entry("a", &["c"])],
        };
        assert_ne!(trace_fnv(&t1), trace_fnv(&t2));
        assert_eq!(trace_fnv(&t1), trace_fnv(&t1.clone()));
    }
}
