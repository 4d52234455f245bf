//! Folds an `hdx-obs` JSONL trace into per-span-name totals: count,
//! total time, and self time (the span's duration minus the part its
//! child spans cover). Nesting is recovered per `tid` from the
//! intervals alone, since the trace carries no parent ids.

use std::collections::BTreeMap;

/// Per-name totals over the folded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, microseconds.
    pub total_us: u64,
    /// Summed self time (duration not covered by direct children).
    pub self_us: u64,
}

/// One span event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Per-process thread ordinal.
    pub tid: u64,
    /// Span name.
    pub name: String,
    /// Start, microseconds since the trace origin.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

impl Span {
    fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

/// Validates `text` with [`hdx_obs::check_trace`] and returns its span
/// events.
///
/// # Errors
///
/// The validator's message for a malformed trace.
pub fn parse(text: &str) -> Result<Vec<Span>, String> {
    hdx_obs::check_trace(text)?;
    text.lines()
        .filter(|line| line.contains("\"kind\":\"span\""))
        .map(|line| {
            Ok(Span {
                tid: field_u64(line, "tid")?,
                name: field_str(line, "name")?.to_owned(),
                start_us: field_u64(line, "start_us")?,
                dur_us: field_u64(line, "dur_us")?,
            })
        })
        .collect()
}

fn field_u64(line: &str, key: &str) -> Result<u64, String> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat).ok_or(format!("no {key}"))? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().map_err(|_| format!("bad {key}"))
}

fn field_str<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat).ok_or(format!("no {key}"))? + pat.len()..];
    rest.split('"').next().ok_or(format!("bad {key}"))
}

/// Folds `spans` into per-name totals. Within one `tid`, a span is the
/// child of the innermost earlier span whose interval contains its
/// start; a child's covered time is clipped to its parent's end.
pub fn fold(spans: &[Span]) -> BTreeMap<String, SpanTotals> {
    let mut by_tid: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        by_tid.entry(span.tid).or_default().push(span);
    }
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for mut thread in by_tid.into_values() {
        // Parents before children: earlier start first, and at equal
        // starts the longer (enclosing) span first.
        thread.sort_by(|a, b| a.start_us.cmp(&b.start_us).then(b.dur_us.cmp(&a.dur_us)));
        let mut covered = vec![0u64; thread.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, span) in thread.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if thread[top].end_us() > span.start_us {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                covered[parent] += span.end_us().min(thread[parent].end_us()) - span.start_us;
            }
            stack.push(i);
        }
        for (span, cov) in thread.iter().zip(covered) {
            let totals = out.entry(span.name.clone()).or_default();
            totals.count += 1;
            totals.total_us += span.dur_us;
            totals.self_us += span.dur_us.saturating_sub(cov);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(tid: u64, name: &str, start: u64, dur: u64) -> String {
        format!(
            "{{\"v\":1,\"kind\":\"span\",\"tid\":{tid},\"name\":\"{name}\",\"start_us\":{start},\"dur_us\":{dur}}}\n"
        )
    }

    #[test]
    fn self_time_subtracts_direct_children_per_thread() {
        // tid 0: search [0,100) ⊃ epoch [10,30), epoch [40,70) ⊃ compile [45,50)
        // tid 1 interleaves in time but must not nest under tid 0.
        let mut text =
            "{\"v\":1,\"kind\":\"meta\",\"schema\":\"hdx-obs-trace\",\"buf_cap\":4096}\n"
                .to_owned();
        // Events are emitted at span end, so children come first.
        text += &line(0, "engine.epoch", 10, 20);
        text += &line(1, "engine.search", 15, 50);
        text += &line(0, "bank.compile", 45, 5);
        text += &line(0, "engine.epoch", 40, 30);
        text += &line(0, "engine.search", 0, 100);
        let folded = fold(&parse(&text).expect("valid trace"));
        assert_eq!(
            folded["engine.search"],
            SpanTotals {
                count: 2,
                total_us: 150,
                // tid 0: 100 − 20 − 30 = 50; tid 1 has no children: 50.
                self_us: 100,
            }
        );
        assert_eq!(
            folded["engine.epoch"],
            SpanTotals {
                count: 2,
                total_us: 50,
                self_us: 45,
            }
        );
        assert_eq!(folded["bank.compile"].self_us, 5);
    }

    #[test]
    fn a_child_overrunning_its_parent_is_clipped() {
        let spans = vec![
            Span {
                tid: 0,
                name: "router.flush".to_owned(),
                start_us: 0,
                dur_us: 10,
            },
            Span {
                tid: 0,
                name: "router.dispatch".to_owned(),
                start_us: 4,
                dur_us: 7,
            },
        ];
        let folded = fold(&spans);
        assert_eq!(folded["router.flush"].self_us, 4);
        assert_eq!(folded["router.dispatch"].self_us, 7);
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(parse("not a trace\n").is_err());
    }
}
