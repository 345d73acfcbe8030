//! Immutable trace snapshots and the three exporters: Chrome
//! `trace_event` JSON, folded-flamegraph text, and the metrics JSON blob
//! consumed by `crates/bench/src/report.rs`.

use std::fmt::Write as _;

use crate::json::{escape_string, format_f64};
use crate::span::{ticks_to_seconds, Span, SpanKind, Tracer};

/// A frozen, self-contained copy of a [`Tracer`]'s state. All exporters and
/// reconciliation queries run against this.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    /// Track names, indexed by track id.
    pub tracks: Vec<String>,
    /// Spans in emission order.
    pub spans: Vec<Span>,
    /// Counters in stable (sorted) order.
    pub counters: Vec<(String, u64)>,
    /// Gauges in stable (sorted) order.
    pub gauges: Vec<(String, f64)>,
}

impl TraceSnapshot {
    /// Captures the current state of `tracer`.
    pub fn capture(tracer: &Tracer) -> Self {
        TraceSnapshot {
            tracks: tracer.track_names(),
            spans: tracer.spans().to_vec(),
            counters: tracer
                .counters()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: tracer
                .gauges()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    fn track_index(&self, track: &str) -> Option<usize> {
        self.tracks.iter().position(|t| t == track)
    }

    /// Iterates spans on `track` with kind `kind`, optionally restricted to
    /// one run, in emission order.
    fn select<'a>(
        &'a self,
        track: &'a str,
        kind: SpanKind,
        run: Option<u64>,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        let idx = self.track_index(track);
        self.spans.iter().filter(move |s| {
            Some(s.track.0) == idx && s.kind == kind && run.is_none_or(|r| s.run == r)
        })
    }

    /// Sum of the work units charged directly to spans of `kind` on
    /// `track` (optionally one run). Exact: u64 addition.
    pub fn work_total(&self, track: &str, kind: SpanKind, run: Option<u64>) -> u64 {
        self.select(track, kind, run)
            .fold(0u64, |acc, s| acc.saturating_add(s.work))
    }

    /// Sum of the simulated nanoseconds charged directly to spans of
    /// `kind` on `track` (optionally one run). Exact: u64 addition.
    pub fn ns_total(&self, track: &str, kind: SpanKind, run: Option<u64>) -> u64 {
        self.select(track, kind, run)
            .fold(0u64, |acc, s| acc.saturating_add(s.ns()))
    }

    /// Sum of the `key` argument over spans of `kind` on `track`.
    pub fn arg_total(&self, track: &str, kind: SpanKind, key: &str, run: Option<u64>) -> u64 {
        self.select(track, kind, run).fold(0u64, |acc, s| {
            let v = s
                .args
                .iter()
                .filter(|(k, _)| *k == key)
                .fold(0u64, |a, (_, v)| a.saturating_add(*v));
            acc.saturating_add(v)
        })
    }

    /// Number of spans of `kind` on `track` (optionally one run).
    pub fn span_count(&self, track: &str, kind: SpanKind, run: Option<u64>) -> usize {
        self.select(track, kind, run).count()
    }

    /// Value of the named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Semicolon-joined `track;ancestors…;name` path of span `i`.
    fn path(&self, i: usize) -> String {
        let mut names = vec![self.spans[i].name.as_str()];
        let mut cur = self.spans[i].parent;
        while let Some(p) = cur {
            names.push(self.spans[p.0].name.as_str());
            cur = self.spans[p.0].parent;
        }
        let track = self
            .tracks
            .get(self.spans[i].track.0)
            .map_or("?", String::as_str);
        names.push(track);
        names.reverse();
        names.join(";")
    }

    /// Virtual-clock ticks charged directly to each span (its width minus
    /// its children's widths) — "self time" in profiler terms.
    fn self_ticks(&self) -> Vec<u64> {
        let mut child_ticks = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ticks[p.0] = child_ticks[p.0].saturating_add(s.ticks());
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| s.ticks().saturating_sub(child_ticks[i]))
            .collect()
    }

    /// The `n` spans with the most self-work (work units charged directly),
    /// as `(path, work)` pairs. Ties break by emission order, so the result
    /// is deterministic.
    pub fn top_spans_by_self_work(&self, n: usize) -> Vec<(String, u64)> {
        let mut ranked: Vec<(usize, u64)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.work > 0)
            .map(|(i, s)| (i, s.work))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
            .into_iter()
            .take(n)
            .map(|(i, w)| (self.path(i), w))
            .collect()
    }

    /// Exports the trace in Chrome `trace_event` JSON array format
    /// (`chrome://tracing` / Perfetto). One metadata event names each
    /// track; every span becomes an `"X"` (complete) event with integer
    /// virtual-clock `ts`/`dur`. Emission order guarantees monotone
    /// non-decreasing `ts` within each `tid`.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        for (tid, name) in self.tracks.iter().enumerate() {
            push_event(&mut out, &mut first, &format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                escape_string(name)
            ));
        }
        for s in &self.spans {
            let mut args = format!("\"run\":{}", s.run);
            if s.work > 0 {
                let _ = write!(args, ",\"work\":{}", s.work);
            }
            if s.ns() > 0 {
                let _ = write!(
                    args,
                    ",\"seconds\":{}",
                    format_f64(ticks_to_seconds(s.ns()))
                );
            }
            for (k, v) in &s.args {
                let _ = write!(args, ",\"{}\":{v}", escape_string(k));
            }
            push_event(&mut out, &mut first, &format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":\"{}\",\"name\":\"{}\",\"args\":{{{args}}}}}",
                s.track.0,
                s.start,
                s.ticks(),
                s.kind.label(),
                escape_string(&s.name),
            ));
        }
        out.push_str("\n]\n");
        out
    }

    /// Exports the trace as folded-flamegraph text: one
    /// `track;span;…;leaf <self-ticks>` line per distinct stack, sorted
    /// lexicographically, suitable for `flamegraph.pl` and `inferno`.
    pub fn folded_flamegraph(&self) -> String {
        let self_ticks = self.self_ticks();
        let mut folded: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for (i, ticks) in self_ticks.iter().enumerate() {
            if *ticks == 0 {
                continue;
            }
            let slot = folded.entry(self.path(i)).or_insert(0);
            *slot = slot.saturating_add(*ticks);
        }
        let mut out = String::new();
        for (path, ticks) in folded {
            let _ = writeln!(out, "{path} {ticks}");
        }
        out
    }

    /// Exports the metrics snapshot as a JSON object:
    ///
    /// ```json
    /// {
    ///   "schema": "slider-trace-metrics-v1",
    ///   "counters": {"<name>": <u64>, ...},          // sorted by name
    ///   "gauges": {"<name>": <f64>, ...},            // sorted by name
    ///   "phases": {                                   // per track, sorted
    ///     "<track>": {
    ///       "<kind-label>": {"spans": n, "work": u64,
    ///                         "seconds": f64, "ticks": u64},
    ///       ...
    ///     }
    ///   }
    /// }
    /// ```
    ///
    /// `seconds` is [`TraceSnapshot::ns_total`] printed in seconds. Only
    /// kinds with at least one span on a track appear. This is the
    /// blob `crates/bench` embeds as the `breakdown` section of
    /// `BENCH_*.json`.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"slider-trace-metrics-v1\",\n");
        out.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {v}", escape_string(k));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", escape_string(k), format_f64(*v));
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"phases\": {");
        let mut first_track = true;
        for track in &self.tracks {
            let mut body = String::new();
            let mut first_kind = true;
            for kind in SpanKind::ALL {
                let count = self.span_count(track, kind, None);
                if count == 0 {
                    continue;
                }
                let work = self.work_total(track, kind, None);
                let ns = self.ns_total(track, kind, None);
                let ticks = self
                    .select(track, kind, None)
                    .filter(|s| s.parent.is_none() || self.spans[s.parent.unwrap().0].kind != kind)
                    .fold(0u64, |acc, s| acc.saturating_add(s.ticks()));
                if !first_kind {
                    body.push(',');
                }
                first_kind = false;
                let _ = write!(
                    body,
                    "\n      \"{}\": {{\"spans\": {count}, \"work\": {work}, \"seconds\": {}, \"ticks\": {ticks}}}",
                    kind.label(),
                    format_f64(ticks_to_seconds(ns))
                );
            }
            if body.is_empty() {
                continue;
            }
            if !first_track {
                out.push(',');
            }
            first_track = false;
            let _ = write!(out, "\n    \"{}\": {{{body}\n    }}", escape_string(track));
        }
        out.push_str(if first_track { "}\n}\n" } else { "\n  }\n}\n" });
        out
    }
}

fn push_event(out: &mut String, first: &mut bool, event: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_chrome_trace;
    use crate::span::Tracer;

    fn sample() -> TraceSnapshot {
        let mut t = Tracer::new();
        let tr = t.track("engine");
        t.set_run(0);
        let run = t.begin(tr, SpanKind::Run, "run #0");
        let m = t.begin(tr, SpanKind::Map, "map");
        t.leaf(tr, SpanKind::Map, "split 0", 10);
        t.leaf(tr, SpanKind::Map, "split 1", 4);
        t.end(m);
        t.leaf(tr, SpanKind::Reduce, "reduce", 6);
        t.end(run);
        let d = t.track("dcache");
        t.leaf_ns(d, SpanKind::CacheRead, "read 1", 250_000_000);
        t.add("engine.map_tasks", 2);
        t.gauge("footprint", 1.5);
        TraceSnapshot::capture(&t)
    }

    #[test]
    fn totals_reconcile() {
        let snap = sample();
        assert_eq!(snap.work_total("engine", SpanKind::Map, Some(0)), 14);
        assert_eq!(snap.work_total("engine", SpanKind::Reduce, None), 6);
        assert_eq!(
            snap.ns_total("dcache", SpanKind::CacheRead, None),
            250_000_000
        );
        assert_eq!(snap.counter("engine.map_tasks"), 2);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn chrome_trace_validates() {
        let snap = sample();
        let text = snap.chrome_trace();
        let complete = validate_chrome_trace(&text).unwrap();
        assert_eq!(complete, snap.spans.len());
    }

    #[test]
    fn folded_output_is_sorted_and_self_time() {
        let snap = sample();
        let folded = snap.folded_flamegraph();
        let lines: Vec<&str> = folded.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        assert!(folded.contains("engine;run #0;map;split 0 10"));
        // The container spans carry no self time.
        assert!(!folded.contains("engine;run #0;map "));
    }

    #[test]
    fn top_spans_rank_by_self_work() {
        let snap = sample();
        let top = snap.top_spans_by_self_work(2);
        assert_eq!(top[0], ("engine;run #0;map;split 0".to_string(), 10));
        assert_eq!(top[1], ("engine;run #0;reduce".to_string(), 6));
    }

    #[test]
    fn metrics_json_parses_and_carries_phases() {
        let snap = sample();
        let text = snap.metrics_json();
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("slider-trace-metrics-v1")
        );
        let map = doc
            .get("phases")
            .and_then(|p| p.get("engine"))
            .and_then(|e| e.get("map"))
            .unwrap();
        assert_eq!(map.get("work").and_then(|v| v.as_f64()), Some(14.0));
    }
}
