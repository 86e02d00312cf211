//! Exporters: JSONL event logs and Chrome trace-event files.
//!
//! Both formats are keyed to *virtual* nanoseconds and built with
//! integer arithmetic only, so a given schedule exports byte-for-byte
//! identically on every run and host.

use std::fmt::Write as _;

use crate::span::Phase;

use crate::span::{AttrValue, Event, Recorder};

/// Formats nanoseconds as decimal microseconds with exactly three
/// fractional digits (`1234567` → `"1234.567"`), using integer math so
/// output never depends on float formatting.
fn fmt_micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn phase_json(phase: Option<Phase>) -> &'static str {
    match phase {
        Some(Phase::Startup) => "\"startup\"",
        Some(Phase::Exec) => "\"exec\"",
        Some(Phase::Other) => "\"other\"",
        None => "null",
    }
}

fn attrs_json(attrs: &[(&'static str, AttrValue)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", crate::json::escape(k), v.to_json());
    }
    out.push('}');
    out
}

fn u64_list_json(list: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in list.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// Renders a recorder's event log as JSONL: one JSON object per line,
/// in recording order. Empty recorders render as the empty string
/// (zero lines).
///
/// Span lines: `{"type":"span","id":N,"parent":N|null,"trace":N|null,
/// "name":...,"cat":...,"phase":...,"start_ns":N,"end_ns":N|null,
/// "dur_ns":N,"attrs":{...},"flows_out":[...],"flows_in":[...]}`.
/// Instant lines carry `"type":"instant"`, `"trace"`, and `"at_ns"`.
/// Still-open spans export `end_ns: null` and a zero duration; call
/// [`Recorder::finish`] first to pin them.
pub fn jsonl(recorder: &Recorder) -> String {
    let mut out = String::new();
    for event in recorder.events() {
        match event {
            Event::Span(s) => {
                let parent = match s.parent {
                    Some(p) => p.raw().to_string(),
                    None => "null".to_string(),
                };
                let trace = match s.trace {
                    Some(t) => t.raw().to_string(),
                    None => "null".to_string(),
                };
                let (end, dur) = match s.end {
                    Some(end) => (
                        end.as_nanos().to_string(),
                        (end.as_nanos().saturating_sub(s.start.as_nanos())).to_string(),
                    ),
                    None => ("null".to_string(), "0".to_string()),
                };
                let _ = writeln!(
                    out,
                    "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"trace\":{},\"name\":{},\
                     \"cat\":{},\"phase\":{},\"start_ns\":{},\"end_ns\":{},\"dur_ns\":{},\
                     \"attrs\":{},\"flows_out\":{},\"flows_in\":{}}}",
                    s.id.raw(),
                    parent,
                    trace,
                    crate::json::escape(&s.name),
                    crate::json::escape(s.category),
                    phase_json(s.phase),
                    s.start.as_nanos(),
                    end,
                    dur,
                    attrs_json(&s.attrs),
                    u64_list_json(&s.flows_out),
                    u64_list_json(&s.flows_in),
                );
            }
            Event::Instant(i) => {
                let parent = match i.parent {
                    Some(p) => p.raw().to_string(),
                    None => "null".to_string(),
                };
                let trace = match i.trace {
                    Some(t) => t.raw().to_string(),
                    None => "null".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{{\"type\":\"instant\",\"parent\":{},\"trace\":{},\"name\":{},\"cat\":{},\
                     \"at_ns\":{},\"attrs\":{}}}",
                    parent,
                    trace,
                    crate::json::escape(&i.name),
                    crate::json::escape(i.category),
                    i.at.as_nanos(),
                    attrs_json(&i.attrs),
                );
            }
        }
    }
    out
}

/// Renders one or more recorders as a single Chrome trace-event JSON
/// document loadable in `chrome://tracing` or [Perfetto].
///
/// Each `(process_name, recorder)` pair becomes one process (pid 1, 2,
/// …) named by a metadata event, so two platforms export side by side.
/// Spans become complete events (`ph:"X"`) with microsecond `ts`/`dur`;
/// instants become thread-scoped instant events (`ph:"i"`). Spans
/// carrying a trace id export it as `args.trace_id`, and their
/// [`crate::SpanRecord::flows_out`] / `flows_in` lists become Perfetto
/// flow events (`ph:"s"` / `ph:"f"` with `bp:"e"`) timestamped inside
/// the span, so the UI draws causal arrows across hosts.
///
/// [Perfetto]: https://ui.perfetto.dev
pub fn chrome_trace(processes: &[(&str, &Recorder)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, event: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&event);
    };
    for (i, (name, recorder)) in processes.iter().enumerate() {
        let pid = i + 1;
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":{}}}}}",
                crate::json::escape(name)
            ),
        );
        for event in recorder.events() {
            match event {
                Event::Span(s) => {
                    let now = recorder.clock().now();
                    let dur = s.duration_at(now).as_nanos();
                    let mut args = format!("{{\"span_id\":{}", s.id.raw());
                    if let Some(p) = s.parent {
                        let _ = write!(args, ",\"parent\":{}", p.raw());
                    }
                    if let Some(t) = s.trace {
                        let _ = write!(args, ",\"trace_id\":{}", t.raw());
                    }
                    if let Some(phase) = s.phase {
                        let _ = write!(args, ",\"phase\":{}", phase_json(Some(phase)));
                    }
                    for (k, v) in &s.attrs {
                        let _ = write!(args, ",{}:{}", crate::json::escape(k), v.to_json());
                    }
                    args.push('}');
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"name\":{},\"cat\":{},\
                             \"ts\":{},\"dur\":{},\"args\":{args}}}",
                            crate::json::escape(&s.name),
                            crate::json::escape(s.category),
                            fmt_micros(s.start.as_nanos()),
                            fmt_micros(dur),
                        ),
                    );
                    // Flow events bind to the enclosing slice by
                    // (pid, tid, ts); stamp them just inside the span.
                    for flow in &s.flows_out {
                        push(
                            &mut out,
                            &mut first,
                            format!(
                                "{{\"ph\":\"s\",\"pid\":{pid},\"tid\":1,\
                                 \"name\":\"request_flow\",\"cat\":\"flow\",\"id\":{flow},\
                                 \"ts\":{}}}",
                                fmt_micros(s.start.as_nanos()),
                            ),
                        );
                    }
                    for flow in &s.flows_in {
                        push(
                            &mut out,
                            &mut first,
                            format!(
                                "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{pid},\"tid\":1,\
                                 \"name\":\"request_flow\",\"cat\":\"flow\",\"id\":{flow},\
                                 \"ts\":{}}}",
                                fmt_micros(s.start.as_nanos()),
                            ),
                        );
                    }
                }
                Event::Instant(inst) => {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":1,\"name\":{},\"cat\":{},\
                             \"ts\":{},\"s\":\"t\",\"args\":{}}}",
                            crate::json::escape(&inst.name),
                            crate::json::escape(inst.category),
                            fmt_micros(inst.at.as_nanos()),
                            attrs_json(&inst.attrs),
                        ),
                    );
                }
            }
        }
    }
    out.push_str("]}");
    out
}

/// Schema checks for the exporters' output: beyond well-formedness,
/// every event must carry its required keys with the right types. CI
/// runs these over `trace_dump` / `trace_query` artifacts so a format
/// drift (or an edge case like an empty trace or a still-open span)
/// fails loudly instead of producing silently unreadable files.
pub mod schema {
    use crate::json::{parse, Value};

    fn want_u64(v: &Value, key: &str, ctx: &str) -> Result<(), String> {
        match v.get(key) {
            Some(f) if f.as_u64().is_some() => Ok(()),
            _ => Err(format!("{ctx}: missing or non-u64 {key:?}")),
        }
    }

    fn want_u64_or_null(v: &Value, key: &str, ctx: &str) -> Result<(), String> {
        match v.get(key) {
            Some(f) if f.is_null() || f.as_u64().is_some() => Ok(()),
            _ => Err(format!("{ctx}: missing or non-(u64|null) {key:?}")),
        }
    }

    fn want_str(v: &Value, key: &str, ctx: &str) -> Result<(), String> {
        match v.get(key) {
            Some(f) if f.as_str().is_some() => Ok(()),
            _ => Err(format!("{ctx}: missing or non-string {key:?}")),
        }
    }

    fn want_object(v: &Value, key: &str, ctx: &str) -> Result<(), String> {
        match v.get(key) {
            Some(f) if f.is_object() => Ok(()),
            _ => Err(format!("{ctx}: missing or non-object {key:?}")),
        }
    }

    fn want_u64_array(v: &Value, key: &str, ctx: &str) -> Result<(), String> {
        match v.get(key).and_then(|f| f.as_array()) {
            Some(items) if items.iter().all(|i| i.as_u64().is_some()) => Ok(()),
            _ => Err(format!("{ctx}: missing or non-u64-array {key:?}")),
        }
    }

    /// Checks every line of a [`super::jsonl`] export. Empty input
    /// (zero events) is valid.
    pub fn check_jsonl(text: &str) -> Result<(), String> {
        for (n, line) in text.lines().enumerate() {
            let ctx = format!("line {}", n + 1);
            let v = parse(line).map_err(|e| format!("{ctx}: {e}"))?;
            match v.get("type").and_then(|t| t.as_str()) {
                Some("span") => {
                    want_u64(&v, "id", &ctx)?;
                    want_u64_or_null(&v, "parent", &ctx)?;
                    want_u64_or_null(&v, "trace", &ctx)?;
                    want_str(&v, "name", &ctx)?;
                    want_str(&v, "cat", &ctx)?;
                    match v.get("phase") {
                        Some(p)
                            if p.is_null()
                                || matches!(p.as_str(), Some("startup" | "exec" | "other")) => {}
                        _ => return Err(format!("{ctx}: bad \"phase\"")),
                    }
                    want_u64(&v, "start_ns", &ctx)?;
                    want_u64_or_null(&v, "end_ns", &ctx)?;
                    want_u64(&v, "dur_ns", &ctx)?;
                    want_object(&v, "attrs", &ctx)?;
                    want_u64_array(&v, "flows_out", &ctx)?;
                    want_u64_array(&v, "flows_in", &ctx)?;
                }
                Some("instant") => {
                    want_u64_or_null(&v, "parent", &ctx)?;
                    want_u64_or_null(&v, "trace", &ctx)?;
                    want_str(&v, "name", &ctx)?;
                    want_str(&v, "cat", &ctx)?;
                    want_u64(&v, "at_ns", &ctx)?;
                    want_object(&v, "attrs", &ctx)?;
                }
                _ => return Err(format!("{ctx}: missing or unknown \"type\"")),
            }
        }
        Ok(())
    }

    /// Checks a [`super::chrome_trace`] document: the envelope plus the
    /// per-phase required keys of every trace event (`M`, `X`, `i`, and
    /// the `s`/`f` flow pair).
    pub fn check_chrome(text: &str) -> Result<(), String> {
        let v = parse(text)?;
        if v.get("displayTimeUnit").and_then(|u| u.as_str()) != Some("ms") {
            return Err("missing displayTimeUnit:\"ms\"".to_string());
        }
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .ok_or_else(|| "missing traceEvents array".to_string())?;
        for (n, ev) in events.iter().enumerate() {
            let ctx = format!("event {n}");
            let ph = ev
                .get("ph")
                .and_then(|p| p.as_str())
                .ok_or_else(|| format!("{ctx}: missing \"ph\""))?;
            want_u64(ev, "pid", &ctx)?;
            match ph {
                "M" => {
                    if ev.get("name").and_then(|s| s.as_str()) != Some("process_name") {
                        return Err(format!("{ctx}: metadata must be process_name"));
                    }
                    let ok = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(|s| s.as_str())
                        .is_some();
                    if !ok {
                        return Err(format!("{ctx}: metadata missing args.name"));
                    }
                }
                "X" => {
                    want_u64(ev, "tid", &ctx)?;
                    want_str(ev, "name", &ctx)?;
                    want_str(ev, "cat", &ctx)?;
                    for key in ["ts", "dur"] {
                        if ev.get(key).and_then(|f| f.as_f64()).is_none() {
                            return Err(format!("{ctx}: missing or non-number {key:?}"));
                        }
                    }
                    want_object(ev, "args", &ctx)?;
                    let args = ev.get("args").expect("checked");
                    want_u64(args, "span_id", &format!("{ctx} args"))?;
                }
                "i" => {
                    want_u64(ev, "tid", &ctx)?;
                    want_str(ev, "name", &ctx)?;
                    want_str(ev, "cat", &ctx)?;
                    want_str(ev, "s", &ctx)?;
                    if ev.get("ts").and_then(|f| f.as_f64()).is_none() {
                        return Err(format!("{ctx}: missing or non-number \"ts\""));
                    }
                }
                "s" | "f" => {
                    want_u64(ev, "tid", &ctx)?;
                    want_str(ev, "name", &ctx)?;
                    want_u64(ev, "id", &ctx)?;
                    if ev.get("ts").and_then(|f| f.as_f64()).is_none() {
                        return Err(format!("{ctx}: missing or non-number \"ts\""));
                    }
                    if ph == "f" && ev.get("bp").and_then(|s| s.as_str()) != Some("e") {
                        return Err(format!("{ctx}: flow-end must carry bp:\"e\""));
                    }
                }
                other => return Err(format!("{ctx}: unknown ph {other:?}")),
            }
        }
        Ok(())
    }

    /// Checks a [`crate::MetricsSnapshot::to_json`] document, including
    /// zero-sample histogram series (`counts` must be `bounds` plus an
    /// overflow bucket, and `count` must equal the bucket total).
    pub fn check_metrics(text: &str) -> Result<(), String> {
        let v = parse(text)?;
        for section in ["counters", "gauges", "histograms"] {
            if !v.get(section).is_some_and(Value::is_object) {
                return Err(format!("missing {section:?} object"));
            }
        }
        let Some(Value::Object(hists)) = v.get("histograms") else {
            unreachable!("checked above");
        };
        for (name, h) in hists {
            let ctx = format!("histogram {name:?}");
            want_u64_array(h, "bounds", &ctx)?;
            want_u64_array(h, "counts", &ctx)?;
            want_u64(h, "count", &ctx)?;
            if h.get("sum").and_then(|f| f.as_f64()).is_none() {
                return Err(format!("{ctx}: missing \"sum\""));
            }
            let bounds = h.get("bounds").and_then(|b| b.as_array()).expect("checked");
            let counts = h.get("counts").and_then(|c| c.as_array()).expect("checked");
            if counts.len() != bounds.len() + 1 {
                return Err(format!("{ctx}: counts must be bounds + overflow"));
            }
            let total: u64 = counts.iter().filter_map(Value::as_u64).sum();
            if Some(total) != h.get("count").and_then(Value::as_u64) {
                return Err(format!("{ctx}: count != sum of buckets"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::cat;
    use fireworks_sim::{Clock, Nanos};

    fn sample_recorder() -> (Clock, Recorder) {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        let root = rec.start_phase("invoke", cat::INVOKE, Phase::Exec);
        rec.attr(root, "function", "fact");
        rec.scope("snapshot_restore", cat::RESTORE, || {
            clock.advance(Nanos::from_micros(1500));
        });
        rec.instant("fault:net_loss", cat::FAULT);
        rec.end(root);
        (clock, rec)
    }

    #[test]
    fn fmt_micros_is_integer_exact() {
        assert_eq!(fmt_micros(0), "0.000");
        assert_eq!(fmt_micros(999), "0.999");
        assert_eq!(fmt_micros(1_000), "1.000");
        assert_eq!(fmt_micros(1_234_567), "1234.567");
    }

    #[test]
    fn jsonl_lines_are_each_valid_json() {
        let (_clock, rec) = sample_recorder();
        let text = jsonl(&rec);
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            crate::json::validate(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(text.lines().nth(1).unwrap().contains("\"dur_ns\":1500000"));
        assert!(text
            .lines()
            .nth(2)
            .unwrap()
            .contains("\"type\":\"instant\""));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_metadata() {
        let (_clock, rec) = sample_recorder();
        let doc = chrome_trace(&[("fireworks", &rec), ("firecracker", &rec)]);
        crate::json::validate(&doc).expect("well-formed");
        assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(doc.contains("\"pid\":1"));
        assert!(doc.contains("\"pid\":2"));
        assert!(doc.contains("\"name\":\"process_name\""));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ph\":\"i\""));
    }

    #[test]
    fn exports_are_deterministic() {
        let (_c1, r1) = sample_recorder();
        let (_c2, r2) = sample_recorder();
        assert_eq!(jsonl(&r1), jsonl(&r2));
        assert_eq!(chrome_trace(&[("p", &r1)]), chrome_trace(&[("p", &r2)]));
    }

    #[test]
    fn exports_carry_trace_ids_and_flows() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        let t = rec.next_trace_id();
        let root = rec.start_detached("request", cat::INVOKE, t);
        let service = rec.start_under(root, "service", cat::INVOKE);
        rec.flow_out(root, t.raw());
        rec.flow_in(service, t.raw());
        clock.advance(Nanos::from_micros(10));
        rec.end(service);
        rec.end_detached(root);

        let text = jsonl(&rec);
        schema::check_jsonl(&text).expect("schema");
        assert!(text.lines().next().unwrap().contains("\"trace\":1"));
        assert!(text.lines().next().unwrap().contains("\"flows_out\":[1]"));
        assert!(text.lines().nth(1).unwrap().contains("\"flows_in\":[1]"));

        let doc = chrome_trace(&[("cluster", &rec)]);
        schema::check_chrome(&doc).expect("schema");
        assert!(doc.contains("\"trace_id\":1"));
        assert!(doc.contains("\"ph\":\"s\""));
        assert!(doc.contains("\"ph\":\"f\",\"bp\":\"e\""));
    }

    #[test]
    fn empty_recorder_exports_are_valid() {
        let rec = Recorder::new(Clock::new());
        let text = jsonl(&rec);
        assert!(text.is_empty(), "zero lines for zero events");
        schema::check_jsonl(&text).expect("empty JSONL is fine");
        let doc = chrome_trace(&[("empty", &rec)]);
        crate::json::validate(&doc).expect("well-formed");
        schema::check_chrome(&doc).expect("metadata-only trace is fine");
        let none = chrome_trace(&[]);
        crate::json::validate(&none).expect("well-formed");
        schema::check_chrome(&none).expect("no processes at all is fine");
    }

    #[test]
    fn open_spans_export_validly() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        rec.start("still_open", cat::EXEC);
        clock.advance(Nanos::from_micros(5));
        // No end() and no finish(): export must still be valid.
        let text = jsonl(&rec);
        schema::check_jsonl(&text).expect("schema");
        assert!(text.contains("\"end_ns\":null"));
        schema::check_chrome(&chrome_trace(&[("p", &rec)])).expect("schema");
    }

    #[test]
    fn schema_checks_reject_drifted_output() {
        assert!(schema::check_jsonl("{\"type\":\"span\",\"id\":1}").is_err());
        assert!(schema::check_jsonl("{\"type\":\"mystery\"}").is_err());
        assert!(schema::check_chrome("{\"traceEvents\":[]}").is_err());
        assert!(schema::check_metrics("{\"counters\":{}}").is_err());
        assert!(
            schema::check_metrics(
                "{\"counters\":{},\"gauges\":{},\"histograms\":\
             {\"h\":{\"bounds\":[1],\"counts\":[1],\"count\":1,\"sum\":1}}}"
            )
            .is_err(),
            "counts must include the overflow bucket"
        );
    }
}
