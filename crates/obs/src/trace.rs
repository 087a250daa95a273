//! Chrome-trace export: converts a journal `events.jsonl` (see
//! [`crate::journal`]) into `trace.json` in the `chrome://tracing` /
//! Perfetto `trace_event` JSON format.
//!
//! Mapping:
//!
//! | journal `ph` | trace_event | notes |
//! |--------------|-------------|-------|
//! | `B` / `E`    | `B` / `E` duration events | keyed by `tid`, `cat: "span"` |
//! | `C`          | `C` counter event | value under `args.value` |
//! | `P`          | `i` instant event | global scope (`s: "g"`) |
//!
//! The exporter **guarantees balance**: an `E` with no matching open `B`
//! on its thread is dropped (counted in [`TraceStats::unmatched_ends`]),
//! and any `B` still open at end-of-file is auto-closed at the last
//! timestamp seen (counted in [`TraceStats::auto_closed`]). A journal
//! cut short by a crash therefore still converts to a trace Perfetto
//! will load, and tests can assert strict balance on the output.
//!
//! Thread-name metadata events (`ph: "M"`) label each journal thread
//! index as `thread-N` so the timeline rows are readable.

use std::io;
use std::path::Path;

use crate::journal::{Event, EventKind, EVENTS_SCHEMA};

/// What one export run saw and emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Journal events read (header excluded).
    pub events: usize,
    /// `B` duration events emitted.
    pub begins: usize,
    /// `E` duration events emitted (equals `begins` by construction).
    pub ends: usize,
    /// Counter events emitted.
    pub counters: usize,
    /// Instant (phase-marker) events emitted.
    pub instants: usize,
    /// Distinct journal thread indices seen.
    pub threads: usize,
    /// `E` events dropped because no `B` was open on their thread.
    pub unmatched_ends: usize,
    /// `B` events auto-closed at end-of-file.
    pub auto_closed: usize,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads and validates a `transit-obs/events/v1` journal file: header
/// line first, then one event object per line with `ts`/`tid`/`ph`/
/// `name` fields (`value` required for counters).
pub fn read_events(path: &Path) -> io::Result<Vec<Event>> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines
        .next()
        .ok_or_else(|| invalid(format!("{}: empty events file", path.display())))?;
    let header: serde_json::Value = serde_json::from_str(header)
        .map_err(|e| invalid(format!("{}: bad header: {e}", path.display())))?;
    match header["schema"].as_str() {
        Some(EVENTS_SCHEMA) => {}
        Some(other) => {
            return Err(invalid(format!(
                "{}: schema {other:?}, expected {EVENTS_SCHEMA:?}",
                path.display()
            )))
        }
        None => {
            return Err(invalid(format!(
                "{}: header line has no schema field",
                path.display()
            )))
        }
    }
    let mut events = Vec::new();
    for (idx, line) in lines {
        let v: serde_json::Value = serde_json::from_str(line)
            .map_err(|e| invalid(format!("{}:{}: {e}", path.display(), idx + 1)))?;
        let field = |name: &str| -> io::Result<f64> {
            v[name]
                .as_f64()
                .ok_or_else(|| invalid(format!("{}:{}: missing {name}", path.display(), idx + 1)))
        };
        let kind = v["ph"]
            .as_str()
            .and_then(EventKind::from_code)
            .ok_or_else(|| invalid(format!("{}:{}: bad ph", path.display(), idx + 1)))?;
        let name = v["name"]
            .as_str()
            .ok_or_else(|| invalid(format!("{}:{}: missing name", path.display(), idx + 1)))?;
        let value = if kind == EventKind::Counter {
            field("value")? as u64
        } else {
            0
        };
        events.push(Event {
            ts_micros: field("ts")? as u64,
            tid: field("tid")? as u64,
            kind,
            name: name.to_string(),
            value,
        });
    }
    Ok(events)
}

fn trace_event(
    name: &str,
    ph: &str,
    ts: u64,
    tid: u64,
    extra: Vec<(String, serde::Content)>,
) -> serde::Content {
    let mut fields = vec![
        ("name".to_string(), serde::Content::Str(name.to_string())),
        ("ph".to_string(), serde::Content::Str(ph.to_string())),
        ("ts".to_string(), serde::Content::U64(ts)),
        ("pid".to_string(), serde::Content::U64(1)),
        ("tid".to_string(), serde::Content::U64(tid)),
    ];
    fields.extend(extra);
    serde::Content::Map(fields)
}

/// Converts an in-memory event list to the trace_event JSON document.
/// Returns the JSON text and the export statistics.
pub fn events_to_chrome_trace(events: &[Event]) -> (String, TraceStats) {
    let mut stats = TraceStats {
        events: events.len(),
        ..TraceStats::default()
    };
    let mut out: Vec<serde::Content> = Vec::with_capacity(events.len() + 8);
    // Per-tid stack of open span names, so the output is balanced even
    // when the journal was cut mid-span.
    let mut open: std::collections::BTreeMap<u64, Vec<String>> = std::collections::BTreeMap::new();
    let mut last_ts = 0u64;
    for event in events {
        last_ts = last_ts.max(event.ts_micros);
        match event.kind {
            EventKind::SpanBegin => {
                open.entry(event.tid).or_default().push(event.name.clone());
                stats.begins += 1;
                out.push(trace_event(
                    &event.name,
                    "B",
                    event.ts_micros,
                    event.tid,
                    vec![("cat".to_string(), serde::Content::Str("span".to_string()))],
                ));
            }
            EventKind::SpanEnd => {
                let matched = open
                    .get_mut(&event.tid)
                    .and_then(|stack| (stack.last() == Some(&event.name)).then(|| stack.pop()))
                    .is_some();
                if matched {
                    stats.ends += 1;
                    out.push(trace_event(
                        &event.name,
                        "E",
                        event.ts_micros,
                        event.tid,
                        vec![],
                    ));
                } else {
                    stats.unmatched_ends += 1;
                }
            }
            EventKind::Counter => {
                stats.counters += 1;
                out.push(trace_event(
                    &event.name,
                    "C",
                    event.ts_micros,
                    event.tid,
                    vec![(
                        "args".to_string(),
                        serde::Content::Map(vec![(
                            "value".to_string(),
                            serde::Content::U64(event.value),
                        )]),
                    )],
                ));
            }
            EventKind::Phase => {
                stats.instants += 1;
                out.push(trace_event(
                    &event.name,
                    "i",
                    event.ts_micros,
                    event.tid,
                    vec![("s".to_string(), serde::Content::Str("g".to_string()))],
                ));
            }
        }
    }
    // Auto-close spans left open (crash/kill mid-span): innermost first.
    for (tid, stack) in &mut open {
        while let Some(name) = stack.pop() {
            stats.auto_closed += 1;
            stats.ends += 1;
            out.push(trace_event(&name, "E", last_ts, *tid, vec![]));
        }
    }
    stats.threads = events
        .iter()
        .map(|e| e.tid)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    // Thread-name metadata rows.
    for tid in events
        .iter()
        .map(|e| e.tid)
        .collect::<std::collections::BTreeSet<_>>()
    {
        out.push(trace_event(
            "thread_name",
            "M",
            0,
            tid,
            vec![(
                "args".to_string(),
                serde::Content::Map(vec![(
                    "name".to_string(),
                    serde::Content::Str(format!("thread-{tid}")),
                )]),
            )],
        ));
    }
    let doc = serde::Content::Map(vec![
        ("traceEvents".to_string(), serde::Content::Seq(out)),
        (
            "displayTimeUnit".to_string(),
            serde::Content::Str("ms".to_string()),
        ),
    ]);
    struct Wrap(serde::Content);
    impl serde::Serialize for Wrap {
        fn to_content(&self) -> serde::Content {
            self.0.clone()
        }
    }
    (
        serde_json::to_string(&Wrap(doc)).expect("trace serializes"),
        stats,
    )
}

/// Reads `events_path`, converts it, and writes the trace_event JSON to
/// `trace_path`.
pub fn export_chrome_trace(events_path: &Path, trace_path: &Path) -> io::Result<TraceStats> {
    let events = read_events(events_path)?;
    let (json, stats) = events_to_chrome_trace(&events);
    crate::fsutil::atomic_write(trace_path, json.as_bytes())?;
    Ok(stats)
}

/// Flushes the live journal and exports `trace.json` next to its
/// `events.jsonl`. Returns `Ok(None)` when the journal is disabled —
/// callers can finalize unconditionally.
pub fn finalize_journal() -> io::Result<Option<(std::path::PathBuf, TraceStats)>> {
    if !crate::journal::is_enabled() {
        return Ok(None);
    }
    crate::journal::flush();
    let Some(events) = crate::journal::events_path() else {
        return Ok(None);
    };
    let trace = events.with_file_name("trace.json");
    let stats = export_chrome_trace(&events, &trace)?;
    Ok(Some((trace, stats)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(ts: u64, tid: u64, kind: EventKind, name: &str, value: u64) -> Event {
        Event {
            ts_micros: ts,
            tid,
            kind,
            name: name.to_string(),
            value,
        }
    }

    #[test]
    fn balanced_events_convert_one_to_one() {
        let events = vec![
            event(10, 1, EventKind::SpanBegin, "outer", 0),
            event(12, 1, EventKind::SpanBegin, "inner", 0),
            event(14, 1, EventKind::Counter, "hits", 3),
            event(20, 1, EventKind::SpanEnd, "inner", 0),
            event(30, 1, EventKind::SpanEnd, "outer", 0),
            event(15, 2, EventKind::Phase, "phase:x", 0),
        ];
        let (json, stats) = events_to_chrome_trace(&events);
        assert_eq!(stats.begins, 2);
        assert_eq!(stats.ends, 2);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.unmatched_ends, 0);
        assert_eq!(stats.auto_closed, 0);
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let trace_events = doc["traceEvents"].as_array().unwrap();
        // 6 journal events + 2 thread_name metadata rows.
        assert_eq!(trace_events.len(), 8);
        assert_eq!(trace_events[2]["args"]["value"], 3i64);
        assert_eq!(trace_events[5]["s"], "g");
    }

    #[test]
    fn unclosed_begin_is_auto_closed_and_unmatched_end_dropped() {
        let events = vec![
            event(5, 1, EventKind::SpanEnd, "never_opened", 0),
            event(10, 1, EventKind::SpanBegin, "crashed_span", 0),
            event(99, 2, EventKind::Counter, "c", 1),
        ];
        let (json, stats) = events_to_chrome_trace(&events);
        assert_eq!(stats.unmatched_ends, 1);
        assert_eq!(stats.auto_closed, 1);
        assert_eq!(stats.begins, stats.ends);
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let evs = doc["traceEvents"].as_array().unwrap();
        // The synthetic E lands at the last timestamp seen anywhere (99).
        let synthetic = evs
            .iter()
            .find(|e| e["ph"] == "E" && e["name"] == "crashed_span")
            .expect("auto-close emitted");
        assert_eq!(synthetic["ts"], 99i64);
    }

    #[test]
    fn read_events_rejects_bad_schema_and_bad_lines() {
        let dir = std::env::temp_dir().join(format!("transit_trace_reject_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad_schema = dir.join("bad_schema.jsonl");
        std::fs::write(&bad_schema, "{\"schema\":\"nope/v9\"}\n").unwrap();
        assert!(read_events(&bad_schema).is_err());
        let bad_line = dir.join("bad_line.jsonl");
        std::fs::write(
            &bad_line,
            format!("{{\"schema\":\"{EVENTS_SCHEMA}\"}}\n{{\"ts\":1}}\n"),
        )
        .unwrap();
        assert!(read_events(&bad_line).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
