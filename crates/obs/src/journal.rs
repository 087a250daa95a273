//! Streaming event journal: timestamped span begin/end, counter samples,
//! and run-phase markers, flushed **incrementally** to `events.jsonl`.
//!
//! The post-hoc [`crate::RunManifest`] only exists if a run finishes; a
//! million-flow sweep that is killed at 80% leaves nothing. The journal
//! closes that gap: every event is buffered **per thread** (no lock on
//! the hot path), and a full buffer drains to the sink file under one
//! mutex, flushing the underlying file so a crashed or killed run still
//! leaves a usable timeline on disk.
//!
//! ## Recording model
//!
//! * Disabled (the default): every entry point is one relaxed atomic
//!   load and an immediate return — safe to leave in hot paths.
//! * Enabled ([`enable`], normally via `--profile DIR`): events append
//!   to a thread-local `Vec`; every [`DRAIN_EVERY`] events the buffer
//!   drains to the shared [`BufWriter`] and the file is flushed. The
//!   buffer also drains when its thread exits (scoped sweep workers) and
//!   on [`flush`]/[`phase`] (phase markers are rare and load-bearing, so
//!   they hit the disk eagerly). Buffers are registered globally, so
//!   [`flush`] and [`disable`] drain *all* threads' tails — thread-exit
//!   TLS destructors alone would race scope joins, which only wait for
//!   the worker closure, not its TLS teardown.
//!
//! Per-thread buffering preserves per-thread event order, which is what
//! makes the Chrome-trace conversion (see [`crate::trace`]) well formed:
//! a thread's `B`/`E` events appear in stack order even though different
//! threads' drains interleave freely in the file.
//!
//! ## File format (`transit-obs/events/v1`)
//!
//! One JSON object per line. The first line is a header:
//!
//! ```json
//! {"schema":"transit-obs/events/v1","start_unix_micros":1754000000000000}
//! ```
//!
//! Every following line is an event:
//!
//! ```json
//! {"ts":1234,"tid":1,"ph":"B","name":"experiment(id=fig8)"}
//! {"ts":2345,"tid":1,"ph":"E","name":"experiment(id=fig8)"}
//! {"ts":2350,"tid":2,"ph":"C","name":"cache.fingerprint.hits","value":42}
//! {"ts":2400,"tid":1,"ph":"P","name":"phase:fig8"}
//! ```
//!
//! `ts` is microseconds since an arbitrary process-wide epoch (the first
//! journal touch); only differences are meaningful. `tid` is a small
//! journal-assigned thread index, not an OS thread id.

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Schema identifier written on the header line of `events.jsonl`.
pub const EVENTS_SCHEMA: &str = "transit-obs/events/v1";

/// File name the journal writes under its directory.
pub const EVENTS_FILE: &str = "events.jsonl";

/// Thread-local buffer capacity that triggers a drain to the sink.
pub const DRAIN_EVERY: usize = 128;

/// What one journal event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ph: "B"`).
    SpanBegin,
    /// A span closed (`ph: "E"`).
    SpanEnd,
    /// A monotonic counter sample (`ph: "C"`, `value` carries the
    /// counter's current value).
    Counter,
    /// A run-phase marker (`ph: "P"`).
    Phase,
}

impl EventKind {
    /// One-letter phase code used in the JSONL encoding (and mapped onto
    /// the Chrome trace_event `ph` field by [`crate::trace`]).
    pub fn code(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "B",
            EventKind::SpanEnd => "E",
            EventKind::Counter => "C",
            EventKind::Phase => "P",
        }
    }

    /// Parses a one-letter phase code.
    pub fn from_code(code: &str) -> Option<EventKind> {
        match code {
            "B" => Some(EventKind::SpanBegin),
            "E" => Some(EventKind::SpanEnd),
            "C" => Some(EventKind::Counter),
            "P" => Some(EventKind::Phase),
            _ => None,
        }
    }
}

/// One timestamped journal event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the process-wide journal epoch.
    pub ts_micros: u64,
    /// Journal-assigned thread index (stable for a thread's lifetime).
    pub tid: u64,
    /// What happened.
    pub kind: EventKind,
    /// Span key, counter name, or phase label.
    pub name: String,
    /// Counter value for [`EventKind::Counter`]; 0 otherwise.
    pub value: u64,
}

impl Event {
    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut fields = vec![
            ("ts".to_string(), serde::Content::U64(self.ts_micros)),
            ("tid".to_string(), serde::Content::U64(self.tid)),
            (
                "ph".to_string(),
                serde::Content::Str(self.kind.code().to_string()),
            ),
            ("name".to_string(), serde::Content::Str(self.name.clone())),
        ];
        if self.kind == EventKind::Counter {
            fields.push(("value".to_string(), serde::Content::U64(self.value)));
        }
        struct Wrap(serde::Content);
        impl serde::Serialize for Wrap {
            fn to_content(&self) -> serde::Content {
                self.0.clone()
            }
        }
        serde_json::to_string(&Wrap(serde::Content::Map(fields))).expect("event serializes")
    }
}

struct Sink {
    writer: BufWriter<File>,
    path: PathBuf,
}

struct JournalState {
    enabled: AtomicBool,
    /// Bumped on every [`enable`] so stale thread buffers from a prior
    /// journal session are discarded instead of leaking into a new file.
    epoch: AtomicU64,
    sink: Mutex<Option<Sink>>,
    /// Every live thread buffer, so [`flush`]/[`disable`] can drain
    /// *other* threads' tails. `std::thread::scope` (and `join`) only
    /// waits for a thread's closure — its TLS destructors may still be
    /// pending when the coordinator resumes, so a purely
    /// destructor-driven drain would race the sink teardown and drop
    /// the tail buffer.
    registry: Mutex<Vec<Weak<Mutex<BufInner>>>>,
}

fn state() -> &'static JournalState {
    static STATE: OnceLock<JournalState> = OnceLock::new();
    STATE.get_or_init(|| JournalState {
        enabled: AtomicBool::new(false),
        epoch: AtomicU64::new(0),
        sink: Mutex::new(None),
        registry: Mutex::new(Vec::new()),
    })
}

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_micros() -> u64 {
    process_epoch()
        .elapsed()
        .as_micros()
        .min(u128::from(u64::MAX)) as u64
}

struct BufInner {
    epoch: u64,
    tid: u64,
    events: Vec<Event>,
}

impl BufInner {
    fn drain(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let st = state();
        let mut sink = st.sink.lock().expect("journal sink poisoned");
        // A re-enable between buffering and draining means these events
        // belong to a closed file: drop them rather than corrupting the
        // new session's timeline.
        if self.epoch == st.epoch.load(Ordering::Relaxed) {
            if let Some(sink) = sink.as_mut() {
                for event in &self.events {
                    let _ = writeln!(sink.writer, "{}", event.to_json_line());
                }
                // Flush through to the OS so a killed run keeps the
                // drained prefix of its timeline.
                let _ = sink.writer.flush();
            }
        }
        self.events.clear();
    }
}

/// The thread-local handle: an `Arc` shared with the global registry so
/// coordinators can drain this thread's buffer on [`flush`]/[`disable`].
struct ThreadBuf(Arc<Mutex<BufInner>>);

impl ThreadBuf {
    fn new(epoch: u64) -> ThreadBuf {
        let inner = Arc::new(Mutex::new(BufInner {
            epoch,
            tid: next_tid(),
            events: Vec::with_capacity(DRAIN_EVERY),
        }));
        let mut registry = state().registry.lock().expect("journal registry poisoned");
        // Thread exit leaves a dead Weak behind; prune here so the
        // registry stays proportional to *live* threads.
        registry.retain(|w| w.strong_count() > 0);
        registry.push(Arc::downgrade(&inner));
        ThreadBuf(inner)
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.0.lock().expect("journal buffer poisoned").drain();
    }
}

/// Drains every registered thread buffer into the sink. Lock order is
/// registry → buffer → sink throughout this module.
fn drain_all() {
    let buffers: Vec<Arc<Mutex<BufInner>>> = {
        let registry = state().registry.lock().expect("journal registry poisoned");
        registry.iter().filter_map(Weak::upgrade).collect()
    };
    for buf in buffers {
        buf.lock().expect("journal buffer poisoned").drain();
    }
}

thread_local! {
    static BUF: RefCell<Option<ThreadBuf>> = const { RefCell::new(None) };
}

fn next_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Whether the journal is currently recording (one relaxed load).
pub fn is_enabled() -> bool {
    state().enabled.load(Ordering::Relaxed)
}

/// The journal index assigned to the calling thread (allocating one on
/// first use). Stable for the thread's lifetime.
pub fn thread_index() -> u64 {
    BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        let epoch = state().epoch.load(Ordering::Relaxed);
        let shared = buf.get_or_insert_with(|| ThreadBuf::new(epoch));
        let tid = shared.0.lock().expect("journal buffer poisoned").tid;
        tid
    })
}

fn record(kind: EventKind, name: &str, value: u64, drain_now: bool) {
    if !is_enabled() {
        return;
    }
    let ts_micros = now_micros();
    let epoch = state().epoch.load(Ordering::Relaxed);
    BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        let shared = buf.get_or_insert_with(|| ThreadBuf::new(epoch));
        let mut inner = shared.0.lock().expect("journal buffer poisoned");
        if inner.epoch != epoch {
            // Stale events from a previous journal session.
            inner.events.clear();
            inner.epoch = epoch;
        }
        let tid = inner.tid;
        inner.events.push(Event {
            ts_micros,
            tid,
            kind,
            name: name.to_string(),
            value,
        });
        if drain_now || inner.events.len() >= DRAIN_EVERY {
            inner.drain();
        }
    });
}

/// Records a span-begin event. Normally invoked by the [`crate::span`]
/// RAII guards, not by hand; calling it without a matching [`span_end`]
/// leaves an unclosed `B` that [`crate::trace`] auto-closes at export.
pub fn span_begin(key: &str) {
    record(EventKind::SpanBegin, key, 0, false);
}

/// Records a span-end event (see [`span_begin`]).
pub fn span_end(key: &str) {
    record(EventKind::SpanEnd, key, 0, false);
}

/// Records a counter sample: the counter's *current* value, not a delta.
/// The trace converter turns consecutive samples into a counter track,
/// so deltas are visible as slope.
pub fn counter_sample(name: &str, value: u64) {
    record(EventKind::Counter, name, value, false);
}

/// Records a run-phase marker and drains the calling thread's buffer
/// immediately (phase markers anchor the timeline, so they must survive
/// a crash even when the surrounding buffer is nearly empty).
pub fn phase(name: &str) {
    record(EventKind::Phase, name, 0, true);
}

/// Starts journaling into `dir/events.jsonl` (creating `dir`,
/// truncating any previous file) and returns the file path. Buffered
/// events from a previous journal session are discarded.
pub fn enable(dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(EVENTS_FILE);
    let mut writer = BufWriter::new(File::create(&path)?);
    let start_unix_micros = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0);
    let header = serde::Content::Map(vec![
        (
            "schema".to_string(),
            serde::Content::Str(EVENTS_SCHEMA.to_string()),
        ),
        (
            "start_unix_micros".to_string(),
            serde::Content::U64(start_unix_micros),
        ),
    ]);
    struct Wrap(serde::Content);
    impl serde::Serialize for Wrap {
        fn to_content(&self) -> serde::Content {
            self.0.clone()
        }
    }
    writeln!(
        writer,
        "{}",
        serde_json::to_string(&Wrap(header)).expect("header serializes")
    )?;
    writer.flush()?;

    let st = state();
    let mut sink = st.sink.lock().expect("journal sink poisoned");
    st.epoch.fetch_add(1, Ordering::Relaxed);
    *sink = Some(Sink {
        writer,
        path: path.clone(),
    });
    st.enabled.store(true, Ordering::Relaxed);
    Ok(path)
}

/// Drains **every** thread's buffer and flushes the sink file. Safe to
/// call from a coordinator while workers are idle (e.g. right after a
/// `thread::scope` — joining only waits for the closures, so worker TLS
/// destructors may not have drained yet); call this before reading
/// `events.jsonl` mid-run.
pub fn flush() {
    drain_all();
    let st = state();
    if let Some(sink) = st.sink.lock().expect("journal sink poisoned").as_mut() {
        let _ = sink.writer.flush();
    }
}

/// Stops journaling, draining every thread's buffer and closing the
/// sink. Returns the path of the finished `events.jsonl`, if any.
/// Threads still *writing* concurrently may race the teardown and lose
/// their in-flight events — disable only after workers have gone idle.
pub fn disable() -> Option<PathBuf> {
    let st = state();
    st.enabled.store(false, Ordering::Relaxed);
    drain_all();
    let mut sink = st.sink.lock().expect("journal sink poisoned");
    st.epoch.fetch_add(1, Ordering::Relaxed);
    sink.take().map(|mut s| {
        let _ = s.writer.flush();
        s.path
    })
}

/// The path of the active `events.jsonl`, if the journal is enabled.
pub fn events_path() -> Option<PathBuf> {
    state()
        .sink
        .lock()
        .expect("journal sink poisoned")
        .as_ref()
        .map(|s| s.path.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The journal is process-global; tests serialize on this mutex so
    // enable/disable cycles cannot interleave.
    static JOURNAL_LOCK: Mutex<()> = Mutex::new(());

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("transit_journal_{tag}_{}", std::process::id()))
    }

    fn read_events(path: &Path) -> Vec<serde_json::Value> {
        std::fs::read_to_string(path)
            .expect("events file readable")
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| serde_json::from_str(l).expect("event line parses"))
            .collect()
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let _guard = JOURNAL_LOCK.lock().unwrap();
        assert!(!is_enabled());
        span_begin("journal_test.noop");
        span_end("journal_test.noop");
        phase("journal_test.noop_phase");
        assert!(events_path().is_none());
    }

    #[test]
    fn events_stream_to_file_with_header_and_survive_mid_run() {
        let _guard = JOURNAL_LOCK.lock().unwrap();
        let dir = temp_dir("stream");
        let path = enable(&dir).unwrap();
        span_begin("journal_test.outer");
        counter_sample("journal_test.counter", 7);
        phase("journal_test.phase"); // drains eagerly
                                     // The phase marker drained everything buffered so far: the file
                                     // is already usable even though the "run" has not finished.
        let mid = read_events(&path);
        assert_eq!(mid[0]["schema"], EVENTS_SCHEMA);
        assert!(mid.len() >= 4, "header + 3 events, got {}", mid.len());
        span_end("journal_test.outer");
        flush();
        let lines = read_events(&path);
        let phases: Vec<&str> = lines[1..]
            .iter()
            .map(|v| v["ph"].as_str().unwrap())
            .collect();
        assert_eq!(phases, ["B", "C", "P", "E"]);
        assert_eq!(lines[2]["value"], 7i64);
        let (b, e) = (&lines[1], &lines[4]);
        assert_eq!(b["tid"], e["tid"]);
        assert!(b["ts"].as_f64().unwrap() <= e["ts"].as_f64().unwrap());
        disable();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reenabling_discards_stale_buffered_events() {
        let _guard = JOURNAL_LOCK.lock().unwrap();
        let dir_a = temp_dir("epoch_a");
        let dir_b = temp_dir("epoch_b");
        enable(&dir_a).unwrap();
        span_begin("journal_test.stale"); // buffered, never drained
        let path_b = enable(&dir_b).unwrap();
        phase("journal_test.fresh"); // drains: stale event must vanish
        disable();
        let lines = read_events(&path_b);
        assert!(
            lines[1..].iter().all(|v| v["name"] != "journal_test.stale"),
            "stale event from the previous session leaked: {lines:?}"
        );
        assert!(lines[1..].iter().any(|v| v["name"] == "journal_test.fresh"));
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn buffer_drains_at_capacity_without_explicit_flush() {
        let _guard = JOURNAL_LOCK.lock().unwrap();
        let dir = temp_dir("capacity");
        let path = enable(&dir).unwrap();
        for i in 0..DRAIN_EVERY {
            counter_sample("journal_test.cap", i as u64);
        }
        // DRAIN_EVERY events crossed the threshold: they are on disk now,
        // with no flush() call.
        let lines = read_events(&path);
        assert_eq!(lines.len() - 1, DRAIN_EVERY);
        disable();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_json_roundtrips_through_vendored_parser() {
        let event = Event {
            ts_micros: 123,
            tid: 4,
            kind: EventKind::Counter,
            name: "a \"quoted\"\nname\\x".to_string(),
            value: 99,
        };
        let v: serde_json::Value = serde_json::from_str(&event.to_json_line()).unwrap();
        assert_eq!(v["ts"], 123i64);
        assert_eq!(v["tid"], 4i64);
        assert_eq!(v["ph"], "C");
        assert_eq!(v["name"], "a \"quoted\"\nname\\x");
        assert_eq!(v["value"], 99i64);
        for kind in [
            EventKind::SpanBegin,
            EventKind::SpanEnd,
            EventKind::Counter,
            EventKind::Phase,
        ] {
            assert_eq!(EventKind::from_code(kind.code()), Some(kind));
        }
    }
}
