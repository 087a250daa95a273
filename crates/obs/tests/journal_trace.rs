//! Journal drain under concurrent writers, plus trace.json
//! well-formedness: the satellite tests backing the event-journal
//! tentpole. The journal is process-global state, so the tests in this
//! file serialize on one mutex (the lib's own journal tests do the
//! same inside the crate).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use transit_obs::journal::{self, EventKind, DRAIN_EVERY};
use transit_obs::trace;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A prior test panicking while holding the journal is already a
    // failure; don't cascade poison errors on top.
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("transit_journal_it_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

const HAMMER_THREADS: usize = 8;
const EVENTS_PER_THREAD: usize = 500; // 200 span pairs + 100 counter samples

#[test]
fn concurrent_writers_drop_no_events_and_stay_per_tid_balanced() {
    let _guard = lock();
    let dir = temp_dir("hammer");
    journal::enable(&dir).expect("journal enables");

    std::thread::scope(|scope| {
        for t in 0..HAMMER_THREADS {
            scope.spawn(move || {
                for i in 0..EVENTS_PER_THREAD / 5 {
                    // 5 events per iteration: nested B/B/E/E + one C.
                    journal::span_begin(&format!("hammer.outer_{t}"));
                    journal::span_begin(&format!("hammer.inner_{t}"));
                    journal::span_end(&format!("hammer.inner_{t}"));
                    journal::span_end(&format!("hammer.outer_{t}"));
                    journal::counter_sample(&format!("hammer.count_{t}"), i as u64);
                }
            });
        }
    });

    journal::flush();
    let events_path = journal::disable().expect("journal was enabled");
    let events = trace::read_events(&events_path).expect("events parse");

    // Exactly the written volume: thread-exit drains plus the final
    // flush lose nothing, and epoch gating admits no strays.
    assert_eq!(events.len(), HAMMER_THREADS * EVENTS_PER_THREAD);

    // Per-tid stack balance: each thread's B/E sequence must nest, even
    // though drains interleave threads arbitrarily in the file.
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut tids = std::collections::BTreeSet::new();
    for e in &events {
        tids.insert(e.tid);
        match e.kind {
            EventKind::SpanBegin => stacks.entry(e.tid).or_default().push(e.name.clone()),
            EventKind::SpanEnd => {
                let top = stacks.entry(e.tid).or_default().pop();
                assert_eq!(
                    top.as_ref(),
                    Some(&e.name),
                    "mismatched end on tid {}",
                    e.tid
                );
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "tid {tid} left {} open span(s)",
            stack.len()
        );
    }
    assert_eq!(tids.len(), HAMMER_THREADS, "each writer gets its own tid");

    // Timestamps are sane: non-negative micros, weakly ordered per tid
    // is NOT guaranteed (buffers drain out of order), but the file-wide
    // values must be parseable u64s, which read_events enforced.
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn incremental_drains_survive_without_finalize() {
    let _guard = lock();
    let dir = temp_dir("crash");
    journal::enable(&dir).expect("journal enables");

    // Exceed the per-thread buffer so at least one periodic drain fires,
    // then simulate a crash: no flush, no finalize — just read the file.
    for i in 0..(DRAIN_EVERY * 2) {
        journal::counter_sample("crash.count", i as u64);
    }
    let events_path = journal::events_path().expect("journal path known");
    let on_disk = trace::read_events(&events_path).expect("partial journal parses");
    assert!(
        on_disk.len() >= DRAIN_EVERY,
        "periodic drain must have flushed at least one buffer ({} events on disk)",
        on_disk.len()
    );

    journal::disable();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exported_trace_is_parseable_and_balanced_per_tid() {
    let _guard = lock();
    let dir = temp_dir("trace");
    journal::enable(&dir).expect("journal enables");

    journal::phase("trace_test");
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                for _ in 0..50 {
                    journal::span_begin(&format!("trace.work_{t}"));
                    journal::span_end(&format!("trace.work_{t}"));
                }
                journal::counter_sample("trace.progress", 50);
            });
        }
    });
    // One deliberately unclosed span: export must auto-close it, never
    // emit an unbalanced trace.
    journal::span_begin("trace.unclosed");

    let (trace_path, stats) = trace::finalize_journal()
        .expect("finalize succeeds")
        .expect("journal was enabled");
    journal::disable();

    assert_eq!(stats.auto_closed, 1, "the dangling begin is auto-closed");
    assert_eq!(stats.unmatched_ends, 0);

    let text = std::fs::read_to_string(&trace_path).expect("trace.json readable");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("trace.json parses");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");

    let mut depth: BTreeMap<i64, i64> = BTreeMap::new();
    let mut phases = std::collections::BTreeSet::new();
    for e in events {
        let ph = e["ph"].as_str().expect("ph is a string");
        phases.insert(ph.to_string());
        let tid = e["tid"].as_f64().expect("tid is numeric") as i64;
        match ph {
            "B" => *depth.entry(tid).or_default() += 1,
            "E" => {
                let d = depth.entry(tid).or_default();
                *d -= 1;
                assert!(*d >= 0, "tid {tid}: E before B in exported trace");
            }
            _ => {}
        }
    }
    for (tid, d) in depth {
        assert_eq!(d, 0, "tid {tid}: unbalanced B/E in exported trace");
    }
    // Duration, counter, instant (phase marker), and metadata events all
    // made it through.
    for required in ["B", "E", "C", "i", "M"] {
        assert!(phases.contains(required), "missing ph={required:?} events");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reenabling_discards_stale_thread_buffers() {
    let _guard = lock();
    let dir_a = temp_dir("epoch_a");
    let dir_b = temp_dir("epoch_b");

    journal::enable(&dir_a).expect("first enable");
    journal::span_begin("epoch.first");
    journal::span_end("epoch.first");
    journal::disable();

    journal::enable(&dir_b).expect("second enable");
    journal::span_begin("epoch.second");
    journal::span_end("epoch.second");
    journal::flush();
    let events_path = journal::disable().expect("second journal path");

    let events = trace::read_events(&events_path).expect("second journal parses");
    assert!(
        events.iter().all(|e| !e.name.contains("epoch.first")),
        "stale pre-reenable events leaked into the new journal"
    );
    assert!(events.iter().any(|e| e.name == "epoch.second"));

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}
