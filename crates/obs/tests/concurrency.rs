//! Concurrency guarantees: hammering counters, histograms, and spans
//! from `std::thread::scope` threads loses no updates.

use std::collections::BTreeMap;

const THREADS: usize = 8;
const OPS: usize = 10_000;

#[test]
fn concurrent_counter_increments_are_all_counted() {
    let before = transit_obs::metrics::counter("conc.counter").get();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..OPS {
                    transit_obs::counter!("conc.counter").inc();
                }
            });
        }
    });
    let after = transit_obs::metrics::counter("conc.counter").get();
    assert_eq!(
        after - before,
        (THREADS * OPS) as u64,
        "lost counter updates"
    );
}

#[test]
fn concurrent_histogram_records_are_all_counted() {
    let h = transit_obs::metrics::histogram("conc.hist");
    let before = h.count();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..OPS {
                    transit_obs::histogram!("conc.hist").record((t * OPS + i) as u64);
                }
            });
        }
    });
    assert_eq!(h.count() - before, (THREADS * OPS) as u64, "lost samples");
    // Bucket counts agree with the total.
    let snap = transit_obs::snapshot_metrics();
    let bucket_total: u64 = snap.histograms["conc.hist"]
        .buckets
        .iter()
        .map(|&(_, n)| n)
        .sum();
    assert_eq!(bucket_total, snap.histograms["conc.hist"].count);
}

#[test]
fn concurrent_spans_aggregate_without_loss() {
    transit_obs::set_log_level(transit_obs::Level::Info);
    const SPANS_PER_THREAD: usize = 500;
    let counted = |tree: &BTreeMap<String, transit_obs::SpanNode>| -> u64 {
        tree.get("conc.span_root")
            .map(|n| {
                assert_eq!(
                    n.children
                        .get("conc.span_child")
                        .map(|c| c.count)
                        .unwrap_or(0),
                    n.count * 2,
                    "every root carries two child spans"
                );
                n.count
            })
            .unwrap_or(0)
    };
    let before = counted(&transit_obs::snapshot_spans());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..SPANS_PER_THREAD {
                    let _root = transit_obs::span!("conc.span_root");
                    let _a = transit_obs::span!("conc.span_child");
                    drop(_a);
                    let _b = transit_obs::span!("conc.span_child");
                }
            });
        }
    });
    let after = counted(&transit_obs::snapshot_spans());
    assert_eq!(
        after - before,
        (THREADS * SPANS_PER_THREAD) as u64,
        "lost span flushes"
    );
}

#[test]
fn concurrent_inherited_paths_stay_thread_local() {
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                let _guard = transit_obs::inherit_path(vec![format!("conc.base{t}")]);
                for _ in 0..200 {
                    let _s = transit_obs::span!("conc.pinned");
                }
            });
        }
    });
    let tree = transit_obs::snapshot_spans();
    for t in 0..THREADS {
        let base = tree
            .get(&format!("conc.base{t}"))
            .unwrap_or_else(|| panic!("base{t} missing"));
        assert_eq!(
            base.children.get("conc.pinned").map(|n| n.count),
            Some(200),
            "thread {t} flushed under the wrong base"
        );
    }
}
