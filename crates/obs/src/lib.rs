//! # transit-obs
//!
//! In-house observability for the workspace: structured spans, a metrics
//! registry, and run-manifest/Prometheus emitters. Written against `std`
//! only — the build environment has no crates.io access, so `tracing`
//! and `metrics` are not options (the same constraint that produced
//! `vendor/`; see DESIGN.md §10).
//!
//! Three layers:
//!
//! * [`span!`]/[`debug_span!`] — RAII guards recording nested wall-clock
//!   timings into a global, aggregated span tree. Thread-local hot path;
//!   one mutex acquisition per *root* span (see [`span`]).
//! * [`counter!`]/[`histogram!`] — named metrics with lock-free updates
//!   after a per-call-site interning step (see [`metrics`]).
//! * [`RunManifest`] — snapshots spans + metrics + caller config into
//!   `run_manifest.json` and `metrics.prom` sidecar files (see
//!   [`manifest`]).
//!
//! On top of those, the streaming layer (observability v2):
//!
//! * [`journal`] — an opt-in event journal recording span begin/end,
//!   counter samples, and run-phase markers to `events.jsonl` with
//!   per-thread buffers and incremental flushes, so a killed run still
//!   leaves a usable timeline.
//! * [`trace`] — converts a journal into a Chrome/Perfetto
//!   `trace_event` file (`trace.json`) with guaranteed-balanced B/E
//!   pairs per thread.
//! * [`serve`] — a `std::net` HTTP thread exposing `/metrics`
//!   (Prometheus text), `/spans` (span-tree JSON), and `/healthz`
//!   while a run is in flight.
//!
//! Collection is gated by a process-wide [`Level`]: `quiet` disables
//! spans entirely (counters stay live — they back `cache_stats()`-style
//! shims and cost one relaxed atomic add). The journal is gated
//! separately by [`journal::enable`] and is off by default.
//!
//! ```
//! transit_obs::set_log_level(transit_obs::Level::Info);
//! {
//!     let _span = transit_obs::span!("fit_market", market = "fig8a");
//!     transit_obs::counter!("fitting.runs").inc();
//! }
//! let spans = transit_obs::snapshot_spans();
//! assert!(spans.contains_key("fit_market(market=fig8a)"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fsutil;
pub mod journal;
pub mod level;
pub mod manifest;
pub mod metrics;
pub mod serve;
pub mod span;
pub mod trace;

pub use fsutil::atomic_write;
pub use level::{level_enabled, log_level, set_log_level, Level};
pub use manifest::{git_rev, RunManifest};
pub use metrics::{
    reset as reset_metrics, snapshot as snapshot_metrics, Counter, Histogram, HistogramSnapshot,
    MetricsSnapshot,
};
pub use serve::{serve as serve_metrics, MetricsServer};
pub use span::{current_path, inherit_path, reset_spans, snapshot_spans, Span, SpanNode};

/// Enters an info-level span; returns a guard that records the span's
/// wall-clock time when dropped.
///
/// `span!("name")` or `span!("name", key = value, ...)` — label values
/// render with `Display` and become part of the aggregation key, so keep
/// their cardinality low.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::span::Span::enter($crate::Level::Info, $name, || {
            #[allow(unused_mut)]
            let mut labels = ::std::string::String::new();
            $(
                {
                    use ::std::fmt::Write as _;
                    if !labels.is_empty() {
                        labels.push_str(", ");
                    }
                    let _ = ::std::write!(labels, "{}={}", stringify!($key), $value);
                }
            )*
            labels
        })
    };
}

/// Like [`span!`] but at debug level: only recorded under
/// `--log-level debug`. Use for hot-path spans (per DP build, per
/// capture curve) whose volume would distort info-level profiles.
#[macro_export]
macro_rules! debug_span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::span::Span::enter($crate::Level::Debug, $name, || {
            #[allow(unused_mut)]
            let mut labels = ::std::string::String::new();
            $(
                {
                    use ::std::fmt::Write as _;
                    if !labels.is_empty() {
                        labels.push_str(", ");
                    }
                    let _ = ::std::write!(labels, "{}={}", stringify!($key), $value);
                }
            )*
            labels
        })
    };
}

/// The counter named by the literal argument, interned once per call
/// site (steady-state cost: one relaxed atomic add).
///
/// ```
/// transit_obs::counter!("stage.store.hits").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// The histogram named by the literal argument, interned once per call
/// site.
///
/// ```
/// transit_obs::histogram!("pool.queue.depth").record(3);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_compose() {
        {
            let _outer = span!("lib_test.outer", id = 7);
            counter!("lib_test.count").inc();
            histogram!("lib_test.hist").record(3);
        }
        let spans = crate::snapshot_spans();
        assert!(spans.contains_key("lib_test.outer(id=7)"));
        assert!(crate::metrics::counter("lib_test.count").get() >= 1);
        assert!(crate::metrics::histogram("lib_test.hist").count() >= 1);
    }

    #[test]
    fn counter_macro_reuses_one_handle_across_iterations() {
        for _ in 0..100 {
            counter!("lib_test.loop").inc();
        }
        assert!(crate::metrics::counter("lib_test.loop").get() >= 100);
    }
}
